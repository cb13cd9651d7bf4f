"""File formats, threshold generation, and the synthetic data generator.

Dataset grammar, one q-sequence per line::

    tok ( ' ' tok )*
    tok      = ITEM '[' QTY ']'   item occurrence
             | '-1'               element separator
             | '-2'               end of sequence (mandatory last token)
    trailer  = 'SUtility:N'       optional, after -2; verified when unit
                                  utilities are supplied to the parser

ITEM is a non-negative integer or a bare identifier, QTY a positive integer.
Utility-table and threshold-table files hold one ``ITEM VALUE`` pair per
line with ``#`` starting a comment.  All emitters write UTF-8 with LF;
parsers accept CRLF too.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, TextIO, Union

from .model import (
    MTable,
    Pattern,
    QItemset,
    QSDatabase,
    QSequence,
    SymbolTable,
    UtilityTable,
    qsequence_utility,
)
from .miner import ConfigError, Husp

Source = Union[str, Path, TextIO]

_ITEM_TOKEN = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*|\d+)\[(\d+)\]$")
_NAME = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*|\d+)$")
_SUTILITY = re.compile(r"^SUtility:(\d+)$")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class SUtilityMismatch(ParseError):
    pass


def _read_text(source: Source) -> str:
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_start = data.rfind(b"\n", 0, exc.start) + 1
            raise ParseError(
                f"{source} is not UTF-8 text ({exc.reason})",
                data.count(b"\n", 0, exc.start) + 1,
                exc.start - line_start + 1,
            ) from None
    return source.read()


def _tokens_with_columns(line: str):
    out = []
    col = 0
    length = len(line)
    while col < length:
        if line[col] == " ":
            col += 1
            continue
        end = line.find(" ", col)
        if end == -1:
            end = length
        out.append((line[col:end], col + 1))
        col = end
    return out


def parse_dataset(
    source: Source, unit_utilities: Optional[dict] = None
) -> QSDatabase:
    """Parse a dataset file into a database with interned items.

    When ``unit_utilities`` (name -> unit utility) is given, any SUtility
    trailer is verified against the recomputed sequence utility.
    """
    text = _read_text(source)
    raw_sequences = []  # list of (lineno, [elements], declared_sutility)
    names = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.rstrip("\r")
        if not line.strip():
            continue
        tokens = _tokens_with_columns(line)
        elements: list[list[tuple[str, int]]] = []
        current: list[tuple[str, int]] = []
        seen_in_current: set = set()
        ended = False
        pending_separator = False
        declared: Optional[tuple[int, int]] = None  # (value, col)
        for tok, col in tokens:
            if ended:
                m = _SUTILITY.match(tok)
                if m is None or declared is not None:
                    raise ParseError(f"unexpected token {tok!r} after -2", lineno, col)
                declared = (int(m.group(1)), col)
                continue
            if tok == "-1":
                if not current:
                    raise ParseError("empty element before -1", lineno, col)
                elements.append(current)
                current, seen_in_current = [], set()
                pending_separator = True
                continue
            if tok == "-2":
                if pending_separator and not current:
                    raise ParseError("empty element before -2", lineno, col)
                if current:
                    elements.append(current)
                if not elements:
                    raise ParseError("empty sequence", lineno, col)
                ended = True
                continue
            pending_separator = False
            m = _ITEM_TOKEN.match(tok)
            if m is None:
                raise ParseError(f"bad token {tok!r}", lineno, col)
            name, qty = m.group(1), int(m.group(2))
            if qty < 1:
                raise ParseError(f"quantity must be >= 1 in {tok!r}", lineno, col)
            if name in seen_in_current:
                raise ParseError(f"duplicate item {name!r} in element", lineno, col)
            seen_in_current.add(name)
            current.append((name, qty))
            names.add(name)
        if not ended:
            raise ParseError("sequence not terminated by -2", lineno, 1)
        raw_sequences.append((lineno, elements, declared))

    symbols = SymbolTable.from_names(names)
    sequences = []
    for ordinal, (lineno, elements, declared) in enumerate(raw_sequences, start=1):
        qitemsets = tuple(
            QItemset.from_pairs((symbols.id_of(n), q) for n, q in element)
            for element in elements
        )
        qseq = QSequence(sid=str(ordinal), elements=qitemsets)
        if declared is not None and unit_utilities is not None:
            value, col = declared
            try:
                actual = sum(
                    q * unit_utilities[n] for element in elements for n, q in element
                )
            except KeyError as exc:
                raise ConfigError(
                    f"utility table is missing items: {exc.args[0]}"
                ) from None
            if actual != value:
                raise SUtilityMismatch(
                    f"declared SUtility {value} but recomputed {actual}", lineno, col
                )
        sequences.append(qseq)
    return QSDatabase(sequences=tuple(sequences), symbols=symbols)


def serialize_dataset(db: QSDatabase, utable: Optional[UtilityTable] = None) -> str:
    """Canonical dataset text; appends SUtility trailers when a utility
    table is supplied."""
    lines = []
    for qseq in db.sequences:
        parts = []
        for idx, element in enumerate(qseq.elements):
            if idx:
                parts.append("-1")
            for item, qty in element.entries():
                parts.append(f"{db.symbols.name_of(item)}[{qty}]")
        parts.append("-2")
        if utable is not None:
            parts.append(f"SUtility:{qsequence_utility(qseq, utable)}")
        lines.append(" ".join(parts))
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# item-value tables (unit utilities and thresholds share one layout)


def parse_item_values(source: Source) -> dict:
    """Parse ``ITEM VALUE`` lines into a name -> value dict."""
    out: dict = {}
    for lineno, line in enumerate(_read_text(source).splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2 or not _NAME.match(fields[0]):
            raise ParseError(f"expected 'ITEM VALUE', got {line!r}", lineno)
        name, value = fields
        if name in out:
            raise ParseError(f"duplicate item {name!r}", lineno)
        try:
            parsed = int(value)
        except ValueError:
            raise ParseError(f"bad value {value!r}", lineno) from None
        if parsed < 0:
            raise ParseError(f"negative value {value!r}", lineno)
        out[name] = parsed
    return out


def serialize_item_values(values: dict) -> str:
    from .model import symbol_sort_key

    return "".join(
        f"{name} {values[name]}\n" for name in sorted(values, key=symbol_sort_key)
    )


def bind_unit_utilities(values: dict, symbols: SymbolTable) -> UtilityTable:
    missing = [n for n in symbols.names if n not in values]
    if missing:
        raise ConfigError(f"utility table is missing items: {', '.join(missing)}")
    return UtilityTable(tuple(values[n] for n in symbols.names))


def bind_thresholds(values: dict, symbols: SymbolTable) -> MTable:
    missing = [n for n in symbols.names if n not in values]
    if missing:
        raise ConfigError(f"threshold table is missing items: {', '.join(missing)}")
    return MTable(tuple(values[n] for n in symbols.names))


_HALF = Fraction(1, 2)

Ratio = Union[int, float, str, Fraction]


def round_half_up(x) -> int:
    """Nearest integer with halves rounded up; exact when ``x`` is a
    ``Fraction``, float arithmetic when it is a float."""
    return int(math.floor(x + _HALF))


def exact_ratio(x: Ratio) -> Fraction:
    """Exact value of a threshold factor.

    Strings are read as decimals (``"0.009"`` is exactly 9/1000) and a float
    as the shortest decimal that prints it, so ``0.009`` means 9/1000 rather
    than the nearest binary fraction.  Raises ValueError for NaN, infinities
    and malformed text.
    """
    if isinstance(x, float):
        x = repr(x)
    return Fraction(x)


def generate_mtable(
    db: QSDatabase, utable: UtilityTable, beta: Ratio, lmu_fraction: Ratio
) -> MTable:
    """Threshold table mu(i) = max(round(beta * total utility of i), LMU),
    where LMU = round(lmu_fraction * total database utility).

    An item's utility here is the sum over all its occurrences, so beta
    scales against how much the item actually contributes to the data.
    With beta = 0 every threshold collapses to the uniform LMU.  Both
    factors are taken exactly (see :func:`exact_ratio`) and both products
    are rounded half up in exact rational arithmetic.
    """
    beta = exact_ratio(beta)
    lmu_fraction = exact_ratio(lmu_fraction)
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if not 0 <= lmu_fraction <= 1:
        raise ValueError("lmu_fraction must be within [0, 1]")
    totals = [0] * len(db.symbols)
    for qseq in db.sequences:
        for _, item, qty in qseq.flat():
            totals[item] += qty * utable.of(item)
    lmu = round_half_up(lmu_fraction * sum(totals))
    return MTable(tuple(max(round_half_up(beta * t), lmu) for t in totals))


# ---------------------------------------------------------------------------
# synthetic data


@dataclass(frozen=True)
class GenParams:
    """Shape of a generated dataset; the seed fixes every output byte."""

    n_sequences: int
    n_items: int
    max_elements: int = 6
    max_element_size: int = 3
    quantity_range: tuple = (1, 5)
    unit_log_mean: float = 3.0
    unit_log_sigma: float = 1.3
    seed: int = 0

    def __post_init__(self):
        if self.n_sequences < 0:
            raise ValueError("n_sequences must be >= 0")
        if self.n_items < 1 or self.max_elements < 1 or self.max_element_size < 1:
            raise ValueError("n_items, max_elements, max_element_size must be >= 1")
        lo, hi = self.quantity_range
        if not 1 <= lo <= hi:
            raise ValueError("quantity_range must satisfy 1 <= lo <= hi")


def generate_synthetic(params: GenParams) -> tuple:
    """Build (dataset_text, utility_table_text) reproducibly from the seed.

    Quantities are uniform over the configured range; unit utilities are
    log-normal, rounded and clamped into [1, 1000].
    """
    rng = random.Random(params.seed)
    units = {
        str(i): min(
            1000,
            max(1, round_half_up(rng.lognormvariate(params.unit_log_mean,
                                                    params.unit_log_sigma))),
        )
        for i in range(params.n_items)
    }
    qlo, qhi = params.quantity_range
    lines = []
    for _ in range(params.n_sequences):
        parts = []
        sutility = 0
        for e in range(rng.randint(1, params.max_elements)):
            size = rng.randint(1, min(params.max_element_size, params.n_items))
            chosen = sorted(rng.sample(range(params.n_items), size))
            if e:
                parts.append("-1")
            for item in chosen:
                qty = rng.randint(qlo, qhi)
                parts.append(f"{item}[{qty}]")
                sutility += qty * units[str(item)]
        parts.append("-2")
        parts.append(f"SUtility:{sutility}")
        lines.append(" ".join(parts))
    dataset = "".join(line + "\n" for line in lines)
    return dataset, serialize_item_values(units)


# ---------------------------------------------------------------------------
# result serialization

RESULT_HEADER = "pattern\tutility\tmiu"


def write_results(
    husps: list,
    stats=None,
    fmt: str = "tsv",
    symbols: Optional[SymbolTable] = None,
) -> str:
    """Render mined patterns as TSV (default) or JSON text."""
    if symbols is None:
        raise ValueError("symbols required to render patterns")
    if fmt == "tsv":
        lines = [RESULT_HEADER]
        for h in husps:
            lines.append(f"{h.pattern.render(symbols)}\t{h.utility}\t{h.miu}")
        return "".join(line + "\n" for line in lines)
    if fmt == "json":
        payload = {
            "husps": [
                {
                    "pattern": h.pattern.render(symbols),
                    "utility": h.utility,
                    "miu": h.miu,
                }
                for h in husps
            ],
            "stats": None
            if stats is None
            else {
                "candidates_visited": stats.candidates_visited,
                "husps_found": stats.husps_found,
                "wall_time": stats.wall_time,
                "peak_memory_estimate": stats.peak_memory_estimate,
                "depth_histogram": {str(k): v for k, v in
                                    sorted(stats.depth_histogram.items())},
            },
        }
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def parse_pattern_string(text: str, symbols: SymbolTable) -> Pattern:
    """Inverse of Pattern.render, e.g. ``[b],[c e]``."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"bad pattern string {text!r}")
    itemsets = []
    for chunk in text[1:-1].split("],["):
        items = tuple(sorted(symbols.id_of(n) for n in chunk.split()))
        itemsets.append(items)
    return Pattern(tuple(itemsets))


def parse_results(source: Source, symbols: Optional[SymbolTable] = None):
    """Read a result file back.

    TSV and JSON are auto-detected.  Returns Husp objects when a symbol
    table is given, else (pattern_string, utility, miu) rows.
    """
    text = _read_text(source)
    rows = []
    stripped = text.lstrip()
    if stripped.startswith("{"):
        payload = json.loads(text)
        for entry in payload["husps"]:
            rows.append((entry["pattern"], int(entry["utility"]), int(entry["miu"])))
    else:
        lines = text.splitlines()
        if not lines or lines[0] != RESULT_HEADER:
            raise ValueError("missing result header")
        for line in lines[1:]:
            if not line.strip():
                continue
            pattern_s, utility, miu_v = line.split("\t")
            rows.append((pattern_s, int(utility), int(miu_v)))
    if symbols is None:
        return rows
    return [
        Husp(parse_pattern_string(p, symbols), u, m) for p, u, m in rows
    ]
