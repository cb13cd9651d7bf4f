r"""File formats, threshold generation, and the synthetic data generator.

Dataset grammar, one q-sequence per line::

    tok ( ' ' tok )*
    tok      = ITEM '[' QTY ']'   item occurrence
             | '-1'               element separator
             | '-2'               end of sequence (mandatory last token)
    trailer  = 'SUtility:N'       optional, after -2; verified when unit
                                  utilities are supplied to the parser

ITEM is a non-negative integer or a bare identifier, QTY a positive integer.
Tokens are separated by one or more spaces; any other character, a tab
included, belongs to a token.  A line of whitespace only is skipped.
Utility-table and threshold-table files hold one ``ITEM VALUE`` pair per
line with ``#`` starting a comment.  Every integer in an input or result
file is ASCII digits, and a quantity, SUtility or table value has at most
``MAX_DIGITS`` (1,000) of them.

Each parser has a fast path for canonical input and a token loop for the
rest.  A canonical dataset line has single spaces, no space at either end
and no leading zero in a quantity; :func:`parse_dataset` splits it with
C-level calls.  A canonical table is ``ITEM VALUE`` lines with one space
and no comment, blank line or ``\r``, the last ended by ``\n``;
:func:`parse_item_values` reads it with one ``split``.  Any other dataset
line goes through the token loop, and any other table through the line
loop; so does canonical input with a duplicate item.  Only these loops
report malformed text, so every :class:`ParseError` has the message, line
and column it would have without the fast paths, which give equal
results.  A wrong SUtility trailer is reported only once every line has
parsed.

Lines end at ``\n`` only, and a ``\r`` just before it is dropped, so CRLF
files read as LF files.  Other Unicode line boundaries (``\x0b``, ``\x0c``,
``\x1c``-``\x1e``, ``\x85``, ``\u2028``, ``\u2029``, a lone ``\r``) are
ordinary characters: they neither end a line nor shift the line numbers
that errors report.  All emitters write UTF-8 with LF.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import lt, mul
from pathlib import Path
from typing import Optional, TextIO, Union

from .model import (
    MTable,
    Pattern,
    QItemset,
    QSDatabase,
    QSequence,
    SymbolTable,
    UnknownItem,
    UtilityTable,
    qsequence_utility,
)
from .miner import ConfigError, Husp, _collector_paused

Source = Union[str, Path, TextIO]

# The most digits an integer in a dataset or table may have.  A product of
# two such integers has at most twice as many, and summing them over any
# database adds only a few more, so every utility stays far below the 4,300
# digits that CPython converts to text by default.
MAX_DIGITS = 1000

_NAME_SYNTAX = r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+"
# ASCII: ``\d`` alone, like ``int``, takes every Unicode digit
_ITEM_TOKEN = re.compile(rf"^({_NAME_SYNTAX})\[(\d+)\]$", re.ASCII)
_NAME = re.compile(rf"^({_NAME_SYNTAX})$", re.ASCII)
_SUTILITY = re.compile(r"^SUtility:(\d+)$", re.ASCII)
_INTEGER = re.compile(r"[0-9]+")

# The fast paths.  A canonical dataset line has single spaces, no leading
# or trailing space, and quantities without leading zeros; group 1 is the
# line up to `` -2`` and group 2 the SUtility digits.  A canonical table is
# ``NAME DIGITS`` lines, each ended by ``\n``.  Neither admits an integer
# of more than MAX_DIGITS digits.
_CANONICAL_TOKEN = rf"(?:{_NAME_SYNTAX})\[[1-9][0-9]{{0,{MAX_DIGITS - 1}}}\]"
_CANONICAL_ELEMENT = rf"{_CANONICAL_TOKEN}(?: {_CANONICAL_TOKEN})*"
_CANONICAL_LINE = re.compile(
    rf"({_CANONICAL_ELEMENT}(?: -1 {_CANONICAL_ELEMENT})*) -2"
    rf"(?: SUtility:([0-9]{{1,{MAX_DIGITS}}}))?",
    re.ASCII,
)
_CANONICAL_PAIR = re.compile(r"([^ \[]+)\[([0-9]+)\]")
_NAME_BEFORE_BRACKET = re.compile(r"([A-Za-z0-9_]+)\[", re.ASCII)
_CANONICAL_TABLE = re.compile(rf"(?:(?:{_NAME_SYNTAX}) [0-9]{{1,{MAX_DIGITS}}}\n)*",
                              re.ASCII)


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


def _lines(text: str) -> list:
    """The lines of ``text``: split at ``\\n`` only, one trailing ``\\r``
    dropped from each."""
    return [line[:-1] if line.endswith("\r") else line for line in text.split("\n")]


def _column(line: str, index: int) -> int:
    """1-based column of the ``index``-th space-separated token of ``line``."""
    return [m.start() for m in re.finditer("[^ ]+", line)][index] + 1


def _parse_line(line: str, lineno: int) -> tuple:
    """The token loop: parse one non-blank dataset line into its elements,
    each a list of (name, quantity digits) pairs in line order, and its
    SUtility trailer ``(value, token index)`` or None; or raise the line's
    first error."""
    tokens = [t for t in line.split(" ") if t]
    elements = []
    element: dict = {}
    for k, tok in enumerate(tokens):
        if tok == "-1":
            if not element:
                raise ParseError("empty element before -1", lineno, _column(line, k))
            elements.append(list(element.items()))
            element = {}
        elif tok == "-2":
            if not element:
                message = "empty element before -2" if elements else "empty sequence"
                raise ParseError(message, lineno, _column(line, k))
            elements.append(list(element.items()))
            break
        else:
            m = _ITEM_TOKEN.match(tok)
            if m is None:
                raise ParseError(f"bad token {tok!r}", lineno, _column(line, k))
            name, qty = m.groups()
            if len(qty) > MAX_DIGITS:
                raise ParseError(f"quantity of {name!r} has more than {MAX_DIGITS} "
                                 f"digits", lineno, _column(line, k))
            if int(qty) < 1:
                raise ParseError(f"quantity must be >= 1 in {tok!r}", lineno,
                                 _column(line, k))
            if name in element:
                raise ParseError(f"duplicate item {name!r} in element", lineno,
                                 _column(line, k))
            element[name] = qty
    else:
        raise ParseError("sequence not terminated by -2", lineno, 1)
    declared = None
    for j in range(k + 1, len(tokens)):
        m = _SUTILITY.match(tokens[j])
        if m is None or declared is not None:
            raise ParseError(f"unexpected token {tokens[j]!r} after -2", lineno,
                             _column(line, j))
        if len(m.group(1)) > MAX_DIGITS:
            raise ParseError(f"SUtility has more than {MAX_DIGITS} digits", lineno,
                             _column(line, j))
        declared = (int(m.group(1)), j)
    return elements, declared


def parse_dataset(
    source: Source, unit_utilities: Optional[dict] = None
) -> QSDatabase:
    """Parse a dataset file into a database with interned items.

    When ``unit_utilities`` (name -> unit utility) is given, any SUtility
    trailer is verified against the recomputed sequence utility; a mismatch
    or a missing unit utility is raised once every line has parsed.
    """
    with _collector_paused():
        text = _read_text(source)
        # in a file that parses, every '[' ends the name of an item token, so
        # the names, and with them the ids, are known before any line is read
        symbols = SymbolTable.from_names(set(_NAME_BEFORE_BRACKET.findall(text)))
        ids = symbols._ids
        intern = ids.__getitem__
        if unit_utilities is not None:
            # None for an item without a unit utility, which fails the product
            unit_of = [unit_utilities.get(name) for name in symbols.names].__getitem__
        canonical = _CANONICAL_LINE.fullmatch
        find_pairs = _CANONICAL_PAIR.findall
        # the checks of QItemset and QSequence hold by construction here
        new = object.__new__
        set_field = object.__setattr__
        sequences = []
        unverified = None  # (lineno, line, token index, declared, recomputed or None)
        for lineno, line in enumerate(_lines(text), start=1):
            m = canonical(line)
            if m is not None:
                body, trailer = m.groups()
                elements = map(find_pairs, body.split(" -1 "))
                # the trailer, when present, is the last token
                declared = None if trailer is None else (int(trailer), -1)
            elif not line or line.isspace():
                continue
            else:
                elements, declared = _parse_line(line, lineno)
            qitemsets = []
            for pairs in elements:
                if len(pairs) == 1:
                    [(name, qty)] = pairs
                    items, quantities = (ids[name],), (int(qty),)
                else:
                    names, digits = zip(*pairs)
                    items = tuple(map(intern, names))
                    quantities = tuple(map(int, digits))
                    if not all(map(lt, items, items[1:])):
                        items, quantities = zip(*sorted(zip(items, quantities)))
                        if not all(map(lt, items, items[1:])):
                            _parse_line(line, lineno)  # raises the duplicate item
                qitemset = new(QItemset)
                set_field(qitemset, "items", items)
                set_field(qitemset, "quantities", quantities)
                qitemsets.append(qitemset)
            if declared is not None and unit_utilities is not None and unverified is None:
                value, k = declared
                actual = 0
                try:
                    for e in qitemsets:
                        actual += sum(map(mul, e.quantities, map(unit_of, e.items)))
                except TypeError:
                    actual = None
                if actual != value:
                    unverified = (lineno, line, k, value, actual)
            qsequence = new(QSequence)
            set_field(qsequence, "sid", str(len(sequences) + 1))
            set_field(qsequence, "elements", tuple(qitemsets))
            sequences.append(qsequence)
        if unverified is not None:
            lineno, line, k, value, actual = unverified
            if actual is None:
                elements, _ = _parse_line(line, lineno)
                missing = next(name for pairs in elements for name, _ in pairs
                               if name not in unit_utilities)
                raise ConfigError(f"utility table is missing items: {missing}")
            raise SUtilityMismatch(f"declared SUtility {value} but recomputed {actual}",
                                   lineno, _column(line, k))
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
    text = _read_text(source)
    if _CANONICAL_TABLE.fullmatch(text):
        fields = text.split()
        out = dict(zip(fields[::2], map(int, fields[1::2])))
        if 2 * len(out) == len(fields):
            return out
        # a duplicate item: the line loop reports it
    return _parse_item_lines(text)


def _parse_item_lines(text: str) -> dict:
    """The line loop of :func:`parse_item_values`: parse ``text`` line by
    line, or raise the first line's error."""
    out: dict = {}
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2 or not _NAME.match(fields[0]):
            raise ParseError(f"expected 'ITEM VALUE', got {line!r}", lineno)
        name, value = fields
        if name in out:
            raise ParseError(f"duplicate item {name!r}", lineno)
        if _INTEGER.fullmatch(value.removeprefix("-")) is None:
            raise ParseError(f"bad value {value!r}", lineno)
        if value.startswith("-"):
            raise ParseError(f"negative value {value!r}", lineno)
        if len(value) > MAX_DIGITS:
            raise ParseError(f"value of {name!r} has more than {MAX_DIGITS} digits",
                             lineno, raw.index(value, raw.index(name) + len(name)) + 1)
        out[name] = int(value)
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
    # an item's total utility is its unit utility times its total quantity
    quantities = [0] * len(db.symbols)
    for qseq in db.sequences:
        for element in qseq.elements:
            for item, qty in zip(element.items, element.quantities):
                quantities[item] += qty
    unit = utable.unit
    if len(unit) < len(quantities):
        for qseq in db.sequences:
            for _, item, _ in qseq.flat():
                utable.of(item)  # raises for the first occurrence not covered
        unit += (0,) * (len(quantities) - len(unit))  # items that never occur
    totals = [q * u for q, u in zip(quantities, unit)]
    lmu = round_half_up(lmu_fraction * sum(totals))
    return MTable(tuple(max(round_half_up(beta * t), lmu) for t in totals))


# ---------------------------------------------------------------------------
# synthetic data


# the log-normal law of the generated unit utilities
UNIT_LOG_MEAN = 3.0
UNIT_LOG_SIGMA = 1.3


@dataclass(frozen=True)
class GenParams:
    """Shape of a generated dataset; the seed fixes every output byte."""

    n_sequences: int
    n_items: int
    max_elements: int = 6
    max_element_size: int = 3
    quantity_range: tuple = (1, 5)
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
            max(1, round_half_up(rng.lognormvariate(UNIT_LOG_MEAN, UNIT_LOG_SIGMA))),
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


def write_results(husps: list, stats, fmt: str, symbols: SymbolTable) -> str:
    """Render mined patterns as TSV or JSON text; ``stats`` may be None."""
    text_of, join = _ItemsetTexts(symbols.names).__getitem__, ",".join
    if fmt == "tsv":
        rows = [f"{join(map(text_of, pattern.itemsets))}\t{utility}\t{miu}\n"
                for pattern, utility, miu in husps]
        return RESULT_HEADER + "\n" + "".join(rows)
    if fmt == "json":
        # the text of json.dumps(payload, indent=2) + "\n", where payload is
        # {"husps": [{"pattern": ..., "utility": ..., "miu": ...}, ...],
        # "stats": ...}; an indent sends json.dumps to its pure-Python
        # encoder, so only the small stats block goes through it
        dumps = json.dumps
        rows = ",\n".join([
            f'    {{\n      "pattern": {dumps(join(map(text_of, pattern.itemsets)))},\n'
            f'      "utility": {utility},\n      "miu": {miu}\n    }}'
            for pattern, utility, miu in husps
        ])
        listed = f"[\n{rows}\n  ]" if rows else "[]"
        summary = None if stats is None else {
            "candidates_visited": stats.candidates_visited,
            "husps_found": stats.husps_found,
            "wall_time": stats.wall_time,
            "peak_memory_estimate": stats.peak_memory_estimate,
            "depth_histogram": {str(k): v for k, v in
                                sorted(stats.depth_histogram.items())},
        }
        # the block sits one level deep: no JSON string holds a raw newline
        nested = dumps(summary, indent=2).replace("\n", "\n  ")
        return f'{{\n  "husps": {listed},\n  "stats": {nested}\n}}\n'
    raise ValueError(f"unknown format {fmt!r}")


class _ItemsetTexts(dict):
    """Itemset -> its text in a rendered pattern, ``(1, 2)`` -> ``[b c]``
    when ``names`` are ``("a", "b", "c")``; an itemset is rendered the
    first time it is looked up, and its text kept for the later patterns,
    so ``",".join(map(texts.__getitem__, pattern.itemsets))`` is
    ``pattern.render(symbols)``.

    An id outside ``names`` raises :class:`UnknownItem`, as
    :meth:`SymbolTable.name_of` does.
    """

    __slots__ = ("names",)

    def __init__(self, names: tuple):
        super().__init__()
        self.names = names

    def __missing__(self, itemset: tuple) -> str:
        names = self.names
        n_names = len(names)
        for item in itemset:
            if not 0 <= item < n_names:
                raise UnknownItem(item)
        text = self[itemset] = "[" + " ".join([names[i] for i in itemset]) + "]"
        return text


class _ItemsetIds(dict):
    """Itemset text -> its item ids in increasing order, ``c b`` -> ``(1, 2)``
    when ``symbols`` name ``a``, ``b`` and ``c``; a text is read the first
    time it is looked up, and its ids kept for the later patterns.  A text
    whose ids are no pattern itemset, none or a repeated one, is also kept
    in ``invalid``.

    A name outside ``symbols`` raises :class:`UnknownItem`, as
    :meth:`SymbolTable.id_of` does, and nothing is kept for its text.
    """

    __slots__ = ("id_of", "invalid")

    def __init__(self, symbols: SymbolTable):
        super().__init__()
        self.id_of = symbols.id_of
        self.invalid: set = set()

    def __missing__(self, chunk: str) -> tuple:
        ids = tuple(sorted(map(self.id_of, chunk.split())))
        if not ids or not all(map(lt, ids, ids[1:])):
            self.invalid.add(chunk)
        self[chunk] = ids
        return ids


# how _read_pattern builds a pattern without Pattern's checks
_new_pattern, _set_itemsets = object.__new__, Pattern.itemsets.__set__


def _read_pattern(text: str, ids: _ItemsetIds) -> Pattern:
    """The pattern of ``text``, ``[b],[c e]``, with ``ids`` giving each
    itemset's sorted ids from its text.  Every itemset is read before any
    is checked, and a pattern with an invalid itemset is built by
    ``Pattern``, which raises its error; any other is built without the
    checks, which it passes."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"bad pattern string {text!r}")
    chunks = text[1:-1].split("],[")
    itemsets = tuple(map(ids.__getitem__, chunks))
    if ids.invalid and not ids.invalid.isdisjoint(chunks):
        return Pattern(itemsets)
    pattern = _new_pattern(Pattern)
    _set_itemsets(pattern, itemsets)
    return pattern


def parse_pattern_string(text: str, symbols: SymbolTable) -> Pattern:
    """Inverse of Pattern.render, e.g. ``[b],[c e]``."""
    return _read_pattern(text, _ItemsetIds(symbols))


def parse_results(source: Source, symbols: SymbolTable) -> list:
    """Read a result file back as Husp objects.

    TSV and JSON are auto-detected.  Raises ValueError unless ``husps`` is
    a list of objects, each with a string ``pattern`` and non-negative
    integer (not boolean) ``utility`` and ``miu``, also for JSON nested
    deeper than the decoder's recursion limit.
    """
    with _collector_paused():
        text = _read_text(source)
        rows = []
        stripped = text.lstrip()
        if stripped.startswith("{"):
            try:
                husps = json.loads(text).get("husps")
            except RecursionError:
                raise ValueError("JSON nested too deeply") from None
            if not isinstance(husps, list):
                raise ValueError("'husps' must be a list of results")
            for entry in husps:
                if not isinstance(entry, dict):
                    raise ValueError(f"result is not an object: {entry!r}")
                pattern_s, utility, miu_v = (entry.get("pattern"), entry.get("utility"),
                                             entry.get("miu"))
                # bool is an int subclass, and a float would be truncated
                if not (isinstance(pattern_s, str) and type(utility) is int
                        and type(miu_v) is int and utility >= 0 and miu_v >= 0):
                    raise ValueError(f"result needs a string pattern and non-negative "
                                     f"integer utility and miu: {entry!r}")
                rows.append((pattern_s, utility, miu_v))
        else:
            lines = _lines(text)
            if lines[0] != RESULT_HEADER:
                raise ValueError("missing result header")
            for line in lines[1:]:
                if not line.strip():
                    continue
                pattern_s, utility, miu_v = line.split("\t")
                if not (_INTEGER.fullmatch(utility) and _INTEGER.fullmatch(miu_v)):
                    raise ValueError(
                        f"utility and miu must be non-negative integers: {line!r}")
                rows.append((pattern_s, int(utility), int(miu_v)))
        # consecutive results share most of their itemsets, so each
        # itemset's text is read and checked once per call
        ids = _ItemsetIds(symbols)
        new = tuple.__new__
        return [new(Husp, (_read_pattern(p, ids), u, m)) for p, u, m in rows]
