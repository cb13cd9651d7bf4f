"""Core data model: quantitative sequences, patterns, and exact utility math.

All monetary amounts are exact integers in the smallest currency unit
(``Money = int``); no floats appear anywhere on a utility path.  Items are
interned to dense integer ids at load time, with display names kept in a
:class:`SymbolTable`; everything past the I/O boundary speaks ids only.

All types here are immutable after construction and safe to share between
threads.  The functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import lt
from typing import Iterator, Optional, Sequence

Money = int
Item = int


class ModelError(ValueError):
    """An invariant was violated while building a model object."""


class UnknownItem(KeyError):
    """An item id or name is not covered by the table being consulted."""


def symbol_sort_key(name: str) -> tuple:
    """Sort key for item names: numeric names numerically, then identifiers.

    Item ids are assigned in this order, so id order coincides with the
    conventional "alphabetical" order used when writing itemsets.  Numeric
    names of equal value (``7``, ``07``) fall back to the name itself, so
    the order is total and never depends on set iteration order.  Only
    ASCII digits make a name numeric: ``"²"`` is a digit to ``isdigit`` but
    not to ``int``, so it sorts as an identifier.  A numeric name is
    compared by its significant digits, shorter first, rather than
    converted with ``int``, which refuses more than 4,300 digits.
    """
    if name.isascii() and name.isdigit():
        digits = name.lstrip("0")
        return (0, len(digits), digits, name)
    return (1, 0, name)


@dataclass(frozen=True)
class SymbolTable:
    """Bijective mapping between dense item ids ``0..m-1`` and display names."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ModelError("duplicate item names in symbol table")
        object.__setattr__(self, "_ids", {n: i for i, n in enumerate(self.names)})

    @classmethod
    def from_names(cls, names) -> "SymbolTable":
        """Intern a collection of names, assigning ids in canonical order."""
        return cls(tuple(sorted(set(names), key=symbol_sort_key)))

    def __len__(self) -> int:
        return len(self.names)

    def id_of(self, name: str) -> Item:
        try:
            return self._ids[name]
        except KeyError:
            raise UnknownItem(name) from None

    def name_of(self, item: Item) -> str:
        if 0 <= item < len(self.names):
            return self.names[item]
        raise UnknownItem(item)


@dataclass(frozen=True)
class UtilityTable:
    """Per-item unit utility (price), defined for every item in the database."""

    unit: tuple[Money, ...]  # indexed by item id

    def __post_init__(self):
        if any(p < 0 for p in self.unit):
            raise ModelError("unit utilities must be non-negative")

    def of(self, item: Item) -> Money:
        if 0 <= item < len(self.unit):
            return self.unit[item]
        raise UnknownItem(item)


@dataclass(frozen=True)
class MTable:
    """Per-item minimum utility threshold, defined for every item."""

    mu: tuple[Money, ...]  # indexed by item id

    def __post_init__(self):
        if any(v < 0 for v in self.mu):
            raise ModelError("thresholds must be non-negative")

    def of(self, item: Item) -> Money:
        if 0 <= item < len(self.mu):
            return self.mu[item]
        raise UnknownItem(item)


@dataclass(frozen=True)
class QItemset:
    """One element of a q-sequence: unique items, each with a quantity >= 1.

    ``items`` is strictly increasing by id; ``quantities`` is parallel.
    """

    items: tuple[Item, ...]
    quantities: tuple[int, ...]

    def __post_init__(self):
        items, quantities = self.items, self.quantities
        if not items:
            raise ModelError("empty q-itemset")
        if len(items) != len(quantities):
            raise ModelError("items/quantities length mismatch")
        if min(quantities) < 1:
            raise ModelError("quantities must be >= 1")
        if len(items) > 1 and not all(map(lt, items, items[1:])):
            raise ModelError("items within an element must be strictly increasing")

    def __len__(self) -> int:
        return len(self.items)

    def entries(self) -> Iterator[tuple[Item, int]]:
        return zip(self.items, self.quantities)

    def quantity_of(self, item: Item) -> Optional[int]:
        for i, q in zip(self.items, self.quantities):
            if i == item:
                return q
        return None

    def contains_items(self, items: Sequence[Item]) -> bool:
        return set(items) <= set(self.items)


@dataclass(frozen=True)
class QSequence:
    """An ordered, non-empty list of q-itemsets with a sequence id.

    Flat positions ``1..length`` enumerate item occurrences left to right.
    """

    sid: str
    elements: tuple[QItemset, ...]

    def __post_init__(self):
        if not self.elements:
            raise ModelError("q-sequence must have at least one element")

    @property
    def length(self) -> int:
        return sum(len(e) for e in self.elements)

    def flat(self) -> Iterator[tuple[int, Item, int]]:
        """Yield (element_id, item, quantity), element ids 1-based."""
        for eid, element in enumerate(self.elements, start=1):
            for item, qty in element.entries():
                yield eid, item, qty

    def distinct_items(self) -> frozenset:
        return frozenset(i for e in self.elements for i in e.items)


@dataclass(frozen=True)
class QSDatabase:
    """A quantitative sequence database plus its interning symbol table."""

    sequences: tuple[QSequence, ...]
    symbols: SymbolTable

    def __len__(self) -> int:
        return len(self.sequences)

    def __iter__(self) -> Iterator[QSequence]:
        return iter(self.sequences)

    def distinct_items(self) -> frozenset:
        out = set()
        for s in self.sequences:
            out |= s.distinct_items()
        return frozenset(out)


@dataclass(frozen=True, order=False, slots=True)
class Pattern:
    """A sequence of itemsets without quantities; the mined object.

    Each itemset is a strictly increasing tuple of item ids and never empty.
    """

    itemsets: tuple[tuple[Item, ...], ...]

    def __post_init__(self):
        if not self.itemsets:
            raise ModelError("empty pattern")
        for w in self.itemsets:
            if len(w) < 2:
                if not w:
                    raise ModelError("pattern contains an empty itemset")
            elif not all(map(lt, w, w[1:])):
                raise ModelError("pattern itemset not strictly increasing")

    @classmethod
    def single(cls, item: Item) -> "Pattern":
        return cls(((item,),))

    @property
    def size(self) -> int:
        """Total number of item occurrences (the pattern's length)."""
        return sum(len(w) for w in self.itemsets)

    def distinct_items(self) -> frozenset:
        return frozenset(i for w in self.itemsets for i in w)

    def parent(self) -> Optional["Pattern"]:
        """The unique enumeration-tree parent: drop the last item added.

        Returns None for 1-patterns (children of the virtual root).
        """
        if self.size == 1:
            return None
        last = self.itemsets[-1]
        if len(last) > 1:
            return Pattern(self.itemsets[:-1] + (last[:-1],))
        return Pattern(self.itemsets[:-1])

    def render(self, symbols: SymbolTable) -> str:
        """Human-readable form, e.g. ``[b],[c e]``."""
        return ",".join(
            "[" + " ".join(symbols.name_of(i) for i in w) + "]" for w in self.itemsets
        )


@dataclass(frozen=True)
class Match:
    """One embedding of a pattern in a q-sequence.

    ``positions`` are 1-based flat positions, one per pattern item, strictly
    increasing; ``element_ids`` gives the element each position falls in.
    Items of the same pattern itemset share an element id; consecutive
    pattern itemsets map to strictly increasing element ids.
    """

    positions: tuple[int, ...]
    element_ids: tuple[int, ...]


# ---------------------------------------------------------------------------
# exact utility computations


def item_utility(item: Item, quantity: int, utable: UtilityTable) -> Money:
    """Utility of one item occurrence: quantity times unit utility."""
    if quantity < 0:
        raise ModelError("negative quantity")
    return quantity * utable.of(item)


def qitemset_utility(element: QItemset, utable: UtilityTable) -> Money:
    return sum(q * utable.of(i) for i, q in element.entries())


def qsequence_utility(qseq: QSequence, utable: UtilityTable) -> Money:
    return sum(qitemset_utility(e, utable) for e in qseq.elements)


def database_utility(db: QSDatabase, utable: UtilityTable) -> Money:
    return sum(qsequence_utility(s, utable) for s in db.sequences)


def miu(pattern: Pattern, mtable: MTable) -> Money:
    """Minimum threshold over all items occurring anywhere in the pattern."""
    return min(mtable.of(i) for i in pattern.distinct_items())


def _element_offsets(qseq: QSequence) -> list[int]:
    """Flat position (1-based) of the first item of each element."""
    offsets = []
    pos = 1
    for element in qseq.elements:
        offsets.append(pos)
        pos += len(element)
    return offsets


def find_matches(pattern: Pattern, qseq: QSequence) -> list[Match]:
    """All embeddings of ``pattern`` in ``qseq``, in lexicographic position order.

    An embedding picks one element per pattern itemset, strictly increasing,
    with the itemset's items all present in the chosen element.  Intended for
    oracle-scale inputs; the number of embeddings can grow combinatorially.
    """
    offsets = _element_offsets(qseq)
    elements = qseq.elements
    k = len(pattern.itemsets)
    out: list[Match] = []
    positions: list[int] = []
    eids: list[int] = []

    def place(j: int, e: int) -> None:
        if j == k:
            out.append(Match(tuple(positions), tuple(eids)))
            return
        want = pattern.itemsets[j]
        for ee in range(e, len(elements) - (k - j) + 1):
            element = elements[ee]
            if not element.contains_items(want):
                continue
            base = offsets[ee]
            added = 0
            for idx, it in enumerate(element.items):
                if it in want:
                    positions.append(base + idx)
                    eids.append(ee + 1)
                    added += 1
            place(j + 1, ee + 1)
            del positions[-added:]
            del eids[-added:]

    place(0, 0)
    return out


def match_utility(match: Match, qseq: QSequence, utable: UtilityTable) -> Money:
    flat = [(i, q) for _, i, q in qseq.flat()]
    return sum(flat[p - 1][1] * utable.of(flat[p - 1][0]) for p in match.positions)


def pattern_utility_in_sequence(
    pattern: Pattern, qseq: QSequence, utable: UtilityTable
) -> Optional[Money]:
    """Maximum utility over all embeddings, or None when there is no match.

    Fills a max-utility placement table over (itemset, element) from the
    last itemset back, rather than listing embeddings, so it stays usable
    when matches are numerous or the pattern is long; equivalence with max
    over :func:`find_matches` is property-tested.
    """
    elements = qseq.elements
    k = len(pattern.itemsets)
    d = len(elements)
    if k > d:
        return None
    # after[e]: the best placement of the itemsets after the current one in
    # elements e.. (None when they do not fit); 0 past the last itemset
    after: list[Optional[Money]] = [0] * (d + 1)
    for j in range(k - 1, -1, -1):
        itemset = pattern.itemsets[j]
        # best[e]: the best placement of itemsets j.. with itemset j at
        # element e or later; itemset j lies in elements j..d - (k - j)
        best: list[Optional[Money]] = [None] * (d + 1)
        for e in range(d - (k - j), j - 1, -1):
            out = best[e + 1]
            rest = after[e + 1]
            element = elements[e]
            if rest is not None and element.contains_items(itemset):
                here = rest + sum(element.quantity_of(i) * utable.of(i) for i in itemset)
                if out is None or here > out:
                    out = here
            best[e] = out
        after = best
    return after[0]


def pattern_utility(pattern: Pattern, db: QSDatabase, utable: UtilityTable) -> Money:
    """Sum of per-sequence maxima over the sequences containing the pattern."""
    total = 0
    for qseq in db.sequences:
        u = pattern_utility_in_sequence(pattern, qseq, utable)
        if u is not None:
            total += u
    return total
