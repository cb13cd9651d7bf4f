"""Utility-array representation and pattern projections.

Each sequence is flattened into parallel arrays, indexed by 0-based flat
position, holding for every item occurrence: the 1-based element id, the
item, its exact utility, and the remaining utility of everything strictly
after the position.  Two navigation fields complete them: ``positions_of``
lists every item's positions in order, and ``elem_first`` holds the first
position of every element.  The arrays let the search compute pattern
utilities and extension bounds without rescanning the database.

A pattern's projection stores, per containing sequence, the pivot positions
(the flat position of the pattern's last item across matches) together with
the best achievable match utility ending at each pivot.  Projections share
the parent arrays read-only; child projections are derived from parent
projections, never from the raw database.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Optional

from .model import (
    Item,
    MTable,
    QSDatabase,
    QSequence,
    UnknownItem,
    UtilityTable,
)


class SequenceArrays:
    """Engine-internal flattened arrays for one sequence.

    Every position holds an item of the sequence.  Removing items (``drop``)
    rebuilds the arrays without them, field for field as if the sequence had
    been built without those items, so no reader needs to know that items
    were ever removed.  ``suffix_min_mu[p]`` is the least threshold among
    the items at position ``p`` and after; it is infinite throughout when no
    M-table is given.
    """

    __slots__ = (
        "n",
        "item",
        "eid",
        "u",
        "ru",
        "elem_first",
        "positions_of",
        "useq",
        "suffix_min_mu",
    )

    def __init__(
        self, qseq: QSequence, utable: UtilityTable, mtable: Optional[MTable] = None
    ):
        unit = utable.unit
        n_units = len(unit)
        item: list[int] = []
        eid: list[int] = []
        u: list[int] = []
        for element_id, element in enumerate(qseq.elements, start=1):
            items = element.items
            # an element's items are strictly increasing, so its ends bound
            # every id; a negative id would otherwise wrap around ``unit``
            if items[0] < 0 or items[-1] >= n_units:
                raise UnknownItem(next(i for i in items if not 0 <= i < n_units))
            for it, qty in zip(items, element.quantities):
                item.append(it)
                eid.append(element_id)
                u.append(qty * unit[it])
        self._derive(item, eid, u, mtable)

    def _derive(self, item: list, eid: list, u: list, mtable: Optional[MTable]) -> None:
        """Set every field from the flat item, element-id and utility lists;
        element ids must run densely from 1."""
        n = len(item)
        self.n = n
        self.item = item
        self.eid = eid
        self.u = u
        elem_first: list[int] = []
        positions_of: dict[int, list[int]] = {}
        for p in range(n):
            if eid[p] > len(elem_first):
                elem_first.append(p)
            positions_of.setdefault(item[p], []).append(p)
        self.elem_first = elem_first
        self.positions_of = positions_of
        mu = None if mtable is None else mtable.mu
        ru = [0] * n
        suffix_min_mu = [_INF] * (n + 1)
        rest = 0
        least = _INF
        for p in range(n - 1, -1, -1):
            ru[p] = rest
            rest += u[p]
            if mu is not None and mu[item[p]] < least:
                least = mu[item[p]]
            suffix_min_mu[p] = least
        self.ru = ru
        self.useq = rest
        self.suffix_min_mu = suffix_min_mu

    def drop(self, items: set, mtable: Optional[MTable]) -> bool:
        """Remove every occurrence of ``items`` and re-derive all fields.

        Element ids are renumbered densely and elements left empty vanish.
        Returns False, changing nothing, when none of ``items`` occurs.
        """
        if self.positions_of.keys().isdisjoint(items):
            return False
        item: list[int] = []
        eid: list[int] = []
        u: list[int] = []
        old_e = new_e = 0
        for it, e, v in zip(self.item, self.eid, self.u):
            if it in items:
                continue
            if e != old_e:
                old_e = e
                new_e += 1
            item.append(it)
            eid.append(new_e)
            u.append(v)
        self._derive(item, eid, u, mtable)
        return True


_INF = float("inf")


def build_database_arrays(
    db: QSDatabase, utable: UtilityTable, mtable: Optional[MTable] = None
) -> list[SequenceArrays]:
    return [SequenceArrays(s, utable, mtable) for s in db.sequences]


@dataclass(slots=True)
class ProjEntry:
    """Pivots of one sequence: positions of the pattern's last item across
    matches (ascending, 0-based) and the best match utility ending at each."""

    seq_index: int
    pivots: list[int]
    best: list[int]


@dataclass(slots=True)
class Projection:
    """Projected database of one pattern: per-sequence pivot sets."""

    entries: list[ProjEntry] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.entries)


def initial_projection(
    arrays: list[SequenceArrays],
    item: Item,
    seq_indices: Optional[list] = None,
) -> Projection:
    """Projection of the 1-pattern of ``item``: every occurrence is a pivot
    and its own best prefix.  ``seq_indices`` restricts the scan to the
    sequences known to contain the item."""
    proj = Projection()
    indices = range(len(arrays)) if seq_indices is None else seq_indices
    for si in indices:
        seq = arrays[si]
        pivots = seq.positions_of.get(item)
        if pivots:
            proj.entries.append(
                ProjEntry(si, pivots, [seq.u[p] for p in pivots])
            )
    return proj


I_STEP = "I"
S_STEP = "S"


def project(
    parent: Projection,
    arrays: list[SequenceArrays],
    item: Item,
    kind: str,
) -> Projection:
    """Project a parent pattern's pivot sets onto an extension item.

    For an I-step the new pivots are occurrences of ``item`` inside the same
    element as a parent pivot and strictly after it; for an S-step they are
    occurrences in elements strictly after a parent pivot's element.  Each new
    pivot's best utility is the best compatible parent pivot plus the item's
    utility there; sequences with no surviving pivot drop out.
    """
    proj = Projection()
    for entry in parent.entries:
        seq = arrays[entry.seq_index]
        positions = seq.positions_of.get(item)
        if not positions:
            continue
        eid = seq.eid
        u = seq.u
        pivots = entry.pivots
        best = entry.best
        new_pivots: list[int] = []
        new_best: list[int] = []
        if kind == I_STEP:
            # a pivot is an occurrence of the pattern's last item, which an
            # element holds at most once: one pivot per element
            at_elem = {eid[p]: (p, b) for p, b in zip(pivots, best)}
            for q in positions:
                hit = at_elem.get(eid[q])
                if hit is not None and hit[0] < q:
                    new_pivots.append(q)
                    new_best.append(hit[1] + u[q])
        elif kind == S_STEP:
            # running max of parent best over elements strictly before eid[q]
            elem_max: list[tuple[int, int]] = []
            cur = None
            for p, b in zip(pivots, best):
                if cur is None or b > cur:
                    cur = b
                if elem_max and elem_max[-1][0] == eid[p]:
                    elem_max[-1] = (eid[p], cur)
                else:
                    elem_max.append((eid[p], cur))
            keys = [e for e, _ in elem_max]
            for q in positions:
                idx = bisect.bisect_left(keys, eid[q])
                if idx == 0:
                    continue
                new_pivots.append(q)
                new_best.append(elem_max[idx - 1][1] + u[q])
        else:
            raise ValueError(f"unknown concatenation kind: {kind!r}")
        if new_pivots:
            proj.entries.append(ProjEntry(entry.seq_index, new_pivots, new_best))
    return proj


class _ItemAccumulator:
    """Per-item bounds of every would-be child of one node, gathered during
    the candidate scan; the engine's only implementation of utility, PEU,
    SEU, SWU and the threshold pool of a pattern.

    Each feed is one (match utility, remaining utility) pair of a child item
    at flat position ``q`` of the current sequence.  Within a sequence the
    accumulator keeps, per item, the best match utility, the best extension
    term (match + remaining), the remaining utility at the anchor (the
    earliest ``q`` reaching the best term, which has the largest remaining
    utility among the ties) and the threshold pool after the first ``q``
    fed.  ``end_sequence`` folds those into per-node sums of utility, PEU,
    capped SEU and SWU, and the node's pool minimum, and starts the next
    sequence.  Tag arrays avoid any per-node or per-sequence clearing of the
    full item range.
    """

    __slots__ = (
        "seq_tag",
        "seq_u",
        "seq_peu",
        "seq_aru",
        "seq_pool",
        "seq_mark",
        "seq_touched",
        "node_tag",
        "utility",
        "peu",
        "seu",
        "swu",
        "pool",
        "node_mark",
        "touched",
    )

    def __init__(self, n_items: int):
        self.seq_tag = [0] * n_items
        self.seq_u = [0] * n_items
        self.seq_peu = [0] * n_items
        self.seq_aru = [0] * n_items
        self.seq_pool = [0] * n_items
        self.seq_mark = 1
        self.seq_touched: list[int] = []
        self.node_tag = [0] * n_items
        self.utility = [0] * n_items
        self.peu = [0] * n_items
        self.seu = [0] * n_items
        self.swu = [0] * n_items
        self.pool = [0] * n_items
        self.node_mark = 0
        self.touched: list[int] = []

    def reset_node(self) -> None:
        self.node_mark += 1
        self.touched = []

    def feed(self, item: int, match: int, rest: int, pool: int) -> None:
        term = match + rest
        if self.seq_tag[item] != self.seq_mark:
            self.seq_tag[item] = self.seq_mark
            self.seq_u[item] = match
            self.seq_peu[item] = term
            self.seq_aru[item] = rest
            self.seq_pool[item] = pool
            self.seq_touched.append(item)
            return
        if match > self.seq_u[item]:
            self.seq_u[item] = match
        best = self.seq_peu[item]
        if term > best or (term == best and rest > self.seq_aru[item]):
            self.seq_peu[item] = term
            self.seq_aru[item] = rest

    def end_sequence(self, useq: int) -> None:
        mark = self.node_mark
        for item in self.seq_touched:
            u_s = self.seq_u[item]
            seu_s = u_s + self.seq_aru[item]
            if seu_s > useq:
                seu_s = useq
            if self.node_tag[item] != mark:
                self.node_tag[item] = mark
                self.touched.append(item)
                self.utility[item] = u_s
                self.peu[item] = self.seq_peu[item]
                self.seu[item] = seu_s
                self.swu[item] = useq
                self.pool[item] = self.seq_pool[item]
            else:
                self.utility[item] += u_s
                self.peu[item] += self.seq_peu[item]
                self.seu[item] += seu_s
                self.swu[item] += useq
                if self.seq_pool[item] < self.pool[item]:
                    self.pool[item] = self.seq_pool[item]
        self.seq_mark += 1
        self.seq_touched = []

