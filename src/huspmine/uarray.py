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
projections, never from the raw database.  The candidate scan gathers the
bounds of a node's children by item, in one dict per sequence and one per node,
which it returns; a position that is its item's only match in the sequence goes
to the node's dict directly.
"""

from __future__ import annotations

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
    the items at position ``p`` and after, and infinite at ``p = n``.
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

    def __init__(self, qseq: QSequence, utable: UtilityTable, mtable: MTable):
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

    def _derive(self, item: list, eid: list, u: list, mtable: MTable) -> None:
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
        mu = mtable.mu
        ru = [0] * n
        suffix_min_mu = [_INF] * (n + 1)
        rest = 0
        least = _INF
        for p in range(n - 1, -1, -1):
            ru[p] = rest
            rest += u[p]
            if mu[item[p]] < least:
                least = mu[item[p]]
            suffix_min_mu[p] = least
        self.ru = ru
        self.useq = rest
        self.suffix_min_mu = suffix_min_mu

    def drop(self, items: set, mtable: MTable) -> bool:
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
    db: QSDatabase, utable: UtilityTable, mtable: MTable
) -> list[SequenceArrays]:
    return [SequenceArrays(s, utable, mtable) for s in db.sequences]


@dataclass(slots=True)
class ProjEntry:
    """Pivots of one sequence: positions of the pattern's last item across
    matches (ascending, 0-based) and the best match utility ending at each.

    An entry without pivots is the empty prefix, worth 0 before every
    position; only the candidate scan of the empty pattern reads one, and
    ``project`` is never given one, since a 1-pattern's projection is built
    by :func:`initial_projection`."""

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
            # running max of parent best over the pivots in elements strictly
            # before eid[q]; best may be 0, so no pivot yet reads below 0
            run_max = -1
            ptr = 0
            n_piv = len(pivots)
            for q in positions:
                eq = eid[q]
                while ptr < n_piv and eid[pivots[ptr]] < eq:
                    if best[ptr] > run_max:
                        run_max = best[ptr]
                    ptr += 1
                if run_max >= 0:
                    new_pivots.append(q)
                    new_best.append(run_max + u[q])
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
    at flat position ``q`` of the current sequence.  ``seq`` maps every item
    fed in the current sequence to ``[u, peu, aru, pool]``: the best match
    utility, the best extension term (match + remaining), the remaining
    utility at the anchor (the earliest ``q`` reaching the best term) and
    the threshold pool after the first ``q`` fed.  One item's feeds within
    a sequence come in increasing position order and the remaining utility
    never rises along a sequence, so the earliest ``q`` of a tie already
    has the largest remaining utility, and a later tie never replaces it.
    ``end_sequence`` folds ``seq`` into ``node``, which maps every item fed
    since the scan bound it to a fresh dict to ``[utility, peu, seu, swu,
    pool]``: the sums of utility, PEU, SEU capped per sequence at the
    sequence utility, and SWU, and the least pool.  The scan returns that
    dict, so a later scan, binding another, leaves it alone.

    ``fold_matches`` is the one-match case of ``feed`` and ``end_sequence``:
    when each position it is given is its item's only match in the
    sequence, the per-sequence best and anchor are that match itself, so it
    adds the position's terms to ``node`` directly, without ``seq``.
    """

    __slots__ = ("seq", "node")

    def __init__(self):
        self.seq: dict[int, list] = {}
        self.node: dict[int, list] = {}

    def feed(self, item: int, match: int, rest: int, pool: int) -> None:
        term = match + rest
        state = self.seq.get(item)
        if state is None:
            self.seq[item] = [match, term, rest, pool]
            return
        if match > state[0]:
            state[0] = match
        if term > state[1]:
            state[1] = term
            state[2] = rest

    def end_sequence(self, useq: int) -> None:
        node = self.node
        for item, (u_s, peu_s, aru, pool) in self.seq.items():
            seu_s = u_s + aru
            if seu_s > useq:
                seu_s = useq
            sums = node.get(item)
            if sums is None:
                node[item] = [u_s, peu_s, seu_s, useq, pool]
            else:
                sums[0] += u_s
                sums[1] += peu_s
                sums[2] += seu_s
                sums[3] += useq
                if pool < sums[4]:
                    sums[4] = pool
        self.seq = {}

    def fold_matches(
        self, item_: list, u_: list, ru_: list, pool_: list,
        start: int, stop: int, b: int, useq: int,
    ) -> None:
        """Fold positions ``start`` to ``stop - 1`` of one sequence, given as
        its item, utility, remaining-utility and threshold-pool arrays, into
        ``node``.  Each position must be its item's only match in the
        sequence, worth ``b`` plus its own utility: the same sums as one
        ``feed`` per position followed by ``end_sequence(useq)``."""
        node = self.node
        get = node.get
        for q in range(start, stop):
            match = b + u_[q]
            term = match + ru_[q]
            seu = term if term < useq else useq
            pool = pool_[q + 1]
            sums = get(item_[q])
            if sums is None:
                node[item_[q]] = [match, term, seu, useq, pool]
            else:
                sums[0] += match
                sums[1] += term
                sums[2] += seu
                sums[3] += useq
                if pool < sums[4]:
                    sums[4] = pool
