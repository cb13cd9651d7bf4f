"""Utility-array representation and pattern projections.

Each sequence is flattened into parallel per-position arrays holding, for
every item occurrence: the 1-based element id, the item, its exact utility,
and the remaining utility of everything strictly after the position.  Two
navigation fields (next occurrence of the same item, first position of the
next element) complete the record layout.  The arrays let the search compute
pattern utilities and extension bounds without rescanning the database.

A pattern's projection stores, per containing sequence, the pivot positions
(the flat position of the pattern's last item across matches) together with
the best achievable match utility ending at each pivot.  Projections share
the parent arrays read-only; child projections are derived from parent
projections, never from the raw database.

The public record view is 1-based to match how positions are written out;
the engine-internal arrays index from 0.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Optional

from .model import (
    Item,
    Money,
    MTable,
    QSDatabase,
    QSequence,
    UtilityTable,
)


@dataclass(frozen=True)
class UARecord:
    """One utility-array row: [eid, item, u, ru, next_pos, next_eid]."""

    eid: int
    item: Item
    u: Money
    ru: Money
    next_pos: Optional[int]
    next_eid: Optional[int]


@dataclass(frozen=True)
class UtilityArray:
    """Frozen per-sequence record view plus the first-occurrence index."""

    sid: str
    records: tuple[UARecord, ...]
    first_occurrence: dict

    def record(self, position: int) -> UARecord:
        """Record at 1-based flat position."""
        return self.records[position - 1]

    def __len__(self) -> int:
        return len(self.records)


class SequenceArrays:
    """Engine-internal flattened arrays for one sequence.

    Mutable only during the item-removal phase that precedes the search
    (``deactivate`` plus ``rebuild``); frozen by convention afterwards, at
    which point sharing across threads is safe.

    Flat positions here are 0-based; the public ``UtilityArray`` view and all
    rendered output convert to 1-based.
    """

    __slots__ = (
        "sid",
        "n",
        "item",
        "eid",
        "u",
        "ru",
        "active",
        "elem_first",
        "positions_of",
        "useq",
        "suffix_min_mu",
    )

    def __init__(self, qseq: QSequence, utable: UtilityTable):
        self.sid = qseq.sid
        item: list[int] = []
        eid: list[int] = []
        u: list[int] = []
        elem_first: list[int] = []
        pos = 0
        for element_id, element in enumerate(qseq.elements, start=1):
            elem_first.append(pos)
            for it, qty in element.entries():
                item.append(it)
                eid.append(element_id)
                u.append(qty * utable.of(it))
                pos += 1
        self.n = pos
        self.item = item
        self.eid = eid
        self.u = u
        self.elem_first = elem_first
        self.active = [True] * pos
        positions_of: dict[int, list[int]] = {}
        for p, it in enumerate(item):
            positions_of.setdefault(it, []).append(p)
        self.positions_of = positions_of
        self.ru: list[int] = [0] * pos
        self.useq = 0
        self.suffix_min_mu: list[int] = []
        self.rebuild(None)

    def rebuild(self, mtable: Optional[MTable]) -> None:
        """Recompute remaining utilities (and threshold suffix minima) over
        the active positions.  Called once at construction and once after
        each batch of item removals."""
        acc = 0
        for p in range(self.n - 1, -1, -1):
            self.ru[p] = acc
            if self.active[p]:
                acc += self.u[p]
        self.useq = acc
        if mtable is not None:
            self.suffix_min_mu = [0] * (self.n + 1)
            cur = _INF
            self.suffix_min_mu[self.n] = cur
            for p in range(self.n - 1, -1, -1):
                if self.active[p]:
                    mu = mtable.of(self.item[p])
                    if mu < cur:
                        cur = mu
                self.suffix_min_mu[p] = cur

    def deactivate(self, items: set) -> bool:
        changed = False
        for it in items:
            for p in self.positions_of.get(it, ()):
                if self.active[p]:
                    self.active[p] = False
                    changed = True
        return changed

    def active_positions_of(self, item: Item) -> list[int]:
        return [p for p in self.positions_of.get(item, ()) if self.active[p]]

    def to_utility_array(self) -> UtilityArray:
        """Frozen 1-based record view of the array as built."""
        records = []
        next_of_item: dict[int, Optional[int]] = {}
        next_eid_first: list[Optional[int]] = [None] * (len(self.elem_first) + 2)
        for e, first in enumerate(self.elem_first, start=1):
            next_eid_first[e] = first + 1
        for p in range(self.n - 1, -1, -1):
            it = self.item[p]
            e = self.eid[p]
            nxt = next_of_item.get(it)
            next_eid = next_eid_first[e + 1] if e + 1 <= len(self.elem_first) else None
            records.append(
                UARecord(
                    eid=e,
                    item=it,
                    u=self.u[p],
                    ru=self.ru[p],
                    next_pos=nxt,
                    next_eid=next_eid,
                )
            )
            next_of_item[it] = p + 1
        records.reverse()
        first_occurrence = {}
        for it, ps in sorted(self.positions_of.items()):
            first_occurrence[it] = ps[0] + 1
        return UtilityArray(
            sid=self.sid, records=tuple(records), first_occurrence=first_occurrence
        )


_INF = float("inf")


def build_utility_array(qseq: QSequence, utable: UtilityTable) -> UtilityArray:
    """Build the flat record array for one sequence."""
    return SequenceArrays(qseq, utable).to_utility_array()


def build_database_arrays(db: QSDatabase, utable: UtilityTable) -> list[SequenceArrays]:
    return [SequenceArrays(s, utable) for s in db.sequences]


@dataclass
class ProjEntry:
    """Pivots of one sequence: positions of the pattern's last item across
    matches (ascending, 0-based) and the best match utility ending at each."""

    seq_index: int
    pivots: list[int]
    best: list[int]


@dataclass
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
    """Projection of the 1-pattern of ``item``: every active occurrence is a
    pivot and its own best prefix.  ``seq_indices`` restricts the scan to the
    sequences known to contain the item."""
    proj = Projection()
    indices = range(len(arrays)) if seq_indices is None else seq_indices
    for si in indices:
        seq = arrays[si]
        pivots = seq.active_positions_of(item)
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
        active = seq.active
        pivots = entry.pivots
        best = entry.best
        new_pivots: list[int] = []
        new_best: list[int] = []
        if kind == I_STEP:
            by_elem: dict[int, list[tuple[int, int]]] = {}
            for p, b in zip(pivots, best):
                by_elem.setdefault(eid[p], []).append((p, b))
            for q in positions:
                if not active[q]:
                    continue
                group = by_elem.get(eid[q])
                if not group:
                    continue
                prefix = max((b for p, b in group if p < q), default=None)
                if prefix is None:
                    continue
                new_pivots.append(q)
                new_best.append(prefix + u[q])
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
                if not active[q]:
                    continue
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


@dataclass(frozen=True)
class ProjectionBounds:
    """Utility, extension bounds and threshold pool of one projected pattern.

    ``seu`` is capped per sequence at the sequence utility but not yet at the
    parent's SEU; ``pool_min`` is infinite when every start point ends its
    sequence.
    """

    utility: Money
    peu: Money
    seu: Money
    swu: Money
    pool_min: Money


def _entry_bounds(entry: ProjEntry, ru: list) -> tuple:
    """Utility, PEU and uncapped SEU of a pattern within one sequence.

    The utility is the best pivot utility; PEU is the largest best +
    remaining over pivots; SEU adds to the utility the remaining utility at
    the pivot that maximises best + remaining (the earliest such pivot on
    ties).
    """
    u_max = best_term = None
    anchor_ru = 0
    for p, b in zip(entry.pivots, entry.best):
        if u_max is None or b > u_max:
            u_max = b
        term = b + ru[p]
        if best_term is None or term > best_term:
            best_term = term
            anchor_ru = ru[p]
    return u_max, best_term, u_max + anchor_ru


def projection_bounds(pdb: Projection, arrays: list[SequenceArrays]) -> ProjectionBounds:
    """Every bound of a projected pattern in one pass over its pivots.

    Per containing sequence the SEU term is capped at the sequence utility so
    the bound never exceeds the sequence-weighted one.  The threshold pool is
    the least threshold among items occurring strictly after a start point
    (the earliest pivot); it stays infinite unless the arrays were rebuilt
    with an M-table.
    """
    utility = peu = seu = swu_v = 0
    pool = _INF
    for entry in pdb.entries:
        seq = arrays[entry.seq_index]
        u_s, peu_s, seu_s = _entry_bounds(entry, seq.ru)
        utility += u_s
        peu += peu_s
        seu += min(seq.useq, seu_s)
        swu_v += seq.useq
        if seq.suffix_min_mu:
            cand = seq.suffix_min_mu[entry.pivots[0] + 1]
            if cand < pool:
                pool = cand
    return ProjectionBounds(utility, peu, seu, swu_v, pool)


def pattern_utility_from_projection(pdb: Projection) -> Money:
    """Exact pattern utility: sum over sequences of the best pivot utility."""
    return sum(max(entry.best) for entry in pdb.entries)


def peu_by_sequence(pdb: Projection, arrays: list[SequenceArrays]) -> dict:
    """Per-sequence extension bound: max over pivots of best + remaining."""
    return {e.seq_index: _entry_bounds(e, arrays[e.seq_index].ru)[1] for e in pdb.entries}


def peu_from_projection(pdb: Projection, arrays: list[SequenceArrays]) -> Money:
    return projection_bounds(pdb, arrays).peu


def seu_from_projection(pdb: Projection, arrays: list[SequenceArrays]) -> Money:
    """Sequence-extension bound, each sequence capped at its utility."""
    return projection_bounds(pdb, arrays).seu


def swu_from_projection(pdb: Projection, arrays: list[SequenceArrays]) -> Money:
    return projection_bounds(pdb, arrays).swu


def rest_pool_min_mu(pdb: Projection, arrays: list[SequenceArrays]) -> Money:
    """Minimum threshold among items occurring strictly after a start point;
    infinite when every start point ends its sequence."""
    return projection_bounds(pdb, arrays).pool_min
