"""Database-wide utility arrays and pattern projections.

The sequences of a database are laid end to end, so that every item
occurrence has one global position: a sequence's positions are consecutive
and run element by element, and an element's positions run in item order.
Five lists indexed by global position hold, for every occurrence:

* ``item``: its item;
* ``u``: its exact utility;
* ``ru``: the remaining utility, of everything strictly after it within its
  sequence;
* ``pool``: the least threshold among the items strictly after it within
  its sequence, infinite at a sequence's last position;
* ``nxt``: the start of the next element, which is the end of its own
  element and, in a sequence's last element, the sequence's end.

Beside them, every sequence, by its 0-based index, keeps its bounds
``start`` and ``stop`` (its positions are ``range(start, stop)``), its
utility ``useq`` and whether it holds no item twice (``distinct``).  The
positions index ``where[item]`` maps every sequence holding the item to its
one position there, an ``int``, or to the ascending list of its positions
when it holds the item more than once.  Two positions of one sequence lie
in one element exactly when they share ``nxt``, and position ``p`` lies in
an element strictly before position ``q``'s exactly when ``nxt[p] <= q``,
so no element ids are kept.  The arrays let the search compute pattern
utilities and extension bounds without rescanning the database.

A pattern's projection stores, per containing sequence, the pivot positions
(the global positions of the pattern's last item across matches) together
with the best achievable match utility ending at each.  The sequences
holding one pivot, nearly all of them, are three parallel lists of the
sequence, the pivot and its best utility, with no object per sequence; a
sequence holding more pivots is one plain ``(seq, pivots, best)`` tuple.
A pivot's element ends at ``nxt[pivot]`` and its sequence at
``stop[seq]``.  A 1-pattern's projection is read off ``where[item]``, with
the best utilities taken from ``u``.  Projections share the arrays
read-only; child projections are derived from parent projections, never
from the raw database, by one rule, :func:`_extend_pivots`: an I-step keeps
the item's positions after a parent pivot in that pivot's element, an
S-step its positions in elements after a parent pivot's, each worth the
best such parent pivot plus its own utility.  The candidate scan gathers
the bounds of a node's children by item, in one dict per sequence and one
per node, which it returns; a position that is its item's only match in
the sequence goes to the node's dict directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain, compress
from operator import mul
from typing import NamedTuple

from .model import (
    Item,
    MTable,
    QSDatabase,
    UnknownItem,
    UtilityTable,
)

_INF = float("inf")


class DatabaseArrays:
    """Engine-internal utility arrays of a whole database; the module
    docstring describes the fields.

    Removing items (``drop``) rebuilds every field without them, field for
    field as if the database had been built without those items, except
    that a sequence left without items keeps its index, empty; so no reader
    needs to know that items were ever removed.
    """

    __slots__ = (
        "item",
        "u",
        "ru",
        "pool",
        "nxt",
        "start",
        "stop",
        "useq",
        "distinct",
        "where",
    )

    def __init__(self, db: QSDatabase, utable: UtilityTable, mtable: MTable):
        unit = utable.unit
        n_units = len(unit)
        item: list[int] = []
        quantity: list[int] = []
        nxt: list[int] = []
        start: list[int] = []
        stop: list[int] = []
        for qseq in db.sequences:
            start.append(len(item))
            for element in qseq.elements:
                items = element.items
                # an element's items are strictly increasing, so its ends bound
                # every id; a negative id would otherwise wrap around ``unit``
                if items[0] < 0 or items[-1] >= n_units:
                    raise UnknownItem(next(i for i in items if not 0 <= i < n_units))
                item += items
                quantity += element.quantities
                nxt += [len(item)] * len(items)
            stop.append(len(item))
        u = list(map(mul, quantity, map(unit.__getitem__, item)))
        self._derive(item, u, nxt, start, stop, mtable)

    def _derive(self, item: list, u: list, nxt: list, start: list, stop: list,
                mtable: MTable) -> None:
        """Set every field from the item, utility and next-element lists and
        the sequences' bounds."""
        self.item = item
        self.u = u
        self.nxt = nxt
        self.start = start
        self.stop = stop
        mu = mtable.mu
        n = len(item)
        ru = [0] * n
        pool = [_INF] * n
        useq: list[int] = []
        distinct = [True] * len(start)
        where: list[dict] = [{} for _ in mu]
        for si, (a, z) in enumerate(zip(start, stop)):
            rest = 0
            least = _INF
            for g in range(z - 1, a - 1, -1):
                ru[g] = rest
                pool[g] = least
                rest += u[g]
                i = item[g]
                if mu[i] < least:
                    least = mu[i]
                w = where[i]
                # positions are met backwards, so ``later`` is ``g`` itself
                # unless a later position of the item is already in ``w``
                later = w.setdefault(si, g)
                if later is not g:
                    if type(later) is int:
                        w[si] = [g, later]
                        distinct[si] = False
                    else:
                        later.insert(0, g)
            useq.append(rest)
        self.ru = ru
        self.pool = pool
        self.useq = useq
        self.distinct = distinct
        self.where = where

    def drop(self, items: set, mtable: MTable) -> None:
        """Remove every occurrence of ``items`` and re-derive all fields.

        Elements left empty vanish; a sequence left empty keeps its index.
        A kept position's new index is the number of kept positions before
        it, so each old boundary, a next-element start or a sequence's
        bound, maps to the number of kept positions before it.
        """
        keep = list(map([i not in items for i in range(len(mtable.mu))].__getitem__,
                        self.item))
        kept_before = list(accumulate(keep, initial=0)).__getitem__
        self._derive(
            list(compress(self.item, keep)),
            list(compress(self.u, keep)),
            list(map(kept_before, compress(self.nxt, keep))),
            list(map(kept_before, self.start)),
            list(map(kept_before, self.stop)),
            mtable,
        )


def build_database_arrays(
    db: QSDatabase, utable: UtilityTable, mtable: MTable
) -> DatabaseArrays:
    return DatabaseArrays(db, utable, mtable)


class ProjEntry(NamedTuple):
    """Pivots of one sequence: positions of the pattern's last item across
    matches (ascending, global) and the best match utility ending at each.
    Only :attr:`Projection.entries` builds entries, a named view of the
    parallel lists and plain tuples that the engine keeps."""

    seq_index: int
    pivots: list[int]
    best: list[int]


@dataclass(slots=True)
class Projection:
    """Projected database of one pattern: per-sequence pivot sets.

    ``seqs``, ``pivots`` and ``best`` list, in parallel, every sequence
    holding one pivot, that pivot and its best match utility; ``several``
    holds a plain ``(seq_index, pivots, best)`` tuple for every sequence
    holding more."""

    seqs: list[int] = field(default_factory=list)
    pivots: list[int] = field(default_factory=list)
    best: list[int] = field(default_factory=list)
    several: list[tuple[int, list[int], list[int]]] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.seqs) or bool(self.several)

    @property
    def entries(self) -> list[ProjEntry]:
        """Every sequence's pivots as an entry: the one-pivot sequences
        first, then the others."""
        lone = [ProjEntry(si, [p], [b])
                for si, p, b in zip(self.seqs, self.pivots, self.best)]
        return lone + list(map(ProjEntry._make, self.several))


def initial_projection(arrays: DatabaseArrays, item: Item) -> Projection:
    """Projection of the 1-pattern of ``item``: every occurrence is a pivot
    and its own best prefix."""
    u = arrays.u
    seqs, pivots, several = [], [], []
    for si, at in arrays.where[item].items():
        if type(at) is int:
            seqs.append(si)
            pivots.append(at)
        else:
            several.append((si, at, [u[p] for p in at]))
    return Projection(seqs, pivots, list(map(u.__getitem__, pivots)), several)


I_STEP = "I"
S_STEP = "S"


def _extend_pivots(at: list, parent_pivots: list, parent_best: list, nxt: list,
                   u: list, i_step: bool) -> tuple[list, list]:
    """The item's positions ``at`` in one sequence that extend the sequence's
    ascending parent pivots, and the best utility of each: for an I-step
    those after a parent pivot in its element, for an S-step those in an
    element after a parent pivot's, each worth the best such parent pivot
    plus its own utility ``u``."""
    new_pivots = []
    new_best = []
    if i_step:
        # one parent pivot per element
        at_elem = {nxt[p]: (p, b) for p, b in zip(parent_pivots, parent_best)}
        for q in at:
            hit = at_elem.get(nxt[q])
            if hit is not None and hit[0] < q:
                new_pivots.append(q)
                new_best.append(hit[1] + u[q])
    else:
        # running max of parent best over the pivots in elements strictly
        # before q's; best may be 0, so no pivot yet reads below 0
        run_max = -1
        ptr = 0
        n_piv = len(parent_pivots)
        for q in at:
            while ptr < n_piv and nxt[parent_pivots[ptr]] <= q:
                if parent_best[ptr] > run_max:
                    run_max = parent_best[ptr]
                ptr += 1
            if run_max >= 0:
                new_pivots.append(q)
                new_best.append(run_max + u[q])
    return new_pivots, new_best


def project(
    parent: Projection,
    arrays: DatabaseArrays,
    item: Item,
    kind: str,
) -> Projection:
    """Project a parent pattern's pivot sets onto an extension item.

    Each sequence's new pivots and their best utilities come from
    :func:`_extend_pivots`; sequences with no surviving pivot drop out.  A
    one-pivot parent sequence that holds the item once, nearly every
    sequence, is decided inline: the item's one position is a new pivot
    when it lies after the parent pivot in its element (I-step) or in a
    later element (S-step).
    """
    nxt, u, where = arrays.nxt, arrays.u, arrays.where[item]
    seqs: list[int] = []
    pivots: list[int] = []
    best: list[int] = []
    several = []
    i_step = kind == I_STEP
    # one-pivot parents whose sequence repeats the item, as entries
    repeats = []
    for si, p, b in zip(parent.seqs, parent.pivots, parent.best):
        at = where.get(si)
        if at is None:
            continue
        if type(at) is int:
            e = nxt[p]
            if (p < at < e) if i_step else at >= e:
                seqs.append(si)
                pivots.append(at)
                best.append(b + u[at])
        else:
            repeats.append((si, [p], [b]))
    for si, parent_pivots, parent_best in chain(repeats, parent.several):
        at = where.get(si)
        if at is None:
            continue
        new_pivots, new_best = _extend_pivots(
            [at] if type(at) is int else at, parent_pivots, parent_best, nxt, u, i_step)
        if len(new_pivots) == 1:
            seqs.append(si)
            pivots.append(new_pivots[0])
            best.append(new_best[0])
        elif new_pivots:
            several.append((si, new_pivots, new_best))
    return Projection(seqs, pivots, best, several)


class _ItemAccumulator:
    """Per-item bounds of every would-be child of one node, gathered during
    the candidate scan; the engine's only implementation of utility, PEU,
    SEU, SWU and the threshold pool of a pattern.

    Each feed is one (match utility, remaining utility, threshold pool)
    triple of a child item at one position of the current sequence.  ``seq``
    maps every item fed in the current sequence to ``[u, peu, aru, pool]``:
    the best match utility, the best extension term (match + remaining), the
    remaining utility at the anchor (the earliest position reaching the best
    term) and the threshold pool after the first position fed.  One item's
    feeds within a sequence come in increasing position order and the
    remaining utility never rises along a sequence, so the earliest position
    of a tie already has the largest remaining utility, and a later tie
    never replaces it.  ``end_sequence`` folds ``seq`` into ``node``, which
    maps every item fed since the scan bound it to a fresh dict to
    ``[utility, peu, seu, swu, pool]``: the sums of utility, PEU, SEU capped
    per sequence at the sequence utility, and SWU, and the least pool.  The
    scan returns that dict, so a later scan, binding another, leaves it
    alone.

    ``fold_matches`` is the one-match case of ``feed`` and ``end_sequence``:
    when each position it is given is its item's only match in the
    sequence, the per-sequence best and anchor are that match itself, so it
    adds the position's terms to ``node`` directly, without ``seq``.  It
    reads the item, utility, remaining-utility and threshold-pool lists of
    the arrays the accumulator was made for.
    """

    __slots__ = ("seq", "node", "item", "u", "ru", "pool")

    def __init__(self, arrays):
        self.seq: dict[int, list] = {}
        self.node: dict[int, list] = {}
        self.item, self.u, self.ru, self.pool = arrays.item, arrays.u, arrays.ru, arrays.pool

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

    def fold_matches(self, start: int, stop: int, b: int, useq: int) -> None:
        """Fold positions ``start`` to ``stop - 1`` of one sequence of
        utility ``useq`` into ``node``.  Each position must be its item's
        only match in the sequence, worth ``b`` plus its own utility: the
        same sums as one ``feed`` per position followed by
        ``end_sequence(useq)``."""
        item_, u_, ru_, pool_ = self.item, self.u, self.ru, self.pool
        node = self.node
        get = node.get
        for q in range(start, stop):
            match = b + u_[q]
            term = match + ru_[q]
            seu = term if term < useq else useq
            pool = pool_[q]
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
