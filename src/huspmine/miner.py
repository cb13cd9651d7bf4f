"""Depth-first pattern search over projected utility-arrays.

Patterns are enumerated in a lexicographic tree: every node extends its
parent either by appending an item to the last itemset (I-concatenation,
restricted to items with a larger id so each pattern has exactly one parse)
or by appending a new singleton itemset (S-concatenation).  Three pruning
layers cut the tree:

* the SWU strategy removes items whose whole-sequence weight cannot reach
  any threshold they could be mined under, deleting them from the utility
  arrays;
* a node is expanded only while its extension bound (PEU by default, the
  looser SEU selectable for ablation) stays at or above the least threshold
  reachable in its subtree (PMIU);
* the PUK strategy drops extension items before they are visited as
  children, when both the item's standalone extension bound and the
  would-be child's bound fall below the prefix's PMIU.  It is skipped at
  every node whose PMIU even the least standalone item bound reaches,
  where it could drop nothing.

Variant ``uspt1`` disables the first and third layers, ``uspt2`` disables
only the third, ``uspt`` enables all three.  All variants produce the same
pattern set; only the visited-candidate counts differ.

Children are evaluated without being projected: one scan over an expanded
node's projection returns every child's utility, PEU, SEU, SWU and
threshold pool, in one dict per concatenation kind, which decide whether
the child is a result and whether it is expanded.  Only an expanded child
gets its own projection, from which its own children are decided in turn.
The scan works on the database-wide utility arrays of
:mod:`huspmine.uarray`, where a pivot is a global position: the pivot's
element ends at ``nxt[pivot]``, and the projection names the pivot's
sequence, whose ``stop`` ends it.  The 1-patterns are the S-children of the
empty pattern, worth 0 before every position; their sums come from one
pass over the arrays, which gives the set-up statistics, the item removals
and the roots' bounds, and is redone after a removal.  The scan keeps, per
sequence, each child item's best match and its anchor, since an item may be
met at several positions.  Where it can be met only once the per-sequence
state is skipped and each position is folded into the node sums directly,
which gives the same sums: after a sequence's one pivot, at the positions
later in the pivot's element, since an element holds an item at most once,
and from the next element on when the sequence holds no item twice; and in
the pass of the empty pattern, over a sequence that holds no item twice.
The choice reads only whether the projection holds the sequence with one
pivot and the sequence's ``distinct`` flag.

One loop, ``_Engine._walk``, visits the tree in pre-order.  It decides
each child where it meets it: emits it if it is a result, reports it to
``on_node`` and, if it is expanded, descends into it by pushing the
context of the node whose children it was deciding.  A context is the rows
iterator and its concatenation kind, the offset ``b``, the node's MIU, PMIU
and SEU, its itemsets, the children's size and their result list.  The
bottom context is the empty pattern, whose S-rows are the roots, so the
same loop decides them; only a root's expansion gate is its own, its
first-pass SWU against its first-pass PMIU, and an expanded root is
projected from the item's positions.  No call, tuple or list is made per
node beyond that push, and pattern length is not limited by the
interpreter's recursion depth.
An expanded child that is one pivot at its sequence's last position has no
children.  That is decided once, where the child's projection is made: its
``ext`` is then the one marker ``CHILDLESS``, which the walk tests by
identity and does not enter; an observer receives its empty candidates
where it is decided.

A node's children are decided from child rows ``(item, utility, peu, seu,
swu, pool, ext)``, one list per concatenation kind sorted by item: a
child's utility, PEU and SEU are its row's plus ``b``, and its node SEU is
the smaller of that and its prefix's.  The rows have one source per shape
of the node's projection.  Most expanded nodes of a dense run are one pivot
``p`` of one sequence; a global position names its sequence too, so their
children are fixed by the int key ``p`` up to the pivot's best utility, and
their rows are cached per key, filled by one candidate scan of ``p`` worth
zero the first time the key is met and kept for the rest of the run.  The
fill finds ``p``'s sequence by bisecting the sequences' starts.  A cached
row's ``ext`` is its child's projection from ``p`` worth zero, read off the
arrays by ``project``'s pivot-extension rule but without ``project``: a
child that is itself a lone pivot ``q`` is kept as ``(q, best)``, or as
``CHILDLESS`` when ``q`` is the sequence's last position, and any other as
its :class:`Projection`, scanned when the child is expanded.
Descending adds ``best``, or nothing, to the offset.  Every other node is
scanned with its offset, and its rows' ``ext`` is None: an expanded child's
projection is built by ``project`` when the walk descends into it.  An
offset is non-zero only below a lone pivot, where every projection lies in
one sequence.  There a row's SEU is capped at the sequence utility before
the offset is added, and the node SEU is still exact: the prefix's SEU,
which caps it, is at most the sequence utility.  Both sources give the same
children with the same bounds.

A scanned node keeps only the rows that can pass.  A child is a result only
when its utility reaches its MIU, and expanded only when its gate bound,
PEU or SEU, reaches its PMIU, which is at most its MIU; since utility,
PEU and SEU never decrease in that order, both need the gate's sum plus
``b`` to reach the least of the item's threshold, its pool and the node's
MIU, and at the last size, where nothing is expanded, the utility's sum to.
The other rows are never built, but they are still candidates: the node's
count is every scanned child less the ones PUK drops, among the kept rows
in the loop and among the others where the rows are built.  With an
observer every row is kept, since ``on_node`` sees every candidate, and a
lone pivot's cached rows are kept whole, since they serve every offset.

A :class:`Pattern` is built only for a result and for an observer call,
and :class:`Bounds` only for ``on_node``.  The walk builds each pattern
with two C calls, ``object.__new__(Pattern)`` and the ``itemsets`` slot's
``__set__``, without the class's validation: a child only ever appends a
larger item to the last itemset or a new singleton, so it is valid
whenever its parent is.  A result is a :class:`Husp` named tuple, built
by ``tuple.__new__`` without the class's generated ``__new__``.  Results
are kept in one list per size.
Children are decided in sorted order, I-children first, and in pre-order,
which meets the nodes of one size in :func:`pattern_sort_key` order; so
every list receives its patterns sorted, and the lists joined shortest
first are the sorted output.
"""

from __future__ import annotations

import gc
import sys
import time
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import inf
from typing import NamedTuple, Optional

try:
    import resource
except ImportError:  # no getrusage on this platform
    resource = None

from .model import (
    Money,
    MTable,
    Pattern,
    QSDatabase,
    UtilityTable,
)
from .uarray import (
    I_STEP,
    S_STEP,
    DatabaseArrays,
    Projection,
    _ItemAccumulator,
    _extend_pivots,
    build_database_arrays,
    initial_projection,
    project,
)

USPT = "uspt"
USPT2 = "uspt2"
USPT1 = "uspt1"
VARIANTS = (USPT1, USPT2, USPT)

BOUND_PEU = "peu"
BOUND_SEU = "seu"
NODE_BOUNDS = (BOUND_PEU, BOUND_SEU)


class ConfigError(ValueError):
    """Inconsistent database/tables/config detected before mining starts."""


@dataclass(frozen=True)
class MiningConfig:
    variant: str = USPT
    node_bound: str = BOUND_PEU
    max_pattern_length: Optional[int] = None


@dataclass(frozen=True)
class Bounds:
    """All bound and threshold values computed for one candidate pattern."""

    swu: Money
    seu: Money
    peu: Money
    pmiu: Money
    miu: Money
    utility: Money


class Husp(NamedTuple):
    """One result: a pattern, its utility and its MIU threshold."""

    pattern: Pattern
    utility: Money
    miu: Money


@dataclass
class MiningStats:
    """Statistics of one :func:`mine` run, collected on every run.

    - ``candidates_visited``: patterns whose bounds the search computed;
    - ``husps_found``: patterns returned;
    - ``wall_time``: seconds spent in :func:`mine`;
    - ``peak_memory_estimate``: the process's peak resident set size in
      bytes when the run ended, from ``getrusage``; it covers what the
      process did before the call too, so it never falls from one run to
      the next, and it is ``None`` where the ``resource`` module is missing;
    - ``depth_histogram``: candidates visited, by pattern size.
    """

    candidates_visited: int = 0
    husps_found: int = 0
    wall_time: float = 0.0
    peak_memory_estimate: Optional[int] = None
    depth_histogram: dict = field(default_factory=dict)


@dataclass(frozen=True)
class OneSeqInfo:
    """First-pass statistics of a single-item pattern."""

    swu: Money
    utility: Money
    pmiu: Money
    miu: Money


class MiningObserver:
    """Instrumentation hooks for tracing a run; every hook is a no-op here."""

    def on_one_sequence_stats(self, info: dict) -> None:
        pass

    def on_item_extension_bounds(self, peu_by_item: dict) -> None:
        pass

    def on_candidates(self, prefix: Pattern, i_items, s_items, kept_i, kept_s) -> None:
        pass

    def on_node(self, pattern: Pattern, bounds: Bounds, expanded: bool) -> None:
        pass


# ---------------------------------------------------------------------------
# pattern order


def pattern_sort_key(pattern: Pattern) -> tuple:
    """Total order: shorter patterns first, then derivation chains compared
    entrywise with I-steps before S-steps and smaller items first."""
    chain = [(0, pattern.itemsets[0][0])]
    for item in pattern.itemsets[0][1:]:
        chain.append((0, item))
    for itemset in pattern.itemsets[1:]:
        chain.append((1, itemset[0]))
        for item in itemset[1:]:
            chain.append((0, item))
    return (pattern.size, tuple(chain))


# ---------------------------------------------------------------------------
# engine


class _Engine:
    def __init__(
        self,
        db: QSDatabase,
        utable: UtilityTable,
        mtable: MTable,
        config: MiningConfig,
        observer: Optional[MiningObserver],
    ):
        self.mtable = mtable
        self.config = config
        self.observer = observer
        # read once, not at every expanded node: whether PUK runs, whether
        # PEU gates expansion, and the largest pattern size
        self.puk = config.variant == USPT
        self.peu_gate = config.node_bound == BOUND_PEU
        cap = config.max_pattern_length
        self.max_size = sys.maxsize if cap is None else cap
        self.arrays: DatabaseArrays = build_database_arrays(db, utable, mtable)
        self._bind_scratch()
        # lone pivot -> the I- and S-child rows of that pivot
        self.rows_by_key: dict[int, tuple[list, list]] = {}

    def _bind_scratch(self) -> None:
        """Make the scratch state of the candidate scan, one accumulator per
        concatenation kind, over the current arrays."""
        self.acc_i = _ItemAccumulator(self.arrays)
        self.acc_s = _ItemAccumulator(self.arrays)

    # -- set-up -------------------------------------------------------

    def _remove_items(self, roots: dict, items: set) -> dict:
        """Delete ``items`` from every sequence and return the rescanned root
        sums, or ``roots`` unchanged when there are no ``items``."""
        if not items:
            return roots
        self.arrays.drop(items, self.mtable)
        self._bind_scratch()
        return self._root_sums()

    # -- search -------------------------------------------------------

    def run(self) -> tuple[list[Husp], MiningStats]:
        """Set-up statistics and root bounds all come from the pass of the
        empty pattern, ``_root_sums``, redone after every removal phase that
        removed items."""
        mu, observer = self.mtable.mu, self.observer
        roots = self._root_sums()
        # prefilter: an item whose SWU falls below the least threshold of
        # any item belongs to no result
        floor = min((mu[i] for i in roots), default=0)
        roots = self._remove_items(roots, {i for i, row in roots.items() if row[3] < floor})
        if observer:
            observer.on_one_sequence_stats({
                i: OneSeqInfo(swu=swu, utility=utility, pmiu=min(mu[i], pool), miu=mu[i])
                for i, (utility, _, _, swu, pool) in sorted(roots.items())
            })
        # a root's expansion gate is its first-pass whole-sequence weight
        opened = {i for i, (_, _, _, swu, pool) in roots.items() if swu >= min(mu[i], pool)}
        if self.config.variant != USPT1:
            # SWU strategy: an item's SWU upper-bounds the utility of every
            # pattern containing it, while the least threshold of any item
            # co-occurring with it lower-bounds those patterns' MIU values
            arrays = self.arrays
            item_, pool = arrays.item, arrays.pool
            # a sequence's least threshold: its first item's or any later one's
            least = [min(mu[item_[a]], pool[a]) if a < z else inf
                     for a, z in zip(arrays.start, arrays.stop)].__getitem__
            roots = self._remove_items(roots, {
                item
                for item, row in roots.items()
                if row[3] < min(map(least, arrays.where[item]))
            })
        global_peu = {i: row[1] for i, row in sorted(roots.items())}
        if observer:
            observer.on_item_extension_bounds(dict(global_peu))
        hist, by_size = self._walk(roots, opened, global_peu)
        husps = [husp for bucket in by_size for husp in bucket]
        stats = MiningStats(
            candidates_visited=sum(hist),
            husps_found=len(husps),
            depth_histogram={depth: n for depth, n in enumerate(hist) if n},
        )
        return husps, stats

    def _walk(self, roots: dict, opened: set, global_peu: dict) -> tuple[list, list]:
        """Decide every node, in pre-order, and return the number of
        candidates of size ``k`` and the results of size ``k + 1``, in
        :func:`pattern_sort_key` order, each at index ``k``.

        The walk keeps one context, the node whose children are being
        decided: its rows iterator ``it`` and concatenation ``kind``, the
        S-rows still to come, its projection ``proj`` when it was scanned,
        the offset ``b``, its MIU, PMIU and SEU, the PUK ``floor``, its
        itemsets split into ``head`` and ``stem`` for the child patterns,
        the children's size, their result list and whether they may be
        expanded.  A child is decided where the loop meets it; descending
        into an expanded child pushes the context, and an exhausted context
        pops its parent's.  A childless child, one pivot at its sequence's
        last position, has ``ext`` ``CHILDLESS``, set by
        :func:`_lone_pivot` for a cached and a scanned row alike; it is not
        entered, and an observer is handed its empty candidates directly.

        The bottom context is the empty pattern.  Its S-rows are the roots,
        from their sums ``roots``; its MIU, PMIU and SEU are unbounded and
        its offset and ``floor`` are 0, so the one loop decides the roots
        too.  Two things are the roots' own, selected by the children's
        size 1: a root is expanded when it is in ``opened``, the roots whose
        first-pass SWU reaches their first-pass PMIU, and an expanded root
        is projected by ``initial_projection``.

        A node that is a lone pivot takes the rows cached for its key,
        filled by one scan the first time the key is met, with its offset
        plus its best utility; any other node is scanned with its offset.
        A scanned node, once its offset, MIU, PMIU, ``floor`` and
        ``deeper`` are set, keeps only the rows whose gate sum (index
        ``gate``, or the utility's when not ``deeper``) plus the offset
        reaches the least of the item's threshold, its pool and the node's
        MIU: any other child is neither a result nor expanded.  It counts
        every scanned child as a candidate less the dropped rows that PUK
        would drop; the loop subtracts the kept ones PUK drops.  With an
        observer every row is kept.  An expanded child of a scanned row is
        projected when the walk descends into it.

        PUK drops a row only when its item's global PEU
        ``global_peu`` is below the prefix's PMIU, so it is off, with
        ``floor`` 0 below every row's PEU, when even the least global item
        PEU reaches it.
        """
        observer, arrays, mu = self.observer, self.arrays, self.mtable.mu
        scan, rows_by_key = self._scan_candidates, self.rows_by_key
        puk, peu_gate, max_size = self.puk, self.peu_gate, self.max_size
        new, live = tuple.__new__, _live_rows
        # a child pattern is built without Pattern's checks, which it passes:
        # it extends a valid pattern by a larger item or a new singleton
        new_pattern, set_itemsets = object.__new__, Pattern.itemsets.__set__
        # the index of the expansion gate's bound in a scan's sums
        gate = 1 if peu_gate else 2
        least_peu = min(global_peu.values(), default=0)
        root_rows = [(i, *roots[i], None) for i in sorted(roots)]
        hist, by_size = [0, len(root_rows)], [[]]
        stack = []
        # the empty pattern, whose S-children are the roots
        it, kind, s_rows, proj = iter(root_rows), S_STEP, None, None
        b, min_mu, pmiu, node_seu, floor = 0, inf, inf, inf, 0
        itemsets = head = stem = ()
        size, results, deeper = 1, by_size[0], max_size >= 2
        while True:
            for item, utility, peu, seu, swu, pool, ext in it:
                if peu < floor and global_peu[item] < pmiu:
                    hist[size] -= 1
                    continue
                utility += b
                peu += b
                seu += b
                m = mu[item]
                miu = m if m < min_mu else min_mu
                if seu > node_seu:
                    seu = node_seu
                child_pmiu = pool if pool < miu else miu
                expand = deeper and (
                    item in opened if size == 1 else (peu if peu_gate else seu) >= child_pmiu
                )
                result = utility >= miu
                if not (expand or result or observer):
                    continue
                child = head + (stem + (item,),)
                if result or observer:
                    pattern = new_pattern(Pattern)
                    set_itemsets(pattern, child)
                    if result:
                        results.append(new(Husp, (pattern, utility, miu)))
                    if observer:
                        bounds = Bounds(swu, seu, peu, child_pmiu, miu, utility)
                        observer.on_node(pattern, bounds, expand)
                if expand:
                    if ext is None:
                        ext = _lone_key(
                            initial_projection(arrays, item) if size == 1
                            else project(proj, arrays, item, kind),
                            arrays,
                        )
                    if ext is CHILDLESS:
                        if observer:
                            observer.on_candidates(pattern, {}, {}, {}, {})
                        continue
                    stack.append((it, kind, s_rows, proj, b, min_mu, pmiu, node_seu,
                                  floor, itemsets, head, stem, size, results, deeper))
                    break
            else:
                if s_rows is not None:
                    # an I-child extends the last itemset, an S-child opens
                    # a new one
                    it, kind, s_rows = iter(s_rows), S_STEP, None
                    head, stem = itemsets, ()
                    continue
                if not stack:
                    return hist, by_size
                (it, kind, s_rows, proj, b, min_mu, pmiu, node_seu, floor,
                 itemsets, head, stem, size, results, deeper) = stack.pop()
                continue
            # descend into ``child``
            if type(ext) is tuple:
                key, best = ext
                b += best
                rows = rows_by_key.get(key)
                if rows is None:
                    rows = rows_by_key[key] = self._fill(key)
                i_rows, s_rows = rows
                proj = None
            else:
                proj = ext
                i_sums, s_sums = scan(proj)
            itemsets, min_mu, pmiu, node_seu = child, miu, child_pmiu, seu
            size += 1
            if len(by_size) < size:
                by_size.append([])
                hist.append(0)
            results = by_size[size - 1]
            deeper = size < max_size
            floor = pmiu - b if puk and least_peu < pmiu else 0
            if proj is None:
                hist[size] += len(i_rows) + len(s_rows)
            else:
                # only the rows of children that can be a result or be
                # expanded are built; an observer is shown every row
                least = -inf if observer else min_mu
                g = gate if deeper else 0
                i_rows, i_cut = live(i_sums, g, b, least, mu, floor, pmiu, global_peu)
                s_rows, s_cut = live(s_sums, g, b, least, mu, floor, pmiu, global_peu)
                hist[size] += len(i_sums) + len(s_sums) - i_cut - s_cut
            if observer:
                both = (i_rows, s_rows)
                peus = [{r[0]: b + r[2] for r in rows} for rows in both]
                kept = [{r[0]: b + r[2] for r in rows
                         if not (r[2] < floor and global_peu[r[0]] < pmiu)}
                        for rows in both]
                observer.on_candidates(pattern, *peus, *kept)
            # ``head`` is the child's itemsets but its last, which its
            # I-children extend
            it, kind, stem = iter(i_rows), I_STEP, child[-1]

    def _fill(self, key: int) -> tuple[list, list]:
        """The I- and S-child rows of the lone pivot ``key`` worth zero,
        decided by one candidate scan; each row's ``ext``, its child's
        projection from the pivot, is read off the arrays.

        An I-child's item occurs once after the pivot in the pivot's
        element, and that is its one pivot.  An S-child's item that occurs
        once in the sequence has that one position as its pivot; any other's
        pivots are its positions from the next element on, extended from
        ``key`` worth zero by :func:`~huspmine.uarray._extend_pivots`, the
        rule ``project`` applies, so every pivot is worth its own utility.
        A child that is one pivot at its sequence's last position has no
        children, and its ``ext`` is ``CHILDLESS``.  The pivot's sequence is
        the last one starting at or before it.
        """
        arrays = self.arrays
        si = bisect_right(arrays.start, key) - 1
        i_node, s_node = self._scan_candidates(Projection([si], [key], [0]))
        item_, u, nxt, stop = arrays.item, arrays.u, arrays.nxt, arrays.stop[si]
        # an element's items increase, so its positions after the pivot list
        # the I-children in item order
        i_rows = [(item_[q], *i_node[item_[q]], _lone_pivot(q, u[q], stop))
                  for q in range(key + 1, nxt[key])]
        s_rows = []
        where = arrays.where
        for i in sorted(s_node):
            at = where[i][si]
            if type(at) is int:
                ext = _lone_pivot(at, u[at], stop)
            else:
                pivots, best = _extend_pivots(at, [key], [0], nxt, u, False)
                ext = (_lone_pivot(pivots[0], best[0], stop) if len(pivots) == 1
                       else Projection(several=[(si, pivots, best)]))
            s_rows.append((i, *s_node[i], ext))
        return i_rows, s_rows

    def _root_sums(self) -> dict:
        """The S-children's sums of the empty pattern, the 1-patterns', from
        one pass over the arrays: every position is a match worth its own
        utility, and in a sequence holding no item twice its item's only
        one, so it is folded into the sums directly."""
        arrays, acc = self.arrays, self.acc_s
        acc.node = sums = {}
        feed, fold = acc.feed, acc.fold_matches
        item_, u_, ru_, pool_ = arrays.item, arrays.u, arrays.ru, arrays.pool
        for a, z, useq, distinct in zip(arrays.start, arrays.stop, arrays.useq,
                                        arrays.distinct):
            if distinct:
                fold(a, z, 0, useq)
                continue
            for q in range(a, z):
                feed(item_[q], u_[q], ru_[q], pool_[q])
            acc.end_sequence(useq)
        return sums

    def _scan_candidates(self, proj: Projection) -> tuple[dict, dict]:
        """One pass over the projected arrays that evaluates every would-be
        child of both kinds: its utility, PEU, SEU, SWU and threshold pool.

        Returns the I- and S-children's sums, each a dict from item to
        ``[utility, peu, seu, swu, pool]``.  The scratch accumulators
        ``acc_i`` and ``acc_s`` gather them into fresh dicts, which no later
        scan changes.

        A sequence of one pivot ``p`` worth ``b`` makes every position it
        visits a match worth ``b`` plus the position's utility.  ``p``'s
        element ends at ``nxt[p]``, and its sequence at the sequence's
        ``stop``.  Its I-children, the positions after ``p`` in ``p``'s
        element, are each
        met once, since an element holds an item at most once; so are its
        S-children, the positions from the next element on, when the
        sequence holds no item twice.  Those positions are folded into the
        node sums directly.  Every other match goes through ``feed``, an
        S-child's worth the best pivot in an earlier element.
        """
        acc_i, acc_s = self.acc_i, self.acc_s
        acc_i.node = i_sums = {}
        acc_s.node = s_sums = {}
        feed_i, feed_s = acc_i.feed, acc_s.feed
        fold_i, fold_s = acc_i.fold_matches, acc_s.fold_matches
        end_s = acc_s.end_sequence
        arrays = self.arrays
        item_, u_, ru_, pool_, nxt = arrays.item, arrays.u, arrays.ru, arrays.pool, arrays.nxt
        stops, useqs, distinct = arrays.stop, arrays.useq, arrays.distinct
        for si, p, b in zip(proj.seqs, proj.pivots, proj.best):
            useq = useqs[si]
            e = nxt[p]
            if p + 1 < e:
                fold_i(p + 1, e, b, useq)
            stop = stops[si]
            if e == stop:
                continue
            if distinct[si]:
                fold_s(e, stop, b, useq)
                continue
            for q in range(e, stop):
                feed_s(item_[q], b + u_[q], ru_[q], pool_[q])
            end_s(useq)
        for si, pivots, best in proj.several:
            useq = useqs[si]
            for p, b in zip(pivots, best):
                for q in range(p + 1, nxt[p]):
                    feed_i(item_[q], b + u_[q], ru_[q], pool_[q])
            acc_i.end_sequence(useq)
            # a position from the first pivot's next element on is worth its
            # utility plus the best pivot in an earlier element
            run_max = 0
            ptr = 0
            n_piv = len(pivots)
            for q in range(nxt[pivots[0]], stops[si]):
                while ptr < n_piv and nxt[pivots[ptr]] <= q:
                    if best[ptr] > run_max:
                        run_max = best[ptr]
                    ptr += 1
                feed_s(item_[q], run_max + u_[q], ru_[q], pool_[q])
            end_s(useq)
        return i_sums, s_sums


def _live_rows(sums, g, b, least, mu, floor, pmiu, global_peu) -> tuple[list, int]:
    """The rows ``(item, utility, peu, seu, swu, pool, None)`` of a scan's
    ``sums`` whose ``g``-th sum plus ``b`` reaches the least of ``least``,
    the item's threshold and its pool, sorted by item, and the number of
    the other rows that PUK would drop: PEU below ``floor`` and the item's
    ``global_peu`` below ``pmiu``."""
    live = []
    cut = 0
    for i, r in sums.items():
        v = r[g] + b
        if v >= least or v >= mu[i] or v >= r[4]:
            live.append(i)
        elif r[1] < floor and global_peu[i] < pmiu:
            cut += 1
    live.sort()
    return [(i, *sums[i], None) for i in live], cut


# the ``ext`` of a child that is one pivot at its sequence's last position,
# which has no children
CHILDLESS = object()


def _lone_pivot(q: int, best: int, stop: int):
    """The ``ext`` of a child that is the one pivot ``q``, worth ``best``, of
    the sequence ending at ``stop``: ``(q, best)``, or ``CHILDLESS`` when
    ``q`` is the sequence's last position."""
    return CHILDLESS if q + 1 == stop else (q, best)


def _lone_key(proj: Projection, arrays: DatabaseArrays):
    """:func:`_lone_pivot` of ``proj``'s pivot when ``proj`` is one pivot of
    one sequence, else ``proj`` itself."""
    if len(proj.seqs) == 1 and not proj.several:
        return _lone_pivot(proj.pivots[0], proj.best[0], arrays.stop[proj.seqs[0]])
    return proj


def _validate(db, utable, mtable, config) -> None:
    m = len(db.symbols)
    if len(utable.unit) != m:
        raise ConfigError("utility table does not cover the database items")
    if len(mtable.mu) != m:
        raise ConfigError("threshold table does not cover the database items")
    if config.variant not in VARIANTS:
        raise ConfigError(f"unknown variant {config.variant!r}")
    if config.node_bound not in NODE_BOUNDS:
        raise ConfigError(f"unknown node bound {config.node_bound!r}")
    if config.max_pattern_length is not None and config.max_pattern_length < 1:
        raise ConfigError("max_pattern_length must be >= 1")


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector while a bulk builder runs.

    :func:`mine`, :func:`~huspmine.formats.parse_dataset` and
    :func:`~huspmine.formats.parse_results` each build one tracked container
    or more per input record and make no reference cycles, so the collector
    would free nothing, yet it would keep re-traversing the growing set of
    objects they keep.  Everything allocated in the pause still counts as
    young, so the caller's next allocation would start one young collection
    over all of it.  So, when the collector is on, the guard first collects
    the young generations, which frees the caller's young garbage and
    empties them, and before resuming the collector it moves every tracked
    object to the oldest generation with ``gc.freeze()`` and
    ``gc.unfreeze()``, which also resets the young count.  What is moved is
    what the body allocated and kept, with anything an observer allocated;
    a later full collection still sees it, though the trigger of full
    collections does not count it.  When any objects are frozen, by the
    caller or by the interpreter itself, both steps are skipped, since
    ``gc.unfreeze()`` would release them.  The caller's setting is restored
    whether the body returns or raises.
    """
    collecting = gc.isenabled()
    # the young garbage of the caller is freed first, so that it is not
    # moved with the body's objects
    hand_back = collecting and not gc.get_freeze_count()
    if hand_back:
        gc.collect(1)
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            # a frozen set, which unfreeze() would release, is left alone
            if hand_back and not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()


def mine(
    db: QSDatabase,
    utable: UtilityTable,
    mtable: MTable,
    config: MiningConfig = MiningConfig(),
    observer: Optional[MiningObserver] = None,
) -> tuple[list[Husp], MiningStats]:
    """Discover every pattern whose utility reaches its own MIU threshold.

    Returns the patterns sorted by :func:`pattern_sort_key` together with run
    statistics.  They are emitted in that order by the search itself, with
    no final sort.  Output is identical across variants.
    """
    _validate(db, utable, mtable, config)
    started = time.perf_counter()
    with _collector_paused():
        husps, stats = _Engine(db, utable, mtable, config, observer).run()
        stats.wall_time = time.perf_counter() - started
        if resource is not None:
            # kilobytes, except on macOS, which gives bytes
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            stats.peak_memory_estimate = peak if sys.platform == "darwin" else peak * 1024
    return husps, stats
