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
node's projection yields every child's utility, PEU, SEU, SWU and threshold
pool, which decide whether the child is a result and whether it is
expanded.  Only an expanded child gets its own projection, from which its
own children are decided in turn.  The 1-patterns are the children of the
empty pattern, whose projection is the whole database: the same scan over
every position gives the set-up statistics, the item removals and the root
bounds.  The search walks the tree from an explicit stack, so pattern length
is not limited by the interpreter's recursion depth.  A child that is a
result is emitted where it is decided, and only the children to expand go
on the stack, or every child when an observer is attached, so that
``on_node`` still sees every node in pre-order.

One loop decides the children of every expanded node, from child rows
``(item, utility, peu, seu, swu, pool, ext)``, one list per concatenation
kind sorted by item, and an offset ``b``: a child's utility, PEU and SEU are
its row's plus ``b``, and its node SEU is the smaller of that and its
prefix's.  Every expanded node carries one :class:`Projection` and an
offset added to every best utility in it.  The rows have two sources,
chosen by the shape of the projection.  Most expanded nodes of a dense run
have a projection that is one pivot ``p`` of one sequence ``s``; their
children are fixed by ``(s, p)`` up to the pivot's offset best utility, so
their rows are cached per ``(s, p)``, filled by one candidate scan of ``p``
worth zero the first time ``(s, p)`` is met and kept for the rest of the
run.  A cached row's ``ext`` is its child's projection from ``p`` worth
zero, built once by ``project``; an expanded child shares it and carries
the node's offset plus its best utility.  Every other node's rows come from
a candidate scan of its own projection, with the node's offset, and an
expanded child's projection is built by ``project`` when the child is
decided.  An offset is non-zero only below a cached row, where every
projection lies in one sequence.  There a row's SEU is capped at the
sequence utility before the offset is added, and the node SEU is still
exact: the prefix's SEU, which caps it, is at most the sequence utility.
Both sources give the same children with the same bounds.

A search node is a plain tuple: the pattern's itemsets as a tuple of tuples,
its size as an int, and its bounds as a tuple of ints.  A :class:`Pattern`
is built only for a result and for an observer call, and :class:`Bounds`
only for ``on_node``.  The search builds its patterns with
``Pattern._unchecked``, which skips the validation: a child only ever
appends a larger item to the last itemset or a new singleton, so it is
valid whenever its parent is.  Results are kept in one list per size.
Children are decided in sorted order, I-children first, and the nodes to
expand are walked in pre-order, which expands the nodes of one size in
:func:`pattern_sort_key` order; so every list receives its patterns sorted,
and the lists joined shortest first are the sorted output.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Optional

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
    ProjEntry,
    Projection,
    SequenceArrays,
    _ItemAccumulator,
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
    collect_stats: bool = False


@dataclass(frozen=True)
class Bounds:
    """All bound and threshold values computed for one candidate pattern."""

    swu: Money
    seu: Money
    peu: Money
    pmiu: Money
    miu: Money
    utility: Money


@dataclass(frozen=True, slots=True)
class Husp:
    pattern: Pattern
    utility: Money
    miu: Money


@dataclass
class MiningStats:
    candidates_visited: int = 0
    husps_found: int = 0
    wall_time: float = 0.0
    peak_memory_estimate: Optional[int] = None
    depth_histogram: dict = field(default_factory=dict)

    def count_node(self, depth: int, n: int = 1) -> None:
        if n:
            self.candidates_visited += n
            self.depth_histogram[depth] = self.depth_histogram.get(depth, 0) + n


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
        self.arrays: list[SequenceArrays] = build_database_arrays(db, utable, mtable)
        self.stats = MiningStats()
        self.item_seqs: dict[int, list[int]] = {}
        for si, seq in enumerate(self.arrays):
            for item in seq.positions_of:
                self.item_seqs.setdefault(item, []).append(si)
        self.global_item_peu: dict[int, int] = {}
        self.least_item_peu = 0
        self.one_seq_info: dict[int, OneSeqInfo] = {}
        # the results of size k + 1, in pattern_sort_key order, at index k
        self.by_size: list[list[Husp]] = [[]]
        # scratch state of the candidate scan, one per concatenation kind
        self.acc_i = _ItemAccumulator()
        self.acc_s = _ItemAccumulator()
        # (sequence, pivot) -> the child rows of that lone pivot
        self.pivot_rows: dict[tuple[int, int], tuple[list, list]] = {}

    # -- set-up -------------------------------------------------------

    def _scan_root(self) -> None:
        """Candidate scan of the empty pattern into ``acc_s``: every
        position is a match of its item's 1-pattern, worth its own utility."""
        acc = self.acc_s
        acc.reset_node()
        feed = acc.feed
        for seq in self.arrays:
            item_, u_, ru_, pool_ = seq.item, seq.u, seq.ru, seq.suffix_min_mu
            for q in range(seq.n):
                feed(item_[q], u_[q], ru_[q], pool_[q + 1])
            acc.end_sequence(seq.useq)

    def _remove_items(self, items: set) -> None:
        """Delete ``items`` from every sequence, then rescan the 1-patterns."""
        if not items:
            return
        for seq in self.arrays:
            seq.drop(items, self.mtable)
        self._scan_root()

    def _swu_strategy(self) -> None:
        """Remove items that cannot appear in any result pattern: the item's
        SWU upper-bounds the utility of every pattern containing it, while
        the least threshold of any item co-occurring with it lower-bounds
        those patterns' MIU values."""
        arrays = self.arrays
        self._remove_items({
            item
            for item, info in self.one_seq_info.items()
            if info.swu < min(arrays[si].suffix_min_mu[0] for si in self.item_seqs[item])
        })

    # -- search -------------------------------------------------------

    def run(self) -> list[Husp]:
        """Set-up statistics and root bounds all come from the scan of the
        empty pattern, redone after every removal phase that removed items."""
        mu = self.mtable.mu
        observer = self.observer
        acc = self.acc_s
        self._scan_root()
        # prefilter: an item whose SWU falls below the least threshold of
        # any item belongs to no result
        floor = min((mu[i] for i in acc.node), default=0)
        self._remove_items({i for i, row in acc.node.items() if row[3] < floor})
        # a removal rescans into a new ``acc.node``: read it after each phase
        self.one_seq_info = {
            i: OneSeqInfo(swu=swu, utility=utility, pmiu=int(min(mu[i], pool)), miu=mu[i])
            for i, (utility, _, _, swu, pool) in sorted(acc.node.items())
        }
        if observer:
            observer.on_one_sequence_stats(dict(self.one_seq_info))
        if self.config.variant != USPT1:
            self._swu_strategy()
        self.global_item_peu = {i: row[1] for i, row in sorted(acc.node.items())}
        self.least_item_peu = min(self.global_item_peu.values(), default=0)
        if observer:
            observer.on_item_extension_bounds(dict(self.global_item_peu))
        # every root is decided before the search reuses the accumulators;
        # a root's expansion gate is its first-pass whole-sequence weight
        deeper = self.max_size >= 2
        results = self.by_size[0]
        roots = []
        for item in self.global_item_peu:
            first = self.one_seq_info[item]
            utility, peu, seu, swu, pool = acc.node[item]
            if utility >= first.miu:
                results.append(Husp(Pattern._unchecked(((item,),)), utility, first.miu))
            expand = deeper and first.swu >= first.pmiu
            if expand or observer:
                bounds = (utility, first.miu, int(min(first.miu, pool)), seu, peu, swu)
                roots.append((((item,),), 1, None, 0, bounds, expand))
        self.stats.count_node(1, len(self.global_item_peu))
        self._search(roots)
        husps = [husp for bucket in self.by_size for husp in bucket]
        self.stats.husps_found = len(husps)
        return husps

    def _search(self, roots: list) -> None:
        """Visit the tree in pre-order from an explicit stack of decided
        nodes ``(itemsets, size, projection, b, node, expand)``, where
        ``node`` is ``(utility, miu, pmiu, seu, peu, swu)`` and ``b`` is
        the offset added to every best utility of ``projection``.  An
        expanded child carries its projection, built or shared when it was
        decided; a root's projection is built when the root is popped, with
        offset zero, and a node that is not expanded has none.  Children are
        pushed in reverse so they are visited in sorted order, I-children
        first.

        A node's results are already in ``by_size`` when it is popped: they
        were emitted where the node was decided.  So the stack holds only
        the nodes to expand and, when an observer is attached, every other
        decided node too, for ``on_node`` in pre-order.  The observer's
        patterns are built unchecked: every node extends a valid pattern
        by a larger item or a new singleton.
        """
        stack = roots[::-1]
        observer, arrays = self.observer, self.arrays
        while stack:
            itemsets, size, proj, b, node, expand = stack.pop()
            if observer:
                utility, miu, pmiu_, seu, peu, swu_ = node
                bounds = Bounds(swu_, seu, peu, pmiu_, miu, utility)
                observer.on_node(Pattern._unchecked(itemsets), bounds, expand)
                if not expand:
                    continue
            if proj is None:
                item = itemsets[0][0]
                proj = initial_projection(arrays, item, self.item_seqs[item])
            stack.extend(reversed(self._span(itemsets, size, proj, b, node)))

    def _scan_candidates(self, proj: Projection) -> None:
        """One pass over the projected arrays that evaluates every would-be
        child of both kinds: its utility, PEU, SEU, SWU and threshold pool.

        The bounds of the I- and S-children stay in ``acc_i``/``acc_s``
        until the next scan.
        """
        acc_i, acc_s = self.acc_i, self.acc_s
        acc_i.reset_node()
        acc_s.reset_node()
        feed_i, feed_s = acc_i.feed, acc_s.feed
        for entry in proj.entries:
            seq = self.arrays[entry.seq_index]
            item_, eid_, u_, ru_ = seq.item, seq.eid, seq.u, seq.ru
            pool_ = seq.suffix_min_mu
            n = seq.n
            pivots, best = entry.pivots, entry.best
            for p, b in zip(pivots, best):
                e = eid_[p]
                q = p + 1
                while q < n and eid_[q] == e:
                    feed_i(item_[q], b + u_[q], ru_[q], pool_[q + 1])
                    q += 1
            start_e = eid_[pivots[0]]
            if start_e < len(seq.elem_first):
                # every position visited lies in an element after the start
                # element, so at least one pivot precedes it
                run_max = 0
                ptr = 0
                n_piv = len(pivots)
                for q in range(seq.elem_first[start_e], n):
                    eq = eid_[q]
                    while ptr < n_piv and eid_[pivots[ptr]] < eq:
                        if best[ptr] > run_max:
                            run_max = best[ptr]
                        ptr += 1
                    feed_s(item_[q], run_max + u_[q], ru_[q], pool_[q + 1])
            acc_i.end_sequence(seq.useq)
            acc_s.end_sequence(seq.useq)

    def _child_rows(self, proj: Projection, b: int) -> tuple[list, list, int]:
        """The I- and S-child rows of the node whose projection is ``proj``
        with offset ``b``, each sorted by item, and the offset to add to
        every row.

        A row is ``(item, utility, peu, seu, swu, pool, ext)``.  A projection
        that is one pivot of one sequence takes the rows cached for that
        ``(sequence, pivot)``, worth zero, with offset ``b`` plus the pivot's
        best utility; any other projection is scanned, with offset ``b``,
        and its rows' ``ext`` is None.
        """
        entries = proj.entries
        if len(entries) == 1 and len(entries[0].pivots) == 1:
            entry = entries[0]
            key = (entry.seq_index, entry.pivots[0])
            i_rows, s_rows = self.pivot_rows.get(key) or self._pivot_rows(*key)
            return i_rows, s_rows, b + entry.best[0]
        self._scan_candidates(proj)
        return _acc_rows(self.acc_i), _acc_rows(self.acc_s), b

    def _pivot_rows(self, si: int, p: int) -> tuple[list, list]:
        """The child rows of pivot ``p`` of sequence ``si`` taken alone and
        worth zero, kept for the rest of the run.  One candidate scan fills
        them the first time ``(si, p)`` is met; every row's SWU is the
        sequence utility.

        A cached row's ``ext`` is the child's projection from that pivot
        worth zero, built once by ``project`` and shared by every node that
        meets ``(si, p)``; each adds its own offset.
        """
        lone = Projection([ProjEntry(si, [p], [0])])
        self._scan_candidates(lone)
        arrays = self.arrays
        i_rows, s_rows = _acc_rows(self.acc_i), _acc_rows(self.acc_s)
        rows = self.pivot_rows[(si, p)] = (
            [r[:6] + (project(lone, arrays, r[0], I_STEP),) for r in i_rows],
            [r[:6] + (project(lone, arrays, r[0], S_STEP),) for r in s_rows],
        )
        return rows

    def _span(self, itemsets: tuple, size: int, proj: Projection, b: int,
              node: tuple) -> list:
        """Decide every child of an expanded node from its child rows, emit
        the results among them and return, in visiting order, the stack
        entries of the children to expand.

        A child's utility, PEU and SEU are its row's plus the rows' offset,
        and its node SEU is the smaller of that SEU and its prefix's.  These
        decide whether the child is a result and whether it is expanded.  A
        result is appended to ``by_size`` here: siblings share one size and
        are decided in ``pattern_sort_key`` order, and every pattern below
        them is larger, so each list stays sorted.  An expanded child's
        projection is a cached row's ``ext`` or, for a scanned row, built
        here by ``project`` from ``proj``; the child carries it with the
        rows' offset.  Every child is counted as a candidate, but one that
        is not expanded is returned only for an observer.

        PUK drops a row only when its item's global PEU is below the
        prefix's PMIU, so the filter is skipped when even the least global
        item PEU reaches it: it could drop nothing.
        """
        i_rows, s_rows, b = self._child_rows(proj, b)
        _, prefix_min_mu, prefix_pmiu, prefix_seu, _, _ = node
        if self.puk and self.least_item_peu < prefix_pmiu:
            global_peu = self.global_item_peu
            floor = prefix_pmiu - b
            kept_i = [r for r in i_rows
                      if not (r[2] < floor and global_peu[r[0]] < prefix_pmiu)]
            kept_s = [r for r in s_rows
                      if not (r[2] < floor and global_peu[r[0]] < prefix_pmiu)]
        else:
            kept_i, kept_s = i_rows, s_rows
        observer = self.observer
        if observer:
            observer.on_candidates(
                Pattern(itemsets),
                {r[0]: b + r[2] for r in i_rows},
                {r[0]: b + r[2] for r in s_rows},
                {r[0]: b + r[2] for r in kept_i},
                {r[0]: b + r[2] for r in kept_s},
            )
        by_size = self.by_size
        if len(by_size) == size:
            by_size.append([])
        results = by_size[size]
        size += 1
        self.stats.count_node(size, len(kept_i) + len(kept_s))
        deeper = size < self.max_size
        peu_gate = self.peu_gate
        mu, arrays = self.mtable.mu, self.arrays
        pattern_of = Pattern._unchecked
        visits = []
        # an I-child extends the last itemset, an S-child opens a new one
        for kind, kept, head, stem in (
            (I_STEP, kept_i, itemsets[:-1], itemsets[-1]),
            (S_STEP, kept_s, itemsets, ()),
        ):
            for item, utility, peu, seu, swu, pool, ext in kept:
                utility += b
                peu += b
                seu += b
                m = mu[item]
                child_min_mu = m if m < prefix_min_mu else prefix_min_mu
                seu_star = prefix_seu if prefix_seu < seu else seu
                child_pmiu = pool if pool < child_min_mu else child_min_mu
                expand = deeper and (peu if peu_gate else seu_star) >= child_pmiu
                result = utility >= child_min_mu
                if not (expand or result or observer):
                    continue
                child = head + (stem + (item,),)
                if result:
                    results.append(Husp(pattern_of(child), utility, child_min_mu))
                if expand or observer:
                    child_proj = None
                    if expand:
                        child_proj = (ext if ext is not None
                                      else project(proj, arrays, item, kind))
                    bounds = (utility, child_min_mu, child_pmiu, seu_star, peu, swu)
                    visits.append((child, size, child_proj, b, bounds, expand))
        return visits


def _acc_rows(acc: _ItemAccumulator) -> list:
    """``(item, utility, peu, seu, swu, pool, None)`` for every item of the
    accumulator's current node, sorted by item."""
    node = acc.node
    return [(i, *node[i], None) for i in sorted(node)]


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
    tracing = config.collect_stats
    # a trace the caller started is left running, and what it traced before
    # this call is kept out of the peak
    own_trace = tracing and not tracemalloc.is_tracing()
    if own_trace:
        tracemalloc.start()
    if tracing:
        tracemalloc.reset_peak()
        traced_before = tracemalloc.get_traced_memory()[0]
    started = time.perf_counter()
    try:
        engine = _Engine(db, utable, mtable, config, observer)
        husps = engine.run()
        stats = engine.stats
        stats.wall_time = time.perf_counter() - started
        if tracing:
            peak = tracemalloc.get_traced_memory()[1]
            stats.peak_memory_estimate = peak - traced_before
        return husps, stats
    finally:
        if own_trace:
            tracemalloc.stop()
