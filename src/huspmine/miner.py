"""Depth-first pattern search over projected utility-arrays.

Patterns are enumerated in a lexicographic tree: every node extends its
parent either by appending an item to the last itemset (I-concatenation,
restricted to items with a larger id so each pattern has exactly one parse)
or by appending a new singleton itemset (S-concatenation).  Three pruning
layers cut the tree:

* the SWU strategy removes items whose whole-sequence weight cannot reach
  any threshold they could be mined under, rebuilding remaining utilities;
* a node is expanded only while its extension bound (PEU by default, the
  looser SEU selectable for ablation) stays at or above the least threshold
  reachable in its subtree (PMIU);
* the PUK strategy drops extension items before they are visited as
  children, when both the item's standalone extension bound and the
  would-be child's bound fall below the prefix's PMIU.

Variant ``uspt1`` disables the first and third layers, ``uspt2`` disables
only the third, ``uspt`` enables all three.  All variants produce the same
pattern set; only the visited-candidate counts differ.

Children are evaluated without being projected: one scan over an expanded
node's projection yields every child's utility, PEU, SEU, SWU and threshold
pool, which decide whether the child is a result and whether it is
expanded.  Only an expanded child gets its own projection, from which its
children are scanned in turn.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Optional

from .model import (
    Item,
    Money,
    MTable,
    Pattern,
    QSDatabase,
    UtilityTable,
    qsequence_utility,
    pattern_utility_in_sequence,
)
from .uarray import (
    I_STEP,
    S_STEP,
    Projection,
    SequenceArrays,
    build_database_arrays,
    initial_projection,
    project,
    projection_bounds,
    rest_pool_min_mu,
)

USPT = "uspt"
USPT2 = "uspt2"
USPT1 = "uspt1"
VARIANTS = (USPT1, USPT2, USPT)

BOUND_PEU = "peu"
BOUND_SEU = "seu"
NODE_BOUNDS = (BOUND_PEU, BOUND_SEU)


class InvalidConcatenation(ValueError):
    """The extension item cannot legally extend the pattern."""


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
# concatenations and pattern order


def i_concatenate(pattern: Pattern, item: Item) -> Pattern:
    """Append ``item`` to the last itemset; its id must exceed the current
    last item so every pattern keeps a unique derivation."""
    if item <= pattern.itemsets[-1][-1]:
        raise InvalidConcatenation(
            f"item {item} does not extend itemset {pattern.itemsets[-1]}"
        )
    return Pattern(pattern.itemsets[:-1] + (pattern.itemsets[-1] + (item,),))


def s_concatenate(pattern: Pattern, item: Item) -> Pattern:
    """Append a new singleton itemset holding ``item``."""
    return Pattern(pattern.itemsets + ((item,),))


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


def pattern_order(ta: Pattern, tb: Pattern) -> int:
    ka, kb = pattern_sort_key(ta), pattern_sort_key(tb)
    return -1 if ka < kb else (1 if ka > kb else 0)


def swu(pattern, db: QSDatabase, utable: UtilityTable) -> Money:
    """Whole-sequence weight: sum of u(s) over sequences containing the
    pattern.  Accepts a Pattern or a bare item id."""
    if not isinstance(pattern, Pattern):
        pattern = Pattern.single(pattern)
    total = 0
    for qseq in db.sequences:
        if pattern_utility_in_sequence(pattern, qseq, utable) is not None:
            total += qsequence_utility(qseq, utable)
    return total


def pmiu(
    pattern: Pattern,
    projection: Projection,
    arrays: list,
    mtable: MTable,
) -> Money:
    """Least threshold reachable from the pattern: the minimum mu over its
    own items and every item occurring strictly after a start point."""
    own = min(mtable.of(i) for i in pattern.distinct_items())
    pool = rest_pool_min_mu(projection, arrays)
    return own if own <= pool else int(pool)


# ---------------------------------------------------------------------------
# engine


class _ItemAccumulator:
    """Per-item bounds of every would-be child of one node, gathered during
    the candidate scan.

    Each feed is one (match utility, remaining utility) pair of a child item
    at flat position ``q`` of the current sequence.  Within a sequence the
    accumulator keeps, per item, the best match utility, the best extension
    term (match + remaining), the remaining utility at the anchor (the
    earliest ``q`` reaching the best term, which has the largest remaining
    utility among the ties) and the threshold pool after the first ``q``
    fed.  ``end_sequence`` folds those into per-node sums of utility, PEU,
    capped SEU and SWU, and the node's pool minimum.  Tag arrays avoid any
    per-node clearing of the full item range.
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
        self.seq_mark = 0
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

    def begin_sequence(self) -> None:
        self.seq_mark += 1
        self.seq_touched = []

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

    def collect(self) -> dict:
        """PEU of every child item fed since ``reset_node``, by item."""
        return {item: self.peu[item] for item in sorted(self.touched)}


class _Engine:
    def __init__(
        self,
        db: QSDatabase,
        utable: UtilityTable,
        mtable: MTable,
        config: MiningConfig,
        observer: Optional[MiningObserver],
    ):
        self.db = db
        self.utable = utable
        self.mtable = mtable
        self.config = config
        self.observer = observer
        self.n_items = len(db.symbols)
        self.arrays: list[SequenceArrays] = build_database_arrays(db, utable)
        for seq in self.arrays:
            seq.rebuild(mtable)
        self.husps: list[Husp] = []
        self.stats = MiningStats()
        self.item_seqs: dict[int, list[int]] = {}
        for si, seq in enumerate(self.arrays):
            for item in seq.positions_of:
                self.item_seqs.setdefault(item, []).append(si)
        self.global_item_peu: dict[int, int] = {}
        self.one_seq_info: dict[int, OneSeqInfo] = {}
        # scratch state of the candidate scan, one per concatenation kind
        self.acc_i = _ItemAccumulator(self.n_items)
        self.acc_s = _ItemAccumulator(self.n_items)

    # -- setup phases -------------------------------------------------

    def _swu_of_item(self, item: int) -> int:
        total = 0
        for si in self.item_seqs.get(item, ()):
            seq = self.arrays[si]
            if any(seq.active[p] for p in seq.positions_of[item]):
                total += seq.useq
        return total

    def _prefilter(self) -> None:
        """Delete items whose SWU falls below the least threshold of any item
        in the database; no pattern containing them can be a result."""
        present = sorted(self.item_seqs)
        if not present:
            return
        global_min_mu = min(self.mtable.of(i) for i in present)
        doomed = {i for i in present if self._swu_of_item(i) < global_min_mu}
        self._remove_items(doomed)

    def _remove_items(self, items: set) -> None:
        if not items:
            return
        for seq in self.arrays:
            if seq.deactivate(items):
                seq.rebuild(self.mtable)

    def _first_pass(self) -> None:
        """Single-item statistics (SWU, utility, PMIU, MIU) for reporting and
        for the recursion gate."""
        mtable = self.mtable
        info = {}
        for item in sorted(self.item_seqs):
            swu_i = 0
            u_i = 0
            pool = float("inf")
            seen = False
            for si in self.item_seqs[item]:
                seq = self.arrays[si]
                positions = seq.active_positions_of(item)
                if not positions:
                    continue
                seen = True
                swu_i += seq.useq
                u_i += max(seq.u[p] for p in positions)
                cand = seq.suffix_min_mu[positions[0] + 1]
                if cand < pool:
                    pool = cand
            if not seen:
                continue
            mu_i = mtable.of(item)
            info[item] = OneSeqInfo(
                swu=swu_i,
                utility=u_i,
                pmiu=int(min(mu_i, pool)),
                miu=mu_i,
            )
        self.one_seq_info = info
        if self.observer:
            self.observer.on_one_sequence_stats(dict(info))

    def _swu_strategy(self) -> None:
        """Remove items that cannot appear in any result pattern: the item's
        SWU upper-bounds the utility of every pattern containing it, while
        the least threshold of any item co-occurring with it lower-bounds
        those patterns' MIU values."""
        seq_min_mu = []
        for seq in self.arrays:
            mus = [
                self.mtable.of(i)
                for i, ps in seq.positions_of.items()
                if any(seq.active[p] for p in ps)
            ]
            seq_min_mu.append(min(mus) if mus else None)
        doomed = set()
        for item, info in self.one_seq_info.items():
            guard = min(
                seq_min_mu[si]
                for si in self.item_seqs[item]
                if seq_min_mu[si] is not None
            )
            if info.swu < guard:
                doomed.add(item)
        self._remove_items(doomed)

    def _global_extension_bounds(self) -> None:
        """Standalone extension bound of every surviving item: sum over its
        sequences of the best occurrence utility plus remaining utility."""
        out = {}
        for item in sorted(self.item_seqs):
            total = 0
            seen = False
            for si in self.item_seqs[item]:
                seq = self.arrays[si]
                best = None
                for p in seq.positions_of[item]:
                    if seq.active[p]:
                        term = seq.u[p] + seq.ru[p]
                        if best is None or term > best:
                            best = term
                if best is not None:
                    seen = True
                    total += best
            if seen:
                out[item] = total
        self.global_item_peu = out
        if self.observer:
            self.observer.on_item_extension_bounds(dict(out))

    # -- search -------------------------------------------------------

    def run(self) -> list[Husp]:
        self._prefilter()
        self._first_pass()
        if self.config.variant != USPT1:
            # all statistics below first-pass level come from rebuilt arrays
            self._swu_strategy()
        self._global_extension_bounds()
        roots = [
            item
            for item in sorted(self.one_seq_info)
            if item in self.global_item_peu
        ]
        for item in roots:
            self._explore_root(item)
        self.husps.sort(key=lambda h: pattern_sort_key(h.pattern))
        self.stats.husps_found = len(self.husps)
        return self.husps

    # one full root subtree
    def _explore_root(self, item: int) -> None:
        info = self.one_seq_info[item]
        proj = initial_projection(self.arrays, item, self.item_seqs.get(item))
        if not proj:
            return
        self.stats.count_node(1)
        pattern = Pattern.single(item)
        pstats = projection_bounds(proj, self.arrays)
        bounds = Bounds(
            swu=pstats.swu,
            seu=pstats.seu,
            peu=pstats.peu,
            pmiu=int(min(info.miu, pstats.pool_min)),
            miu=info.miu,
            utility=pstats.utility,
        )
        if pstats.utility >= info.miu:
            self.husps.append(Husp(pattern, pstats.utility, info.miu))
        # recursion gate on the first-pass whole-sequence weight
        expand = info.swu >= info.pmiu and self._depth_ok(2)
        if self.observer:
            self.observer.on_node(pattern, bounds, expand)
        if expand:
            self._span(pattern, proj, bounds.pmiu, bounds.seu, info.miu)

    def _depth_ok(self, child_size: int) -> bool:
        cap = self.config.max_pattern_length
        return cap is None or child_size <= cap

    def _scan_candidates(self, proj: Projection):
        """One pass over the projected arrays that evaluates every would-be
        child of both kinds: its utility, PEU, SEU, SWU and threshold pool.

        Returns the PEU of each child by item for the I- and S-children; the
        full bounds stay in ``acc_i``/``acc_s`` until the next scan.
        """
        acc_i, acc_s = self.acc_i, self.acc_s
        acc_i.reset_node()
        acc_s.reset_node()
        feed_i, feed_s = acc_i.feed, acc_s.feed
        for entry in proj.entries:
            seq = self.arrays[entry.seq_index]
            item_, eid_, u_, ru_, active_ = seq.item, seq.eid, seq.u, seq.ru, seq.active
            pool_ = seq.suffix_min_mu
            n = seq.n
            pivots, best = entry.pivots, entry.best
            acc_i.begin_sequence()
            acc_s.begin_sequence()
            for p, b in zip(pivots, best):
                e = eid_[p]
                q = p + 1
                while q < n and eid_[q] == e:
                    if active_[q]:
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
                    if active_[q]:
                        feed_s(item_[q], run_max + u_[q], ru_[q], pool_[q + 1])
            acc_i.end_sequence(seq.useq)
            acc_s.end_sequence(seq.useq)
        return acc_i.collect(), acc_s.collect()

    def _span(
        self,
        prefix: Pattern,
        proj: Projection,
        prefix_pmiu: int,
        prefix_seu: int,
        prefix_min_mu: int,
    ) -> None:
        """Evaluate every child of an expanded node, then visit the ones that
        matter.

        A single scan of the prefix's projection yields each child's bounds,
        which decide whether the child is a result and whether it is
        expanded; a child's own projection is built only when it is expanded.
        Every child is counted as a candidate, but a child that is neither a
        result nor expanded is only materialised for an observer.  All
        decisions are taken before any child is visited, because the
        recursion reuses the scan's accumulators.
        """
        i_items, s_items = self._scan_candidates(proj)
        last = prefix.itemsets[-1][-1]
        i_items = {i: v for i, v in i_items.items() if i > last}
        if self.config.variant == USPT:
            global_peu = self.global_item_peu
            kept_i = {
                i: v
                for i, v in i_items.items()
                if not (global_peu[i] < prefix_pmiu and v < prefix_pmiu)
            }
            kept_s = {
                i: v
                for i, v in s_items.items()
                if not (global_peu[i] < prefix_pmiu and v < prefix_pmiu)
            }
        else:
            kept_i, kept_s = i_items, s_items
        observer = self.observer
        if observer:
            observer.on_candidates(prefix, i_items, s_items, kept_i, kept_s)
        size = prefix.size + 1
        self.stats.count_node(size, len(kept_i) + len(kept_s))
        deeper = self._depth_ok(size + 1)
        peu_gate = self.config.node_bound == BOUND_PEU
        mu = self.mtable.mu
        visits = []
        for kind, kept, acc in ((I_STEP, kept_i, self.acc_i), (S_STEP, kept_s, self.acc_s)):
            for item in sorted(kept):
                utility = acc.utility[item]
                child_min_mu = min(prefix_min_mu, mu[item])
                seu_star = min(acc.seu[item], prefix_seu)
                child_pmiu = min(child_min_mu, acc.pool[item])
                bound = acc.peu[item] if peu_gate else seu_star
                expand = deeper and bound >= child_pmiu
                if expand or observer or utility >= child_min_mu:
                    bounds = Bounds(
                        swu=acc.swu[item],
                        seu=seu_star,
                        peu=acc.peu[item],
                        pmiu=child_pmiu,
                        miu=child_min_mu,
                        utility=utility,
                    )
                    visits.append((kind, item, bounds, expand))
        for kind, item, bounds, expand in visits:
            self._visit_child(prefix, proj, kind, item, bounds, expand)

    def _visit_child(
        self,
        prefix: Pattern,
        proj: Projection,
        kind: str,
        item: int,
        bounds: Bounds,
        expand: bool,
    ) -> None:
        if kind == I_STEP:
            child = Pattern(prefix.itemsets[:-1] + (prefix.itemsets[-1] + (item,),))
        else:
            child = Pattern(prefix.itemsets + ((item,),))
        if bounds.utility >= bounds.miu:
            self.husps.append(Husp(child, bounds.utility, bounds.miu))
        if self.observer:
            self.observer.on_node(child, bounds, expand)
        if expand:
            child_proj = project(proj, self.arrays, item, kind)
            self._span(child, child_proj, bounds.pmiu, bounds.seu, bounds.miu)


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
    statistics.  Output is identical across variants.
    """
    _validate(db, utable, mtable, config)
    tracing = config.collect_stats
    if tracing:
        tracemalloc.start()
    started = time.perf_counter()
    try:
        engine = _Engine(db, utable, mtable, config, observer)
        husps = engine.run()
        stats = engine.stats
        stats.wall_time = time.perf_counter() - started
        if tracing:
            stats.peak_memory_estimate = tracemalloc.get_traced_memory()[1]
        return husps, stats
    finally:
        if tracing:
            tracemalloc.stop()
