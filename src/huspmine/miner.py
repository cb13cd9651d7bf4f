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
own children are decided in turn.  The 1-patterns are the S-children of
the empty pattern, whose projection has one entry without pivots per
sequence: the empty prefix, worth 0 before every position.  Its scan gives
the set-up statistics, the item removals and the roots' sums.  The scan
keeps, per sequence, each child item's best match and its anchor, since an
item may be met at several positions.  Where it can be met only once the
per-sequence state is skipped and each position is folded into the node
sums directly, which gives the same sums: after a projection entry of one
pivot, at the positions later in the pivot's element, since an element
holds an item at most once, and from the next element on when the
sequence holds no item twice; and after an entry without pivots, over a
sequence that holds no item twice.  The choice reads only the entry's
pivot count and the sequence's distinct-item count.

One loop, ``_Engine._walk``, visits the tree in pre-order, the roots
included.  It decides each child where it meets it: emits it if it is a
result, reports it to ``on_node`` and, if it is expanded, descends into it
by pushing the context of the node whose children it was deciding.  A
context is the rows iterator and its concatenation kind, the offset ``b``,
the node's MIU, PMIU and SEU, its itemsets, the children's size and their
result list.  No call, tuple or list is made per node beyond that push,
and pattern length is not limited by the interpreter's recursion depth.
An expanded child that is one pivot at its sequence's last position has no
children, so the walk does not enter it; an observer receives its empty
candidates where it is decided.

A node's children are decided from child rows ``(item, utility, peu, seu,
swu, pool, ext)``, one list per concatenation kind sorted by item: a
child's utility, PEU and SEU are its row's plus ``b``, and its node SEU is
the smaller of that and its prefix's.  The rows have one source per shape
of the node's projection.  Most expanded nodes of a dense run are one pivot
``p`` of one sequence ``s``; their children are fixed by the key ``(s, p)``
up to the pivot's best utility, so their rows are cached per key, filled by
one candidate scan of ``p`` worth zero the first time the key is met and
kept for the rest of the run.  A cached row's ``ext`` is its child's
projection from ``p`` worth zero, read off the arrays without ``project``:
a child that is itself a lone pivot ``q`` is kept as ``((s, q), best)``,
any other as its :class:`Projection`, scanned when the child is expanded.
Descending adds ``best``, or nothing, to the offset.  Every other node is
scanned with its offset, and its rows' ``ext`` is None: an expanded child's
projection is built by ``project`` when the walk descends into it.  An
offset is non-zero only below a lone pivot, where every projection lies in
one sequence.  There a row's SEU is capped at the sequence utility before
the offset is added, and the node SEU is still exact: the prefix's SEU,
which caps it, is at most the sequence utility.  Both sources give the same
children with the same bounds.

A :class:`Pattern` is built only for a result and for an observer call,
and :class:`Bounds` only for ``on_node``.  The walk builds its patterns
with ``Pattern._unchecked``, which skips the validation: a child only ever
appends a larger item to the last itemset or a new singleton, so it is
valid whenever its parent is.  A result is a :class:`Husp` named tuple,
built by ``tuple.__new__`` without the class's generated ``__new__``.
Results are kept in one list per size.
Children are decided in sorted order, I-children first, and in pre-order,
which meets the nodes of one size in :func:`pattern_sort_key` order; so
every list receives its patterns sorted, and the lists joined shortest
first are the sorted output.

:func:`mine` pauses the cyclic garbage collector while it runs: the search
makes no reference cycles, so the collector would free nothing, yet it would
keep re-traversing the growing list of results.  Everything allocated in
the pause still counts as young, so the caller's next allocation would
start one young collection over all of it.  :func:`mine` therefore first
collects the young generations, which frees the caller's young garbage and
empties them, and before resuming the collector moves every tracked object
to the oldest generation with ``gc.freeze()`` and ``gc.unfreeze()``, which
also resets the young count.  So what is moved is what the run allocated
and kept, with anything an observer allocated; a later full collection
still sees it, though the trigger of full collections does not count it.
When any objects are frozen, by the caller or by the interpreter itself,
both steps are skipped, since ``gc.unfreeze()`` would release them.
"""

from __future__ import annotations

import gc
import sys
import time
from bisect import bisect_left
from dataclasses import dataclass, field
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
        self.arrays: list[SequenceArrays] = build_database_arrays(db, utable, mtable)
        self.stats = MiningStats()
        # the empty pattern: one entry without pivots per sequence
        self.root_proj = Projection([ProjEntry(si, (), ()) for si in range(len(db))])
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
        # (sequence, pivot) -> the I- and S-child rows of that lone pivot
        self.rows_by_key: dict[tuple[int, int], tuple[list, list]] = {}

    # -- set-up -------------------------------------------------------

    def _scan_root(self) -> None:
        """Candidate scan of the empty pattern: its S-children into ``acc_s``."""
        self._scan_candidates(self.root_proj)

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
        hist = [0, len(self.global_item_peu)]
        self._walk(hist)
        stats = self.stats
        stats.candidates_visited = sum(hist)
        stats.depth_histogram = {depth: n for depth, n in enumerate(hist) if n}
        husps = [husp for bucket in self.by_size for husp in bucket]
        stats.husps_found = len(husps)
        return husps

    def _walk(self, hist: list) -> None:
        """Decide every node, in pre-order, and count the candidates of size
        ``k`` in ``hist[k]``.

        The roots are decided in item order, from the sums the root scan
        left in ``acc_s``, once the stack is empty.  Below them the walk
        keeps one context, the node whose children are being decided: its
        rows iterator ``it`` and concatenation ``kind``, the S-rows still to
        come, its projection ``proj`` when it was scanned, the offset ``b``,
        its MIU, PMIU and SEU, the PUK ``floor``, its itemsets split into
        ``head`` and ``stem`` for the child patterns, the children's size,
        their result list and whether they may be expanded.  A child is
        decided where the loop meets it; descending into an expanded child
        pushes the context, and an exhausted context pops its parent's.  A
        childless child, one pivot at its sequence's last position, is not
        entered: an observer is handed its empty candidates directly.

        A node that is a lone pivot takes the rows cached for its key,
        filled by one scan the first time the key is met, with its offset
        plus its best utility; any other node is scanned with its offset.
        An expanded child of a scanned row is projected when the walk
        descends into it.  PUK drops a row only when its item's global PEU
        is below the prefix's PMIU, so it is off, with ``floor`` 0 below
        every row's PEU, when even the least global item PEU reaches it.
        """
        observer, arrays, mu = self.observer, self.arrays, self.mtable.mu
        scan, acc_i, acc_s = self._scan_candidates, self.acc_i, self.acc_s
        rows_by_key, item_seqs, by_size = self.rows_by_key, self.item_seqs, self.by_size
        global_peu, least_peu = self.global_item_peu, self.least_item_peu
        puk, peu_gate, max_size = self.puk, self.peu_gate, self.max_size
        pattern_of, new = Pattern._unchecked, tuple.__new__
        # the root scan's sums, which later scans leave alone: each binds a
        # new node dict
        roots, one_seq_info = acc_s.node, self.one_seq_info
        pending = iter(global_peu)
        stack = []
        it, s_rows = iter(()), None
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
                expand = deeper and (peu if peu_gate else seu) >= child_pmiu
                result = utility >= miu
                if not (expand or result or observer):
                    continue
                child = head + (stem + (item,),)
                if result:
                    results.append(new(Husp, (pattern_of(child), utility, miu)))
                if observer:
                    bounds = Bounds(swu, seu, peu, child_pmiu, miu, utility)
                    observer.on_node(pattern_of(child), bounds, expand)
                if expand:
                    if ext is None:
                        ext = _lone_key(project(proj, arrays, item, kind))
                    if type(ext) is tuple and ext[0][1] == arrays[ext[0][0]].n - 1:
                        if observer:
                            observer.on_candidates(Pattern(child), {}, {}, {}, {})
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
                if stack:
                    (it, kind, s_rows, proj, b, min_mu, pmiu, node_seu, floor,
                     itemsets, head, stem, size, results, deeper) = stack.pop()
                    continue
                results, deeper = by_size[0], max_size >= 2
                for item in pending:
                    utility, peu, seu, swu, pool = roots[item]
                    first = one_seq_info[item]
                    miu = first.miu
                    child = ((item,),)
                    if utility >= miu:
                        results.append(new(Husp, (pattern_of(child), utility, miu)))
                    # a root's expansion gate is its first-pass whole-sequence
                    # weight
                    expand = deeper and first.swu >= first.pmiu
                    child_pmiu = pool if pool < miu else miu
                    if observer:
                        bounds = Bounds(swu, seu, peu, child_pmiu, miu, utility)
                        observer.on_node(pattern_of(child), bounds, expand)
                    if expand:
                        ext = _lone_key(initial_projection(arrays, item, item_seqs[item]))
                        if type(ext) is tuple and ext[0][1] == arrays[ext[0][0]].n - 1:
                            if observer:
                                observer.on_candidates(Pattern(child), {}, {}, {}, {})
                            continue
                        break
                else:
                    return
                b, size = 0, 1
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
                scan(proj)
                i_rows, s_rows = _acc_rows(acc_i), _acc_rows(acc_s)
            itemsets, min_mu, pmiu, node_seu = child, miu, child_pmiu, seu
            head, stem, kind = child[:-1], child[-1], I_STEP
            size += 1
            if len(by_size) < size:
                by_size.append([])
                hist.append(0)
            results = by_size[size - 1]
            deeper = size < max_size
            floor = pmiu - b if puk and least_peu < pmiu else 0
            hist[size] += len(i_rows) + len(s_rows)
            if observer:
                both = (i_rows, s_rows)
                peus = [{r[0]: b + r[2] for r in rows} for rows in both]
                kept = [{r[0]: b + r[2] for r in rows
                         if not (r[2] < floor and global_peu[r[0]] < pmiu)}
                        for rows in both]
                observer.on_candidates(Pattern(itemsets), *peus, *kept)
            it = iter(i_rows)

    def _fill(self, key: tuple[int, int]) -> tuple[list, list]:
        """The I- and S-child rows of the lone pivot ``p`` of sequence ``s``
        worth zero, decided by one candidate scan; each row's ``ext``, its
        child's projection from ``p``, is read off the arrays.

        An I-child's item occurs once after ``p`` in ``p``'s element, and
        that is its one pivot.  An S-child's pivots are its item's positions
        from the next element on.  Every pivot is worth its own utility.
        """
        si, p = key
        self._scan_candidates(Projection([ProjEntry(si, [p], [0])]))
        seq = self.arrays[si]
        u, item_ = seq.u, seq.item
        i_node, s_node = self.acc_i.node, self.acc_s.node
        e = seq.eid[p]
        nxt = seq.elem_first[e] if e < len(seq.elem_first) else seq.n
        # an element's items increase, so its positions after ``p`` list
        # the I-children in item order
        i_rows = [(item_[q], *i_node[item_[q]], ((si, q), u[q])) for q in range(p + 1, nxt)]
        s_rows = []
        positions_of = seq.positions_of
        for i in sorted(s_node):
            at = positions_of[i]
            pivots = at[bisect_left(at, nxt):]
            if len(pivots) == 1:
                q = pivots[0]
                ext = (si, q), u[q]
            else:
                ext = Projection([ProjEntry(si, pivots, [u[q] for q in pivots])])
            s_rows.append((i, *s_node[i], ext))
        return i_rows, s_rows

    def _scan_candidates(self, proj: Projection) -> None:
        """One pass over the projected arrays that evaluates every would-be
        child of both kinds: its utility, PEU, SEU, SWU and threshold pool.

        The bounds of the I- and S-children stay in ``acc_i``/``acc_s``
        until the next scan.

        An entry of one pivot ``p`` worth ``b`` makes every position it
        visits a match worth ``b`` plus the position's utility.  Its
        I-children, the positions after ``p`` in ``p``'s element, are each
        met once, since an element holds an item at most once; so are its
        S-children, the positions from the next element on, when the
        sequence holds no item twice.  So are the S-children of an entry
        without pivots, every position worth its own utility, over such a
        sequence.  Those positions are folded into the node sums directly.
        Every other S-child match goes through ``feed``, worth the best
        pivot in an earlier element: ``b`` after one pivot, 0 after none.
        """
        acc_i, acc_s = self.acc_i, self.acc_s
        acc_i.reset_node()
        acc_s.reset_node()
        feed_i, feed_s = acc_i.feed, acc_s.feed
        fold_i, fold_s = acc_i.fold_matches, acc_s.fold_matches
        arrays = self.arrays
        for entry in proj.entries:
            seq = arrays[entry.seq_index]
            item_, eid_, u_, ru_ = seq.item, seq.eid, seq.u, seq.ru
            pool_ = seq.suffix_min_mu
            n = seq.n
            pivots, best = entry.pivots, entry.best
            if len(pivots) == 1:
                p, b = pivots[0], best[0]
                useq, elem_first = seq.useq, seq.elem_first
                e = eid_[p]
                nxt = elem_first[e] if e < len(elem_first) else n
                if p + 1 < nxt:
                    fold_i(item_, u_, ru_, pool_, p + 1, nxt, b, useq)
                if nxt == n:
                    continue
                if len(seq.positions_of) == n:
                    fold_s(item_, u_, ru_, pool_, nxt, n, b, useq)
                    continue
            elif pivots:
                for p, b in zip(pivots, best):
                    e = eid_[p]
                    q = p + 1
                    while q < n and eid_[q] == e:
                        feed_i(item_[q], b + u_[q], ru_[q], pool_[q + 1])
                        q += 1
                acc_i.end_sequence(seq.useq)
                e = eid_[pivots[0]]
                nxt = seq.elem_first[e] if e < len(seq.elem_first) else n
            elif len(seq.positions_of) == n:
                fold_s(item_, u_, ru_, pool_, 0, n, 0, seq.useq)
                continue
            else:
                nxt = 0
            # a position from ``nxt`` on is worth its utility plus the best
            # pivot in an earlier element, or 0 before the first pivot
            run_max = 0
            ptr = 0
            n_piv = len(pivots)
            for q in range(nxt, n):
                while ptr < n_piv and eid_[pivots[ptr]] < eid_[q]:
                    if best[ptr] > run_max:
                        run_max = best[ptr]
                    ptr += 1
                feed_s(item_[q], run_max + u_[q], ru_[q], pool_[q + 1])
            acc_s.end_sequence(seq.useq)


def _acc_rows(acc: _ItemAccumulator) -> list:
    """``(item, utility, peu, seu, swu, pool, None)`` for every item of the
    accumulator's current node, sorted by item."""
    node = acc.node
    return [(i, *node[i], None) for i in sorted(node)]


def _lone_key(proj: Projection):
    """``((sequence, pivot), best)`` when ``proj`` is one pivot of one
    sequence, else ``proj`` itself."""
    entries = proj.entries
    if len(entries) == 1 and len(entries[0].pivots) == 1:
        entry = entries[0]
        return (entry.seq_index, entry.pivots[0]), entry.best[0]
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
    # the search makes no reference cycles, but the results it keeps alive
    # would have the cyclic collector traverse an ever larger heap
    collecting = gc.isenabled()
    # the run's objects are handed to the oldest generation at the end; the
    # young garbage of the caller is freed first, so that it is not moved too
    hand_back = collecting and not gc.get_freeze_count()
    if hand_back:
        gc.collect(1)
    gc.disable()
    try:
        engine = _Engine(db, utable, mtable, config, observer)
        husps = engine.run()
        stats = engine.stats
        stats.wall_time = time.perf_counter() - started
        if resource is not None:
            # kilobytes, except on macOS, which gives bytes
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            stats.peak_memory_estimate = peak if sys.platform == "darwin" else peak * 1024
        return husps, stats
    finally:
        if collecting:
            # every object allocated while the collector was paused is still
            # counted as young: move them all to the oldest generation, so
            # the next young collection does not traverse the results; a
            # frozen set, which unfreeze() would release, is left alone
            if hand_back and not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()
