"""Search engine: ordering, pruning variants, determinism."""

import gc
import hashlib
import io
import sys
import tracemalloc
import weakref
from fractions import Fraction

import pytest

from huspmine import (
    ConfigError,
    Husp,
    MiningConfig,
    MiningObserver,
    MTable,
    Pattern,
    UtilityTable,
    bind_thresholds,
    bind_unit_utilities,
    generate_mtable,
    mine,
    parse_dataset,
    parse_item_values,
    parse_results,
    pattern_sort_key,
    serialize_dataset,
    write_results,
)
from huspmine.formats import GenParams, ParseError, generate_synthetic
from huspmine.oracle import brute_force_bounds, brute_force_mine
import huspmine.miner as miner_module
from huspmine.miner import BOUND_PEU, BOUND_SEU, USPT, USPT1, USPT2
from huspmine.uarray import (
    I_STEP,
    S_STEP,
    ProjEntry,
    Projection,
    _ItemAccumulator,
    initial_projection,
    project,
)

from conftest import DATASET_TEXT
from support import engine_bounds, mixed_instances, zero_priced_instances


def test_pattern_order_examples(ids):
    a, b, c = ids["a"], ids["b"], ids["c"]
    pa = Pattern(((a,),))
    pab = Pattern(((a, b),))
    paa = Pattern(((a,), (a,)))
    pac = Pattern(((a,), (c,)))
    key = pattern_sort_key
    assert key(pa) < key(pab)
    assert key(pab) < key(paa)
    assert key(paa) < key(pac)
    assert key(pa) == key(pa)
    assert key(pac) > key(paa)
    ordered = sorted([pac, pab, pa, paa], key=pattern_sort_key)
    assert ordered == [pa, pab, paa, pac]


def test_swu_values(example_db, example_utable, example_mtable, ids):
    run = engine_bounds(example_db, example_utable, example_mtable)
    assert run.one_seq[ids["b"]].swu == 441
    assert run.one_seq[ids["f"]].swu == 81
    assert run.nodes[Pattern(((ids["b"],), (ids["c"],)))].swu == 360


def test_pmiu_values(example_db, example_utable, example_mtable, ids):
    run = engine_bounds(example_db, example_utable, example_mtable)
    assert run.nodes[Pattern(((ids["b"],), (ids["c"],)))].pmiu == 200
    assert run.one_seq[ids["f"]].pmiu == 70
    assert run.nodes[Pattern.single(ids["f"])].pmiu == 70


def test_pmiu_reduces_to_miu_with_empty_rest():
    # d is worth 9, so it survives the prefilter at threshold 7
    db = parse_dataset(io.StringIO("d[3] -2\n"))
    ut = bind_unit_utilities({"d": 3}, db.symbols)
    mt = bind_thresholds({"d": 7}, db.symbols)
    d = db.symbols.id_of("d")
    run = engine_bounds(db, ut, mt)
    assert run.one_seq[d].pmiu == run.one_seq[d].miu == 7
    assert run.nodes[Pattern.single(d)].pmiu == 7


EXPECTED = [("[b],[c e]", 200, 200), ("[f],[b c],[b]", 73, 70),
            ("[f],[b],[b e]", 72, 70), ("[f],[b c],[b e]", 81, 70)]


def rendered(husps, db):
    return [(h.pattern.render(db.symbols), h.utility, h.miu) for h in husps]


def test_mine_reference_example(example_db, example_utable, example_mtable):
    husps, stats = mine(example_db, example_utable, example_mtable)
    assert rendered(husps, example_db) == EXPECTED
    assert stats.husps_found == 4
    assert stats.husps_found <= stats.candidates_visited
    assert sum(stats.depth_histogram.values()) == stats.candidates_visited


def test_mine_unreachable_threshold(example_db, example_utable):
    mt = MTable(tuple([442] * 6))
    husps, _ = mine(example_db, example_utable, mt)
    assert husps == []


@pytest.mark.parametrize("variant", [USPT1, USPT2, USPT])
def test_variants_agree(example_db, example_utable, example_mtable, variant):
    husps, _ = mine(example_db, example_utable, example_mtable,
                    MiningConfig(variant=variant))
    assert rendered(husps, example_db) == EXPECTED


def test_candidate_ordering(example_db, example_utable, example_mtable):
    counts = {}
    for variant in (USPT, USPT2, USPT1):
        _, stats = mine(example_db, example_utable, example_mtable,
                        MiningConfig(variant=variant))
        counts[variant] = stats.candidates_visited
    assert counts[USPT] <= counts[USPT2] <= counts[USPT1]
    assert counts[USPT] < counts[USPT1]


def test_seu_node_bound_agrees(example_db, example_utable, example_mtable):
    husps, _ = mine(example_db, example_utable, example_mtable,
                    MiningConfig(node_bound=BOUND_SEU))
    assert rendered(husps, example_db) == EXPECTED


def test_byte_identical_output(example_db, example_utable, example_mtable):
    outputs = set()
    for _ in range(2):
        husps, stats = mine(example_db, example_utable, example_mtable)
        outputs.add(write_results(husps, None, "tsv", example_db.symbols))
    assert len(outputs) == 1


def test_max_pattern_length(example_db, example_utable, example_mtable):
    husps, _ = mine(example_db, example_utable, example_mtable,
                    MiningConfig(max_pattern_length=3))
    assert rendered(husps, example_db) == [("[b],[c e]", 200, 200)]
    husps1, _ = mine(example_db, example_utable, example_mtable,
                     MiningConfig(max_pattern_length=1))
    assert husps1 == []


def test_config_errors(example_db, example_utable, example_mtable):
    short_ut = UtilityTable((1, 2))
    with pytest.raises(ConfigError):
        mine(example_db, short_ut, example_mtable)
    short_mt = MTable((1,))
    with pytest.raises(ConfigError):
        mine(example_db, example_utable, short_mt)
    with pytest.raises(ConfigError):
        mine(example_db, example_utable, example_mtable,
             MiningConfig(variant="classic"))
    with pytest.raises(ConfigError):
        mine(example_db, example_utable, example_mtable,
             MiningConfig(node_bound="swu"))


def test_one_sequence_gate_blocks_hopeless_subtrees():
    # item a's whole-sequence weight (3) sits below every threshold its
    # subtree could be mined under (min of mu(a)=50 and mu(b)=4), so the
    # subtree is visited once and never expanded
    db = parse_dataset(io.StringIO("a[1] -1 b[1] -2\nb[5] -2\nc[1] -2\n"))
    ut = bind_unit_utilities({"a": 1, "b": 2, "c": 3}, db.symbols)
    mt = bind_thresholds({"a": 50, "b": 4, "c": 1}, db.symbols)

    class Count(MiningObserver):
        def __init__(self):
            self.visited = []

        def on_node(self, pattern, bounds, expanded):
            self.visited.append((pattern, expanded))

    obs = Count()
    husps, _ = mine(db, ut, mt, MiningConfig(variant=USPT1), observer=obs)
    a = db.symbols.id_of("a")
    a_nodes = [(p, e) for p, e in obs.visited if p == Pattern(((a,),))]
    assert a_nodes and not a_nodes[0][1]  # visited but not expanded
    assert [h.pattern.itemsets for h in husps] == [
        ((db.symbols.id_of("b"),),),
        ((db.symbols.id_of("c"),),),
    ]
    # the removal strategy deletes a outright, with identical output
    obs2 = Count()
    husps2, _ = mine(db, ut, mt, MiningConfig(variant=USPT2), observer=obs2)
    assert husps2 == husps
    assert all(p != Pattern(((a,),)) for p, _ in obs2.visited)


def test_bounds_invariants_on_visited_nodes(example_db, example_utable,
                                            example_mtable):
    nodes = engine_bounds(example_db, example_utable, example_mtable,
                          MiningConfig(variant=USPT1)).nodes
    assert nodes
    for b in nodes.values():
        assert b.utility <= b.peu <= b.seu <= b.swu
        assert b.pmiu <= b.miu


def test_node_seu_never_exceeds_its_swu():
    """A child's SEU is the min of its row's and its prefix's, and is never
    capped at the child's SWU: on every node of the corpus it is at most
    that SWU already."""
    class Bounds(MiningObserver):
        def __init__(self):
            self.pairs = []

        def on_node(self, pattern, bounds, expanded):
            self.pairs.append((bounds.seu, bounds.swu))

    obs = Bounds()
    for db, utable, mtable in mixed_instances(50):
        for variant in (USPT1, USPT2, USPT):
            for node_bound in (BOUND_PEU, BOUND_SEU):
                config = MiningConfig(variant=variant, node_bound=node_bound)
                mine(db, utable, mtable, config, observer=obs)
    assert len(obs.pairs) == 16439
    assert all(seu <= swu for seu, swu in obs.pairs)


def _is_lone(proj):
    return len(proj.entries) == 1 and len(proj.entries[0].pivots) == 1


def _watch_scans(monkeypatch, record):
    """Patch ``_Engine._scan_candidates`` to pass every projection it scans
    but the empty pattern's, and the I- and S-sums the scan returns, to
    ``record``.  The engine scans a lone pivot only to fill the rows cached
    for it, worth zero."""
    real_scan = miner_module._Engine._scan_candidates

    def watched_scan(self, proj):
        sums = real_scan(self, proj)
        if proj is not self.root_proj:
            record(proj, sums)
        return sums

    monkeypatch.setattr(miner_module._Engine, "_scan_candidates", watched_scan)


def _keep_engines(monkeypatch):
    """Patch ``_Engine.run`` to keep every engine it runs; returns the list."""
    engines = []
    real_run = miner_module._Engine.run

    def run(self):
        engines.append(self)
        return real_run(self)

    monkeypatch.setattr(miner_module._Engine, "run", run)
    return engines


def _capture_arrays(monkeypatch):
    """Keep the utility arrays of the latest run; returns the list they go in."""
    arrays = []
    real_build = miner_module.build_database_arrays

    def build(*args):
        arrays[:] = real_build(*args)
        return arrays

    monkeypatch.setattr(miner_module, "build_database_arrays", build)
    return arrays


def _reference_projection(arrays, itemsets):
    """The pattern's projection built by ``project`` from its 1-pattern."""
    proj = initial_projection(arrays, itemsets[0][0])
    for item in itemsets[0][1:]:
        proj = project(proj, arrays, item, I_STEP)
    for itemset in itemsets[1:]:
        proj = project(proj, arrays, itemset[0], S_STEP)
        for item in itemset[1:]:
            proj = project(proj, arrays, item, I_STEP)
    return proj


def _prefix_of(itemsets):
    """The itemsets of the pattern that ``itemsets`` extends by one item."""
    last = itemsets[-1]
    return itemsets[:-1] + ((last[:-1],) if len(last) > 1 else ())


def _pivots(proj):
    return [(e.seq_index, tuple(e.pivots)) for e in proj.entries]


@pytest.mark.parametrize("node_bound", [BOUND_PEU, BOUND_SEU])
@pytest.mark.parametrize("variant", [USPT1, USPT])
def test_only_expanded_children_are_projected(monkeypatch, example_db, example_utable,
                                              example_mtable, variant, node_bound):
    """``project`` is called once for every expanded child of a scanned
    node and for nothing else: the calls build exactly those children's
    pivots.  Every other expanded child is a cached row's child and builds
    nothing when it is expanded.  A lone pivot is scanned only to fill its
    cached rows, and the fill calls no ``project``."""
    arrays = _capture_arrays(monkeypatch)
    built = []      # pivots of every projection built
    pending = []    # the projection scanned for the next ``on_candidates``
    real_project = miner_module.project

    def counting_project(parent, arrays_, item, kind):
        assert not _is_lone(parent)
        proj = real_project(parent, arrays_, item, kind)
        built.append(_pivots(proj))
        return proj

    def record_scan(proj, sums):
        if _is_lone(proj):
            assert proj.entries[0].best == [0]
        else:
            pending.append(proj)

    class Expanded(MiningObserver):
        def __init__(self):
            self.scanned = set()
            self.children = []

        def on_candidates(self, prefix, i_items, s_items, kept_i, kept_s):
            assert len(pending) <= 1
            if pending:
                self.scanned.add(prefix.itemsets)
                pending.clear()

        def on_node(self, pattern, bounds, expanded):
            if expanded and pattern.size >= 2:
                self.children.append(pattern.itemsets)

    monkeypatch.setattr(miner_module, "project", counting_project)
    _watch_scans(monkeypatch, record_scan)
    config = MiningConfig(variant=variant, node_bound=node_bound)
    instances = [(example_db, example_utable, example_mtable)] + mixed_instances(10)
    total = shared = 0
    for db, utable, mtable in instances:
        built.clear()
        obs = Expanded()
        mine(db, utable, mtable, config, observer=obs)
        from_scans = [c for c in obs.children if _prefix_of(c) in obs.scanned]
        want = [_pivots(_reference_projection(arrays, c)) for c in from_scans]
        assert sorted(built) == sorted(want)
        total += len(obs.children)
        shared += len(obs.children) - len(from_scans)
    assert 0 < shared < total


@pytest.mark.parametrize("variant", [USPT1, USPT])
def test_offsets_ride_only_with_one_entry_projections(monkeypatch, variant):
    """Every scanned node's projection, with its offset added to every best
    utility, is the pattern's projection built by ``project`` from its
    1-pattern, and a non-zero offset rides only with a one-entry projection:
    below a lone pivot.  Every node that is not scanned is a lone pivot.
    The offset is read off ``on_candidates``, which reports every child's
    PEU as the offset plus its scanned row's."""
    arrays = _capture_arrays(monkeypatch)
    offsets = {"zero": 0, "lone": 0, "several": 0}
    pending = []

    def record_scan(proj, sums):
        if not _is_lone(proj):
            pending.append((proj, [{i: row[1] for i, row in node.items()}
                                   for node in sums]))

    class Offsets(MiningObserver):
        def on_candidates(self, prefix, i_items, s_items, kept_i, kept_s):
            want = _reference_projection(arrays, prefix.itemsets)
            if not pending:
                assert _is_lone(want)
                offsets["lone"] += 1
                return
            (proj, (peu_i, peu_s)), = pending
            pending.clear()
            assert i_items.keys() == peu_i.keys() and s_items.keys() == peu_s.keys()
            b = {i_items[i] - peu_i[i] for i in i_items} | {
                s_items[i] - peu_s[i] for i in s_items}
            assert len(b) <= 1
            b = b.pop() if b else 0
            if b == 0:
                offsets["zero"] += 1
            else:
                assert len(proj.entries) == 1
                offsets["several"] += 1
            got = [(e.seq_index, e.pivots, [x + b for x in e.best]) for e in proj.entries]
            assert got == [(e.seq_index, e.pivots, e.best) for e in want.entries]

    _watch_scans(monkeypatch, record_scan)
    for db, utable, mtable in mixed_instances(30):
        for node_bound in (BOUND_PEU, BOUND_SEU):
            mine(db, utable, mtable, MiningConfig(variant=variant, node_bound=node_bound),
                 observer=Offsets())
    assert all(offsets.values()), offsets


@pytest.mark.parametrize("max_len", [None, 1, 2])
def test_observer_free_run_equals_the_observed_one(max_len):
    """The walk emits every result where it decides it, with or without an
    observer; with one it also reports every decided node to ``on_node``.
    Both runs return the same results and counts."""
    results = 0
    for db, utable, mtable in mixed_instances(30) + zero_priced_instances(30):
        for variant in (USPT1, USPT2, USPT):
            for node_bound in (BOUND_PEU, BOUND_SEU):
                config = MiningConfig(variant=variant, node_bound=node_bound,
                                      max_pattern_length=max_len)
                bare, bare_stats = mine(db, utable, mtable, config)
                seen, seen_stats = mine(db, utable, mtable, config,
                                        observer=MiningObserver())
                assert bare == seen
                assert bare_stats.candidates_visited == seen_stats.candidates_visited
                assert bare_stats.depth_histogram == seen_stats.depth_histogram
                results += len(bare)
    assert results > 500


def test_seu_anchor_is_the_earliest_pivot_on_ties():
    # <a><c> ends at positions 6 and 8 (1-based) with equal best + remaining
    # (4 + 1 and 5 + 0); the SEU takes the remaining utility at the earlier
    # one: utility 5 + 1
    db = parse_dataset(io.StringIO(
        "a[1] b[1] -1 a[1] b[1] -1 a[2] c[2] -1 b[1] c[1] -2\n"))
    ut = bind_unit_utilities({"a": 2, "b": 0, "c": 1}, db.symbols)
    mt = MTable((1, 1, 1))
    nodes = engine_bounds(db, ut, mt, MiningConfig(variant=USPT1)).nodes
    a, c = db.symbols.id_of("a"), db.symbols.id_of("c")
    b = nodes[Pattern(((a,), (c,)))]
    assert (b.utility, b.peu, b.seu) == (5, 5, 6)
    for pattern, bounds in nodes.items():
        assert bounds == brute_force_bounds(pattern, db, ut, mt)


# Databases where the 1-pattern [a] has one pivot, so its children are
# decided from the cached rows of that pivot: the text, the unit utilities,
# children of [a] that must be visited, and the most pivots that a child
# projection built from the rows holds.
SINGLE_PIVOT_CASES = [
    # the S-child b recurs in two later elements: [a],[b] gets two pivots,
    # and its SEU anchors at the first one, whose u + ru is largest
    ("a[1] -1 b[2] c[1] -1 c[4] -1 b[1] -2\nb[1] c[2] -2\n",
     {"a": 1, "b": 3, "c": 1}, ["[a],[b]", "[a],[c]"], 2),
    # z is worth nothing, so its two occurrences after a tie on u + ru; with
    # one pivot such a tie leaves their ru equal as well
    ("a[2] -1 z[1] -1 z[3] -1 c[1] -2\nz[1] c[1] -2\n",
     {"a": 1, "z": 0, "c": 2}, ["[a],[z]"], 2),
    # b extends a both inside a's element and in the next one
    ("a[1] b[1] -1 b[2] -2\nb[1] -2\n", {"a": 2, "b": 1}, ["[a b]", "[a],[b]"], 1),
]


@pytest.mark.parametrize("text,units,children,most_pivots", SINGLE_PIVOT_CASES)
def test_single_pivot_children_match_the_oracle(monkeypatch, text, units, children,
                                                most_pivots):
    db = parse_dataset(io.StringIO(text))
    ut = bind_unit_utilities(units, db.symbols)
    longest = sum(len(e.items) for s in db.sequences for e in s.elements)
    class Collect(MiningObserver):
        def __init__(self):
            self.nodes = {}

        def on_node(self, pattern, bounds, expanded):
            self.nodes[pattern.render(db.symbols)] = (pattern, bounds)

    engines = _keep_engines(monkeypatch)
    # every threshold at 1 removes no item and cuts no subtree, so every
    # node's bounds are the oracle's; at 4 and 12 the gates cut subtrees
    for mu in (1, 4, 12):
        mt = bind_thresholds({n: mu for n in units}, db.symbols)
        want = [(h.pattern, h.utility, h.miu)
                for h in brute_force_mine(db, ut, mt, longest)]
        for variant in (USPT1, USPT2, USPT):
            for node_bound in (BOUND_PEU, BOUND_SEU):
                obs = Collect()
                config = MiningConfig(variant=variant, node_bound=node_bound)
                got, _ = mine(db, ut, mt, config, observer=obs)
                assert [(h.pattern, h.utility, h.miu) for h in got] == want
                if mu == 1:
                    assert set(children) <= obs.nodes.keys()
                    for pattern, bounds in obs.nodes.values():
                        assert bounds == brute_force_bounds(pattern, db, ut, mt)
    # the pivot count of every child cached for a single pivot: a lone pivot
    # is kept as its key and best utility, any other child as its projection
    built = []
    for engine in engines:
        for rows in engine.rows_by_key.values():
            for row in rows[0] + rows[1]:
                ext = row[6]
                if type(ext) is tuple:
                    built.append(1)
                else:
                    assert len(ext.entries) == 1 and len(ext.entries[0].pivots) > 1
                    built.append(len(ext.entries[0].pivots))
    assert max(built) == most_pivots


def test_removals_that_empty_elements_keep_later_extensions():
    """The prefilter removes ``a`` and ``x``, which empties three of the
    first sequence's five elements; ``[b],[c]`` still matches there."""
    text = "a[1] -1 x[1] -1 b[1] -1 x[1] -1 c[1] -2\n" + "b[5] -1 c[5] -2\n" * 3
    db = parse_dataset(io.StringIO(text))
    names = db.symbols.names
    ut = bind_unit_utilities({n: 1 for n in names}, db.symbols)
    mt = bind_thresholds({n: 6 for n in names}, db.symbols)
    want = [(h.pattern, h.utility, h.miu) for h in brute_force_mine(db, ut, mt, 5)]
    bc = Pattern(((db.symbols.id_of("b"),), (db.symbols.id_of("c"),)))
    assert (bc, 32, 6) in want
    for variant in (USPT1, USPT2, USPT):
        got, _ = mine(db, ut, mt, MiningConfig(variant=variant))
        assert [(h.pattern, h.utility, h.miu) for h in got] == want


def test_deep_patterns_do_not_exhaust_the_stack():
    # one sequence of 700 single-item elements: the search goes 700 levels
    # deep, and <a> repeated k times is a result of utility k for every k
    n = 700
    db = parse_dataset(io.StringIO(" -1 ".join(["a[1]"] * n) + " -2\n"))
    ut = bind_unit_utilities({"a": 1}, db.symbols)
    got, stats = mine(db, ut, MTable((1,)))
    a = db.symbols.id_of("a")
    assert [(h.pattern, h.utility, h.miu) for h in got] == [
        (Pattern(((a,),) * k), k, 1) for k in range(1, n + 1)
    ]
    assert stats.depth_histogram == {k: 1 for k in range(1, n + 1)}


def test_shorter_results_precede_longer_ones_met_earlier():
    # the search meets [a b] (under the root [a]) before the root [b], yet
    # every 1-pattern is emitted before any 2-pattern, as the oracle sorts
    db = parse_dataset(io.StringIO("a[1] b[2] -1 a[1] -2\n"))
    ut = bind_unit_utilities({"a": 1, "b": 1}, db.symbols)
    mt = MTable((1, 1))
    want = brute_force_mine(db, ut, mt, 3)
    assert [(h.pattern.render(db.symbols), h.utility) for h in want] == [
        ("[a]", 1), ("[b]", 2), ("[a b]", 3), ("[a],[a]", 2), ("[b],[a]", 3),
        ("[a b],[a]", 4),
    ]
    for variant in (USPT1, USPT2, USPT):
        for node_bound in (BOUND_PEU, BOUND_SEU):
            got, _ = mine(db, ut, mt, MiningConfig(variant=variant, node_bound=node_bound))
            assert got == want


class _Recorder(MiningObserver):
    """Feeds ``repr`` of every observer event into one running hash."""

    def __init__(self, digest):
        self.digest = digest
        self.events = 0

    def _record(self, *event):
        self.digest.update(repr(event).encode())
        self.events += 1

    def on_one_sequence_stats(self, info):
        self._record("one_sequence_stats", info)

    def on_item_extension_bounds(self, peu_by_item):
        self._record("item_extension_bounds", peu_by_item)

    def on_candidates(self, prefix, i_items, s_items, kept_i, kept_s):
        self._record("candidates", prefix, i_items, s_items, kept_i, kept_s)

    def on_node(self, pattern, bounds, expanded):
        self._record("node", pattern, bounds, expanded)


def test_observer_stream_is_pinned(example_db, example_utable, example_mtable):
    """Every observer event, the results and the candidate counts on the
    reference example plus ``mixed_instances(50)``, for each variant and node
    bound, hashed in order.  A change to the engine that keeps this value
    visits the same nodes, in the same order, with the same bounds."""
    digest = hashlib.sha256()
    obs = _Recorder(digest)
    instances = [(example_db, example_utable, example_mtable)] + mixed_instances(50)
    for db, utable, mtable in instances:
        for variant in (USPT1, USPT2, USPT):
            for node_bound in (BOUND_PEU, BOUND_SEU):
                config = MiningConfig(variant=variant, node_bound=node_bound)
                husps, stats = mine(db, utable, mtable, config, observer=obs)
                digest.update(repr((husps, stats.candidates_visited,
                                    stats.depth_histogram)).encode())
    assert obs.events == 28076
    assert digest.hexdigest() == (
        "038bd894ec2d304a5d641ad681ca609878ca12bc54c072e345e6c8da2fca9db5"
    )


def test_observer_stream_is_pinned_under_length_caps():
    """The same hash under ``max_pattern_length`` 1, 2 and 3, over
    ``mixed_instances(50)`` and ``zero_priced_instances(30)``: a cap decides
    which nodes, the roots included, may be expanded."""
    digest = hashlib.sha256()
    obs = _Recorder(digest)
    for db, utable, mtable in mixed_instances(50) + zero_priced_instances(30):
        for variant in (USPT1, USPT2, USPT):
            for node_bound in (BOUND_PEU, BOUND_SEU):
                for cap in (1, 2, 3):
                    config = MiningConfig(variant=variant, node_bound=node_bound,
                                          max_pattern_length=cap)
                    husps, stats = mine(db, utable, mtable, config, observer=obs)
                    digest.update(repr((husps, stats.candidates_visited,
                                        stats.depth_histogram)).encode())
    assert obs.events == 37637
    assert digest.hexdigest() == (
        "65fad810069eaa4d18595ff50a911df1261e474b4716bb14157dd5bc00ab4419"
    )


def test_engine_built_patterns_equal_validated_ones(example_db, example_utable,
                                                    example_mtable):
    """The search builds its patterns without re-validating them; each result
    and each ``on_node`` pattern is still equal to, and hashes like, the
    validated ``Pattern`` of its itemsets."""
    class Patterns(MiningObserver):
        def __init__(self):
            self.seen = []

        def on_node(self, pattern, bounds, expanded):
            self.seen.append(pattern)

    obs = Patterns()
    results = []
    instances = [(example_db, example_utable, example_mtable)] + mixed_instances(50)
    for db, utable, mtable in instances:
        for variant in (USPT1, USPT):
            husps, _ = mine(db, utable, mtable, MiningConfig(variant=variant),
                            observer=obs)
            results += [h.pattern for h in husps]
    assert len(results) > 1000
    for pattern in results + obs.seen:
        checked = Pattern(pattern.itemsets)
        assert type(pattern) is Pattern
        assert pattern == checked and checked == pattern
        assert hash(pattern) == hash(checked)


def test_mine_leaves_the_callers_trace_running(example_db, example_utable,
                                               example_mtable):
    """The README's recipe: a caller who wants tracemalloc's figure traces
    ``mine`` themselves, and ``mine`` leaves that trace running; the peak
    RSS in the statistics is there either way."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, stats = mine(example_db, example_utable, example_mtable)
        assert tracemalloc.is_tracing()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak > 0
    assert type(stats.peak_memory_estimate) is int
    assert stats.peak_memory_estimate > 0


def test_scanned_and_cached_rows_agree(monkeypatch):
    """Every node's children decided from a scan of its projection match the
    children decided from the rows cached for a single pivot: the same
    results, candidate counts and observer stream."""
    def run(db, utable, mtable, config):
        obs = _Recorder(hashlib.sha256())
        husps, stats = mine(db, utable, mtable, config, observer=obs)
        return husps, stats.candidates_visited, obs.events, obs.digest.hexdigest()

    engines = _keep_engines(monkeypatch)
    configs = [MiningConfig(variant=v, node_bound=nb)
               for v in (USPT1, USPT2, USPT) for nb in (BOUND_PEU, BOUND_SEU)]
    instances = mixed_instances(30)
    cached = [run(*inst, config) for inst in instances for config in configs]
    assert any(engine.rows_by_key for engine in engines)

    # no projection reads as a lone pivot, so every node is scanned
    engines.clear()
    monkeypatch.setattr(miner_module, "_lone_key", lambda proj: proj)
    scanned = [run(*inst, config) for inst in instances for config in configs]
    assert engines and not any(engine.rows_by_key for engine in engines)
    assert scanned == cached


def _fed_scan(arrays, proj):
    """The candidate scan built only from ``feed`` and ``end_sequence``, for
    entries of every shape: the I- and S-children's node sums.  An entry
    without pivots is the empty prefix, worth 0 before every position."""
    acc_i, acc_s = _ItemAccumulator(), _ItemAccumulator()
    for entry in proj.entries:
        seq = arrays[entry.seq_index]
        item_, eid_, u_, ru_, pool_ = seq.item, seq.eid, seq.u, seq.ru, seq.suffix_min_mu
        n = seq.n
        pivots, best = entry.pivots, entry.best
        for p, b in zip(pivots, best):
            q = p + 1
            while q < n and eid_[q] == eid_[p]:
                acc_i.feed(item_[q], b + u_[q], ru_[q], pool_[q + 1])
                q += 1
        start_e = eid_[pivots[0]] if pivots else 0
        if start_e < len(seq.elem_first):
            run_max = 0
            ptr = 0
            for q in range(seq.elem_first[start_e], n):
                while ptr < len(pivots) and eid_[pivots[ptr]] < eid_[q]:
                    run_max = max(run_max, best[ptr])
                    ptr += 1
                acc_s.feed(item_[q], run_max + u_[q], ru_[q], pool_[q + 1])
        acc_i.end_sequence(seq.useq)
        acc_s.end_sequence(seq.useq)
    return acc_i.node, acc_s.node


def _fed_root(arrays):
    """The root scan built only from ``feed`` and ``end_sequence``."""
    acc = _ItemAccumulator()
    for seq in arrays:
        for q in range(seq.n):
            acc.feed(seq.item[q], seq.u[q], seq.ru[q], seq.suffix_min_mu[q + 1])
        acc.end_sequence(seq.useq)
    return acc.node


def test_folded_scans_equal_the_fed_ones(monkeypatch):
    """A one-pivot entry folds the positions it visits into the node sums
    directly: always for its I-children, and for its S-children when its
    sequence holds no item twice; an entry without pivots, the empty
    pattern's, folds such a sequence too.  Every scan leaves the same sums
    as feeding every position, and the root scan the same as feeding every
    position worth its own utility."""
    real_scan = miner_module._Engine._scan_candidates
    shapes = set()

    def scan(self, proj):
        sums = real_scan(self, proj)
        assert sums == _fed_scan(self.arrays, proj)
        if proj is self.root_proj:
            assert sums[1] == _fed_root(self.arrays)
        for entry in proj.entries:
            seq = self.arrays[entry.seq_index]
            twice = "no item twice" if len(seq.positions_of) == seq.n else "an item twice"
            if len(entry.pivots) > 1:
                shapes.add("several pivots")
            elif entry.pivots:
                shapes.add("one pivot, " + twice)
            else:
                shapes.add("no pivot, " + twice)
        return sums

    monkeypatch.setattr(miner_module._Engine, "_scan_candidates", scan)
    # a recurs after b's element worth more than before: b's S-child a is
    # worth its best match, not the sum of its matches
    db = parse_dataset(io.StringIO(
        "a[1] b[1] -1 a[2] -1 a[5] c[1] -2\nb[2] -1 a[1] -1 a[3] -2\n"))
    ut = bind_unit_utilities({"a": 1, "b": 1, "c": 1}, db.symbols)
    mt = bind_thresholds({"a": 1, "b": 1, "c": 1}, db.symbols)
    configs = [MiningConfig(variant=USPT1, node_bound=BOUND_SEU), MiningConfig()]
    for inst in mixed_instances(30) + zero_priced_instances(30) + [(db, ut, mt)]:
        for config in configs:
            mine(*inst, config)
    assert shapes == {"several pivots", "one pivot, no item twice",
                      "one pivot, an item twice", "no pivot, no item twice",
                      "no pivot, an item twice"}


def test_scan_sums_outlive_later_scans(example_db, example_utable, example_mtable):
    """The sums a candidate scan returns belong to it: a later scan of another
    projection, through the same scratch accumulators, over children the
    first one also met, leaves them as they were."""
    engine = miner_module._Engine(example_db, example_utable, example_mtable,
                                  MiningConfig(), None)
    arrays = engine.arrays
    projs = [engine.root_proj] + [initial_projection(arrays, i) for i in sorted(engine.item_seqs)]
    for first_proj in projs:
        first = engine._scan_candidates(first_proj)
        kept = [{i: list(row) for i, row in sums.items()} for sums in first]
        assert first == _fed_scan(arrays, first_proj)
        for second_proj in projs:
            if second_proj is first_proj:
                continue
            second = engine._scan_candidates(second_proj)
            assert second == _fed_scan(arrays, second_proj)
            assert list(first) == kept
    assert any(_fed_scan(arrays, proj)[0] for proj in projs)


def test_a_long_chain_of_lone_pivots_never_recurses():
    """One sequence of 300 distinct single-item elements worth 1 each, every
    threshold 300: only the whole sequence is a result, reached through a
    300-deep chain of lone pivots.  The walk and the row cache must not
    recurse per level, so a recursion limit below the depth is no obstacle."""
    n = 300
    names = [f"i{k:03d}" for k in range(n)]
    db = parse_dataset(io.StringIO(" -1 ".join(f"{name}[1]" for name in names) + " -2\n"))
    ut = bind_unit_utilities({name: 1 for name in names}, db.symbols)
    mt = bind_thresholds({name: n for name in names}, db.symbols)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        husps, stats = mine(db, ut, mt)
    finally:
        sys.setrecursionlimit(limit)
    whole = Pattern(tuple((db.symbols.id_of(name),) for name in names))
    assert [(h.pattern, h.utility, h.miu) for h in husps] == [(whole, n, n)]
    assert max(stats.depth_histogram) == n
    assert stats.depth_histogram == {1: n, **{k: 1 for k in range(2, n + 1)}}


def _generated(params, beta, lmu):
    """The database, unit utilities and thresholds of a generated set."""
    data, units = generate_synthetic(params)
    db = parse_dataset(io.StringIO(data))
    utable = bind_unit_utilities(parse_item_values(io.StringIO(units)), db.symbols)
    return db, utable, generate_mtable(db, utable, Fraction(beta), Fraction(lmu))


def test_cached_rows_extend_their_pivot_as_project_does(monkeypatch):
    """Every cached row's ``ext``, read off the arrays, is the child's
    projection that ``project`` builds from the lone pivot worth zero, kept
    as its key and best utility when it is one pivot."""
    engines = _keep_engines(monkeypatch)
    # a few long sequences over many items, as well as the usual corpus
    long = _generated(GenParams(n_sequences=3, n_items=40, max_elements=40,
                                max_element_size=2, seed=3), "0.5", "0.05")
    for db, utable, mtable in mixed_instances(30) + [long]:
        for variant in (USPT1, USPT):
            config = MiningConfig(variant=variant, max_pattern_length=4)
            mine(db, utable, mtable, config)
    kinds = set()
    for engine in engines:
        for (si, p), rows in engine.rows_by_key.items():
            lone = Projection([ProjEntry(si, [p], [0])])
            for step, step_rows in zip((I_STEP, S_STEP), rows):
                for row in step_rows:
                    want = miner_module._lone_key(project(lone, engine.arrays, row[0], step))
                    assert row[6] == want, (si, p, step, row)
                    kinds.add((step, type(want)))
    assert kinds == {(I_STEP, tuple), (S_STEP, tuple), (S_STEP, Projection)}


def _guarded_calls(params, beta, lmu):
    """Each entry point that pauses the cyclic collector, with a call of it
    that returns what it built: mining a generated set, parsing its dataset
    text and parsing its TSV results back."""
    data, units = generate_synthetic(params)
    db = parse_dataset(io.StringIO(data))
    utable = bind_unit_utilities(parse_item_values(io.StringIO(units)), db.symbols)
    mtable = generate_mtable(db, utable, Fraction(beta), Fraction(lmu))
    results = write_results(mine(db, utable, mtable)[0], None, "tsv", db.symbols)
    return [
        (mine, lambda: mine(db, utable, mtable)[0]),
        (parse_dataset, lambda: parse_dataset(io.StringIO(data)).sequences),
        (parse_results, lambda: parse_results(io.StringIO(results), db.symbols)),
    ]


@pytest.fixture(scope="module")
def heavy_calls():
    """The guarded calls on a generated set of 2,000 sequences and more
    than 10,000 results: each call builds more than 10,000 containers."""
    calls = _guarded_calls(GenParams(n_sequences=2000, n_items=100, max_elements=5,
                                     max_element_size=3, seed=3), "1", "0.002")
    _, read_back = calls[-1]
    assert len(read_back()) > 10_000
    return calls


def test_no_collection_runs_inside_mine(heavy_calls):
    """``mine``, ``parse_dataset`` and ``parse_results`` pause the cyclic
    collector: on a set where a call left with the collector on starts it
    about a hundred times, no collection starts while the entry point is on
    the stack but the one of the young generations that it runs at its
    entry, before its work, unless objects are frozen."""
    for entry, call in heavy_calls:
        inside = []

        def watch(phase, info):
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code is entry.__code__:
                    inside.append((phase, info["generation"]))
                    return
                frame = frame.f_back

        assert gc.isenabled()
        # the guard allocates before it pauses the collector: with the young
        # counts at zero, that starts no collection
        gc.collect()
        gc.callbacks.append(watch)
        try:
            built = call()
        finally:
            gc.callbacks.remove(watch)
        assert len(built) >= 2000, entry.__name__
        assert inside == ([] if gc.get_freeze_count() else [("start", 1), ("stop", 1)]), \
            entry.__name__


def test_mine_hands_its_objects_out_of_the_young_generation(heavy_calls):
    """What ``mine``, ``parse_dataset`` and ``parse_results`` allocated with
    the collector paused leaves it in the oldest generation, none of it
    frozen: the caller's next young collection does not start at once over
    what they built, but only after as many new containers as the threshold
    counts.  An interpreter that starts with frozen objects of its own
    (CPython 3.12.1) keeps them, and there nothing is handed back."""
    frozen = gc.get_freeze_count()
    for entry, call in heavy_calls:
        starts = []

        def watch(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        assert gc.isenabled()
        threshold = gc.get_threshold()
        # a young collection is due only after 10,000 new containers, and
        # none is before the entry point pauses the collector
        gc.set_threshold(10_000, *threshold[1:])
        gc.collect()
        gc.callbacks.append(watch)
        try:
            built = call()
            young = [[] for _ in range(5_000)]
        finally:
            gc.callbacks.remove(watch)
            gc.set_threshold(*threshold)
        assert len(built) >= 2000 and len(young) == 5_000, entry.__name__
        assert gc.get_freeze_count() == frozen, entry.__name__
        # handed back, the one collection is that of the young generations
        # at the entry; else the first allocation after the call starts one
        assert starts == ([0] if frozen else [1]), entry.__name__


class _Cycle:
    pass


def _small_calls():
    """The guarded calls on a generated set of 20 sequences."""
    return _guarded_calls(GenParams(n_sequences=20, n_items=10, max_elements=4,
                                    max_element_size=2, seed=3), "1", "0.05")


def test_mine_frees_the_callers_young_garbage_before_handing_back():
    """The caller's young garbage is not moved to the oldest generation with
    the objects ``mine``, ``parse_dataset`` or ``parse_results`` built,
    where only a full collection would free it: a caller that makes cycles
    between calls finds every one freed by a young collection."""
    for entry, call in _small_calls():
        assert gc.isenabled()
        gc.collect()
        refs = []
        for _ in range(200):
            # no collection meets a cycle still alive and moves it on: each
            # one is young garbage when the entry point is called
            gc.disable()
            try:
                for _ in range(50):
                    cycle = _Cycle()
                    cycle.me = cycle
                    refs.append(weakref.ref(cycle))
                del cycle
            finally:
                gc.enable()
            built = call()
        assert built, entry.__name__
        gc.collect(1)
        assert [ref for ref in refs if ref() is not None] == [], entry.__name__


def test_mine_leaves_the_callers_frozen_objects_frozen():
    """A caller who froze objects finds them still frozen after ``mine``,
    ``parse_dataset`` or ``parse_results``, which then skip moving their own
    objects out of the young generation.  An interpreter that starts with
    frozen objects stands in for the caller, and its frozen set is left
    alone."""
    for entry, call in _small_calls():
        assert gc.isenabled()
        expected = call()
        ours = not gc.get_freeze_count()
        if ours:
            gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            # rebinds no name, so no frozen object is freed and leaves the set
            built = call()
            assert gc.get_freeze_count() == frozen, entry.__name__
        finally:
            if ours:
                gc.unfreeze()
        assert frozen > 0
        assert built == expected, entry.__name__
        # the next call's freeze must not take these
        del built, expected


def test_childless_lone_pivots_are_not_entered(monkeypatch):
    """An expanded child that is one pivot at its sequence's last position
    has no children.  The walk does not descend into it, so no rows are
    filled for its key, with or without an observer, and both runs return
    the same results and counts."""
    engines = _keep_engines(monkeypatch)
    # a few long sequences over many items, as well as the usual corpus
    long = _generated(GenParams(n_sequences=3, n_items=40, max_elements=40,
                                max_element_size=2, seed=3), "0.5", "0.05")
    configs = [MiningConfig(variant=v, node_bound=nb, max_pattern_length=4)
               for v in (USPT1, USPT2, USPT) for nb in (BOUND_PEU, BOUND_SEU)]
    entered = 0
    for db, utable, mtable in mixed_instances(30) + [long]:
        for config in configs:
            engines.clear()
            bare, bare_stats = mine(db, utable, mtable, config)
            seen, seen_stats = mine(db, utable, mtable, config, observer=MiningObserver())
            assert bare == seen
            assert bare_stats.candidates_visited == seen_stats.candidates_visited
            assert bare_stats.depth_histogram == seen_stats.depth_histogram
            for engine in engines:
                assert not [(s, p) for s, p in engine.rows_by_key
                            if p == engine.arrays[s].n - 1]
                entered += len(engine.rows_by_key)
    # lone pivots with children are still entered
    assert entered > 100


def test_husp_is_a_named_triple(example_db, example_utable, example_mtable):
    """A result reads its fields by name, iterates, indexes and compares
    like the plain triple of its values, equals and hashes like a ``Husp``
    built by the caller, survives a write and parse, and is immutable."""
    husps, _ = mine(example_db, example_utable, example_mtable)
    assert husps
    for husp in husps:
        pattern, utility, miu = husp
        assert (husp.pattern, husp.utility, husp.miu) == (pattern, utility, miu)
        assert husp[0] is pattern and husp == (pattern, utility, miu)
        built = Husp(pattern, utility, miu)
        assert type(husp) is Husp
        assert husp == built and hash(husp) == hash(built)
    for fmt in ("tsv", "json"):
        text = write_results(husps, None, fmt, example_db.symbols)
        assert parse_results(io.StringIO(text), example_db.symbols) == husps
    with pytest.raises(AttributeError):
        husps[0].utility = 0


class _Raising(MiningObserver):
    """Notes whether the collector runs at every ``on_node`` call and
    raises at the first node of size 3, in the middle of the walk."""

    def __init__(self):
        self.collecting = []

    def on_node(self, pattern, bounds, expanded):
        self.collecting.append(gc.isenabled())
        if pattern.size == 3:
            raise RuntimeError("observer failed")


@pytest.mark.parametrize("enabled", [True, False])
def test_mine_restores_the_callers_collector_state(example_db, example_utable, enabled):
    """The collector's state after ``mine``, ``parse_dataset`` or
    ``parse_results`` is the caller's, whether the call returns or raises
    midway: an observer of ``mine`` mid-walk, and a parser at a malformed
    last line.  Observers run with the collector paused."""
    mtable = MTable((1,) * len(example_db.symbols))
    observer = _Raising()
    husps, _ = mine(example_db, example_utable, mtable)
    results = write_results(husps, None, "tsv", example_db.symbols)
    calls = [
        (lambda: mine(example_db, example_utable, mtable)[0],
         lambda: mine(example_db, example_utable, mtable, observer=observer),
         RuntimeError, "observer failed"),
        (lambda: parse_dataset(io.StringIO(DATASET_TEXT)).sequences,
         lambda: parse_dataset(io.StringIO(DATASET_TEXT + "a[1] -1\n")),
         ParseError, "not terminated by -2"),
        (lambda: parse_results(io.StringIO(results), example_db.symbols),
         lambda: parse_results(io.StringIO(results + "[a]\t1\tx\n"), example_db.symbols),
         ValueError, "must be non-negative integers"),
    ]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for returning, raising, error, message in calls:
            built = returning()
            assert gc.isenabled() is enabled
            assert len(built) > 5
            with pytest.raises(error, match=message):
                raising()
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert any(h.pattern.size > 3 for h in husps)
    assert len(observer.collecting) >= 3 and not any(observer.collecting)


def test_the_search_makes_no_reference_cycles():
    """With the collector off, reference counting frees everything a run
    allocated once its results are dropped, so pausing the collector in
    ``mine`` leaves it nothing to find later: in every variant and node
    bound, with or without an observer.  The same holds for
    ``parse_dataset`` on canonical and non-canonical text, its SUtility
    trailers verified, and for ``parse_results`` on both formats."""
    configs = [MiningConfig(variant=variant, node_bound=node_bound)
               for variant in (USPT1, USPT2, USPT)
               for node_bound in (BOUND_PEU, BOUND_SEU)]
    instances = mixed_instances(12) + zero_priced_instances(12)
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for k, (db, utable, mtable) in enumerate(instances):
            for config in configs:
                husps, stats = mine(db, utable, mtable, config)
                mine(db, utable, mtable, config, observer=_Recorder(hashlib.sha256()))
            assert gc.collect() == 0, k
            units = dict(zip(db.symbols.names, utable.unit))
            canonical = serialize_dataset(db, utable)
            # double spaces, leading zeros and CRLF take the token loop
            loose = canonical.replace(" -1 ", "  -1 ").replace("[", "[0").replace("\n", "\r\n")
            results = [write_results(husps, stats, fmt, db.symbols) for fmt in ("tsv", "json")]
            # the JSON encoder's indenting closures are cycles of its own
            gc.collect()
            for text in (canonical, loose):
                assert parse_dataset(io.StringIO(text), units).sequences == db.sequences
            for text in results:
                assert parse_results(io.StringIO(text), db.symbols) == husps
            assert gc.collect() == 0, k
    finally:
        if was:
            gc.enable()
