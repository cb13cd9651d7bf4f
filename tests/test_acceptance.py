"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; criteria 6-10 are the heavyweight randomized and scale checks.
"""

import io
import time

import pytest

from huspmine import (
    MiningConfig,
    MiningObserver,
    MTable,
    Pattern,
    QSDatabase,
    SUtilityMismatch,
    bind_unit_utilities,
    brute_force_bounds,
    brute_force_mine,
    generate_mtable,
    generate_synthetic,
    mine,
    parse_dataset,
    parse_item_values,
    parse_results,
    serialize_dataset,
    write_results,
)
from huspmine.formats import GenParams
from huspmine.miner import USPT, USPT1, USPT2
from huspmine.oracle import enumerate_occurring
from huspmine.uarray import SequenceArrays

from support import (
    engine_bounds,
    low_threshold_instance,
    max_sequence_length,
    mixed_instances,
    paper_records,
)


def ok(criterion, message):
    print(f"\nACCEPTANCE C{criterion} PASS: {message}")


EXPECTED_ROWS = [
    ("[b],[c e]", 200, 200),
    ("[f],[b c],[b]", 73, 70),
    ("[f],[b],[b e]", 72, 70),
    ("[f],[b c],[b e]", 81, 70),
]


class Trace(MiningObserver):
    def __init__(self):
        self.one_seq = {}
        self.item_peu = {}
        self.candidates = {}
        self.nodes = {}

    def on_one_sequence_stats(self, info):
        self.one_seq = info

    def on_item_extension_bounds(self, peu_by_item):
        self.item_peu = peu_by_item

    def on_candidates(self, prefix, i_items, s_items, kept_i, kept_s):
        self.candidates[prefix] = (set(kept_i), set(kept_s))

    def on_node(self, pattern, bounds, expanded):
        self.nodes[pattern] = (bounds, expanded)


@pytest.fixture(scope="module")
def traced_run(example_db, example_utable, example_mtable):
    trace = Trace()
    husps, stats = mine(example_db, example_utable, example_mtable, observer=trace)
    return husps, stats, trace


@pytest.fixture(scope="module")
def corpus():
    return mixed_instances(50)


@pytest.fixture(scope="module")
def corpus_results(corpus):
    """Oracle set plus per-variant results and candidate counts, timed."""
    started = time.perf_counter()
    out = []
    for db, utable, mtable in corpus:
        want = [
            (h.pattern, h.utility, h.miu)
            for h in brute_force_mine(db, utable, mtable, max_sequence_length(db))
        ]
        per_variant = {}
        for variant in (USPT1, USPT2, USPT):
            husps, stats = mine(db, utable, mtable, MiningConfig(variant=variant))
            per_variant[variant] = (
                [(h.pattern, h.utility, h.miu) for h in husps],
                stats.candidates_visited,
            )
        out.append((want, per_variant))
    return out, time.perf_counter() - started


@pytest.fixture(scope="module")
def synth10k(tmp_path_factory):
    params = GenParams(
        n_sequences=10_000,
        n_items=475,
        max_elements=5,
        max_element_size=3,
        quantity_range=(1, 5),
        seed=1601,
    )
    data, units = generate_synthetic(params)
    values = parse_item_values(io.StringIO(units))
    db = parse_dataset(io.StringIO(data), unit_utilities=values)
    utable = bind_unit_utilities(values, db.symbols)
    mtable = generate_mtable(db, utable, beta=1.0, lmu_fraction=0.001)
    return db, utable, mtable


def test_c01_golden_end_to_end(example_db, example_utable, example_mtable):
    started = time.perf_counter()
    husps, _ = mine(example_db, example_utable, example_mtable)
    elapsed = time.perf_counter() - started
    rows = [(h.pattern.render(example_db.symbols), h.utility, h.miu) for h in husps]
    assert rows == EXPECTED_ROWS
    assert elapsed < 1.0
    ok(1, f"four expected patterns, exact utilities, {elapsed*1000:.0f} ms")


def test_c02_one_sequence_statistics(traced_run, example_db):
    _, _, trace = traced_run
    name = example_db.symbols.name_of
    got = {
        name(i): (v.swu, v.pmiu, v.utility, v.miu)
        for i, v in trace.one_seq.items()
    }
    assert got == {
        "a": (360, 200, 48, 500),
        "b": (441, 200, 130, 500),
        "c": (441, 200, 72, 500),
        "d": (360, 200, 17, 500),
        "e": (441, 200, 48, 200),
        "f": (81, 70, 24, 70),
    }
    ok(2, "single-item SWU/PMIU/u/MIU table exact for all six items")


def test_c03_utility_array_golden(example_db, example_utable, example_mtable, ids):
    seq = SequenceArrays(example_db.sequences[2], example_utable, example_mtable)
    a, b, c, d, e = (ids[x] for x in "abcde")
    expected = [
        (1, a, 12, 82, 3, 3),  # ru forced to 82 by the suffix-sum identity
        (1, b, 10, 72, 4, 3),
        (2, a, 8, 64, None, 6),
        (2, b, 15, 49, 6, 6),
        (2, c, 3, 46, 7, 6),
        (3, b, 20, 26, None, 9),
        (3, c, 15, 11, None, 9),
        (3, e, 8, 3, None, 9),
        (4, d, 3, 0, None, None),
    ]
    assert paper_records(seq) == expected
    ok(3, "nine records field-by-field, ru(1)=82 per the suffix-sum identity")


def test_c04_bound_values(traced_run, example_db, example_utable, example_mtable, ids):
    t = Pattern(((ids["b"],), (ids["c"],)))
    bounds = brute_force_bounds(t, example_db, example_utable, example_mtable)
    assert (bounds.swu, bounds.seu, bounds.peu, bounds.pmiu) == (360, 249, 232, 200)
    # same numbers from the search itself, computed over the projected arrays
    _, _, trace = traced_run
    node, _ = trace.nodes[t]
    assert (node.swu, node.seu, node.peu, node.pmiu, node.utility) == (
        360, 249, 232, 200, 160
    )
    only_s2 = QSDatabase((example_db.sequences[1],), example_db.symbols)
    zero = MTable((0,) * len(example_db.symbols))
    assert engine_bounds(only_s2, example_utable, zero).nodes[t].peu == 42
    ok(4, "SWU=360 SEU=249 PEU=232 PEU(second sequence)=42 PMIU=200, "
          "oracle and engine")


def test_c05_prefix_trace(traced_run, example_db, ids):
    _, _, trace = traced_run
    name = example_db.symbols.name_of
    assert {name(i): v for i, v in trace.item_peu.items()} == {
        "a": 312, "b": 359, "c": 218, "d": 156, "e": 104, "f": 81,
    }
    prefix = Pattern(((ids["a"],),))
    kept_i, kept_s = trace.candidates[prefix]
    assert {name(i) for i in kept_i} == {"b", "c"}
    assert {name(i) for i in kept_s} == {"a", "b", "c"}
    assert not ({ids["d"], ids["e"], ids["f"]} & (kept_i | kept_s))
    child = Pattern(((ids["a"], ids["b"]),))
    bounds, expanded = trace.nodes[child]
    assert bounds.utility == 55
    assert bounds.peu == 170
    assert not expanded
    assert child not in trace.candidates  # its subtree was never scanned
    ok(5, "item bounds {312,359,218,156,104,81}; d,e,f pruned; "
          "child u=55 PEU=170 not expanded")


def test_c06_oracle_equivalence(corpus_results):
    results, elapsed = corpus_results
    assert len(results) >= 50
    for want, per_variant in results:
        for variant in (USPT1, USPT2, USPT):
            got, _ = per_variant[variant]
            assert got == want
    assert elapsed < 60.0
    ok(6, f"{len(results)} instances x 3 variants equal the oracle "
          f"in {elapsed:.1f} s")


def test_c07_property_suites(corpus):
    sampled = 0
    edges = 0
    for db, utable, mtable in corpus:
        cap = min(6, max_sequence_length(db))
        bounds_of = {}
        for pattern, utility in enumerate_occurring(db, utable, cap):
            b = brute_force_bounds(pattern, db, utable, mtable)
            bounds_of[pattern] = b
            sampled += 1
            assert b.utility <= b.peu <= b.seu <= b.swu
            assert b.pmiu <= b.miu
        for pattern, b in bounds_of.items():
            parent = pattern.parent()
            if parent is None:
                continue
            pb = bounds_of[parent]
            edges += 1
            assert b.swu <= pb.swu
            assert b.seu <= pb.seu
            assert b.peu <= pb.peu
            assert b.pmiu >= pb.pmiu
    assert sampled >= 1000
    ok(7, f"{sampled} sampled patterns, {edges} edges: bound chain, "
          "anti-monotonicity, threshold monotonicity all hold")


def test_c08_variant_ordering(corpus_results, synth10k):
    results, _ = corpus_results
    for _, per_variant in results:
        counts = {v: per_variant[v][1] for v in (USPT, USPT2, USPT1)}
        assert counts[USPT] <= counts[USPT2] <= counts[USPT1]
    db, utable, mtable = synth10k
    big_counts = {}
    for variant in (USPT, USPT2, USPT1):
        _, stats = mine(db, utable, mtable, MiningConfig(variant=variant))
        big_counts[variant] = stats.candidates_visited
    assert big_counts[USPT] <= big_counts[USPT2] <= big_counts[USPT1]
    strict = 0
    low_instances = [low_threshold_instance(9000 + s) for s in range(50)]
    for db, utable, mtable in low_instances:
        counts = {}
        for variant in (USPT, USPT1):
            _, stats = mine(db, utable, mtable, MiningConfig(variant=variant))
            counts[variant] = stats.candidates_visited
        strict += counts[USPT] < counts[USPT1]
    assert strict >= 0.8 * len(low_instances)
    ok(8, f"ordering held on all instances and the 10K set {big_counts}; "
          f"strict on {strict}/{len(low_instances)} low-threshold instances")


def test_c09_uniform_threshold_reduction(corpus):
    checked = 0
    for db, utable, _ in corpus[:50]:
        # beta = 0 collapses the threshold function to the uniform floor
        for frac in (0.0, 0.05):
            mtable = generate_mtable(db, utable, beta=0.0, lmu_fraction=frac)
            assert len(set(mtable.mu)) <= 1
            got, _ = mine(db, utable, mtable)
            want = brute_force_mine(db, utable, mtable, max_sequence_length(db))
            assert [(h.pattern, h.utility) for h in got] == [
                (h.pattern, h.utility) for h in want
            ]
            checked += 1
    ok(9, f"beta=0 uniform-threshold runs equal the oracle on {checked} runs")


def test_c10_scalability_smoke(synth10k):
    db, utable, mtable = synth10k
    started = time.perf_counter()
    husps, stats = mine(db, utable, mtable, MiningConfig())
    elapsed = time.perf_counter() - started
    assert 10 <= len(husps) <= 100_000
    assert elapsed < 60.0
    assert stats.peak_memory_estimate < 1_000_000_000
    ok(10, f"10K sequences: {len(husps)} patterns in {elapsed:.1f} s, "
           f"peak {stats.peak_memory_estimate / 1e6:.0f} MB")


def test_c11_io_round_trips(example_db, example_utable, example_mtable):
    text = serialize_dataset(example_db, example_utable)
    units = {
        n: example_utable.of(example_db.symbols.id_of(n))
        for n in example_db.symbols.names
    }
    again = parse_dataset(io.StringIO(text), unit_utilities=units)
    assert again == example_db
    assert serialize_dataset(again, example_utable) == text
    # an injected off-by-one in a trailer is caught
    tampered = text.replace("SUtility:94", "SUtility:95")
    with pytest.raises(SUtilityMismatch):
        parse_dataset(io.StringIO(tampered), unit_utilities=units)
    husps, _ = mine(example_db, example_utable, example_mtable)
    for fmt in ("tsv", "json"):
        rendered = write_results(husps, None, fmt, example_db.symbols)
        assert parse_results(io.StringIO(rendered), example_db.symbols) == husps
    ok(11, "dataset and result files round-trip byte-canonically; "
           "tampered trailer rejected")
