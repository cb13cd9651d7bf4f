"""Utility-array construction, projections, and the bounds the engine
computes from them."""

import random
from types import SimpleNamespace

import pytest

from huspmine import (
    MTable,
    Pattern,
    QItemset,
    QSDatabase,
    QSequence,
    SymbolTable,
    UnknownItem,
    UtilityTable,
    mine,
    pattern_utility,
    qsequence_utility,
)
from huspmine.uarray import (
    I_STEP,
    S_STEP,
    Projection,
    _ItemAccumulator,
    build_database_arrays,
    initial_projection,
    project,
)

from support import engine_bounds, paper_records


@pytest.fixture()
def arrays(example_db, example_utable, example_mtable):
    return build_database_arrays(example_db, example_utable, example_mtable)


@pytest.fixture(scope="module")
def example_nodes(example_db, example_utable, example_mtable):
    """The engine's bounds of every node it visits on the reference example."""
    return engine_bounds(example_db, example_utable, example_mtable).nodes


@pytest.fixture(scope="module")
def second_sequence_nodes(example_db, example_utable):
    """The engine's bounds over the second sequence alone, every threshold
    zero so that every occurring pattern is visited."""
    only_s2 = QSDatabase((example_db.sequences[1],), example_db.symbols)
    zero = MTable((0,) * len(example_db.symbols))
    return engine_bounds(only_s2, example_utable, zero).nodes


def projected_utility(proj):
    """Pattern utility from a projection: per sequence, the best pivot."""
    return sum(max(entry.best) for entry in proj.entries)


def b_then_c(ids):
    return Pattern(((ids["b"],), (ids["c"],)))


def test_third_sequence_records_match_reference(arrays, ids):
    """Field-by-field golden check of the third sequence's stretch of the
    database-wide arrays.

    Position 1 carries ru = 82: the suffix-sum identity with u(s) = 94 and
    u(position 1) = 12 admits no other value.
    """
    a, b, c, d, e = (ids[x] for x in "abcde")
    expected = [
        (1, a, 12, 82, 3, 3),
        (1, b, 10, 72, 4, 3),
        (2, a, 8, 64, None, 6),
        (2, b, 15, 49, 6, 6),
        (2, c, 3, 46, 7, 6),
        (3, b, 20, 26, None, 9),
        (3, c, 15, 11, None, 9),
        (3, e, 8, 3, None, 9),
        (4, d, 3, 0, None, None),
    ]
    start = arrays.start[2]
    assert arrays.stop[2] - start == 9
    assert paper_records(arrays, 2) == expected
    first = {i: w[2] if type(w[2]) is int else w[2][0]
             for i, w in enumerate(arrays.where) if 2 in w}
    first_occurrence = {i: g - start + 1 for i, g in first.items()}
    assert first_occurrence == {a: 1, b: 2, c: 5, d: 9, e: 8}


def test_suffix_sum_identity_and_reconstruction(arrays, example_db, example_utable):
    for si, qseq in enumerate(example_db.sequences):
        a, z = arrays.start[si], arrays.stop[si]
        assert arrays.ru[z - 1] == 0
        for p in range(a, z - 1):
            assert arrays.ru[p] == arrays.ru[p + 1] + arrays.u[p + 1]
        assert sum(arrays.u[a:z]) == arrays.useq[si] == qsequence_utility(qseq, example_utable)


def test_next_pointers(arrays):
    records = paper_records(arrays, 2)
    for p, (eid, item, _, _, next_pos, next_eid) in enumerate(records, start=1):
        if next_pos is not None:
            assert next_pos > p
            assert records[next_pos - 1][1] == item
        if next_eid is not None:
            assert records[next_eid - 1][0] == eid + 1


def test_project_i_step_pivots(arrays, ids):
    pb = initial_projection(arrays, ids["b"])
    pbc = project(pb, arrays, ids["c"], I_STEP)
    entry = next(e for e in pbc.entries if e.seq_index == 2)
    assert [p - arrays.start[2] + 1 for p in entry.pivots] == [5, 7]


def test_project_drops_noncontaining_sequences(arrays, ids):
    pb = initial_projection(arrays, ids["b"])
    pbc = project(pb, arrays, ids["c"], S_STEP)
    # the sixth sequence has no c after any b element
    assert {e.seq_index for e in pbc.entries} == {0, 1, 2, 3, 4}


def test_project_repeated_item_across_elements(arrays, ids):
    pa = initial_projection(arrays, ids["a"])
    paa_s = project(pa, arrays, ids["a"], S_STEP)
    assert {e.seq_index for e in paa_s.entries} == {2, 4}
    paa_i = project(pa, arrays, ids["a"], I_STEP)
    assert not paa_i  # no element holds the same item twice


def test_pattern_utility_from_projection(arrays, example_nodes, ids):
    pb = initial_projection(arrays, ids["b"])
    pbc = project(pb, arrays, ids["c"], S_STEP)
    assert projected_utility(pbc) == example_nodes[b_then_c(ids)].utility == 160
    pf = initial_projection(arrays, ids["f"])
    assert projected_utility(pf) == example_nodes[Pattern.single(ids["f"])].utility == 24
    assert projected_utility(Projection()) == 0


def test_peu_from_projection(example_nodes, second_sequence_nodes, ids):
    assert second_sequence_nodes[b_then_c(ids)].peu == 42
    assert example_nodes[b_then_c(ids)].peu == 232


def test_peu_equals_utility_when_pattern_ends_sequence():
    # a pattern occupying the whole sequence leaves no remaining utility
    import io
    from huspmine import parse_dataset, bind_unit_utilities

    db = parse_dataset(io.StringIO("d[3] -2\n"))
    ut = bind_unit_utilities({"d": 1}, db.symbols)
    d = engine_bounds(db, ut, MTable((1,))).nodes[Pattern.single(db.symbols.id_of("d"))]
    assert d.peu == d.utility == 3
    assert d.seu == 3


def test_seu_from_projection(example_nodes, second_sequence_nodes, ids):
    assert example_nodes[b_then_c(ids)].seu == 249
    # second sequence: pattern utility 31 plus remaining 11 at the anchor
    only_s2 = second_sequence_nodes[b_then_c(ids)]
    assert only_s2.utility == 31
    assert only_s2.seu == 42


def test_swu_from_projection(example_nodes, ids):
    assert example_nodes[b_then_c(ids)].swu == 360


def test_projection_utility_matches_model(arrays, example_db, example_utable, ids):
    cases = [
        ((("b",), ("c",)), S_STEP),
        ((("b",),), None),
        ((("a",), ("b",)), S_STEP),
    ]
    for spec, kind in cases:
        items = [[ids[n] for n in grp] for grp in spec]
        proj = initial_projection(arrays, items[0][0])
        pattern = Pattern(((items[0][0],),))
        for grp in items[1:]:
            proj = project(proj, arrays, grp[0], S_STEP)
            pattern = Pattern(pattern.itemsets + ((grp[0],),))
        assert projected_utility(proj) == pattern_utility(
            pattern, example_db, example_utable
        )


def test_tombstoned_items_leave_positions_valid(arrays, example_mtable, ids):
    before = arrays.useq[2]
    arrays.drop({ids["e"]}, example_mtable)
    assert arrays.useq[2] == before - 8  # one e occurrence worth 8
    start = arrays.start[2]
    assert arrays.stop[2] - start == 8  # the removed occurrence leaves the arrays
    assert 2 not in arrays.where[ids["e"]]
    # remaining utilities skip the removed occurrence
    assert arrays.ru[start + 4] == 46 - 8


@pytest.mark.parametrize("bad", [-1, -2, 2])
def test_items_outside_the_tables_raise_unknown_item(bad):
    """``QItemset`` accepts any int id, but an id the tables do not cover
    stops ``mine()`` with ``UnknownItem`` naming it: a negative id does not
    wrap around to the last items' prices."""
    items = tuple(sorted((bad, 1)))
    seq = QSequence("s", (QItemset((0,), (1,)), QItemset(items, (1, 1))))
    db = QSDatabase((seq,), SymbolTable(("a", "b")))
    with pytest.raises(UnknownItem) as raised:
        mine(db, UtilityTable((1, 2)), MTable((1, 1)))
    assert raised.value.args == (bad,)


def test_fold_matches_equals_feeding_each_position():
    """Positions of distinct items, each its item's only match, folded into
    the node sums directly: the same sums as one ``feed`` per position and
    one ``end_sequence``, over several sequences sharing items, with offsets
    that may push a term past the sequence utility."""
    r = random.Random(5)
    for _ in range(200):
        n = r.randint(0, 8)
        arrays = SimpleNamespace(
            item=r.sample(range(12), n),
            # about half of the positions are worth nothing
            u=[r.choice((0, r.randint(1, 9))) for _ in range(n)],
            pool=[r.choice((r.randint(1, 30), float("inf"))) for _ in range(n)],
        )
        arrays.ru = [sum(arrays.u[q + 1:]) for q in range(n)]
        useq = sum(arrays.u)
        folded, fed = _ItemAccumulator(arrays), _ItemAccumulator(arrays)
        for _ in range(r.randint(1, 4)):
            start = r.randint(0, n)
            stop = r.randint(start, n)
            b = r.choice((0, r.randint(0, 20)))
            folded.fold_matches(start, stop, b, useq)
            for q in range(start, stop):
                fed.feed(arrays.item[q], b + arrays.u[q], arrays.ru[q], arrays.pool[q])
            fed.end_sequence(useq)
            assert folded.node == fed.node
            assert not folded.seq
