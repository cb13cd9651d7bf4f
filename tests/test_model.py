"""Core model: exact utilities, containment, matching."""

import io

import pytest

from huspmine import (
    Match,
    ModelError,
    Pattern,
    QItemset,
    QSequence,
    SymbolTable,
    UnknownItem,
    UtilityTable,
    bind_unit_utilities,
    database_utility,
    find_matches,
    item_utility,
    miu,
    parse_dataset,
    pattern_utility,
    pattern_utility_in_sequence,
    qitemset_utility,
    qsequence_utility,
)
from huspmine.model import match_utility

from support import qitemset_from_pairs


def test_item_utility_known_values(example_utable, ids):
    assert item_utility(ids["a"], 3, example_utable) == 12
    assert item_utility(ids["b"], 2, example_utable) == 10
    assert item_utility(ids["a"], 0, example_utable) == 0


def test_item_utility_unknown_item(example_utable):
    with pytest.raises(UnknownItem):
        item_utility(99, 1, example_utable)


def test_qitemset_utility(example_utable, ids):
    ab = qitemset_from_pairs([(ids["a"], 3), (ids["b"], 2)])
    assert qitemset_utility(ab, example_utable) == 22
    d3 = qitemset_from_pairs([(ids["d"], 3)])
    assert qitemset_utility(d3, example_utable) == 3


def test_empty_itemset_rejected():
    with pytest.raises(ModelError):
        QItemset((), ())


def test_qitemset_invariants():
    with pytest.raises(ModelError):
        QItemset((2, 1), (1, 1))  # not increasing
    with pytest.raises(ModelError):
        QItemset((1, 1), (1, 1))  # duplicate
    with pytest.raises(ModelError):
        QItemset((1,), (0,))  # zero quantity
    with pytest.raises(ModelError):
        QItemset((1, 2), (1,))  # length mismatch
    with pytest.raises(ModelError):
        QItemset((1, 2), (3, 0))  # zero quantity after the first item


def test_sequence_utilities(example_db, example_utable):
    s1, s3 = example_db.sequences[0], example_db.sequences[2]
    assert qsequence_utility(s3, example_utable) == 94
    assert qsequence_utility(s1, example_utable) == 56
    single = QSequence("x", (QItemset((0,), (3,)),))
    table = UtilityTable((1,))
    assert qsequence_utility(single, table) == 3


def test_database_utility(example_db, example_utable):
    assert database_utility(example_db, example_utable) == 441


def test_database_utility_single_sequence(example_db, example_utable):
    from huspmine import QSDatabase

    only_s3 = QSDatabase((example_db.sequences[2],), example_db.symbols)
    assert database_utility(only_s3, example_utable) == qsequence_utility(
        example_db.sequences[2], example_utable
    )
    assert database_utility(QSDatabase((), example_db.symbols), example_utable) == 0


def test_miu(example_mtable, ids):
    assert miu(Pattern(((ids["b"],),)), example_mtable) == 500
    assert miu(Pattern(((ids["b"], ids["e"]),)), example_mtable) == 200
    assert miu(Pattern(((ids["c"],),)), example_mtable) == example_mtable.of(ids["c"])


def test_miu_order_free(example_mtable, ids):
    flat = miu(Pattern(((ids["b"],), (ids["e"],))), example_mtable)
    nested = miu(Pattern(((ids["b"], ids["e"]),)), example_mtable)
    assert flat == nested == 200


def test_find_matches_multi(example_db, example_utable, ids):
    s3 = example_db.sequences[2]
    t = Pattern(((ids["b"],), (ids["c"],)))
    matches = find_matches(t, s3)
    assert len(matches) == 3
    utilities = sorted(match_utility(m, s3, example_utable) for m in matches)
    assert utilities == [13, 25, 30]
    # lexicographic order by position vector
    positions = [m.positions for m in matches]
    assert positions == sorted(positions)
    for m in matches:
        assert list(m.positions) == sorted(set(m.positions))
        assert m.element_ids[0] < m.element_ids[1]


def test_find_matches_none_in_s6(example_db, ids):
    s6 = example_db.sequences[5]
    assert find_matches(Pattern(((ids["b"],), (ids["c"],))), s6) == []


def test_find_matches_identity():
    seq = QSequence("x", (QItemset((0,), (1,)),))
    matches = find_matches(Pattern(((0,),)), seq)
    assert matches == [Match((1,), (1,))]


def test_pattern_utility_in_sequence(example_db, example_utable, ids):
    s3, s6 = example_db.sequences[2], example_db.sequences[5]
    t = Pattern(((ids["b"],), (ids["c"],)))
    assert pattern_utility_in_sequence(t, s3, example_utable) == 30
    assert pattern_utility_in_sequence(t, s6, example_utable) is None
    assert pattern_utility_in_sequence(
        Pattern(((ids["f"],),)), s6, example_utable
    ) == 24


def test_pattern_utility(example_db, example_utable, ids):
    assert pattern_utility(
        Pattern(((ids["b"],), (ids["c"],))), example_db, example_utable
    ) == 160
    assert pattern_utility(Pattern(((ids["b"],),)), example_db, example_utable) == 130


def test_pattern_utility_of_a_long_chain():
    """One sequence of 1,100 distinct single-item elements worth 1 each: the
    whole sequence, a pattern of 1,100 itemsets, is worth 1,100.  The table
    does not recurse per itemset, so the default recursion limit of 1,000 is
    no obstacle."""
    n = 1100
    names = [f"i{k}" for k in range(n)]
    db = parse_dataset(io.StringIO(" -1 ".join(f"{name}[1]" for name in names) + " -2\n"))
    utable = bind_unit_utilities({name: 1 for name in names}, db.symbols)
    whole = Pattern(tuple((db.symbols.id_of(name),) for name in names))
    assert pattern_utility(whole, db, utable) == n


def test_pattern_utility_absent_pattern(example_db, example_utable, ids):
    # f never occurs together with a in any sequence
    ghost = Pattern(((ids["a"],), (ids["f"],)))
    assert pattern_utility(ghost, example_db, example_utable) == 0
    # an item id the database has never seen
    assert pattern_utility(Pattern(((99,),)), example_db, example_utable) == 0


def test_pattern_invariants():
    with pytest.raises(ModelError):
        Pattern(())
    with pytest.raises(ModelError):
        Pattern(((),))
    with pytest.raises(ModelError):
        Pattern(((2, 1),))
    with pytest.raises(ModelError):
        Pattern(((1, 1),))  # duplicate item
    with pytest.raises(ModelError):
        Pattern(((1,), (3, 2, 4)))  # a later itemset out of order
    with pytest.raises(ModelError):
        Pattern(((1,), ()))  # a later itemset empty


def test_pattern_parent_chain(ids):
    t = Pattern(((ids["f"],), (ids["b"], ids["c"]), (ids["b"],)))
    chain = []
    cur = t
    while cur is not None:
        chain.append(cur)
        cur = cur.parent()
    assert [p.size for p in chain] == [4, 3, 2, 1]
    assert chain[-1] == Pattern(((ids["f"],),))


def test_symbol_table_orders_numeric_names():
    table = SymbolTable.from_names(["10", "2", "1"])
    assert table.names == ("1", "2", "10")
    assert table.id_of("10") == 2
    with pytest.raises(UnknownItem):
        table.id_of("3")


def test_symbol_table_orders_non_ascii_digits_as_identifiers():
    # "²" is a digit to str.isdigit but not to int(): it sorts as a name
    table = SymbolTable.from_names(["²", "a", "10", "9", "07", "7"])
    assert table.names == ("07", "7", "9", "10", "a", "²")


def test_sequence_length_and_flat(example_db):
    s3 = example_db.sequences[2]
    assert s3.length == 9
    flat = list(s3.flat())
    assert len(flat) == 9
    assert [eid for eid, _, _ in flat] == [1, 1, 2, 2, 2, 3, 3, 3, 4]
