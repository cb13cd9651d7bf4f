"""Parsing, serialization, threshold generation, synthetic data."""

import io
import json
import re

import pytest

from huspmine import (
    Husp,
    MiningConfig,
    ModelError,
    ParseError,
    Pattern,
    QItemset,
    QSDatabase,
    QSequence,
    SUtilityMismatch,
    SymbolTable,
    UnknownItem,
    UtilityTable,
    bind_thresholds,
    bind_unit_utilities,
    database_utility,
    generate_mtable,
    generate_synthetic,
    mine,
    parse_dataset,
    parse_item_values,
    parse_pattern_string,
    parse_results,
    serialize_dataset,
    serialize_item_values,
    write_results,
)
from huspmine.formats import GenParams

from support import mixed_instances



def test_parse_third_sequence(example_db, ids):
    s3 = example_db.sequences[2]
    assert s3.length == 9
    assert [
        [(i, q) for i, q in e.entries()] for e in s3.elements
    ] == [
        [(ids["a"], 3), (ids["b"], 2)],
        [(ids["a"], 2), (ids["b"], 3), (ids["c"], 1)],
        [(ids["b"], 4), (ids["c"], 5), (ids["e"], 4)],
        [(ids["d"], 3)],
    ]


def test_parse_full_files_total(example_db, example_utable):
    assert database_utility(example_db, example_utable) == 441


PARSE_ERRORS = [
    ("-2\n", "empty sequence", 1, 1),
    ("a[1] -1 -2\n", "empty element", 1, 9),
    ("a[1] b[0] -2\n", "quantity", 1, 6),
    ("a[1] a[2] -2\n", "duplicate item", 1, 6),
    ("a[1]\n", "not terminated", 1, 1),
    ("a[1] -2 b[2]\n", "after -2", 1, 9),
    ("a[x] -2\n", "bad token", 1, 1),
    # positions on later lines, after blank lines, leading and doubled spaces
    ("a[1]  -1  b[1] b[2] -2", "duplicate item", 1, 16),
    ("  -2", "empty sequence", 1, 3),
    ("a[1]  -2 -2\n", "after -2", 1, 10),
    ("a[1] -2\n  b[1]\n", "not terminated", 2, 1),
    ("a[1] -2\n  x[1]  b[1]  -1 -1 -2\n", "empty element before -1", 2, 18),
    ("a[1] -2\nb[1] -2 SUtility:3 SUtility:3\n", "after -2", 2, 20),
    ("a[1] -2\r\n a[1] -1  b[y]\r\n", "bad token", 2, 11),
    ("  a[1] -2\n\n   a[1]  -1   -2\n", "empty element before -2", 3, 15),
    ("a[1] -2\n\n  a[1] -2  junk\n", "after -2", 3, 12),
    # the SUtility trailer is checked after the whole file has parsed
    ("a[2] -1 b[1] -2 SUtility:14\n", "declared SUtility 14", 1, 17),
    ("a[1] -2 SUtility:4\n  a[2]  -1  b[1]  -2   SUtility:14\n",
     "declared SUtility 14", 2, 24),
    ("a[1] -2 SUtility:5\nb[x] -2\n", "bad token", 2, 1),
    # an integer has at most 1,000 digits, leading zeros included
    ("a[1] b[" + "7" * 1001 + "] -2\n", "more than 1000 digits", 1, 6),
    ("a[" + "0" * 1000 + "1] -2\n", "more than 1000 digits", 1, 1),
    ("a[1] -2 SUtility:" + "4" * 1001 + "\n", "more than 1000 digits", 1, 9),
]


@pytest.mark.parametrize(
    "text,fragment,line,col",
    PARSE_ERRORS,
    ids=[f"{text}-{fragment}" for text, fragment, _, _ in PARSE_ERRORS],
)
def test_parse_errors(text, fragment, line, col):
    with pytest.raises(ParseError) as err:
        parse_dataset(io.StringIO(text), unit_utilities={"a": 4, "b": 5})
    assert fragment in str(err.value)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value).startswith(f"line {line}, col {col}: ")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_dataset(io.StringIO("a[1] -2\nb[1] b[2] -2\n"))
    assert err.value.line == 2
    assert err.value.col == 6


def test_sutility_verified():
    units = {"a": 4, "b": 5}
    good = "a[2] -1 b[1] -2 SUtility:13\n"
    db = parse_dataset(io.StringIO(good), unit_utilities=units)
    assert len(db) == 1
    with pytest.raises(SUtilityMismatch):
        parse_dataset(io.StringIO("a[2] -1 b[1] -2 SUtility:14\n"), unit_utilities=units)
    # trailer ignored without a utility table
    parse_dataset(io.StringIO("a[2] -1 b[1] -2 SUtility:999\n"))


def test_dataset_round_trip(example_db, example_utable):
    text = serialize_dataset(example_db)
    again = parse_dataset(io.StringIO(text))
    assert again == example_db
    with_trailers = serialize_dataset(example_db, example_utable)
    assert "SUtility:94" in with_trailers
    verified = parse_dataset(
        io.StringIO(with_trailers),
        unit_utilities={n: example_utable.of(example_db.symbols.id_of(n))
                        for n in example_db.symbols.names},
    )
    assert verified == example_db


def test_crlf_accepted():
    db = parse_dataset(io.StringIO("a[1] -2\r\nb[2] -2\r\n"))
    assert len(db) == 2


@pytest.mark.parametrize(
    "sep", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_lines_end_only_at_newline(sep):
    """Only ``\\n`` ends a line (a ``\\r`` before it is dropped): the other
    Unicode line boundaries are ordinary characters of a token."""
    with pytest.raises(ParseError) as err:
        parse_dataset(io.StringIO(f"a[1] -2{sep}b[2] -2\n"))
    assert "bad token" in str(err.value)
    assert (err.value.line, err.value.col) == (1, 6)
    with pytest.raises(ParseError) as err:
        parse_dataset(io.StringIO(f"a[1] -2\nb[x]{sep}c[1] -2\n"))
    assert (err.value.line, err.value.col) == (2, 1)
    with pytest.raises(ParseError) as err:
        parse_item_values(io.StringIO(f"a 4{sep}b 5\n"))
    assert err.value.line == 1
    assert parse_item_values(io.StringIO("a 4\r\nb 5\r\n")) == {"a": 4, "b": 5}


def test_item_values_parsing():
    values = parse_item_values(io.StringIO("# prices\na 4\nb 5  # inline\n\n"))
    assert values == {"a": 4, "b": 5}
    with pytest.raises(ParseError):
        parse_item_values(io.StringIO("a 4\na 5\n"))
    with pytest.raises(ParseError, match="negative value"):
        parse_item_values(io.StringIO("a -3\n"))
    with pytest.raises(ParseError):
        parse_item_values(io.StringIO("a b c\n"))
    round_trip = parse_item_values(io.StringIO(serialize_item_values(values)))
    assert round_trip == values


@pytest.mark.parametrize(
    "text,line,col",
    [
        ("a " + "9" * 1001 + "\n", 1, 3),
        ("a 1\n  b\t" + "0" * 1001 + "  # long\n", 2, 5),
        ("a 4\nb " + "5" * 5000, 2, 3),
    ],
    ids=["value", "zero-padded", "unterminated"],
)
def test_item_values_reject_long_integers(text, line, col):
    with pytest.raises(ParseError) as err:
        parse_item_values(io.StringIO(text))
    assert "more than 1000 digits" in str(err.value)
    assert (err.value.line, err.value.col) == (line, col)


def test_integers_of_1000_digits_parse():
    big = "9" * 1000
    assert parse_item_values(io.StringIO(f"a {big}\nb 0{big[1:]}\n")) == {
        "a": int(big), "b": int(big[1:])}
    db = parse_dataset(io.StringIO(f"a[{big}] -1 b[1] -2 SUtility:{big}\n"),
                       unit_utilities={"a": 1, "b": 0})
    assert db.sequences[0].elements[0].quantities == (int(big),)


def _parsed_layouts(text):
    """``text``, a dataset without SUtility trailers, parsed as it is, with
    the items of each element in reverse order, and from CRLF lines with
    doubled spaces, which the token loop reads."""
    reversed_items = "".join(
        " -1 ".join(" ".join(element.split(" ")[::-1]) for element in line.split(" -1 "))
        + " -2\n"
        for line in text.replace(" -2", "").splitlines()
    )
    loose = text.replace(" ", "  ").replace("\n", " \r\n")
    return [parse_dataset(io.StringIO(t)) for t in (text, reversed_items, loose)]


def test_parsed_objects_equal_checked_ones():
    """The parser builds its q-itemsets and q-sequences without running
    their checks; each equals, and hashes like, the checked object."""
    data, _ = generate_synthetic(GenParams(n_sequences=300, n_items=40, seed=11))
    dbs = _parsed_layouts(re.sub(" SUtility:[0-9]+", "", data))
    assert dbs[0] == dbs[1] == dbs[2]
    for db in dbs:
        for s in db.sequences:
            checked = QSequence(s.sid, s.elements)
            assert s == checked and hash(s) == hash(checked)
            for e in s.elements:
                checked = QItemset(e.items, e.quantities)
                assert e == checked and hash(e) == hash(checked)


NOT_ASCII_INTEGERS = [
    (parse_results, "pattern\tutility\tmiu\n[a]\t1_000\t1\n"),
    (parse_results, "pattern\tutility\tmiu\n[a]\t+7\t1\n"),
    (parse_results, "pattern\tutility\tmiu\n[a]\t 7\t1\n"),
    (parse_results, "pattern\tutility\tmiu\n[a]\t7\t\u0663\n"),
    (parse_results, "pattern\tutility\tmiu\n[a]\t-3\t1\n"),
    (parse_results, '{"husps": [{"pattern": "[a]", "utility": -4, "miu": 1}]}'),
    (parse_results, '{"husps": [{"pattern": "[a]", "utility": 4, "miu": -1}]}'),
    (parse_item_values, "a 1_000\n"),
    (parse_item_values, "a +7\n"),
    (parse_item_values, "a \u0663\n"),
    (parse_item_values, "a -0\n"),
    (parse_dataset, "a[\u0663] -2\n"),
    (parse_dataset, "\u0663[1] -2\n"),
    (parse_dataset, "a[1] -2 SUtility:\u0663\n"),
]


@pytest.mark.parametrize(
    "parse,text",
    NOT_ASCII_INTEGERS,
    ids=[f"{parse.__name__}-{text!r}" for parse, text in NOT_ASCII_INTEGERS],
)
def test_integers_are_ascii_digits(parse, text):
    """An integer in any input file is ASCII digits: ``int`` alone would
    also read ``_`` separators, a sign, blanks and other Unicode digits
    (``\u0663`` is the Arabic-Indic three).  Result files name item ``a``,
    which the symbol table knows."""
    symbols = (SymbolTable(("a",)),) if parse is parse_results else ()
    with pytest.raises(ValueError):
        parse(io.StringIO(text), *symbols)


def test_bind_reports_missing_items(example_db):
    from huspmine import ConfigError

    with pytest.raises(ConfigError):
        bind_unit_utilities({"a": 1}, example_db.symbols)
    with pytest.raises(ConfigError):
        bind_thresholds({"a": 1}, example_db.symbols)


def test_generate_mtable_uniform_case(example_db, example_utable):
    mt = generate_mtable(example_db, example_utable, beta=0.0, lmu_fraction=0.1)
    assert set(mt.mu) == {round(0.1 * 441)}
    zero = generate_mtable(example_db, example_utable, beta=0.0, lmu_fraction=0.0)
    assert set(zero.mu) == {0}


def test_generate_mtable_item_totals(example_db, example_utable, ids):
    mt = generate_mtable(example_db, example_utable, beta=1.0, lmu_fraction=0.0)
    assert mt.of(ids["f"]) == 24  # f occurs once with quantity 4 at unit 6


def test_generate_mtable_reports_an_uncovered_item():
    # ids a=0, b=1, c=2; c occurs before b, so c is the first item missed
    db = parse_dataset(io.StringIO("a[1] -1 c[1] -1 b[1] -2\n"))
    with pytest.raises(UnknownItem) as err:
        generate_mtable(db, UtilityTable((1,)), 1, 0)
    assert err.value.args == (2,)
    assert generate_mtable(db, UtilityTable((1, 2, 3, 4)), 1, 0).mu == (1, 2, 3)
    # an item of the symbol table that never occurs needs no unit utility
    sparse = QSDatabase(db.sequences[:1], SymbolTable(("a", "b", "c", "d")))
    assert generate_mtable(sparse, UtilityTable((1, 2, 3)), 1, 0).mu == (1, 2, 3, 0)


def test_generate_mtable_monotone(example_db, example_utable):
    base = generate_mtable(example_db, example_utable, 0.5, 0.05)
    more_beta = generate_mtable(example_db, example_utable, 0.8, 0.05)
    more_lmu = generate_mtable(example_db, example_utable, 0.5, 0.2)
    assert all(x <= y for x, y in zip(base.mu, more_beta.mu))
    assert all(x <= y for x, y in zip(base.mu, more_lmu.mu))


def test_generate_mtable_rounds_exact_products_half_up():
    # 0.009 * 1500 is exactly 13.5; in binary floats it lands just below
    db = parse_dataset(io.StringIO("a[1500] -2\n"))
    ut = bind_unit_utilities({"a": 1}, db.symbols)
    for factor in (0.009, "0.009"):
        assert generate_mtable(db, ut, factor, 0).mu == (14,)
        assert generate_mtable(db, ut, 0, factor).mu == (14,)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), "1.2.3", "x"])
def test_generate_mtable_rejects_non_numbers(example_db, example_utable, bad):
    with pytest.raises(ValueError):
        generate_mtable(example_db, example_utable, bad, 0.1)


def test_generate_synthetic_deterministic():
    params = GenParams(n_sequences=50, n_items=10, seed=42)
    assert generate_synthetic(params) == generate_synthetic(params)
    other = GenParams(n_sequences=50, n_items=10, seed=43)
    assert generate_synthetic(other) != generate_synthetic(params)


def test_generate_synthetic_empty():
    data, units = generate_synthetic(GenParams(n_sequences=0, n_items=3, seed=1))
    assert data == ""
    db = parse_dataset(io.StringIO(data))
    assert len(db) == 0


def test_generate_synthetic_round_trip():
    data, units = generate_synthetic(
        GenParams(n_sequences=1000, n_items=100, seed=7)
    )
    values = parse_item_values(io.StringIO(units))
    db = parse_dataset(io.StringIO(data), unit_utilities=values)  # verifies SUtility
    ut = bind_unit_utilities(values, db.symbols)
    assert database_utility(db, ut) > 0
    assert parse_dataset(io.StringIO(serialize_dataset(db))) == db
    assert all(1 <= v <= 1000 for v in values.values())


def test_gen_params_validation():
    with pytest.raises(ValueError):
        GenParams(n_sequences=-1, n_items=3)
    with pytest.raises(ValueError):
        GenParams(n_sequences=1, n_items=0)
    with pytest.raises(ValueError):
        GenParams(n_sequences=1, n_items=3, quantity_range=(0, 5))


def test_write_results_tsv(example_db, example_utable, example_mtable):
    husps, stats = mine(example_db, example_utable, example_mtable)
    text = write_results(husps, stats, "tsv", example_db.symbols)
    lines = text.splitlines()
    assert lines[0] == "pattern\tutility\tmiu"
    assert lines[1] == "[b],[c e]\t200\t200"
    assert len(lines) == 5
    empty = write_results([], None, "tsv", example_db.symbols)
    assert empty == "pattern\tutility\tmiu\n"


def test_write_results_json(example_db, example_utable, example_mtable):
    import json

    husps, stats = mine(example_db, example_utable, example_mtable, MiningConfig())
    payload = json.loads(write_results(husps, stats, "json", example_db.symbols))
    assert payload["husps"][0] == {"pattern": "[b],[c e]", "utility": 200, "miu": 200}
    assert payload["stats"]["husps_found"] == 4
    assert payload["stats"]["candidates_visited"] >= 4
    assert payload["stats"]["peak_memory_estimate"] == stats.peak_memory_estimate > 0
    empty = json.loads(write_results([], None, "json", example_db.symbols))
    assert empty == {"husps": [], "stats": None}


def test_results_round_trip(example_db, example_utable, example_mtable):
    husps, _ = mine(example_db, example_utable, example_mtable)
    for fmt in ("tsv", "json"):
        text = write_results(husps, None, fmt, example_db.symbols)
        again = parse_results(io.StringIO(text), example_db.symbols)
        assert again == husps
        crlf = io.StringIO(text.replace("\n", "\r\n"))
        assert parse_results(crlf, example_db.symbols) == husps


BAD_RESULT_ROWS = {
    "unknown name": ("[a],[b c]\n[a],[b zz]\n", UnknownItem, ("zz",)),
    "repeated item": ("[a],[b]\n[a],[b b]\n", ModelError,
                      ("pattern itemset not strictly increasing",)),
    "empty itemset": ("[a]\n[]\n", ModelError, ("pattern contains an empty itemset",)),
    # the second ``b b`` of the second row, and the third row's, are read
    # from the itemsets already met
    "bad itemset met again": ("[a],[c b]\n[c b],[b b],[b b]\n[b b]\n", ModelError,
                              ("pattern itemset not strictly increasing",)),
}


@pytest.mark.parametrize("patterns,error,args", BAD_RESULT_ROWS.values(),
                         ids=list(BAD_RESULT_ROWS))
@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_results_read_back_raise_as_single_patterns(patterns, error, args, fmt):
    """``parse_results`` reads each itemset's text once per call, and a bad
    pattern still raises what ``parse_pattern_string`` raises for it, of
    the same type with the same message, whether or not its itemsets were
    met before."""
    symbols = SymbolTable(("a", "b", "c"))
    rows = [(p, 5, 1) for p in patterns.splitlines()]
    if fmt == "tsv":
        text = "pattern\tutility\tmiu\n" + "".join(f"{p}\t{u}\t{m}\n" for p, u, m in rows)
    else:
        text = json.dumps({"husps": [{"pattern": p, "utility": u, "miu": m}
                                     for p, u, m in rows]})
    with pytest.raises(error) as raised:
        parse_results(io.StringIO(text), symbols)
    assert type(raised.value) is error and raised.value.args == args
    with pytest.raises(error) as single:
        parse_pattern_string(rows[1][0], symbols)
    assert type(single.value) is error and single.value.args == args


def _mixed_names(n):
    """``n`` item names, numeric and identifier names interleaved."""
    return SymbolTable(tuple(str(7 * i) if i % 2 else f"item_{i}" for i in range(n)))


def test_write_results_matches_pattern_render(example_db, example_utable, example_mtable):
    """Both formats equal a reference rendered row by row with
    ``Pattern.render``, on every result of the reference example and of
    ``mixed_instances(50)``, under their own and under mixed names."""
    import json

    instances = [(example_db, example_utable, example_mtable)] + mixed_instances(50)
    rows = 0
    for db, utable, mtable in instances:
        husps, stats = mine(db, utable, mtable)
        rows += len(husps)
        for symbols in (db.symbols, _mixed_names(len(db.symbols))):
            want = ["pattern\tutility\tmiu"] + [
                f"{h.pattern.render(symbols)}\t{h.utility}\t{h.miu}" for h in husps
            ]
            tsv = write_results(husps, stats, "tsv", symbols)
            assert tsv == "".join(line + "\n" for line in want)
            payload = json.loads(write_results(husps, None, "json", symbols))
            assert payload["husps"] == [
                {"pattern": h.pattern.render(symbols), "utility": h.utility,
                 "miu": h.miu}
                for h in husps
            ]
    assert rows > 1000


@pytest.mark.parametrize("fmt", ["tsv", "json"])
@pytest.mark.parametrize("item", [-1, -2, 2, 3])
def test_write_results_rejects_items_outside_the_table(fmt, item):
    """A negative id does not wrap around to the last names, and an id past
    the end is no name either: both raise ``UnknownItem``, as ``name_of``
    does."""
    symbols = SymbolTable(("a", "b"))
    with pytest.raises(UnknownItem):
        symbols.name_of(item)
    husps = [Husp(Pattern(((0,),)), 1, 1), Husp(Pattern(((0,), (item,))), 1, 1)]
    with pytest.raises(UnknownItem):
        write_results(husps, None, fmt, symbols)
    with pytest.raises(UnknownItem):
        write_results([Husp(Pattern(((item,),)), 1, 1)], None, fmt, symbols)


def test_pattern_string_round_trip(example_db, ids):
    from huspmine import Pattern

    t = Pattern(((ids["f"],), (ids["b"], ids["c"]), (ids["b"], ids["e"])))
    s = t.render(example_db.symbols)
    assert s == "[f],[b c],[b e]"
    assert parse_pattern_string(s, example_db.symbols) == t
