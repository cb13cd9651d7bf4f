"""Property suites: randomized cross-validation of the two computation paths."""

import io
import random
import re
from decimal import Decimal
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings, strategies as st

from huspmine import (
    ConfigError,
    MiningConfig,
    MTable,
    ParseError,
    bind_unit_utilities,
    Pattern,
    QSDatabase,
    QSequence,
    SymbolTable,
    UtilityTable,
    build_database_arrays,
    find_matches,
    generate_mtable,
    initial_projection,
    mine,
    brute_force_mine,
    parse_dataset,
    parse_item_values,
    pattern_utility,
    pattern_utility_in_sequence,
    project,
    qsequence_utility,
    serialize_dataset,
)
from huspmine import formats
from huspmine.model import match_utility
from huspmine.uarray import I_STEP, S_STEP, SequenceArrays
from huspmine.miner import (
    BOUND_PEU,
    BOUND_SEU,
    USPT,
    USPT1,
    USPT2,
    pattern_sort_key,
)
from huspmine.oracle import brute_force_bounds, enumerate_occurring

from support import (
    engine_bounds,
    max_sequence_length,
    mixed_instances,
    qitemset_from_pairs,
    zero_priced_instances,
)

N_ITEMS = 5


@st.composite
def qsequences(draw, max_elements=4, max_element_size=3):
    n_elems = draw(st.integers(1, max_elements))
    elements = []
    for _ in range(n_elems):
        size = draw(st.integers(1, max_element_size))
        items = draw(
            st.lists(st.integers(0, N_ITEMS - 1), min_size=size, max_size=size,
                     unique=True)
        )
        qtys = draw(st.lists(st.integers(1, 5), min_size=size, max_size=size))
        elements.append(qitemset_from_pairs(zip(items, qtys)))
    return QSequence("s", tuple(elements))


@st.composite
def patterns(draw, max_itemsets=3, max_itemset_size=2):
    k = draw(st.integers(1, max_itemsets))
    itemsets = []
    for _ in range(k):
        size = draw(st.integers(1, max_itemset_size))
        items = draw(
            st.lists(st.integers(0, N_ITEMS - 1), min_size=size, max_size=size,
                     unique=True)
        )
        itemsets.append(tuple(sorted(items)))
    return Pattern(tuple(itemsets))


UNIT = UtilityTable(tuple(range(1, N_ITEMS + 1)))


@given(qsequences(), patterns())
@settings(max_examples=300, deadline=None)
def test_match_enumeration_agrees_with_max_recursion(qseq, pattern):
    matches = find_matches(pattern, qseq)
    best = pattern_utility_in_sequence(pattern, qseq, UNIT)
    if not matches:
        assert best is None
    else:
        assert best == max(match_utility(m, qseq, UNIT) for m in matches)


@given(qsequences())
@settings(max_examples=200, deadline=None)
def test_array_suffix_sums_and_reconstruction(qseq):
    seq = SequenceArrays(qseq, UNIT, MTable((0,) * N_ITEMS))
    assert seq.ru[seq.n - 1] == 0
    for p in range(seq.n - 1):
        assert seq.ru[p] == seq.ru[p + 1] + seq.u[p + 1]
    assert sum(seq.u) == qsequence_utility(qseq, UNIT)


@given(st.lists(qsequences(), max_size=6))
@settings(max_examples=150, deadline=None)
def test_dataset_serialization_round_trip(seqs):
    names = SymbolTable(tuple(chr(ord("a") + i) for i in range(N_ITEMS)))
    db = QSDatabase(
        tuple(QSequence(str(i + 1), s.elements) for i, s in enumerate(seqs)),
        names,
    )
    text = serialize_dataset(db)
    again = parse_dataset(io.StringIO(text))
    if db.sequences:
        # reparsing interns only the items that occur, so compare contents
        rendered = [
            [[(db.symbols.name_of(i), q) for i, q in e.entries()]
             for e in s.elements]
            for s in db.sequences
        ]
        reparsed = [
            [[(again.symbols.name_of(i), q) for i, q in e.entries()]
             for e in s.elements]
            for s in again.sequences
        ]
        assert rendered == reparsed
    else:
        assert len(again) == 0


# names of every kind: numeric, numeric with leading zeros, identifiers
_LAYOUT_NAMES = ["0", "7", "07", "12", "a", "b", "_x", "Z9", "SUtility"]
_JUNK_LINES = ["a[1] -1 -2", "a[x] -2", "-2", "a[1]", "a[1] -2 b[1]", "a[1]\t-2", "a[-1] -2"]
# fullmatches nothing, so every line and table takes the loops
_NEVER = re.compile(r"(?!)")


@st.composite
def _dataset_layouts(draw):
    """A dataset text, and unit utilities or None.  A text is canonical, or
    has one kind of deviation on some of its lines: doubled, leading or
    trailing spaces, CRLF, blank lines, zero or zero-padded quantities,
    duplicate items, or malformed lines.  A SUtility trailer may be right,
    zero-padded or wrong, and an item may lack a unit utility."""
    deviation = draw(st.sampled_from([
        "none", "doubled", "leading", "trailing", "crlf", "blank", "zero",
        "zero-padded", "duplicate", "junk"]))
    units = dict(zip(_LAYOUT_NAMES, draw(st.lists(
        st.integers(0, 9), min_size=len(_LAYOUT_NAMES), max_size=len(_LAYOUT_NAMES)))))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if deviation in ("blank", "junk") and draw(st.booleans()):
            lines.append(draw(st.sampled_from(
                ["", " ", "   "] if deviation == "blank" else _JUNK_LINES)))
            continue
        deviates = draw(st.booleans())
        elements = []
        for _ in range(draw(st.integers(1, 4))):
            names = draw(st.lists(st.sampled_from(_LAYOUT_NAMES), min_size=1, max_size=3,
                                  unique=True))
            if deviation == "duplicate" and deviates:
                names.insert(draw(st.integers(0, len(names))), names[0])
            element = [(n, str(draw(st.integers(1, 40)))) for n in names]
            if deviation in ("zero", "zero-padded") and deviates:
                k = draw(st.integers(0, len(element) - 1))
                n, q = element[k]
                element[k] = (n, "0" * len(q) if deviation == "zero" else "0" + q)
            elements.append(element)
        tokens = []
        for element in elements:
            tokens += ["-1"] * bool(tokens) + [f"{n}[{q}]" for n, q in element]
        tokens.append("-2")
        right = sum(int(q) * units[n] for element in elements for n, q in element)
        trailer = draw(st.sampled_from(["none", "right", "wrong"]))
        if trailer != "none":
            value = right + (trailer == "wrong")
            padding = "0" if deviation == "zero-padded" and deviates else ""
            tokens.append(f"SUtility:{padding}{value}")
        line = ("  " if deviation == "doubled" and deviates else " ").join(tokens)
        if deviates and deviation in ("leading", "trailing"):
            line = " " + line if deviation == "leading" else line + " "
        lines.append(line)
    newline = "\r\n" if deviation == "crlf" else "\n"
    text = newline.join(lines) + newline * draw(st.booleans())
    for name in draw(st.sampled_from([(), (), ("a",), ("07", "b")])):
        del units[name]
    return text, draw(st.sampled_from([units, None]))


def _outcome(parse, *args):
    """What ``parse(*args)`` gives: its result, or its error's type and text
    (a ParseError's text holds its line and column)."""
    try:
        return parse(*args)
    except (ParseError, ConfigError) as exc:
        return type(exc), str(exc)


@given(_dataset_layouts())
@settings(max_examples=400, deadline=None)
def test_fast_path_parses_datasets_like_the_token_loop(layout):
    text, units = layout
    with mock.patch.object(formats, "_CANONICAL_LINE", _NEVER):
        want = _outcome(parse_dataset, io.StringIO(text), units)
    assert _outcome(parse_dataset, io.StringIO(text), units) == want


@st.composite
def _table_layouts(draw):
    """A table text.  A text is canonical, or has one kind of deviation on
    some of its lines: a sign, a zero-padded value, a tab, doubled, leading
    or trailing spaces, comments, blank lines, too many fields, CRLF, or
    no final newline.  Names repeat in all of them."""
    deviation = draw(st.sampled_from([
        "none", "sign", "zero-padded", "tab", "doubled", "leading", "trailing",
        "comment", "blank", "junk", "crlf", "unterminated"]))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        deviates = draw(st.booleans())
        if deviates and deviation in ("comment", "blank", "junk"):
            lines.append(draw(st.sampled_from({
                "comment": ["# prices", "a 1 # note"],
                "blank": ["", " "],
                "junk": ["a b c", "a", "a[1] 3", "a 1_0"],
            }[deviation])))
            continue
        name = draw(st.sampled_from(_LAYOUT_NAMES))
        value = str(draw(st.integers(0, 40)))
        if deviates and deviation == "sign":
            value = draw(st.sampled_from(["-", "+"])) + value
        if deviates and deviation == "zero-padded":
            value = "0" + value
        separator = {"tab": "\t", "doubled": "  "}.get(deviation, " ") if deviates else " "
        line = f"{name}{separator}{value}"
        if deviates and deviation in ("leading", "trailing"):
            line = " " + line if deviation == "leading" else line + " "
        lines.append(line)
    newline = "\r\n" if deviation == "crlf" else "\n"
    ended = deviation != "unterminated" or draw(st.booleans())
    return newline.join(lines) + newline * ended


@given(_table_layouts())
@settings(max_examples=400, deadline=None)
def test_fast_path_parses_tables_like_the_line_loop(text):
    with mock.patch.object(formats, "_CANONICAL_TABLE", _NEVER):
        want = _outcome(parse_item_values, io.StringIO(text))
    assert _outcome(parse_item_values, io.StringIO(text)) == want


_MONO_DB = parse_dataset(io.StringIO("a[2] b[1] -1 c[3] -2\nb[4] -1 a[1] -2\n"))
_MONO_UT = UtilityTable((3, 2, 5))


@given(st.floats(0, 3), st.floats(0, 3), st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=100, deadline=None)
def test_mtable_generation_monotone(beta1, beta2, f1, f2):
    lo_b, hi_b = sorted((beta1, beta2))
    lo_f, hi_f = sorted((f1, f2))
    small = generate_mtable(_MONO_DB, _MONO_UT, lo_b, lo_f)
    big_beta = generate_mtable(_MONO_DB, _MONO_UT, hi_b, lo_f)
    big_f = generate_mtable(_MONO_DB, _MONO_UT, lo_b, hi_f)
    assert all(x <= y for x, y in zip(small.mu, big_beta.mu))
    assert all(x <= y for x, y in zip(small.mu, big_f.mu))


def _half_up(x: Fraction) -> int:
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


@st.composite
def _threshold_cases(draw):
    """Decimal factors with ``k`` places, and item totals that are often
    multiples of 10**k / 2, where a product can land exactly on a half."""
    k = draw(st.integers(0, 6))
    step = 5 * 10 ** (k - 1) if k else 1
    totals = draw(st.lists(
        st.one_of(st.integers(1, 10**5), st.integers(1, 200).map(lambda r: r * step)),
        min_size=1, max_size=4,
    ))
    return totals, draw(st.integers(0, 10**6)), draw(st.integers(0, 10**k)), k


@given(_threshold_cases())
@settings(max_examples=300, deadline=None)
def test_mtable_generation_matches_exact_rational_rounding(case):
    """Thresholds equal half-up rounding of the exact rational products,
    with both factors passed as decimal text."""
    totals, beta_units, lmu_units, k = case
    beta, lmu = Fraction(beta_units, 10**k), Fraction(lmu_units, 10**k)
    names = [chr(ord("a") + i) for i in range(len(totals))]
    text = "".join(f"{n}[{q}] -2\n" for n, q in zip(names, totals))
    db = parse_dataset(io.StringIO(text))
    ut = bind_unit_utilities({n: 1 for n in names}, db.symbols)
    floor = _half_up(lmu * sum(totals))
    want = tuple(max(_half_up(beta * t), floor) for t in totals)
    as_text = [str(Decimal(n).scaleb(-k)) for n in (beta_units, lmu_units)]
    assert generate_mtable(db, ut, *as_text).mu == want


@given(st.floats(0, 3), st.floats(0, 1))
@settings(max_examples=100, deadline=None)
def test_mtable_generation_reads_floats_as_their_decimal_form(beta, f):
    assert generate_mtable(_MONO_DB, _MONO_UT, beta, f) == generate_mtable(
        _MONO_DB, _MONO_UT, repr(beta), repr(f)
    )


def test_projection_utilities_match_model_on_random_instances():
    """Every occurring pattern's projection, derived from its parent's by
    the step that appends its last item, is non-empty and gives the model's
    utility."""
    checked = 0
    for db, utable, mtable in mixed_instances(20):
        arrays = build_database_arrays(db, utable, mtable)
        cap = min(5, max_sequence_length(db))
        projection_of = {}
        # pre-order: every pattern comes after its parent
        for pattern, utility in enumerate_occurring(db, utable, cap):
            last = pattern.itemsets[-1]
            parent = pattern.parent()
            if parent is None:
                proj = initial_projection(arrays, last[-1])
            else:
                kind = I_STEP if len(last) > 1 else S_STEP
                proj = project(projection_of[parent], arrays, last[-1], kind)
            projection_of[pattern] = proj
            assert proj.entries
            assert sum(max(e.best) for e in proj.entries) == utility
            assert utility == pattern_utility(pattern, db, utable)
            checked += 1
    assert checked > 200


def test_bound_chain_and_monotonicity_on_random_instances():
    sampled = 0
    edges = 0
    for db, utable, mtable in mixed_instances(25):
        cap = min(6, max_sequence_length(db))
        bounds_of = {}
        for pattern, utility in enumerate_occurring(db, utable, cap):
            b = brute_force_bounds(pattern, db, utable, mtable)
            bounds_of[pattern] = b
            sampled += 1
            assert b.utility == utility
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
    assert edges >= 500


def test_engine_matches_oracle_across_variants():
    """Every variant under either node bound gives the oracle's results,
    also when some items are priced 0."""
    configs = [MiningConfig(variant=variant, node_bound=node_bound)
               for variant in (USPT1, USPT2, USPT)
               for node_bound in (BOUND_PEU, BOUND_SEU)]
    for db, utable, mtable in mixed_instances(15) + zero_priced_instances(60):
        want = [
            (h.pattern, h.utility, h.miu)
            for h in brute_force_mine(db, utable, mtable, max_sequence_length(db))
        ]
        for config in configs:
            got, _ = mine(db, utable, mtable, config)
            assert [(h.pattern, h.utility, h.miu) for h in got] == want


def test_uniform_threshold_special_case():
    from huspmine import MTable

    for db, utable, _ in mixed_instances(8):
        theta = max(1, sum(
            qsequence_utility(s, utable) for s in db.sequences
        ) // 20)
        uniform = MTable(tuple([theta] * len(db.symbols)))
        got, _ = mine(db, utable, uniform)
        want = brute_force_mine(db, utable, uniform, max_sequence_length(db))
        assert [(h.pattern, h.utility) for h in got] == [
            (h.pattern, h.utility) for h in want
        ]
        for h in got:
            assert h.utility >= theta
            assert h.miu == theta


def test_output_sorted_by_pattern_order():
    emitted = 0
    for db, utable, mtable in mixed_instances(10):
        for variant in (USPT1, USPT2, USPT):
            for node_bound in (BOUND_PEU, BOUND_SEU):
                for cap in (None, 1, 2, 3):
                    config = MiningConfig(variant=variant, node_bound=node_bound,
                                          max_pattern_length=cap)
                    got, _ = mine(db, utable, mtable, config)
                    keys = [pattern_sort_key(h.pattern) for h in got]
                    assert keys == sorted(keys)
                    emitted += len(keys)
    assert emitted > 0


def test_projections_hold_at_most_one_pivot_per_element(monkeypatch):
    """Every projection the engine builds, single-pivot children included,
    has at most one pivot in any element: a pivot is an occurrence of the
    pattern's last item, which an element holds once."""
    import huspmine.miner as miner_module

    arrays = []
    built = {}
    real_build = miner_module.build_database_arrays

    def build(*args):
        arrays[:] = real_build(*args)
        return arrays

    def checked(fn):
        def wrapper(*args):
            proj = fn(*args)
            for entry in proj.entries:
                eid = arrays[entry.seq_index].eid
                elements = [eid[p] for p in entry.pivots]
                assert len(set(elements)) == len(elements)
            built[fn.__name__] = built.get(fn.__name__, 0) + 1
            return proj
        return wrapper

    monkeypatch.setattr(miner_module, "build_database_arrays", build)
    for name in ("initial_projection", "project"):
        monkeypatch.setattr(miner_module, name, checked(getattr(miner_module, name)))
    for db, utable, mtable in mixed_instances(30):
        for variant in (USPT1, USPT):
            for node_bound in (BOUND_PEU, BOUND_SEU):
                mine(db, utable, mtable,
                     MiningConfig(variant=variant, node_bound=node_bound))
    assert built.keys() == {"initial_projection", "project"}


def _without_items(db, doomed):
    """The database with every occurrence of the ``doomed`` items deleted."""
    if not doomed:
        return db
    sequences = []
    for qseq in db.sequences:
        elements = []
        for element in qseq.elements:
            kept = [(i, q) for i, q in element.entries() if i not in doomed]
            if kept:
                elements.append(qitemset_from_pairs(kept))
        if elements:
            sequences.append(QSequence(qseq.sid, tuple(elements)))
    return QSDatabase(tuple(sequences), db.symbols)


def test_dropping_items_equals_building_without_them():
    """``drop`` leaves arrays field-for-field equal to arrays built from the
    sequence without the dropped items, also when whole elements or the
    whole sequence lose every item."""
    rng = random.Random(41)
    fields = SequenceArrays.__slots__
    emptied_elements = emptied_sequences = 0
    for db, utable, mtable in mixed_instances(30):
        present = sorted(db.distinct_items())
        for _ in range(4):
            doomed = set(rng.sample(present, rng.randint(1, len(present))))
            for qseq in db.sequences:
                seq = SequenceArrays(qseq, utable, mtable)
                assert seq.drop(doomed, mtable) == bool(qseq.distinct_items() & doomed)
                rest = _without_items(QSDatabase((qseq,), db.symbols), doomed).sequences
                if not rest:
                    emptied_sequences += 1
                    assert (seq.n, seq.useq) == (0, 0)
                    continue
                fresh = SequenceArrays(rest[0], utable, mtable)
                assert {f: getattr(seq, f) for f in fields} == {
                    f: getattr(fresh, f) for f in fields
                }
                emptied_elements += len(rest[0].elements) < len(qseq.elements)
    assert emptied_elements > 100 and emptied_sequences > 100


def _swu(item, db, utable):
    """Whole-sequence weight of an item, from its match lists."""
    return brute_force_bounds(Pattern.single(item), db, utable).swu


def _drop_globally_hopeless_items(db, utable, mtable):
    """Model-level replica of the engine's pre-filter: delete items whose
    whole-sequence weight sits below the least threshold of any item."""
    present = sorted(db.distinct_items())
    if not present:
        return db
    floor = min(mtable.of(i) for i in present)
    return _without_items(db, {i for i in present if _swu(i, db, utable) < floor})


def _drop_swu_hopeless_items(db, utable, mtable):
    """Model-level replica of the SWU strategy: delete items whose
    whole-sequence weight sits below the least threshold found in any
    sequence containing them."""
    doomed = set()
    for item in db.distinct_items():
        guard = min(
            min(mtable.of(i) for i in qseq.distinct_items())
            for qseq in db.sequences
            if item in qseq.distinct_items()
        )
        if _swu(item, db, utable) < guard:
            doomed.add(item)
    return _without_items(db, doomed)


def test_engine_node_bounds_match_the_match_list_oracle():
    """Every bound the search computes, and every standalone extension
    bound, must equal the value recomputed from explicit match lists over
    the database the variant leaves: pre-filtered under uspt1, and further
    cut by the SWU strategy under uspt2 and uspt.  Some inputs price items
    at 0."""
    from huspmine import MiningObserver

    class Collect(MiningObserver):
        def __init__(self):
            self.nodes = {}
            self.item_peu = None

        def on_item_extension_bounds(self, peu_by_item):
            self.item_peu = peu_by_item

        def on_node(self, pattern, bounds, expanded):
            self.nodes[pattern] = bounds

    compared = 0
    swu_removals = 0
    for db, utable, mtable in mixed_instances(10) + zero_priced_instances(10):
        prefiltered = _drop_globally_hopeless_items(db, utable, mtable)
        after_swu = _drop_swu_hopeless_items(prefiltered, utable, mtable)
        swu_removals += len(prefiltered.distinct_items() - after_swu.distinct_items())
        for variant in (USPT1, USPT2, USPT):
            reduced = prefiltered if variant == USPT1 else after_swu
            col = Collect()
            mine(db, utable, mtable, MiningConfig(variant=variant), observer=col)
            assert sorted(col.item_peu) == sorted(reduced.distinct_items())
            for item, peu in col.item_peu.items():
                assert peu == brute_force_bounds(
                    Pattern.single(item), reduced, utable, mtable
                ).peu
            for pattern, b in col.nodes.items():
                ob = brute_force_bounds(pattern, reduced, utable, mtable)
                assert (b.utility, b.peu, b.seu, b.swu, b.pmiu, b.miu) == (
                    ob.utility, ob.peu, ob.seu, ob.swu, ob.pmiu, ob.miu
                )
                compared += 1
    assert compared > 900
    assert swu_removals >= 1


def test_seu_gated_node_bounds_match_the_match_list_oracle():
    """Under the SEU gate the search expands nodes the PEU gate never
    reaches; the bounds of every visited node, scan-computed for all but
    the roots, still equal the match-list values."""
    compared = 0
    for db, utable, mtable in mixed_instances(10):
        nodes = engine_bounds(db, utable, mtable,
                              MiningConfig(variant=USPT1, node_bound=BOUND_SEU)).nodes
        reduced = _drop_globally_hopeless_items(db, utable, mtable)
        for pattern, b in nodes.items():
            ob = brute_force_bounds(pattern, reduced, utable, mtable)
            assert (b.utility, b.peu, b.seu, b.swu, b.pmiu, b.miu) == (
                ob.utility, ob.peu, ob.seu, ob.swu, ob.pmiu, ob.miu
            )
            compared += 1
    assert compared > 300


def test_capped_length_matches_capped_oracle():
    for db, utable, mtable in mixed_instances(8):
        cap = max(1, max_sequence_length(db) // 2)
        want = [
            (h.pattern, h.utility, h.miu)
            for h in brute_force_mine(db, utable, mtable, max_len=cap)
        ]
        got, _ = mine(db, utable, mtable, MiningConfig(max_pattern_length=cap))
        assert [(h.pattern, h.utility, h.miu) for h in got] == want


def test_seu_node_bound_equivalence_on_random_instances():
    from huspmine.miner import BOUND_SEU

    for db, utable, mtable in mixed_instances(10):
        want = [
            (h.pattern, h.utility)
            for h in brute_force_mine(db, utable, mtable, max_sequence_length(db))
        ]
        for variant in (USPT1, USPT):
            got, _ = mine(db, utable, mtable,
                          MiningConfig(variant=variant, node_bound=BOUND_SEU))
            assert [(h.pattern, h.utility) for h in got] == want
