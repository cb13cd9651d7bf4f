"""Seeded random instance builders shared by the property and acceptance suites."""

import io
import random

from huspmine import (
    MiningConfig,
    MiningObserver,
    MTable,
    Pattern,
    QItemset,
    UtilityTable,
    bind_unit_utilities,
    mine,
    parse_dataset,
    parse_item_values,
)
from huspmine.formats import GenParams, generate_synthetic
from huspmine.oracle import brute_force_bounds

ITEM_NAMES = [chr(ord("a") + i) for i in range(6)]


def qitemset_from_pairs(pairs):
    """The q-itemset of ``(item, quantity)`` pairs given in any order."""
    pairs = sorted(pairs)
    return QItemset(tuple(i for i, _ in pairs), tuple(q for _, q in pairs))


def uniform_instance(seed):
    """Small database from the synthetic generator with a randomly chosen
    threshold regime (near-zero, mixed, or high relative to item totals)."""
    r = random.Random(seed)
    params = GenParams(
        n_sequences=r.randint(2, 20),
        n_items=r.randint(2, 6),
        max_elements=r.randint(1, 4),
        max_element_size=r.randint(1, 2),
        quantity_range=(1, 5),
        seed=seed * 7919 + 13,
    )
    data, units = generate_synthetic(params)
    db = parse_dataset(io.StringIO(data))
    utable = bind_unit_utilities(parse_item_values(io.StringIO(units)), db.symbols)
    totals = [0] * len(db.symbols)
    for qseq in db.sequences:
        for _, item, qty in qseq.flat():
            totals[item] += qty * utable.of(item)
    regime = r.choice(["zeroish", "mixed", "high"])
    mus = []
    for t in totals:
        if regime == "zeroish":
            mus.append(r.randint(0, max(1, t // 4)))
        elif regime == "mixed":
            mus.append(r.randint(0, int(t * 1.3) + 5))
        else:
            mus.append(r.randint(max(1, t // 2), 2 * t + 10))
    return db, utable, MTable(tuple(mus))


def partitioned_db(seed):
    """Database with two item groups that rarely mix (one common, one rare)
    and log-normal prices, echoing the shape of real transaction data."""
    r = random.Random(seed)
    group_a, group_b = ITEM_NAMES[:4], ITEM_NAMES[4:]
    lines = []
    for _ in range(r.randint(6, 20)):
        pool = group_a if r.random() < 0.7 else group_b + r.sample(group_a, 2)
        parts = []
        for e in range(r.randint(2, 4)):
            element = r.sample(pool, min(r.randint(1, 2), len(pool)))
            if e:
                parts.append("-1")
            for name in sorted(element):
                parts.append(f"{name}[{r.randint(1, 5)}]")
        parts.append("-2")
        lines.append(" ".join(parts))
    db = parse_dataset(io.StringIO("\n".join(lines) + "\n"))
    units = {n: max(1, round(r.lognormvariate(1.5, 1.0))) for n in db.symbols.names}
    utable = bind_unit_utilities(units, db.symbols)
    return db, utable, r


def low_threshold_instance(seed, mult_lo=0.8, mult_hi=3.2):
    """Partitioned database with per-item thresholds drawn within
    [mult_lo, mult_hi] times the item's own standalone extension bound.

    The defaults bracket the reference example's threshold profile, whose
    ratios span 0.86 to 3.2; this is the regime where the pruning layers
    actually bite.
    """
    db, utable, r = partitioned_db(seed)
    mus = []
    for item in range(len(db.symbols)):
        peu_i = brute_force_bounds(Pattern.single(item), db, utable).peu
        mus.append(max(1, round(r.uniform(mult_lo, mult_hi) * peu_i)))
    return db, utable, MTable(tuple(mus))


def mixed_instances(n):
    """The equivalence-test corpus: a blend of generator shapes and
    threshold regimes, all seeded."""
    out = []
    for seed in range(n):
        if seed % 3 == 2:
            out.append(low_threshold_instance(1000 + seed, 0.4, 2.4))
        else:
            out.append(uniform_instance(seed))
    return [inst for inst in out if inst[0].sequences]


def zero_priced_instances(n):
    """``mixed_instances(n)`` with about 40% of the items repriced to 0,
    which the generators never draw: matches and extension terms worth
    nothing, and items whose every bound is 0."""
    out = []
    for seed, (db, utable, mtable) in enumerate(mixed_instances(n)):
        r = random.Random(seed)
        unit = tuple(0 if r.random() < 0.4 else u for u in utable.unit)
        out.append((db, UtilityTable(unit), mtable))
    return out


def paper_records(seq):
    """The paper's utility-array records ``(eid, item, u, ru, next_pos,
    next_eid)`` of the ``SequenceArrays`` ``seq``, one per flat position,
    with positions 1-based: ``next_pos`` is the item's next entry in
    ``positions_of`` and ``next_eid`` the first position of the next element,
    from ``elem_first``."""
    records = []
    for p in range(seq.n):
        item, e = seq.item[p], seq.eid[p]
        at = seq.positions_of[item]
        k = at.index(p) + 1
        next_pos = at[k] + 1 if k < len(at) else None
        next_eid = seq.elem_first[e] + 1 if e < len(seq.elem_first) else None
        records.append((e, item, seq.u[p], seq.ru[p], next_pos, next_eid))
    return records


def max_sequence_length(db):
    return max(s.length for s in db.sequences)


class EngineBounds(MiningObserver):
    """The engine's own statistics of one run: the first-pass table of the
    1-patterns and the bounds of every visited node, by pattern."""

    def __init__(self):
        self.one_seq = {}
        self.nodes = {}

    def on_one_sequence_stats(self, info):
        self.one_seq = info

    def on_node(self, pattern, bounds, expanded):
        self.nodes[pattern] = bounds


def engine_bounds(db, utable, mtable, config=MiningConfig()):
    """Mine once and return what the engine reported about each pattern."""
    observed = EngineBounds()
    mine(db, utable, mtable, config, observer=observed)
    return observed
