"""Input generators for the benchmark workloads.

Every input is generated here, from the run seed, as the text a user would
hand to ``huspmine mine``; the package under test only ever parses that
text.  The generators re-implement the recipes of ``GenParams`` and of the
test suite's low-threshold instances so that a later change to either one
cannot silently change what the benchmark measures.

* ``c10-sparse`` / ``c10-dense``: the C10 set (10,000 sequences over 475
  items, generator seed 1601) at two least thresholds.  The run seed does
  not draw a new C10 set, because the number of results at a fixed ``lmu``
  swings widely between draws.  It picks an isomorphic copy instead: a
  permutation of the item names and of the sequence order.  The result set
  is the same up to renaming on every seed, while the lexicographic tree's
  shape, the item ids and the memory layout change.  At the default seed
  the permutation is the identity and the files are byte-identical to
  ``huspmine gen --sequences 10000 --items 475 --max-elements 5
  --max-element-size 3 --seed 1601``.
* ``lowmu-batch``: two thousand small partitioned databases with
  per-item thresholds near each item's standalone PEU, one mining job each.
  Each seed draws fresh instances; the batch is large enough that its total
  cost barely moves between seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

DEFAULT_SEED = 1601

C10_SEED = 1601
C10_SEQUENCES = 10_000
C10_ITEMS = 475
C10_MAX_ELEMENTS = 5
C10_MAX_ELEMENT_SIZE = 3
C10_QUANTITY = (1, 5)
C10_BETA = 1.0

LOWMU_JOBS = 2000
LOWMU_NAMES = "abcdef"
LOWMU_MULT = (0.8, 3.2)


@dataclass(frozen=True)
class Job:
    """One ``huspmine mine`` invocation: its input texts and thresholds.

    Exactly one of ``mtable`` (a threshold-table text) or the pair
    ``beta``/``lmu`` is set, as with the command-line flags.
    """

    name: str
    data: str
    units: str
    mtable: Optional[str] = None
    beta: Optional[float] = None
    lmu: Optional[float] = None


@dataclass(frozen=True)
class Workload:
    jobs: list
    # item-name relabelling applied to the C10 set: new name -> original name
    original_name: Optional[dict] = None


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _c10_base():
    """Unit prices and sequences of the C10 set, drawn in the same order as
    the package's synthetic generator draws them."""
    rng = random.Random(C10_SEED)
    units = [
        min(1000, max(1, _round_half_up(rng.lognormvariate(3.0, 1.3))))
        for _ in range(C10_ITEMS)
    ]
    qlo, qhi = C10_QUANTITY
    sequences = []
    for _ in range(C10_SEQUENCES):
        seq = []
        for _ in range(rng.randint(1, C10_MAX_ELEMENTS)):
            size = rng.randint(1, min(C10_MAX_ELEMENT_SIZE, C10_ITEMS))
            chosen = sorted(rng.sample(range(C10_ITEMS), size))
            seq.append([(item, rng.randint(qlo, qhi)) for item in chosen])
        sequences.append(seq)
    return units, sequences


def c10(seed: int, lmu: float) -> Workload:
    units, sequences = _c10_base()
    name = list(range(C10_ITEMS))
    if seed != DEFAULT_SEED:
        rng = random.Random(f"c10-{seed}")
        name = rng.sample(range(C10_ITEMS), C10_ITEMS)
        rng.shuffle(sequences)
    lines = []
    for seq in sequences:
        parts = []
        sutility = 0
        for e, element in enumerate(seq):
            if e:
                parts.append("-1")
            for item, qty in sorted(element, key=lambda iq: name[iq[0]]):
                parts.append(f"{name[item]}[{qty}]")
                sutility += qty * units[item]
        parts.append("-2")
        parts.append(f"SUtility:{sutility}")
        lines.append(" ".join(parts) + "\n")
    unit_lines = sorted((name[i], u) for i, u in enumerate(units))
    job = Job(
        name="c10",
        data="".join(lines),
        units="".join(f"{n} {u}\n" for n, u in unit_lines),
        beta=C10_BETA,
        lmu=lmu,
    )
    return Workload([job], {str(name[i]): str(i) for i in range(C10_ITEMS)})


def _low_threshold_instance(seed: int):
    """Partitioned database (a common and a rare item group that rarely
    mix) with log-normal prices, and per-item thresholds drawn within
    LOWMU_MULT times the item's standalone extension bound (PEU)."""
    r = random.Random(seed)
    group_a, group_b = list(LOWMU_NAMES[:4]), list(LOWMU_NAMES[4:])
    sequences = []
    for _ in range(r.randint(6, 20)):
        pool = group_a if r.random() < 0.7 else group_b + r.sample(group_a, 2)
        seq = []
        for _ in range(r.randint(2, 4)):
            element = r.sample(pool, min(r.randint(1, 2), len(pool)))
            seq.append([(n, r.randint(1, 5)) for n in sorted(element)])
        sequences.append(seq)
    names = sorted({n for seq in sequences for element in seq for n, _ in element})
    units = {n: max(1, round(r.lognormvariate(1.5, 1.0))) for n in names}
    peu = dict.fromkeys(names, 0)
    for seq in sequences:
        best = {}
        rest = 0
        for n, q in reversed([nq for element in seq for nq in element]):
            u = q * units[n]
            best[n] = max(best.get(n, 0), u + rest)
            rest += u
        for n, v in best.items():
            peu[n] += v
    lo, hi = LOWMU_MULT
    mus = {n: max(1, round(r.uniform(lo, hi) * peu[n])) for n in names}
    data = "".join(
        " -1 ".join(" ".join(f"{n}[{q}]" for n, q in element) for element in seq)
        + " -2\n"
        for seq in sequences
    )
    return (
        data,
        "".join(f"{n} {units[n]}\n" for n in names),
        "".join(f"{n} {mus[n]}\n" for n in names),
    )


def lowmu_batch(seed: int) -> Workload:
    jobs = []
    for k in range(LOWMU_JOBS):
        data, units, mtable = _low_threshold_instance(seed * 100_000 + k)
        jobs.append(Job(name=f"lowmu-{k}", data=data, units=units, mtable=mtable))
    return Workload(jobs)


WORKLOADS = {
    "c10-sparse": {
        "make": lambda seed: c10(seed, 0.001),
        "why": "C10 at lmu=0.001: few results, time goes to projecting "
        "children that are never expanded (uarray.project)",
    },
    "c10-dense": {
        "make": lambda seed: c10(seed, 0.0003),
        "why": "C10 at lmu=0.0003: 226K results, time goes to emitting, "
        "sorting and writing patterns",
    },
    "lowmu-batch": {
        "make": lowmu_batch,
        "why": "2000 small low-threshold jobs: the only regime where the "
        "pruning variants differ; per-call fixed cost dominates",
    },
}
