"""Exhaustive reference miner used as ground truth in equivalence tests.

Patterns are enumerated with the same canonical extension rules as the
search engine, so both sides range over the identical pattern universe; the
oracle just never prunes on utility.  Every utility here is evaluated by
direct per-sequence embedding maximisation over the raw model objects; the
projected-array machinery is never consulted.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .model import (
    MTable,
    Pattern,
    QSDatabase,
    QSequence,
    UtilityTable,
    find_matches,
    miu,
    pattern_utility_in_sequence,
)
from .miner import Bounds, Husp, pattern_sort_key

NODE_BUDGET = 10_000_000


class EnumerationTooLarge(RuntimeError):
    """The exhaustive enumeration exceeded its node budget."""


def _evaluate(pattern: Pattern, db: QSDatabase, utable: UtilityTable):
    total = 0
    occurs = False
    for qseq in db.sequences:
        u = pattern_utility_in_sequence(pattern, qseq, utable)
        if u is not None:
            occurs = True
            total += u
    return occurs, total


def enumerate_occurring(
    db: QSDatabase,
    utable: UtilityTable,
    max_len: int,
    node_budget: int = NODE_BUDGET,
) -> Iterator[tuple[Pattern, int]]:
    """Yield every pattern of size <= max_len occurring in the database,
    with its exact utility, in depth-first canonical order.

    Raises EnumerationTooLarge once more than ``node_budget`` candidate
    patterns (occurring or not) have been evaluated.
    """
    items = sorted(db.distinct_items())
    probes = 0

    def probe(pattern: Pattern):
        nonlocal probes
        probes += 1
        if probes > node_budget:
            raise EnumerationTooLarge(
                f"more than {node_budget} candidate patterns; "
                "lower max_len or shrink the database"
            )
        return _evaluate(pattern, db, utable)

    def visit(pattern: Pattern, utility: int) -> Iterator[tuple[Pattern, int]]:
        yield pattern, utility
        if pattern.size >= max_len:
            return
        last = pattern.itemsets[-1][-1]
        for item in items:
            if item > last:
                child = Pattern(
                    pattern.itemsets[:-1] + (pattern.itemsets[-1] + (item,),)
                )
                occurs, u = probe(child)
                if occurs:
                    yield from visit(child, u)
        for item in items:
            child = Pattern(pattern.itemsets + ((item,),))
            occurs, u = probe(child)
            if occurs:
                yield from visit(child, u)

    if max_len < 1:
        return
    for item in items:
        root = Pattern.single(item)
        occurs, u = probe(root)
        if occurs:
            yield from visit(root, u)


def brute_force_mine(
    db: QSDatabase,
    utable: UtilityTable,
    mtable: MTable,
    max_len: int,
    node_budget: int = NODE_BUDGET,
) -> list[Husp]:
    """Every occurring pattern whose utility reaches the minimum threshold
    among its items, sorted like the engine's output."""
    out = []
    for pattern, utility in enumerate_occurring(db, utable, max_len, node_budget):
        threshold = miu(pattern, mtable)
        if utility >= threshold:
            out.append(Husp(pattern, utility, threshold))
    out.sort(key=lambda h: pattern_sort_key(h.pattern))
    return out


def _sequence_bounds(pattern: Pattern, qseq: QSequence, utable: UtilityTable):
    """Per-sequence (utility, peu, raw seu, rest-start-position) from the
    explicit match list, or None when the pattern does not occur."""
    matches = find_matches(pattern, qseq)
    if not matches:
        return None
    flat = [(i, q) for _, i, q in qseq.flat()]
    unit = [q * utable.of(i) for i, q in flat]
    n = len(unit)
    ru = [0] * (n + 1)
    for p in range(n - 1, -1, -1):
        ru[p] = ru[p + 1] + unit[p]
    # ru[p] counts positions >= p (0-based); remaining after 1-based pos k is ru[k]
    useq = ru[0]
    best_at: dict[int, int] = {}
    for m in matches:
        value = sum(unit[p - 1] for p in m.positions)
        pivot = m.positions[-1]
        if value > best_at.get(pivot, -1):
            best_at[pivot] = value
    u_s = max(best_at.values())
    peu_s = None
    anchor_ru = 0
    for pivot in sorted(best_at):
        term = best_at[pivot] + ru[pivot]
        if peu_s is None or term > peu_s:
            peu_s = term
            anchor_ru = ru[pivot]
    seu_s = min(useq, u_s + anchor_ru)
    start = min(best_at)
    return u_s, peu_s, seu_s, useq, start


def _raw_bounds(pattern: Pattern, db: QSDatabase, utable: UtilityTable):
    utility = peu = seu = swu = 0
    rest_items = set()
    for qseq in db.sequences:
        got = _sequence_bounds(pattern, qseq, utable)
        if got is None:
            continue
        u_s, peu_s, seu_s, useq, start = got
        utility += u_s
        peu += peu_s
        seu += seu_s
        swu += useq
        flat = list(qseq.flat())
        for _, item, _ in flat[start:]:
            rest_items.add(item)
    return utility, peu, seu, swu, rest_items


def brute_force_bounds(
    pattern: Pattern,
    db: QSDatabase,
    utable: UtilityTable,
    mtable: Optional[MTable] = None,
) -> Bounds:
    """Bound values recomputed from explicit match lists.

    The sequence-extension bound is tightened along the pattern's canonical
    ancestry, matching what the engine reports.  Threshold fields are None
    unless an M-table is supplied.
    """
    utility, peu, seu, swu, rest_items = _raw_bounds(pattern, db, utable)
    ancestor = pattern.parent()
    while ancestor is not None:
        seu = min(seu, _raw_bounds(ancestor, db, utable)[2])
        ancestor = ancestor.parent()
    if mtable is None:
        pmiu_v = miu_v = None
    else:
        miu_v = miu(pattern, mtable)
        pmiu_v = min([miu_v] + [mtable.of(i) for i in rest_items])
    return Bounds(swu=swu, seu=seu, peu=peu, pmiu=pmiu_v, miu=miu_v, utility=utility)
