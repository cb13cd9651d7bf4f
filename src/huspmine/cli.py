"""Command-line front end.

Exit codes: 0 success, 1 oracle-check mismatch, 2 bad flags, 3 parse or
file errors, 4 inconsistent configuration, 5 enumeration too large, 6 out of
memory.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import formats
from .formats import GenParams, ParseError
from .miner import (
    BOUND_PEU,
    NODE_BOUNDS,
    VARIANTS,
    USPT,
    ConfigError,
    MiningConfig,
    mine,
)
from .oracle import EnumerationTooLarge, brute_force_mine

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_CONFIG = 4
EXIT_TOO_LARGE = 5
EXIT_MEMORY = 6


def _ratio(text: str) -> Fraction:
    """An exact ratio such as ``0.009`` or ``1/3``, read for a threshold
    flag or a sweep value; a malformed one or one over zero is a usage
    error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid ratio: {text!r}") from None


def _positive_int(text: str) -> int:
    """A count of at least 1; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="huspmine",
        description="High-utility sequence mining with per-item thresholds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p):
        p.add_argument("--data", required=True, help="dataset file")
        p.add_argument("--utility-table", required=True, help="unit utility file")
        p.add_argument("--mtable", help="per-item threshold file")
        # exact decimals: 0.009 is 9/1000, not the nearest binary fraction
        p.add_argument("--beta", type=_ratio,
                       help="threshold factor against each item's total utility")
        p.add_argument("--lmu", type=_ratio,
                       help="least threshold as a fraction of the database utility")

    p_mine = sub.add_parser("mine", help="run the pattern search")
    add_data_flags(p_mine)
    p_mine.add_argument("--variant", choices=VARIANTS, default=USPT)
    p_mine.add_argument("--node-bound", choices=NODE_BOUNDS, default=BOUND_PEU)
    p_mine.add_argument("--max-len", type=int, default=None)
    p_mine.add_argument("--out", help="output file (default stdout)")
    p_mine.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p_mine.add_argument("--stats", action="store_true",
                        help="print run statistics to stderr")

    p_oracle = sub.add_parser("oracle", help="exhaustive reference miner")
    add_data_flags(p_oracle)
    p_oracle.add_argument("--max-len", type=int, required=True)
    p_oracle.add_argument("--out", help="output file (default stdout)")
    p_oracle.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p_oracle.add_argument("--check", help="compare against a result file")
    p_oracle.add_argument("--node-budget", type=_positive_int, default=None,
                          help="cap on evaluated candidate patterns")

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset")
    p_gen.add_argument("--out-data", required=True)
    p_gen.add_argument("--out-utility", required=True)
    p_gen.add_argument("--sequences", type=int, required=True)
    p_gen.add_argument("--items", type=int, required=True)
    p_gen.add_argument("--max-elements", type=int, default=6)
    p_gen.add_argument("--max-element-size", type=int, default=3)
    p_gen.add_argument("--qty-min", type=int, default=1)
    p_gen.add_argument("--qty-max", type=int, default=5)
    p_gen.add_argument("--seed", type=int, default=0)

    p_bench = sub.add_parser("bench", help="sweep thresholds across variants")
    add_data_flags(p_bench)
    p_bench.add_argument("--lmu-sweep", help="comma-separated LMU fractions")
    p_bench.add_argument("--beta-sweep", help="comma-separated beta values")
    p_bench.add_argument("--variants", default=",".join(VARIANTS),
                         help="comma-separated variant list")
    p_bench.add_argument("--node-bound", choices=NODE_BOUNDS, default=BOUND_PEU)
    p_bench.add_argument("--out", help="output file (default stdout)")
    return parser


def _load_inputs(args, parser):
    units = formats.parse_item_values(args.utility_table)
    db = formats.parse_dataset(args.data, unit_utilities=units)
    utable = formats.bind_unit_utilities(units, db.symbols)
    have_mtable = args.mtable is not None
    have_function = args.beta is not None or args.lmu is not None
    if have_mtable == have_function:
        parser.error("provide either --mtable or both --beta and --lmu")
    if have_mtable:
        mtable = formats.bind_thresholds(
            formats.parse_item_values(args.mtable), db.symbols
        )
    else:
        if args.beta is None or args.lmu is None:
            parser.error("--beta and --lmu must be given together")
        try:
            mtable = formats.generate_mtable(db, utable, args.beta, args.lmu)
        except ValueError as exc:
            parser.error(str(exc))
    return db, utable, mtable


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _print_stats(stats) -> None:
    mem = stats.peak_memory_estimate
    print(
        f"candidates={stats.candidates_visited} husps={stats.husps_found} "
        f"time={stats.wall_time:.3f}s "
        f"peak_mem={'n/a' if mem is None else mem}",
        file=sys.stderr,
    )


def _cmd_mine(args, parser) -> int:
    db, utable, mtable = _load_inputs(args, parser)
    config = MiningConfig(
        variant=args.variant,
        node_bound=args.node_bound,
        max_pattern_length=args.max_len,
    )
    husps, stats = mine(db, utable, mtable, config)
    _emit(formats.write_results(husps, stats, args.format, db.symbols), args.out)
    if args.stats:
        _print_stats(stats)
    return EXIT_OK


def _cmd_oracle(args, parser) -> int:
    db, utable, mtable = _load_inputs(args, parser)
    if args.max_len < 1:
        # the same check, and message, as ``mine --max-len``
        raise ConfigError("max_pattern_length must be >= 1")
    kwargs = {}
    if args.node_budget is not None:
        kwargs["node_budget"] = args.node_budget
    husps = brute_force_mine(db, utable, mtable, args.max_len, **kwargs)
    _emit(formats.write_results(husps, None, args.format, db.symbols), args.out)
    if args.check:
        try:
            theirs = formats.parse_results(args.check, db.symbols)
        except (ValueError, KeyError) as exc:
            print(f"parse error in check file: {exc}", file=sys.stderr)
            return EXIT_PARSE
        mine_keyed = {h.pattern: h for h in husps}
        theirs_keyed = {h.pattern: h for h in theirs}
        diffs = []
        for pattern in sorted(
            set(mine_keyed) | set(theirs_keyed),
            key=lambda p: p.itemsets,
        ):
            a, b = mine_keyed.get(pattern), theirs_keyed.get(pattern)
            if a != b:
                diffs.append(
                    f"{pattern.render(db.symbols)}: "
                    f"oracle={a and (a.utility, a.miu)} "
                    f"checked={b and (b.utility, b.miu)}"
                )
        if diffs:
            print("MISMATCH", file=sys.stderr)
            for d in diffs:
                print("  " + d, file=sys.stderr)
            return EXIT_MISMATCH
    return EXIT_OK


def _cmd_gen(args, parser) -> int:
    try:
        params = GenParams(
            n_sequences=args.sequences,
            n_items=args.items,
            max_elements=args.max_elements,
            max_element_size=args.max_element_size,
            quantity_range=(args.qty_min, args.qty_max),
            seed=args.seed,
        )
    except ValueError as exc:
        parser.error(str(exc))
    dataset, utility = formats.generate_synthetic(params)
    Path(args.out_data).write_text(dataset, encoding="utf-8")
    Path(args.out_utility).write_text(utility, encoding="utf-8")
    return EXIT_OK


def _cmd_bench(args, parser) -> int:
    if (args.lmu_sweep is None) == (args.beta_sweep is None):
        parser.error("provide exactly one of --lmu-sweep or --beta-sweep")
    if args.mtable is not None:
        parser.error("bench derives thresholds from the sweep; --mtable "
                     "is not supported here")
    units = formats.parse_item_values(args.utility_table)
    db = formats.parse_dataset(args.data, unit_utilities=units)
    utable = formats.bind_unit_utilities(units, db.symbols)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        parser.error("--variants names no variant")
    for v in variants:
        if v not in VARIANTS:
            parser.error(f"unknown variant {v!r}")
    try:
        if args.lmu_sweep is not None:
            if args.beta is None:
                parser.error("--beta is required with --lmu-sweep")
            points = [("lmu", _ratio(x)) for x in args.lmu_sweep.split(",")]
        else:
            if args.lmu is None:
                parser.error("--lmu is required with --beta-sweep")
            points = [("beta", _ratio(x)) for x in args.beta_sweep.split(",")]
    except argparse.ArgumentTypeError as exc:
        parser.error(f"bad sweep value: {exc}")
    lines = ["variant\tbeta\tlmu\truntime_s\tcandidates\thusps\tpeak_mem_bytes"]
    for variant in variants:
        for axis, value in points:
            beta = value if axis == "beta" else args.beta
            lmu = value if axis == "lmu" else args.lmu
            try:
                mtable = formats.generate_mtable(db, utable, beta, lmu)
            except ValueError as exc:
                parser.error(str(exc))
            config = MiningConfig(variant=variant, node_bound=args.node_bound)
            husps, stats = mine(db, utable, mtable, config)
            lines.append(
                f"{variant}\t{float(beta)}\t{float(lmu)}\t{stats.wall_time:.3f}"
                f"\t{stats.candidates_visited}\t{len(husps)}"
                f"\t{stats.peak_memory_estimate}"
            )
    _emit("".join(line + "\n" for line in lines), args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "mine": _cmd_mine,
        "oracle": _cmd_oracle,
        "gen": _cmd_gen,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args, parser)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EnumerationTooLarge as exc:
        print(f"enumeration too large: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MemoryError:
        print("out of memory", file=sys.stderr)
        return EXIT_MEMORY


if __name__ == "__main__":
    raise SystemExit(main())
