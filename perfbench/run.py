"""The huspmine benchmark: job time and peak memory on three workloads.

Drives the package in-process through its public API with the calls
``huspmine mine`` makes, in the same order, and the default ``MiningConfig``:

    parse_item_values -> parse_dataset -> bind_unit_utilities
    -> generate_mtable | bind_thresholds -> mine -> write_results(tsv)

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload c10-sparse --seed 1601 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all     # every workload, one process each
    python3 perfbench/run.py --write-spec       # rewrite BENCHMARK.json from SPEC

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full report (samples, checks, run metadata and, when traced, the spans)
goes to ``.perfbench/`` in the checkout.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

SETUP_SAMPLES = 5
ALL_TIMEOUT_S = 600

SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 30,
    "workloads": None,  # filled from workloads.WORKLOADS
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "mine_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "total_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [
        {"name": "formats.parse_s", "unit": "s", "better": "lower"},
        {"name": "formats.mtable_s", "unit": "s", "better": "lower"},
        {"name": "formats.write_s", "unit": "s", "better": "lower"},
        {"name": "formats.bytes_in", "unit": "bytes", "better": "lower"},
        {"name": "formats.bytes_out", "unit": "bytes", "better": "lower"},
        {"name": "uarray.build_s", "unit": "s", "better": "lower"},
        {"name": "uarray.build_calls", "unit": "count", "better": "lower"},
        {"name": "uarray.initial_projection_s", "unit": "s", "better": "lower"},
        {"name": "uarray.initial_projection_calls", "unit": "count", "better": "lower"},
        {"name": "uarray.project_s", "unit": "s", "better": "lower"},
        {"name": "uarray.project_calls", "unit": "count", "better": "lower"},
        {"name": "uarray.project_empty", "unit": "count", "better": "lower"},
        {"name": "uarray.project_pivots_out", "unit": "count", "better": "lower"},
        {"name": "uarray.project_useful_ratio", "unit": "ratio", "better": "higher"},
        {"name": "miner.prep_s", "unit": "s", "better": "lower"},
        {"name": "miner.search_s", "unit": "s", "better": "lower"},
        {"name": "miner.search_self_s", "unit": "s", "better": "lower"},
        {"name": "miner.finish_s", "unit": "s", "better": "lower"},
        {"name": "miner.candidates", "unit": "count", "better": "lower"},
        {"name": "miner.nodes_expanded", "unit": "count", "better": "lower"},
        {"name": "miner.expand_ratio", "unit": "ratio", "better": "higher"},
        {"name": "miner.husps", "unit": "count", "better": "higher"},
        {"name": "miner.max_depth", "unit": "count", "better": "higher"},
        {"name": "miner.items_prefiltered", "unit": "count", "better": "higher"},
        {"name": "miner.items_swu_removed", "unit": "count", "better": "higher"},
        {"name": "miner.puk_scanned", "unit": "count", "better": "lower"},
        {"name": "miner.puk_dropped", "unit": "count", "better": "higher"},
        {"name": "miner.candidates_uspt1", "unit": "count", "better": "lower"},
        {"name": "miner.candidates_uspt2", "unit": "count", "better": "lower"},
        {"name": "trace.overhead_ratio", "unit": "ratio", "better": "lower"},
    ],
}


def _import_package():
    """Put the checkout's ``src`` first on the path; refuse to run against
    any other copy of the package."""
    src = ROOT / "src"
    if not (src / "huspmine" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import huspmine

    if Path(huspmine.__file__).resolve().parent != (src / "huspmine").resolve():
        sys.exit(f"perfbench: imported huspmine from {huspmine.__file__}, not {src}")


@dataclass(frozen=True)
class Sources:
    """A job's inputs as paths (read like the CLI reads them) or as text."""

    data: object
    units: object
    mtable: object = None


def _open(source):
    return source if isinstance(source, Path) else io.StringIO(source)


def write_inputs(job, directory: Path) -> Sources:
    """Write a job's input files into ``directory``, as a user would."""
    directory.mkdir(exist_ok=True)
    sources = Sources(directory / "data.qsd", directory / "units.ut",
                      None if job.mtable is None else directory / "thresholds.mt")
    sources.data.write_text(job.data, encoding="utf-8")
    sources.units.write_text(job.units, encoding="utf-8")
    if job.mtable is not None:
        sources.mtable.write_text(job.mtable, encoding="utf-8")
    return sources


@dataclass
class Prepared:
    db: object
    utable: object
    mtable: object
    parse_s: float
    mtable_s: float


def setup(job, sources) -> Prepared:
    """Parse and intern the inputs, bind the tables, derive or bind the
    thresholds: the command line's input stage."""
    from huspmine import (
        bind_thresholds,
        bind_unit_utilities,
        generate_mtable,
        parse_dataset,
        parse_item_values,
    )

    t0 = perf_counter()
    units = parse_item_values(_open(sources.units))
    db = parse_dataset(_open(sources.data), unit_utilities=units)
    utable = bind_unit_utilities(units, db.symbols)
    t1 = perf_counter()
    if job.mtable is not None:
        mtable = bind_thresholds(parse_item_values(_open(sources.mtable)), db.symbols)
    else:
        mtable = generate_mtable(db, utable, job.beta, job.lmu)
    t2 = perf_counter()
    return Prepared(db, utable, mtable, t1 - t0, t2 - t1)


class Run:
    """One benchmark run of one workload: inputs, checks and failure count."""

    def __init__(self, name, seed, workdir):
        from workloads import DEFAULT_SEED, WORKLOADS

        self.name = name
        self.seed = seed
        self.default_seed = DEFAULT_SEED
        self.workload = WORKLOADS[name]["make"](seed)
        self.jobs = self.workload.jobs
        self.workdir = workdir
        if len(self.jobs) == 1:
            # a single large job is read from files, as the CLI reads it
            self.sources = [write_inputs(self.jobs[0], workdir)]
        else:
            self.sources = [Sources(j.data, j.units, j.mtable) for j in self.jobs]
        self.bytes_in = sum(
            len(t.encode("utf-8")) for j in self.jobs for t in (j.data, j.units, j.mtable or "")
        )
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None  # sha256 of each job's first TSV
        self.fingerprint = None
        self.bad = {}

    def fail(self, message):
        self.failed += 1
        if len(self.problems) < 50:
            self.problems.append(message)

    def prepare_all(self):
        """Set up every job once; returns (summed setup time, prepared list)."""
        total = 0.0
        prepared = []
        for job, sources in zip(self.jobs, self.sources):
            try:
                p = setup(job, sources)
            except Exception as exc:  # a job that raises is a failed operation
                prepared.append(exc)
                continue
            total += p.parse_s + p.mtable_s
            prepared.append(p)
        return total, prepared

    def accept(self, tsvs):
        """Count one pass over the jobs and check its outputs.  The first
        pass is checked for correctness; later passes must repeat it."""
        import checks

        self.attempted += len(tsvs)
        digests = [None if t is None else checks.sha256(t) for t in tsvs]
        if self.reference is None:
            self.reference = digests
            self.fingerprint = checks.fingerprint([t or "" for t in tsvs])
            self.bad = self._check_first(tsvs)
        for k, (digest, want) in enumerate(zip(digests, self.reference)):
            if digest is None:
                self.fail(f"job {k} raised")
            elif digest != want:
                self.fail(f"job {k} output differs between repetitions")
            elif k in self.bad:
                self.fail(f"job {k}: {self.bad[k]}")

    def _check_first(self, tsvs) -> dict:
        import checks

        if self.workload.original_name is not None:  # the C10 workloads
            if tsvs[0] is None:
                return {}
            problems = checks.check_c10(
                self.name, self.seed, self.default_seed, tsvs[0], self.workload.original_name
            )
            return {0: "; ".join(problems)} if problems else {}
        bad = {}
        if any(t is None for t in tsvs):
            return bad
        for problem in checks.check_lowmu_fingerprint(self.seed, self.default_seed, tsvs):
            bad = {k: problem for k in range(len(tsvs))}
        for k in checks.ORACLE_SAMPLE:
            if checks.oracle_tsv(self.jobs[k]) != tsvs[k]:
                bad[k] = "differs from the brute-force oracle"
        return bad


def mine_pass(prepared, observer_factory=None):
    """Mine and write every prepared job once.  Returns the TSVs (None for
    a job that raised), summed mine and write times, and per-job records."""
    from huspmine import mine, write_results

    tsvs, records = [], []
    mine_total = write_total = 0.0
    for p in prepared:
        if isinstance(p, Exception):
            tsvs.append(None)
            records.append(None)
            continue
        observer = observer_factory() if observer_factory else None
        try:
            t0 = perf_counter()
            husps, stats = mine(p.db, p.utable, p.mtable, observer=observer)
            t1 = perf_counter()
            tsv = write_results(husps, stats, "tsv", p.db.symbols)
            t2 = perf_counter()
        except Exception:  # a job that raises is a failed operation
            tsvs.append(None)
            records.append(None)
            continue
        n_husps = len(husps)
        del husps, stats
        mine_total += t1 - t0
        write_total += t2 - t1
        tsvs.append(tsv)
        records.append((t0, t1, t2, observer, n_husps))
    return tsvs, mine_total, write_total, records


def timed_repetitions(run, seconds) -> dict:
    """Set up every job, then mine and write every job, while another
    repetition fits in ``seconds``; then set up again until every job has
    SETUP_SAMPLES set-ups.  Returns, per timing and job, the (start, end)
    of each repetition."""
    n = len(run.jobs)
    intervals = {name: [[] for _ in range(n)] for name in ("setup_s", "mine_s", "mine_write_s")}

    def timed_setup(k):
        t0 = perf_counter()
        try:
            p = setup(run.jobs[k], run.sources[k])
        except Exception:  # a job that raises is a failed operation
            return None
        intervals["setup_s"][k].append((t0, perf_counter()))
        return p

    started = perf_counter()
    while True:
        rep_start = perf_counter()
        # each phase starts from a collected heap, as in a fresh process
        gc.collect()
        prepared = [timed_setup(k) for k in range(n)]
        gc.collect()
        tsvs = []
        for k, p in enumerate(prepared):
            if p is None:
                tsvs.append(None)
                continue
            [tsv], _, _, [record] = mine_pass([p])
            tsvs.append(tsv)
            if record is not None:
                intervals["mine_s"][k].append((record[0], record[1]))
                intervals["mine_write_s"][k].append((record[0], record[2]))
        rep_s = perf_counter() - rep_start
        del prepared
        run.accept(tsvs)
        del tsvs
        if perf_counter() - started + rep_s > seconds:
            break
    ok = [k for k in range(n) if intervals["setup_s"][k]]
    while ok and min(len(intervals["setup_s"][k]) for k in ok) < SETUP_SAMPLES:
        for k in ok:
            timed_setup(k)
    return intervals


def measure(run, seconds):
    """End-to-end metrics, tracing off.

    Each repetition sets up every job, then mines and writes every job;
    repetitions continue while another one fits in ``seconds``.  The speed
    probe runs throughout, and each timed interval is scaled to the
    machine's nominal speed by the kernel runs during and around it (see
    speed.py).  A timing is the median over the repetitions of each job's
    scaled time, summed over the jobs.  Set-up is sampled at least
    SETUP_SAMPLES times.
    """
    from speed import NOMINAL_S, PROBE_EVERY_S, SpeedProbe

    with SpeedProbe() as probe:
        intervals = timed_repetitions(run, seconds)

    scaled = {name: [[probe.scaled(*iv) for iv in per_job] for per_job in per_name]
              for name, per_name in intervals.items()}
    medians = {name: sum(statistics.median(v) for v in per_name if v)
               for name, per_name in scaled.items()}
    metrics = {
        "setup_s": (medians["setup_s"], "s"),
        "mine_s": (medians["mine_s"], "s"),
        "total_s": (medians["setup_s"] + medians["mine_write_s"], "s"),
    }
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    def per_repetition(per_job):
        reps = max(map(len, per_job))
        return [sum(v[r] for v in per_job if r < len(v)) for r in range(reps)]

    samples = {name: per_repetition(per_name) for name, per_name in scaled.items()}
    raw = {name: per_repetition([[t1 - t0 for t0, t1 in v] for v in per_name])
           for name, per_name in intervals.items()}
    kernel = probe.kernel_times()
    extra = {
        "unscaled_samples": raw,
        "speed_probe": {
            "nominal_s": NOMINAL_S,
            "period_s": PROBE_EVERY_S,
            "kernel_runs": len(kernel),
            "kernel_median_s": statistics.median(kernel),
            "kernel_min_s": min(kernel),
            "kernel_max_s": max(kernel),
        },
    }
    return metrics, samples, extra


def ablation(run) -> dict:
    """Mine every job under ``uspt1`` and ``uspt2``.  Returns each variant's
    candidate count and per-job output digests (None where the job raised)."""
    import checks
    from huspmine import MiningConfig, mine, write_results
    from tracing import CountingObserver

    _, prepared = run.prepare_all()
    out = {}
    for variant in ("uspt1", "uspt2"):
        counted = 0
        digests = [None] * len(prepared)
        for k, p in enumerate(prepared):
            if isinstance(p, Exception):
                continue  # counted once, as a job that raised, by run.accept
            observer = CountingObserver()
            run.attempted += 1
            try:
                husps, _ = mine(p.db, p.utable, p.mtable, MiningConfig(variant=variant),
                                observer=observer)
                tsv = write_results(husps, None, "tsv", p.db.symbols)
                del husps
            except Exception:  # a job that raises is a failed operation
                run.fail(f"job {k}: variant {variant} raised")
                continue
            digests[k] = checks.sha256(tsv)
            counted += observer.candidates
        out[variant] = (counted, digests)
    return out


def traced_pass(run, tracer):
    """Set up, mine and write every job with the tracer installed.  Returns
    the TSVs, the traced time and the summed per-layer metrics."""
    from tracing import WRAPPED, PhaseObserver

    m = dict.fromkeys(
        ("formats.parse_s", "formats.mtable_s", "formats.write_s", "miner.prep_s",
         "miner.search_s", "miner.search_self_s", "miner.finish_s"), 0.0)
    m.update(dict.fromkeys(
        ("formats.bytes_out", "miner.candidates", "miner.nodes_expanded", "miner.husps",
         "miner.max_depth", "miner.items_prefiltered", "miner.items_swu_removed",
         "miner.puk_scanned", "miner.puk_dropped"), 0))
    layers = {prefix: [0, 0.0] for prefix in WRAPPED.values()}
    expanded_children = 0
    tsvs = []
    traced_s = 0.0
    with tracer.installed():
        for job, sources in zip(run.jobs, run.sources):
            t0 = perf_counter()
            try:
                p = setup(job, sources)
            except Exception:  # counted as a job that raised by run.accept
                tsvs.append(None)
                continue
            snap = tracer.snapshot()
            [tsv], _, _, [record] = mine_pass([p], PhaseObserver)
            tsvs.append(tsv)
            if record is None:
                continue
            m0, m1, w1, obs, n_husps = record
            traced_s += w1 - t0
            since = tracer.since(snap)
            t_bounds = obs.t_bounds if obs.t_bounds is not None else m1
            t_last = obs.t_last if obs.t_last is not None else m1
            job_span = tracer.span(f"job:{job.name}", t0, w1)
            tracer.span("formats.parse", t0, t0 + p.parse_s, job_span)
            tracer.span("formats.mtable", t0 + p.parse_s, t0 + p.parse_s + p.mtable_s, job_span)
            mine_span = tracer.span("miner.mine", m0, m1, job_span)
            tracer.span("miner.prep", m0, t_bounds, mine_span)
            tracer.span("miner.search", t_bounds, t_last, mine_span)
            tracer.span("miner.finish", t_last, m1, mine_span)
            tracer.span("formats.write", m1, w1, job_span)
            for prefix, (calls, busy) in since.items():
                layers[prefix][0] += calls
                layers[prefix][1] += busy
            in_search = since["uarray.initial_projection"][1] + since["uarray.project"][1]
            m["formats.parse_s"] += p.parse_s
            m["formats.mtable_s"] += p.mtable_s
            m["formats.write_s"] += w1 - m1
            m["formats.bytes_out"] += len(tsv.encode("utf-8"))
            m["miner.prep_s"] += t_bounds - m0 - since["uarray.build"][1]
            m["miner.search_s"] += t_last - t_bounds
            m["miner.search_self_s"] += t_last - t_bounds - in_search
            m["miner.finish_s"] += m1 - t_last
            m["miner.candidates"] += obs.candidates
            m["miner.nodes_expanded"] += obs.expanded
            m["miner.husps"] += n_husps
            m["miner.max_depth"] = max(m["miner.max_depth"], obs.max_depth)
            if obs.first_pass_items is not None:
                present = len(p.db.distinct_items())
                m["miner.items_prefiltered"] += present - obs.first_pass_items
                if obs.bound_items is not None:
                    m["miner.items_swu_removed"] += obs.first_pass_items - obs.bound_items
            m["miner.puk_scanned"] += obs.puk_scanned
            m["miner.puk_dropped"] += obs.puk_scanned - obs.puk_kept
            expanded_children += obs.expanded_children
            del p
    missing = {WRAPPED[name] for name in tracer.missing}
    for prefix, (calls, busy) in layers.items():
        if prefix not in missing:
            m[f"{prefix}_s"] = busy
            m[f"{prefix}_calls"] = calls
    if "uarray.project_calls" in m:
        m["uarray.project_empty"] = tracer.project_empty
        if tracer.project_pivots_out is not None:
            m["uarray.project_pivots_out"] = tracer.project_pivots_out
        calls = m["uarray.project_calls"]
        m["uarray.project_useful_ratio"] = expanded_children / calls if calls else 0.0
    cands = m["miner.candidates"]
    m["miner.expand_ratio"] = m["miner.nodes_expanded"] / cands if cands else 0.0
    return tsvs, traced_s, m


def start_cli_parity(run) -> list:
    """Start ``huspmine mine`` on the same files as the in-process jobs: the
    C10 job, or a fixed sample of the batch.  Returns (job, process, output)."""
    import checks

    started = []
    for k in [0] if len(run.jobs) == 1 else checks.CLI_SAMPLE:
        job, sources = run.jobs[k], run.sources[k]
        if not isinstance(sources.data, Path):
            sources = write_inputs(job, run.workdir / f"cli-{k}")
        out = run.workdir / f"cli-{k}.tsv"
        started.append((k, checks.start_cli(ROOT, checks.cli_flags(job, sources), out), out))
    return started


def finish_cli_parity(run, started) -> dict:
    """Wait for every started command; returns job -> TSV of those that
    succeeded.  A command that fails counts as a failed operation."""
    import checks

    outputs = {}
    for k, proc, out in started:
        run.attempted += 1
        try:
            outputs[k] = checks.finish_cli(proc, out)
        except RuntimeError as exc:
            run.fail(f"job {k}: {exc}")
    return outputs


def trace(run):
    """Per-layer metrics from one traced pass, compared with one untraced
    pass for the tracing overhead, plus the variant ablation and the
    command-line parity check.  Every pass counts as attempted operations."""
    import checks
    from tracing import Tracer

    # The ablation runs first, so that it is also the warm-up of the two
    # passes compared for the tracing overhead.  The command-line runs
    # overlap it on the second core and are over before anything is timed.
    started = start_cli_parity(run)
    try:
        variants = ablation(run)
    finally:
        cli_outputs = finish_cli_parity(run, started)

    setup_s, prepared = run.prepare_all()
    tsvs, mine_s, write_s, _ = mine_pass(prepared)
    run.accept(tsvs)
    untraced_s = setup_s + mine_s + write_s
    del tsvs, prepared

    tracer = Tracer()
    tsvs, traced_s, m = traced_pass(run, tracer)
    run.accept(tsvs)
    m["formats.bytes_in"] = run.bytes_in
    m["trace.overhead_ratio"] = traced_s / untraced_s if untraced_s else 0.0
    for variant, (counted, digests) in variants.items():
        m[f"miner.candidates_{variant}"] = counted
        for k, digest in enumerate(digests):
            if digest is not None and tsvs[k] is not None and digest != checks.sha256(tsvs[k]):
                run.fail(f"job {k}: variant {variant} output differs from uspt")

    for k, tsv in cli_outputs.items():
        if tsv != tsvs[k]:
            run.fail(f"job {k}: huspmine mine output differs from the in-process output")
    metrics = {spec["name"]: (m[spec["name"]], spec["unit"])
               for spec in SPEC["per_layer"] if spec["name"] in m}
    extra = {
        "cli_parity_jobs": sorted(cli_outputs),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "missing_layers": tracer.missing,
        "spans": tracer.dump(),
    }
    return metrics, {}, extra


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def run_one(args) -> int:
    _import_package()
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)} or all")
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        run = Run(args.workload, args.seed, workdir)
        if args.trace:
            metrics, samples, extra = trace(run)
        else:
            metrics, samples, extra = measure(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "jobs": len(run.jobs),
        "repetitions": {k: len(v) for k, v in samples.items()},
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "fingerprint": run.fingerprint,
    }
    report = {
        "meta": meta,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
        "problems": run.problems,
        **extra,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    report_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    counts = {name: len(samples.get(name, samples.get("mine_s", ()))) for name in metrics}
    for name, (value, unit) in metrics.items():
        note = f"  (median of {counts[name]})" if counts[name] and unit == "s" else ""
        print(f"{args.workload:12s} {name:32s} {value:14.6f} {unit}{note}")
    for problem in run.problems:
        print(f"{args.workload:12s} FAILED: {problem}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    print("# report " + str(report_path.relative_to(ROOT)))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, so peak RSS belongs to one workload."""
    from workloads import WORKLOADS

    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=ALL_TIMEOUT_S)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not done.stdout.strip():
            sys.exit(f"perfbench: workload {name} exited {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        totals["correct"] = totals["correct"] and result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            totals["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(totals))
    return 0


def write_spec() -> int:
    from workloads import WORKLOADS

    spec = dict(SPEC)
    spec["workloads"] = [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()]
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="rewrite BENCHMARK.json from SPEC and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        return write_spec()
    if args.seed is None:
        from workloads import DEFAULT_SEED

        args.seed = DEFAULT_SEED
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
