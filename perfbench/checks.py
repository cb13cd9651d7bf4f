"""Output checks, all run outside the timed region.

* Pinned fingerprints (HUSP count plus sha256 of the TSV) at the default seed.
* C10 on any seed: the result set mapped back through the item relabelling
  must equal the pinned canonical result set of the C10 set.
* lowmu-batch on any seed: a fixed sample of instances against the
  brute-force oracle.
* CLI parity: ``huspmine mine`` on the same files writes the same bytes.
"""

from __future__ import annotations

import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

from huspmine import (
    bind_thresholds,
    bind_unit_utilities,
    parse_dataset,
    parse_item_values,
    write_results,
)
from huspmine.oracle import brute_force_mine
from workloads import LOWMU_JOBS

HEADER = "pattern\tutility\tmiu"

# Fingerprints of the seed-1601 outputs.  "canonical" is the sha256 of the
# sorted result rows with C10 item names mapped back to the original names;
# it holds for every seed of a C10 workload.
PINNED = {
    "c10-sparse": {
        "husps": 402,
        "tsv_sha256": "98e924e438f688c87f5f4cea03c598aaa093b5f888d16f3b7bd5fed6d005c5fd",
        "canonical_sha256": "c3697a8829275498d187e55dc077b0c804c36d228bb8d8f8b7d6fc3967197a89",
    },
    "c10-dense": {
        "husps": 226540,
        "tsv_sha256": "764452fe97986eb5cdcf7edd9e74063b73b99a326e637315cd51377272dc4078",
        "canonical_sha256": "a69e643a455fc4beaf241edca712a577a1a8027ba534f1725ed491a2576c96a6",
    },
    "lowmu-batch": {
        "husps": 7466,
        "tsv_sha256": "88ac3ca02e4549955bdf25180e65f257ff1189ee4070259d8533a95bbc2706f8",
    },
}

ORACLE_SAMPLE = range(0, LOWMU_JOBS, 200)
CLI_SAMPLE = range(0, LOWMU_JOBS, 500)
CLI_TIMEOUT_S = 100


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint(tsvs: list) -> dict:
    """HUSP count and sha256 over the concatenated TSV outputs."""
    digest = hashlib.sha256()
    rows = 0
    for tsv in tsvs:
        digest.update(tsv.encode("utf-8"))
        rows += tsv.count("\n") - 1
    return {"husps": rows, "tsv_sha256": digest.hexdigest()}


def canonical_sha256(tsv: str, original_name: dict) -> str:
    """sha256 of the result rows with item names mapped back through the
    relabelling, items sorted numerically inside each itemset, rows sorted.
    Utility and threshold fields are kept byte for byte."""
    lines = tsv.split("\n")
    if lines[0] != HEADER or lines[-1] != "":
        return "bad-layout"
    rows = []
    try:
        for line in lines[1:-1]:
            pattern, utility, miu = line.split("\t")
            itemsets = tuple(
                tuple(sorted(int(original_name[n]) for n in chunk.split(" ")))
                for chunk in pattern[1:-1].split("],[")
            )
            rows.append((itemsets, utility, miu))
    except (KeyError, ValueError):
        return "bad-layout"
    rows.sort()
    return sha256("".join(f"{p}\t{u}\t{m}\n" for p, u, m in rows))


def check_c10(workload: str, seed: int, default_seed: int, tsv: str, original_name) -> list:
    """Problems found in one C10 output; empty when it is correct."""
    pinned = PINNED[workload]
    problems = []
    got = fingerprint([tsv])
    if got["husps"] != pinned["husps"]:
        problems.append(f"{got['husps']} HUSPs, expected {pinned['husps']}")
    if seed == default_seed and got["tsv_sha256"] != pinned["tsv_sha256"]:
        problems.append("TSV sha256 differs from the pinned default-seed output")
    if canonical_sha256(tsv, original_name) != pinned["canonical_sha256"]:
        problems.append("result set differs from the pinned C10 result set")
    return problems


def check_lowmu_fingerprint(seed: int, default_seed: int, tsvs: list) -> list:
    if seed != default_seed:
        return []
    pinned = PINNED["lowmu-batch"]
    got = fingerprint(tsvs)
    if got != {"husps": pinned["husps"], "tsv_sha256": pinned["tsv_sha256"]}:
        return [f"batch fingerprint {got} differs from the pinned one"]
    return []


def oracle_tsv(job) -> str:
    """Exhaustive reference result of one threshold-table job."""
    units = parse_item_values(io.StringIO(job.units))
    db = parse_dataset(io.StringIO(job.data), unit_utilities=units)
    utable = bind_unit_utilities(units, db.symbols)
    mtable = bind_thresholds(parse_item_values(io.StringIO(job.mtable)), db.symbols)
    max_len = max(s.length for s in db.sequences)
    return write_results(brute_force_mine(db, utable, mtable, max_len), None, "tsv", db.symbols)


def cli_flags(job, sources) -> list:
    """``huspmine mine`` input flags for a job whose inputs are on disk."""
    flags = ["--data", str(sources.data), "--utility-table", str(sources.units)]
    if job.mtable is not None:
        return flags + ["--mtable", str(sources.mtable)]
    return flags + ["--beta", repr(job.beta), "--lmu", repr(job.lmu)]


def start_cli(root: Path, flags: list, out: Path) -> subprocess.Popen:
    """Start the ``huspmine`` console entry point on the flags, writing its
    TSV to ``out``."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    cmd = [
        sys.executable,
        "-c",
        "import sys; from huspmine.cli import main; sys.exit(main())",
        "mine",
        *flags,
        "--out",
        str(out),
    ]
    return subprocess.Popen(
        cmd, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
    )


def finish_cli(proc: subprocess.Popen, out: Path) -> str:
    """Wait for a started command and return its TSV.  A command that runs
    over CLI_TIMEOUT_S is killed and waited for."""
    try:
        _, err = proc.communicate(timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"huspmine mine ran over {CLI_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"huspmine mine exited {proc.returncode}: {err.strip()}")
    text = out.read_bytes().decode("utf-8")
    out.unlink()
    return text
