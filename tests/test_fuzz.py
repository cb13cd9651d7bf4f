"""Seeded input fuzzing of the command line: a damaged dataset, unit table,
threshold table or ``oracle --check`` result file ends in a documented exit
code, never in a traceback."""

import contextlib
import io
import random
from collections import Counter

import pytest

from huspmine.cli import main

from conftest import DATASET_TEXT, MTABLE_TEXT, UTILITY_TEXT

# the exit codes README documents: 0 success up to 6 out of memory
DOCUMENTED = set(range(7))

# the tokens of the formats, and the characters a parser may mistake for
# separators, line ends or digits
INSERTIONS = ["[", "]", "-1", "-2", "SUtility:", "\r", "\t", "\x00", "\ufeff", "\u00b2", "\u0663"]

# a result file's JSON tokens besides
CHECK_INSERTIONS = INSERTIONS + ["{", "}", '"', ",", "0"]

CASES = 300

# fewer for a result file, whose every case runs the oracle
CHECK_CASES = 150


def mutate(text, rng, insertions=INSERTIONS):
    """``text`` with one to three seeded edits, each an insertion from
    ``insertions``, a deleted span or a duplicated span."""
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(0, len(text))
        op = rng.random()
        if op < 0.6:
            text = text[:k] + rng.choice(insertions) + text[k:]
        elif op < 0.8:
            text = text[:k] + text[k + rng.randint(1, 4):]
        else:
            j = min(len(text), k + rng.randint(1, 8))
            text = text[:j] + text[k:j] + text[j:]
    return text


@pytest.mark.parametrize("target", ["data", "utility", "mtable"])
def test_damaged_inputs_exit_with_documented_codes(tmp_path, target):
    """Each of ``CASES`` seeded mutations of one input file, the others
    intact, runs ``huspmine mine`` in-process: every run returns a
    documented exit code and none raises.  A run that succeeds wrote
    results that the brute-force oracle confirms for the inputs as given."""
    rng = random.Random(f"fuzz-{target}")
    texts = {"data": DATASET_TEXT, "utility": UTILITY_TEXT, "mtable": MTABLE_TEXT}
    paths = {name: tmp_path / f"in.{name}" for name in texts}
    for name, text in texts.items():
        paths[name].write_bytes(text.encode("utf-8"))
    out = tmp_path / "out.tsv"
    # the oracle enumerates patterns up to a length cap, which both share
    inputs = ["--data", str(paths["data"]), "--utility-table", str(paths["utility"]),
              "--mtable", str(paths["mtable"]), "--max-len", "4"]
    codes = Counter()
    for _ in range(CASES):
        text = mutate(texts[target], rng)
        paths[target].write_bytes(text.encode("utf-8"))
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(["mine", *inputs, "--out", str(out)])
            assert code in DOCUMENTED, (code, text)
            if code == 0:
                checked = main(["oracle", *inputs, "--out", str(tmp_path / "oracle.tsv"),
                                "--check", str(out)])
                assert checked == 0, text
        codes[code] += 1
    # the mutations reach past the first parse error
    assert len(codes) > 1, codes


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_damaged_check_files_exit_with_documented_codes(tmp_path, fmt):
    """Each of ``CHECK_CASES`` seeded mutations of a valid result file is checked
    by ``huspmine oracle --check`` in-process: every run returns 0 (the file
    reads as the oracle's results), 1 (a mismatch) or 3 (a parse error), and
    none raises."""
    rng = random.Random(f"fuzz-check-{fmt}")
    paths = {name: tmp_path / f"in.{name}" for name in ("data", "utility")}
    paths["data"].write_text(DATASET_TEXT, encoding="utf-8")
    paths["utility"].write_text(UTILITY_TEXT, encoding="utf-8")
    # two dozen results, few enough items that the oracle is quick
    inputs = ["--data", str(paths["data"]), "--utility-table", str(paths["utility"]),
              "--beta", "1", "--lmu", "0.05", "--max-len", "2"]
    check, out = tmp_path / f"check.{fmt}", tmp_path / "oracle.tsv"
    assert main(["mine", *inputs, "--format", fmt, "--out", str(check)]) == 0
    valid = check.read_text(encoding="utf-8")
    codes = Counter()
    for _ in range(CHECK_CASES):
        text = mutate(valid, rng, CHECK_INSERTIONS)
        check.write_bytes(text.encode("utf-8"))
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(["oracle", *inputs, "--out", str(out), "--check", str(check)])
        assert code in (0, 1, 3), (code, text)
        codes[code] += 1
    # some mutations leave a file that reads, and reach the comparison
    assert {0, 3} <= codes.keys(), codes
