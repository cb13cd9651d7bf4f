"""Command-line behavior and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import huspmine
from huspmine.cli import main

from conftest import DATASET_TEXT, MTABLE_TEXT, UTILITY_TEXT


@pytest.fixture()
def fixture_files(tmp_path):
    data = tmp_path / "ex.qsd"
    data.write_text(DATASET_TEXT)
    utility = tmp_path / "ex.ut"
    utility.write_text(UTILITY_TEXT)
    mtable = tmp_path / "ex.mt"
    mtable.write_text(MTABLE_TEXT)
    return data, utility, mtable


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


EXPECTED_ROWS = [
    "[b],[c e]\t200\t200",
    "[f],[b c],[b]\t73\t70",
    "[f],[b],[b e]\t72\t70",
    "[f],[b c],[b e]\t81\t70",
]


def test_mine_reference_example(fixture_files, capsys):
    data, utility, mtable = fixture_files
    code, out, err = run_main(
        ["mine", "--data", str(data), "--utility-table", str(utility),
         "--mtable", str(mtable), "--variant", "uspt"],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[1:] == EXPECTED_ROWS


def test_mine_variants_same_rows_more_candidates(fixture_files, capsys):
    data, utility, mtable = fixture_files
    outputs = {}
    candidates = {}
    for variant in ("uspt", "uspt1"):
        code, out, err = run_main(
            ["mine", "--data", str(data), "--utility-table", str(utility),
             "--mtable", str(mtable), "--variant", variant, "--stats"],
            capsys,
        )
        assert code == 0
        outputs[variant] = out
        stats_fields = dict(
            kv.split("=") for kv in err.split() if "=" in kv
        )
        candidates[variant] = int(stats_fields["candidates"])
    assert outputs["uspt"] == outputs["uspt1"]
    assert candidates["uspt"] < candidates["uspt1"]


def test_mine_deep_patterns_exits_0(tmp_path, capsys):
    n = 700
    data = tmp_path / "deep.qsd"
    data.write_text(" -1 ".join(["a[1]"] * n) + " -2\n")
    values = tmp_path / "one.tsv"
    values.write_text("a 1\n")
    code, out, err = run_main(
        ["mine", "--data", str(data), "--utility-table", str(values),
         "--mtable", str(values)],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[1:] == [
        ",".join(["[a]"] * k) + f"\t{k}\t1" for k in range(1, n + 1)
    ]


def test_missing_data_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["mine", "--utility-table", "x.ut", "--mtable", "x.mt"])
    assert err.value.code == 2


def test_mtable_and_beta_conflict_exits_2(fixture_files, capsys):
    data, utility, mtable = fixture_files
    with pytest.raises(SystemExit) as err:
        main(["mine", "--data", str(data), "--utility-table", str(utility),
              "--mtable", str(mtable), "--beta", "1.0", "--lmu", "0.1"])
    assert err.value.code == 2


def test_threshold_function_flags(fixture_files, capsys):
    data, utility, _ = fixture_files
    code, out, _ = run_main(
        ["mine", "--data", str(data), "--utility-table", str(utility),
         "--beta", "0.0", "--lmu", "0.0", "--max-len", "1"],
        capsys,
    )
    assert code == 0
    # every occurring single item is a result at zero thresholds
    assert len(out.splitlines()) == 1 + 6


def test_parse_error_exits_3(tmp_path, fixture_files, capsys):
    data, utility, mtable = fixture_files
    bad = tmp_path / "bad.qsd"
    bad.write_text("a[1] a[2] -2\n")
    code, _, err = run_main(
        ["mine", "--data", str(bad), "--utility-table", str(utility),
         "--mtable", str(mtable)],
        capsys,
    )
    assert code == 3
    assert "duplicate" in err


LONG = "1" * 5000
WIDE = "9" * 3000


@pytest.mark.parametrize(
    "data,units,position",
    [
        (f"a[{LONG}] -2\n", "a 1\n", "line 1, col 1"),
        (f"a[1] -2 SUtility:{LONG}\n", "a 1\n", "line 1, col 9"),
        ("a[1] -2\n", f"a {LONG}\n", "line 1, col 3"),
        # the table is read first, so its value is the one reported
        (f"a[{WIDE}] -2\n", f"a {WIDE}\n", "line 1, col 3"),
    ],
    ids=["quantity", "sutility", "table-value", "product"],
)
def test_long_integers_exit_3(tmp_path, data, units, position):
    """An integer of more than 1,000 digits is a parse error: ``int`` and
    ``str`` refuse more than 4,300 digits, so a longer quantity, or a
    product of two long ones, would otherwise end in a traceback."""
    (tmp_path / "long.qsd").write_text(data)
    (tmp_path / "long.ut").write_text(units)
    package_root = str(Path(huspmine.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, path])))
    proc = subprocess.run(
        [sys.executable, "-m", "huspmine.cli", "mine", "--data", "long.qsd",
         "--utility-table", "long.ut", "--beta", "0", "--lmu", "0"],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith(f"parse error: {position}: ")
    assert "more than 1000 digits" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_the_largest_integers_mine_and_print(tmp_path, capsys):
    """A 1,000-digit quantity at a 1,000-digit price is accepted: its
    utility has 2,000 digits, which still prints."""
    big = "9" * 1000
    data = tmp_path / "big.qsd"
    data.write_text(f"a[{big}] -2\n")
    utility = tmp_path / "big.ut"
    utility.write_text(f"a {big}\n")
    code, out, err = run_main(
        ["mine", "--data", str(data), "--utility-table", str(utility),
         "--beta", "0", "--lmu", "0"],
        capsys,
    )
    assert code == 0, err
    assert out.splitlines()[1:] == [f"[a]\t{int(big) ** 2}\t0"]


def test_long_numeric_names_mine(tmp_path, capsys):
    """Item names are not integers: a numeric name of any length is
    ordered by value without being converted."""
    long_name = "7" * 5000
    data = tmp_path / "names.qsd"
    data.write_text(f"{long_name}[1] 8[2] -2\n")
    utility = tmp_path / "names.ut"
    utility.write_text(f"8 1\n{long_name} 1\n")
    code, out, err = run_main(
        ["mine", "--data", str(data), "--utility-table", str(utility),
         "--beta", "0", "--lmu", "0"],
        capsys,
    )
    assert code == 0, err
    assert f"[8 {long_name}]\t3\t0" in out.splitlines()


@pytest.mark.parametrize("kind", ["directory", "latin-1"])
def test_unreadable_data_exits_3(kind, tmp_path, fixture_files, capsys):
    _, utility, mtable = fixture_files
    if kind == "directory":
        path = tmp_path
    else:
        path = tmp_path / "latin.qsd"
        path.write_bytes("caf\xe9[1] -2\n".encode("latin-1"))
    code, _, err = run_main(
        ["mine", "--data", str(path), "--utility-table", str(utility),
         "--mtable", str(mtable)],
        capsys,
    )
    assert code == 3
    assert str(path) in err
    assert len(err.splitlines()) == 1


def test_out_of_memory_exits_6(fixture_files, capsys, monkeypatch):
    data, utility, mtable = fixture_files

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("huspmine.cli.mine", exhausted)
    code, _, err = run_main(
        ["mine", "--data", str(data), "--utility-table", str(utility),
         "--mtable", str(mtable)],
        capsys,
    )
    assert code == 6
    assert err == "out of memory\n"


def test_sutility_tamper_exits_3(tmp_path, fixture_files, capsys):
    data, utility, mtable = fixture_files
    tampered = tmp_path / "tampered.qsd"
    tampered.write_text("a[2] -1 b[1] -2 SUtility:14\n")
    simple_ut = tmp_path / "small.ut"
    simple_ut.write_text("a 4\nb 5\n")
    code, _, err = run_main(
        ["mine", "--data", str(tampered), "--utility-table", str(simple_ut),
         "--beta", "0", "--lmu", "0"],
        capsys,
    )
    assert code == 3
    assert "SUtility" in err


def test_sutility_with_incomplete_table_exits_4(tmp_path, capsys):
    data = tmp_path / "t.qsd"
    data.write_text("a[2] -1 b[1] -2 SUtility:13\n")
    partial = tmp_path / "partial.ut"
    partial.write_text("a 4\n")
    code, _, err = run_main(
        ["mine", "--data", str(data), "--utility-table", str(partial),
         "--beta", "0", "--lmu", "0"],
        capsys,
    )
    assert code == 4
    assert "missing items" in err


def test_bad_threshold_flags_exit_2(fixture_files, capsys):
    data, utility, _ = fixture_files
    for flags in (["--beta", "-1", "--lmu", "0.1"],
                  ["--beta", "1", "--lmu", "1.5"]):
        with pytest.raises(SystemExit) as err:
            main(["mine", "--data", str(data), "--utility-table", str(utility)]
                 + flags)
        assert err.value.code == 2


def test_bad_sweep_value_exits_2(tmp_path, capsys):
    data = tmp_path / "t.qsd"
    data.write_text("a[1] -2\n")
    util = tmp_path / "t.ut"
    util.write_text("a 1\n")
    with pytest.raises(SystemExit) as err:
        main(["bench", "--data", str(data), "--utility-table", str(util),
              "--beta", "1", "--lmu-sweep", "0.1,oops"])
    assert err.value.code == 2


@pytest.mark.parametrize("command,flags", [
    ("mine", ["--beta", "1/0", "--lmu", "0.1"]),
    ("mine", ["--beta", "1", "--lmu", "1/0"]),
    ("oracle", ["--beta", "1/0", "--lmu", "0.1", "--max-len", "2"]),
    ("oracle", ["--beta", "1", "--lmu", "1/0", "--max-len", "2"]),
    ("bench", ["--beta", "1/0", "--lmu-sweep", "0.1"]),
    ("bench", ["--lmu", "1/0", "--beta-sweep", "0.5"]),
])
def test_zero_denominator_flag_exits_2(fixture_files, capsys, command, flags):
    data, utility, _ = fixture_files
    with pytest.raises(SystemExit) as err:
        main([command, "--data", str(data), "--utility-table", str(utility)] + flags)
    assert err.value.code == 2
    assert "invalid ratio: '1/0'" in capsys.readouterr().err


@pytest.mark.parametrize("sweep,fixed", [
    (["--lmu-sweep", "0.1,1/0"], ["--beta", "1"]),
    (["--beta-sweep", "0.5,1/0"], ["--lmu", "0.1"]),
])
def test_zero_denominator_sweep_value_exits_2(fixture_files, capsys, sweep, fixed):
    data, utility, _ = fixture_files
    with pytest.raises(SystemExit) as err:
        main(["bench", "--data", str(data), "--utility-table", str(utility)]
             + fixed + sweep)
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert "bad sweep value: invalid ratio: '1/0'" in err_text
    assert "Traceback" not in err_text


def test_check_against_malformed_file_exits_3(tmp_path, fixture_files, capsys):
    data, utility, mtable = fixture_files
    argv = ["oracle", "--data", str(data), "--utility-table", str(utility),
            "--mtable", str(mtable), "--max-len", "3"]
    # the oracle's own results with every utility off by 0.9: read as
    # integers they would be truncated back to the right values
    code, out, _ = run_main(argv + ["--format", "json"], capsys)
    assert code == 0
    off = json.loads(out)
    assert off["husps"]
    for entry in off["husps"]:
        entry["utility"] += 0.9
    # the oracle's own results with one utility negated
    negated = json.loads(out)
    assert negated["husps"][0]["utility"] > 0
    negated["husps"][0]["utility"] *= -1
    for content in ("not a result file\n",
                    "pattern\tutility\tmiu\n[zz],[qq]\t5\t5\n",
                    # the right result, but not in ASCII digits
                    "pattern\tutility\tmiu\n[b],[c e]\t2_00\t200\n",
                    "pattern\tutility\tmiu\n[b],[c e]\t+200\t200\n",
                    "pattern\tutility\tmiu\n[b],[c e]\t200\t\u0662\u0660\u0660\n",
                    "pattern\tutility\tmiu\n[b],[c e]\t-200\t200\n",
                    '{}',
                    '{"husps": 5}',
                    '{"husps": [1]}',
                    '{"husps": [{"pattern": "[b]", "utility": null, "miu": 1}]}',
                    '{"husps": [{"pattern": "[b]", "utility": true, "miu": 1}]}',
                    '{"husps": [{"pattern": "[b]", "utility": "2", "miu": 1}]}',
                    '{"husps": [{"pattern": 7, "utility": 2, "miu": 1}]}',
                    '{"husps": [{"pattern": "[b]", "utility": 2}]}',
                    json.dumps(off),
                    json.dumps(negated)):
        junk = tmp_path / "junk.tsv"
        junk.write_text(content)
        code, _, err = run_main(
            argv + ["--check", str(junk), "--out", str(tmp_path / "o.tsv")],
            capsys,
        )
        assert code == 3, content
        assert "Traceback" not in err


def test_bench_rejects_mtable(tmp_path, fixture_files, capsys):
    data, utility, mtable = fixture_files
    with pytest.raises(SystemExit) as err:
        main(["bench", "--data", str(data), "--utility-table", str(utility),
              "--mtable", str(mtable), "--beta", "1", "--lmu-sweep", "0.1"])
    assert err.value.code == 2


def test_config_error_exits_4(tmp_path, fixture_files, capsys):
    data, _, mtable = fixture_files
    incomplete = tmp_path / "incomplete.ut"
    incomplete.write_text("a 4\nb 5\n")
    code, _, err = run_main(
        ["mine", "--data", str(data), "--utility-table", str(incomplete),
         "--mtable", str(mtable)],
        capsys,
    )
    assert code == 4
    assert "missing items" in err


@pytest.mark.parametrize("command", ["mine", "oracle"])
def test_max_len_zero_is_a_config_error(fixture_files, capsys, command):
    data, utility, mtable = fixture_files
    code, out, err = run_main(
        [command, "--data", str(data), "--utility-table", str(utility),
         "--mtable", str(mtable), "--max-len", "0"],
        capsys,
    )
    assert code == 4
    assert out == ""
    assert err == "config error: max_pattern_length must be >= 1\n"


def test_oracle_check_roundtrip(tmp_path, fixture_files, capsys):
    data, utility, mtable = fixture_files
    result = tmp_path / "mined.tsv"
    code, _, _ = run_main(
        ["mine", "--data", str(data), "--utility-table", str(utility),
         "--mtable", str(mtable), "--out", str(result)],
        capsys,
    )
    assert code == 0
    code, _, _ = run_main(
        ["oracle", "--data", str(data), "--utility-table", str(utility),
         "--mtable", str(mtable), "--max-len", "9", "--check", str(result)],
        capsys,
    )
    assert code == 0


def _repeat_last_tsv_row(text):
    return text + text.splitlines(keepends=True)[-1]


def _repeat_first_json_result(text):
    payload = json.loads(text)
    payload["husps"].insert(0, payload["husps"][0])
    return json.dumps(payload)


@pytest.mark.parametrize("fmt, mutate, named", [
    ("tsv", lambda text: text.replace("\t200\t200", "\t201\t200"), "[b],[c e]"),
    ("tsv", _repeat_last_tsv_row, "[f],[b c],[b e]"),
    ("json", _repeat_first_json_result, "[b],[c e]"),
], ids=["changed-utility", "tsv-repeated-row", "json-repeated-row"])
def test_oracle_check_detects_mutation(tmp_path, fixture_files, capsys, fmt,
                                       mutate, named):
    """A check file that differs from the oracle's results, by a value or by
    a pattern listed twice, is a mismatch that names the pattern."""
    data, utility, mtable = fixture_files
    result = tmp_path / f"mined.{fmt}"
    run_main(
        ["mine", "--data", str(data), "--utility-table", str(utility),
         "--mtable", str(mtable), "--format", fmt, "--out", str(result)],
        capsys,
    )
    result.write_text(mutate(result.read_text()))
    code, _, err = run_main(
        ["oracle", "--data", str(data), "--utility-table", str(utility),
         "--mtable", str(mtable), "--max-len", "9", "--check", str(result)],
        capsys,
    )
    assert code == 1
    assert named in err


def test_oracle_budget_exits_5(fixture_files, capsys):
    data, utility, mtable = fixture_files
    code, _, err = run_main(
        ["oracle", "--data", str(data), "--utility-table", str(utility),
         "--mtable", str(mtable), "--max-len", "9", "--node-budget", "5"],
        capsys,
    )
    assert code == 5


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_oracle_budget_below_one_exits_2(fixture_files, capsys, budget):
    data, utility, mtable = fixture_files
    with pytest.raises(SystemExit) as err:
        main(["oracle", "--data", str(data), "--utility-table", str(utility),
              "--mtable", str(mtable), "--max-len", "2", "--node-budget", budget])
    assert err.value.code == 2
    assert f"must be at least 1: '{budget}'" in capsys.readouterr().err


def test_gen_roundtrip_and_determinism(tmp_path, capsys):
    out_a = tmp_path / "a.qsd", tmp_path / "a.ut"
    out_b = tmp_path / "b.qsd", tmp_path / "b.ut"
    for data_path, util_path in (out_a, out_b):
        code, _, _ = run_main(
            ["gen", "--out-data", str(data_path), "--out-utility", str(util_path),
             "--sequences", "30", "--items", "8", "--seed", "5"],
            capsys,
        )
        assert code == 0
    assert out_a[0].read_text() == out_b[0].read_text()
    assert out_a[1].read_text() == out_b[1].read_text()
    code, _, _ = run_main(
        ["mine", "--data", str(out_a[0]), "--utility-table", str(out_a[1]),
         "--beta", "1.0", "--lmu", "0.05"],
        capsys,
    )
    assert code == 0


def test_gen_bad_params_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["gen", "--out-data", str(tmp_path / "x"), "--out-utility",
              str(tmp_path / "y"), "--sequences", "5", "--items", "3",
              "--qty-min", "0"])
    assert err.value.code == 2


def test_bench_sweep(tmp_path, capsys):
    data_path, util_path = tmp_path / "b.qsd", tmp_path / "b.ut"
    run_main(
        ["gen", "--out-data", str(data_path), "--out-utility", str(util_path),
         "--sequences", "60", "--items", "6", "--max-elements", "3",
         "--max-element-size", "2", "--seed", "11"],
        capsys,
    )
    code, out, _ = run_main(
        ["bench", "--data", str(data_path), "--utility-table", str(util_path),
         "--beta", "1.0", "--lmu-sweep", "0.01,0.05,0.2"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("variant\t")
    assert len(lines) == 1 + 9  # 3 variants x 3 sweep points
    # candidates never increase as the threshold floor rises
    by_variant = {}
    for line in lines[1:]:
        variant, beta, lmu, runtime, cand, husps, mem = line.split("\t")
        by_variant.setdefault(variant, []).append((float(lmu), int(cand), int(husps)))
    for rows in by_variant.values():
        rows.sort()
        cands = [c for _, c, _ in rows]
        husps = [h for _, _, h in rows]
        assert cands == sorted(cands, reverse=True)
        assert husps == sorted(husps, reverse=True)


def test_bench_beta_sweep_monotone(tmp_path, capsys):
    data_path, util_path = tmp_path / "b.qsd", tmp_path / "b.ut"
    run_main(
        ["gen", "--out-data", str(data_path), "--out-utility", str(util_path),
         "--sequences", "60", "--items", "6", "--max-elements", "3",
         "--max-element-size", "2", "--seed", "11"],
        capsys,
    )
    code, out, _ = run_main(
        ["bench", "--data", str(data_path), "--utility-table", str(util_path),
         "--lmu", "0.01", "--beta-sweep", "0.5,1.5,3.0"],
        capsys,
    )
    assert code == 0
    by_variant = {}
    for line in out.splitlines()[1:]:
        variant, beta, lmu, runtime, cand, husps, mem = line.split("\t")
        by_variant.setdefault(variant, []).append((float(beta), int(cand), int(husps)))
    for rows in by_variant.values():
        rows.sort()
        assert [c for _, c, _ in rows] == sorted((c for _, c, _ in rows), reverse=True)
        assert [h for _, _, h in rows] == sorted((h for _, _, h in rows), reverse=True)


def test_bench_single_point_matches_mine_stats(tmp_path, capsys):
    data_path, util_path = tmp_path / "b.qsd", tmp_path / "b.ut"
    run_main(
        ["gen", "--out-data", str(data_path), "--out-utility", str(util_path),
         "--sequences", "60", "--items", "6", "--seed", "3"],
        capsys,
    )
    code, out, _ = run_main(
        ["bench", "--data", str(data_path), "--utility-table", str(util_path),
         "--beta", "1.0", "--lmu-sweep", "0.05", "--variants", "uspt"],
        capsys,
    )
    assert code == 0
    row = out.splitlines()[1].split("\t")
    code, _, err = run_main(
        ["mine", "--data", str(data_path), "--utility-table", str(util_path),
         "--beta", "1.0", "--lmu", "0.05", "--stats"],
        capsys,
    )
    assert code == 0
    stats_fields = dict(kv.split("=") for kv in err.split() if "=" in kv)
    assert int(row[4]) == int(stats_fields["candidates"])
    assert int(row[5]) == int(stats_fields["husps"])


def test_bench_mines_each_point_once(monkeypatch, fixture_files, capsys):
    """Each (variant, point) is mined once, and its row takes ``runtime_s``
    and ``peak_mem_bytes`` from that run's statistics."""
    import huspmine.cli as cli_module

    real_mine = cli_module.mine
    calls = []

    def fake_mine(db, utable, mtable, config):
        husps, stats = real_mine(db, utable, mtable, config)
        calls.append(config.variant)
        stats.wall_time = 7.0 * len(calls)
        stats.peak_memory_estimate = 4242 * len(calls)
        return husps, stats

    monkeypatch.setattr(cli_module, "mine", fake_mine)
    data, utility, _ = fixture_files
    code, out, _ = run_main(
        ["bench", "--data", str(data), "--utility-table", str(utility),
         "--beta", "1.0", "--lmu-sweep", "0.05,0.1", "--variants", "uspt1,uspt"],
        capsys,
    )
    assert code == 0
    assert calls == ["uspt1", "uspt1", "uspt", "uspt"]
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert [(row[3], row[6]) for row in rows] == [
        (f"{7.0 * n:.3f}", str(4242 * n)) for n in (1, 2, 3, 4)
    ]


HUGE = "1" + "0" * 5000          # 1e5000, past float's range and str's digit limit
HALF_HUGE = "1" + "0" * 400 + ".5"


@pytest.mark.parametrize("flags, columns", [
    (["--lmu", "0.1", "--beta-sweep", f"0.5,1e5000,{HALF_HUGE}"],
     [("0.5", "0.1"), (HUGE, "0.1"), (f"{2 * 10 ** 400 + 1}/2", "0.1")]),
    (["--beta", "1e5000", "--lmu-sweep", "0.1,0.2"], [(HUGE, "0.1"), (HUGE, "0.2")]),
    (["--beta", "1", "--lmu-sweep", "1e-400,1e-500,1e-310"],
     [("1.0", f"1/{10 ** 400}"), ("1.0", f"1/{10 ** 500}"), ("1.0", f"1/{10 ** 310}")]),
], ids=["beta-sweep", "lmu-sweep", "underflow"])
def test_bench_prints_ratios_too_large_for_a_float(fixture_files, capsys, flags, columns):
    """A beta or LMU that fits a normal float prints as one, as before; a
    larger one, and a positive one below the least normal float, which would
    print as ``0.0`` or a rounded subnormal, print exactly, as their
    fractions, and the sweep exits 0."""
    data, utility, _ = fixture_files
    code, out, err = run_main(
        ["bench", "--data", str(data), "--utility-table", str(utility),
         "--variants", "uspt"] + flags,
        capsys,
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "variant\tbeta\tlmu\truntime_s\tcandidates\thusps\tpeak_mem_bytes"
    assert [tuple(line.split("\t")[1:3]) for line in lines[1:]] == columns


def test_bench_requires_exactly_one_sweep(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["bench", "--data", "x", "--utility-table", "y", "--beta", "1"])
    assert err.value.code == 2


@pytest.mark.parametrize("variants", ["", ","])
def test_bench_without_variants_exits_2(fixture_files, capsys, variants):
    data, utility, _ = fixture_files
    with pytest.raises(SystemExit) as err:
        main(["bench", "--data", str(data), "--utility-table", str(utility),
              "--beta", "1", "--lmu-sweep", "0.1", "--variants", variants])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--variants names no variant" in captured.err


def test_console_entry_point(fixture_files):
    data, utility, mtable = fixture_files
    # the child imports the same package as the suite, installed or not
    package_root = str(Path(huspmine.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, path])))
    proc = subprocess.run(
        [sys.executable, "-m", "huspmine.cli", "mine", "--data", str(data),
         "--utility-table", str(utility), "--mtable", str(mtable)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1:] == EXPECTED_ROWS


def test_mine_output_does_not_depend_on_the_hash_seed(tmp_path):
    # 7, 07 and 007 are equal as numbers; their ids must still come out in
    # one order whatever order the interpreter iterates a set of names in
    data = tmp_path / "tie.qsd"
    data.write_text("7[1] 07[2] -1 07[1] 007[2] -2\n07[3] -1 7[1] 007[1] -2\n")
    utility = tmp_path / "tie.ut"
    utility.write_text("7 1\n07 2\n007 3\n")
    package_root = str(Path(huspmine.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    outputs = []
    for seed in ("1", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [package_root, path])))
        proc = subprocess.run(
            [sys.executable, "-m", "huspmine.cli", "mine", "--data", str(data),
             "--utility-table", str(utility), "--beta", "0", "--lmu", "0"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
