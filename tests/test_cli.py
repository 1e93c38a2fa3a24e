"""End-to-end CLI tests (in-process, asserting exit codes and output)."""

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bhgreedy import Params, SequenceRecord, Threshold, cli, strong_bound_check
from bhgreedy.cli import (
    EXIT_BOUND_CONTRADICTION,
    EXIT_GUARD,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAIL,
    fit_growth,
    main,
)
from bhgreedy.errors import FitError
from bhgreedy.formats import read_terms

ROOT = Path(__file__).resolve().parent.parent
MIAN_CHOWLA_10 = [1, 2, 4, 8, 13, 21, 31, 45, 66, 81]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# generate


def test_generate_bfile_mian_chowla(capsys, tmp_path):
    out = tmp_path / "mc.bfile"
    code, _, _ = run(capsys, "generate", "--h", "2", "--g", "1", "--n", "10",
                     "--algo", "strong", "--format", "bfile", "--out", str(out))
    assert code == EXIT_OK
    expected = "".join(f"{n} {a}\n" for n, a in enumerate(MIAN_CHOWLA_10, 1))
    assert out.read_text() == expected


def test_generate_csv_first_two_terms(capsys):
    code, out, _ = run(capsys, "generate", "--h", "2", "--g", "1", "--n", "2",
                       "--algo", "strong", "--format", "csv")
    assert code == EXIT_OK
    assert out == "1,1\n2,2\n"


def test_generate_json_content(capsys):
    code, out, _ = run(capsys, "generate", "--h", "2", "--g", "2", "--n", "6",
                       "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["algorithm"] == "strong"
    assert doc["bound_ok"] is True
    assert doc["sorted"] is True
    assert len(doc["terms"]) == 6
    assert len(doc["per_step"]) == 6


def test_generate_usage_error(capsys):
    code, _, _ = run(capsys, "generate", "--h", "0", "--g", "1", "--n", "5")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("command,h,g", [("verify", "1", "1"), ("fit", "2", "0")])
def test_order_or_multiplicity_out_of_range_is_usage_error(capsys, tmp_path, command, h, g):
    f = tmp_path / "mc.bfile"
    f.write_text("1 1\n2 2\n3 4\n")
    code, out, err = run(capsys, command, "--h", h, "--g", g, str(f))
    assert code == EXIT_USAGE
    assert err == f"error: need h >= 2 and g >= 1, got h={h}, g={g}\n"
    assert out == ""


def test_generate_missing_args_usage_error(capsys):
    code, _, _ = run(capsys, "generate", "--h", "2")
    assert code == EXIT_USAGE


def test_generate_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "generate", "--h", "3", "--g", "2", "--n", "8",
                         "--format", "json", "--out", str(path))
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_generate_classic_scan_cap_guard(capsys):
    code, _, err = run(capsys, "generate", "--h", "2", "--g", "1", "--n", "10",
                       "--algo", "classic", "--scan-cap", "3")
    assert code == EXIT_GUARD
    assert "guard exceeded" in err


def test_generate_scan_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv("BHG_SCAN_CAP", "3")
    code, _, _ = run(capsys, "generate", "--h", "2", "--g", "1", "--n", "10",
                     "--algo", "classic")
    assert code == EXIT_GUARD


@pytest.mark.parametrize("command", ["generate", "compare"])
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_scan_cap_below_one_is_usage_error(capsys, monkeypatch, command, cap):
    argv = [command, "--h", "2", "--g", "1", "--n", "5"]
    if command == "generate":
        argv += ["--algo", "classic"]
    code, _, err = run(capsys, *argv, f"--scan-cap={cap}")
    assert code == EXIT_USAGE
    assert f"--scan-cap must be >= 1, got {cap}" in err
    monkeypatch.setenv("BHG_SCAN_CAP", cap)
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert f"BHG_SCAN_CAP must be >= 1, got {cap}" in err


@pytest.mark.parametrize("h,g,n", [(2, 1, 30), (3, 2, 8)])
def test_generate_timings_file_has_the_json_dumps_bytes(capsys, h, g, n):
    """The --timings block is the one output with floats; the file holds the
    bytes json.dumps(indent=2, sort_keys=True) gives for its document."""
    code, stdout, _ = run(capsys, "generate", "--h", str(h), "--g", str(g),
                          "--n", str(n), "--timings")
    assert code == EXIT_OK
    doc = json.loads(stdout)
    assert all(type(t) is float for t in doc["timings"]["per_step_seconds"])
    assert stdout == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("algo,h,g,n", [
    ("strong", 2, 1, 240), ("strong", 3, 2, 42), ("strong", 2, 3, 61),
    ("classic", 4, 1, 19),
])
def test_generate_json_has_the_json_dumps_bytes(capsys, algo, h, g, n):
    """Without --timings every per_step row holds only ints, the rows
    canonical_json renders from one template; the bytes are still those
    of json.dumps(indent=2, sort_keys=True)."""
    code, stdout, _ = run(capsys, "generate", "--algo", algo, "--h", str(h),
                          "--g", str(g), "--n", str(n), "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(stdout)
    assert len(doc["per_step"]) == n
    assert stdout == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv,flag,env", [
    (["generate", "--h", "2", "--g", "1", "--n", "5"], "--memory-cap", "BHG_MEMORY_CAP"),
    (["compare", "--h", "2", "--g", "1", "--n", "5"], "--memory-cap", "BHG_MEMORY_CAP"),
    (["verify", "--h", "2", "--g", "1"], "--enum-cap", "BHG_ENUM_CAP"),
    (["diagnose", "--h", "2", "--g", "1", "--n", "4"], "--enum-cap", "BHG_ENUM_CAP"),
    (["diagnose", "--h", "2", "--g", "1", "--n", "4"], "--window-cap", "BHG_WINDOW_CAP"),
])
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_guard_below_one_is_usage_error(capsys, monkeypatch, tmp_path,
                                        argv, flag, env, cap):
    if argv[0] == "verify":
        f = tmp_path / "mc.bfile"
        f.write_text("1 1\n2 2\n3 4\n")
        argv = argv + [str(f)]
    code, _, err = run(capsys, *argv, f"{flag}={cap}")
    assert code == EXIT_USAGE
    assert f"{flag} must be >= 1, got {cap}" in err
    monkeypatch.setenv(env, cap)
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert f"{env} must be >= 1, got {cap}" in err


@pytest.mark.parametrize("argv,env", [
    (["generate", "--h", "2", "--g", "1", "--n", "5"], "BHG_MEMORY_CAP"),
    (["generate", "--algo", "classic", "--h", "2", "--g", "1", "--n", "5"],
     "BHG_SCAN_CAP"),
    (["compare", "--h", "2", "--g", "1", "--n", "5"], "BHG_SCAN_CAP"),
    (["verify", "--h", "2", "--g", "1"], "BHG_ENUM_CAP"),
    (["diagnose", "--h", "2", "--g", "1", "--n", "4"], "BHG_MEMORY_CAP"),
    (["diagnose", "--h", "2", "--g", "1", "--n", "4"], "BHG_WINDOW_CAP"),
])
@pytest.mark.parametrize("raw", [" \uff15", "1_000", "\u0663", "5.0", "+"])
def test_guard_variable_takes_only_sign_and_ascii_digits(
        capsys, monkeypatch, tmp_path, argv, env, raw):
    # int() would take the full-width 5, the underscore and the Arabic-Indic
    # 3; like b-file and CSV fields, a guard variable refuses them.
    if argv[0] == "verify":
        f = tmp_path / "mc.bfile"
        f.write_text("1 1\n2 2\n3 4\n")
        argv = argv + [str(f)]
    monkeypatch.setenv(env, raw)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert f"environment variable {env} must be an integer, got {raw!r}" in err
    assert out == ""


@pytest.mark.parametrize("command,flag", [
    ("generate", "--h"), ("generate", "--g"), ("generate", "--n"),
    ("generate", "--memory-cap"), ("compare", "--scan-cap"),
    ("diagnose", "--enum-cap"), ("diagnose", "--window-cap"),
    ("diagnose", "--sample-budget"),
])
@pytest.mark.parametrize("raw", ["\uff12", "1_0", "\u0663", "2.0"])
def test_integer_flag_takes_only_sign_and_ascii_digits(capsys, command, flag, raw):
    # int() would take the full-width 2, the underscore and the Arabic-Indic
    # 3; every integer flag refuses them, as the guard variables do.
    values = {"--h": "2", "--g": "1", "--n": "3", flag: raw}
    code, out, err = run(capsys, command, *(f"{k}={v}" for k, v in values.items()))
    assert code == EXIT_USAGE
    assert f"argument {flag}: must be an integer, got {raw!r}" in err
    assert out == ""


def test_guard_variable_allows_sign_and_surrounding_spaces(capsys, monkeypatch):
    monkeypatch.setenv("BHG_SCAN_CAP", " +3 ")
    code, _, _ = run(capsys, "generate", "--algo", "classic", "--h", "2",
                     "--g", "1", "--n", "10")
    assert code == EXIT_GUARD


@pytest.mark.parametrize("fmt", ["csv", "bfile"])
def test_generate_timings_need_json(capsys, tmp_path, fmt):
    out = tmp_path / "seq.txt"
    code, stdout, err = run(capsys, "generate", "--h", "2", "--g", "1", "--n", "5",
                            "--format", fmt, "--timings", "--out", str(out))
    assert code == EXIT_USAGE
    assert "--timings applies only to --format json" in err
    assert stdout == "" and not out.exists()
    code, stdout, _ = run(capsys, "generate", "--h", "2", "--g", "1", "--n", "5",
                          "--timings")
    assert code == EXIT_OK
    assert "timings" in json.loads(stdout)


@pytest.mark.parametrize("argv,flag,env", [
    (["generate", "--h", "2", "--g", "1", "--n", "3", "--format", "csv"],
     "--enum-cap", "BHG_ENUM_CAP"),
    (["compare", "--h", "2", "--g", "1", "--n", "3"], "--enum-cap", "BHG_ENUM_CAP"),
    (["verify", "--h", "2", "--g", "1"], "--memory-cap", "BHG_MEMORY_CAP"),
])
def test_unread_guard_is_not_a_flag_and_its_variable_is_ignored(
        capsys, monkeypatch, tmp_path, argv, flag, env):
    if argv[0] == "verify":
        f = tmp_path / "mc.bfile"
        f.write_text("1 1\n2 2\n3 4\n")
        argv = argv + [str(f)]
    code, out, err = run(capsys, *argv, flag, "1")
    assert code == EXIT_USAGE
    assert f"unrecognized arguments: {flag} 1" in err
    assert out == ""
    monkeypatch.setenv(env, "0")
    code, _, err = run(capsys, *argv)
    assert code == EXIT_OK
    assert err == ""


def test_generate_strong_takes_no_scan_cap(capsys, monkeypatch):
    argv = ["generate", "--algo", "strong", "--h", "2", "--g", "1", "--n", "5",
            "--format", "csv"]
    for cap in ("-7", "50"):
        code, _, err = run(capsys, *argv, f"--scan-cap={cap}")
        assert code == EXIT_USAGE
        assert "--scan-cap applies only to --algo classic" in err
    code, plain, _ = run(capsys, *argv)
    assert code == EXIT_OK
    monkeypatch.setenv("BHG_SCAN_CAP", "-7")
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert "BHG_SCAN_CAP must be >= 1, got -7" in err
    # A valid cap in the environment is ignored by strong runs.
    monkeypatch.setenv("BHG_SCAN_CAP", "3")
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert out == plain


def test_generate_memory_cap_guard(capsys):
    code, _, err = run(capsys, "generate", "--h", "2", "--g", "1", "--n", "30",
                       "--memory-cap", "20")
    assert code == EXIT_GUARD
    assert "guard exceeded" in err


def test_bound_contradiction_exit_code(capsys, monkeypatch):
    def broken_bound(n, h, g):
        return Threshold(0, g)

    monkeypatch.setattr("bhgreedy.greedy.theorem_bound", broken_bound)
    code, _, err = run(capsys, "generate", "--h", "2", "--g", "1", "--n", "5")
    assert code == EXIT_BOUND_CONTRADICTION
    assert "contradiction" in err


# ---------------------------------------------------------------------------
# verify


def test_round_trip_generate_verify(capsys, tmp_path):
    out = tmp_path / "seq.bfile"
    run(capsys, "generate", "--h", "2", "--g", "2", "--n", "12",
        "--format", "bfile", "--out", str(out))
    code, stdout, _ = run(capsys, "verify", "--h", "2", "--g", "2", str(out))
    assert code == EXIT_OK
    assert "ok" in stdout


def test_verify_flags_bad_prefix(capsys, tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("1,1\n2,2\n3,3\n")
    code, stdout, _ = run(capsys, "verify", "--h", "2", "--g", "1", str(f))
    assert code == EXIT_VERIFY_FAIL
    assert "n=3" in stdout and "4" in stdout  # names the prefix and the sum


def test_verify_bhg_only(capsys, tmp_path):
    f = tmp_path / "set.bfile"
    f.write_text("1 1\n2 2\n3 3\n")
    code, _, _ = run(capsys, "verify", "--h", "2", "--g", "2", "--bhg-only", str(f))
    assert code == EXIT_OK
    code, stdout, _ = run(capsys, "verify", "--h", "2", "--g", "1", "--bhg-only", str(f))
    assert code == EXIT_VERIFY_FAIL
    assert "4" in stdout


@pytest.mark.parametrize("bound", ["classic", "theorem", "none"])
def test_verify_bhg_only_takes_no_bound(capsys, tmp_path, bound):
    # {1, 2, 3, 4} is B_2[2]; --bhg-only checks no ceiling, so an explicit
    # --bound would be ignored and is refused instead.
    f = tmp_path / "set.bfile"
    f.write_text("1 1\n2 2\n3 3\n4 4\n")
    code, stdout, err = run(capsys, "verify", "--h", "2", "--g", "2",
                            "--bhg-only", "--bound", bound, str(f))
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "--bound does not apply with --bhg-only" in err
    code, stdout, _ = run(capsys, "verify", "--h", "2", "--g", "2",
                          "--bhg-only", str(f))
    assert code == EXIT_OK
    assert stdout == "ok: all 4 terms form a B_2[2] set\n"


def test_verify_empty_file_is_usage_error(capsys, tmp_path):
    f = tmp_path / "empty.bfile"
    f.write_text("")
    code, _, err = run(capsys, "verify", "--h", "2", "--g", "1", str(f))
    assert code == EXIT_USAGE
    assert "error" in err


def test_verify_writes_json_report(capsys, tmp_path):
    f = tmp_path / "seq.bfile"
    run(capsys, "generate", "--h", "2", "--g", "1", "--n", "8",
        "--format", "bfile", "--out", str(f))
    report = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--h", "2", "--g", "1", str(f),
                     "--report", str(report))
    assert code == EXIT_OK
    doc = json.loads(report.read_text())
    assert doc["ok"] is True
    assert doc["bound"]["ok"] is True


def test_verify_enum_cap_fires_at_first_prefix_over_it(capsys):
    # The 8-term prefix is the first with more than 100 3-multisets: C(10, 3).
    mian_chowla = ROOT / "bench" / "pinned" / "verify-diagnose-n198.bfile"
    code, stdout, err = run(capsys, "verify", "--h", "3", "--g", "1",
                            "--enum-cap", "100", str(mian_chowla))
    assert code == EXIT_GUARD
    assert stdout == ""
    assert "enumeration of 120 multisets exceeds cap 100" in err


def test_verify_classic_bound_choice(capsys, tmp_path):
    f = tmp_path / "seq.bfile"
    run(capsys, "generate", "--h", "3", "--g", "1", "--n", "8", "--algo",
        "classic", "--format", "bfile", "--out", str(f))
    code, stdout, _ = run(capsys, "verify", "--h", "3", "--g", "1", str(f),
                          "--bound", "classic")
    assert code == EXIT_OK
    assert "classic-ceiling" in stdout


def test_verify_classic_bound_needs_g1_before_any_check(capsys, tmp_path,
                                                         monkeypatch):
    f = tmp_path / "seq.bfile"
    run(capsys, "generate", "--h", "2", "--g", "2", "--n", "8", "--algo",
        "classic", "--format", "bfile", "--out", str(f))

    def no_check(*args, **kwargs):
        raise AssertionError("prefixes checked")

    monkeypatch.setattr("bhgreedy.verify.verify_strong_prefixes", no_check)
    code, stdout, err = run(capsys, "verify", "--h", "2", "--g", "2", str(f),
                            "--bound", "classic")
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "classic ceiling is only proven for g = 1" in err


# The strong (3, 3, 19) run and 770, which the run rejects as its 20th term
# on the level-3 ceiling alone: a B_3[3] set whose last prefix is not strong.
STRONG_3_3_19_770 = [1, 2, 3, 4, 8, 11, 21, 32, 43, 65, 108, 131, 196, 262, 287,
                     378, 434, 470, 599, 770]


def write_bfile(path, terms):
    path.write_text("".join(f"{n} {a}\n" for n, a in enumerate(terms, 1)))
    return str(path)


def test_verify_names_a_level_past_its_ceiling(capsys, tmp_path):
    f = write_bfile(tmp_path / "seq.bfile", STRONG_3_3_19_770)
    report = tmp_path / "report.json"
    code, stdout, _ = run(capsys, "verify", "--h", "3", "--g", "3", f,
                          "--report", str(report))
    assert code == EXIT_VERIFY_FAIL
    assert stdout == ("FAIL prefix n=20: level 3 count 150 exceeds its ceiling\n"
                      "ok: strong-ceiling holds at every index "
                      "(worst ratio 0.00463 at n=1)\n")
    assert json.loads(report.read_text()) == {
        "bound": {"failures": [], "kind": "strong-ceiling", "ok": True},
        "g": 3, "h": 3, "input": f, "n_terms": 20, "ok": False,
        "prefixes": {"checked": 20, "failures": [
            {"bhg_ok": True, "count": None, "failed_s": 3, "level_count": 150,
             "n": 20, "x": None}]},
    }


def test_verify_names_a_sum_past_its_multiplicity(capsys, tmp_path):
    f = tmp_path / "corrupt.bfile"
    f.write_text("1 1\n2 2\n3 3\n")
    code, stdout, _ = run(capsys, "verify", "--h", "2", "--g", "1", str(f))
    assert code == EXIT_VERIFY_FAIL
    assert stdout.splitlines()[0] == "FAIL prefix n=3: sum 4 has 2 representations (> 1)"


def test_verify_names_a_term_past_the_strong_ceiling(capsys, tmp_path):
    f = write_bfile(tmp_path / "seq.bfile", [1, 1000000])
    report = tmp_path / "report.json"
    code, stdout, _ = run(capsys, "verify", "--h", "2", "--g", "1", f,
                          "--report", str(report))
    assert code == EXIT_VERIFY_FAIL
    assert stdout == ("ok: all 2 prefixes satisfy both strong-set conditions\n"
                      "FAIL strong-ceiling at n=2: term 1000000\n")
    assert json.loads(report.read_text()) == {
        "bound": {"failures": [{"n": 2, "term": 1000000}], "kind": "strong-ceiling",
                  "ok": False},
        "g": 1, "h": 2, "input": f, "n_terms": 2, "ok": False,
        "prefixes": {"checked": 2, "failures": []},
    }


@pytest.mark.parametrize("h,g,source", [
    (2, 1, "verify-diagnose-n198.bfile"),
    (2, 1, "verify-diagnose-n199.bfile"),
    (2, 1, "verify-diagnose-n200.bfile"),
    (2, 1, MIAN_CHOWLA_10),
    # 2 = 2g * 1^(h+(h-1)/g): the term is exactly on its ceiling.
    (2, 1, [2]),
    # 400^200 and 40^200 are past the largest float; the ratios are 1 and
    # 10^-200.
    (2, 200, [400]),
    (2, 200, [40]),
])
def test_verify_worst_ratio_is_the_rounded_exact_fraction(capsys, tmp_path, h,
                                                          g, source):
    """verify prints the worst ratio as the correctly rounded float of the
    exact fraction a_n^g / rhs_pow, with no Fraction built."""
    if isinstance(source, str):
        path = ROOT / "bench" / "pinned" / source
    else:
        path = tmp_path / "seq.bfile"
        path.write_text("".join(f"{n} {a}\n" for n, a in enumerate(source, 1)))
    terms = read_terms(str(path), "bfile")
    worst = strong_bound_check(
        SequenceRecord(Params(h, g, len(terms)), "strong", terms)).worst
    assert worst.ratio == Fraction(worst.term_pow, worst.rhs_pow)
    code, stdout, _ = run(capsys, "verify", "--h", str(h), "--g", str(g),
                          str(path))
    assert code == EXIT_OK
    assert stdout.splitlines()[-1] == (
        f"ok: strong-ceiling holds at every index (worst ratio "
        f"{float(Fraction(worst.term_pow, worst.rhs_pow)):.3g} at n={worst.n})")


# ---------------------------------------------------------------------------
# diagnose


def test_diagnose_h2_all_hold(capsys):
    code, stdout, _ = run(capsys, "diagnose", "--h", "2", "--g", "2", "--n", "6")
    assert code == EXIT_OK
    assert "diagnostics: ok" in stdout


def test_diagnose_reports_profile_growth_violations_for_h3(capsys, tmp_path):
    out = tmp_path / "ledger.json"
    code, stdout, _ = run(capsys, "diagnose", "--h", "3", "--g", "2", "--n", "5",
                          "--out", str(out))
    assert code == EXIT_VERIFY_FAIL
    assert "profile_growth" in stdout
    doc = json.loads(out.read_text())
    assert doc["ok"] is False
    assert any(not i["holds"] and i["name"] == "profile_growth"
               for i in doc["instances"])
    assert all(i["holds"] for i in doc["instances"]
               if i["name"] != "profile_growth")


def test_diagnose_corrupt_input_names_failure(capsys, tmp_path):
    f = tmp_path / "corrupt.bfile"
    f.write_text("1 1\n2 2\n3 3\n")
    code, stdout, _ = run(capsys, "diagnose", "--h", "2", "--g", "1",
                          "--input", str(f))
    assert code == EXIT_VERIFY_FAIL
    assert stdout.splitlines()[0] == (
        "step=3 prefix_strong: sum 4 has 2 representations (> 1) FAIL")


def test_diagnose_names_a_level_past_its_ceiling(capsys, tmp_path):
    f = write_bfile(tmp_path / "seq.bfile", STRONG_3_3_19_770)
    out = tmp_path / "ledger.json"
    code, stdout, _ = run(capsys, "diagnose", "--h", "3", "--g", "3", "--input", f,
                          "--out", str(out))
    assert code == EXIT_VERIFY_FAIL
    lines = stdout.splitlines()
    assert lines[0] == "step=20 prefix_strong: level 3 count 150 exceeds its ceiling FAIL"
    assert lines[-1] == "diagnostics: FAILED (4578 inequality instances, 20 prefixes)"
    doc = json.loads(out.read_text())
    assert (doc["ok"], doc["prefix_failures"]) == (False, [
        {"bhg_ok": True, "count": None, "failed_s": 3, "level_count": 150, "n": 20,
         "x": None}])


def test_diagnose_needs_n_or_input(capsys):
    code, _, err = run(capsys, "diagnose", "--h", "2", "--g", "1")
    assert code == EXIT_USAGE


def test_diagnose_takes_n_or_input_not_both(capsys, tmp_path):
    # --n only sizes a generated run, so with --input it would be ignored.
    f = tmp_path / "mc.bfile"
    f.write_text("1 1\n2 2\n3 4\n")
    code, stdout, err = run(capsys, "diagnose", "--h", "2", "--g", "1",
                            "--n", "5", "--input", str(f))
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "not allowed with" in err


def test_diagnose_memory_cap_flag_needs_n(capsys, tmp_path):
    # The memory cap bounds the sum tables of a generated run; --input builds
    # none, so the flag would be ignored there.
    f = tmp_path / "mc.bfile"
    f.write_text("1 1\n2 2\n3 4\n")
    code, stdout, err = run(capsys, "diagnose", "--h", "2", "--g", "1",
                            "--input", str(f), "--memory-cap", "1")
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "--memory-cap applies only with --n" in err
    code, _, err = run(capsys, "diagnose", "--h", "2", "--g", "1", "--n", "3",
                       "--memory-cap", "1")
    assert code == EXIT_GUARD


def test_diagnose_input_does_not_read_the_memory_cap_variable(
        capsys, monkeypatch, tmp_path):
    f = tmp_path / "mc.bfile"
    f.write_text("1 1\n2 2\n3 4\n")
    monkeypatch.setenv("BHG_MEMORY_CAP", "0")
    code, stdout, err = run(capsys, "diagnose", "--h", "2", "--g", "1",
                            "--input", str(f))
    assert code == EXIT_OK
    assert "diagnostics: ok" in stdout
    assert err == ""
    code, _, err = run(capsys, "diagnose", "--h", "2", "--g", "1", "--n", "3")
    assert code == EXIT_USAGE
    assert "environment variable BHG_MEMORY_CAP must be >= 1, got 0" in err


def test_diagnose_window_cap_guard(capsys):
    code, _, _ = run(capsys, "diagnose", "--h", "2", "--g", "1", "--n", "12",
                     "--window-cap", "50")
    assert code == EXIT_GUARD


def test_verify_and_diagnose_reproduce_the_pinned_benchmark_bytes(
        capsys, monkeypatch, tmp_path):
    """The verify-diagnose benchmark commands, run from the repository root
    so that the echoed input paths match, give the pinned bytes."""
    monkeypatch.chdir(ROOT)
    pinned = Path("bench") / "pinned"
    for n in (198, 199, 200):
        report = tmp_path / f"n{n}.report.json"
        code, _, _ = run(capsys, "verify", "--h", "2", "--g", "1",
                         str(pinned / f"verify-diagnose-n{n}.bfile"),
                         "--report", str(report))
        assert code == EXIT_OK
        assert report.read_bytes() == \
            (pinned / f"verify-diagnose-n{n}.report.json").read_bytes()
    ledger = tmp_path / "ledger.json"
    code, _, _ = run(capsys, "diagnose", "--h", "3", "--g", "2", "--input",
                     str(pinned / "verify-diagnose-h3g2n7.bfile"),
                     "--out", str(ledger))
    assert code == EXIT_VERIFY_FAIL
    assert ledger.read_bytes() == \
        (pinned / "verify-diagnose-ledger.json").read_bytes()
    assert sum(not i["holds"] for i in json.loads(ledger.read_text())["instances"]) == 162


@pytest.mark.parametrize("algo,h,g,n,name", [
    (algo, h, g, n, name)
    for algo, h, g, band, name in [
        ("strong", 2, 1, (238, 239, 240), "mianchowla-h2g1"),
        ("classic", 4, 1, (17, 18, 19), "classic-h4g1"),
        ("strong", 3, 2, (40, 41, 42), "strong-h3g2"),
    ]
    for n in band
])
def test_generate_reproduces_the_pinned_benchmark_bytes(capsys, algo, h, g, n,
                                                        name):
    """The generate benchmark commands give the pinned bytes, at every size
    of each workload's band."""
    code, stdout, _ = run(capsys, "generate", "--algo", algo, "--h", str(h),
                          "--g", str(g), "--n", str(n))
    assert code == EXIT_OK
    assert stdout.encode() == \
        (ROOT / "bench" / "pinned" / f"{name}-n{n}.json").read_bytes()


@pytest.mark.parametrize("budget", ["0", "-4"])
def test_diagnose_sample_budget_below_one_is_usage_error(capsys, budget):
    code, out, err = run(capsys, "diagnose", "--h", "2", "--g", "2", "--n", "4",
                         f"--sample-budget={budget}")
    assert code == EXIT_USAGE
    assert f"--sample-budget must be >= 1, got {budget}" in err
    assert out == ""


# ---------------------------------------------------------------------------
# compare


def test_compare_identical_for_g1(capsys):
    code, stdout, _ = run(capsys, "compare", "--h", "2", "--g", "1", "--n", "15")
    assert code == EXIT_OK
    assert "identical" in stdout


def test_compare_reports_divergence(capsys):
    code, stdout, _ = run(capsys, "compare", "--h", "3", "--g", "3", "--n", "20")
    assert code == EXIT_OK
    assert "diverge at n=20" in stdout
    assert "770" in stdout and "806" in stdout


def test_compare_scan_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv("BHG_SCAN_CAP", "3")
    code, _, err = run(capsys, "compare", "--h", "2", "--g", "1", "--n", "10")
    assert code == EXIT_GUARD
    assert "guard exceeded" in err


def test_compare_single_term_trivially_identical(capsys):
    code, stdout, _ = run(capsys, "compare", "--h", "2", "--g", "2", "--n", "1")
    assert code == EXIT_OK
    assert "identical" in stdout


# ---------------------------------------------------------------------------
# fit


def test_fit_mian_chowla_slope(capsys, tmp_path):
    f = tmp_path / "mc.bfile"
    run(capsys, "generate", "--h", "2", "--g", "1", "--n", "50",
        "--format", "bfile", "--out", str(f))
    code, stdout, _ = run(capsys, "fit", "--h", "2", "--g", "1", str(f))
    assert code == EXIT_OK
    slope = float(stdout.split("fitted exponent: ")[1].split()[0])
    assert 2 - 0.15 <= slope < 3
    assert "h+(h-1)/g: 3.0000" in stdout


def test_fit_needs_eight_terms(capsys, tmp_path):
    f = tmp_path / "short.bfile"
    f.write_text("".join(f"{n} {n}\n" for n in range(1, 6)))
    code, _, err = run(capsys, "fit", "--h", "2", "--g", "1", str(f))
    assert code == EXIT_USAGE
    assert "8 terms" in err


def test_fit_rejects_constant_tail(capsys, tmp_path):
    f = tmp_path / "const.csv"
    f.write_text("".join(f"{n},7\n" for n in range(1, 12)))
    code, _, err = run(capsys, "fit", "--h", "2", "--g", "1", str(f))
    assert code == EXIT_USAGE
    assert "degenerate" in err


def test_fit_growth_function_directly():
    res = fit_growth([n ** 3 for n in range(1, 20)])
    assert abs(res.slope - 3.0) < 1e-9
    with pytest.raises(FitError):
        fit_growth([1, 2, 3])
    with pytest.raises(FitError):
        fit_growth([0] * 10)


def test_python_m_bhgreedy_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "bhgreedy", "generate", "--h", "2", "--g", "1",
         "--n", "10", "--format", "bfile"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == "".join(f"{n} {a}\n" for n, a in enumerate(MIAN_CHOWLA_10, 1))


@pytest.mark.parametrize("command", ["verify", "fit", "generate"])
def test_file_error_is_an_input_error(capsys, tmp_path, command):
    """A file that cannot be read or written exits 2 with one error line."""
    argv = {
        "verify": ["verify", str(tmp_path / "missing.bfile")],
        "fit": ["fit", str(tmp_path)],
        "generate": ["generate", "--n", "3", "--out", str(tmp_path / "no" / "x.json")],
    }[command]
    code, out, err = run(capsys, *argv, "--h", "2", "--g", "1")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# parser


def parser_cases(path):
    """argv lists for every subcommand, valid and not, and for the edges of
    the top-level parser; path is a bfile of the first ten Mian-Chowla
    terms."""
    f = str(path)
    per_command = {
        "generate": (["--h", "2", "--g", "1", "--n", "5", "--format", "csv"],
                     ["--h", "2"], ["--h", "2", "--g", "x", "--n", "5"],
                     ["--h", "2", "--g", "1", "--n", "5", "--form", "csv"]),
        "verify": (["--h", "2", "--g", "1", f], ["--h", "2", f],
                   ["--h", "2", "--g", "1", f, "--enum-cap", "1_000"],
                   ["--h", "2", "--g", "1", f, "--bhg"]),
        "diagnose": (["--h", "2", "--g", "2", "--n", "5"], ["--h", "2", "--g", "2"],
                     ["--h", "2", "--g", "2", "--n", "five"],
                     ["--h", "2", "--g", "2", "--n", "5", "--sample", "3"]),
        "compare": (["--h", "2", "--g", "1", "--n", "5"], ["--g", "1", "--n", "5"],
                    ["--h", "2", "--g", "1", "--n", "5.0"],
                    ["--h", "2", "--g", "1", "--n", "5", "--mem", "100000"]),
        "fit": (["--h", "2", "--g", "1", f], ["--h", "2", "--g", "1"],
                ["--h", "two", "--g", "1", f],
                ["--h", "2", "--g", "1", f, "--form", "bfile"]),
    }
    for command, argvs in per_command.items():
        yield [command, "--help"]
        for argv in argvs:
            yield [command, *argv]
        yield [command, *argvs[0], "--bogus", "1"]
    yield ["diagnose", "--h", "2", "--g", "2", "--n", "5", "--input", f]
    yield ["generate", "--h", "2", "--g", "1", "--n", "3", "--bogus"]
    yield ["fit", "--h", "2", "--g", "1", f, "extra"]
    yield from ([], ["--help"], ["--help", "verify"], ["bogus"], ["-"],
                ["-5", "generate"], ["--", "generate", "--h", "2", "--g", "1", "--n", "3"],
                ["--h", "2", "generate"])


def test_main_parses_as_the_whole_parser_does(capsys, monkeypatch, tmp_path):
    # main builds the options of the subcommand it runs only.  On every
    # argv it must exit, print and fail as a parser built whole does: the
    # same top-level help, choices and unrecognized arguments, and the
    # same usage errors inside each subcommand.
    path = tmp_path / "mc.bfile"
    path.write_text("".join(f"{n} {a}\n" for n, a in enumerate(MIAN_CHOWLA_10, 1)))
    build = cli.build_parser
    for argv in parser_cases(path):
        monkeypatch.setattr(cli, "build_parser", build)
        one = run(capsys, *argv)
        monkeypatch.setattr(cli, "build_parser", lambda command=None: build())
        assert run(capsys, *argv) == one, argv


TOP_USAGE = "usage: bhgreedy [-h] {generate,verify,diagnose,compare,fit} ...\n"
TOP_HELP = TOP_USAGE + """
Generate and verify B_h[g] sequences with exact arithmetic.

positional arguments:
  {generate,verify,diagnose,compare,fit}
    generate            generate a sequence
    verify              re-check a sequence file from scratch
    diagnose            window-scan inequality ledger for a strong run
    compare             classic vs strong, side by side
    fit                 growth-exponent fit of a sequence file

options:
  -h, --help            show this help message and exit
"""
UNRECOGNIZED = TOP_USAGE + "bhgreedy: error: unrecognized arguments: --bogus 1\n"


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the texts of CPython 3.11's argparse, which other "
                           "versions word differently (3.10: 'optional arguments:')")
@pytest.mark.parametrize("argv, expected", [
    ([], (EXIT_USAGE, "", TOP_USAGE + "bhgreedy: error: the following arguments "
                                      "are required: command\n")),
    (["bogus"], (EXIT_USAGE, "", TOP_USAGE + "bhgreedy: error: argument command: "
                 "invalid choice: 'bogus' (choose from 'generate', 'verify', "
                 "'diagnose', 'compare', 'fit')\n")),
    (["--help"], (EXIT_OK, TOP_HELP, "")),
    (["-h", "generate"], (EXIT_OK, TOP_HELP, "")),
    (["generate", "--h", "2", "--g", "1", "--n", "3", "--bogus", "1"],
     (EXIT_USAGE, "", UNRECOGNIZED)),
    (["verify", "--h", "2", "--g", "1", "mc.bfile", "--bogus", "1"],
     (EXIT_USAGE, "", UNRECOGNIZED)),
    (["diagnose", "--h", "2", "--g", "2", "--n", "5", "--bogus", "1"],
     (EXIT_USAGE, "", UNRECOGNIZED)),
    (["compare", "--h", "2", "--g", "1", "--n", "5", "--bogus", "1"],
     (EXIT_USAGE, "", UNRECOGNIZED)),
    (["fit", "--h", "2", "--g", "1", "mc.bfile", "--bogus", "1"],
     (EXIT_USAGE, "", UNRECOGNIZED)),
])
def test_top_level_texts_are_pinned(capsys, monkeypatch, argv, expected):
    # The top-level texts as the whole parser prints them.  A parser built
    # for one subcommand must still list all five names in the usage line
    # of an unrecognized argument, and the whole tree must still name the
    # subcommand argument "command".  COLUMNS fixes argparse's wrap width.
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *argv) == expected


def subparser_options(parser):
    """{name: [(option strings, dest), ...]} of each subparser of parser."""
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    return {name: [(a.option_strings, a.dest) for a in p._actions]
            for name, p in subparsers.choices.items()}


@pytest.mark.parametrize("argv", [
    ["generate", "--h", "2", "--g", "1", "--n", "3"],
    ["verify", "--h", "2", "--g", "1", "missing.bfile"],
    ["diagnose", "--help"],
    ["compare", "--bogus", "1"],
    ["fit"],
    [],
    ["--help"],
    ["-h", "generate"],
    ["bogus"],
    ["--", "generate"],
    ["-5", "generate"],
])
def test_main_builds_options_for_the_dispatched_subcommand_only(capsys, monkeypatch,
                                                               argv):
    # A cheap guard on the saving: when argv[0] names a subcommand, the
    # parser main builds holds that one subparser, with every option the
    # whole tree gives it.  Any other argv gets all five, with their
    # options, for the top-level help and errors.
    original, built = cli.build_parser, []

    def build(command=None):
        built.append(original(command))
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", build)
    run(capsys, *argv)
    options, whole = subparser_options(built[0]), subparser_options(original())
    assert set(whole) == set(cli.COMMANDS)
    if argv and argv[0] in cli.COMMANDS:
        assert options == {argv[0]: whole[argv[0]]}
    else:
        assert options == whole
    assert all(len(strings) > 1 for strings in options.values())
