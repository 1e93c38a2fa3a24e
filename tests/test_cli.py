"""End-to-end CLI tests (in-process, asserting exit codes and output)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bhgreedy import TheoremBound
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
        return TheoremBound(n, h, g, rhs_pow=0, floor=0)

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


def test_verify_classic_bound_choice(capsys, tmp_path):
    f = tmp_path / "seq.bfile"
    run(capsys, "generate", "--h", "3", "--g", "1", "--n", "8", "--algo",
        "classic", "--format", "bfile", "--out", str(f))
    code, stdout, _ = run(capsys, "verify", "--h", "3", "--g", "1", str(f),
                          "--bound", "classic")
    assert code == EXIT_OK
    assert "classic-ceiling" in stdout


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
    assert "prefix_strong" in stdout


def test_diagnose_needs_n_or_input(capsys):
    code, _, err = run(capsys, "diagnose", "--h", "2", "--g", "1")
    assert code == EXIT_USAGE


def test_diagnose_window_cap_guard(capsys):
    code, _, _ = run(capsys, "diagnose", "--h", "2", "--g", "1", "--n", "12",
                     "--window-cap", "50")
    assert code == EXIT_GUARD


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
