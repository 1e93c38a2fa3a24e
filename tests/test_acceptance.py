"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (see also the summary block pytest prints at session end).

All tolerances are zero: every comparison is exact integer arithmetic.
The (h, g) grid is {2,3} x {1,2,3} at 30 terms (session fixtures in
conftest.py generate each run once).

Known red: criterion 5 requires every recorded instance of the per-candidate
profile-growth inequality R_s(A+{m}) <= R_s(A) + t_count(m) to hold, but for
h = 3 that inequality is false as literally stated (a single candidate can
add two representations to one sum, e.g. A = {1,2}, m = 3, x = 7 = 1+3+3 =
2+2+3, jumping its multiplicity from 0 straight past s = 2 while t_count
sees nothing).  The diagnostics record such instances faithfully, so
test_criterion5_profile_growth_3_2_8 fails by design; weakening the check
or filtering the samples would defeat its purpose.
"""

import random

import pytest

from bhgreedy import (
    Params,
    SumTableSet,
    brute_force_rep,
    classic_greedy,
    proof_diagnostics,
    strong_greedy,
    theorem_bound,
    verify_strong_prefixes,
)
from bhgreedy.cli import main as cli_main
from bhgreedy.formats import read_terms
from oracles import multiset_sum_histogram, naive_strong_greedy

MIAN_CHOWLA_10 = [1, 2, 4, 8, 13, 21, 31, 45, 66, 81]


def report(label, ok=True):
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}")
    assert ok


# ---------------------------------------------------------------------------
# 1. Theorem bound, exact, across the grid at 30 terms


def test_criterion1_strong_bound_exact(grid_strong_30):
    for (h, g), rec in grid_strong_30.items():
        assert len(rec.terms) == 30
        for n, term in enumerate(rec.terms, 1):
            lhs = term ** g
            rhs = (2 * g) ** g * n ** (h * g + h - 1)
            assert lhs <= rhs, (h, g, n, term)
            assert theorem_bound(n, h, g).admits(term)
    report("criterion 1 (strong ceiling, exact, grid at 30 terms)")


# ---------------------------------------------------------------------------
# 2. g = 1 collapse at 50 terms, frozen Mian-Chowla prefix


def test_criterion2_g1_collapse(pair_2_1_50):
    strong, classic = pair_2_1_50
    assert strong.terms == classic.terms
    assert strong.terms[:10] == MIAN_CHOWLA_10
    # the frozen prefix is re-derived here by the independent naive oracle
    assert naive_strong_greedy(2, 1, 10) == MIAN_CHOWLA_10
    report("criterion 2 (g=1 collapse at 50 terms, Mian-Chowla prefix)")


# ---------------------------------------------------------------------------
# 3. Classic ceiling a_n <= 2n^(2h-1) for h in {2,3,4}


@pytest.mark.parametrize("h", [2, 3, 4])
def test_criterion3_classic_bound(h):
    rec = classic_greedy(Params(h, 1, 30))
    for n, term in enumerate(rec.terms, 1):
        assert term <= 2 * n ** (2 * h - 1), (h, n, term)
    report(f"criterion 3 (classic ceiling, h={h}, 30 terms)")


# ---------------------------------------------------------------------------
# 4. Oracle equivalence on every grid prefix


def test_criterion4_oracle_equivalence(grid_strong_30):
    rng = random.Random(1)
    for (h, g), rec in grid_strong_30.items():
        t = SumTableSet(h)
        for n, term in enumerate(rec.terms, 1):
            t.add_element(term)
            prefix = sorted(rec.terms[:n])
            hist = multiset_sum_histogram(prefix, h)
            assert dict(t.tables[h]) == dict(hist), (h, g, n)
            top = h * max(prefix) + 10
            probes = 0
            while probes < 20:
                x = rng.randrange(1, top)
                if x in hist:
                    continue
                assert t.tables[h].get(x, 0) == 0
                assert brute_force_rep(prefix, h, x) == 0
                probes += 1
        checks = verify_strong_prefixes(rec.terms, h, g)
        assert all(c.ok for c in checks), (h, g)
    report("criterion 4 (oracle equivalence and prefix validity on the grid)")


# ---------------------------------------------------------------------------
# 5. Proof diagnostics at (2,2,10) and (3,2,8)


def test_criterion5_diagnostics_2_2_10():
    diag = proof_diagnostics(strong_greedy(Params(2, 2, 10)))
    assert all(c.ok for c in diag.prefix_checks)
    for inst in diag.instances:
        assert inst.holds, inst.describe()
    report("criterion 5 (all window-scan inequalities at (2,2,10))")


def test_criterion5_window_and_break_bounds_3_2_8():
    diag = proof_diagnostics(strong_greedy(Params(3, 2, 8)))
    assert all(c.ok for c in diag.prefix_checks)
    for inst in diag.instances:
        if inst.name == "profile_growth":
            continue
        assert inst.holds, inst.describe()
    for rep_ in diag.reports:
        assert rep_.union_ok and rep_.first_level_empty
    report("criterion 5 (window union, level-1 empty, break bounds at (3,2,8))")


def test_criterion5_profile_growth_3_2_8():
    """Known red (see module docstring): the literal profile-growth
    inequality admits counterexamples for h = 3, and the diagnostics
    record them honestly."""
    diag = proof_diagnostics(strong_greedy(Params(3, 2, 8)))
    bad = [i for i in diag.failures() if i.name == "profile_growth"]
    ok = not bad
    print(f"ACCEPTANCE criterion 5 (profile growth at (3,2,8)): "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok, (
        f"{len(bad)} profile_growth instances fail, e.g. {bad[0].describe()}; "
        "the inequality is false as literally stated for h = 3 "
        "(multi-hit candidates), see notes in the module docstring"
    )


# ---------------------------------------------------------------------------
# 6. Growth-exponent fit stays inside the sanity band


def test_criterion6_fit_band(pair_2_1_50, capsys, tmp_path):
    strong, _ = pair_2_1_50
    f = tmp_path / "mc50.bfile"
    f.write_text("".join(f"{n} {a}\n" for n, a in enumerate(strong.terms, 1)))
    code = cli_main(["fit", "--h", "2", "--g", "1", str(f)])
    out = capsys.readouterr().out
    assert code == 0
    slope = float(out.split("fitted exponent: ")[1].split()[0])
    assert 2 - 0.15 <= slope < 3, slope
    report(f"criterion 6 (fitted exponent {slope:.3f} inside [1.85, 3))")


# ---------------------------------------------------------------------------
# 7. Determinism and byte-exact round-trips across the grid


def test_criterion7_round_trip_determinism(grid_strong_30, tmp_path, capsys):
    for (h, g), rec in grid_strong_30.items():
        for fmt, suffix in (("json", "json"), ("bfile", "bfile"), ("csv", "csv")):
            a = tmp_path / f"{h}_{g}_a.{suffix}"
            b = tmp_path / f"{h}_{g}_b.{suffix}"
            for path in (a, b):
                code = cli_main([
                    "generate", "--h", str(h), "--g", str(g), "--n", "30",
                    "--format", fmt, "--out", str(path),
                ])
                capsys.readouterr()
                assert code == 0
            assert a.read_bytes() == b.read_bytes(), (h, g, fmt)
            assert read_terms(str(a)) == rec.terms
        code = cli_main(["verify", "--h", str(h), "--g", str(g),
                         str(tmp_path / f"{h}_{g}_a.bfile")])
        capsys.readouterr()
        assert code == 0, (h, g)
    report("criterion 7 (byte-identical repeated runs; generate->verify)")
