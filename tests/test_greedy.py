"""Tests for the generators, the exact threshold arithmetic, and the scan."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhgreedy import (
    Params,
    ScanExceededConfiguredLimit,
    SumTableSet,
    Threshold,
    classic_greedy,
    int_nth_root,
    is_strong_candidate,
    strong_greedy,
    theorem_bound,
    threshold_leq,
)
from bhgreedy.greedy import _accept_g1, _accept_general, _mark_sums, _screen_g1
from oracles import (
    first_failed_level,
    is_bhg,
    is_strong,
    multiset_sum_histogram,
    naive_classic_greedy,
    naive_classic_greedy_slow,
    naive_strong_greedy,
    naive_strong_greedy_slow,
)

MIAN_CHOWLA_10 = [1, 2, 4, 8, 13, 21, 31, 45, 66, 81]


def build(h, elements):
    t = SumTableSet(h)
    for a in elements:
        t.add_element(a)
    return t


# ---------------------------------------------------------------------------
# exact integer arithmetic


def test_int_nth_root_edges():
    assert int_nth_root(0, 3) == 0
    assert int_nth_root(1, 7) == 1
    assert int_nth_root(26, 1) == 26
    assert int_nth_root(27, 3) == 3
    assert int_nth_root(26, 3) == 2
    with pytest.raises(ValueError):
        int_nth_root(-1, 2)
    with pytest.raises(ValueError):
        int_nth_root(4, 0)


@given(x=st.integers(0, 10**36), k=st.integers(1, 8))
@settings(max_examples=200)
def test_int_nth_root_is_exact_floor(x, k):
    r = int_nth_root(x, k)
    assert r ** k <= x < (r + 1) ** k


def test_threshold_leq_examples():
    # integer exponent, boundary inclusive
    assert threshold_leq(100, 10, 2, 1, 1)
    assert not threshold_leq(101, 10, 2, 1, 1)
    # fractional exponent 3/2: 4^2 = 16 <= 27 = 3^3, 6^2 = 36 > 27
    assert threshold_leq(4, 3, 2, 2, 2)
    assert not threshold_leq(6, 3, 2, 2, 2)


def test_threshold_leq_rejects_bad_level():
    with pytest.raises(ValueError):
        threshold_leq(1, 2, 2, 1, 2)


@given(n=st.integers(1, 50), h=st.integers(2, 5), g=st.integers(1, 5),
       count=st.integers(0, 10**6))
@settings(max_examples=200)
def test_threshold_routes_agree(n, h, g, count):
    for s in range(1, g + 1):
        th = Threshold.for_level(n, h, g, s)
        assert th.e_num >= h + g - 1 >= 2
        assert th.admits(count) == threshold_leq(count, n, h, g, s)
        # deciding via the integer floor of the ceiling is equivalent
        assert th.admits(count) == (count <= th.floor)


def test_theorem_bound_examples():
    assert theorem_bound(10, 2, 1).floor == 2000
    assert theorem_bound(1, 3, 2).floor == 4
    assert theorem_bound(1, 2, 7).floor == 14
    assert theorem_bound(4, 2, 2).floor == 128  # 4 * 4^(5/2)


@given(n=st.integers(1, 40), h=st.integers(2, 4), g=st.integers(1, 4))
@settings(max_examples=100)
def test_theorem_bound_floor_is_boundary(n, h, g):
    b = theorem_bound(n, h, g)
    assert b.admits(b.floor)
    assert not b.admits(b.floor + 1)


# ---------------------------------------------------------------------------
# candidate verdicts


def test_is_strong_candidate_examples():
    t = build(2, [1])
    assert is_strong_candidate(t, t.candidate_delta(2), 2, 2, 1).accepted

    t = build(2, [1, 2])
    verdict = is_strong_candidate(t, t.candidate_delta(3), 3, 2, 1)
    assert not verdict.accepted
    assert verdict.reason == "bhg"
    assert verdict.x == 4  # 1+3 = 2+2

    assert is_strong_candidate(t, t.candidate_delta(4), 3, 2, 1).accepted


def test_is_strong_candidate_level_rejection_names_level():
    # At step 20 of the (h=3, g=3) run, 770 keeps the set B_3[3] but lifts
    # R_3 past the level ceiling, so the strong rule skips it (the classic
    # greedy takes it; the two sequences first diverge here).
    prefix = strong_greedy(Params(3, 3, 19)).terms
    t = build(3, prefix)
    verdict = is_strong_candidate(t, t.candidate_delta(770), 20, 3, 3)
    assert not verdict.accepted
    assert verdict.reason == "level"
    assert verdict.s == 3
    assert is_bhg(prefix + [770], 3, 3)
    assert not is_strong(prefix + [770], 3, 3)
    assert strong_greedy(Params(3, 3, 20)).terms[19] == 806
    assert classic_greedy(Params(3, 3, 20)).terms[19] == 770


def check_verdicts_against_oracle(prefix, h, g):
    """Compare is_strong_candidate with the enumeration oracles for every
    non-member m in [1, 3*max(prefix)+3]; returns the verdict reasons seen."""
    n = len(prefix)
    t = build(h, prefix)
    profile = t.rep_histogram(g)
    reasons = set()
    for m in range(1, 3 * max(prefix) + 4):
        if m in t:
            continue
        verdict = is_strong_candidate(t, t.candidate_delta(m), n + 1, h, g, profile)
        enlarged = prefix + [m]
        hist = multiset_sum_histogram(enlarged, h)
        assert verdict.accepted == is_strong(enlarged, h, g), (n, m)
        assert (verdict.reason == "bhg") == (not is_bhg(enlarged, h, g)), (n, m)
        if verdict.reason == "bhg":
            assert hist[verdict.x] > g, (n, m)
        if verdict.reason == "level":
            assert verdict.s == first_failed_level(hist, n + 1, h, g), (n, m)
        reasons.add(verdict.reason)
    return reasons


@pytest.mark.parametrize("h,g", [(2, 1), (2, 2), (3, 2), (3, 3)])
def test_verdicts_match_from_scratch_oracle(h, g):
    rec = strong_greedy(Params(h, g, 8))
    for n in range(2, len(rec.terms)):
        check_verdicts_against_oracle(rec.terms[:n], h, g)


def test_level_verdicts_match_from_scratch_oracle():
    # Level rejections are rare: none occur in the windows above.  The
    # 19-term (3, 3) prefix has three, 770 among them.
    prefix = strong_greedy(Params(3, 3, 19)).terms
    assert "level" in check_verdicts_against_oracle(prefix, 3, 3)


def check_fused_against_contract_op(prefix, h, g):
    """The fused accept closure agrees with is_strong_candidate on every
    non-member m in [1, 2*max(prefix)+9], and marks m dead exactly when the
    verdict is a B_h[g] break; returns the verdict reasons seen."""
    n = len(prefix)
    t = build(h, prefix)
    profile = t.rep_histogram(g)
    hi = 2 * max(prefix) + 10
    alive = bytearray(b"\x01") * hi
    fused = (_accept_g1(t, alive, 1) if g == 1
             else _accept_general(t, g, n + 1, True, alive, 1))
    reasons = set()
    for m in range(1, hi):
        if m in t:
            continue
        expect = is_strong_candidate(t, t.candidate_delta(m), n + 1, h, g, profile)
        assert fused(m) == expect.accepted, (n, m)
        assert (alive[m - 1] == 0) == (expect.reason == "bhg"), (n, m)
        reasons.add(expect.reason)
    return reasons


@pytest.mark.parametrize("h,g", [(2, 1), (2, 3), (3, 1), (3, 2)])
def test_fused_scan_paths_match_contract_op(h, g):
    rec = strong_greedy(Params(h, g, 7))
    for n in range(1, len(rec.terms)):
        check_fused_against_contract_op(rec.terms[:n], h, g)


def test_fused_scan_leaves_level_rejections_alive():
    # The 19-term (3, 3) prefix rejects 770 on a level ceiling only.
    prefix = strong_greedy(Params(3, 3, 19)).terms
    assert "level" in check_fused_against_contract_op(prefix, 3, 3)


def test_level_rejected_candidate_is_retested():
    # 935 breaks only a level ceiling after the 59-term (2, 3) prefix; a
    # scan that took it for dead would miss it as the 61st term.
    prefix = strong_greedy(Params(2, 3, 59)).terms
    t = build(2, prefix)
    verdict = is_strong_candidate(t, t.candidate_delta(935), 60, 2, 3)
    assert verdict.reason == "level"
    terms = strong_greedy(Params(2, 3, 61)).terms
    assert terms == naive_strong_greedy(2, 3, 61)
    assert terms[60] == 935


# ---------------------------------------------------------------------------
# generators against frozen values and the naive oracles


def test_strong_first_two_terms_are_one_and_two():
    for h in (2, 3, 4):
        for g in (1, 2):
            assert strong_greedy(Params(h, g, 2)).terms == [1, 2]


def test_strong_2_1_matches_mian_chowla():
    assert strong_greedy(Params(2, 1, 10)).terms == MIAN_CHOWLA_10


def test_classic_2_1_matches_mian_chowla():
    assert classic_greedy(Params(2, 1, 10)).terms == MIAN_CHOWLA_10


def test_classic_3_1_first_terms():
    # {1,2,3} and {1,2,4} both collide at order 3 (1+1+3 = 1+2+2 and
    # 1+1+4 = 2+2+2), so the third term is 5.
    assert classic_greedy(Params(3, 1, 3)).terms == [1, 2, 5]
    assert classic_greedy(Params(3, 1, 5)).terms == [1, 2, 5, 14, 33]


def test_strong_3_2_frozen_prefix():
    assert strong_greedy(Params(3, 2, 8)).terms == [1, 2, 3, 6, 12, 18, 41, 54]


@pytest.mark.parametrize("h,g", [
    (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
])
def test_strong_agrees_with_naive_oracle(h, g):
    assert strong_greedy(Params(h, g, 20)).terms == naive_strong_greedy(h, g, 20)


@pytest.mark.parametrize("h,g", [
    (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
])
def test_classic_agrees_with_naive_oracle(h, g):
    assert classic_greedy(Params(h, g, 20)).terms == naive_classic_greedy(h, g, 20)


@pytest.mark.parametrize("h,g,n", [(2, 2, 8), (3, 2, 6)])
def test_generators_agree_with_slowest_oracles(h, g, n):
    assert strong_greedy(Params(h, g, n)).terms == naive_strong_greedy_slow(h, g, n)
    assert classic_greedy(Params(h, g, n)).terms == naive_classic_greedy_slow(h, g, n)


def test_g1_collapse_h2_and_h3():
    assert strong_greedy(Params(2, 1, 30)).terms == classic_greedy(Params(2, 1, 30)).terms
    assert strong_greedy(Params(3, 1, 12)).terms == classic_greedy(Params(3, 1, 12)).terms


# ---------------------------------------------------------------------------
# record contents and scan behaviour


def test_record_fields_and_invariants():
    rec = strong_greedy(Params(2, 2, 12))
    assert rec.algorithm == "strong"
    assert rec.terms[0] == 1
    assert len(set(rec.terms)) == len(rec.terms)
    assert len(rec.per_step) == 12
    for meta, term in zip(rec.per_step, rec.terms):
        assert meta.term == term
        assert term <= meta.bound_floor
        assert 0 <= meta.scan_length <= meta.bound_floor
    assert rec.is_sorted in (True, False)


def test_classic_output_strictly_increasing():
    rec = classic_greedy(Params(2, 3, 15))
    assert rec.is_sorted


def test_determinism():
    a = strong_greedy(Params(3, 2, 10))
    b = strong_greedy(Params(3, 2, 10))
    assert a.terms == b.terms
    assert [(m.n, m.term, m.scan_length, m.bound_floor) for m in a.per_step] == \
           [(m.n, m.term, m.scan_length, m.bound_floor) for m in b.per_step]


def scan_lengths_from_terms(terms, restart):
    """scan_length from the terms alone: the non-members in [1, term] when
    the scan restarts at 1, otherwise term - previous term."""
    out = [0]
    for i in range(1, len(terms)):
        if restart:
            out.append(terms[i] - sum(1 for a in terms[:i] if a < terms[i]))
        else:
            out.append(terms[i] - terms[i - 1])
    return out


def shrink_scan_slices(monkeypatch):
    """Slices of 3, 6, then 7 candidates, so that scans cross many slice
    and window boundaries."""
    monkeypatch.setattr("bhgreedy.greedy._FIRST_SLICE", 3)
    monkeypatch.setattr("bhgreedy.greedy._CHUNK", 7)


@pytest.mark.parametrize("h,g", [
    (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1),
])
def test_scan_chunk_boundaries_change_nothing(monkeypatch, h, g):
    n = 12 if h == 4 else 20
    generators = (strong_greedy, classic_greedy)
    default = [gen(Params(h, g, n)) for gen in generators]
    shrink_scan_slices(monkeypatch)
    small = [gen(Params(h, g, n)) for gen in generators]
    for rec, ref in zip(small, default):
        assert rec.terms == ref.terms
        lengths = [m.scan_length for m in rec.per_step]
        assert lengths == [m.scan_length for m in ref.per_step]
        restart = rec.algorithm == "strong" and g > 1
        assert lengths == scan_lengths_from_terms(rec.terms, restart)
    with pytest.raises(ScanExceededConfiguredLimit):
        classic_greedy(Params(h, g, 10), scan_cap=3)


@pytest.mark.parametrize("h,n", [(2, 40), (3, 12), (4, 10)])
def test_g1_screen_with_tiny_slices_matches_naive_oracles(monkeypatch, h, n):
    shrink_scan_slices(monkeypatch)
    assert strong_greedy(Params(h, 1, n)).terms == naive_strong_greedy(h, 1, n)
    assert classic_greedy(Params(h, 1, n)).terms == naive_classic_greedy(h, 1, n)


@pytest.mark.parametrize("h,n", [(2, 12), (3, 9), (4, 7)])
def test_g1_screen_clears_only_bh_breaks(h, n):
    # After each prefix, screen the slice [lo, hi) that starts below the
    # last member and runs past the top of S_h.  The screen must clear
    # exactly the non-members m with m + y in S_h for some y in S_{h-1}
    # (sums from enumeration), each a B_h break, and touch nothing else.
    terms = strong_greedy(Params(h, 1, n)).terms
    t, ind = SumTableSet(h), bytearray()
    for i, a in enumerate(terms[:-1]):
        t.add_element(a)
        _mark_sums(ind, t, a)
        prefix = terms[:i + 1]
        sums = multiset_sum_histogram(prefix, h)
        lower = multiset_sum_histogram(prefix, h - 1)
        assert ind == bytes(x in sums for x in range(h * max(prefix) + 1))
        lo, hi = a // 2 + 1, len(ind) + 5
        alive = bytearray(m not in t for m in range(1, hi))
        before = bytes(alive)
        _screen_g1(t, ind, alive, 1, lo, hi)
        assert alive[:lo - 1] == before[:lo - 1]
        cleared = [m for m in range(lo, hi) if before[m - 1] and not alive[m - 1]]
        assert cleared == [m for m in range(lo, hi) if m not in t
                           and any(m + y in sums for y in lower)]
        assert cleared or i == 0
        for m in cleared:
            # A "bhg" verdict also means m is not an admissible candidate.
            verdict = is_strong_candidate(t, t.candidate_delta(m), i + 2, h, 1)
            assert verdict.reason == "bhg", (prefix, m)


def test_classic_scan_cap_is_enforced():
    with pytest.raises(ScanExceededConfiguredLimit):
        classic_greedy(Params(2, 1, 10), scan_cap=3)


def test_exhausted_theorem_ceiling_aborts_loudly(monkeypatch):
    from bhgreedy import ScanExceededBound, TheoremBound

    monkeypatch.setattr(
        "bhgreedy.greedy.theorem_bound",
        lambda n, h, g: TheoremBound(n, h, g, rhs_pow=0, floor=0),
    )
    with pytest.raises(ScanExceededBound):
        strong_greedy(Params(2, 1, 5))


def test_param_validation():
    for bad in ((1, 1, 5), (2, 0, 5), (2, 1, 0)):
        with pytest.raises(ValueError):
            Params(*bad)


def test_on_step_observer_sees_every_commit():
    seen = []
    rec = strong_greedy(Params(2, 1, 6), on_step=seen.append)
    assert [m.term for m in seen] == rec.terms
