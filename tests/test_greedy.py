"""Tests for the generators, the exact threshold arithmetic, and the scan."""

import hashlib
import random
import re
import sys
from copy import deepcopy
from functools import reduce
from math import comb
from operator import or_

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bhgreedy import (
    GuardExceeded,
    Params,
    ScanExceededConfiguredLimit,
    SumTableSet,
    Threshold,
    classic_greedy,
    default_classic_ceiling,
    int_nth_root,
    is_strong_candidate,
    strong_greedy,
    theorem_bound,
)
from bhgreedy.greedy import (_CHUNK, _FIRST_SLICE, _new_scan, _SidonScan, _SumScan,
                             classify_candidate)
from oracles import (
    added_histogram,
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


def committed(h, g, terms, check_levels=False):
    """A scan, with the level rule check_levels, that has committed terms
    in order."""
    scan = _new_scan(h, g, check_levels=check_levels)
    for a in terms:
        scan.grow(a, scan.join(a))
    return scan


def sat_bits(scan):
    """The Sat = {x : r(x) >= g} of a g > 1 scan as a packed integer."""
    return int.from_bytes(scan.ind, "little")


def packed(bits):
    return sum(1 << i for i in set(bits))


def set_bits(bits, lo=0):
    """The indices of the set bits of a non-negative integer, from lo up."""
    return [i for i, bit in enumerate(bin(bits >> lo)[:1:-1], lo) if bit == "1"]


def fold_sets(prefix, h):
    """The j-fold sums S_j of prefix, j = 0..h, from enumeration."""
    return [set(multiset_sum_histogram(prefix, j)) for j in range(h + 1)]


def diff_sets_oracle(prefix, h):
    """D_{i,j} = S_i - S_j for i = 0..h and j = 0..h-1, M the largest
    element, as a g = 1 scan lays them out, entry i*h + j, from enumeration
    with no recurrence: S_i shifted once per v in S_j to bit u - v + j*M.
    Rows i < h - 1 are whole.  Rows h - 1 and h keep only the values from
    (i - j)*M up, at bit u - v - (i - j)*M, and nothing in column 0."""
    top, folds = max(prefix), fold_sets(prefix, h)
    entries = []
    for i, bits in enumerate(map(packed, folds)):
        for j in range(h):
            whole = reduce(or_, (bits << j * top - v for v in folds[j]), 0)
            entries.append(whole if i < h - 1 else whole >> i * top if j else 0)
    return entries


def check_g1_bitmaps(scan, prefix):
    """For g = 1: the scan's elements are the sorted prefix, and its
    difference matrix matches diff_sets_oracle entry by entry.  Returns the
    k = 1 breakers above the largest element M,
    {m > M : m + y in S_h for some y in S_{h-1}}."""
    h, top = scan.h, max(prefix)
    assert scan.elements == sorted(prefix)
    assert scan.diffs == diff_sets_oracle(prefix, h), prefix
    folds = fold_sets(prefix, h)
    sums = packed(folds[h])
    hits = bin(reduce(or_, (sums >> y for y in folds[h - 1])) >> top + 1)
    return {top + 1 + i for i, bit in enumerate(hits[:1:-1]) if bit == "1"}


def kept_state(scan):
    """Everything a scan keeps, read slot by slot of its class and copied,
    sum tables as their entries, the array of r(x) as its nonzero slots."""
    state = {}
    for cls in type(scan).__mro__:
        for name in getattr(cls, "__slots__", ()):
            value = getattr(scan, name)
            state[name] = ([dict(d) if isinstance(d, dict)
                            else {x: r for x, r in enumerate(d) if r}
                            for d in value] if name == "tables"
                           else deepcopy(value))
    return state


def keeps_bh1(hist, prefix, m, h):
    """Whether prefix + [m] is B_h[1], from the h-fold histogram hist of
    the B_h[1] set prefix and the sums that m adds, both enumerated."""
    return all(c + hist[x] <= 1 for x, c in added_histogram(prefix, m, h).items())


def check_g1_break(scan, prefix):
    """For g = 1, after committing the sorted prefix: for every m in
    (M, h*M + 9], M the largest element, breaks keeps the set B_h[1]
    exactly when enumeration does.  A commit of a breaker with no admission
    raises a ValueError that names a sum with two representations in
    prefix + [m], k*m + y for the least k with k*m + y in S_h for some y in
    S_{h-k}, and the least such y, and changes nothing the scan keeps.
    Returns the breakers, each with its witness."""
    h, top = scan.h, max(prefix)
    before, witnesses = kept_state(scan), {}
    hist = multiset_sum_histogram(prefix, h)
    folds = fold_sets(prefix, h)
    for m in range(top + 1, h * top + 10):
        keeps = keeps_bh1(hist, prefix, m, h)
        assert (scan.breaks(m) is None) == keeps, (prefix, m)
        if keeps:
            continue
        with pytest.raises(ValueError) as refused:
            scan.grow(m, scan.join(m))
        words = str(refused.value).split()
        assert words[:5] == [str(m), "breaks", f"B_{h}[1]:", "the", "sum"], words
        x = int(words[5])
        assert multiset_sum_histogram(prefix + [m], h)[x] >= 2, (prefix, m, x)
        k = next(k for k in range(1, h)
                 if any(k * m + y in folds[h] for y in folds[h - k]))
        least = min(y for y in folds[h - k] if k * m + y in folds[h])
        assert x == k * m + least, (prefix, m, x)
        assert kept_state(scan) == before, (prefix, m)
        witnesses[m] = x
    return witnesses


def seeded_sidon_sets(count, h=2):
    """count seeded B_h[1] sets of up to 10 elements below 120, each sorted,
    in the order in which a g = 1 scan takes its terms."""
    for seed in range(count):
        rng = random.Random(seed)
        elements = []
        for a in rng.sample(range(1, 120), 60):
            if len(elements) < 10 and is_bhg(elements + [a], h, 1):
                elements.append(a)
        yield seed, sorted(elements)


# ---------------------------------------------------------------------------
# exact integer arithmetic


def test_int_nth_root_edges():
    assert int_nth_root(0, 3) == 0
    assert int_nth_root(1, 7) == 1
    assert int_nth_root(26, 1) == 26
    assert int_nth_root(-5, 1) == -5  # a scan cap below 1 is its own root
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


def bisect_root(x, k):
    """The largest r with r**k <= x, by bisection on r."""
    lo, hi = 0, 1
    while hi ** k <= x:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid ** k <= x else (lo, mid)
    return lo


@pytest.mark.parametrize("k", [1, 2, 3, 7, 255, 256, 300])
def test_int_nth_root_matches_bisection(k):
    # Random radicands of up to 6,000 bits, whose roots run from 1 bit
    # (k = 300) to 3,000 (k = 2), and the edges around exact powers r**k,
    # where an estimate one unit off shows.
    rng = random.Random(k)
    xs = [0, 1] + [rng.getrandbits(rng.randint(1, 6000)) for _ in range(12)]
    for bits in (1, 2, 9, 33, 200):
        r = rng.getrandbits(bits) | 1 << bits - 1
        xs += [r ** k - 1, r ** k, r ** k + 1]
    for x in xs:
        assert int_nth_root(x, k) == (x if k == 1 else bisect_root(x, k)), (x, k)


def test_threshold_leq_examples():
    # integer exponent, boundary inclusive
    assert Threshold.for_level(10, 2, 1, 1).admits(100)
    assert not Threshold.for_level(10, 2, 1, 1).admits(101)
    # fractional exponent 3/2: 4^2 = 16 <= 27 = 3^3, 6^2 = 36 > 27
    assert Threshold.for_level(3, 2, 2, 2).admits(4)
    assert not Threshold.for_level(3, 2, 2, 2).admits(6)


def test_threshold_leq_rejects_bad_level():
    with pytest.raises(ValueError):
        Threshold.for_level(2, 2, 1, 2)
    with pytest.raises(ValueError):
        Threshold.for_level(2, 2, 1, 0)


def direct_thresholds(g, root):
    """Thresholds built from rhs_pow itself: 0, the perfect power root^g
    and the integer one below it, with the floors they must have."""
    return [(Threshold(0, g), 0), (Threshold(root ** g, g), root),
            (Threshold(root ** g - 1, g), root - 1)]


def check_boundary(c):
    assert c.admits(c.floor)
    assert not c.admits(c.floor + 1)


@given(n=st.integers(1, 50), h=st.integers(2, 5), g=st.integers(1, 5),
       count=st.integers(0, 10**6), root=st.integers(1, 10**4))
@settings(max_examples=200)
def test_threshold_routes_agree(n, h, g, count, root):
    ceilings = [Threshold.for_level(n, h, g, s) for s in range(1, g + 1)]
    for s, th in enumerate(ceilings, 1):
        assert th.rhs_pow == n ** (h * g + (1 - s) * (h - 1))
    ceilings.append(Threshold(default_classic_ceiling(n, h, g), 1))
    for th, floor in direct_thresholds(g, root):
        assert th.floor == floor
        ceilings.append(th)
    for th in ceilings:
        check_boundary(th)
        # deciding via the integer floor of the ceiling is equivalent
        assert th.admits(count) == (count <= th.floor)


def test_theorem_bound_examples():
    assert theorem_bound(10, 2, 1).floor == 2000
    assert theorem_bound(1, 3, 2).floor == 4
    assert theorem_bound(1, 2, 7).floor == 14
    assert theorem_bound(4, 2, 2).floor == 128  # 4 * 4^(5/2)
    with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
        theorem_bound(0, 2, 1)


@given(n=st.integers(1, 40), h=st.integers(2, 4), g=st.integers(1, 4))
@settings(max_examples=100)
def test_theorem_bound_floor_is_boundary(n, h, g):
    b = theorem_bound(n, h, g)
    assert b.rhs_pow == (2 * g) ** g * n ** (h * g + h - 1)
    ceilings = [b, Threshold(default_classic_ceiling(n, h, g), 1)]
    ceilings += [th for th, _ in direct_thresholds(g, b.floor)]
    for th in ceilings:
        check_boundary(th)


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


@given(elements=st.sets(st.integers(1, 30), max_size=6), h=st.integers(2, 4),
       g=st.integers(1, 3), m=st.integers(1, 40),
       slack=st.lists(st.integers(-2, 1), min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
def test_classify_candidate_matches_oracle(elements, h, g, m, slack):
    # Arbitrary sets, so sums may already exceed g.  Without limits the
    # pass is whole.  It stops at the first sum it pushes past g, in the
    # order it meets the pairs, so any sum of m's over g is a valid
    # witness.  A pass that finds no break hands back the enlarged set's
    # level counts and, for g > 1, the sums m raises to exactly g.
    #
    # With limits, level s >= 2 gets limit cap_s - R_s, R_s its count
    # before m joins and cap_s its count after, moved by the slack.  A cap
    # below R_s gives a negative limit, as a base already past its floor
    # does.  Level 1 gets no limit, as in the scan.  A level exit must name
    # a level whose enlarged count passes its cap, so with no cap passed the
    # pass must equal the whole pass; any other pass must equal it too, and
    # an unbroken m with a cap passed must be rejected.
    assume(m not in elements)
    before = multiset_sum_histogram(elements, h)
    after = multiset_sum_histogram(elements | {m}, h)
    over = {x for x in added_histogram(elements, m, h) if after[x] > g}

    def levels(hist):
        return [sum(1 for c in hist.values() if c >= s) for s in range(1, g + 1)]

    t, base, grown = build(h, sorted(elements)), tuple(levels(before)), levels(after)
    whole = classify_candidate(t, m, g, base)
    witness, failed, counts, sat = whole
    assert failed is None
    assert (witness is None) == (not over)
    if witness is not None:
        assert witness in over
        assert (counts, sat) == ((), [])
    else:
        assert counts == tuple(grown)
        assert sorted(sat) == (sorted(x for x, c in after.items()
                                      if c == g and before[x] < g) if g > 1 else [])

    caps = [r + d for r, d in zip(grown, slack)]
    passed = [s for s in range(2, g + 1) if grown[s - 1] > caps[s - 1]]
    limits = [0, sys.maxsize] + [cap - r for cap, r in zip(caps[1:], base[1:])]
    limited = classify_candidate(t, m, g, base, limits)
    if limited[1] is not None:
        assert limited[1] in passed
        assert limited == (None, limited[1], (), [])
    else:
        assert limited == whole
        assert not passed or witness is not None


def test_classify_candidate_counts_a_sum_that_two_pairs_reach():
    # m = 3 reaches 7 through two pairs: 1+3+3 (k = 2) and 2+2+3 (k = 1).
    # With A = {1, 2, 5} also 7 = 1+1+5, so only both pairs together push
    # r(7) past g = 2.
    assert classify_candidate(build(3, [1, 2, 5]), 3, 2, ()) == (7, None, (), [])
    # With A = {1, 2}, r_A(7) = 0.  A has R_1 = 4 (3, 4, 5, 6) and R_2 = 0;
    # A + {3} has R_1 = 7 and R_2 = 3 (5, 6 and 7), 7's second
    # representation coming from the second pair.  The whole pass hands
    # back the enlarged counts and the three sums m brings to g.  A level-2
    # ceiling of 2, a limit of 2 - R_2 = 2, rejects m at level 2.
    t = build(3, [1, 2])
    x, s, counts, sat = classify_candidate(t, 3, 2, (4, 0))
    assert (x, s, counts) == (None, None, (7, 3))
    assert sorted(sat) == [5, 6, 7]
    assert classify_candidate(t, 3, 2, (4, 0), [0, sys.maxsize, 2]) == (None, 2, (), [])


def test_classify_candidate_adds_the_k1_share_to_a_k3_sum():
    # h = 4, A = {1, 3}, m = 4: 13 = 4+4+4+1 (k = 3) = 4+3+3+3 (k = 1), and
    # r_A(13) = 0, so only the k = 1 share read for the k = 3 pair brings
    # r(13) to 2.  A has R_1 = 5 (4, 6, 8, 10, 12) and R_2 = 0; A + {4} has
    # R_2 = 3 (10, 12 and 13), one past a level-2 limit of 2.
    t = build(4, [1, 3])
    assert classify_candidate(t, 4, 2, (5, 0)) == (None, None, (12, 3), [10, 12, 13])
    assert classify_candidate(t, 4, 2, (5, 0), [0, sys.maxsize, 2]) == (None, 2, (), [])
    assert multiset_sum_histogram([1, 3, 4], 4)[13] == 2


@pytest.mark.parametrize("h,elements,m,base,gain", [(3, [1, 2], 3, (4, 0), 3),
                                                    (4, [1, 3], 4, (5, 0), 3)],
                         ids=["h3", "h4"])
def test_classify_candidate_limit_admits_a_gain_equal_to_it(h, elements, m, base, gain):
    # Level 2 gains exactly `gain` sums in the whole pass.  A limit equal to
    # that gain lets the pass finish and admit m; one below it ends the pass
    # at the raise that passes it, naming level 2 and nothing more.  Level 1
    # gets no limit, as in the scan.
    t = build(h, elements)
    whole = classify_candidate(t, m, 2, base)
    assert whole[2][1] - base[1] == gain
    free = [sys.maxsize, sys.maxsize]
    assert classify_candidate(t, m, 2, base, free + [gain]) == whole
    assert classify_candidate(t, m, 2, base, free + [gain - 1]) == (None, 2, (), [])


def test_classify_candidate_negative_limit_rejects_a_candidate_adding_no_sum_there():
    # A = {1, 2, 3} has R_2 = 1 (4 = 1+3 = 2+2).  m = 10 adds only fresh
    # sums (11, 12, 13, 20), so level 2 gains nothing and the whole pass
    # admits it.  A base already past its floor, which a prefix committed
    # by hand can hold, gives a negative limit: a level-2 floor of 0 gives
    # 0 - 1 = -1.  No raise meets that limit, so only the check at the end
    # of the pass can reject m, as a level-2 ceiling would.
    t = build(2, [1, 2, 3])
    whole = classify_candidate(t, 10, 2, (5, 1))
    assert whole == (None, None, (9, 1), [])
    assert classify_candidate(t, 10, 2, (5, 1), [0, sys.maxsize, -1]) == (None, 2, (), [])
    assert classify_candidate(t, 10, 2, (5, 1), [0, sys.maxsize, 0]) == whole


def test_level_limit_is_exclusive_in_whole_runs():
    # A limit read as inclusive (gains[s] >= limit) rejects candidates that
    # land exactly on a level ceiling and changes these terms.
    assert strong_greedy(Params(3, 3, 19)).terms[18] == 599
    assert strong_greedy(Params(2, 3, 53)).terms[52] == 703
    assert strong_greedy(Params(2, 2, 60)).terms[59] == 1752


def check_fused_against_contract_op(prefix, h, g):
    """The scan's accept closure, with level checks as the strong scan runs
    it, agrees with is_strong_candidate on every non-member m in
    [1, 2*max(prefix)+9].  It sets the bit of m in dead only for a B_h[g]
    break and never for a level verdict.  Its pass stops at the first
    level past its floor, so a B_h[g] breaker that trips a level first
    stays live; the enlarged set then fails some level s >= 2 as well.
    Returns the verdict reasons seen and the count of breakers left live."""
    n = len(prefix)
    scan = committed(h, g, prefix, check_levels=True)
    t = build(h, prefix)
    profile = t.rep_histogram(g)
    hi = 2 * max(prefix) + 10
    fused = scan.accept_general()
    reasons, alive_breaks = set(), 0
    for m in range(1, hi):
        if m in t:
            continue
        expect = is_strong_candidate(t, t.candidate_delta(m), n + 1, h, g, profile)
        assert (fused(m) is not None) == expect.accepted, (n, m)
        dead = scan.dead >> m & 1
        if dead:
            assert expect.reason == "bhg", (n, m)
        if expect.reason == "level":
            assert not dead, (n, m)
        if expect.reason == "bhg" and not dead:
            hist = multiset_sum_histogram(prefix + [m], h)
            assert (first_failed_level(hist, n + 1, h, g) or 0) >= 2, (n, m)
            alive_breaks += 1
        reasons.add(expect.reason)
    return reasons, alive_breaks


@pytest.mark.parametrize("h,g", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
                                 (4, 2)])
def test_fused_scan_paths_match_contract_op(h, g):
    # No g = 1 scan has accept_general or keeps the tables it reads; its
    # break test, breaks, is checked above M on the same prefixes.
    rec = strong_greedy(Params(h, g, 7))
    for n in range(1, len(rec.terms)):
        if g == 1:
            check_g1_break(committed(h, 1, rec.terms[:n]), rec.terms[:n])
        else:
            check_fused_against_contract_op(rec.terms[:n], h, g)


def test_fused_scan_leaves_level_rejections_alive():
    # The 19-term (3, 3) prefix rejects 770 on a level ceiling only, and
    # 159 trips a level before the pass meets its B_3[3] break.
    prefix = strong_greedy(Params(3, 3, 19)).terms
    reasons, alive_breaks = check_fused_against_contract_op(prefix, 3, 3)
    assert "level" in reasons
    assert alive_breaks > 0


def test_fused_scan_leaves_breakers_that_trip_a_level_alive():
    # After the 59-term (2, 3) prefix, 935 fails a level only, and 12
    # B_2[3] breakers trip a level first.
    prefix = strong_greedy(Params(2, 3, 59)).terms
    reasons, alive_breaks = check_fused_against_contract_op(prefix, 2, 3)
    assert "level" in reasons
    assert alive_breaks > 0


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
    boundaries and start at every residue mod 8."""
    monkeypatch.setattr("bhgreedy.greedy._FIRST_SLICE", 3)
    monkeypatch.setattr("bhgreedy.greedy._CHUNK", 7)


@pytest.mark.parametrize("h,g", [
    (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3),
    (5, 1),
])
def test_scan_chunk_boundaries_change_nothing(monkeypatch, h, g):
    # h = 2..5 runs 0..3 rounds of the shifts that build reach.
    n = {2: 20, 3: 20, 4: 12, 5: 9}[h]
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


@pytest.mark.parametrize("h,g,n", [
    (2, 1, 40), (3, 1, 12), (4, 1, 10), (2, 2, 30), (2, 3, 30), (3, 2, 14),
    (3, 3, 14), (4, 2, 10), (4, 3, 10), (5, 1, 7),
])
def test_screen_with_tiny_slices_matches_naive_oracles(monkeypatch, h, g, n):
    shrink_scan_slices(monkeypatch)
    assert strong_greedy(Params(h, g, n)).terms == naive_strong_greedy(h, g, n)
    assert classic_greedy(Params(h, g, n)).terms == naive_classic_greedy(h, g, n)


SCREEN_PREFIXES = [
    (2, 1, 12), (3, 1, 9), (4, 1, 7), (2, 2, 12), (3, 2, 9), (2, 3, 12),
    (3, 3, 9), (4, 2, 7), (5, 1, 6),
]


def reach_oracle(prefix, h, g):
    """E = {x >= 0 : x + z in Sat for some z in S_{h-2}}, with Sat the sums
    of at least g representations, from enumeration."""
    sat = [x for x, c in multiset_sum_histogram(prefix, h).items() if c >= g]
    lower = multiset_sum_histogram(prefix, h - 2)
    return {x - z for x in sat for z in lower if x >= z}


@pytest.mark.parametrize("generator", [strong_greedy, classic_greedy])
@pytest.mark.parametrize("h,g,n", [
    (h, g, {2: 16, 3: 11, 4: 9, 5: 8}[h]) for h in range(2, 6) for g in (1, 2, 3)
])
def test_reach_matches_the_oracle_after_every_commit(generator, h, g, n):
    # reach is built in h - 2 rounds of shifts; it must hold exactly the
    # oracle's E, set no bit past the top of S_h, and take (top + 7) // 8 + 1
    # bytes, the length of ind.  At g = 1 no E is kept, and the difference
    # bitmaps kept in its place must match theirs.
    terms = generator(Params(h, g, n)).terms
    scan = _new_scan(h, g)
    for i, a in enumerate(terms):
        scan.grow(a, scan.join(a))
        if g == 1:
            check_g1_bitmaps(scan, terms[:i + 1])
            continue
        top = h * max(terms[:i + 1])
        bits = int.from_bytes(scan.reach, "little")
        assert len(scan.reach) == len(scan.ind) == (top + 7) // 8 + 1
        assert bits >> (top + 1) == 0
        assert bits == sum(1 << x for x in reach_oracle(terms[:i + 1], h, g)), \
            terms[:i + 1]


def reach_base(scan):
    """The base of a g > 1 scan: the bit of E that reach starts at."""
    return 8 * (len(scan.ind) - len(scan.reach))


@pytest.mark.parametrize("generator,h,g,n", [
    (strong_greedy, 3, 2, 30), (strong_greedy, 3, 3, 20), (strong_greedy, 4, 2, 12),
    (classic_greedy, 3, 2, 40),
])
def test_reach_above_the_base_matches_the_oracle_in_runs(monkeypatch, generator, h, g, n):
    # In a run, dead holds the breakers find has met, so the base, the
    # lowest clear bit of dead rounded down to a multiple of 8, rises
    # above 0.  After every grow, reach shifted back by the base must hold
    # exactly the oracle's E on [base, top of S_h].  Every screen that find
    # makes must start at or above the base, and clear exactly the live m
    # of its slice with m + a in the oracle's E for some element a.
    grow, screen = _SumScan.grow, _SumScan.screen
    bases, oracle = [], []

    def checked_grow(self, term, admission):
        grow(self, term, admission)
        base, dead = reach_base(self), self.dead
        low = (~dead & dead + 1).bit_length() - 1
        assert base == low - low % 8, (self.elements, low)
        oracle[:] = [packed(reach_oracle(self.elements, h, g))]
        bits = int.from_bytes(self.reach, "little") << base
        assert bits == oracle[0] >> base << base, (self.elements, base)
        bases.append(base)

    def checked_screen(self, lo, hi):
        assert lo >= reach_base(self), (self.elements, lo)
        before, mask = self.dead, (1 << hi - lo) - 1
        left = screen(self, lo, hi)
        live = ~before >> lo & mask
        hits = reduce(or_, (oracle[0] >> lo + a for a in self.elements)) & mask
        assert self.dead ^ before == (live & hits) << lo, (self.elements, lo)
        assert left == live & ~hits
        return left

    monkeypatch.setattr(_SumScan, "grow", checked_grow)
    monkeypatch.setattr(_SumScan, "screen", checked_screen)
    generator(Params(h, g, n))
    assert len(bases) == n - 1 and max(bases) > 0


def screened_prefixes(h, g, n):
    """For each proper prefix of the strong (h, g, n) run: a scan that has
    committed it, the h- and (h-1)-fold sum histograms from enumeration,
    and the slice [lo, hi) that starts below the last member and runs past
    the top of S_h, 5 past the end of reach wherever reach is kept."""
    terms = strong_greedy(Params(h, g, n)).terms
    for i, a in enumerate(terms[:-1]):
        prefix = terms[:i + 1]
        scan = committed(h, g, prefix)
        hist = multiset_sum_histogram(prefix, h)
        lower = multiset_sum_histogram(prefix, h - 1)
        yield i, scan, hist, lower, a // 2 + 1, 8 * ((h * a + 7) // 8 + 1) + 5


@pytest.mark.parametrize("h,g,n", SCREEN_PREFIXES)
def test_screen_clears_only_bhg_breaks(h, g, n):
    # After each prefix, bit x of Sat (ind) must be set exactly for the
    # sums with r(x) >= g.  The screen must set the bits in dead of exactly
    # the non-members m of its slice with m + y in Sat for some y in
    # S_{h-1} (sums from enumeration), each a B_h[g] break, and touch no
    # other bit.  At g = 1 no screen runs: the k = 1 breakers of the
    # matrix, D_{h,h-1}, must be exactly these breakers past the largest
    # element.
    screened = 0
    for i, scan, hist, lower, lo, hi in screened_prefixes(h, g, n):
        t = build(h, scan.elements)
        top = h * t.elements[-1]
        breaks = [m for m in range(lo, hi)
                  if m not in t and any(hist[m + y] >= g for y in lower)]
        if g == 1:
            last = t.elements[-1]
            cleared = sorted(m for m in check_g1_bitmaps(scan, t.elements) if m < hi)
            breaks = [m for m in breaks if m > last]
        else:
            assert len(scan.reach) == (top + 7) // 8 + 1
            assert sat_bits(scan) == sum(1 << x for x in range(top + 1) if hist[x] >= g)
            before = scan.dead
            assert before == packed([0] + t.elements)
            scan.screen(lo, hi)
            assert scan.dead & before == before
            cleared = set_bits(scan.dead ^ before)
            assert not cleared or lo <= cleared[0] <= cleared[-1] < hi
        assert cleared == breaks
        # For g > 1 the first few prefixes may clear nothing; the run
        # as a whole must.
        assert cleared or i == 0 or g > 1
        for m in cleared:
            # A "bhg" verdict also means m is not an admissible candidate.
            verdict = is_strong_candidate(t, t.candidate_delta(m), i + 2, h, g)
            assert verdict.reason == "bhg", (t.elements, m)
        screened += len(cleared)
    assert screened


def check_g1_accept(elements, h):
    """Commit the B_h[1] set elements in increasing order.  For each m of
    (M, h*M + 2), M the largest element, breaks must agree with
    is_strong_candidate, and m may be a k = 1 breaker of the bitmaps only
    on a "bhg" verdict.  find must return the smallest accepted m, and
    None when top is at or below it.  Returns the kinds of candidate seen:
    "k1" (m + y in S_h for some y in S_{h-1}), "high" (none, but rejected)
    and "accepted"."""
    elements = sorted(elements)
    scan = committed(h, 1, elements)
    t = build(h, elements)
    top = elements[-1]
    above = check_g1_bitmaps(scan, elements)
    reach = reach_oracle(elements, h, 1)
    kinds, first = set(), None
    for m in range(top + 1, h * top + 2):
        verdict = is_strong_candidate(t, t.candidate_delta(m), len(t) + 1, h, 1)
        assert (scan.breaks(m) is None) == verdict.accepted, (elements, m)
        assert m not in above or verdict.reason == "bhg", (elements, m)
        if verdict.accepted and first is None:
            first = m
        kinds.add("k1" if any(m + a in reach for a in elements) else
                  "accepted" if verdict.accepted else "high")
    assert scan.find(first) is None
    assert scan.find(first + 1) == (first, ((), ()))
    return kinds


@pytest.mark.parametrize("generator", [strong_greedy, classic_greedy])
@pytest.mark.parametrize("h,n", [(2, 14), (3, 9), (4, 7), (5, 6)])
def test_g1_accept_resumes_where_the_screen_stopped(generator, h, n):
    terms = generator(Params(h, 1, n)).terms
    kinds = set()
    for i in range(1, len(terms)):
        kinds |= check_g1_accept(terms[:i], h)
    assert {"k1", "accepted"} <= kinds


@given(drawn=st.lists(st.integers(1, 40), min_size=1, max_size=7, unique=True),
       h=st.integers(2, 5))
@example(drawn=[1, 3], h=3)
@example(drawn=[1, 4], h=4)
@settings(max_examples=100, deadline=None)
def test_g1_accept_matches_oracle_on_arbitrary_bh1_sets(drawn, h):
    # Arbitrary nonempty B_h[1] sets, kept from the drawn values in order
    # and committed sorted, most of them not greedy prefixes.  In the
    # examples m = 4 and 5, above the largest element, are candidates that
    # only a k >= 2 sum rejects: 2*4 + 1 = 3+3+3 and 3*5 + 1 = 4+4+4+4,
    # while no m + y with y in S_{h-1} is an h-fold sum.
    elements = []
    for a in drawn:
        if is_bhg(elements + [a], h, 1):
            elements.append(a)
    check_g1_accept(elements, h)


@pytest.mark.parametrize("width", [None, 1])
@pytest.mark.parametrize("h,g,n", SCREEN_PREFIXES)
def test_screen_stops_early_and_accept_decides_the_rest(h, g, n, width):
    # Screen [lo, hi) in slices of 13 (width None), which start at every
    # residue mod 8, or of one candidate each.  Each screen clears exactly
    # the non-members m of its slice with m + y in Sat for some y in
    # S_{h-1}, and returns the candidates it leaves; the only early stop
    # is the return for a slice with no live candidate, which slices of
    # one meet at every member.  accept_general then marks the other
    # breakers dead, so after both the bit in dead of every non-member of
    # [lo, hi) that breaks B_h[g] is set, and no other.  At g = 1 neither
    # runs: every breaker lies below the largest element M, among the
    # k = 1 breakers of the bitmaps or where breaks finds a break, and no
    # other non-member does.
    if g == 1:
        for i, scan, hist, lower, lo, hi in screened_prefixes(h, g, n):
            t = build(h, scan.elements)
            last = t.elements[-1]
            above = check_g1_bitmaps(scan, t.elements)
            for m in range(lo, hi):
                if m not in t:
                    verdict = is_strong_candidate(t, t.candidate_delta(m), i + 2, h, g)
                    assert (verdict.reason == "bhg") == (
                        m < last or m in above or scan.breaks(m) is not None), \
                        (t.elements, m)
        return
    step = 13 if width is None else width
    stopped_early = 0
    for i, scan, hist, lower, lo, hi in screened_prefixes(h, g, n):
        t = build(h, scan.elements)
        breaks = {m for m in range(lo, hi) if m not in t and is_strong_candidate(
            t, t.candidate_delta(m), i + 2, h, g).reason == "bhg"}
        start = scan.dead
        accept = scan.accept_general()
        for a in range(lo, hi, step):
            b = min(a + step, hi)
            exact = {m for m in range(a, b) if m not in t
                     and any(hist[m + y] >= g for y in lower)}
            before = scan.dead
            stopped_early += all(before >> m & 1 for m in range(a, b))
            left = scan.screen(a, b)
            assert scan.dead & before == before
            cleared = set(set_bits(scan.dead ^ before))
            assert cleared == exact, (t.elements, a)
            survivors = [m for m in range(a, b) if not scan.dead >> m & 1]
            assert [a + i for i in set_bits(left)] == survivors
            for m in survivors:
                assert (accept(m) is not None) == (m not in breaks), (t.elements, m)
        assert set(set_bits(scan.dead ^ start)) == breaks, t.elements
    assert stopped_early or width is None


@pytest.mark.parametrize("generator", [strong_greedy, classic_greedy])
@pytest.mark.parametrize("h,g,n", [(2, 2, 30), (2, 3, 30), (3, 2, 14), (3, 3, 14),
                                   (4, 2, 10)])
def test_accept_sees_no_candidate_that_e_decides(monkeypatch, generator, h, g, n):
    # Every slice is screened whole before its survivors reach the accept
    # test, so no candidate m that the closure of accept_general is handed
    # has m + a in the kept E (reach, from the scan's base up) for some
    # element a: the screen has marked each such m dead.  Tiny slices make
    # many screens a run.
    shrink_scan_slices(monkeypatch)
    accept_general = _SumScan.accept_general
    handed = []

    def checked(self):
        accept = accept_general(self)
        e = int.from_bytes(self.reach, "little") << reach_base(self)

        def screened_accept(m):
            handed.append(m)
            assert not any(e >> m + a & 1 for a in self.elements), (self.elements, m)
            return accept(m)

        return screened_accept

    monkeypatch.setattr(_SumScan, "accept_general", checked)
    generator(Params(h, g, n))
    assert handed


@pytest.mark.parametrize("generator", [strong_greedy, classic_greedy])
@pytest.mark.parametrize("h,g,n", SCREEN_PREFIXES)
def test_rebuilt_scan_finds_the_next_term(generator, h, g, n):
    # A scan rebuilt by committing a prefix starts with every non-member
    # live, where the run's own scan had marked some dead; its find must
    # still return the run's next term under the same ceiling.
    rec = generator(Params(h, g, n))
    for i, meta in enumerate(rec.per_step[1:], 1):
        scan = committed(h, g, rec.terms[:i], rec.algorithm == "strong")
        assert scan.find(meta.bound_floor + 1)[0] == meta.term, \
            (rec.algorithm, rec.terms[:i])


def check_kept_state(scan, prefix, h, g):
    """For g > 1 the scan's tables are those of a SumTableSet of prefix,
    with r(x) in a flat array that matches its h-fold table at every
    x <= h*M and is 0 above, the distinct sums (R_1) and the entries
    counted alike; its level counts are the tables' R_1..R_g and its Sat is
    {x : r(x) >= g} from enumeration.  At g = 1, which keeps no table,
    level or Sat, its difference bitmaps match theirs."""
    if g == 1:
        check_g1_bitmaps(scan, prefix)
        return
    ref = build(h, prefix)
    rep, top = scan.tables[h], h * max(prefix)
    assert scan.tables[:h] == ref.tables[:h], prefix
    assert list(rep[:top + 1]) == [ref.tables[h][x] for x in range(top + 1)], prefix
    assert not any(rep[top + 1:]), prefix
    assert scan.levels[0] == len(ref.tables[h]), prefix
    assert scan.entry_count() == ref.entry_count(), prefix
    assert scan.elements == ref.elements, prefix
    assert scan.levels == ref.rep_histogram(g), prefix
    assert sat_bits(scan) == sum(
        1 << x for x, c in multiset_sum_histogram(prefix, h).items() if c >= g), prefix


@pytest.mark.parametrize("generator", [strong_greedy, classic_greedy])
@pytest.mark.parametrize("h,g,n", [(2, 2, 30), (2, 3, 30), (3, 2, 14), (3, 3, 14),
                                   (4, 2, 9), (4, 3, 9)])
def test_kept_levels_and_sat_match_the_oracles(generator, h, g, n):
    # Driven as _greedy drives it, each step's find admits the run's next
    # term with its pass, the one classify_candidate makes on reference
    # tables of the prefix without ceilings, and join takes it over, with
    # the writes it left pending.  Committed by hand, every term is
    # classified inside join.  Either way the kept state must match the
    # tables and the enumeration.
    rec = generator(Params(h, g, n))
    scan = _new_scan(h, g, check_levels=rec.algorithm == "strong")
    scan.grow(1, scan.join(1))
    for i, meta in enumerate(rec.per_step[1:], 1):
        term, admission = scan.find(meta.bound_floor + 1)
        assert term == meta.term
        ref = build(h, rec.terms[:i])
        assert admission == tuple(classify_candidate(ref, term, g, scan.levels)[2:])
        scan.grow(term, scan.join(term, admission))
        check_kept_state(scan, rec.terms[:i + 1], h, g)
    for i in range(1, n + 1):
        check_kept_state(committed(h, g, rec.terms[:i]), rec.terms[:i], h, g)


def check_dead(scan, prefix, h, g):
    """Bit 0 of a g > 1 scan's dead and the bit of every element of prefix
    are set, and every other set bit is a candidate m that breaks B_h[g]
    with prefix, by enumeration.  Returns the count of those m."""
    assert scan.dead & packed([0] + prefix) == packed([0] + prefix), prefix
    breakers = [m for m in set_bits(scan.dead, 1) if m not in prefix]
    for m in breakers:
        assert not is_bhg(prefix + [m], h, g), (prefix, m)
    return len(breakers)


@pytest.mark.parametrize("generator", [strong_greedy, classic_greedy])
@pytest.mark.parametrize("h,g,n", [(2, 2, 30), (3, 2, 14), (3, 3, 12), (4, 2, 9),
                                   (2, 3, 25)])
def test_dead_holds_only_members_and_bhg_breaks(generator, h, g, n):
    # After every find, driven as _greedy drives it and after a prefix
    # committed by hand in reverse order, dead holds 0, every member and
    # only candidates that break B_h[g]; a level rejection leaves its
    # candidate live.  A screen that marked the candidates it did not hit
    # would set the bits of candidates that keep the set B_h[g].
    rec = generator(Params(h, g, n))
    scan, by_hand = (_new_scan(h, g, check_levels=rec.algorithm == "strong")
                     for _ in range(2))
    scan.grow(1, scan.join(1))
    breakers = 0
    for i, meta in enumerate(rec.per_step[1:], 1):
        term, admission = scan.find(meta.bound_floor + 1)
        assert term == meta.term
        breakers += check_dead(scan, rec.terms[:i], h, g)
        scan.grow(term, scan.join(term, admission))
        by_hand.grow(rec.terms[-i], by_hand.join(rec.terms[-i]))
        by_hand.find(meta.bound_floor + 1)
        breakers += check_dead(by_hand, rec.terms[-i:], h, g)
    assert breakers


def test_strong_runs_never_recount_the_levels(monkeypatch):
    expected = {hgn: strong_greedy(Params(*hgn)).terms for hgn in [(3, 2, 30), (2, 3, 40)]}

    def recount(self, s_max):
        raise AssertionError("rep_histogram called")

    monkeypatch.setattr(SumTableSet, "rep_histogram", recount)
    for hgn, terms in expected.items():
        assert strong_greedy(Params(*hgn)).terms == terms


@pytest.mark.parametrize("generator,h,g,n", [
    (strong_greedy, 2, 1, 40), (classic_greedy, 3, 1, 14), (strong_greedy, 4, 1, 9),
    (strong_greedy, 3, 2, 20), (classic_greedy, 2, 3, 25), (strong_greedy, 3, 3, 14),
])
def test_generator_classifies_inside_commit_only_its_first_term(monkeypatch, generator,
                                                               h, g, n):
    # Every term after the first reaches join with the pass that admitted
    # it, so a run classifies inside join once; a lost hand-off would
    # classify every term twice.  A g = 1 run, (3, 1) and (4, 1) as well
    # as (2, 1), runs no classifier pass, and its scan has no screen: its
    # first term is checked by breaks.  No pass of these g > 1 runs stops
    # at a level limit, so every pass is written through and none calls
    # classify_candidate, the reference.  Only find reads what grow
    # updates, so the run grows every term but its last.
    expected = generator(Params(h, g, n)).terms
    cls = type(_new_scan(h, g))
    join, grow = cls.join, cls.grow
    classify, screen = _SumScan.admit, _SumScan.screen
    handed, inside, depth, calls, screens, grown = [], [], [], [], [], []

    def wrapped_join(self, term, admission=None):
        handed.append(admission is not None)
        depth.append(term)
        try:
            return join(self, term, admission)
        finally:
            depth.pop()

    def wrapped_grow(self, term, joined):
        grown.append(term)
        return grow(self, term, joined)

    def wrapped_classify(self, m, limits=None):
        calls.append(m)
        if depth:
            inside.append(m)
        return classify(self, m, limits)

    def reference(*args):
        raise AssertionError("classify_candidate called")

    def wrapped_screen(self, lo, hi):
        screens.append(lo)
        return screen(self, lo, hi)

    monkeypatch.setattr(cls, "join", wrapped_join)
    monkeypatch.setattr(cls, "grow", wrapped_grow)
    if g > 1:
        monkeypatch.setattr(cls, "screen", wrapped_screen)
    monkeypatch.setattr(_SumScan, "admit", wrapped_classify)
    monkeypatch.setattr("bhgreedy.greedy.classify_candidate", reference)
    assert generator(Params(h, g, n)).terms == expected
    if g == 1:
        assert calls == screens == []
    else:
        assert inside == [1] and screens
    assert handed == [False] + [True] * (n - 1)
    assert grown == expected[:-1]


@pytest.mark.parametrize("generator", [strong_greedy, classic_greedy])
@pytest.mark.parametrize("h,n", [(3, 11), (4, 9), (5, 8), (2, 60)])
def test_g1_folds_match_the_oracle_after_every_commit(generator, h, n):
    # For g = 1, diffs[i*h + j] is D_{i,j} = S_i - S_j, cut in rows h - 1
    # and h, and column 0 of each whole row is the bitmap of S_i.  The run
    # must be the naive greedy.  Whether a term is admitted by find, with
    # an empty pass, or committed by hand, the matrix must match the
    # difference sets from enumeration after every commit, and find must
    # return the run's next term, and None when top is at or below it.
    rec = generator(Params(h, 1, n))
    assert rec.terms == naive_classic_greedy(h, 1, n)
    scan = _new_scan(h, 1)
    scan.grow(1, scan.join(1))
    check_g1_bitmaps(scan, [1])
    for i, meta in enumerate(rec.per_step[1:], 1):
        assert scan.find(meta.term) is None
        found = scan.find(meta.bound_floor + 1)
        assert found == (meta.term, ((), ()))
        scan.grow(meta.term, scan.join(*found))
        prefix = rec.terms[:i + 1]
        check_g1_bitmaps(scan, prefix)
        assert committed(h, 1, prefix).diffs == scan.diffs


# Bits per unit of the largest element M that the g = 1 matrix holds.
G1_WIDTH = {2: 3, 3: 15, 4: 42, 5: 90}


@pytest.mark.parametrize("h,n", [(2, 300), (3, 40), (4, 20), (5, 12)])
def test_g1_matrix_never_holds_more_than_its_width(h, n):
    # After every commit of the strong (h, 1, n) run, and of seeded B_h[1]
    # sets committed by hand, the matrix holds at most w_h*M + 1 bits, so
    # that no change regrows the entries its reads cannot reach.
    runs = [elements for _, elements in seeded_sidon_sets(5, h)]
    for elements in runs + [strong_greedy(Params(h, 1, n)).terms]:
        scan = _new_scan(h, 1)
        for a in elements:
            scan.grow(a, scan.join(a))
            kept = sum(bits.bit_length() for bits in scan.diffs)
            assert kept <= G1_WIDTH[h] * a + 1, (elements, a, kept)


@pytest.mark.parametrize("generator", [strong_greedy, classic_greedy])
@pytest.mark.parametrize("h,g,n", [(2, 2, 60), (2, 3, 60), (3, 2, 30), (4, 2, 15),
                                   (3, 300, 8)])
def test_rep_array_never_holds_more_than_twice_its_reach(monkeypatch, generator, h, g, n):
    # After every join, the flat array of r(x) covers every h-fold sum of
    # the set and of the candidates tested so far, up to h*max(M, m), M
    # the largest element and m the largest candidate classified, and
    # holds at most twice that many slots: it grows by doubling from what
    # the scan has read, never from the step's ceiling.  It is a bytearray
    # for g <= 255 and a list above, and the scan builds no SumTableSet.
    classify, join = _SumScan.admit, _SumScan.join
    tested, lengths = [0], []

    def wrapped_classify(self, m, limits=None):
        tested[0] = max(tested[0], m)
        return classify(self, m, limits)

    def checked_join(self, term, admission=None):
        joined = join(self, term, admission)
        rep = self.tables[h]
        assert type(rep) is (bytearray if g <= 255 else list)
        reach = h * max(self.elements[-1], tested[0]) + 1
        assert reach <= len(rep) <= 2 * reach, (self.elements, tested[0], len(rep))
        lengths.append(len(rep))
        return joined

    def refuse(*args, **kwargs):
        raise AssertionError("SumTableSet built")

    expected = generator(Params(h, g, n)).terms
    monkeypatch.setattr(_SumScan, "admit", wrapped_classify)
    monkeypatch.setattr(_SumScan, "join", checked_join)
    monkeypatch.setattr("bhgreedy.greedy.SumTableSet", refuse)
    assert generator(Params(h, g, n)).terms == expected
    assert len(lengths) == n and len(set(lengths)) > 2


RULE_STATE = {
    _SumScan: {"h", "g", "tables", "elements", "max_entries", "pending", "tripped",
               "check_levels", "levels", "dead", "ind", "reach"},
    _SidonScan: {"h", "elements", "max_entries", "diffs"},
}


@pytest.mark.parametrize("h,g", [(h, g) for h in range(2, 6) for g in (1, 2, 3)])
def test_each_rule_has_its_own_scan_class(h, g):
    # The scan of (h, g) is the class of its rule, and it keeps that rule's
    # state and nothing else: its slots are exactly the rule's, and it has
    # no __dict__ to hold more.
    scan = _new_scan(h, g)
    cls = _SumScan if g > 1 else _SidonScan
    assert type(scan) is cls
    assert {name for c in cls.__mro__ for name in getattr(c, "__slots__", ())} == RULE_STATE[cls]
    assert not hasattr(scan, "__dict__")


class WalkScan(_SumScan):
    """A scan with no elements, so that its screen marks nothing dead, and
    whose g > 1 accept test records each candidate it is handed, optionally
    sets its bit in dead, and admits the candidates in admitted with an
    empty pass."""

    __slots__ = ("visits", "admitted", "clear")

    def accept_general(self):
        return self.record

    def record(self, m):
        assert m not in self.visits, (m, self.visits)  # also ends a stuck walk
        self.visits.append(m)
        if self.clear:
            self.dead |= 1 << m
        return ((), ()) if m in self.admitted else None


# Each pattern is (dead, top).  Bits 0..4 of dead are set and bit 5 is
# clear, so the slices of shrink_scan_slices are [5, 8), [8, 14),
# [14, 21), [21, 28), ...
WALK_PATTERNS = {
    # Live at the first and last candidate of every slice, and one between.
    "slice-edges": ((1 << 21) - 1 ^ packed(5 + i for i in (0, 2, 3, 8, 9, 11, 15)), 21),
    # Live at 5, dead at 6..12, and live at every candidate past the top set
    # bit of dead, across three slices.
    "past-the-top": ((1 << 13) - 1 ^ 1 << 5, 24),
    "none-live": ((1 << 21) - 1, 21),
}


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("clear", [False, True])
@pytest.mark.parametrize("pattern", sorted(WALK_PATTERNS))
def test_find_visits_exactly_the_live_candidates(monkeypatch, pattern, clear, g):
    # find must hand the accept test every live candidate below top, each
    # once and in increasing order, and return the first one it admits,
    # also when accept marks dead the candidate it was handed.
    shrink_scan_slices(monkeypatch)
    dead, top = WALK_PATTERNS[pattern]
    live = [m for m in range(top) if not dead >> m & 1]
    assert bool(live) == (pattern != "none-live")
    for first in [None] + live:
        scan = WalkScan(2, g)
        scan.dead = dead
        scan.visits, scan.clear = [], clear
        scan.admitted = set() if first is None else set(live[live.index(first):])
        assert scan.find(top) == (None if first is None else (first, ((), ())))
        expected = live if first is None else live[:live.index(first) + 1]
        assert scan.visits == expected
        assert scan.dead == dead | (packed(scan.visits) if clear else 0)


def test_find_walks_across_a_full_chunk():
    # At the default slice widths a walk from 1 reaches the slice
    # [64513, 130049), _CHUNK wide; live at both its ends and on both
    # sides of bit _CHUNK inside it.
    lo = 1 + _CHUNK - _FIRST_SLICE
    live = [1, lo, _CHUNK, _CHUNK + 1, lo + _CHUNK - 1]
    scan = WalkScan(3, 2)
    scan.dead = (1 << lo + _CHUNK) - 1 ^ packed(live)
    scan.visits, scan.clear, scan.admitted = [], False, {live[-1]}
    assert scan.find(lo + _CHUNK + 1) == (live[-1], ((), ()))
    assert scan.visits == live


@pytest.mark.parametrize("h", [2, 3, 4, 5])
def test_g1_bitmaps_stay_exact_on_seeded_sidon_sets(h):
    # Commit 20 seeded B_h[1] sets by hand in increasing order, whose
    # prefixes, unlike greedy ones, may leave below the largest element M
    # a non-member that keeps the set B_h[1].  The bitmaps must match
    # enumeration after every commit, and find must pass over those
    # non-members: it returns the smallest one above M that keeps the set
    # B_h[1], and None when top is at or below it.
    skipped = 0
    for seed, elements in seeded_sidon_sets(20, h):
        scan = _new_scan(h, 1)
        for i, a in enumerate(elements):
            scan.grow(a, scan.join(a))
            prefix = elements[:i + 1]
            check_g1_bitmaps(scan, prefix)
            hist = multiset_sum_histogram(prefix, h)
            keeps = [m for m in range(1, h * a + 2)
                     if m not in prefix and keeps_bh1(hist, prefix, m, h)]
            term = next(m for m in keeps if m > a)
            skipped += keeps[0] < a
            assert scan.find(term) is None, (seed, prefix)
            assert scan.find(term + 1) == (term, ((), ())), (seed, prefix)
    assert skipped


@pytest.mark.parametrize("h,n,seeds", [(3, 8, 6), (4, 6, 3), (5, 5, 2), (2, 40, 30)])
def test_diff_break_matches_the_naive_oracle(h, n, seeds):
    # The break test reads bit k*m of D_{h,h-k}, k = 1..h-1.  Against the
    # naive oracle, after every commit of seeded B_h[1] sets in increasing
    # order and of the (h, 1, n) prefixes, which the strong and the classic
    # greedy share, for every m in (M, h*M + 9], M the largest element.
    # Every prefix of two or more elements has breakers above M.  A k = 1
    # break (m + y in S_h for some y in S_{h-1}) must occur, and for h > 2
    # a break by k >= 2 copies of m alone too.
    kinds = set()
    terms = strong_greedy(Params(h, 1, n)).terms
    assert classic_greedy(Params(h, 1, n)).terms == terms
    for elements in [e for _, e in seeded_sidon_sets(seeds, h)] + [terms]:
        scan = _new_scan(h, 1)
        for i, a in enumerate(elements):
            scan.grow(a, scan.join(a))
            prefix = elements[:i + 1]
            folds = fold_sets(prefix, h)
            breakers = check_g1_break(scan, prefix)
            assert breakers or i == 0, prefix
            for m in breakers:
                kinds.add("k1" if any(m + y in folds[h] for y in folds[h - 1]) else "high")
    assert kinds == ({"k1", "high"} if h > 2 else {"k1"})


@pytest.mark.parametrize("h", [2, 3, 4, 5])
def test_g1_commit_at_or_below_the_top_term_is_refused(h):
    # A g = 1 scan takes terms only above its largest element M.  After a
    # greedy prefix, and after the prefixes of sorted B_h[1] sets that are
    # not one, a commit of a member, of a breaker below M and, where the
    # set leaves one, of a non-member below M that keeps the set B_h[1]
    # raises ValueError, and changes nothing the scan keeps.
    greedy = strong_greedy(Params(h, 1, 6)).terms
    seeded = [e[:i] for _, e in seeded_sidon_sets(5, h) for i in range(2, len(e) + 1)]
    kinds = set()
    for elements in [greedy] + seeded:
        scan = committed(h, 1, elements)
        before, top = kept_state(scan), elements[-1]
        hist = multiset_sum_histogram(elements, h)
        refused = {"member": elements[0], "top": top}
        for m in range(1, top):
            if m not in elements:
                kind = "keeper" if keeps_bh1(hist, elements, m, h) else "breaker"
                refused.setdefault(kind, m)
        for kind, m in refused.items():
            with pytest.raises(ValueError, match=f"^{m} is not above the largest element {top}$"):
                scan.grow(m, scan.join(m))
            assert kept_state(scan) == before, (elements, m)
            kinds.add((elements == greedy, kind))
    assert {(True, "breaker"), (False, "breaker"), (False, "keeper")} <= kinds
    assert (True, "keeper") not in kinds


def test_g1_scan_builds_no_sum_table(monkeypatch):
    # For g = 1, at h = 2, 3 and 4, the scan keeps no SumTableSet, and the
    # entry cap counts the closed form: a stub that refuses to be built
    # changes neither generator's terms.
    runs = [(gen, Params(h, 1, n)) for h, n in [(2, 80), (3, 30), (4, 16)]
            for gen in (strong_greedy, classic_greedy)]
    expected = [gen(params).terms for gen, params in runs]

    def refuse(*args, **kwargs):
        raise AssertionError("SumTableSet built")

    monkeypatch.setattr("bhgreedy.greedy.SumTableSet", refuse)
    assert [gen(params).terms for gen, params in runs] == expected
    assert committed(2, 1, MIAN_CHOWLA_10).elements == MIAN_CHOWLA_10


@pytest.mark.parametrize("generator,n,digest", [
    (strong_greedy, 600, "c9ed07e61ef64afcb2bba417cb640e03d88683ed736d1541efe307a09993d3a0"),
    (classic_greedy, 300, "b939e6a0fa0dd00b7311165dda3aa2c065ea4326b999dd01bc3d7fc338db8030"),
])
def test_mian_chowla_runs_match_their_golden_digest(generator, n, digest):
    # The sha256 of one "n,term,scan_length,bound_floor" line per step,
    # taken when the scan still kept sum tables.  The benchmark's pins
    # stop at n = 240, and the bitmaps keep growing well past it.
    rec = generator(Params(2, 1, n))
    text = "".join(f"{m.n},{m.term},{m.scan_length},{m.bound_floor}\n"
                   for m in rec.per_step)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


GOLDEN_RUNS = [
    (classic_greedy, 4, 1, 30, "d1d67fee5b3e305447657ebec0738814e3b0259ece9462e859bb15a708d6d983"),
    (strong_greedy, 3, 1, 60, "bb352f10205ef47f4aa6869dd11c10dc17600a17eb261f9874cc7c537efe1bbf"),
    (strong_greedy, 3, 2, 60, "45b7b891143e445a6d6789359894286ff3196bb6e136124fdd04056d37a05c8c"),
    (strong_greedy, 2, 3, 150, "0c5bbc0db48ba501d4515449109a69271746ef97993c63b76fbd65c47bc61b84"),
    (classic_greedy, 3, 2, 40, "78f6e5ec20e2ff2dd131ccf5ef7d77129bff1aa5dc5414c20c460f6d1d271dc0"),
    # r(x) reaches 256, past a byte, at the last term; taken while r(x)
    # was still kept in a dict.
    (strong_greedy, 4, 256, 20, "083cc5bc148950ac9c0853f66db860bc7428d1959af9a281d8d9cc887c82a663"),
]


# A g = 1 run keeps the id it had before g joined the parameters.
@pytest.mark.parametrize("generator,h,g,n,digest", GOLDEN_RUNS, ids=[
    "-".join(map(str, [gen.__name__, h] + [g] * (g > 1) + [n, digest]))
    for gen, h, g, n, digest in GOLDEN_RUNS])
def test_diff_set_runs_match_their_golden_digest(generator, h, g, n, digest):
    # The same digest for g = 1 runs with h > 2, taken when these scans
    # still kept sum tables, screened slices and rebuilt E every commit,
    # and for g > 1 runs far past the n = 20 where the naive oracles stop,
    # taken before the scan was split into one class per rule.
    rec = generator(Params(h, g, n))
    text = "".join(f"{m.n},{m.term},{m.scan_length},{m.bound_floor}\n"
                   for m in rec.per_step)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("n", range(2, 11))
def test_pair_scan_cap_trips_just_below_a_term(n):
    # A scan cap one below the n-th Mian-Chowla term stops the run there,
    # and a cap at the term lets it through.
    term = MIAN_CHOWLA_10[n - 1]
    message = (f"no admissible candidate <= {term - 1} for term {n} (h=2, g=1); "
               "raise the scan cap to continue")
    with pytest.raises(ScanExceededConfiguredLimit, match=f"^{re.escape(message)}$"):
        classic_greedy(Params(2, 1, n), scan_cap=term - 1)
    assert classic_greedy(Params(2, 1, n), scan_cap=term).terms == MIAN_CHOWLA_10[:n]


def capped_runs():
    """Runs that trip every cap of the entry-cap test: g = 1 runs of both
    generators at h = 2..4, and a strong g = 2 run."""
    for h, n in [(2, 90), (3, 28), (4, 16)]:
        for generator in (strong_greedy, classic_greedy):
            yield generator, Params(h, 1, n)
    yield strong_greedy, Params(3, 2, 30)


def guard_message(run):
    """The message of the GuardExceeded that run() raises, or None."""
    try:
        run()
    except GuardExceeded as e:
        return str(e)
    return None


def check_capped_run(generator, rec, cap):
    """A run of rec's parameters under the entry cap stops at the term, and
    with the message, of inserting rec's terms into capped tables, or ends
    as rec does where they hold every term.  Driven step by step, a commit
    that trips the cap changes nothing the scan keeps but, for g > 1, its
    sum tables, level counts and pending pass, which the cap stops
    part-way and which are then to be discarded, and no earlier commit
    trips.
    Returns the message, or None."""
    params = rec.params
    h, g = params.h, params.g
    t = SumTableSet(h, max_entries=cap)
    plain = guard_message(lambda: [t.add_element(a) for a in rec.terms])
    steps = []
    assert guard_message(lambda: generator(params, on_step=steps.append,
                                           max_entries=cap)) == plain, (params, cap)
    assert [m.term for m in steps] == rec.terms[:len(t.elements)], (params, cap)
    scan, admission = _new_scan(h, g, cap, rec.algorithm == "strong"), None
    for i, meta in enumerate(rec.per_step):
        if i:
            term, admission = scan.find(meta.bound_floor + 1)
            assert term == meta.term
        if i < len(steps):
            assert guard_message(
                lambda: scan.grow(meta.term, scan.join(meta.term, admission))) is None, \
                (params, cap, i)
            continue
        before = kept_state(scan)
        assert guard_message(
            lambda: scan.grow(meta.term, scan.join(meta.term, admission))) == plain, \
            (params, cap)
        after = kept_state(scan)
        for state in (before, after):
            for name in ("tables", "levels", "pending"):
                state.pop(name, None)
        assert after == before, (params, cap)
        break
    return plain


@pytest.mark.parametrize("cap", [10, 200, 1000, 4000])
def test_strong_run_hits_the_entry_cap_where_plain_tables_do(cap):
    # Neither the admission that join takes over nor the check of a term
    # it was not handed adds an entry, so a capped run, g = 1 or not,
    # stops at the term, and with the message, of inserting the uncapped
    # run's terms into capped tables.  A commit that trips the cap changes
    # nothing the scan keeps but the tables it stopped part-way.
    for generator, params in capped_runs():
        assert check_capped_run(generator, generator(params), cap) is not None, params


@pytest.mark.parametrize("generator", [strong_greedy, classic_greedy])
def test_pair_run_hits_the_entry_cap_at_every_cap(generator):
    # A g = 1 scan builds no table and counts the C(n+h, h) entries of n
    # elements in its place.  At every cap up to the count of the whole
    # run, 861 for (2, 1, 40), 286 for (3, 1, 10) and 330 for (4, 1, 7),
    # the run stops where capped tables do, with their message, and at
    # that count it ends as the uncapped run does.
    for h, n in [(2, 40), (3, 10), (4, 7)]:
        rec, full = generator(Params(h, 1, n)), comb(n + h, h)
        messages = [check_capped_run(generator, rec, cap) for cap in range(1, full + 1)]
        assert None not in messages[:-1] and messages[-1] is None, (h, n)


@pytest.mark.parametrize("generator", [strong_greedy, classic_greedy])
@pytest.mark.parametrize("h,g,n", [(2, 2, 90), (3, 2, 30), (3, 3, 25)])
def test_g_above_one_run_trips_a_cap_just_below_its_entry_count_at_its_last_term(
        generator, h, g, n):
    # A run joins its last term and does not grow it, and join alone checks
    # the entry cap.  A cap one below the entry count of the whole run's
    # tables trips at the last term, with the message of SumTableSet, and
    # a cap equal to that count lets the run end as the uncapped run does.
    # Strong (2, 2, 90) takes a term below the one before it.
    rec = generator(Params(h, g, n))
    t = SumTableSet(h)
    for a in rec.terms:
        t.add_element(a)
    full = t.entry_count()
    assert check_capped_run(generator, rec, full - 1) == (
        f"sum-table entry cap {full - 1} exceeded while inserting {rec.terms[-1]}; "
        "lower n_terms or h, or raise the cap")
    assert check_capped_run(generator, rec, full) is None
    capped = generator(Params(h, g, n), max_entries=full)
    assert ([(m.n, m.term, m.scan_length, m.bound_floor) for m in capped.per_step]
            == [(m.n, m.term, m.scan_length, m.bound_floor) for m in rec.per_step])


@pytest.mark.parametrize("h,g", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (3, 3)])
def test_committing_a_bhg_break_raises_and_changes_nothing(h, g):
    # Committed without an admission, a term above the largest element
    # that breaks B_h[g], or a member, is refused before anything the scan
    # keeps changes: for g > 1 its tables, levels and bitmaps, for g = 1
    # its elements and difference bitmaps.
    prefix = strong_greedy(Params(h, g, 8)).terms
    scan = committed(h, g, prefix)
    bad = next(m for m in range(max(prefix) + 1, 3 * max(prefix))
               if not is_bhg(prefix + [m], h, g))
    good = next(m for m in range(1, 3 * max(prefix))
                if m not in prefix and is_bhg(prefix + [m], h, g))
    before = kept_state(scan)
    for term in (bad, prefix[-1]):
        with pytest.raises(ValueError) as refused:
            scan.grow(term, scan.join(term))
        assert kept_state(scan) == before
        assert scan.elements == sorted(prefix)
        if term == bad:  # the refusal names a sum that bad pushes past g
            x = int(str(refused.value).split()[5])
            assert multiset_sum_histogram(prefix + [bad], h)[x] > g
    check_kept_state(scan, prefix, h, g)
    scan.grow(good, scan.join(good))
    check_kept_state(scan, prefix + [good], h, g)


def strong_limits(scan, h, g):
    """The level limits of the strong scan's accept test for a set of the
    next size: none for level 1, floor_s - R_s for s >= 2."""
    n_next = len(scan.elements) + 1
    return [sys.maxsize, sys.maxsize] + [Threshold.for_level(n_next, h, g, s).floor - r
                                         for s, r in enumerate(scan.levels[1:], 2)]


@pytest.mark.parametrize("tripped", [False, True])
@pytest.mark.parametrize("h,g,n,level_exits", [(2, 2, 20, False), (2, 3, 56, True),
                                               (3, 2, 12, False), (3, 3, 20, True),
                                               (4, 2, 8, False), (3, 300, 10, False)])
def test_written_pass_matches_the_reference_and_undoes_what_it_rejects(h, g, n, level_exits,
                                                                      tripped):
    # After each prefix of the strong run, the pass of the scan's tables,
    # written through or (tripped) read-only, with the strong scan's
    # limits, must admit exactly the non-members m of [1, 2*M + 9] that
    # is_strong_candidate admits, M the largest element.  A break must be
    # a "bhg" verdict, and a level exit any rejection; the (2, 3) and
    # (3, 3) prefixes meet level exits, the others none.  Every pass must
    # return the (x, s) of the reference pass under the same limits.  An
    # admitted pass hands back the reference pass's levels and sat and
    # stays pending.  After a rejected pass, or an admitted one rolled
    # back, the array's slots and R_1 are as before the pass.  A written
    # pass is then made once more with no room on level 1, where the
    # fresh sums trip it at the end of the pass if nothing trips it
    # before, and must again match the reference and leave the array as
    # it was.  Each term is then joined, with find's admission or by hand
    # over its pending pass, and the kept state must match the reference.
    rec = strong_greedy(Params(h, g, n))
    scan = _new_scan(h, g, check_levels=True)
    kinds = set()
    for i, term in enumerate(rec.terms):
        prefix = rec.terms[:i]
        if prefix:
            ref = build(h, prefix)
            profile, limits = ref.rep_histogram(g), strong_limits(scan, h, g)
            rep = scan.tables[h]
            for m in range(1, 2 * max(prefix) + 10):
                if m in ref:
                    continue
                scan.tripped = tripped
                before, r1 = rep[:], scan.levels[0]
                x, s, levels, sat = scan.admit(m, limits)
                assert (x, s) == classify_candidate(ref, m, g, profile, limits)[:2], (prefix, m)
                expect = is_strong_candidate(ref, ref.candidate_delta(m), i + 1, h, g, profile)
                assert (x is None and s is None) == expect.accepted, (prefix, m)
                if x is not None:
                    assert expect.reason == "bhg", (prefix, m)
                    kinds.add("bhg")
                elif s is not None:
                    kinds.add("level")
                else:
                    assert scan.pending == m
                    assert (levels, sat) == tuple(classify_candidate(ref, m, g, scan.levels)[2:])
                    scan.rollback()
                    kinds.add("admitted")
                assert scan.pending == 0
                assert rep[:len(before)] == before and not any(rep[len(before):]), (prefix, m)
                assert scan.levels[0] == r1, (prefix, m)
                if not tripped:
                    no_room = [sys.maxsize, 0] + [sys.maxsize] * (g - 1)
                    assert (scan.admit(m, no_room)[:2]
                            == classify_candidate(ref, m, g, profile, no_room)[:2]), (prefix, m)
                    scan.rollback()
                    assert rep[:len(before)] == before and not any(rep[len(before):]), \
                        (prefix, m)
                    scan.tripped = tripped
            found = scan.find(rec.per_step[i].bound_floor + 1)
            assert found[0] == term
            joined = scan.join(*found) if i % 2 else scan.join(term)
            assert joined == found[1]
        else:
            joined = scan.join(term)
        scan.grow(term, joined)
        check_kept_state(scan, rec.terms[:i + 1], h, g)
    assert "admitted" in kinds and (g > 255 or "bhg" in kinds)
    assert ("level" in kinds) == level_exits


@pytest.mark.parametrize("h,g", [(2, 2), (3, 2), (3, 3)])
def test_g_above_one_join_refuses_a_term_below_one(h, g):
    # A term of 0 or below is refused, as the first term and after a
    # prefix, with SumTableSet's message and before anything changes.
    prefix = strong_greedy(Params(h, g, 6)).terms
    for terms in ([], prefix):
        scan = committed(h, g, terms)
        before = kept_state(scan)
        for term in (0, -3):
            with pytest.raises(ValueError, match=f"^elements must be positive, got {term}$"):
                scan.join(term)
            assert kept_state(scan) == before, (terms, term)
    with pytest.raises(ValueError, match="^elements must be positive, got -3$"):
        SumTableSet(h).add_element(-3)


@pytest.mark.parametrize("h", [2, 3])
def test_pair_scan_refuses_a_first_term_below_one(h):
    # A g = 1 scan with no element has no largest one to compare with, so
    # a first term of 0 meets the positivity check, and is refused before
    # anything changes.
    scan = _new_scan(h, 1)
    with pytest.raises(ValueError, match="^elements must be positive, got 0$"):
        scan.join(0)
    assert scan.elements == []


@pytest.mark.parametrize("h,g,n", [(2, 2, 20), (3, 2, 12), (3, 3, 12)])
def test_join_checks_a_term_handed_another_candidates_admission(monkeypatch, h, g, n):
    # After each prefix of the strong run, find admits the run's next term
    # m and leaves its pass pending.  Joined by hand with m's admission, a
    # different non-member that keeps the set B_h[g] must not take that
    # admission over: m's pass is rolled back, the term is checked by its
    # own whole pass, which join returns, and the kept state is that of
    # the prefix with the term.
    rec = strong_greedy(Params(h, g, n))
    admit, rollback = _SumScan.admit, _SumScan.rollback
    passes, undone = [], []

    def wrapped_admit(self, m, limits=None):
        passes.append((m, limits))
        return admit(self, m, limits)

    def wrapped_rollback(self):
        undone.append(self.pending)
        rollback(self)

    monkeypatch.setattr(_SumScan, "admit", wrapped_admit)
    monkeypatch.setattr(_SumScan, "rollback", wrapped_rollback)
    for i in range(1, n):
        prefix = rec.terms[:i]
        scan = committed(h, g, prefix, check_levels=True)
        m, admission = scan.find(rec.per_step[i].bound_floor + 1)
        assert m == rec.terms[i] and scan.pending == m, prefix
        ref = build(h, prefix)
        profile = ref.rep_histogram(g)
        term = next(a for a in range(1, h * max(prefix) + 2)
                    if a != m and a not in ref
                    and classify_candidate(ref, a, g, profile)[0] is None)
        del passes[:], undone[:]
        joined = scan.join(term, admission)
        assert undone == [m] and passes == [(term, None)], (prefix, term)
        assert joined == tuple(classify_candidate(ref, term, g, profile)[2:]), (prefix, term)
        assert scan.pending == 0
        scan.grow(term, joined)
        check_kept_state(scan, prefix + [term], h, g)


def test_scan_classifies_read_only_once_a_pass_stops_at_a_level(monkeypatch):
    # Strong (3, 3, 25) first stops a pass at a level limit at step 20.
    # Up to that pass every pass is written through and none calls
    # classify_candidate; from then on every pass is the read-only
    # reference first.  Either way each term, and no other candidate,
    # leaves its pass pending, written through, for join to take over, so
    # join runs no pass of its own.  The terms are those of the run
    # without the switch.
    expected = strong_greedy(Params(3, 3, 25)).terms
    admit, classify = _SumScan.admit, classify_candidate
    calls = []

    def wrapped_admit(self, m, limits=None):
        tripped = self.tripped
        verdict = admit(self, m, limits)
        calls.append(("admit", m, limits is not None, tripped, self.pending == m))
        return verdict

    def wrapped_classify(t, m, *args):
        calls.append(("classify", m))
        return classify(t, m, *args)

    monkeypatch.setattr(_SumScan, "admit", wrapped_admit)
    monkeypatch.setattr("bhgreedy.greedy.classify_candidate", wrapped_classify)
    assert strong_greedy(Params(3, 3, 25)).terms == expected
    passes = [call for call in calls if call[0] == "admit"]
    assert passes[0] == ("admit", 1, False, False, True)  # the first term, by hand
    assert all(limited for _, _, limited, _, _ in passes[1:])
    tripped = next(i for i, p in enumerate(passes) if p[3])
    assert tripped > 1 and all(p[3] for p in passes[tripped:])
    assert [call[1] for call in calls if call[0] == "classify"] == [
        p[1] for p in passes[tripped:]]
    assert [m for _, m, _, _, pending in passes if pending] == expected


def test_classic_scan_cap_is_enforced():
    with pytest.raises(ScanExceededConfiguredLimit):
        classic_greedy(Params(2, 1, 10), scan_cap=3)


@pytest.mark.parametrize("cap", [-5, 0])
def test_classic_scan_cap_below_one_admits_no_second_term(cap):
    message = (f"no admissible candidate <= {cap} for term 2 (h=2, g=1); "
               "raise the scan cap to continue")
    with pytest.raises(ScanExceededConfiguredLimit, match=f"^{re.escape(message)}$"):
        classic_greedy(Params(2, 1, 3), scan_cap=cap)


def test_exhausted_theorem_ceiling_aborts_loudly(monkeypatch):
    from bhgreedy import ScanExceededBound

    monkeypatch.setattr("bhgreedy.greedy.theorem_bound",
                        lambda n, h, g: Threshold(0, g))
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
    assert seen == rec.per_step
