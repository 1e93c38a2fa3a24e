"""Tests for the from-scratch verification and window-scan diagnostics."""

import ast
import random
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from bhgreedy import (
    DEFAULT_MAX_ENUMERATION,
    GuardExceeded,
    InequalityInstance,
    Params,
    SequenceRecord,
    classic_bound_check,
    classic_greedy,
    forbidden_set_sizes,
    proof_diagnostics,
    strong_bound_check,
    strong_greedy,
    t_count,
    theorem_bound,
    verify_bhg,
    verify_strong_prefixes,
)
from bhgreedy.verify import DEFAULT_MAX_WINDOW, _scan_window
from oracles import (
    added_histogram,
    first_failed_level,
    is_strong,
    merged_window_scan,
    multiset_sum_histogram,
    naive_t_count,
)


# ---------------------------------------------------------------------------
# verify_bhg / verify_strong_prefixes


def test_verify_bhg_examples():
    assert verify_bhg([1, 2, 4, 8, 13], 2, 1).ok
    res = verify_bhg([1, 2, 3], 2, 1)
    assert (res.ok, res.x, res.count) == (False, 4, 2)
    assert verify_bhg([1, 2, 3], 2, 2).ok


def test_verify_bhg_guard():
    with pytest.raises(GuardExceeded):
        verify_bhg(range(1, 100), 3, 1, max_enumeration=100)


def test_verify_bhg_input_validation():
    with pytest.raises(ValueError):
        verify_bhg([1, 1, 2], 2, 1)
    with pytest.raises(ValueError):
        verify_bhg([0, 2], 2, 1)


@pytest.mark.parametrize("h,g", [(1, 1), (0, 1), (2, 0), (3, -1)])
def test_entry_points_refuse_out_of_range_orders(h, g):
    # h < 2 or g < 1 is refused with the CLI's text before any enumeration:
    # a cap of 0 would trip a guard first.  t_count takes no g and checks
    # h alone.
    message = f"^need h >= 2 and g >= 1, got h={h}, g={g}$"
    with pytest.raises(ValueError, match=message):
        verify_bhg([1, 2, 4], h, g, max_enumeration=0)
    with pytest.raises(ValueError, match=message):
        verify_strong_prefixes([1, 2, 4], h, g, max_enumeration=0)
    with pytest.raises(ValueError, match=message):
        forbidden_set_sizes([1, 2, 4], h, g, max_window=0)
    if h < 2:
        with pytest.raises(ValueError, match=f"^need h >= 2, got h={h}$"):
            t_count([1, 2, 4], 3, 2, h, max_enumeration=0)


def test_verify_strong_prefixes_examples():
    assert all(c.ok for c in verify_strong_prefixes([1, 2], 2, 1))
    checks = verify_strong_prefixes([1, 2, 3], 2, 1)
    assert [c.ok for c in checks] == [True, True, False]
    assert not checks[2].bhg.ok
    assert checks[2].bhg.x == 4 and checks[2].bhg.count == 2


def test_verify_strong_prefixes_on_generated_run():
    rec = strong_greedy(Params(2, 2, 15))
    assert all(c.ok for c in verify_strong_prefixes(rec.terms, 2, 2))


def oracle_prefix_fields(terms, h, g):
    """Every PrefixCheck field, each prefix enumerated from scratch."""
    rows = []
    for n in range(1, len(terms) + 1):
        hist = multiset_sum_histogram(terms[:n], h)
        x = min((x for x, c in hist.items() if c > g), default=None)
        s = first_failed_level(hist, n, h, g)
        level_count = None if s is None else sum(1 for c in hist.values() if c >= s)
        rows.append((x is None, x, hist.get(x), s is None, s, level_count))
    return rows


def prefix_fields(checks):
    return [(c.bhg.ok, c.bhg.x, c.bhg.count, c.level_ok, c.failed_s, c.level_count)
            for c in checks]


def test_verify_strong_prefixes_flags_level_failure():
    # {1,..,19, 770} is B_3[3] but breaks the level-3 ceiling at n = 20.
    prefix = strong_greedy(Params(3, 3, 19)).terms
    checks = verify_strong_prefixes(prefix + [770], 3, 3)
    last = checks[-1]
    assert last.bhg.ok and not last.level_ok
    assert last.failed_s == 3
    assert prefix_fields(checks) == oracle_prefix_fields(prefix + [770], 3, 3)


def test_one_pass_prefixes_match_oracle_on_grid(grid_strong_30):
    for (h, g), rec in grid_strong_30.items():
        terms = list(rec.terms)
        assert prefix_fields(verify_strong_prefixes(terms, h, g)) == \
            oracle_prefix_fields(terms, h, g)
        random.Random(10 * h + g).shuffle(terms)
        assert prefix_fields(verify_strong_prefixes(terms, h, g)) == \
            oracle_prefix_fields(terms, h, g)


def test_one_pass_prefixes_follow_a_rising_break():
    # 20 = 10+10 = 1+19 breaks B_2 at n = 3; 3+17 lifts it to 3 at n = 5.
    terms = [10, 1, 19, 3, 17]
    checks = verify_strong_prefixes(terms, 2, 1)
    assert [(c.bhg.x, c.bhg.count) for c in checks] == \
        [(None, None), (None, None), (20, 2), (20, 2), (20, 3)]
    assert prefix_fields(checks) == oracle_prefix_fields(terms, 2, 1)


def last_batch(terms, h):
    """Histogram of the sums the last term adds, and the histogram of the
    prefix before it."""
    before = multiset_sum_histogram(terms[:-1], h)
    return multiset_sum_histogram(terms, h) - before, before


@pytest.mark.parametrize("g", [1, 2, 3])
def test_one_pass_prefixes_batch_repeating_a_new_sum(g):
    # 1 + (10+35) = 1 + (20+25) = 46: the last batch holds 46 twice and hits
    # no sum of the prefix, yet at g = 1 it moves the smallest over-g sum
    # from 55 down to 46.
    terms = [10, 20, 25, 35, 1]
    batch, before = last_batch(terms, 3)
    assert batch[46] == 2 and not set(batch) & set(before)
    checks = verify_strong_prefixes(terms, 3, g)
    assert prefix_fields(checks) == oracle_prefix_fields(terms, 3, g)
    if g == 1:
        assert [(c.bhg.x, c.bhg.count) for c in checks[-2:]] == [(55, 2), (46, 2)]


@pytest.mark.parametrize("g", [1, 2, 3])
def test_one_pass_prefixes_batch_hitting_only_existing_sums(g):
    # Every sum 8 adds (8 + each term, and 16) is already a sum of the prefix.
    terms = [11, 12, 6, 9, 7, 15, 8]
    batch, before = last_batch(terms, 2)
    assert set(batch) <= set(before)
    checks = verify_strong_prefixes(terms, 2, g)
    assert prefix_fields(checks) == oracle_prefix_fields(terms, 2, g)
    if g == 1:
        assert (checks[-1].bhg.x, checks[-1].bhg.count) == (14, 2)


@pytest.mark.parametrize("h,g", [(h, g) for h in (2, 3, 4, 5) for g in (1, 2, 3)])
def test_one_pass_prefixes_match_oracle_on_arbitrary_sets(h, g):
    # h = 5 grows the fold lists four deep; its sets stay short so that the
    # oracle, which enumerates every prefix afresh, stays quick.
    rng = random.Random(100 * h + g)
    for _ in range(12):
        terms = rng.sample(range(1, rng.choice([15, 40, 300]) + 1),
                           rng.randint(1, 14 if h < 5 else 12))
        assert prefix_fields(verify_strong_prefixes(terms, h, g)) == \
            oracle_prefix_fields(terms, h, g)


@pytest.mark.parametrize("h,g", [(h, g) for h in (2, 3, 4) for g in (1, 2, 3)])
@pytest.mark.parametrize("progression", [range(1, 13), range(3, 40, 3)],
                         ids=["1..12", "3..39 step 3"])
def test_one_pass_prefixes_match_oracle_when_every_batch_collides(progression, h, g):
    # In an arithmetic progression every batch from the third term on hits a
    # sum of the prefix, so each step takes the recount branch.
    terms = list(progression)
    for n in range(3, len(terms) + 1):
        batch, before = last_batch(terms[:n], h)
        assert set(batch) & set(before)
    assert prefix_fields(verify_strong_prefixes(terms, h, g)) == \
        oracle_prefix_fields(terms, h, g)
    random.Random(10 * h + g).shuffle(terms)
    assert prefix_fields(verify_strong_prefixes(terms, h, g)) == \
        oracle_prefix_fields(terms, h, g)


@pytest.mark.parametrize("cap,h", [
    pytest.param(cap, h, id=str(cap) if h == 3 else f"{cap}-h{h}")
    for h in (3, 2, 4) for cap in (1, 9, 10, 11, 119, 120, 121, 5000)])
def test_prefix_guard_fires_at_first_prefix_over_cap(cap, h):
    terms = strong_greedy(Params(2, 1, 30)).terms
    over = [n for n in range(1, 31) if comb(n + h - 1, h) > cap]
    if not over:
        assert len(verify_strong_prefixes(terms, h, 1, max_enumeration=cap)) == 30
        return
    message = f"^enumeration of {comb(over[0] + h - 1, h)} multisets exceeds cap {cap}$"
    with pytest.raises(GuardExceeded, match=message):
        verify_strong_prefixes(terms, h, 1, max_enumeration=cap)


# ---------------------------------------------------------------------------
# term-size ceilings


def test_strong_bound_check_passes_and_reports_ratio():
    from fractions import Fraction

    rec = strong_greedy(Params(2, 1, 10))
    report = strong_bound_check(rec)
    assert report.ok
    assert report.entries[-1].term == 81
    assert report.entries[-1].ratio == Fraction(81, 2000)
    assert 0 < float(report.worst.ratio) <= 1


def test_strong_bound_check_pinpoints_failures():
    rec = SequenceRecord(Params(2, 1, 3), "strong", [1, 2, 999999], [])
    report = strong_bound_check(rec)
    assert not report.ok
    bad = report.failures()
    assert len(bad) == 1 and bad[0].n == 3 and bad[0].term == 999999


def _reference_bound_verdicts(rec, rhs_pow, g):
    """(n, term, ok, ratio) of every index from the ceiling formula itself:
    ok as Threshold.admits decides it and ratio as a normalised Fraction."""
    return [(n, t, t ** g <= rhs_pow(n), Fraction(t ** g, rhs_pow(n)))
            for n, t in enumerate(rec.terms, 1)]


def _rhs_pow(algo, h, g):
    if algo == "strong":
        return lambda n: (2 * g) ** g * n ** (h * g + h - 1)
    return lambda n: 2 * n ** (2 * h - 1)


@pytest.mark.parametrize("algo,h,g,terms", [
    *[("strong", h, g, n) for h, g, n in [(2, 1, 30), (2, 2, 20), (2, 3, 15),
                                           (3, 1, 12), (3, 2, 10), (4, 2, 6)]],
    *[("classic", h, 1, n) for h, n in [(2, 30), (3, 12), (4, 8)]],
    # a_3 over its strong ceiling 4 * 3^(5/2) = 62.35...; a_1 on its classic
    # ceiling 2 * 1^3 and a_2 over 2 * 2^3
    ("strong", 2, 2, [1, 3, 63]),
    ("classic", 2, 1, [2, 17, 4]),
])
def test_bound_report_matches_the_exact_ratios(algo, h, g, terms):
    if isinstance(terms, int):
        generate = strong_greedy if algo == "strong" else classic_greedy
        rec = generate(Params(h, g, terms))
    else:
        rec = SequenceRecord(Params(h, g, len(terms)), algo, terms, [])
    report = (strong_bound_check if algo == "strong" else classic_bound_check)(rec)
    verdicts = _reference_bound_verdicts(rec, _rhs_pow(algo, h, g), g)
    assert [(e.n, e.term, e.ok, e.ratio) for e in report.entries] == verdicts
    assert all(e.ratio == Fraction(e.term_pow, e.rhs_pow) for e in report.entries)
    assert report.ok == all(ok for _, _, ok, _ in verdicts)
    assert report.ok is isinstance(terms, int)  # the hand-built records fail
    assert [e.n for e in report.failures()] == [n for n, _, ok, _ in verdicts if not ok]
    assert report.worst is max(report.entries, key=lambda e: e.ratio)
    assert report.worst.n == max(verdicts, key=lambda v: v[3])[0]


def test_bound_report_worst_is_the_first_of_equal_ratios():
    # a_1^2 / 16 = a_4^2 / 16384 = 1/4 is the largest ratio, at n = 1 and 4
    rec = SequenceRecord(Params(2, 2, 4), "strong", [2, 3, 5, 64], [])
    report = strong_bound_check(rec)
    entries = report.entries
    assert entries[0].ratio == entries[3].ratio == Fraction(1, 4)
    assert (entries[0].term_pow, entries[0].rhs_pow) != \
        (entries[3].term_pow, entries[3].rhs_pow)
    assert report.worst is entries[0]
    rec = SequenceRecord(Params(2, 1, 3), "classic", [1, 8, 9], [])
    report = classic_bound_check(rec)
    assert report.entries[0].ratio == report.entries[1].ratio == Fraction(1, 2)
    assert report.worst is report.entries[0]


def test_classic_bound_check_examples():
    rec = classic_greedy(Params(2, 1, 10))
    report = classic_bound_check(rec)
    assert report.ok
    assert rec.terms[1] == 2 and 2 <= 2 * 2 ** 3
    assert rec.terms[9] == 81 <= 2000


def test_classic_bound_check_rejects_g_above_one():
    rec = classic_greedy(Params(2, 2, 5))
    with pytest.raises(ValueError):
        classic_bound_check(rec)


def test_bound_floor_for_first_term():
    for g in (1, 2, 3):
        assert theorem_bound(1, 2, g).floor == 2 * g


# ---------------------------------------------------------------------------
# forbidden_set_sizes


def test_forbidden_report_single_element():
    report = forbidden_set_sizes([1], 2, 1)
    assert report.members == 1
    assert report.bhg_breaks == 0
    assert report.level_breaks == (0,)
    assert report.union_size == 1
    assert report.union_ok and report.first_level_empty
    assert report.first_admissible == 2


def test_forbidden_report_pair():
    report = forbidden_set_sizes([1, 2], 2, 1)
    assert report.window_hi == 54  # floor(2 * 3^3) = 54
    assert report.members == 2
    assert report.bhg_breaks == 1  # only m = 3 (1+3 = 2+2)
    assert report.union_size == 3
    assert report.first_admissible == 4


def test_forbidden_report_window_guard():
    with pytest.raises(GuardExceeded):
        forbidden_set_sizes([1, 2, 4, 8], 2, 1, max_window=10)


def brute_forbidden_report(A, h, g):
    """Full per-candidate classification by enumeration only."""
    n = len(A)
    window_hi = theorem_bound(n + 1, h, g).floor
    base = multiset_sum_histogram(A, h)
    members = bhg = 0
    level = [0] * g
    union = 0
    first = None
    for m in range(1, window_hi + 1):
        if m in A:
            members += 1
            union += 1
            continue
        merged = base.copy()
        merged.update(added_histogram(A, m, h))
        in_f0 = any(c > g for c in merged.values())
        fails = []
        for s in range(1, g + 1):
            r_s = sum(1 for c in merged.values() if c >= s)
            if r_s ** g > (n + 1) ** (h * g + (1 - s) * (h - 1)):
                fails.append(s)
        if in_f0:
            bhg += 1
        for s in fails:
            level[s - 1] += 1
        if in_f0 or fails:
            union += 1
        elif first is None:
            first = m
    return members, bhg, tuple(level), union, first


@pytest.mark.parametrize("h,g,n", [(2, 1, 5), (2, 2, 6), (3, 2, 4), (2, 3, 6),
                                   (3, 3, 4)])
def test_forbidden_report_matches_brute_force(h, g, n):
    prefix = strong_greedy(Params(h, g, n)).terms
    report = forbidden_set_sizes(prefix, h, g)
    assert (report.members, report.bhg_breaks, report.level_breaks,
            report.union_size, report.first_admissible) == \
        brute_forbidden_report(sorted(prefix), h, g)


def window_total(h, g, n):
    """The candidates the diagnostics of an n-term set scan in all."""
    return sum(theorem_bound(k + 1, h, g).floor for k in range(2, n + 1))


def arbitrary_small_sets(count=20, wide=10, max_window=4000):
    """Seeded random (h, g, terms), B_h[g] or not: count draws with h <= 4
    and g <= 3 whose diagnostics scan at most max_window candidates in
    all, then wide draws from the same stream with h <= 5 and g <= 4 and
    twice that window, which h = 5 needs even at two terms."""
    rng = random.Random(7)
    cases = []
    while len(cases) < count + wide:
        top_h, top_g, cap = (4, 3, max_window) if len(cases) < count else \
            (5, 4, 2 * max_window)
        h, g, n = rng.randint(2, top_h), rng.randint(1, top_g), rng.randint(2, 4)
        terms = rng.sample(range(1, rng.choice([8, 20, 60]) + 1), n)
        if window_total(h, g, n) <= cap:
            cases.append((h, g, terms))
    return cases


@pytest.mark.parametrize("h,g,terms", arbitrary_small_sets())
def test_window_scan_matches_brute_force_on_arbitrary_sets(h, g, terms):
    """The collision shortcut on sets the generator never makes: every
    report, and every profile_growth and promotion_witness instance with
    each candidate sampled, against enumeration from scratch."""
    rec = SequenceRecord(Params(h, g, len(terms)), "strong", terms, [])
    diag = proof_diagnostics(rec, sample_budget=10 ** 9)
    for report in diag.reports:
        assert (report.members, report.bhg_breaks, report.level_breaks,
                report.union_size, report.first_admissible) == \
            brute_forbidden_report(sorted(terms[:report.n]), h, g)

    def level(hist, s):
        return sum(1 for c in hist.values() if c >= s)

    witnesses = Counter()
    growth = Counter()
    for inst in diag.instances:
        if inst.name not in ("profile_growth", "promotion_witness"):
            continue
        A, n, s = terms[:inst.step], inst.step, inst.s
        merged = multiset_sum_histogram(A + [inst.m], h)
        t = naive_t_count(A, inst.m, s, h)
        if inst.name == "promotion_witness":
            witnesses[n, s] += 1
            assert inst.lhs == t
            assert level(merged, s) ** g > (n + 1) ** (h * g + (1 - s) * (h - 1))
        else:
            growth[n] += 1
            assert (inst.lhs, inst.rhs) == \
                (level(merged, s), level(multiset_sum_histogram(A, h), s) + t)
    for report in diag.reports:
        n = report.n
        for s in range(2, g + 1):
            assert witnesses[n, s] == report.level_breaks[s - 1]
        assert growth[n] == (g - 1) * (report.window_hi - report.members)


def unsampled_instances(instances):
    """The instances that do not depend on the sample, in order."""
    return [i for i in instances if i.name != "profile_growth"]


@pytest.mark.parametrize("h,g,terms", arbitrary_small_sets())
def test_window_scan_runs_match_every_candidate_sampled(h, g, terms):
    """A sparse sample leaves runs of generic candidates between the stops;
    the reports and the instance list (profile_growth aside) must be those
    of a scan that visits every candidate."""
    rec = SequenceRecord(Params(h, g, len(terms)), "strong", terms, [])
    dense = proof_diagnostics(rec, sample_budget=10 ** 9)
    for budget in (1, 3, 32):
        diag = proof_diagnostics(rec, sample_budget=budget)
        assert diag.reports == dense.reports
        assert unsampled_instances(diag.instances) == \
            unsampled_instances(dense.instances)


class WithoutProfileGrowth(list):
    """An instance list that drops profile_growth, of which a scan sampling
    every candidate would otherwise keep hundreds of thousands."""

    def append(self, inst):
        if inst.name != "profile_growth":
            super().append(inst)


def test_window_scan_emits_run_witnesses_in_order():
    """At A = {1, .., 16}, (h, g) = (3, 6), the generic verdict breaks
    level 6, so each run of generic candidates emits its promotion_witness
    instances in one step.  With an empty or a sparse sample, the report
    and the instances must equal those of a scan that samples every
    candidate."""
    A, h, g = list(range(1, 17)), 3, 6
    win = theorem_bound(len(A) + 1, h, g).floor
    dense = WithoutProfileGrowth()
    expected = _scan_window(A, h, g, set(range(1, win + 1)), dense,
                            DEFAULT_MAX_WINDOW, DEFAULT_MAX_ENUMERATION)
    assert (win, expected.level_breaks[5]) == (151_592, 151_563)
    for sample in (set(), set(range(1, win + 1, 997))):
        instances = []
        report = _scan_window(A, h, g, sample, instances,
                              DEFAULT_MAX_WINDOW, DEFAULT_MAX_ENUMERATION)
        assert report == expected
        assert unsampled_instances(instances) == dense
        # A special candidate is at most max(S_h) = 48, so a witness for an
        # unsampled m above 48 was emitted for a run.
        assert any(i.m > 48 and i.m not in sample for i in instances
                   if i.name == "promotion_witness")


def diagnostics_by_both_routes(rec, budget, monkeypatch):
    """proof_diagnostics of rec by the count route and by the pair-by-pair
    merge of merged_window_scan."""
    counted = proof_diagnostics(rec, sample_budget=budget)
    with monkeypatch.context() as patch:
        patch.setattr("bhgreedy.verify._scan_window", merged_window_scan)
        merged = proof_diagnostics(rec, sample_budget=budget)
    return counted, merged


@pytest.mark.parametrize("h,g,n", [(2, 2, 25), (2, 3, 20), (3, 2, 10), (3, 3, 8),
                                   (4, 2, 6), (2, 1, 20), (3, 1, 9), (2, 2, 35),
                                   (3, 2, 13), (4, 3, 6)])
def test_count_route_matches_the_merged_scan_on_strong_runs(h, g, n, monkeypatch):
    """The hit counts per class give every report and instance that
    merging each candidate's sums pair by pair gives."""
    rec = strong_greedy(Params(h, g, n))
    for budget in (1, 32):
        counted, merged = diagnostics_by_both_routes(rec, budget, monkeypatch)
        assert counted.reports == merged.reports
        assert counted.instances == merged.instances


@pytest.mark.parametrize("seed", range(4))
def test_count_route_matches_the_merged_scan_on_arbitrary_sets(seed, monkeypatch):
    """50 seeded sets per seed, B_h[g] or not, h <= 5, g <= 4, terms up to
    50, at sample budgets 1 and 32, and with every candidate sampled
    where the windows hold at most 3000 candidates in all."""
    rng = random.Random(seed)
    done = 0
    while done < 50:
        h, g, n = rng.randint(2, 5), rng.randint(1, 4), rng.randint(2, 5)
        terms = rng.sample(range(1, rng.choice([8, 20, 50]) + 1), n)
        total = window_total(h, g, n)
        if total > 20_000:
            continue
        done += 1
        rec = SequenceRecord(Params(h, g, n), "strong", terms, [])
        for budget in (1, 32, 10 ** 9) if total <= 3000 else (1, 32):
            counted, merged = diagnostics_by_both_routes(rec, budget, monkeypatch)
            assert (counted.reports, counted.instances) == \
                (merged.reports, merged.instances), (h, g, terms, budget)


def test_scan_merges_pairs_of_different_k_on_one_sum():
    """At A = {1, 2, 4}, (h, g) = (3, 2), m = 3 reaches the level-1 sum
    8 = 2+2+4 twice: 3+1+4 (k = 1, y = 5) and 3+3+2 (k = 2, y = 2).  Each
    pair alone adds one representation and leaves 8 within g = 2; merged
    they lift it to 3, past g.  7 = 3+2+2 = 3+3+1 and 9 = 3+2+4 = 3+3+3 are
    reached twice too.  A merged sum enters level 2 and counts for t_count
    once, not once per pair: R_2 rises from 1 to 6 and t_count at s = 2 is
    6 (the sums 5 to 10), where separate pairs would read 9 and 9."""
    A, h, g = [1, 2, 4], 3, 2
    assert verify_bhg(A + [3], h, g) == (False, 6, 3)  # 6 = 1+2+3 breaks alone
    assert naive_t_count(A, 3, 2, h) == 6
    instances = []
    report = _scan_window(A, h, g, {3}, instances, DEFAULT_MAX_WINDOW,
                          DEFAULT_MAX_ENUMERATION)
    assert (report.members, report.bhg_breaks, report.level_breaks,
            report.union_size, report.first_admissible) == \
        brute_forbidden_report(A, h, g)
    assert [(i.m, i.s, i.lhs, i.rhs) for i in instances
            if i.name == "profile_growth"] == [(3, 2, 6, 1 + 6)]


def test_inequality_holds_reads_its_relation():
    """holds is lhs <= rhs or lhs > rhs, as relation says, so an equal pair
    holds only under "<=", and an unknown relation is an error.  Every
    promotion_witness a scan records reads ">": at A = {1, .., 16},
    (h, g) = (3, 6), most fail, some hold and one has lhs == rhs."""
    for lhs in (4, 5, 6):
        assert InequalityInstance("x", 1, lhs, 5).holds == (lhs <= 5)
        assert InequalityInstance("x", 1, lhs, 5, ">").holds == (lhs > 5)
    with pytest.raises(ValueError, match="^unknown relation '>='$"):
        InequalityInstance("x", 1, 5, 5, ">=").holds
    kept = []
    _scan_window(list(range(1, 17)), 3, 6, set(), kept, DEFAULT_MAX_WINDOW,
                 DEFAULT_MAX_ENUMERATION)
    witnesses = [i for i in kept if i.name == "promotion_witness"]
    assert {i.relation for i in witnesses} == {">"}
    assert all(i.holds == (i.lhs > i.rhs) for i in witnesses)
    assert Counter(i.holds for i in witnesses) == {False: 151_553, True: 10}
    assert sum(i.lhs == i.rhs for i in witnesses) == 1


def test_forbidden_set_sizes_builds_no_instance(monkeypatch):
    """forbidden_set_sizes reads only the report, so it builds none of the
    151,563 promotion_witness instances a scan keeping them makes at
    A = {1, .., 16}, (h, g) = (3, 6), and reports the same."""
    A, h, g = list(range(1, 17)), 3, 6
    kept = []
    expected = _scan_window(A, h, g, set(), kept, DEFAULT_MAX_WINDOW,
                            DEFAULT_MAX_ENUMERATION)
    assert sum(i.name == "promotion_witness" for i in kept) == 151_563

    def no_instance(*args, **kwargs):
        raise AssertionError("InequalityInstance built")

    monkeypatch.setattr("bhgreedy.verify.InequalityInstance", no_instance)
    assert forbidden_set_sizes(A, h, g) == expected


@pytest.mark.parametrize("h,g", [(2, 1), (2, 2), (3, 2)])
def test_first_admissible_is_next_greedy_term(h, g):
    rec = strong_greedy(Params(h, g, 8))
    for n in range(2, 8):
        report = forbidden_set_sizes(rec.terms[:n], h, g)
        assert report.first_admissible == rec.terms[n]


# ---------------------------------------------------------------------------
# t_count


def test_t_count_examples():
    assert t_count([1, 2], 4, 2, 2) == 0
    assert t_count([], 7, 2, 3) == 0
    # the minimal multi-hit case: A = {1, 2}, m = 3, h = 3 reaches the
    # old sums 5 and 6 (multiplicity 1 each), so t_count at level 2 is 2
    assert t_count([1, 2], 3, 2, 3) == 2


def test_t_count_rejects_low_level():
    with pytest.raises(ValueError):
        t_count([1, 2], 4, 1, 2)


@pytest.mark.parametrize("h,g,n", [(2, 2, 8), (3, 2, 6), (3, 3, 6)])
def test_t_count_matches_naive(h, g, n):
    prefix = strong_greedy(Params(h, g, n)).terms
    for m in range(1, 3 * max(prefix)):
        if m in prefix:
            continue
        for s in range(2, g + 1):
            assert t_count(prefix, m, s, h) == naive_t_count(prefix, m, s, h)


# ---------------------------------------------------------------------------
# proof_diagnostics


def test_diagnostics_all_hold_for_h2():
    rec = strong_greedy(Params(2, 2, 8))
    diag = proof_diagnostics(rec)
    assert diag.ok
    names = {i.name for i in diag.instances}
    assert {"window_union", "first_level_empty", "bhg_break_bound",
            "level_break_bound", "promotion_total",
            "profile_growth"} <= names


@pytest.mark.parametrize("h,g,n", [(2, 3, 8), (3, 3, 6)])
def test_diagnostics_desk_grid_inequalities_hold(h, g, n):
    """Across the grid, every recorded inequality except the (knowingly
    false for h = 3) profile-growth one must hold."""
    diag = proof_diagnostics(strong_greedy(Params(h, g, n)))
    assert all(c.ok for c in diag.prefix_checks)
    for inst in diag.instances:
        if h >= 3 and inst.name == "profile_growth":
            continue
        assert inst.holds, inst.describe()


def test_diagnostics_g1_has_no_level_instances():
    rec = strong_greedy(Params(2, 1, 8))
    diag = proof_diagnostics(rec)
    assert diag.ok
    names = {i.name for i in diag.instances}
    assert names == {"window_union", "first_level_empty", "bhg_break_bound"}


def test_diagnostics_reports_match_brute_force():
    rec = strong_greedy(Params(3, 2, 6))
    diag = proof_diagnostics(rec)
    assert [r.n for r in diag.reports] == [2, 3, 4, 5, 6]
    for report in diag.reports:
        assert report.window_hi == theorem_bound(report.n + 1, 3, 2).floor
        assert (report.members, report.bhg_breaks, report.level_breaks,
                report.union_size, report.first_admissible) == \
            brute_forbidden_report(sorted(rec.terms[:report.n]), 3, 2)


@pytest.mark.parametrize("budget", [0, -4])
def test_diagnostics_reject_sample_budget_below_one(budget):
    rec = strong_greedy(Params(2, 2, 6))
    with pytest.raises(ValueError, match=f"sample_budget must be >= 1, got {budget}"):
        proof_diagnostics(rec, sample_budget=budget)


def test_diagnostics_profile_growth_violation_is_reported_faithfully():
    """The literal profile-growth inequality fails for h = 3: adding m = 3
    to {1, 2} lifts x = 7 from multiplicity 0 to 2 (1+3+3 and 2+2+3), which
    the level-(s-1) filter of t_count cannot see.  The diagnostics must
    record the violation, never mask it."""
    rec = strong_greedy(Params(3, 2, 8))
    diag = proof_diagnostics(rec)
    assert not diag.ok
    failures = diag.failures()
    assert failures and all(i.name == "profile_growth" for i in failures)
    minimal = [i for i in failures if i.step == 2 and i.m == 3 and i.s == 2]
    assert len(minimal) == 1
    inst = minimal[0]
    # R_2({1,2,3}) = 3 against R_2({1,2}) + t_count = 0 + 2
    assert inst.lhs == 3 and inst.rhs == 2 and not inst.holds
    # every other recorded inequality holds on this run
    assert all(i.holds for i in diag.instances if i.name != "profile_growth")
    assert all(c.ok for c in diag.prefix_checks)


def test_diagnostics_profile_growth_rhs_uses_t_count():
    rec = strong_greedy(Params(3, 2, 5))
    diag = proof_diagnostics(rec)
    for inst in diag.instances:
        if inst.name != "profile_growth":
            continue
        prefix = rec.terms[:inst.step]
        hist = multiset_sum_histogram(prefix, 3)
        r_s = sum(1 for c in hist.values() if c >= inst.s)
        assert inst.rhs == r_s + t_count(prefix, inst.m, inst.s, 3)


def test_diagnostics_flag_corrupt_records():
    rec = SequenceRecord(Params(2, 1, 3), "strong", [1, 2, 3], [])
    diag = proof_diagnostics(rec)
    assert not diag.ok
    bad = diag.failed_prefixes()
    assert bad and bad[-1].n == 3 and not bad[-1].bhg.ok and bad[-1].bhg.x == 4


def test_diagnostics_window_guard():
    rec = strong_greedy(Params(2, 1, 12))
    with pytest.raises(GuardExceeded):
        proof_diagnostics(rec, max_window=50)


def test_inequality_instance_describe():
    rec = strong_greedy(Params(2, 1, 4))
    diag = proof_diagnostics(rec)
    line = diag.instances[0].describe()
    assert "step=2" in line and "window_union" in line and "ok" in line


# ---------------------------------------------------------------------------
# independence of the enumeration route


def test_verify_imports_nothing_of_the_generator_route():
    """verify.py may take shared arithmetic and records from greedy and the
    enumeration cap from sumrep, but no sum table or candidate classifier."""
    source = Path(__file__).resolve().parent.parent / "src" / "bhgreedy" / "verify.py"
    imported: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("bhgreedy"):
                    imported.setdefault(alias.name, set())
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.startswith("bhgreedy"):
                imported.setdefault(module.removeprefix("bhgreedy."), set()).update(
                    alias.name for alias in node.names)
    assert set(imported) <= {"errors", "greedy", "sumrep"}
    assert imported.get("greedy", set()) <= {
        "SequenceRecord", "Threshold", "_MutableRecord", "int_nth_root", "theorem_bound"}
    assert imported.get("sumrep", set()) <= {"DEFAULT_MAX_ENUMERATION"}
