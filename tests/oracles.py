"""Brute-force reference implementations used as test oracles.

Nothing here shares code with the package: histograms come from direct
multiset enumeration, threshold tests are inlined integer-power comparisons,
and the greedy loops re-derive every decision from scratch at every step.
The *_slow variants re-enumerate the whole enlarged set per candidate and
are the purest (and slowest) form, for small inputs only.

The one exception is merged_window_scan, a window scan that merges each
special candidate's sums pair by pair: the reference for the count route
of verify._scan_window.  It takes verify's records, fold histograms and
level ceilings (Threshold), and no sum table or classifier of the
generator.
"""

from collections import Counter
from itertools import combinations_with_replacement
from typing import Optional

from bhgreedy.verify import (
    ForbiddenSetReport,
    InequalityInstance,
    Threshold,
    _fold_histograms,
    _level_count,
)


def multiset_sum_histogram(A, h):
    return Counter(map(sum, combinations_with_replacement(sorted(A), h)))


def added_histogram(A, m, h):
    """Sums of size-h multisets of A + {m} that use m at least once:
    k copies of m plus a size-(h-k) multiset of A, k = 1..h."""
    out = Counter()
    elems = sorted(A)
    for k in range(1, h + 1):
        km = k * m
        for combo in combinations_with_replacement(elems, h - k):
            out[km + sum(combo)] += 1
    return out


def is_bhg(A, h, g):
    return all(c <= g for c in multiset_sum_histogram(A, h).values())


def first_failed_level(hist, n, h, g):
    """Smallest level s whose count exceeds n^(h+(1-s)(h-1)/g), or None."""
    for s in range(1, g + 1):
        r_s = sum(1 for c in hist.values() if c >= s)
        if r_s ** g > n ** (h * g + (1 - s) * (h - 1)):
            return s
    return None


def level_ok(hist, n, h, g):
    return first_failed_level(hist, n, h, g) is None


def is_strong(A, h, g):
    hist = multiset_sum_histogram(A, h)
    if any(c > g for c in hist.values()):
        return False
    return level_ok(hist, len(A), h, g)


def naive_strong_greedy(h, g, n_terms):
    """Scans from 1 at every step; one enumeration of the current set per
    step plus one added-sum enumeration per candidate."""
    terms = [1]
    while len(terms) < n_terms:
        base = multiset_sum_histogram(terms, h)
        n_next = len(terms) + 1
        m = 0
        while True:
            m += 1
            if m in terms:
                continue
            add = added_histogram(terms, m, h)
            if any(base.get(x, 0) + c > g for x, c in add.items()):
                continue
            merged = base.copy()
            merged.update(add)
            if level_ok(merged, n_next, h, g):
                terms.append(m)
                break
    return terms


def naive_strong_greedy_slow(h, g, n_terms):
    terms = [1]
    while len(terms) < n_terms:
        m = 0
        while True:
            m += 1
            if m not in terms and is_strong(terms + [m], h, g):
                terms.append(m)
                break
    return terms


def naive_classic_greedy(h, g, n_terms):
    terms = [1]
    while len(terms) < n_terms:
        base = multiset_sum_histogram(terms, h)
        m = terms[-1]
        while True:
            m += 1
            add = added_histogram(terms, m, h)
            if all(base.get(x, 0) + c <= g for x, c in add.items()):
                terms.append(m)
                break
    return terms


def naive_classic_greedy_slow(h, g, n_terms):
    terms = [1]
    while len(terms) < n_terms:
        m = terms[-1]
        while True:
            m += 1
            if is_bhg(terms + [m], h, g):
                terms.append(m)
                break
    return terms


def naive_t_count(A, m, s, h):
    """Distinct x with multiplicity >= s-1 in A reachable as k*m plus a
    (h-k)-fold sum of A."""
    hist = multiset_sum_histogram(A, h)
    xs = set()
    for k in range(1, h + 1):
        sums = {sum(c) for c in combinations_with_replacement(sorted(A), h - k)}
        for y in sums:
            x = k * m + y
            if hist.get(x, 0) >= s - 1:
                xs.add(x)
    return len(xs)


def merged_window_scan(prefix: list[int], h: int, g: int, win: int, sample: set[int],
                       instances: Optional[list[InequalityInstance]],
                       max_enumeration: int) -> ForbiddenSetReport:
    """verify._scan_window with each special candidate's sums merged pair
    by pair, the reference for its count route: the same signature,
    report and instances.

    Each candidate m is classified from brute-force fold histograms of the
    prefix: the representations it adds are the sums x = k*m + y, y an
    (h-k)-fold sum, k = 1..h.  The stops (members, special candidates and
    the sample, within the window) are visited one by one in increasing
    order; a member is never classified further.  The generic candidates
    between two stops form a run, which shares the generic verdict and is
    counted in one step.  Instances come out in increasing m all the same:
    a promotion_witness for each level-s breaker (s >= 2), whether a stop
    or in a run, profile_growth for each m in sample, one per level
    s >= 2, and then the step's window_union, first_level_empty,
    bhg_break_bound, and per level s >= 2 level_break_bound and
    promotion_total.  With instances None no instance is built.
    """
    n = len(prefix)
    members = set(prefix)
    folds = _fold_histograms(prefix, h, max_enumeration)
    hist = folds[h]
    base = [_level_count(hist, s) for s in range(g + 1)]  # base[s], base[0] unused
    thresholds = [Threshold.for_level(n + 1, h, g, s) for s in range(1, g + 1)]
    # Ceiling 2n^(h+(h-1)/g) shared by the break-count bounds.
    break_cap = Threshold(2 ** g * n ** (h * g + h - 1), g).floor

    # Candidate m adds c representations of k*m + y for each pair (k, y, c),
    # y an (h-k)-fold sum of multiplicity c.  A generic m, whose sums
    # k*m + y are pairwise distinct and outside S_h, gets one fresh sum per
    # pair, so all generic candidates share one verdict.  Only the special
    # ones, m = (x-y)/k with x in S_h and m = (y1-y2)/(k2-k1) where two
    # pairs collide, are worked out sum by sum, on the pairs involved.
    pairs = [(k, y, c) for k in range(1, h + 1) for y, c in folds[h - k].items()]
    special: dict[int, set] = {}
    for i, p in enumerate(pairs):
        k, y, _ = p
        for x in hist:
            if x > y and (x - y) % k == 0:
                special.setdefault((x - y) // k, set()).add(p)
        for q in pairs[:i]:  # pairs run in increasing k
            d = q[1] - y
            if q[0] < k and d > 0 and d % (k - q[0]) == 0:
                special.setdefault(d // (k - q[0]), set()).update((p, q))
    generic_gains = [sum(1 for *_, c in pairs if c >= s) for s in range(g + 1)]
    # Sums over g: a pair's own c > g, or a sum of A already over g, which
    # leaves A + {m} not B_h[g] whatever m is.
    over = sum(1 for *_, c in pairs if c > g) + sum(1 for c in hist.values() if c > g)

    def verdict(m: int, involved) -> tuple:
        """Swap the generic share of the involved pairs for their merged sums."""
        gains, over_left, added = generic_gains[:], over, {}
        for k, y, c in involved:
            added[k * m + y] = added.get(k * m + y, 0) + c
            over_left -= c > g
            for s in range(1, min(c, g) + 1):
                gains[s] -= 1
        breaks, t_vals = over_left > 0, [0] * (g + 1)
        for x, add in added.items():
            lo = hist.get(x, 0)
            breaks = breaks or lo + add > g
            for s in range(lo + 1, min(lo + add, g) + 1):
                gains[s] += 1
            for s in range(2, min(lo + 1, g) + 1):
                t_vals[s] += 1
        fails = [s for s in range(1, g + 1)
                 if not thresholds[s - 1].admits(base[s] + gains[s])]
        return breaks, gains, t_vals, fails

    generic = verdict(0, ())
    # Strict witness bound behind the break-count cap, per level s >= 2.
    witness_rhs = {s: Threshold(n ** ((h - 1) * g + (1 - s) * (h - 1)), g).floor
                   for s in range(2, g + 1)}
    bhg_breaks = 0
    level_breaks = [0] * (g + 1)
    union = 0
    member_count = 0
    first_admissible = None
    t_sums = [0] * (g + 1)

    def tally(first: int, count: int, v: tuple) -> None:
        """Count the count candidates first, first + 1, ..., which share
        the verdict v, with a promotion_witness per candidate and level."""
        nonlocal bhg_breaks, union, first_admissible
        breaks, _, t_vals, fails = v
        for s in range(2, g + 1):
            t_sums[s] += count * t_vals[s]
        bhg_breaks += count * breaks
        for s in fails:
            level_breaks[s] += count
        if breaks or fails:
            union += count
        elif first_admissible is None:
            first_admissible = first
        witness_levels = [s for s in fails if s >= 2]
        if witness_levels and instances is not None:
            instances.extend(InequalityInstance(
                "promotion_witness", n, lhs=t_vals[s], rhs=witness_rhs[s],
                relation=">", s=s, m=m)
                for m in range(first, first + count) for s in witness_levels)

    # A run, the generic candidates between two stops, is tallied in one step.
    stops = sorted(m for m in members.union(special, sample) if m <= win)
    prev = 0
    for m in stops + [win + 1]:
        if m > prev + 1:
            tally(prev + 1, m - prev - 1, generic)
        prev = m
        if m > win:
            break
        if m in members:
            member_count += 1
            union += 1
            continue
        v = verdict(m, special[m]) if m in special else generic
        tally(m, 1, v)
        if m in sample and instances is not None:
            _, gains, t_vals, _ = v
            for s in range(2, g + 1):
                instances.append(InequalityInstance(
                    "profile_growth", n, lhs=base[s] + gains[s],
                    rhs=base[s] + t_vals[s], s=s, m=m))

    report = ForbiddenSetReport(
        h=h, g=g, n=n, window_hi=win,
        members=member_count, bhg_breaks=bhg_breaks,
        level_breaks=tuple(level_breaks[1:]),
        union_size=union, union_cap=win - 1,
        first_admissible=first_admissible,
    )
    if instances is None:
        return report
    instances.append(InequalityInstance(
        "window_union", n, lhs=union, rhs=win - 1))
    instances.append(InequalityInstance(
        "first_level_empty", n, lhs=level_breaks[1], rhs=0))
    instances.append(InequalityInstance(
        "bhg_break_bound", n, lhs=bhg_breaks, rhs=break_cap))
    for s in range(2, g + 1):
        instances.append(InequalityInstance(
            "level_break_bound", n, lhs=level_breaks[s], rhs=break_cap, s=s))
        geometric = sum(n ** i for i in range(h))
        instances.append(InequalityInstance(
            "promotion_total", n, lhs=t_sums[s],
            rhs=geometric * base[s - 1], s=s))
    return report
