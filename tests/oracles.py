"""Brute-force reference implementations used as test oracles.

Nothing here shares code with the package: histograms come from direct
multiset enumeration, threshold tests are inlined integer-power comparisons,
and the greedy loops re-derive every decision from scratch at every step.
The *_slow variants re-enumerate the whole enlarged set per candidate and
are the purest (and slowest) form, for small inputs only.
"""

from collections import Counter
from itertools import combinations_with_replacement


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
