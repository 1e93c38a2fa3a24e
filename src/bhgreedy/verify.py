"""From-scratch validation of B_h[g] sequences and of the forbidden-candidate
counting that underlies the strong greedy's ceiling.

Everything here recomputes what it checks from its own inputs.  Histograms
come from explicit multiset enumeration, never from a generator's sum tables
or its candidate classifier, and every fractional-exponent comparison is
decided exactly in integer arithmetic.

One window scan classifies each candidate m in
[1, floor(2g*(n+1)^(h+(h-1)/g))] for a set A of size n:

  member          m is already in A
  bhg break       A + {m} is not a B_h[g] set
  level-s break   R_s(A + {m}) exceeds (n+1)^(h+(1-s)(h-1)/g)

The strong greedy picks the smallest candidate in none of these classes, so
the forbidden classes can never fill the window; ``forbidden_set_sizes``
reports the class sizes for one set.  Candidate m adds the sums k*m + y, y
an (h-k)-fold sum of A; when these are pairwise distinct and new to A, its
verdict depends on the fold multiplicities alone, and all such candidates
share it.  Every other verdict comes from counts, not sum by sum: for each
class (c, lo), one C-level Counter pass over the differences x//k - y//k
counts at every m the pairs of multiplicity c whose sum lands on a sum of
A of multiplicity lo, and each such hit shifts the shared verdict by a
fixed amount.  Only where pairs of different k land on one sum, at
m = (y1-y2)/(k2-k1), are their representations merged.  The scan visits
one by one only its stops (the members, the candidates where some sum
meets a sum of A or of another pair, and the sampled ones), with one dict
read per class each, and accounts for each run of generic candidates
between two stops in one step.  Its cost is mostly the Counter passes,
about |S_h| * |S_(h-1)| differences per prefix.  ``proof_diagnostics``
runs the same scan after every prefix of a run and also records, per
step, the inequality instances that make the counting argument checkable:

  window_union        union of forbidden classes  <=  window size - 1
  first_level_empty   no candidate can break level 1 (R_1 <= (n+1)^h always)
  bhg_break_bound     number of bhg breakers      <=  2n^(h+(h-1)/g)
  level_break_bound   number of level-s breakers  <=  2n^(h+(h-1)/g)
  promotion_total     sum over the window of t_count(m)
                                                  <=  (1+n+..+n^(h-1)) R_{s-1}
  promotion_witness   each level-s breaker m has t_count(m) > n^(h-1+(1-s)(h-1)/g)
  profile_growth      R_s(A + {m})  <=  R_s(A) + t_count(m)   [see below]

Here t_count(m) counts the distinct sums x that already have multiplicity
at least s-1 in A and that m can reach, i.e. x = k*m + (a (h-k)-fold sum of
A) for some k in 1..h (k = h reaches only h*m).

profile_growth is recorded in this literal form deliberately, although it is
not a theorem: one candidate can add two or more new representations to the
same x (for example A = {1, 2}, h = 3, m = 3 gives x = 7 both 1+3+3 and
2+2+3), lifting a sum from multiplicity s-2 or lower straight past s while
t_count, which only sees sums already at s-1, counts nothing.  For h = 2
one candidate adds at most one representation per sum, so there the
inequality is rigorous and every recorded instance holds.  Violations are
reported faithfully, never filtered.
"""

from collections import Counter
from functools import cache, cmp_to_key
from itertools import combinations, combinations_with_replacement, product, starmap
from math import comb
from operator import sub
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .errors import GuardExceeded
from .greedy import SequenceRecord, Threshold, _MutableRecord, theorem_bound
from .sumrep import DEFAULT_MAX_ENUMERATION

if TYPE_CHECKING:
    from fractions import Fraction

#: Cap on the size of a candidate window a single scan may classify.
DEFAULT_MAX_WINDOW = 2_000_000

#: Default stride divisor of the profile_growth sample (see proof_diagnostics).
DEFAULT_SAMPLE_BUDGET = 32


# ---------------------------------------------------------------------------
# Results


class BhgCheck(NamedTuple):
    """Outcome of a B_h[g] test: ok, or the smallest offending sum."""

    ok: bool
    x: Optional[int] = None
    count: Optional[int] = None


class PrefixCheck(NamedTuple):
    """Strong-set verdict for one prefix: the B_h[g] condition plus the
    level ceilings, both recomputed by enumeration."""

    n: int
    bhg: BhgCheck
    level_ok: bool
    failed_s: Optional[int] = None
    level_count: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.bhg.ok and self.level_ok


class BoundEntry(NamedTuple):
    """a_n against its ceiling, held as the two sides of the exact
    comparison a_n^g <= rhs_pow."""

    n: int
    term: int
    #: a_n^g, the left side of the comparison.
    term_pow: int
    #: The ceiling's g-th power, the right side.
    rhs_pow: int

    @property
    def ok(self) -> bool:
        return self.term_pow <= self.rhs_pow

    @property
    def ratio(self) -> "Fraction":
        """term_pow / rhs_pow as an exact fraction, built on each read."""
        from fractions import Fraction  # not at the top: only ratio reads it
        return Fraction(self.term_pow, self.rhs_pow)


class BoundReport(NamedTuple):
    """Per-index verdicts of a term-size ceiling, with the exact ratio of
    each term (raised to the comparison power) to the ceiling."""

    kind: str
    h: int
    g: int
    entries: list[BoundEntry]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def worst(self) -> BoundEntry:
        """The first entry of largest ratio, compared by cross-multiplying
        the two sides of each comparison."""
        return max(self.entries, key=cmp_to_key(
            lambda a, b: a.term_pow * b.rhs_pow - b.term_pow * a.rhs_pow))

    def failures(self) -> list[BoundEntry]:
        return [e for e in self.entries if not e.ok]


class ForbiddenSetReport(NamedTuple):
    """Window-scan classification of every candidate for one step.

    Counts are restricted to the scan window [1, window_hi]; window_hi is
    floor(2g*(n+1)^(h+(h-1)/g)), the ceiling the next term provably
    respects.  union_cap is window_hi - 1: when the union check holds, at
    least one admissible candidate exists in the window.
    """

    h: int
    g: int
    n: int
    window_hi: int
    members: int
    bhg_breaks: int
    level_breaks: tuple[int, ...]
    union_size: int
    union_cap: int
    first_admissible: Optional[int]

    @property
    def union_ok(self) -> bool:
        return self.union_size <= self.union_cap

    @property
    def first_level_empty(self) -> bool:
        return self.level_breaks[0] == 0


class InequalityInstance(NamedTuple):
    """One recorded inequality check: lhs <relation> rhs.

    rhs is exact for the comparison: ceilings with fractional exponents are
    compared via integer powers, and rhs stores the integer floor of the
    ceiling, which preserves the verdict for integer lhs.
    """

    name: str
    step: int
    lhs: int
    rhs: int
    relation: str = "<="
    s: Optional[int] = None
    m: Optional[int] = None

    @property
    def holds(self) -> bool:
        if self.relation == "<=":
            return self.lhs <= self.rhs
        if self.relation == ">":
            return self.lhs > self.rhs
        raise ValueError(f"unknown relation {self.relation!r}")

    def describe(self) -> str:
        tag = f" s={self.s}" if self.s is not None else ""
        tag += f" m={self.m}" if self.m is not None else ""
        verdict = "ok" if self.holds else "FAIL"
        return (f"step={self.step}{tag} {self.name}: "
                f"{self.lhs} {self.relation} {self.rhs} {verdict}")


class ProofDiagnostics(_MutableRecord):
    """Per-step inequality ledger for a generated (or supplied) sequence."""

    __slots__ = ("h", "g", "terms", "prefix_checks", "reports", "instances")

    def __init__(self, h: int, g: int, terms: list[int],
                 prefix_checks: Optional[list[PrefixCheck]] = None,
                 reports: Optional[list[ForbiddenSetReport]] = None,
                 instances: Optional[list[InequalityInstance]] = None):
        self.h = h
        self.g = g
        self.terms = terms
        self.prefix_checks = [] if prefix_checks is None else prefix_checks
        self.reports = [] if reports is None else reports
        self.instances = [] if instances is None else instances

    @property
    def ok(self) -> bool:
        return (all(c.ok for c in self.prefix_checks)
                and all(i.holds for i in self.instances))

    def failures(self) -> list[InequalityInstance]:
        return [i for i in self.instances if not i.holds]

    def failed_prefixes(self) -> list[PrefixCheck]:
        return [c for c in self.prefix_checks if not c.ok]


# ---------------------------------------------------------------------------
# Enumeration primitives (the from-scratch route)


def _checked_input(A, h: int, g: int) -> list[int]:
    if h < 2 or g < 1:
        raise ValueError(f"need h >= 2 and g >= 1, got h={h}, g={g}")
    elems = sorted(A)
    if any(a < 1 for a in elems):
        raise ValueError("elements must be positive integers")
    if len(set(elems)) != len(elems):
        raise ValueError("elements must be distinct")
    return elems


def _guard_enumeration(n: int, h: int, cap: int) -> None:
    total = comb(n + h - 1, h)
    if total > cap:
        raise GuardExceeded(
            f"enumeration of {total} multisets exceeds cap {cap}"
        )


def _fold_histograms(elems: list[int], h: int, cap: int) -> list[Counter]:
    """Multiset-sum histograms for every fold 0..h, by enumeration.  The
    h-fold count bounds every lower one, so it alone is guarded."""
    _guard_enumeration(len(elems), h, cap)
    return [Counter(map(sum, combinations_with_replacement(elems, j)))
            for j in range(h + 1)]


def _level_count(hist: Counter, s: int) -> int:
    return sum(1 for c in hist.values() if c >= s)


def _bhg_check(hist: Counter, g: int) -> BhgCheck:
    """B_h[g] verdict of an h-fold histogram: ok, or the smallest sum whose
    multiplicity exceeds g."""
    x = min((x for x, c in hist.items() if c > g), default=None)
    if x is None:
        return BhgCheck(True)
    return BhgCheck(False, x=x, count=hist[x])


# ---------------------------------------------------------------------------
# Membership and prefix checks


def verify_bhg(A, h: int, g: int, *,
               max_enumeration: int = DEFAULT_MAX_ENUMERATION) -> BhgCheck:
    """Enumerate every size-h multiset of A and report the smallest sum
    whose multiplicity exceeds g, if any.  Never touches SumTableSet."""
    elems = _checked_input(A, h, g)
    _guard_enumeration(len(elems), h, max_enumeration)
    return _bhg_check(Counter(map(sum, combinations_with_replacement(elems, h))), g)


def verify_strong_prefixes(terms, h: int, g: int, *,
                           max_enumeration: int = DEFAULT_MAX_ENUMERATION,
                           ) -> list[PrefixCheck]:
    """Check both strong-set conditions on every prefix of terms.

    Condition (i), the B_h[g] property, is checked by enumeration;
    condition (ii) compares every level count of the prefix against
    n^(h+(1-s)(h-1)/g) exactly.  Entirely independent of any generator
    state: one pass over the bare term list, in input order, keeps the fold
    lists folds[j], j = 0..h-1, holding one sum per j-multiset of the
    prefix.  Term a first grows them, j going up, by a + folds[j-1]; its
    batch of new sums is then a + folds[h-1], one per h-multiset that
    contains a, so every h-multiset of the whole list is enumerated exactly
    once.  The batch is counted in one C pass; when the histogram grows by
    the whole batch, every new sum is fresh and distinct and only enters
    level 1.  Otherwise the batch is counted again, and each distinct sum
    steps up the levels its multiplicity crossed.
    """
    terms = list(terms)
    _checked_input(terms, h, g)
    hist: Counter = Counter()
    levels = [0] * (g + 1)  # levels[s] = #{x : r(x) >= s}, s <= g
    worst = None  # smallest sum over g; counts only rise, so it only falls
    out = []
    folds = [[0]] + [[] for _ in range(h - 1)]  # folds[j]: j-fold sums
    for n, a in enumerate(terms, 1):
        _guard_enumeration(n, h, max_enumeration)
        for j in range(1, h):
            folds[j] += map(a.__add__, folds[j - 1])
        size, batch = len(hist), len(folds[h - 1])
        hist.update(map(a.__add__, folds[h - 1]))
        if len(hist) == size + batch:
            levels[1] += batch
        else:
            for x, k in Counter(map(a.__add__, folds[h - 1])).items():
                r = hist[x]
                for s in range(r - k + 1, min(r, g) + 1):
                    levels[s] += 1
                if r > g and (worst is None or x < worst):
                    worst = x
        bhg = BhgCheck(True) if worst is None else BhgCheck(False, worst, hist[worst])
        failed_s = next((s for s in range(1, g + 1) if not Threshold.for_level(
            n, h, g, s).admits(levels[s])), None)
        out.append(PrefixCheck(n, bhg, failed_s is None, failed_s,
                               None if failed_s is None else levels[failed_s]))
    return out


# ---------------------------------------------------------------------------
# Term-size ceilings


def _bound_report(kind: str, rec: SequenceRecord,
                  ceiling: Callable[[int], Threshold]) -> BoundReport:
    """Per-index verdict of a_n against the Threshold ceiling(n), kept as
    the two integers a_n^g and rhs_pow of its exact comparison."""
    entries = []
    for n, term in enumerate(rec.terms, 1):
        c = ceiling(n)
        entries.append(BoundEntry(n, term, term ** c.g, c.rhs_pow))
    return BoundReport(kind, rec.params.h, rec.params.g, entries)


def strong_bound_check(rec: SequenceRecord) -> BoundReport:
    """Exact per-index verdict of a_n <= 2g * n^(h+(h-1)/g), compared as
    a_n^g <= (2g)^g * n^(hg+h-1)."""
    h, g = rec.params.h, rec.params.g
    return _bound_report("strong-ceiling", rec, lambda n: theorem_bound(n, h, g))


def classic_bound_check(rec: SequenceRecord) -> BoundReport:
    """Per-index verdict of a_n <= 2n^(2h-1) for classic g = 1 runs.

    Only g = 1 has a proven ceiling, so other records are rejected.
    """
    h = rec.params.h
    if rec.params.g != 1:
        raise ValueError("classic ceiling is only proven for g = 1")
    return _bound_report("classic-ceiling", rec,
                         lambda n: Threshold(2 * n ** (2 * h - 1), 1))


# ---------------------------------------------------------------------------
# Window scans


def _scan_window(prefix: list[int], h: int, g: int, sample: set[int],
                 instances: Optional[list[InequalityInstance]], max_window: int,
                 max_enumeration: int) -> ForbiddenSetReport:
    """Classify every candidate in the scan window of the sorted prefix.

    Each candidate m is classified from brute-force fold histograms of the
    prefix: the representations it adds are the sums x = k*m + y, y an
    (h-k)-fold sum, k = 1..h.  Its verdict comes from a vector of counts
    (sums past g, level gains, t_count per level) packed into one int: the
    generic vector, plus for each class (c, lo) the number of pairs of
    multiplicity c whose sum lands at m on a sum of multiplicity lo, times
    the class's shift, plus a correction per sum that pairs of different k
    share at m.  One Counter per class over the differences x//k - y//k
    (x = y mod k) gives the hit counts; the pairs of pairs of different k
    give the shared sums.  Each distinct vector is settled once.

    The stops (the members, the candidates where a pair's sum meets a sum
    of A or of another pair, and the sample, within the window) are
    visited one by one in increasing order, at one dict read per class;
    a member is never classified further.  The generic candidates between
    two stops form a run, which shares the generic verdict and is counted
    in one step.  Instances come out in increasing m all the same: a
    promotion_witness for each level-s breaker (s >= 2), whether a stop
    or in a run, profile_growth for each m in sample, one per level
    s >= 2, and then the step's window_union, first_level_empty,
    bhg_break_bound, and per level s >= 2 level_break_bound and
    promotion_total.  With instances None no instance is built.  The
    window guard fires before anything is enumerated.
    """
    n = len(prefix)
    win = theorem_bound(n + 1, h, g).floor
    if win > max_window:
        raise GuardExceeded(f"scan window 1..{win} exceeds cap {max_window}")
    members = set(prefix)
    folds = _fold_histograms(prefix, h, max_enumeration)
    hist = folds[h]
    base = [_level_count(hist, s) for s in range(g + 1)]  # base[s], base[0] unused
    # How far each level s may still rise at size n + 1 (room[0] unused).
    room = [0] + [Threshold.for_level(n + 1, h, g, s).floor - base[s]
                  for s in range(1, g + 1)]
    # Ceiling 2n^(h+(h-1)/g) shared by the break-count bounds.
    break_cap = Threshold(2 ** g * n ** (h * g + h - 1), g).floor

    # A verdict vector has 2g + 1 entries: 0 counts the sums past g, s = 1..g
    # the sums that enter level s, and g + s (s >= 2) the t_count at level
    # s.  It is packed into one int, width bits an entry, so that vectors
    # add as ints; a candidate's entries count distinct sums, at most the
    # pairs (below) and the sums of A.
    width = sum(map(len, folds)).bit_length()
    mask = (1 << width) - 1

    @cache
    def effect(lo: int, add: int) -> int:
        """The vector of one sum of multiplicity lo that gains add new
        representations: 1 at 0 if it passes g, at each level s in
        lo+1..min(lo+add, g), and at g + s for each s in 2..min(lo+1, g)."""
        bits = ([lo + add > g] + [lo < s <= lo + add for s in range(1, g + 1)]
                + [1 < s <= lo + 1 for s in range(1, g + 1)])
        return sum(bit << width * i for i, bit in enumerate(bits))

    def grouped(counts: Counter, k: int) -> dict[tuple, list]:
        """The sums x of counts as x // k, by (x mod k, multiplicity)."""
        out: dict[tuple, list] = {}
        for x, c in counts.items():
            out.setdefault((x % k, c), []).append(x // k)
        return out

    # Candidate m adds c representations of k*m + y for each pair (k, y, c),
    # y an (h-k)-fold sum of multiplicity c.  A pair whose sum is new to A
    # and to the other pairs adds effect(0, c), so a generic m has the sum
    # of these over every pair, fresh.  One whose sum lands on a sum x of A
    # of multiplicity lo adds effect(lo, c) instead, whatever its k, so
    # hits[c, lo][m] counts the pairs of class (c, lo) that land at m.
    # Such an m is (x - y)/k with x = y mod k, that is x//k - y//k.
    hits: dict[tuple, Counter] = {}
    for k in range(1, h + 1):
        xs_by, ys_by = grouped(hist, k), grouped(folds[h - k], k)
        for ((r, c), ys), ((rx, lo), xs) in product(ys_by.items(), xs_by.items()):
            if r == rx:
                hits.setdefault((c, lo), Counter()).update(
                    starmap(sub, product(xs, ys)))
    # Each class's hit count times its shift moves fresh to m's vector.
    classes = [(hits[c, lo].get, effect(lo, c) - effect(0, c)) for c, lo in hits]
    # Where pairs (k1, y1, c1) and (k2, y2, c2) share a sum x, at
    # m = (y1-y2)/(k2-k1), their effects merge: shared[m, x] maps the k of
    # each pair at x to its c, and merges[m] adds, per such x,
    # effect(lo, sum of c) in place of each pair's effect(lo, c).
    shared: dict[tuple, dict] = {}
    for k1, k2 in combinations(range(1, h + 1), 2):
        for (y1, c1), (y2, c2) in product(folds[h - k1].items(), folds[h - k2].items()):
            m, rest = divmod(y1 - y2, k2 - k1)
            if m > 0 and not rest:
                shared.setdefault((m, k1 * m + y1), {}).update({k1: c1, k2: c2})
    merges: Counter = Counter()
    for (m, x), ks in shared.items():
        lo, cs = hist.get(x, 0), ks.values()
        merges[m] += effect(lo, sum(cs)) - sum(effect(lo, c) for c in cs)
    # A sum of A over g leaves A + {m} not B_h[g] whatever m is.
    fresh = (sum(effect(0, c) for k in range(1, h + 1) for c in folds[h - k].values())
             + sum(c > g for c in hist.values()))

    @cache
    def verdict(v: int) -> tuple:
        """Whether a candidate of packed vector v breaks B_h[g], the
        entries of v and the levels s whose gain passes room[s]."""
        vec = [v >> width * i & mask for i in range(2 * g + 1)]
        return vec[0] > 0, vec, [s for s in range(1, g + 1) if vec[s] > room[s]]

    generic = verdict(fresh)
    # Strict witness bound behind the break-count cap, per level s >= 2.
    witness_rhs = {s: Threshold(n ** ((h - 1) * g + (1 - s) * (h - 1)), g).floor
                   for s in range(2, g + 1)}
    level_breaks = [0] * (g + 1)
    bhg_breaks, first_admissible = 0, None
    # A member is counted in the union and classified no further.
    union = member_count = sum(1 for a in members if a <= win)
    t_sums = [0] * (g + 1)

    def tally(first: int, count: int, v: tuple) -> None:
        """Count the count candidates first, first + 1, ..., which share
        the verdict v, with a promotion_witness per candidate and level."""
        nonlocal bhg_breaks, union, first_admissible
        breaks, vec, fails = v
        for s in range(2, g + 1):
            t_sums[s] += count * vec[g + s]
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
                "promotion_witness", n, lhs=vec[g + s], rhs=witness_rhs[s],
                relation=">", s=s, m=m)
                for m in range(first, first + count) for s in witness_levels)

    # A run, the generic candidates between two stops, is tallied in one step.
    special = set(merges).union(*hits.values())
    stops = sorted(m for m in members.union(special, sample) if 0 < m <= win)
    prev = 0
    for m in stops + [win + 1]:
        if m > prev + 1:
            tally(prev + 1, m - prev - 1, generic)
        prev = m
        if m > win:
            break
        if m in members:
            continue
        v = generic if m not in special else verdict(fresh + merges[m] + sum(
            [get(m, 0) * shift for get, shift in classes]))
        tally(m, 1, v)
        if m in sample and instances is not None:
            vec = v[1]
            for s in range(2, g + 1):
                instances.append(InequalityInstance(
                    "profile_growth", n, lhs=base[s] + vec[s],
                    rhs=base[s] + vec[g + s], s=s, m=m))

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


def forbidden_set_sizes(A, h: int, g: int, *,
                        max_window: int = DEFAULT_MAX_WINDOW,
                        ) -> ForbiddenSetReport:
    """Classify every candidate in the next step's scan window.

    The classes are membership, whether A + {m} is B_h[g], and whether any
    level count of A + {m} exceeds its ceiling at size n+1.  A candidate
    can fall into several classes; union_size counts candidates in at
    least one.

    This is the enumeration scan of proof_diagnostics run on A alone, with
    no instances built and no sample, so it visits one by one only the
    members and the candidates where a pair's sum meets a sum of A or of
    another pair, each classified from its hit count per class and the
    merges of the pairs that share a sum there; the runs of generic
    candidates between them are counted in bulk.  The test suite checks
    it against a brute-force classification that rebuilds the histogram
    of A + {m} per candidate, and against a scan that merges each
    candidate's sums pair by pair.
    """
    return _scan_window(_checked_input(A, h, g), h, g, set(), None,
                        max_window, DEFAULT_MAX_ENUMERATION)


def t_count(A, m: int, s: int, h: int, *,
            max_enumeration: int = DEFAULT_MAX_ENUMERATION) -> int:
    """Distinct sums x with multiplicity >= s-1 in A that candidate m
    reaches as x = k*m + (a (h-k)-fold sum of A), k = 1..h.

    The k = h class reaches only x = h*m.  Counts distinct x, not
    (k, sum) witnesses.  Computed entirely by enumeration.
    """
    if h < 2:
        raise ValueError(f"need h >= 2, got h={h}")
    if s < 2:
        raise ValueError(f"defined for levels s >= 2, got {s}")
    elems = _checked_input(A, h, 1)
    folds = _fold_histograms(elems, h, max_enumeration)
    hist = folds[h]
    xs = set()
    for k in range(1, h + 1):
        km = k * m
        for y in folds[h - k]:
            x = km + y
            if hist.get(x, 0) >= s - 1:
                xs.add(x)
    return len(xs)


def proof_diagnostics(rec: SequenceRecord, *,
                      sample_budget: int = DEFAULT_SAMPLE_BUDGET,
                      max_window: int = DEFAULT_MAX_WINDOW,
                      max_enumeration: int = DEFAULT_MAX_ENUMERATION,
                      ) -> ProofDiagnostics:
    """Recompute, entirely by enumeration, the per-step forbidden-candidate
    counts of a run and record every checkable inequality instance.

    For each prefix A_n (n = 2 .. len(terms)) the full window
    [1, floor(2g*(n+1)^(h+(h-1)/g))] is scanned: every candidate is
    classified from brute-force fold histograms of A_n, level-s breakers
    collect their promotion_witness instances, the windowed sum of
    t_count feeds promotion_total, and profile_growth instances are
    recorded, one per level s >= 2, for a deterministic sample of
    candidates: the next accepted term and every non-member in 1, 1 + d,
    1 + 2d, ... up to the window's top, with stride
    d = max(1, window // sample_budget).  That is at most
    2 * sample_budget candidates per step, and the whole window when it
    is shorter than 2 * sample_budget.  A sample_budget below 1 is a
    ValueError.

    Prefix validity (both strong-set conditions) is checked for every
    prefix as well, so a corrupted record names its failure here.
    """
    if sample_budget < 1:
        raise ValueError(f"sample_budget must be >= 1, got {sample_budget}")
    h, g = rec.params.h, rec.params.g
    terms = list(rec.terms)
    diag = ProofDiagnostics(h, g, terms)
    diag.prefix_checks = verify_strong_prefixes(
        terms, h, g, max_enumeration=max_enumeration)

    for n in range(2, len(terms) + 1):
        win = theorem_bound(n + 1, h, g).floor
        sample = set(range(1, win + 1, max(1, win // sample_budget)))
        if n < len(terms) and terms[n] <= win:
            sample.add(terms[n])
        diag.reports.append(_scan_window(
            sorted(terms[:n]), h, g, sample, diag.instances, max_window,
            max_enumeration))
    return diag
