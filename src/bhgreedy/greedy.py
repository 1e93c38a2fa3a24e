"""Greedy generators for B_h[g] sequences.

A set of positive integers is B_h[g] when every integer has at most g
representations as a sum of h elements (repetition allowed, order ignored).
Two generators live here:

``classic_greedy``
    a_1 = 1; each next term is the smallest integer greater than the last
    that keeps the set B_h[g].  The output is strictly increasing.

``strong_greedy``
    a_1 = 1; each next term is the smallest positive integer, distinct from
    all previous terms, that keeps the set B_h[g] *and* keeps every level
    count R_s = |{x : r(x) >= s}| within n^(h+(1-s)(h-1)/g) for s = 1..g,
    where n is the size of the new set.  Sets maintained this way admit the
    proven per-index ceiling a_n <= 2g * n^(h+(h-1)/g), which the generator
    uses as its scan ceiling and asserts at every step.

Every comparison against a fractional-exponent quantity is decided exactly
by raising both sides to the g-th power in arbitrary-precision integer
arithmetic.  No floating point is used anywhere in generation.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Optional

from .errors import BhgError, ScanExceededBound, ScanExceededConfiguredLimit
from .sumrep import DEFAULT_MAX_ENTRIES, CandidateDelta, RepProfile, SumTableSet

ALGORITHM_CLASSIC = "classic"
ALGORITHM_STRONG = "strong"


@dataclass(frozen=True)
class Params:
    """Generation parameters: order h >= 2, multiplicity bound g >= 1, and
    the number of terms to produce."""

    h: int
    g: int
    n_terms: int

    def __post_init__(self):
        if self.h < 2:
            raise ValueError(f"h must be >= 2, got {self.h}")
        if self.g < 1:
            raise ValueError(f"g must be >= 1, got {self.g}")
        if self.n_terms < 1:
            raise ValueError(f"n_terms must be >= 1, got {self.n_terms}")


@dataclass(frozen=True)
class StepMeta:
    """Per-step generation metadata.

    scan_length is the number of non-members in [start, term] that a scan
    without a record of dead candidates would test, where start is 1 for
    strong runs with g > 1 and the previous term + 1 otherwise; it follows
    from the terms alone.  elapsed is wall-clock seconds and is excluded
    from canonical serializations.
    """

    n: int
    term: int
    scan_length: int
    bound_floor: int
    elapsed: float


@dataclass
class SequenceRecord:
    """A generated sequence with its per-step metadata, in generation order."""

    params: Params
    algorithm: str
    terms: list[int] = field(default_factory=list)
    per_step: list[StepMeta] = field(default_factory=list)

    @property
    def is_sorted(self) -> bool:
        return all(a < b for a, b in zip(self.terms, self.terms[1:]))


def int_nth_root(x: int, k: int) -> int:
    """Largest r >= 0 with r**k <= x, in pure integer arithmetic."""
    if x < 0:
        raise ValueError("negative radicand")
    if k < 1:
        raise ValueError("root order must be >= 1")
    if k == 1 or x < 2:
        return x
    # Newton iteration from an over-estimate converges down to the floor.
    r = 1 << -(-x.bit_length() // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


@dataclass(frozen=True)
class Threshold:
    """The level ceiling n^(e_num/g) with integer numerator e_num.

    For level s of a strong B_h[g] set of size n, e_num = h*g + (1-s)(h-1),
    which is always >= h + g - 1 >= 2.
    """

    n: int
    e_num: int
    g: int

    @classmethod
    def for_level(cls, n: int, h: int, g: int, s: int) -> "Threshold":
        if not 1 <= s <= g:
            raise ValueError(f"level s must satisfy 1 <= s <= g, got s={s}, g={g}")
        return cls(n, h * g + (1 - s) * (h - 1), g)

    def admits(self, count: int) -> bool:
        return count ** self.g <= self.n ** self.e_num

    @property
    def floor(self) -> int:
        """Largest integer admitted by the ceiling."""
        return int_nth_root(self.n ** self.e_num, self.g)


def threshold_leq(count: int, n: int, h: int, g: int, s: int) -> bool:
    """Exact test of count <= n^(h + (1-s)(h-1)/g).

    Raising both sides to the g-th power leaves only integer exponents:
    count^g <= n^(h*g + (1-s)(h-1)).  The comparison is inclusive, so a
    count exactly on the ceiling is admitted.
    """
    return Threshold.for_level(n, h, g, s).admits(count)


@dataclass(frozen=True)
class TheoremBound:
    """The per-index ceiling 2g * n^(h+(h-1)/g) on the n-th strong term.

    rhs_pow is the exact g-th power of the ceiling, (2g)^g * n^(hg+h-1);
    admits(value) decides value <= ceiling via value^g <= rhs_pow, and
    floor is the largest admitted integer (used as a scan ceiling).
    """

    n: int
    h: int
    g: int
    rhs_pow: int
    floor: int

    def admits(self, value: int) -> bool:
        return value ** self.g <= self.rhs_pow


def theorem_bound(n: int, h: int, g: int) -> TheoremBound:
    """Exact ceiling object for the n-th strong-greedy term."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rhs_pow = (2 * g) ** g * n ** (h * g + h - 1)
    return TheoremBound(n, h, g, rhs_pow, int_nth_root(rhs_pow, g))


@dataclass(frozen=True)
class CandidateVerdict:
    """Outcome of testing one candidate against the strong-set conditions.

    reason "bhg" means the candidate pushes some sum's multiplicity past g
    (x is a witness); reason "level" means some level count R_s would
    exceed its ceiling (s is the smallest failing level).
    """

    accepted: bool
    reason: Optional[str] = None
    s: Optional[int] = None
    x: Optional[int] = None


def classify_candidate(
    th: dict[int, int],
    added: dict[int, int],
    g: int,
    base: tuple[int, ...],
    thresholds: list[Threshold],
) -> tuple[Optional[int], tuple[int, ...]]:
    """Classify a candidate m by the representations it would add.

    th is the h-fold table of the current set, added the candidate's
    CandidateDelta.added, base the level counts R_1..R_g of the current set
    and thresholds the level ceilings at the enlarged size.  Returns the
    first sum in added that m pushes past g (None when the enlarged set
    stays B_h[g]) and the levels s, in increasing order, whose count R_s
    would exceed its ceiling.  A sum x enters level s exactly when
    r(x) < s <= r(x) + added[x].
    """
    witness = None
    gains = [0] * (g + 1)
    for x, add in added.items():
        lo = th.get(x, 0)
        if lo + add > g and witness is None:
            witness = x
        for s in range(lo + 1, min(lo + add, g) + 1):
            gains[s] += 1
    failed = tuple(s for s in range(1, g + 1)
                   if not thresholds[s - 1].admits(base[s - 1] + gains[s]))
    return witness, failed


def is_strong_candidate(
    t: SumTableSet,
    delta: CandidateDelta,
    n_next: int,
    h: int,
    g: int,
    profile: Optional[RepProfile] = None,
) -> CandidateVerdict:
    """Decide whether adding delta.m keeps t's set a strong B_h[g] set of
    size n_next.

    profile, when given, must be t.rep_histogram(g) for the current set;
    passing it avoids recomputing the histogram for every candidate of a
    scan.  A B_h[g] break is reported before a level failure.
    """
    if profile is None:
        profile = t.rep_histogram(g)
    thresholds = [Threshold.for_level(n_next, h, g, s) for s in range(1, g + 1)]
    x, failed = classify_candidate(t.tables[h], delta.added, g, profile.counts,
                                   thresholds)
    if x is not None:
        return CandidateVerdict(False, reason="bhg", x=x)
    if failed:
        return CandidateVerdict(False, reason="level", s=failed[0])
    return CandidateVerdict(True)


def _accept_g1(t: SumTableSet, alive: bytearray, base: int) -> Callable[[int], bool]:
    """Candidate test specialized to g = 1.

    In a B_h[1] set every multiset sum is unique, so every table below h
    also has all-1 counts, and a candidate is admissible iff the sums it
    creates are fresh and pairwise distinct.  The level-1 ceiling n^h can
    never reject: there are at most C(n+h-1, h) <= n^h distinct sums, so
    for g = 1 the strong rule coincides with the plain B_h condition and
    every rejection is a permanent B_h break.  A rejected m is marked dead
    by clearing alive[m - base].

    The test reads the tables in place; they do not change during a scan.
    In a scan most candidates never reach it: _screen_g1 has already
    cleared those with m + y in S_h for some y in S_{h-1}, and this test
    decides the survivors exactly.
    """
    h = t.h
    old = t.tables[h]
    lowers = [(k, t.tables[h - k]) for k in range(1, h + 1)]

    def accept(m: int) -> bool:
        seen = set()
        for k, keys in lowers:
            km = k * m
            for y in keys:
                x = km + y
                if x in old or x in seen:
                    alive[m - base] = 0
                    return False
                seen.add(x)
        return True

    return accept


def _accept_general(
    t: SumTableSet, g: int, n_next: int, check_levels: bool,
    alive: bytearray, base: int,
) -> Callable[[int], bool]:
    """Candidate test for general g, fused for the scan hot path.

    Builds the added counts with an early abort on the first sum pushed
    past g, where most rejected candidates fail; with check_levels the
    survivors then go through classify_candidate against the cached profile
    of the current set.  Behaviour is identical to candidate_delta +
    is_strong_candidate (property-tested), just without materializing a
    CandidateDelta per candidate.  The early abort is a B_h[g] break, which
    no later step can undo, so it marks m dead by clearing alive[m - base];
    a level rejection leaves m alive for later steps to test again.
    """
    h = t.h
    th = t.tables[h]
    lowers = [(k, t.tables[h - k]) for k in range(1, h + 1)]
    if check_levels:
        counts = t.rep_histogram(g).counts
        thresholds = [Threshold.for_level(n_next, h, g, s) for s in range(1, g + 1)]

    def accept(m: int) -> bool:
        added: dict[int, int] = {}
        for k, tab in lowers:
            km = k * m
            for y, c in tab.items():
                x = km + y
                nc = added.get(x, 0) + c
                if th.get(x, 0) + nc > g:
                    alive[m - base] = 0
                    return False
                added[x] = nc
        return not (check_levels and classify_candidate(th, added, g, counts, thresholds)[1])

    return accept


def _sequential_scan_length(elements: list[int], start: int, found: int) -> int:
    """Candidates a scan from start without a record of dead candidates
    tests before accepting: the non-members in [start, found]."""
    skipped = bisect_right(elements, found) - bisect_left(elements, start)
    return found - start + 1 - skipped


#: Largest scan slice, and the step by which the alive window grows.
_CHUNK = 1 << 16

#: Width of the first slice of a scan; each further slice doubles it, up to
#: _CHUNK.  Most g = 1 scans end within a few thousand candidates, and the
#: g = 1 screen costs the same for every candidate of a slice.
_FIRST_SLICE = 1 << 10


def _mark_sums(ind: bytearray, t: SumTableSet, term: int) -> None:
    """Set ind[x] for the h-fold sums x of t that use term, growing ind to
    the top of S_h.  Call it right after term joins t."""
    h = t.h
    top = h * t.elements[-1] + 1
    if len(ind) < top:
        ind += bytes(top - len(ind))
    for y in t.tables[h - 1]:
        ind[term + y] = 1


def _screen_g1(t: SumTableSet, ind: bytearray, alive: bytearray, base: int,
               lo: int, hi: int) -> None:
    """Clear alive[m - base] for every m in [lo, hi) with m + y in S_h for
    some y in S_{h-1}, where ind is the 0/1 indicator of S_h.

    For a non-member m such a sum has two representations in the set plus
    m, so the hit is a permanent B_h break.  Each y costs one slice of ind
    read as a little-endian integer, which holds byte m - lo as bit 8(m-lo):
    OR-ing these gives the hits of the whole slice, in C.  Slices past the
    top of S_h come out short, which reads as zeros.
    """
    hits = 0
    with memoryview(ind) as view:
        for y in t.tables[t.h - 1]:
            hits |= int.from_bytes(view[lo + y:hi + y], "little")
    if hits:
        block = int.from_bytes(alive[lo - base:hi - base], "little") & ~hits
        alive[lo - base:hi - base] = block.to_bytes(hi - lo, "little")


@dataclass(frozen=True)
class _ScanCap:
    """A plain scan ceiling: admits exactly the integers up to floor."""

    floor: int

    def admits(self, value: int) -> bool:
        return value <= self.floor


def _greedy(
    params: Params,
    algorithm: str,
    ceiling: Callable[[int], "TheoremBound | _ScanCap"],
    check_levels: bool,
    error: type[BhgError],
    hint: str,
    on_step: Optional[Callable[[StepMeta], None]],
    max_entries: int,
) -> SequenceRecord:
    """The scan loop shared by both generators.

    Term n is the smallest non-member in [1, ceiling(n).floor] that keeps
    the set B_h[g] and, with check_levels, within its level ceilings; if
    there is none, or ceiling(n) does not admit it, error is raised.

    A B_h[g] break is permanent, because representation counts never
    decrease, so the scan never tests such a candidate twice.  The
    bytearray alive is a window over [base, base + len(alive)) holding 1
    for "not a member and not known to break B_h[g]".  The accept closures
    clear the candidates that break it, each commit clears the new term,
    and the window then drops its leading zeros, so base is the smallest
    live candidate.  The scan walks [base, ceiling] in slices of
    _FIRST_SLICE candidates, doubling up to _CHUNK, and compress skips
    cleared entries without running Python code for them.  Only a level
    ceiling can reject a candidate that a later step admits, and for g = 1
    none rejects (see _accept_g1); so without check_levels, or with g = 1,
    every non-member below the last term is dead and base is the last
    term + 1.  scan_length counts from 1 for strong g > 1 and from the last
    term + 1 otherwise.

    For g = 1 the loop also keeps ind, the 0/1 indicator of the h-fold
    sums S_h over [0, top of S_h], set in place after each commit by
    _mark_sums; before a slice is scanned, _screen_g1 clears in alive every
    m with m + y in S_h for some y in S_{h-1}, a whole slice at a time.
    These are B_h breaks, so the map keeps its meaning, and _accept_g1
    still decides every candidate the screen leaves.
    """
    h, g = params.h, params.g
    t = SumTableSet(h, max_entries=max_entries)
    rec = SequenceRecord(params, algorithm)
    _commit(rec, t, term=1, scan_length=0, bound_floor=ceiling(1).floor,
            elapsed=0.0, on_step=on_step)
    alive, base = bytearray(), 2
    ind = bytearray()
    if g == 1:
        _mark_sums(ind, t, 1)
    while len(rec.terms) < params.n_terms:
        t0 = time.perf_counter()
        n_next = len(t) + 1
        bound = ceiling(n_next)
        if g == 1:
            accept = _accept_g1(t, alive, base)
        else:
            accept = _accept_general(t, g, n_next, check_levels, alive, base)
        found, lo, top = None, base, bound.floor + 1
        width = min(_FIRST_SLICE, _CHUNK)
        while found is None and lo < top:
            hi = min(lo + width, top)
            if base + len(alive) < hi:
                alive += b"\x01" * _CHUNK
            if g == 1:
                _screen_g1(t, ind, alive, base, lo, hi)
            found = next((m for m in compress(range(lo, hi),
                                              alive[lo - base:hi - base])
                          if accept(m)), None)
            lo, width = hi, min(2 * width, _CHUNK)
        if found is None or not bound.admits(found):
            raise error(f"no admissible candidate <= {bound.floor} for term "
                        f"{n_next} (h={h}, g={g}); {hint}")
        start = 1 if check_levels and g > 1 else rec.terms[-1] + 1
        _commit(rec, t, term=found,
                scan_length=_sequential_scan_length(t.elements, start, found),
                bound_floor=bound.floor, elapsed=time.perf_counter() - t0,
                on_step=on_step)
        if g == 1:
            _mark_sums(ind, t, found)
        alive[found - base] = 0
        live = alive.find(1)
        live = len(alive) if live < 0 else live
        del alive[:live]
        base += live
    return rec


def strong_greedy(
    params: Params,
    *,
    on_step: Optional[Callable[[StepMeta], None]] = None,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> SequenceRecord:
    """Generate the strong greedy B_h[g] sequence.

    Each step commits the smallest candidate, skipping members, that keeps
    the set strong.  The scan for the term of index n stops at
    floor(2g * n^(h+(h-1)/g)); finding no candidate there would contradict
    the proven ceiling, so it raises ScanExceededBound rather than scanning
    further.

    on_step, when given, is called with each StepMeta as it is committed.
    """
    h, g = params.h, params.g
    return _greedy(params, ALGORITHM_STRONG, lambda n: theorem_bound(n, h, g),
                   check_levels=True, error=ScanExceededBound,
                   hint="this contradicts the proven ceiling",
                   on_step=on_step, max_entries=max_entries)


def default_classic_ceiling(n: int, h: int, g: int) -> int:
    """Default scan ceiling for the n-th classic-greedy term.

    For g = 1 the next term provably lies at or below 2n^(2h-1); the +1 is
    slack only.  For g > 1 no ceiling is proven and 2g * n^(2h-1) is merely
    a configurable guard.
    """
    if g == 1:
        return 2 * n ** (2 * h - 1) + 1
    return 2 * g * n ** (2 * h - 1)


def classic_greedy(
    params: Params,
    *,
    scan_cap: Optional[int] = None,
    on_step: Optional[Callable[[StepMeta], None]] = None,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> SequenceRecord:
    """Generate the classic greedy B_h[g] sequence (strictly increasing).

    scan_cap, when given, replaces the per-step default ceiling (see
    default_classic_ceiling).  A scan that exhausts its ceiling raises
    ScanExceededConfiguredLimit; generation never loops unbounded.
    """
    h, g = params.h, params.g

    def ceiling(n: int) -> _ScanCap:
        return _ScanCap(scan_cap if scan_cap is not None
                        else default_classic_ceiling(n, h, g))

    return _greedy(params, ALGORITHM_CLASSIC, ceiling, check_levels=False,
                   error=ScanExceededConfiguredLimit,
                   hint="raise the scan cap to continue",
                   on_step=on_step, max_entries=max_entries)


def _commit(rec, t, *, term, scan_length, bound_floor, elapsed, on_step):
    t.add_element(term)
    rec.terms.append(term)
    meta = StepMeta(len(rec.terms), term, scan_length, bound_floor, elapsed)
    rec.per_step.append(meta)
    if on_step is not None:
        on_step(meta)
