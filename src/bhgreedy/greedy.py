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
    uses as its scan ceiling, so every term it commits respects it.

Every comparison against a fractional-exponent quantity is decided exactly
by raising both sides to the g-th power in arbitrary-precision integer
arithmetic.  No floating point is used anywhere in generation.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import add, or_
from sys import maxsize
from typing import Callable, Optional

from .errors import (BhgError, GuardExceeded, ScanExceededBound,
                     ScanExceededConfiguredLimit)
from .sumrep import DEFAULT_MAX_ENTRIES, CandidateDelta, SumTableSet

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
    """Largest r with r**k <= x, in pure integer arithmetic; x may be
    negative only for k = 1, whose root is x itself."""
    if k < 1:
        raise ValueError("root order must be >= 1")
    if k == 1:
        return x
    if x < 0:
        raise ValueError("negative radicand")
    if x < 2:
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
    """The exact ceiling rhs_pow^(1/g), held as its g-th power rhs_pow.

    Every ceiling of the package has this form: the level ceilings
    n^(h+(1-s)(h-1)/g) (for_level), the term bound 2g * n^(h+(h-1)/g)
    (theorem_bound) and, with g = 1, plain integer caps.  admits decides
    value <= ceiling as value^g <= rhs_pow, so a value exactly on the
    ceiling is admitted.
    """

    rhs_pow: int
    g: int

    @classmethod
    def for_level(cls, n: int, h: int, g: int, s: int) -> "Threshold":
        """Level-s ceiling of a strong B_h[g] set of size n."""
        if not 1 <= s <= g:
            raise ValueError(f"level s must satisfy 1 <= s <= g, got s={s}, g={g}")
        return cls(n ** (h * g + (1 - s) * (h - 1)), g)

    def admits(self, value: int) -> bool:
        return value ** self.g <= self.rhs_pow

    @cached_property
    def floor(self) -> int:
        """Largest integer admitted, computed on first use."""
        return int_nth_root(self.rhs_pow, self.g)


def theorem_bound(n: int, h: int, g: int) -> Threshold:
    """The ceiling 2g * n^(h+(h-1)/g) on the n-th strong-greedy term."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Threshold((2 * g) ** g * n ** (h * g + h - 1), g)


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
    t: SumTableSet,
    m: int,
    g: int,
    base: tuple[int, ...],
    limits: Optional[list[int]] = None,
) -> tuple[Optional[int], Optional[int], tuple[int, ...], list[int]]:
    """Classify the non-member m by the representations it would add to t.

    base holds the level counts R_1..R_g of the current set.  Returns
    (x, None, (), []) for the first sum x that m pushes past g, and
    (None, s, (), []) when level s gains more than its limit (below).
    Otherwise returns (None, None, levels, sat): levels are the counts
    R_1..R_g of the enlarged set, and sat, for g > 1, lists the sums that
    m raises to exactly g, the sums it adds to Sat.  An admitted pass thus
    holds what _Scan.commit needs to add m.  The pass reads no level
    ceiling: a caller turns ceilings into limits, or levels into a
    verdict.  Without limits the pass is whole.

    limits[s] bounds the gain R_s(enlarged) - R_s of level s (limits[0] is
    unused).  The pass stops as soon as the sums m has reached so far lift
    a level past its limit, and checks every level once more at its end,
    where the fresh sums join level 1; for s >= 2 only a negative limit, a
    base already past its floor, can trip there.  Gains only rise, so with
    limits[s] = floor_s - R_s the whole pass would also reject m, for a
    level or for a B_h[g] break met later; such an exit names the level
    that tripped, not the smallest failing one.

    The pass reads the pairs (k, y, c), y a (h-k)-fold sum of multiplicity
    c, from the tables in place: m adds c representations of x = k*m + y.
    A pair raising r(x), plus what m has added to x so far, from cur to
    now enters x into levels cur+1..now.  Most sums are fresh, 0 -> 1, and
    are counted in bulk into level 1; only the others can reach g > 1, so
    sat is collected on their branch.  The k = 1 pairs come first: their
    sums m + y are distinct, so each needs r(x) alone.  The k >= 2 pairs
    follow, k by k; for each x they reach, r(x) plus what m has added so
    far is kept, the k = 1 share being the multiplicity of x - m in
    S_{h-1}.
    """
    h = t.h
    th = t.tables[h].get
    # No gain reaches sys.maxsize, which bounds the size of any container.
    lim = limits or [maxsize] * (g + 1)
    gains = [0] * (g + 1)
    sat: list[int] = []
    fresh = 0
    t1 = t.tables[h - 1]
    for y, c in t1.items():
        x = m + y
        cur = th(x, 0)
        now = cur + c
        if now > g:
            return x, None, (), []
        if now == 1:
            fresh += 1
        else:
            for s in range(cur + 1, now + 1):
                gains[s] += 1
                if gains[s] > lim[s]:
                    return None, s, (), []
            if now == g:
                sat.append(x)
    share = t1.get
    grown: dict[int, int] = {}
    for k in range(2, h + 1):
        km = k * m
        for y, c in t.tables[h - k].items():
            x = km + y
            cur = grown.get(x) or th(x, 0) + share(x - m, 0)
            now = cur + c
            if now > g:
                return x, None, (), []
            grown[x] = now
            if now == 1:
                fresh += 1
            else:
                for s in range(cur + 1, now + 1):
                    gains[s] += 1
                    if gains[s] > lim[s]:
                        return None, s, (), []
                if now == g:
                    sat.append(x)
    gains[1] += fresh
    failed = next((s for s in range(1, g + 1) if gains[s] > lim[s]), None)
    if failed is not None:
        return None, failed, (), []
    return None, None, tuple(map(add, base, gains[1:])), sat


def is_strong_candidate(
    t: SumTableSet,
    delta: CandidateDelta,
    n_next: int,
    h: int,
    g: int,
    profile: Optional[tuple[int, ...]] = None,
) -> CandidateVerdict:
    """Decide whether adding delta.m keeps t's set a strong B_h[g] set of
    size n_next.

    profile, when given, must be t.rep_histogram(g) for the current set,
    its level counts R_1..R_g; without it they are counted here.  The
    classifier pass is whole, with no limit, so a B_h[g] break is reported
    before a level failure.  Otherwise the enlarged counts are checked
    against the level ceilings at size n_next, and a level failure names
    the smallest failing level.
    """
    if profile is None:
        profile = t.rep_histogram(g)
    x, _, levels, _ = classify_candidate(t, delta.m, g, profile)
    if x is not None:
        return CandidateVerdict(False, reason="bhg", x=x)
    failed = next((s for s, r in enumerate(levels, 1)
                   if not Threshold.for_level(n_next, h, g, s).admits(r)), None)
    if failed is not None:
        return CandidateVerdict(False, reason="level", s=failed)
    return CandidateVerdict(True)


#: Largest scan slice, and the step by which the alive window grows.
_CHUNK = 1 << 16

#: Width of the first slice of a scan; each further slice doubles it, up to
#: _CHUNK.  Most scans end within a few thousand candidates of where they
#: start, and the screen of a wide slice reads wide windows of reach until
#: it has settled the slice.
_FIRST_SLICE = 1 << 10

#: Elements a the screen ORs into a slice's hits, one window of reach at
#: lo + a each, between two counts of the candidates left.
_SCREEN_BATCH = 32

#: The screen stops once at most this many live candidates of its slice
#: are left; the scan's accept test decides them.
_SCREEN_LEFT = 4

#: alive bytes (0/1) to binary digits, and back.
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


class _SidonSet:
    """The elements of the B_2[1] set of an h = 2, g = 1 scan, with the part
    of the SumTableSet surface that _Scan reads, and no sum table.

    Every pairwise sum of a B_2[1] set is distinct, so the tables of its n
    elements would hold exactly 1 + n + n(n+1)/2 entries.  add_element
    counts that closed form against the entry cap, and so stops a capped
    run at the term, and with the message, of SumTableSet; it refuses
    before anything changes.  Only a term that keeps the set B_2[1] may be
    added.
    """

    __slots__ = ("elements", "members", "max_entries")

    h = 2

    def __init__(self, max_entries: int):
        self.elements: list[int] = []
        self.members: set[int] = set()
        self.max_entries = max_entries

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, a: int) -> bool:
        return a in self.members

    def add_element(self, a: int) -> None:
        if a < 1:
            raise ValueError(f"elements must be positive, got {a}")
        n = len(self.elements) + 1
        if 1 + n + n * (n + 1) // 2 > self.max_entries:
            raise GuardExceeded(
                f"sum-table entry cap {self.max_entries} exceeded while "
                f"inserting {a}; lower n_terms or h, or raise the cap"
            )
        insort(self.elements, a)
        self.members.add(a)


class _Scan:
    """The state of the greedy scan over one growing set A: its sum tables
    t (for h = 2 and g = 1 a _SidonSet, its elements alone), the level
    counts levels, the live-candidate window alive, the saturated-sum
    bitmap ind, the bitmap reach that the screen reads, for g = 1 and
    h > 2 the fold bitmaps folds, and for h = 2 and g = 1 the difference
    bitmaps back, diffs and above.

    levels holds R_1..R_g, R_s = |{x : r(x) >= s}|, for g > 1.  Each
    commit takes the enlarged counts from the term's classifier pass,
    which accept_general reads as its base and as the start of each
    level's room below its ceiling, so the scan never recounts the h-fold
    table.  A g = 1 scan checks no level, and levels is empty.

    A B_h[g] break is permanent, because representation counts never
    decrease, so the scan never tests a candidate again once a test has
    found its break.  For g > 1 a pass that stops at a level first finds
    no break, and leaves the candidate for later steps.  The bytearray
    alive is a window over [base, base + len(alive)) holding 1
    for "not a member and not known to break B_h[g]".  The screen and the
    accept tests clear the candidates that break it, commit clears the new
    term, and the window then drops its leading zeros in place, so base is
    the smallest live candidate.  find visits only the live candidates,
    each found by a C search for the next 1.  Only a level ceiling can
    reject a candidate that a later step admits, so without level checks
    every non-member below the last term breaks B_h[g].

    Sat = {x : r(x) >= g} is the set of saturated sums.  For g > 1, ind is
    its indicator over [0, top of S_h], packed one bit per sum, plus one
    spare byte.  For g = 1 and h > 2, folds holds the supports of the
    j-fold sums as packed integers, folds[j] with bit x set for x in S_j,
    j = 0..h; Sat is S_h, that is folds[h], and ind stays empty.
    Otherwise folds is empty.  For a non-member m, m + y in Sat for some y
    in S_{h-1} is a sum with at least g + 1 representations in the set
    plus m, a B_h[g] break.  As sets, S_{h-1} = A + S_{h-2}, so that
    happens exactly when m + a is in

        E = {x >= 0 : x + z in Sat for some z in S_{h-2}}

    for some element a.  reach is E, packed one bit per sum over
    [0, top of S_h] plus one spare byte; for h = 2, S_0 = {0} and reach is
    ind itself.  The screen clears these breakers a whole slice at a time,
    so alive keeps its meaning, with one window of reach per element: n
    windows a slice, where Sat read once per y in S_{h-1} would take about
    n^(h-1)/(h-1)!.

    For h = 2 and g = 1, the Mian-Chowla case, the scan keeps no sum
    table, Sat or E.  Let M be the largest element.  A non-member m > M
    breaks B_2[1] exactly when m + a is in S_2 for some element a, since its
    other new sum, 2m, exceeds 2M, the largest sum of A.  So the scan
    keeps that set above M, next to what it takes to grow it, as three
    packed integers: back, with bit M - a - 1 for each element a < M;
    diffs, with bit b - a - 1 for elements a < b; and above, with bit i
    set iff M + 1 + i + a is in S_2 for some element a.  The next term
    above M is then M + 1 + i, i the lowest clear bit of above.  Here
    alive ends at M: it holds only the live candidates below M, which a
    greedy run never leaves and a prefix committed by hand may.
    pair_break decides these, and a term committed by hand, from the three
    integers and the elements.
    """

    __slots__ = ("t", "g", "levels", "alive", "base", "ind", "reach", "folds",
                 "back", "diffs", "above")

    def __init__(self, h: int, g: int, max_entries: int = DEFAULT_MAX_ENTRIES):
        self.t = (_SidonSet(max_entries) if h == 2 and g == 1
                  else SumTableSet(h, max_entries=max_entries))
        self.g = g
        self.levels = (0,) * g if g > 1 else ()
        self.alive, self.base = bytearray(), 1
        self.ind = self.reach = bytearray()
        self.folds = [1] + [0] * h if g == 1 and h > 2 else []
        self.back = self.diffs = self.above = 0

    def commit(self, term: int, admission: Optional[tuple] = None) -> None:
        """Add the non-member term to the set, update ind, folds, levels and
        the difference bitmaps, clear term in alive, growing the window to
        reach it, drop the window's leading zeros, and rebuild reach.

        admission is the pass of the accept test that admitted term on the
        current set, as find returns it.  Without one (the first term, a
        prefix committed by hand) term is classified here by a whole pass
        with no limit, before the tables change, so only a member or a term
        that breaks B_h[g] raises ValueError; levels may pass a ceiling.
        For h = 2 and g = 1 pair_break is that test, and the ValueError
        names the sum it finds with two representations.

        For g > 1 the pass of classify_candidate that admitted term holds
        the enlarged level counts and the sums it raised to exactly g,
        whose bits commit sets in ind.  For g = 1 and h > 2 every sum using
        term is new to S_h, and S_j becomes the union of S_j and
        term + S_{j-1}, taking j = 1..h in order so that S_{j-1} has
        already grown: one shift and OR of folds per j, with no bit set one
        at a time.

        For h = 2 and g = 1 a term t > M takes two shifts and three ORs,
        with no loop over the elements, d = t - M:

            back <- (back << d) | (1 << (d - 1)),  diffs <- diffs | back,
            above <- (above >> d) | diffs,

        the last with the grown diffs.  This is exact.  Take m > t with
        m + a = b + c, all three in the grown set.  If neither b nor c is
        t, then neither is a, as b + c - t < t, so m was above before and
        its bit moves down by d.  Otherwise say b = t: then m = t + c - a,
        which exceeds t iff a < c, that is iff c - a - 1 is a bit of the
        grown diffs, and that is the bit of m in the grown above.  The
        entries of (M, t) join alive live unless above had their bit; a
        greedy term is the lowest clear bit, so there the window stays
        empty and base becomes t + 1.  The first term, and a term below M
        committed by hand, rebuild the three from the sorted elements in
        O(n) shifts: back as the OR of its bits, diffs as the OR of
        back >> (M - b) over the elements b, and above as the OR of
        diffs << c over the elements c, shifted down by M.  A refused
        commit, by the entry cap included, changes none of them.  The cap
        counts the 1 + n + n(n+1)/2 entries that the sum tables of a B_2[1]
        set of n elements hold, with no table built (_SidonSet).

        For h > 2, reach starts from Sat and takes h - 2 rounds of
        E <- {x >= 0 : x + a in E for some a in A}, each one C-level OR of
        the packed integer shifted right by every element; after r rounds
        E holds the x with x + z in Sat for some r-fold sum z of A.
        Shifting right only drops bits, so reach sets none past the top of
        S_h.
        """
        t, g, ind, alive, folds = self.t, self.g, self.ind, self.alive, self.folds
        h = t.h
        if admission is not None:
            levels, sat = admission
        elif term in t:
            raise ValueError(f"{term} is already in the set")
        else:
            if h == 2 and g == 1:
                x, levels, sat = self.pair_break(term), (), ()
            else:
                x, _, levels, sat = classify_candidate(t, term, g, self.levels)
            if x is not None:
                raise ValueError(f"{term} breaks B_{h}[{g}]: the sum {x} would "
                                 f"have more than {g} representations")
        t.add_element(term)
        top = (h * t.elements[-1] + 7) // 8 + 1
        if h == 2 and g == 1:
            alive += self.shift_pairs(term)
        elif folds:
            for j in range(1, h + 1):
                folds[j] |= folds[j - 1] << term
            e = folds[h]
        else:
            if len(ind) < top:
                ind += bytes(top - len(ind))
            for x in sat:
                ind[x >> 3] |= 1 << (x & 7)
            if h > 2:
                e = int.from_bytes(ind, "little")
        self.levels = levels
        alive += b"\x01" * (term - self.base + 1 - len(alive))
        alive[term - self.base] = 0
        k = alive.find(1)
        k = len(alive) if k < 0 else k
        del alive[:k]
        self.base += k
        if h > 2:
            for _ in range(h - 2):
                e = reduce(or_, map(e.__rshift__, t.elements))
            self.reach = e.to_bytes(top, "little")

    def shift_pairs(self, term: int) -> bytes:
        """Update back, diffs and above, for h = 2 and g = 1, once term has
        joined the set, and return the entries of alive for (M, term], M
        the largest element before it: 1 where above did not have the bit,
        else 0.  Nothing is returned for a first term or a term below M.
        """
        elements = self.t.elements
        if len(elements) < 2 or term < elements[-1]:
            top = elements[-1]
            self.back = reduce(or_, (1 << top - a - 1 for a in elements[:-1]), 0)
            self.diffs = reduce(or_, (self.back >> top - b for b in elements))
            self.above = reduce(or_, map(self.diffs.__lshift__, elements)) >> top
            return b""
        d = term - elements[-2]
        mask = (1 << d - 1) - 1
        live = self.above & mask ^ mask
        # One step a statement, so that at most one stale copy of a bitmap,
        # as many bits as the largest term, is alive at a time.
        self.back <<= d
        self.back |= 1 << d - 1
        self.diffs |= self.back
        self.above >>= d
        self.above |= self.diffs
        if not live:
            return bytes(d)
        return bin(live | 1 << d)[:2:-1].encode().translate(_FROM_DIGITS)

    def pair_break(self, m: int) -> Optional[int]:
        """For h = 2 and g = 1: a sum with two representations in A + {m},
        for the non-member m, or None when A + {m} is B_2[1].

        A non-member m > M breaks B_2[1] exactly when bit m - M - 1 of
        above is set (see _Scan).  Any non-member m breaks it exactly when
        m + a = b + c or 2m = b + c for elements a, b, c.  In the first
        case c - a = m - b, which is not 0, so bit |m - b| - 1 of diffs is
        set; in the second, 2m - b is an element.  Conversely, that bit
        gives elements a < c with c - a = |m - b|, and then m + a = b + c
        when m > b, and m + c = b + a when m < b.  So the witness is
        m + a for the element a with m + a - b an element.  The test shifts
        diffs once per element, so for m above M it runs only once above
        has m's bit, to name the witness.
        """
        elements, members, diffs = self.t.elements, self.t.members, self.diffs
        if not elements:
            return None
        if m > elements[-1] and not self.above >> m - elements[-1] - 1 & 1:
            return None
        for b in elements:
            if 2 * m - b in members:
                return 2 * m
            if diffs >> abs(m - b) - 1 & 1:
                return m + next(a for a in elements if m + a - b in members)
        return None

    def screen(self, lo: int, hi: int) -> int:
        """Clear alive[m - base] for m in [lo, hi) with m + a in E for some
        element a; stop once at most _SCREEN_LEFT live candidates of the
        slice are left.  Returns the count done of the leading elements it
        ORed: no live candidate of the slice has m + a in E, that is m + y
        in Sat for y in a + S_{h-2}, for a in elements[:done].

        The live candidates are read once as a bitmask, bit i for m = lo + i.
        Each element a costs one slice of reach read as a little-endian
        integer and shifted to start at bit lo + a: OR-ing these gives the
        hits of the slice, in C.  Every _SCREEN_BATCH elements the screen
        counts the live candidates it has not hit.  Slices past the top of
        S_h come out short, which reads as zeros.
        """
        elements, alive, base = self.t.elements, self.alive, self.base
        n = len(elements)
        live = int(alive[lo - base:hi - base][::-1].translate(_TO_DIGITS), 2)
        nb = (hi - lo + 7) // 8 + 1
        hits = done = 0
        with memoryview(self.reach) as view:
            while done < n and (live & ~hits).bit_count() > _SCREEN_LEFT:
                for a in elements[done:done + _SCREEN_BATCH]:
                    s = lo + a
                    j = s >> 3
                    hits |= int.from_bytes(view[j:j + nb], "little") >> (s & 7)
                done = min(done + _SCREEN_BATCH, n)
        if live & hits:
            left = format(live & ~hits, f"0{hi - lo}b")[::-1]
            alive[lo - base:hi - base] = left.encode().translate(_FROM_DIGITS)
        return done

    def accept_general(self, n_next: int,
                       check_levels: bool) -> Callable[[int], Optional[tuple]]:
        """Candidate test of a step for g > 1: classify_candidate against
        the kept levels, with the level limits of a set of size n_next set
        once per step, or with no limit with check_levels off.

        The limit of level s >= 2 is its room below the ceiling,
        floor_s - R_s, and the pass stops as soon as the level gains more;
        level 1 gets none, since R_1 <= C(n+h-1, h) <= n^h.  A B_h[g] break
        marks m dead; a level rejection leaves m alive for later steps to
        test again, a B_h[g] breaker that trips a level first included.
        Both return None.  An admitted m returns its pass, which is whole,
        (levels, sat), and commit takes it over; it holds until the next
        commit.
        """
        t, g, alive, base, counts = self.t, self.g, self.alive, self.base, self.levels
        limits = ([maxsize, maxsize] + [Threshold.for_level(n_next, t.h, g, s).floor - r
                                        for s, r in enumerate(counts[1:], 2)]
                  if check_levels else None)

        def accept(m: int) -> Optional[tuple]:
            x, failed, levels, sat = classify_candidate(t, m, g, counts, limits)
            if x is not None:
                alive[m - base] = 0
            elif failed is None:
                return levels, sat
            return None

        return accept

    def accept_g1(self, done: int) -> Callable[[int], Optional[tuple]]:
        """Candidate test of a g = 1 step with h > 2 for the survivors of
        one slice, which screen has cleared of every m with m + a in E for
        a in elements[:done].  For h = 2 find needs no candidate test.

        For a nonempty B_h[1] set A, the non-member m keeps A + {m} B_h[1]
        exactly when no sum k*m + y it adds (k = 1..h, y in S_{h-k}) lies in
        S_h.  Two equal h-fold sums of A + {m}, stripped of their common
        elements, leave two disjoint j-multisets of equal sum, and A is
        B_h[1], so one of them uses m, d >= 1 times, and the other does not.
        Padding both with h - j copies of one element of A gives
        d*m + y = z with y in S_{h-d} and z in S_h.  So added sums that
        collide with each other need no test of their own.

        What is left are the k = 1 sums m + y, y in S_{h-1}, then the few
        k >= 2 sums.  With g = 1, Sat is S_h, and each y is a + z with a an
        element and z in S_{h-2}, so some m + y lies in S_h exactly when
        m + a is in E for some a.  The screen has settled that for
        elements[:done], so the resume reads m + a in reach for a in
        elements[done:] only, and that is exact.  The k >= 2 sums are C set
        lookups in S_h, one per k.  Every rejection is a B_h[1] break,
        marks m dead and returns None; an admitted m returns an empty
        pass, ((), ()), since a g = 1 scan keeps no level and commit
        derives Sat from the term.
        """
        t, alive, base, reach = self.t, self.alive, self.base, self.reach
        h = t.h
        th = t.tables[h].keys()
        rest, end = t.elements[done:], 8 * len(reach)
        parts = [(k, t.tables[h - k]) for k in range(2, h + 1)]

        def accept(m: int) -> Optional[tuple]:
            near = any(reach[x >> 3] >> (x & 7) & 1
                       for x in map(m.__add__, rest) if x < end)
            if not near and all(th.isdisjoint(map((k * m).__add__, part))
                                for k, part in parts):
                return (), ()
            alive[m - base] = 0
            return None

        return accept

    def find(self, top: int, n_next: int,
             check_levels: bool) -> Optional[tuple[int, tuple]]:
        """The smallest live candidate below top that the step's accept test
        admits, with the pass that admitted it, or None.

        The scan walks [base, top) in slices of _FIRST_SLICE candidates,
        doubling up to _CHUNK, and grows the window by _CHUNK as it goes.
        Each slice is screened first; then alive.find, a C search, steps
        from one live candidate of the slice to the next, so no Python code
        runs for a cleared entry.  The accept test may clear the entry it
        is handed, and the search resumes past it.  For g > 1
        accept_general decides every candidate the screen leaves; for g = 1
        no level is checked, and accept_g1 takes over at the count of
        elements the screen has ORed.

        For h = 2 and g = 1 no slice is screened, no candidate above M is
        tested, and classify_candidate is never called.  The live
        candidates below M, which only a prefix committed by hand leaves,
        are decided first, each by pair_break, which clears it on a break.
        Past them, a non-member m > M breaks B_2[1] exactly when its bit is
        in above (see _Scan), so the next term is M + 1 + i, i the lowest
        clear bit of above, if that is below top.  The bit is sought in the
        low _FIRST_SLICE bits of above, then in four times as many, and so on,
        since a term lies far closer to M than the top of above does.
        """
        alive, base = self.alive, self.base
        if self.t.h == 2 and self.g == 1:
            end = max(0, min(len(alive), top - base))
            i = alive.find(1, 0, end)
            while i >= 0:
                if self.pair_break(base + i) is None:
                    return base + i, ((), ())
                alive[i] = 0
                i = alive.find(1, i + 1, end)
            width = _FIRST_SLICE
            while (low := self.above & (1 << width) - 1).bit_count() == width:
                width *= 4
            m = self.t.elements[-1] + (low ^ low + 1).bit_length()
            return (m, ((), ())) if m < top else None
        general = self.accept_general(n_next, check_levels) if self.g > 1 else None
        lo, width = base, _FIRST_SLICE
        while lo < top:
            hi = min(lo + width, top)
            if base + len(alive) < hi:
                alive += b"\x01" * _CHUNK
            done = self.screen(lo, hi)
            accept = general or self.accept_g1(done)
            end = hi - base
            i = alive.find(1, lo - base, end)
            while i >= 0:
                admission = accept(base + i)
                if admission is not None:
                    return base + i, admission
                i = alive.find(1, i + 1, end)
            lo, width = hi, min(2 * width, _CHUNK)
        return None


def _greedy(
    params: Params,
    algorithm: str,
    ceiling: Callable[[int], Threshold],
    check_levels: bool,
    error: type[BhgError],
    hint: str,
    on_step: Optional[Callable[[StepMeta], None]],
    max_entries: int,
) -> SequenceRecord:
    """The scan loop shared by both generators.

    Term n is the smallest non-member in [1, ceiling(n).floor] that keeps
    the set B_h[g] and, with check_levels, within its level ceilings; if
    there is none, error is raised.  A _Scan keeps the state of the scan
    between steps, and commit takes each term find admits with its pass.
    """
    h, g = params.h, params.g
    scan = _Scan(h, g, max_entries)
    members = scan.t.elements
    rec = SequenceRecord(params, algorithm)
    meta, admission = StepMeta(1, 1, 0, ceiling(1).floor, 0.0), None
    while True:
        scan.commit(meta.term, admission)
        rec.terms.append(meta.term)
        rec.per_step.append(meta)
        if on_step is not None:
            on_step(meta)
        if meta.n == params.n_terms:
            return rec
        t0 = time.perf_counter()
        n_next = meta.n + 1
        floor = ceiling(n_next).floor
        found = scan.find(floor + 1, n_next, check_levels)
        if found is None:
            raise error(f"no admissible candidate <= {floor} for term "
                        f"{n_next} (h={h}, g={g}); {hint}")
        term, admission = found
        start = 1 if check_levels else meta.term + 1
        skipped = bisect_right(members, term) - bisect_left(members, start)
        meta = StepMeta(n_next, term, term - start + 1 - skipped, floor,
                        time.perf_counter() - t0)


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
    further.  Level ceilings are checked only for g > 1: a set of size n
    has at most C(n+h-1, h) <= n^h distinct h-fold sums, so the level-1
    ceiling never rejects.

    on_step, when given, is called with each StepMeta as it is committed.
    """
    h, g = params.h, params.g
    return _greedy(params, ALGORITHM_STRONG, lambda n: theorem_bound(n, h, g),
                   check_levels=g > 1, error=ScanExceededBound,
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

    def ceiling(n: int) -> Threshold:
        return Threshold(scan_cap if scan_cap is not None
                         else default_classic_ceiling(n, h, g), 1)

    return _greedy(params, ALGORITHM_CLASSIC, ceiling, check_levels=False,
                   error=ScanExceededConfiguredLimit,
                   hint="raise the scan cap to continue",
                   on_step=on_step, max_entries=max_entries)
