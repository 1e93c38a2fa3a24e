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

import time
from bisect import bisect_left, bisect_right, insort
from functools import cache, reduce
from math import comb, isqrt
from operator import add, or_
from sys import maxsize
from typing import Callable, NamedTuple, Optional

from .errors import BhgError, ScanExceededBound, ScanExceededConfiguredLimit
from .sumrep import DEFAULT_MAX_ENTRIES, CandidateDelta, SumTableSet, entry_cap_error

ALGORITHM_CLASSIC = "classic"
ALGORITHM_STRONG = "strong"


class _ParamsFields(NamedTuple):
    """The fields of Params, which checks them on construction."""

    h: int
    g: int
    n_terms: int


class Params(_ParamsFields):
    """Generation parameters: order h >= 2, multiplicity bound g >= 1, and
    the number of terms to produce."""

    __slots__ = ()

    def __new__(cls, h: int, g: int, n_terms: int) -> "Params":
        if h < 2:
            raise ValueError(f"h must be >= 2, got {h}")
        if g < 1:
            raise ValueError(f"g must be >= 1, got {g}")
        if n_terms < 1:
            raise ValueError(f"n_terms must be >= 1, got {n_terms}")
        return tuple.__new__(cls, (h, g, n_terms))

    @classmethod
    def _make(cls, iterable) -> "Params":
        # _replace builds through _make, which would skip the checks.
        return cls(*iterable)


class StepMeta(NamedTuple):
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


class _MutableRecord:
    """Base of the mutable records, whose fields are their __slots__:
    mutable, so they have no hash; == and repr go by the fields."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, k) for k in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({args})"


class SequenceRecord(_MutableRecord):
    """A generated sequence with its per-step metadata, in generation order."""

    __slots__ = ("params", "algorithm", "terms", "per_step")

    def __init__(self, params: Params, algorithm: str,
                 terms: Optional[list[int]] = None,
                 per_step: Optional[list[StepMeta]] = None):
        self.params = params
        self.algorithm = algorithm
        self.terms = [] if terms is None else terms
        self.per_step = [] if per_step is None else per_step

    @property
    def is_sorted(self) -> bool:
        return all(a < b for a, b in zip(self.terms, self.terms[1:]))


def int_nth_root(x: int, k: int) -> int:
    """Largest r with r**k <= x, in pure integer arithmetic; x may be
    negative only for k = 1, whose root is x itself.  For k = 2 it is
    math.isqrt(x)."""
    if k < 1:
        raise ValueError("root order must be >= 1")
    if k == 1:
        return x
    if x < 0:
        raise ValueError("negative radicand")
    if k == 2:
        return isqrt(x)
    if x < 2:
        return x
    # The top bits of x give the leading bits of the root exactly, one
    # trial power per bit.  They are the whole root when it has at most
    # p = k.bit_length() bits below its top bit; otherwise, plus one unit
    # in the last of them, they over-estimate it by a factor below
    # 1 + 2^-p < 1 + 1/k.  From there Newton's iteration converges down
    # to the floor in a few steps, where one from a power of two, up to
    # twice the root, would shrink it by only about (k-1)/k a step.
    drop = max(0, (x.bit_length() - 1) // k - k.bit_length())
    top = x >> k * drop
    i = (top.bit_length() - 1) // k
    r = 1 << i
    for i in range(i - 1, -1, -1):
        if (r | 1 << i) ** k <= top:
            r |= 1 << i
    if not drop:
        return r
    # Newton starts above the root s, as (r + 1) << drop has its k-th power
    # above x.  From any integer above s the next iterate lies in
    # [s, r - 1], by AM-GM and the floors, so the loop stops exactly at s.
    r = r + 1 << drop
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            return r
        r = nr


class Threshold(NamedTuple):
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

    @property
    def floor(self) -> int:
        """Largest integer admitted, computed on each read."""
        return int_nth_root(self.rhs_pow, self.g)


def theorem_bound(n: int, h: int, g: int) -> Threshold:
    """The ceiling 2g * n^(h+(h-1)/g) on the n-th strong-greedy term."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Threshold((2 * g) ** g * n ** (h * g + h - 1), g)


class CandidateVerdict(NamedTuple):
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
    t: "SumTableSet | _SumScan",
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
    m raises to exactly g, the sums it adds to Sat.  The pass reads no
    level ceiling: a caller turns ceilings into limits, or levels into a
    verdict.  Without limits the pass is whole.  It writes nothing: it is
    the reference that is_strong_candidate runs, and _SumScan.admit makes
    the same pass and writes it through.

    limits[s] bounds the gain R_s(enlarged) - R_s of level s (limits[0] is
    unused).  The pass stops as soon as the sums m has reached so far lift
    a level past its limit, and checks every level once more at its end,
    where the fresh sums join level 1; for s >= 2 only a negative limit, a
    base already past its floor, can trip there.  Gains only rise, so with
    limits[s] = floor_s - R_s the whole pass would also reject m, for a
    level or for a B_h[g] break met later; such an exit names the level
    that tripped, not the smallest failing one.

    The pass reads the pairs (k, y, c), y a (h-k)-fold sum of multiplicity
    c, from the tables in place: m adds c representations of x = k*m + y,
    and x <= h*max(M, m), M the largest element.  It reads r(x) as
    t.tables[h][x]: a SumTableSet's Counter, or the flat array of a scan
    with no pass pending, which the caller has made cover h*max(M, m).
    A pair raising r(x), plus what m has added to x so far, from cur to
    now enters x into levels cur+1..now.  Most sums are fresh, 0 -> 1, and
    are counted in bulk into level 1; only the others can reach g > 1, so
    sat is collected on their branch.  A pair with c = 1 enters x into
    level now alone, so while that level is below its limit it raises it
    with no loop; the loop takes the rest, a trip included, so order and
    results are those of the loop.  The k = 1 pairs come first: their sums
    m + y are distinct, so each needs r(x) alone.  The k >= 2 pairs follow,
    k by k; for each x they reach, r(x) plus what m has added so far is
    kept, the k = 1 share being the multiplicity of x - m in S_{h-1}.
    """
    h = t.h
    th = t.tables[h]
    # No gain reaches sys.maxsize, which bounds the size of any container.
    lim = limits or [maxsize] * (g + 1)
    gains = [0] * (g + 1)
    sat: list[int] = []
    fresh = 0
    t1 = t.tables[h - 1]
    for y, c in t1.items():
        x = m + y
        cur = th[x]
        now = cur + c
        if now > g:
            return x, None, (), []
        if now == 1:
            fresh += 1
        elif c == 1 and gains[now] < lim[now]:
            gains[now] += 1
            if now == g:
                sat.append(x)
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
            cur = grown.get(x) or th[x] + share(x - m, 0)
            now = cur + c
            if now > g:
                return x, None, (), []
            grown[x] = now
            if now == 1:
                fresh += 1
            elif c == 1 and gains[now] < lim[now]:
                gains[now] += 1
                if now == g:
                    sat.append(x)
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


#: Largest slice of a g > 1 scan.  The screen of a slice reads one window
#: of reach per element as wide as the slice, all of it, past the term the
#: scan finds there too, so a scan that walks far would screen ever more
#: candidates no step needs if the slices kept doubling (ROADMAP item 5).
_CHUNK = 1 << 16

#: Width of the first slice of a g > 1 scan; each further slice doubles it,
#: up to _CHUNK.  Most scans end within a few thousand candidates of where
#: they start.  A g = 1 scan reads its matrix above the top term in windows
#: of this width, then four times as many, and so on, with no cap: a window
#: masks its row from bit 0, so it costs time in proportion to its top, and
#: fewer, wider windows cost less.
_FIRST_SLICE = 1 << 10


class _SumScan:
    """The state of the greedy scan for g > 1 over one growing set A: its
    sorted elements, its sum tables, the level counts levels, the packed
    integer dead and the bitmaps ind and reach.  check_levels is the run's
    rule: with it, each find admits only a term that keeps every level
    within its ceiling at the set's next size.

    tables[j], j < h, maps each j-fold sum of A to its multiplicity, as in
    SumTableSet; tables[h] holds r(x) at index x, a flat array that is 0
    wherever x is no h-fold sum.  A scan keeps no B_h[g] breaker, so every
    r(x) is at most g: a bytearray holds it for g <= 255, and a list of
    exact integers for a larger g.  levels[0], R_1 below, counts the sums
    with r(x) > 0, so entry_count is that of a SumTableSet of the same
    set, and the entry cap trips at the same term, with the same message.

    admit, classify_candidate's pass written through to the array, is the
    only writer of r(x).  A pass it admits stays pending, as its candidate
    m, until join commits it or the next pass rolls it back; pending is 0
    when no pass is.  tripped records that a pass has stopped at a level
    limit.  admit grows the array by doubling to more than h*m slots, for
    the largest element or candidate m read so far, never for a scan's
    ceiling.

    A B_h[g] break is permanent, because representation counts never
    decrease, so the scan never tests a candidate again once a test has
    found its break; a pass that stops at a level first finds no break,
    and leaves the candidate for later steps.  Bit m of dead is set when m
    is 0, a member, or a candidate a test found to break B_h[g]; every
    other m, the bits above its top included, is live.  The tests set the
    bits of the candidates that break it and grow sets the new term's,
    so find starts at the lowest clear bit and visits only live
    candidates.

    levels holds R_1..R_g, R_s = |{x : r(x) >= s}|, taken at each join
    from the term's classifier pass, so the scan never recounts the h-fold
    table.  ind is the indicator of the saturated sums Sat = {x : r(x) >= g}
    over [0, top of S_h], one bit per sum, plus one spare byte.  A
    non-member m with m + y in Sat for some y in S_{h-1} breaks B_h[g].  As
    S_{h-1} = A + S_{h-2}, that happens exactly when m + a is in
    E = {x >= 0 : x + z in Sat for some z in S_{h-2}} for some element a.
    reach is E from the scan's base up, packed like ind from byte base/8 on
    (for h = 2, Sat from the base up), so base = 8*(len(ind) - len(reach)):
    the lowest clear bit of dead at the last grow, rounded down to a
    multiple of 8.  dead only gains bits, so no find screens below it.  The
    screen marks all these breakers dead a whole slice at a time with one
    window of reach per element: n windows a slice, where Sat read once
    per y in S_{h-1} would take about n^(h-1)/(h-1)!.  The classifier thus
    sees only candidates that this rule cannot decide.
    """

    __slots__ = ("h", "g", "tables", "elements", "max_entries", "pending", "tripped",
                 "check_levels", "levels", "dead", "ind", "reach")

    def __init__(self, h: int, g: int, max_entries: int = DEFAULT_MAX_ENTRIES,
                 check_levels: bool = False):
        self.h = h
        self.g = g
        self.tables = [{0: 1}, *({} for _ in range(h - 1)),
                       bytearray() if g <= 255 else []]
        self.elements: list[int] = []
        self.max_entries = max_entries
        self.pending = 0
        self.tripped = False
        self.check_levels = check_levels
        self.levels = (0,) * g
        self.dead = 1
        self.ind, self.reach = bytearray(), bytearray()

    def entry_count(self) -> int:
        return self.levels[0] + sum(map(len, self.tables[:-1]))

    def admit(
        self, m: int, limits: Optional[list[int]] = None,
    ) -> tuple[Optional[int], Optional[int], tuple[int, ...], list[int]]:
        """classify_candidate(self, m, g, levels, limits) for the non-member
        m >= 1, with its pair order, limits, one-level branch, early exits
        and result, that also writes r(x) plus what m has added so far into
        the array as it goes.  So a k >= 2 pair reads what the pairs before
        it added to x there, and the pass keeps no record of its own.

        It first rolls back the pending pass, if any, and grows the array
        to hold r(x) for every x <= h*m.  A pass that meets a break or a
        level limit subtracts what it wrote, and leaves the array as it
        was; one that admits m stays pending, as m.  A pair is written
        after its checks, so the pair a pass stops at is never written.

        The writes pay for a pass that admits m, which then needs no
        second walk, and cost little for one that stops at a break, a few
        percent into the walk.  A pass that stops at a level has walked a
        fifth to three fifths of its pairs (strong (2,3,300) and
        (3,2,120)), and undoing that costs more than the writes save.  So
        once a pass has stopped at a level, tripped is set, and every
        later pass with limits classifies m read-only by
        classify_candidate; only an m it admits is walked again, to add
        its pairs to the array, and left pending.
        """
        if self.pending:
            self.rollback()
        h, g, base, tables = self.h, self.g, self.levels, self.tables
        rep = tables[h]
        short = h * m + 1 - len(rep)
        if short > 0:
            rep.extend(bytes(max(short, len(rep))))
        if limits and self.tripped:
            x, s, _, _ = verdict = classify_candidate(self, m, g, base, limits)
            if x is None and s is None:
                self._replay(m, h, None, 1)
                self.pending = m
            return verdict
        # No gain reaches sys.maxsize, which bounds the size of any container.
        lim = limits or [maxsize] * (g + 1)
        gains = [0] * (g + 1)
        sat: list[int] = []
        fresh = 0
        for k in range(1, h + 1):
            km = k * m
            for y, c in tables[h - k].items():
                x = km + y
                cur = rep[x]
                now = cur + c
                if now > g:
                    self._replay(m, k, y)
                    return x, None, (), []
                if now == 1:
                    fresh += 1
                elif c == 1 and gains[now] < lim[now]:
                    gains[now] += 1
                    if now == g:
                        sat.append(x)
                else:
                    for s in range(cur + 1, now + 1):
                        gains[s] += 1
                        if gains[s] > lim[s]:
                            self._replay(m, k, y)
                            self.tripped = True
                            return None, s, (), []
                    if now == g:
                        sat.append(x)
                rep[x] = now
        gains[1] += fresh
        failed = next((s for s in range(1, g + 1) if gains[s] > lim[s]), None)
        if failed is not None:
            self._replay(m, h)
            self.tripped = True
            return None, failed, (), []
        self.pending = m
        return None, None, tuple(map(add, base, gains[1:])), sat

    def _replay(self, m: int, last: int, stop: Optional[int] = None,
                sign: int = -1) -> None:
        """Add sign*c to r(x) for the pairs (k, y, c) of the pass for m, in
        its order, up to the pair (last, stop), or through every pair of
        k = last when stop is None: with sign -1, undo what a pass that
        stopped at (last, stop), which it did not write, wrote."""
        h, tables = self.h, self.tables
        rep = tables[h]
        for k in range(1, last + 1):
            km = k * m
            for y, c in tables[h - k].items():
                if k == last and y == stop:
                    return
                rep[km + y] += sign * c

    def rollback(self) -> None:
        """Undo the pending pass, if any."""
        m = self.pending
        if m:
            self.pending = 0
            self._replay(m, self.h)

    def join(self, term: int, admission: Optional[tuple] = None) -> tuple:
        """Add the non-member term to the tables and elements, and return
        the pass that grow takes.

        admission is the pass that admitted term on the current set, as
        find returns it: the enlarged level counts and the sums it raised
        to exactly g.  Its writes to the array are still pending, so join
        takes its levels, R_1 among them, and folds only the tables below
        h, j downward, as SumTableSet.add_element does.  Without one (the
        first term, a prefix committed by hand), or when the pending pass
        is another candidate's, that pass is rolled back and term checked
        here, before anything else changes, by a whole pass with no limit:
        a term below 1, a member or a B_h[g] breaker raises ValueError, the
        last naming a sum term would push past g; levels may pass a
        ceiling.  A refused join changes nothing but the length of the
        array of r(x) and a pending pass.  Past the entry cap it raises
        GuardExceeded, with the tables, levels and pending part-updated,
        and nothing else changed.  Until grow has run, the scan serves no
        find or further join.
        """
        h, g, tables = self.h, self.g, self.tables
        if term < 1:
            raise ValueError(f"elements must be positive, got {term}")
        if admission is None or self.pending != term:
            if term in tables[1]:
                raise ValueError(f"{term} is already in the set")
            x, _, levels, sat = self.admit(term)
            if x is not None:
                raise ValueError(f"{term} breaks B_{h}[{g}]: the sum {x} would "
                                 f"have more than {g} representations")
            admission = levels, sat
        self.pending = 0
        self.levels = admission[0]
        for j in range(h - 1, 0, -1):
            tj = tables[j]
            for k in range(1, j + 1):
                ka = k * term
                for y, c in tables[j - k].items():
                    x = y + ka
                    tj[x] = tj.get(x, 0) + c
        if self.entry_count() > self.max_entries:
            raise entry_cap_error(self.max_entries, term)
        insort(self.elements, term)
        return admission

    def grow(self, term: int, admission: tuple) -> None:
        """Update what only find reads for the term join has just added
        with its pass admission: the bits of the sums it raised to g in
        ind, the bit of term in dead, and reach.

        reach starts from Sat above base and takes h - 2 rounds (none for
        h = 2) of E <- {x >= base : x + a in E for some a in A}, each one
        C-level OR of the packed integer shifted right by every element.  A
        round reads only bits at or above those it sets, so E is exact from
        base up, and sets none past the top of S_h.
        """
        h, ind = self.h, self.ind
        top = (h * self.elements[-1] + 7) // 8 + 1
        if len(ind) < top:
            ind += bytes(top - len(ind))
        for x in admission[1]:
            ind[x >> 3] |= 1 << (x & 7)
        dead = self.dead = self.dead | 1 << term
        base = ((~dead & dead + 1).bit_length() - 1) >> 3
        e = int.from_bytes(ind, "little") >> 8 * base
        for _ in range(h - 2):
            e = reduce(or_, map(e.__rshift__, self.elements))
        self.reach = e.to_bytes(top - base, "little")

    def screen(self, lo: int, hi: int) -> int:
        """Set the bit in dead of each live m in [lo, hi) with m + a in E
        for some element a, and return the live candidates it leaves; lo is
        at least the scan's base.

        The live candidates are read once as a bitmask, bit i for m = lo + i;
        a slice with none returns at once.  Each element a costs one slice
        of reach read as a little-endian integer and shifted to start at bit
        lo - base + a: OR-ing these gives the hits of the slice, in C.
        Slices past the top of S_h come out short, which reads as zeros.
        """
        mask = (1 << hi - lo) - 1
        live = (self.dead >> lo & mask) ^ mask
        if not live:
            return 0
        nb = (hi - lo + 7) // 8 + 1
        hits = 0
        at = lo - 8 * (len(self.ind) - len(self.reach))
        with memoryview(self.reach) as view:
            for a in self.elements:
                s = at + a
                j = s >> 3
                hits |= int.from_bytes(view[j:j + nb], "little") >> (s & 7)
        self.dead |= (live & hits) << lo
        return live & ~hits

    def accept_general(self) -> Callable[[int], Optional[tuple]]:
        """Candidate test of a step: the pass of admit against the kept
        levels, with the level limits of a set of the next size,
        len(elements) + 1, set once per step, or with no limit with
        check_levels off.

        The limit of level s >= 2 is its room below the ceiling,
        floor_s - R_s, and the pass stops as soon as the level gains more;
        level 1 gets none, since R_1 <= C(n+h-1, h) <= n^h.  A B_h[g] break
        sets the bit of m in dead; a level rejection leaves m live for later
        steps to test again, a B_h[g] breaker that trips a level first
        included.  Both return None.  An admitted m returns its pass, which
        is whole, (levels, sat), and join takes it over, with its writes;
        it holds until the next pass or join.
        """
        n_next = len(self.elements) + 1
        limits = ([maxsize, maxsize] + [Threshold.for_level(n_next, self.h, self.g, s).floor - r
                                        for s, r in enumerate(self.levels[1:], 2)]
                  if self.check_levels else None)
        admit = self.admit

        def accept(m: int) -> Optional[tuple]:
            x, failed, levels, sat = admit(m, limits)
            if x is not None:
                self.dead |= 1 << m
            elif failed is None:
                return levels, sat
            return None

        return accept

    def find(self, top: int) -> Optional[tuple[int, tuple]]:
        """The smallest live candidate below top that the step's test
        admits, with the pass that admitted it, or None.

        The scan walks from the lowest clear bit of dead up to top in
        slices of _FIRST_SLICE candidates, doubling up to _CHUNK.  Each
        slice is screened whole first, which clears every breaker E shows;
        then the live candidates the screen leaves are taken lowest first,
        as free & -free, so no Python code runs for a dead candidate.
        accept_general decides each, and may mark it dead.
        """
        accept = self.accept_general()
        dead = self.dead
        lo, width = (~dead & dead + 1).bit_length() - 1, _FIRST_SLICE
        while lo < top:
            hi = min(lo + width, top)
            free = self.screen(lo, hi)
            while free:
                low = free & -free
                free ^= low
                m = lo + low.bit_length() - 1
                admission = accept(m)
                if admission is not None:
                    return m, admission
            lo, width = hi, min(2 * width, _CHUNK)
        return None


@cache
def _grow_plan(h: int) -> tuple[tuple[int, Optional[int], int], ...]:
    """The steps of _SidonScan.grow, entry by entry with i and j upward:
    (e, None, c) shifts diffs[e] by c*(t - M), and (e, s, c) ORs into it
    diffs[s] shifted by c*t, c > 0 to the left and c < 0 to the right.
    D_{0,0} and column 0 of the cut rows take no step, and no shift is by
    0."""
    plan = []
    for i in range(h + 1):
        first = 1 if i >= h - 1 else 0
        for j in range(first, h):
            e = i * h + j
            offset = j - i if first else j
            if offset:
                plan.append((e, None, offset))
            if j > first:
                plan.append((e, e - 1, 0))
            if i:
                plan.append((e, e - h, 1 if i < h - 1 else 2 - h if i < h else 0))
    return tuple(plan)


class _SidonScan:
    """The state of the greedy scan for g = 1 over one growing B_h[1] set A:
    its elements in increasing order and the difference matrix diffs, with
    no sum table, level, Sat or E.

    A greedy g = 1 run commits its terms in increasing order: every
    non-member below the largest element M of a greedy prefix breaks
    B_h[1], so the scan tests only candidates above M, and join refuses
    any other term.  Two equal h-fold sums of A + {m}, A a nonempty B_h[1]
    set, stripped of their common elements, leave two disjoint j-multisets
    of equal sum, one using m, d >= 1 times, and one not; padded with
    h - j copies of one element they give d*m + y = z, y in S_{h-d} and z
    in S_h, and conversely such y and z give two sums.  So the non-member
    m breaks B_h[1] exactly when k*m is in D_{h,h-k} = S_h - S_{h-k} for
    some k = 1..h, and m > M, as h*m exceeds every sum of A, for some
    k < h.

    diffs[i*h + j] holds D_{i,j} = S_i - S_j, i = 0..h, j = 0..h-1,
    S_0 = {0}, as one packed integer.  A row i < h - 1 is whole: it keeps
    every value v at bit v + j*M, so its column 0 is S_i.  Rows h - 1 and
    h are cut: they keep only the values v >= (i - j)*M, at bit
    v - (i - j)*M, and their column 0 keeps nothing.  A later read reaches
    them only through D_{h,h-k} at k*m > k*M, and grow shows that no value
    they drop could lead there.  So bit i of D_{h,h-1} is the k = 1 test
    of M + i, and bit k*i of D_{h,h-k} its test for k.  The matrix holds
    w_h*M bits, w_h = 3, 15, 42 and 90 for h = 2..5.

    Two equal j-fold sums of a B_h[1] set, j <= h, padded with h - j copies
    of one element, would be two equal h-fold sums, so its n elements have
    exactly C(n+j-1, j) distinct j-fold sums, and its tables would hold
    the sum of these over j = 0..h, C(n+h, h) entries.  join counts that
    closed form against the entry cap, and so stops a capped run at the
    term, and with the message, of SumTableSet.
    """

    __slots__ = ("h", "elements", "max_entries", "diffs")

    def __init__(self, h: int, max_entries: int = DEFAULT_MAX_ENTRIES):
        self.h = h
        self.elements: list[int] = []
        self.max_entries = max_entries
        self.diffs = [1] + [0] * (h * (h + 1) - 1)

    def join(self, term: int, admission: Optional[tuple] = None) -> int:
        """Add term, above the largest element M, to the elements, and
        return M, or 0 for the first term, which grow takes.

        admission is the empty pass ((), ()) that find returns with each
        term it admits.  Without one (the first term, a prefix committed by
        hand) term is checked here, before anything changes: a term at or
        below M, a member included, or a B_h[1] breaker raises ValueError,
        the latter naming the sum that breaks finds.  A refused join, by
        the entry cap included, changes nothing.  Until grow has run, the
        scan serves no find or further join.
        """
        h, elements = self.h, self.elements
        last = elements[-1] if elements else 0
        if admission is None and elements:
            if term <= last:
                raise ValueError(f"{term} is not above the largest element {last}")
            x = self.breaks(term)
            if x is not None:
                raise ValueError(f"{term} breaks B_{h}[1]: the sum {x} would "
                                 f"have more than 1 representations")
        if term < 1:
            raise ValueError(f"elements must be positive, got {term}")
        if comb(len(elements) + 1 + h, h) > self.max_entries:
            raise entry_cap_error(self.max_entries, term)
        elements.append(term)
        return last

    def breaks(self, m: int) -> Optional[int]:
        """A sum with two representations in A + {m}, for m > M, or None
        when A + {m} is B_h[1].  The witness is k*m + y for the least k
        with k*m in D_{h,h-k} and the least y in S_{h-k} with the sum in
        S_h.  S_{h-1} and S_h are not kept, so only a breaker builds them,
        each from the fold below it by one shift per element.
        """
        h, diffs, elements = self.h, self.diffs, self.elements
        i = m - elements[-1]
        k = next((k for k in range(1, h) if diffs[h * h + h - k] >> k * i & 1), None)
        if k is None:
            return None
        folds = [diffs[j * h] for j in range(h - 1)]
        for _ in range(2):
            folds.append(reduce(or_, map(folds[-1].__lshift__, elements)))
        y = folds[h] >> k * m & folds[h - k]
        return k * m + (y & -y).bit_length() - 1

    def find(self, top: int) -> Optional[tuple[int, tuple]]:
        """The smallest m above M and below top that keeps the set B_h[1],
        with the empty pass ((), ()), or None.

        m is M + i for the lowest clear bit i >= 1 of D_{h,h-1} with bit
        k*i clear in D_{h,h-k} for k = 2..h-1.  The bits are read in a
        window of _FIRST_SLICE bits, then four times as many, and so on,
        as a term lies far closer to M than the top of the matrix does; a
        mask cuts each window, so no entry is copied.
        """
        h, last = self.h, self.elements[-1]
        row = self.diffs[h * h:]
        lo, width = 1, _FIRST_SLICE
        while last + lo < top:
            hi = lo + width
            free = (row[-1] & (1 << hi) - 1) >> lo ^ (1 << width) - 1
            high = [(k, row[h - k] & (1 << k * hi) - 1) for k in range(2, h)]
            while free:
                low = free & -free
                free ^= low
                i = lo + low.bit_length() - 1
                if last + i >= top:
                    return None
                for k, bits in high:
                    if bits >> k * i & 1:
                        break
                else:
                    return last + i, ((), ())
            lo, width = hi, 4 * width
        return None

    def grow(self, term: int, last: int) -> None:
        """Update diffs for the term t that has joined the set above
        M = last.  As S'_i = S_i | (t + S'_{i-1}), splitting u in S'_i and
        v in S'_j by whether they use t gives, exactly,

            D'_{i,j} = D_{i,j} | (D'_{i,j-1} - t) | (D'_{i-1,j} + t),

        the second part for j >= 1 and the third for i >= 1; a difference
        of two sums that both use t lies in the second.  In a cut row each
        part keeps its cut: a value v >= (i - j)*t of the second part comes
        from v + t >= (i - j + 1)*t, of the third from
        v - t >= (i - 1 - j)*t, and of the first from v >= (i - j)*M.
        Column 0 adds to column 1 only u - t, u in S'_i: a u that uses t
        gives it through the third part too, and one in S_i gives
        u - t <= i*M - t < (i - 1)*t, below the cut.

        grow runs _grow_plan(h), entry by entry with i and j upward, so
        each entry reads only entries already updated: at most three
        shifts and ORs an entry, with no factor n.  Each entry first moves
        to its new offset, left by j*(t - M) in a whole row and right by
        (i - j)*(t - M) in a cut row, which drops the values that fall
        below the cut.  "- t" then shifts by 0, and "+ t" by t to the left
        between whole rows, by (h - 2)*t to the right into row h - 1 and
        by 0 into row h.  At h = 2 that is five steps.  Each step updates
        its integer in place, so the old one is freed before the next
        temporary is made.
        """
        diffs, d = self.diffs, term - last
        for e, s, c in _grow_plan(self.h):
            if s is None:
                diffs[e] = diffs[e] << c * d if c > 0 else diffs[e] >> -c * d
            elif c:
                diffs[e] |= diffs[s] << c * term if c > 0 else diffs[s] >> -c * term
            else:
                diffs[e] |= diffs[s]


def _new_scan(h: int, g: int, max_entries: int = DEFAULT_MAX_ENTRIES,
              check_levels: bool = False) -> _SumScan | _SidonScan:
    """A fresh scan for the rule of (h, g): sum tables for g > 1, which keep
    check_levels, and the cut difference matrix for g = 1, which keeps no
    level and so ignores it."""
    return (_SumScan(h, g, max_entries, check_levels) if g > 1
            else _SidonScan(h, max_entries))


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
    there is none, error is raised.  The scan of the rule of (h, g) keeps
    its state between steps, and join takes each term find admits with
    its pass.  Only the next find reads what grow updates, so the run's
    last term is joined and not grown: the run stops at the same term,
    with the same message, under the entry cap, which join checks.
    """
    h, g = params.h, params.g
    scan = _new_scan(h, g, max_entries, check_levels)
    members = scan.elements
    rec = SequenceRecord(params, algorithm)
    meta, admission = StepMeta(1, 1, 0, ceiling(1).floor, 0.0), None
    while True:
        joined = scan.join(meta.term, admission)
        rec.terms.append(meta.term)
        rec.per_step.append(meta)
        if on_step is not None:
            on_step(meta)
        if meta.n == params.n_terms:
            return rec
        scan.grow(meta.term, joined)
        t0 = time.perf_counter()
        n_next = meta.n + 1
        floor = ceiling(n_next).floor
        found = scan.find(floor + 1)
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
