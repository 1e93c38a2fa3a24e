"""Incremental multiset-sum tables for a set of distinct positive integers.

For a set A and an order h >= 2 we maintain, for every j in 0..h,

    tables[j] : sum value -> number of size-j multisets of A with that sum.

tables[h] is the h-fold representation function r_A: r_A(x) counts the
multisets {a_1 <= ... <= a_h} drawn from A (repetition allowed) with
a_1 + ... + a_h = x.  Because the elements of A are distinct, this equals
counting index-non-decreasing h-tuples, which is the counting convention
used everywhere in this package.

Inserting a new element never recomputes anything from scratch: a size-j
multiset that uses the new element a with multiplicity k >= 1 is a size-(j-k)
multiset of the old set shifted by k*a, so

    tables[j][y + k*a] += old_tables[j-k][y]    for k = 1..j,

and processing j downward from h guarantees that every lower table read is
still the pre-insertion snapshot.  All counts are exact Python integers;
entries are only ever created with a positive count and no operation
decrements one.

``brute_force_rep`` is the independent oracle: it enumerates multisets
directly and deliberately shares nothing with SumTableSet.
"""

from bisect import insort
from collections import Counter
from itertools import combinations_with_replacement
from math import comb
from typing import NamedTuple

from .errors import GuardExceeded

#: Cap on the total number of stored (sum, count) entries across all tables.
DEFAULT_MAX_ENTRIES = 50_000_000

#: Cap on the number of multisets a brute-force enumeration may visit.
DEFAULT_MAX_ENUMERATION = 5_000_000


def _guard_enumeration(n: int, h: int, cap: int) -> None:
    """GuardExceeded when the size-h multisets of n elements, C(n+h-1, h),
    are more than cap."""
    total = comb(n + h - 1, h)
    if total > cap:
        raise GuardExceeded(f"enumeration of {total} multisets exceeds cap {cap}")


def entry_cap_error(cap: int, a: int) -> GuardExceeded:
    """The error raised when inserting a takes the sum tables past cap
    entries."""
    return GuardExceeded(f"sum-table entry cap {cap} exceeded while inserting {a}; "
                         "lower n_terms or h, or raise the cap")


class CandidateDelta(NamedTuple):
    """Representation counts a candidate element m would add.

    added[x] is the number of size-h multisets of A + {m} that use m at
    least once and sum to x.  Multisets using m exactly k times correspond
    to size-(h-k) multisets of A at x - k*m, so

        added[x] = sum over k = 1..h of tables[h-k][x - k*m],

    where the k = h term contributes exactly 1 at x = h*m.
    """

    m: int
    added: dict[int, int]


class SumTableSet:
    """Exact j-fold multiset-sum counts of a growing set, j = 0..h.

    The tables are the only record of the set: tables[1] maps each element
    to 1, and elements lists the same members in order.  tables[h] is a
    Counter, so r(x) reads as tables[h][x], 0 for a sum x it does not hold,
    and the read inserts nothing.
    """

    __slots__ = ("h", "tables", "elements", "max_entries")

    def __init__(self, h: int, max_entries: int = DEFAULT_MAX_ENTRIES):
        if h < 2:
            raise ValueError(f"order h must be >= 2, got {h}")
        self.h = h
        self.tables: list[dict[int, int]] = [{0: 1}, *({} for _ in range(h - 1)),
                                             Counter()]
        self.elements: list[int] = []
        self.max_entries = max_entries

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, a: int) -> bool:
        return a in self.tables[1]

    def __repr__(self) -> str:
        return f"SumTableSet(h={self.h}, elements={self.elements})"

    def add_element(self, a: int) -> None:
        """Insert a new element, updating every table in place.

        Raises GuardExceeded when the entry cap is hit; the instance must
        be discarded afterwards (the update is not rolled back).
        """
        if a < 1:
            raise ValueError(f"elements must be positive, got {a}")
        if a in self:
            raise ValueError(f"duplicate element {a}")
        tables = self.tables
        for j in range(self.h, 0, -1):
            tj = tables[j]
            for k in range(1, j + 1):
                ka = k * a
                for y, c in tables[j - k].items():
                    x = y + ka
                    tj[x] = tj.get(x, 0) + c
            if self.entry_count() > self.max_entries:
                raise entry_cap_error(self.max_entries, a)
        insort(self.elements, a)

    def rep_histogram(self, s_max: int) -> tuple[int, ...]:
        """Level counts R_s = |{x : r(x) >= s}| of the current set for
        s = 1..s_max, a non-increasing tuple.

        The h-fold table holds few distinct multiplicities, so one Counter
        pass over its values (in C) tallies how many sums have each
        multiplicity c, and each tally is added to levels 1..min(c, s_max).
        Sums with c > s_max count at every level up to s_max.
        """
        if s_max < 1:
            raise ValueError(f"s_max must be >= 1, got {s_max}")
        counts = [0] * s_max
        for c, freq in Counter(self.tables[self.h].values()).items():
            for s in range(min(c, s_max)):
                counts[s] += freq
        return tuple(counts)

    def candidate_delta(self, m: int) -> CandidateDelta:
        """Representation counts that inserting m would add (m not in A)."""
        if m < 1:
            raise ValueError(f"candidates must be positive, got {m}")
        if m in self:
            raise ValueError(f"{m} is already in the set")
        added: dict[int, int] = {}
        for k in range(1, self.h + 1):
            km = k * m
            for y, c in self.tables[self.h - k].items():
                x = km + y
                added[x] = added.get(x, 0) + c
        return CandidateDelta(m, added)

    def entry_count(self) -> int:
        """Total stored (sum, count) entries, the quantity the cap guards."""
        return sum(map(len, self.tables))


def brute_force_rep(
    A,
    h: int,
    x: int,
    max_enumeration: int = DEFAULT_MAX_ENUMERATION,
) -> int:
    """Count size-h multisets of A summing to x by full enumeration.

    Deliberately ignorant of SumTableSet; this is the oracle the
    incremental tables are checked against.
    """
    elems = sorted(A)
    if len(set(elems)) != len(elems):
        raise ValueError("elements must be distinct")
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    _guard_enumeration(len(elems), h, max_enumeration)
    return sum(1 for combo in combinations_with_replacement(elems, h) if sum(combo) == x)
