"""Unit and property tests for the incremental sum tables and their oracle."""

import random
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bhgreedy import GuardExceeded, SumTableSet, brute_force_rep
from oracles import multiset_sum_histogram

small_sets = st.sets(st.integers(min_value=1, max_value=60), min_size=0, max_size=6)
orders = st.integers(min_value=2, max_value=4)


def build(h, elements, **kw):
    t = SumTableSet(h, **kw)
    for a in elements:
        t.add_element(a)
    return t


# ---------------------------------------------------------------------------
# construction


def test_new_table_set_empty_product_convention():
    t = SumTableSet(2)
    assert t.tables[0] == {0: 1}
    assert t.tables[1] == {}
    assert t.tables[2] == {}


def test_new_table_set_rejects_small_order():
    with pytest.raises(ValueError):
        SumTableSet(1)


def test_empty_set_has_no_representations():
    t = SumTableSet(3)
    assert all(t.tables[3].get(x, 0) == 0 for x in (0, 1, 3, 10, 99))


# ---------------------------------------------------------------------------
# add_element


def test_add_first_element_h2():
    t = build(2, [1])
    assert t.tables[2] == {2: 1}


def test_add_second_element_h2():
    t = build(2, [1, 2])
    assert t.tables[2] == {2: 1, 3: 1, 4: 1}


def test_add_third_element_h2():
    t = build(2, [1, 2, 4])
    assert t.tables[2] == {2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 8: 1}


def test_add_rejects_duplicates_and_nonpositive():
    t = build(2, [1, 2])
    with pytest.raises(ValueError):
        t.add_element(2)
    with pytest.raises(ValueError):
        t.add_element(0)


def test_entry_cap_is_a_hard_error():
    t = SumTableSet(2, max_entries=6)
    t.add_element(1)
    t.add_element(2)
    with pytest.raises(GuardExceeded):
        t.add_element(4)
    # Inserting 4 into {1, 2} reaches 1 + 3 + 6 = 10 entries: a cap of 10
    # admits it, and a cap of 9 stops it at the last fold.
    assert build(2, [1, 2, 4], max_entries=10).entry_count() == 10
    t = build(2, [1, 2], max_entries=9)
    with pytest.raises(GuardExceeded) as err:
        t.add_element(4)
    assert str(err.value) == ("sum-table entry cap 9 exceeded while inserting "
                              "4; lower n_terms or h, or raise the cap")


# ---------------------------------------------------------------------------
# r(x), read from the h-fold table, and rep_histogram


def test_h_fold_table_examples():
    t = build(2, [1, 2])
    assert t.tables[2].get(3, 0) == 1
    assert t.tables[2].get(7, 0) == 0
    t = build(2, [1, 2, 4, 8, 13])
    assert t.tables[2].get(14, 0) == 1


def test_rep_histogram_examples():
    assert build(2, [1, 2]).rep_histogram(2) == (3, 0)
    assert build(2, []).rep_histogram(3) == (0, 0, 0)
    assert build(2, [1, 2, 3]).rep_histogram(2) == (5, 1)


def test_rep_histogram_rejects_bad_s_max():
    with pytest.raises(ValueError):
        build(2, [1]).rep_histogram(0)


# ---------------------------------------------------------------------------
# candidate_delta


def test_candidate_delta_examples():
    assert build(2, [1, 2]).candidate_delta(3).added == {4: 1, 5: 1, 6: 1}
    assert build(2, []).candidate_delta(5).added == {10: 1}


def test_candidate_delta_h3_multihit():
    # adding 3 to {1, 2, 4} reaches 7 as 3+1+3 and 3+2+2
    t = build(3, [1, 2, 4])
    added = t.candidate_delta(3).added
    assert added[7] == 2
    # cross-check the whole delta against enumeration of the enlarged set
    before = multiset_sum_histogram([1, 2, 4], 3)
    after = multiset_sum_histogram([1, 2, 3, 4], 3)
    assert added == {x: c - before.get(x, 0) for x, c in after.items()
                     if c - before.get(x, 0)}


def test_candidate_delta_rejects_members():
    with pytest.raises(ValueError):
        build(2, [1, 2]).candidate_delta(2)


def test_candidate_delta_rejects_non_positive_candidates():
    with pytest.raises(ValueError, match="^candidates must be positive, got 0$"):
        build(2, [1, 2]).candidate_delta(0)


# ---------------------------------------------------------------------------
# brute-force oracle


def test_brute_force_rep_examples():
    assert brute_force_rep([1, 2], 2, 4) == 1
    assert brute_force_rep([1, 2, 3], 2, 4) == 2
    assert brute_force_rep([1], 5, 5) == 1


def test_brute_force_rep_guard():
    with pytest.raises(GuardExceeded,
                       match="^enumeration of 270725 multisets exceeds cap 1000$"):
        brute_force_rep(range(1, 50), 4, 100, max_enumeration=1000)


def test_brute_force_rep_rejects_duplicates_and_orders_below_one():
    with pytest.raises(ValueError, match="^elements must be distinct$"):
        brute_force_rep([1, 2, 2], 2, 4)
    with pytest.raises(ValueError, match="^h must be >= 1, got 0$"):
        brute_force_rep([1, 2], 0, 0)


# ---------------------------------------------------------------------------
# properties


@given(elements=small_sets, h=orders)
@settings(max_examples=60, deadline=None)
def test_tables_match_enumeration(elements, h):
    t = build(h, elements)
    assert dict(t.tables[h]) == dict(multiset_sum_histogram(elements, h))


@given(elements=small_sets, h=orders)
@settings(max_examples=60, deadline=None)
def test_multiset_totals(elements, h):
    t = build(h, elements)
    for j in range(h + 1):
        expected = 1 if j == 0 else comb(len(elements) + j - 1, j)
        assert sum(t.tables[j].values()) == expected
        assert all(c >= 1 for c in t.tables[j].values())
    assert t.entry_count() == sum(len(tj) for tj in t.tables)
    assert t.tables[1] == dict.fromkeys(elements, 1)
    assert t.elements == sorted(t.tables[1])
    assert [m for m in range(62) if m in t] == t.elements


@given(elements=st.lists(st.integers(1, 60), min_size=2, max_size=6, unique=True),
       h=orders, seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_insertion_order_is_irrelevant(elements, h, seed):
    shuffled = elements[:]
    random.Random(seed).shuffle(shuffled)
    assert build(h, elements).tables == build(h, shuffled).tables


@given(elements=small_sets, h=orders, m=st.integers(1, 80))
@settings(max_examples=60, deadline=None)
def test_delta_consistency(elements, h, m):
    if m in elements:
        return
    t = build(h, elements)
    added = t.candidate_delta(m).added
    rebuilt = build(h, set(elements) | {m})
    merged = dict(t.tables[h])
    for x, c in added.items():
        merged[x] = merged.get(x, 0) + c
    assert merged == rebuilt.tables[h]
    floor = h * min(set(elements) | {m})
    assert all(x >= floor for x in added)


@given(elements=small_sets, h=orders, m=st.integers(1, 80))
@settings(max_examples=40, deadline=None)
def test_profile_is_monotone_and_grows(elements, h, m):
    t = build(h, elements)
    p = t.rep_histogram(4)
    assert all(a >= b for a, b in zip(p, p[1:]))
    assert p[0] <= comb(len(elements) + h - 1, h)
    if m not in elements:
        q = build(h, set(elements) | {m}).rep_histogram(4)
        assert all(after >= before for before, after in zip(p, q))


@given(elements=st.sets(st.integers(1, 30), max_size=7), h=orders,
       s_max=st.integers(1, 5))
@example(elements=set(range(1, 8)), h=3, s_max=2)
@settings(max_examples=80, deadline=None)
def test_rep_histogram_matches_enumeration(elements, h, s_max):
    # Arbitrary sets, not B_h[g]: a sum with multiplicity above s_max
    # counts at every level up to s_max.
    hist = multiset_sum_histogram(elements, h)
    expected = tuple(sum(1 for c in hist.values() if c >= s)
                     for s in range(1, s_max + 1))
    assert build(h, elements).rep_histogram(s_max) == expected


@given(elements=small_sets, h=orders, probe=st.integers(0, 400))
@settings(max_examples=60, deadline=None)
def test_h_fold_table_matches_brute_force(elements, h, probe):
    t = build(h, elements)
    assert t.tables[h].get(probe, 0) == brute_force_rep(elements, h, probe)
