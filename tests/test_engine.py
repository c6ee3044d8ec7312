"""Differential properties of the sequence engine over rational k = p/q.

Every row the engine returns is checked against routes that share none of
its code: single terms, the bare recurrence, the Binet closed form and a
library-free backward walk from P_1, P_0. The right sides a term view
memoizes are checked against a fresh view per tuple.
"""

import gc
import itertools
import weakref
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from dualpell import (
    CATALOG,
    DualComplex,
    Family,
    IdentityId,
    SequenceSpec,
    SweepConfig,
    identity_sides,
    pell_term,
    seq_binet,
    seq_row,
    seq_term,
    sweep,
    terms,
)
from dualpell.scalars import positive_k
from dualpell.sequences import Terms
from support import SEEDED, naive_pell_row, shown

ks = st.builds(Fraction, st.integers(1, 50), st.integers(1, 50))
los = st.integers(-30, 80)
counts = st.integers(1, 40)


def backward_terms(k: Fraction, depth: int) -> dict[int, Fraction]:
    """P_{-1} ... P_{-depth} by P_{j-2} = (P_j - 2 P_{j-1}) / k."""
    terms = {1: Fraction(1), 0: Fraction(0)}
    for j in range(1, -depth + 1, -1):
        terms[j - 2] = (terms[j] - 2 * terms[j - 1]) / k
    return terms


@SEEDED
@given(ks, los, counts)
def test_row_entries_equal_single_terms(k, lo, count):
    row = seq_row(Family.K_PELL, k, lo, count)
    assert row == tuple(pell_term(k, lo + i) for i in range(count))


@SEEDED
@given(ks, los, counts)
def test_rows_match_recurrence_and_binet(k, lo, count):
    row = seq_row(Family.K_PELL, k, lo, count)
    naive = naive_pell_row(k, max(lo + count, 0))
    nonneg = [(n, term) for n, term in enumerate(row, lo) if n >= 0]
    assert all(term == naive[n] for n, term in nonneg)
    assert all(term == seq_binet(k, n) for n, term in nonneg)


@SEEDED
@given(ks, st.integers(-30, -1), counts)
def test_negative_indices_follow_backward_recurrence(k, lo, count):
    walked = backward_terms(k, -lo)
    row = seq_row(Family.K_PELL, k, lo, count)
    assert all(term == walked[n] for n, term in enumerate(row, lo) if n < 0)


@SEEDED
@given(st.sampled_from(list(Family)), ks, los, st.integers(3, 40))
def test_family_rows_follow_the_recurrence(family, k, lo, count):
    row = seq_row(family, k, lo, count)
    assert all(c == 2 * b + k * a for a, b, c in zip(row, row[1:], row[2:]))
    assert row[0] == seq_term(SequenceSpec(family, k), lo)


@SEEDED
@given(ks, los, st.sampled_from(list(Family)))
def test_term_view_reads_the_rows(k, j, family):
    t = terms(k)
    assert t.k == k
    assert t.p(j) == seq_row(Family.K_PELL, k, j, 1)[0]
    assert t.q(j) == DualComplex(*seq_row(Family.K_PELL, k, j, 4))
    assert t.d(family, j) == DualComplex(*seq_row(family, k, j, 4))
    assert t.d(Family.K_PELL, j) is t.q(j)
    assert Terms(positive_k(k)).d(family, j) is t.d(family, j)


def test_family_numbers_are_built_from_the_rule_not_from_q():
    t = Terms(Fraction(13, 7907))  # a k no other test reads, so its memo starts empty
    for family in (Family.K_PELL_LUCAS, Family.MODIFIED_K_PELL):
        for j in (-3, 0, 5):
            assert t.d(family, j) == DualComplex(*seq_row(family, t.k, j, 4))
    assert not t.q.__self__  # f28-f31 compare these numbers with q, so q must stay unread


@SEEDED
@given(st.one_of(st.integers(1, 50), ks), st.integers(-20, 60), st.integers(-20, 60))
def test_product_memo_is_the_product_in_either_order(k, a, b):
    t = Terms(positive_k(k))
    assert t.qq(a, b) == t.q(a) * t.q(b) == t.qq(b, a)
    assert t.qq(b, a) is t.qq(a, b)


def test_once_builds_each_key_once_per_view():
    built = []

    def build(t, key):
        built.append((t, key))
        return DualComplex(key, 0, 0, 0)

    t = Terms(2)
    first = t.once(build, 3)
    assert t.once(build, 3) is first
    assert t.once(build, 4) == DualComplex(4, 0, 0, 0)
    assert built == [(t, 3), (t, 4)]
    assert t.once(lambda t, key: key, 3) == 3  # another fn is another key
    other = Terms(2)
    assert other.once(build, 3) == first and other.once(build, 3) is not first
    assert built == [(t, 3), (t, 4), (other, 3)]


def test_an_evaluation_leaves_the_shared_view_without_a_memo():
    # terms(k) is a new view per call over the per-k tables; an evaluation
    # builds views of its own, keeps none of them and writes into no other.
    k = Fraction(17, 7919)  # a k no other test reads
    shared = terms(k)
    ids = (IdentityId.G13, IdentityId.G17, IdentityId.G19STATED, IdentityId.G18)
    sweep(SweepConfig(ids=ids, k_values=(k,), n_range=(0, 3), m_range=(0, 3), r_range=(1, 2)))
    identity_sides(IdentityId.G13, {"k": k, "n": 1, "m": 2})
    assert not shared._once
    assert [o for o in gc.get_objects() if type(o) is Terms and o.k == k] == [shared]
    fresh = terms(k)
    assert fresh is not shared and fresh._once is not shared._once
    assert fresh.q is shared.q and fresh.p is shared.p and fresh.gamma is shared.gamma


def test_a_view_frees_what_once_built_without_the_cycle_collector():
    class Value:
        pass

    gc.disable()
    try:
        t = Terms(3)
        value = weakref.ref(t.once(lambda t, key: Value(), 0))
        assert value() is not None
        del t
        assert value() is None  # freed by its refcount: the view is in no cycle
    finally:
        gc.enable()


ONCE_READERS = tuple(
    CATALOG[ident]
    for ident in (
        IdentityId.G13,
        IdentityId.G10,
        IdentityId.HELPER_HONSBERGER,
        IdentityId.G17,
        IdentityId.HELPER_DOCAGNE,
        IdentityId.G19STATED,
        IdentityId.G19PROOF,
        IdentityId.G18,
    )
)


@SEEDED
@given(ks, st.integers(0, 6), st.randoms(use_true_random=False))
def test_one_view_across_a_grid_reads_what_a_fresh_view_per_tuple_reads(k, top, rng):
    k = positive_k(k)
    axis = range(top + 1)  # m < n too, so g17 and helper_docagne read P at negative index
    for entry in ONCE_READERS:
        grid = [v for v in itertools.product(axis, repeat=len(entry.params)) if entry.pre(*v)]
        rng.shuffle(grid)
        t = Terms(k)
        for values in grid:
            once = entry.sides(t, *values)
            fresh = entry.sides(Terms(k), *values)
            assert [shown(w) for w in once] == [shown(w) for w in fresh]
