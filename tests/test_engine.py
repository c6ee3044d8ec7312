"""Differential properties of the sequence engine over rational k = p/q.

Every row the engine returns is checked against routes that share none of
its code: single terms, the bare recurrence, the Binet closed form and a
library-free backward walk from P_1, P_0.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dualpell import (
    DualComplex,
    Family,
    SequenceSpec,
    pell_term,
    seq_binet,
    seq_row,
    seq_term,
    terms,
)
from dualpell.scalars import positive_k
from dualpell.sequences import Terms
from support import naive_pell_row

SEEDED = settings(derandomize=True, database=None, deadline=None)

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
    # Binet costs about a millisecond a term: check both ends of the stretch.
    for n, term in nonneg[:1] + nonneg[-1:]:
        assert term == seq_binet(k, n)


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


@SEEDED
@given(st.one_of(st.integers(1, 50), ks), st.integers(-20, 60), st.integers(-20, 60))
def test_product_memo_is_the_product_in_either_order(k, a, b):
    t = Terms(positive_k(k))
    assert t.qq(a, b) == t.q(a) * t.q(b) == t.qq(b, a)
    assert t.qq(b, a) is t.qq(a, b)
