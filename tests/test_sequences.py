"""Sequence engines: recurrence, negative indices, fast path, closed forms."""

import random
import re
from fractions import Fraction

import pytest

from dualpell import (
    DualComplex,
    Family,
    SequenceSpec,
    dc_number,
    pell_term,
    seq_binet,
    seq_prefix_sum,
    seq_row,
    seq_term,
    seq_term_fast,
    terms,
)
from support import naive_pell_row


def spec(family, k):
    return SequenceSpec(family, Fraction(k))


def test_spec_requires_positive_k():
    with pytest.raises(ValueError):
        SequenceSpec(Family.K_PELL, Fraction(0))
    with pytest.raises(ValueError):
        SequenceSpec(Family.K_PELL, Fraction(-2))


def test_family_names():
    assert Family.from_name("pell") is Family.K_PELL
    assert Family.from_name("pell-lucas") is Family.K_PELL_LUCAS
    assert Family.from_name("modified") is Family.MODIFIED_K_PELL
    assert Family.from_name(" PL\t") is Family.K_PELL_LUCAS
    for name in ("fibonacci", "pell\x1f", "\xa0pell", "mp\u2003"):
        with pytest.raises(ValueError):
            Family.from_name(name)


def test_symbolic_third_term():
    # P_3 = k + 4
    for k in range(1, 6):
        assert seq_term(spec(Family.K_PELL, k), 3) == k + 4


def test_pell_k2_first_terms():
    s = spec(Family.K_PELL, 2)
    assert [seq_term(s, n) for n in range(6)] == [0, 1, 2, 6, 16, 44]


def test_pell_negative_index():
    assert seq_term(spec(Family.K_PELL, 2), -1) == Fraction(1, 2)
    assert pell_term(Fraction(2), -2) == Fraction(-1, 2)


def test_pell_lucas_first_terms():
    s = spec(Family.K_PELL_LUCAS, 1)
    assert [seq_term(s, n) for n in range(5)] == [2, 2, 6, 14, 34]


def test_modified_pell_first_terms():
    s = spec(Family.MODIFIED_K_PELL, 1)
    assert [seq_term(s, n) for n in range(5)] == [1, 1, 3, 7, 17]


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("k", [Fraction(1), Fraction(2), Fraction(7, 3)])
def test_recurrence_consistency_including_negative(family, k):
    s = spec(family, k)
    for n in range(-12, 24):
        assert seq_term(s, n + 2) == 2 * seq_term(s, n + 1) + k * seq_term(s, n)


def test_modified_pell_shift_relation():
    # MP_n = P_n + k P_{n-1}; exercises the backward extension at n = 0
    for k in (Fraction(1), Fraction(2), Fraction(5, 2)):
        s = spec(Family.MODIFIED_K_PELL, k)
        for n in range(0, 20):
            assert seq_term(s, n) == pell_term(k, n) + k * pell_term(k, n - 1)


def test_integrality_for_integer_k():
    for k in range(1, 6):
        s = spec(Family.K_PELL, k)
        for n in range(0, 40):
            assert seq_term(s, n).denominator == 1


def test_terms_match_library_free_recurrence():
    for k in (Fraction(1), Fraction(3), Fraction(22, 7)):
        row = naive_pell_row(k, 50)
        s = spec(Family.K_PELL, k)
        assert [seq_term(s, n) for n in range(50)] == row


def test_fast_equals_naive():
    for k in range(1, 9):
        s = spec(Family.K_PELL, k)
        for n in range(0, 513):
            assert seq_term_fast(s, n) == seq_term(s, n)


def test_fast_all_families():
    for family in Family:
        s = spec(family, Fraction(3, 2))
        for n in range(0, 40):
            assert seq_term_fast(s, n) == seq_term(s, n)


def test_fast_examples():
    assert seq_term_fast(spec(Family.K_PELL, 2), 5) == 44
    for k in (1, 2, 3):
        assert seq_term_fast(spec(Family.K_PELL, k), 0) == 0
    s = spec(Family.K_PELL, 1)
    assert seq_term_fast(s, 1000) == seq_term(s, 1000)


def test_fast_rejects_negative_index():
    with pytest.raises(ValueError):
        seq_term_fast(spec(Family.K_PELL, 1), -1)


def test_binet_examples():
    assert seq_binet(1, 4) == 12
    for k in (Fraction(1), Fraction(5), Fraction(1, 2)):
        assert seq_binet(k, 0) == 0
    # k = 3 makes the radicand a perfect square; the degenerate path must agree
    assert seq_binet(3, 3) == 7


def test_binet_matches_recurrence_sampled():
    for k in (Fraction(1), Fraction(4), Fraction(3), Fraction(22, 7)):
        s = spec(Family.K_PELL, k)
        for n in range(0, 60):
            assert seq_binet(k, n) == seq_term(s, n)


def test_binet_rejects_bad_arguments():
    with pytest.raises(ValueError):
        seq_binet(0, 3)
    assert seq_binet(1, -1) == pell_term(1, -1) == 1  # a negative n is in the domain


def test_prefix_sum_examples():
    assert seq_prefix_sum(2, 2) == 3
    assert seq_prefix_sum(1, 4) == 20
    for k in (1, 2, Fraction(9, 4)):
        assert seq_prefix_sum(k, 0) == 0


def test_prefix_sum_matches_literal_summation():
    for k in [Fraction(j) for j in range(1, 9)]:
        s = spec(Family.K_PELL, k)
        running = Fraction(0)
        for n in range(0, 129):
            running += seq_term(s, n)
            assert seq_prefix_sum(k, n) == running


def test_sum_to_is_the_plain_sum_with_its_exact_type():
    for k in (1, 2, 5, Fraction(1, 2), Fraction(3, 2), Fraction(7, 4), Fraction(22, 7)):
        t = terms(k)
        for n in range(-1, 61):
            plain = sum(seq_row(Family.K_PELL, k, 0, n + 1))
            value = t.sum_to(n)
            assert value == plain and type(value) is type(plain), (k, n)
            if n == -1:
                assert type(value) is int and value == 0
            else:  # a Fraction at rational k even where the sum is integral, as at n = 1
                assert type(value) is (int if type(k) is int else Fraction)
        for n in (-2, -3, 3.0, True, None):
            with pytest.raises(ValueError):
                t.sum_to(n)


def test_dc_number_fixtures():
    assert dc_number(Family.K_PELL, 1, 0) == DualComplex(
        Fraction(0), Fraction(1), Fraction(2), Fraction(5)
    )
    assert dc_number(Family.K_PELL, 2, 1) == DualComplex(
        Fraction(1), Fraction(2), Fraction(6), Fraction(16)
    )
    assert dc_number(Family.K_PELL_LUCAS, 1, 0) == DualComplex(
        Fraction(2), Fraction(2), Fraction(6), Fraction(14)
    )


def test_dc_number_negative_index():
    w = dc_number(Family.K_PELL, 2, -1)
    assert w.coefficients() == (Fraction(1, 2), 0, 1, 2)


def test_cache_is_transparent():
    # interleaved far-apart queries must agree with a fresh plain recurrence
    rng = random.Random(11)
    k = Fraction(13, 5)
    row = naive_pell_row(k, 200)
    indices = list(range(200))
    rng.shuffle(indices)
    for n in indices:
        assert pell_term(k, n) == row[n]


# A value that is not a Family member once read as the modified k-Pell numbers.
NOT_A_FAMILY = ["pell", "p", "mp", 0, None]


@pytest.mark.parametrize("family", NOT_A_FAMILY)
def test_seq_row_rejects_a_family_that_is_not_a_family(family):
    with pytest.raises(ValueError, match="family must be a Family"):
        seq_row(family, 2, 0, 3)


@pytest.mark.parametrize("family", NOT_A_FAMILY)
def test_dc_number_rejects_a_family_that_is_not_a_family(family):
    from dualpell import sequences

    k = Fraction(1009, 997)  # read nowhere else, so it has no table yet
    before = sequences._numbers.cache_info().currsize
    with pytest.raises(ValueError, match="family must be a Family"):
        dc_number(family, k, 1)
    assert sequences._numbers.cache_info().currsize == before  # the family is checked first


@pytest.mark.parametrize("family", NOT_A_FAMILY + [[]], ids=repr)
def test_the_term_view_rejects_a_family_that_is_not_a_family(family):
    t = terms(2)
    with pytest.raises(ValueError, match="family must be a Family"):
        t.d(family, 0)


@pytest.mark.parametrize("index", [5.0, 7.5, "3", None], ids=repr)
def test_the_term_view_checks_an_index_it_has_not_read(index):
    # A miss checks the index as pell_term does, so a bad one stores nothing.
    from dualpell import sequences

    k = Fraction(1013, 991)  # read nowhere else, so every read below misses
    t = terms(k)
    for read in (t.p, t.q, lambda j: t.d(Family.K_PELL_LUCAS, j)):
        with pytest.raises(ValueError, match=f"^n must be int, got {re.escape(repr(index))}$"):
            read(index)
    assert not sequences._shared(k)[0].__self__
    assert not sequences._numbers(Family.K_PELL, k).__self__
    assert not sequences._numbers(Family.K_PELL_LUCAS, k).__self__


@pytest.mark.parametrize("family", NOT_A_FAMILY)
def test_sequence_spec_rejects_a_family_that_is_not_a_family(family):
    with pytest.raises(ValueError, match="family must be a Family"):
        SequenceSpec(family, 2)


@pytest.mark.parametrize("name", [3, None, b"pell", Family.K_PELL])
def test_family_from_name_rejects_a_non_str(name):
    with pytest.raises(TypeError, match="family name must be str"):
        Family.from_name(name)
