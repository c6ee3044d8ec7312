"""Quaternion construction, Binet closed form, and the root-product coefficient."""

import random
from fractions import Fraction

import pytest

from dualpell import (
    DualComplex,
    Family,
    binet_quaternion,
    build_quaternion,
    dc_number,
    gamma_closed,
    gamma_coefficient,
    hat_pair,
    make_alpha_beta,
    rationalize,
    terms,
)


def dc(one, i=0, eps=0, ieps=0):
    return DualComplex(Fraction(one), Fraction(i), Fraction(eps), Fraction(ieps))


def test_build_fixtures():
    assert build_quaternion(Family.K_PELL, 1, 1).value == dc(1, 2, 5, 12)
    assert build_quaternion(Family.K_PELL, 2, 0).value == dc(0, 1, 2, 6)


def test_provenance_rebuild():
    rng = random.Random(21)
    for _ in range(40):
        family = rng.choice(list(Family))
        k = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        n = rng.randint(-6, 30)
        q = build_quaternion(family, k, n)
        assert q.rebuild() == q.value
        assert (q.family, q.k, q.n) == (family, k, n)


def test_product_commutes():
    for k in (Fraction(1), Fraction(3)):
        for n, m in [(0, 1), (2, 5), (1, 7)]:
            a = build_quaternion(Family.K_PELL, k, n).value
            b = build_quaternion(Family.K_PELL, k, m).value
            assert a * b == b * a


def test_scalar_and_vector_parts():
    q = build_quaternion(Family.K_PELL, 1, 1)
    assert q.scalar_part() == 1
    assert q.vector_part() == dc(0, 2, 5, 12)
    rng = random.Random(22)
    for _ in range(30):
        k = Fraction(rng.randint(1, 6))
        q = build_quaternion(Family.K_PELL, k, rng.randint(0, 20))
        assert dc(q.scalar_part()) + q.vector_part() == q.value


def test_quaternion_recurrence():
    for family in Family:
        for k in (Fraction(1), Fraction(2), Fraction(5, 2)):
            for n in range(0, 16):
                lhs = build_quaternion(family, k, n + 2).value
                rhs = build_quaternion(family, k, n + 1).value.scale(
                    Fraction(2)
                ) + build_quaternion(family, k, n).value.scale(k)
                assert lhs == rhs


def test_hat_pair_shape():
    alpha, beta = make_alpha_beta(2)
    ha, hb = hat_pair(2)
    assert ha.coefficients() == (1, alpha, alpha**2, alpha**3)
    assert hb.coefficients() == (1, beta, beta**2, beta**3)


def test_binet_quaternion_base_case():
    assert binet_quaternion(1, 0) == dc(0, 1, 2, 5)


def test_binet_quaternion_eps_slot_telescopes():
    # at n = 0 the eps slot is (alpha^2 - beta^2)/(alpha - beta) = alpha + beta = 2
    alpha, beta = make_alpha_beta(7)
    assert rationalize((alpha**2 - beta**2) / (alpha - beta)) == 2
    assert binet_quaternion(7, 0).dual == 2


def test_binet_quaternion_degenerate_radicand():
    assert binet_quaternion(3, 4) == build_quaternion(Family.K_PELL, 3, 4).value


def test_binet_quaternion_matches_build_sampled():
    for k in (Fraction(1), Fraction(2), Fraction(1, 2)):
        for n in range(0, 40):
            assert binet_quaternion(k, n) == build_quaternion(Family.K_PELL, k, n).value


def test_binet_quaternion_rejects_negative_index():
    with pytest.raises(ValueError):
        binet_quaternion(1, -1)


def test_gamma_fixtures():
    assert gamma_coefficient(1) == dc(2, 2, 12, 12)
    assert gamma_coefficient(2) == dc(3, 2, 24, 16)


def test_gamma_internal_assertion_over_k():
    for k in list(range(1, 11)) + [Fraction(1, 2), Fraction(22, 7)]:
        assert terms(k).gamma == gamma_closed(k) == gamma_coefficient(k)


def test_gamma_eps_slot_symbolically():
    # alpha^2 + beta^2 - alpha beta^3 - alpha^3 beta collapses to 2k^2 + 6k + 4
    for k in (Fraction(1), Fraction(2), Fraction(7, 5)):
        alpha, beta = make_alpha_beta(k)
        value = alpha**2 + beta**2 - alpha * beta**3 - alpha**3 * beta
        assert rationalize(value) == 2 * k * k + 6 * k + 4


def test_gamma_ieps_slot_is_product_form():
    # the i*eps slot of hat(alpha)*hat(beta) is a^3 + b^3 + a b^2 + a^2 b = 4k + 8
    for k in (Fraction(1), Fraction(3), Fraction(9, 2)):
        alpha, beta = make_alpha_beta(k)
        value = alpha**3 + beta**3 + alpha * beta**2 + alpha**2 * beta
        assert rationalize(value) == 4 * k + 8
        assert gamma_closed(k).dual_imag == 4 * k + 8


def test_dc_number_alias_of_build():
    assert build_quaternion(Family.K_PELL, 2, 1).value == dc_number(Family.K_PELL, 2, 1)
