"""Rational text format and the quadratic field extension."""

import random
from fractions import Fraction

import pytest

from dualpell import QuadExt, make_alpha_beta, parse_rational, rationalize, render_rational


def test_rational_add_example():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_rational_div_mul_roundtrip():
    assert (Fraction(1) / Fraction(3)) * 3 == 1


def test_rational_sub_self_is_zero():
    rng = random.Random(7)
    for _ in range(100):
        x = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
        assert x - x == 0


def test_rational_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Fraction(1) / Fraction(0)


def test_rational_canonical_form():
    x = Fraction(4, -6)
    assert (x.numerator, x.denominator) == (-2, 3)
    assert render_rational(x) == "-2/3"


@pytest.mark.parametrize(
    "text,value",
    [("-3", Fraction(-3)), ("5/6", Fraction(5, 6)), ("+7", Fraction(7)), ("0", 0)],
)
def test_parse_rational_accepts(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize(
    "text",
    ["5/0", "1/-2", "1.5", "", "3/", "1e3", "a", "1 / 2", "\u0663", "1/1\u0662", "1/\u0662", "\uff11"],
)
def test_parse_rational_rejects(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_parse_render_roundtrip():
    for text in ["-3", "5/6", "0", "22/7", "-1000000/7"]:
        assert render_rational(parse_rational(text)) == text


def test_alpha_beta_k1():
    alpha, beta = make_alpha_beta(1)
    assert alpha == QuadExt(Fraction(1), Fraction(1), Fraction(2))
    assert beta == QuadExt(Fraction(1), Fraction(-1), Fraction(2))


@pytest.mark.parametrize(
    "k",
    [Fraction(i) for i in range(1, 11)]
    + [Fraction(1, 2), Fraction(3, 2), Fraction(22, 7), Fraction(5, 3), Fraction(9, 11)],
)
def test_alpha_beta_sum_and_product(k):
    alpha, beta = make_alpha_beta(k)
    assert alpha + beta == 2
    assert alpha * beta == -k


@pytest.mark.parametrize("k", [0, -1, Fraction(-1, 2)])
def test_alpha_beta_requires_positive_k(k):
    with pytest.raises(ValueError, match=f"got {k}$"):  # an exact k shown as typed: 0, -1/2
        make_alpha_beta(k)


def test_conjugate_negates_radical():
    x = QuadExt(Fraction(1), Fraction(1), Fraction(2))
    assert x.conjugate() == QuadExt(Fraction(1), Fraction(-1), Fraction(2))


def test_mul_of_conjugate_pair():
    # (1 + sqrt2)(-1 + sqrt2) = 2 - 1 = 1
    x = QuadExt(Fraction(1), Fraction(1), Fraction(2))
    y = QuadExt(Fraction(-1), Fraction(1), Fraction(2))
    assert x * y == 1


def test_self_division_degenerate_radicand():
    # k = 3 gives d = 4, a perfect square: everything collapses to rationals
    alpha, beta = make_alpha_beta(3)
    assert alpha == 3 and beta == -1
    delta = alpha - beta
    assert delta / delta == 1


def test_perfect_square_radicand_folds():
    assert QuadExt(Fraction(0), Fraction(1), Fraction(4)) == 2
    assert QuadExt(Fraction(1), Fraction(1), Fraction(9, 4)) == Fraction(5, 2)
    assert QuadExt(Fraction(1), Fraction(1), Fraction(9, 4)).is_rational


def test_mismatched_radicands_rejected():
    x = QuadExt(Fraction(1), Fraction(1), Fraction(2))
    y = QuadExt(Fraction(1), Fraction(1), Fraction(3))
    with pytest.raises(ValueError):
        x + y
    with pytest.raises(ValueError):
        x * y


def test_division_by_zero_element():
    x = QuadExt(Fraction(1), Fraction(1), Fraction(2))
    with pytest.raises(ZeroDivisionError):
        x / QuadExt(Fraction(0), Fraction(0), Fraction(2))


def test_rationalize_examples():
    assert rationalize(QuadExt(Fraction(5), Fraction(0), Fraction(2))) == 5
    alpha, beta = make_alpha_beta(1)
    # (alpha^2 - beta^2)/(alpha - beta) - (alpha + beta) telescopes to zero
    value = (alpha**2 - beta**2) / (alpha - beta) - (alpha + beta)
    assert rationalize(value) == 0
    with pytest.raises(ValueError):
        rationalize(QuadExt(Fraction(1), Fraction(1), Fraction(2)))


def _random_quad(rng, d):
    return QuadExt(
        Fraction(rng.randint(-1000, 1000), rng.randint(1, 50)),
        Fraction(rng.randint(-1000, 1000), rng.randint(1, 50)),
        d,
    )


def test_field_axioms_random():
    rng = random.Random(2024)
    one = QuadExt(Fraction(1), Fraction(0), Fraction(2))
    for _ in range(1000):
        d = Fraction(2)
        x, y, z = (_random_quad(rng, d) for _ in range(3))
        assert x + y == y + x
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if x:
            assert x * (one / x) == 1


def test_conjugation_is_ring_homomorphism():
    rng = random.Random(99)
    for _ in range(300):
        x = _random_quad(rng, Fraction(5))
        y = _random_quad(rng, Fraction(5))
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert x.conjugate().conjugate() == x


def test_norm_is_rational():
    rng = random.Random(100)
    for _ in range(300):
        x = _random_quad(rng, Fraction(7))
        assert (x * x.conjugate()).is_rational


def test_pow_matches_repeated_multiplication():
    alpha, _ = make_alpha_beta(2)
    acc = QuadExt(Fraction(1), Fraction(0), alpha.d)
    for exponent in range(8):
        assert alpha**exponent == acc
        acc = acc * alpha
    assert alpha**-2 == 1 / (alpha * alpha)


@pytest.mark.parametrize("exponent", [True, 2.0, Fraction(2)])
def test_pow_takes_only_an_int_exponent(exponent):
    # True is an int to isinstance and would return the base itself
    with pytest.raises(TypeError, match=f"exponent must be int, got {type(exponent).__name__}$"):
        QuadExt(1, 1, 2) ** exponent


@pytest.mark.parametrize("d", [0, -2, Fraction(-1, 2)])
def test_nonpositive_radicand_rejected(d):
    with pytest.raises(ValueError, match="radicand must be positive"):
        QuadExt(1, 1, d)


def test_str_of_a_rational_quadext_is_its_rational_part():
    assert str(QuadExt(3, 0, 2)) == "3"
    assert str(QuadExt(Fraction(-1, 2), 0, 5)) == "-1/2"
