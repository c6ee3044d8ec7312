"""Ring behaviour of dual-complex numbers: products, division, conjugations."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from dualpell import (
    DC_EPS,
    DC_I,
    DC_IEPS,
    DC_ONE,
    DC_ZERO,
    Conjugation,
    DualComplex,
    NonInvertibleError,
    QuadExt,
)
from support import random_dc, table_mul


def dc(one, i=0, eps=0, ieps=0):
    return DualComplex(Fraction(one), Fraction(i), Fraction(eps), Fraction(ieps))


def test_addition_example():
    assert dc(1, 2, 3, 4) + dc(1, 1, 1, 1) == dc(2, 3, 4, 5)


def test_additive_identity_and_inverse():
    rng = random.Random(1)
    for _ in range(50):
        w = random_dc(rng)
        assert w + DC_ZERO == w
        assert w - w == DC_ZERO


def test_basis_squares():
    assert DC_I * DC_I == -DC_ONE
    assert DC_EPS * DC_EPS == DC_ZERO
    assert DC_IEPS * DC_IEPS == DC_ZERO
    assert DC_I * DC_EPS == DC_IEPS
    assert DC_I * DC_IEPS == -DC_EPS


def test_square_fixture():
    assert dc(1, 2, 5, 12) * dc(1, 2, 5, 12) == dc(-3, 4, -38, 44)


def test_multiplication_agrees_with_table_oracle():
    rng = random.Random(42)
    for _ in range(1000):
        a, b = random_dc(rng), random_dc(rng)
        assert a * b == table_mul(a, b)


def test_ring_axioms_random():
    rng = random.Random(2718)
    for _ in range(1000):
        a, b, c = random_dc(rng), random_dc(rng), random_dc(rng)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * DC_ONE == a


def test_nilpotency_of_pure_dual_part():
    rng = random.Random(3)
    for _ in range(200):
        w = random_dc(rng)
        pure = DualComplex(Fraction(0), Fraction(0), w.dual, w.dual_imag)
        assert pure * pure == DC_ZERO


def test_scalar_scaling():
    assert dc(1, 1).scale(Fraction(2)) == dc(2, 2)
    assert 2 * dc(1, 1) == dc(2, 2)
    assert dc(1, 2, 3, 4).scale(Fraction(0)) == DC_ZERO
    rng = random.Random(4)
    for _ in range(100):
        lam = Fraction(rng.randint(-99, 99), rng.randint(1, 9))
        a, b = random_dc(rng), random_dc(rng)
        assert (a + b).scale(lam) == a.scale(lam) + b.scale(lam)


def test_self_division():
    w = dc(1, 2, 3, 4)
    assert w / w == DC_ONE


def test_division_fixture():
    # eps / (1+i) = eps/2 - i*eps/2
    assert DC_EPS / dc(1, 1) == dc(0, 0, Fraction(1, 2), Fraction(-1, 2))


def test_division_requires_invertible_complex_part():
    with pytest.raises(NonInvertibleError):
        dc(1, 2, 3, 4) / DC_EPS
    with pytest.raises(NonInvertibleError):
        dc(1) / dc(0, 0, 5, 7)


def test_division_roundtrip_random():
    rng = random.Random(777)
    done = 0
    while done < 500:
        a, b = random_dc(rng), random_dc(rng)
        if b.has_zero_complex_part():
            continue
        assert (a / b) * b == a
        done += 1


def test_conjugation_fixtures():
    w = dc(1, 2, 3, 4)
    assert w.conjugate(Conjugation.COMPLEX) == dc(1, -2, 3, -4)
    assert w.conjugate(Conjugation.DUAL) == dc(1, 2, -3, -4)
    assert w.conjugate(Conjugation.COUPLED) == dc(1, -2, -3, 4)
    assert w.conjugate(Conjugation.ANTI_DUAL) == dc(3, 4, -1, -2)


def test_involutions_and_composition():
    rng = random.Random(5)
    for _ in range(200):
        w = random_dc(rng)
        for kind in (Conjugation.COMPLEX, Conjugation.DUAL, Conjugation.COUPLED):
            assert w.conjugate(kind).conjugate(kind) == w
        via_both = w.conjugate(Conjugation.COMPLEX).conjugate(Conjugation.DUAL)
        assert via_both == w.conjugate(Conjugation.COUPLED)
        assert via_both == w.conjugate(Conjugation.DUAL).conjugate(Conjugation.COMPLEX)


def test_dual_complex_conjugation_guard():
    with pytest.raises(NonInvertibleError):
        dc(0, 0, 1, 2).conjugate(Conjugation.DUAL_COMPLEX)


def test_norm_products():
    w = dc(1, 2, 3, 4)
    # dual conjugation: the eps half cancels, leaving z1 squared
    assert w.norm_product(Conjugation.DUAL) == dc(-3, 4)
    assert w.norm_product(Conjugation.DUAL_COMPLEX) == dc(5)
    assert dc(1, 1).norm_product(Conjugation.COMPLEX) == dc(2)


def test_norm_product_structure_random():
    rng = random.Random(6)
    for _ in range(300):
        w = random_dc(rng)
        if w.has_zero_complex_part():
            continue
        r, i = w.complex_part()
        d, di = w.dual_part()
        norm_sq = r * r + i * i
        # complex conjugation: |z1|^2 + 2 eps Re(z1 conj(z2))
        assert w.norm_product(Conjugation.COMPLEX) == DualComplex(
            norm_sq, Fraction(0), 2 * (r * d + i * di), Fraction(0)
        )
        # coupled conjugation: |z1|^2 - 2 i eps Im(z1 conj(z2))
        assert w.norm_product(Conjugation.COUPLED) == DualComplex(
            norm_sq, Fraction(0), Fraction(0), 2 * (r * di - i * d)
        )
        # dual-complex conjugation always collapses to the pure scalar |z1|^2
        product = w.norm_product(Conjugation.DUAL_COMPLEX)
        assert product == DualComplex(norm_sq, Fraction(0), Fraction(0), Fraction(0))
        # anti-dual conjugation: z1 z2 + eps (z2^2 - z1^2)
        z1z2 = (r * d - i * di, r * di + i * d)
        z2sq = (d * d - di * di, 2 * d * di)
        z1sq = (r * r - i * i, 2 * r * i)
        assert w.norm_product(Conjugation.ANTI_DUAL) == DualComplex(
            z1z2[0], z1z2[1], z2sq[0] - z1sq[0], z2sq[1] - z1sq[1]
        )


def test_json_roundtrip():
    rng = random.Random(8)
    for _ in range(100):
        w = random_dc(rng)
        again = DualComplex.from_json_dict(w.to_json_dict())
        assert again == w
        assert again.to_json_dict() == w.to_json_dict()


def test_render():
    assert dc(0, 1, 2, 5).render() == "0 + 1·i + 2·eps + 5·i·eps"
    assert dc(Fraction(1, 2), -1).render() == "1/2 + -1·i + 0·eps + 0·i·eps"


@pytest.mark.parametrize("scalar", [int, Fraction])
def test_division_and_conjugation_never_yield_floats(scalar):
    # int coefficients must divide into Fractions, never into floats like -1.4000000000000001
    rng = random.Random(9)
    for _ in range(200):
        x = DualComplex(*(scalar(rng.randint(-50, 50)) for _ in range(4)))
        y = DualComplex(*(scalar(rng.randint(-50, 50)) for _ in range(4)))
        if y.has_zero_complex_part():
            continue
        quotient = x / y
        for result in [quotient] + [y.conjugate(kind) for kind in Conjugation]:
            assert not any(isinstance(c, float) for c in result.coefficients())
        assert quotient * y == x
        r, i = y.real, y.imag
        assert y.norm_product(Conjugation.DUAL_COMPLEX) == DualComplex(r * r + i * i, 0, 0, 0)


def test_int_division_is_exact():
    q = DualComplex(1, 2, 3, 4) / DualComplex(3, 1, 0, 5)
    assert q.coefficients() == (Fraction(1, 2), Fraction(1, 2), Fraction(9, 5), Fraction(-1, 10))
    assert DualComplex(1, 2, 3, 4).conjugate(Conjugation.DUAL_COMPLEX).dual == Fraction(-7, 5)


def test_repr_hash_and_equality_contract():
    w = DualComplex(1, 2, 3, 4)
    assert repr(w) == "DualComplex(real=1, imag=2, dual=3, dual_imag=4)"
    assert hash(w) == hash(w.coefficients())
    assert w != (1, 2, 3, 4)
    assert w == DualComplex(Fraction(1), 2, QuadExt(3, 0, 2), 4)
    assert hash(w) == hash(DualComplex(Fraction(1), 2, QuadExt(3, 0, 2), 4))


VALUES = [DualComplex(1, Fraction(-2, 3), QuadExt(1, 2, 3), 4), QuadExt(Fraction(1, 2), -3, 5)]


@pytest.mark.parametrize("value", VALUES, ids=["DualComplex", "QuadExt"])
def test_pickle_and_copy_round_trip(value):
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(value, protocol))
        assert type(again) is type(value) and again == value
    for again in (copy.copy(value), copy.deepcopy(value)):
        assert type(again) is type(value) and again == value


@pytest.mark.parametrize("value", VALUES, ids=["DualComplex", "QuadExt"])
def test_unknown_attribute_rejected(value):
    with pytest.raises(AttributeError):
        value.extra = 1


def test_operations_leave_operands_unchanged():
    rng = random.Random(10)
    sample = [random_dc(rng) for _ in range(40)]
    sample += [DualComplex(*(rng.randint(-9, 9) for _ in range(4))) for _ in range(40)]
    for a, b in zip(sample, reversed(sample)):
        before = (a.coefficients(), b.coefficients())
        results = [a + b, a - b, -a, a * b, a.scale(Fraction(3, 7)), a.scale(QuadExt(1, 1, 2))]
        if not b.has_zero_complex_part():
            results.append(a / b)
        for kind in Conjugation:
            if kind is not Conjugation.DUAL_COMPLEX or not a.has_zero_complex_part():
                results += [a.conjugate(kind), a.norm_product(kind)]
        assert all(type(r) is DualComplex for r in results)
        assert (a.coefficients(), b.coefficients()) == before
