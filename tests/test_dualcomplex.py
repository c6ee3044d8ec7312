"""Ring behaviour of dual-complex numbers: products, division, conjugations."""

import copy
import dataclasses
import inspect
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from support import SEEDED, dual_complex_conjugate, random_dc, table_mul


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
    assert w == DualComplex(Fraction(1), 2, Fraction(3), 4)
    assert hash(w) == hash(DualComplex(Fraction(1), 2, Fraction(3), 4))
    # a value holding its cleared form shows only the four fields
    half = dc(1, 2, 3, 4).scale(Fraction(1, 2))
    assert half._form == (1, 2, 3, 4, 2)
    assert repr(half) == (
        "DualComplex(real=Fraction(1, 2), imag=Fraction(1, 1), dual=Fraction(3, 2), dual_imag=Fraction(2, 1))"
    )
    assert hash(half) == hash(half.coefficients()) and half != (1, 2, 3, 4, 2)
    names = ("real", "imag", "dual", "dual_imag")
    assert tuple(f.name for f in dataclasses.fields(half)) == names
    assert DualComplex.__match_args__ == names
    assert tuple(inspect.signature(DualComplex).parameters) == names


VALUES = [DualComplex(1, Fraction(-2, 3), Fraction(1, 2), 4), QuadExt(Fraction(1, 2), -3, 5)]


@pytest.mark.parametrize("value", VALUES + [dc(1, 2, 3, 4).scale(Fraction(1, 6)),
                                             DualComplex(Fraction(1, 2), Fraction(3), Fraction(0), Fraction(-5, 4)),
                                             DualComplex(Fraction(2), 0, Fraction(3), 1)],
                         ids=["DualComplex", "QuadExt", "DualComplex over Q with its form",
                              "given Fractions over d > 1", "given coefficients over d = 1"])
def test_pickle_and_copy_round_trip(value):
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(value, protocol))
        assert type(again) is type(value) and again == value
    for again in (copy.copy(value), copy.deepcopy(value)):
        assert type(again) is type(value) and again == value
        assert getattr(again, "_form", None) == getattr(value, "_form", None)
        assert getattr(again, "_c", None) == getattr(value, "_c", None)


@pytest.mark.parametrize("value", VALUES, ids=["DualComplex", "QuadExt"])
def test_unknown_attribute_rejected(value):
    with pytest.raises(AttributeError):
        value.extra = 1


# values over Q that hold their cleared form alone: the kernels' results, and four Fractions over d > 1
FORM_ONLY = {
    "+": lambda: dc(Fraction(1, 2), 1) + dc(0, Fraction(1, 3), 5, -7),
    "-": lambda: dc(3, Fraction(5, 4)) - dc(0, 0, Fraction(-1, 6)),
    "scale": lambda: dc(1, 2, 3, 4).scale(Fraction(1, 6)),
    "*": lambda: dc(Fraction(1, 2), 1, 3) * dc(2, Fraction(-1, 3), 0, 1),
    "/": lambda: DualComplex(1, 2, 3, 4) / DualComplex(3, 1, 0, 5),
    "dual-complex conjugate": lambda: dc(Fraction(1, 2), 1, 3, 4).conjugate(Conjugation.DUAL_COMPLEX),
    "anti-dual conjugate": lambda: dc(1, 2, 3, 4).scale(Fraction(1, 6)).conjugate(Conjugation.ANTI_DUAL),
    "given Fractions over d > 1": lambda: DualComplex(Fraction(1, 2), Fraction(3), Fraction(0), Fraction(-5, 4)),
}


def unread(w):
    """True while w holds its form alone: no coefficient has been read or built."""
    return w._c is None


@pytest.mark.parametrize("make", FORM_ONLY.values(), ids=FORM_ONLY)
def test_a_value_holding_its_form_alone_matches_its_eager_rebuild(make):
    def fresh():
        w = make()
        assert unread(w)
        return w

    eager = DualComplex(*fresh().coefficients())
    w = fresh()
    assert w == eager and eager == w and w != eager + DC_ONE and unread(w)  # == compares forms
    assert hash(fresh()) == hash(eager)
    assert repr(fresh()) == repr(eager) and str(fresh().render()) == str(eager.render())
    assert fresh().to_json_dict() == eager.to_json_dict()
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(fresh(), protocol))
        assert unread(again) and again == eager and eager == again
        assert repr(again) == repr(eager) and hash(again) == hash(eager)
    for again in (copy.copy(fresh()), copy.deepcopy(fresh())):
        assert again == eager and repr(again) == repr(eager)
    assert dataclasses.astuple(fresh()) == dataclasses.astuple(eager)
    assert dataclasses.replace(fresh(), imag=7) == dataclasses.replace(eager, imag=7)
    match fresh():
        case DualComplex(real=r, imag=i, dual=d, dual_imag=di):
            assert (r, i, d, di) == eager.coefficients()
        case _:
            pytest.fail("a DualComplex pattern did not match")


def test_the_zero_test_and_division_read_forms_alone(monkeypatch):
    """has_zero_complex_part and / answer from the forms, building no coefficient."""
    v, zero = dc(1, 2, 3, 4).scale(Fraction(1, 6)), dc(0, 0, 3, 4).scale(Fraction(1, 6))
    w = dc(Fraction(1, 2), 1, 3).scale(Fraction(2, 7))
    assert v.has_zero_complex_part() is False and zero.has_zero_complex_part() is True
    assert unread(v) and unread(zero)
    monkeypatch.setattr(DualComplex, "coefficients", lambda self: pytest.fail(f"{self._form} was read"))
    quotient = w / v
    with pytest.raises(NonInvertibleError):
        w / zero
    monkeypatch.undo()
    assert unread(w) and unread(v) and unread(quotient) and quotient * v == w


def test_an_int_value_holds_its_form_with_d_1_and_given_coefficients_keep_their_type():
    value = DualComplex(2, 0, 1, 0)
    assert value._form == (2, 0, 1, 0, 1) and value._c is None
    assert all(type(c) is int for c in value.coefficients()) and value._c is None
    given = DualComplex(Fraction(2), 0, 1, 0)
    assert given.coefficients() == (2, 0, 1, 0) and type(given.real) is Fraction
    assert given == value and given._form == value._form
    assert type(given.real) is Fraction and type(given.imag) is int
    made = [value * value, value - value, -value, value.conjugate(Conjugation.ANTI_DUAL), value * given,
            value.scale(Fraction(1, 2)), given, *(make() for make in FORM_ONLY.values())]
    for w in made:  # every value holds its cleared form, whatever made it
        assert type(w._form) is tuple and len(w._form) == 5 and all(type(n) is int for n in w._form), w


@pytest.mark.parametrize("coefficients, form, kept", [
    ((Fraction(1, 2), Fraction(3), Fraction(0), Fraction(-5, 4)), (2, 12, 0, -5, 4), False),
    ((Fraction(1, 2), 3, Fraction(0), Fraction(-5, 4)), (2, 12, 0, -5, 4), True),
    ((Fraction(2), Fraction(0), Fraction(3), Fraction(1)), (2, 0, 3, 1, 1), True),
    ((Fraction(2), 0, Fraction(3), 1), (2, 0, 3, 1, 1), True),
    ((2, 0, 3, 1), (2, 0, 3, 1, 1), False),
], ids=["four Fractions over d > 1", "an int among them", "four Fractions over d = 1", "mixed over d = 1",
        "four ints"])
def test_a_value_over_q_is_cleared_when_made(coefficients, form, kept):
    """Every value over Q holds its form from the start; only a value whose form reads back other types keeps them."""
    w = DualComplex(*coefficients)
    assert w._form == form
    assert (w._c is not None) == kept
    if kept:
        assert w._c == coefficients and all(type(a) is type(b) for a, b in zip(w._c, coefficients))
    read = w.coefficients()
    assert read == coefficients and all(type(a) is type(b) for a, b in zip(read, coefficients))


@pytest.mark.parametrize("coefficients", [(Fraction(2), 0, Fraction(3), 1),
                                          (Fraction(1, 2), Fraction(3), 0, Fraction(-5, 4))])
@pytest.mark.parametrize("kind", [Conjugation.COMPLEX, Conjugation.DUAL, Conjugation.COUPLED,
                                  Conjugation.ANTI_DUAL])
def test_a_signed_conjugate_does_not_depend_on_an_earlier_comparison(coefficients, kind):
    w = DualComplex(*coefficients)
    before = repr(w.conjugate(kind))
    assert w == w
    assert repr(w.conjugate(kind)) == before == repr(DualComplex(*coefficients).conjugate(kind))


@pytest.mark.parametrize("make", [lambda: DualComplex(1, 2, 3, 4), lambda: dc(Fraction(1, 2), 1, 3, 4),
                                  FORM_ONLY["*"]], ids=["int", "Fraction", "form alone"])
def test_fields_are_read_only(make):
    value = make()
    before = DualComplex(*make().coefficients())
    for name in ("real", "imag", "dual", "dual_imag"):
        with pytest.raises(AttributeError):
            setattr(value, name, 5)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == repr(before) and value == before


def test_operations_leave_operands_unchanged():
    rng = random.Random(10)
    sample = [random_dc(rng) for _ in range(40)]
    sample += [DualComplex(*(rng.randint(-9, 9) for _ in range(4))) for _ in range(40)]
    for a, b in zip(sample, reversed(sample)):
        before = (a.coefficients(), b.coefficients())
        results = [a + b, a - b, -a, a * b, a.scale(Fraction(3, 7))]
        if not b.has_zero_complex_part():
            results.append(a / b)
        for kind in Conjugation:
            if kind is not Conjugation.DUAL_COMPLEX or not a.has_zero_complex_part():
                results += [a.conjugate(kind), a.norm_product(kind)]
        assert all(type(r) is DualComplex for r in results)
        assert (a.coefficients(), b.coefficients()) == before


small_ints = st.integers(-30, 30)
small_fractions = st.builds(Fraction, small_ints, st.integers(1, 12))
COEFFICIENTS = {
    "int": small_ints,
    "Fraction": small_fractions,
    "mixed": st.one_of(small_ints, small_fractions),
}
operands = st.sampled_from(sorted(COEFFICIENTS)).flatmap(
    lambda kind: st.tuples(*[COEFFICIENTS[kind]] * 4).map(lambda c: DualComplex(*c))
)
scalars = st.one_of(small_ints, small_fractions)
OPS = ("+", "-", "neg", "scale", "*", "/", *Conjugation)


def reference_conjugate(w, kind):
    """conj(w) slot by slot in the coefficients' own arithmetic, from the Conjugation table."""
    if kind is Conjugation.DUAL_COMPLEX:
        return dual_complex_conjugate(w)
    r, i, d, di = w.coefficients()
    return {Conjugation.COMPLEX: (r, -i, d, -di), Conjugation.DUAL: (r, i, -d, -di),
            Conjugation.COUPLED: (r, -i, -d, di), Conjugation.ANTI_DUAL: (d, di, -r, -i)}[kind]


def reference(op, x, y, s):
    """op on plain coefficient tuples, with table_mul for products; never a cleared form."""
    xs, ys = x.coefficients(), y.coefficients()
    if op in ("+", "-"):
        sign = 1 if op == "+" else -1
        return tuple(a + sign * b for a, b in zip(xs, ys))
    if op == "neg":
        return tuple(-a for a in xs)
    if op == "scale":
        return tuple(s * a for a in xs)
    if op == "*":
        return table_mul(x, y).coefficients()
    if op == "/":
        y1, y2 = y.complex_part()
        inv = Fraction(1) / (y1 * y1 + y2 * y2)
        conj = DualComplex(*reference_conjugate(y, Conjugation.DUAL_COMPLEX))
        return tuple(c * inv for c in table_mul(x, conj).coefficients())
    return reference_conjugate(x, op)


def apply(op, x, y, s):
    if op in ("+", "-", "*", "/"):
        return {"+": x.__add__, "-": x.__sub__, "*": x.__mul__, "/": x.__truediv__}[op](y)
    if op == "neg":
        return -x
    return x.scale(s) if op == "scale" else x.conjugate(op)


@SEEDED
@given(operands, st.lists(st.tuples(st.sampled_from(OPS), operands, scalars), min_size=2, max_size=4))
def test_chained_operations_match_plain_references(start, steps):
    value, plain = start, DualComplex(*start.coefficients())
    for op, other, s in steps:
        divisor = other if op == "/" else value
        if op in ("/", Conjugation.DUAL_COMPLEX) and divisor.has_zero_complex_part():
            op = "+"
        expected = DualComplex(*reference(op, plain, DualComplex(*other.coefficients()), s))
        result = apply(op, value, other, s)
        assert type(result) is DualComplex and result == expected
        rebuilt = DualComplex(*result.coefficients())
        assert result == rebuilt and rebuilt.scale(1) == result and result != result + DC_ONE
        assert hash(result) == hash(rebuilt) and repr(result) == repr(rebuilt)
        *numerators, d = result._form
        assert math.gcd(*numerators, d) == 1
        assert result.coefficients() == tuple(Fraction(n, d) for n in numerators)
        if d == 1:
            assert all(type(c) is int for c in result.coefficients()), (op, result)
        value, plain = result, expected


@SEEDED
@given(operands, st.lists(st.tuples(st.sampled_from(OPS), operands, scalars, st.integers(0, 5)),
                          min_size=2, max_size=5))
def test_unread_results_feed_the_next_kernel(start, steps):
    """Chains in which no coefficient is read between steps; the other operand may be an earlier result."""
    history = [(start, DualComplex(*start.coefficients()))]
    for op, operand, s, pick in steps:
        value, plain = history[-1]
        other, plain_other = history[pick - 1] if 0 < pick <= len(history) else (operand, operand)
        divisor = plain_other if op == "/" else plain
        if op in ("/", Conjugation.DUAL_COMPLEX) and divisor.has_zero_complex_part():
            op = "+"
        was_unread = [w for w in (value, other) if unread(w)]
        result = apply(op, value, other, s)
        assert type(result) is DualComplex
        # the kernels read forms, never coefficients
        assert all(unread(w) for w in was_unread), op
        assert unread(result), op
        history.append((result, DualComplex(*reference(op, plain, plain_other, s))))
    for result, expected in history:
        assert result == expected and expected == result
    for result, expected in history:
        assert hash(result) == hash(expected) and result.coefficients() == expected.coefficients()
