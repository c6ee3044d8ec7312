"""Properties of the exact quadratic field Q(sqrt(d)) and of DualComplex over it and over Q.

Coefficients mix int and Fraction; the radicands are non-squares (2, 5, 7/3)
and perfect squares (4, 9/4), whose elements fold to b = 0.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualpell import Conjugation, DualComplex, QuadExt, rationalize
from support import table_mul

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=30)

NON_SQUARES = (2, 5, Fraction(7, 3))
SQUARES = (4, Fraction(9, 4))

rationals = st.one_of(
    st.integers(-60, 60),
    st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12)),
)


def elements(d):
    return st.builds(QuadExt, rationals, rationals, st.just(d))


@st.composite
def triples(draw, radicands=NON_SQUARES + SQUARES):
    d = draw(st.sampled_from(radicands))
    return tuple(draw(elements(d)) for _ in range(3))


@st.composite
def dual_complex_triples(draw):
    d = draw(st.sampled_from(NON_SQUARES + SQUARES))
    coefficient = st.one_of(rationals, elements(d))
    return tuple(
        DualComplex(*(draw(coefficient) for _ in range(4))) for _ in range(3)
    )


def assert_exact(x):
    """Every coefficient of x, a QuadExt or a DualComplex over them, is an int or a Fraction."""
    for c in x.coefficients() if isinstance(x, DualComplex) else (x,):
        parts = (c.a, c.b, c.d) if isinstance(c, QuadExt) else (c,)
        assert all(type(p) in (int, Fraction) for p in parts), x


@SEEDED
@given(triples())
def test_field_laws(xyz):
    x, y, z = xyz
    one = QuadExt(1, 0, x.d)
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x - x == 0 and x + 0 == x and x * one == x
    for value in (x + y, x - y, x * y, x**3, one - x):
        assert_exact(value)
    if x:
        inverse = 1 / x
        assert_exact(inverse)
        assert x * inverse == 1
        assert (y / x) * x == y
        assert x ** -2 * x**2 == 1


@SEEDED
@given(triples(SQUARES), st.integers(0, 5))
def test_folded_elements_stay_folded(xyz, n):
    x, y, z = xyz
    results = [x, x + y, x - y, x * y, x**n, -z, z.conjugate()]
    if y:
        results.append(x / y)
    assert all(r.b == 0 and r.is_rational for r in results)


@SEEDED
@given(triples())
def test_int_and_fraction_backed_elements_are_equal_and_hash_equal(xyz):
    x = xyz[0]
    mirror = QuadExt(Fraction(x.a), Fraction(x.b), Fraction(x.d))
    assert mirror == x and x == mirror
    assert hash(mirror) == hash(x)
    assert mirror * xyz[1] == x * xyz[1]
    if x.b == 0:
        assert x == x.a and hash(x) == hash(x.a)


@SEEDED
@given(dual_complex_triples())
def test_dual_complex_ring_laws_over_quadratic_coefficients(xyz):
    x, y, z = xyz
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    product = x * y
    assert_exact(product)
    assume(not y.has_zero_complex_part())
    quotient = x / y
    assert_exact(quotient)
    assert quotient * y == x


fraction_values = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
# int, integral and non-integral Fraction, zero and negatives included
mixed = st.one_of(
    st.integers(-60, 60),
    st.builds(Fraction, st.integers(-60, 60)),
    fraction_values,
    st.sampled_from([0, Fraction(0)]),
)
mixed_dual_complex = st.builds(DualComplex, mixed, mixed, mixed, mixed)
int_dual_complex = st.builds(DualComplex, *[st.integers(-60, 60)] * 4)
fraction_dual_complex = st.builds(DualComplex, *[fraction_values] * 4)


@SEEDED
@given(mixed_dual_complex, mixed_dual_complex)
def test_products_over_q_match_the_table_oracle(x, y):
    product = x * y
    assert product == table_mul(x, y) == y * x
    assert_exact(product)


@SEEDED
@given(int_dual_complex, fraction_dual_complex)
def test_int_times_rational_products_match_the_table_oracle(x, y):
    product = x * y
    assert product == table_mul(x, y) == y * x
    assert_exact(product)


def test_quadext_beside_fraction_coefficients_takes_the_ring_expression():
    x = DualComplex(QuadExt(1, 2, 3), Fraction(1, 2), 0, Fraction(-5, 4))
    y = DualComplex(Fraction(2, 3), 1, QuadExt(0, Fraction(1, 3), 3), Fraction(-1, 4))
    product = x * y
    assert product == table_mul(x, y) == y * x
    assert_exact(product)


@SEEDED
@given(st.one_of(mixed_dual_complex, int_dual_complex), st.integers(-60, 60))
def test_scaling_by_an_integral_fraction_is_scaling_by_its_int(w, n):
    scaled = w.scale(Fraction(n))
    assert scaled == w.scale(n) == w * Fraction(n) == Fraction(n) * w
    assert_exact(scaled)
    if all(type(c) is int for c in w.coefficients()):
        assert all(type(c) is int for c in scaled.coefficients()), scaled


@SEEDED
@given(mixed_dual_complex, st.sampled_from(NON_SQUARES))
def test_dual_complex_conjugate_over_q_matches_the_quadratic_route(w, d):
    assume(not w.has_zero_complex_part())
    conj = w.conjugate(Conjugation.DUAL_COMPLEX)
    lifted = DualComplex(*(QuadExt(c, 0, d) for c in w.coefficients()))
    route = lifted.conjugate(Conjugation.DUAL_COMPLEX)
    assert conj == DualComplex(*(rationalize(c) for c in route.coefficients()))
    assert w * conj == DualComplex(w.real**2 + w.imag**2, 0, 0, 0)
    assert_exact(conj)
