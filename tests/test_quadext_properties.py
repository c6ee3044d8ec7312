"""Properties of the exact quadratic field Q(sqrt(d)), and of DualComplex over Q.

Coefficients mix int and Fraction; the radicands are non-squares (2, 5, 7/3)
and perfect squares (4, 9/4), whose elements fold to b = 0.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualpell import Conjugation, DualComplex, QuadExt
from support import SEEDED, dual_complex_conjugate, table_mul

FEW = settings(SEEDED, max_examples=30)

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


def assert_exact(x):
    """Every coefficient of x, a QuadExt or a DualComplex, is an int or a Fraction."""
    for c in x.coefficients() if isinstance(x, DualComplex) else (x,):
        parts = (c.a, c.b, c.d) if isinstance(c, QuadExt) else (c,)
        assert all(type(p) in (int, Fraction) for p in parts), x


@FEW
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


@FEW
@given(triples(SQUARES), st.integers(0, 5))
def test_folded_elements_stay_folded(xyz, n):
    x, y, z = xyz
    results = [x, x + y, x - y, x * y, x**n, -z, z.conjugate()]
    if y:
        results.append(x / y)
    assert all(r.b == 0 and r.is_rational for r in results)


@FEW
@given(triples())
def test_int_and_fraction_backed_elements_are_equal_and_hash_equal(xyz):
    x = xyz[0]
    mirror = QuadExt(Fraction(x.a), Fraction(x.b), Fraction(x.d))
    assert mirror == x and x == mirror
    assert hash(mirror) == hash(x)
    assert mirror * xyz[1] == x * xyz[1]
    if x.b == 0:
        assert x == x.a and hash(x) == hash(x.a)


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


@FEW
@given(mixed_dual_complex, mixed_dual_complex)
def test_products_over_q_match_the_table_oracle(x, y):
    product = x * y
    assert product == table_mul(x, y) == y * x
    assert_exact(product)


@FEW
@given(int_dual_complex, fraction_dual_complex)
def test_int_times_rational_products_match_the_table_oracle(x, y):
    product = x * y
    assert product == table_mul(x, y) == y * x
    assert_exact(product)


@FEW
@given(st.one_of(mixed_dual_complex, int_dual_complex), st.integers(-60, 60))
def test_scaling_by_an_integral_fraction_is_scaling_by_its_int(w, n):
    scaled = w.scale(Fraction(n))
    assert scaled == w.scale(n) == w * Fraction(n) == Fraction(n) * w
    assert_exact(scaled)
    if all(type(c) is int for c in w.coefficients()):
        assert all(type(c) is int for c in scaled.coefficients()), scaled


@FEW
@given(mixed_dual_complex)
def test_dual_complex_conjugate_over_q_matches_the_fraction_oracle(w):
    assume(not w.has_zero_complex_part())
    conj = w.conjugate(Conjugation.DUAL_COMPLEX)
    assert conj == DualComplex(*dual_complex_conjugate(w))
    assert w * conj == DualComplex(w.real**2 + w.imag**2, 0, 0, 0)
    assert_exact(conj)
