"""Spot values for catalog entries and binding validation.

All expected tuples were computed independently by term-by-term basis-table
expansion over plain Fractions before being frozen here.
"""

import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dualpell import (
    CATALOG,
    DualComplex,
    IdentityId,
    as_dual_complex,
    check_one,
    identity_sides,
    required_bindings,
)
from dualpell.identities import _dot, _neg_k_pow, _prod, _sides_g19_stated, _vajda, _vajda_p
from dualpell.scalars import positive_k
from dualpell.sequences import Terms
from support import SEEDED, shown, sides_digests

DATA_DIR = Path(__file__).parent / "data"


def dc(one, i=0, eps=0, ieps=0):
    return DualComplex(Fraction(one), Fraction(i), Fraction(eps), Fraction(ieps))


def bindings(k=None, **ints):
    out = dict(ints)
    if k is not None:
        out["k"] = Fraction(k)
    return out


def test_catalog_covers_expected_tags():
    tags = {ident.value for ident in CATALOG}
    assert {"f12s", "f12raw", "f22s", "f31", "g9", "g13", "g17", "g18",
            "g19stated", "g19proof", "helper_honsberger", "helper_docagne",
            "helper_cassini", "f14kernel", "ring_axioms", "div_roundtrip",
            "binet_number", "binet_quaternion", "prefix_sum"} <= tags
    assert len(CATALOG) == 40


def test_cassini_fixture():
    equal, lhs, rhs = check_one(IdentityId.G18, bindings(k=1, n=1))
    assert equal
    assert lhs == dc(-2, -2, -12, -12)


def test_honsberger_fixture():
    equal, lhs, rhs = check_one(IdentityId.G13, bindings(k=1, n=1, m=0))
    assert equal
    assert lhs == dc(-4, 4, -48, 48)


def test_docagne_fixture():
    equal, lhs, rhs = check_one(IdentityId.G17, bindings(k=1, n=0, m=1))
    assert equal
    assert lhs == dc(2, 2, 12, 12)


def test_catalan_proof_orientation_fixture():
    equal, lhs, rhs = check_one(IdentityId.G19PROOF, bindings(k=1, n=2, r=2))
    assert equal
    assert lhs == dc(-8, -8, -48, -48)


def test_catalan_stated_orientation_mismatch():
    equal, lhs, rhs = check_one(IdentityId.G19STATED, bindings(k=1, n=2, r=2))
    assert not equal
    assert lhs == dc(8, 8, 48, 48)
    assert rhs == dc(-8, -8, -48, -48)


def test_sum_fixture():
    equal, lhs, rhs = check_one(IdentityId.G14, bindings(k=2, n=2))
    assert equal
    assert lhs == dc(3, 9, 24, 66)


def test_docagne_with_negative_difference():
    # m < n drives the closed side through negative sequence indices
    for n in range(0, 6):
        for m in range(0, n):
            equal, _, _ = check_one(IdentityId.G17, bindings(k=3, n=n, m=m))
            assert equal


def test_f31_counterexample_values():
    equal, lhs, rhs = check_one(IdentityId.F31, bindings(k=2, n=1))
    assert not equal
    assert lhs.real == 8
    assert rhs.real == 6
    equal, _, _ = check_one(IdentityId.F31, bindings(k=1, n=3))
    assert equal


def test_f12s_counterexample_values():
    equal, lhs, rhs = check_one(IdentityId.F12S, bindings(k=2, n=1))
    assert not equal
    # cross sum P1 P3 + P2 P4 = 38 against P5 = 44, each doubled in the eps slot
    assert lhs.dual == 2 * 38
    assert rhs.dual == 2 * 44
    equal, _, _ = check_one(IdentityId.F12S, bindings(k=2, n=0))
    assert equal


def test_f12raw_holds_where_simplified_breaks():
    for n in range(0, 8):
        equal, _, _ = check_one(IdentityId.F12RAW, bindings(k=2, n=n))
        assert equal


def test_g11_sides_agree_and_equal_twice_g13():
    # Q_{n+1} - kQ_{n-1} = 2Q_n factors the left side into twice g13's at m = n
    equal, lhs, rhs = check_one(IdentityId.G11, bindings(k=1, n=1))
    assert equal
    assert lhs == dc(-20, 20, -232, 232)
    assert rhs == lhs
    equal, lhs, rhs = check_one(IdentityId.G11, bindings(k=1, n=0))
    assert equal
    assert lhs == dc(-4, 4, -40, 40)
    assert rhs == lhs
    for k in (1, 2, 3, Fraction(1, 2), Fraction(5, 2)):
        for n in range(0, 6):
            equal, _, rhs = check_one(IdentityId.G11, bindings(k=k, n=n))
            _, g13_rhs = identity_sides(IdentityId.G13, bindings(k=k, n=n, m=n))
            assert equal, (k, n)
            assert rhs == g13_rhs.scale(Fraction(2)), (k, n)


def test_helper_identities_embed_scalars():
    equal, lhs, rhs = check_one(IdentityId.HELPER_CASSINI, bindings(k=2, n=3))
    assert equal
    assert lhs.imag == 0 and lhs.dual == 0 and lhs.dual_imag == 0
    # P2 P4 - P3^2 = 32 - 36 = -4 = (-1)^3 2^2
    assert lhs.real == -4


def test_f14_kernel_values():
    equal, lhs, rhs = check_one(IdentityId.F14KERNEL, bindings(k=2, n=1))
    assert equal
    # P1 P4 - P2 P3 = 16 - 12 = 4 = -2 (-1)^1 2^1
    assert lhs.real == 4


def test_sample_entries_are_deterministic():
    for ident in (IdentityId.RING_AXIOMS, IdentityId.DIV_ROUNDTRIP):
        first = identity_sides(ident, bindings(n=17))
        second = identity_sides(ident, bindings(n=17))
        assert first == second
        equal, _, _ = check_one(ident, bindings(n=17))
        assert equal


def test_unknown_id_rejected():
    assert IdentityId.from_tag(" G13\n") is IdentityId.G13
    for tag in ("g99", "g13\x1c", "\x1eg13", "g13\xa0", "\u3000g13"):
        with pytest.raises(ValueError):
            IdentityId.from_tag(tag)


def test_missing_binding_rejected():
    with pytest.raises(ValueError, match="missing"):
        identity_sides(IdentityId.G18, bindings(k=1))


def test_extra_binding_rejected():
    with pytest.raises(ValueError, match="unexpected"):
        identity_sides(IdentityId.G18, bindings(k=1, n=1, m=2))
    with pytest.raises(ValueError):
        identity_sides(IdentityId.RING_AXIOMS, bindings(k=1, n=1))


def test_range_violation_rejected():
    with pytest.raises(ValueError, match="out of range"):
        identity_sides(IdentityId.G18, bindings(k=1, n=0))
    with pytest.raises(ValueError, match="out of range"):
        identity_sides(IdentityId.G19PROOF, bindings(k=1, n=2, r=3))
    with pytest.raises(ValueError, match="out of range"):
        identity_sides(IdentityId.G13, bindings(k=1, n=-1, m=0))


def test_nonpositive_k_rejected():
    with pytest.raises(ValueError):
        identity_sides(IdentityId.G18, bindings(k=0, n=1))


@pytest.mark.parametrize(
    "ident, bad",
    [
        (IdentityId.G9, {"k": 1, "n": 1.7}),
        (IdentityId.G9, {"k": 1, "n": "3"}),
        (IdentityId.G13, {"k": 1, "n": 1, "m": Fraction(2)}),
        (IdentityId.G19PROOF, {"k": 1, "n": 2, "r": 1.0}),
        (IdentityId.G9, {"k": 0.1, "n": 1}),
        (IdentityId.G9, {"k": "2", "n": 1}),
        (IdentityId.RING_AXIOMS, {"n": 0.5}),
        (IdentityId.G9, {"k": 1, "n": True}),
        (IdentityId.G13, {"k": 1, "n": 1, "m": False}),
        (IdentityId.G9, {"k": [2], "n": 1}),
    ],
)
def test_non_integral_or_inexact_bindings_rejected(ident, bad):
    with pytest.raises(ValueError) as raised:
        identity_sides(ident, bad)
    # Where the bad binding is m or r, the message names it.
    for name in ("m", "r"):
        if name in bad:
            assert str(raised.value) == f"{name} must be int, got {bad[name]!r}"


def test_int_and_fraction_bindings_accepted():
    assert identity_sides(IdentityId.G9, {"k": 2, "n": 3}) == identity_sides(
        IdentityId.G9, {"k": Fraction(2), "n": 3}
    )


NOT_AN_ID = ["g18", "G18", 18, None]


@pytest.mark.parametrize("ident", NOT_AN_ID)
def test_identity_sides_rejects_an_id_that_is_not_an_identity_id(ident):
    with pytest.raises(ValueError, match="identity must be an IdentityId"):
        identity_sides(ident, bindings(k=1, n=1))


@pytest.mark.parametrize("ident", NOT_AN_ID)
def test_required_bindings_rejects_an_id_that_is_not_an_identity_id(ident):
    with pytest.raises(ValueError, match="identity must be an IdentityId"):
        required_bindings(ident)


@pytest.mark.parametrize("tag", [None, 18, b"g18", IdentityId.G18])
def test_from_tag_rejects_a_non_str(tag):
    with pytest.raises(TypeError, match="identity tag must be str"):
        IdentityId.from_tag(tag)


def test_sides_are_pinned_byte_for_byte():
    # repr, JSON and coefficient types of both sides of every k-entry; see support.sides_digests
    pinned = json.loads((DATA_DIR / "sides_digests.json").read_text(encoding="utf-8"))
    assert sides_digests() == pinned


ks = st.one_of(st.integers(1, 6), st.builds(Fraction, st.integers(1, 9), st.integers(2, 9)))


def assert_exact(*sides):
    for side in map(as_dual_complex, sides):
        assert all(type(c) in (int, Fraction) for c in side.coefficients()), side


def assert_exact_and_equal(lhs, rhs):
    assert lhs == rhs
    assert_exact(lhs, rhs)


@SEEDED
@given(ks, st.integers(-6, 9), st.integers(-6, 9), st.integers(-6, 9), st.sampled_from((1, -1)))
def test_vajda_holds_at_every_index(k, n, i, j, sign):
    t = Terms(positive_k(k))
    assert_exact_and_equal(*_vajda(t, n, i, j, sign))
    assert_exact_and_equal(*_vajda_p(t, n, i, j, sign))


# Fractions with small denominators often share one, and Fraction(n, 1) is
# not an int: P_-1 at k = 1 is Fraction(1).
scalars = st.one_of(
    st.integers(-(10**20), 10**20),
    st.builds(Fraction, st.integers(-(10**20), 10**20), st.integers(1, 6)),
    st.sampled_from((0, Fraction(0), Fraction(1), Fraction(-1), -1)),
)


@SEEDED
@given(scalars, scalars, scalars, scalars, st.sampled_from((1, -1)))
def test_dot_is_the_plain_expression_with_its_exact_type(a, b, c, d, sign):
    plain = a * b + sign * c * d
    value = _dot(a, b, c, d, sign)
    assert value == plain and type(value) is type(plain)


@SEEDED
@given(scalars, scalars, st.sampled_from((1, -1, 2, 3, -4)))
@example(3, 4, 1)
@example(Fraction(6), 1, 1)
@example(Fraction(3, 2), 2, 1)
@example(2, Fraction(3, 2), -1)
def test_prod_is_the_plain_product_with_its_exact_type(a, b, s):
    plain = s * a * b
    value = _prod(a, b, s)
    assert value == plain and type(value) is type(plain)


@pytest.mark.parametrize("k", [1, 2, 3, Fraction(1, 2), Fraction(3, 2), Fraction(7, 4), Fraction(22, 7)],
                         ids=str)
def test_neg_k_pow_is_the_plain_power_with_its_exact_type(k):
    t = Terms(k)
    for j in range(-40, 41):
        plain = (-k) ** j if type(k) is int and j >= 0 else Fraction(-k) ** j
        value = _neg_k_pow(t, j)
        assert value == plain and type(value) is type(plain), j


@SEEDED
@given(ks, st.integers(-6, 9), st.integers(-6, 9), st.integers(-6, 9), st.sampled_from((1, -1)))
@example(2, 3, -2, -1, 1)
@example(Fraction(3, 2), 3, -2, -4, -1)
def test_vajda_right_side_is_gamma_scaled_by_the_product_of_its_scalars(k, n, i, j, sign):
    # the reference scales gamma once, by the one scalar (-k)^n sign P_i P_j
    t = Terms(positive_k(k))
    expected = t.gamma.scale(_neg_k_pow(t, n) * (sign * t.p(i) * t.p(j)))
    assert shown(_vajda(t, n, i, j, sign)[1]) == shown(expected)
    r = i % 7 + 1  # g19stated reads gamma P_r^2 the same way
    expected = t.gamma.scale(_neg_k_pow(t, n - r + 1) * t.p(r) ** 2)
    assert shown(_sides_g19_stated(t, n, r)[1]) == shown(expected)


@SEEDED
@given(ks, st.integers(-6, 9), st.integers(-6, 9), st.integers(-6, 9))
def test_vajda_p_at_sign_minus_one_negates_both_sides_with_their_types(k, n, i, j):
    t = Terms(positive_k(k))
    lhs, rhs = _vajda_p(t, n, i, j, 1)
    neg_lhs, neg_rhs = _vajda_p(t, n, i, j, -1)
    plain = t.p(n) * t.p(n + i + j) - t.p(n + i) * t.p(n + j)
    assert neg_lhs == plain and type(neg_lhs) is type(plain)
    assert (neg_lhs, neg_rhs) == (-lhs, -rhs)
    assert type(lhs) is type(plain)


# What each k-entry does on the tuples its pre rejects. Every entry not named
# below holds there, exact at integer k too: the engine gives every term at a
# negative index, P_-j = -P_j / (-k)^j, and the signed power (-k)^j stays exact.
HOLDS_ONLY_WHERE = {
    # The paper's simplified eps slot 2P_{2n+3} is right at k = 1 only; at
    # n = -2 both slots read 2P_-1, since P_0 = 0.
    IdentityId.F12S: lambda k, n: k == 1 or n == -2,
    IdentityId.F22S: lambda k, n: k == 1 or n == -2,
    IdentityId.F31: lambda k, n: k == 1,
    # The misstated Catalan form has one power of -k too many, so it holds only where P_r = 0.
    IdentityId.G19STATED: lambda k, n, r: r == 0,
}
# (exception, the largest n that raises it): g14 sums P_0..P_n, which
# Terms.sum_to takes for n >= -1, and seq_prefix_sum rejects a negative n.
# The Binet routes hold at every n.
RAISES_UP_TO = {
    IdentityId.G14: (ValueError, -2),
    IdentityId.PREFIX_SUM: (ValueError, -1),
}
K_ENTRIES = tuple(ident for ident, entry in CATALOG.items() if entry.uses_k)


@SEEDED
@given(ks, st.integers(-12, 12), st.integers(-12, 12))
def test_every_entry_outside_its_range_matches_the_table(k, a, b):
    t = Terms(positive_k(k))
    for ident in K_ENTRIES:
        entry = CATALOG[ident]
        values = (a, b)[: len(entry.params)]
        if entry.pre(*values):
            continue
        error, top = RAISES_UP_TO.get(ident, (None, None))
        if error is not None and a <= top:
            with pytest.raises(error):
                entry.sides(t, *values)
            continue
        lhs, rhs = entry.sides(t, *values)
        assert_exact(lhs, rhs)
        holds = HOLDS_ONLY_WHERE.get(ident, lambda *_: True)(k, *values)
        assert (lhs == rhs) == holds, (ident, lhs, rhs)


# The entries whose sides are plain int/Fraction scalars: the sweep compares
# them as they are, and as_dual_complex wraps them where a reader sees them.
SCALAR_ENTRIES = (
    IdentityId.HELPER_HONSBERGER,
    IdentityId.HELPER_DOCAGNE,
    IdentityId.HELPER_CASSINI,
    IdentityId.F14KERNEL,
    IdentityId.BINET_NUMBER,
    IdentityId.PREFIX_SUM,
)


def _in_range(entry):
    """A few tuples the entry's pre admits, m below n among them."""
    return [v for v in itertools.product((1, 2, 4), repeat=len(entry.params)) if entry.pre(*v)]


@pytest.mark.parametrize("k", [2, Fraction(3, 2)])
def test_both_sides_of_every_k_entry_are_of_one_kind(k):
    t = Terms(k)
    scalar = set()
    for ident in K_ENTRIES:
        entry = CATALOG[ident]
        for values in _in_range(entry):
            kinds = {type(side) for side in entry.sides(t, *values)}
            assert kinds == {DualComplex} or kinds <= {int, Fraction}, (ident, values, kinds)
            if kinds != {DualComplex}:
                scalar.add(ident)
    assert scalar == set(SCALAR_ENTRIES)


@pytest.mark.parametrize("k", [2, Fraction(3, 2)])
@pytest.mark.parametrize("ident", SCALAR_ENTRIES, ids=lambda ident: ident.value)
def test_identity_sides_shows_a_scalar_side_as_a_dual_complex(ident, k):
    entry = CATALOG[ident]
    for values in _in_range(entry):
        bindings = dict(zip(entry.params, values), k=k)
        for side, scalar in zip(identity_sides(ident, bindings), entry.sides(Terms(k), *values)):
            assert type(side) is DualComplex
            assert shown(side) == shown(DualComplex(scalar, 0, 0, 0))


# Fraction's arithmetic operators, each a Python-level call in fractions.py.
FRACTION_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                      "__truediv__", "__rtruediv__", "__neg__", "__pow__")


@pytest.mark.parametrize("k", [Fraction(3, 2), Fraction(7, 4)], ids=str)
def test_a_warm_evaluation_at_rational_k_calls_no_fraction_operator(k, monkeypatch):
    # Every side is built from int parts: once the per-k memo holds the terms,
    # fresh views evaluate every k-entry without one Fraction operator call.
    ranges = {"n": range(7), "m": range(7), "r": range(1, 5)}

    def evaluate():
        for ident in K_ENTRIES:
            entry, t = CATALOG[ident], Terms(k)
            for values in itertools.product(*(ranges[name] for name in entry.params)):
                if entry.pre(*values):
                    entry.sides(t, *values)

    def counted(name, method):
        def call(*args):
            called.append(name)
            return method(*args)
        return call

    evaluate()
    called = []
    for name in FRACTION_OPERATORS:
        monkeypatch.setattr(Fraction, name, counted(name, getattr(Fraction, name)))
    evaluate()
    monkeypatch.undo()
    assert called == []
