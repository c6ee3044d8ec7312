"""The scalar types on the exact paths: int where k and n allow, never a float.

Integer k at n >= 0 yields plain int terms, everything else Fraction; the two
mix exactly, so a float can only come from a float k, which every public entry
rejects.
"""

import itertools
from fractions import Fraction

import pytest

from dualpell import (
    CATALOG,
    DualComplex,
    Family,
    QuadExt,
    SequenceSpec,
    SweepConfig,
    binet_quaternion,
    dc_number,
    gamma_closed,
    hat_pair,
    identity_sides,
    make_alpha_beta,
    pell_term,
    rationalize,
    render_rational,
    seq_binet,
    seq_prefix_sum,
    seq_row,
    seq_term,
    seq_term_fast,
    sweep,
    terms,
)
from dualpell.identities import IdentityId

FLOAT_K_ENTRIES = {
    "pell_term": lambda k: pell_term(k, 3),
    "seq_row": lambda k: seq_row(Family.K_PELL, k, 0, 4),
    "dc_number": lambda k: dc_number(Family.K_PELL_LUCAS, k, 2),
    "SequenceSpec": lambda k: SequenceSpec(Family.K_PELL, k),
    "seq_binet": lambda k: seq_binet(k, 3),
    "make_alpha_beta": make_alpha_beta,
    "seq_prefix_sum": lambda k: seq_prefix_sum(k, 3),
    "gamma_closed": gamma_closed,
    "identity_sides": lambda k: identity_sides(IdentityId.G18, {"k": k, "n": 2}),
    "sweep": lambda k: sweep(
        SweepConfig((IdentityId.G9,), (k,), (0, 1), (0, 0), (1, 1))
    ),
}


@pytest.mark.parametrize("entry", sorted(FLOAT_K_ENTRIES))
def test_float_k_rejected(entry):
    with pytest.raises(ValueError, match="positive int or Fraction"):
        FLOAT_K_ENTRIES[entry](0.1)


def test_bool_k_rejected():
    with pytest.raises(ValueError):
        identity_sides(IdentityId.G9, {"k": True, "n": 1})


@pytest.mark.parametrize("entry", sorted(FLOAT_K_ENTRIES))
def test_nonpositive_k_rejected(entry):
    with pytest.raises(ValueError):
        FLOAT_K_ENTRIES[entry](Fraction(0))


def test_term_types_follow_k_and_n():
    families = tuple(Family)
    for k in (1, 2, Fraction(3), 4):
        for family in families:
            assert all(type(t) is int for t in seq_row(family, k, 0, 12))
            assert all(type(t) is Fraction for t in seq_row(family, k, -6, 6))
            assert all(type(c) is int for c in dc_number(family, k, 5).coefficients())
        assert type(pell_term(k, 9)) is int
        assert type(pell_term(k, -1)) is Fraction
    for k in (Fraction(1, 2), Fraction(5, 3)):
        for family in families:
            assert all(type(t) is Fraction for t in seq_row(family, k, -3, 12))
            assert all(type(c) is Fraction for c in dc_number(family, k, 5).coefficients())
        assert type(pell_term(k, 9)) is Fraction


def _grid(params):
    """n <= 11 for every id, with a few m (some below n) and r values."""
    axes = {"n": range(12), "m": (0, 4, 11), "r": (1, 3)}
    return (dict(zip(params, values)) for values in itertools.product(*(axes[p] for p in params)))


def test_catalog_sides_hold_no_float():
    ks = (1, 2, 3, 4, Fraction(1, 2), Fraction(5, 3))
    for ident, entry in CATALOG.items():
        for k in ks if entry.uses_k else (None,):
            for b in _grid(entry.params):
                if not entry.pre(*b.values()):
                    continue
                bindings = dict(b, k=k) if entry.uses_k else b
                for side in identity_sides(ident, bindings):
                    coefficients = side.coefficients()
                    assert all(type(c) in (int, Fraction) for c in coefficients), (
                        ident, bindings, coefficients)


def test_typed_row_memo_rejects_float_and_bool_k_that_equal_a_cached_k():
    # A memo that looked k up before checking it would hand these the terms
    # cached for k = 1 and k = 2, since 1.0, 2.0 and True equal and hash like
    # 1, 2, Fraction(1) and Fraction(2).
    for k in (1, 2, Fraction(1), Fraction(2)):
        seq_row(Family.K_PELL, k, 0, 4)
        pell_term(k, 3)
        dc_number(Family.K_PELL, k, 3)
        dc_number(Family.K_PELL_LUCAS, k, 3)
    for k in (1.0, 2.0, True):
        for read in (
            lambda: seq_row(Family.K_PELL, k, 0, 4),
            lambda: pell_term(k, 3),
            lambda: dc_number(Family.K_PELL, k, 3),
            lambda: dc_number(Family.K_PELL_LUCAS, k, 3),
        ):
            with pytest.raises(ValueError, match="positive int or Fraction"):
                read()
    # positive_k runs before the memo, so an unhashable k is no TypeError.
    for read in (
        lambda: seq_row(Family.K_PELL, [2], 0, 1),
        lambda: pell_term([2], 3),
        lambda: dc_number(Family.K_PELL, [2], 3),
        lambda: seq_prefix_sum([2], 3),
    ):
        with pytest.raises(ValueError, match="positive int or Fraction"):
            read()


def test_one_term_view_per_value_of_k():
    assert terms(Fraction(2)) is terms(2)


@pytest.mark.parametrize("index", [3.0, 1.0, True])
@pytest.mark.parametrize(
    "read, name",
    [
        (lambda n: pell_term(2, n), "n"),
        (lambda n: dc_number(Family.K_PELL, 2, n), "n"),
        (lambda n: dc_number(Family.K_PELL_LUCAS, 2, n), "n"),
        (lambda n: seq_term(SequenceSpec(Family.K_PELL, 2), n), "n"),
        (lambda n: seq_term_fast(SequenceSpec(Family.K_PELL, 2), n), "n"),
        (lambda n: seq_row(Family.K_PELL, 2, n, 2), "lo"),
        (lambda n: seq_row(Family.K_PELL, 2, 0, n), "count"),
        (lambda n: seq_binet(2, n), "n"),
        (lambda n: seq_prefix_sum(2, n), "n"),
        (lambda n: binet_quaternion(2, n), "n"),
    ],
    ids=[
        "pell_term", "dc_number_pell", "dc_number_lucas", "seq_term", "seq_term_fast",
        "seq_row_lo", "seq_row_count", "seq_binet", "seq_prefix_sum", "binet_quaternion",
    ],
)
def test_inexact_index_rejected_after_a_warm_read(read, name, index):
    # The term view caches by index, and 3.0 == 3, True == 1 hash alike;
    # the other reads would truncate or take True as 1.
    read(int(index))
    with pytest.raises(ValueError, match=f"^{name} must be int"):
        read(index)


def test_seq_row_rejects_negative_count():
    with pytest.raises(ValueError, match="^count must be >= 0, got -2$"):
        seq_row(Family.K_PELL, 2, 5, -2)
    with pytest.raises(ValueError, match="^count must be >= 0"):
        seq_row(Family.K_PELL_LUCAS, 2, 0, -1)


@pytest.mark.parametrize("field", range(3))
@pytest.mark.parametrize("bad", [0.1, True, 2.0])
def test_quadext_rejects_inexact_coefficient(field, bad):
    values = [Fraction(1, 3), 1, 2]
    values[field] = bad
    with pytest.raises(ValueError, match="int or Fraction"):
        QuadExt(*values)


@pytest.mark.parametrize(
    "op",
    [
        lambda x, y: x + y,
        lambda x, y: y + x,
        lambda x, y: x * y,
        lambda x, y: y * x,
        lambda x, y: x / y,
        lambda x, y: y / x,
    ],
    ids=["add", "radd", "mul", "rmul", "div", "rdiv"],
)
@pytest.mark.parametrize("bad", [0.5, 2.0, True])
def test_quadext_rejects_inexact_operand(op, bad):
    with pytest.raises(TypeError):
        op(QuadExt(1, 1, 2), bad)


def test_integer_k_closed_forms_stay_int():
    for k in (1, 2, 3, 4, 8):
        alpha, beta = make_alpha_beta(k)
        for n in range(12):
            for c in (alpha**n, beta**n):
                assert (type(c.a), type(c.b), type(c.d)) == (int, int, int), (k, n, c)
        for hat in hat_pair(k):
            for c in hat.coefficients():
                assert (type(c.a), type(c.b), type(c.d)) == (int, int, int), (k, c)


def test_closed_forms_return_fractions_never_floats():
    for k in (1, 2, 3, 8, Fraction(1, 2), Fraction(5, 4)):
        for n in range(8):
            assert type(seq_binet(k, n)) is Fraction
            assert all(type(c) is Fraction for c in binet_quaternion(k, n).coefficients())


@pytest.mark.parametrize("bad", [True, 0.5])
def test_rationalize_rejects_bool_and_float(bad):
    with pytest.raises(TypeError):
        rationalize(bad)


@pytest.mark.parametrize(
    "op",
    [lambda w, s: w * s, lambda w, s: s * w, lambda w, s: w.scale(s), lambda w, s: w / s],
    ids=["mul", "rmul", "scale", "div"],
)
@pytest.mark.parametrize("bad", [0.5, 2.0, True])
def test_dual_complex_rejects_inexact_scalar(op, bad):
    # Only the type is pinned: a scalar divisor fails in its own conjugate().
    with pytest.raises(TypeError):
        op(DualComplex(1, 2, 3, 4), bad)


def test_dual_complex_scales_by_exact_scalars():
    w = DualComplex(1, 2, 3, 4)
    assert w * 2 == 2 * w == w.scale(2) == DualComplex(2, 4, 6, 8)
    assert w * Fraction(1, 2) == DualComplex(Fraction(1, 2), 1, Fraction(3, 2), 2)
    assert w.scale(QuadExt(3, 0, 2)) == DualComplex(3, 6, 9, 12)


@pytest.mark.parametrize("slot", range(4))
@pytest.mark.parametrize("bad", [0.5, 2.0, True])
def test_dual_complex_constructor_rejects_inexact_coefficient(slot, bad):
    values = [1, Fraction(1, 2), QuadExt(1, 1, 2), 3]
    values[slot] = bad
    with pytest.raises(TypeError, match="int, Fraction or QuadExt"):
        DualComplex(*values)


@pytest.mark.parametrize("bad", [0.5, True, 3, None])
def test_from_json_dict_rejects_non_text_coefficient(bad):
    obj = DualComplex(1, 2, 3, 4).to_json_dict()
    obj["eps"] = bad
    with pytest.raises(TypeError, match="must be str"):
        DualComplex.from_json_dict(obj)


@pytest.mark.parametrize("bad", [0.1, True])
def test_render_rational_rejects_bool_and_float(bad):
    with pytest.raises(TypeError):
        render_rational(bad)


def test_render_rational_takes_a_radical_free_quadext():
    assert render_rational(QuadExt(Fraction(-4, 6), 0, 2)) == "-2/3"
    assert render_rational(QuadExt(1, 1, 4)) == "3"  # sqrt(4) folds away
    with pytest.raises(ValueError):
        render_rational(QuadExt(1, 1, 2))


def test_quadext_equality_takes_exact_scalars_only():
    assert QuadExt(1, 0, 2) == 1 and QuadExt(Fraction(1, 2), 0, 2) == Fraction(1, 2)
    assert QuadExt(1, 0, 2) != True  # noqa: E712 - the bool must not pass for 1
    assert QuadExt(1, 0, 2) != 1.0
