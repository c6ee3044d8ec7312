"""Quaternion construction, Binet closed form, and the root-product coefficient."""

import json
import random
from fractions import Fraction

import pytest

from dualpell import (
    DualComplex,
    Family,
    IdentityId,
    PellQuaternion,
    QuadExt,
    SweepConfig,
    Verdict,
    binet_quaternion,
    build_quaternion,
    dc_number,
    gamma_closed,
    gamma_coefficient,
    hat_pair,
    identity_sides,
    make_alpha_beta,
    pell_term,
    rationalize,
    seq_binet,
    sweep,
    terms,
)
from dualpell import cli, sequences
from support import binet_over_alpha_beta


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
    # hat(alpha), hat(beta) = X +/- sqrt(1+k) Y, slot j holding the power r^j of each root;
    # at k = 3, 8, 5/4 and 7/9 the radicand 1+k is a square, which X and Y must not fold
    for k in (2, 3, 8, Fraction(5, 4), Fraction(7, 9), Fraction(22, 7)):
        alpha, beta = make_alpha_beta(k)
        x, y = hat_pair(k)
        for j, (xj, yj) in enumerate(zip(x.coefficients(), y.coefficients())):
            assert QuadExt(xj, yj, alpha.d) == alpha**j and QuadExt(xj, -yj, alpha.d) == beta**j, (k, j)
        if type(k) is int:
            assert all(type(c) is int for c in x.coefficients() + y.coefficients()), k


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
    # at 5/4 and 7/9 the radicand 1+k is a rational square and the radical folds
    ks = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(22, 7), Fraction(5, 4), Fraction(7, 9))
    for k in ks:
        for n in range(0, 40):
            assert binet_quaternion(k, n) == build_quaternion(Family.K_PELL, k, n).value


def test_binet_on_cleared_roots_matches_binet_on_alpha_beta():
    ks = (Fraction(3, 2), Fraction(1, 2), Fraction(22, 7), Fraction(5, 4), Fraction(7, 9), 2)
    # k = 2, n = 20,000 is where bench/probes.py times both routes
    for k, n in [(k, n) for k in ks for n in (0, 1, 7, 30)] + [(2, 20_000)]:
        reference = binet_over_alpha_beta(k, n)
        assert binet_quaternion(k, n) == reference, (k, n)
        assert seq_binet(k, n) == reference.real, (k, n)


def test_binet_quaternion_at_negative_index_matches_dc_number():
    # at k = 3, 8, 5/4 and 7/9 the cleared radicand q(p+q) is a square (4, 9, 36, 144),
    # which the int-pair powers must not fold into their rational parts
    ks = (1, 2, 3, 8, Fraction(1, 2), Fraction(22, 7), Fraction(5, 3), Fraction(5, 4), Fraction(7, 9))
    # |n| = 63, 64, 65 and 300 take every branch of the square and multiply, at both signs of n
    for k in ks:
        for n in (*range(-12, 0), -300, -65, -64, -63, 63, 64, 65, 300):
            assert binet_quaternion(k, n) == dc_number(Family.K_PELL, k, n), (k, n)
            assert seq_binet(k, n) == pell_term(k, n), (k, n)


@pytest.mark.parametrize("skew, quaternion_only", [((1, 0), False), ((0, 1), True)],
                         ids=["rational part", "radical part"])
def test_binet_rejects_powers_that_are_not_conjugates(monkeypatch, skew, quaternion_only):
    # b = rho_bar^n gets an extra rational part, which slot 0 already shows, or an extra
    # radical part, which only the step to slot 1 turns into a rational one
    pair_power = sequences._pair_power

    def skewed(x, y, d, e):
        px, py = pair_power(x, y, d, e)
        return (px + skew[0], py + skew[1]) if y == -1 else (px, py)  # only b's base has y = -1

    monkeypatch.setattr(sequences, "_pair_power", skewed)
    message = r"^Binet numerator -?\d+ \+ -?\d+\*sqrt\((\d+)\) is not a multiple of sqrt\(\1\)$"
    for k in (2, Fraction(5, 4)):
        for n in (-3, 0, 5):
            with pytest.raises(ValueError, match=message):
                binet_quaternion(k, n)
            if quaternion_only:
                assert seq_binet(k, n) != pell_term(k, n), (k, n)
            else:
                with pytest.raises(ValueError, match=message):
                    seq_binet(k, n)


def test_no_binet_evaluation_builds_a_quad_ext(monkeypatch, capsys):
    def refuse(self, *args):
        raise AssertionError(f"QuadExt{args} built")

    monkeypatch.setattr(QuadExt, "__init__", refuse)
    ks = (1, 2, 3, 8, Fraction(1, 2), Fraction(5, 4), Fraction(7, 9), Fraction(22, 7))
    ids = (IdentityId.BINET_NUMBER, IdentityId.BINET_QUATERNION)
    for k in ks:
        for n in (-3, 0, 5):
            assert seq_binet(k, n) == pell_term(k, n), (k, n)
            assert binet_quaternion(k, n) == dc_number(Family.K_PELL, k, n), (k, n)
            for ident in ids if n >= 0 else ():  # the catalog's Binet ids take n >= 0
                lhs, rhs = identity_sides(ident, {"k": k, "n": n})
                assert lhs == rhs, (ident, k, n)
        for level in ("number", "quaternion"):
            assert cli.main(["binet", "--k", str(k), "--n", "9", "--level", level]) == 0, (k, level)
            assert json.loads(capsys.readouterr().out)["consistent"] is True
        hat_pair(k)  # the Binet constants are rational pairs X, Y, never QuadExt values
        assert gamma_coefficient(k) == gamma_closed(k), k
    reports = sweep(SweepConfig(ids, ks, (0, 6), (0, 0), (1, 1)))
    assert [r.verdict for r in reports] == [Verdict.HOLDS, Verdict.HOLDS]


def test_gamma_fixtures():
    assert gamma_coefficient(1) == dc(2, 2, 12, 12)
    assert gamma_coefficient(2) == dc(3, 2, 24, 16)


def test_gamma_internal_assertion_over_k():
    for k in list(range(1, 11)) + [Fraction(1, 2), Fraction(22, 7), Fraction(5, 4), Fraction(7, 9)]:
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


@pytest.mark.parametrize("family", ["pell", "mp", 0, None])
def test_build_quaternion_rejects_a_family_that_is_not_a_family(family):
    with pytest.raises(ValueError, match="family must be a Family"):
        build_quaternion(family, 2, 1)


def test_a_quaternion_checks_its_provenance_as_a_sequence_spec_does():
    value = DualComplex(0, 1, 2, 5)
    for family, k, n, message in [
        (Family.K_PELL, 0.5, 1, "k must be a positive int or Fraction"),
        (Family.K_PELL, True, 1, "k must be a positive int or Fraction"),
        ("pell", 2, 0, "family must be a Family"),
        (Family.K_PELL, 2, 0.0, "n must be int"),
        (Family.K_PELL, 2, True, "n must be int"),
    ]:
        with pytest.raises(ValueError, match=message):
            PellQuaternion(value, family, k, n)
    for bad in (0.5, 0, Fraction(1, 2), (0, 1, 2, 5)):
        with pytest.raises(TypeError, match="value must be a DualComplex"):
            PellQuaternion(bad, Family.K_PELL, 2, 0)
    q = build_quaternion(Family.K_PELL, Fraction(4, 2), 3)
    assert type(q.k) is int and q.k == 2 and q == PellQuaternion(q.value, Family.K_PELL, 2, 3)
