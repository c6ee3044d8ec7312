"""Dual-complex k-Pell quaternions: construction, Binet form, root products.

A quaternion here is the dual-complex number built from four consecutive
family terms, carried together with its provenance (family, k, n) so that a
value can always be rebuilt and cross-checked from its origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dualcomplex import DualComplex
from .scalars import QuadExt, exact_index, make_alpha_beta, rationalize
from .sequences import Family, dc_number, terms


@dataclass(frozen=True)
class PellQuaternion:
    """Four consecutive family terms on the basis {1, i, eps, i*eps}."""

    value: DualComplex
    family: Family
    k: Fraction | int
    n: int

    def scalar_part(self) -> Fraction | int:
        return self.value.real

    def vector_part(self) -> DualComplex:
        v = self.value
        return DualComplex(v.real - v.real, v.imag, v.dual, v.dual_imag)

    def rebuild(self) -> DualComplex:
        """Recompute the value from provenance; always equals ``value``."""
        return dc_number(self.family, self.k, self.n)


def build_quaternion(family: Family, k: Fraction | int, n: int) -> PellQuaternion:
    return PellQuaternion(dc_number(family, k, n), family, k, n)


def _hat(root: QuadExt) -> DualComplex:
    one = QuadExt(1, 0, root.d)
    return DualComplex(one, root, root * root, root * root * root)


def hat_pair(k: Fraction | int) -> tuple[DualComplex, DualComplex]:
    """The pair (1 + i r + eps r^2 + i eps r^3) for each characteristic root r.

    Coefficients live in Q(sqrt(1+k)); these are the constant companions of
    alpha^n and beta^n in the quaternion-level closed form.
    """
    alpha, beta = make_alpha_beta(k)
    return _hat(alpha), _hat(beta)


def binet_quaternion(k: Fraction | int, n: int) -> DualComplex:
    """Closed form (hat_alpha * alpha^n - hat_beta * beta^n) / (alpha - beta).

    Evaluated exactly over quadratic scalars and collapsed coefficient-wise
    to rationals; equals build_quaternion(K_PELL, k, n).value.
    """
    n = exact_index(n, 0)
    alpha, beta = make_alpha_beta(k)
    numerator = _hat(alpha).scale(alpha**n) - _hat(beta).scale(beta**n)
    delta = alpha - beta
    return DualComplex(*(rationalize(c / delta) for c in numerator.coefficients()))


def gamma_closed(k: Fraction | int) -> DualComplex:
    """Polynomial form (1+k) + 2i + (2k^2+6k+4) eps + (4k+8) i eps, read as terms(k).gamma."""
    return terms(k).gamma


def gamma_coefficient(k: Fraction | int) -> DualComplex:
    """The product hat_alpha * hat_beta, collapsed to rational coefficients.

    The expansion is asserted against gamma_closed before returning; a
    mismatch would mean the closed polynomial no longer matches the root
    product and is reported as an internal error.
    """
    ha, hb = hat_pair(k)
    product = ha * hb
    value = DualComplex(*(rationalize(c) for c in product.coefficients()))
    expected = gamma_closed(k)
    if value != expected:
        raise RuntimeError(
            f"root product diverged from its closed form at k={k}: "
            f"{value.render()} vs {expected.render()}"
        )
    return value
