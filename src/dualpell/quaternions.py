"""Dual-complex k-Pell quaternions: construction, Binet form, root products.

A quaternion here is the dual-complex number built from four consecutive
family terms, carried together with its provenance (family, k, n) so that a
value can always be rebuilt and cross-checked from its origin.
"""

from __future__ import annotations

from fractions import Fraction

from .dualcomplex import DualComplex, _FrozenRecord
from .scalars import exact_index, positive_k
from .sequences import Family, _binet_row, _checked_family, _shared, dc_number


class PellQuaternion(_FrozenRecord):
    """Four consecutive family terms on the basis {1, i, eps, i*eps}.

    The value must be a DualComplex, else TypeError; family, k and n take
    SequenceSpec's and dc_number's checks, so an integral k is kept as an int.
    """

    __slots__ = __match_args__ = ("value", "family", "k", "n")

    def __init__(self, value: DualComplex, family: Family, k: Fraction | int, n: int) -> None:
        if not isinstance(value, DualComplex):
            raise TypeError(f"value must be a DualComplex, got {type(value).__name__}")
        super().__init__(value, _checked_family(family), positive_k(k), exact_index(n))

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


def hat_pair(k: Fraction | int) -> tuple[DualComplex, DualComplex]:
    """(X, Y) over Q with hat(r) = 1 + i r + eps r^2 + i eps r^3 = X +/- sqrt(1+k) Y.

    hat(alpha) and hat(beta), for the characteristic roots r = 1 +/- t,
    t = sqrt(1+k), are the constant companions of alpha^n and beta^n in the
    quaternion-level closed form. Slot j of X and Y holds x_j and y_j of the
    power r^j = x_j +/- y_j t, taken formally with t^2 = 1+k, so a square
    1+k folds nothing: (1 + t)^2 = (2+k) + 2t, (1 + t)^3 = (4+3k) + (4+k)t.
    The coefficients are ints at integer k.
    """
    d = 1 + positive_k(k)
    return DualComplex(1, 1, 1 + d, 1 + 3 * d), DualComplex(0, 1, 2, 3 + d)


def binet_quaternion(k: Fraction | int, n: int) -> DualComplex:
    """Closed form (hat_alpha * alpha^n - hat_beta * beta^n) / (alpha - beta), any integer n.

    Exact, with Fraction coefficients; equals build_quaternion(K_PELL, k, n).value.
    Slot j of hat(rho) a - hat(rho_bar) b is a rho^j - b rho_bar^j, so the four
    slots are sequences._binet_row(k, n, 4), one Fraction each.
    """
    return DualComplex(*_binet_row(k, n, 4))


def gamma_closed(k: Fraction | int) -> DualComplex:
    """Polynomial form (1+k) + 2i + (2k^2+6k+4) eps + (4k+8) i eps of the checked k.

    Read from the per-k memo, which builds it once per k beside the P table;
    no Terms view and no number table is made.
    """
    return _shared(positive_k(k))[1]


def gamma_coefficient(k: Fraction | int) -> DualComplex:
    """The product hat(alpha) hat(beta) = (X + tY)(X - tY) = X X - (1+k) Y Y of hat_pair's (X, Y).

    The expansion is asserted against gamma_closed before returning; a
    mismatch would mean the closed polynomial no longer matches the root
    product and is reported as an internal error.
    """
    x, y = hat_pair(k)
    value = x * x - (y * y).scale(1 + k)
    expected = gamma_closed(k)
    if value != expected:
        raise RuntimeError(
            f"root product diverged from its closed form at k={k}: "
            f"{value.render()} vs {expected.render()}"
        )
    return value
