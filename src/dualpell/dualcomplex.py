"""The commutative dual-complex ring on the basis {1, i, eps, i*eps}.

Multiplication follows i^2 = -1, eps^2 = 0, (i*eps)^2 = 0, i*eps = eps*i.
Writing w = z1 + eps*z2 with complex z1, z2, an element is invertible exactly
when z1 is nonzero; elements with z1 = 0 are zero divisors (eps is nilpotent).

Coefficients are generic over an exact scalar ring: everything here works the
same over int, Fraction and QuadExt, which is how the Binet machinery reuses
one multiplication code path. int and Fraction coefficients may mix; division
and the dual-complex conjugate scale by the exact reciprocal Fraction(1)/|z1|^2,
so no coefficient ever becomes a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Any

from .scalars import QuadExt, parse_rational

_SCALARS = (int, Fraction, QuadExt)


class NonInvertibleError(ZeroDivisionError):
    """The complex part is zero, so no inverse or dual-complex conjugate exists."""


class Conjugation(Enum):
    """The five conjugations of a dual-complex number.

    COMPLEX       z1* + eps z2*        (negate both i-slots)
    DUAL          z1  - eps z2         (negate the eps half)
    COUPLED       z1* - eps z2*        (composition of the two above)
    DUAL_COMPLEX  z1* (1 - eps z2/z1)  (needs z1 invertible)
    ANTI_DUAL     z2  - eps z1         (swap halves, negate the new eps half)
    """

    COMPLEX = 1
    DUAL = 2
    COUPLED = 3
    DUAL_COMPLEX = 4
    ANTI_DUAL = 5


@dataclass(frozen=True)
class DualComplex:
    """w = real + imag*i + dual*eps + dual_imag*i*eps."""

    real: Any
    imag: Any
    dual: Any
    dual_imag: Any

    def complex_part(self) -> tuple:
        """z1 of the split w = z1 + eps*z2."""
        return (self.real, self.imag)

    def dual_part(self) -> tuple:
        """z2 of the split w = z1 + eps*z2."""
        return (self.dual, self.dual_imag)

    def coefficients(self) -> tuple:
        return (self.real, self.imag, self.dual, self.dual_imag)

    def has_zero_complex_part(self) -> bool:
        return not self.real and not self.imag

    def __add__(self, other: "DualComplex") -> "DualComplex":
        return DualComplex(
            self.real + other.real,
            self.imag + other.imag,
            self.dual + other.dual,
            self.dual_imag + other.dual_imag,
        )

    def __sub__(self, other: "DualComplex") -> "DualComplex":
        return DualComplex(
            self.real - other.real,
            self.imag - other.imag,
            self.dual - other.dual,
            self.dual_imag - other.dual_imag,
        )

    def __neg__(self) -> "DualComplex":
        return DualComplex(-self.real, -self.imag, -self.dual, -self.dual_imag)

    def scale(self, s: Any) -> "DualComplex":
        """s * w for an int, Fraction or QuadExt s; a float or bool raises TypeError."""
        if type(s) not in _SCALARS:
            raise TypeError(f"cannot scale a DualComplex by {type(s).__name__}")
        return DualComplex(
            s * self.real, s * self.imag, s * self.dual, s * self.dual_imag
        )

    def __mul__(self, other: Any) -> "DualComplex":
        if not isinstance(other, DualComplex):
            return self.scale(other)
        a1, a2, a3, a4 = self.coefficients()
        b1, b2, b3, b4 = other.coefficients()
        return DualComplex(
            a1 * b1 - a2 * b2,
            a1 * b2 + a2 * b1,
            a1 * b3 + a3 * b1 - a2 * b4 - a4 * b2,
            a1 * b4 + a4 * b1 + a2 * b3 + a3 * b2,
        )

    def __rmul__(self, other: Any) -> "DualComplex":
        return self.scale(other)

    def __truediv__(self, other: "DualComplex") -> "DualComplex":
        """Quotient q with q * other == self; other needs a nonzero complex part.

        other times its dual-complex conjugate is the real |z3|^2, where z3 is
        the complex part of other, so q = self * conj(other) / |z3|^2.
        """
        conj = other.conjugate(Conjugation.DUAL_COMPLEX)
        return (self * conj).scale(Fraction(1) / (other.real**2 + other.imag**2))

    def conjugate(self, kind: Conjugation) -> "DualComplex":
        r, i, d, di = self.coefficients()
        if kind is Conjugation.COMPLEX:
            return DualComplex(r, -i, d, -di)
        if kind is Conjugation.DUAL:
            return DualComplex(r, i, -d, -di)
        if kind is Conjugation.COUPLED:
            return DualComplex(r, -i, -d, di)
        if kind is Conjugation.ANTI_DUAL:
            return DualComplex(d, di, -r, -i)
        if self.has_zero_complex_part():
            raise NonInvertibleError(
                "dual-complex conjugation and division need a nonzero complex part"
            )
        # z1* (1 - eps z2/z1) = z1* - eps z2 (z1*)^2 / |z1|^2, with (z1*)^2 = c0 + c1 i
        rr, ii = r * r, i * i
        c0, c1 = rr - ii, -2 * r * i
        inv = Fraction(1) / (rr + ii)
        return DualComplex(r, -i, (di * c1 - d * c0) * inv, -(d * c1 + di * c0) * inv)

    def norm_product(self, kind: Conjugation) -> "DualComplex":
        """The exact product w * conj(w) whose square root would be the norm."""
        return self * self.conjugate(kind)

    def to_json_dict(self) -> dict:
        return {
            "one": str(self.real),
            "i": str(self.imag),
            "eps": str(self.dual),
            "ieps": str(self.dual_imag),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "DualComplex":
        return cls(
            parse_rational(obj["one"]),
            parse_rational(obj["i"]),
            parse_rational(obj["eps"]),
            parse_rational(obj["ieps"]),
        )

    def render(self) -> str:
        return (
            f"{self.real} + {self.imag}·i + {self.dual}·eps"
            f" + {self.dual_imag}·i·eps"
        )


DC_ZERO = DualComplex(0, 0, 0, 0)
DC_ONE = DualComplex(1, 0, 0, 0)
DC_I = DualComplex(0, 1, 0, 0)
DC_EPS = DualComplex(0, 0, 1, 0)
DC_IEPS = DualComplex(0, 0, 0, 1)
