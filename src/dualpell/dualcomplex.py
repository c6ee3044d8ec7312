"""The commutative dual-complex ring on the basis {1, i, eps, i*eps}.

Multiplication follows i^2 = -1, eps^2 = 0, (i*eps)^2 = 0, i*eps = eps*i.
Writing w = z1 + eps*z2 with complex z1, z2, an element is invertible exactly
when z1 is nonzero; elements with z1 = 0 are zero divisors (eps is nilpotent).

Coefficients are generic over an exact scalar ring: one multiplication formula
serves int, Fraction and QuadExt (over Q it runs on cleared int numerators),
which is how the Binet machinery reuses it. int and Fraction coefficients may
mix. Over Q, division and the dual-complex conjugate run on the cleared int
numerators too, and each result slot is one Fraction: a conjugate's eps slot
is one over D |Z1|^2 and a quotient w / v one D c / (D_w |Z1|^4), where D and
D_w are the common denominators of v and w, Z1 = D z1 is v's cleared complex
part and c is an int slot of the cleared product. With a QuadExt
coefficient both scale by the exact reciprocal Fraction(1)/|z1|^2. No
coefficient ever becomes a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Any

from .scalars import _SCALARS, QuadExt, parse_rational


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


@dataclass(slots=True, unsafe_hash=True)
class DualComplex:
    """w = real + imag*i + dual*eps + dual_imag*i*eps over int, Fraction or QuadExt.

    A float or bool coefficient raises TypeError. Immutable by convention.
    """

    real: Any
    imag: Any
    dual: Any
    dual_imag: Any

    def __init__(self, real: Any, imag: Any, dual: Any, dual_imag: Any) -> None:
        if not (type(real) in _SCALARS and type(imag) in _SCALARS
                and type(dual) in _SCALARS and type(dual_imag) in _SCALARS):
            shown = ", ".join(type(c).__name__ for c in (real, imag, dual, dual_imag))
            raise TypeError(f"DualComplex coefficients must be int, Fraction or QuadExt, got ({shown})")
        self.real, self.imag, self.dual, self.dual_imag = real, imag, dual, dual_imag

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
        if not isinstance(other, DualComplex):
            return NotImplemented
        return DualComplex(
            self.real + other.real,
            self.imag + other.imag,
            self.dual + other.dual,
            self.dual_imag + other.dual_imag,
        )

    def __sub__(self, other: "DualComplex") -> "DualComplex":
        if not isinstance(other, DualComplex):
            return NotImplemented
        return DualComplex(
            self.real - other.real,
            self.imag - other.imag,
            self.dual - other.dual,
            self.dual_imag - other.dual_imag,
        )

    def __neg__(self) -> "DualComplex":
        return DualComplex(-self.real, -self.imag, -self.dual, -self.dual_imag)

    def scale(self, s: Any) -> "DualComplex":
        """s * w for an int, Fraction or QuadExt s; a float or bool raises TypeError.

        An integral Fraction scales as its int numerator, as positive_k takes k.
        """
        if type(s) not in _SCALARS:
            raise TypeError(f"cannot scale a DualComplex by {type(s).__name__}")
        if type(s) is Fraction and s.denominator == 1:
            s = s.numerator
        return DualComplex(
            s * self.real, s * self.imag, s * self.dual, s * self.dual_imag
        )

    def __mul__(self, other: Any) -> "DualComplex":
        if not isinstance(other, DualComplex):
            return self.scale(other)
        a1, a2, a3, a4 = self.real, self.imag, self.dual, self.dual_imag
        b1, b2, b3, b4 = other.real, other.imag, other.dual, other.dual_imag
        # Over Q (not all int, no QuadExt) the formula runs on int numerators over
        # one denominator per operand, and each result is reduced once, by one gcd.
        kinds = type(a1), type(a2), type(a3), type(a4), type(b1), type(b2), type(b3), type(b4)
        rational = kinds.count(int) < 8 and QuadExt not in kinds
        if rational:
            a1, a2, a3, a4, da = _cleared(a1, a2, a3, a4)
            b1, b2, b3, b4, db = _cleared(b1, b2, b3, b4)
        c1 = a1 * b1 - a2 * b2
        c2 = a1 * b2 + a2 * b1
        c3 = a1 * b3 + a3 * b1 - a2 * b4 - a4 * b2
        c4 = a1 * b4 + a4 * b1 + a2 * b3 + a3 * b2
        if rational:
            d = da * db
            return DualComplex(Fraction(c1, d), Fraction(c2, d), Fraction(c3, d), Fraction(c4, d))
        return DualComplex(c1, c2, c3, c4)

    def __rmul__(self, other: Any) -> "DualComplex":
        return self.scale(other)

    def __truediv__(self, other: "DualComplex") -> "DualComplex":
        """Quotient q with q * other == self; other needs a nonzero complex part.

        other times its dual-complex conjugate is the real |z3|^2, where z3 is
        the complex part of other, so q = self * conj(other) / |z3|^2. Over Q
        the product runs on int numerators and each slot is one Fraction.
        """
        if not isinstance(other, DualComplex):
            return NotImplemented
        coefficients = (*self.coefficients(), *other.coefficients())
        if QuadExt in map(type, coefficients):
            conj = other.conjugate(Conjugation.DUAL_COMPLEX)
            return (self * conj).scale(Fraction(1) / (other.real**2 + other.imag**2))
        # With other = (a, b, c, e)/D, N = a^2 + b^2 and x + yi its eps slot's
        # numerator, conj(other)/|z3|^2 is D (aN, -bN, x, y)/N^2.
        *s, ds = _cleared(*coefficients[:4])
        a, b, c, e, d = _cleared(*coefficients[4:])
        x, y, n = _conjugate_eps(a, b, c, e)
        product = DualComplex(*s) * DualComplex(a * n, -b * n, x, y)
        den = ds * n * n
        return DualComplex(*(Fraction(d * num, den) for num in product.coefficients()))

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
        # Over Q on the int numerators of all four over one D, so each eps slot
        # is one Fraction over D |Z1|^2, where Z1 = D z1.
        rational = QuadExt not in (type(r), type(i), type(d), type(di))
        a, b, c, e, den = _cleared(r, i, d, di) if rational else (r, i, d, di, 1)
        x, y, n = _conjugate_eps(a, b, c, e)
        if rational:
            den *= n
            return DualComplex(r, -i, Fraction(x, den), Fraction(y, den))
        inv = Fraction(1) / n
        return DualComplex(r, -i, x * inv, y * inv)

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


def _cleared(c1: Any, c2: Any, c3: Any, c4: Any) -> tuple:
    """(n1, n2, n3, n4, d) with cj == nj / d, d the lcm of the int or Fraction cj's denominators."""
    d = lcm(c1.denominator, c2.denominator, c3.denominator, c4.denominator)
    n1, n2 = c1.numerator * (d // c1.denominator), c2.numerator * (d // c2.denominator)
    n3, n4 = c3.numerator * (d // c3.denominator), c4.numerator * (d // c4.denominator)
    return n1, n2, n3, n4, d


def _conjugate_eps(a: Any, b: Any, c: Any, e: Any) -> tuple:
    """(x, y, n) with conj(w) = z1* + eps (x + yi)/n for z1 = a + bi, z2 = c + ei.

    For w = z1 + eps z2, conj(w) = z1* (1 - eps z2/z1) = z1* - eps z2 (z1*)^2 / |z1|^2,
    so n = |z1|^2 and x + yi = -z2 (z1*)^2, with (z1*)^2 = c0 + c1 i. n = 0 raises
    NonInvertibleError.
    """
    aa, bb = a * a, b * b
    n = aa + bb
    if not n:
        raise NonInvertibleError(
            "dual-complex conjugation and division need a nonzero complex part"
        )
    c0, c1 = aa - bb, -2 * a * b
    return e * c1 - c * c0, -(c * c1 + e * c0), n


DC_ZERO = DualComplex(0, 0, 0, 0)
DC_ONE = DualComplex(1, 0, 0, 0)
DC_I = DualComplex(0, 1, 0, 0)
DC_EPS = DualComplex(0, 0, 1, 0)
DC_IEPS = DualComplex(0, 0, 0, 1)
