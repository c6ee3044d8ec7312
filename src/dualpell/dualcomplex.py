"""The commutative dual-complex ring on the basis {1, i, eps, i*eps}.

Multiplication follows i^2 = -1, eps^2 = 0, (i*eps)^2 = 0, i*eps = eps*i.
Writing w = z1 + eps*z2 with complex z1, z2, an element is invertible exactly
when z1 is nonzero; elements with z1 = 0 are zero divisors (eps is nilpotent).

Coefficients are generic over an exact scalar ring: one multiplication formula
serves int, Fraction and QuadExt, which is how the Binet machinery reuses it.
int and Fraction coefficients may mix. Over Q, that is with every coefficient
in scalars._EXACT (int or Fraction) and a Fraction among the operands, +, -,
unary -, scale, * and the conjugates run in int on each value's canonical
cleared form (n1, n2, n3, n4, d): the coefficients are nj / d with d > 1
and gcd(n1, n2, n3, n4, d) = 1. A value caches its form on its first use over Q,
and each kernel returns a result that holds its form alone: the four
Fraction coefficients are built from it on the first read of one of them,
and == compares two forms directly. A result whose reduced d is 1 comes
back with plain int coefficients and no form, so all-int values keep their
int path. Over Q the dual-complex conjugate of (a, b, c, e)/D is
(aN, -bN, x, y)/(D N) with N = a^2 + b^2 (over int with D = 1); over a
QuadExt it scales by the exact reciprocal Fraction(1)/|z1|^2. A quotient
w / v is w v* / (v v*) for the dual-complex conjugate v*, on one route for
every scalar ring: v v* is the real |z1|^2, so it is w v* scaled by its
reciprocal. No coefficient ever becomes a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub
from typing import Any

from .scalars import _EXACT, _SCALARS, parse_rational


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


@dataclass(unsafe_hash=True)
class DualComplex:
    """w = real + imag*i + dual*eps + dual_imag*i*eps over int, Fraction or QuadExt.

    A float or bool coefficient raises TypeError. The four fields are read-only
    properties over the private slots _r, _i, _d and _di, and never change. One
    more private slot, _form, may hold the canonical cleared form of a value
    over Q (see _q_form); a kernel's result over Q holds only its form, and
    the first read of a coefficient fills all four slots from it (see
    coefficients). _form is not a field, so repr, hash and the constructor
    never show it, and == answers the same with or without it.
    """

    __slots__ = ("_r", "_i", "_d", "_di", "_form")

    real: Any = property(lambda w: w.coefficients()[0])
    imag: Any = property(lambda w: w.coefficients()[1])
    dual: Any = property(lambda w: w.coefficients()[2])
    dual_imag: Any = property(lambda w: w.coefficients()[3])

    def __init__(self, real: Any, imag: Any, dual: Any, dual_imag: Any) -> None:
        if type(real) is int and type(imag) is int and type(dual) is int and type(dual_imag) is int:
            self._form = None
        elif (type(real) in _SCALARS and type(imag) in _SCALARS
                and type(dual) in _SCALARS and type(dual_imag) in _SCALARS):
            self._form = False
        else:
            shown = ", ".join(type(c).__name__ for c in (real, imag, dual, dual_imag))
            raise TypeError(f"DualComplex coefficients must be int, Fraction or QuadExt, got ({shown})")
        self._r, self._i, self._d, self._di = real, imag, dual, dual_imag

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not DualComplex:
            return NotImplemented
        form, other_form = self._form, other._form
        if form and other_form:
            return form == other_form  # canonical, so equal values have equal forms
        if not form and not other_form:  # neither holds a form, so both were built eagerly
            return (self._r, self._i, self._d, self._di) == (other._r, other._i, other._d, other._di)
        forms = _q_forms(self, other)
        return self.coefficients() == other.coefficients() if forms is None else forms[0] == forms[1]

    def complex_part(self) -> tuple:
        """z1 of the split w = z1 + eps*z2."""
        return (self.real, self.imag)

    def dual_part(self) -> tuple:
        """z2 of the split w = z1 + eps*z2."""
        return (self.dual, self.dual_imag)

    def coefficients(self) -> tuple:
        try:
            return self._r, self._i, self._d, self._di
        except AttributeError:  # the first read of a value that holds its form alone
            n1, n2, n3, n4, d = self._form
            c = Fraction(n1, d), Fraction(n2, d), Fraction(n3, d), Fraction(n4, d)
            self._r, self._i, self._d, self._di = c
            return c

    def has_zero_complex_part(self) -> bool:
        return not self.real and not self.imag

    def __add__(self, other: "DualComplex") -> "DualComplex":
        if not isinstance(other, DualComplex):
            return NotImplemented
        if self._form is not None or other._form is not None:
            forms = _q_forms(self, other)
            if forms is None:  # a QuadExt coefficient; either operand may hold its form alone
                return DualComplex(*map(add, self.coefficients(), other.coefficients()))
            return _sum(*forms, 1)
        return DualComplex(self._r + other._r, self._i + other._i, self._d + other._d, self._di + other._di)

    def __sub__(self, other: "DualComplex") -> "DualComplex":
        if not isinstance(other, DualComplex):
            return NotImplemented
        if self._form is not None or other._form is not None:
            forms = _q_forms(self, other)
            if forms is None:  # a QuadExt coefficient; either operand may hold its form alone
                return DualComplex(*map(sub, self.coefficients(), other.coefficients()))
            return _sum(*forms, -1)
        return DualComplex(self._r - other._r, self._i - other._i, self._d - other._d, self._di - other._di)

    def __neg__(self) -> "DualComplex":
        return self.scale(-1)

    def scale(self, s: Any) -> "DualComplex":
        """s * w for an int, Fraction or QuadExt s; a float or bool raises TypeError.

        An integral Fraction scales as its int numerator, as positive_k takes k.
        """
        kind = type(s)
        if kind not in _SCALARS:
            raise TypeError(f"cannot scale a DualComplex by {kind.__name__}")
        if kind not in _EXACT:  # a QuadExt
            return DualComplex(*map(s.__mul__, self.coefficients()))
        if kind is Fraction and s.denominator == 1:
            s, kind = s.numerator, int
        if kind is Fraction or self._form is not None:
            form = _q_form(self)
            if form is not None:
                n1, n2, n3, n4, d = form
                p = s.numerator
                return _over(p * n1, p * n2, p * n3, p * n4, s.denominator * d)
        return DualComplex(s * self._r, s * self._i, s * self._d, s * self._di)

    def __mul__(self, other: Any) -> "DualComplex":
        if not isinstance(other, DualComplex):
            return self.scale(other)
        if self._form is None and other._form is None:
            return DualComplex(*_product(self._r, self._i, self._d, self._di,
                                         other._r, other._i, other._d, other._di))
        # Over Q the formula runs on the operands' cleared forms, in int.
        forms = _q_forms(self, other)
        if forms is None:
            return DualComplex(*_product(*self.coefficients(), *other.coefficients()))
        (a1, a2, a3, a4, da), (b1, b2, b3, b4, db) = forms
        return _over(*_product(a1, a2, a3, a4, b1, b2, b3, b4), da * db)

    def __rmul__(self, other: Any) -> "DualComplex":
        return self.scale(other)

    def __truediv__(self, other: "DualComplex") -> "DualComplex":
        """Quotient q with q * other == self; other needs a nonzero complex part.

        other times its dual-complex conjugate c is the real |z1|^2 of its
        complex part z1, so q = self * c / (other * c), on every scalar ring.
        """
        if not isinstance(other, DualComplex):
            return NotImplemented
        c = other.conjugate(Conjugation.DUAL_COMPLEX)
        return (self * c).scale(Fraction(1) / (other * c).real)

    def conjugate(self, kind: Conjugation) -> "DualComplex":
        if kind is not Conjugation.DUAL_COMPLEX:
            # a signed permutation of a cached form's numerators, or else of the slots
            move, form = _MOVES[kind], self._form
            if not form:
                return DualComplex(*move(self._r, self._i, self._d, self._di))
            w = object.__new__(DualComplex)
            w._form = (*move(form[0], form[1], form[2], form[3]), form[4])
            return w
        # Over Q on the cleared form (a, b, c, e)/D, so the result is
        # (aN, -bN, x, y)/(D N) with N = |Z1|^2 for Z1 = D z1.
        form = _q_form(self)
        if form is not None:
            a, b, c, e, den = form
            x, y, n = _conjugate_eps(a, b, c, e)
            return _over(a * n, -b * n, x, y, den * n)
        r, i, d, di = self._r, self._i, self._d, self._di  # a QuadExt value, so built eagerly
        x, y, n = _conjugate_eps(r, i, d, di)
        inv = Fraction(1) / n
        return DualComplex(r, -i, x * inv, y * inv)

    def norm_product(self, kind: Conjugation) -> "DualComplex":
        """The exact product w * conj(w) whose square root would be the norm."""
        return self * self.conjugate(kind)

    def to_json_dict(self) -> dict:
        return dict(zip(_JSON_KEYS, map(str, self.coefficients())))

    @classmethod
    def from_json_dict(cls, obj: dict) -> "DualComplex":
        """The value to_json_dict wrote: exactly the keys one, i, eps and ieps, each a str."""
        missing = [key for key in _JSON_KEYS if key not in obj]
        extra = [key for key in obj if key not in _JSON_KEYS]
        if missing or extra:
            raise ValueError(
                f"a DualComplex needs keys {_JSON_KEYS}: "
                f"missing {missing or 'none'}, unexpected {extra or 'none'}"
            )
        return cls(*(parse_rational(obj[key]) for key in _JSON_KEYS))

    def render(self) -> str:
        r, i, d, di = self.coefficients()
        return f"{r} + {i}·i + {d}·eps + {di}·i·eps"


def _cleared(c1: Any, c2: Any, c3: Any, c4: Any) -> tuple:
    """(n1, n2, n3, n4, d) with cj == nj / d, d the lcm of the int or Fraction cj's denominators."""
    d = lcm(c1.denominator, c2.denominator, c3.denominator, c4.denominator)
    n1, n2 = c1.numerator * (d // c1.denominator), c2.numerator * (d // c2.denominator)
    n3, n4 = c3.numerator * (d // c3.denominator), c4.numerator * (d // c4.denominator)
    return n1, n2, n3, n4, d


def _q_form(w: DualComplex) -> tuple | None:
    """w's cleared form (n1, n2, n3, n4, d) over Q, or None when a coefficient is not in _EXACT.

    w._form is None when all four coefficients are int, False until a value
    with a Fraction or QuadExt is first read here, and then the form if d > 1.
    _cleared gives the canonical form, gcd(n1, .., n4, d) = 1; an integral
    value never caches one, so integer k keeps its int path.
    """
    form = w._form
    if form is None:
        return w._r, w._i, w._d, w._di, 1
    if form is False:
        if not (type(w._r) in _EXACT and type(w._i) in _EXACT
                and type(w._d) in _EXACT and type(w._di) in _EXACT):
            return None
        form = _cleared(w._r, w._i, w._d, w._di)
        if form[4] > 1:
            w._form = form
    return form


def _q_forms(a: DualComplex, b: DualComplex) -> tuple | None:
    """(a's form, b's form), or None when a coefficient is a QuadExt."""
    fa = _q_form(a)
    fb = None if fa is None else _q_form(b)
    return None if fb is None else (fa, fb)


def _over(n1: int, n2: int, n3: int, n4: int, d: int) -> DualComplex:
    """(n1, n2, n3, n4)/d for d > 0, holding its canonical form alone, or in int when integral."""
    g = gcd(n1, n2, n3, n4, d)
    if g != 1:
        n1, n2, n3, n4, d = n1 // g, n2 // g, n3 // g, n4 // g, d // g
    if d == 1:
        return DualComplex(n1, n2, n3, n4)
    w = object.__new__(DualComplex)
    w._form = (n1, n2, n3, n4, d)
    return w


def _sum(fa: tuple, fb: tuple, sign: int) -> DualComplex:
    """a + sign * b from the cleared forms of a and b."""
    a1, a2, a3, a4, da = fa
    b1, b2, b3, b4, db = fb
    d = lcm(da, db)
    x, y = d // da, sign * (d // db)
    return _over(a1 * x + b1 * y, a2 * x + b2 * y, a3 * x + b3 * y, a4 * x + b4 * y, d)


def _product(a1: Any, a2: Any, a3: Any, a4: Any, b1: Any, b2: Any, b3: Any, b4: Any) -> tuple:
    """The four coefficients of (a1 + a2 i + a3 eps + a4 i eps)(b1 + b2 i + b3 eps + b4 i eps)."""
    return (
        a1 * b1 - a2 * b2,
        a1 * b2 + a2 * b1,
        a1 * b3 + a3 * b1 - a2 * b4 - a4 * b2,
        a1 * b4 + a4 * b1 + a2 * b3 + a3 * b2,
    )


_JSON_KEYS = ("one", "i", "eps", "ieps")

_MOVES = {
    Conjugation.COMPLEX: lambda r, i, d, di: (r, -i, d, -di),
    Conjugation.DUAL: lambda r, i, d, di: (r, i, -d, -di),
    Conjugation.COUPLED: lambda r, i, d, di: (r, -i, -d, di),
    Conjugation.ANTI_DUAL: lambda r, i, d, di: (d, di, -r, -i),
}


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
