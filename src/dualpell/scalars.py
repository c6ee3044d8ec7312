"""Exact scalars: rational text format and the quadratic extension Q(sqrt(d)).

Rationals are stdlib ``fractions.Fraction`` values (always reduced, positive
denominator, exact equality). ``QuadExt`` adds a single square root over
int or Fraction coefficients, a + b sqrt(d); a radicand that is a perfect
rational square is folded away, so equality stays coefficient-wise
decidable. No command builds one: a DualComplex takes rational coefficients
only, the Binet forms run on int pairs (sequences._binet_row) and the
Binet constants on rational pairs (quaternions.hat_pair). QuadExt is the
tests' reference ring for the roots 1 +/- sqrt(1+k) of x^2 = 2x + k
(``make_alpha_beta``), and ``rationalize`` reads a radical-free one back as
a Fraction.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/[1-9]\d*)?", re.ASCII)  # 0-9 only, as rendered
# What text flags and names may be padded with; str.strip() with no argument
# would also take Unicode spaces and the separators \x1c-\x1f.
ASCII_SPACE = " \t\n\r\v\f"


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` (ASCII decimal digits, q > 0) into a Fraction.

    Surrounding ASCII whitespace is ignored. Rejects everything else with
    ValueError (zero or signed denominators, decimals, exponents, empty
    strings, other scripts' digits and spaces) and a non-str with TypeError.
    """
    if type(text) is not str:
        raise TypeError(f"rational text must be str, got {type(text).__name__}")
    s = text.strip(ASCII_SPACE)
    if not _RATIONAL_RE.fullmatch(s):
        raise ValueError(f"malformed rational: {text!r}")
    return Fraction(s)


def render_rational(x: QuadExt | Fraction | int) -> str:
    """Canonical text form ``p`` or ``p/q`` (q > 0) of a value ``rationalize`` accepts."""
    return str(rationalize(x))


# The exact scalar types. The test is on the exact type, so a bool, which
# subclasses int, is turned away as well as a float.
_EXACT = (int, Fraction)


def _rational_sqrt(x: Fraction | int) -> Fraction | int | None:
    """Exact square root of x > 0 if x is a square of a rational, else None.

    An int root comes back for an integral square.
    """
    num = math.isqrt(x.numerator)
    den = math.isqrt(x.denominator)
    if num * num == x.numerator and den * den == x.denominator:
        return num if den == 1 else Fraction(num, den)
    return None


class QuadExt:
    """Field element a + b*sqrt(d) with rational a, b and fixed radicand d > 0.

    Each of a, b and d is an int or a Fraction, kept as given, so integer
    inputs stay in int arithmetic; anything else, a float or a bool above all,
    raises TypeError. Two elements may be combined only when their radicands
    agree (ints and Fractions are coerced); with any other operand +, -, * and /
    return NotImplemented, so a DualComplex takes its reflected turn, which
    turns a QuadExt away, and a float or bool raises TypeError. If d is a
    perfect rational square the value normalizes to b = 0, so structural
    equality is mathematical equality in the degenerate case too. Immutable
    by convention.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Fraction | int, b: Fraction | int, d: Fraction | int) -> None:
        if not (type(a) in _EXACT and type(b) in _EXACT and type(d) in _EXACT):
            raise TypeError(f"QuadExt values must be int or Fraction, got QuadExt({a}, {b}, d={d})")
        if d <= 0:
            raise ValueError("radicand must be positive")
        if b:
            root = _rational_sqrt(d)
            if root is not None:
                a, b = a + b * root, 0
        self.a, self.b, self.d = a, b, d

    def _coerce(self, other: object) -> "QuadExt | None":
        """other on self's radicand, or None for a type QuadExt does not combine with."""
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise ValueError("mismatched radicands")
            return other
        if type(other) in _EXACT:
            return QuadExt(other, 0, self.d)
        return None

    def __add__(self, other: object) -> "QuadExt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __sub__(self, other: object) -> "QuadExt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other: object) -> "QuadExt":
        o = self._coerce(other)
        return NotImplemented if o is None else o - self

    def __neg__(self) -> "QuadExt":
        return QuadExt(-self.a, -self.b, self.d)

    def __mul__(self, other: object) -> "QuadExt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(
            self.a * o.a + self.b * o.b * self.d,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "QuadExt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a+b sqrt d)^-1 = (a-b sqrt d)/(a^2 - b^2 d); the norm vanishes
        # only for the zero element because d is not a nonzero square here.
        norm = o.a * o.a - o.b * o.b * self.d
        if norm == 0:
            raise ZeroDivisionError("division by zero quadratic element")
        if type(norm) is int:
            norm = Fraction(norm)  # int / int would be a float
        return QuadExt(
            (self.a * o.a - self.b * o.b * self.d) / norm,
            (self.b * o.a - self.a * o.b) / norm,
            self.d,
        )

    def __rtruediv__(self, other: object) -> "QuadExt":
        o = self._coerce(other)
        return NotImplemented if o is None else o / self

    def __pow__(self, n: int) -> "QuadExt":
        if type(n) is not int:
            raise TypeError(f"QuadExt exponent must be int, got {type(n).__name__}")
        if n < 0:
            return (QuadExt(1, 0, self.d) / self) ** (-n)
        result = QuadExt(1, 0, self.d)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "QuadExt":
        """Radical conjugate a + b*sqrt(d) -> a - b*sqrt(d)."""
        return QuadExt(self.a, -self.b, self.d)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadExt):
            if self.b == 0 and other.b == 0:
                return self.a == other.a
            return self.d == other.d and self.a == other.a and self.b == other.b
        if type(other) in _EXACT:
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.a) if self.b == 0 else hash((self.a, self.b, self.d))

    def __repr__(self) -> str:
        return f"QuadExt({self.a}, {self.b}, d={self.d})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        return f"{self.a} + {self.b}*sqrt({self.d})"


def positive_k(k: Fraction | int) -> Fraction | int:
    """The parameter k checked exact and positive: an int when integral, else a Fraction.

    Anything else, a float above all, is rejected rather than converted, so an
    inexact value can never enter through k. The exact type test also turns
    away bool, which subclasses int.
    """
    if type(k) not in _EXACT or k <= 0:
        shown = str(k) if type(k) in _EXACT else repr(k)  # an exact k reads as typed: 0, -3/2
        raise ValueError(f"k must be a positive int or Fraction, got {shown}")
    return k.numerator if k.denominator == 1 else k


def exact_index(n: int, least: int | None = None, name: str = "n") -> int:
    """An index or count checked to be exactly an int (not a bool), and >= least if given.

    ``name`` is the argument the error message names; it changes nothing else.
    """
    if type(n) is not int:
        raise ValueError(f"{name} must be int, got {n!r}")
    if least is not None and n < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")
    return n


def make_alpha_beta(k: Fraction | int) -> tuple[QuadExt, QuadExt]:
    """Characteristic roots 1 + sqrt(1+k) and 1 - sqrt(1+k) of x^2 = 2x + k.

    Requires k > 0. Their sum is 2 and their product is -k.
    """
    d = 1 + positive_k(k)
    return QuadExt(1, 1, d), QuadExt(1, -1, d)


def rationalize(x: QuadExt | Fraction | int) -> Fraction:
    """Collapse a radical-free value to a plain Fraction.

    Raises ValueError when the radical coefficient is nonzero, and TypeError
    for anything but an int, a Fraction or a QuadExt (a bool or float above all).
    """
    if type(x) in _EXACT:
        return Fraction(x)
    if type(x) is not QuadExt:
        raise TypeError(f"cannot rationalize {type(x).__name__}")
    if x.b != 0:
        raise ValueError(f"not a rational value: {x}")
    return Fraction(x.a)
