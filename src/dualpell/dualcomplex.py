"""The commutative dual-complex ring on the basis {1, i, eps, i*eps}.

Multiplication follows i^2 = -1, eps^2 = 0, (i*eps)^2 = 0, i*eps = eps*i.
Writing w = z1 + eps*z2 with complex z1, z2, an element is invertible exactly
when z1 is nonzero; elements with z1 = 0 are zero divisors (eps is nilpotent).

Coefficients are rationals: int and Fraction, which may mix (scalars._EXACT).
Every value is cleared once, when it is made, to its canonical form
(n1, n2, n3, n4, d): the coefficients are nj / d with d >= 1 and
gcd(n1, n2, n3, n4, d) = 1. +, -, unary -, scale, *, == and the conjugates
each run one kernel, in int on the forms. Four ints (d = 1) or four
Fractions over d > 1 are held as the form alone; any other value keeps its
coefficients as given beside it. A kernel's result holds its form alone: its
coefficients are read off the form, as plain ints when d = 1, so integral
results come back with int coefficients. The other four conjugates are
signed permutations of the numerators, each move held by its Conjugation
member; the dual-complex conjugate of
(a, b, c, e)/D is (aN, -bN, x, y)/(D N) with N = a^2 + b^2. A quotient w / v
is w v* / (v v*) for the dual-complex conjugate v*: v v* is the real
|z1|^2, so it is w v* scaled by its reciprocal. No coefficient ever becomes
a float. Values in Q(sqrt(1+k)), such as the Binet constants, are carried as
pairs X, Y of values over Q for X + sqrt(1+k) Y (see quaternions.hat_pair).

DualComplex and the package's six other records stand on _Record, which
gives them a dataclass's API without importing dataclasses at start-up.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub

from .scalars import _EXACT, parse_rational

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any


class NonInvertibleError(ZeroDivisionError):
    """The complex part is zero, so no inverse or dual-complex conjugate exists."""


class Conjugation(Enum):
    """The five conjugations of a dual-complex number.

    COMPLEX       z1* + eps z2*        (negate both i-slots)
    DUAL          z1  - eps z2         (negate the eps half)
    COUPLED       z1* - eps z2*        (composition of the two above)
    DUAL_COMPLEX  z1* (1 - eps z2/z1)  (needs z1 invertible)
    ANTI_DUAL     z2  - eps z1         (swap halves, negate the new eps half)

    Each member but DUAL_COMPLEX holds its move, the signed permutation of
    the form's numerators, as _move: conjugate reads it off the member, as a
    table keyed by member would call Enum's Python-level __hash__.
    """

    def __new__(cls, value: int, move: Any) -> "Conjugation":
        member = object.__new__(cls)
        member._value_, member._move = value, move
        return member

    COMPLEX = 1, lambda r, i, d, di: (r, -i, d, -di)
    DUAL = 2, lambda r, i, d, di: (r, i, -d, -di)
    COUPLED = 3, lambda r, i, d, di: (r, -i, -d, di)
    DUAL_COMPLEX = 4, None
    ANTI_DUAL = 5, lambda r, i, d, di: (d, di, -r, -i)


class _Fields:
    """A record's __dataclass_fields__, made on its first read and then cached on the class.

    Whoever reads it (dataclasses.fields, replace, astuple, asdict,
    is_dataclass) has imported dataclasses already, so a command that never
    asks does not import it. The fields are those of a throwaway dataclass
    twin: the names in __match_args__, with the annotations and defaults of
    the record's __init__.
    """

    def __get__(self, record: Any, cls: type) -> dict:
        from dataclasses import dataclass

        init, names = cls.__init__, cls.__match_args__
        defaults = dict(zip(reversed(names), reversed(init.__defaults__ or ())))
        annotations = {name: init.__annotations__[name] for name in names}
        twin = dataclass(type(cls.__name__, (), {"__annotations__": annotations, **defaults}))
        cls.__dataclass_fields__ = fields = twin.__dataclass_fields__
        return fields


class _Record:
    """A record shaped like a dataclass, whose fields are the names in __match_args__.

    repr and copy.replace follow the fields, and __dataclass_fields__ is
    built on demand (see _Fields), so the dataclasses functions treat a
    record as a dataclass while no module imports dataclasses.
    """

    __slots__ = ()
    __dataclass_fields__ = _Fields()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{self.__class__.__qualname__}({shown})"

    def __replace__(self, **changes: Any) -> Any:  # copy.replace, Python 3.13 on
        return self.__class__(**dict(zip(self.__match_args__, self._values()), **changes))


class _FrozenRecord(_Record):
    """A frozen record: == and hash compare the fields as a tuple, and pickling rebuilds through __init__.

    A subclass lists its fields as both __slots__ and __match_args__, and
    its own __init__ stores them through _FrozenRecord.__init__. Assignment
    raises dataclasses.FrozenInstanceError, as on a frozen dataclass.
    """

    __slots__ = ()

    def __init__(self, *values: Any) -> None:
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()

    def __setattr__(self, name: str, value: Any) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class DualComplex(_Record):
    """w = real + imag*i + dual*eps + dual_imag*i*eps over int and Fraction.

    Any other coefficient, a float, a bool or a QuadExt, raises TypeError. The
    four fields are read-only properties over two private slots, and never
    change: _form holds the canonical cleared form, made with the value, and
    _c the four coefficients, or None while the value holds its form alone
    (see coefficients). Neither slot is a field, so repr, hash and the
    constructor never show them, and == compares forms. Pickling and copying
    keep both slots as they are.
    """

    __slots__ = ("_c", "_form")
    __match_args__ = ("real", "imag", "dual", "dual_imag")

    real: Any = property(lambda w: w.coefficients()[0])
    imag: Any = property(lambda w: w.coefficients()[1])
    dual: Any = property(lambda w: w.coefficients()[2])
    dual_imag: Any = property(lambda w: w.coefficients()[3])

    def __init__(self, real: Any, imag: Any, dual: Any, dual_imag: Any) -> None:
        t1, t2, t3, t4 = type(real), type(imag), type(dual), type(dual_imag)
        if t1 is int and t2 is int and t3 is int and t4 is int:
            self._c, self._form = None, (real, imag, dual, dual_imag, 1)
        elif t1 in _EXACT and t2 in _EXACT and t3 in _EXACT and t4 in _EXACT:
            # cleared over the lcm d of the reduced denominators; d > 1 with one type is four
            # Fractions, which the form reads back as given, so only other values keep theirs
            (n1, d1), (n2, d2) = real.as_integer_ratio(), imag.as_integer_ratio()
            (n3, d3), (n4, d4) = dual.as_integer_ratio(), dual_imag.as_integer_ratio()
            d = lcm(d1, d2, d3, d4)
            self._form = n1 * (d // d1), n2 * (d // d2), n3 * (d // d3), n4 * (d // d4), d
            self._c = None if d != 1 and t1 is t2 is t3 is t4 else (real, imag, dual, dual_imag)
        else:
            shown = ", ".join(type(c).__name__ for c in (real, imag, dual, dual_imag))
            raise TypeError(f"DualComplex coefficients must be int or Fraction, got ({shown})")

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not DualComplex:
            return NotImplemented
        return self._form == other._form  # canonical, so equal values have equal forms

    def __hash__(self) -> int:
        return hash(self.coefficients())

    def complex_part(self) -> tuple:
        """z1 of the split w = z1 + eps*z2."""
        return (self.real, self.imag)

    def dual_part(self) -> tuple:
        """z2 of the split w = z1 + eps*z2."""
        return (self.dual, self.dual_imag)

    def coefficients(self) -> tuple:
        c = self._c
        if c is None:  # a value holding its form alone: ints read as they are, Fractions built once
            n1, n2, n3, n4, d = self._form
            if d == 1:
                return n1, n2, n3, n4
            c = self._c = Fraction(n1, d), Fraction(n2, d), Fraction(n3, d), Fraction(n4, d)
        return c

    def has_zero_complex_part(self) -> bool:
        return not self._form[0] and not self._form[1]

    def __add__(self, other: "DualComplex") -> "DualComplex":
        if not isinstance(other, DualComplex):
            return NotImplemented
        fa, fb = self._form, other._form
        if fa[4] != fb[4]:  # unequal denominators, rescaled; equal ones, as at integer k, add as they are
            return _sum(fa, fb, add)
        a1, a2, a3, a4, d = fa
        b1, b2, b3, b4, _ = fb
        return _over(a1 + b1, a2 + b2, a3 + b3, a4 + b4, d)

    def __sub__(self, other: "DualComplex") -> "DualComplex":
        if not isinstance(other, DualComplex):
            return NotImplemented
        fa, fb = self._form, other._form
        if fa[4] != fb[4]:
            return _sum(fa, fb, sub)
        a1, a2, a3, a4, d = fa
        b1, b2, b3, b4, _ = fb
        return _over(a1 - b1, a2 - b2, a3 - b3, a4 - b4, d)

    def __neg__(self) -> "DualComplex":
        return self.scale(-1)

    def scale(self, s: Any) -> "DualComplex":
        """s * w for an int or Fraction s; anything else, a float, a bool or a QuadExt, raises TypeError.

        The result is read off its form, so an integral Fraction scales as its int numerator.
        """
        if type(s) not in _EXACT:
            raise TypeError(f"cannot scale a DualComplex by {type(s).__name__}")
        n1, n2, n3, n4, d = self._form
        p, q = s.as_integer_ratio()
        return _over(p * n1, p * n2, p * n3, p * n4, q * d)

    def __mul__(self, other: Any) -> "DualComplex":
        if not isinstance(other, DualComplex):
            return self.scale(other)
        # (a1 + a2 i + a3 eps + a4 i eps)(b1 + b2 i + b3 eps + b4 i eps) on the cleared forms, in int
        a1, a2, a3, a4, da = self._form
        b1, b2, b3, b4, db = other._form
        return _over(a1 * b1 - a2 * b2, a1 * b2 + a2 * b1, a1 * b3 + a3 * b1 - a2 * b4 - a4 * b2,
                     a1 * b4 + a4 * b1 + a2 * b3 + a3 * b2, da * db)

    def __rmul__(self, other: Any) -> "DualComplex":
        return self.scale(other)

    def __truediv__(self, other: "DualComplex") -> "DualComplex":
        """Quotient q with q * other == self; other needs a nonzero complex part.

        other times its dual-complex conjugate c is the real |z1|^2 of its
        complex part z1, so q = self * c / (other * c): self * c scaled by D / N for
        the form (N, 0, 0, 0, D) of other * c.
        """
        if not isinstance(other, DualComplex):
            return NotImplemented
        c = other.conjugate(Conjugation.DUAL_COMPLEX)
        n, _, _, _, d = (other * c)._form
        return (self * c).scale(Fraction(d, n))

    def conjugate(self, kind: Conjugation) -> "DualComplex":
        """The conjugate of the given kind, on the cleared form (a, b, c, e)/D.

        The dual-complex conjugate is (aN, -bN, x, y)/(D N) with N = |Z1|^2
        for Z1 = D z1, and raises NonInvertibleError when z1 = 0; the other
        four are signed permutations of the form's numerators.
        """
        a, b, c, e, den = self._form
        move = kind._move
        if move is not None:
            w = object.__new__(DualComplex)
            w._c, w._form = None, (*move(a, b, c, e), den)
            return w
        # conj(w) = z1* (1 - eps z2/z1) = z1* - eps z2 (z1*)^2 / |z1|^2, here with
        # Z1 = a + bi, Z2 = c + ei and (Z1*)^2 = c0 + c1 i, so x + yi = -Z2 (Z1*)^2
        aa, bb = a * a, b * b
        n = aa + bb
        if not n:
            raise NonInvertibleError("dual-complex conjugation and division need a nonzero complex part")
        c0, c1 = aa - bb, -2 * a * b
        return _over(a * n, -b * n, e * c1 - c * c0, -(c * c1 + e * c0), den * n)

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


def _over(n1: int, n2: int, n3: int, n4: int, d: int) -> DualComplex:
    """(n1, n2, n3, n4)/d for d > 0, holding its canonical form alone."""
    if d != 1:
        g = gcd(d, n1, n2, n3, n4)  # d first: often a power of q, so the chain reaches 1 soon
        if g != 1:
            n1, n2, n3, n4, d = n1 // g, n2 // g, n3 // g, n4 // g, d // g
    w = object.__new__(DualComplex)
    w._c, w._form = None, (n1, n2, n3, n4, d)
    return w


def _sum(fa: tuple, fb: tuple, op: Any) -> DualComplex:
    """op(a, b) for op add or sub, from the cleared forms of a and b, rescaled to lcm(da, db)."""
    a1, a2, a3, a4, da = fa
    b1, b2, b3, b4, db = fb
    d = lcm(da, db)
    x, y = d // da, d // db
    return _over(op(a1 * x, b1 * y), op(a2 * x, b2 * y), op(a3 * x, b3 * y), op(a4 * x, b4 * y), d)


_JSON_KEYS = ("one", "i", "eps", "ieps")

DC_ZERO = DualComplex(0, 0, 0, 0)
DC_ONE = DualComplex(1, 0, 0, 0)
DC_I = DualComplex(0, 1, 0, 0)
DC_EPS = DualComplex(0, 0, 1, 0)
DC_IEPS = DualComplex(0, 0, 0, 1)
