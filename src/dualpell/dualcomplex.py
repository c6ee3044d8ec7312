"""The commutative dual-complex ring on the basis {1, i, eps, i*eps}.

Multiplication follows i^2 = -1, eps^2 = 0, (i*eps)^2 = 0, i*eps = eps*i.
Writing w = z1 + eps*z2 with complex z1, z2, an element is invertible exactly
when z1 is nonzero; elements with z1 = 0 are zero divisors (eps is nilpotent).

Coefficients are generic over an exact scalar ring: one multiplication formula
serves int, Fraction and QuadExt, which is how the Binet machinery reuses it.
int and Fraction coefficients may mix. Over Q, that is with every coefficient
in scalars._EXACT (int or Fraction), +, -, unary -, scale, *, == and the
conjugates run in int on each value's canonical cleared form
(n1, n2, n3, n4, d): the coefficients are nj / d with d >= 1 and
gcd(n1, n2, n3, n4, d) = 1. A value holds its coefficients, its form, or
both. An all-int value holds its form alone, with d = 1. A value given a
Fraction keeps its coefficients as given, and caches its form on its first
use over Q. A kernel's result holds its form alone: its coefficients are
read off the form, as plain ints when d = 1, so integral results come back
with int coefficients. With a QuadExt coefficient the same formulas run on
the coefficients. Over Q the dual-complex conjugate of (a, b, c, e)/D is
(aN, -bN, x, y)/(D N) with N = a^2 + b^2; over a QuadExt it scales by the
exact reciprocal Fraction(1)/|z1|^2. A quotient w / v is w v* / (v v*) for
the dual-complex conjugate v*, on one route for every scalar ring: v v* is
the real |z1|^2, so it is w v* scaled by its reciprocal. No coefficient ever
becomes a float.

DualComplex and the package's six other records stand on _Record, which
gives them a dataclass's API without importing dataclasses at start-up.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub

from .scalars import _EXACT, _SCALARS, parse_rational

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
    """

    COMPLEX = 1
    DUAL = 2
    COUPLED = 3
    DUAL_COMPLEX = 4
    ANTI_DUAL = 5


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
    """w = real + imag*i + dual*eps + dual_imag*i*eps over int, Fraction or QuadExt.

    A float or bool coefficient raises TypeError. The four fields are read-only
    properties over two private slots, and never change: _c holds the four
    coefficients, or None while the value holds its form alone (see
    coefficients), and _form holds the canonical cleared form over Q (see
    _q_form), or False while none is known. Neither slot is a field, so repr,
    hash and the constructor never show them, and == answers the same
    whichever a value holds. Pickling and copying keep both slots as they are.
    """

    __slots__ = ("_c", "_form")
    __match_args__ = ("real", "imag", "dual", "dual_imag")

    real: Any = property(lambda w: w.coefficients()[0])
    imag: Any = property(lambda w: w.coefficients()[1])
    dual: Any = property(lambda w: w.coefficients()[2])
    dual_imag: Any = property(lambda w: w.coefficients()[3])

    def __init__(self, real: Any, imag: Any, dual: Any, dual_imag: Any) -> None:
        if type(real) is int and type(imag) is int and type(dual) is int and type(dual_imag) is int:
            self._c, self._form = None, (real, imag, dual, dual_imag, 1)
        elif (type(real) in _SCALARS and type(imag) in _SCALARS
                and type(dual) in _SCALARS and type(dual_imag) in _SCALARS):
            self._c, self._form = (real, imag, dual, dual_imag), False
        else:
            shown = ", ".join(type(c).__name__ for c in (real, imag, dual, dual_imag))
            raise TypeError(f"DualComplex coefficients must be int, Fraction or QuadExt, got ({shown})")

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not DualComplex:
            return NotImplemented
        form, other_form = self._form or _q_form(self), other._form or _q_form(other)
        if form and other_form:
            return form == other_form  # canonical, so equal values have equal forms
        return self.coefficients() == other.coefficients()

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
        return not self.real and not self.imag

    def __add__(self, other: "DualComplex") -> "DualComplex":
        if not isinstance(other, DualComplex):
            return NotImplemented
        form, other_form = self._form or _q_form(self), other._form or _q_form(other)
        if form and other_form:
            return _sum(form, other_form, add)
        return DualComplex(*map(add, self.coefficients(), other.coefficients()))

    def __sub__(self, other: "DualComplex") -> "DualComplex":
        if not isinstance(other, DualComplex):
            return NotImplemented
        form, other_form = self._form or _q_form(self), other._form or _q_form(other)
        if form and other_form:
            return _sum(form, other_form, sub)
        return DualComplex(*map(sub, self.coefficients(), other.coefficients()))

    def __neg__(self) -> "DualComplex":
        return self.scale(-1)

    def scale(self, s: Any) -> "DualComplex":
        """s * w for an int, Fraction or QuadExt s; a float or bool raises TypeError.

        An integral Fraction scales as its int numerator, as positive_k takes k.
        """
        kind = type(s)
        if kind not in _SCALARS:
            raise TypeError(f"cannot scale a DualComplex by {kind.__name__}")
        if kind is Fraction and s.denominator == 1:
            s, kind = s.numerator, int
        form = kind in _EXACT and (self._form or _q_form(self))
        if form:
            n1, n2, n3, n4, d = form
            p = s.numerator
            return _over(p * n1, p * n2, p * n3, p * n4, s.denominator * d)
        return DualComplex(*[s * c for c in self.coefficients()])

    def __mul__(self, other: Any) -> "DualComplex":
        if not isinstance(other, DualComplex):
            return self.scale(other)
        # Over Q the formula runs on the operands' cleared forms, in int.
        form, other_form = self._form or _q_form(self), other._form or _q_form(other)
        if form and other_form:
            a1, a2, a3, a4, da = form
            b1, b2, b3, b4, db = other_form
            n1, n2, n3, n4 = _product(a1, a2, a3, a4, b1, b2, b3, b4)
            return _over(n1, n2, n3, n4, da * db)
        return DualComplex(*_product(*self.coefficients(), *other.coefficients()))

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
            # a signed permutation of a held form's numerators, or else of the coefficients
            move, form = _MOVES[kind], self._form
            if not form:
                return DualComplex(*move(*self._c))
            w = object.__new__(DualComplex)
            w._c, w._form = None, (*move(form[0], form[1], form[2], form[3]), form[4])
            return w
        # Over Q on the cleared form (a, b, c, e)/D, so the result is
        # (aN, -bN, x, y)/(D N) with N = |Z1|^2 for Z1 = D z1.
        form = self._form or _q_form(self)
        if form:
            a, b, c, e, den = form
            x, y, n = _conjugate_eps(a, b, c, e)
            return _over(a * n, -b * n, x, y, den * n)
        r, i, d, di = self._c  # a QuadExt value, so it holds its coefficients
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


def _q_form(w: DualComplex) -> tuple | None:
    """w's canonical cleared form (n1, n2, n3, n4, d) over Q, or None for a QuadExt coefficient.

    A value without a form holds its coefficients as given; the first read
    here clears them over the lcm d of their denominators and caches the
    form, d = 1 included.
    """
    form = w._form
    if form is False:
        c1, c2, c3, c4 = w._c
        if not (type(c1) in _EXACT and type(c2) in _EXACT and type(c3) in _EXACT and type(c4) in _EXACT):
            return None
        d = lcm(c1.denominator, c2.denominator, c3.denominator, c4.denominator)
        form = w._form = (c1.numerator * (d // c1.denominator), c2.numerator * (d // c2.denominator),
                          c3.numerator * (d // c3.denominator), c4.numerator * (d // c4.denominator), d)
    return form


def _over(n1: int, n2: int, n3: int, n4: int, d: int) -> DualComplex:
    """(n1, n2, n3, n4)/d for d > 0, holding its canonical form alone."""
    if d != 1:
        g = gcd(n1, n2, n3, n4, d)
        if g != 1:
            n1, n2, n3, n4, d = n1 // g, n2 // g, n3 // g, n4 // g, d // g
    w = object.__new__(DualComplex)
    w._c, w._form = None, (n1, n2, n3, n4, d)
    return w


def _sum(fa: tuple, fb: tuple, op: Any) -> DualComplex:
    """op(a, b) for op add or sub, from the cleared forms of a and b."""
    a1, a2, a3, a4, da = fa
    b1, b2, b3, b4, db = fb
    if da == db:  # equal denominators, as between integer values: no rescaling
        return _over(op(a1, b1), op(a2, b2), op(a3, b3), op(a4, b4), da)
    d = lcm(da, db)
    x, y = d // da, d // db
    return _over(op(a1 * x, b1 * y), op(a2 * x, b2 * y), op(a3 * x, b3 * y), op(a4 * x, b4 * y), d)


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
