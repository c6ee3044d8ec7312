"""The k-Pell sequence family, exact over the rationals.

P is defined by P_0 = 0, P_1 = 1, P_{n+1} = 2 P_n + k P_{n-1}; the companion
and modified sequences are the linear combinations PL_n = 2(P_{n+1} - P_n)
and MP_n = P_{n+1} - P_n, which satisfy the same recurrence. Negative indices
follow from P_{-j} = -P_j / (-k)^j, which holds because alpha * beta = -k.

Every term comes from one integer engine. With k = p/q, the cleared terms
A_j = q^(j-1) P_j are integers: A_lo is reached by fast doubling (from
P_2n = P_n PL_n) and the rest of a row follows the cleared recurrence, so a
Fraction is built only for the terms that are returned. For integer k and
n >= 0 the term is the cleared term itself and is returned as a plain int;
every other term is a Fraction. The two mix exactly under +, -, * and
nonnegative powers, so callers need not tell them apart. Each family's rows
come from one rule, and its dual-complex numbers sit in one table per (family, k).
"""

from __future__ import annotations

import functools
from enum import Enum
from fractions import Fraction

from .dualcomplex import DualComplex, _FrozenRecord
from .scalars import ASCII_SPACE, _cleared_roots, exact_index, positive_k


class Family(Enum):
    K_PELL = "pell"
    K_PELL_LUCAS = "pell-lucas"
    MODIFIED_K_PELL = "modified-pell"

    @classmethod
    def from_name(cls, name: str) -> "Family":
        if type(name) is not str:
            raise TypeError(f"family name must be str, got {type(name).__name__}")
        key = name.strip(ASCII_SPACE).lower()
        aliases = {
            "pell": cls.K_PELL,
            "p": cls.K_PELL,
            "pell-lucas": cls.K_PELL_LUCAS,
            "lucas": cls.K_PELL_LUCAS,
            "pl": cls.K_PELL_LUCAS,
            "modified-pell": cls.MODIFIED_K_PELL,
            "modified": cls.MODIFIED_K_PELL,
            "mp": cls.MODIFIED_K_PELL,
        }
        if key not in aliases:
            raise ValueError(f"unknown sequence family: {name!r}")
        return aliases[key]


def _checked_family(family: Family) -> Family:
    """family, which must be a Family member: any other value would read as MP."""
    if type(family) is not Family:
        raise ValueError(f"family must be a Family, got {family!r}")
    return family


class SequenceSpec(_FrozenRecord):
    """A concrete sequence: the family plus its exact positive parameter k."""

    __slots__ = __match_args__ = ("family", "k")

    def __init__(self, family: Family, k: Fraction | int) -> None:
        super().__init__(_checked_family(family), positive_k(k))


def _cleared(p: int, q: int, lo: int, count: int):
    """A_lo ... A_{lo+count-1} for lo >= 0, where A_j = q^(j-1) P_j and k = p/q."""
    a, b = 0, 1  # (A_m, A_{m+1}), doubled from m = 0 up to m = lo bit by bit
    for bit in bin(lo)[2:]:
        a, b = 2 * a * (b - q * a), b * b + p * q * a * a
        if bit == "1":
            a, b = b, 2 * q * b + p * q * a
    for _ in range(count):
        yield a
        a, b = b, 2 * q * b + p * q * a


def _pell_row(p: int, q: int, lo: int, count: int) -> tuple[Fraction | int, ...]:
    """P_lo ... P_{lo+count-1} for k = p/q, any integer lo."""
    neg = min(max(-lo, 0), count)  # how many of the indices are negative
    terms = []
    if neg:
        # P_{-j} = -P_j / (-k)^j = -q A_j / (-p)^j, built for j ascending
        j = -lo - neg + 1
        den = (-p) ** j
        for a in _cleared(p, q, j, neg):
            terms.append(Fraction(-q * a, den))
            den *= -p
        terms.reverse()
    start = max(lo, 0)
    if q == 1:
        terms.extend(_cleared(p, q, start, count - neg))  # P_j = A_j
        return tuple(terms)
    den = q**start
    for a in _cleared(p, q, start, count - neg):
        terms.append(Fraction(q * a, den))  # P_j = q A_j / q^j
        den *= q
    return tuple(terms)


class _ByIndex(dict):
    """Values by integer index, each built once by ``build`` on its first read."""

    __slots__ = ("build",)

    def __init__(self, build) -> None:
        self.build = build

    def __missing__(self, j: int):
        value = self[j] = self.build(j)
        return value


def _family_row(
    family: Family, k: Fraction | int, lo: int, count: int
) -> tuple[Fraction | int, ...]:
    """S_lo ... S_{lo+count-1} of the family at k: P itself, or PL and MP by their rule from P."""
    p, q = k.numerator, k.denominator
    if family is Family.K_PELL:
        return _pell_row(p, q, lo, count)
    row = _pell_row(p, q, lo, count + 1)
    scale = 2 if family is Family.K_PELL_LUCAS else 1
    return tuple(scale * (b - a) for a, b in zip(row, row[1:]))


@functools.cache
def _numbers(family: Family, k: Fraction | int):
    """The family's dual-complex number at k by index, each built once from its row."""
    return _ByIndex(lambda j: DualComplex(*_family_row(family, k, j, 4))).__getitem__


@functools.cache
def _shared(k: Fraction | int) -> tuple:
    """(p, gamma) of one checked k, built once and read by every view of k."""
    p = _ByIndex(lambda j: _family_row(Family.K_PELL, k, j, 1)[0]).__getitem__
    return p, DualComplex(1 + k, 2, 2 * k * k + 6 * k + 4, 4 * k + 8)


class Terms:
    """The sequence terms at one checked k, read by index.

    p(j) is P_j, d(family, j) the family's dual-complex number at j and q(j)
    that number for K_PELL; each is read off row's one family rule, built once
    per (family, j) on the first read of its family and shared by every view
    of k, as is gamma, (1+k) + 2i + (2k^2+6k+4) eps + (4k+8) i eps.
    row(family, lo, count) is a stretch of terms, built on every call. qq(a, b)
    is Q_a Q_b, built once per unordered pair, and once(fn, key) is
    fn(self, key), built once per (fn, key); both are held by this view alone,
    so an evaluator that makes its own Terms(k) drops them with it.
    """

    __slots__ = ("k", "p", "q", "gamma", "_qq", "_once")

    def __init__(self, k: Fraction | int) -> None:
        self.k = k
        self.p, self.gamma = _shared(k)
        self.q = q = _numbers(Family.K_PELL, k)
        self._qq = _ByIndex(lambda ab: q(ab[0]) * q(ab[1]))
        self._once = {}  # a plain dict: a closure over self here would make a reference cycle

    def qq(self, a: int, b: int) -> DualComplex:
        return self._qq[(a, b) if a <= b else (b, a)]

    def once(self, fn, key):
        """fn(self, key), built on the first read of (fn, key) on this view."""
        try:
            return self._once[fn, key]
        except KeyError:
            value = self._once[fn, key] = fn(self, key)
            return value

    def row(self, family: Family, lo: int, count: int) -> tuple[Fraction | int, ...]:
        """S_lo ... S_{lo+count-1}: an int for integer k and index >= 0, else a Fraction."""
        return _family_row(family, self.k, lo, count)

    def d(self, family: Family, j: int) -> DualComplex:
        return _numbers(family, self.k)(j)


_views = functools.cache(Terms)  # the shared view of each checked k


def terms(k: Fraction | int) -> Terms:
    """The term view of one positive int or Fraction k, built once per value of k."""
    return _views(positive_k(k))


def seq_row(
    family: Family, k: Fraction | int, lo: int, count: int
) -> tuple[Fraction | int, ...]:
    """The terms S_lo ... S_{lo+count-1} of the family at k, read through terms(k)."""
    family = _checked_family(family)
    return terms(k).row(family, exact_index(lo, name="lo"), exact_index(count, 0, "count"))


def pell_term(k: Fraction | int, n: int) -> Fraction | int:
    """P_{k,n} for any integer n."""
    return terms(k).p(exact_index(n))


def seq_term(spec: SequenceSpec, n: int) -> Fraction | int:
    """The n-th term of the chosen family, exact, any integer index."""
    return terms(spec.k).row(spec.family, exact_index(n), 1)[0]


def seq_term_fast(spec: SequenceSpec, n: int) -> Fraction | int:
    """seq_term for n >= 0; a negative index is rejected, as in the closed forms."""
    return seq_term(spec, exact_index(n, 0))


def seq_binet(k: Fraction | int, n: int) -> Fraction:
    """P_{k,n} evaluated as (alpha^n - beta^n) / (alpha - beta), as a Fraction.

    With k = p/q it runs on rho = q alpha and rho_bar = q beta, the roots
    q +/- sqrt(q(p+q)) of x^2 = 2qx + pq, so the powers stay in int arithmetic:
    (rho^n - rho_bar^n) / (rho - rho_bar) is A_n = q^(n-1) P_n, and it and
    q^(n-1) are divided out at the end, in one Fraction. At n = -j < 0,
    (-rho_bar)^j and (-rho)^j take the place of rho^n and rho_bar^n, and p^j
    joins the denominator of that Fraction (see scalars._cleared_roots).
    """
    n = exact_index(n)
    rho, rho_bar, unclear = _cleared_roots(k)
    if n < 0:
        return unclear((-rho_bar) ** -n - (-rho) ** -n, 0, -n)
    return unclear(rho**n - rho_bar**n, n)


def seq_prefix_sum(k: Fraction | int, n: int) -> Fraction:
    """Closed form of sum(P_{k,i} for i = 0..n): (-1 + P_{n+1} + k P_n)/(k+1)."""
    n = exact_index(n, 0)
    t = terms(k)
    return Fraction(-1 + t.p(n + 1) + t.k * t.p(n), t.k + 1)


def dc_number(family: Family, k: Fraction | int, n: int) -> DualComplex:
    """Dual-complex number S_n + i S_{n+1} + eps S_{n+2} + i eps S_{n+3}."""
    return terms(k).d(_checked_family(family), exact_index(n))
