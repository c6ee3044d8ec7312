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
nonnegative powers, so callers need not tell them apart.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .dualcomplex import DualComplex
from .scalars import exact_index, make_alpha_beta, positive_k, rationalize


class Family(Enum):
    K_PELL = "pell"
    K_PELL_LUCAS = "pell-lucas"
    MODIFIED_K_PELL = "modified-pell"

    @classmethod
    def from_name(cls, name: str) -> "Family":
        key = name.strip().lower()
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


@dataclass(frozen=True)
class SequenceSpec:
    """A concrete sequence: the family plus its exact positive parameter k."""

    family: Family
    k: Fraction | int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", positive_k(self.k))


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


@functools.cache
def _shared(k: Fraction | int) -> tuple:
    """(p, q, gamma) of one checked k, built once and read by every view of k."""
    row = functools.partial(_pell_row, k.numerator, k.denominator)
    p = _ByIndex(lambda j: row(j, 1)[0]).__getitem__
    q = _ByIndex(lambda j: DualComplex(*row(j, 4))).__getitem__
    return p, q, DualComplex(1 + k, 2, 2 * k * k + 6 * k + 4, 4 * k + 8)


class Terms:
    """The sequence terms at one checked k, read by index.

    p(j) is P_j and q(j) the k-Pell dual-complex number at j, each built once
    per j and shared by every view of k, as is gamma, (1+k) + 2i + (2k^2+6k+4)
    eps + (4k+8) i eps. d(family, j) is that number for any family and
    row(family, lo, count) a stretch of terms, built on every call. qq(a, b)
    is Q_a Q_b, built once per unordered pair and held by this view alone, so
    an evaluator that makes its own Terms(k) drops the products with it.
    """

    __slots__ = ("k", "p", "q", "gamma", "_qq")

    def __init__(self, k: Fraction | int) -> None:
        self.k = k
        self.p, self.q, self.gamma = _shared(k)
        q = self.q
        self._qq = _ByIndex(lambda ab: q(ab[0]) * q(ab[1]))

    def qq(self, a: int, b: int) -> DualComplex:
        return self._qq[(a, b) if a <= b else (b, a)]

    def row(self, family: Family, lo: int, count: int) -> tuple[Fraction | int, ...]:
        """S_lo ... S_{lo+count-1}: an int for integer k and index >= 0, else a Fraction."""
        p, q = self.k.numerator, self.k.denominator
        if family is Family.K_PELL:
            return _pell_row(p, q, lo, count)
        row = _pell_row(p, q, lo, count + 1)
        scale = 2 if family is Family.K_PELL_LUCAS else 1
        return tuple(scale * (b - a) for a, b in zip(row, row[1:]))

    def d(self, family: Family, j: int) -> DualComplex:
        if family is Family.K_PELL:
            return self.q(j)
        return DualComplex(*self.row(family, j, 4))


_views = functools.cache(Terms)  # the shared view of each checked k


def terms(k: Fraction | int) -> Terms:
    """The term view of one positive int or Fraction k, built once per value of k."""
    return _views(positive_k(k))


def seq_row(
    family: Family, k: Fraction | int, lo: int, count: int
) -> tuple[Fraction | int, ...]:
    """The terms S_lo ... S_{lo+count-1} of the family at k, read through terms(k)."""
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
    """P_{k,n} evaluated as (alpha^n - beta^n) / (alpha - beta) in Q(sqrt(1+k))."""
    n = exact_index(n, 0)
    alpha, beta = make_alpha_beta(k)
    return rationalize((alpha**n - beta**n) / (alpha - beta))


def seq_prefix_sum(k: Fraction | int, n: int) -> Fraction:
    """Closed form of sum(P_{k,i} for i = 0..n): (-1 + P_{n+1} + k P_n)/(k+1)."""
    n = exact_index(n, 0)
    t = terms(k)
    return Fraction(-1 + t.p(n + 1) + t.k * t.p(n), t.k + 1)


def dc_number(family: Family, k: Fraction | int, n: int) -> DualComplex:
    """Dual-complex number S_n + i S_{n+1} + eps S_{n+2} + i eps S_{n+3}."""
    return terms(k).d(family, exact_index(n))
