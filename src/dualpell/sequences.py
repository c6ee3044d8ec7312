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
That table and the P table with gamma(k) are the one per-k memo, which the
public reads go to directly; a Terms view is made by each evaluation and
holds the tables it reads, so a read hashes no Fraction k. A
literal sum P_0 + ... + P_n (Terms.sum_to) walks the cleared recurrence with
one term live and builds at most one Fraction.
"""

from __future__ import annotations

import functools
from enum import Enum
from fractions import Fraction

from .dualcomplex import DualComplex, _FrozenRecord
from .scalars import ASCII_SPACE, exact_index, positive_k


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
    return _ByIndex(lambda j: DualComplex(*_family_row(family, k, exact_index(j), 4))).__getitem__


@functools.cache
def _shared(k: Fraction | int) -> tuple:
    """(p, gamma) of one checked k, built once: P_j by index and gamma(k)."""
    p = _ByIndex(lambda j: _family_row(Family.K_PELL, k, exact_index(j), 1)[0]).__getitem__
    return p, DualComplex(1 + k, 2, 2 * k * k + 6 * k + 4, 4 * k + 8)


class Terms:
    """The sequence terms at one checked k, read by index, for one evaluation.

    p(j) is P_j, d(family, j) the family's dual-complex number at j and q(j)
    that number for K_PELL; each is read off the one family rule, built once
    per (family, j) on the first read of its family and held by the per-k
    memo, as is gamma, (1+k) + 2i + (2k^2+6k+4) eps + (4k+8) i eps. d checks
    its family first, then keeps that family's table in a dict of this view,
    fetched from the memo on the family's first read here and keyed by the
    member's str value, so a later read hashes neither k nor the member.
    sum_to(n) is P_0 + ... + P_n, streamed on every call and held nowhere. qq(a, b)
    is Q_a Q_b, built once per unordered pair, and once(fn, key) is
    fn(self, key), built once per (fn, key); both are held by this view alone,
    so an evaluator that makes its own Terms(k) drops them with it.

    A p, q or d read that misses the memo checks its index with
    scalars.exact_index, as pell_term does, so a bad index raises ValueError
    and is never stored. A read that hits is a plain dict read: an index equal
    to one already read (3.0 after 3, True after 1) is served from the memo,
    as a dict serves it.
    """

    __slots__ = ("k", "p", "q", "gamma", "_qq", "_once", "_d")

    def __init__(self, k: Fraction | int) -> None:
        self.k = k
        self.p, self.gamma = _shared(k)
        self.q = q = _numbers(Family.K_PELL, k)
        self._qq = _ByIndex(lambda ab: q(ab[0]) * q(ab[1]))
        self._once = {}  # a plain dict: a closure over self here would make a reference cycle
        self._d = {}

    def qq(self, a: int, b: int) -> DualComplex:
        return self._qq[(a, b) if a <= b else (b, a)]

    def once(self, fn, key):
        """fn(self, key), built on the first read of (fn, key) on this view."""
        try:
            return self._once[fn, key]
        except KeyError:
            value = self._once[fn, key] = fn(self, key)
            return value

    def sum_to(self, n: int) -> Fraction | int:
        """P_0 + ... + P_n for n >= -1, off the cleared recurrence with one term live.

        An int at integer k; at k = p/q one Fraction, integral or not, of the
        Horner sum acc = A_0 q^n + ... + A_n, as P_j = q A_j / q^j. The empty
        sum at n = -1 is int 0.
        """
        if exact_index(n, -1) < 0:
            return 0
        p, q = self.k.numerator, self.k.denominator
        if q == 1:
            return sum(_cleared(p, 1, 0, n + 1))
        acc = 0
        for a in _cleared(p, q, 0, n + 1):
            acc = acc * q + a
        return Fraction(q * acc, q**n)

    def d(self, family: Family, j: int) -> DualComplex:
        key = _checked_family(family)._value_
        table = self._d.get(key)
        if table is None:
            table = self._d[key] = _numbers(family, self.k)
        return table(j)


def terms(k: Fraction | int) -> Terms:
    """A new term view of one positive int or Fraction k, over the shared per-k memo."""
    return Terms(positive_k(k))


def seq_row(
    family: Family, k: Fraction | int, lo: int, count: int
) -> tuple[Fraction | int, ...]:
    """The terms S_lo ... S_{lo+count-1} of the family at k; checks k, lo, count, then family."""
    k, lo, count = positive_k(k), exact_index(lo, name="lo"), exact_index(count, 0, "count")
    return _family_row(_checked_family(family), k, lo, count)


def pell_term(k: Fraction | int, n: int) -> Fraction | int:
    """P_{k,n} for any integer n."""
    return _shared(positive_k(k))[0](exact_index(n))


def seq_term(spec: SequenceSpec, n: int) -> Fraction | int:
    """The n-th term of the chosen family, exact, any integer index."""
    k, n = positive_k(spec.k), exact_index(n)
    return _family_row(_checked_family(spec.family), k, n, 1)[0]


def seq_term_fast(spec: SequenceSpec, n: int) -> Fraction | int:
    """seq_term for n >= 0; a negative index is rejected."""
    return seq_term(spec, exact_index(n, 0))


def _pair_power(x: int, y: int, d: int, e: int) -> tuple[int, int]:
    """(x + y t)^e for e >= 0 in Z[t]/(t^2 - d), by square and multiply on int pairs."""
    if e < 2:
        return (x, y) if e else (1, 0)
    sx, sy = _pair_power(x * x + y * y * d, 2 * x * y, d, e >> 1)
    return (sx * x + sy * y * d, sx * y + sy * x) if e & 1 else (sx, sy)


def _binet_row(k: Fraction | int, n: int, count: int) -> list[Fraction]:
    """[P_n, ..., P_{n+count-1}] as Fractions by the Binet power rule, any integer n, for k = p/q.

    rho, rho_bar = q +/- sqrt(d), d = q(p+q), are q alpha and q beta. a, b are
    rho^n, rho_bar^n for n >= 0 and, as rho rho_bar = -pq, (-rho_bar)^-n, (-rho)^-n
    for n < 0: int pairs (x, y) for x + y sqrt(d), taken in Z[t]/(t^2 - d), so a
    square d folds nothing. Slot j is x + y sqrt(d) = a rho^j - b rho_bar^j, a and b
    stepped by rho and rho_bar in int: x = 0 and y = 2 q^(j-1) q^max(n,0) p^max(-n,0)
    P_{n+j}, read as one Fraction with one gcd. Checks n, then k > 0.
    """
    n = exact_index(n)
    k = positive_k(k)
    p, q = k.numerator, k.denominator
    d = q * (p + q)
    den, s = (2 * q**n, q) if n >= 0 else (2 * p**-n, -q)  # s +/- t: rho, rho_bar or -rho_bar, -rho
    (ax, ay), (bx, by) = _pair_power(s, 1, d, abs(n)), _pair_power(s, -1, d, abs(n))
    row = []
    for j in range(count):
        if j:  # a times rho = q + sqrt(d), b times rho_bar = q - sqrt(d)
            ax, ay, bx, by = ax * q + ay * d, ax + ay * q, bx * q - by * d, by * q - bx
        x, y = ax - bx, ay - by
        if x:
            raise ValueError(f"Binet numerator {x} + {y}*sqrt({d}) is not a multiple of sqrt({d})")
        row.append(Fraction(q * y, den * q**j))
    return row


def seq_binet(k: Fraction | int, n: int) -> Fraction:
    """P_{k,n} evaluated as (alpha^n - beta^n) / (alpha - beta), as a Fraction, any integer n.

    It is slot 0 of _binet_row, on the int-pair powers of the cleared roots
    q +/- sqrt(q(p+q)) of k = p/q, divided once at the end.
    """
    return _binet_row(k, n, 1)[0]


def seq_prefix_sum(k: Fraction | int, n: int) -> Fraction:
    """Closed form of sum(P_{k,i} for i = 0..n): (-1 + P_{n+1} + k P_n)/(k+1), one Fraction of int parts."""
    n, k = exact_index(n, 0), positive_k(k)
    p = _shared(k)[0]
    (a, b), (c, d), (kn, kd) = p(n + 1).as_integer_ratio(), p(n).as_integer_ratio(), k.as_integer_ratio()
    return Fraction(kd * d * (a - b) + kn * c * b, b * d * (kn + kd))


def dc_number(family: Family, k: Fraction | int, n: int) -> DualComplex:
    """Dual-complex number S_n + i S_{n+1} + eps S_{n+2} + i eps S_{n+3}."""
    k, n = positive_k(k), exact_index(n)
    return _numbers(_checked_family(family), k)(n)
