"""Catalog of dual-complex k-Pell identities with two-sided evaluators.

Every entry computes its left side from raw sequence and ring operations and
its right side from the closed form, through structurally independent code,
so an exact mismatch points at the identity itself rather than at a shared
bug. A scalar identity's sides are two plain int or Fraction values, which
the sweep compares as they are; ``as_dual_complex`` wraps them as dual-complex
values with zero i, eps and i*eps slots only where a report or a caller sees
them (``identity_sides`` and a kept counterexample), so one report format
covers the whole catalog. Each
entry's ``sides(t, n, ...)`` reads its terms, products Q_a Q_b and gamma from
a view ``t = Terms(k)`` made for the evaluation, and takes its integer
bindings as arguments, in the order of the entry's ``params``. A right side
that depends on fewer indices than its entry, and so repeats across a grid,
is read through ``t.once`` and built once per view.

Two entries (ring_axioms, div_roundtrip) are sample-based rather than
grid-based: they take no k (``t`` is None) and the integer binding n selects
a deterministic pseudo-random sample, so a reported counterexample can
always be replayed exactly.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from enum import Enum
from fractions import Fraction

# Unused here: bench/spans.py reads verifier from sys.modules after importing this.
from . import verifier  # noqa: F401
from .dualcomplex import DC_EPS, DC_I, DC_IEPS, Conjugation, DualComplex, _FrozenRecord
# Stays at the top: bench/spans.py reads quaternions from sys.modules after importing this.
from .quaternions import binet_quaternion
from .scalars import ASCII_SPACE, exact_index, positive_k
from .sequences import Family, Terms, seq_binet, seq_prefix_sum

TYPE_CHECKING = False
if TYPE_CHECKING:
    import random


Bindings = Mapping[str, object]
Side = DualComplex | int | Fraction
Sides = Callable[..., tuple[Side, Side]]


def _nonneg(*values: int) -> bool:
    return all(value >= 0 for value in values)


class CatalogEntry(_FrozenRecord):
    """``sides(t, *values)`` and ``pre(*values)`` over ``params``, in that order.

    ``sides`` returns two DualComplex values, or two int/Fraction values for
    a scalar identity; ``as_dual_complex`` wraps a scalar side for a reader.
    """

    __slots__ = __match_args__ = ("sides", "params", "pre", "uses_k")

    def __init__(
        self, sides: Sides, params: tuple[str, ...] = ("n",), pre: Callable[..., bool] = _nonneg,
        uses_k: bool = True,
    ) -> None:
        super().__init__(sides, params, pre, uses_k)


def _dc(one, i=0, eps=0, ieps=0) -> DualComplex:
    return DualComplex(one, i, eps, ieps)


def as_dual_complex(side: Side) -> DualComplex:
    """side itself if it is a DualComplex, else the scalar side as DualComplex(side, 0, 0, 0)."""
    return side if isinstance(side, DualComplex) else DualComplex(side, 0, 0, 0)


# --- conjugation products of the k-Pell dual-complex number (F12-F25) ------

def _norm_entry(kind: Conjugation, slot: int | None = None, value=None) -> Sides:
    """w * conj(w) = |z1|^2 + e value(t, n) with |z1|^2 = P_n^2 + P_{n+1}^2.

    e is the one slot besides 1 that kind's product keeps, at index slot; the
    dual-complex conjugate's product keeps none.
    """
    def sides(t, n):
        slots = [t.p(n) ** 2 + t.p(n + 1) ** 2, 0, 0, 0]
        if slot is not None:
            slots[slot] = value(t, n)
        return t.q(n).norm_product(kind), _dc(*slots)

    return sides


def _sides_f13(t, n):
    """Under the dual conjugate w * conj(w) = z1^2, not |z1|^2."""
    p0, p1 = t.p(n), t.p(n + 1)
    return t.q(n).norm_product(Conjugation.DUAL), _dc(p0**2 - p1**2, 2 * p0 * p1)


# --- conjugation sums and mixed relations (F16-F21) -------------------------

def _sum_entry(kind: Conjugation, kept: int) -> Sides:
    """w + conj(w) = 2(P_n + e P_{n+kept}), e the slot besides 1 that kind leaves unnegated."""
    def sides(t, n):
        w = t.q(n)
        slots = [2 * t.p(n), 0, 0, 0]
        slots[kept] = 2 * t.p(n + kept)
        return w + w.conjugate(kind), _dc(*slots)

    return sides


def _sides_f19(t, n):
    w = t.q(n)
    lhs = _dc(t.p(n), t.p(n + 1)) * w.conjugate(Conjugation.DUAL_COMPLEX)
    rhs = _dc(t.p(n), -t.p(n + 1)) * w.conjugate(Conjugation.DUAL)
    return lhs, rhs


def _sides_f20(t, n):
    w = t.q(n)
    return DC_EPS * w + w.conjugate(Conjugation.ANTI_DUAL), _dc(t.p(n + 2), t.p(n + 3))


def _sides_f21(t, n):
    w = t.q(n)
    return w - DC_EPS * w.conjugate(Conjugation.ANTI_DUAL), _dc(t.p(n), t.p(n + 1))


# --- number-level family relations (F26-F31) --------------------------------

def _recurrence(family: Family) -> Sides:
    """S_{n+2} = 2S_{n+1} + kS_n over the family's dual-complex numbers."""
    def sides(t, n):
        return t.d(family, n + 2), t.d(family, n + 1).scale(2) + t.d(family, n).scale(t.k)

    return sides


def _sides_f28(t, n):
    return t.d(Family.MODIFIED_K_PELL, n), t.q(n) + t.q(n - 1).scale(t.k)


def _sides_f29(t, n):
    return t.d(Family.MODIFIED_K_PELL, n), t.q(n + 1) - t.q(n)


def _sides_f30(t, n):
    return t.d(Family.K_PELL_LUCAS, n), (t.q(n + 1) - t.q(n)).scale(2)


def _sides_f31(t, n):
    return t.d(Family.K_PELL_LUCAS, n + 1), (t.q(n + 1) + t.q(n)).scale(2)


# --- quaternion identities (G9-G19) ------------------------------------------

def _honsberger_rhs(t, s):
    tail = _dc(-t.p(s + 2), t.p(s + 1), t.p(s + 2) - 2 * t.p(s + 4), 3 * t.p(s + 3))
    return t.q(s) + tail


def _sides_g11(t, n):
    lhs = t.qq(n + 1, n + 1) - t.qq(n - 1, n - 1).scale(t.k * t.k)
    # Q_{n+1} - kQ_{n-1} = 2Q_n and the ring commutes, so the left side is
    # 2(kQ_{n-1}Q_n + Q_nQ_{n+1}): twice g13 at m = n.
    return lhs, _honsberger_rhs(t, 2 * n).scale(2)


def _sides_g12(t, n):
    lhs = (
        t.q(n)
        - DC_I * t.q(n + 1).conjugate(Conjugation.COUPLED)
        - DC_EPS * t.q(n + 2)
        - DC_IEPS * t.q(n + 3)
    )
    return lhs, _dc(t.p(n) - t.p(n + 2), 0, 2 * t.p(n + 4), 0)


def _sides_g13(t, n, m):
    return t.qq(n - 1, m).scale(t.k) + t.qq(n, m + 1), t.once(_honsberger_rhs, n + m)


def _sides_g14(t, n):
    row = t.row(Family.K_PELL, 0, n + 4)
    # Slot c of Q_0 + ... + Q_n is P_c + ... + P_{n+c}: slot c - 1's window moved up by one.
    slots = [sum(row[: n + 1])]
    for c in range(1, 4):
        slots.append(slots[-1] - row[c - 1] + row[n + c])
    closed = t.q(n + 1) + t.q(n).scale(t.k) - t.q(1) + t.q(0)
    return DualComplex(*slots), closed.scale(Fraction(1) / (t.k + 1))


def _neg_k_pow(t, j):
    """(-k)^j, exact at every j: an int for integer k and j >= 0, else a Fraction."""
    return (-t.k) ** j if j >= 0 else Fraction(-t.k) ** j


def _signed_p_product(t, ijs):
    i, j, sign = ijs
    return sign * t.p(i) * t.p(j)


def _vajda(t, n, i, j, sign=1):
    """sign times both sides of Vajda's Q_{n+i}Q_{n+j} - Q_nQ_{n+i+j} = gamma (-k)^n P_i P_j.

    S. Vajda, Fibonacci & Lucas Numbers, and the Golden Section (1989).
    """
    a, b = t.qq(n + i, n + j), t.qq(n, n + i + j)
    lhs = a - b if sign == 1 else b - a
    return lhs, t.gamma.scale(t.once(_neg_k_pow, n) * t.once(_signed_p_product, (i, j, sign)))


def _sides_g19_stated(t, n, r):
    lhs = t.qq(n, n) - t.qq(n + r, n - r)
    return lhs, t.gamma.scale(t.once(_neg_k_pow, n - r + 1) * t.p(r) ** 2)


# --- scalar helper identities from the quaternion proofs ---------------------

def _dot(a, b, c, d, sign=1):
    """a*b + sign*c*d, an int if all four are; else one Fraction of their int parts, normalized once."""
    if int is type(a) is type(b) is type(c) is type(d):
        return a * b + sign * c * d
    den, other = a.denominator * b.denominator, c.denominator * d.denominator
    ab, cd = a.numerator * b.numerator, sign * c.numerator * d.numerator
    return Fraction(ab + cd, den) if den == other else Fraction(ab * other + cd * den, den * other)


def _k_p_before(t, n):
    return t.k * t.p(n - 1)


# At integer k these two left sides stay the plain expression: _dot's type tests cost more there.
def _sides_helper_honsberger(t, n, m):
    if type(t.k) is int:
        lhs = t.k * t.p(n - 1) * t.p(m) + t.p(n) * t.p(m + 1)
    else:
        lhs = _dot(t.once(_k_p_before, n), t.p(m), t.p(n), t.p(m + 1))
    return lhs, t.p(n + m)


def _vajda_p(t, n, i, j, sign=1):
    """sign times both sides of P_{n+i}P_{n+j} - P_nP_{n+i+j} = (-k)^n P_i P_j."""
    a, b, c, d = t.p(n + i), t.p(n + j), t.p(n), t.p(n + i + j)
    if sign != 1:
        a, b, c, d = c, d, a, b
    lhs = a * b - c * d if type(t.k) is int else _dot(a, b, c, d, -1)
    return lhs, t.once(_neg_k_pow, n) * t.once(_signed_p_product, (i, j, sign))


# --- consistency checks between independent evaluation routes ----------------

def _sides_binet_number(t, n):
    return seq_binet(t.k, n), t.p(n)


def _sides_binet_quaternion(t, n):
    return binet_quaternion(t.k, n), t.q(n)


def _sides_prefix_sum(t, n):
    literal = sum(t.row(Family.K_PELL, 0, n + 1))
    return seq_prefix_sum(t.k, n), literal


# --- sample-based ring properties --------------------------------------------

def _sample_rng(tag: str, index: int) -> random.Random:
    import random

    # str seeds hash via sha512 inside random.seed: stable across runs/platforms
    return random.Random(f"dualpell:{tag}:{index}")


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 1000))


def _random_dc(rng: random.Random) -> DualComplex:
    return DualComplex(*(_random_rational(rng) for _ in range(4)))


def _sides_ring_axioms(_t, n):
    rng = _sample_rng("ring", n)
    x, y, z = _random_dc(rng), _random_dc(rng), _random_dc(rng)
    one = _dc(1)
    checks = (
        (x * y, y * x),
        ((x * y) * z, x * (y * z)),
        (x * (y + z), x * y + x * z),
        (x * one, x),
    )
    for lhs, rhs in checks:
        if lhs != rhs:
            return lhs, rhs
    return checks[0]


def _sides_div_roundtrip(_t, n):
    rng = _sample_rng("div", n)
    numerator = _random_dc(rng)
    divisor = _random_dc(rng)
    while divisor.has_zero_complex_part():
        divisor = _random_dc(rng)
    return (numerator / divisor) * divisor, numerator


# --- catalog ------------------------------------------------------------------

def _pre_n1(n: int) -> bool:
    return n >= 1


def _pre_catalan(n: int, r: int) -> bool:
    return 1 <= r <= n


# F22S, F23 and F25 restate F12S, F13 and F15, and G9 restates F26; each
# pair shares one entry. F12S, F12RAW, F14, F15 and F24 are one norm product
# and F16-F18 one conjugate sum, by the slot each keeps, read off the paper
# (eps, i*eps or none; eps, i, i*eps), and F26 and F27 one recurrence. G10 is
# G13 (Honsberger) at (n + 1, n); d'Ocagne (G17, HELPER_DOCAGNE, F14KERNEL),
# Catalan (G19PROOF) and Cassini (G18, HELPER_CASSINI) are Vajda's identity at
# fixed indices. Each row calls the module function, not a CATALOG entry, and
# keeps its own params, pre and entry.
_F12S = CatalogEntry(_norm_entry(Conjugation.COMPLEX, 2, lambda t, n: 2 * t.p(2 * n + 3)))
_F13 = CatalogEntry(_sides_f13)
_F15 = CatalogEntry(_norm_entry(Conjugation.DUAL_COMPLEX))
_F26 = CatalogEntry(_recurrence(Family.K_PELL))


class IdentityId(Enum):
    """The catalog table: each member's value is its tag, and its row holds its entry."""

    def __new__(cls, tag: str, entry: CatalogEntry) -> "IdentityId":
        member = object.__new__(cls)
        member._value_ = tag
        member._entry = entry
        return member

    F12S = "f12s", _F12S
    F12RAW = "f12raw", CatalogEntry(_norm_entry(
        Conjugation.COMPLEX, 2, lambda t, n: 2 * (t.p(n) * t.p(n + 2) + t.p(n + 1) * t.p(n + 3))))
    F13 = "f13", _F13
    F14 = "f14", CatalogEntry(_norm_entry(Conjugation.COUPLED, 3, lambda t, n: -4 * _neg_k_pow(t, n)))
    F15 = "f15", _F15
    F16 = "f16", CatalogEntry(_sum_entry(Conjugation.COMPLEX, 2))
    F17 = "f17", CatalogEntry(_sum_entry(Conjugation.DUAL, 1))
    F18 = "f18", CatalogEntry(_sum_entry(Conjugation.COUPLED, 3))
    F19 = "f19", CatalogEntry(_sides_f19)
    F20 = "f20", CatalogEntry(_sides_f20)
    F21 = "f21", CatalogEntry(_sides_f21)
    F22S = "f22s", _F12S
    F23 = "f23", _F13
    F24 = "f24", CatalogEntry(_norm_entry(
        Conjugation.COUPLED, 3, lambda t, n: 2 * (t.p(n) * t.p(n + 3) - t.p(n + 1) * t.p(n + 2))))
    F25 = "f25", _F15
    F26 = "f26", _F26
    F27 = "f27", CatalogEntry(_recurrence(Family.K_PELL_LUCAS))
    F28 = "f28", CatalogEntry(_sides_f28)
    F29 = "f29", CatalogEntry(_sides_f29)
    F30 = "f30", CatalogEntry(_sides_f30)
    F31 = "f31", CatalogEntry(_sides_f31)
    G9 = "g9", _F26
    G10 = "g10", CatalogEntry(lambda t, n: _sides_g13(t, n + 1, n))
    G11 = "g11", CatalogEntry(_sides_g11)
    G12 = "g12", CatalogEntry(_sides_g12)
    G13 = "g13", CatalogEntry(_sides_g13, ("n", "m"))
    G14 = "g14", CatalogEntry(_sides_g14)
    G17 = "g17", CatalogEntry(lambda t, n, m: _vajda(t, n, m - n, 1), ("n", "m"))
    G18 = "g18", CatalogEntry(lambda t, n: _vajda(t, n - 1, 1, 1, -1), pre=_pre_n1)
    G19STATED = "g19stated", CatalogEntry(_sides_g19_stated, ("n", "r"), _pre_catalan)
    G19PROOF = "g19proof", CatalogEntry(lambda t, n, r: _vajda(t, n - r, r, r, -1), ("n", "r"), _pre_catalan)
    HELPER_HONSBERGER = "helper_honsberger", CatalogEntry(_sides_helper_honsberger, ("n", "m"))
    HELPER_DOCAGNE = "helper_docagne", CatalogEntry(lambda t, n, m: _vajda_p(t, n, m - n, 1), ("n", "m"))
    HELPER_CASSINI = "helper_cassini", CatalogEntry(lambda t, n: _vajda_p(t, n - 1, 1, 1, -1), pre=_pre_n1)
    F14KERNEL = "f14kernel", CatalogEntry(lambda t, n: _vajda_p(t, n, 1, 2, -1))
    RING_AXIOMS = "ring_axioms", CatalogEntry(_sides_ring_axioms, uses_k=False)
    DIV_ROUNDTRIP = "div_roundtrip", CatalogEntry(_sides_div_roundtrip, uses_k=False)
    BINET_NUMBER = "binet_number", CatalogEntry(_sides_binet_number)
    BINET_QUATERNION = "binet_quaternion", CatalogEntry(_sides_binet_quaternion)
    PREFIX_SUM = "prefix_sum", CatalogEntry(_sides_prefix_sum)

    @classmethod
    def from_tag(cls, tag: str) -> "IdentityId":
        if type(tag) is not str:
            raise TypeError(f"identity tag must be str, got {type(tag).__name__}")
        try:
            return cls(tag.strip(ASCII_SPACE).lower())
        except ValueError:
            raise ValueError(f"unknown identity id: {tag!r}") from None


# Entries are read through CATALOG alone, and ``_entry`` only here: the
# benchmark's tracer swaps entries in this dict.
CATALOG: dict[IdentityId, CatalogEntry] = {ident: ident._entry for ident in IdentityId}


def required_bindings(ident: IdentityId) -> tuple[str, ...]:
    if type(ident) is not IdentityId:
        raise ValueError(f"identity must be an IdentityId, got {ident!r}")
    entry = CATALOG[ident]
    return (("k",) if entry.uses_k else ()) + entry.params


def identity_sides(
    ident: IdentityId, bindings: Bindings
) -> tuple[DualComplex, DualComplex]:
    """Evaluate both sides of one identity at the given parameter values, as DualComplex values.

    Bindings must supply exactly the parameters the identity quantifies over
    (k and a subset of n, m, r) and satisfy its range preconditions.
    """
    required = required_bindings(ident)
    entry = CATALOG[ident]
    missing = [name for name in required if name not in bindings]
    extra = [name for name in bindings if name not in required]
    if missing or extra:
        raise ValueError(
            f"{ident.value} requires bindings {required}: "
            f"missing {missing or 'none'}, unexpected {extra or 'none'}"
        )
    values = tuple(exact_index(bindings[name], name=name) for name in entry.params)  # type: ignore[arg-type]
    t = Terms(positive_k(bindings["k"])) if entry.uses_k else None  # type: ignore[arg-type]
    if not entry.pre(*values):
        raise ValueError(f"bindings out of range for {ident.value}: {dict(bindings)}")
    lhs, rhs = entry.sides(t, *values)
    return as_dual_complex(lhs), as_dual_complex(rhs)
