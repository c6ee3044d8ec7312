"""Catalog of dual-complex k-Pell identities with two-sided evaluators.

Every entry computes its left side from raw sequence and ring operations and
its right side from the closed form, through structurally independent code,
so an exact mismatch points at the identity itself rather than at a shared
bug. Scalar identities are embedded as dual-complex values with zero i, eps
and i*eps slots so a single report format covers the whole catalog.

Two entries (ring_axioms, div_roundtrip) are sample-based rather than
grid-based: the integer binding n selects a deterministic pseudo-random
sample, so a reported counterexample can always be replayed exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Mapping

from .dualcomplex import DC_EPS, DC_I, DC_IEPS, Conjugation, DualComplex
from .quaternions import binet_quaternion, gamma_closed
from .scalars import positive_k
from .sequences import Family, dc_number, pell_term, seq_binet, seq_prefix_sum, seq_row


class IdentityId(Enum):
    F12S = "f12s"
    F12RAW = "f12raw"
    F13 = "f13"
    F14 = "f14"
    F15 = "f15"
    F16 = "f16"
    F17 = "f17"
    F18 = "f18"
    F19 = "f19"
    F20 = "f20"
    F21 = "f21"
    F22S = "f22s"
    F23 = "f23"
    F24 = "f24"
    F25 = "f25"
    F26 = "f26"
    F27 = "f27"
    F28 = "f28"
    F29 = "f29"
    F30 = "f30"
    F31 = "f31"
    G9 = "g9"
    G10 = "g10"
    G11 = "g11"
    G12 = "g12"
    G13 = "g13"
    G14 = "g14"
    G17 = "g17"
    G18 = "g18"
    G19STATED = "g19stated"
    G19PROOF = "g19proof"
    HELPER_HONSBERGER = "helper_honsberger"
    HELPER_DOCAGNE = "helper_docagne"
    HELPER_CASSINI = "helper_cassini"
    F14KERNEL = "f14kernel"
    RING_AXIOMS = "ring_axioms"
    DIV_ROUNDTRIP = "div_roundtrip"
    BINET_NUMBER = "binet_number"
    BINET_QUATERNION = "binet_quaternion"
    PREFIX_SUM = "prefix_sum"

    @classmethod
    def from_tag(cls, tag: str) -> "IdentityId":
        try:
            return cls(tag.strip().lower())
        except ValueError:
            raise ValueError(f"unknown identity id: {tag!r}") from None


Bindings = Mapping[str, object]
Sides = Callable[[Fraction | int, dict], tuple[DualComplex, DualComplex]]


@dataclass(frozen=True)
class CatalogEntry:
    params: tuple[str, ...]
    uses_k: bool
    pre: Callable[[dict], bool]
    sides: Sides


def _sign(n: int) -> int:
    return 1 if n % 2 == 0 else -1


def _embed(x: Fraction | int) -> DualComplex:
    return DualComplex(x, 0, 0, 0)


def _complex(re: Fraction | int, im: Fraction | int) -> DualComplex:
    return DualComplex(re, im, 0, 0)


def _dc(one, i=0, eps=0, ieps=0) -> DualComplex:
    return DualComplex(one, i, eps, ieps)


def _q(k: Fraction | int, n: int) -> DualComplex:
    return dc_number(Family.K_PELL, k, n)


def _nonneg(b: dict) -> bool:
    return all(b[name] >= 0 for name in b if name != "k")


# --- conjugation products of the k-Pell dual-complex number (F12-F25) ------

def _product_entry(kind: Conjugation, rhs) -> Sides:
    def sides(k, b):
        n = b["n"]
        w = _q(k, n)
        return w.norm_product(kind), rhs(k, n)

    return sides


def _rhs_f12_raw(k, n):
    p = lambda j: pell_term(k, j)
    cross = p(n) * p(n + 2) + p(n + 1) * p(n + 3)
    return _dc(p(n) ** 2 + p(n + 1) ** 2, 0, 2 * cross, 0)


def _rhs_f12_simplified(k, n):
    p = lambda j: pell_term(k, j)
    return _dc(p(n) ** 2 + p(n + 1) ** 2, 0, 2 * p(2 * n + 3), 0)


def _rhs_f13(k, n):
    p = lambda j: pell_term(k, j)
    return _dc(p(n) ** 2 - p(n + 1) ** 2, 2 * p(n) * p(n + 1), 0, 0)


def _rhs_f14_closed(k, n):
    p = lambda j: pell_term(k, j)
    return _dc(p(n) ** 2 + p(n + 1) ** 2, 0, 0, -4 * _sign(n) * k**n)


def _rhs_f24_raw(k, n):
    p = lambda j: pell_term(k, j)
    cross = p(n) * p(n + 3) - p(n + 1) * p(n + 2)
    return _dc(p(n) ** 2 + p(n + 1) ** 2, 0, 0, 2 * cross)


def _rhs_pure_scalar(k, n):
    p = lambda j: pell_term(k, j)
    return _embed(p(n) ** 2 + p(n + 1) ** 2)


# --- conjugation sums and mixed relations (F16-F21) -------------------------

def _sum_entry(kind: Conjugation, rhs) -> Sides:
    def sides(k, b):
        n = b["n"]
        w = _q(k, n)
        return w + w.conjugate(kind), rhs(k, n)

    return sides


def _sides_f19(k, b):
    n = b["n"]
    p = lambda j: pell_term(k, j)
    w = _q(k, n)
    lhs = _complex(p(n), p(n + 1)) * w.conjugate(Conjugation.DUAL_COMPLEX)
    rhs = _complex(p(n), -p(n + 1)) * w.conjugate(Conjugation.DUAL)
    return lhs, rhs


def _sides_f20(k, b):
    n = b["n"]
    p = lambda j: pell_term(k, j)
    w = _q(k, n)
    return DC_EPS * w + w.conjugate(Conjugation.ANTI_DUAL), _complex(p(n + 2), p(n + 3))


def _sides_f21(k, b):
    n = b["n"]
    p = lambda j: pell_term(k, j)
    w = _q(k, n)
    return w - DC_EPS * w.conjugate(Conjugation.ANTI_DUAL), _complex(p(n), p(n + 1))


# --- number-level family relations (F26-F31) --------------------------------

def _sides_f26(k, b):
    n = b["n"]
    d = lambda j: dc_number(Family.K_PELL, k, j)
    return d(n + 2), d(n + 1).scale(2) + d(n).scale(k)


def _sides_f27(k, b):
    n = b["n"]
    d = lambda j: dc_number(Family.K_PELL_LUCAS, k, j)
    return d(n + 2), d(n + 1).scale(2) + d(n).scale(k)


def _sides_f28(k, b):
    n = b["n"]
    d = lambda j: dc_number(Family.K_PELL, k, j)
    return dc_number(Family.MODIFIED_K_PELL, k, n), d(n) + d(n - 1).scale(k)


def _sides_f29(k, b):
    n = b["n"]
    d = lambda j: dc_number(Family.K_PELL, k, j)
    return dc_number(Family.MODIFIED_K_PELL, k, n), d(n + 1) - d(n)


def _sides_f30(k, b):
    n = b["n"]
    d = lambda j: dc_number(Family.K_PELL, k, j)
    return dc_number(Family.K_PELL_LUCAS, k, n), (d(n + 1) - d(n)).scale(2)


def _sides_f31(k, b):
    n = b["n"]
    d = lambda j: dc_number(Family.K_PELL, k, j)
    return dc_number(Family.K_PELL_LUCAS, k, n + 1), (d(n + 1) + d(n)).scale(2)


# --- quaternion identities (G9-G19) ------------------------------------------

def _sides_g9(k, b):
    n = b["n"]
    return _q(k, n + 2), _q(k, n + 1).scale(2) + _q(k, n).scale(k)


def _sides_g10(k, b):
    n = b["n"]
    p = lambda j: pell_term(k, j)
    q1, q0 = _q(k, n + 1), _q(k, n)
    lhs = q1 * q1 + (q0 * q0).scale(k)
    tail = _dc(
        -p(2 * n + 3),
        p(2 * n + 2),
        p(2 * n + 3) - 2 * p(2 * n + 5),
        3 * p(2 * n + 4),
    )
    return lhs, _q(k, 2 * n + 1) + tail


def _sides_g11(k, b):
    n = b["n"]
    p = lambda j: pell_term(k, j)
    hi, lo = _q(k, n + 1), _q(k, n - 1)
    lhs = hi * hi - (lo * lo).scale(k * k)
    # Q_{n+1} - kQ_{n-1} = 2Q_n and the ring commutes, so the left side is
    # 2(kQ_{n-1}Q_n + Q_nQ_{n+1}): twice g13 at m = n, whose tail gives this one.
    tail = _dc(
        p(2 * n + 2),
        -p(2 * n + 1),
        2 * p(2 * n + 4) - p(2 * n + 2),
        -3 * p(2 * n + 3),
    )
    return lhs, _q(k, 2 * n).scale(2) - tail.scale(2)


def _sides_g12(k, b):
    n = b["n"]
    p = lambda j: pell_term(k, j)
    lhs = (
        _q(k, n)
        - DC_I * _q(k, n + 1).conjugate(Conjugation.COUPLED)
        - DC_EPS * _q(k, n + 2)
        - DC_IEPS * _q(k, n + 3)
    )
    return lhs, _dc(p(n) - p(n + 2), 0, 2 * p(n + 4), 0)


def _sides_g13(k, b):
    n, m = b["n"], b["m"]
    p = lambda j: pell_term(k, j)
    s = n + m
    lhs = (_q(k, n - 1) * _q(k, m)).scale(k) + _q(k, n) * _q(k, m + 1)
    tail = _dc(-p(s + 2), p(s + 1), p(s + 2) - 2 * p(s + 4), 3 * p(s + 3))
    return lhs, _q(k, s) + tail


def _sides_g14(k, b):
    n = b["n"]
    row = seq_row(Family.K_PELL, k, 0, n + 4)
    total = sum((DualComplex(*row[s : s + 4]) for s in range(n + 1)), _dc(0))
    closed = _q(k, n + 1) + _q(k, n).scale(k) - _q(k, 1) + _q(k, 0)
    return total, closed.scale(Fraction(1, k + 1))


def _sides_g17(k, b):
    n, m = b["n"], b["m"]
    lhs = _q(k, m) * _q(k, n + 1) - _q(k, m + 1) * _q(k, n)
    factor = _sign(n) * k**n * pell_term(k, m - n)
    return lhs, gamma_closed(k).scale(factor)


def _sides_g18(k, b):
    n = b["n"]
    lhs = _q(k, n - 1) * _q(k, n + 1) - _q(k, n) * _q(k, n)
    return lhs, gamma_closed(k).scale(_sign(n) * k ** (n - 1))


def _sides_g19_stated(k, b):
    n, r = b["n"], b["r"]
    lhs = _q(k, n) * _q(k, n) - _q(k, n + r) * _q(k, n - r)
    factor = (-k) ** (n - r + 1) * pell_term(k, r) ** 2
    return lhs, gamma_closed(k).scale(factor)


def _sides_g19_proof(k, b):
    n, r = b["n"], b["r"]
    lhs = _q(k, n - r) * _q(k, n + r) - _q(k, n) * _q(k, n)
    factor = _sign(n - r + 1) * k ** (n - r) * pell_term(k, r) ** 2
    return lhs, gamma_closed(k).scale(factor)


# --- scalar helper identities from the quaternion proofs ---------------------

def _sides_helper_honsberger(k, b):
    n, m = b["n"], b["m"]
    p = lambda j: pell_term(k, j)
    return _embed(k * p(n - 1) * p(m) + p(n) * p(m + 1)), _embed(p(n + m))


def _sides_helper_docagne(k, b):
    n, m = b["n"], b["m"]
    p = lambda j: pell_term(k, j)
    lhs = _embed(p(m) * p(n + 1) - p(m + 1) * p(n))
    return lhs, _embed(_sign(n) * k**n * pell_term(k, m - n))


def _sides_helper_cassini(k, b):
    n = b["n"]
    p = lambda j: pell_term(k, j)
    return _embed(p(n - 1) * p(n + 1) - p(n) ** 2), _embed(_sign(n) * k ** (n - 1))


def _sides_f14_kernel(k, b):
    n = b["n"]
    p = lambda j: pell_term(k, j)
    lhs = _embed(p(n) * p(n + 3) - p(n + 1) * p(n + 2))
    return lhs, _embed(-2 * _sign(n) * k**n)


# --- consistency checks between independent evaluation routes ----------------

def _sides_binet_number(k, b):
    n = b["n"]
    return _embed(seq_binet(k, n)), _embed(pell_term(k, n))


def _sides_binet_quaternion(k, b):
    n = b["n"]
    return binet_quaternion(k, n), _q(k, n)


def _sides_prefix_sum(k, b):
    n = b["n"]
    literal = sum(seq_row(Family.K_PELL, k, 0, n + 1))
    return _embed(seq_prefix_sum(k, n)), _embed(literal)


# --- sample-based ring properties --------------------------------------------

def _sample_rng(tag: str, index: int) -> random.Random:
    # str seeds hash via sha512 inside random.seed: stable across runs/platforms
    return random.Random(f"dualpell:{tag}:{index}")


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 1000))


def _random_dc(rng: random.Random) -> DualComplex:
    return DualComplex(*(_random_rational(rng) for _ in range(4)))


def _sides_ring_axioms(_k, b):
    rng = _sample_rng("ring", b["n"])
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


def _sides_div_roundtrip(_k, b):
    rng = _sample_rng("div", b["n"])
    numerator = _random_dc(rng)
    divisor = _random_dc(rng)
    while divisor.has_zero_complex_part():
        divisor = _random_dc(rng)
    return (numerator / divisor) * divisor, numerator


# --- catalog ------------------------------------------------------------------

def _pre_n1(b: dict) -> bool:
    return b["n"] >= 1


def _pre_catalan(b: dict) -> bool:
    return 1 <= b["r"] <= b["n"]


# F22S, F23 and F25 restate F12S, F13 and F15 and share their entries.
_F12S = CatalogEntry(
    ("n",), True, _nonneg, _product_entry(Conjugation.COMPLEX, _rhs_f12_simplified)
)
_F13 = CatalogEntry(("n",), True, _nonneg, _product_entry(Conjugation.DUAL, _rhs_f13))
_F15 = CatalogEntry(
    ("n",), True, _nonneg, _product_entry(Conjugation.DUAL_COMPLEX, _rhs_pure_scalar)
)

CATALOG: dict[IdentityId, CatalogEntry] = {
    IdentityId.F12S: _F12S,
    IdentityId.F12RAW: CatalogEntry(
        ("n",), True, _nonneg, _product_entry(Conjugation.COMPLEX, _rhs_f12_raw)
    ),
    IdentityId.F13: _F13,
    IdentityId.F14: CatalogEntry(
        ("n",), True, _nonneg, _product_entry(Conjugation.COUPLED, _rhs_f14_closed)
    ),
    IdentityId.F15: _F15,
    IdentityId.F16: CatalogEntry(
        ("n",),
        True,
        _nonneg,
        _sum_entry(
            Conjugation.COMPLEX,
            lambda k, n: _dc(2 * pell_term(k, n), 0, 2 * pell_term(k, n + 2), 0),
        ),
    ),
    IdentityId.F17: CatalogEntry(
        ("n",),
        True,
        _nonneg,
        _sum_entry(
            Conjugation.DUAL,
            lambda k, n: _dc(2 * pell_term(k, n), 2 * pell_term(k, n + 1), 0, 0),
        ),
    ),
    IdentityId.F18: CatalogEntry(
        ("n",),
        True,
        _nonneg,
        _sum_entry(
            Conjugation.COUPLED,
            lambda k, n: _dc(2 * pell_term(k, n), 0, 0, 2 * pell_term(k, n + 3)),
        ),
    ),
    IdentityId.F19: CatalogEntry(("n",), True, _nonneg, _sides_f19),
    IdentityId.F20: CatalogEntry(("n",), True, _nonneg, _sides_f20),
    IdentityId.F21: CatalogEntry(("n",), True, _nonneg, _sides_f21),
    IdentityId.F22S: _F12S,
    IdentityId.F23: _F13,
    IdentityId.F24: CatalogEntry(
        ("n",), True, _nonneg, _product_entry(Conjugation.COUPLED, _rhs_f24_raw)
    ),
    IdentityId.F25: _F15,
    IdentityId.F26: CatalogEntry(("n",), True, _nonneg, _sides_f26),
    IdentityId.F27: CatalogEntry(("n",), True, _nonneg, _sides_f27),
    IdentityId.F28: CatalogEntry(("n",), True, _nonneg, _sides_f28),
    IdentityId.F29: CatalogEntry(("n",), True, _nonneg, _sides_f29),
    IdentityId.F30: CatalogEntry(("n",), True, _nonneg, _sides_f30),
    IdentityId.F31: CatalogEntry(("n",), True, _nonneg, _sides_f31),
    IdentityId.G9: CatalogEntry(("n",), True, _nonneg, _sides_g9),
    IdentityId.G10: CatalogEntry(("n",), True, _nonneg, _sides_g10),
    IdentityId.G11: CatalogEntry(("n",), True, _nonneg, _sides_g11),
    IdentityId.G12: CatalogEntry(("n",), True, _nonneg, _sides_g12),
    IdentityId.G13: CatalogEntry(("n", "m"), True, _nonneg, _sides_g13),
    IdentityId.G14: CatalogEntry(("n",), True, _nonneg, _sides_g14),
    IdentityId.G17: CatalogEntry(("n", "m"), True, _nonneg, _sides_g17),
    IdentityId.G18: CatalogEntry(("n",), True, _pre_n1, _sides_g18),
    IdentityId.G19STATED: CatalogEntry(("n", "r"), True, _pre_catalan, _sides_g19_stated),
    IdentityId.G19PROOF: CatalogEntry(("n", "r"), True, _pre_catalan, _sides_g19_proof),
    IdentityId.HELPER_HONSBERGER: CatalogEntry(
        ("n", "m"), True, _nonneg, _sides_helper_honsberger
    ),
    IdentityId.HELPER_DOCAGNE: CatalogEntry(
        ("n", "m"), True, _nonneg, _sides_helper_docagne
    ),
    IdentityId.HELPER_CASSINI: CatalogEntry(("n",), True, _pre_n1, _sides_helper_cassini),
    IdentityId.F14KERNEL: CatalogEntry(("n",), True, _nonneg, _sides_f14_kernel),
    IdentityId.RING_AXIOMS: CatalogEntry(("n",), False, _nonneg, _sides_ring_axioms),
    IdentityId.DIV_ROUNDTRIP: CatalogEntry(("n",), False, _nonneg, _sides_div_roundtrip),
    IdentityId.BINET_NUMBER: CatalogEntry(("n",), True, _nonneg, _sides_binet_number),
    IdentityId.BINET_QUATERNION: CatalogEntry(
        ("n",), True, _nonneg, _sides_binet_quaternion
    ),
    IdentityId.PREFIX_SUM: CatalogEntry(("n",), True, _nonneg, _sides_prefix_sum),
}


def required_bindings(ident: IdentityId) -> tuple[str, ...]:
    entry = CATALOG[ident]
    return (("k",) if entry.uses_k else ()) + entry.params


def identity_sides(
    ident: IdentityId, bindings: Bindings
) -> tuple[DualComplex, DualComplex]:
    """Evaluate both sides of one identity at the given parameter values.

    Bindings must supply exactly the parameters the identity quantifies over
    (k and a subset of n, m, r) and satisfy its range preconditions.
    """
    entry = CATALOG[ident]
    required = required_bindings(ident)
    missing = [name for name in required if name not in bindings]
    extra = [name for name in bindings if name not in required]
    if missing or extra:
        raise ValueError(
            f"{ident.value} requires bindings {required}: "
            f"missing {missing or 'none'}, unexpected {extra or 'none'}"
        )
    ints = {name: bindings[name] for name in entry.params}
    if not all(isinstance(value, int) for value in ints.values()):
        raise ValueError(f"n, m and r must be int for {ident.value}: {dict(bindings)}")
    k = positive_k(bindings["k"]) if entry.uses_k else 1  # type: ignore[arg-type]
    if not entry.pre(ints):
        raise ValueError(f"bindings out of range for {ident.value}: {dict(bindings)}")
    return entry.sides(k, ints)
