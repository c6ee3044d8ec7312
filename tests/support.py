"""Shared test helpers: independent oracles, seeded sample generators and settings.

The multiplication oracle expands products term-by-term from the 4x4 basis
table instead of using the library's closed multiplication formula, so the
two can check each other.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

from hypothesis import settings

from dualpell import CATALOG, DualComplex, as_dual_complex, make_alpha_beta, rationalize
from dualpell.sequences import Terms

# Hypothesis runs that replay the same examples on every run and keep no database.
SEEDED = settings(derandomize=True, database=None, deadline=None)

# basis order: 1, i, eps, i*eps; cell = (result index, sign) or None for zero
BASIS_TABLE = [
    [(0, 1), (1, 1), (2, 1), (3, 1)],
    [(1, 1), (0, -1), (3, 1), (2, -1)],
    [(2, 1), (3, 1), None, None],
    [(3, 1), (2, -1), None, None],
]


def table_mul(x: DualComplex, y: DualComplex) -> DualComplex:
    acc = [Fraction(0)] * 4
    xs = x.coefficients()
    ys = y.coefficients()
    for a in range(4):
        for b in range(4):
            cell = BASIS_TABLE[a][b]
            if cell is None:
                continue
            index, sign = cell
            acc[index] += sign * xs[a] * ys[b]
    return DualComplex(*acc)


def dual_complex_conjugate(w: DualComplex) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """z1* - eps z2 (z1*)^2 / |z1|^2 for w = z1 + eps z2, slot by slot in plain Fraction arithmetic.

    The reference for Conjugation.DUAL_COMPLEX: it reads w's coefficients,
    never its cleared form, and divides each eps slot by |z1|^2 as a Fraction.
    """
    r, i, d, di = map(Fraction, w.coefficients())
    norm = r * r + i * i
    sq_re, sq_im = r * r - i * i, -2 * r * i  # (z1*)^2
    return r, -i, -(d * sq_re - di * sq_im) / norm, -(d * sq_im + di * sq_re) / norm


def random_rational(rng: random.Random, magnitude: int = 10**6) -> Fraction:
    return Fraction(rng.randint(-magnitude, magnitude), rng.randint(1, 1000))


def random_dc(rng: random.Random, magnitude: int = 10**6) -> DualComplex:
    return DualComplex(*(random_rational(rng, magnitude) for _ in range(4)))


def naive_pell_row(k: Fraction, count: int) -> list[Fraction]:
    """First ``count`` k-Pell terms by the bare recurrence, library-free."""
    row = [Fraction(0), Fraction(1)]
    while len(row) < count:
        row.append(2 * row[-1] + Fraction(k) * row[-2])
    return row[:count]


def binet_over_alpha_beta(k: Fraction, n: int) -> DualComplex:
    """P_n + i P_{n+1} + eps P_{n+2} + i eps P_{n+3} by Binet in Q(sqrt(1+k)).

    Slot j is (alpha^(n+j) - beta^(n+j)) / (alpha - beta) on the roots
    1 +/- sqrt(1+k) themselves, with Fraction coefficients at rational k: the
    reference for the library's route over the cleared roots q +/- sqrt(q(p+q)).
    """
    alpha, beta = make_alpha_beta(k)
    delta = alpha - beta
    slots = (alpha ** (n + j) - beta ** (n + j) for j in range(4))
    return DualComplex(*(rationalize(c / delta) for c in slots))


SIDES_KS = (1, 2, Fraction(3, 2), Fraction(7, 4))
SIDES_INDICES = range(0, 7)


def shown(side) -> tuple:
    """repr, JSON and coefficient types of a side, as as_dual_complex shows it."""
    w = as_dual_complex(side)
    return repr(w), w.to_json_dict(), tuple(type(c) for c in w.coefficients())


def _side_line(w: DualComplex) -> str:
    types = ",".join(type(c).__name__ for c in w.coefficients())
    return f"{w!r} {json.dumps(w.to_json_dict(), sort_keys=True)} {types}"


def sides_digests() -> dict[str, str]:
    """One sha256 per k-entry over the repr, JSON and coefficient types of both sides.

    A scalar side is read as as_dual_complex shows it, DualComplex(x, 0, 0, 0).

    Every k in SIDES_KS and every tuple of SIDES_INDICES the entry's pre
    admits is evaluated on one view per (entry, k), as the sweep does, so the
    digest pins each side byte for byte, int and Fraction zeros apart.
    Regenerate tests/data/sides_digests.json from a checkout with:
    PYTHONPATH=src:tests python -c "import json, support;
    print(json.dumps(support.sides_digests(), indent=1))"
    """
    digests = {}
    for ident, entry in CATALOG.items():
        if not entry.uses_k:
            continue
        lines = []
        for k in SIDES_KS:
            t = Terms(k)
            for values in itertools.product(SIDES_INDICES, repeat=len(entry.params)):
                if entry.pre(*values):
                    lhs, rhs = map(as_dual_complex, entry.sides(t, *values))
                    lines.append(f"{k} {values} {_side_line(lhs)} | {_side_line(rhs)}")
        digests[ident.value] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return digests
