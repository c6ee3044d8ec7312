"""The cli_deep command list and plain-integer reference values for its outputs.

References never call dualpell. k-Pell terms come from fast doubling for
integer k (P_2m = P_m (2 P_{m+1} - 2 P_m), P_2m+1 = P_{m+1}^2 + k P_m^2) and
from the cleared recurrence A_{j+1} = 2q A_j + pq A_{j-1}, P_j = A_j / q^(j-1)
for k = p/q. Identity sides are the proven closed forms written with those
terms.

Each command's n stays at or below the largest n whose printed integers fit
Python's default int->str limit (``INT_STR_DIGITS``): the CLI crashes on
longer values, and every command of the workload must succeed.
"""

from __future__ import annotations

import json
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

N_LO = 1_000
N_HI = 40_000  # integer k
N_HI_RATIONAL = 10_000  # rational k, and the O(n^2) sums of g14 and prefix_sum
INT_STR_DIGITS = sys.int_info.default_max_str_digits  # 4300
STRETCH = 8  # terms printed by each `seq` command


class GateError(Exception):
    """An output of the program is wrong: the run must record nothing."""


def _pell_pair(k: int, n: int) -> tuple[int, int]:
    """(P_n, P_{n+1}) for integer k by fast doubling."""
    if n == 0:
        return 0, 1
    a, b = _pell_pair(k, n >> 1)
    even, odd = a * (2 * b - 2 * a), b * b + k * a * a
    return (odd, 2 * odd + k * even) if n & 1 else (even, odd)


def pell_terms(k: Fraction, lo: int, count: int) -> list[Fraction]:
    """P_lo .. P_{lo+count-1} for lo >= 0."""
    if k.denominator == 1:
        a, b = _pell_pair(k.numerator, lo)
        out = []
        for _ in range(count):
            out.append(Fraction(a))
            a, b = b, 2 * b + k.numerator * a
        return out
    p, q = k.numerator, k.denominator
    a, b = 0, 1  # A_j, A_{j+1}
    out = []
    for j in range(lo + count):
        if j >= lo:
            out.append(Fraction(a * q, q**j))
        a, b = b, 2 * q * b + p * q * a
    return out


def family_terms(family: str, k: Fraction, lo: int, count: int) -> list[Fraction]:
    p = pell_terms(k, lo, count + 1)
    if family == "pell":
        return p[:count]
    step = [p[j + 1] - p[j] for j in range(count)]
    return [2 * s for s in step] if family == "pell-lucas" else step


def _sign(n: int) -> int:
    return 1 if n % 2 == 0 else -1


def _gamma(k: Fraction, factor: Fraction) -> tuple:
    return tuple(factor * c for c in (1 + k, 2, 2 * k * k + 6 * k + 4, 4 * k + 8))


def _embed(x: Fraction) -> tuple:
    return (x, 0, 0, 0)


def _prefix(k: Fraction, p_j: Fraction, p_next: Fraction) -> Fraction:
    """sum(P_0..P_j) = (P_{j+1} + k P_j - 1) / (k + 1)."""
    return (p_next + k * p_j - 1) / (k + 1)


def reference_sides(ident: str, k: Fraction, n: int, m: int = 0, r: int = 0) -> tuple:
    """Reference (lhs, rhs), each the four coefficients (1, i, eps, i*eps)."""
    if ident == "g13":
        s = n + m
        p = pell_terms(k, s, 5)
        side = (p[0] - p[2], 2 * p[1], 2 * p[2] - 2 * p[4], 4 * p[3])
    elif ident == "g17":
        side = _gamma(k, _sign(n) * k**n * pell_terms(k, m - n, 1)[0])
    elif ident == "helper_docagne":
        side = _embed(_sign(n) * k**n * pell_terms(k, m - n, 1)[0])
    elif ident == "helper_honsberger":
        side = _embed(pell_terms(k, n + m, 1)[0])
    elif ident == "g19stated":
        pr2 = pell_terms(k, r, 1)[0] ** 2
        lhs = _gamma(k, _sign(n - r) * k ** (n - r) * pr2)
        return lhs, _gamma(k, (-k) ** (n - r + 1) * pr2)
    elif ident == "g19proof":
        side = _gamma(k, _sign(n - r + 1) * k ** (n - r) * pell_terms(k, r, 1)[0] ** 2)
    elif ident == "g18":
        side = _gamma(k, _sign(n) * k ** (n - 1))
    elif ident == "g14":
        p = pell_terms(k, n, 5)
        head = pell_terms(k, 0, 3)
        sums = [_prefix(k, p[j], p[j + 1]) for j in range(4)]
        side = (sums[0], sums[1] - head[0], sums[2] - head[0] - head[1],
                sums[3] - head[0] - head[1] - head[2])
    elif ident == "prefix_sum":
        p = pell_terms(k, n, 2)
        side = _embed(_prefix(k, p[0], p[1]))
    elif ident == "binet_quaternion":
        side = tuple(pell_terms(k, n, 4))
    elif ident == "binet_number":
        side = _embed(pell_terms(k, n, 1)[0])
    elif ident == "f19":
        a, b, c, d = pell_terms(k, n, 4)
        x, y = a, -b  # (P_n - i P_{n+1}) times the dual conjugate (a, b, -c, -d)
        side = (x * a - y * b, x * b + y * a, -x * c + y * d, -x * d - y * c)
    elif ident == "div_roundtrip":
        # The identity's documented sample: seed "dualpell:div:<n>", numerator first.
        rng = random.Random(f"dualpell:div:{n}")
        side = tuple(
            Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 1000)) for _ in range(4)
        )
    else:
        raise KeyError(ident)
    return side, side


def _dc_json(coeffs: tuple) -> dict:
    return dict(zip(("one", "i", "eps", "ieps"), (str(Fraction(c)) for c in coeffs)))


@dataclass
class Command:
    """One single-shot CLI invocation and how to check what it prints."""

    argv: list[str]
    expect_rc: int
    expected: object  # "json": {key: value}; "sweep": (summary line, report rows)
    kind: str  # "json" (stdout is one JSON document) or "sweep" (summary line + report)

    def check(self, stdout: str, rc: int, report: Path | None) -> str | None:
        """None when the output is right, else a description of the mismatch."""
        if rc != self.expect_rc:
            return f"exit code {rc}, expected {self.expect_rc}"
        if self.kind == "sweep":
            line, want = self.expected
            if stdout != line:
                return f"summary {stdout!r}, expected {line!r}"
            try:
                got = json.loads(report.read_text())
            except (OSError, ValueError):
                return "no JSON report was written"
            for row in got:
                row.pop("elapsed_ms")
            if got != want:
                return f"report {got}, expected {want}"
            return None
        try:
            got = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
        for key, value in self.expected.items():
            if got.get(key) != value:
                return f"{key} differs from the reference"
        return None

    def printed_digits(self) -> int:
        """Most decimal digits of any integer the command prints."""
        return max(map(len, re.findall(r"\d+", json.dumps(self.expected))), default=0)


def _identity(ident: str, k: Fraction | None, n: int, m: int | None = None,
              r: int | None = None) -> Command:
    argv = ["identity", "--id", ident]
    for flag, value in (("--k", k), ("--n", n), ("--m", m), ("--r", r)):
        if value is not None:
            argv += [flag, str(value)]

    lhs, rhs = reference_sides(ident, Fraction(k or 1), n, m or 0, r or 0)
    expected = {"equal": lhs == rhs, "lhs": _dc_json(lhs), "rhs": _dc_json(rhs)}
    return Command(argv, 0 if ident != "g19stated" else 1, expected, "json")


def _seq(family: str, k: Fraction, n: int) -> Command:
    lo = n - STRETCH + 1
    argv = ["seq", "--family", family, "--k", str(k), "--from", str(lo), "--to", str(n)]
    return Command(argv, 0, {
        "values": [str(v) for v in family_terms(family, k, lo, STRETCH)]
    }, "json")


def _quat(family: str, k: Fraction, n: int) -> Command:
    argv = ["quat", "--family", family, "--k", str(k), "--n", str(n)]
    return Command(argv, 0, _dc_json(tuple(family_terms(family, k, n, 4))), "json")


def _binet(level: str, k: Fraction, n: int) -> Command:
    argv = ["binet", "--k", str(k), "--n", str(n), "--level", level]
    if level == "number":
        value: object = str(pell_terms(k, n, 1)[0])
    else:
        value = _dc_json(tuple(pell_terms(k, n, 4)))
    return Command(argv, 0, {"value": value, "consistent": True}, "json")


def _sweep(k: Fraction, n: int, report: Path) -> Command:
    half = n // 2
    argv = ["sweep", "--ids", "g13", "--k", str(k), "--n", f"{half}..{half}",
            "--m", f"{half}..{half}", "--out", str(report)]
    row = {"identity": "g13", "grid_size": 1, "skipped": 0, "verdict": "holds",
           "counterexamples": []}
    return Command(argv, 0, ("g13 holds 1 0\n", [row]), "sweep")


F = Fraction
# (n_hi, build(n, report_path)). Each template takes one log-uniform stratum of
# [N_LO, deepest(build, n_hi)]; _STRIDE scatters the strata so every command
# kind lands at shallow and at deep n.
TEMPLATES: tuple[tuple[int, Callable[[int, Path], Command]], ...] = (
    (N_HI, lambda n, _: _seq("pell", F(1), n)),
    (N_HI, lambda n, _: _seq("pell-lucas", F(3), n)),
    (N_HI_RATIONAL, lambda n, _: _seq("modified-pell", F(5, 3), n)),
    (N_HI, lambda n, _: _quat("pell", F(2), n)),
    (N_HI_RATIONAL, lambda n, _: _quat("pell-lucas", F(3, 2), n)),
    (N_HI, lambda n, _: _quat("modified-pell", F(4), n)),
    (N_HI, lambda n, _: _binet("number", F(2), n)),
    (N_HI, lambda n, _: _binet("quaternion", F(1), n)),
    (N_HI_RATIONAL, lambda n, _: _binet("quaternion", F(1, 2), n)),
    (N_HI, lambda n, _: _identity("g13", F(2), n // 2, n // 2)),
    (N_HI, lambda n, _: _identity("g17", F(3), n, n + 5)),
    (N_HI, lambda n, _: _identity("helper_docagne", F(2), n, n + 3)),
    (N_HI, lambda n, _: _identity("helper_honsberger", F(4), n // 2, n // 2)),
    (N_HI, lambda n, _: _identity("g19stated", F(2), n, r=6)),
    (N_HI, lambda n, _: _identity("g19proof", F(3), n, r=4)),
    (N_HI_RATIONAL, lambda n, _: _identity("g14", F(1), n)),
    (N_HI, lambda n, _: _identity("binet_quaternion", F(2), n)),
    (N_HI, lambda n, _: _identity("binet_number", F(3), n)),
    (N_HI, lambda n, _: _identity("f19", F(2), n)),
    (N_HI_RATIONAL, lambda n, _: _identity("prefix_sum", F(1), n)),
    (N_HI, lambda n, _: _identity("div_roundtrip", None, n)),
    (N_HI, lambda n, _: _identity("g18", F(2), n)),
    (N_HI, lambda n, report: _sweep(F(2), n, report)),
)
_STRIDE = 7  # coprime with len(TEMPLATES)
JITTER = 0.1  # share of a stratum's log-width the seed may move n by, each way


def deepest(build: Callable[[int, Path], Command], n_hi: int, report: Path) -> int:
    """Largest n <= n_hi at which the command prints no integer over INT_STR_DIGITS digits.

    Bisection: the printed values of every template grow with n.
    """
    def fits(n: int) -> bool:
        return build(n, report).printed_digits() <= INT_STR_DIGITS

    if fits(n_hi):
        return n_hi
    lo, hi = N_LO, n_hi
    if not fits(lo):
        raise ValueError(f"a template prints over {INT_STR_DIGITS} digits at n = {N_LO}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


def cli_commands(seed: int, report: Path) -> list[Command]:
    """The seeded command list: stratified log-uniform n, seeded jitter and order."""
    rng = random.Random(seed)
    count = len(TEMPLATES)
    commands = []
    for i, (n_hi, build) in enumerate(TEMPLATES):
        top = deepest(build, n_hi, report)
        pos = ((i * _STRIDE) % count + 0.5 + rng.uniform(-JITTER, JITTER)) / count
        commands.append(build(round(N_LO * (top / N_LO) ** pos), report))
    rng.shuffle(commands)
    return commands
