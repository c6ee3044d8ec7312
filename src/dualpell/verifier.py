"""Grid sweeps over the identity catalog with exact three-way verdicts.

A sweep enumerates every parameter tuple of every requested identity in
lexicographic (id, k, n, m, r) order, compares both sides exactly, and
classifies the identity as holding everywhere, holding only at k = 1, or
failing outright. Tuples that violate an identity's range precondition are
skipped and counted, never judged. Reports are fully deterministic once the
elapsed-time field is zeroed.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

from .scalars import exact_index, positive_k

# `identities` and `sequences` are imported where they are used, so a CLI
# command that never sweeps does not load the catalog.
if TYPE_CHECKING:
    from .dualcomplex import DualComplex
    from .identities import IdentityId


class Verdict(Enum):
    HOLDS = "holds"
    HOLDS_ONLY_K1 = "holds_only_k1"
    FAILS = "fails"


@dataclass(frozen=True)
class SweepConfig:
    """The grid of one sweep: identities, k values, inclusive index ranges."""

    ids: tuple[IdentityId, ...]
    k_values: tuple[Fraction | int, ...]
    n_range: tuple[int, int]
    m_range: tuple[int, int]
    r_range: tuple[int, int]
    max_counterexamples: int = 5


def default_config() -> SweepConfig:
    from .identities import CATALOG

    return SweepConfig(
        ids=tuple(CATALOG),
        k_values=(1, 2, 3, 4),
        n_range=(0, 32),
        m_range=(0, 32),
        r_range=(1, 8),
    )


@dataclass(frozen=True)
class Counterexample:
    """One failing tuple: its bindings and both sides, or the error it raised."""

    bindings: dict
    lhs: DualComplex | None
    rhs: DualComplex | None
    error: str | None = None


@dataclass(frozen=True)
class IdentityReport:
    """The verdict of one identity over its grid, with its first counterexamples."""

    id: IdentityId
    grid_size: int
    skipped: int
    verdict: Verdict
    counterexamples: tuple[Counterexample, ...]
    elapsed: float


def check_one(
    ident: IdentityId, bindings: dict
) -> tuple[bool, DualComplex, DualComplex]:
    """Evaluate one tuple; equal is exact coefficient-wise equality."""
    from .identities import identity_sides

    lhs, rhs = identity_sides(ident, bindings)
    return lhs == rhs, lhs, rhs


def _normalize(config: SweepConfig) -> SweepConfig:
    """config checked field by field, with ids in catalog order and k values sorted, each once."""
    from .identities import CATALOG, IdentityId

    items = {}
    for field in ("ids", "k_values"):
        values = getattr(config, field)
        try:
            values = iter(values)
        except TypeError:
            raise ValueError(f"{field} must be iterable, got {values!r}") from None
        items[field] = tuple(values)
    for ident in items["ids"]:
        if type(ident) is not IdentityId:
            raise ValueError(f"ids must hold IdentityId members, got {ident!r}")
    k_values = set()
    for k in items["k_values"]:
        try:
            k_values.add(positive_k(k))
        except ValueError:
            raise ValueError(f"k_values must hold positive int or Fraction values, got {k!r}") from None
    ranges = {}
    for field in ("n_range", "m_range", "r_range"):
        bounds = getattr(config, field)
        try:
            lo, hi = bounds
        except (TypeError, ValueError):
            raise ValueError(f"{field} must be a (lo, hi) pair, got {bounds!r}") from None
        ranges[field] = (exact_index(lo, name=field), exact_index(hi, name=field))
    return replace(
        config,
        ids=tuple(sorted(set(items["ids"]), key=list(CATALOG).index)),
        k_values=tuple(sorted(k_values)),
        max_counterexamples=exact_index(config.max_counterexamples, 0, "max_counterexamples"),
        **ranges,
    )


def sweep(config: SweepConfig) -> list[IdentityReport]:
    """Run every requested identity over its grid and report verdicts.

    Deterministic: same config, same report (modulo elapsed). Per-tuple
    evaluation errors are recorded as failures, not raised, so one bad tuple
    cannot abort the sweep.
    """
    from .identities import CATALOG
    from .sequences import Terms

    config = _normalize(config)
    ranges = {"n": config.n_range, "m": config.m_range, "r": config.r_range}
    axes = {name: range(lo, hi + 1) for name, (lo, hi) in ranges.items()}
    reports = []
    for ident in config.ids:
        entry = CATALOG[ident]
        started = time.perf_counter()
        # pre never reads k, so each identity's grid is filtered once, as it streams.
        own_axes = [axes[p] for p in entry.params]
        grid = [v for v in itertools.product(*own_axes) if entry.pre(*v)]
        skipped = math.prod(map(len, own_axes)) - len(grid)
        ks = config.k_values if entry.uses_k else (None,)
        k1_failed = False
        failures = 0
        counterexamples: list[Counterexample] = []
        for k in ks:
            t = Terms(k) if entry.uses_k else None  # its products go with it
            for values in grid:
                try:
                    lhs, rhs = entry.sides(t, *values)
                    if lhs == rhs:
                        continue
                    error = None
                except Exception as exc:  # recorded, never thrown mid-sweep
                    lhs = rhs = None
                    error = f"{type(exc).__name__}: {exc}"
                failures += 1
                k1_failed = k1_failed or k == 1
                if len(counterexamples) < config.max_counterexamples:
                    shown = {"k": k} if entry.uses_k else {}
                    shown.update(zip(entry.params, values))
                    counterexamples.append(Counterexample(shown, lhs, rhs, error))
        k1_seen = 1 in ks and bool(grid)
        if failures == 0:
            verdict = Verdict.HOLDS
        elif k1_seen and not k1_failed:
            verdict = Verdict.HOLDS_ONLY_K1
        else:
            verdict = Verdict.FAILS
        reports.append(
            IdentityReport(
                id=ident,
                grid_size=len(grid) * len(ks),
                skipped=skipped * len(ks),
                verdict=verdict,
                counterexamples=tuple(counterexamples),
                elapsed=time.perf_counter() - started,
            )
        )
    return reports


def counterexample_to_dict(ce: Counterexample) -> dict:
    out: dict = {}
    for key in ("k", "n", "m", "r"):
        if key in ce.bindings:
            value = ce.bindings[key]
            out[key] = str(value) if key == "k" else int(value)
    out["lhs"] = ce.lhs.to_json_dict() if ce.lhs is not None else None
    out["rhs"] = ce.rhs.to_json_dict() if ce.rhs is not None else None
    if ce.error is not None:
        out["error"] = ce.error
    return out


def report_to_dict(report: IdentityReport, zero_elapsed: bool = False) -> dict:
    return {
        "identity": report.id.value,
        "grid_size": report.grid_size,
        "skipped": report.skipped,
        "verdict": report.verdict.value,
        "counterexamples": [counterexample_to_dict(ce) for ce in report.counterexamples],
        "elapsed_ms": 0.0 if zero_elapsed else report.elapsed * 1000.0,
    }


def reports_to_json(
    reports: Iterable[IdentityReport], zero_elapsed: bool = False
) -> str:
    payload = [report_to_dict(r, zero_elapsed=zero_elapsed) for r in reports]
    return json.dumps(payload, indent=2)


def summary_lines(reports: Iterable[IdentityReport]) -> list[str]:
    return [
        f"{r.id.value} {r.verdict.value} {r.grid_size} {r.skipped}" for r in reports
    ]
