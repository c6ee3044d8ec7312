"""Fixed-operand timings of single layers, run untraced in the traced mode.

Operands do not depend on the workload seed, so each probe reads the same
work on every run. Each probe reports the median over several batches, each
batch scaled to the reference speed (see speed.py).
"""

from __future__ import annotations

import io
import json
import random
import statistics
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import speed
from reference import GateError

BATCHES = 5


def _per_call(fn, reps: int) -> float:
    """Median over batches of the scaled time of one call."""

    def batch():
        for _ in range(reps):
            fn()

    return statistics.median(speed.scaled_calls(batch, BATCHES)) / reps


def _golden_reports(golden: Path) -> list:
    """IdentityReport objects rebuilt from the golden file, for reports_to_json."""
    from dualpell import Counterexample, DualComplex, IdentityId, IdentityReport, Verdict

    reports = []
    for row in json.loads(golden.read_text()):
        ces = tuple(
            Counterexample(
                {key: Fraction(ce[key]) if key == "k" else ce[key]
                 for key in ("k", "n", "m", "r") if key in ce},
                DualComplex.from_json_dict(ce["lhs"]) if ce["lhs"] else None,
                DualComplex.from_json_dict(ce["rhs"]) if ce["rhs"] else None,
                ce.get("error"),
            )
            for ce in row["counterexamples"]
        )
        reports.append(IdentityReport(IdentityId(row["identity"]), row["grid_size"],
                                      row["skipped"], Verdict(row["verdict"]), ces, 0.0))
    return reports


def run_probes(golden: Path) -> dict[str, tuple[float, str]]:
    """name -> (value, unit). Raises GateError if a probe's result is wrong."""
    from dualpell import (Conjugation, DualComplex, Family, SequenceSpec, binet_quaternion,
                          dc_number, hat_pair, pell_term, reports_to_json, seq_binet,
                          seq_term_fast)

    rng = random.Random(0)

    def rational():
        return Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 1000))

    x = DualComplex(*(rational() for _ in range(4)))
    y = DualComplex(*(rational() for _ in range(4)))
    xi = DualComplex(*(rng.randint(-(10**6), 10**6) for _ in range(4)))
    yi = DualComplex(*(rng.randint(-(10**6), 10**6) for _ in range(4)))
    ha, hb = hat_pair(2)
    if (x / y) * y != x:
        raise GateError("probe: division does not round-trip")
    pell_term(2, 40)
    out: dict[str, tuple[float, str]] = {
        "probe.dc_mul_fraction_us": (_per_call(lambda: x * y, 200) * 1e6, "us"),
        "probe.dc_mul_int_us": (_per_call(lambda: xi * yi, 2000) * 1e6, "us"),
        "probe.dc_mul_quadext_us": (_per_call(lambda: ha * hb, 20) * 1e6, "us"),
        "probe.dc_div_fraction_us": (_per_call(lambda: x / y, 100) * 1e6, "us"),
        "probe.dc_conjugate_us": (
            _per_call(lambda: x.conjugate(Conjugation.DUAL_COMPLEX), 200) * 1e6, "us"),
        "probe.pell_term_warm_us": (_per_call(lambda: pell_term(2, 30), 2000) * 1e6, "us"),
        "probe.dc_number_warm_us": (
            _per_call(lambda: dc_number(Family.K_PELL, 2, 30), 500) * 1e6, "us"),
    }
    # Cold growth: every call uses a k this process has not seen, so the
    # sequence cache starts empty for it without touching module internals.
    fresh = iter(Fraction(101 + 2 * i, 7) for i in range(3))
    cold = speed.scaled_calls(lambda: pell_term(next(fresh), 5000), 3)
    out["probe.pell_term_cold_s"] = (statistics.median(cold), "s")
    spec = SequenceSpec(Family.K_PELL, Fraction(2))
    if seq_term_fast(spec, 60) != pell_term(2, 60):
        raise GateError("probe: seq_term_fast disagrees with pell_term")
    out["probe.seq_term_fast_ms"] = (_per_call(lambda: seq_term_fast(spec, 100_000), 1) * 1e3, "ms")
    out["probe.seq_binet_ms"] = (_per_call(lambda: seq_binet(2, 20_000), 1) * 1e3, "ms")
    out["probe.binet_quaternion_ms"] = (
        _per_call(lambda: binet_quaternion(2, 20_000), 1) * 1e3, "ms")
    from dualpell import cli

    argv = ["seq", "--family", "pell", "--k", "2", "--from", "0", "--to", "30"]

    def cli_seq() -> str:
        buf = io.StringIO()
        with redirect_stdout(buf):
            cli.main(argv)
        return buf.getvalue()

    if json.loads(cli_seq())["values"] != [str(pell_term(2, n)) for n in range(31)]:
        raise GateError("probe: `dualpell seq` disagrees with pell_term")
    out["probe.cli_main_ms"] = (_per_call(cli_seq, 20) * 1e3, "ms")
    reports = _golden_reports(golden)
    if reports_to_json(reports, zero_elapsed=True) + "\n" != golden.read_text():
        raise GateError("probe: golden reports do not render back to the golden bytes")
    out["probe.reports_to_json_ms"] = (
        _per_call(lambda: reports_to_json(reports, zero_elapsed=True), 20) * 1e3, "ms")
    return out
