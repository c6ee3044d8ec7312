"""Scaling measured times to a reference machine speed.

On a shared 2-vCPU host (Intel Xeon, 2.1 GHz), the speed of a fixed
pure-Python loop drifts by +-20% over tens of seconds, with process CPU time
tracking wall time, so repeating passes does not average the drift away
(5 runs of sweep_default: pass time quartile spread 0.27 of the median).
Every timed operation is therefore bracketed by a short fixed kernel of
small-Fraction arithmetic and frozen-dataclass construction, the same kind
of interpreter work dualpell does, and its time is multiplied by
REFERENCE_S / (median of the kernel times nearest to it).
The result reads as seconds on a machine where the kernel takes
REFERENCE_S, close to its time on that host when the host is quiet.

Operations that are fresh processes (the cli_deep commands and the set-up
time) drift differently: over a few hundred commands, their time followed
the start-up time of a bare interpreter more closely than the in-process
kernel (per-pass quartile spread of the pass time 0.04 against 0.06-0.09,
of the median command 0.05-0.06 against 0.08-0.13). They are scaled by
process_seconds, a fresh `python -c pass` that imports nothing from the
program, against REFERENCE_PROCESS_S.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

REFERENCE_S = 1.8e-3
REFERENCE_PROCESS_S = 40e-3  # process_seconds on that host when kernel_seconds reads REFERENCE_S
WINDOW = 6


@dataclass(frozen=True)
class _Pair:
    a: Fraction
    b: Fraction


_F1, _F2 = Fraction(3, 7), Fraction(-5, 11)
_TABLE = {i: Fraction(i, 3) for i in range(64)}


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    x = _Pair(_F1, _F2)
    for i in range(120):
        y = _Pair(x.a * _F2 - x.b * _F1 + _TABLE[i & 63], x.a * _F1 + x.b * _F2)
        x = _Pair(y.a - y.a + _F1, y.b)
    return time.perf_counter() - t0


def process_seconds(env: dict | None = None) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return time.perf_counter() - t0


def scale_all(latencies: list[float], kernel: list[float],
              reference: float = REFERENCE_S) -> list[float]:
    """Scale operation i, which ran between kernel[i] and kernel[i + 1].

    Each operation uses the median of the WINDOW kernel times nearest to it,
    so one kernel run caught in a brief stall does not skew it.
    """
    half = WINDOW // 2
    return [
        lat * reference / statistics.median(kernel[max(0, i + 1 - half): i + 1 + half])
        for i, lat in enumerate(latencies)
    ]


def scaled_calls(fn, count: int, kernel_fn=kernel_seconds,
                 reference: float = REFERENCE_S) -> list[float]:
    """Scaled wall times of ``count`` calls of ``fn``, bracketed by ``kernel_fn``."""
    latencies, kernel = [], [kernel_fn()]
    for _ in range(count):
        t0 = time.perf_counter()
        fn()
        latencies.append(time.perf_counter() - t0)
        kernel.append(kernel_fn())
    return scale_all(latencies, kernel, reference)
