"""Stated memory bounds of the sequence engine and of the evaluators.

A term at n = 200000 has about 290 thousand bits. The child caps its own
address space at 512 MB, so a regression that keeps every earlier term
(O(n^2) bits, gigabytes here) fails with MemoryError instead of swapping;
its peak resident set must stay under 200 MB.

The products Q_a Q_b that sweep and identity_sides memoize die with the
evaluation; only the per-k terms stay, and those grow linearly in n.
"""

import gc
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

from dualpell import IdentityId, SweepConfig, identity_sides, sweep

CHILD = """
import io, resource, sys
from contextlib import redirect_stdout
cap = 512 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)
from dualpell import pell_term
from dualpell.cli import main
assert pell_term(2, 200_000).denominator == 1
with redirect_stdout(io.StringIO()):
    assert main(["quat", "--family", "pell", "--k", "2", "--n", "200000"]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_deep_terms_stay_within_memory_bound():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
    peak_mb = int(done.stdout.split()[-1]) / 1024  # ru_maxrss is in KiB on Linux
    assert peak_mb < 200, f"peak RSS {peak_mb:.0f} MB"


def test_evaluations_hold_no_products_after_they_return():
    k = Fraction(5, 2)
    config = SweepConfig((IdentityId.G13, IdentityId.G17), (2, k), (0, 40), (0, 40), (1, 1))
    gc.collect()
    tracemalloc.start()
    try:
        sweep(config)
        gc.collect()
        after_sweep = tracemalloc.get_traced_memory()[0]
        # every term these read is already built, so only products could stay
        for n in range(21):
            for m in range(21):
                identity_sides(IdentityId.G13, {"k": k, "n": n, "m": m})
        gc.collect()
        after_sides = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # held by a process-lifetime product memo: about 1.0 MB and 146 KB
    assert after_sweep < 2**19, f"sweep left {after_sweep} bytes"
    assert after_sides - after_sweep < 2**15, f"identity_sides left {after_sides - after_sweep} bytes"
