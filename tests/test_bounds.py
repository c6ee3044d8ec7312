"""Stated memory bounds of the sequence engine and of the evaluators.

A term at n = 200000 has about 290 thousand bits. The child caps its own
address space at 512 MB, so a regression that keeps every earlier term
(O(n^2) bits, gigabytes here) fails with MemoryError instead of swapping;
its peak resident set must stay under 200 MB.

The products Q_a Q_b that sweep and identity_sides memoize die with the
evaluation; only the per-k terms stay, and those grow linearly in n. The
public reads go straight to the one per-k memo: the P table with gamma(k),
read by pell_term, and one table of numbers per (family, k), made on the
first read of that family, so a k read only through P holds no number table
and a k read only through dc_number holds only the tables it read.
"""

import gc
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

from dualpell import (
    DualComplex,
    Family,
    IdentityId,
    SweepConfig,
    dc_number,
    gamma_closed,
    identity_sides,
    pell_term,
    sweep,
)
from dualpell import sequences

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
    # the products die with each evaluation's own view; only per-k terms may stay
    assert after_sweep < 2**19, f"sweep left {after_sweep} bytes"
    assert after_sides - after_sweep < 2**15, f"identity_sides left {after_sides - after_sweep} bytes"


def test_sweep_filters_its_grid_as_it_streams():
    # 200,000 (n, r) points, every one with r > n, so the precondition rejects all
    config = SweepConfig((IdentityId.G19STATED,), (1,), (0, 499), (0, 0), (500, 899))
    gc.collect()
    tracemalloc.start()
    try:
        (report,) = sweep(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.grid_size, report.skipped) == (0, 200_000)
    assert peak < 2**20, f"sweep peaked at {peak} bytes"  # a listed product takes about 12 MiB


def test_pell_reads_at_fresh_k_hold_no_family_numbers():
    tables = sequences._numbers.cache_info  # one entry per (family, k) table made
    before = tables().currsize
    for i in range(1, 301):  # denominator 7919: no other test reads these k
        dc_number(Family.K_PELL, Fraction(i, 7919), 3)
    assert tables().currsize - before == 300  # one K_PELL table per k, no PL or MP
    before = tables().currsize
    dc_number(Family.MODIFIED_K_PELL, Fraction(301, 7919), 3)
    assert tables().currsize - before == 1  # the MP table alone: no K_PELL table comes with it


def test_gamma_closed_reads_the_memo_without_a_number_table():
    tables = sequences._numbers.cache_info
    before = tables().currsize
    k = Fraction(3, 7937)  # denominator 7937: no other test reads this k
    assert gamma_closed(k) == DualComplex(1 + k, 2, 2 * k * k + 6 * k + 4, 4 * k + 8)
    assert tables().currsize == before


def test_the_per_k_memo_holds_under_2_kib_per_k():
    # one read at each of 2,000 k that no other test reads, for each public read
    # of the memo: k = i/den (den prime) and k = base + i
    reads = {
        "dc_number": (lambda k: dc_number(Family.K_PELL, k, 5), 7927, 10**6),
        "pell_term": (lambda k: pell_term(k, 5), 7933, 2 * 10**6),
    }
    for name, (read, den, base) in reads.items():
        for ks in ([Fraction(i, den) for i in range(1, 2001)], [base + i for i in range(1, 2001)]):
            gc.collect()
            tracemalloc.start()
            try:
                for k in ks:
                    read(k)
                gc.collect()
                per_k = tracemalloc.get_traced_memory()[0] / len(ks)
            finally:
                tracemalloc.stop()
            assert per_k < 2048, f"{name} leaves {per_k:.0f} bytes per k at k = {ks[0]}"
