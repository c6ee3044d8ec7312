"""Stated memory bound of the sequence engine, measured in a child process.

A term at n = 200000 has about 290 thousand bits. The child caps its own
address space at 512 MB, so a regression that keeps every earlier term
(O(n^2) bits, gigabytes here) fails with MemoryError instead of swapping;
its peak resident set must stay under 200 MB.
"""

import os
import subprocess
import sys
from pathlib import Path

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
