"""dualpell benchmark: three workloads, end-to-end metrics and a traced run.

Usage, from the root of the repository:

    python3 bench/run.py --workload sweep_default --seed 1 --seconds 30 --trace 0

Workloads. All load comes from this one process, one operation at a time
(a closed loop with one client):

  sweep_default   the `dualpell sweep` default grid (40 ids, k in 1..4,
                  n, m in 0..32, r in 1..8), run in-process as one
                  `verifier.sweep` call per identity, in catalog order.
  sweep_rational  the same catalog over k = 1 plus three seeded small p/q,
                  n, m in 0..24, r in 1..6.
  cli_deep        a seeded list of single-shot commands, each a fresh
                  `python -m dualpell` process, at n from 1e3 up to the
                  largest n whose printed values fit the int->str limit.

A pass runs every operation of the workload once; passes repeat until
--seconds is used up. Every output of every pass is checked before any
number is recorded; a wrong output, a crash or a timeout ends the run with
exit code 1 and no result line. --trace 0 prints the end-to-end metrics; --trace 1 prints the
per-layer metrics from spans (see spans.py), the fixed-operand probes
(probes.py) and the tracing overhead. Every time is scaled to a reference
machine speed (see speed.py). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "golden_default_sweep.json"
OUT = ROOT / ".bench_out"

SETUP_REPS = 7
CMD_TIMEOUT_S = 60
# sweep_rational takes one k from each pool. Within a pool the values have
# numerators and denominators of the same few bits, so seeds cost alike; each
# value was checked to reproduce the golden verdict of every identity.
RATIONAL_POOLS = (
    ("1/2", "2/3", "3/4", "3/5"),
    ("3/2", "4/3", "5/3", "5/4", "7/4"),
    ("5/2", "7/2", "7/3", "9/4", "22/7"),
)

sys.path.insert(0, str(SRC))
import spans  # noqa: E402
import speed  # noqa: E402
from reference import GateError, cli_commands  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def process_kernel() -> float:
    return speed.process_seconds(child_env())


def measure_setup() -> float:
    """Median time of a fresh interpreter importing dualpell and building the parser."""
    argv = [sys.executable, "-c", "import dualpell.cli; dualpell.cli.build_parser()"]
    subprocess.run(argv, env=child_env(), check=True)  # writes bytecode on a fresh checkout
    return statistics.median(speed.scaled_calls(
        lambda: subprocess.run(argv, env=child_env(), check=True), SETUP_REPS,
        process_kernel, speed.REFERENCE_PROCESS_S))


class SweepWorkload:
    """One in-process `verifier.sweep` call per identity."""

    kernel = staticmethod(speed.kernel_seconds)
    reference_s = speed.REFERENCE_S

    def __init__(self, name: str, seed: int) -> None:
        from dualpell import CATALOG, SweepConfig, default_config, required_bindings

        self.name = name
        self.golden_text = GOLDEN.read_text()
        self.golden = json.loads(self.golden_text)
        if name == "sweep_default":
            base = default_config()
            sizes = {"k": 4, "n": 33, "m": 33, "r": 8}
        else:
            rng = random.Random(seed)
            ks = ["1"] + [rng.choice(pool) for pool in RATIONAL_POOLS]
            base = SweepConfig(ids=(), k_values=tuple(map(Fraction, ks)),
                               n_range=(0, 24), m_range=(0, 24), r_range=(1, 6))
            sizes = {"k": len(ks), "n": 25, "m": 25, "r": 6}
        self.inputs = (f"k {','.join(map(str, base.k_values))}, n {base.n_range}, "
                       f"m {base.m_range}, r {base.r_range}")
        self.ops = [
            (ident, replace(base, ids=(ident,)),
             math.prod(sizes[p] for p in required_bindings(ident)))
            for ident in CATALOG
        ]

    def run_pass(self, totals: dict | None = None, tracer=None) -> tuple[list, list]:
        from dualpell import verifier  # looked up per call, so a tracer's wrappers are seen

        if tracer is not None:
            tracer.clear()
        latencies, kernel, reports = [], [], []
        for _, config, _ in self.ops:
            kernel.append(self.kernel())
            t0 = time.perf_counter()
            reports += verifier.sweep(config)
            latencies.append(time.perf_counter() - t0)
        kernel.append(self.kernel())
        text = verifier.reports_to_json(reports, zero_elapsed=True) + "\n"
        if tracer is not None:
            spans.aggregate(tracer.names, tracer.name_of, tracer.parent, tracer.start,
                            tracer.end, totals)
        self.check(text)
        return latencies, kernel

    def check(self, text: str) -> None:
        if self.name == "sweep_default":
            if text != self.golden_text:
                raise GateError("zeroed default-sweep report differs from the golden file")
            return
        rows = json.loads(text)
        if len(rows) != len(self.ops):
            raise GateError(f"{len(rows)} reports for {len(self.ops)} identities")
        for (ident, _, grid), row, want in zip(self.ops, rows, self.golden):
            tag = ident.value
            if row["identity"] != tag:
                raise GateError(f"report for {row['identity']} where {tag} was due")
            if row["verdict"] != want["verdict"]:
                raise GateError(f"{tag}: verdict {row['verdict']}, golden {want['verdict']}")
            if row["grid_size"] + row["skipped"] != grid:
                raise GateError(f"{tag}: grid {row['grid_size']} + {row['skipped']} != {grid}")

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class CliWorkload:
    """Each command a fresh process; stdout and stderr decide success, not the exit code."""

    kernel = staticmethod(process_kernel)
    reference_s = speed.REFERENCE_PROCESS_S

    def __init__(self, seed: int) -> None:
        self.report = OUT / "cli_report.json"
        self.commands = cli_commands(seed, self.report)
        self.inputs = f"{len(self.commands)} commands, n = " + ", ".join(
            next(a for f, a in zip(c.argv, c.argv[1:]) if f in ("--n", "--to"))
            for c in self.commands)
        self.peak_kb = 0

    def _spawn(self, argv: list[str]) -> tuple[float, int, bool, int]:
        """(latency, exit code, killed, max RSS in KB) of one child process."""
        with open(OUT / "stdout.txt", "wb") as out, open(OUT / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env())
            timer = threading.Timer(CMD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            latency = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return latency, proc.returncode, os.WIFSIGNALED(status), usage.ru_maxrss

    def run_pass(self, totals: dict | None = None, tracer=None) -> tuple[list, list]:
        latencies, kernel = [], []
        for i, cmd in enumerate(self.commands):
            span_file = OUT / f"spans_cli_{i}.bin"
            for stale in (self.report, span_file):
                stale.unlink(missing_ok=True)
            kernel.append(self.kernel())
            if totals is None:
                argv = [sys.executable, "-m", "dualpell", *cmd.argv]
            else:
                argv = [sys.executable, str(HERE / "traced_child.py"), str(span_file), *cmd.argv]
            latency, rc, killed, rss_kb = self._spawn(argv)
            latencies.append(latency)
            self.peak_kb = max(self.peak_kb, rss_kb)
            stdout = (OUT / "stdout.txt").read_text()
            stderr = (OUT / "stderr.txt").read_text()
            # Exit code 1 also means "unequal", so a crash is told by its traceback.
            if killed:
                problem = f"killed after {CMD_TIMEOUT_S} s"
            elif "Traceback (most recent call last)" in stderr:
                problem = f"crashed: {stderr.strip().splitlines()[-1]}"
            else:
                problem = cmd.check(stdout, rc, self.report)
            if problem:
                raise GateError(f"{' '.join(cmd.argv)}: {problem}")
            if totals is not None:
                spans.aggregate(*spans.load(span_file), totals)
        kernel.append(self.kernel())
        return latencies, kernel

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024


def timed_passes(workload, seconds: float, **traced) -> tuple[list[list[float]], list[float]]:
    """Passes until the next one would end after ``seconds``; at least one.

    Returns each pass's operation latencies, scaled to the reference speed
    by the workload's kernel, timed around each operation (see speed.py), and
    each pass's unscaled time.
    """
    passes, raw = [], []
    start = time.perf_counter()
    while True:
        latencies, kernel = workload.run_pass(**traced)
        passes.append(speed.scale_all(latencies, kernel, workload.reference_s))
        raw.append(sum(latencies))
        if time.perf_counter() - start + statistics.median(raw) > seconds:
            print(f"passes: {len(raw)}, unscaled pass_s median {statistics.median(raw):.4f} s, "
                  f"scaled {statistics.median(sum(p) for p in passes):.4f} s")
            return passes, raw


def end_to_end(workload, seconds: float) -> tuple[dict, int]:
    setup = measure_setup()
    passes, _ = timed_passes(workload, seconds)
    ops = [latency for p in passes for latency in p]
    p90 = statistics.quantiles(ops, n=10, method="inclusive")[8]
    print(f"setup samples: {SETUP_REPS}; pass samples: {len(passes)}; op latency samples: "
          f"{len(ops)} ({len(passes[0])} ops x {len(passes)} passes), "
          f"{sum(x > p90 for x in ops)} above p90")
    return {
        "setup_s": (setup, "s"),
        "pass_s": (statistics.median(sum(p) for p in passes), "s"),
        "op_p50_ms": (statistics.median(ops) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }, len(ops)


def per_layer(workload, seconds: float) -> tuple[dict, int]:
    from probes import run_probes

    plain, _ = timed_passes(workload, seconds / 2)
    metrics = run_probes(GOLDEN)
    totals: dict = {}
    tracer = None
    if isinstance(workload, SweepWorkload):
        tracer = spans.Tracer()
        spans.install(tracer)
    traced, raw = timed_passes(workload, seconds / 2, totals=totals, tracer=tracer)
    if tracer is not None:
        tracer.dump(OUT / f"spans_{workload.name}.bin")  # the last traced pass
    count, scale = len(traced), sum(map(sum, traced)) / sum(raw)
    for name in spans.span_names():
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls // count if calls % count == 0 else calls / count,
                                    "count")
        if name not in spans.CALLS_ONLY:
            metrics[f"{name}.self_s"] = (self_s * scale / count, "s")
    traced_pass = statistics.median(sum(p) for p in traced)
    metrics["trace.pass_s"] = (traced_pass, "s")
    metrics["trace.overhead_s"] = (traced_pass - statistics.median(sum(p) for p in plain), "s")
    return metrics, sum(len(p) for p in plain + traced)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep_default", "sweep_rational", "cli_deep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "dualpell" / "__init__.py").is_file() or not GOLDEN.is_file():
        print(f"error: run from a dualpell checkout; {SRC} or {GOLDEN} is missing",
              file=sys.stderr)
        return 2
    # Only this process: reference values are rendered and compared as text.
    sys.set_int_max_str_digits(0)
    # One CPU for this process and its children, so the kernel and the
    # operations it scales run on the same (shared) core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    print(f"python {sys.version.split()[0]}, nproc {os.cpu_count()}, "
          f"load average at start {os.getloadavg()[0]:.2f}")
    if args.workload == "cli_deep":
        workload = CliWorkload(args.seed)
    else:
        workload = SweepWorkload(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}: {workload.inputs}")
    try:
        if args.trace:
            metrics, attempted = per_layer(workload, args.seconds)
        else:
            metrics, attempted = end_to_end(workload, args.seconds)
    except GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": 0,  # any failed operation fails the gate
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
