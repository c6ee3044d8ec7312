"""Spans around calls into dualpell's public functions, for the traced run.

Tracing is installed from outside the package: each public name is replaced
by a wrapper at every place where callers look it up (module globals that
hold the same function object, class attributes for methods, and each
catalog entry's ``sides``). Nothing under ``src/`` is edited. A span is
(name, parent, start, end); self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from array import array
from pathlib import Path

# (module, attribute) pairs of the module-level functions that get spans.
FUNCTIONS = (
    ("sequences", "pell_term"),
    ("sequences", "seq_term"),
    ("sequences", "dc_number"),
    ("sequences", "seq_binet"),
    ("sequences", "seq_prefix_sum"),
    ("quaternions", "binet_quaternion"),
    ("quaternions", "build_quaternion"),
    ("quaternions", "gamma_closed"),
    ("verifier", "sweep"),
    ("verifier", "reports_to_json"),
    ("cli", "main"),
)
# (module, class, methods); methods sharing one function object share a span name.
METHODS = (
    ("dualcomplex", "DualComplex", ("__mul__", "scale", "__truediv__", "conjugate")),
    ("scalars", "QuadExt", ("__mul__", "__rmul__", "__pow__")),
)
# Spans with a call count but no self-time metric: the sweeps never call
# them, so their self time would read 0 there. probe.cli_main_ms times the
# cli layer on every workload instead.
CALLS_ONLY = ("quaternions.build_quaternion", "cli.main")
# The identities whose sides get a metric of their own: the nine costliest on
# the default sweep at commit 3a62661. Every other id is summed into "other".
SIDES_TRACKED = (
    "g13", "g17", "helper_docagne", "helper_honsberger", "g19stated",
    "g19proof", "binet_quaternion", "g14", "binet_number",
)


class Tracer:
    """Spans kept in flat arrays in memory; written out by ``dump``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.clear()

    def clear(self) -> None:
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def wrap(self, fn, name: str):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        tracer, clock = self, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.parent)
            tracer.name_of.append(nid)
            tracer.parent.append(stack[-1])
            tracer.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            tracer.start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                stack.pop()

        return traced

    def dump(self, path: Path) -> None:
        """Write spans as a JSON header line followed by the four raw arrays."""
        header = {"names": self.names, "count": len(self.parent)}
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(handle)


def load(path: Path) -> tuple[list[str], array, array, array, array]:
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        count = header["count"]
        arrays = []
        for code in ("H", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(handle, count)
            arrays.append(arr)
    return (header["names"], *arrays)


def install(tracer: Tracer) -> None:
    """Replace every traced name in the imported dualpell package by a wrapper."""
    from dualpell import identities

    modules = [m for n, m in sys.modules.items() if n == "dualpell" or n.startswith("dualpell.")]
    for mod_name, attr in FUNCTIONS:
        original = getattr(sys.modules[f"dualpell.{mod_name}"], attr)
        wrapper = tracer.wrap(original, f"{mod_name}.{attr}")
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    for mod_name, cls_name, methods in METHODS:
        cls = getattr(sys.modules[f"dualpell.{mod_name}"], cls_name)
        wrappers: dict[int, object] = {}
        for method in methods:
            original = cls.__dict__[method]
            if id(original) not in wrappers:
                wrappers[id(original)] = tracer.wrap(
                    original, f"{mod_name}.{cls_name}.{original.__name__}"
                )
            setattr(cls, method, wrappers[id(original)])
    for ident, entry in list(identities.CATALOG.items()):
        tag = ident.value if ident.value in SIDES_TRACKED else "other"
        wrapped = tracer.wrap(entry.sides, f"identities.sides.{tag}")
        identities.CATALOG[ident] = dataclasses.replace(entry, sides=wrapped)


def span_names() -> list[str]:
    names = [f"{m}.{a}" for m, a in FUNCTIONS]
    for mod_name, cls_name, methods in METHODS:
        for method in methods:
            if method != "__rmul__":
                names.append(f"{mod_name}.{cls_name}.{method}")
    names += [f"identities.sides.{tag}" for tag in (*SIDES_TRACKED, "other")]
    return names


def aggregate(names, name_of, parent, start, end, totals: dict) -> None:
    """Add each span name's call count and self time into ``totals``."""
    n = len(parent)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    for i in range(n):
        entry = totals.setdefault(names[name_of[i]], [0, 0.0])
        entry[0] += 1
        entry[1] += end[i] - start[i] - child[i]
