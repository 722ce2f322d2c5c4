"""Span recorder that times calls into pdmsim's public functions from outside.

The package itself carries no timers. Instead, each traced function is wrapped
and the wrapper is bound in place of the original under every name that holds
it in a loaded ``pdmsim`` module, so calls made through ``from .linalg import
kron`` in other modules are recorded too. Spans stay in memory while an
operation runs; self time is derived afterwards from the parent links.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from dataclasses import dataclass

#: (layer, function) pairs that are wrapped. The layer is the metric prefix.
#: ``sweep_config_from_dict`` is defined in ``pdmsim.sweep`` but parses a
#: document, so it is counted with the serialize layer. Functions are looked
#: up by name across the package, so moving one between modules does not lose it.
TRACED = (
    ("schedule", "build_pdm"),
    ("schedule", "expectation"),
    ("schedule", "expectation_oracle"),
    ("schedule", "ancilla_expectation"),
    ("channels", "apply_channel_to_matrix"),
    ("channels", "channel_at_time"),
    ("channels", "state_from_bloch"),
    ("linalg", "embed_operator"),
    ("linalg", "kron"),
    ("linalg", "hermitian_eig"),
    ("causality", "classify"),
    ("sweep", "run_sweep"),
    ("sweep", "find_transition"),
    ("sweep", "report_at_time"),
    ("sweep", "rows_to_csv"),
    ("sweep", "emit_svg"),
    ("serialize", "schedule_from_dict"),
    ("serialize", "sweep_config_from_dict"),
    ("cli", "main"),
    ("verify", "suite_golden"),
    ("verify", "suite_engine_oracle"),
    ("verify", "suite_ancilla"),
    ("verify", "suite_unitary_invariance"),
    ("verify", "suite_local_monotonicity"),
    ("verify", "suite_convexity"),
)

#: Functions whose output array sizes are summed into a computed byte count.
BYTE_COUNTED = ("kron",)


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fn in TRACED]


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "pdmsim" or name.startswith("pdmsim."))]


def _find(fn_name: str, modules):
    """The package's function object of that name, or None if it no longer exists."""
    for m in modules:
        obj = m.__dict__.get(fn_name)
        if callable(obj) and getattr(obj, "__module__", "").startswith("pdmsim"):
            return obj
    return None


@dataclass
class LayerTotals:
    """Totals of one traced pass: per span name, calls and self nanoseconds."""

    calls: dict
    self_ns: dict
    computed_bytes: dict
    spans: int


class Tracer:
    """Records one span per call of each traced function while installed.

    Columns are kept in ``array`` buffers: span ``i`` has function index
    ``fn[i]``, parent span ``parent[i]`` (-1 at the root), operation ``op[i]``
    and start/end times from ``time.perf_counter_ns``.
    """

    def __init__(self):
        self.names = span_names()
        self.missing: list[str] = []
        self._patched: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        self.fn = array("h")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.bytes = [0] * len(self.names)
        self.current_op = 0
        self._stack: list[int] = []

    def _wrap(self, index: int, func, count_bytes: bool):
        fn, parent, op, start, end = self.fn, self.parent, self.op, self.start, self.end
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = len(fn)
            fn.append(index)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if count_bytes:
                self.bytes[index] += result.nbytes
            return result

        return traced

    def install(self) -> None:
        """Bind a recording wrapper over every traced function in every pdmsim module."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        self.reset()
        modules = _package_modules()
        self.missing = []
        for index, (name, (_, fn_name)) in enumerate(zip(self.names, TRACED)):
            original = _find(fn_name, modules)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(index, original, fn_name in BYTE_COUNTED)
            for m in modules:
                for attr, value in list(m.__dict__.items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched = []

    def totals(self) -> LayerTotals:
        """Calls and self time per span name; self time is the span minus its child spans."""
        n = len(self.fn)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        calls = dict.fromkeys(self.names, 0)
        self_ns = dict.fromkeys(self.names, 0)
        for i in range(n):
            name = self.names[self.fn[i]]
            calls[name] += 1
            self_ns[name] += self.end[i] - self.start[i] - child_ns[i]
        computed = {self.names[i]: b for i, b in enumerate(self.bytes) if TRACED[i][1] in BYTE_COUNTED}
        return LayerTotals(calls, self_ns, computed, n)

    def write(self, path) -> None:
        """Write the recorded spans as gzipped JSON columns (times in ns from the first span)."""
        t0 = self.start[0] if len(self.start) else 0
        doc = {
            "names": self.names,
            "missing": self.missing,
            "fn": self.fn.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "start_ns": [t - t0 for t in self.start],
            "end_ns": [t - t0 for t in self.end],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))
