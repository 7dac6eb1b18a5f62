"""Span recorder that wraps armid's public functions from outside the package.

Each wrapped call records a span (name, start, end, parent) in memory and adds
its self time (duration minus the time of its traced children, tracer
bookkeeping included) to per-name totals. The time the tracer spends on its
own bookkeeping is summed separately, so the traced run can state its own
overhead. Spans are written out only when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import os
import sys
import time
from collections import Counter

import numpy as np

clock = time.perf_counter

TRACED_MODULES = ("dynamics", "excite", "identify", "signals", "simulate", "cli")


def _regressor_samples(args, kwargs, result):
    q = args[1] if len(args) > 1 else kwargs["q"]
    yield "dynamics.regressor_batch.samples", 1 if np.ndim(q) == 1 else np.shape(q)[0]


def _subspace_shape(args, kwargs, result):
    rows, cols = np.shape(args[0] if args else kwargs["W"])
    yield "identify.identifiable_subspace.rows", rows
    yield "identify.identifiable_subspace.cols", cols


def _svd_u_bytes(args, kwargs, result):
    """Bytes of the U factor, computed from shape and flags (not measured)."""
    a = args[0] if args else kwargs["a"]
    full = args[1] if len(args) > 1 else kwargs.get("full_matrices", True)
    compute_uv = args[2] if len(args) > 2 else kwargs.get("compute_uv", True)
    if compute_uv:
        *batch, m, n = np.shape(a)
        u_cols = m if full else min(m, n)
        yield "linalg.svd.u_bytes", math.prod(batch) * m * u_cols * np.dtype(np.float64).itemsize


def _read_bytes(args, kwargs, result):
    yield "signals.trial_from_csv.bytes", os.path.getsize(args[0] if args else kwargs["path"])


def _written_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    yield "signals.trial_to_csv.bytes", os.path.getsize(path)


def _objective_inf(args, kwargs, result):
    yield "excite.information_objective.inf", 0 if math.isfinite(result.value) else 1


def _barrier(args, kwargs, result):
    yield "identify.barrier.newton_iters", sum(result.trace.newton_iterations)
    yield "identify.barrier.mu_stages", len(result.trace.mu_path)


# Counts taken from a call's arguments or result, by span name.
MEASURES = {
    "dynamics.regressor_batch": _regressor_samples,
    "identify.identifiable_subspace": _subspace_shape,
    "linalg.svd": _svd_u_bytes,
    "signals.trial_from_csv": _read_bytes,
    "signals.trial_to_csv": _written_bytes,
    "excite.information_objective": _objective_inf,
    "identify.consistent_identify": _barrier,
    "identify.payload_identify": _barrier,
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counts: Counter = Counter()
        self.overhead_s = 0.0
        self.root_s = 0.0  # footprint of spans with no traced parent
        self._stack: list = []  # [span index, child footprint] per open span

    def wrap(self, name: str, fn):
        stack, spans = self._stack, self.spans
        stat = self.stats.setdefault(name, [0, 0.0])
        measure = MEASURES.get(name)

        def traced(*args, **kwargs):
            t0 = clock()
            parent = stack[-1] if stack else None
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            result, returned = None, False
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                t2 = clock()
                stack.pop()
                spans[frame[0]] = (name, t1, t2, parent[0] if parent else -1)
                stat[0] += 1
                stat[1] += (t2 - t1) - frame[1]
                if measure is not None and returned:
                    self.counts.update(dict(measure(args, kwargs, result)))
                t3 = clock()
                if parent is None:
                    self.root_s += t3 - t0
                else:
                    parent[1] += t3 - t0
                self.overhead_s += (t1 - t0) + (t3 - t2)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        """Wrap every public function of the traced modules, and ``np.linalg.svd``.

        A function is replaced under every name an armid module binds it to,
        so calls through ``from ... import`` aliases are traced as well.
        """
        wrapped = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"armid.{short}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrapped[obj] = self.wrap(f"{short}.{attr.removeprefix('cmd_')}", obj)
        for name, module in list(sys.modules.items()):
            if name != "armid" and not name.startswith("armid."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])
        np.linalg.svd = self.wrap("linalg.svd", np.linalg.svd)

    def summary(self) -> dict:
        return {
            "stats": {name: {"calls": c, "self_s": s} for name, (c, s) in self.stats.items()},
            "counts": dict(self.counts),
            "overhead_s": self.overhead_s,
            "root_s": self.root_s,
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
