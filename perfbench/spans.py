"""Spans around su2lab's public and batch entry points, recorded from outside.

The tracer replaces each target function with a wrapper in every
``su2lab`` namespace that binds it: ``montecarlo`` imports its kernels by
name, so ``su2lab.zeros._batch_winding`` and
``su2lab.montecarlo._batch_winding`` are both patched.  Spans are kept in
memory as ``(name, start, end, parent, rows, failed_rows)`` and written
out when the run ends.  Pool children never see the wrappers, which is why
traced ops run at ``workers = 1``.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _rows_of(arr) -> int:
    return int(np.atleast_2d(arr).shape[0])


def _plan_trials(args) -> int:
    return int(args[0].trials)


def _one(args) -> int:
    return 1


def _failed_mask(index: int):
    def failed(out) -> int:
        return int((~np.asarray(out[index], dtype=bool)).sum())
    return failed


@dataclass(frozen=True)
class Target:
    span: str
    module: str
    attrs: tuple[str, ...]
    rows: Callable
    failed: Callable | None = None


# Span names are the layer names of BENCHMARK.json's per_layer metrics.
TARGETS = (
    Target("rng.gaussian_matrix", "su2lab.rng", ("gaussian_matrix",),
           lambda a: len(a[1])),
    Target("model.sample_polynomial", "su2lab.model", ("sample_polynomial",), _one),
    Target("model.basis_change_matrix", "su2lab.model", ("basis_change_matrix",), _one),
    Target("model.eq2_identity_residual", "su2lab.model",
           ("eq2_identity_residual",), _one),
    Target("zeros.bini_start_points", "su2lab.zeros", ("_bini_start_points",),
           lambda a: _rows_of(a[0])),
    Target("zeros.aberth_batch", "su2lab.zeros", ("_aberth_batch",),
           lambda a: _rows_of(a[0]), _failed_mask(1)),
    Target("zeros.normalized_residuals", "su2lab.zeros", ("_normalized_residuals",),
           lambda a: _rows_of(a[0])),
    Target("zeros.batch_winding", "su2lab.zeros", ("_batch_winding",),
           lambda a: _rows_of(a[0]), _failed_mask(1)),
    Target("zeros.batch_circle_log_means", "su2lab.zeros", ("_batch_circle_log_means",),
           lambda a: _rows_of(a[0]), _failed_mask(2)),
    Target("zeros.batch_boundary_log_max", "su2lab.zeros", ("_batch_boundary_log_max",),
           lambda a: _rows_of(a[0])),
    Target("zeros.find_all_roots", "su2lab.zeros", ("find_all_roots",), _one),
    Target("zeros.count_zeros_argument_principle", "su2lab.zeros",
           ("count_zeros_argument_principle",), _one),
    Target("zeros.max_modulus_boundary", "su2lab.zeros", ("max_modulus_boundary",), _one),
    Target("montecarlo.run_blocked", "su2lab.montecarlo", ("_run_blocked",),
           _plan_trials),
    Target("montecarlo.estimator", "su2lab.montecarlo",
           ("estimate_hole_probability", "estimate_zero_count_mean",
            "estimate_deviation_probability", "zero_count_samples",
            "max_modulus_outlier_frequency", "circle_average_lower_tail_frequency",
            "log_l1_outlier_frequency"),
           _plan_trials),
    Target("cli.main", "su2lab.cli", ("main",), _one),
)

SPAN_NAMES = tuple(t.span for t in TARGETS)
SPAN_STATS = ("busy_s", "self_s", "calls", "rows")
FAILED_ROW_SPANS = tuple(t.span for t in TARGETS if t.failed is not None)


def _rebind(originals: dict[int, Callable], replacement_of) -> None:
    """Point every su2lab module attribute bound to one of ``originals``
    at its replacement."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "su2lab" or name.startswith("su2lab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in originals and value is originals[id(value)]:
                setattr(mod, attr, replacement_of(value))


class Tracer:
    """Wraps every target once; records nested spans while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, rows, failed]
        self._stack: list[int] = []
        self._wrappers: dict[int, Callable] = {}
        self._originals: dict[int, Callable] = {}
        for target in TARGETS:
            mod = sys.modules[target.module]
            for attr in target.attrs:
                fn = getattr(mod, attr)
                self._originals[id(fn)] = fn
                self._wrappers[id(fn)] = self._wrap(fn, target)

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [target.span, 0.0, 0.0, stack[-1] if stack else -1,
                    target.rows(args), 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if target.failed is not None:
                span[5] = target.failed(out)
            return out

        wrapper.__wrapped_original__ = fn
        return wrapper

    def install(self) -> None:
        _rebind(self._originals, lambda fn: self._wrappers[id(fn)])

    def uninstall(self) -> None:
        wrapped = {id(w): w for w in self._wrappers.values()}
        _rebind(wrapped, lambda w: w.__wrapped_original__)

    def summary(self, scale: list[float | None]) -> dict[str, dict[str, float]]:
        """Per span name: busy_s (time inside, counted once under
        same-name nesting), self_s (time inside minus child spans),
        calls, rows and failed_rows.  Span ``i``'s times are multiplied
        by ``scale[i]``; spans whose scale is None are left out."""
        stats = {name: dict.fromkeys(SPAN_STATS + ("failed_rows",), 0.0)
                 for name in SPAN_NAMES}
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        for i, (name, start, end, parent, rows, failed) in enumerate(self.spans):
            if scale[i] is None:
                continue
            s = stats[name]
            dur = end - start
            s["self_s"] += (dur - child_time[i]) * scale[i]
            s["calls"] += 1
            s["rows"] += rows
            s["failed_rows"] += failed
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                s["busy_s"] += dur * scale[i]
        return stats

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "rows": r, "failed_rows": f}
            for n, s, e, p, r, f in self.spans
        ]


class CpuMeter:
    """CPU seconds (process plus reaped children) of each call to one
    function.  Not a span: two clock reads per call, used in the
    untraced run where the op is a single CLI call covering several
    estimates."""

    def __init__(self, module: str, attr: str):
        self.calls: list[float] = []
        self._mod = sys.modules[module]
        self._attr = attr
        self._orig = getattr(self._mod, attr)
        calls = self.calls
        orig = self._orig

        @functools.wraps(orig)
        def metered(*args, **kwargs):
            before = cpu_seconds()
            try:
                return orig(*args, **kwargs)
            finally:
                calls.append(cpu_seconds() - before)

        self._metered = metered

    def install(self) -> None:
        setattr(self._mod, self._attr, self._metered)

    def uninstall(self) -> None:
        setattr(self._mod, self._attr, self._orig)


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
