"""Span recorder and per-layer wrappers for the traced run.

The wrappers are installed from the benchmark, at every ``casense`` module
attribute that refers to a traced function, so callers that imported the
function by name see the wrapper too. Nothing under ``src/`` changes.

A span records name, start, end, parent span and op id. Spans stay in memory
and are written when the run ends. A span's self time is its duration minus
its child spans' durations.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from dataclasses import dataclass, field

from casense.recovery import FORWARD

# (module, function, self-time suffix, what it should move); metrics are named
# <module>.<function>.<suffix> and <module>.<function>.calls
LAYERS = (
    ("grids", "generate_tx_grid", "s",
     "trials_per_s on sweep_ca3 (about a third of a trial with the two below); under 3% elsewhere"),
    ("channel", "simulate_channel_info", "s",
     "trials_per_s on sweep_ca3; under 3% elsewhere"),
    ("harness", "simulate_trial_matrices", "s",
     "trials_per_s on sweep_ca3; under 3% elsewhere"),
    ("fusion", "rearrange_low_band", "s",
     "op_s_p50 on estimate_ca1 and sweep_ca1_threshold (comb low band)"),
    ("estimators", "range_spectrum_comb_cs", "s",
     "op_s_p50 on estimate_ca1 and sweep_ca1_threshold"),
    ("estimators", "range_spectrum_block", "s",
     "op_s_p50 on every workload (block bands)"),
    ("estimators", "velocity_spectrum_block_cs", "s",
     "op_s_p50 on every workload (block bands)"),
    ("estimators", "velocity_spectrum_comb", "s",
     "op_s_p50 on estimate_ca1 and sweep_ca1_threshold (comb low band)"),
    ("estimators", "peak_estimate", "s",
     "op_s_p50 on every workload"),
    ("estimators", "estimate_any_scheme", "self_s",
     "op_s_p50 on every workload"),
    ("harness", "run_sweep", "self_s",
     "trials_per_s on sweep_ca1_threshold and sweep_ca3 (seeding, loop, target draw)"),
    ("crlb", "crlb_oracle", "s",
     "trials_per_s on the two sweeps; negligible today, recorded so a regression shows"),
    ("harness", "snapshot_spectra", "s",
     "op_s_p50 on estimate_ca1 only"),
    ("cli", "main", "self_s",
     "op_s_p50 on estimate_ca1 only (argument parsing and CSV writes)"),
)
RANGE_FISTA = "recovery.range_fista"
VELOCITY_FISTA = "recovery.velocity_fista"
SOLVERS = {
    RANGE_FISTA: "op_s_p50 and trials_per_s on estimate_ca1 and sweep_ca1_threshold; "
                 "calls = 0 on sweep_ca3",
    VELOCITY_FISTA: "trials_per_s on sweep_ca3; about 1.5% of estimate_ca1",
}
FFT_PASSES_PER_ITER = 4  # one forward and one inverse FFT, each reading and writing n x batch
COMPLEX_BYTES = 16


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    attrs: dict | None = None


@dataclass
class SpanRecorder:
    spans: list[Span] = field(default_factory=list)
    op: int = -1
    _stack: list[int] = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, attrs: dict | None = None) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.attrs = attrs
        self._stack.pop()

    def to_json(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "op", "attrs"],
            "spans": [[s.name, s.start, s.end, s.parent, s.op, s.attrs] for s in self.spans],
        }


def _wrap(fn, name: str, rec: SpanRecorder):
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_fista(fn, rec: SpanRecorder):
    signature = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        op, d = bound["op"], bound["d"]
        idx = rec.open(RANGE_FISTA if op.direction == FORWARD else VELOCITY_FISTA)
        attrs = None
        try:
            x, iterations = fn(*args, **kwargs)
            batch = d.shape[1] if d.ndim > 1 else 1
            attrs = {"iters": iterations, "max_iters": bound["max_iters"],
                     "n": op.n, "batch": batch}
            return x, iterations
        finally:
            rec.close(idx, attrs)

    wrapper.__wrapped__ = fn
    return wrapper


class Tracer:
    """Finds every casense module attribute holding a traced function once;
    ``install`` and ``uninstall`` then swap wrappers in and out."""

    def __init__(self, rec: SpanRecorder):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "casense" or n.startswith("casense."))]
        wrappers = [_wrap(getattr(importlib.import_module(f"casense.{mod}"), fn), f"{mod}.{fn}", rec)
                    for mod, fn, _, _ in LAYERS]
        wrappers.append(_wrap_fista(importlib.import_module("casense.recovery").fista_iterations, rec))
        self._patches = []
        for wrapper in wrappers:
            original = wrapper.__wrapped__
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)


def layer_metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name with its (unit, better)."""
    units = {}
    for stem in (RANGE_FISTA, VELOCITY_FISTA):
        units.update({
            f"{stem}.s": ("s/op", "lower"),
            f"{stem}.calls": ("count/op", "lower"),
            f"{stem}.iters_mean": ("count", "lower"),
            f"{stem}.s_per_iter": ("s/iter", "lower"),
            f"{stem}.converged_frac": ("frac", "higher"),
            f"{stem}.max_iters_hits": ("count/op", "lower"),
        })
    units[f"{RANGE_FISTA}.bytes_computed"] = ("B/op", "lower")
    for mod, fn, suffix, _ in LAYERS:
        units[f"{mod}.{fn}.{suffix}"] = ("s/op", "lower")
        units[f"{mod}.{fn}.calls"] = ("count/op", "lower")
    units["trace.coverage_frac"] = ("frac", "higher")
    units["trace.overhead_frac"] = ("frac", "lower")
    return units


def layer_map() -> dict[str, str]:
    """Which end-to-end metric each layer should move, on which workload."""
    return {**SOLVERS, **{f"{mod}.{fn}": moves for mod, fn, _, moves in LAYERS}}


@dataclass
class _Totals:
    """One layer's sums over the spans of one op."""

    self_s: float = 0.0
    calls: int = 0
    iters: int = 0
    max_iters_hits: int = 0
    bytes_computed: float = 0.0


def layer_metrics(rec: SpanRecorder, untraced_op_s: list[float]) -> dict[str, float]:
    """Per-layer numbers from the spans of the traced ops.

    Self times and bytes are per op: the median over traced ops of the op's
    sum. Calls and max-iteration hits are means per op; solver ratios pool
    every call of the run and read 0 where a layer was never called.
    """
    child_s = [0.0] * len(rec.spans)
    for s in rec.spans:
        if s.parent is not None:
            child_s[s.parent] += s.end - s.start
    roots: dict[int, int] = {}
    per_op: dict[int, dict[str, _Totals]] = {}
    for i, s in enumerate(rec.spans):
        if s.parent is None:
            roots[s.op] = i
            continue
        t = per_op.setdefault(s.op, {}).setdefault(s.name, _Totals())
        t.self_s += s.end - s.start - child_s[i]
        t.calls += 1
        if s.attrs:
            t.iters += s.attrs["iters"]
            t.max_iters_hits += s.attrs["iters"] >= s.attrs["max_iters"]
            t.bytes_computed += (s.attrs["iters"] * FFT_PASSES_PER_ITER * COMPLEX_BYTES
                                 * s.attrs["n"] * s.attrs["batch"])
    ops = sorted(roots)

    def values(name: str, field: str) -> list[float]:
        return [getattr(per_op.get(op, {}).get(name, _Totals()), field) for op in ops]

    out = {}
    for stem in (RANGE_FISTA, VELOCITY_FISTA):
        calls = sum(values(stem, "calls"))
        iters = sum(values(stem, "iters"))
        hits = sum(values(stem, "max_iters_hits"))
        out[f"{stem}.s"] = statistics.median(values(stem, "self_s"))
        out[f"{stem}.calls"] = calls / len(ops)
        out[f"{stem}.iters_mean"] = iters / calls if calls else 0.0
        out[f"{stem}.s_per_iter"] = sum(values(stem, "self_s")) / iters if iters else 0.0
        out[f"{stem}.converged_frac"] = (calls - hits) / calls if calls else 0.0
        out[f"{stem}.max_iters_hits"] = hits / len(ops)
    out[f"{RANGE_FISTA}.bytes_computed"] = statistics.median(values(RANGE_FISTA, "bytes_computed"))
    for mod, fn, suffix, _ in LAYERS:
        stem = f"{mod}.{fn}"
        out[f"{stem}.{suffix}"] = statistics.median(values(stem, "self_s"))
        out[f"{stem}.calls"] = sum(values(stem, "calls")) / len(ops)
    op_s = [rec.spans[i].end - rec.spans[i].start for i in roots.values()]
    covered = sum(child_s[i] for i in roots.values())
    out["trace.coverage_frac"] = covered / sum(op_s)
    out["trace.overhead_frac"] = statistics.median(op_s) / statistics.median(untraced_op_s) - 1.0
    return out
