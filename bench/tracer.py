"""Span tracing of kgflow's public layer functions, from outside the package.

``Tracer.installed()`` swaps each function in ``LAYERS`` for a timing wrapper
in every loaded ``kgflow`` module namespace that binds it (``procure`` is
bound in ``costmodel``, ``scheduler`` and ``sim``), and restores the
originals on exit. Each wrapped call appends one span to an in-memory list;
``summarize`` turns the spans into per-layer counts and self times.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

# module -> public functions traced in it; metric names are "<module>.<function>".
LAYERS: dict[str, tuple[str, ...]] = {
    "gfl": ("parse",),
    "flowline": ("validate", "apply_partition", "makespan"),
    "costmodel": ("fit_price_makespan", "procure"),
    "scheduler": ("schedule", "compound", "synthesize_observations",
                  "greedy_partition", "predict_costs", "check_qualification",
                  "evaluate_plan"),
    "sim": ("simulate", "baseline_random", "baseline_list", "sweep_eta"),
}

LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

WRAPPER_MARK = "_bench_layer"


@dataclass(slots=True)
class Span:
    layer: str
    start: float
    end: float
    parent: int   # index into Tracer.spans, -1 for a span under no other
    call: int     # index of the benchmark call that caused it
    error: str | None = None
    info: Any = None


def _procure_gap(args, kwargs, result):
    x0 = args[1] if len(args) > 1 else kwargs["x0"]
    return (x0, result.total_price)


def _observation_counts(args, kwargs, result):
    return (sum(1 for o in result if not o.feasible), len(result))


def _event_count(args, kwargs, result):
    return len(result.timeline)


# Layers whose result is summarized into the span for a ratio metric.
_OBSERVERS: dict[str, Callable[[tuple, dict, Any], Any]] = {
    "costmodel.procure": _procure_gap,
    "scheduler.synthesize_observations": _observation_counts,
    "sim.simulate": _event_count,
}


def kgflow_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "kgflow" or name.startswith("kgflow.")]


def layer_bindings() -> list[tuple[str, Any, str, Callable]]:
    """Every (layer, module, attribute, function) binding a layer function."""
    modules = kgflow_modules()
    out = []
    for layer in LAYER_NAMES:
        home, name = layer.split(".")
        original = getattr(importlib.import_module(f"kgflow.{home}"), name)
        for mod in modules:
            for attr, value in vars(mod).items():
                if value is original:
                    out.append((layer, mod, attr, original))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.call = 0
        self._stack: list[int] = []

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        observe = _OBSERVERS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = Span(layer, 0.0, 0.0, stack[-1] if stack else -1,
                        self.call)
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if observe is not None:
                span.info = observe(args, kwargs, result)
            return result

        setattr(wrapper, WRAPPER_MARK, layer)
        return wrapper

    @contextmanager
    def installed(self):
        bindings = layer_bindings()
        wrappers = {layer: self._wrap(layer, original)
                    for layer, _, _, original in bindings}
        try:
            for layer, mod, attr, _ in bindings:
                setattr(mod, attr, wrappers[layer])
            yield self
        finally:
            for _, mod, attr, original in bindings:
                setattr(mod, attr, original)

    def summarize(self, wall_s: float, calls: int) -> dict[str, float]:
        """Per-layer metrics, counts and times per benchmark call."""
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_s[span.parent] += span.end - span.start
        n = {layer: 0 for layer in LAYER_NAMES}
        self_s = {layer: 0.0 for layer in LAYER_NAMES}
        for span, inner in zip(self.spans, child_s):
            n[span.layer] += 1
            self_s[span.layer] += span.end - span.start - inner
        out: dict[str, float] = {}
        for layer in LAYER_NAMES:
            out[f"{layer}.calls"] = n[layer] / calls
            out[f"{layer}.self_ms"] = self_s[layer] * 1e3 / calls
            out[f"{layer}.share"] = self_s[layer] / wall_s

        def spans_of(layer):
            return [s for s in self.spans if s.layer == layer]

        obs = [s.info for s in spans_of("scheduler.synthesize_observations")
               if s.info is not None]
        total_obs = sum(t for _, t in obs)
        out["scheduler.synthesize_observations.infeasible_share"] = (
            sum(i for i, _ in obs) / total_obs if total_obs else 0.0)
        partitions = spans_of("scheduler.greedy_partition")
        out["scheduler.greedy_partition.fail_share"] = (
            sum(1 for s in partitions if s.error == "SchedulingError")
            / len(partitions) if partitions else 0.0)
        # x0 = 0 is the list baseline asking for the cheapest plan; no gap.
        gaps = [abs(bought - x0) / x0 for x0, bought in
                (s.info for s in spans_of("costmodel.procure")
                 if s.info is not None) if x0 > 0]
        out["costmodel.procure.price_gap"] = (
            sum(gaps) / len(gaps) if gaps else 0.0)
        sims = [s for s in spans_of("sim.simulate") if s.info is not None]
        events = sum(s.info for s in sims)
        out["sim.simulate.events"] = events / calls
        out["sim.simulate.us_per_event"] = (
            sum(s.end - s.start for s in sims) * 1e6 / events
            if events else 0.0)
        return out
