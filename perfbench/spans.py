"""Span recorder and layer instrumentation for the traced run.

A span is ``(name, start, end, parent)``.  The traced run wraps public
functions of each ``repro`` layer from here, so nothing under ``src/``
is edited: class methods are wrapped on their class, module functions
at the binding their callers resolve at call time.  Spans stay in
memory and are written out when the run ends.

A layer's *self time* is its span duration minus its child spans, so
the per-layer seconds add up to the traced wall time without double
counting (the root span's self time is what no wrapper attributed).
"""

from __future__ import annotations

import functools
import os
from collections.abc import Callable
from time import perf_counter
from typing import Any

__all__ = ["LAYER_SPANS", "Tracer", "instrument"]

#: span name -> the public call it times (documentation and tests).
LAYER_SPANS = {
    "apps.generate": "AppSkeleton.columnar_trace",
    "netsim.des": "MpiSimulator.run",
    "netsim.compile": "compile_world / compile_columnar_world",
    "netsim.evaluate": "CompiledProgram.evaluate",
    "netsim.evaluate_many": "CompiledProgram.evaluate_many",
    "traces.compute_times": "traces.analysis.compute_times",
    "traces.from_streams": "ColumnarTrace.from_streams",
    "traces.store_save": "ColumnarTrace.save",
    "traces.store_open": "ColumnarTrace.open",
    "core.assign": "MaxAlgorithm/AvgAlgorithm/PowerCapAlgorithm.assign",
    "core.energy": "EnergyAccountant.run_energy / run_energy_many",
    "core.powercap_section": "core.powercap.attach_power_section",
    "core.plan": "BatchBalancePlanner.plan_trace",
    "core.to_json": "BalanceReport.to_json",
    "experiments.trace": "Runner.trace",
    "experiments.cache_get": "ResultCache.get",
    "experiments.cache_put": "ResultCache.put",
}


class Tracer:
    """Records nested spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent]
        self.counts: dict[str, float] = {}
        #: distinct compiled worlds, as (nproc, instructions)
        self.worlds: set[tuple[int, int]] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def add_span(self, name: str, start: float, end: float) -> None:
        """A finished span measured elsewhere (client-side timings)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent])

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    # -- patching -------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_result: Callable[[Tracer, tuple, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``owner`` is a class (the method is looked up in its own
        ``__dict__`` so classmethods stay classmethods) or a module.
        ``on_result(tracer, args, result)`` records counters after the
        span closes.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_result is not None:
                on_result(self, args, result)
            return result

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every wrapped binding (in reverse order)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- summaries ------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Sum of span durations minus child durations, by span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def span_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for span in self.spans:
            out[span[0]] = out.get(span[0], 0) + 1
        return out


def _count_compile(tracer: Tracer, args: tuple, program: Any) -> None:
    tracer.count("netsim.instructions", program.n_instructions)
    tracer.worlds.add((program.nproc, program.n_instructions))


def _count_rows(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("netsim.evaluate_many_rows", len(args[1]))


def _count_events(tracer: Tracer, args: tuple, trace: Any) -> None:
    tracer.count("apps.events", trace.n_events)


def _count_store(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("traces.store_bytes", os.path.getsize(args[1]))


def _count_put(tracer: Tracer, args: tuple, path: Any) -> None:
    tracer.count("experiments.cache_put_bytes", os.path.getsize(path))


def instrument(tracer: Tracer) -> None:
    """Install the span wrappers on every layer's public calls."""
    from repro.apps.base import AppSkeleton
    from repro.core import powercap
    from repro.core.algorithms import AvgAlgorithm, MaxAlgorithm
    from repro.core.balancer import BalanceReport
    from repro.core.batchbalance import BatchBalancePlanner
    from repro.core.energy import EnergyAccountant
    from repro.experiments.cache import ResultCache
    from repro.experiments.runner import Runner
    from repro.netsim import compiled
    from repro.netsim.simulator import MpiSimulator
    from repro.traces import analysis
    from repro.traces.columnar import ColumnarTrace

    wrap = tracer.wrap
    wrap(AppSkeleton, "columnar_trace", "apps.generate", _count_events)
    wrap(MpiSimulator, "run", "netsim.des")
    # CompiledReplayEngine.compile_trace resolves both compile entry
    # points as module globals at call time
    wrap(compiled, "compile_world", "netsim.compile", _count_compile)
    wrap(compiled, "compile_columnar_world", "netsim.compile", _count_compile)
    wrap(compiled.CompiledProgram, "evaluate", "netsim.evaluate")
    wrap(
        compiled.CompiledProgram, "evaluate_many", "netsim.evaluate_many",
        _count_rows,
    )
    # balancer and planner import compute_times inside the function body
    wrap(analysis, "compute_times", "traces.compute_times")
    wrap(ColumnarTrace, "from_streams", "traces.from_streams")
    wrap(ColumnarTrace, "save", "traces.store_save", _count_store)
    wrap(ColumnarTrace, "open", "traces.store_open")
    for cls in (MaxAlgorithm, AvgAlgorithm, powercap.PowerCapAlgorithm):
        wrap(cls, "assign", "core.assign")
    wrap(EnergyAccountant, "run_energy", "core.energy")
    wrap(EnergyAccountant, "run_energy_many", "core.energy")
    # Runner.balance_many and PowerCapBalancer import it at call time
    wrap(powercap, "attach_power_section", "core.powercap_section")
    wrap(BatchBalancePlanner, "plan_trace", "core.plan")
    wrap(BalanceReport, "to_json", "core.to_json")
    wrap(Runner, "trace", "experiments.trace")
    wrap(ResultCache, "get", "experiments.cache_get")
    wrap(ResultCache, "put", "experiments.cache_put", _count_put)
