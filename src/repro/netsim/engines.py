"""Replay-engine selection: ``engine="des" | "compiled" | "auto"``.

One world can be priced by two interchangeable engines:

* ``"des"`` — the full discrete-event :class:`MpiSimulator`; supports
  everything (bus contention, decomposed collectives, wildcards) and
  is the only recorder: traces, state intervals and marker stamps;
* ``"compiled"`` — the :mod:`repro.netsim.compiled` kernel; compiles
  the world once and prices frequency assignments without the event
  heap, bit-identically to the DES on the subset it accepts, raising
  :class:`~repro.netsim.compiled.UnsupportedWorldError` otherwise.
* ``"auto"`` — :class:`AutoReplayEngine`: tries the compiled kernel
  and transparently falls back to the DES when the capability check
  rejects the world (counted as ``auto_fallbacks`` in the engine
  stats).  Because the compiled kernel is exact, results under
  ``"auto"`` are byte-identical to ``"des"``.

Every engine prices through ``run_trace(trace, frequencies)`` and
``evaluate_assignments``.  :func:`make_engine` is the single
construction point used by the balancer, the experiment runner, the
dynamic runtimes and the service workers; callers that record build an
:class:`MpiSimulator` themselves.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any, Union

from repro.core.timemodel import BetaTimeModel
from repro.netsim.compiled import CompiledReplayEngine, UnsupportedWorldError
from repro.netsim.enginestats import add_engine_stats
from repro.netsim.platform import PlatformConfig
from repro.netsim.record import RunResult
from repro.netsim.simulator import MpiSimulator
from repro.traces.columnar import ColumnarTrace

__all__ = ["ENGINE_NAMES", "AutoReplayEngine", "make_engine"]

#: Valid values for every ``engine=`` / ``--engine`` selector.
ENGINE_NAMES = ("des", "compiled", "auto")

ReplayEngine = Union[MpiSimulator, CompiledReplayEngine, "AutoReplayEngine"]


class AutoReplayEngine:
    """Compiled kernel when possible, DES when necessary.

    Every world is offered to the compiled kernel first; a capability
    rejection or structural :class:`CompileError` falls back to the DES
    so unsupported features and authentic errors
    (``DeadlockError``/``SimulationError``) behave exactly as before.
    """

    name = "auto"

    def __init__(
        self,
        platform: PlatformConfig | None = None,
        time_model: BetaTimeModel | None = None,
    ):
        self.des = MpiSimulator(platform, time_model)
        self.compiled = CompiledReplayEngine(platform, time_model)
        self.platform = self.des.platform
        self.time_model = self.des.time_model

    def run_trace(
        self,
        trace: ColumnarTrace,
        frequencies: Sequence[float] | float | None = None,
    ) -> RunResult:
        try:
            return self.compiled.run_trace(trace, frequencies=frequencies)
        except UnsupportedWorldError:
            add_engine_stats(auto_fallbacks=1)
            return self.des.run_trace(trace, frequencies=frequencies)

    def evaluate_assignments(
        self,
        trace: ColumnarTrace,
        frequencies: Any,
        chunk_size: int | None = None,
    ) -> dict:
        """Batch-price a (K, nproc) matrix; per-candidate DES fallback.

        Supported worlds go through the compiled kernel's chunked
        ``evaluate_many``; a capability rejection falls back to one DES
        replay per candidate (counted as ``auto_fallbacks`` plus
        ``batch_fallback_candidates``), so every batch prices, whatever
        the world.
        """
        try:
            return self.compiled.evaluate_assignments(
                trace, frequencies, chunk_size=chunk_size
            )
        except UnsupportedWorldError:
            add_engine_stats(auto_fallbacks=1)
            return self.des.evaluate_assignments(
                trace, frequencies, chunk_size=chunk_size
            )


def make_engine(
    name: str,
    platform: PlatformConfig | None = None,
    time_model: BetaTimeModel | None = None,
) -> ReplayEngine:
    """Build a replay engine by name ("des", "compiled" or "auto")."""
    if name == "des":
        return MpiSimulator(platform, time_model)
    if name == "compiled":
        return CompiledReplayEngine(platform, time_model)
    if name == "auto":
        return AutoReplayEngine(platform, time_model)
    raise ValueError(
        f"unknown engine {name!r}; expected one of {ENGINE_NAMES}"
    )
