"""Run results: what a simulation produces.

Besides the headline execution time, a :class:`RunResult` carries the
per-rank activity accounting the power model integrates (compute vs
in-MPI seconds) and, when the DES records intervals, the
state-interval timelines (for Fig. 1 style rendering and the Paraver
export) with the timestamped markers that annotate them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["Interval", "Marker", "RunResult"]

#: Interval kinds recorded by the simulator.
KIND_COMPUTE = "compute"
KIND_SEND = "send"
KIND_RECV = "recv"
KIND_WAIT = "wait"
KIND_COLLECTIVE = "collective"

INTERVAL_KINDS = (KIND_COMPUTE, KIND_SEND, KIND_RECV, KIND_WAIT, KIND_COLLECTIVE)


@dataclass(frozen=True)
class Interval:
    """A contiguous span of one rank's time in a single activity state."""

    start: float
    end: float
    kind: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Marker:
    """A timestamped marker record observed during the run."""

    time: float
    label: str
    iteration: int


@dataclass
class RunResult:
    """Outcome of one simulated execution.

    ``compute_times`` are the *actual* per-rank compute seconds of this
    run (already frequency-scaled when the run was); ``comm_times`` are
    the seconds each rank spent inside MPI operations (transfers and
    blocking waits).  Time after a rank's last event until the
    application end is neither — the energy model charges it as
    communication-state power, per the paper.
    """

    execution_time: float
    compute_times: np.ndarray
    comm_times: np.ndarray
    end_times: np.ndarray
    events: int
    intervals: list[list[Interval]] | None = None
    markers: list[list[Marker]] | None = None
    trace: Any | None = None  # a ColumnarTrace when recording was on
    meta: dict[str, Any] = field(default_factory=dict)
    #: which replay engine produced this result ("des" or "compiled").
    #: For the DES, ``events`` counts heap events processed; for the
    #: compiled kernel it counts the tape's instructions, which leave
    #: out markers and waits with nothing to join.  Never
    #: part of cache keys or report payloads — results are engine-
    #: independent by construction.
    engine: str = "des"

    @property
    def nproc(self) -> int:
        return len(self.compute_times)

    def idle_times(self) -> np.ndarray:
        """Per-rank seconds between the rank's last event and the app end."""
        return np.maximum(self.execution_time - self.end_times, 0.0)

    def in_mpi_fraction(self) -> float:
        """Fraction of aggregate CPU time spent inside MPI or idle."""
        total = self.execution_time * self.nproc
        if total <= 0.0:
            return 0.0
        return float(1.0 - self.compute_times.sum() / total)

    def summary(self) -> dict[str, float]:
        return {
            "execution_time": float(self.execution_time),
            "total_compute": float(self.compute_times.sum()),
            "total_comm": float(self.comm_times.sum()),
            "in_mpi_fraction": self.in_mpi_fraction(),
            "events": float(self.events),
        }
