"""Dimemas-equivalent MPI replay simulator.

Replays a :class:`repro.traces.ColumnarTrace` (or runs live rank
programs) on a configurable platform model: latency/bandwidth network
with optional bus contention, eager/rendezvous point-to-point protocols,
analytic collective cost models, and per-rank CPU frequency scaling
through the β time model.

* :class:`~repro.netsim.platform.PlatformConfig` — the machine;
* :class:`~repro.netsim.simulator.MpiSimulator` — the simulator;
* :class:`~repro.netsim.record.RunResult` — what a run produces.
"""

from repro.netsim.platform import PlatformConfig
from repro.netsim.record import Interval, RunResult
from repro.netsim.simulator import MpiSimulator
from repro.netsim.collectives import collective_time, invert_collective
from repro.netsim.config import load_platform, save_platform
from repro.netsim.decomposed import decompose
from repro.netsim.topology import (
    FatTree,
    FlatTopology,
    Mesh2D,
    Torus2D,
    with_topology,
)

__all__ = [
    "FatTree",
    "FlatTopology",
    "Interval",
    "Mesh2D",
    "MpiSimulator",
    "PlatformConfig",
    "RunResult",
    "Torus2D",
    "collective_time",
    "decompose",
    "invert_collective",
    "load_platform",
    "save_platform",
    "with_topology",
]
