"""Trace records, containers, formats and analysis.

This package is the reproduction of the paper's Paraver/Dimemas trace
tooling.  A *trace* is, per MPI rank, a logical stream of records —
compute bursts (durations measured at the nominal top frequency) and MPI
operations.  Traces carry **no timestamps**: timing is produced by
replaying a trace through :class:`repro.netsim.MpiSimulator`, exactly as
Dimemas replays its tracefiles.

* :mod:`repro.traces.records` — the event record types;
* :mod:`repro.traces.columnar` — :class:`ColumnarTrace`, the in-memory
  trace (pooled numpy columns, one CSR slice per rank);
* :mod:`repro.traces.colstore` — the binary ``.rpcs`` column store;
* :mod:`repro.traces.jsonio` — JSON-lines persistence;
* :mod:`repro.traces.prv` — Paraver-like timestamped export;
* :mod:`repro.traces.analysis` — load balance, parallel efficiency, …;
* :mod:`repro.traces.transform` — frequency rescaling, region cutting;
* :mod:`repro.traces.timeline` — ASCII/SVG timeline rendering (Fig. 1).
"""

from repro.traces.records import (
    ANY_SOURCE,
    ANY_TAG,
    COLLECTIVE_OPS,
    CollectiveRecord,
    ComputeBurst,
    IrecvRecord,
    IsendRecord,
    MarkerRecord,
    RecvRecord,
    Record,
    SendRecord,
    WaitallRecord,
    WaitRecord,
)
from repro.traces.columnar import (
    ColumnarRankView,
    ColumnarTrace,
    ColumnarTraceBuilder,
)
from repro.traces.analysis import (
    TraceStats,
    compute_times,
    load_balance,
    parallel_efficiency,
    trace_stats,
)
from repro.traces.transform import concat_traces, cut_iterations, scale_compute
from repro.traces.jsonio import read_trace, write_trace
from repro.traces.iterstats import (
    IterationStats,
    is_regular,
    iteration_stats,
    per_iteration_compute_times,
)

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "COLLECTIVE_OPS",
    "CollectiveRecord",
    "ColumnarRankView",
    "ColumnarTrace",
    "ColumnarTraceBuilder",
    "ComputeBurst",
    "IrecvRecord",
    "IsendRecord",
    "IterationStats",
    "MarkerRecord",
    "Record",
    "RecvRecord",
    "SendRecord",
    "TraceStats",
    "WaitRecord",
    "WaitallRecord",
    "compute_times",
    "concat_traces",
    "cut_iterations",
    "is_regular",
    "iteration_stats",
    "load_balance",
    "parallel_efficiency",
    "per_iteration_compute_times",
    "read_trace",
    "scale_compute",
    "trace_stats",
    "write_trace",
]
