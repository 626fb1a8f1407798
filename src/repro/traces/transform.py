"""Trace transformations.

The paper's methodology (§4) rewrites the Dimemas tracefile: compute
burst durations are rescaled for each rank's assigned frequency, then
the modified trace is replayed.  :func:`scale_compute` is that rewrite.
:func:`cut_iterations` extracts an iterative region (the Paraver step of
"discarding initialization"), and :func:`concat_traces` splices regions.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.core.timemodel import BetaTimeModel
from repro.traces.columnar import K_COMPUTE, ColumnarTrace
from repro.traces.records import MarkerRecord

__all__ = ["concat_traces", "cut_iterations", "scale_compute"]


def scale_compute(
    trace: ColumnarTrace,
    frequencies: Sequence[float] | float,
    model: BetaTimeModel,
) -> ColumnarTrace:
    """Rewrite compute-burst durations for per-rank frequencies.

    Every positive compute burst of rank *k* gets duration
    ``T * (beta * (fmax/f_k - 1) + 1)`` (per-burst β overrides honoured)
    and loses its β override; all other events pass through untouched.
    The rewrite is column-wise — no record objects — and each duration
    is the same IEEE product ``T * model.ratio(f_k, beta)`` a per-burst
    loop would compute.  The result's metadata records the frequencies
    for provenance.

    Note: the rescaled durations are *actual* times at the new frequency,
    so the resulting trace must be replayed at nominal speed (pass no
    ``frequencies`` to the simulator) to avoid double scaling.
    """
    if np.isscalar(frequencies):
        freqs = np.full(trace.nproc, float(frequencies))
    else:
        freqs = np.asarray(frequencies, dtype=float)
    if freqs.shape != (trace.nproc,):
        raise ValueError(
            f"frequencies shape {freqs.shape} does not match nproc={trace.nproc}"
        )
    if (freqs <= 0.0).any():
        raise ValueError("frequencies must be positive")

    meta = dict(trace.meta)
    meta["scaled_frequencies"] = [float(f) for f in freqs]
    meta["time_model"] = {"fmax": model.fmax, "beta": model.beta}
    duration = trace.duration.copy()
    beta = trace.beta.copy()
    offsets = trace.offsets
    kind = trace.kind
    default_beta = model.beta
    for rank in range(trace.nproc):
        lo, hi = int(offsets[rank]), int(offsets[rank + 1])
        seg_dur = duration[lo:hi]
        sel = (kind[lo:hi] == K_COMPUTE) & (seg_dur > 0.0)
        if not sel.any():
            continue
        # same IEEE operations in the same order as model.ratio(f, beta)
        x = model.fmax / float(freqs[rank]) - 1.0
        seg_beta = beta[lo:hi]
        b_eff = np.where(np.isnan(seg_beta), default_beta, seg_beta)
        seg_dur[sel] = seg_dur[sel] * (b_eff[sel] * x + 1.0)
        # the rewritten burst is an *actual* duration: β no longer
        # applies to it, so drop the override
        seg_beta[sel] = math.nan
    return ColumnarTrace(
        nproc=trace.nproc,
        meta=meta,
        offsets=offsets,
        kind=kind,
        duration=duration,
        beta=beta,
        peer=trace.peer,
        tag=trace.tag,
        size=trace.size,
        req=trace.req,
        aux=trace.aux,
        label=trace.label,
        collop=trace.collop,
        reqpool=trace.reqpool,
        strings=trace.strings,
    )


def cut_iterations(trace: ColumnarTrace, first: int, last: int) -> ColumnarTrace:
    """Extract iterations ``first..last`` (inclusive) of the trace.

    Iterations are delimited by :class:`MarkerRecord` entries with
    ``iteration >= 0``: a rank's records belong to iteration *i* from the
    first marker carrying ``iteration == i`` up to (excluding) the next
    marker with a different iteration.  Records before any iteration
    marker (initialization) are dropped — exactly the Paraver trace-
    cutting step the paper describes.
    """
    if first < 0 or last < first:
        raise ValueError(f"bad iteration range [{first}, {last}]")
    meta = dict(trace.meta)
    meta["cut"] = {"first": first, "last": last}
    streams = []
    for stream in trace:
        current = -1  # -1 = initialization, not part of any iteration
        kept = []
        for rec in stream:
            if isinstance(rec, MarkerRecord) and rec.iteration >= 0:
                current = rec.iteration
            if first <= current <= last and current >= 0:
                kept.append(rec)
        streams.append(kept)
    if not any(streams):
        raise ValueError(
            f"no records in iterations [{first}, {last}]; does the trace "
            "carry iteration markers?"
        )
    return ColumnarTrace.from_streams(streams, meta=meta)


def concat_traces(traces: Sequence[ColumnarTrace]) -> ColumnarTrace:
    """Concatenate same-world traces back-to-back (e.g. repeat a region)."""
    if not traces:
        raise ValueError("need at least one trace")
    nproc = traces[0].nproc
    for t in traces[1:]:
        if t.nproc != nproc:
            raise ValueError(
                f"cannot concat traces with different worlds: {t.nproc} vs {nproc}"
            )
    return ColumnarTrace.from_streams(
        ([rec for t in traces for rec in t[rank]] for rank in range(nproc)),
        meta=traces[0].meta,
    )
