"""Vectorised trace accessors for the trace rule pack.

The TR rules (:mod:`repro.diagnostics.rules_traces`) read a trace
through this small accessor interface: :class:`ColumnarTraceView`
evaluates each query as numpy expressions over the pooled columns of a
:class:`~repro.traces.columnar.ColumnarTrace`, so no record object is
ever materialised and linting scales to any rank count.

Every accessor returns plain Python values (ints, tuples, dicts) whose
content and order match a per-record walk of the ranks' streams in
program order — the oracle ``tests/test_lint_columnar.py`` checks them
against, query by query.
"""

from __future__ import annotations

from typing import Any

from repro.traces.records import ANY_SOURCE, COLLECTIVE_OPS

__all__ = ["ColumnarTraceView"]


class ColumnarTraceView:
    """The trace rules' queries as vectorised expressions over columns."""

    def __init__(self, trace: Any):
        self.trace = trace
        self.nproc = trace.nproc

    # -- column helpers -------------------------------------------------
    def _event_ranks(self, gidx):
        """Rank owning each global event index (CSR search)."""
        import numpy as np

        return (
            np.searchsorted(self.trace.offsets, gidx, side="right") - 1
        )

    def has_iteration_markers(self) -> bool:
        """Any marker with ``iteration >= 0`` on rank 0."""
        import numpy as np

        from repro.traces.columnar import K_MARKER

        t = self.trace
        lo, hi = int(t.offsets[0]), int(t.offsets[1])
        k = t.kind[lo:hi]
        return bool(np.any((k == K_MARKER) & (t.aux[lo:hi] >= 0)))

    def silent_ranks(self) -> list[int]:
        """Ranks whose total compute time is exactly zero."""
        import numpy as np

        from repro.traces.columnar import K_COMPUTE

        t = self.trace
        # sum of non-negative finite durations is 0.0 iff none is positive
        mask = (t.kind == K_COMPUTE) & (t.duration > 0.0)
        busy = np.bincount(
            self._event_ranks(np.flatnonzero(mask)), minlength=self.nproc
        )
        return np.flatnonzero(busy == 0).tolist()

    def pair_counts(
        self,
    ) -> tuple[
        dict[tuple[int, int], int], dict[tuple[int, int], int], set[int]
    ]:
        """(send counts, recv counts, wildcard-recv ranks) by (src, dst)."""
        import numpy as np

        from repro.traces.columnar import K_IRECV, K_ISEND, K_RECV, K_SEND

        t = self.trace
        k = t.kind

        def counted(gidx, src_is_peer: bool):
            ranks = self._event_ranks(gidx).astype(np.int64)
            peers = t.peer[gidx].astype(np.int64)
            if src_is_peer:
                keys = (peers << 32) | ranks
            else:
                keys = (ranks << 32) | peers
            uniq, counts = np.unique(keys, return_counts=True)
            return {
                (int(key >> 32), int(key & 0xFFFFFFFF)): int(n)
                for key, n in zip(uniq.tolist(), counts.tolist())
            }

        send_idx = np.flatnonzero((k == K_SEND) | (k == K_ISEND))
        recv_mask = (k == K_RECV) | (k == K_IRECV)
        wild_mask = recv_mask & (t.peer == ANY_SOURCE)
        recv_idx = np.flatnonzero(recv_mask & ~wild_mask)
        wildcard_recv_ranks = set(
            np.unique(self._event_ranks(np.flatnonzero(wild_mask))).tolist()
        )
        sends = counted(send_idx, src_is_peer=False)
        recvs = counted(recv_idx, src_is_peer=True)
        return sends, recvs, wildcard_recv_ranks

    def wildcard_recv_counts(self) -> list[tuple[int, int]]:
        """(rank, count) of any-source receives, count > 0, rank order."""
        import numpy as np

        from repro.traces.columnar import K_IRECV, K_RECV

        t = self.trace
        k = t.kind
        mask = ((k == K_RECV) | (k == K_IRECV)) & (t.peer == ANY_SOURCE)
        counts = np.bincount(
            self._event_ranks(np.flatnonzero(mask)), minlength=self.nproc
        )
        return [
            (int(r), int(counts[r])) for r in np.flatnonzero(counts).tolist()
        ]

    def eager_cliff_counts(self, threshold: int) -> list[tuple[int, int]]:
        """(rank, count) of sends in ``(threshold, int(threshold*1.1)]``."""
        import numpy as np

        from repro.traces.columnar import K_ISEND, K_SEND

        t = self.trace
        k = t.kind
        mask = (
            ((k == K_SEND) | (k == K_ISEND))
            & (t.size > threshold)
            & (t.size <= int(threshold * 1.1))
        )
        counts = np.bincount(
            self._event_ranks(np.flatnonzero(mask)), minlength=self.nproc
        )
        return [
            (int(r), int(counts[r])) for r in np.flatnonzero(counts).tolist()
        ]

    def collective_alignment(
        self,
    ) -> tuple[list[str], list[list[int]]]:
        """Rank 0's collective op names and, per collective index of rank
        0, the contribution sizes of every rank reaching that index (rank
        order)."""
        import numpy as np

        from repro.traces.columnar import K_COLLECTIVE

        t = self.trace
        gidx = np.flatnonzero(t.kind == K_COLLECTIVE)
        if gidx.size == 0:
            return [], []
        ranks = self._event_ranks(gidx)
        counts = np.bincount(ranks, minlength=self.nproc)
        c0 = int(counts[0])
        if c0 == 0:
            return [], []
        # events are rank-major, so rank 0's collectives lead the list
        ops0 = [
            COLLECTIVE_OPS[code] for code in t.collop[gidx[:c0]].tolist()
        ]
        # within-rank collective ordinal of every collective event
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        ordinal = np.arange(gidx.size) - starts[ranks]
        # stable sort groups by ordinal, preserving rank order within
        order = np.argsort(ordinal, kind="stable")
        sizes_sorted = t.size[gidx[order]]
        per_ordinal = np.bincount(ordinal)
        bounds = np.concatenate(([0], np.cumsum(per_ordinal)))
        sizes = [
            sizes_sorted[bounds[idx]:bounds[idx + 1]].tolist()
            for idx in range(c0)
        ]
        return ops0, sizes

    def tiny_burst_counts(
        self, latency: float
    ) -> list[tuple[int, int, int]]:
        """(rank, bursts shorter than latency, stream length), all ranks."""
        import numpy as np

        from repro.traces.columnar import K_COMPUTE

        t = self.trace
        mask = (
            (t.kind == K_COMPUTE)
            & (t.duration > 0.0)
            & (t.duration < latency)
        )
        tiny = np.bincount(
            self._event_ranks(np.flatnonzero(mask)), minlength=self.nproc
        )
        totals = np.diff(t.offsets)
        return [
            (r, int(tiny[r]), int(totals[r])) for r in range(self.nproc)
        ]
