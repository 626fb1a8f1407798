"""Application-skeleton base class and calibration plumbing.

A skeleton is defined by:

* a *base shape* — which ranks are heavy (the family's structure);
* Table 3 targets — load balance and parallel efficiency — that the
  constructor calibrates the shape and the communication volume to;
* a *rank program* — the family's communication pattern, yielding
  trace records.

Calibration logic:

* per-rank work multipliers come from
  :func:`repro.apps.imbalance.calibrate`, so one iteration's compute
  times have exactly the target LB;
* the paper's two metrics tie execution time to compute time:
  ``PE = LB * maxComp / T_exec``, so the per-iteration communication
  budget is ``base_compute * (LB/PE - 1)`` seconds, which the skeleton
  spends on its characteristic collectives (sizes found by inverting
  the platform's collective cost model).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterator
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.apps.imbalance import calibrate, seed_for
from repro.apps.vmpi import ColumnEmitter, ProgramEmitter, RecordEmitter
from repro.netsim.collectives import invert_collective
from repro.netsim.platform import MYRINET_LIKE, PlatformConfig
from repro.traces.records import Record

if TYPE_CHECKING:
    from repro.traces.columnar import ColumnarTrace

__all__ = ["AppSkeleton"]


class AppSkeleton(ABC):
    """Base class for the paper's application skeletons.

    Parameters
    ----------
    nproc:
        World size (the suffix of the paper's "CG-32" naming).
    target_lb / target_pe:
        Table 3 calibration targets in (0, 1]; ``target_pe <= target_lb``
        by construction of the metrics.
    iterations:
        Iterations of the iterative region to emit (the paper cuts one
        representative region; more iterations only repeat it).
    base_compute:
        Per-iteration computation seconds of the *heaviest* rank.
    platform:
        Platform the communication volume is calibrated against.
    drift_step:
        Ranks the load pattern rotates by *per iteration* (default 0 =
        the paper's stationary behaviour).  A non-zero drift makes the
        heavy ranks move over time — per-iteration LB is unchanged but
        no single static frequency assignment fits every iteration,
        which is the regime where the dynamic Jitter runtime
        (:mod:`repro.core.dynamic`) beats static MAX.
    seed:
        Overrides the deterministic per-instance seed, producing a
        different random realisation of the same family/targets — the
        lever behind the seed-robustness study (``repro run seeds``).
    """

    family: str = "APP"

    def __init__(
        self,
        nproc: int,
        target_lb: float,
        target_pe: float,
        iterations: int = 8,
        base_compute: float = 0.02,
        platform: PlatformConfig | None = None,
        drift_step: int = 0,
        seed: int | None = None,
    ):
        if nproc <= 0:
            raise ValueError(f"nproc must be positive, got {nproc}")
        if not (0.0 < target_lb <= 1.0):
            raise ValueError(f"target LB must be in (0, 1], got {target_lb!r}")
        if not (0.0 < target_pe <= target_lb + 1e-12):
            raise ValueError(
                f"target PE must be in (0, LB]; got PE={target_pe!r}, "
                f"LB={target_lb!r} (PE > LB is impossible by definition)"
            )
        if iterations <= 0:
            raise ValueError(f"iterations must be positive, got {iterations}")
        if base_compute <= 0.0:
            raise ValueError(f"base_compute must be positive, got {base_compute!r}")
        if drift_step < 0:
            raise ValueError(f"drift_step must be >= 0, got {drift_step}")
        self.nproc = nproc
        self.target_lb = target_lb
        self.target_pe = target_pe
        self.iterations = iterations
        self.base_compute = base_compute
        self.platform = platform or MYRINET_LIKE
        self.drift_step = drift_step
        self.seed = seed_for(f"{self.family}-{nproc}") if seed is None else seed
        self.weights = self._build_weights()

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return f"{self.family}-{self.nproc}"

    def _build_weights(self) -> np.ndarray:
        """Per-rank work multipliers (max = 1, mean = target LB)."""
        return calibrate(self._base_shape(), self.target_lb)

    @abstractmethod
    def _base_shape(self) -> np.ndarray:
        """The family's uncalibrated heaviness structure."""

    # ------------------------------------------------------------------
    # rank programs: a family emits each rank's event stream once, into
    # whichever emitter the caller picks (records or columns)
    # ------------------------------------------------------------------
    @abstractmethod
    def emit_rank(self, rank: int, em: ProgramEmitter) -> None:
        """Emit the rank's event stream into ``em``."""

    def rank_program(self, rank: int) -> Iterator[Record]:
        """The rank's record stream (a generator over :meth:`emit_rank`)."""
        em = RecordEmitter(rank)
        self.emit_rank(rank, em)
        yield from em.records

    def programs(self) -> list[Iterator[Record]]:
        """One program per rank, ready for :meth:`MpiSimulator.run`."""
        return [self.rank_program(rank) for rank in range(self.nproc)]

    def columnar_trace(
        self,
        meta: dict[str, Any] | None = None,
        *,
        jobs: int = 1,
        out: "str | None" = None,
    ) -> "ColumnarTrace":
        """Generate the whole world straight into columnar storage.

        Equivalent to recording :meth:`programs` through the DES at
        nominal speed (the DES appends each record to the trace in
        program order before executing it), but without materialising a
        single record object — the route to 32k+-rank worlds.

        ``jobs > 1`` or ``out`` routes through shard-parallel
        generation: rank chunks fan out over a spawn-context process
        pool (the :class:`~repro.service.workers.SimulationPool`
        discipline), each worker emits its chunk through the usual
        :class:`ColumnEmitter` into a shard store file, and the parent
        stitches the shards (rewriting the CSR offsets, re-interning
        the string pool, rebasing waitall request-pool pointers).
        The stitched store is *byte-identical* to a sequential
        ``columnar_trace().save()`` whatever ``jobs`` is, so worker
        count can never change results.

        ``out`` names the stitched store file; the returned trace is
        then opened from it with ``mmap=True`` (out-of-core columns) —
        generation of a 100k-rank world never holds the full world in
        any single process.  Without ``out`` the shards are stitched in
        a temporary directory and loaded back in-memory.
        """
        full_meta: dict[str, Any] = {"name": self.name}
        if meta:
            full_meta.update(meta)
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        jobs = min(jobs, self.nproc)
        if jobs == 1 and out is None:
            from repro.traces.columnar import ColumnarTraceBuilder

            builder = ColumnarTraceBuilder(self.nproc)
            for rank in range(self.nproc):
                self.emit_rank(rank, ColumnEmitter(rank, builder))
            return builder.build(meta=full_meta)
        return _sharded_columnar_trace(self, full_meta, jobs, out)

    def weight_at(self, rank: int, iteration: int,
                  weights: np.ndarray | None = None) -> float:
        """Work multiplier of a rank in a given iteration.

        Stationary (``drift_step == 0``) this is just ``weights[rank]``;
        with drift the pattern rotates by ``drift_step`` ranks per
        iteration.
        """
        w = self.weights if weights is None else weights
        index = (rank - self.drift_step * iteration) % self.nproc
        return float(w[index])

    # ------------------------------------------------------------------
    # communication-budget helpers
    # ------------------------------------------------------------------
    def comm_budget(self) -> float:
        """Per-iteration communication seconds implied by LB/PE targets."""
        return self.base_compute * (self.target_lb / self.target_pe - 1.0)

    def sized_collective(self, op: str, fraction: float = 1.0) -> int:
        """Bytes making ``op`` consume ``fraction`` of the comm budget."""
        if not (0.0 <= fraction <= 1.0):
            raise ValueError(f"fraction must be in [0, 1], got {fraction!r}")
        return invert_collective(
            op, self.comm_budget() * fraction, self.nproc, self.platform
        )

    # ------------------------------------------------------------------
    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "family": self.family,
            "nproc": self.nproc,
            "target_lb": self.target_lb,
            "target_pe": self.target_pe,
            "iterations": self.iterations,
            "base_compute": self.base_compute,
            "comm_budget": self.comm_budget(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<{type(self).__name__} {self.name} LB={self.target_lb:.2%} "
            f"PE={self.target_pe:.2%} iters={self.iterations}>"
        )


# ----------------------------------------------------------------------
# shard-parallel generation


def _emit_shard(app: AppSkeleton, lo: int, hi: int, path: str) -> str:
    """Worker: emit ranks ``[lo, hi)`` into a shard store at ``path``.

    Module top-level so the spawn context can pickle it; the app object
    itself travels to the worker (numpy weights + platform config, all
    picklable).  The shard keeps the full world's ``nproc`` — its CSR
    offsets are full-length with zero counts outside the chunk — which
    is what lets :func:`repro.traces.colstore.stitch_stores` sum the
    per-rank counts without remapping ranks.
    """
    from repro.traces.columnar import ColumnarTraceBuilder

    builder = ColumnarTraceBuilder(app.nproc)
    for rank in range(lo, hi):
        app.emit_rank(rank, ColumnEmitter(rank, builder))
    builder.build(meta={"name": app.name}).save(path)
    return path


def _chunk_bounds(nproc: int, jobs: int) -> list[int]:
    """Split ranks into ``jobs`` contiguous chunks, sizes within ±1."""
    base, rem = divmod(nproc, jobs)
    bounds = [0]
    for i in range(jobs):
        bounds.append(bounds[-1] + base + (1 if i < rem else 0))
    return bounds


def _sharded_columnar_trace(
    app: AppSkeleton,
    meta: dict[str, Any],
    jobs: int,
    out: "str | None",
) -> "ColumnarTrace":
    """Fan rank chunks over a spawn pool and stitch the shard stores."""
    import multiprocessing
    import os
    import tempfile
    from concurrent.futures import ProcessPoolExecutor

    from repro.traces import colstore
    from repro.traces.columnar import ColumnarTrace

    if jobs == 1:
        # single worker: sequential build, saved straight to the store
        # (byte-identical to a 1-shard stitch, minus the copy)
        assert out is not None
        trace = app.columnar_trace(meta=meta)
        trace.save(out)
        return ColumnarTrace.open(out, mmap=True)

    parent_dir = os.path.dirname(os.path.abspath(out)) if out else None
    with tempfile.TemporaryDirectory(
        prefix="repro-shards-", dir=parent_dir
    ) as tmp:
        bounds = _chunk_bounds(app.nproc, jobs)
        paths = [
            os.path.join(tmp, f"shard-{i:04d}{colstore.STORE_EXTENSION}")
            for i in range(jobs)
        ]
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx) as pool:
            futures = [
                pool.submit(_emit_shard, app, bounds[i], bounds[i + 1], p)
                for i, p in enumerate(paths)
            ]
            for future in futures:
                future.result()
        target = out or os.path.join(
            tmp, f"world{colstore.STORE_EXTENSION}"
        )
        colstore.stitch_stores(paths, target, meta=meta)
        if out is not None:
            return ColumnarTrace.open(out, mmap=True)
        return ColumnarTrace.open(target)
