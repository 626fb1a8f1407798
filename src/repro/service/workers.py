"""The worker pool and the simulation jobs it executes.

Job functions are top-level and take/return plain picklable data, so
they run unchanged in a ``ProcessPoolExecutor`` worker, in a thread
(tests inject a ``ThreadPoolExecutor``), or inline (the CLI calls
:func:`execute_balance` directly — which is what guarantees that a
service response is byte-identical to ``repro balance --json``).

Each job builds a :class:`repro.experiments.runner.Runner` pointed at
the service's shared on-disk :class:`~repro.experiments.cache.ResultCache`,
so worker processes populate the same content-addressed store the
front-end probes for its fast path, and a campaign-warmed cache serves
the service (and vice versa) with zero extra plumbing.

The returned envelope carries the JSON-able result plus the worker-side
cache counters, which the parent folds into ``/metrics``.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Executor, ProcessPoolExecutor
from typing import Any

__all__ = [
    "SimulationPool",
    "execute_balance",
    "execute_balance_many",
    "resolve_algorithm",
    "resolve_candidates",
    "resolve_gear_set",
    "run_balance_batch_job",
    "run_balance_job",
    "run_experiment_job",
]


def _warm_noop() -> None:
    """Top-level no-op shipped through the pool to force worker spawn."""
    return None


def resolve_gear_set(spec: Any):
    """A gear set from a request value: a spec string or [[f, V], ...].

    Raises ``ValueError`` on anything unbuildable; the diagnostics
    engine separately audits what *was* built.
    """
    import argparse

    from repro.cli import build_gear_set
    from repro.core.gears import DiscreteGearSet, Gear

    if isinstance(spec, str):
        try:
            return build_gear_set(spec)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(str(exc)) from None
    if isinstance(spec, (list, tuple)):
        try:
            gears = [Gear(float(f), float(v)) for f, v in spec]
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"bad gear list {spec!r}: expected [[frequency_ghz, "
                f"voltage_v], ...] ({exc})"
            ) from None
        return DiscreteGearSet(gears, name=f"custom[{len(gears)}]")
    raise ValueError(
        f"bad gears value {spec!r}: expected a spec string like "
        "'uniform:6' or a [[frequency, voltage], ...] list"
    )


def resolve_algorithm(name: str):
    from repro.core.algorithms import AvgAlgorithm, MaxAlgorithm

    try:
        return {"max": MaxAlgorithm, "avg": AvgAlgorithm}[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; expected 'max' or 'avg'"
        ) from None


def resolve_candidates(spec: dict[str, Any]) -> list[Any]:
    """The priced cells of a validated balance spec, in order.

    A batch spec's ``candidates``, else the scalar request as one cell.
    A ``power_cap`` overrides every requested algorithm: each cell
    prices through :class:`~repro.core.powercap.PowerCapAlgorithm`
    (the requested name is still validated, then ignored).  The job
    entry points price these cells and
    :func:`repro.service.identity.cache_identity` addresses them.
    """
    from repro.core.batchbalance import SweepCandidate
    from repro.core.powercap import PowerCapAlgorithm

    cap = spec.get("power_cap")
    cells = []
    for c in spec.get("candidates", [spec]):
        algorithm = resolve_algorithm(c["algorithm"])
        if cap is not None:
            algorithm = PowerCapAlgorithm(cap)
        cells.append(SweepCandidate(resolve_gear_set(c["gears"]), algorithm))
    return cells


def _resolve_platform(platform_dict: dict[str, Any] | None):
    from repro.netsim.config import platform_from_dict
    from repro.netsim.platform import MYRINET_LIKE

    if platform_dict is None:
        return MYRINET_LIKE
    return platform_from_dict(platform_dict)


def _runner_config(spec: dict[str, Any]):
    from repro.experiments.runner import RunnerConfig

    return RunnerConfig(
        iterations=spec["iterations"],
        base_compute=spec["base_compute"],
        beta=spec["beta"],
        apps=tuple(spec["apps"]) if spec.get("apps") else None,
        platform=_resolve_platform(spec.get("platform")),
        cache_dir=spec.get("cache_dir"),
        engine=spec.get("engine", "auto"),
        storage=spec.get("storage", "memory"),
    )


def execute_balance(spec: dict[str, Any]):
    """Run one balance request; returns ``(report, runner)``.

    ``spec`` keys: ``app``, ``gears``, ``algorithm``, ``beta``,
    ``iterations``, ``base_compute``, and optionally ``platform`` (a
    platform dict), ``cache_dir`` and ``power_cap`` (model watts; see
    :func:`resolve_candidates`).  A capped report carries the power
    section under a cap-aware cache identity.
    """
    from repro.experiments.runner import Runner

    runner = Runner(_runner_config(spec))
    (cell,) = resolve_candidates(spec)
    return runner.balance(
        spec["app"], cell.gear_set, cell.algorithm, beta=spec["beta"]
    ), runner


def run_balance_job(spec: dict[str, Any]) -> dict[str, Any]:
    """Pool entry point: balance → ``{"result", "cache", "engines"}``."""
    from repro.netsim.enginestats import process_engine_stats

    before = process_engine_stats()
    report, runner = execute_balance(spec)
    after = process_engine_stats()
    cache = runner.cache.stats() if runner.cache is not None else {}
    return {
        "result": report.to_json(),
        "cache": cache,
        "engines": {k: after[k] - before[k] for k in after},
    }


def execute_balance_many(spec: dict[str, Any]):
    """Run one batch balance request; returns (reports, runner).

    ``spec`` is a scalar balance spec plus ``candidates``: a list of
    ``{"gears", "algorithm"}`` objects (already validated).  Pricing
    goes through :meth:`repro.experiments.runner.Runner.balance_many`,
    so every candidate report lands in the same ``"report"`` cache
    blobs scalar requests probe — a batch warms the cache for later
    scalar traffic and vice versa.
    """
    from repro.experiments.runner import Runner

    runner = Runner(_runner_config(spec))
    return runner.balance_many(
        spec["app"], resolve_candidates(spec), beta=spec["beta"]
    ), runner


def run_balance_batch_job(spec: dict[str, Any]) -> dict[str, Any]:
    """Pool entry point: batch balance → ``{"result", "cache", "engines"}``.

    Each element of ``result["results"]`` is byte-identical to the body
    a scalar ``/v1/balance`` request for that candidate would return.
    """
    from repro.netsim.enginestats import process_engine_stats

    before = process_engine_stats()
    reports, runner = execute_balance_many(spec)
    after = process_engine_stats()
    cache = runner.cache.stats() if runner.cache is not None else {}
    return {
        "result": {
            "count": len(reports),
            "results": [r.to_json() for r in reports],
        },
        "cache": cache,
        "engines": {k: after[k] - before[k] for k in after},
    }


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars (and tuples) so ``json.dumps`` never chokes."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return str(value)


def run_experiment_job(spec: dict[str, Any]) -> dict[str, Any]:
    """Pool entry point: run a registered experiment, JSON-ably.

    ``spec`` keys: ``eid`` plus the :func:`_runner_config` keys.  The
    heavy ``series`` payloads (SVG strings, raw arrays) stay server-side;
    clients get the tabular result, which is what the campaign writes
    to disk too.
    """
    from repro.experiments.cache import process_cache_stats
    from repro.experiments.runner import get_experiment
    from repro.netsim.enginestats import process_engine_stats

    before = process_cache_stats()
    engines_before = process_engine_stats()
    result = get_experiment(spec["eid"])(_runner_config(spec))
    after = process_cache_stats()
    engines_after = process_engine_stats()
    return {
        "result": {
            "eid": result.eid,
            "title": result.title,
            "columns": list(result.columns),
            "rows": _jsonable(result.rows),
            "notes": list(result.notes),
        },
        "cache": {k: after[k] - before[k] for k in after},
        "engines": {
            k: engines_after[k] - engines_before[k] for k in engines_after
        },
    }


class SimulationPool:
    """Async façade over a (process) executor, with utilization stats.

    The executor is created lazily on first use so ``ServiceApp`` can
    be constructed (and its routes unit-tested) without forking, and
    tests may inject any :class:`concurrent.futures.Executor` — the
    deterministic backpressure/coalescing tests use a gated thread
    pool instead of real subprocesses.
    """

    def __init__(self, workers: int, executor: Executor | None = None):
        self.workers = max(1, workers)
        self._executor = executor
        self._owned = executor is None
        self.busy = 0
        self.jobs_total = 0

    def _ensure(self) -> Executor:
        if self._executor is None:
            import multiprocessing

            # spawn, not fork: forked workers would inherit the
            # replica's listening socket, and an orphaned worker left
            # behind by a SIGKILL'd replica would then hold the port
            # and block the supervisor's respawn from binding.  Spawn
            # also never forks the multi-threaded asyncio process.
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("spawn"),
            )
        return self._executor

    def prewarm(self) -> None:
        """Block until the pool can actually run a job (readiness gate).

        For an owned ``ProcessPoolExecutor`` this forks the workers and
        round-trips one no-op, so the first real request never pays the
        spawn latency.  Injected executors (tests gate or instrument
        them) are trusted as-is — submitting through them here would
        trip deterministic-concurrency harnesses.
        """
        if not self._owned:
            return
        self._ensure().submit(_warm_noop).result(timeout=120)

    async def run(self, fn: Any, *args: Any) -> Any:
        """Run ``fn(*args)`` on the pool; tracks busy-worker count."""
        loop = asyncio.get_running_loop()
        self.busy += 1
        self.jobs_total += 1
        try:
            return await loop.run_in_executor(self._ensure(), fn, *args)
        finally:
            self.busy -= 1

    def shutdown(self) -> None:
        if self._owned and self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
