"""Shared machinery for the experiment modules.

:class:`Runner` evaluates (application × gear set × algorithm × β)
cells of the paper's study, caching application traces and their
baseline replays so sweeps don't re-simulate what cannot change:

* a trace depends on (app, iterations, platform) only;
* replays depend additionally on the assignment and β;
* energy integration alone depends on the power model — sweeps over
  static fraction / activity factor reuse replays via
  :meth:`repro.core.balancer.PowerAwareLoadBalancer.reaccount`.

Every cell — :meth:`Runner.balance` is a one-candidate
:meth:`Runner.balance_many` — prices its cache misses through
:meth:`repro.core.batchbalance.BatchBalancePlanner.plan_trace`, and is
keyed on :func:`repro.experiments.cache.cell_identity` in memory and
on disk.

When :attr:`RunnerConfig.cache_dir` is set, both layers are also
persisted on disk through :class:`repro.experiments.cache.ResultCache`,
so a repeated sweep (or a parallel campaign's next process) starts from
warm results instead of re-simulating.  Keys cover every physical
input — see :mod:`repro.experiments.cache` for the invalidation rules.
"""

from __future__ import annotations

import importlib
import marshal
import os
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence
from typing import Any

from repro.apps.registry import TABLE3_INSTANCES, build_app
from repro.core.algorithms import FrequencyAlgorithm, MaxAlgorithm
from repro.core.balancer import (
    BalanceReport,
    PowerAwareLoadBalancer,
    record_app,
)
from repro.core.gears import NOMINAL_FMAX, GearSet
from repro.core.power import CpuPowerModel
from repro.core.timemodel import BetaTimeModel
from repro.experiments import report as _report
from repro.netsim.platform import MYRINET_LIKE, PlatformConfig

__all__ = ["ExperimentResult", "Runner", "RunnerConfig", "get_experiment"]

#: The five applications Fig. 2 shows ("results for five applications
#: due to space limitation").
FIG2_APPS = ("BT-MZ-32", "CG-64", "SPECFEM3D-96", "PEPC-128", "WRF-128")


@dataclass(frozen=True)
class RunnerConfig:
    """Knobs shared by all experiments.

    ``iterations``/``base_compute`` trade fidelity against runtime; the
    defaults regenerate every figure in seconds.  ``apps`` restricts the
    instance list (None = the paper's twelve).
    """

    iterations: int = 6
    base_compute: float = 0.02
    beta: float = 0.5
    apps: tuple[str, ...] | None = None
    platform: PlatformConfig = MYRINET_LIKE
    #: Directory for the persistent result cache; ``None`` disables it.
    cache_dir: str | None = None
    #: Replay engine: "des", "compiled" or "auto" (identical results;
    #: never part of cache identities or report payloads).
    engine: str = "auto"
    #: Trace storage backend: "memory" keeps recorded traces in
    #: process memory; "mmap" saves each trace to the binary columnar
    #: store and reopens it memory-mapped, so pricing a huge world
    #: costs pages rather than RSS.  Like ``engine`` it changes *how*
    #: results are computed, never *what* — identical reports, and it
    #: is excluded from cache identities and report payloads.
    storage: str = "memory"

    def app_list(self) -> tuple[str, ...]:
        return self.apps if self.apps is not None else TABLE3_INSTANCES


@dataclass
class ExperimentResult:
    """Rows + rendering for one regenerated table/figure."""

    eid: str
    title: str
    columns: list[str]
    rows: list[dict[str, Any]]
    notes: list[str] = field(default_factory=list)
    series: dict[str, Any] = field(default_factory=dict)

    def to_ascii(self, decimals: int = 2) -> str:
        text = _report.format_table(
            self.columns, self.rows, title=f"[{self.eid}] {self.title}",
            decimals=decimals,
        )
        if self.notes:
            text += "\n" + "\n".join(f"note: {n}" for n in self.notes)
        return text

    def to_csv(self, path: Any) -> None:
        _report.write_csv(path, self.columns, self.rows)

    def to_svg(self, category_key: str, value_keys: Sequence[str],
               title: str | None = None) -> str:
        categories = [str(r[category_key]) for r in self.rows]
        series = {k: [float(r[k]) for r in self.rows] for k in value_keys}
        return _report.bar_chart_svg(title or self.title, categories, series)

    def column(self, key: str) -> list[Any]:
        return [r[key] for r in self.rows]

    def pivot(self, row_key: str, col_key: str, value_key: str
              ) -> dict[Any, dict[Any, Any]]:
        out: dict[Any, dict[Any, Any]] = {}
        for r in self.rows:
            out.setdefault(r[row_key], {})[r[col_key]] = r[value_key]
        return out


class Runner:
    """Caching evaluator of study cells (in-memory, optionally on-disk)."""

    def __init__(self, config: RunnerConfig | None = None):
        from repro.experiments.cache import ResultCache

        self.config = config or RunnerConfig()
        if self.config.storage not in ("memory", "mmap"):
            raise ValueError(
                f"unknown storage backend {self.config.storage!r} "
                "(expected 'memory' or 'mmap')"
            )
        self._traces: dict[tuple[str, float], Any] = {}
        self._reports: dict[tuple[str, bytes], BalanceReport] = {}
        self._trace_payloads: dict[str, dict[str, Any]] = {}
        self._store_dir: Any = None  # lazily created tempdir for mmap stores
        self.cache: ResultCache | None = (
            ResultCache(self.config.cache_dir)
            if self.config.cache_dir
            else None
        )

    # ------------------------------------------------------------------
    def _trace_payload(self, app_name: str) -> dict[str, Any]:
        """The app's trace identity (built once per Runner and app)."""
        from repro.experiments.cache import platform_payload, trace_identity

        payload = self._trace_payloads.get(app_name)
        if payload is None:
            cfg = self.config
            payload = self._trace_payloads[app_name] = trace_identity(
                app_name,
                cfg.iterations,
                cfg.base_compute,
                platform_payload(cfg.platform),
            )
        return payload

    def _mmap_trace(self, app: Any):
        """Record ``app`` into a store file and reopen it memory-mapped.

        The store lives under ``<cache_dir>/traces/<digest>.rpcs`` (the
        digest is over :meth:`_trace_payload`, the same identity the
        result cache uses, so a pre-existing file is simply reused) or
        in a per-runner temporary directory when caching is off.
        """
        import hashlib
        import json
        import tempfile

        from repro.traces import colstore
        from repro.traces.columnar import ColumnarTrace

        if self.config.cache_dir:
            root = os.path.join(self.config.cache_dir, "traces")
            os.makedirs(root, exist_ok=True)
        else:
            if self._store_dir is None:
                self._store_dir = tempfile.TemporaryDirectory(
                    prefix="repro-traces-"
                )
            root = self._store_dir.name
        digest = hashlib.sha256(
            json.dumps(self._trace_payload(app.name), sort_keys=True).encode()
        ).hexdigest()[:32]
        path = os.path.join(root, digest + colstore.STORE_EXTENSION)
        if not colstore.is_store_file(path):
            app.columnar_trace().save(path)
        trace = ColumnarTrace.open(path, mmap=True)
        trace.meta.setdefault("nproc", trace.nproc)
        return trace

    def trace(self, app_name: str):
        """The app's recorded trace (cached; recording is β-independent)."""
        cfg = self.config
        key = (app_name, cfg.iterations)
        trace = self._traces.get(key)
        if trace is not None:
            return trace
        if cfg.storage == "memory" and self.cache is not None:
            trace = self.cache.get("trace", self._trace_payload(app_name))
        if trace is None:
            app = build_app(
                app_name,
                iterations=cfg.iterations,
                base_compute=cfg.base_compute,
                platform=cfg.platform,
            )
            if cfg.storage == "mmap":
                # the store file on disk *is* the persistent artifact —
                # the pickling result cache is bypassed entirely
                trace = self._mmap_trace(app)
            else:
                from repro.netsim.simulator import MpiSimulator

                # recording runs at nominal speed: no time model applies
                trace = record_app(MpiSimulator(cfg.platform), app)
                if self.cache is not None:
                    self.cache.put("trace", self._trace_payload(app_name), trace)
        self._traces[key] = trace
        return trace

    def balance(
        self,
        app_name: str,
        gear_set: GearSet,
        algorithm: FrequencyAlgorithm | None = None,
        beta: float | None = None,
        power_model: CpuPowerModel | None = None,
    ) -> BalanceReport:
        """One cell: a one-candidate :meth:`balance_many` (same caches).

        A capped cell is ``algorithm=PowerCapAlgorithm(cap)``.  Cached
        reports are always on the default power model; a custom
        ``power_model`` gets a reaccounted copy, never cached.
        """
        from repro.core.batchbalance import SweepCandidate

        (report,) = self.balance_many(
            app_name, [SweepCandidate(gear_set, algorithm)], beta=beta
        )
        if power_model is None:
            return report
        from repro.core.powercap import PowerCapAlgorithm, attach_power_section

        reaccounted = PowerAwareLoadBalancer.reaccount(report, power_model)
        if isinstance(algorithm, PowerCapAlgorithm):
            # the assignment was chosen under the default model;
            # re-derive the power section so peak/avg reflect the
            # caller's model
            eff_beta = self.config.beta if beta is None else beta
            attach_power_section(
                reaccounted,
                PowerCapAlgorithm(algorithm.cap, power_model),
                gear_set,
                BetaTimeModel(fmax=NOMINAL_FMAX, beta=eff_beta),
                verify=False,
            )
        return reaccounted

    def balance_many(
        self,
        app_name: str,
        candidates: Sequence[Any],
        beta: float | None = None,
    ) -> list[BalanceReport]:
        """Many cells of one app in one batched pricing pass.

        ``candidates`` is a sequence of
        :class:`~repro.core.batchbalance.SweepCandidate` (bare gear
        sets are accepted).  Cells are keyed on their
        :func:`~repro.experiments.cache.cell_identity` in both cache
        layers: cached cells are served from the caches, only the
        misses go through
        :meth:`~repro.core.batchbalance.BatchBalancePlanner.plan_trace`,
        and freshly planned reports are stored back.  Reports come back
        in candidate order.
        """
        from repro.core.batchbalance import BatchBalancePlanner, SweepCandidate
        from repro.experiments.cache import cell_identity

        eff_beta = self.config.beta if beta is None else beta
        cells: list[SweepCandidate] = []
        keys: list[tuple[str, bytes]] = []
        reports: list[BalanceReport | None] = []
        for cand in candidates:
            if not isinstance(cand, SweepCandidate):
                cand = SweepCandidate(cand)
            cell = SweepCandidate(cand.gear_set, cand.algorithm or MaxAlgorithm())
            # memory is per Runner, so the trace part is just the app.
            # The cell part is packed to bytes: marshal format 2 writes
            # values only (no object references), so equal identities
            # pack equal; packing is several times cheaper than JSON
            # text, and bytes keys, unlike nested tuples, add no work
            # to the cyclic GC's passes.
            key = (app_name, marshal.dumps(
                cell_identity(cell.gear_set, cell.algorithm, eff_beta), 2
            ))
            report = self._reports.get(key)
            if report is None and self.cache is not None:
                report = self.cache.get("report", self._report_payload(
                    app_name, cell.gear_set, cell.algorithm, eff_beta
                ))
                if report is not None:
                    self._reports[key] = report
            cells.append(cell)
            keys.append(key)
            reports.append(report)
        misses = [i for i, report in enumerate(reports) if report is None]
        if misses:
            planner = BatchBalancePlanner(
                time_model=BetaTimeModel(fmax=NOMINAL_FMAX, beta=eff_beta),
                platform=self.config.platform,
                engine=self.config.engine,
            )
            fresh = planner.plan_trace(
                self.trace(app_name), [cells[i] for i in misses]
            )
            for i, report in zip(misses, fresh):
                reports[i] = self._reports[keys[i]] = report
                if self.cache is not None:
                    self.cache.put("report", self._report_payload(
                        app_name, cells[i].gear_set, cells[i].algorithm,
                        eff_beta,
                    ), report)
        return reports

    def _report_payload(
        self,
        app_name: str,
        gear_set: GearSet,
        algorithm: FrequencyAlgorithm,
        beta: float,
    ) -> dict[str, Any]:
        from repro.experiments.cache import cell_identity

        return {
            **self._trace_payload(app_name),
            **cell_identity(gear_set, algorithm, beta),
        }


def get_experiment(eid: str) -> Callable[[RunnerConfig | None], ExperimentResult]:
    """Resolve an experiment id to its ``run`` callable."""
    from repro.experiments import EXPERIMENT_IDS

    if eid not in EXPERIMENT_IDS:
        raise ValueError(f"unknown experiment {eid!r}; known: {EXPERIMENT_IDS}")
    module = importlib.import_module(f"repro.experiments.{eid}")
    return module.run
