"""The power-cap subsystem: algorithm, balancer, identities, service.

Contracts under test (see ``repro.core.powercap``):

* an emitted assignment's modeled all-compute peak never exceeds the
  cap; infeasible caps raise :class:`PowerCapError` carrying the PC
  rule codes the admission layer uses;
* degradation is monotone in the budget — a tighter cap yields a
  later-or-equal target time and slower-or-equal per-rank gears;
* capped reports are byte-identical across ``des|compiled|auto``
  engines, like every other pricing path;
* cache identities: capless payloads keep their exact pre-cap schema
  (no ``power_cap`` key, no ``power`` section in the wire format) while
  capped cells get distinct, cap-carrying keys — and the service's
  fast-path identity mirrors the Runner's verbatim.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.algorithms import MaxAlgorithm
from repro.core.gears import NOMINAL_FMAX, uniform_gear_set
from repro.core.power import CpuPowerModel, CpuState
from repro.core.powercap import (
    PowerCapAlgorithm,
    PowerCapBalancer,
    PowerCapError,
    attach_power_section,
    modeled_peak_power,
)
from repro.core.timemodel import BetaTimeModel
from repro.experiments.runner import Runner, RunnerConfig

GS = uniform_gear_set(6)
PM = CpuPowerModel()
MODEL = BetaTimeModel(fmax=NOMINAL_FMAX, beta=0.5)

#: Model watts per rank at the set's floor/ceiling, all-compute.
P_FLOOR = PM.power(GS.select(GS.fmin).gear, CpuState.COMPUTE)
P_TOP = PM.power(GS.top_gear(), CpuState.COMPUTE)


def peak(assignment):
    return modeled_peak_power(assignment.gears, PM)


class TestPowerCapAlgorithm:
    def test_bad_cap_rejected(self):
        with pytest.raises(ValueError):
            PowerCapAlgorithm(0.0)
        with pytest.raises(ValueError):
            PowerCapAlgorithm(-5.0)

    def test_name_embeds_cap(self):
        assert PowerCapAlgorithm(40.0).name == "POWERCAP[40]"
        assert PowerCapAlgorithm(12.5).name == "POWERCAP[12.5]"

    def test_slack_cap_degenerates_to_uncapped_greedy(self):
        times = [1.0, 2.0, 4.0]
        alg = PowerCapAlgorithm(1e6)
        capped = alg.assign(times, GS, MODEL)
        reference = alg.uncapped_reference(times, GS, MODEL)
        assert [g.frequency for g in capped.gears] == [
            g.frequency for g in reference.gears
        ]
        # the critical rank runs at the ceiling, donors below it
        assert capped.gears[-1].frequency == pytest.approx(GS.fmax)
        assert capped.gears[0].frequency < GS.fmax

    def test_infeasible_cap_raises_pc_coded_error(self):
        times = [1.0] * 8
        with pytest.raises(PowerCapError) as exc:
            PowerCapAlgorithm(8 * P_FLOOR * 0.5).assign(times, GS, MODEL)
        codes = {d.code for d in exc.value.diagnostics}
        assert codes & {"PC001", "PC002"}
        assert "PC" in str(exc.value)

    def test_binding_cap_respected_and_binding(self):
        times = [1.0] * 8  # perfectly balanced: everyone is critical
        cap = 8 * (P_FLOOR + P_TOP) / 2
        alg = PowerCapAlgorithm(cap)
        got = alg.assign(times, GS, MODEL)
        assert peak(got) <= cap * (1 + 1e-9)
        # the budget actually bit: below the uncapped all-fmax peak
        assert peak(got) < 8 * P_TOP - 1e-9

    def test_water_filling_boundary_is_exact(self):
        """Re-assigning at the returned target reproduces the result."""
        times = [1.0, 1.5, 2.0, 3.0]
        cap = 4 * (P_FLOOR + P_TOP) / 2
        alg = PowerCapAlgorithm(cap)
        got = alg.assign(times, GS, MODEL)
        again = alg.assign(times, GS, MODEL)
        assert [g.frequency for g in got.gears] == [
            g.frequency for g in again.gears
        ]

    @settings(deadline=None, max_examples=60)
    @given(
        times=st.lists(st.floats(0.01, 10.0), min_size=2, max_size=32),
        cap_frac=st.floats(0.05, 1.5),
        beta=st.floats(0.0, 1.0),
    )
    def test_peak_never_exceeds_cap_or_pc_error(self, times, cap_frac, beta):
        model = BetaTimeModel(fmax=NOMINAL_FMAX, beta=beta)
        cap = cap_frac * len(times) * P_TOP
        alg = PowerCapAlgorithm(cap)
        try:
            got = alg.assign(times, GS, model)
        except PowerCapError as exc:
            assert {d.code for d in exc.diagnostics} & {"PC001", "PC002"}
            return
        assert peak(got) <= cap * (1 + 1e-9)

    @settings(deadline=None, max_examples=40)
    @given(
        times=st.lists(st.floats(0.01, 10.0), min_size=2, max_size=16),
        lo_frac=st.floats(0.30, 0.9),
        hi_frac=st.floats(0.30, 0.9),
        beta=st.floats(0.0, 1.0),
    )
    # β ≈ 0: at the loose cap the threshold probe picks a level whose
    # exact assignment misses the cap by a gear
    @example(times=[1.0, 1.0, 1.0, 2.0], lo_frac=0.375, hi_frac=0.4375,
             beta=2**-24)
    def test_monotone_degradation_as_cap_tightens(
        self, times, lo_frac, hi_frac, beta
    ):
        """Tighter budget: slower-or-equal gears on every rank."""
        model = BetaTimeModel(fmax=NOMINAL_FMAX, beta=beta)
        lo_frac, hi_frac = sorted((lo_frac, hi_frac))
        n = len(times)
        tight = PowerCapAlgorithm(lo_frac * n * P_TOP).assign(times, GS, model)
        loose = PowerCapAlgorithm(hi_frac * n * P_TOP).assign(times, GS, model)
        for a, b in zip(tight.gears, loose.gears, strict=True):
            assert a.frequency <= b.frequency + 1e-12
        assert tight.target_time >= loose.target_time - 1e-12
        assert peak(tight) <= peak(loose) + 1e-9


class TestPowerCapBalancer:
    @pytest.fixture(scope="class")
    def trace(self):
        runner = Runner(RunnerConfig(iterations=2))
        return runner.trace("BT-MZ-32")

    def test_report_carries_power_section(self, trace):
        cap = 0.5 * trace.nproc * P_TOP
        report = PowerCapBalancer(GS, cap).balance_trace(trace)
        power = report.power
        assert power is not None
        assert power["cap_w"] == pytest.approx(cap)
        assert power["peak_power_w"] <= cap * (1 + 1e-9)
        assert power["headroom_w"] == pytest.approx(
            cap - power["peak_power_w"]
        )
        assert power["binding_count"] == len(power["binding_ranks"])
        assert report.algorithm.startswith("POWERCAP[")

    def test_cap_sweep_monotone_and_within_budget(self, trace):
        caps = [f * trace.nproc * P_TOP for f in (0.35, 0.5, 0.8, 1.0)]
        reports = PowerCapBalancer(GS, caps[0]).cap_sweep_trace(trace, caps)
        times = [r.normalized_time for r in reports]
        assert times == sorted(times, reverse=True)  # looser = faster
        for cap, r in zip(caps, reports):
            assert r.power["peak_power_w"] <= cap * (1 + 1e-9)
        # the loosest budget is unconstrained
        assert reports[-1].power["binding_count"] == 0

    def test_engines_byte_identical(self, trace):
        cap = 0.45 * trace.nproc * P_TOP
        payloads = [
            json.dumps(
                PowerCapBalancer(GS, cap, engine=engine)
                .balance_trace(trace)
                .to_json(),
                sort_keys=True,
            )
            for engine in ("des", "compiled", "auto")
        ]
        assert payloads[0] == payloads[1] == payloads[2]

    def test_batched_counters_visible(self, trace):
        from repro.netsim.enginestats import process_engine_stats

        before = process_engine_stats()
        caps = [f * trace.nproc * P_TOP for f in (0.4, 0.6, 0.8)]
        PowerCapBalancer(GS, caps[0]).cap_sweep_trace(trace, caps)
        after = process_engine_stats()
        assert after["batch_candidates"] - before["batch_candidates"] >= 3

    def test_attach_enforces_cap_contract(self, trace):
        cap = 0.5 * trace.nproc * P_TOP
        report = PowerCapBalancer(GS, cap).balance_trace(trace)
        # an absurdly tight algorithm must refuse this assignment
        liar = PowerCapAlgorithm(cap / 10.0)
        with pytest.raises(RuntimeError, match="contract"):
            attach_power_section(report, liar, GS, MODEL)


class _OverBudget(PowerCapAlgorithm):
    """Emits the budget-blind assignment: must fail the cap contract."""

    def assign(self, compute_times, gear_set, model):
        return self.uncapped_reference(compute_times, gear_set, model)


class TestOneCappedReport:
    """Every front door prices a capped cell into the same report."""

    CAP = 60.0

    @pytest.fixture(scope="class")
    def runner(self):
        return Runner(RunnerConfig(iterations=2))

    @pytest.fixture(scope="class")
    def trace(self, runner):
        return runner.trace("BT-MZ-32")

    def routes(self, runner, trace):
        from repro.core.balancer import PowerAwareLoadBalancer
        from repro.core.batchbalance import BatchBalancePlanner, SweepCandidate

        cell = SweepCandidate(GS, PowerCapAlgorithm(self.CAP))
        return {
            "Runner.balance": lambda: Runner(
                RunnerConfig(iterations=2)
            ).balance("BT-MZ-32", GS, PowerCapAlgorithm(self.CAP)),
            "Runner.balance_many": lambda: runner.balance_many(
                "BT-MZ-32", [cell]
            )[0],
            "PowerCapBalancer": lambda: PowerCapBalancer(
                GS, self.CAP, time_model=MODEL
            ).balance_trace(trace),
            "BatchBalancePlanner": lambda: BatchBalancePlanner(
                time_model=MODEL
            ).plan_trace(trace, [cell])[0],
            "PowerAwareLoadBalancer": lambda: PowerAwareLoadBalancer(
                GS, time_model=MODEL
            ).balance_trace(trace, PowerCapAlgorithm(self.CAP)),
        }

    def test_all_routes_byte_identical_with_power(self, runner, trace):
        bodies = {
            name: json.dumps(price().to_json(), sort_keys=True)
            for name, price in self.routes(runner, trace).items()
        }
        assert all('"power"' in body for body in bodies.values()), [
            name for name, body in bodies.items() if '"power"' not in body
        ]
        assert len(set(bodies.values())) == 1, sorted(bodies)

    def test_contract_checked_at_report_build(self, trace):
        from repro.core.balancer import PowerAwareLoadBalancer
        from repro.core.batchbalance import BatchBalancePlanner, SweepCandidate

        liar = _OverBudget(P_FLOOR)  # below any 32-rank peak
        with pytest.raises(RuntimeError, match="contract"):
            BatchBalancePlanner(time_model=MODEL).plan_trace(
                trace, [SweepCandidate(GS, liar)]
            )
        with pytest.raises(RuntimeError, match="contract"):
            PowerAwareLoadBalancer(GS, time_model=MODEL).balance_trace(
                trace, liar
            )


class TestCacheIdentity:
    def test_capless_payload_is_pre_cap_schema(self):
        runner = Runner(RunnerConfig(iterations=2))
        payload = runner._report_payload(
            "CG-32", GS, MaxAlgorithm(), 0.5
        )
        assert "power_cap" not in payload
        assert payload["algorithm"] == "MAX"

    def test_capped_payload_distinct_per_cap(self):
        runner = Runner(RunnerConfig(iterations=2))
        a = runner._report_payload(
            "CG-32", GS, PowerCapAlgorithm(40.0), 0.5
        )
        b = runner._report_payload(
            "CG-32", GS, PowerCapAlgorithm(50.0), 0.5
        )
        assert a["power_cap"] == 40.0 and b["power_cap"] == 50.0
        assert json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)

    def test_service_identity_mirrors_runner_payload(self, tmp_path):
        """The front-end fast path and the worker's Runner must hash the
        same bytes, capped or not, or the cache never hits."""
        from repro.service.app import ServiceApp, ServiceConfig

        app = ServiceApp(
            ServiceConfig(port=0, cache_dir=str(tmp_path / "cache"))
        )
        spec = {
            "app": "CG-32",
            "gears": "uniform:6",
            "algorithm": "max",
            "beta": 0.5,
            "iterations": 2,
            "base_compute": 0.02,
        }
        runner = Runner(RunnerConfig(iterations=2, base_compute=0.02))
        for cap in (None, 77.5):
            if cap is not None:
                spec = {**spec, "power_cap": cap}
            algorithm = (
                PowerCapAlgorithm(cap) if cap is not None else MaxAlgorithm()
            )
            kind, payload = app._cache_identity("balance", spec)
            expected = runner._report_payload("CG-32", GS, algorithm, 0.5)
            assert kind == "report"
            assert json.dumps(payload, sort_keys=True) == json.dumps(
                expected, sort_keys=True
            )

    def test_one_runner_prices_each_cap_separately(self):
        runner = Runner(RunnerConfig(iterations=2))
        r90 = runner.balance("CG-32", GS, PowerCapAlgorithm(90.0), beta=0.5)
        r100 = runner.balance("CG-32", GS, PowerCapAlgorithm(100.0), beta=0.5)
        assert (r90.power["cap_w"], r100.power["cap_w"]) == (90.0, 100.0)
        assert r90.to_json() != r100.to_json()


class TestWireFormat:
    def test_capless_report_json_has_no_power_key(self):
        """Byte-identity regression: the capless wire format must not
        grow a ``power`` key (old clients and old cache blobs)."""
        runner = Runner(RunnerConfig(iterations=2))
        report = runner.balance("CG-32", GS, MaxAlgorithm(), beta=0.5)
        body = report.to_json()
        assert "power" not in body
        assert "power" not in json.dumps(body)

    def test_capped_report_json_round_trips_power(self):
        runner = Runner(RunnerConfig(iterations=2))
        report = runner.balance("CG-32", GS, PowerCapAlgorithm(100.0), beta=0.5)
        body = report.to_json()
        assert body["power"]["cap_w"] == 100.0
        json.loads(json.dumps(body))  # JSON-serialisable throughout

    def test_runner_caches_capped_and_capless_separately(self, tmp_path):
        cfg = RunnerConfig(iterations=2, cache_dir=str(tmp_path / "c"))
        runner = Runner(cfg)
        capless = runner.balance("CG-32", GS, beta=0.5)
        capped = runner.balance("CG-32", GS, PowerCapAlgorithm(90.0), beta=0.5)
        assert capless.algorithm == "MAX"
        assert capped.algorithm == "POWERCAP[90]"
        # a fresh runner resolves both from disk, still distinct
        fresh = Runner(cfg)
        again = fresh.balance("CG-32", GS, PowerCapAlgorithm(90.0), beta=0.5)
        assert again.power["cap_w"] == 90.0


class TestServicePath:
    def test_execute_balance_with_cap(self):
        from repro.service.workers import execute_balance

        report, _runner = execute_balance(
            {
                "app": "CG-32",
                "gears": "uniform:6",
                "algorithm": "max",
                "beta": 0.5,
                "iterations": 2,
                "base_compute": 0.02,
                "power_cap": 150.0,
            }
        )
        assert report.power is not None
        assert report.power["peak_power_w"] <= 150.0 * (1 + 1e-9)

    def test_execute_balance_many_prices_caps(self):
        from repro.service.workers import execute_balance_many

        reports, _runner = execute_balance_many(
            {
                "app": "CG-32",
                "gears": "uniform:6",
                "algorithm": "max",
                "beta": 0.5,
                "iterations": 2,
                "base_compute": 0.02,
                "power_cap": 150.0,
                "candidates": [
                    {"gears": "uniform:6", "algorithm": "max"},
                    {"gears": "uniform:4", "algorithm": "avg"},
                ],
            }
        )
        assert len(reports) == 2
        for r in reports:
            assert r.algorithm == "POWERCAP[150]"
            assert r.power is not None


class TestCapSweepExperiment:
    def test_cap_sweep_runs_and_is_monotone(self):
        from repro.experiments.cap_sweep import run

        result = run(RunnerConfig(iterations=2, apps=("CG-32",)))
        rows = sorted(result.rows, key=lambda r: r["budget_pct"])
        times = [r["time_pct"] for r in rows]
        assert times == sorted(times, reverse=True)
        assert all(r["headroom_w"] >= -1e-9 for r in rows)
        assert "power" in result.series
        curve = result.series["power"]["per_app"]["CG-32"]
        assert len(curve["time_pct"]) == len(result.rows)
