"""Integration tests for the end-to-end balancing pipeline."""

import numpy as np
import pytest

from repro.apps import build_app
from repro.core.algorithms import AvgAlgorithm, MaxAlgorithm, NoDvfsAlgorithm
from repro.core.balancer import PowerAwareLoadBalancer, trace_baseline
from repro.core.gears import Gear, uniform_gear_set
from repro.core.power import CpuPowerModel
from repro.netsim.simulator import MpiSimulator
from repro.traces.transform import scale_compute


class TestBalanceApp:
    def test_no_dvfs_is_exactly_baseline(self, balancer):
        app = build_app("MG-16", iterations=2)
        report = balancer.balance_app(app, algorithm=NoDvfsAlgorithm())
        assert report.normalized_energy == pytest.approx(1.0)
        assert report.normalized_time == pytest.approx(1.0)
        assert report.normalized_edp == pytest.approx(1.0)

    def test_max_saves_energy_on_imbalanced_app(self, balancer):
        report = balancer.balance_app(build_app("BT-MZ-32", iterations=2))
        assert report.normalized_energy < 0.7
        # MAX never increases time much (no overclocking, round-up rule)
        assert report.normalized_time < 1.05

    def test_report_fields_consistent(self, balancer):
        report = balancer.balance_app(build_app("WRF-16", iterations=2))
        assert report.nproc == 16
        assert report.algorithm == "MAX"
        assert report.gear_set == "uniform-6"
        assert 0.0 < report.load_balance <= 1.0
        assert 0.0 < report.parallel_efficiency <= report.load_balance + 1e-9
        assert report.energy_savings_pct == pytest.approx(
            100.0 * (1.0 - report.normalized_energy)
        )

    def test_row_serialisation(self, balancer):
        report = balancer.balance_app(build_app("CG-8", iterations=2))
        row = report.row()
        assert row["application"] == "CG-8"
        assert set(row) >= {
            "normalized_energy",
            "normalized_time",
            "normalized_edp",
            "overclocked_pct",
        }

    def test_str_is_informative(self, balancer):
        report = balancer.balance_app(build_app("CG-8", iterations=2))
        text = str(report)
        assert "CG-8" in text and "MAX" in text


class TestBalanceTrace:
    def test_balance_trace_equals_balance_app(self, balancer, btmz_trace):
        r1 = balancer.balance_trace(btmz_trace)
        r2 = balancer.balance_trace(btmz_trace)
        assert r1.normalized_energy == pytest.approx(r2.normalized_energy)

    def test_algorithm_override_per_call(self, btmz_trace):
        gear_set = uniform_gear_set(6).with_extra_gear(Gear(2.6, 1.6))
        balancer = PowerAwareLoadBalancer(gear_set=gear_set)
        rmax = balancer.balance_trace(btmz_trace, algorithm=MaxAlgorithm())
        ravg = balancer.balance_trace(btmz_trace, algorithm=AvgAlgorithm())
        assert rmax.algorithm == "MAX"
        assert ravg.algorithm == "AVG"
        assert ravg.new_time < rmax.new_time  # AVG shrinks the critical path

    def test_assignment_matches_trace_computation(self, balancer, btmz_trace):
        report = balancer.balance_trace(btmz_trace)
        from repro.traces.analysis import compute_times

        times = compute_times(btmz_trace)
        # heaviest rank stays at nominal top under MAX
        heavy = int(np.argmax(times))
        assert report.assignment.gears[heavy].frequency == pytest.approx(2.3)


class TestEnergyConsistency:
    def test_original_energy_uses_nominal_gear_everywhere(self, balancer, btmz_trace):
        report = balancer.balance_trace(btmz_trace)
        pm = balancer.power_model
        nominal = pm.law.gear(2.3)
        # reconstruct: compute at compute power + rest at comm power
        comp = report.meta["original_compute_times"]
        texec = report.original_time
        expected = float(
            np.sum(comp) * pm.power(nominal, "compute")
            + np.sum(texec - comp) * pm.power(nominal, "comm")
        )
        assert report.original_energy.total == pytest.approx(expected)

    @pytest.mark.parametrize("spec", ["BT-MZ-32", "CG-64", "WRF-128"])
    @pytest.mark.parametrize("static_fraction", [0.2, 0.45])
    def test_baseline_energy_equals_per_rank_run_energy(
        self, spec, static_fraction
    ):
        """The baseline priced as a one-gear table is the scalar
        per-rank accounting it replaced, bit for bit."""
        balancer = PowerAwareLoadBalancer(
            gear_set=uniform_gear_set(6),
            power_model=CpuPowerModel(static_fraction=static_fraction),
        )
        trace = build_app(spec, iterations=2).columnar_trace()
        base = trace_baseline(balancer.simulator, balancer.accountant, trace)
        want = balancer.accountant.run_energy(
            base.original.compute_times,
            base.original.execution_time,
            [base.nominal_gear] * trace.nproc,
        )
        got = base.original_energy
        for name in ("compute_energy", "comm_energy", "static_energy",
                     "dynamic_energy", "execution_time"):
            assert getattr(got, name).hex() == getattr(want, name).hex(), name
        assert got.per_rank.tobytes() == want.per_rank.tobytes()

    def test_max_reduces_every_rank_or_keeps(self, balancer, btmz_trace):
        """No rank may consume more than it did originally under MAX."""
        report = balancer.balance_trace(btmz_trace)
        assert report.new_energy.per_rank.sum() <= (
            report.original_energy.per_rank.sum()
        )


class TestReaccount:
    def test_reaccount_matches_direct_computation(self, btmz_trace):
        balancer = PowerAwareLoadBalancer(gear_set=uniform_gear_set(6))
        base = balancer.balance_trace(btmz_trace)

        pm = CpuPowerModel(static_fraction=0.6)
        re = balancer.reaccount(base, pm)

        direct = PowerAwareLoadBalancer(
            gear_set=uniform_gear_set(6), power_model=pm
        ).balance_trace(btmz_trace)
        assert re.normalized_energy == pytest.approx(direct.normalized_energy)
        assert re.normalized_edp == pytest.approx(direct.normalized_edp)

    def test_reaccount_preserves_times(self, btmz_trace, balancer):
        base = balancer.balance_trace(btmz_trace)
        re = balancer.reaccount(base, CpuPowerModel(activity_ratio=3.0))
        assert re.new_time == base.new_time
        assert re.original_time == base.original_time


class TestReplayPair:
    def test_replay_pair_returns_interval_runs(self, balancer, btmz_trace):
        report = balancer.balance_trace(btmz_trace)
        original, modified = balancer.replay_pair(btmz_trace, report.assignment)
        assert original.intervals is not None
        assert modified.intervals is not None
        assert original.execution_time == pytest.approx(report.original_time)
        assert modified.execution_time == pytest.approx(report.new_time)

    def test_modified_run_has_higher_compute_fraction(self, balancer, btmz_trace):
        """Fig. 1's claim, as an invariant of the MAX pipeline."""
        from repro.traces.timeline import compute_fraction

        report = balancer.balance_trace(btmz_trace)
        original, modified = balancer.replay_pair(btmz_trace, report.assignment)
        assert compute_fraction(modified) > compute_fraction(original)


@pytest.mark.parametrize("engine", ["des", "compiled", "auto"])
class TestRecordingStaysOnTheDes:
    """Whatever engine prices, recording runs on the DES: the traces,
    intervals and marker stamps are the DES's own."""

    def test_trace_app(self, engine):
        app = build_app("CG-8", iterations=2)
        balancer = PowerAwareLoadBalancer(uniform_gear_set(6), engine=engine)
        got = balancer.trace_app(app)
        want = MpiSimulator().run(
            app.programs(), record_trace=True, meta={"name": app.name}
        ).trace
        assert got.meta == dict(want.meta, nproc=app.nproc)
        for rank in range(app.nproc):
            assert got.records_of(rank) == want.records_of(rank)

    def test_replay_pair(self, engine, btmz_trace):
        balancer = PowerAwareLoadBalancer(uniform_gear_set(6), engine=engine)
        report = balancer.balance_trace(btmz_trace)
        original, modified = balancer.replay_pair(btmz_trace, report.assignment)
        scaled = scale_compute(
            btmz_trace, report.assignment.frequencies, balancer.time_model
        )
        des = MpiSimulator()
        for got, trace in ((original, btmz_trace), (modified, scaled)):
            want = des.run_trace(trace, record_intervals=True)
            assert got.engine == "des"
            assert got.intervals == want.intervals
            assert got.markers == want.markers
            assert any(got.markers)  # BT-MZ marks its iterations
