"""Unit tests for the dynamic runtimes (Jitter, comm-phase scaling)."""

import pytest

from repro.apps import build_app
from repro.core.balancer import PowerAwareLoadBalancer
from repro.core.dynamic import CommPhaseScalingRuntime, JitterRuntime
from repro.core.gears import Gear, uniform_gear_set
from repro.netsim.simulator import MpiSimulator


def make_trace(name="SPECFEM3D-32", iterations=4, drift_step=0):
    app = build_app(name, iterations=iterations, drift_step=drift_step)
    sim = MpiSimulator()
    return sim.run(
        app.programs(), record_trace=True, meta={"name": app.name}
    ).trace


class TestJitter:
    def test_stationary_close_to_static_max(self):
        trace = make_trace(iterations=5)
        jitter = JitterRuntime(gear_set=uniform_gear_set(6)).run(trace)
        static = PowerAwareLoadBalancer(gear_set=uniform_gear_set(6)).balance_trace(
            trace
        )
        # Jitter pays one warm-up iteration at the top gear, then matches
        assert jitter.normalized_energy == pytest.approx(
            static.normalized_energy, abs=0.05
        )
        assert jitter.normalized_energy >= static.normalized_energy - 0.005

    def test_warmup_iteration_at_top_gear(self):
        trace = make_trace(iterations=3)
        report = JitterRuntime(gear_set=uniform_gear_set(6)).run(trace)
        first = report.assignments[0]
        assert first.algorithm == "warmup"
        assert set(g.frequency for g in first.gears) == {2.3}

    def test_later_iterations_use_algorithm(self):
        trace = make_trace(iterations=3)
        report = JitterRuntime(gear_set=uniform_gear_set(6)).run(trace)
        assert report.assignments[1].algorithm == "MAX"
        assert min(g.frequency for g in report.assignments[1].gears) < 2.3

    def test_drifting_load_static_saves_nothing_jitter_does(self):
        """Rotated load flattens per-rank totals: static MAX is blind,
        the iteration-level loop is not."""
        trace = make_trace(iterations=6, drift_step=8)
        static = PowerAwareLoadBalancer(gear_set=uniform_gear_set(6)).balance_trace(
            trace
        )
        jitter = JitterRuntime(gear_set=uniform_gear_set(6)).run(trace)
        assert static.normalized_energy > 0.99  # totals look balanced
        assert jitter.normalized_energy < static.normalized_energy - 0.01

    def test_requires_iteration_markers(self):
        from repro.traces.records import ComputeBurst
        from repro.traces.columnar import ColumnarTrace

        bare = ColumnarTrace.from_streams([[ComputeBurst(1.0)], [ComputeBurst(2.0)]])
        with pytest.raises(ValueError, match="iteration"):
            JitterRuntime(gear_set=uniform_gear_set(6)).run(bare)

    def test_report_arithmetic(self):
        trace = make_trace(iterations=3)
        report = JitterRuntime(gear_set=uniform_gear_set(6)).run(trace)
        assert report.normalized_edp == pytest.approx(
            report.normalized_energy * report.normalized_time
        )
        assert report.iterations == 3
        assert "SPECFEM3D-32" in str(report)


class TestJitterPredictors:
    def test_ewma_matches_last_on_stationary_load(self):
        trace = make_trace(iterations=4)
        last = JitterRuntime(gear_set=uniform_gear_set(6)).run(trace)
        ewma = JitterRuntime(
            gear_set=uniform_gear_set(6), predictor="ewma", ewma_alpha=0.5
        ).run(trace)
        # stationary: every predictor sees the same times
        assert ewma.normalized_energy == pytest.approx(
            last.normalized_energy, abs=1e-9
        )

    def test_ewma_name_reflects_alpha(self):
        runtime = JitterRuntime(
            gear_set=uniform_gear_set(6), predictor="ewma", ewma_alpha=0.3
        )
        assert runtime.name == "Jitter[ewma=0.3]"

    def test_ewma_smooths_noisy_loads(self):
        """Alternating heavy/light ranks: lag-1 prediction is always
        exactly wrong; the EWMA converges to the mean and does better
        on execution time."""
        from repro.apps import vmpi

        nproc, niter = 4, 8

        def program(rank):
            for it in range(niter):
                yield vmpi.marker("iter", iteration=it)
                heavy = (it + rank) % 2 == 0
                yield vmpi.compute(0.02 if heavy else 0.01)
                yield vmpi.barrier()

        trace = MpiSimulator().run(
            [program(r) for r in range(nproc)],
            record_trace=True,
            meta={"name": "flip-flop"},
        ).trace
        last = JitterRuntime(gear_set=uniform_gear_set(6)).run(trace)
        ewma = JitterRuntime(
            gear_set=uniform_gear_set(6), predictor="ewma", ewma_alpha=0.3
        ).run(trace)
        assert ewma.normalized_time < last.normalized_time - 0.01

    def test_bad_predictor_args_rejected(self):
        with pytest.raises(ValueError):
            JitterRuntime(gear_set=uniform_gear_set(6), predictor="oracle")
        with pytest.raises(ValueError):
            JitterRuntime(
                gear_set=uniform_gear_set(6), predictor="ewma", ewma_alpha=0.0
            )


class TestCommPhaseScaling:
    def test_energy_saved_without_time_penalty(self):
        trace = make_trace("CG-64", iterations=3)
        report = CommPhaseScalingRuntime(gear_set=uniform_gear_set(6)).run(trace)
        assert report.normalized_energy < 0.95
        assert report.normalized_time == pytest.approx(1.0)

    def test_savings_track_communication_fraction(self):
        """IS (PE 8%) must save far more than SPECFEM3D (PE 93%)."""
        runtime = CommPhaseScalingRuntime(gear_set=uniform_gear_set(6))
        r_is = runtime.run(make_trace("IS-32", iterations=3))
        r_sf = runtime.run(make_trace("SPECFEM3D-32", iterations=3))
        assert r_is.normalized_energy < r_sf.normalized_energy - 0.2

    def test_switch_overhead_costs_time(self):
        trace = make_trace("CG-64", iterations=3)
        free = CommPhaseScalingRuntime(gear_set=uniform_gear_set(6)).run(trace)
        taxed = CommPhaseScalingRuntime(
            gear_set=uniform_gear_set(6), switch_overhead=50e-6
        ).run(trace)
        assert taxed.normalized_time > free.normalized_time
        assert taxed.normalized_energy >= free.normalized_energy

    def test_explicit_low_gear(self):
        trace = make_trace("CG-64", iterations=2)
        lower = CommPhaseScalingRuntime(low_gear=Gear(0.8, 1.0)).run(trace)
        higher = CommPhaseScalingRuntime(low_gear=Gear(1.7, 1.3)).run(trace)
        assert lower.normalized_energy < higher.normalized_energy

    def test_needs_gear_or_set(self):
        with pytest.raises(ValueError, match="low_gear or gear_set"):
            CommPhaseScalingRuntime()

    def test_negative_overhead_rejected(self):
        with pytest.raises(ValueError):
            CommPhaseScalingRuntime(
                gear_set=uniform_gear_set(6), switch_overhead=-1.0
            )

    def test_complements_static_balancing(self):
        """comm-scaling shines exactly where MAX is useless (CG)."""
        trace = make_trace("CG-32", iterations=3)
        static = PowerAwareLoadBalancer(gear_set=uniform_gear_set(6)).balance_trace(
            trace
        )
        comm = CommPhaseScalingRuntime(gear_set=uniform_gear_set(6)).run(trace)
        assert static.normalized_energy > 0.99
        assert comm.normalized_energy < 0.9
