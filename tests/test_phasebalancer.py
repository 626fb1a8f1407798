"""Unit tests for the phase-aware (per-phase DVFS) balancer."""

import pytest

from repro.apps import build_app
from repro.core.balancer import PowerAwareLoadBalancer
from repro.core.gears import uniform_gear_set
from repro.core.phasebalancer import PhaseAwareLoadBalancer
from repro.netsim.simulator import MpiSimulator


def trace_of(name, iterations=2, **kwargs):
    app = build_app(name, iterations=iterations, **kwargs)
    sim = MpiSimulator()
    return sim.run(
        app.programs(), record_trace=True, meta={"name": app.name}
    ).trace


class TestPepcFix:
    @pytest.fixture(scope="class")
    def reports(self):
        trace = trace_of("PEPC-128")
        single = PowerAwareLoadBalancer(gear_set=uniform_gear_set(6)).balance_trace(
            trace
        )
        phased = PhaseAwareLoadBalancer(gear_set=uniform_gear_set(6)).balance_trace(
            trace
        )
        return single, phased

    def test_time_penalty_removed(self, reports):
        single, phased = reports
        assert single.normalized_time > 1.05  # the paper's PEPC pathology
        assert phased.normalized_time == pytest.approx(1.0, abs=0.01)

    def test_more_energy_saved(self, reports):
        single, phased = reports
        assert phased.normalized_energy < single.normalized_energy - 0.02

    def test_distinct_per_phase_assignments(self, reports):
        _, phased = reports
        assert set(phased.phases) == {"tree-build", "force"}
        tree = phased.assignments["tree-build"].frequencies
        force = phased.assignments["force"].frequencies
        assert tree.tolist() != force.tolist()

    def test_report_fields(self, reports):
        _, phased = reports
        assert phased.algorithm == "per-phase-MAX"
        assert phased.nproc == 128
        assert len(phased.resting_gears) == 128
        assert phased.normalized_edp == pytest.approx(
            phased.normalized_energy * phased.normalized_time
        )
        assert "PEPC-128" in str(phased)


class TestSinglePhaseEquivalence:
    def test_reduces_to_plain_balancer_on_uniform_phase(self):
        """A single-phase workload must get identical timing from both
        balancers (energy differs only via the comm-residual gear)."""
        from repro.apps import vmpi
        from repro.netsim.platform import PlatformConfig

        platform = PlatformConfig(
            latency=0.0, bandwidth=1e9, send_overhead=0.0, recv_overhead=0.0,
            cpus_per_node=1, intra_node_speedup=1.0,
        )
        work = [0.5, 1.0, 2.0]
        sim = MpiSimulator(platform=platform)
        trace = sim.run(
            [[vmpi.compute(w, phase="solve"), vmpi.barrier()] for w in work],
            record_trace=True,
        ).trace

        plain = PowerAwareLoadBalancer(
            gear_set=uniform_gear_set(6), platform=platform
        ).balance_trace(trace)
        phased = PhaseAwareLoadBalancer(
            gear_set=uniform_gear_set(6), platform=platform
        ).balance_trace(trace)

        assert phased.new_time == pytest.approx(plain.new_time)
        assert phased.assignments["solve"].frequencies.tolist() == [
            g.frequency for g in plain.assignment.gears
        ]


class TestValidation:
    def test_empty_trace_rejected(self):
        from repro.traces.records import MarkerRecord
        from repro.traces.columnar import ColumnarTrace

        bare = ColumnarTrace.from_streams([[MarkerRecord("iter", 0)]])
        with pytest.raises(ValueError, match="no compute"):
            PhaseAwareLoadBalancer(gear_set=uniform_gear_set(6)).balance_trace(bare)

    def test_idle_phase_skipped(self):
        from repro.apps import vmpi

        sim = MpiSimulator()
        trace = sim.run(
            [
                [vmpi.compute(1.0, phase="a"), vmpi.compute(0.0, phase="b"),
                 vmpi.barrier()],
                [vmpi.compute(2.0, phase="a"), vmpi.compute(0.0, phase="b"),
                 vmpi.barrier()],
            ],
            record_trace=True,
        ).trace
        report = PhaseAwareLoadBalancer(gear_set=uniform_gear_set(6)).balance_trace(
            trace
        )
        assert "b" not in report.assignments
