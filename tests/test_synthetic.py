"""Unit tests for the configurable synthetic application builder."""

import pytest

from repro.apps.synthetic import PATTERNS, SHAPES, build_synthetic
from repro.core.balancer import PowerAwareLoadBalancer
from repro.core.gears import uniform_gear_set
from repro.netsim.simulator import MpiSimulator
from repro.traces.analysis import load_balance, parallel_efficiency
from repro.traces.columnar import ColumnarTrace


def trace_of(app):
    result = MpiSimulator(platform=app.platform).run(
        app.programs(), record_trace=True, meta={"name": app.name}
    )
    return result.trace, result


class TestCalibration:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_lb_calibrated_for_every_shape(self, shape):
        app = build_synthetic(
            nproc=24, target_lb=0.7, target_pe=0.6, shape=shape, iterations=2
        )
        trace, _ = trace_of(app)
        assert load_balance(trace) == pytest.approx(0.7, abs=0.01)

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_pe_roughly_calibrated_for_every_pattern(self, pattern):
        app = build_synthetic(
            nproc=16, target_lb=0.8, target_pe=0.55, pattern=pattern,
            iterations=2,
        )
        trace, result = trace_of(app)
        pe = parallel_efficiency(trace, result.execution_time)
        assert pe == pytest.approx(0.55, rel=0.15)

    def test_traces_validate(self):
        for pattern in PATTERNS:
            app = build_synthetic(
                nproc=12, target_lb=0.75, target_pe=0.6, pattern=pattern,
                iterations=2,
            )
            ColumnarTrace.from_streams([list(p) for p in app.programs()]).validate()


class TestPhases:
    def test_multi_phase_emits_labels(self):
        app = build_synthetic(
            nproc=16, target_lb=0.7, target_pe=0.6, phases=2, iterations=2
        )
        trace, _ = trace_of(app)
        from repro.traces.analysis import compute_times_by_phase

        phases = compute_times_by_phase(trace)
        assert set(phases) == {"phase0", "phase1"}

    def test_multi_phase_stretches_time_under_max(self):
        """Rotated phases reproduce the PEPC pathology on demand."""
        app = build_synthetic(
            nproc=32, target_lb=0.6, target_pe=0.55, phases=2,
            shape="ramp", iterations=2,
        )
        report = PowerAwareLoadBalancer(gear_set=uniform_gear_set(6)).balance_app(app)
        assert report.normalized_time > 1.01


class TestValidation:
    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError, match="unknown shape"):
            build_synthetic(8, 0.8, 0.7, shape="spiky")

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError, match="unknown pattern"):
            build_synthetic(8, 0.8, 0.7, pattern="gossip")

    def test_bad_phases_rejected(self):
        with pytest.raises(ValueError):
            build_synthetic(8, 0.8, 0.7, phases=0)

    def test_name_override(self):
        app = build_synthetic(8, 0.8, 0.7, name="my-app")
        assert app.name == "my-app"

    def test_default_name_descriptive(self):
        app = build_synthetic(8, 0.8, 0.7, shape="decay", pattern="alltoall")
        assert app.name == "SYNTH[decay/alltoall]-8"


class TestEndToEnd:
    def test_balances_like_named_apps(self):
        app = build_synthetic(
            nproc=32, target_lb=0.5, target_pe=0.45, shape="decay",
            iterations=2,
        )
        report = PowerAwareLoadBalancer(gear_set=uniform_gear_set(6)).balance_app(app)
        assert report.normalized_energy < 0.75
