"""Calibration and structural tests for the application skeletons.

The headline test: every Table 3 instance's *measured* LB matches the
paper exactly (the profiles are calibrated in closed form) and measured
PE lands within a few percent (PE additionally depends on replay
details).
"""

import numpy as np
import pytest

from repro.apps import build_app
from repro.apps.registry import TABLE3, TABLE3_INSTANCES, parse_name
from repro.netsim.simulator import MpiSimulator
from repro.traces.analysis import (
    compute_times,
    compute_times_by_phase,
    load_balance,
    parallel_efficiency,
)
from repro.traces.columnar import ColumnarTrace


def trace_of(app):
    result = MpiSimulator(platform=app.platform).run(
        app.programs(), record_trace=True, meta={"name": app.name}
    )
    return result.trace, result


class TestTable3Calibration:
    @pytest.mark.parametrize("name", TABLE3_INSTANCES)
    def test_lb_matches_paper_closely(self, name):
        app = build_app(name, iterations=2)
        trace, _ = trace_of(app)
        family, nproc = parse_name(name)
        paper_lb = TABLE3[family][nproc][0] / 100.0
        assert load_balance(trace) == pytest.approx(paper_lb, abs=0.005)

    @pytest.mark.parametrize("name", TABLE3_INSTANCES)
    def test_pe_matches_paper_within_tolerance(self, name):
        app = build_app(name, iterations=2)
        trace, result = trace_of(app)
        family, nproc = parse_name(name)
        paper_pe = TABLE3[family][nproc][1] / 100.0
        measured = parallel_efficiency(trace, result.execution_time)
        assert measured == pytest.approx(paper_pe, rel=0.08)


class TestSkeletonStructure:
    @pytest.mark.parametrize("name", ["CG-16", "MG-16", "IS-16", "BT-MZ-16",
                                      "SPECFEM3D-16", "WRF-16", "PEPC-16"])
    def test_traces_are_structurally_valid(self, name):
        app = build_app(name, iterations=2)
        trace = ColumnarTrace.from_streams(
            [list(p) for p in app.programs()], meta={"name": app.name}
        )
        trace.validate()

    def test_iterations_scale_compute_linearly(self):
        t2, _ = trace_of(build_app("CG-16", iterations=2))
        t4, _ = trace_of(build_app("CG-16", iterations=4))
        assert compute_times(t4).sum() == pytest.approx(
            2.0 * compute_times(t2).sum()
        )

    def test_determinism_across_builds(self):
        a1, _ = trace_of(build_app("WRF-32", iterations=2))
        a2, _ = trace_of(build_app("WRF-32", iterations=2))
        assert compute_times(a1).tolist() == compute_times(a2).tolist()

    def test_weights_max_is_one(self):
        for name in ("CG-16", "IS-16", "BT-MZ-16"):
            app = build_app(name, iterations=1)
            assert app.weights.max() == pytest.approx(1.0)

    def test_describe_fields(self):
        app = build_app("MG-32", iterations=3)
        d = app.describe()
        assert d["name"] == "MG-32"
        assert d["family"] == "MG"
        assert d["iterations"] == 3
        assert d["comm_budget"] >= 0.0

    def test_seed_override_changes_realisation_not_lb(self):
        from repro.traces.analysis import load_balance

        a = build_app("MG-32", iterations=1)
        b = build_app("MG-32", iterations=1, seed=12345)
        assert a.weights.tolist() != b.weights.tolist()
        ta, _ = trace_of(a)
        tb, _ = trace_of(b)
        assert load_balance(ta) == pytest.approx(load_balance(tb), abs=1e-9)

    def test_negative_drift_rejected(self):
        with pytest.raises(ValueError):
            build_app("CG-16", iterations=1, drift_step=-1)

    def test_invalid_constructor_args_rejected(self):
        from repro.apps.cg import CgSkeleton

        with pytest.raises(ValueError):
            CgSkeleton(nproc=0, target_lb=0.9, target_pe=0.8)
        with pytest.raises(ValueError):
            CgSkeleton(nproc=4, target_lb=0.9, target_pe=0.95)  # PE > LB
        with pytest.raises(ValueError):
            CgSkeleton(nproc=4, target_lb=0.9, target_pe=0.8, iterations=0)
        with pytest.raises(ValueError):
            CgSkeleton(nproc=4, target_lb=0.9, target_pe=0.8, base_compute=0.0)


class TestIsCommunication:
    def test_is_dominated_by_alltoall(self):
        """IS's PE of 8% comes from the key redistribution."""
        app = build_app("IS-32", iterations=2)
        trace, result = trace_of(app)
        pe = parallel_efficiency(trace, result.execution_time)
        assert pe < 0.15
        assert result.in_mpi_fraction() > 0.8


class TestPepcTwoPhases:
    def test_phase_imbalances_differ_from_total(self):
        app = build_app("PEPC-128", iterations=2)
        trace, _ = trace_of(app)
        phases = compute_times_by_phase(trace)
        assert set(phases) == {"tree-build", "force"}
        from repro.apps.imbalance import load_balance_of

        lb_tree = load_balance_of(phases["tree-build"])
        lb_force = load_balance_of(phases["force"])
        lb_total = load_balance(trace)
        # each phase is more imbalanced than the total (anti-correlation)
        assert lb_tree < 0.99
        assert lb_force < 0.99
        assert abs(lb_tree - lb_force) > 0.01 or lb_tree < lb_total

    def test_phase_heavy_ranks_differ(self):
        app = build_app("PEPC-128", iterations=1)
        assert int(np.argmax(app.tree_weights)) != int(np.argmax(app.force_weights))

    def test_max_algorithm_stretches_pepc_time(self):
        """The paper's PEPC effect: a single DVFS setting on two phases
        with different imbalance increases execution time."""
        from repro.core.balancer import PowerAwareLoadBalancer
        from repro.core.gears import uniform_gear_set

        app = build_app("PEPC-128", iterations=2)
        balancer = PowerAwareLoadBalancer(gear_set=uniform_gear_set(6))
        report = balancer.balance_app(app)
        assert 1.02 < report.normalized_time < 1.25


class TestCommBudget:
    def test_budget_formula(self):
        app = build_app("CG-32", iterations=1)
        expected = app.base_compute * (app.target_lb / app.target_pe - 1.0)
        assert app.comm_budget() == pytest.approx(expected)

    def test_sized_collective_fraction_validation(self):
        app = build_app("CG-32", iterations=1)
        with pytest.raises(ValueError):
            app.sized_collective("allreduce", fraction=1.5)

    def test_balanced_app_tiny_budget(self):
        # BT-MZ: PE ~ LB, so almost no communication budget
        app = build_app("BT-MZ-32", iterations=1)
        assert app.comm_budget() < 0.001 * app.base_compute * 10
