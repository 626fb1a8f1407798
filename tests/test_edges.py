"""Edge-case and failure-injection tests across modules.

Consolidates the awkward corners: boundary world sizes, zero-work
ranks, protocol boundaries, unicode metadata, and the failure modes a
user will hit first when feeding the library unusual input.
"""

import pytest

from repro.apps import build_app, vmpi
from repro.core.algorithms import MaxAlgorithm
from repro.core.balancer import PowerAwareLoadBalancer
from repro.core.gears import (
    exponential_gear_set,
    limited_continuous_set,
    overclocked,
    uniform_gear_set,
)
from repro.core.timemodel import BetaTimeModel
from repro.netsim.platform import PlatformConfig
from repro.netsim.simulator import MpiSimulator
from repro.simx.errors import DeadlockError
from repro.traces.jsonio import dumps_trace, loads_trace
from repro.traces.records import ComputeBurst
from repro.traces.columnar import ColumnarTrace

EASY = PlatformConfig(
    latency=0.0, bandwidth=1e9, send_overhead=0.0, recv_overhead=0.0,
    cpus_per_node=1, intra_node_speedup=1.0,
)


class TestBoundaryWorlds:
    def test_single_rank_app_runs(self):
        app = build_app("CG-1", iterations=2)
        result = MpiSimulator().run(app.programs())
        assert result.execution_time > 0.0
        assert result.nproc == 1

    def test_single_rank_balances_trivially(self):
        balancer = PowerAwareLoadBalancer(gear_set=uniform_gear_set(6))
        report = balancer.balance_app(build_app("MG-1", iterations=2))
        assert report.normalized_energy == pytest.approx(1.0)

    def test_two_rank_world(self):
        balancer = PowerAwareLoadBalancer(gear_set=uniform_gear_set(6))
        report = balancer.balance_app(build_app("BT-MZ-2", iterations=2))
        assert 0.0 < report.normalized_energy <= 1.0

    def test_two_gear_set_endpoints(self):
        gs = uniform_gear_set(2)
        assert gs.frequencies == pytest.approx((0.8, 2.3))
        gs = exponential_gear_set(2)
        assert gs.frequencies == pytest.approx((0.8, 2.3))


class TestZeroWork:
    def test_rank_with_zero_compute_in_balancing(self):
        """A completely idle rank gets the slowest gear, nothing breaks."""
        sim = MpiSimulator(platform=EASY)
        trace = sim.run(
            [
                [vmpi.compute(0.0), vmpi.barrier()],
                [vmpi.compute(1.0), vmpi.barrier()],
            ],
            record_trace=True,
        ).trace
        balancer = PowerAwareLoadBalancer(
            gear_set=uniform_gear_set(6), platform=EASY
        )
        report = balancer.balance_trace(trace)
        assert report.assignment.gears[0].frequency == pytest.approx(0.8)
        assert report.normalized_energy < 1.0

    def test_all_marker_trace_round_trips(self):
        t = ColumnarTrace.from_streams([[vmpi.marker("only", 0)]])
        t2 = loads_trace(dumps_trace(t))
        assert t2.total_records() == 1


class TestProtocolBoundary:
    def test_message_exactly_at_threshold_is_eager(self):
        platform = PlatformConfig(
            latency=0.0, bandwidth=1e9, eager_threshold=1000,
            send_overhead=0.0, recv_overhead=0.0,
            cpus_per_node=1, intra_node_speedup=1.0,
        )
        # eager: sender does not block even though nobody ever computes
        result = MpiSimulator(platform=platform).run(
            [
                [vmpi.send(1, 1000), vmpi.compute(0.5)],
                [vmpi.compute(1.0), vmpi.recv(0)],
            ]
        )
        assert result.end_times[0] == pytest.approx(0.5)

    def test_message_one_byte_over_threshold_rendezvous(self):
        platform = PlatformConfig(
            latency=0.0, bandwidth=1e9, eager_threshold=1000,
            send_overhead=0.0, recv_overhead=0.0,
            cpus_per_node=1, intra_node_speedup=1.0,
        )
        result = MpiSimulator(platform=platform).run(
            [
                [vmpi.send(1, 1001), vmpi.compute(0.5)],
                [vmpi.compute(1.0), vmpi.recv(0)],
            ]
        )
        # sender blocked until the recv posts at t=1
        assert result.end_times[0] > 1.0

    def test_zero_byte_rendezvous_impossible(self):
        # zero-byte messages are always eager (threshold >= 0)
        platform = PlatformConfig(
            latency=0.0, bandwidth=1e9, eager_threshold=0,
            send_overhead=0.0, recv_overhead=0.0,
            cpus_per_node=1, intra_node_speedup=1.0,
        )
        result = MpiSimulator(platform=platform).run(
            [[vmpi.send(1, 0), vmpi.compute(0.1)], [vmpi.recv(0)]]
        )
        assert result.end_times[0] == pytest.approx(0.1)


class TestOverheadAccounting:
    def test_send_recv_overheads_add_time(self):
        costly = PlatformConfig(
            latency=0.0, bandwidth=1e9, send_overhead=0.01, recv_overhead=0.02,
            cpus_per_node=1, intra_node_speedup=1.0,
        )
        result = MpiSimulator(platform=costly).run(
            [[vmpi.send(1, 10)], [vmpi.recv(0)]]
        )
        assert result.end_times[0] == pytest.approx(0.01)
        assert result.end_times[1] >= 0.02

    def test_intra_node_messages_faster(self):
        platform = PlatformConfig(
            latency=1e-3, bandwidth=1e9, cpus_per_node=2,
            intra_node_speedup=4.0, send_overhead=0.0, recv_overhead=0.0,
        )
        sim = MpiSimulator(platform=platform)
        same = sim.run([[vmpi.send(1, 0)], [vmpi.recv(0)], [vmpi.compute(0.0)]])
        cross = sim.run([[vmpi.send(2, 0)], [vmpi.compute(0.0)], [vmpi.recv(0)]])
        assert same.end_times[1] < cross.end_times[2]


class TestGuards:
    def test_max_events_stops_runaway(self):
        def forever():
            while True:
                yield vmpi.compute(1e-6)

        with pytest.raises(RuntimeError, match="max_events"):
            MpiSimulator(platform=EASY).run([list_like(forever())], max_events=50)

    def test_collective_arity_mismatch_deadlocks(self):
        with pytest.raises(DeadlockError):
            MpiSimulator(platform=EASY).run(
                [
                    [vmpi.barrier(), vmpi.barrier()],
                    [vmpi.barrier()],
                ]
            )

    def test_overclocked_twice_compounds(self):
        once = overclocked(limited_continuous_set(), 10.0)
        twice = overclocked(once, 10.0)
        assert twice.fmax == pytest.approx(2.3 * 1.21)


def list_like(gen):
    """A lazily-consumed program (exercises the iterator path)."""
    return gen


class TestUnicodeAndMeta:
    def test_unicode_trace_name_round_trips(self):
        t = ColumnarTrace.from_streams(
            [[ComputeBurst(1.0)], []],
            meta={"name": "seismic-wave-模拟", "β": 0.5},
        )
        t2 = loads_trace(dumps_trace(t))
        assert t2.meta["name"] == "seismic-wave-模拟"
        assert t2.meta["β"] == 0.5

    def test_balance_report_meta_carries_trace_meta(self):
        balancer = PowerAwareLoadBalancer(gear_set=uniform_gear_set(6))
        trace = balancer.trace_app(build_app("CG-8", iterations=2))
        trace.meta["study"] = "edge-test"
        report = balancer.balance_trace(trace)
        assert report.meta["trace_meta"]["study"] == "edge-test"


class TestAlgorithmEdges:
    def test_model_fmax_mismatch_with_gear_set_is_explicit(self):
        """A model fmax above the set ceiling: the heaviest rank's gear
        clamps and is flagged unattained."""
        model = BetaTimeModel(fmax=3.0, beta=0.5)
        a = MaxAlgorithm().assign([1.0, 2.0], uniform_gear_set(6), model)
        assert a.gears[1].frequency == pytest.approx(2.3)
        assert a.attained[1] is False

    def test_near_identical_times_fp_stability(self):
        times = [1.0, 1.0 + 1e-12, 1.0 - 1e-12]
        model = BetaTimeModel(fmax=2.3, beta=0.5)
        a = MaxAlgorithm().assign(times, uniform_gear_set(6), model)
        assert all(g.frequency == pytest.approx(2.3) for g in a.gears)
