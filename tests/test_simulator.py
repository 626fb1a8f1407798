"""Integration-grade unit tests for the MPI replay simulator."""

import pytest

from repro.core.timemodel import BetaTimeModel
from repro.netsim.platform import PlatformConfig
from repro.netsim.simulator import MpiSimulator
from repro.simx.errors import DeadlockError, ProcessFailure, SimulationError
from repro.traces.records import ANY_SOURCE, ANY_TAG
from repro.apps import vmpi

# A platform where arithmetic is easy: 1 B/ns bandwidth, no latency,
# no overheads, eager below 1 KiB.
EASY = PlatformConfig(
    latency=0.0,
    bandwidth=1e9,
    eager_threshold=1024,
    send_overhead=0.0,
    recv_overhead=0.0,
    cpus_per_node=1,
    intra_node_speedup=1.0,
)


def run(programs, platform=EASY, **kwargs):
    return MpiSimulator(platform=platform).run(programs, **kwargs)


class TestComputeOnly:
    def test_single_rank_timing(self):
        result = run([[vmpi.compute(1.5), vmpi.compute(0.5)]])
        assert result.execution_time == pytest.approx(2.0)
        assert result.compute_times[0] == pytest.approx(2.0)
        assert result.comm_times[0] == 0.0

    def test_independent_ranks_run_in_parallel(self):
        result = run([[vmpi.compute(1.0)], [vmpi.compute(3.0)]])
        assert result.execution_time == pytest.approx(3.0)
        assert result.end_times.tolist() == pytest.approx([1.0, 3.0])

    def test_zero_duration_burst_free(self):
        result = run([[vmpi.compute(0.0)]])
        assert result.execution_time == 0.0

    def test_empty_world_rejected(self):
        with pytest.raises(ValueError):
            run([])


class TestEagerPointToPoint:
    def test_sender_does_not_block(self):
        result = run(
            [
                [vmpi.send(1, 100), vmpi.compute(1.0)],
                [vmpi.compute(2.0), vmpi.recv(0)],
            ]
        )
        # sender finishes its compute at t=1 regardless of the receiver
        assert result.end_times[0] == pytest.approx(1.0)

    def test_receiver_waits_for_arrival(self):
        platform = PlatformConfig(
            latency=0.5, bandwidth=1e9, eager_threshold=1024,
            send_overhead=0.0, recv_overhead=0.0,
            cpus_per_node=1, intra_node_speedup=1.0,
        )
        result = run(
            [[vmpi.send(1, 0)], [vmpi.recv(0)]],
            platform=platform,
        )
        # message sent at t=0, arrives at t=0.5
        assert result.end_times[1] == pytest.approx(0.5)

    def test_early_receiver_blocks_until_send(self):
        result = run(
            [
                [vmpi.compute(2.0), vmpi.send(1, 100)],
                [vmpi.recv(0)],
            ]
        )
        assert result.end_times[1] == pytest.approx(2.0)
        assert result.comm_times[1] == pytest.approx(2.0)

    def test_wire_time_from_bandwidth(self):
        platform = PlatformConfig(
            latency=0.0, bandwidth=100.0, eager_threshold=1024,
            send_overhead=0.0, recv_overhead=0.0,
            cpus_per_node=1, intra_node_speedup=1.0,
        )
        result = run([[vmpi.send(1, 500)], [vmpi.recv(0)]], platform=platform)
        assert result.end_times[1] == pytest.approx(5.0)

    def test_wildcard_recv(self):
        result = run(
            [
                [vmpi.compute(1.0), vmpi.send(2, 10, tag=7)],
                [vmpi.compute(0.5), vmpi.send(2, 10, tag=8)],
                [vmpi.recv(ANY_SOURCE, ANY_TAG), vmpi.recv(ANY_SOURCE, ANY_TAG)],
            ]
        )
        assert result.end_times[2] == pytest.approx(1.0)

    def test_tag_selective_recv(self):
        result = run(
            [
                [vmpi.send(1, 10, tag=1), vmpi.compute(1.0), vmpi.send(1, 10, tag=2)],
                [vmpi.recv(0, tag=2), vmpi.recv(0, tag=1)],
            ]
        )
        # the tag-2 message only exists at t=1
        assert result.end_times[1] == pytest.approx(1.0)


class TestRendezvous:
    def test_sender_blocks_until_receiver_posts(self):
        big = EASY.eager_threshold + 1
        result = run(
            [
                [vmpi.send(1, big)],
                [vmpi.compute(3.0), vmpi.recv(0)],
            ]
        )
        # transfer can only start at t=3 when the recv posts
        assert result.end_times[0] == pytest.approx(3.0 + big / 1e9)
        assert result.comm_times[0] == pytest.approx(3.0 + big / 1e9)

    def test_recv_first_transfer_starts_at_send(self):
        big = EASY.eager_threshold + 1
        result = run(
            [
                [vmpi.compute(2.0), vmpi.send(1, big)],
                [vmpi.recv(0)],
            ]
        )
        assert result.end_times[1] == pytest.approx(2.0 + big / 1e9)

    def test_symmetric_exchange_pattern_no_deadlock(self):
        big = 256 * 1024
        programs = [
            list(vmpi.exchange(0, [1], big)),
            list(vmpi.exchange(1, [0], big)),
        ]
        result = run(programs)
        assert result.execution_time > 0.0

    def test_blocking_ring_of_sends_would_deadlock(self):
        """Head-to-head blocking rendezvous sends: a real MPI deadlock,
        and the simulator must say so rather than hang."""
        big = EASY.eager_threshold + 1
        programs = [
            [vmpi.send(1, big), vmpi.recv(1)],
            [vmpi.send(0, big), vmpi.recv(0)],
        ]
        with pytest.raises(DeadlockError):
            run(programs)


class TestNonBlocking:
    def test_isend_irecv_waitall(self):
        result = run(
            [
                [vmpi.isend(1, 10, request=0), vmpi.compute(1.0), vmpi.wait(0)],
                [vmpi.irecv(0, request=0), vmpi.compute(2.0), vmpi.wait(0)],
            ]
        )
        assert result.execution_time == pytest.approx(2.0)

    def test_irecv_overlaps_compute(self):
        """Communication hidden behind computation costs nothing extra."""
        result = run(
            [
                [vmpi.compute(1.0), vmpi.send(1, 100)],
                [vmpi.irecv(0, request=1), vmpi.compute(5.0), vmpi.wait(1)],
            ]
        )
        assert result.end_times[1] == pytest.approx(5.0)
        assert result.comm_times[1] == pytest.approx(0.0)

    def test_wait_on_unknown_request_fails(self):
        with pytest.raises((ProcessFailure, SimulationError)):
            run([[vmpi.wait(7)]])

    def test_finishing_with_outstanding_request_fails(self):
        with pytest.raises((ProcessFailure, SimulationError)):
            run(
                [
                    [vmpi.isend(1, 10, request=0)],
                    [vmpi.recv(0)],
                ]
            )

    def test_request_id_reuse_after_wait(self):
        result = run(
            [
                [
                    vmpi.isend(1, 10, request=0),
                    vmpi.wait(0),
                    vmpi.isend(1, 10, request=0),
                    vmpi.wait(0),
                ],
                [vmpi.recv(0), vmpi.recv(0)],
            ]
        )
        assert result.events > 0


class TestCollectives:
    def test_barrier_synchronises(self):
        platform = PlatformConfig(
            latency=0.25, bandwidth=1e9, send_overhead=0.0, recv_overhead=0.0,
            cpus_per_node=1, intra_node_speedup=1.0,
        )
        result = run(
            [
                [vmpi.compute(1.0), vmpi.barrier()],
                [vmpi.compute(3.0), vmpi.barrier()],
            ],
            platform=platform,
        )
        # all leave at max(entry)=3 plus barrier cost lat*ceil(log2 2)=0.25
        assert result.end_times.tolist() == pytest.approx([3.25, 3.25])

    def test_early_rank_wait_counted_as_comm(self):
        result = run(
            [
                [vmpi.compute(1.0), vmpi.barrier()],
                [vmpi.compute(3.0), vmpi.barrier()],
            ]
        )
        assert result.comm_times[0] == pytest.approx(2.0)
        assert result.comm_times[1] == pytest.approx(0.0)

    def test_allreduce_cost_added(self):
        platform = PlatformConfig(
            latency=0.0, bandwidth=100.0, send_overhead=0.0, recv_overhead=0.0,
            cpus_per_node=1, intra_node_speedup=1.0,
        )
        result = run(
            [[vmpi.allreduce(100)], [vmpi.allreduce(100)]], platform=platform
        )
        # 2 * (0 + 100/100) * 1 step = 2.0
        assert result.execution_time == pytest.approx(2.0)

    def test_mismatched_op_fails_loudly(self):
        with pytest.raises((ProcessFailure, SimulationError)):
            run([[vmpi.barrier()], [vmpi.allreduce(8)]])

    def test_mismatched_root_fails_loudly(self):
        with pytest.raises((ProcessFailure, SimulationError)):
            run([[vmpi.bcast(8, root=0)], [vmpi.bcast(8, root=1)]])

    def test_missing_participant_deadlocks(self):
        with pytest.raises(DeadlockError):
            run([[vmpi.barrier()], [vmpi.compute(1.0)]])

    def test_max_nbytes_across_ranks_used(self):
        platform = PlatformConfig(
            latency=0.0, bandwidth=100.0, send_overhead=0.0, recv_overhead=0.0,
            cpus_per_node=1, intra_node_speedup=1.0,
        )
        result = run(
            [[vmpi.allreduce(100)], [vmpi.allreduce(200)]], platform=platform
        )
        assert result.execution_time == pytest.approx(4.0)

    def test_sequence_of_collectives(self):
        result = run(
            [
                [vmpi.barrier(), vmpi.allreduce(8), vmpi.barrier()],
                [vmpi.barrier(), vmpi.allreduce(8), vmpi.barrier()],
            ]
        )
        assert result.events > 0


class TestFrequencyScaling:
    def test_burst_durations_scale_with_beta_model(self):
        sim = MpiSimulator(
            platform=EASY, time_model=BetaTimeModel(fmax=2.3, beta=0.5)
        )
        result = sim.run([[vmpi.compute(1.0)]], frequencies=[1.15])
        assert result.execution_time == pytest.approx(1.5)

    def test_scalar_frequency_broadcasts(self):
        sim = MpiSimulator(platform=EASY)
        result = sim.run(
            [[vmpi.compute(1.0)], [vmpi.compute(1.0)]], frequencies=1.15
        )
        assert result.compute_times.tolist() == pytest.approx([1.5, 1.5])

    def test_per_burst_beta_override(self):
        sim = MpiSimulator(platform=EASY)
        result = sim.run(
            [[vmpi.compute(1.0, beta=1.0), vmpi.compute(1.0, beta=0.0)]],
            frequencies=[1.15],
        )
        # beta=1 doubles; beta=0 unchanged
        assert result.execution_time == pytest.approx(2.0 + 1.0)

    def test_communication_unaffected_by_frequency(self):
        platform = PlatformConfig(
            latency=1.0, bandwidth=1e9, send_overhead=0.0, recv_overhead=0.0,
            cpus_per_node=1, intra_node_speedup=1.0,
        )
        sim = MpiSimulator(platform=platform)
        result = sim.run(
            [[vmpi.send(1, 0)], [vmpi.recv(0)]], frequencies=[0.8, 0.8]
        )
        assert result.end_times[1] == pytest.approx(1.0)

    def test_bad_frequency_shapes_rejected(self):
        sim = MpiSimulator(platform=EASY)
        with pytest.raises(ValueError):
            sim.run([[vmpi.compute(1.0)]], frequencies=[1.0, 2.0])
        with pytest.raises(ValueError):
            sim.run([[vmpi.compute(1.0)]], frequencies=[-1.0])


class TestRecording:
    def test_trace_recording_captures_ops(self):
        ops = [vmpi.compute(1.0), vmpi.allreduce(8), vmpi.marker("iter", 0)]
        result = run(
            [list(ops), [vmpi.compute(0.5), vmpi.allreduce(8), vmpi.marker("iter", 0)]],
            record_trace=True,
        )
        assert result.trace is not None
        assert result.trace[0].records == ops

    def test_intervals_cover_activity(self):
        result = run(
            [
                [vmpi.compute(1.0), vmpi.barrier()],
                [vmpi.compute(2.0), vmpi.barrier()],
            ],
            record_intervals=True,
        )
        ivs = result.intervals[0]
        kinds = [iv.kind for iv in ivs]
        assert kinds == ["compute", "collective"]
        assert ivs[0].duration == pytest.approx(1.0)
        assert ivs[1].duration == pytest.approx(1.0)  # waiting for rank 1

    def test_markers_timestamped(self):
        result = run(
            [[vmpi.compute(1.0), vmpi.marker("mid", 2)]], record_intervals=True
        )
        marks = result.markers[0]
        assert len(marks) == 1
        assert marks[0].time == pytest.approx(1.0)
        assert marks[0].iteration == 2

    def test_no_intervals_by_default(self):
        result = run([[vmpi.compute(1.0)]])
        assert result.intervals is None

    def test_markers_stamped_only_with_intervals(self):
        result = run([[vmpi.compute(1.0), vmpi.marker("mid", 2)]])
        assert result.markers is None


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        def programs():
            return [
                [vmpi.compute(0.3), vmpi.send(1, 10**5), vmpi.allreduce(64)],
                [vmpi.compute(0.7), vmpi.recv(0), vmpi.allreduce(64)],
            ]

        r1 = run(programs())
        r2 = run(programs())
        assert r1.execution_time == r2.execution_time
        assert r1.compute_times.tolist() == r2.compute_times.tolist()
        assert r1.comm_times.tolist() == r2.comm_times.tolist()
        assert r1.events == r2.events


class TestBusContention:
    def test_single_bus_serialises_transfers(self):
        base = PlatformConfig(
            latency=0.0, bandwidth=100.0, eager_threshold=10**6,
            send_overhead=0.0, recv_overhead=0.0,
            cpus_per_node=1, intra_node_speedup=1.0,
        )
        contended = PlatformConfig(
            latency=0.0, bandwidth=100.0, eager_threshold=10**6, buses=1,
            send_overhead=0.0, recv_overhead=0.0,
            cpus_per_node=1, intra_node_speedup=1.0,
        )
        programs = lambda: [
            [vmpi.send(2, 100)],
            [vmpi.send(3, 100)],
            [vmpi.recv(0)],
            [vmpi.recv(1)],
        ]
        free = run(programs(), platform=base)
        busy = run(programs(), platform=contended)
        assert free.execution_time == pytest.approx(1.0)
        assert busy.execution_time == pytest.approx(2.0)

    def test_many_buses_equal_unlimited(self):
        many = PlatformConfig(
            latency=0.0, bandwidth=100.0, eager_threshold=10**6, buses=16,
            send_overhead=0.0, recv_overhead=0.0,
            cpus_per_node=1, intra_node_speedup=1.0,
        )
        programs = lambda: [
            [vmpi.send(2, 100)],
            [vmpi.send(3, 100)],
            [vmpi.recv(0)],
            [vmpi.recv(1)],
        ]
        assert run(programs(), platform=many).execution_time == pytest.approx(1.0)


class TestErrors:
    def test_self_send_rejected(self):
        with pytest.raises((ProcessFailure, SimulationError)):
            run([[vmpi.send(0, 10)]])

    def test_unmatched_recv_deadlocks_with_diagnostics(self):
        with pytest.raises(DeadlockError) as exc:
            run([[vmpi.recv(1)], [vmpi.compute(1.0)]])
        assert "matcher" in str(exc.value)


class TestRunTrace:
    def test_replay_matches_live_run(self, fast_platform):
        def programs():
            return [
                [vmpi.compute(0.4), vmpi.send(1, 2048), vmpi.allreduce(128)],
                [vmpi.compute(0.9), vmpi.recv(0), vmpi.allreduce(128)],
            ]

        sim = MpiSimulator(platform=fast_platform)
        live = sim.run(programs(), record_trace=True)
        replay = sim.run_trace(live.trace)
        assert replay.execution_time == pytest.approx(live.execution_time)
        assert replay.compute_times.tolist() == pytest.approx(
            live.compute_times.tolist()
        )

    def test_replay_carries_trace_meta(self, fast_platform):
        sim = MpiSimulator(platform=fast_platform)
        live = sim.run(
            [[vmpi.compute(0.1)]], record_trace=True, meta={"name": "X"}
        )
        replay = sim.run_trace(live.trace)
        assert replay.meta["name"] == "X"
