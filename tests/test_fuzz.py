"""Property-based fuzzing of the simulator's MPI semantics.

Generates random — but well-formed — communication worlds and asserts
the invariants that must hold for *any* of them: completion (no
deadlock), determinism, time conservation, and monotonicity under
frequency scaling.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import vmpi
from repro.core.timemodel import BetaTimeModel
from repro.netsim.platform import PlatformConfig
from repro.netsim.simulator import MpiSimulator
from repro.traces.columnar import ColumnarTrace

PLATFORM = PlatformConfig(
    latency=1e-5, bandwidth=1e8, eager_threshold=4096,
    send_overhead=0.0, recv_overhead=0.0,
    cpus_per_node=2, intra_node_speedup=2.0,
)


@st.composite
def comm_worlds(draw):
    """A random world: compute bursts + matched nonblocking traffic +
    an aligned collective schedule.  Deadlock-free by construction."""
    nproc = draw(st.integers(2, 5))
    nmsg = draw(st.integers(0, 12))
    messages = [
        (
            draw(st.integers(0, nproc - 1)),  # src
            draw(st.integers(0, nproc - 2)),  # dst (shifted around src)
            draw(st.integers(0, 20_000)),  # nbytes: spans eager/rendezvous
        )
        for _ in range(nmsg)
    ]
    burst = [
        [draw(st.floats(0.0, 0.01)) for _ in range(2)] for _ in range(nproc)
    ]
    colls = draw(
        st.lists(
            st.sampled_from(["barrier", "allreduce", "alltoall", "bcast"]),
            max_size=3,
        )
    )
    return nproc, messages, burst, colls


def build_programs(nproc, messages, bursts, colls):
    programs = [[] for _ in range(nproc)]
    requests = [[] for _ in range(nproc)]
    next_req = [0] * nproc
    for rank in range(nproc):
        programs[rank].append(vmpi.compute(bursts[rank][0]))
    for i, (src, dst_raw, nbytes) in enumerate(messages):
        dst = (src + 1 + dst_raw) % nproc  # never a self-message
        tag = i  # unique tag: deterministic matching
        req_s = next_req[src]
        next_req[src] += 1
        programs[src].append(vmpi.isend(dst, nbytes, tag=tag, request=req_s))
        requests[src].append(req_s)
        req_r = next_req[dst]
        next_req[dst] += 1
        programs[dst].append(vmpi.irecv(src, tag=tag, request=req_r))
        requests[dst].append(req_r)
    for rank in range(nproc):
        if requests[rank]:
            programs[rank].append(vmpi.waitall(requests[rank]))
        for op in colls:
            programs[rank].append(
                vmpi.barrier() if op == "barrier"
                else getattr(vmpi, op)(512)
            )
        programs[rank].append(vmpi.compute(bursts[rank][1]))
    return programs


class TestFuzzedWorlds:
    @settings(max_examples=60, deadline=None)
    @given(world=comm_worlds())
    def test_completes_and_conserves_time(self, world):
        nproc, messages, bursts, colls = world
        programs = build_programs(nproc, messages, bursts, colls)
        trace = ColumnarTrace.from_streams([list(p) for p in programs])
        trace.validate()

        sim = MpiSimulator(platform=PLATFORM)
        result = sim.run_trace(trace)

        # compute time conservation: exactly the generated bursts
        expected = np.array([sum(b) for b in bursts])
        assert result.compute_times == pytest.approx(expected)
        # nobody ends before their own work, nobody after the app end
        assert (result.end_times <= result.execution_time + 1e-12).all()
        assert (result.end_times >= expected - 1e-12).all()
        # comm time is never negative and bounded by the run
        assert (result.comm_times >= -1e-12).all()
        assert (result.comm_times <= result.execution_time + 1e-12).all()

    @settings(max_examples=30, deadline=None)
    @given(world=comm_worlds())
    def test_deterministic(self, world):
        nproc, messages, bursts, colls = world
        sim = MpiSimulator(platform=PLATFORM)
        r1 = sim.run(build_programs(nproc, messages, bursts, colls))
        r2 = sim.run(build_programs(nproc, messages, bursts, colls))
        assert r1.execution_time == r2.execution_time
        assert r1.events == r2.events
        assert r1.comm_times.tolist() == r2.comm_times.tolist()

    @settings(max_examples=30, deadline=None)
    @given(world=comm_worlds(), f=st.floats(0.4, 2.3))
    def test_slower_cpus_never_speed_the_run_up(self, world, f):
        nproc, messages, bursts, colls = world
        sim = MpiSimulator(
            platform=PLATFORM, time_model=BetaTimeModel(fmax=2.3, beta=0.5)
        )
        nominal = sim.run(build_programs(nproc, messages, bursts, colls))
        slowed = sim.run(
            build_programs(nproc, messages, bursts, colls), frequencies=f
        )
        assert slowed.execution_time >= nominal.execution_time - 1e-12

    @settings(max_examples=30, deadline=None)
    @given(world=comm_worlds())
    def test_replay_of_recording_matches(self, world):
        nproc, messages, bursts, colls = world
        sim = MpiSimulator(platform=PLATFORM)
        live = sim.run(
            build_programs(nproc, messages, bursts, colls), record_trace=True
        )
        replay = sim.run_trace(live.trace)
        assert replay.execution_time == pytest.approx(live.execution_time)
        assert replay.events == live.events
