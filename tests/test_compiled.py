"""The compiled replay kernel: bit-exact equivalence with the DES.

The contract under test (see ``repro.netsim.compiled``): for every
world the capability check accepts, ``CompiledProgram.evaluate`` and
``MpiSimulator`` produce *identical* results — same makespan, same
per-rank compute/comm seconds, same end times, same markers, compared
with ``np.array_equal`` (no tolerance).  Worlds outside the supported
subset must be rejected with :class:`UnsupportedWorldError` so the
``auto`` engine can fall back to the DES.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_app, vmpi
from repro.core.timemodel import BetaTimeModel
from repro.netsim.compiled import (
    CompiledReplayEngine,
    CompileError,
    UnsupportedWorldError,
    compile_world,
)
from repro.netsim.engines import ENGINE_NAMES, AutoReplayEngine, make_engine
from repro.netsim.enginestats import (
    process_engine_stats,
    reset_engine_stats,
)
from repro.netsim.platform import MYRINET_LIKE
from repro.netsim.simulator import MpiSimulator
from repro.simx.errors import DeadlockError

MODEL = BetaTimeModel(fmax=2.3)


def _both(programs, frequencies=None):
    """(DES result, compiled result) for one world."""
    programs = [list(p) for p in programs]  # apps may hand out generators
    des = MpiSimulator(MYRINET_LIKE, MODEL).run(
        programs, frequencies=frequencies
    )
    compiled = compile_world(programs, MYRINET_LIKE, MODEL).evaluate(
        frequencies
    )
    return des, compiled


def _assert_identical(des, compiled):
    assert compiled.engine == "compiled"
    assert des.engine == "des"
    assert np.array_equal(des.execution_time, compiled.execution_time)
    assert np.array_equal(des.compute_times, compiled.compute_times)
    assert np.array_equal(des.comm_times, compiled.comm_times)
    assert np.array_equal(des.end_times, compiled.end_times)
    assert des.markers == compiled.markers


# ---------------------------------------------------------------------------
# deterministic equivalence
# ---------------------------------------------------------------------------
class TestExactEquivalence:
    def test_eager_halo_world(self):
        nproc = 6
        programs = [
            [vmpi.compute(0.01 * (rank + 1))]
            + list(vmpi.halo_exchange_1d(rank, nproc, nbytes=4096))
            + [vmpi.allreduce(8)]
            for rank in range(nproc)
        ]
        _assert_identical(*_both(programs))

    def test_rendezvous_2d_halo_world(self):
        nproc = 8
        programs = [
            [vmpi.compute(0.005 * (rank + 1), beta=0.4)]
            + list(vmpi.halo_exchange_2d(rank, nproc, nbytes=200_000))
            + [vmpi.barrier()]
            for rank in range(nproc)
        ]
        freqs = np.linspace(0.9, 2.3, nproc)
        _assert_identical(*_both(programs, freqs))

    def test_blocking_rendezvous_pingpong(self):
        big = 500_000  # > eager_threshold: blocking rendezvous
        programs = [
            [vmpi.compute(0.02), vmpi.send(1, big, tag=7),
             vmpi.recv(1, tag=8)],
            [vmpi.compute(0.001), vmpi.recv(0, tag=7),
             vmpi.send(0, big, tag=8)],
        ]
        _assert_identical(*_both(programs, [1.1, 2.3]))

    def test_markers_and_mixed_collectives(self):
        nproc = 4
        programs = [
            [
                rec
                for it in range(3)
                for rec in (
                    vmpi.marker("iter", iteration=it),
                    vmpi.compute(0.002 * (rank + 1)),
                    vmpi.bcast(1024, root=0),
                    vmpi.allreduce(64),
                )
            ]
            for rank in range(nproc)
        ]
        des, compiled = _both(programs, [1.5, 2.3, 0.8, 2.0])
        _assert_identical(des, compiled)
        assert sum(len(per_rank) for per_rank in compiled.markers) == 3 * nproc

    def test_nonblocking_eager_and_rendezvous(self):
        nproc = 4
        programs = []
        for rank in range(nproc):
            left = (rank - 1) % nproc
            right = (rank + 1) % nproc
            programs.append([
                vmpi.irecv(left, tag=1, request=0),
                vmpi.isend(right, 100_000, tag=1, request=1),
                vmpi.compute(0.003 * (rank + 1)),
                vmpi.waitall([0, 1]),
                vmpi.irecv(right, tag=2, request=0),
                vmpi.isend(left, 512, tag=2, request=1),
                vmpi.wait(0),
                vmpi.wait(1),
            ])
        _assert_identical(*_both(programs, [2.3, 1.0, 1.7, 0.9]))

    def test_registered_apps_round_trip(self):
        for app_name in ("MG-32", "BT-MZ-32"):
            app = build_app(app_name, iterations=2)
            programs = app.programs()
            _assert_identical(*_both(programs))


# ---------------------------------------------------------------------------
# property-based: random vmpi worlds
# ---------------------------------------------------------------------------
@st.composite
def random_world(draw):
    nproc = draw(st.integers(min_value=2, max_value=6))
    iters = draw(st.integers(min_value=1, max_value=3))
    halo_bytes = draw(st.sampled_from([512, 8192, 40_000, 120_000]))
    coll = draw(st.sampled_from(["allreduce", "bcast", "barrier", None]))
    base = draw(st.floats(min_value=1e-4, max_value=0.05))
    programs = []
    for rank in range(nproc):
        recs = []
        for it in range(iters):
            recs.append(vmpi.compute(base * (1 + rank + it)))
            recs.extend(vmpi.halo_exchange_1d(rank, nproc, nbytes=halo_bytes,
                                              tag=it))
            if coll == "allreduce":
                recs.append(vmpi.allreduce(64))
            elif coll == "bcast":
                recs.append(vmpi.bcast(2048, root=0))
            elif coll == "barrier":
                recs.append(vmpi.barrier())
        programs.append(recs)
    freqs = [
        draw(st.floats(min_value=0.8, max_value=2.3)) for _ in range(nproc)
    ]
    return programs, freqs


class TestPropertyEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(random_world())
    def test_random_worlds_match_des_exactly(self, world):
        programs, freqs = world
        try:
            program = compile_world(programs, MYRINET_LIKE, MODEL)
        except UnsupportedWorldError:
            return  # capability check declined; auto would use the DES
        des = MpiSimulator(MYRINET_LIKE, MODEL).run(
            [list(p) for p in programs], frequencies=freqs
        )
        _assert_identical(des, program.evaluate(freqs))

    @settings(max_examples=15, deadline=None)
    @given(random_world(), st.integers(min_value=2, max_value=5))
    def test_evaluate_many_matches_scalar_evaluate(self, world, k):
        programs, freqs = world
        try:
            program = compile_world(programs, MYRINET_LIKE, MODEL)
        except UnsupportedWorldError:
            return
        rng = np.random.default_rng(k)
        batch = np.vstack(
            [freqs] + [rng.uniform(0.8, 2.3, len(freqs))
                       for _ in range(k - 1)]
        )
        many = program.evaluate_many(batch)
        for row in range(k):
            one = program.evaluate(batch[row])
            assert many["execution_time"][row] == one.execution_time
            assert np.array_equal(many["compute_times"][row],
                                  one.compute_times)
            assert np.array_equal(many["comm_times"][row], one.comm_times)
            assert np.array_equal(many["end_times"][row], one.end_times)

    def test_acceptance_rate_is_nontrivial(self):
        # The whole point: ordinary vmpi worlds compile.  Every
        # registered app's default world must be accepted.
        engine = CompiledReplayEngine(MYRINET_LIKE, MODEL)
        app = build_app("CG-32", iterations=1)
        ok, reason = engine.supports(
            MpiSimulator().run(app.programs(), record_trace=True).trace
        )
        assert ok, reason


# ---------------------------------------------------------------------------
# capability boundaries
# ---------------------------------------------------------------------------
class TestCapabilityChecks:
    def test_wildcard_recv_rejected(self):
        programs = [
            [vmpi.send(1, 64)],
            [vmpi.recv()],  # ANY_SOURCE
        ]
        with pytest.raises(UnsupportedWorldError, match="ANY_SOURCE|wildcard"):
            compile_world(programs, MYRINET_LIKE, MODEL)

    def test_bus_contention_rejected(self):
        constrained = dataclasses.replace(MYRINET_LIKE, buses=2)
        programs = [[vmpi.send(1, 64)], [vmpi.recv(0, tag=0)]]
        with pytest.raises(UnsupportedWorldError, match="bus"):
            compile_world(programs, constrained, MODEL)

    def test_decomposed_collectives_rejected(self):
        decomposed = dataclasses.replace(
            MYRINET_LIKE, decompose_collectives=True
        )
        programs = [[vmpi.allreduce(64)], [vmpi.allreduce(64)]]
        with pytest.raises(UnsupportedWorldError, match="decompose"):
            compile_world(programs, decomposed, MODEL)

    def test_channel_count_mismatch_is_compile_error(self):
        programs = [[vmpi.send(1, 64), vmpi.send(1, 64)],
                    [vmpi.recv(0, tag=0)]]
        with pytest.raises(CompileError):
            compile_world(programs, MYRINET_LIKE, MODEL)

    def test_deadlock_is_compile_error(self):
        big = 500_000  # rendezvous: both senders block
        programs = [
            [vmpi.send(1, big), vmpi.recv(1, tag=0)],
            [vmpi.send(0, big), vmpi.recv(0, tag=0)],
        ]
        with pytest.raises(CompileError, match="deadlock|stuck"):
            compile_world(programs, MYRINET_LIKE, MODEL)

    def test_auto_falls_back_to_des_on_deadlock(self):
        # The DES must own the authentic error, not CompileError.
        big = 500_000
        programs = [
            [vmpi.send(1, big), vmpi.recv(1, tag=0)],
            [vmpi.send(0, big), vmpi.recv(0, tag=0)],
        ]
        engine = AutoReplayEngine(MYRINET_LIKE, MODEL)
        with pytest.raises(DeadlockError):
            engine.run(programs)

    def test_record_intervals_routes_to_des(self):
        programs = [[vmpi.compute(0.01)], [vmpi.compute(0.02)]]
        engine = AutoReplayEngine(MYRINET_LIKE, MODEL)
        result = engine.run(
            [list(p) for p in programs], record_intervals=True
        )
        assert result.engine == "des"
        assert result.intervals is not None

    def test_compiled_engine_refuses_record_flags(self):
        programs = [[vmpi.compute(0.01)], [vmpi.compute(0.02)]]
        engine = CompiledReplayEngine(MYRINET_LIKE, MODEL)
        with pytest.raises(UnsupportedWorldError):
            engine.run([list(p) for p in programs], record_intervals=True)
        with pytest.raises(UnsupportedWorldError):
            engine.run([list(p) for p in programs], record_trace=True)


# ---------------------------------------------------------------------------
# auto routing + observability
# ---------------------------------------------------------------------------
class TestAutoEngine:
    def test_supported_world_uses_compiled(self):
        programs = [[vmpi.compute(0.01), vmpi.allreduce(64)]
                    for _ in range(4)]
        engine = AutoReplayEngine(MYRINET_LIKE, MODEL)
        result = engine.run([list(p) for p in programs])
        assert result.engine == "compiled"

    def test_fallback_increments_counter(self):
        reset_engine_stats()
        programs = [[vmpi.send(1, 64)], [vmpi.recv()]]  # wildcard
        engine = AutoReplayEngine(MYRINET_LIKE, MODEL)
        result = engine.run([list(p) for p in programs])
        assert result.engine == "des"
        stats = process_engine_stats()
        assert stats["auto_fallbacks"] == 1
        assert stats["des_runs"] == 1

    def test_compiled_run_updates_counters(self):
        reset_engine_stats()
        programs = [[vmpi.compute(0.01), vmpi.allreduce(64)]
                    for _ in range(4)]
        engine = CompiledReplayEngine(MYRINET_LIKE, MODEL)
        result = engine.run([list(p) for p in programs])
        stats = process_engine_stats()
        assert stats["compiled_compiles"] == 1
        assert stats["compiled_runs"] == 1
        assert stats["compiled_evaluations"] == 1
        assert stats["compiled_instructions"] == result.events
        assert stats["compiled_seconds"] >= 0.0

    def test_make_engine_names(self):
        assert make_engine("des").name == "des"
        assert make_engine("compiled").name == "compiled"
        assert make_engine("auto").name == "auto"
        assert ENGINE_NAMES == ("des", "compiled", "auto")
        with pytest.raises(ValueError, match="engine"):
            make_engine("turbo")

    def test_validate_mode_cross_checks(self):
        programs = [[vmpi.compute(0.01 * (r + 1)), vmpi.allreduce(64)]
                    for r in range(4)]
        engine = CompiledReplayEngine(MYRINET_LIKE, MODEL, validate=True)
        result = engine.run([list(p) for p in programs])
        assert result.engine == "compiled"


class TestCompileCache:
    def test_compile_trace_caches_per_trace(self):
        app = build_app("MG-32", iterations=1)
        trace = MpiSimulator().run(app.programs(), record_trace=True).trace
        engine = CompiledReplayEngine(MYRINET_LIKE, MODEL)
        first = engine.compile_trace(trace)
        second = engine.compile_trace(trace)
        assert first is second

    def test_negative_cache_re_raises(self):
        from repro.traces.columnar import ColumnarTrace

        programs = [[vmpi.send(1, 64)], [vmpi.recv()]]
        trace = ColumnarTrace.from_streams(programs)
        engine = CompiledReplayEngine(MYRINET_LIKE, MODEL)
        with pytest.raises(UnsupportedWorldError):
            engine.compile_trace(trace)
        with pytest.raises(UnsupportedWorldError):
            engine.compile_trace(trace)


class TestEvaluateManyValidation:
    def _program(self):
        programs = [[vmpi.compute(0.01), vmpi.allreduce(64)]
                    for _ in range(4)]
        return compile_world(programs, MYRINET_LIKE, MODEL)

    def test_wrong_shape_rejected(self):
        program = self._program()
        with pytest.raises(ValueError):
            program.evaluate_many(np.ones((3, 7)))

    def test_nonpositive_frequency_rejected(self):
        program = self._program()
        bad = np.ones((2, 4))
        bad[1, 2] = 0.0
        with pytest.raises(ValueError):
            program.evaluate_many(bad)


# ---------------------------------------------------------------------------
# end-to-end identity: engine choice never changes reports
# ---------------------------------------------------------------------------
class TestEngineIdentity:
    def test_runner_reports_byte_identical(self, tmp_path):
        from repro.cli import build_gear_set
        from repro.core.algorithms import MaxAlgorithm
        from repro.experiments.runner import Runner, RunnerConfig

        payloads = {}
        for engine in ("des", "auto"):
            runner = Runner(RunnerConfig(iterations=2, engine=engine))
            report = runner.balance(
                "BT-MZ-32", build_gear_set("uniform:6"), MaxAlgorithm()
            )
            payloads[engine] = json.dumps(report.to_json(), sort_keys=True)
        assert payloads["des"] == payloads["auto"]

    def test_balancer_on_compiled_engine_matches_des(self):
        from repro.core.balancer import PowerAwareLoadBalancer
        from repro.core.gears import uniform_gear_set

        reports = {}
        for engine in ("des", "auto"):
            balancer = PowerAwareLoadBalancer(
                gear_set=uniform_gear_set(6), engine=engine
            )
            trace = balancer.trace_app(build_app("MG-32", iterations=2))
            reports[engine] = balancer.balance_trace(trace)
        des, auto = reports["des"], reports["auto"]
        assert des.new_time == auto.new_time
        assert des.original_time == auto.original_time
        assert des.normalized_energy == auto.normalized_energy
        assert list(des.assignment.frequencies) == list(
            auto.assignment.frequencies
        )
