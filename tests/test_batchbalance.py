"""The batched balance planner: byte-identity with the scalar path.

The contract under test (see ``repro.core.batchbalance``): for any
candidate list, :meth:`BatchBalancePlanner.plan_trace` emits reports
whose ``to_json()`` payloads are *byte-identical* (via ``json.dumps``
with sorted keys) to running
:meth:`~repro.core.balancer.PowerAwareLoadBalancer.balance_trace` once
per candidate — on supported worlds (chunked compiled pricing) and on
worlds the compiled kernel rejects (per-candidate DES fallback) alike.
The satellites ride along: baseline-replay memoisation, the vectorised
energy accountant, the engine-stat batch counters, and the cache
interop of :meth:`~repro.experiments.runner.Runner.balance_many`.
"""

from __future__ import annotations

import copy
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_app, vmpi
from repro.core.algorithms import AvgAlgorithm, MaxAlgorithm
from repro.core.balancer import PowerAwareLoadBalancer, nominal_replay
from repro.core.batchbalance import (
    DEFAULT_CHUNK_SIZE,
    BatchBalancePlanner,
    SweepCandidate,
)
from repro.core.energy import EnergyAccountant
from repro.core.gears import (
    NOMINAL_FMAX,
    Gear,
    exponential_gear_set,
    limited_continuous_set,
    overclocked,
    uniform_gear_set,
)
from repro.core.gearopt import GearSetOptimizer
from repro.core.timemodel import BetaTimeModel
from repro.experiments.runner import Runner, RunnerConfig
from repro.netsim.enginestats import process_engine_stats, reset_engine_stats
from repro.netsim.platform import MYRINET_LIKE
from repro.netsim.simulator import MpiSimulator

MODEL = BetaTimeModel(fmax=NOMINAL_FMAX)
#: Bus contention is outside the compiled subset: every replay of a
#: trace on this platform goes through the per-candidate DES fallback.
BUSY_PLATFORM = dataclasses.replace(MYRINET_LIKE, buses=2)


def record_trace(programs, platform=MYRINET_LIKE, name="world"):
    result = MpiSimulator(platform, MODEL).run(
        [list(p) for p in programs], record_trace=True, meta={"name": name}
    )
    trace = result.trace
    trace.meta.setdefault("nproc", trace.nproc)
    return trace


def skewed_programs(nproc=4, iters=2, base=0.004, halo_bytes=4096):
    programs = []
    for rank in range(nproc):
        recs = []
        for it in range(iters):
            recs.append(vmpi.compute(base * (1 + rank + it)))
            recs.extend(
                vmpi.halo_exchange_1d(rank, nproc, nbytes=halo_bytes, tag=it)
            )
        programs.append(recs)
    return programs


def report_bytes(report):
    return json.dumps(report.to_json(), sort_keys=True)


def scalar_reports(trace, candidates, platform=MYRINET_LIKE, engine="auto"):
    """The K scalar balances a batch must reproduce byte-for-byte."""
    out = []
    for cand in candidates:
        balancer = PowerAwareLoadBalancer(
            gear_set=cand.gear_set,
            algorithm=cand.algorithm or MaxAlgorithm(),
            time_model=MODEL,
            platform=platform,
            engine=engine,
        )
        out.append(balancer.balance_trace(copy.deepcopy(trace)))
    return out


GEAR_BUILDERS = (
    lambda: uniform_gear_set(3),
    lambda: uniform_gear_set(6),
    lambda: exponential_gear_set(4),
    lambda: limited_continuous_set(),
    lambda: overclocked(limited_continuous_set(), 10.0),
)


@st.composite
def sweep_world(draw):
    nproc = draw(st.integers(min_value=2, max_value=5))
    iters = draw(st.integers(min_value=1, max_value=2))
    halo_bytes = draw(st.sampled_from([512, 40_000, 120_000]))
    base = draw(st.floats(min_value=1e-4, max_value=0.03))
    programs = skewed_programs(nproc, iters, base, halo_bytes)
    candidates = [
        SweepCandidate(
            draw(st.sampled_from(GEAR_BUILDERS))(),
            algorithm=draw(
                st.sampled_from((MaxAlgorithm, AvgAlgorithm))
            )(),
        )
        for _ in range(draw(st.integers(min_value=1, max_value=4)))
    ]
    return programs, candidates


# ---------------------------------------------------------------------------
# byte-identity with the scalar path
# ---------------------------------------------------------------------------
class TestByteIdentity:
    @settings(max_examples=20, deadline=None)
    @given(sweep_world(), st.booleans())
    def test_random_sweeps_match_scalar_reports(self, world, des_world):
        programs, candidates = world
        platform = BUSY_PLATFORM if des_world else MYRINET_LIKE
        trace = record_trace(programs, platform)
        scalar = scalar_reports(
            copy.deepcopy(trace), candidates, platform=platform
        )
        planner = BatchBalancePlanner(
            time_model=MODEL, platform=platform, chunk_size=2
        )
        batched = planner.plan_trace(trace, candidates)
        assert len(batched) == len(candidates)
        for got, want in zip(batched, scalar):
            assert report_bytes(got) == report_bytes(want)

    def test_meta_arrays_match_scalar(self):
        # to_json() drops meta; pin the raw replay arrays separately so
        # reaccount() works identically on batched reports.
        trace = record_trace(skewed_programs())
        candidates = [SweepCandidate(uniform_gear_set(6), AvgAlgorithm())]
        [want] = scalar_reports(copy.deepcopy(trace), candidates)
        [got] = BatchBalancePlanner(time_model=MODEL).plan_trace(
            trace, candidates
        )
        assert np.array_equal(
            got.meta["original_compute_times"],
            want.meta["original_compute_times"],
        )
        assert np.array_equal(
            got.meta["new_compute_times"], want.meta["new_compute_times"]
        )
        assert got.meta["nominal_gear"] == want.meta["nominal_gear"]
        assert got.meta["trace_meta"] == want.meta["trace_meta"]

    def test_plan_app_matches_balance_app(self):
        app = build_app("MG-32", iterations=1)
        gear_sets = [uniform_gear_set(3), uniform_gear_set(6)]
        planner = BatchBalancePlanner(time_model=MODEL)
        batched = planner.plan_app(app, gear_sets)
        for gear_set, got in zip(gear_sets, batched):
            balancer = PowerAwareLoadBalancer(
                gear_set=gear_set, time_model=MODEL
            )
            assert report_bytes(got) == report_bytes(
                balancer.balance_app(build_app("MG-32", iterations=1))
            )

    def test_bare_gear_sets_and_empty_candidates(self):
        trace = record_trace(skewed_programs())
        planner = BatchBalancePlanner(time_model=MODEL)
        assert planner.plan_trace(trace, []) == []
        # bare GearSet entries are wrapped with the planner default (MAX)
        [bare] = planner.plan_trace(trace, [uniform_gear_set(6)])
        [wrapped] = planner.plan_trace(
            trace, [SweepCandidate(uniform_gear_set(6), MaxAlgorithm())]
        )
        assert report_bytes(bare) == report_bytes(wrapped)

    def test_chunk_size_never_changes_bytes(self):
        trace = record_trace(skewed_programs(nproc=5))
        candidates = [
            SweepCandidate(uniform_gear_set(n)) for n in (2, 3, 4, 5, 6)
        ]
        baseline = None
        for chunk_size in (None, 1, 2, DEFAULT_CHUNK_SIZE):
            planner = BatchBalancePlanner(
                time_model=MODEL, chunk_size=chunk_size
            )
            payloads = [
                report_bytes(r)
                for r in planner.plan_trace(trace, candidates)
            ]
            if baseline is None:
                baseline = payloads
            assert payloads == baseline

    def test_explicit_des_engine_matches_auto(self):
        trace = record_trace(skewed_programs())
        candidates = [
            SweepCandidate(uniform_gear_set(6)),
            SweepCandidate(limited_continuous_set(), AvgAlgorithm()),
        ]
        auto = BatchBalancePlanner(time_model=MODEL).plan_trace(
            copy.deepcopy(trace), candidates
        )
        des = BatchBalancePlanner(
            time_model=MODEL, engine="des"
        ).plan_trace(trace, candidates)
        for a, d in zip(auto, des):
            assert report_bytes(a) == report_bytes(d)


# ---------------------------------------------------------------------------
# engine-stat batch counters
# ---------------------------------------------------------------------------
class TestBatchCounters:
    def test_compiled_batch_counts_chunks(self):
        trace = record_trace(skewed_programs())
        planner = BatchBalancePlanner(time_model=MODEL, chunk_size=2)
        reset_engine_stats()
        planner.plan_trace(
            trace, [SweepCandidate(uniform_gear_set(n)) for n in (2, 3, 4, 5, 6)]
        )
        stats = process_engine_stats()
        assert stats["batch_batches"] == 1
        assert stats["batch_candidates"] == 5
        assert stats["batch_chunks"] == 3  # ceil(5 / 2)
        assert stats["batch_fallback_candidates"] == 0
        assert stats["auto_fallbacks"] == 0

    def test_unchunked_batch_is_one_pass(self):
        trace = record_trace(skewed_programs())
        planner = BatchBalancePlanner(time_model=MODEL, chunk_size=None)
        reset_engine_stats()
        planner.plan_trace(
            trace, [SweepCandidate(uniform_gear_set(n)) for n in (3, 6)]
        )
        assert process_engine_stats()["batch_chunks"] == 1

    def test_unsupported_world_falls_back_per_candidate(self):
        trace = record_trace(skewed_programs(), platform=BUSY_PLATFORM)
        planner = BatchBalancePlanner(
            time_model=MODEL, platform=BUSY_PLATFORM
        )
        planner.plan_trace(trace, [uniform_gear_set(6)])  # warm baseline
        reset_engine_stats()
        planner.plan_trace(
            trace, [SweepCandidate(uniform_gear_set(n)) for n in (2, 3, 4)]
        )
        stats = process_engine_stats()
        assert stats["batch_batches"] == 1
        assert stats["batch_candidates"] == 3
        assert stats["batch_chunks"] == 0  # no vectorised pass happened
        assert stats["batch_fallback_candidates"] == 3
        assert stats["auto_fallbacks"] == 1
        assert stats["des_runs"] == 3  # memoised baseline: no 4th replay

    def test_explicit_des_engine_counts_as_fallback_pricing(self):
        trace = record_trace(skewed_programs())
        planner = BatchBalancePlanner(time_model=MODEL, engine="des")
        planner.plan_trace(trace, [uniform_gear_set(6)])  # warm baseline
        reset_engine_stats()
        planner.plan_trace(
            trace, [SweepCandidate(uniform_gear_set(n)) for n in (3, 6)]
        )
        stats = process_engine_stats()
        assert stats["batch_fallback_candidates"] == 2
        assert stats["auto_fallbacks"] == 0

    def test_one_row_matrix_prices_like_the_vector_kernel(self):
        """A one-row matrix takes the scalar kernel: same bits, same shapes."""
        from repro.netsim.compiled import CompiledReplayEngine

        trace = record_trace(skewed_programs())
        engine = CompiledReplayEngine(MYRINET_LIKE, MODEL)
        fmat = np.array([[1.1, 2.3, 1.7, 0.8]])
        one = engine.evaluate_assignments(trace, fmat)
        many = engine.compile_trace(trace).evaluate_many(fmat)
        assert one.keys() == many.keys()
        for key in many:
            assert one[key].shape == many[key].shape
            assert np.array_equal(one[key], many[key]), key

    def test_bad_frequency_matrix_rejected(self):
        trace = record_trace(skewed_programs(nproc=3))
        planner = BatchBalancePlanner(time_model=MODEL)
        with pytest.raises(ValueError, match=r"\(K, nproc\)"):
            planner.simulator.evaluate_assignments(
                trace, np.ones(3)  # 1-D: a forgotten [ ] around one row
            )


# ---------------------------------------------------------------------------
# baseline-replay memoisation
# ---------------------------------------------------------------------------
class TestBaselineMemoisation:
    def test_repeated_balances_replay_baseline_once(self):
        trace = record_trace(skewed_programs())
        reset_engine_stats()
        PowerAwareLoadBalancer(
            gear_set=uniform_gear_set(6), time_model=MODEL, engine="des"
        ).balance_trace(trace)
        assert process_engine_stats()["des_runs"] == 2  # baseline + modified
        # a *different* balancer, same trace: baseline comes from the memo
        PowerAwareLoadBalancer(
            gear_set=uniform_gear_set(3), time_model=MODEL, engine="des"
        ).balance_trace(trace)
        assert process_engine_stats()["des_runs"] == 3

    def test_memo_key_distinguishes_beta(self):
        trace = record_trace(skewed_programs())
        sim_a = MpiSimulator(MYRINET_LIKE, MODEL)
        sim_b = MpiSimulator(
            MYRINET_LIKE, BetaTimeModel(fmax=NOMINAL_FMAX, beta=0.3)
        )
        reset_engine_stats()
        first = nominal_replay(sim_a, trace)
        assert nominal_replay(sim_a, trace) is first
        other = nominal_replay(sim_b, trace)
        assert other is not first
        assert process_engine_stats()["des_runs"] == 2

    def test_memo_key_distinguishes_platform(self):
        trace = record_trace(skewed_programs())
        sim_a = MpiSimulator(MYRINET_LIKE, MODEL)
        sim_b = MpiSimulator(BUSY_PLATFORM, MODEL)
        first = nominal_replay(sim_a, trace)
        assert nominal_replay(sim_b, trace) is not first
        assert nominal_replay(sim_b, trace) is nominal_replay(sim_b, trace)


# ---------------------------------------------------------------------------
# vectorised energy accounting
# ---------------------------------------------------------------------------
class TestRunEnergyMany:
    def _batch(self, seed=7, K=5, nproc=6):
        """K runs over gear-index rows into per-run tables: a shared
        discrete table, plus one per-rank table as continuous sets
        build them."""
        rng = np.random.default_rng(seed)
        gear_set = uniform_gear_set(4)
        exec_t = rng.uniform(1.0, 2.0, K)
        compute = rng.uniform(0.1, 0.9, (K, nproc)) * exec_t[:, None]
        index_rows = [
            rng.integers(0, len(gear_set), nproc) for _ in range(K)
        ]
        tables = [gear_set.table] * K
        per_rank, _, _ = limited_continuous_set().select_many(
            rng.uniform(0.9, 2.2, nproc)
        )
        index_rows[-1], tables[-1] = np.arange(nproc), per_rank
        return compute, exec_t, index_rows, tables

    def test_matches_scalar_run_energy_exactly(self):
        acc = EnergyAccountant()
        compute, exec_t, index_rows, tables = self._batch()
        many = acc.run_energy_many(compute, exec_t, index_rows, tables)
        for k, breakdown in enumerate(many):
            table, rows = tables[k], index_rows[k]
            gears = [
                Gear(f, v) for f, v in zip(
                    table.frequencies[rows].tolist(),
                    table.voltages[rows].tolist(),
                    strict=True,
                )
            ]
            one = acc.run_energy(compute[k], float(exec_t[k]), gears)
            assert breakdown.compute_energy == one.compute_energy
            assert breakdown.comm_energy == one.comm_energy
            assert breakdown.static_energy == one.static_energy
            assert breakdown.dynamic_energy == one.dynamic_energy
            assert breakdown.execution_time == one.execution_time
            assert np.array_equal(breakdown.per_rank, one.per_rank)

    def test_shape_validation(self):
        acc = EnergyAccountant()
        compute, exec_t, index_rows, tables = self._batch()
        with pytest.raises(ValueError, match=r"\(K, nproc\)"):
            acc.run_energy_many(compute[0], exec_t, index_rows, tables)
        with pytest.raises(ValueError, match="does not match"):
            acc.run_energy_many(compute, exec_t[:-1], index_rows, tables)
        with pytest.raises(ValueError, match="index rows"):
            acc.run_energy_many(compute, exec_t, index_rows[:-1], tables)
        with pytest.raises(ValueError, match="gear tables"):
            acc.run_energy_many(compute, exec_t, index_rows, tables[:-1])
        with pytest.raises(ValueError, match="run 2: .* gears for"):
            short = list(index_rows)
            short[2] = short[2][:-1]
            acc.run_energy_many(compute, exec_t, short, tables)

    def test_errors_are_labelled_with_the_run_index(self):
        acc = EnergyAccountant()
        compute, exec_t, index_rows, tables = self._batch()
        bad_exec = exec_t.copy()
        bad_exec[3] = -1.0
        with pytest.raises(ValueError, match="run 3: execution time"):
            acc.run_energy_many(compute, bad_exec, index_rows, tables)
        bad_compute = compute.copy()
        bad_compute[1, 4] = exec_t[1] * 2.0
        with pytest.raises(ValueError, match="run 1: rank 4 computes"):
            acc.run_energy_many(bad_compute, exec_t, index_rows, tables)


# ---------------------------------------------------------------------------
# Runner.balance_many: cache interop with the scalar path
# ---------------------------------------------------------------------------
class TestRunnerBalanceMany:
    CANDIDATES = (
        SweepCandidate(uniform_gear_set(3)),
        SweepCandidate(uniform_gear_set(6), AvgAlgorithm()),
    )

    def test_batched_cells_serve_scalar_calls(self, tmp_path):
        config = RunnerConfig(
            iterations=2, cache_dir=str(tmp_path / "cache")
        )
        runner = Runner(config)
        batched = runner.balance_many("CG-16", list(self.CANDIDATES))
        assert len(batched) == 2
        # the scalar path now finds both cells in the in-memory cache
        assert runner.balance("CG-16", uniform_gear_set(3)) is batched[0]
        assert (
            runner.balance("CG-16", uniform_gear_set(6), AvgAlgorithm())
            is batched[1]
        )
        # a fresh Runner on the same cache dir replans nothing
        fresh = Runner(config)
        reset_engine_stats()
        again = fresh.balance_many("CG-16", list(self.CANDIDATES))
        assert process_engine_stats()["batch_batches"] == 0
        assert [report_bytes(r) for r in again] == [
            report_bytes(r) for r in batched
        ]

    def test_scalar_warm_cells_skip_planning(self):
        runner = Runner(RunnerConfig(iterations=2))
        warm = runner.balance("CG-16", uniform_gear_set(3))
        reset_engine_stats()
        out = runner.balance_many(
            "CG-16", [uniform_gear_set(3), uniform_gear_set(6)]
        )
        stats = process_engine_stats()
        assert out[0] is warm  # served from the scalar call's cache entry
        assert stats["batch_candidates"] == 1  # only the miss was priced

    def test_batched_reports_match_scalar_runner(self):
        batched = Runner(RunnerConfig(iterations=2)).balance_many(
            "CG-16", list(self.CANDIDATES)
        )
        scalar_runner = Runner(RunnerConfig(iterations=2))
        scalar = [
            scalar_runner.balance(
                "CG-16", c.gear_set, c.algorithm or MaxAlgorithm()
            )
            for c in self.CANDIDATES
        ]
        assert [report_bytes(r) for r in batched] == [
            report_bytes(r) for r in scalar
        ]


# ---------------------------------------------------------------------------
# replay-based gear-set scoring
# ---------------------------------------------------------------------------
class TestReplayScores:
    def test_scores_equal_scalar_normalized_energy(self):
        trace = record_trace(skewed_programs())
        optimizer = GearSetOptimizer(model=MODEL)
        gear_sets = [uniform_gear_set(2), uniform_gear_set(6)]
        scores = optimizer.replay_scores([trace], gear_sets)
        assert scores.shape == (2,)
        for gear_set, score in zip(gear_sets, scores):
            report = PowerAwareLoadBalancer(
                gear_set=gear_set, time_model=MODEL
            ).balance_trace(copy.deepcopy(trace))
            assert float(score) == report.normalized_energy
        # more gears can only help (round-up selection gets finer)
        assert scores[1] <= scores[0]

    def test_mean_over_traces(self):
        traces = [
            record_trace(skewed_programs(), name="a"),
            record_trace(skewed_programs(nproc=5, base=0.008), name="b"),
        ]
        optimizer = GearSetOptimizer(model=MODEL)
        [mean_score] = optimizer.replay_scores(traces, [uniform_gear_set(6)])
        singles = [
            float(optimizer.replay_scores([t], [uniform_gear_set(6)])[0])
            for t in traces
        ]
        assert mean_score == pytest.approx(sum(singles) / 2.0)

    def test_empty_traces_rejected(self):
        with pytest.raises(ValueError, match="at least one trace"):
            GearSetOptimizer().replay_scores([], [uniform_gear_set(6)])
