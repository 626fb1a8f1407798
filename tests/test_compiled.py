"""The compiled replay kernel: bit-exact equivalence with the DES.

The contract under test (see ``repro.netsim.compiled``): for every
world the capability check accepts, ``CompiledProgram.evaluate`` and
``MpiSimulator`` produce *identical* results — same makespan, same
per-rank compute/comm seconds, same end times, compared with
``np.array_equal`` (no tolerance).  Worlds outside the supported
subset must be rejected with :class:`UnsupportedWorldError` so the
``auto`` engine can fall back to the DES.  ``evaluate_many``'s
level-scheduled pass is held to the scalar kernel the same way, row by
row, and its cached schedule to the invariants that make it exact.
The kernel only prices: its tape holds no markers, and recording
(traces, intervals, marker stamps) stays on the DES.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import re

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.apps import TABLE3_INSTANCES, build_app, vmpi
from repro.core.timemodel import BetaTimeModel
from repro.netsim import compiled as cp
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
from repro.simx.errors import DeadlockError, SimulationError
from repro.traces.columnar import ColumnarTrace

from tests.worlds import (
    RENDEZVOUS,
    des_blocked_ranks,
    valid_worlds,
    wavefront,
    wavefront_worlds,
)

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
    assert des.markers is None and compiled.markers is None


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
        freqs = [1.5, 2.3, 0.8, 2.0]
        des, compiled = _both(programs, freqs)
        _assert_identical(des, compiled)
        # the tape holds the bursts and one entry per collective; the
        # DES stamps the markers when it records intervals
        program = compile_world(programs, MYRINET_LIKE, MODEL)
        assert program.n_instructions == 3 * (nproc + 2)
        recorded = MpiSimulator(MYRINET_LIKE, MODEL).run(
            programs, frequencies=freqs, record_intervals=True
        )
        assert recorded.execution_time == compiled.execution_time
        assert sum(len(per_rank) for per_rank in recorded.markers) == 3 * nproc

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
        trace = MpiSimulator().run(app.programs(), record_trace=True).trace
        assert engine.compile_trace(trace).nproc == 32  # raises if declined


# ---------------------------------------------------------------------------
# the level-scheduled batch pass against the scalar kernel
# ---------------------------------------------------------------------------
def _scalar_rows(program, fmat):
    """The scalar walk's rows, stacked like ``evaluate_many``'s result
    (``evaluate`` itself runs the level pass on wide tapes)."""
    rows = [program._walk(f) for f in fmat]
    return {
        "execution_time": np.array([end.max(initial=0.0) for end, _, _ in rows]),
        "compute_times": np.array([comp for _, comp, _ in rows]),
        "comm_times": np.array([comm for _, _, comm in rows]),
        "end_times": np.array([end for end, _, _ in rows]),
    }


def _assert_bit_equal(got, want):
    """Same keys, shapes and bytes; C-contiguous like the scalar rows."""
    assert sorted(got) == sorted(want)
    for key, value in want.items():
        assert got[key].shape == value.shape, key
        assert got[key].flags.c_contiguous, key
        assert got[key].tobytes() == value.tobytes(), key


#: Worlds of the differential tests: random interleavings, some of
#: them deadlocked, and deep pipelines with a few instructions per level.
GENERATED_WORLDS = st.one_of(valid_worlds(), wavefront_worlds())


def _deadlocked_ranks(exc):
    """The ranks a compile-time deadlock error names."""
    found = re.search(r"ranks \[([\d, ]*)\]", str(exc))
    assert found, f"not a deadlock report: {exc}"
    return {int(r) for r in found.group(1).split(",") if r.strip()}


class TestCompileVerdictAgainstDes:
    """Compile rejects a world exactly when the DES deadlocks on it,
    naming the ranks the DES leaves blocked; otherwise the compiled
    replay is the DES's, bit for bit."""

    @pytest.mark.parametrize(
        "platform", [MYRINET_LIKE, RENDEZVOUS], ids=["default", "rendezvous"]
    )
    @settings(max_examples=80, deadline=None)
    @given(streams=GENERATED_WORLDS, data=st.data())
    def test_generated_worlds(self, platform, streams, data):
        blocked = des_blocked_ranks(streams, platform)
        try:
            program = compile_world(streams, platform, MODEL)
        except CompileError as exc:
            event("deadlocked")
            assert blocked, f"compile rejected a world the DES runs: {exc}"
            assert _deadlocked_ranks(exc) == blocked
            return
        event("completed")
        assert not blocked, f"compiled a world the DES deadlocks on {blocked}"
        freqs = data.draw(st.lists(
            st.floats(0.8, 2.3), min_size=len(streams), max_size=len(streams)
        ))
        des = MpiSimulator(platform, MODEL).run(streams, frequencies=freqs)
        _assert_identical(des, program.evaluate(freqs))

    def test_deep_wavefront(self):
        # an eager sweep out and a rendezvous sweep back: about six
        # levels per rank, none holding more than two instructions
        streams = wavefront(256, [64, RENDEZVOUS.eager_threshold + 1])
        program = compile_world(streams, RENDEZVOUS, MODEL)
        des = MpiSimulator(RENDEZVOUS, MODEL).run(streams)
        _assert_identical(des, program.evaluate())
        assert program._levels.shape[0] - 1 > 5 * 256
        assert np.diff(program._levels).max() <= 2


class TestLevelScheduleDifferential:
    """Every batch row is the scalar walk's row, bit for bit."""

    @pytest.mark.parametrize(
        "platform", [MYRINET_LIKE, RENDEZVOUS], ids=["default", "rendezvous"]
    )
    @settings(max_examples=60, deadline=None)
    @given(streams=GENERATED_WORLDS, data=st.data())
    def test_generated_worlds(self, platform, streams, data):
        try:
            program = compile_world(streams, platform, MODEL)
        except UnsupportedWorldError:
            event("not compiled")  # deadlocked: the DES owns the error
            return
        event("compiled")
        engine = CompiledReplayEngine(platform, MODEL)
        trace = ColumnarTrace.from_streams(streams)
        row = st.lists(
            st.floats(0.8, 2.3), min_size=len(streams), max_size=len(streams)
        )
        for k in (1, 2, 5):
            fmat = np.array(data.draw(st.lists(row, min_size=k, max_size=k)))
            want = _scalar_rows(program, fmat)
            _assert_bit_equal(program.evaluate_many(fmat), want)
            for chunk in (1, None):
                _assert_bit_equal(
                    engine.evaluate_assignments(trace, fmat, chunk_size=chunk),
                    want,
                )
        _assert_schedule_invariants(program)
        _assert_wait_joins_in_order(program)

    def test_table3_worlds(self):
        rng = np.random.default_rng(15)
        for spec in TABLE3_INSTANCES:
            program = compile_world(
                build_app(spec, iterations=2).programs(), MYRINET_LIKE, MODEL
            )
            fmat = rng.uniform(0.8, 2.3, size=(5, program.nproc))
            _assert_bit_equal(
                program.evaluate_many(fmat), _scalar_rows(program, fmat)
            )


# ---------------------------------------------------------------------------
# one-row evaluate: the level pass on wide tapes, the walk on narrow ones
# ---------------------------------------------------------------------------
def _with_markers(streams):
    """Markers opening each rank, after every other record and closing
    it: at level 0, after collectives and after blocking sends."""
    out = []
    for records in streams:
        marked = [vmpi.marker("open", 0)]
        for i, rec in enumerate(records):
            marked.append(rec)
            if i % 2:
                marked.append(vmpi.marker("step", i))
        marked.append(vmpi.marker("close", len(records)))
        out.append(marked)
    return out


def _replicated(streams, copies):
    """``copies`` side-by-side copies of a world: copy ``c`` of rank
    ``r`` is rank ``c * n + r`` and talks to its own copy; collectives
    span every rank.  The copies run in lockstep, so the replicated
    world has the original's levels, each ``copies`` times as wide."""
    def moved(rec, shift):
        if hasattr(rec, "dst"):
            return dataclasses.replace(rec, dst=rec.dst + shift)
        if hasattr(rec, "src"):
            return dataclasses.replace(rec, src=rec.src + shift)
        return rec

    n = len(streams)
    return [
        [moved(rec, c * n) for rec in records]
        for c in range(copies)
        for records in streams
    ]


def _copies_to_cross_the_cut(program):
    """Copies whose replicated tape averages at least ``_SMALL_ROUND``
    instructions per level (collectives are not replicated)."""
    colls = program._codes.count(cp._COLL)
    per_copy = program.n_instructions - colls
    want = cp._SMALL_ROUND * (program._levels.shape[0] - 1) - colls
    return max(1, -(-want // per_copy))


def _is_wide(program):
    n_levels = program._levels.shape[0] - 1
    return program.n_instructions >= cp._SMALL_ROUND * n_levels


def _assert_walk_identical(program, freqs):
    """``evaluate`` equals the scalar walk byte for byte: per-rank
    seconds and a Python-float makespan, and no markers."""
    got = program.evaluate(freqs)
    end, comp, comm = program._walk(program._normalize(freqs))
    assert got.markers is None
    assert type(got.execution_time) is float
    assert got.execution_time == float(end.max(initial=0.0))
    for name, want in (("compute_times", comp), ("comm_times", comm),
                       ("end_times", end)):
        value = getattr(got, name)
        assert value.dtype == want.dtype and value.shape == want.shape, name
        assert value.tobytes() == want.tobytes(), name
    return got


class TestOneRowEvaluate:
    """``evaluate`` runs the level pass with one lane on tapes averaging
    at least ``_SMALL_ROUND`` instructions per level and walks the rest;
    either way its result is the scalar walk's, bit for bit."""

    @pytest.mark.parametrize(
        "platform", [MYRINET_LIKE, RENDEZVOUS], ids=["default", "rendezvous"]
    )
    @settings(max_examples=40, deadline=None)
    @given(streams=valid_worlds(), seed=st.integers(0, 2**32 - 1))
    def test_replicated_generated_worlds(self, platform, streams, seed):
        streams = _with_markers(streams)
        try:
            small = compile_world(streams, platform, MODEL)
        except CompileError:
            event("deadlocked")
            return
        world = _replicated(streams, _copies_to_cross_the_cut(small))
        program = compile_world(world, platform, MODEL)
        assert _is_wide(program)
        freqs = np.random.default_rng(seed).uniform(0.8, 2.3, len(world))
        for f in (None, freqs):
            _assert_walk_identical(program, f)
        assert program._sched is not None  # the pass ran
        # the markers stay off the tape
        _assert_schedule_invariants(program)
        if len(world) <= 128:
            event("checked against the DES")
            program.assert_equivalent(freqs)

    @pytest.mark.parametrize("spec", ["BT-MZ-256", "CG-64", "WRF-128"])
    @pytest.mark.parametrize(
        "platform", [MYRINET_LIKE, RENDEZVOUS], ids=["default", "rendezvous"]
    )
    def test_wide_apps(self, spec, platform):
        programs = [list(p) for p in build_app(spec, iterations=2).programs()]
        assert any(rec.kind == "marker" for rec in programs[0])
        program = compile_world(programs, platform, MODEL)
        assert _is_wide(program)
        freqs = np.random.default_rng(18).uniform(0.8, 2.3, program.nproc)
        for f in (None, freqs):
            _assert_walk_identical(program, f)
        if program.nproc <= 128:
            program.assert_equivalent(freqs)

    def test_wavefront_keeps_the_walk(self):
        program = compile_world(wavefront(256, [64]), MYRINET_LIKE, MODEL)
        assert not _is_wide(program)
        _assert_walk_identical(program, None)
        assert program._sched is None  # no schedule was built

    def test_schedule_is_shared_with_evaluate_many(self):
        program = compile_world(
            build_app("CG-64", iterations=1).programs(), MYRINET_LIKE, MODEL
        )
        program.evaluate()
        sched = program._sched
        assert sched is not None
        program.evaluate_many(np.full((2, program.nproc), 1.4))
        program.evaluate(1.1)
        assert program._sched is sched


def _tape_entries(program):
    """Per rank, the tape's instructions, in order.

    Entries are ``(tape index, code, arg2)``; collectives are listed
    separately as ``(tape index, collective index)``.
    """
    per_rank = [[] for _ in range(program.nproc)]
    colls = []
    for i, (code, a1, a2) in enumerate(
        zip(program._codes, program._arg1, program._arg2)
    ):
        if code == cp._COLL:
            colls.append((i, a1))
        else:
            per_rank[a1].append((i, code, a2))
    return per_rank, colls


def _arrival_slots(sched):
    """Message slot of each eager arrival row: the i-th ``_SEND_EAGER``
    entry of the schedule fills row i."""
    slots = []
    bounds = sched.bounds.tolist()
    for g, code in enumerate(sched.code.tolist()):
        if code == cp._SEND_EAGER:
            slots += sched.arg[bounds[g]:bounds[g + 1]].tolist()
    return slots


def _group_ranks(sched, g):
    """Ranks of group ``g``'s entries (a collective's index for _COLL)."""
    size = int(sched.bounds[g + 1] - sched.bounds[g])
    first = int(sched.run[g])
    if first >= 0:  # consecutive ranks, in rank order
        assert sched.rank_at[g] == sched.rank_at[g + 1]
        return list(range(first, first + size))
    ranks = sched.rank[sched.rank_at[g]:sched.rank_at[g + 1]].tolist()
    assert len(ranks) == size
    assert ranks != list(range(ranks[0], ranks[0] + size)) or size == 1
    return ranks


def _tape_levels(program):
    """Level of each scheduled tape instruction under the cached
    schedule, after checking its group structure and per-rank order."""
    sched = program._sched
    bounds = sched.bounds.tolist()
    levels = sched.level.tolist()
    codes = sched.code.tolist()
    slot_of_row = _arrival_slots(sched)
    assert sorted(slot_of_row) == list(range(len(program._wire_eager)))
    assert levels == sorted(levels)
    assert sched.rank_at[-1] == sched.rank.shape[0]
    by_rank = [[] for _ in range(program.nproc)]
    coll_level = {}
    for g, (level, code) in enumerate(zip(levels, codes)):
        ranks = _group_ranks(sched, g)
        args = sched.arg[bounds[g]:bounds[g + 1]].tolist()
        assert ranks, "empty group"
        if code == cp._RECV_EAGER:
            args = [slot_of_row[a] for a in args]
        if code == cp._COLL:
            # alone in its level
            assert len(ranks) == 1
            assert levels.count(level) == 1
            coll_level[ranks[0]] = level
            continue
        assert len(set(ranks)) == len(ranks), "rank twice in one group"
        for r, a in zip(ranks, args):
            by_rank[r].append((level, code, a))
    per_rank, colls = _tape_entries(program)
    tape_level = {}
    for r in range(program.nproc):
        scheduled = sorted(by_rank[r])
        # every rank keeps its program order, every instruction once
        assert [(c, a) for _, c, a in scheduled] == [
            (c, a) for _, c, a in per_rank[r]
        ], f"rank {r} out of program order"
        for (level, _, _), (i, _, _) in zip(scheduled, per_rank[r]):
            tape_level[i] = level
    assert sorted(coll_level) == [c for _, c in colls]
    for i, c in colls:
        tape_level[i] = coll_level[c]
    return tape_level


def _assert_schedule_invariants(program):
    tape_level = _tape_levels(program)
    codes, a1, a2 = program._codes, program._arg1, program._arg2
    # every tape entry falls in exactly one schedule group: the tape
    # holds no marker and no wait with nothing to join
    assert int(program._sched.bounds[-1]) == len(codes)
    assert sorted(tape_level) == list(range(len(codes)))
    # every collective sits above everything before it in the tape and
    # below everything after it
    top = -1
    floor = -1
    for i in range(len(codes)):
        level = tape_level[i]
        assert level > floor
        if codes[i] == cp._COLL:
            assert level > top
            floor = level
        top = max(top, level)
    # every slot read was written at a strictly lower level
    written = {}
    writes = {
        cp._SEND_EAGER: ("arr",), cp._SEND_RDV_POST: ("sp",),
        cp._ISEND_RDV: ("sp",), cp._RECV_RDV: ("rp",),
        cp._IRECV_RDV: ("rp",),
    }
    for i in sorted(tape_level):
        for pool in writes.get(codes[i], ()):
            assert (pool, a2[i]) not in written, "slot written twice"
            written[(pool, a2[i])] = tape_level[i]
    woff, wkind, wslot = (
        program._wait_off, program._wait_kind, program._wait_slot
    )
    for i, level in tape_level.items():
        code, m = codes[i], a2[i]
        if code == cp._RECV_EAGER:
            reads = [("arr", m)]
        elif code == cp._RECV_RDV:
            reads = [("sp", m)]
        elif code == cp._SEND_RDV_DONE:
            reads = [("sp", m), ("rp", m)]
        elif code == cp._WAIT:
            reads = []
            for j in range(woff[m], woff[m + 1]):
                if wkind[j] == cp._VAL_ARR:
                    reads.append(("arr", wslot[j]))
                else:
                    reads += [("sp", wslot[j]), ("rp", wslot[j])]
        else:
            continue
        for slot in reads:
            assert written[slot] < level, (
                f"instruction {i} reads {slot} written at level "
                f"{written[slot]}, not below its own level {level}"
            )


def _assert_wait_joins_in_order(program):
    """The segments of each wait group replay every wait's join list
    in list order."""
    sched = program._sched
    bounds = sched.bounds.tolist()
    group_seg = sched.group_seg.tolist()
    seg_bounds = sched.seg_bounds.tolist()
    slot_of_row = _arrival_slots(sched)
    woff, wkind, wslot = (
        program._wait_off, program._wait_kind, program._wait_slot
    )
    for g, code in enumerate(sched.code.tolist()):
        if code != cp._WAIT:
            assert group_seg[g] == group_seg[g + 1]
            continue
        wids = sched.arg[bounds[g]:bounds[g + 1]].tolist()
        replayed = [[] for _ in wids]
        for seg in range(group_seg[g], group_seg[g + 1]):
            lo, hi = seg_bounds[seg], seg_bounds[seg + 1]
            sel = sched.join_sel[sched.sel_at[seg]:sched.sel_at[seg + 1]]
            sel = sel.tolist()
            if not sel:  # the segment covers every wait of the group
                sel = list(range(len(wids)))
            assert len(sel) == hi - lo
            assert sel == sorted(set(sel))
            kind = int(sched.seg_kind[seg])
            for w, slot in zip(sel, sched.join_slot[lo:hi].tolist()):
                if kind == cp._VAL_ARR:
                    slot = slot_of_row[slot]
                replayed[w].append((kind, slot))
        for w, wid in enumerate(wids):
            assert replayed[w] == [
                (wkind[j], wslot[j]) for j in range(woff[wid], woff[wid + 1])
            ]


class TestLevelScheduleInvariants:
    """The cached schedule of the Table-3 worlds and BT-MZ-256."""

    @pytest.mark.parametrize("spec", list(TABLE3_INSTANCES) + ["BT-MZ-256"])
    def test_schedule_invariants(self, spec):
        program = compile_world(
            build_app(spec, iterations=2).programs(), MYRINET_LIKE, MODEL
        )
        assert program._sched is None  # compile does no schedule work
        program.evaluate_many(np.full((2, program.nproc), 2.0))
        sched = program._sched
        assert sched is not None
        for name in ("level", "bounds", "run", "rank_at", "rank", "arg",
                     "group_seg", "seg_bounds", "sel_at", "join_sel",
                     "join_slot"):
            assert getattr(sched, name).dtype == np.int32, name
        _assert_schedule_invariants(program)
        _assert_wait_joins_in_order(program)
        program.evaluate_many(np.full((1, program.nproc), 1.5))
        assert program._sched is sched  # built once per program

    def test_waitall_joins_keep_list_order(self):
        # a rendezvous join listed before an eager one: segments must
        # follow the join list, not the value kind
        big = MYRINET_LIKE.eager_threshold + 1
        programs = [[], []]
        for it in range(3):
            for rank, peer in ((0, 1), (1, 0)):
                programs[rank] += [
                    vmpi.compute(0.001 * (rank + it + 1)),
                    vmpi.isend(peer, big, tag=2 * it, request=0),
                    vmpi.irecv(src=peer, tag=2 * it + 1, request=1),
                    vmpi.isend(peer, 8, tag=2 * it + 1, request=2),
                    vmpi.irecv(src=peer, tag=2 * it, request=3),
                    vmpi.waitall((0, 1, 2, 3)),
                ]
        program = compile_world(programs, MYRINET_LIKE, MODEL)
        fmat = np.array([[2.3, 1.1], [0.9, 1.7]])
        _assert_bit_equal(
            program.evaluate_many(fmat), _scalar_rows(program, fmat)
        )
        _assert_schedule_invariants(program)
        _assert_wait_joins_in_order(program)

    @pytest.mark.parametrize(
        "programs",
        [[[], []], [[vmpi.marker("phase", 0)], []]],
        ids=["empty", "markers-only"],
    )
    def test_nothing_to_schedule(self, programs):
        program = compile_world(programs, MYRINET_LIKE, MODEL)
        assert program.n_instructions == 0
        fmat = np.full((2, 2), 2.0)
        _assert_bit_equal(
            program.evaluate_many(fmat), _scalar_rows(program, fmat)
        )
        assert program._sched.code.shape == (0,)

    def test_more_collectives_than_ranks(self):
        # collective indices outgrow the rank range the sort key packs
        programs = []
        for rank in range(2):
            recs = []
            for it in range(40):
                recs.append(vmpi.compute(0.001 * (rank + it + 1)))
                if rank == 0:
                    recs.append(vmpi.send(1, 64, tag=it))
                else:
                    recs.append(vmpi.recv(src=0, tag=it))
                recs.append(vmpi.allreduce(8))
            programs.append(recs)
        program = compile_world(programs, MYRINET_LIKE, MODEL)
        fmat = np.array([[2.3, 1.1], [0.9, 1.7], [1.4, 1.4]])
        _assert_bit_equal(
            program.evaluate_many(fmat), _scalar_rows(program, fmat)
        )
        _assert_schedule_invariants(program)


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

    @pytest.mark.parametrize(
        "nbytes", [64, 500_000], ids=["eager", "rendezvous"]
    )
    def test_waitall_naming_a_request_twice(self, nbytes):
        programs = [
            [vmpi.isend(1, nbytes, request=1), vmpi.waitall((1, 1))],
            [vmpi.irecv(src=0, tag=0, request=1), vmpi.wait(1)],
        ]
        with pytest.raises(CompileError, match="unknown request 1"):
            compile_world(programs, MYRINET_LIKE, MODEL)
        # auto falls back, and the DES owns the authentic error
        engine = make_engine("auto", MYRINET_LIKE, MODEL)
        with pytest.raises(
            SimulationError, match="rank 0: wait on unknown request 1"
        ):
            engine.run_trace(ColumnarTrace.from_streams(programs))

    def test_auto_falls_back_to_des_on_deadlock(self):
        # The DES must own the authentic error, not CompileError.
        big = 500_000
        programs = [
            [vmpi.send(1, big), vmpi.recv(1, tag=0)],
            [vmpi.send(0, big), vmpi.recv(0, tag=0)],
        ]
        engine = AutoReplayEngine(MYRINET_LIKE, MODEL)
        with pytest.raises(DeadlockError):
            engine.run_trace(ColumnarTrace.from_streams(programs))


# ---------------------------------------------------------------------------
# auto routing + observability
# ---------------------------------------------------------------------------
class TestAutoEngine:
    def test_supported_world_uses_compiled(self):
        programs = [[vmpi.compute(0.01), vmpi.allreduce(64)]
                    for _ in range(4)]
        engine = AutoReplayEngine(MYRINET_LIKE, MODEL)
        result = engine.run_trace(ColumnarTrace.from_streams(programs))
        assert result.engine == "compiled"

    def test_fallback_increments_counter(self):
        reset_engine_stats()
        programs = [[vmpi.send(1, 64)], [vmpi.recv()]]  # wildcard
        engine = AutoReplayEngine(MYRINET_LIKE, MODEL)
        result = engine.run_trace(ColumnarTrace.from_streams(programs))
        assert result.engine == "des"
        stats = process_engine_stats()
        assert stats["auto_fallbacks"] == 1
        assert stats["des_runs"] == 1

    def test_compiled_run_updates_counters(self):
        reset_engine_stats()
        programs = [[vmpi.compute(0.01), vmpi.allreduce(64)]
                    for _ in range(4)]
        engine = CompiledReplayEngine(MYRINET_LIKE, MODEL)
        result = engine.run_trace(ColumnarTrace.from_streams(programs))
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

    def test_priced_trace_pickles_like_unpriced(self):
        from repro.core.balancer import PowerAwareLoadBalancer
        from repro.core.gears import uniform_gear_set

        trace = build_app("CG-32", iterations=2).columnar_trace()
        before = pickle.dumps(trace, protocol=pickle.HIGHEST_PROTOCOL)
        balancer = PowerAwareLoadBalancer(
            gear_set=uniform_gear_set(6), engine="auto"
        )
        report = balancer.balance_trace(trace)
        CompiledReplayEngine(MYRINET_LIKE, MODEL).evaluate_assignments(
            trace, np.full((2, trace.nproc), 2.0)
        )
        assert {"_compiled_cache", "_baseline_cache"} <= set(vars(trace))
        assert pickle.dumps(trace, protocol=pickle.HIGHEST_PROTOCOL) == before
        assert {"_compiled_cache", "_baseline_cache"} <= set(vars(trace))
        copy = pickle.loads(before)
        assert json.dumps(
            balancer.balance_trace(copy).to_json(), sort_keys=True
        ) == json.dumps(report.to_json(), sort_keys=True)


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


class TestNonFiniteFrequencies:
    """NaN and infinite frequencies fail closed on every pricing path."""

    BAD = [float("nan"), float("inf"), float("-inf")]

    @pytest.fixture(scope="class")
    def trace(self):
        return build_app("CG-16", iterations=1).columnar_trace()

    def _freqs(self, trace, bad):
        freqs = np.full(trace.nproc, 2.0)
        freqs[3] = bad
        return freqs

    @pytest.mark.parametrize("bad", BAD)
    def test_des(self, trace, bad):
        with pytest.raises(ValueError, match="finite"):
            MpiSimulator(MYRINET_LIKE, MODEL).run_trace(
                trace, frequencies=self._freqs(trace, bad)
            )

    @pytest.mark.parametrize("bad", BAD)
    def test_evaluate(self, trace, bad):
        program = CompiledReplayEngine(MYRINET_LIKE, MODEL).compile_trace(trace)
        with pytest.raises(ValueError, match="finite"):
            program.evaluate(self._freqs(trace, bad))

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("rows", [1, 3])
    def test_evaluate_many(self, trace, bad, rows):
        program = CompiledReplayEngine(MYRINET_LIKE, MODEL).compile_trace(trace)
        fmat = np.full((rows, trace.nproc), 2.0)
        fmat[-1] = self._freqs(trace, bad)
        with pytest.raises(ValueError, match="finite"):
            program.evaluate_many(fmat)

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("chunk", [None, 1])
    def test_evaluate_assignments(self, trace, bad, rows, chunk):
        engine = CompiledReplayEngine(MYRINET_LIKE, MODEL)
        fmat = np.full((rows, trace.nproc), 2.0)
        fmat[-1] = self._freqs(trace, bad)
        with pytest.raises(ValueError, match="finite"):
            engine.evaluate_assignments(trace, fmat, chunk_size=chunk)


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
