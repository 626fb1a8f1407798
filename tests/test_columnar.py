"""Columnar trace storage: losslessness, byte-identity, scaling hooks.

The columnar trace must be *indistinguishable* from the record programs
it was built from: same records back, same JSON bytes, same compile
tape, same makespans, same balance reports, whichever route built it
(DES recording, skeleton emission, file readers).  These tests pin every
one of those contracts against independent per-record oracles, with
hypothesis driving the codec round-trips over adversarial streams
(wildcard receives, per-burst β overrides, unicode phase labels).
"""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_app, vmpi
from repro.core.balancer import PowerAwareLoadBalancer
from repro.core.timemodel import BetaTimeModel
from repro.core.gears import uniform_gear_set
from repro.netsim.compiled import (
    compile_columnar_world,
    compile_world,
)
from repro.netsim.platform import MYRINET_LIKE
from repro.traces.columnar import (
    BYTES_PER_EVENT,
    ColumnarTrace,
    ColumnarTraceBuilder,
)
from repro.traces.jsonio import dumps_trace, loads_trace
from repro.traces.records import (
    ANY_SOURCE,
    ANY_TAG,
    COLLECTIVE_OPS,
    CollectiveRecord,
    ComputeBurst,
    IsendRecord,
    SendRecord,
    record_to_dict,
)
from repro.traces.transform import scale_compute

MODEL = BetaTimeModel(fmax=2.3, beta=0.5)

NPROC = 4

phase_labels = st.sampled_from(["", "solve-x", "smooth-l0", "相位", "a b c"])


@st.composite
def stream_records(draw):
    """One rank's record list: structurally valid, not necessarily
    runnable (codec round-trips don't replay)."""
    records = []
    n = draw(st.integers(0, 8))
    for _ in range(n):
        kind = draw(st.sampled_from(
            ["compute", "send", "recv", "isend", "irecv", "wait",
             "waitall", "collective", "marker"]
        ))
        if kind == "compute":
            records.append(vmpi.compute(
                draw(st.floats(0.0, 100.0, allow_nan=False)),
                phase=draw(phase_labels),
                beta=draw(st.one_of(st.none(), st.floats(0.0, 1.0))),
            ))
        elif kind == "send":
            records.append(vmpi.send(
                draw(st.integers(0, NPROC - 1)),
                draw(st.integers(0, 1_000_000)),
                tag=draw(st.integers(0, 15)),
            ))
        elif kind == "recv":
            records.append(vmpi.recv(
                src=draw(st.sampled_from([ANY_SOURCE, 0, 1, 2, 3])),
                tag=draw(st.sampled_from([ANY_TAG, 0, 1, 7])),
            ))
        elif kind == "isend":
            records.append(vmpi.isend(
                draw(st.integers(0, NPROC - 1)),
                draw(st.integers(0, 100_000)),
                tag=draw(st.integers(0, 15)),
                request=draw(st.integers(0, 30)),
            ))
        elif kind == "irecv":
            records.append(vmpi.irecv(
                src=draw(st.sampled_from([ANY_SOURCE, 0, 1, 2, 3])),
                tag=draw(st.sampled_from([ANY_TAG, 0, 3])),
                request=draw(st.integers(0, 30)),
            ))
        elif kind == "wait":
            records.append(vmpi.wait(draw(st.integers(0, 30))))
        elif kind == "waitall":
            records.append(vmpi.waitall(
                draw(st.lists(st.integers(0, 30), max_size=5))
            ))
        elif kind == "collective":
            records.append(CollectiveRecord(
                draw(st.sampled_from(COLLECTIVE_OPS)),
                nbytes=draw(st.integers(0, 1_000_000)),
                root=draw(st.integers(0, NPROC - 1)),
            ))
        else:
            records.append(vmpi.marker(
                draw(phase_labels), iteration=draw(st.integers(-1, 10))
            ))
    return records


def record_trace(streams):
    """The fuzz world as a trace (meta as a recorded trace carries it)."""
    return ColumnarTrace.from_streams(
        streams, meta={"name": "fuzz", "nproc": NPROC}
    )


def expected_json(streams, meta):
    """The JSON-lines document, written straight from the records."""
    header = {
        "format": "repro-trace", "version": 1, "nproc": len(streams),
        "meta": meta,
    }
    lines = [json.dumps(header)]
    for rank, records in enumerate(streams):
        for rec in records:
            lines.append(json.dumps({"rank": rank, **record_to_dict(rec)}))
    return "".join(line + "\n" for line in lines)


class TestLosslessRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(streams=st.lists(
        stream_records(), min_size=NPROC, max_size=NPROC
    ))
    def test_records_survive_columnarisation(self, streams):
        ct = record_trace(streams)
        for rank in range(NPROC):
            assert ct.records_of(rank) == streams[rank]
            assert list(ct[rank]) == streams[rank]
        assert ct.meta == {"name": "fuzz", "nproc": NPROC}
        assert ct.n_events == sum(len(s) for s in streams)

    @settings(max_examples=50, deadline=None)
    @given(streams=st.lists(
        stream_records(), min_size=NPROC, max_size=NPROC
    ))
    def test_jsonio_bytes_and_columnar_load(self, streams):
        ct = record_trace(streams)
        text = dumps_trace(ct)
        assert text == expected_json(streams, ct.meta)
        loaded = loads_trace(text)
        assert isinstance(loaded, ColumnarTrace)
        for rank in range(NPROC):
            assert loaded.records_of(rank) == streams[rank]
        # and writing the load reproduces the file again
        assert dumps_trace(loaded) == text

    @settings(max_examples=25, deadline=None)
    @given(streams=st.lists(
        stream_records(), min_size=NPROC, max_size=NPROC
    ))
    def test_analyses_agree(self, streams):
        ct = record_trace(streams)
        for rank, records in enumerate(streams):
            bursts = [r for r in records if isinstance(r, ComputeBurst)]
            by_phase: dict[str, float] = {}
            total = 0.0  # left to right (builtin sum compensates on 3.12+)
            for r in bursts:
                by_phase[r.phase] = by_phase.get(r.phase, 0.0) + r.duration
                total += r.duration
            assert ct[rank].compute_time() == total
            assert ct[rank].compute_time_by_phase() == by_phase
            assert ct[rank].bytes_sent() == sum(
                r.nbytes for r in records
                if isinstance(r, (SendRecord, IsendRecord))
            )


class TestComputeTimes:
    """``compute_times`` folds each rank's bursts left to right, in
    memory and on a memory-mapped store alike."""

    @settings(max_examples=40, deadline=None)
    @given(streams=st.lists(
        stream_records(), min_size=NPROC, max_size=NPROC
    ))
    def test_equals_a_per_rank_loop(self, streams):
        want = []
        for records in streams:  # zero-burst ranks sum to 0.0
            total = 0.0
            for rec in records:
                if isinstance(rec, ComputeBurst):
                    total += rec.duration
            want.append(total)
        trace = record_trace(streams)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.rpcs")
            trace.save(path)
            mapped = ColumnarTrace.open(path, mmap=True)
            for t in (trace, mapped):
                assert t.compute_times().tobytes() == np.array(want).tobytes()
                assert [t[r].compute_time() for r in range(NPROC)] == want


class TestBuilder:
    def test_out_of_order_ranks_stable_sorted(self):
        b = ColumnarTraceBuilder(2)
        b.compute(1, 0.5, phase="late")
        b.compute(0, 0.25)
        b.marker(1, "iter", iteration=0)
        ct = b.build()
        assert [r.kind for r in ct.records_of(1)] == ["compute", "marker"]
        assert ct.records_of(0)[0].duration == 0.25

    def test_rank_out_of_range(self):
        b = ColumnarTraceBuilder(2)
        with pytest.raises(ValueError, match="out of range"):
            b.compute(2, 0.1)

    def test_validation_mirrors_records(self):
        b = ColumnarTraceBuilder(2)
        with pytest.raises(ValueError, match="duration"):
            b.compute(0, -1.0)
        with pytest.raises(ValueError, match="beta"):
            b.compute(0, 1.0, beta=1.5)
        with pytest.raises(ValueError, match="nbytes"):
            b.send(0, 1, -4)
        with pytest.raises(ValueError, match="collective"):
            b.collective(0, "alltoallw")

    def test_append_dict_rejects_unknown_fields(self):
        b = ColumnarTraceBuilder(1)
        with pytest.raises(ValueError, match="unexpected fields"):
            b.append_dict(0, {"kind": "wait", "request": 1, "bogus": 2})
        with pytest.raises(ValueError, match="missing field"):
            b.append_dict(0, {"kind": "send", "dst": 0})
        with pytest.raises(ValueError, match="unknown record kind"):
            b.append_dict(0, {"kind": "sendrecv"})

    def test_bytes_per_event_accounting(self):
        app = build_app("CG-8", iterations=2)
        ct = app.columnar_trace()
        overhead = (8 + 1) * 8 + ct.reqpool.nbytes  # offsets + waitall pool
        assert ct.nbytes() == ct.n_events * BYTES_PER_EVENT + overhead


class TestValidateParity:
    def test_valid_trace_passes_both(self, small_trace):
        small_trace.validate()  # DES-recorded
        build_app("CG-8", iterations=2).columnar_trace().validate()

    @pytest.mark.parametrize("breaker, message", [
        (lambda b: b.send(0, 5, 10), "out of range"),
        (lambda b: b.send(0, 0, 10), "self-send"),
        (lambda b: b.recv(0, src=0), "self-recv"),
        (lambda b: b.isend(0, 1, 8, request=1), "never waited"),
        (lambda b: b.wait(0, 9), "unknown or already-completed"),
    ])
    def test_structural_errors(self, breaker, message):
        b = ColumnarTraceBuilder(2)
        breaker(b)
        with pytest.raises(ValueError, match=message):
            b.build().validate()

    def test_request_reuse_detected(self):
        b = ColumnarTraceBuilder(2)
        b.isend(0, 1, 8, request=3)
        b.isend(0, 1, 8, request=3)
        with pytest.raises(ValueError, match="reused before wait"):
            b.build().validate()

    def test_collective_count_mismatch(self):
        b = ColumnarTraceBuilder(2)
        b.collective(0, "barrier")
        with pytest.raises(ValueError, match="disagree on collective count"):
            b.build().validate()


APP_SPECS = [
    "BT-MZ-16", "CG-16", "MG-16", "IS-16", "SPECFEM3D-16", "WRF-16",
    "PEPC-16",
]


class TestEmitterEquivalence:
    """emit_rank ≡ rank_program ≡ DES-recorded trace, per family."""

    @pytest.mark.parametrize("spec", APP_SPECS)
    def test_columnar_trace_matches_recorded(self, spec):
        app = build_app(spec, iterations=2)
        balancer = PowerAwareLoadBalancer(gear_set=uniform_gear_set(6))
        recorded = balancer.trace_app(app)
        ct = app.columnar_trace()
        ct.meta.setdefault("nproc", ct.nproc)
        assert isinstance(recorded, ColumnarTrace)
        assert ct.meta == recorded.meta
        for rank in range(app.nproc):
            assert recorded.records_of(rank) == list(app.rank_program(rank))
            assert ct.records_of(rank) == recorded.records_of(rank)

    def test_synthetic_matches_recorded(self):
        from repro.apps.synthetic import build_synthetic

        app = build_synthetic(
            nproc=8, target_lb=0.7, target_pe=0.5,
            shape="wave", pattern="mixed", phases=2,
        )
        assert app.columnar_trace().records_of(3) == list(app.rank_program(3))


class TestCompiledIdentity:
    """One compile core: both storage paths yield the same tape."""

    @pytest.mark.parametrize("spec", ["CG-16", "BT-MZ-16", "PEPC-16"])
    def test_tape_and_makespan_identical(self, spec):
        app = build_app(spec, iterations=2)
        p_rec = compile_world(app.programs(), MYRINET_LIKE, MODEL)
        p_col = compile_columnar_world(app.columnar_trace(), MYRINET_LIKE, MODEL)
        for pool in (
            "_codes", "_arg1", "_arg2", "_wait_off", "_wait_kind",
            "_wait_slot", "_brank",
        ):
            assert getattr(p_rec, pool) == getattr(p_col, pool), pool
        assert p_rec._dur == p_col._dur
        assert p_rec._beta == p_col._beta
        assert p_rec._wire_eager == p_col._wire_eager
        assert p_rec._wire_rdv == p_col._wire_rdv
        assert p_rec._coll_costs == p_col._coll_costs
        freqs = [1.8 + 0.05 * (r % 5) for r in range(app.nproc)]
        a = p_rec.evaluate(freqs)
        b = p_col.evaluate(freqs)
        assert a.execution_time == b.execution_time
        assert np.array_equal(a.compute_times, b.compute_times)
        assert np.array_equal(a.comm_times, b.comm_times)
        assert np.array_equal(a.end_times, b.end_times)

    def test_columnar_program_cross_validates_against_des(self):
        app = build_app("WRF-16", iterations=2)
        program = compile_columnar_world(
            app.columnar_trace(), MYRINET_LIKE, MODEL
        )
        program.assert_equivalent([2.0] * 16)  # raises on any divergence

    def test_engine_compiles_columnar_trace_with_cache(self):
        from repro.netsim.compiled import CompiledReplayEngine

        app = build_app("CG-16", iterations=2)
        ct = app.columnar_trace()
        engine = CompiledReplayEngine(MYRINET_LIKE, MODEL)
        first = engine.compile_trace(ct)
        assert engine.compile_trace(ct) is first  # cached on the trace
        result = engine.run_trace(ct, 2.0)
        assert result.engine == "compiled"


class TestBalanceReportIdentity:
    @pytest.mark.parametrize("engine", ["auto", "des", "compiled"])
    def test_report_json_byte_identical(self, engine):
        """DES-recorded and skeleton-emitted traces price identically."""
        app = build_app("CG-16", iterations=2)
        r_rec = PowerAwareLoadBalancer(
            uniform_gear_set(6), engine=engine
        ).balance_app(app)
        emitted = app.columnar_trace()
        emitted.meta.setdefault("nproc", emitted.nproc)
        r_col = PowerAwareLoadBalancer(
            uniform_gear_set(6), engine=engine
        ).balance_trace(emitted)
        assert r_rec.to_json() == r_col.to_json()


def scaled_records(records, f, model):
    """Per-record oracle of :func:`scale_compute` for one rank."""
    out = []
    for rec in records:
        if isinstance(rec, ComputeBurst) and rec.duration > 0.0:
            beta = model.beta if rec.beta is None else rec.beta
            rec = ComputeBurst(
                rec.duration * model.ratio(f, beta), phase=rec.phase
            )
        out.append(rec)
    return out


class TestScaleCompute:
    def test_columnar_scaling_bit_identical(self, small_trace):
        freqs = [1.2 + 0.1 * (r % 4) for r in range(small_trace.nproc)]
        scaled = scale_compute(small_trace, freqs, MODEL)
        assert isinstance(scaled, ColumnarTrace)
        assert scaled.meta == {
            **small_trace.meta,
            "scaled_frequencies": freqs,
            "time_model": {"fmax": MODEL.fmax, "beta": MODEL.beta},
        }
        for rank in range(small_trace.nproc):
            assert scaled.records_of(rank) == scaled_records(
                small_trace.records_of(rank), freqs[rank], MODEL
            )

    @settings(max_examples=25, deadline=None)
    @given(
        streams=st.lists(stream_records(), min_size=NPROC, max_size=NPROC),
        freqs=st.lists(st.floats(0.8, 2.6), min_size=NPROC, max_size=NPROC),
    )
    def test_scaling_matches_per_record_rule(self, streams, freqs):
        scaled = scale_compute(record_trace(streams), freqs, MODEL)
        for rank in range(NPROC):
            assert scaled.records_of(rank) == scaled_records(
                streams[rank], freqs[rank], MODEL
            )

    def test_beta_override_honoured_then_dropped(self):
        ct = ColumnarTrace.from_streams([[
            vmpi.compute(1.0, beta=0.25),
            vmpi.compute(0.0, beta=0.75),  # zero: untouched
        ]])
        out = scale_compute(ct, 1.15, MODEL)
        burst, untouched = out.records_of(0)
        assert burst.duration == 1.0 * MODEL.ratio(1.15, 0.25)
        assert burst.beta is None
        assert untouched.beta == 0.75


class TestCliColumnar:
    def test_trace_command_writes_identical_file(self, tmp_path, capsys):
        """DES recording and shard-parallel emission write one file."""
        from repro.cli import main

        rec_path = tmp_path / "rec.jsonl"
        col_path = tmp_path / "col.jsonl"
        assert main(["trace", "record", "CG-8", "-o", str(rec_path)]) == 0
        assert main(
            ["trace", "record", "CG-8", "-o", str(col_path), "--jobs", "2"]
        ) == 0
        assert rec_path.read_bytes() == col_path.read_bytes()
