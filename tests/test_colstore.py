"""Binary columnar trace store: round-trips, stitching, out-of-core.

The store is only allowed to exist because it is indistinguishable from
the in-memory columnar representation: the same columns come back (both
``mmap=False`` and ``mmap=True``), the same records materialise, the
same compile tape and balance reports fall out, and the shard-stitched
file is *byte-identical* to the sequential save — so neither the
storage backend nor the worker count can ever change results.
"""

import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_app
from repro.traces.colstore import (
    STORE_EXTENSION,
    STORE_MAGIC,
    StoreError,
    describe_store,
    is_store_file,
    stitch_stores,
)
from repro.traces.columnar import ColumnarTrace, ColumnarTraceBuilder

from tests.test_columnar import NPROC, record_trace, stream_records

COLUMNS = (
    "offsets", "kind", "duration", "beta", "peer", "tag",
    "size", "req", "aux", "label", "collop", "reqpool",
)


def assert_traces_equal(a: ColumnarTrace, b: ColumnarTrace) -> None:
    assert a.nproc == b.nproc
    assert a.meta == b.meta
    assert a.strings == b.strings
    for name in COLUMNS:
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right, equal_nan=(left.dtype.kind == "f")), name


def sha(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.fixture
def app_trace():
    return build_app("CG-32", iterations=2).columnar_trace()


class TestRoundTrip:
    def test_save_open_in_memory(self, tmp_path, app_trace):
        path = tmp_path / f"t{STORE_EXTENSION}"
        app_trace.save(path)
        reopened = ColumnarTrace.open(path)
        assert not reopened.is_mapped
        assert_traces_equal(app_trace, reopened)
        # non-mmap columns are private copies: writable, detached from disk
        assert reopened.kind.flags.writeable

    def test_save_open_mmap(self, tmp_path, app_trace):
        path = tmp_path / f"t{STORE_EXTENSION}"
        app_trace.save(path)
        mapped = ColumnarTrace.open(path, mmap=True)
        assert mapped.is_mapped
        assert_traces_equal(app_trace, mapped)
        # mapped columns must be read-only: a write would hit the file
        assert not mapped.kind.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            mapped.kind[0] = 0
        mapped.release_pages()  # advisory; must be a safe no-op to call
        assert_traces_equal(app_trace, mapped)
        mapped.detach_mapping()
        assert not mapped.is_mapped

    def test_records_materialise_identically(self, tmp_path, app_trace):
        path = tmp_path / f"t{STORE_EXTENSION}"
        app_trace.save(path)
        mapped = ColumnarTrace.open(path, mmap=True)
        for rank in range(0, app_trace.nproc, 7):
            assert mapped.records_of(rank) == app_trace.records_of(rank)

    def test_save_is_deterministic(self, tmp_path, app_trace):
        p1, p2 = tmp_path / "a.rpcs", tmp_path / "b.rpcs"
        app_trace.save(p1)
        app_trace.save(p2)
        assert sha(p1) == sha(p2)

    @settings(max_examples=40, deadline=None)
    @given(streams=st.lists(stream_records(), min_size=NPROC, max_size=NPROC))
    def test_fuzz_round_trip_all_nine_kinds(self, tmp_path_factory, streams):
        """save -> open(mmap=True) -> records_of identity, fuzzed over
        all nine record kinds (wildcards, β overrides, unicode labels,
        ragged waitall pools)."""
        trace = record_trace(streams)
        path = tmp_path_factory.mktemp("fuzz") / f"t{STORE_EXTENSION}"
        trace.save(path)
        mapped = ColumnarTrace.open(path, mmap=True)
        assert_traces_equal(trace, mapped)
        assert [mapped.records_of(r) for r in range(NPROC)] == streams
        mapped.detach_mapping()


class TestEdgeCases:
    def test_empty_world(self, tmp_path):
        trace = ColumnarTraceBuilder(8).build(meta={"name": "empty"})
        path = tmp_path / f"e{STORE_EXTENSION}"
        trace.save(path)
        for mmap_flag in (False, True):
            reopened = ColumnarTrace.open(path, mmap=mmap_flag)
            assert reopened.n_events == 0
            assert_traces_equal(trace, reopened)

    def test_zero_event_ranks(self, tmp_path):
        builder = ColumnarTraceBuilder(6)
        builder.compute(2, 1.0)
        builder.marker(4, "only-here", iteration=3)
        trace = builder.build(meta={"name": "sparse"})
        path = tmp_path / f"s{STORE_EXTENSION}"
        trace.save(path)
        reopened = ColumnarTrace.open(path, mmap=True)
        assert_traces_equal(trace, reopened)
        assert len(reopened[0]) == 0 and len(reopened[5]) == 0

    def test_unicode_labels(self, tmp_path):
        builder = ColumnarTraceBuilder(2)
        builder.compute(0, 1.0, phase="相位-α")
        builder.marker(1, "итерация", iteration=0)
        trace = builder.build(meta={"name": "ユニコード"})
        path = tmp_path / f"u{STORE_EXTENSION}"
        trace.save(path)
        reopened = ColumnarTrace.open(path, mmap=True)
        assert_traces_equal(trace, reopened)
        assert "相位-α" in reopened.strings


def _boundary_builder(nproc, lo, hi):
    """Ragged waitall pools (0–3 requests) around every rank; emitted
    for ranks [lo, hi) only, full-world offsets."""
    builder = ColumnarTraceBuilder(nproc)
    for rank in range(lo, hi):
        for k in range(rank % 4):
            builder.isend(rank, dst=(rank + 1) % nproc, nbytes=64, request=k)
        builder.waitall(rank, list(range(rank % 4)))
        builder.compute(rank, float(rank), phase=f"phase-{rank % 3}")
    return builder


class TestStitch:
    def test_stitched_equals_sequential(self, tmp_path):
        """The cornerstone: disjoint rank-range shards stitch to the
        exact bytes of the sequential save — ragged waitall reqpools
        crossing every shard boundary."""
        nproc = 10
        seq = tmp_path / f"seq{STORE_EXTENSION}"
        _boundary_builder(nproc, 0, nproc).build(
            meta={"name": "stitch"}
        ).save(seq)
        shard_paths = []
        for i, (lo, hi) in enumerate([(0, 3), (3, 4), (4, 10)]):
            p = tmp_path / f"shard-{i}{STORE_EXTENSION}"
            _boundary_builder(nproc, lo, hi).build().save(p)
            shard_paths.append(p)
        out = tmp_path / f"stitched{STORE_EXTENSION}"
        stitch_stores(shard_paths, out, meta={"name": "stitch"})
        assert sha(out) == sha(seq)

    def test_stitch_rejects_overlapping_shards(self, tmp_path):
        a = tmp_path / f"a{STORE_EXTENSION}"
        b = tmp_path / f"b{STORE_EXTENSION}"
        _boundary_builder(4, 0, 2).build().save(a)
        _boundary_builder(4, 1, 4).build().save(b)
        with pytest.raises(StoreError):
            stitch_stores([a, b], tmp_path / "out.rpcs", meta={})

    def test_sharded_generation_byte_identical(self, tmp_path):
        """columnar_trace(jobs=N) can never change the file bytes."""
        app = build_app("CG-32", iterations=2)
        seq = tmp_path / f"seq{STORE_EXTENSION}"
        app.columnar_trace().save(seq)
        par = tmp_path / f"par{STORE_EXTENSION}"
        trace = app.columnar_trace(jobs=4, out=str(par))
        assert trace.is_mapped
        assert sha(par) == sha(seq)
        trace.detach_mapping()

    def test_sharded_generation_in_memory(self):
        app = build_app("CG-32", iterations=2)
        assert_traces_equal(app.columnar_trace(jobs=3), app.columnar_trace())


class TestIntegrity:
    def test_magic_and_sniffing(self, tmp_path, app_trace):
        path = tmp_path / f"t{STORE_EXTENSION}"
        app_trace.save(path)
        with open(path, "rb") as fh:
            assert fh.read(len(STORE_MAGIC)) == STORE_MAGIC
        assert is_store_file(path)
        other = tmp_path / "t.jsonl"
        other.write_text("{}\n")
        assert not is_store_file(other)
        assert not is_store_file(tmp_path / "missing.rpcs")

    def test_payload_corruption_detected(self, tmp_path, app_trace):
        path = tmp_path / f"t{STORE_EXTENSION}"
        app_trace.save(path)
        blob = bytearray(path.read_bytes())
        blob[-20] ^= 0x40  # flip one payload bit
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreError, match="digest"):
            ColumnarTrace.open(path)  # non-mmap verifies by default
        with pytest.raises(StoreError, match="digest"):
            ColumnarTrace.open(path, mmap=True, verify=True)

    def test_header_corruption_detected(self, tmp_path, app_trace):
        path = tmp_path / f"t{STORE_EXTENSION}"
        app_trace.save(path)
        blob = bytearray(path.read_bytes())
        blob[30] ^= 0x01  # inside the header JSON
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreError):
            ColumnarTrace.open(path)

    def test_truncated_file_rejected(self, tmp_path, app_trace):
        path = tmp_path / f"t{STORE_EXTENSION}"
        app_trace.save(path)
        path.write_bytes(path.read_bytes()[:200])
        with pytest.raises(StoreError):
            ColumnarTrace.open(path)

    def test_not_a_store_rejected(self, tmp_path):
        path = tmp_path / f"t{STORE_EXTENSION}"
        path.write_bytes(b"definitely not a store" * 10)
        with pytest.raises(StoreError, match="not a columnar trace store"):
            ColumnarTrace.open(path)

    def test_describe_store(self, tmp_path, app_trace):
        path = tmp_path / f"t{STORE_EXTENSION}"
        app_trace.save(path)
        info = describe_store(path)
        assert info["nproc"] == app_trace.nproc
        assert info["n_events"] == app_trace.n_events
        assert info["file_nbytes"] == os.path.getsize(path)
        assert {c["name"] for c in info["columns"]} == set(COLUMNS)
        assert info["bytes_per_event"] == pytest.approx(
            info["file_nbytes"] / info["n_events"]
        )


class TestJsonioDispatch:
    def test_write_read_trace_store_path(self, tmp_path, app_trace):
        from repro.traces.jsonio import read_trace, write_trace

        path = tmp_path / f"t{STORE_EXTENSION}"
        write_trace(app_trace, path)
        assert is_store_file(path)
        back = read_trace(path)
        assert_traces_equal(app_trace, back)
        mapped = read_trace(path, mmap=True)
        assert mapped.is_mapped
        assert_traces_equal(app_trace, mapped)
        mapped.detach_mapping()

    def test_record_trace_converts_on_write(self, tmp_path):
        """A DES-recorded trace stores and reads back record for record."""
        from repro.core.balancer import record_app
        from repro.traces.jsonio import read_trace, write_trace

        app = build_app("CG-32", iterations=2)
        trace = record_app(app)
        path = tmp_path / f"t{STORE_EXTENSION}"
        write_trace(trace, path)
        back = read_trace(path)
        assert_traces_equal(trace, back)
        for rank in range(app.nproc):
            assert back.records_of(rank) == list(app.rank_program(rank))

    def test_jsonl_round_trip_through_store(self, tmp_path, app_trace):
        """jsonl -> store -> jsonl is byte-identical."""
        from repro.traces.jsonio import read_trace, write_trace

        j1 = tmp_path / "a.jsonl"
        write_trace(app_trace, j1)
        store = tmp_path / f"t{STORE_EXTENSION}"
        write_trace(read_trace(j1), store)
        j2 = tmp_path / "b.jsonl"
        write_trace(read_trace(store, mmap=True), j2)
        assert j1.read_bytes() == j2.read_bytes()

    def test_prv_round_trip_through_store(self, tmp_path, app_trace):
        """Replay + Paraver export is byte-identical from a mapped store."""
        import io

        from repro.netsim.simulator import MpiSimulator
        from repro.traces.prv import write_prv

        store = tmp_path / f"t{STORE_EXTENSION}"
        app_trace.save(store)
        mapped = ColumnarTrace.open(store, mmap=True)
        direct, through = io.StringIO(), io.StringIO()
        write_prv(
            MpiSimulator().run_trace(app_trace, record_intervals=True), direct
        )
        write_prv(
            MpiSimulator().run_trace(mapped, record_intervals=True), through
        )
        assert direct.getvalue() == through.getvalue()
        mapped.detach_mapping()

    def test_loads_trace_streaming(self, app_trace):
        from repro.traces.jsonio import dumps_trace, loads_trace

        text = dumps_trace(app_trace)
        back = loads_trace(text)
        assert_traces_equal(app_trace, back)
        # no trailing newline must also parse
        back2 = loads_trace(text.rstrip("\n"))
        assert_traces_equal(app_trace, back2)


class TestCompileIdentity:
    def test_mmap_compile_bit_identical(self, tmp_path):
        """compile + price from mapped columns == in-memory columns, to
        the last bit / byte."""
        from repro.core.balancer import PowerAwareLoadBalancer
        from repro.core.gears import uniform_gear_set

        app = build_app("BT-MZ-64", iterations=2)
        trace = app.columnar_trace()
        path = tmp_path / f"t{STORE_EXTENSION}"
        trace.save(path)
        mapped = ColumnarTrace.open(path, mmap=True)
        balancer = PowerAwareLoadBalancer(gear_set=uniform_gear_set(6))
        r_mem = balancer.balance_trace(trace)
        r_map = balancer.balance_trace(mapped)
        assert json.dumps(r_mem.to_json(), sort_keys=True) == json.dumps(
            r_map.to_json(), sort_keys=True
        )
        mapped.detach_mapping()


class TestRunnerStorage:
    def test_storage_excluded_from_cache_identity(self):
        """Like `engine`, `storage` must never enter payloads."""
        from repro.core.gears import uniform_gear_set
        from repro.experiments.runner import Runner, RunnerConfig

        mem = Runner(RunnerConfig(iterations=2))
        mm = Runner(RunnerConfig(iterations=2, storage="mmap"))
        assert mem._trace_payload("CG-32") == mm._trace_payload("CG-32")
        gs = uniform_gear_set(6)
        from repro.core.algorithms import MaxAlgorithm

        assert mem._report_payload(
            "CG-32", gs, MaxAlgorithm(), 0.5
        ) == mm._report_payload("CG-32", gs, MaxAlgorithm(), 0.5)

    def test_mmap_storage_report_byte_identical(self, tmp_path):
        from repro.core.gears import uniform_gear_set
        from repro.experiments.runner import Runner, RunnerConfig

        gs = uniform_gear_set(6)
        mem = Runner(RunnerConfig(iterations=2)).balance("CG-32", gs)
        mm_runner = Runner(
            RunnerConfig(
                iterations=2, storage="mmap", cache_dir=str(tmp_path)
            )
        )
        mm = mm_runner.balance("CG-32", gs)
        assert json.dumps(mem.to_json(), sort_keys=True) == json.dumps(
            mm.to_json(), sort_keys=True
        )
        assert mm_runner.trace("CG-32").is_mapped
        # the store landed under <cache_dir>/traces and is reused
        stores = list((tmp_path / "traces").iterdir())
        assert len(stores) == 1 and is_store_file(stores[0])

    def test_unknown_storage_rejected(self):
        from repro.experiments.runner import Runner, RunnerConfig

        with pytest.raises(ValueError, match="storage"):
            Runner(RunnerConfig(storage="papyrus"))


class TestCliTrace:
    def test_trace_without_a_verb_is_a_usage_error(self, tmp_path, capsys):
        """`repro trace APP` is not a command: the verb is required."""
        from repro.cli import main

        out = tmp_path / "t.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["trace", "CG-32", "-o", str(out), "--iterations", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "CG-32" in err
        assert not out.exists()

    def test_trace_pack_and_info(self, tmp_path, capsys):
        from repro.cli import main

        jsonl = tmp_path / "t.jsonl"
        assert main(
            ["trace", "record", "CG-32", "-o", str(jsonl), "--iterations", "2"]
        ) == 0
        store = tmp_path / f"t{STORE_EXTENSION}"
        assert main(["trace", "pack", str(jsonl), str(store)]) == 0
        assert is_store_file(store)
        back = tmp_path / "back.jsonl"
        assert main(["trace", "pack", str(store), str(back)]) == 0
        assert jsonl.read_bytes() == back.read_bytes()
        capsys.readouterr()
        assert main(["trace", "info", str(store), "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["nproc"] == 32
        assert main(["trace", "info", str(store)]) == 0
        assert "bytes/event" in capsys.readouterr().out
