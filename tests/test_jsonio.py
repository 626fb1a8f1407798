"""Unit tests for JSON-lines trace persistence."""

import io

import pytest

from repro.traces.jsonio import dumps_trace, loads_trace, read_trace, write_trace
from repro.traces.columnar import ColumnarTrace
from repro.traces.records import CollectiveRecord, ComputeBurst, SendRecord


def sample_trace() -> ColumnarTrace:
    return ColumnarTrace.from_streams(
        [
            [ComputeBurst(1.5, phase="p", beta=0.3), SendRecord(1, 4096, tag=3)],
            [CollectiveRecord("allreduce", 64)],
        ],
        meta={"name": "sample", "tags": ["a", "b"]},
    )


class TestRoundTrip:
    def test_string_round_trip_preserves_everything(self):
        t = sample_trace()
        t2 = loads_trace(dumps_trace(t))
        assert t2.nproc == t.nproc
        assert t2.meta == t.meta
        for s1, s2 in zip(t, t2):
            assert s1.records == s2.records

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(sample_trace(), path)
        t2 = read_trace(path)
        assert t2.meta["name"] == "sample"
        assert t2[0].records[0] == ComputeBurst(1.5, phase="p", beta=0.3)

    def test_gzip_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl.gz"
        write_trace(sample_trace(), path)
        t2 = read_trace(str(path))
        assert t2.total_records() == 3
        # compressed file should actually be gzip
        with open(path, "rb") as fh:
            assert fh.read(2) == b"\x1f\x8b"

    def test_app_trace_round_trip(self, small_trace, tmp_path):
        path = tmp_path / "app.jsonl"
        write_trace(small_trace, path)
        t2 = read_trace(path)
        assert t2.total_records() == small_trace.total_records()
        assert [s.compute_time() for s in t2] == pytest.approx(
            [s.compute_time() for s in small_trace]
        )


class TestErrors:
    def test_empty_file_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            loads_trace("")

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError, match="not a repro-trace"):
            loads_trace('{"format": "other", "version": 1, "nproc": 1}\n')

    def test_wrong_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            loads_trace('{"format": "repro-trace", "version": 99, "nproc": 1}\n')

    def test_bad_event_line_reports_lineno(self):
        text = (
            '{"format": "repro-trace", "version": 1, "nproc": 1, "meta": {}}\n'
            '{"rank": 0, "kind": "compute", "duration": -5}\n'
        )
        with pytest.raises(ValueError, match="line 2"):
            loads_trace(text)

    def test_out_of_range_rank_rejected(self):
        text = (
            '{"format": "repro-trace", "version": 1, "nproc": 1, "meta": {}}\n'
            '{"rank": 7, "kind": "compute", "duration": 1.0}\n'
        )
        with pytest.raises(ValueError, match="line 2"):
            loads_trace(text)

    def test_blank_lines_tolerated(self):
        text = dumps_trace(sample_trace()).replace("\n", "\n\n")
        t = loads_trace(text)
        assert t.total_records() == 3

    def test_writes_to_open_stream_without_closing(self):
        buf = io.StringIO()
        write_trace(sample_trace(), buf)
        assert not buf.closed
        buf.seek(0)
        assert read_trace(buf).nproc == 2
