"""Unit tests for the trace container, its per-rank views and validation."""

import pytest

from repro.traces.records import (
    CollectiveRecord,
    ComputeBurst,
    IrecvRecord,
    IsendRecord,
    RecvRecord,
    SendRecord,
    WaitallRecord,
    WaitRecord,
)
from repro.traces.columnar import ColumnarTrace


def two_rank_trace(records0, records1):
    return ColumnarTrace.from_streams([records0, records1])


def rank_view(records):
    """Rank 0's view of a one-rank trace holding ``records``."""
    return ColumnarTrace.from_streams([records])[0]


class TestRankStream:
    """The per-rank read surface (:class:`ColumnarRankView`)."""

    def test_compute_time_sums_bursts(self):
        s = rank_view([ComputeBurst(1.0), SendRecord(1, 10), ComputeBurst(2.5)])
        assert s.compute_time() == pytest.approx(3.5)

    def test_compute_time_by_phase(self):
        s = rank_view(
            [
                ComputeBurst(1.0, phase="a"),
                ComputeBurst(2.0, phase="b"),
                ComputeBurst(0.5, phase="a"),
            ],
        )
        assert s.compute_time_by_phase() == {"a": 1.5, "b": 2.0}

    def test_bytes_sent_counts_send_and_isend(self):
        s = rank_view(
            [SendRecord(1, 100), IsendRecord(1, 50, request=0), WaitRecord(0)],
        )
        assert s.bytes_sent() == 150

    def test_count_by_kind(self):
        s = rank_view([ComputeBurst(1.0), ComputeBurst(1.0), SendRecord(1, 1)])
        assert s.count("compute") == 2
        assert s.count("send") == 1
        assert s.count("recv") == 0


class TestTraceBasics:
    def test_nproc_and_len(self):
        t = ColumnarTrace.from_streams([[]] * 4)
        assert t.nproc == 4
        assert len(t) == 4

    def test_zero_ranks_rejected(self):
        with pytest.raises(ValueError):
            ColumnarTrace.from_streams([])

    def test_from_streams_assigns_ranks_positionally(self):
        t = two_rank_trace([ComputeBurst(1.0)], [ComputeBurst(2.0)])
        assert t[0].rank == 0
        assert t[1].compute_time() == 2.0

    def test_name_from_meta(self):
        t = ColumnarTrace.from_streams([[]] * 2, meta={"name": "CG-2"})
        assert t.name == "CG-2"

    def test_total_records(self):
        t = two_rank_trace([ComputeBurst(1.0)] * 3, [ComputeBurst(1.0)] * 2)
        assert t.total_records() == 5


class TestValidate:
    def test_valid_ptp_trace_passes(self):
        t = two_rank_trace(
            [SendRecord(1, 10)],
            [RecvRecord(0)],
        )
        t.validate()

    def test_out_of_range_dst_rejected(self):
        t = two_rank_trace([SendRecord(5, 10)], [])
        with pytest.raises(ValueError, match="out of range"):
            t.validate()

    def test_self_send_rejected(self):
        t = ColumnarTrace.from_streams([[SendRecord(0, 10)]])
        # dst==rank is only detectable with >=1 rank; build rank0 self-send
        with pytest.raises(ValueError, match="self-send"):
            t.validate()

    def test_dangling_request_rejected(self):
        t = two_rank_trace([IsendRecord(1, 10, request=1)], [RecvRecord(0)])
        with pytest.raises(ValueError, match="never waited"):
            t.validate()

    def test_wait_on_unknown_request_rejected(self):
        t = two_rank_trace([WaitRecord(9)], [])
        with pytest.raises(ValueError, match="unknown"):
            t.validate()

    def test_request_id_reuse_after_wait_allowed(self):
        t = two_rank_trace(
            [
                IsendRecord(1, 10, request=1),
                WaitRecord(1),
                IsendRecord(1, 10, request=1),
                WaitRecord(1),
            ],
            [RecvRecord(0), RecvRecord(0)],
        )
        t.validate()

    def test_request_id_reuse_before_wait_rejected(self):
        t = two_rank_trace(
            [IsendRecord(1, 10, request=1), IsendRecord(1, 10, request=1)],
            [],
        )
        with pytest.raises(ValueError, match="reused"):
            t.validate()

    def test_waitall_covers_requests(self):
        t = two_rank_trace(
            [
                IsendRecord(1, 10, request=1),
                IrecvRecord(1, request=2),
                WaitallRecord((1, 2)),
            ],
            [RecvRecord(0), SendRecord(0, 10)],
        )
        t.validate()

    def test_collective_count_mismatch_rejected(self):
        t = two_rank_trace(
            [CollectiveRecord("barrier")],
            [CollectiveRecord("barrier"), CollectiveRecord("barrier")],
        )
        with pytest.raises(ValueError, match="disagree on collective count"):
            t.validate()

    def test_app_trace_validates(self, small_trace):
        small_trace.validate()
