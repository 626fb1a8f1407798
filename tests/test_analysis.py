"""Unit tests for trace analysis (the paper's Eq. 4 and Eq. 5)."""

import numpy as np
import pytest

from repro.traces.analysis import (
    compute_times,
    compute_times_by_phase,
    imbalance_time,
    iteration_count,
    load_balance,
    load_balance_from_times,
    parallel_efficiency,
    trace_stats,
)
from repro.traces.records import CollectiveRecord, ComputeBurst, MarkerRecord
from repro.traces.columnar import ColumnarTrace


def trace_with_times(times, phase=""):
    return ColumnarTrace.from_streams([[ComputeBurst(t, phase=phase)] for t in times])


class TestLoadBalance:
    def test_equal_times_give_unity(self):
        assert load_balance_from_times(np.array([2.0, 2.0, 2.0])) == 1.0

    def test_formula_matches_eq4(self):
        # LB = sum / (N * max) = (4+2+2) / (3*4)
        times = np.array([4.0, 2.0, 2.0])
        assert load_balance_from_times(times) == pytest.approx(8.0 / 12.0)

    def test_single_rank_is_balanced(self):
        assert load_balance_from_times(np.array([5.0])) == 1.0

    def test_all_zero_is_balanced_by_convention(self):
        assert load_balance_from_times(np.array([0.0, 0.0])) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            load_balance_from_times(np.array([]))

    def test_trace_level_wrapper(self):
        t = trace_with_times([4.0, 2.0, 2.0])
        assert load_balance(t) == pytest.approx(2.0 / 3.0)


class TestParallelEfficiency:
    def test_formula_matches_eq5(self):
        t = trace_with_times([4.0, 2.0])
        # PE = (4+2) / (2 * 5)
        assert parallel_efficiency(t, total_execution_time=5.0) == pytest.approx(0.6)

    def test_pe_never_exceeds_lb(self, small_trace):
        # T_exec >= max compute time, so PE <= LB always
        times = compute_times(small_trace)
        pe = parallel_efficiency(small_trace, float(times.max()) * 1.01)
        assert pe <= load_balance(small_trace) + 1e-12

    def test_nonpositive_time_rejected(self):
        t = trace_with_times([1.0])
        with pytest.raises(ValueError):
            parallel_efficiency(t, 0.0)


class TestHelpers:
    def test_compute_times_vector(self):
        t = trace_with_times([1.0, 2.0, 3.0])
        assert compute_times(t).tolist() == [1.0, 2.0, 3.0]

    def test_compute_times_by_phase(self):
        t = ColumnarTrace.from_streams(
            [
                [ComputeBurst(1.0, phase="a"), ComputeBurst(2.0, phase="b")],
                [ComputeBurst(3.0, phase="a")],
            ]
        )
        phases = compute_times_by_phase(t)
        assert phases["a"].tolist() == [1.0, 3.0]
        assert phases["b"].tolist() == [2.0, 0.0]

    def test_imbalance_time(self):
        t = trace_with_times([4.0, 2.0, 1.0])
        assert imbalance_time(t) == pytest.approx((4 - 4) + (4 - 2) + (4 - 1))

    def test_iteration_count_from_markers(self):
        t = ColumnarTrace.from_streams(
            [[MarkerRecord("iter", 0), ComputeBurst(1.0), MarkerRecord("iter", 1)]]
        )
        assert iteration_count(t) == 2

    def test_iteration_count_ignores_unnumbered_markers(self):
        t = ColumnarTrace.from_streams([[MarkerRecord("note"), ComputeBurst(1.0)]])
        assert iteration_count(t) == 0


class TestTraceStats:
    def test_stats_fields(self):
        t = ColumnarTrace.from_streams(
            [
                [MarkerRecord("iter", 0), ComputeBurst(4.0),
                 CollectiveRecord("allreduce", 8)],
                [MarkerRecord("iter", 0), ComputeBurst(2.0),
                 CollectiveRecord("allreduce", 8)],
            ],
            meta={"name": "t"},
        )
        stats = trace_stats(t, total_execution_time=5.0)
        assert stats.nproc == 2
        assert stats.load_balance == pytest.approx(0.75)
        assert stats.parallel_efficiency == pytest.approx(0.6)
        assert stats.max_compute == 4.0
        assert stats.iterations == 1
        assert stats.collective_counts == {"allreduce": 2}

    def test_pe_none_without_time(self):
        t = trace_with_times([1.0])
        stats = trace_stats(t)
        assert stats.parallel_efficiency is None
        assert stats.row()["parallel_efficiency_pct"] is None


class TestCommunicationMatrix:
    def test_bytes_and_counts(self):
        from repro.traces.analysis import communication_matrix
        from repro.traces.records import IsendRecord, SendRecord, WaitRecord

        t = ColumnarTrace.from_streams(
            [
                [SendRecord(1, 100), IsendRecord(2, 50, request=0), WaitRecord(0)],
                [SendRecord(2, 25)],
                [],
            ]
        )
        nbytes, counts = communication_matrix(t)
        assert nbytes[0, 1] == 100
        assert nbytes[0, 2] == 50
        assert nbytes[1, 2] == 25
        assert counts[0, 2] == 1
        assert counts.sum() == 3
        assert nbytes[2].sum() == 0

    def test_top_communicators_sorted(self):
        from repro.traces.analysis import top_communicators
        from repro.traces.records import SendRecord

        t = ColumnarTrace.from_streams(
            [[SendRecord(1, 10), SendRecord(2, 300)], [SendRecord(2, 200)], []]
        )
        top = top_communicators(t, k=2)
        assert top == [(0, 2, 300.0), (1, 2, 200.0)]

    def test_top_communicators_k_validated(self):
        from repro.traces.analysis import top_communicators

        with pytest.raises(ValueError):
            top_communicators(trace_with_times([1.0]), k=0)

    def test_app_matrix_symmetry_for_halo(self, small_trace):
        from repro.traces.analysis import communication_matrix

        nbytes, _ = communication_matrix(small_trace)
        # CG's periodic 1-D halo: symmetric pairwise traffic
        assert (nbytes == nbytes.T).all()
