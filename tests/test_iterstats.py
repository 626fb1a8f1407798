"""Unit tests for per-iteration statistics and the regularity check."""

import numpy as np
import pytest

from repro.apps import build_app
from repro.netsim.simulator import MpiSimulator
from repro.traces.iterstats import (
    is_regular,
    iteration_stats,
    per_iteration_compute_times,
)
from repro.traces.records import ComputeBurst, MarkerRecord
from repro.traces.columnar import ColumnarTrace


def marked_trace(matrix):
    """Build a trace whose (iterations x ranks) compute matrix is given."""
    niter, nproc = np.asarray(matrix).shape
    streams = []
    for rank in range(nproc):
        recs = []
        for it in range(niter):
            recs.append(MarkerRecord("iter", it))
            recs.append(ComputeBurst(float(matrix[it][rank])))
        streams.append(recs)
    return ColumnarTrace.from_streams(streams)


class TestPerIterationTimes:
    def test_matrix_recovered(self):
        matrix = [[1.0, 2.0], [3.0, 4.0]]
        times = per_iteration_compute_times(marked_trace(matrix))
        assert times.tolist() == matrix

    def test_initialization_excluded(self):
        t = ColumnarTrace.from_streams(
            [[ComputeBurst(99.0), MarkerRecord("iter", 0), ComputeBurst(1.0)]]
        )
        times = per_iteration_compute_times(t)
        assert times.tolist() == [[1.0]]

    def test_markerless_trace_rejected(self):
        t = ColumnarTrace.from_streams([[ComputeBurst(1.0)]])
        with pytest.raises(ValueError, match="iteration markers"):
            per_iteration_compute_times(t)

    def test_disagreeing_ranks_rejected(self):
        t = ColumnarTrace.from_streams(
            [
                [MarkerRecord("iter", 0), ComputeBurst(1.0)],
                [MarkerRecord("iter", 1), ComputeBurst(1.0)],
            ]
        )
        with pytest.raises(ValueError, match="disagree"):
            per_iteration_compute_times(t)


class TestIterationStats:
    def test_stationary_trace(self):
        stats = iteration_stats(marked_trace([[1.0, 2.0]] * 4))
        assert stats.iterations == 4
        assert stats.drift == pytest.approx(0.0, abs=1e-12)
        assert stats.max_rank_cv == pytest.approx(0.0)
        assert stats.lb_per_iteration.tolist() == pytest.approx([0.75] * 4)
        assert stats.lb_of_totals == pytest.approx(0.75)

    def test_rotating_load_detected_as_drift(self):
        matrix = [[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]
        stats = iteration_stats(marked_trace(matrix))
        assert stats.drift > 0.5
        # per-iteration LB constant, totals perfectly balanced
        assert stats.lb_per_iteration.tolist() == pytest.approx([2 / 3] * 3)
        assert stats.lb_of_totals == pytest.approx(1.0)

    def test_noisy_rank_raises_cv(self):
        matrix = [[1.0, 1.0], [1.0, 3.0], [1.0, 1.0], [1.0, 3.0]]
        stats = iteration_stats(marked_trace(matrix))
        assert stats.max_rank_cv > 0.4

    def test_row_fields(self):
        row = iteration_stats(marked_trace([[1.0, 2.0]] * 2)).row()
        assert set(row) >= {"mean_iteration_lb_pct", "drift", "max_rank_cv"}


class TestIsRegular:
    def test_paper_skeletons_are_regular(self):
        app = build_app("MG-32", iterations=3)
        trace = MpiSimulator().run(app.programs(), record_trace=True).trace
        assert is_regular(trace)

    def test_drifting_skeleton_is_irregular(self):
        app = build_app("MG-32", iterations=4, drift_step=5)
        trace = MpiSimulator().run(app.programs(), record_trace=True).trace
        assert not is_regular(trace)

    def test_tolerances_respected(self):
        matrix = [[1.0, 1.0], [1.0, 1.04]]
        assert is_regular(marked_trace(matrix), cv_tol=0.05)
        assert not is_regular(marked_trace(matrix), cv_tol=0.001)
