"""Unit tests for the advisory trace rules TR001–TR007.

Test names keep the rules' original ``w00x`` numbering: rule TR00x was
advisory check W00x.
"""

from repro.apps import build_app
from repro.diagnostics import lint_trace_subject
from repro.netsim.platform import PlatformConfig
from repro.netsim.simulator import MpiSimulator
from repro.traces.columnar import ColumnarTrace
from repro.traces.records import (
    ANY_SOURCE,
    CollectiveRecord,
    ComputeBurst,
    MarkerRecord,
    RecvRecord,
    SendRecord,
)


def codes(diagnostics):
    return {d.code for d in diagnostics}


def marked(records_per_rank):
    """Prefix every rank with an iteration marker (suppresses TR001)."""
    return ColumnarTrace.from_streams(
        [[MarkerRecord("iter", 0), *recs] for recs in records_per_rank]
    )


class TestChecks:
    def test_clean_trace_no_warnings(self):
        t = marked(
            [
                [ComputeBurst(0.01), SendRecord(1, 100)],
                [ComputeBurst(0.02), RecvRecord(0)],
            ]
        )
        assert lint_trace_subject(t) == []

    def test_w001_missing_markers(self):
        t = ColumnarTrace.from_streams([[ComputeBurst(0.01)], [ComputeBurst(0.01)]])
        assert "TR001" in codes(lint_trace_subject(t))

    def test_w002_idle_rank(self):
        t = marked([[ComputeBurst(0.01)], []])
        found = [d for d in lint_trace_subject(t) if d.code == "TR002"]
        assert len(found) == 1
        assert found[0].rank == 1

    def test_w003_unmatched_pair(self):
        t = marked(
            [
                [ComputeBurst(0.01), SendRecord(1, 10), SendRecord(1, 10)],
                [ComputeBurst(0.01), RecvRecord(0)],
            ]
        )
        tr003 = [d for d in lint_trace_subject(t) if d.code == "TR003"]
        assert len(tr003) == 1
        assert "2 send(s) vs 1 recv(s)" in tr003[0].message

    def test_w003_suppressed_by_wildcard(self):
        t = marked(
            [
                [ComputeBurst(0.01), SendRecord(1, 10), SendRecord(1, 10)],
                [ComputeBurst(0.01), RecvRecord(ANY_SOURCE), RecvRecord(0)],
            ]
        )
        assert "TR003" not in codes(lint_trace_subject(t))

    def test_w004_wildcards_flagged(self):
        t = marked(
            [
                [ComputeBurst(0.01), SendRecord(1, 10)],
                [ComputeBurst(0.01), RecvRecord(ANY_SOURCE)],
            ]
        )
        assert "TR004" in codes(lint_trace_subject(t))

    def test_w005_eager_cliff(self):
        platform = PlatformConfig(eager_threshold=1000)
        t = marked(
            [
                [ComputeBurst(0.01), SendRecord(1, 1050)],
                [ComputeBurst(0.01), RecvRecord(0)],
            ]
        )
        assert "TR005" in codes(lint_trace_subject(t, platform))
        # well above the threshold: no cliff warning
        t2 = marked(
            [
                [ComputeBurst(0.01), SendRecord(1, 5000)],
                [ComputeBurst(0.01), RecvRecord(0)],
            ]
        )
        assert "TR005" not in codes(lint_trace_subject(t2, platform))

    def test_w006_collective_spread(self):
        t = marked(
            [
                [ComputeBurst(0.01), CollectiveRecord("alltoall", 100_000)],
                [ComputeBurst(0.01), CollectiveRecord("alltoall", 10)],
            ]
        )
        assert "TR006" in codes(lint_trace_subject(t))

    def test_w007_overhead_dominated(self):
        platform = PlatformConfig(latency=1e-3)
        t = marked([[ComputeBurst(1e-6) for _ in range(8)]] * 2)
        assert "TR007" in codes(lint_trace_subject(t, platform))


class TestOnRealTraces:
    def test_paper_skeletons_mostly_clean(self):
        app = build_app("MG-16", iterations=2)
        trace = MpiSimulator().run(
            app.programs(), record_trace=True, meta={"name": app.name}
        ).trace
        findings = codes(lint_trace_subject(trace))
        # structural hygiene: no missing markers, idle ranks or leaks
        assert not findings & {"TR001", "TR002", "TR003"}

    def test_is_weighted_alltoall_triggers_spread(self):
        app = build_app("IS-32", iterations=2)
        trace = MpiSimulator().run(
            app.programs(), record_trace=True, meta={"name": app.name}
        ).trace
        assert "TR006" in codes(lint_trace_subject(trace))

    def test_warning_str_format(self):
        t = ColumnarTrace.from_streams([[ComputeBurst(0.01)], []])
        text = [str(d) for d in lint_trace_subject(t)]
        assert any(d.startswith("TR001 ") for d in text)
        assert any("(rank 1)" in d for d in text)
