"""Columnar-native lint: the vectorised trace queries against oracles.

The trace rule pack reads every trace through
:class:`~repro.diagnostics.traceview.ColumnarTraceView`, whose queries
are numpy expressions over the pooled columns.  Two independent oracles
pin them:

* TR001–TR007: :class:`RecordTraceView` below answers the same queries
  by walking each rank's materialised records; Hypothesis drives the
  query-by-query comparison over all nine record kinds (wildcard
  receives and waitalls included) on two platforms (eager-friendly and
  rendezvous-heavy).
* TR008–TR010: the static deadlock replay must name exactly the ranks
  the DES reports blocked, over structurally valid, wildcard-free worlds
  generated by construction.

Deliberate-deadlock fixtures pin the TR008/TR009/TR010 findings at 4096
ranks, and poisoned accessors prove the lint path never materialises a
record object.
"""

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.diagnostics.deadlock import analyze_deadlock
from repro.diagnostics.engine import LintConfig, lint_trace_subject
from repro.diagnostics.model import Severity
from repro.diagnostics.traceview import ColumnarTraceView
from repro.netsim.platform import MYRINET_LIKE
from repro.simx.errors import SimulationError
from repro.traces.columnar import (
    ColumnarRankView,
    ColumnarTrace,
    ColumnarTraceBuilder,
)
from repro.traces.records import (
    ANY_SOURCE,
    CollectiveRecord,
    ComputeBurst,
    IrecvRecord,
    IsendRecord,
    MarkerRecord,
    RecvRecord,
    SendRecord,
)

from tests.test_columnar import NPROC, record_trace, stream_records
from tests.worlds import BIG, RENDEZVOUS, des_blocked_ranks, valid_worlds


CONFIG = LintConfig()


class RecordTraceView:
    """Oracle: the trace rules' queries as per-record walks.

    Each rank's records are materialised once (``ColumnarRankView``
    iteration) and every query is a plain loop over them, independent of
    the vectorised column expressions it checks.
    """

    def __init__(self, trace):
        self.streams = [list(view) for view in trace]

    def has_iteration_markers(self):
        return any(
            isinstance(rec, MarkerRecord) and rec.iteration >= 0
            for rec in self.streams[0]
        )

    def silent_ranks(self):
        return [
            rank
            for rank, records in enumerate(self.streams)
            if sum(r.duration for r in records if isinstance(r, ComputeBurst))
            == 0.0
        ]

    def pair_counts(self):
        sends, recvs, wildcard_recv_ranks = {}, {}, set()
        for rank, records in enumerate(self.streams):
            for rec in records:
                if isinstance(rec, (SendRecord, IsendRecord)):
                    key = (rank, rec.dst)
                    sends[key] = sends.get(key, 0) + 1
                elif isinstance(rec, (RecvRecord, IrecvRecord)):
                    if rec.src == ANY_SOURCE:
                        wildcard_recv_ranks.add(rank)
                        continue
                    key = (rec.src, rank)
                    recvs[key] = recvs.get(key, 0) + 1
        return sends, recvs, wildcard_recv_ranks

    def _counts(self, predicate):
        out = []
        for rank, records in enumerate(self.streams):
            n = sum(1 for rec in records if predicate(rec))
            if n:
                out.append((rank, n))
        return out

    def wildcard_recv_counts(self):
        return self._counts(
            lambda rec: isinstance(rec, (RecvRecord, IrecvRecord))
            and rec.src == ANY_SOURCE
        )

    def eager_cliff_counts(self, threshold):
        return self._counts(
            lambda rec: isinstance(rec, (SendRecord, IsendRecord))
            and threshold < rec.nbytes <= int(threshold * 1.1)
        )

    def collective_alignment(self):
        sequences = [
            [rec for rec in records if isinstance(rec, CollectiveRecord)]
            for records in self.streams
        ]
        if not sequences[0]:
            return [], []
        ops0 = [rec.op for rec in sequences[0]]
        sizes = [
            [seq[idx].nbytes for seq in sequences if idx < len(seq)]
            for idx in range(len(sequences[0]))
        ]
        return ops0, sizes

    def tiny_burst_counts(self, latency):
        return [
            (
                rank,
                sum(
                    1 for rec in records
                    if isinstance(rec, ComputeBurst)
                    and 0.0 < rec.duration < latency
                ),
                len(records),
            )
            for rank, records in enumerate(self.streams)
        ]


def assert_views_agree(trace, platform=MYRINET_LIKE):
    """Every trace-rule query: columns == per-record oracle."""
    col, rec = ColumnarTraceView(trace), RecordTraceView(trace)
    assert col.has_iteration_markers() == rec.has_iteration_markers()
    assert col.silent_ranks() == rec.silent_ranks()
    assert col.pair_counts() == rec.pair_counts()
    assert col.wildcard_recv_counts() == rec.wildcard_recv_counts()
    assert col.collective_alignment() == rec.collective_alignment()
    # the platform's own thresholds, plus thresholds placed right at the
    # data so the cliff and tiny-burst bands are actually populated
    sizes = {
        r.nbytes for s in rec.streams for r in s
        if isinstance(r, (SendRecord, IsendRecord))
    }
    durations = {
        r.duration for s in rec.streams for r in s
        if isinstance(r, ComputeBurst)
    }
    for threshold in {platform.eager_threshold, *(n - 1 for n in sizes)}:
        assert col.eager_cliff_counts(threshold) == rec.eager_cliff_counts(
            threshold
        )
    for latency in {platform.latency, *(d * 1.5 for d in durations)}:
        assert col.tiny_burst_counts(latency) == rec.tiny_burst_counts(latency)


def assert_lints_cleanly(trace, platform=None, subject="fuzz"):
    """Lint the trace; no rule may crash (DX000)."""
    diags = lint_trace_subject(trace, platform, subject, CONFIG)
    assert not [d for d in diags if d.code == "DX000"]
    return diags


class TestIdentityProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        streams=st.lists(stream_records(), min_size=NPROC, max_size=NPROC)
    )
    def test_all_nine_kinds_default_platform(self, streams):
        trace = record_trace(streams)
        assert_views_agree(trace, MYRINET_LIKE)
        assert_lints_cleanly(trace, MYRINET_LIKE)

    @settings(max_examples=60, deadline=None)
    @given(
        streams=st.lists(stream_records(), min_size=NPROC, max_size=NPROC)
    )
    def test_all_nine_kinds_rendezvous_platform(self, streams):
        trace = record_trace(streams)
        assert_views_agree(trace, RENDEZVOUS)
        assert_lints_cleanly(trace, RENDEZVOUS)


class TestDeadlockAgainstDes:
    """The static replay's verdict is the DES's, rank for rank."""

    @pytest.mark.parametrize(
        "platform", [MYRINET_LIKE, RENDEZVOUS], ids=["default", "rendezvous"]
    )
    @settings(max_examples=60, deadline=None)
    @given(streams=valid_worlds())
    def test_blocked_ranks_match_des(self, platform, streams):
        trace = ColumnarTrace.from_streams(streams)
        trace.validate()  # valid by construction
        try:
            expected = des_blocked_ranks(streams, platform)
        except SimulationError as exc:
            # any other DES failure is reported, not compared
            event(f"DES raised {type(exc).__name__}")
            return
        event("deadlocked" if expected else "completed")
        report = analyze_deadlock(trace, platform)
        assert {b.rank for b in report.blocked} == expected
        assert report.deadlocked == bool(expected)


def _ring_deadlock(nproc: int) -> ColumnarTrace:
    """Every rank rendezvous-sends to its successor before receiving:
    one giant circular wait."""
    builder = ColumnarTraceBuilder(nproc)
    for rank in range(nproc):
        builder.compute(rank, 1.0)
        builder.send(rank, dst=(rank + 1) % nproc, nbytes=BIG, tag=0)
        builder.recv(rank, src=(rank - 1) % nproc, tag=0)
    return builder.build(meta={"name": f"ring-deadlock-{nproc}"})


def _orphan_world(nproc: int) -> ColumnarTrace:
    """Rank nproc-1 receives from rank 0, which never sends."""
    builder = ColumnarTraceBuilder(nproc)
    for rank in range(nproc):
        builder.compute(rank, 1.0)
    builder.recv(nproc - 1, src=0, tag=0)
    return builder.build(meta={"name": f"orphan-{nproc}"})


def _collective_clash(nproc: int) -> ColumnarTrace:
    """The last rank calls allreduce where everyone else calls barrier
    (one mismatch: TR010 reports each rank disagreeing with the first
    arriver)."""
    builder = ColumnarTraceBuilder(nproc)
    for rank in range(nproc):
        builder.compute(rank, 1.0)
        odd = rank == nproc - 1
        builder.collective(
            rank, op="allreduce" if odd else "barrier",
            nbytes=8 if odd else 0,
        )
    return builder.build(meta={"name": f"clash-{nproc}"})


class TestDeadlockFixtures4k:
    """Deliberate-deadlock columnar fixtures at >= 4k ranks."""

    NRANKS = 4096

    def test_ring_deadlock_identity_and_tr008(self):
        trace = _ring_deadlock(self.NRANKS)
        assert_views_agree(trace)
        diags = assert_lints_cleanly(trace, subject="ring")
        tr008 = [d for d in diags if d.code == "TR008"]
        assert len(tr008) == 1
        assert tr008[0].severity is Severity.ERROR
        # the cycle covers the whole ring
        assert f"r{self.NRANKS - 1}" in tr008[0].message

    def test_orphan_identity_and_tr009(self):
        trace = _orphan_world(self.NRANKS)
        assert_views_agree(trace)
        diags = assert_lints_cleanly(trace, subject="orphan")
        tr009 = [d for d in diags if d.code == "TR009"]
        assert len(tr009) == 1
        assert tr009[0].rank == self.NRANKS - 1
        assert "recv from rank 0" in tr009[0].message

    def test_collective_clash_identity_and_tr010(self):
        trace = _collective_clash(self.NRANKS)
        assert_views_agree(trace)
        diags = assert_lints_cleanly(trace, subject="clash")
        tr010 = [d for d in diags if d.code == "TR010"]
        assert len(tr010) == 1
        assert (
            f"rank 0 calls barrier but rank {self.NRANKS - 1} calls "
            "allreduce" in tr010[0].message
        )


class TestNoMaterialization:
    """The columnar lint path must never round-trip through records."""

    @pytest.fixture
    def poisoned(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError(
                "record materialisation on the columnar lint path"
            )

        monkeypatch.setattr(ColumnarTrace, "records_of", boom)
        monkeypatch.setattr(ColumnarRankView, "__iter__", boom)

    def test_clean_world_lints_without_records(self, poisoned):
        from repro.apps import build_app

        ct = build_app("CG-32", iterations=2).columnar_trace()
        diags = lint_trace_subject(ct, MYRINET_LIKE, "CG-32", CONFIG)
        # DX000 would mean a rule crashed on the poisoned accessors —
        # i.e. it tried to materialise records
        assert not [d for d in diags if d.code == "DX000"]

    def test_deadlocked_world_lints_without_records(self, poisoned):
        ct = _ring_deadlock(64)
        diags = lint_trace_subject(ct, MYRINET_LIKE, "ring", CONFIG)
        assert not [d for d in diags if d.code == "DX000"]
        assert [d for d in diags if d.code == "TR008"]

    def test_mmap_store_lints_without_records(self, poisoned, tmp_path):
        """TR001–TR010 over an mmap-opened binary store: the columns
        stay out of core and no record ever materialises."""
        ct = _ring_deadlock(64)
        path = tmp_path / "ring.rpcs"
        # save through a fresh (unpoisoned-irrelevant) trace, reopen mapped
        ct.save(path)
        mapped = ColumnarTrace.open(path, mmap=True)
        assert mapped.is_mapped
        diags = lint_trace_subject(mapped, MYRINET_LIKE, "ring", CONFIG)
        assert not [d for d in diags if d.code == "DX000"]
        assert [d for d in diags if d.code == "TR008"]
        mapped.detach_mapping()

    def test_load_target_routes_store_by_magic(self, tmp_path):
        """`repro lint` classifies a store by magic bytes even when the
        extension lies."""
        from repro.diagnostics.cli import _load_target

        from repro.apps import build_app

        path = tmp_path / "innocent.bin"
        build_app("CG-32", iterations=2).columnar_trace().save(path)
        assert _load_target(str(path)) == ("trace", str(path))
        rpcs = tmp_path / "t.rpcs"
        rpcs.write_bytes(path.read_bytes())
        assert _load_target(str(rpcs)) == ("trace", str(rpcs))

    def test_service_lint_gate_is_record_free(self, poisoned):
        """The /v1/balance admission path must stay columnar-safe: the
        gate lints gear sets/models/caps, never a materialised trace."""
        from types import SimpleNamespace

        from repro.service.routes import parse_balance_request

        defaults = SimpleNamespace(beta=0.5, iterations=2, base_compute=1.0)
        spec, is_async = parse_balance_request(
            {"app": "CG-32", "power_cap": 100.0}, defaults
        )
        assert spec["app"] == "CG-32"
        assert spec["power_cap"] == 100.0  # gates admission AND selects
        assert not is_async


class TestSuppressionParity:
    def test_lint_ignore_meta_respected_on_columnar(self):
        ct = ColumnarTrace.from_streams(
            [[ComputeBurst(duration=1.0)], [ComputeBurst(duration=1.0)]],
            meta={"name": "supp", "lint-ignore": ["TR001"]},
        )
        diags = lint_trace_subject(ct, MYRINET_LIKE, "supp", CONFIG)
        assert not [d for d in diags if d.code == "TR001"]
        assert_views_agree(ct)
