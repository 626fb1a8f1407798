"""Unit tests for the persistent result cache and the parallel campaign.

Covers the invalidation contract (same config hits, any physical
change misses), corruption tolerance, and the determinism of
``reproduce_all`` across job counts.
"""

import copy
import dataclasses
import json

import pytest

from repro.core.gears import uniform_gear_set
from repro.experiments.cache import ResultCache, describe_gear_set
from repro.experiments.campaign import reproduce_all
from repro.experiments.runner import Runner, RunnerConfig

FAST = dict(iterations=2)


def make_runner(cache_dir, **overrides):
    return Runner(RunnerConfig(**{**FAST, **overrides}, cache_dir=str(cache_dir)))


class TestCacheHits:
    def test_same_config_hits_with_identical_rows(self, tmp_path):
        r1 = make_runner(tmp_path).balance("CG-16", uniform_gear_set(6))
        runner = make_runner(tmp_path)  # fresh process-equivalent
        r2 = runner.balance("CG-16", uniform_gear_set(6))
        assert runner.cache.hits == 1 and runner.cache.misses == 0
        assert r1 is not r2
        assert r1.row() == r2.row()

    def test_trace_shared_across_runners(self, tmp_path):
        make_runner(tmp_path).trace("IS-16")
        runner = make_runner(tmp_path)
        runner.trace("IS-16")
        assert runner.cache.stats() == {
            "hits": 1, "misses": 0, "corrupt": 0, "stores": 0,
        }

    def test_changed_beta_misses(self, tmp_path):
        make_runner(tmp_path).balance("CG-16", uniform_gear_set(6), beta=0.5)
        runner = make_runner(tmp_path)
        runner.balance("CG-16", uniform_gear_set(6), beta=0.9)
        # the trace (β-independent) hits; the report misses
        assert runner.cache.hits == 1
        assert runner.cache.misses == 1

    def test_changed_gear_set_misses(self, tmp_path):
        make_runner(tmp_path).balance("CG-16", uniform_gear_set(6))
        runner = make_runner(tmp_path)
        runner.balance("CG-16", uniform_gear_set(8))
        assert runner.cache.hits == 1  # trace
        assert runner.cache.misses == 1  # report

    def test_changed_platform_misses_everything(self, tmp_path):
        runner = make_runner(tmp_path)
        runner.balance("CG-16", uniform_gear_set(6))
        slow = dataclasses.replace(runner.config.platform, latency=5e-4)
        other = make_runner(tmp_path, platform=slow)
        other.balance("CG-16", uniform_gear_set(6))
        assert other.cache.hits == 0
        assert other.cache.misses == 2  # trace and report

    def test_changed_iterations_misses_everything(self, tmp_path):
        make_runner(tmp_path).balance("CG-16", uniform_gear_set(6))
        other = make_runner(tmp_path, iterations=3)
        other.balance("CG-16", uniform_gear_set(6))
        assert other.cache.hits == 0
        assert other.cache.misses == 2

    def test_gear_set_description_pins_frequencies(self):
        d6 = describe_gear_set(uniform_gear_set(6))
        d8 = describe_gear_set(uniform_gear_set(8))
        assert d6 != d8
        assert d6 == describe_gear_set(uniform_gear_set(6))


class TestCorruption:
    def test_corrupted_blob_is_ignored_and_rewritten(self, tmp_path):
        baseline = make_runner(tmp_path).balance("CG-16", uniform_gear_set(6))
        blobs = list(tmp_path.glob("*.pkl"))
        assert blobs
        for blob in blobs:
            blob.write_bytes(b"\x00garbage, not a pickle")

        runner = make_runner(tmp_path)
        recomputed = runner.balance("CG-16", uniform_gear_set(6))
        assert runner.cache.hits == 0
        assert runner.cache.misses == 2
        # both misses were corruption, not cold cache
        assert runner.cache.corrupt == 2
        assert recomputed.row() == baseline.row()

        # the recompute rewrote good blobs: a third runner hits again
        third = make_runner(tmp_path)
        assert third.balance("CG-16", uniform_gear_set(6)).row() == baseline.row()
        assert third.cache.hits == 1
        assert third.cache.corrupt == 0

    def test_record_trace_blob_is_a_corrupt_miss(self, tmp_path, monkeypatch):
        """A ``"trace"`` blob pickled from the retired record-object
        ``repro.traces.trace.Trace`` class fails closed: the Runner
        counts it corrupt, records the trace again and prices exactly
        like a cold run."""
        import sys
        import types

        from repro.traces.columnar import ColumnarTrace

        legacy = types.ModuleType("repro.traces.trace")

        class Trace:  # stand-in with the retired class's import path
            def __init__(self, nproc, meta):
                self.meta = dict(meta)
                self.streams = [[] for _ in range(nproc)]

        Trace.__module__, Trace.__qualname__ = legacy.__name__, "Trace"
        legacy.Trace = Trace
        cold = make_runner(tmp_path / "cold").balance("CG-16", uniform_gear_set(6))

        runner = make_runner(tmp_path / "warm")
        payload = runner._trace_payload("CG-16")
        with monkeypatch.context() as patch:
            patch.setitem(sys.modules, legacy.__name__, legacy)
            runner.cache.put("trace", payload, Trace(16, {"name": "CG-16"}))
        assert legacy.__name__ not in sys.modules

        report = runner.balance("CG-16", uniform_gear_set(6))
        assert runner.cache.corrupt == 1  # the legacy trace blob
        assert isinstance(runner.trace("CG-16"), ColumnarTrace)
        assert json.dumps(report.to_json()) == json.dumps(cold.to_json())
        # the re-recorded trace replaced the legacy blob
        assert isinstance(
            ResultCache(tmp_path / "warm").get("trace", payload), ColumnarTrace
        )

    @pytest.mark.parametrize("cell", ["max-discrete", "avg-continuous", "capped"])
    def test_pre_index_report_blob_renders_the_same_bytes(
        self, tmp_path, monkeypatch, cell
    ):
        """A report pickled when assignments held a ``gears`` tuple (numpy
        scalars and all) is served from the cache — no corrupt miss — and
        renders exactly the bytes a cold pricing does."""
        import numpy as np

        from repro.core.algorithms import (
            AvgAlgorithm,
            FrequencyAssignment,
            MaxAlgorithm,
        )
        from repro.core.gears import Gear, unlimited_continuous_set
        from repro.core.powercap import PowerCapAlgorithm

        gear_set, algorithm = {
            "max-discrete": (uniform_gear_set(6), MaxAlgorithm()),
            "avg-continuous": (unlimited_continuous_set(), AvgAlgorithm()),
            "capped": (uniform_gear_set(6), PowerCapAlgorithm(30.0)),
        }[cell]
        cold = make_runner(tmp_path / "cold").balance("CG-16", gear_set, algorithm)

        # the old attribute layout, pickled the way the old class was
        new = cold.assignment
        pre_index = FrequencyAssignment.__new__(FrequencyAssignment)
        pre_index.__dict__.update({
            "gears": tuple(
                Gear(np.float64(f), np.float64(v))
                for f, v in zip(new.frequencies, new.voltages, strict=True)
            ),
            "target_time": new.target_time,
            "overclocked": tuple(np.bool_(x) for x in new.overclocked),
            "attained": tuple(np.bool_(x) for x in new.attained),
            "algorithm": new.algorithm,
        })
        old = copy.copy(cold)
        old.assignment = pre_index
        runner = make_runner(tmp_path / "warm")
        with monkeypatch.context() as patch:
            # the old class pickled its plain attribute dict
            patch.delattr(FrequencyAssignment, "__getstate__")
            runner.cache.put("report", runner._report_payload(
                "CG-16", gear_set, algorithm, runner.config.beta
            ), old)

        report = runner.balance("CG-16", gear_set, algorithm)
        assert (runner.cache.hits, runner.cache.corrupt) == (1, 0)
        assert isinstance(report.assignment, FrequencyAssignment)
        assert report.assignment == cold.assignment
        assert json.dumps(report.to_json()) == json.dumps(cold.to_json())

    def test_cold_miss_is_not_counted_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("report", {"k": 1}) is None
        assert cache.stats() == {
            "hits": 0, "misses": 1, "corrupt": 0, "stores": 0,
        }

    def test_flipped_bit_in_body_fails_digest_check(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("report", {"k": 1}, {"v": 2})
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip one bit inside the pickle body
        path.write_bytes(bytes(raw))
        assert cache.get("report", {"k": 1}) is None
        assert cache.corrupt == 1

    def test_truncated_blob_is_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("report", {"k": 1}, {"v": 2})
        path.write_bytes(path.read_bytes()[:10])
        assert cache.get("report", {"k": 1}) is None
        assert cache.corrupt == 1

    def test_missing_dir_is_created_lazily(self, tmp_path):
        cache = ResultCache(tmp_path / "does" / "not" / "exist")
        assert cache.get("report", {"k": 1}) is None
        cache.put("report", {"k": 1}, {"v": 2})
        assert cache.get("report", {"k": 1}) == {"v": 2}


class TestDiskMaintenance:
    def test_disk_stats_counts_by_kind(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("trace", {"a": 1}, [1, 2, 3])
        cache.put("report", {"a": 1}, {"x": 1})
        cache.put("report", {"a": 2}, {"x": 2})
        stats = cache.disk_stats()
        assert stats["entries"] == 3
        assert stats["kinds"] == {"report": 2, "trace": 1}
        assert stats["total_bytes"] > 0
        assert stats["oldest_mtime"] is not None

    def test_gc_drops_only_old_blobs(self, tmp_path):
        import os
        import time

        cache = ResultCache(tmp_path)
        old = cache.put("report", {"a": 1}, {"x": 1})
        new = cache.put("report", {"a": 2}, {"x": 2})
        stale = time.time() - 10 * 86400
        os.utime(old, (stale, stale))
        out = cache.gc(max_age_days=5)
        assert out["removed"] == 1 and out["freed_bytes"] > 0
        assert not old.exists() and new.exists()

    def test_gc_sweeps_stray_tmp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("report", {"a": 1}, {"x": 1})
        (tmp_path / "leftover.tmp").write_bytes(b"half-written")
        out = cache.gc(max_age_days=365)
        assert out["removed"] == 1
        assert cache.entry_count() == 1

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("trace", {"a": 1}, [1])
        cache.put("report", {"a": 1}, {"x": 1})
        assert cache.clear() == 2
        assert cache.entry_count() == 0
        assert cache.disk_stats()["entries"] == 0


class TestConcurrentMaintenance:
    """gc/clear/disk_stats vs files vanishing mid-walk.

    In a replica fleet several processes share (or maintain) a cache
    directory; any path yielded by the directory walk may be unlinked
    by a sibling before this process stats or removes it.  The vanish
    is simulated deterministically by feeding the walk a stale listing.
    """

    def _stale_walk(self, cache, monkeypatch, delete_index=0):
        """Freeze the blob listing, then delete one listed file."""
        paths = list(cache._blobs())
        paths[delete_index].unlink()
        monkeypatch.setattr(cache, "_blobs", lambda: iter(paths))
        return paths[delete_index]

    def test_gc_tolerates_blob_vanishing_mid_walk(self, tmp_path, monkeypatch):
        import os
        import time

        cache = ResultCache(tmp_path)
        first = cache.put("report", {"a": 1}, {"x": 1})
        second = cache.put("report", {"a": 2}, {"x": 2})
        stale = time.time() - 10 * 86400
        os.utime(first, (stale, stale))
        os.utime(second, (stale, stale))
        gone = self._stale_walk(cache, monkeypatch)
        out = cache.gc(max_age_days=5)
        # the raced file is not counted; the surviving one is collected
        assert out["removed"] == 1
        assert not gone.exists()
        assert cache.entry_count() == 0

    def test_clear_tolerates_blob_vanishing_mid_walk(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        cache.put("report", {"a": 1}, {"x": 1})
        cache.put("report", {"a": 2}, {"x": 2})
        self._stale_walk(cache, monkeypatch, delete_index=1)
        assert cache.clear() == 1
        assert cache.entry_count() == 0

    def test_disk_stats_tolerates_blob_vanishing_mid_walk(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        cache.put("report", {"a": 1}, {"x": 1})
        cache.put("report", {"a": 2}, {"x": 2})
        self._stale_walk(cache, monkeypatch)
        stats = cache.disk_stats()
        assert stats["entries"] == 1
        assert stats["kinds"] == {"report": 1}

    def test_maintenance_on_missing_directory(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert cache.gc(max_age_days=0) == {"removed": 0, "freed_bytes": 0}
        assert cache.clear() == 0
        assert cache.entry_count() == 0

    def test_concurrent_clears_never_raise(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        cache = ResultCache(tmp_path)
        for i in range(30):
            cache.put("report", {"a": i}, {"x": i})
        siblings = [ResultCache(tmp_path) for _ in range(4)]
        with ThreadPoolExecutor(4) as pool:
            counts = list(pool.map(lambda c: c.clear(), siblings))
        # every file removed exactly once, whoever got there first
        assert sum(counts) == 30
        assert cache.entry_count() == 0


class TestRawBlobAccess:
    """The framed-blob API behind the peer-cache wire protocol."""

    def test_put_get_round_trip(self, tmp_path):
        import pickle

        from repro.experiments.cache import cache_key, frame_blob, unframe_blob

        cache = ResultCache(tmp_path)
        key = cache_key("report", {"q": 1})
        blob = frame_blob(pickle.dumps({"answer": 42}))
        cache.put_raw(key, blob)
        raw = cache.get_raw(key)
        assert raw == blob
        assert pickle.loads(unframe_blob(raw)) == {"answer": 42}
        # the raw store is the same store the value API reads
        assert cache.get("report", {"q": 1}) == {"answer": 42}

    def test_put_raw_rejects_torn_blob(self, tmp_path):
        import pickle

        from repro.experiments.cache import cache_key, frame_blob

        cache = ResultCache(tmp_path)
        key = cache_key("report", {"q": 2})
        blob = frame_blob(pickle.dumps({"answer": 42}))
        with pytest.raises(ValueError, match="frame verification"):
            cache.put_raw(key, blob[:-3])
        assert cache.get_raw(key) is None
        assert cache.entry_count() == 0

    def test_get_raw_refuses_corrupt_disk_blob(self, tmp_path):
        import pickle

        from repro.experiments.cache import cache_key, frame_blob

        cache = ResultCache(tmp_path)
        key = cache_key("report", {"q": 3})
        cache.put_raw(key, frame_blob(pickle.dumps({"answer": 42})))
        path = next(iter(cache._blobs()))
        path.write_bytes(path.read_bytes()[:-5])  # bit-rot the body
        assert cache.get_raw(key) is None

    def test_get_raw_missing_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get_raw("report-" + "0" * 64) is None


class TestCacheCli:
    def _run(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_stats_and_clear(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        cache.put("report", {"a": 1}, {"x": 1})
        assert self._run("cache", "--cache-dir", str(tmp_path), "stats") == 0
        out = capsys.readouterr().out
        assert "entries:     1" in out and "report" in out

        assert self._run(
            "cache", "--cache-dir", str(tmp_path), "stats", "--json"
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1 and stats["kinds"] == {"report": 1}

        assert self._run("cache", "--cache-dir", str(tmp_path), "clear") == 0
        assert "removed 1 blob(s)" in capsys.readouterr().out
        assert cache.entry_count() == 0

    def test_gc_respects_max_age(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        cache.put("report", {"a": 1}, {"x": 1})
        assert self._run(
            "cache", "--cache-dir", str(tmp_path), "gc", "--max-age", "30"
        ) == 0
        assert "removed 0 blob(s)" in capsys.readouterr().out
        assert self._run(
            "cache", "--cache-dir", str(tmp_path), "gc", "--max-age", "0"
        ) == 0
        assert "removed 1 blob(s)" in capsys.readouterr().out


class TestCampaignJobs:
    EXPERIMENTS = ("table_gears", "fig3", "table3")
    CONFIG = RunnerConfig(iterations=2, apps=("BT-MZ-32", "CG-32"))

    @staticmethod
    def _normalized(manifest):
        m = copy.deepcopy(manifest)
        m.pop("wall_seconds")
        m.pop("jobs")
        # engine counters are deterministic; their wall-clock-derived
        # fields (seconds, rates) are not
        for timing in ("des_seconds", "compiled_seconds",
                       "des_evals_per_second", "compiled_evals_per_second"):
            m["engines"].pop(timing)
        for entry in m["experiments"].values():
            entry.pop("seconds")
            entry["engines"].pop("des_seconds")
            entry["engines"].pop("compiled_seconds")
        return m

    def test_jobs4_manifest_matches_jobs1(self, tmp_path):
        quiet = lambda *args: None  # noqa: E731
        serial = reproduce_all(
            tmp_path / "serial", self.CONFIG,
            experiments=self.EXPERIMENTS, echo=quiet, jobs=1,
        )
        parallel = reproduce_all(
            tmp_path / "parallel", self.CONFIG,
            experiments=self.EXPERIMENTS, echo=quiet, jobs=4,
        )
        assert parallel["jobs"] == 4
        assert self._normalized(serial) == self._normalized(parallel)
        # artifacts are byte-identical, not just the manifest
        for name in ["REPORT.md", *(f"{e}.csv" for e in self.EXPERIMENTS),
                     *(f"{e}.txt" for e in self.EXPERIMENTS)]:
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "parallel" / name
            ).read_bytes(), name

    def test_failing_experiment_is_isolated(self, tmp_path):
        bad = RunnerConfig(iterations=2, apps=("NO-SUCH-APP-32",))
        manifest = reproduce_all(
            tmp_path, bad, experiments=("table_gears", "fig3"),
            echo=lambda *args: None,
        )
        assert manifest["errors"] == 1
        assert "error" in manifest["experiments"]["fig3"]
        assert "traceback" in manifest["experiments"]["fig3"]
        # the app-independent experiment still completed and wrote files
        assert "error" not in manifest["experiments"]["table_gears"]
        assert (tmp_path / "table_gears.csv").exists()
        assert "FAILED" in (tmp_path / "REPORT.md").read_text()
        written = json.loads((tmp_path / "manifest.json").read_text())
        assert written["errors"] == 1

    def test_parallel_failure_is_isolated_too(self, tmp_path):
        bad = RunnerConfig(iterations=2, apps=("NO-SUCH-APP-32",))
        manifest = reproduce_all(
            tmp_path, bad, experiments=("table_gears", "fig3"),
            echo=lambda *args: None, jobs=2,
        )
        assert manifest["errors"] == 1
        assert "error" in manifest["experiments"]["fig3"]
        assert "error" not in manifest["experiments"]["table_gears"]

    def test_cache_dir_that_is_a_file_rejected_upfront(self, tmp_path):
        blocker = tmp_path / "notadir"
        blocker.write_text("")
        with pytest.raises(ValueError, match="not a directory"):
            reproduce_all(
                tmp_path / "out", self.CONFIG, experiments=("table_gears",),
                echo=lambda *args: None, cache_dir=blocker,
            )

    def test_campaign_cache_stats_reported(self, tmp_path):
        quiet = lambda *args: None  # noqa: E731
        cold = reproduce_all(
            tmp_path / "cold", self.CONFIG, experiments=("fig3",),
            echo=quiet, cache_dir=tmp_path / "cache",
        )
        warm = reproduce_all(
            tmp_path / "warm", self.CONFIG, experiments=("fig3",),
            echo=quiet, cache_dir=tmp_path / "cache",
        )
        assert cold["cache"]["enabled"] and warm["cache"]["enabled"]
        assert cold["cache"]["misses"] > 0
        assert warm["cache"]["misses"] == 0
        assert warm["cache"]["hits"] > 0
        rows = (tmp_path / "cold" / "fig3.csv").read_bytes()
        assert rows == (tmp_path / "warm" / "fig3.csv").read_bytes()
