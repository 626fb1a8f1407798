"""Fleet-mode tests: hash ring, peer cache, router, graceful drain.

Most tests run an in-process fleet — N :class:`ServiceThread` replicas
(each on its own event loop, with a gated executor where determinism
matters) behind a :class:`RouterThread` — so the real HTTP stack and
the real routing/drain machinery are exercised without subprocess
spawn costs.  One suite (:class:`TestSupervisor`) spawns the genuine
``repro serve`` subprocess fleet to cover process supervision itself.
"""

import json
import os
import pickle
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments.cache import ResultCache, cache_key, frame_blob
from repro.service import RouterConfig, RouterThread, ServiceConfig, ServiceThread
from repro.service.client import ServiceResponse
from repro.service.metrics import inject_label, merge_expositions
from repro.service.peercache import PeerResultCache, valid_cache_key
from repro.service.router import HashRing
from repro.service.workers import execute_balance

from tests.test_service import SPEC, GatedExecutor, wait_for


#: Fleet-shared peer-cache secret used by every in-process harness.
SECRET = "fleet-test-secret"


def _free_ports(n: int) -> list[int]:
    """Distinct bindable ports, reserved by a momentary bind."""
    ports = []
    socks = []
    for _ in range(n):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
        ports.append(s.getsockname()[1])
    for s in socks:
        s.close()
    return ports


class Fleet:
    """N in-process replicas (peer-wired) behind a front router."""

    def __init__(self, tmp_path, n, executor_factory=None,
                 health_interval=0.05, **overrides):
        ports = _free_ports(n)
        addrs = [f"127.0.0.1:{p}" for p in ports]
        self.replicas = []
        self.executors = []
        for i, port in enumerate(ports):
            executor = (
                executor_factory() if executor_factory
                else ThreadPoolExecutor(2)
            )
            self.executors.append(executor)
            config = ServiceConfig(
                port=port,
                workers=2,
                cache_dir=str(tmp_path / f"replica-{i}"),
                replica_name=f"replica-{i}",
                peers=tuple(a for a in addrs if a != addrs[i]),
                peer_secret=SECRET,
                **overrides,
            )
            self.replicas.append(ServiceThread(config, executor=executor))
        self.router = RouterThread(
            RouterConfig(
                replicas=tuple(addrs), health_interval=health_interval
            )
        )

    def start(self):
        for replica in self.replicas:
            replica.start()
        self.router.start()
        wait_for(lambda: len(self.router.router.ring.nodes)
                 == len(self.replicas))
        return self

    def stop(self):
        self.router.stop()
        for replica in self.replicas:
            replica.stop()

    @property
    def client(self):
        return self.router.client

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()


# ----------------------------------------------------------------------
# Hash ring
# ----------------------------------------------------------------------

class TestHashRing:
    def test_lookup_is_deterministic_and_member(self):
        ring = HashRing()
        ring.set_nodes(["a:1", "b:2", "c:3"])
        keys = [f"report-{i:064x}" for i in range(200)]
        owners = [ring.lookup(k) for k in keys]
        assert owners == [ring.lookup(k) for k in keys]
        assert set(owners) <= {"a:1", "b:2", "c:3"}

    def test_distribution_roughly_even(self):
        ring = HashRing(vnodes=64)
        ring.set_nodes(["a:1", "b:2", "c:3"])
        counts = {"a:1": 0, "b:2": 0, "c:3": 0}
        for i in range(3000):
            counts[ring.lookup(f"key-{i}")] += 1
        for n in counts.values():
            assert 500 < n < 1700  # no node starved or dominant

    def test_node_removal_only_moves_its_share(self):
        ring = HashRing()
        ring.set_nodes(["a:1", "b:2", "c:3"])
        keys = [f"key-{i}" for i in range(1000)]
        before = {k: ring.lookup(k) for k in keys}
        ring.set_nodes(["a:1", "b:2"])
        moved = sum(
            1 for k in keys
            if before[k] != ring.lookup(k) and before[k] != "c:3"
        )
        assert moved == 0  # only c's keys may move
        assert all(ring.lookup(k) != "c:3" for k in keys)

    def test_rebalance_counter_and_empty_ring(self):
        ring = HashRing()
        assert ring.lookup("anything") is None
        assert ring.set_nodes(["a:1"]) is True
        assert ring.set_nodes(["a:1"]) is False  # no change, no count
        assert ring.set_nodes([]) is True
        assert ring.rebalances == 2
        assert ring.lookup("anything") is None


# ----------------------------------------------------------------------
# Exposition merging
# ----------------------------------------------------------------------

class TestExpositionMerge:
    def test_inject_label_bare_and_labelled(self):
        assert inject_label("foo 3", "replica", "r0") == \
            'foo{replica="r0"} 3'
        assert inject_label('foo{a="b"} 3', "replica", "r0") == \
            'foo{replica="r0",a="b"} 3'
        assert inject_label("# HELP foo x", "replica", "r0") == \
            "# HELP foo x"

    def test_merge_emits_headers_once(self):
        text = (
            "# HELP foo help\n# TYPE foo counter\nfoo 1\n"
        )
        merged = merge_expositions({"r0": text, "r1": text})
        assert merged.count("# HELP foo help") == 1
        assert 'foo{replica="r0"} 1' in merged
        assert 'foo{replica="r1"} 1' in merged


# ----------------------------------------------------------------------
# Peer cache (unit level, no HTTP)
# ----------------------------------------------------------------------

class _StubClient:
    def __init__(self, blobs):
        self.blobs = blobs
        self.put = {}

    def cache_get(self, key, secret=None):
        blob = self.blobs.get(key)
        if blob is None:
            return ServiceResponse(404)
        return ServiceResponse(200, body=blob)

    def cache_put(self, key, blob, secret=None):
        self.put[key] = blob
        return ServiceResponse(200)


class TestPeerResultCache:
    def test_valid_cache_key(self):
        good = "report-" + "0" * 64
        assert valid_cache_key(good)
        assert valid_cache_key("balance-batch-" + "a" * 64)
        assert not valid_cache_key("report-" + "0" * 63)
        assert not valid_cache_key("../../etc/passwd")
        assert not valid_cache_key("Report-" + "0" * 64)

    def test_local_hit_never_touches_peers(self, tmp_path):
        local = ResultCache(tmp_path)
        local.put("report", {"x": 1}, {"answer": 42})
        peer = PeerResultCache(local, ["127.0.0.1:1"])
        value, source = peer.fetch("report", {"x": 1})
        assert value == {"answer": 42}
        assert source == "hit"
        assert peer.peer_hits == peer.peer_misses == 0

    def test_peer_hit_persists_locally(self, tmp_path):
        local = ResultCache(tmp_path / "a")
        peer = PeerResultCache(local, [])
        key = cache_key("report", {"x": 2})
        blob = frame_blob(pickle.dumps({"answer": 7}))
        peer.clients = [_StubClient({key: blob})]
        value, source = peer.fetch("report", {"x": 2})
        assert value == {"answer": 7}
        assert source == "peer"
        assert peer.peer_hits == 1
        # read-through persisted: next fetch is a local hit
        value2, source2 = peer.fetch("report", {"x": 2})
        assert (value2, source2) == ({"answer": 7}, "hit")

    def test_torn_peer_blob_is_counted_not_trusted(self, tmp_path):
        local = ResultCache(tmp_path / "a")
        peer = PeerResultCache(local, [])
        key = cache_key("report", {"x": 3})
        good = frame_blob(pickle.dumps({"ok": True}))
        peer.clients = [
            _StubClient({key: good[:-3]}),   # truncated
            _StubClient({key: good}),        # healthy sibling
        ]
        value, source = peer.fetch("report", {"x": 3})
        assert value == {"ok": True}
        assert source == "peer"
        assert peer.peer_corrupt == 1

    def test_fleet_wide_miss(self, tmp_path):
        local = ResultCache(tmp_path / "a")
        peer = PeerResultCache(local, [])
        peer.clients = [_StubClient({})]
        value, source = peer.fetch("report", {"x": 4})
        assert (value, source) == (None, None)
        assert peer.peer_misses == 1

    def test_unreachable_peer_is_a_miss(self, tmp_path):
        local = ResultCache(tmp_path / "a")
        # nothing listens on this port: OSError -> miss, not crash
        peer = PeerResultCache(local, ["127.0.0.1:1"], timeout=0.2)
        value, source = peer.fetch("report", {"x": 5})
        assert (value, source) == (None, None)
        assert peer.peer_errors == 1
        assert peer.peer_misses == 1


# ----------------------------------------------------------------------
# Cache blob endpoints (the peer wire protocol over real HTTP)
# ----------------------------------------------------------------------

class TestCacheEndpoints:
    def test_put_get_roundtrip(self, tmp_path):
        config = ServiceConfig(
            port=0, cache_dir=str(tmp_path / "c"), peer_secret=SECRET
        )
        with ServiceThread(config, executor=ThreadPoolExecutor(2)) as svc:
            key = cache_key("report", {"payload": 1})
            blob = frame_blob(pickle.dumps({"v": 1}))
            put = svc.client.cache_put(key, blob, secret=SECRET)
            assert put.status == 200
            assert put.json()["stored"] == key
            got = svc.client.cache_get(key, secret=SECRET)
            assert got.status == 200
            assert got.body == blob

    def test_torn_put_rejected_and_nothing_stored(self, tmp_path):
        config = ServiceConfig(
            port=0, cache_dir=str(tmp_path / "c"), peer_secret=SECRET
        )
        with ServiceThread(config, executor=ThreadPoolExecutor(2)) as svc:
            key = cache_key("report", {"payload": 2})
            blob = frame_blob(pickle.dumps({"v": 2}))
            assert svc.client.cache_put(
                key, blob[:-1], secret=SECRET
            ).status == 400
            assert svc.client.cache_get(key, secret=SECRET).status == 404

    def test_malformed_key_rejected(self, tmp_path):
        config = ServiceConfig(
            port=0, cache_dir=str(tmp_path / "c"), peer_secret=SECRET
        )
        with ServiceThread(config, executor=ThreadPoolExecutor(2)) as svc:
            assert svc.client.cache_get(
                "report-zz", secret=SECRET
            ).status == 400
            assert svc.client.cache_put(
                "report-zz", b"RPRC", secret=SECRET
            ).status == 400


class TestCacheEndpointGating:
    """The blob endpoints are fleet-internal; see REVIEW hardening."""

    def test_solo_replica_has_no_cache_routes(self, tmp_path):
        # no peers, no secret: the endpoints do not exist at all
        config = ServiceConfig(port=0, cache_dir=str(tmp_path / "c"))
        with ServiceThread(config, executor=ThreadPoolExecutor(2)) as svc:
            key = cache_key("report", {"payload": 1})
            blob = frame_blob(pickle.dumps({"v": 1}))
            assert svc.client.cache_put(key, blob).status == 404
            assert svc.client.cache_get(key).status == 404

    def test_secret_required_when_configured(self, tmp_path):
        config = ServiceConfig(
            port=0, cache_dir=str(tmp_path / "c"), peer_secret=SECRET
        )
        with ServiceThread(config, executor=ThreadPoolExecutor(2)) as svc:
            key = cache_key("report", {"payload": 1})
            blob = frame_blob(pickle.dumps({"v": 1}))
            # missing and wrong secrets are refused before any
            # key/frame validation could leak information
            assert svc.client.cache_put(key, blob).status == 403
            assert svc.client.cache_get(key).status == 403
            assert svc.client.cache_put(
                key, blob, secret="wrong"
            ).status == 403
            assert svc.client.cache_get(key, secret="wrong").status == 403
            # nothing was stored by the refused PUTs
            assert svc.client.cache_get(key, secret=SECRET).status == 404

    def test_secret_gates_even_with_peers_configured(self, tmp_path):
        config = ServiceConfig(
            port=0, cache_dir=str(tmp_path / "c"),
            peers=("127.0.0.1:1",), peer_secret=SECRET,
        )
        with ServiceThread(config, executor=ThreadPoolExecutor(2)) as svc:
            key = cache_key("report", {"payload": 1})
            assert svc.client.cache_get(key).status == 403

    def test_router_never_routes_cache_traffic(self, tmp_path):
        with Fleet(tmp_path, 2) as fleet:
            key = cache_key("report", {"payload": 1})
            blob = frame_blob(pickle.dumps({"v": 1}))
            # even with the fleet secret, the router's client port
            # refuses the path outright
            assert fleet.client.cache_get(key, secret=SECRET).status == 404
            assert fleet.client.cache_put(
                key, blob, secret=SECRET
            ).status == 404
            assert fleet.client.cache_get(key).status == 404


# ----------------------------------------------------------------------
# Liveness vs readiness
# ----------------------------------------------------------------------

class TestReadiness:
    def test_livez_always_alive_healthz_gates_traffic(self, tmp_path):
        config = ServiceConfig(port=0, cache_dir=str(tmp_path / "c"))
        with ServiceThread(config, executor=ThreadPoolExecutor(2)) as svc:
            live = svc.client.request("GET", "/livez")
            assert live.status == 200
            assert live.json() == {"status": "alive", "draining": False}
            ready = svc.client.request("GET", "/healthz")
            assert ready.status == 200
            assert ready.json()["status"] == "ok"

    def test_draining_replica_503s_healthz_but_stays_alive(self, tmp_path):
        gate = GatedExecutor()
        config = ServiceConfig(port=0, cache_dir=str(tmp_path / "c"))
        svc = ServiceThread(config, executor=gate).start()
        r = svc.client.balance(
            app="CG-16", iterations=2, **{"async": True}
        )
        assert r.status == 202
        stopper = threading.Thread(target=svc.stop)
        stopper.start()
        try:
            wait_for(
                lambda: svc.client.request("GET", "/healthz").status == 503
            )
            health = svc.client.request("GET", "/healthz")
            assert health.json()["status"] == "draining"
            assert health.headers["Retry-After"] == "1"
            live = svc.client.request("GET", "/livez")
            assert live.status == 200
            assert live.json()["draining"] is True
            # new compute is rejected with backpressure semantics
            rejected = svc.client.balance(app="CG-16", iterations=2)
            assert rejected.status == 503
            assert rejected.headers["Retry-After"] == "1"
        finally:
            gate.gate.set()
            stopper.join(timeout=60)
        assert not stopper.is_alive()

    def test_router_healthz_reports_the_ring_it_routes_with(self, tmp_path):
        # replica 1 comes up after the router's startup poll, and the
        # health loop does not tick again: /healthz alone must bring it
        # into the ring whose size it reports
        fleet = Fleet(tmp_path, 2, health_interval=3600)
        late = fleet.replicas[1]
        fleet.replicas[0].start()
        fleet.router.start()
        try:
            router = fleet.router.router
            assert len(router.ring.nodes) == 1
            late.start()
            wait_for(lambda: late.client.healthz()["status"] == "ok")
            health = fleet.client.healthz()
            assert health["fleet"]["ready"] == 2
            assert len(router.ring.nodes) == 2
            assert health["status"] == "ok"
        finally:
            fleet.stop()


# ----------------------------------------------------------------------
# Routed fleet behaviour
# ----------------------------------------------------------------------

class TestRoutedFleet:
    def test_byte_identity_through_router(self, tmp_path):
        report, _runner = execute_balance(dict(SPEC))
        expected = (
            json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
        ).encode()
        with Fleet(tmp_path, 3) as fleet:
            r = fleet.client.balance(**SPEC)
            assert r.status == 200
            assert r.body == expected
            assert r.headers["X-Repro-Replica"].startswith("replica-")

    def test_identical_bodies_stick_to_one_replica(self, tmp_path):
        with Fleet(tmp_path, 3) as fleet:
            seen = {
                fleet.client.balance(
                    app="CG-16", iterations=2
                ).headers["X-Repro-Replica"]
                for _ in range(5)
            }
            assert len(seen) == 1
            # second request onward is a warm hit on the owner
            assert fleet.client.balance(
                app="CG-16", iterations=2
            ).headers["X-Cache"] == "hit"

    def test_validation_error_still_canonical_through_router(
        self, tmp_path
    ):
        with Fleet(tmp_path, 2) as fleet:
            r = fleet.client.balance(app="not-an-app")
            assert r.status == 400
            assert r.json()["error"]["code"] == "invalid-request"

    def test_forwarded_request_pushes_blob_to_owner(self, tmp_path):
        """A replica handling an off-ring request warms the ring owner."""
        ports = _free_ports(2)
        addrs = [f"127.0.0.1:{p}" for p in ports]
        owner = ServiceThread(ServiceConfig(
            port=ports[0], cache_dir=str(tmp_path / "owner"),
            replica_name="owner", peers=(addrs[1],), peer_secret=SECRET,
        ), executor=ThreadPoolExecutor(2))
        handler = ServiceThread(ServiceConfig(
            port=ports[1], cache_dir=str(tmp_path / "handler"),
            replica_name="handler", peers=(addrs[0],), peer_secret=SECRET,
        ), executor=ThreadPoolExecutor(2))
        with owner, handler:
            r = handler.client.request(
                "POST", "/v1/balance",
                payload={"app": "CG-16", "iterations": 2},
                headers={"X-Repro-Forwarded-From": addrs[0]},
            )
            assert r.status == 200
            assert r.headers["X-Cache"] == "miss"
            # the push is fire-and-forget; the owner converges to a
            # local hit without ever computing
            wait_for(
                lambda: owner.client.balance(
                    app="CG-16", iterations=2
                ).headers["X-Cache"] == "hit",
                timeout=10,
            )
            metrics = handler.client.metrics()
            assert "repro_service_peer_cache_pushes_total 1" in metrics

    def test_peer_read_through_over_http(self, tmp_path):
        """Replica B serves a body only replica A ever computed."""
        ports = _free_ports(2)
        addrs = [f"127.0.0.1:{p}" for p in ports]
        a = ServiceThread(ServiceConfig(
            port=ports[0], cache_dir=str(tmp_path / "a"),
            replica_name="a", peers=(addrs[1],), peer_secret=SECRET,
        ), executor=ThreadPoolExecutor(2))
        b = ServiceThread(ServiceConfig(
            port=ports[1], cache_dir=str(tmp_path / "b"),
            replica_name="b", peers=(addrs[0],), peer_secret=SECRET,
        ), executor=ThreadPoolExecutor(2))
        with a, b:
            first = a.client.balance(app="CG-16", iterations=2)
            assert first.headers["X-Cache"] == "miss"
            via_peer = b.client.balance(app="CG-16", iterations=2)
            assert via_peer.headers["X-Cache"] == "peer"
            assert via_peer.body == first.body
            # persisted locally: B now answers from its own disk
            assert b.client.balance(
                app="CG-16", iterations=2
            ).headers["X-Cache"] == "hit"
            metrics = b.client.metrics()
            assert "repro_service_peer_cache_hits_total 1" in metrics

    def test_router_aggregates_health_and_metrics(self, tmp_path):
        with Fleet(tmp_path, 2) as fleet:
            health = fleet.client.healthz()
            assert health["status"] == "ok"
            assert health["fleet"]["replicas"] == 2
            assert health["fleet"]["ready"] == 2
            assert set(health["replicas"]) == {"replica-0", "replica-1"}
            metrics = fleet.client.metrics()
            assert 'replica="replica-0"' in metrics
            assert 'replica="replica-1"' in metrics
            assert "repro_router_ring_rebalances_total" in metrics
            assert "repro_router_ready_replicas 2" in metrics


# ----------------------------------------------------------------------
# Fleet-wide graceful drain (satellite c)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 3])
class TestFleetDrain:
    def test_drain_completes_inflight_async_jobs(self, tmp_path, n):
        fleet = Fleet(
            tmp_path, n, executor_factory=GatedExecutor,
            drain_linger=2.0,
        ).start()
        try:
            scalar = fleet.client.balance(
                app="CG-16", iterations=2, **{"async": True}
            )
            batch = fleet.client.balance(
                app="CG-16", iterations=2,
                candidates=[{"gears": "uniform:4"}, {"algorithm": "avg"}],
                **{"async": True},
            )
            assert scalar.status == 202
            assert batch.status == 202
            scalar_id = scalar.json()["job"]["id"]
            batch_id = batch.json()["job"]["id"]

            stoppers = [
                threading.Thread(target=r.stop) for r in fleet.replicas
            ]
            for s in stoppers:
                s.start()
            # replicas leave the ring; new work is rejected with a
            # Retry-After while the fleet drains
            wait_for(lambda: not fleet.router.router.any_ready, timeout=30)
            rejected = fleet.client.balance(app="CG-16", iterations=2)
            assert rejected.status == 503
            assert rejected.headers["Retry-After"] == "1"

            for executor in fleet.executors:
                executor.gate.set()
            # 202-polling clients observe terminal states through the
            # router during the drain-linger window
            jobs = {}
            deadline = time.monotonic() + 30
            while len(jobs) < 2 and time.monotonic() < deadline:
                for job_id in (scalar_id, batch_id):
                    if job_id in jobs:
                        continue
                    r = fleet.client.job(job_id)
                    if r.status == 200 and r.json()["job"]["status"] in (
                        "done", "failed"
                    ):
                        jobs[job_id] = r.json()["job"]
                time.sleep(0.05)
            for s in stoppers:
                s.join(timeout=60)
            assert len(jobs) == 2, "jobs never reached a terminal state"
            assert jobs[scalar_id]["status"] == "done"
            assert jobs[batch_id]["status"] == "done"
            assert jobs[batch_id]["result"]["count"] == 2
        finally:
            for executor in fleet.executors:
                executor.gate.set()
            fleet.stop()

    def test_drain_rejects_new_async_submissions(self, tmp_path, n):
        fleet = Fleet(
            tmp_path, n, executor_factory=GatedExecutor, drain_linger=1.0
        ).start()
        try:
            replica = fleet.replicas[0]
            held = replica.client.balance(
                app="CG-16", iterations=2, **{"async": True}
            )
            assert held.status == 202
            stopper = threading.Thread(target=replica.stop)
            stopper.start()
            wait_for(lambda: replica.app.draining, timeout=30)
            r = replica.client.balance(
                app="CG-16", iterations=3, **{"async": True}
            )
            assert r.status == 503
            assert r.headers["Retry-After"] == "1"
            assert r.json()["error"]["code"] == "shutting-down"
            fleet.executors[0].gate.set()
            stopper.join(timeout=60)
            assert not stopper.is_alive()
        finally:
            for executor in fleet.executors:
                executor.gate.set()
            fleet.stop()


# ----------------------------------------------------------------------
# Real subprocess supervision
# ----------------------------------------------------------------------

def group_exists(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


class TestSupervisor:
    def test_fleet_of_two_serves_and_drains(self, tmp_path):
        from repro.service import FleetConfig, FleetThread

        config = FleetConfig(
            port=0, replicas=2, workers=1,
            cache_dir=str(tmp_path / "fleet"), drain_linger=0.2,
        )
        with FleetThread(config) as fleet:
            wait_for(
                lambda: fleet.client.healthz()["fleet"]["ready"] == 2,
                timeout=120,
            )
            first = fleet.client.balance(app="CG-16", iterations=2)
            assert first.status == 200
            again = fleet.client.balance(app="CG-16", iterations=2)
            assert again.status == 200
            assert again.headers["X-Cache"] == "hit"
            assert again.body == first.body
            metrics = fleet.client.metrics()
            assert "repro_fleet_replica_restarts_total" in metrics
            assert "repro_fleet_replicas_alive 2" in metrics
            # the generated fleet secret reached the replica (via env):
            # unauthenticated blob access is refused on the replica
            # port, the fleet secret gets through, and the router's
            # client port never routes the path at all
            from repro.service.client import ServiceClient

            replica = ServiceClient(
                "127.0.0.1", fleet.supervisor.replicas[0].port
            )
            key = cache_key("report", {"x": 1})
            assert replica.cache_get(key).status == 403
            assert replica.cache_get(
                key, secret=fleet.supervisor.peer_secret
            ).status == 404
            assert fleet.client.cache_get(
                key, secret=fleet.supervisor.peer_secret
            ).status == 404
        # context exit drains: replica processes must be gone
        assert all(not r.alive for r in fleet.supervisor.replicas)

    def test_crashed_replica_is_restarted(self, tmp_path):
        from repro.service import FleetConfig, FleetThread

        config = FleetConfig(
            port=0, replicas=1, workers=1,
            cache_dir=str(tmp_path / "fleet"), drain_linger=0.1,
        )
        with FleetThread(config) as fleet:
            wait_for(
                lambda: fleet.client.healthz()["fleet"]["ready"] == 1,
                timeout=120,
            )
            replica = fleet.supervisor.replicas[0]
            old_pid = replica.proc.pid
            replica.proc.kill()
            wait_for(lambda: replica.restarts >= 1, timeout=30)
            wait_for(
                lambda: replica.alive
                and fleet.client.healthz()["fleet"]["ready"] == 1,
                timeout=120,
            )
            # the crashed replica's process group (its worker pool and
            # resource tracker) died with it; the killed members are
            # orphans, so the group vanishes once init has reaped them
            wait_for(lambda: not group_exists(old_pid), timeout=30)
            with pytest.raises(ProcessLookupError):
                os.killpg(old_pid, 0)
            # the ring re-admits the replica on the next poll tick
            wait_for(lambda: fleet.supervisor.router.any_ready, timeout=30)
            assert fleet.client.balance(
                app="CG-16", iterations=2
            ).status == 200
            metrics = fleet.client.metrics()
            assert (
                'repro_fleet_replica_restarts_total{replica="replica-0"} 1'
                in metrics
            )
