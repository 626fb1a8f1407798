"""Open-loop load generator for the simulation service (k6-style).

A small stdlib load-testing harness aimed at ``repro serve`` (single
replica or a ``--replicas N`` fleet behind the consistent-hash
router).  Two driving modes, mirroring the two questions a service
owner asks:

* **open loop** (``run_open_loop``) — requests *arrive* on a fixed
  rate schedule (stages of ``duration x rate``, like k6's
  constant-arrival-rate executor) regardless of how fast responses
  come back, and each is timed from its due time, so latency
  percentiles reflect queueing under load — the generator's own as
  well — instead of being throttled by the slowest response (the
  coordinated-omission trap of naive closed-loop drivers).  A fixed
  pool of ``OPEN_LOOP_SENDERS`` threads, each on one keep-alive
  connection, sends the arrivals in due-time order;
* **closed loop** (``run_closed_loop``) — N workers issue requests
  back-to-back over persistent connections; the completion rate *is*
  the sustainable throughput, which is what the replica-scaling
  assertion in ``bench_loadtest.py`` compares across fleet sizes.

The body mix is seeded and weighted (scalar balance, batch
``candidates`` sweeps, power-capped bodies) over a bounded parameter
pool, so reruns are reproducible and the cache hit ratio evolves the
way production traffic does: a hot set emerges, the fleet warms, the
tail comes from cold bodies and queueing.

CLI::

    PYTHONPATH=src python benchmarks/loadtest.py \
        --url http://127.0.0.1:8080 --mode open \
        --stages 3x20,5x50 --mix scalar=0.7,batch=0.2,capped=0.1

Everything here is measurement harness, not simulation code: pure
stdlib, no repro imports, safe to point at any deployment.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection, HTTPException
from typing import Any
from urllib.parse import urlsplit

__all__ = [
    "LoadReport",
    "RequestMix",
    "Stage",
    "run_closed_loop",
    "run_open_loop",
    "schedule_arrivals",
]

#: Sender threads (and connections) of an open-loop run, whatever its
#: length and rate; an arrival that finds every sender busy is sent
#: late and shows up in ``lateness_ms``.
OPEN_LOOP_SENDERS = 32

#: Latency histogram bucket upper bounds (milliseconds, log-spaced).
HISTOGRAM_BUCKETS_MS = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, float("inf")
)

#: Applications in the default body pool (small worlds: the goal is
#: service-stack load, not simulation depth).
_APPS = ("CG-16", "MG-8", "BT-MZ-8", "IS-16")
_GEARS = ("uniform:4", "uniform:6")
_ITERATIONS = (2, 3)


@dataclass(frozen=True)
class Stage:
    """One leg of an open-loop arrival schedule."""

    duration_s: float
    rate_rps: float


class RequestMix:
    """Weighted, seeded generator of request bodies.

    ``weights`` maps kind -> relative weight over the built-in kinds
    ``scalar`` (plain balance), ``batch`` (a ``candidates`` sweep) and
    ``capped`` (a ``power_cap`` body).  Bodies are drawn from a small
    parameter pool, so a finite set of distinct cache identities
    recurs — the knob that makes hit ratios realistic.
    """

    KINDS = ("scalar", "batch", "capped")

    def __init__(self, weights: dict[str, float] | None = None):
        weights = weights or {"scalar": 0.7, "batch": 0.2, "capped": 0.1}
        unknown = set(weights) - set(self.KINDS)
        if unknown:
            raise ValueError(f"unknown mix kind(s) {sorted(unknown)}")
        self.kinds = [k for k in self.KINDS if weights.get(k, 0) > 0]
        self.weights = [weights[k] for k in self.kinds]
        if not self.kinds:
            raise ValueError("mix needs at least one positive weight")

    def body(self, rng: random.Random) -> dict[str, Any]:
        kind = rng.choices(self.kinds, weights=self.weights)[0]
        body: dict[str, Any] = {
            "app": rng.choice(_APPS),
            "gears": rng.choice(_GEARS),
            "algorithm": rng.choice(("max", "avg")),
            "iterations": rng.choice(_ITERATIONS),
        }
        if kind == "batch":
            body["candidates"] = [
                {"gears": g} for g in _GEARS
            ]
        elif kind == "capped":
            body["power_cap"] = rng.choice((800.0, 1200.0))
        return body

    @classmethod
    def parse(cls, text: str) -> RequestMix:
        """``scalar=0.7,batch=0.2,capped=0.1`` -> a RequestMix."""
        weights = {}
        for part in text.split(","):
            name, _, value = part.partition("=")
            weights[name.strip()] = float(value)
        return cls(weights)


@dataclass
class LoadReport:
    """Aggregate of one load-test run.

    Only 2xx replies count as served: they alone enter the latency
    sample and the throughput.  Every other reply (429 backpressure,
    5xx, or status 0 for a transport error) counts as ``failed``, so a
    fleet that answers fast rejections never looks faster for it.
    An open-loop run also keeps how late each request was sent after
    its due time: a generator that falls behind its schedule shows
    there, and in the latencies, which count from the due time.
    """

    mode: str
    duration_s: float
    latencies_ms: list[float] = field(default_factory=list)
    statuses: dict[str, int] = field(default_factory=dict)
    cache_states: dict[str, int] = field(default_factory=dict)
    #: replies that were not 2xx, transport errors included
    failed: int = 0
    #: transport errors only (no HTTP reply at all; status 0)
    errors: int = 0
    #: open loop: how late each request was sent after its due time
    lateness_ms: list[float] = field(default_factory=list)

    def record(
        self, latency_s: float, status: int, cache_state: str | None,
        late_s: float | None = None,
    ) -> None:
        if late_s is not None:
            self.lateness_ms.append(max(late_s, 0.0) * 1e3)
        self.statuses[str(status)] = self.statuses.get(str(status), 0) + 1
        if 200 <= status < 300:
            self.latencies_ms.append(latency_s * 1e3)
        else:
            self.failed += 1
        if status == 0:
            self.errors += 1
        if cache_state:
            self.cache_states[cache_state] = (
                self.cache_states.get(cache_state, 0) + 1
            )

    @property
    def requests(self) -> int:
        """Every request sent, served or not."""
        return len(self.latencies_ms) + self.failed

    @property
    def ok(self) -> int:
        """Requests answered 2xx."""
        return len(self.latencies_ms)

    @property
    def throughput_rps(self) -> float:
        """Served (2xx) requests per second."""
        return self.ok / self.duration_s if self.duration_s else 0.0

    def percentile(self, p: float) -> float:
        """p in [0, 100] -> 2xx latency in ms (0 when none)."""
        return _percentile(self.latencies_ms, p)

    def histogram(self) -> dict[str, int]:
        counts = dict.fromkeys(
            (f"le_{b:g}ms" for b in HISTOGRAM_BUCKETS_MS), 0
        )
        for latency in self.latencies_ms:
            for bound in HISTOGRAM_BUCKETS_MS:
                if latency <= bound:
                    counts[f"le_{bound:g}ms"] += 1
                    break
        return counts

    def to_json(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "duration_s": round(self.duration_s, 3),
            "requests": self.requests,
            "ok": self.ok,
            "throughput_rps": round(self.throughput_rps, 2),
            "failed": self.failed,
            "errors": self.errors,
            "statuses": dict(sorted(self.statuses.items())),
            "cache_states": dict(sorted(self.cache_states.items())),
            "latency_ms": {
                "p50": round(self.percentile(50), 3),
                "p90": round(self.percentile(90), 3),
                "p99": round(self.percentile(99), 3),
                "max": round(max(self.latencies_ms), 3)
                if self.latencies_ms else 0.0,
            },
            "lateness_ms": {
                "p99": round(_percentile(self.lateness_ms, 99), 3),
                "max": round(max(self.lateness_ms, default=0.0), 3),
            },
            "histogram": self.histogram(),
        }

    def render(self) -> str:
        j = self.to_json()
        lines = [
            f"{self.mode} loop: {j['requests']} requests in "
            f"{j['duration_s']:.1f}s -> {j['throughput_rps']:.1f} req/s "
            f"served, {j['failed']} failed ({j['errors']} transport errors)",
            f"  latency p50={j['latency_ms']['p50']:.1f}ms "
            f"p90={j['latency_ms']['p90']:.1f}ms "
            f"p99={j['latency_ms']['p99']:.1f}ms "
            f"max={j['latency_ms']['max']:.1f}ms",
            f"  statuses {j['statuses']}  cache {j['cache_states']}",
        ]
        if self.lateness_ms:
            lines.insert(2, (
                f"  sent late p99={j['lateness_ms']['p99']:.1f}ms "
                f"max={j['lateness_ms']['max']:.1f}ms"
            ))
        return "\n".join(lines)


def _percentile(values: list[float], p: float) -> float:
    """p in [0, 100] -> the nearest-rank value (0 when none)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, round(p / 100 * (len(ordered) - 1))))
    return ordered[idx]


def _split_url(url: str) -> tuple[str, int]:
    parts = urlsplit(url if "//" in url else f"http://{url}")
    assert parts.hostname is not None
    return parts.hostname, parts.port or 80


class _KeepAlive:
    """One keep-alive connection, reopened after a transport error."""

    def __init__(self, host: str, port: int, timeout: float):
        self._open = functools.partial(
            HTTPConnection, host, port, timeout=timeout
        )
        self._conn = self._open()

    def post_balance(self, body: dict[str, Any]) -> tuple[int, str | None]:
        """(status, X-Cache) of one POST; status 0 on a transport error."""
        try:
            self._conn.request(
                "POST", "/v1/balance", body=json.dumps(body).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = self._conn.getresponse()
            response.read()
        except (OSError, HTTPException):
            self._conn.close()
            self._conn = self._open()
            return 0, None
        return response.status, response.headers.get("X-Cache")

    def close(self) -> None:
        self._conn.close()


def schedule_arrivals(
    stages: list[Stage], mix: RequestMix, seed: int
) -> list[tuple[float, dict[str, Any]]]:
    """The exact ``(arrival_time, body)`` list an open-loop run fires.

    Exposed so callers (the CI bench) can pre-warm precisely the
    bodies a seeded schedule will request — warmup and measurement
    can never drift apart.
    """
    rng = random.Random(seed)
    arrivals: list[tuple[float, dict[str, Any]]] = []
    offset = 0.0
    for stage in stages:
        count = max(1, int(stage.duration_s * stage.rate_rps))
        for i in range(count):
            arrivals.append(
                (offset + i / stage.rate_rps, mix.body(rng))
            )
        offset += stage.duration_s
    return arrivals


def run_open_loop(
    url: str,
    stages: list[Stage],
    mix: RequestMix | None = None,
    *,
    seed: int = 0,
    timeout: float = 30.0,
) -> LoadReport:
    """Constant-arrival-rate driving: fire on schedule, measure the tail.

    ``OPEN_LOOP_SENDERS`` threads take the arrivals in due-time order,
    each sleeping until its arrival is due and sending it on its own
    keep-alive connection, so any schedule runs on a fixed number of
    threads and connections.  A request's latency counts from its due
    time, not from when it was sent, and how late it was sent (because
    every sender was still busy) is recorded beside it.
    """
    mix = mix or RequestMix()
    host, port = _split_url(url)
    arrivals = schedule_arrivals(stages, mix, seed)
    pending = iter(arrivals)
    total = sum(stage.duration_s for stage in stages)
    report = LoadReport(mode="open", duration_s=total)
    lock = threading.Lock()
    start = time.perf_counter()

    def sender() -> None:
        conn = _KeepAlive(host, port, timeout)
        try:
            while True:
                with lock:
                    arrival = next(pending, None)
                if arrival is None:
                    return
                due = start + arrival[0]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                status, cache_state = conn.post_balance(arrival[1])
                latency = time.perf_counter() - due
                with lock:
                    report.record(
                        latency, status, cache_state, late_s=sent - due
                    )
        finally:
            conn.close()

    threads = [
        threading.Thread(target=sender, daemon=True)
        for _ in range(min(OPEN_LOOP_SENDERS, len(arrivals)))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return report


def run_closed_loop(
    url: str,
    bodies: list[dict[str, Any]],
    *,
    concurrency: int = 8,
    duration_s: float = 5.0,
    timeout: float = 30.0,
) -> LoadReport:
    """Back-to-back driving over persistent connections.

    Workers cycle through ``bodies`` (round-robin from a shared
    counter) until the deadline; the completion rate is the
    sustainable throughput at this concurrency.
    """
    host, port = _split_url(url)
    report = LoadReport(mode="closed", duration_s=duration_s)
    lock = threading.Lock()
    counter = iter(range(1 << 62))
    deadline = time.perf_counter() + duration_s

    def worker() -> None:
        conn = _KeepAlive(host, port, timeout)
        try:
            while time.perf_counter() < deadline:
                body = bodies[next(counter) % len(bodies)]
                begin = time.perf_counter()
                status, cache_state = conn.post_balance(body)
                latency = time.perf_counter() - begin
                with lock:
                    report.record(latency, status, cache_state)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=worker, daemon=True)
        for _ in range(concurrency)
    ]
    started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=duration_s + timeout + 10)
    report.duration_s = time.perf_counter() - started
    return report


def _parse_stages(text: str) -> list[Stage]:
    """``3x20,5x50`` -> [Stage(3, 20), Stage(5, 50)]."""
    stages = []
    for part in text.split(","):
        duration, _, rate = part.partition("x")
        stages.append(Stage(float(duration), float(rate)))
    return stages


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="open/closed-loop load generator for repro serve"
    )
    parser.add_argument("--url", default="http://127.0.0.1:8080")
    parser.add_argument(
        "--mode", choices=("open", "closed"), default="open"
    )
    parser.add_argument(
        "--stages", default="5x10",
        help="open-loop schedule: comma list of DURxRATE legs "
        "(seconds x req/s), e.g. 3x20,5x50",
    )
    parser.add_argument(
        "--mix", default="scalar=0.7,batch=0.2,capped=0.1",
        help="body mix weights over scalar/batch/capped",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--concurrency", type=int, default=8,
        help="closed-loop worker count",
    )
    parser.add_argument(
        "--duration", type=float, default=5.0,
        help="closed-loop run length in seconds",
    )
    parser.add_argument(
        "--bodies", type=int, default=12,
        help="closed-loop distinct-body pool size",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    args = parser.parse_args(argv)

    mix = RequestMix.parse(args.mix)
    if args.mode == "open":
        report = run_open_loop(
            args.url, _parse_stages(args.stages), mix, seed=args.seed
        )
    else:
        rng = random.Random(args.seed)
        bodies = [mix.body(rng) for _ in range(args.bodies)]
        report = run_closed_loop(
            args.url, bodies, concurrency=args.concurrency,
            duration_s=args.duration,
        )
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
