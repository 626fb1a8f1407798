"""Drive ``repro serve`` as a subprocess: launch, closed loop, scrape, stop.

The load shape is a closed loop: each caller sends its next request
only after the previous reply arrived, on one persistent connection,
because the service's callers wait for each reply.  A request counts
as failed on any non-2xx status (429 included) or transport error;
failed requests are excluded from latencies and throughput.
"""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

__all__ = ["Connection", "Reply", "Server", "closed_loop", "parse_metrics"]

_PORT_RE = re.compile(r"serving on http://[\d.]+:(\d+)")


@dataclass
class Reply:
    """One request as the client saw it (times are ``perf_counter``)."""

    key: str
    start: float
    end: float
    status: int  # 0 = transport error
    cache: str
    body: bytes

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


def _get(port: int, path: str, timeout: float = 10.0) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class Server:
    """One ``repro serve --workers 1`` process group on a free port."""

    def __init__(self, root: str, cache_dir: str, log_path: str):
        self.root = root
        self.cache_dir = cache_dir
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> float:
        """Launch; returns seconds from launch to the first /healthz 200."""
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        cmd = [
            sys.executable, "-m", "repro", "serve", "--workers", "1",
            "--port", "0", "--cache-dir", self.cache_dir,
        ]
        self.port = 0
        with open(self.log_path, "wb") as log:
            launched = time.monotonic()
            self.proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                cwd=self.root, start_new_session=True,
            )
        deadline = launched + timeout
        while not self.port:
            self._check_alive(deadline)
            with open(self.log_path, encoding="utf-8", errors="replace") as fh:
                match = _PORT_RE.search(fh.read())
            if match:
                self.port = int(match.group(1))
            else:
                time.sleep(0.005)
        while True:
            self._check_alive(deadline)
            try:
                status, _ = _get(self.port, "/healthz", timeout=5.0)
            except OSError:
                status = 0
            if status == 200:
                return time.monotonic() - launched
            time.sleep(0.005)

    def _check_alive(self, deadline: float) -> None:
        assert self.proc is not None
        if self.proc.poll() is not None:
            raise RuntimeError(
                f"repro serve exited with {self.proc.returncode}; "
                f"see {self.log_path}"
            )
        if time.monotonic() > deadline:
            raise RuntimeError(f"repro serve not ready; see {self.log_path}")

    def _group(self) -> list[int]:
        """Live pids in the server's process group (server + workers)."""
        if self.proc is None:
            return []
        pgid = self.proc.pid
        pids = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            # fields[0] is the state, fields[2] the process group
            if int(fields[2]) == pgid and fields[0] != "Z":
                pids.append(int(entry))
        return pids

    def peak_rss_mib(self) -> float:
        """Sum of VmHWM over the server's process group, in MiB."""
        total_kib = 0
        for pid in self._group():
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total_kib += int(line.split()[1])
            except OSError:
                continue
        return total_kib / 1024.0

    def metrics(self) -> dict[str, float]:
        status, body = _get(self.port, "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return parse_metrics(body.decode())

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure the group is gone."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        deadline = time.monotonic() + 10
        while self._group():
            if time.monotonic() > deadline:
                try:
                    os.killpg(self.proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    break
            time.sleep(0.02)
        self.proc = None


def parse_metrics(text: str) -> dict[str, float]:
    """Prometheus text -> {series name: value summed over label sets}."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        name = series.split("{", 1)[0]
        out[name] = out.get(name, 0.0) + float(value)
    return out


class Connection:
    """One persistent client connection; reconnects after a transport error."""

    def __init__(self, port: int):
        self.port = port
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def send(self, key: str, body: bytes) -> Reply:
        """POST one balance body; times send to the reply's last byte."""
        t0 = time.perf_counter()
        try:
            self._conn.request(
                "POST", "/v1/balance", body=body,
                headers={"Content-Type": "application/json"},
            )
            resp = self._conn.getresponse()
            data = resp.read()
            status, cache = resp.status, resp.getheader("X-Cache", "")
        except (OSError, http.client.HTTPException):
            self._conn.close()
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=60
            )
            data, status, cache = b"", 0, ""
        return Reply(key, t0, time.perf_counter(), status, cache, data)

    def close(self) -> None:
        self._conn.close()


def closed_loop(
    port: int,
    next_body: Callable[[int, int], tuple[str, bytes]],
    callers: int,
    seconds: float,
    on_reply: Callable[[Reply], None] | None = None,
) -> tuple[list[Reply], float]:
    """Run ``callers`` closed-loop callers for ``seconds``.

    ``next_body(caller, seq)`` returns ``(key, body bytes)``; each
    caller is one thread with one persistent connection.  Returns the
    replies and the loop's wall seconds (start to the last caller's
    last reply).
    """
    replies: list[list[Reply]] = [[] for _ in range(callers)]
    start = time.perf_counter()
    deadline = start + seconds

    def caller(index: int) -> None:
        conn = Connection(port)
        seq = 0
        try:
            while time.perf_counter() < deadline:
                reply = conn.send(*next_body(index, seq))
                seq += 1
                if on_reply is not None:
                    on_reply(reply)
                replies[index].append(reply)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=caller, args=(i,), daemon=True)
        for i in range(callers)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    return [r for rs in replies for r in rs], wall
