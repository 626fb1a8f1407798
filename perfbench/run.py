"""Run the repo benchmark and print its metrics.

    python3 perfbench/run.py --workload table3-sweep --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload

Each workload runs in a fresh child process (``workloads.py``) against
the sources under ``src/``.  The last stdout line is one JSON object:
with ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` its per-layer metrics.  Lines before it are the run
record, every metric with its unit, and the correctness checks.  A run
record plus the traced span summary is also written under
``.perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Seconds a workload process may take beyond ``--seconds``: warm-up,
#: server launches and the correctness checks run outside the budget.
CHILD_SLACK_S = 110


def _spec() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies from /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def _steal_pct(
    before: tuple[int, int] | None, after: tuple[int, int] | None
) -> float:
    if before is None or after is None or after[1] <= before[1]:
        return 0.0
    return 100.0 * (after[0] - before[0]) / (after[1] - before[1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_ids() -> dict[str, str]:
    """Git sha when the tree is a checkout; always a digest of src/."""
    try:
        top, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError, ValueError):
        top, sha = "", ""
    if not sha or Path(top).resolve() != ROOT:  # not a checkout of this tree
        sha = "unavailable"
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest()[:16]}


def _child(args: list[str], env: dict[str, str], timeout: float) -> dict[str, Any]:
    """Start ``workloads.py`` with a launch stamp; return its JSON result."""
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), *args,
         "--launched", repr(launched)],
        stdout=subprocess.PIPE, env=env, cwd=ROOT,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.send_signal(signal.SIGTERM)  # lets the child stop its server
        try:
            proc.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        raise RuntimeError(f"workload process timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    try:
        return json.loads(out.decode().strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RuntimeError("workload process printed no result") from None


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: dict[str, Any]) -> dict[str, Any]:
    """One workload in fresh processes; returns the printed result."""
    workdir = ROOT / ".perfbench" / "tmp" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = str(workdir)
    record: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        **_source_ids(),
    }
    ticks = _cpu_ticks()
    try:
        setups: list[float] = []
        if name != "serve-mix":
            # set-up is launch -> first repro call; a median of five
            for _ in range(4):
                setups += _child(["--probe", name], env, 60)["setup_s"]
        result = _child(
            [name, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace)), "--workdir", str(workdir)],
            env, seconds + CHILD_SLACK_S,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    steal = _steal_pct(ticks, _cpu_ticks())
    record.update(
        numpy=result.get("numpy"), params=result.get("params"),
        steal_pct=round(steal, 2),
    )
    setups += result.get("setup_s", [])

    if trace:
        wanted = spec["per_layer"]
        values = dict(result.get("layers", {}))
        values["harness.steal_pct"] = steal
    else:
        wanted = spec["end_to_end"]
        values = dict(result.get("metrics", {}))
        if setups:
            values["setup_s"] = statistics.median(setups)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"{name}: no value for {', '.join(missing)}")
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in wanted
    }
    attempted = int(result["attempted"])
    failed = int(result["failed"])

    print(f"== {name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}")
    print("   run record: " + json.dumps(record, sort_keys=True))
    width = max(len(k) for k in metrics)
    for key, m in metrics.items():
        print(f"   {key:<{width}}  {m['value']:>14.6g} {m['unit']}")
    failed_pct = 100.0 * failed / attempted if attempted else 100.0
    print(f"   {'failed_pct':<{width}}  {failed_pct:>14.6g} %  "
          f"({failed} of {attempted} operations)")
    if not trace and setups:
        print(f"   note: setup_s is the median of {len(setups)} launches")
    for line in result.get("notes", []):
        print(f"   note: {line}")
    for line in result.get("checks", []):
        print(f"   check: {line}")

    runs = ROOT / ".perfbench" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    with open(runs / f"{name}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(
            {"record": record, "metrics": metrics, "attempted": attempted,
             "failed": failed, "checks": result.get("checks", []),
             "unit_walls": result.get("unit_walls"),
             "spans": result.get("span_tree", {}),
             "cell_digests": result.get("cell_digests")},
            fh, indent=2, sort_keys=True,
        )
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    chosen = names if args.workload == "all" else [args.workload]
    try:
        results = {
            w: run_workload(w, args.seed, args.seconds, bool(args.trace), spec)
            for w in chosen
        }
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}/{k}": v for w, r in results.items()
                for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
