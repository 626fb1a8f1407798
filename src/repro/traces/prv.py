"""Paraver-like timestamped export.

Paraver traces are *timestamped* records (states and communications),
unlike our logical replay traces.  This module exports a simulated
:class:`~repro.netsim.record.RunResult` in a simplified dialect of the
Paraver ``.prv`` text format, readable by humans and by the bundled
parser (round-trip tested):

* header — ``#Paraver (repro): <duration_ns>:<nproc>``
* state records — ``1:<rank>:<start_ns>:<end_ns>:<state_id>``

State ids follow Paraver's convention where practical: 1 = running
(compute); the MPI states use ids from the classic MPI state palette
(send 3, recv 4, wait 5, collective 10).  Timestamps are nanoseconds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import IO

from repro.netsim.record import Interval, RunResult

__all__ = ["PrvTrace", "parse_prv", "write_prv", "STATE_IDS"]

STATE_IDS = {
    "compute": 1,
    "send": 3,
    "recv": 4,
    "wait": 5,
    "collective": 10,
}
_STATE_NAMES = {v: k for k, v in STATE_IDS.items()}

_NS = 1e9


@dataclass
class PrvTrace:
    """Parsed content of a simplified .prv file."""

    duration: float  # seconds
    nproc: int
    intervals: list[list[Interval]]

    def state_time(self, rank: int, kind: str) -> float:
        return sum(iv.duration for iv in self.intervals[rank] if iv.kind == kind)


def write_prv(
    result: RunResult, path_or_file: str | os.PathLike | IO[str]
) -> None:
    """Export a run (simulated with ``record_intervals=True``) as .prv."""
    if result.intervals is None:
        raise ValueError(
            "RunResult has no intervals; simulate with record_intervals=True"
        )
    own = False
    if hasattr(path_or_file, "write"):
        stream = path_or_file  # type: ignore[assignment]
    else:
        stream = open(os.fspath(path_or_file), "w", encoding="utf-8")
        own = True
    try:
        duration_ns = int(round(result.execution_time * _NS))
        stream.write(f"#Paraver (repro): {duration_ns}:{result.nproc}\n")
        for rank, ivs in enumerate(result.intervals):
            for iv in ivs:
                state = STATE_IDS.get(iv.kind)
                if state is None:
                    raise ValueError(f"interval kind {iv.kind!r} has no .prv state id")
                stream.write(
                    f"1:{rank}:{int(round(iv.start * _NS))}:"
                    f"{int(round(iv.end * _NS))}:{state}\n"
                )
    finally:
        if own:
            stream.close()


def parse_prv(path_or_file: str | os.PathLike | IO[str]) -> PrvTrace:
    """Parse a file produced by :func:`write_prv`."""
    own = False
    if hasattr(path_or_file, "read"):
        stream = path_or_file  # type: ignore[assignment]
    else:
        stream = open(os.fspath(path_or_file), "r", encoding="utf-8")
        own = True
    try:
        header = stream.readline().strip()
        if not header.startswith("#Paraver"):
            raise ValueError(f"not a .prv file (header {header[:40]!r})")
        try:
            fields = header.split(":")
            duration_ns, nproc = int(fields[-2]), int(fields[-1])
        except (IndexError, ValueError) as exc:
            raise ValueError(f"malformed .prv header {header!r}") from exc
        intervals: list[list[Interval]] = [[] for _ in range(nproc)]
        for lineno, line in enumerate(stream, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(":")
            if len(parts) != 5 or parts[0] != "1":
                raise ValueError(f"unsupported .prv record at line {lineno}: {line!r}")
            _, rank_s, start_s, end_s, state_s = parts
            rank = int(rank_s)
            if not (0 <= rank < nproc):
                raise ValueError(f"line {lineno}: rank {rank} out of range")
            state = int(state_s)
            kind = _STATE_NAMES.get(state)
            if kind is None:
                raise ValueError(f"line {lineno}: unknown state id {state}")
            intervals[rank].append(
                Interval(int(start_s) / _NS, int(end_s) / _NS, kind)
            )
        return PrvTrace(
            duration=duration_ns / _NS, nproc=nproc, intervals=intervals
        )
    finally:
        if own:
            stream.close()
