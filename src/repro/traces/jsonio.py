"""JSON-lines trace persistence.

The on-disk format is deliberately boring: one JSON object per line.

* line 1 — header: ``{"format": "repro-trace", "version": 1,
  "nproc": N, "meta": {...}}``
* following lines — events in rank-major order:
  ``{"rank": r, **record_to_dict(record)}``

Rank-major order keeps writing streaming-friendly and diffs readable;
the reader accepts events in any order (they are appended per rank in
file order, which must respect each rank's own program order).

Writing a :class:`~repro.traces.columnar.ColumnarTrace` streams its
event dicts straight off the columns, and reading parses each line
straight into column buffers: neither direction materialises a record
object, so the format scales to any rank count.

Paths ending in :data:`~repro.traces.colstore.STORE_EXTENSION` (or
whose file carries the store magic) dispatch to the binary columnar
store instead — the same ``read_trace``/``write_trace`` calls then
round-trip through :mod:`repro.traces.colstore`.
"""

from __future__ import annotations

import gzip
import json
import os
from collections.abc import Iterator
from typing import IO, Any

from repro.traces import colstore
from repro.traces.columnar import ColumnarTrace, ColumnarTraceBuilder

__all__ = ["read_trace", "write_trace", "dumps_trace", "loads_trace"]

FORMAT_NAME = "repro-trace"
FORMAT_VERSION = 1

PathOrFile = str | os.PathLike | IO[str]


def _is_stream(path_or_file: PathOrFile) -> bool:
    return hasattr(path_or_file, "write") or hasattr(path_or_file, "read")


def _open(path_or_file: PathOrFile, mode: str) -> tuple[IO[str], bool]:
    """Return (text stream, should_close)."""
    if hasattr(path_or_file, "write") or hasattr(path_or_file, "read"):
        return path_or_file, False  # type: ignore[return-value]
    path = os.fspath(path_or_file)  # type: ignore[arg-type]
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8"), True
    return open(path, mode, encoding="utf-8"), True


def write_trace(trace: ColumnarTrace, path_or_file: PathOrFile) -> None:
    """Serialise ``trace`` to a JSON-lines file (``.gz`` compresses).

    Rows stream straight off the columns.  A path ending in ``.rpcs``
    writes the binary columnar store instead.
    """
    if not _is_stream(path_or_file) and str(
        os.fspath(path_or_file)  # type: ignore[arg-type]
    ).endswith(colstore.STORE_EXTENSION):
        trace.save(path_or_file)  # type: ignore[arg-type]
        return
    stream, should_close = _open(path_or_file, "w")
    try:
        header = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "nproc": trace.nproc,
            "meta": trace.meta,
        }
        stream.write(json.dumps(header) + "\n")
        for rank, event in trace.iter_event_rows():
            row: dict[str, Any] = {"rank": rank}
            row.update(event)
            stream.write(json.dumps(row) + "\n")
    finally:
        if should_close:
            stream.close()


def _parse_lines(lines: Iterator[str]) -> ColumnarTrace:
    """Parse header + event lines (one JSON object per element).

    ``lines`` yields raw lines with or without trailing newlines; each
    line is parsed into column buffers and dropped before the next is
    pulled, so peak memory is the columns plus one event row.
    """
    header_line = next(lines, "")
    if not header_line.strip():
        raise ValueError("empty trace file")
    header = json.loads(header_line)
    if header.get("format") != FORMAT_NAME:
        raise ValueError(
            f"not a {FORMAT_NAME} file (format={header.get('format')!r})"
        )
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported trace version {header.get('version')!r} "
            f"(expected {FORMAT_VERSION})"
        )
    nproc = int(header["nproc"])
    meta = header.get("meta") or {}
    builder = ColumnarTraceBuilder(nproc)
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        row: dict[str, Any] = json.loads(line)
        try:
            builder.append_dict(row.pop("rank"), row)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise ValueError(f"bad trace event at line {lineno}: {exc}") from exc
    return builder.build(meta=meta)


def read_trace(path_or_file: PathOrFile, mmap: bool = False) -> ColumnarTrace:
    """Load a trace previously written by :func:`write_trace`.

    Binary store files (``.rpcs`` extension or store magic) are opened
    through :mod:`repro.traces.colstore`; ``mmap=True`` then backs the
    columns with the file's pages instead of reading them into memory
    (it has no effect on JSON inputs).
    """
    if not _is_stream(path_or_file) and colstore.is_store_file(path_or_file):
        return ColumnarTrace.open(path_or_file, mmap=mmap)
    stream, should_close = _open(path_or_file, "r")
    try:
        return _parse_lines(iter(stream))
    finally:
        if should_close:
            stream.close()


def dumps_trace(trace: ColumnarTrace) -> str:
    """Serialise to an in-memory string (round-trip convenience)."""
    parts: list[str] = []

    class _Collector:
        @staticmethod
        def write(chunk: str) -> None:
            parts.append(chunk)

    write_trace(trace, _Collector())  # type: ignore[arg-type]
    return "".join(parts)


def _iter_text_lines(text: str) -> Iterator[str]:
    """Yield lines of ``text`` without copying the whole document.

    Unlike ``io.StringIO(text)`` (which duplicates the buffer) or
    ``text.splitlines()`` (which materialises every line at once), this
    slices one line at a time, so :func:`loads_trace` holds only the
    input string plus the line being parsed.
    """
    start, n = 0, len(text)
    while start < n:
        end = text.find("\n", start)
        if end == -1:
            yield text[start:]
            return
        yield text[start:end]
        start = end + 1


def loads_trace(text: str) -> ColumnarTrace:
    """Inverse of :func:`dumps_trace` (streaming; no buffer copy)."""
    return _parse_lines(_iter_text_lines(text))
