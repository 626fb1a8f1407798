"""Virtual-MPI authoring API for rank programs.

A rank program is a generator that yields trace records
(:mod:`repro.traces.records`).  This module provides mpi4py-flavoured
constructors and composite patterns so skeletons read like MPI code::

    def program(rank):
        yield compute(0.01 * weights[rank], phase="solve")
        yield from halo_exchange_1d(rank, nproc, nbytes=8192)
        yield allreduce(8)

It also provides the *emitter* flavour of the same vocabulary: a
:class:`ProgramEmitter` is a per-rank sink with one method per record
kind plus the composite patterns.  Skeletons author against the emitter
(``em.compute(...)``, ``em.halo_exchange_1d(...)``) and the choice of
emitter decides the storage: :class:`RecordEmitter` collects record
objects (feeding the generator API above), while :class:`ColumnEmitter`
writes scalars straight into a
:class:`~repro.traces.columnar.ColumnarTraceBuilder` — no record
objects ever exist, which is what makes 100k-rank worlds generable.

Composite patterns are deadlock-free by construction: they post all
irecvs, then all isends, then a waitall.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from repro.traces.columnar import ColumnarTraceBuilder
from repro.traces.records import (
    ANY_SOURCE,
    ANY_TAG,
    CollectiveRecord,
    ComputeBurst,
    IrecvRecord,
    IsendRecord,
    MarkerRecord,
    Record,
    RecvRecord,
    SendRecord,
    WaitallRecord,
    WaitRecord,
)

__all__ = [
    "ColumnEmitter",
    "ProgramEmitter",
    "RecordEmitter",
    "allgather",
    "allreduce",
    "alltoall",
    "barrier",
    "bcast",
    "compute",
    "exchange",
    "gather",
    "halo_exchange_1d",
    "halo_exchange_2d",
    "halo_partners_1d",
    "halo_partners_2d",
    "irecv",
    "isend",
    "marker",
    "recv",
    "reduce",
    "scatter",
    "send",
    "wait",
    "waitall",
]


# -- primitive constructors (aliases with keyword ergonomics) -----------

def compute(duration: float, phase: str = "", beta: float | None = None) -> ComputeBurst:
    return ComputeBurst(duration, phase=phase, beta=beta)


def send(dst: int, nbytes: int, tag: int = 0) -> SendRecord:
    return SendRecord(dst, nbytes, tag)


def recv(src: int = ANY_SOURCE, tag: int = ANY_TAG) -> RecvRecord:
    return RecvRecord(src, tag)


def isend(dst: int, nbytes: int, tag: int = 0, request: int = 0) -> IsendRecord:
    return IsendRecord(dst, nbytes, tag, request)


def irecv(src: int = ANY_SOURCE, tag: int = ANY_TAG, request: int = 0) -> IrecvRecord:
    return IrecvRecord(src, tag, request)


def wait(request: int) -> WaitRecord:
    return WaitRecord(request)


def waitall(requests: Sequence[int]) -> WaitallRecord:
    return WaitallRecord(tuple(requests))


def marker(label: str, iteration: int = -1) -> MarkerRecord:
    return MarkerRecord(label, iteration)


def barrier() -> CollectiveRecord:
    return CollectiveRecord("barrier")


def bcast(nbytes: int, root: int = 0) -> CollectiveRecord:
    return CollectiveRecord("bcast", nbytes, root)


def reduce(nbytes: int, root: int = 0) -> CollectiveRecord:
    return CollectiveRecord("reduce", nbytes, root)


def allreduce(nbytes: int) -> CollectiveRecord:
    return CollectiveRecord("allreduce", nbytes)


def gather(nbytes: int, root: int = 0) -> CollectiveRecord:
    return CollectiveRecord("gather", nbytes, root)


def scatter(nbytes: int, root: int = 0) -> CollectiveRecord:
    return CollectiveRecord("scatter", nbytes, root)


def allgather(nbytes: int) -> CollectiveRecord:
    return CollectiveRecord("allgather", nbytes)


def alltoall(nbytes: int) -> CollectiveRecord:
    return CollectiveRecord("alltoall", nbytes)


# -- partner topologies (shared by generators and emitters) --------------

def halo_partners_1d(rank: int, nproc: int, periodic: bool = False) -> list[int]:
    """Left/right neighbours on a 1-D decomposition."""
    partners = []
    for delta in (-1, +1):
        p = rank + delta
        if periodic:
            p %= nproc
        if 0 <= p < nproc and p != rank:
            partners.append(p)
    return sorted(set(partners))


def _grid_dims(nproc: int) -> tuple[int, int]:
    """Most-square 2-D factorisation of the world size."""
    best = (1, nproc)
    for rows in range(1, int(nproc**0.5) + 1):
        if nproc % rows == 0:
            best = (rows, nproc // rows)
    return best


def halo_partners_2d(rank: int, nproc: int, periodic: bool = False) -> list[int]:
    """N/S/E/W neighbours on the most-square 2-D grid."""
    rows, cols = _grid_dims(nproc)
    r, c = divmod(rank, cols)
    partners = set()
    for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        rr, cc = r + dr, c + dc
        if periodic:
            rr %= rows
            cc %= cols
        if 0 <= rr < rows and 0 <= cc < cols:
            p = rr * cols + cc
            if p != rank:
                partners.add(p)
    return sorted(partners)


# -- per-rank emitters ---------------------------------------------------

class ProgramEmitter:
    """Per-rank sink for authoring rank programs imperatively.

    Subclasses implement the nine primitive methods; the collective
    sugar and the deadlock-free composite patterns are defined here once
    in terms of them, so the record and columnar storages emit exactly
    the same event sequence.
    """

    __slots__ = ("rank",)

    def __init__(self, rank: int):
        self.rank = rank

    # primitives — one per record kind
    def compute(self, duration: float, phase: str = "",
                beta: float | None = None) -> None:
        raise NotImplementedError

    def send(self, dst: int, nbytes: int, tag: int = 0) -> None:
        raise NotImplementedError

    def recv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> None:
        raise NotImplementedError

    def isend(self, dst: int, nbytes: int, tag: int = 0, request: int = 0) -> None:
        raise NotImplementedError

    def irecv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG,
              request: int = 0) -> None:
        raise NotImplementedError

    def wait(self, request: int) -> None:
        raise NotImplementedError

    def waitall(self, requests: Sequence[int]) -> None:
        raise NotImplementedError

    def collective(self, op: str, nbytes: int = 0, root: int = 0) -> None:
        raise NotImplementedError

    def marker(self, label: str, iteration: int = -1) -> None:
        raise NotImplementedError

    # collective sugar
    def barrier(self) -> None:
        self.collective("barrier")

    def bcast(self, nbytes: int, root: int = 0) -> None:
        self.collective("bcast", nbytes, root)

    def reduce(self, nbytes: int, root: int = 0) -> None:
        self.collective("reduce", nbytes, root)

    def allreduce(self, nbytes: int) -> None:
        self.collective("allreduce", nbytes)

    def gather(self, nbytes: int, root: int = 0) -> None:
        self.collective("gather", nbytes, root)

    def scatter(self, nbytes: int, root: int = 0) -> None:
        self.collective("scatter", nbytes, root)

    def allgather(self, nbytes: int) -> None:
        self.collective("allgather", nbytes)

    def alltoall(self, nbytes: int) -> None:
        self.collective("alltoall", nbytes)

    # composite, deadlock-free exchange patterns
    def exchange(self, partners: Sequence[int], nbytes: int, tag: int = 0) -> None:
        """Symmetric non-blocking exchange with a set of partner ranks.

        Every rank must call this with a *consistent* partner relation
        (``a`` lists ``b`` iff ``b`` lists ``a``).  Posts irecvs, then
        isends, then waits on everything — the canonical safe halo
        pattern.
        """
        partners = [p for p in partners if p != self.rank]
        requests = []
        req = 0
        for p in partners:
            self.irecv(src=p, tag=tag, request=req)
            requests.append(req)
            req += 1
        for p in partners:
            self.isend(dst=p, nbytes=nbytes, tag=tag, request=req)
            requests.append(req)
            req += 1
        if requests:
            self.waitall(tuple(requests))

    def halo_exchange_1d(self, nproc: int, nbytes: int, tag: int = 0,
                         periodic: bool = False) -> None:
        """Left/right neighbour exchange on a 1-D decomposition."""
        self.exchange(halo_partners_1d(self.rank, nproc, periodic), nbytes, tag)

    def halo_exchange_2d(self, nproc: int, nbytes: int, tag: int = 0,
                         periodic: bool = False) -> None:
        """North/south/east/west exchange on the most-square 2-D grid."""
        self.exchange(halo_partners_2d(self.rank, nproc, periodic), nbytes, tag)


class RecordEmitter(ProgramEmitter):
    """Emitter that collects record objects (the DES program input)."""

    __slots__ = ("records",)

    def __init__(self, rank: int):
        super().__init__(rank)
        self.records: list[Record] = []

    def compute(self, duration: float, phase: str = "",
                beta: float | None = None) -> None:
        self.records.append(ComputeBurst(duration, phase=phase, beta=beta))

    def send(self, dst: int, nbytes: int, tag: int = 0) -> None:
        self.records.append(SendRecord(dst, nbytes, tag))

    def recv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> None:
        self.records.append(RecvRecord(src, tag))

    def isend(self, dst: int, nbytes: int, tag: int = 0, request: int = 0) -> None:
        self.records.append(IsendRecord(dst, nbytes, tag, request))

    def irecv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG,
              request: int = 0) -> None:
        self.records.append(IrecvRecord(src, tag, request))

    def wait(self, request: int) -> None:
        self.records.append(WaitRecord(request))

    def waitall(self, requests: Sequence[int]) -> None:
        self.records.append(WaitallRecord(tuple(requests)))

    def collective(self, op: str, nbytes: int = 0, root: int = 0) -> None:
        self.records.append(CollectiveRecord(op, nbytes, root))

    def marker(self, label: str, iteration: int = -1) -> None:
        self.records.append(MarkerRecord(label, iteration))


class ColumnEmitter(ProgramEmitter):
    """Emitter that writes straight into columnar storage.

    Every method forwards scalars to the builder's typed buffers; no
    record object is created anywhere on this path.
    """

    __slots__ = ("builder",)

    def __init__(self, rank: int, builder: ColumnarTraceBuilder):
        super().__init__(rank)
        self.builder = builder

    def compute(self, duration: float, phase: str = "",
                beta: float | None = None) -> None:
        self.builder.compute(self.rank, duration, phase, beta)

    def send(self, dst: int, nbytes: int, tag: int = 0) -> None:
        self.builder.send(self.rank, dst, nbytes, tag)

    def recv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> None:
        self.builder.recv(self.rank, src, tag)

    def isend(self, dst: int, nbytes: int, tag: int = 0, request: int = 0) -> None:
        self.builder.isend(self.rank, dst, nbytes, tag, request)

    def irecv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG,
              request: int = 0) -> None:
        self.builder.irecv(self.rank, src, tag, request)

    def wait(self, request: int) -> None:
        self.builder.wait(self.rank, request)

    def waitall(self, requests: Sequence[int]) -> None:
        self.builder.waitall(self.rank, requests)

    def collective(self, op: str, nbytes: int = 0, root: int = 0) -> None:
        self.builder.collective(self.rank, op, nbytes, root)

    def marker(self, label: str, iteration: int = -1) -> None:
        self.builder.marker(self.rank, label, iteration)


# -- composite, deadlock-free exchange patterns (generator flavour) ------

def exchange(rank: int, partners: Sequence[int], nbytes: int,
             tag: int = 0) -> Iterator[Record]:
    """Symmetric non-blocking exchange with a set of partner ranks.

    Generator flavour of :meth:`ProgramEmitter.exchange` (one
    implementation serves both, so the event sequences are identical).
    """
    em = RecordEmitter(rank)
    em.exchange(partners, nbytes, tag)
    yield from em.records


def halo_exchange_1d(rank: int, nproc: int, nbytes: int, tag: int = 0,
                     periodic: bool = False) -> Iterator[Record]:
    """Left/right neighbour exchange on a 1-D decomposition."""
    yield from exchange(rank, halo_partners_1d(rank, nproc, periodic), nbytes, tag)


def halo_exchange_2d(rank: int, nproc: int, nbytes: int, tag: int = 0,
                     periodic: bool = False) -> Iterator[Record]:
    """North/south/east/west exchange on the most-square 2-D grid."""
    yield from exchange(rank, halo_partners_2d(rank, nproc, periodic), nbytes, tag)
