"""Collective decomposition into point-to-point rounds.

The default collective model is analytic (all ranks synchronise, a
closed-form cost accrues — Dimemas's behaviour, and what the paper's
calibration assumes).  With ``PlatformConfig.decompose_collectives``
the simulator instead *executes* each collective as the classic
point-to-point algorithm, so collectives:

* respect bus contention and topology hop latency,
* stop being global barriers (a bcast leaf can leave as soon as its
  subtree is done; the root leaves after its last send),
* interleave with surrounding point-to-point traffic through the real
  matcher.

Algorithms emitted (nbytes = the per-rank contribution, as everywhere):

==============  ====================================================
operation       decomposition
==============  ====================================================
barrier         dissemination (⌈log₂P⌉ rounds of 0-byte exchanges)
bcast           binomial tree from the root
reduce          binomial tree toward the root
allreduce       reduce + bcast
gather          leaves send to root (root posts P−1 irecvs)
scatter         root isends to every leaf
allgather       ring (P−1 rounds, shift right)
reduce_scatter  ring
alltoall        pairwise exchange (P−1 rounds)
==============  ====================================================

Messages use a reserved tag space (``COLL_TAG_BASE + instance``), and
the simulator runs them in a private request namespace, so they cannot
collide with application requests.  One caveat is inherited from MPI's
lack of communicator contexts in this simplified world: an outstanding
application ``irecv`` with ``ANY_SOURCE`` *and* ``ANY_TAG`` could steal
a collective fragment; lint rule TR004 flags such traces.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from repro.traces.records import (
    IrecvRecord,
    IsendRecord,
    Record,
    RecvRecord,
    SendRecord,
    WaitallRecord,
)

__all__ = ["COLL_TAG_BASE", "decompose"]

#: Tags at or above this value are reserved for decomposed collectives.
COLL_TAG_BASE = 1 << 30
#: Tag distance between consecutive collective instances — rounds and
#: the allreduce second-half offset (1 << 20) stay well inside it.
INSTANCE_STRIDE = 1 << 21


def decompose(
    op: str, rank: int, nproc: int, nbytes: int, root: int, instance: int
) -> Iterator[Record]:
    """The rank's point-to-point program for one collective instance."""
    tag = COLL_TAG_BASE + instance * INSTANCE_STRIDE
    if nproc <= 1:
        return iter(())
    if op == "barrier":
        return _dissemination(rank, nproc, 0, tag)
    if op == "bcast":
        return _binomial_down(rank, nproc, nbytes, root, tag)
    if op == "reduce":
        return _binomial_up(rank, nproc, nbytes, root, tag)
    if op == "allreduce":
        return _chain(
            _binomial_up(rank, nproc, nbytes, root, tag),
            _binomial_down(rank, nproc, nbytes, root, tag + (1 << 20)),
        )
    if op == "gather":
        return _rooted(rank, nproc, nbytes, root, tag, to_root=True)
    if op == "scatter":
        return _rooted(rank, nproc, nbytes, root, tag, to_root=False)
    if op in ("allgather", "reduce_scatter"):
        return _ring(rank, nproc, nbytes, tag)
    if op == "alltoall":
        return _pairwise(rank, nproc, nbytes, tag)
    raise ValueError(f"unknown collective {op!r}")


def _chain(*parts: Iterator[Record]) -> Iterator[Record]:
    for part in parts:
        yield from part


def _log2ceil(nproc: int) -> int:
    return max(1, math.ceil(math.log2(nproc)))


def _dissemination(rank: int, nproc: int, nbytes: int, tag: int
                   ) -> Iterator[Record]:
    """Dissemination barrier: round k exchanges with rank ± 2^k."""
    for k in range(_log2ceil(nproc)):
        stride = 1 << k
        to = (rank + stride) % nproc
        frm = (rank - stride) % nproc
        yield IrecvRecord(src=frm, tag=tag + k, request=0)
        yield IsendRecord(dst=to, nbytes=nbytes, tag=tag + k, request=1)
        yield WaitallRecord((0, 1))


def _binomial_down(rank: int, nproc: int, nbytes: int, root: int, tag: int
                   ) -> Iterator[Record]:
    """Binomial-tree broadcast: data flows away from the root."""
    rel = (rank - root) % nproc
    received = rel == 0
    for k in range(_log2ceil(nproc)):
        stride = 1 << k
        if not received and stride <= rel < 2 * stride:
            yield RecvRecord(src=(rel - stride + root) % nproc, tag=tag + k)
            received = True
        elif received and rel < stride and rel + stride < nproc:
            yield SendRecord(
                dst=(rel + stride + root) % nproc, nbytes=nbytes, tag=tag + k
            )


def _binomial_up(rank: int, nproc: int, nbytes: int, root: int, tag: int
                 ) -> Iterator[Record]:
    """Binomial-tree reduction: the mirror of the broadcast."""
    rel = (rank - root) % nproc
    steps = _log2ceil(nproc)
    for k in reversed(range(steps)):
        stride = 1 << k
        if rel < stride and rel + stride < nproc:
            yield RecvRecord(src=(rel + stride + root) % nproc, tag=tag + k)
        elif stride <= rel < 2 * stride:
            yield SendRecord(
                dst=(rel - stride + root) % nproc, nbytes=nbytes, tag=tag + k
            )
            return  # contributed; this rank is done


def _rooted(rank: int, nproc: int, nbytes: int, root: int, tag: int,
            to_root: bool) -> Iterator[Record]:
    """Linear gather/scatter: one message per non-root rank."""
    if rank == root:
        requests = []
        for req, peer in enumerate(p for p in range(nproc) if p != root):
            if to_root:
                yield IrecvRecord(src=peer, tag=tag, request=req)
            else:
                yield IsendRecord(dst=peer, nbytes=nbytes, tag=tag, request=req)
            requests.append(req)
        if requests:
            yield WaitallRecord(tuple(requests))
    elif to_root:
        yield SendRecord(dst=root, nbytes=nbytes, tag=tag)
    else:
        yield RecvRecord(src=root, tag=tag)


def _ring(rank: int, nproc: int, nbytes: int, tag: int) -> Iterator[Record]:
    """Ring exchange: P−1 rounds shifting blocks to the right."""
    right = (rank + 1) % nproc
    left = (rank - 1) % nproc
    for k in range(nproc - 1):
        yield IrecvRecord(src=left, tag=tag + k, request=0)
        yield IsendRecord(dst=right, nbytes=nbytes, tag=tag + k, request=1)
        yield WaitallRecord((0, 1))


def _pairwise(rank: int, nproc: int, nbytes: int, tag: int) -> Iterator[Record]:
    """Pairwise alltoall: round i exchanges with rank ± i."""
    for i in range(1, nproc):
        to = (rank + i) % nproc
        frm = (rank - i) % nproc
        yield IrecvRecord(src=frm, tag=tag + i, request=0)
        yield IsendRecord(dst=to, nbytes=nbytes, tag=tag + i, request=1)
        yield WaitallRecord((0, 1))
