"""Generated worlds shared by the differential tests.

:func:`valid_worlds` draws small, structurally valid MPI worlds and
:func:`wavefront_worlds` pipelined chains through every rank.  The
static deadlock replay (``tests/test_lint_columnar.py``), the compiled
kernel's compile-time verdict and its level-scheduled batch pass
(``tests/test_compiled.py``) are checked against their oracles over
them, on the default platform and on :data:`RENDEZVOUS`;
:func:`des_blocked_ranks` is the DES's verdict.
"""

import dataclasses
import re

from hypothesis import strategies as st

from repro.apps import vmpi
from repro.netsim.platform import MYRINET_LIKE
from repro.netsim.simulator import MpiSimulator
from repro.simx.errors import DeadlockError
from repro.traces.records import CollectiveRecord

#: Tiny eager threshold: most fuzzed sends go rendezvous, exercising
#: the blocking-send replay paths the default platform rarely hits.
RENDEZVOUS = dataclasses.replace(
    MYRINET_LIKE, name="rendezvous-heavy", eager_threshold=64
)

BIG = MYRINET_LIKE.eager_threshold + 1  # rendezvous on the default net


@st.composite
def valid_worlds(draw):
    """Structurally valid, wildcard-free worlds, deadlocked or not.

    Every message gets a matching receive with the same tag, every
    non-blocking request one wait after its post, every rank the same
    collective sequence; only the per-rank interleaving is random, which
    is what decides whether the world deadlocks.  Each (src, dst, tag)
    channel carries one message size: the DES matches an eager message
    only once it arrives, so on a channel mixing sizes (or protocols) a
    later message can overtake an earlier one (``netsim/matching.py``)
    and its matching is timing-dependent, like a wildcard's.
    """
    nproc = draw(st.integers(2, 4))
    keys = st.floats(0.0, 1.0)
    items = [[] for _ in range(nproc)]  # per rank: (sort key, record)
    next_request = [0] * nproc

    def post(rank, side, peer, nbytes, tag):
        """One message end: blocking, or non-blocking plus a later wait."""
        key = draw(keys)
        if draw(st.booleans()):
            rec = (
                vmpi.send(peer, nbytes, tag=tag) if side == "send"
                else vmpi.recv(src=peer, tag=tag)
            )
            items[rank].append((key, rec))
            return
        request = next_request[rank]
        next_request[rank] += 1
        rec = (
            vmpi.isend(peer, nbytes, tag=tag, request=request)
            if side == "send"
            else vmpi.irecv(src=peer, tag=tag, request=request)
        )
        items[rank].append((key, rec))
        items[rank].append((key + draw(st.floats(1e-3, 1.0)), vmpi.wait(request)))

    sizes = {}  # (src, dst, tag) -> the channel's one message size
    for _ in range(draw(st.integers(0, 6))):
        src = draw(st.integers(0, nproc - 1))
        dst = (src + draw(st.integers(1, nproc - 1))) % nproc
        tag = draw(st.integers(0, 1))
        nbytes = sizes.get((src, dst, tag))
        if nbytes is None:
            nbytes = sizes[(src, dst, tag)] = draw(st.sampled_from([8, BIG]))
        post(src, "send", dst, nbytes, tag)
        post(dst, "recv", src, nbytes, tag)
    ops = draw(st.lists(st.sampled_from(["barrier", "allreduce"]), max_size=2))
    for rank in range(nproc):
        items[rank].append((draw(keys), vmpi.compute(0.001 * (rank + 1))))
        coll_keys = sorted(draw(keys) for _ in ops)
        for key, op in zip(coll_keys, ops):
            items[rank].append(
                (key, CollectiveRecord(op, 8 if op == "allreduce" else 0))
            )
    return [
        [rec for _, rec in sorted(ranked, key=lambda kr: kr[0])]
        for ranked in items
    ]


def wavefront(nproc, sizes, compute=0.001):
    """A blocking pipeline through every rank, one sweep per size.

    Sweep ``s`` runs rank 0 → ``nproc - 1`` when ``s`` is even and back
    when it is odd: each rank receives from its upstream neighbour,
    computes, then sends ``sizes[s]`` bytes downstream with a blocking
    send (eager or rendezvous by size) on tag ``s``.  A rank's sweep
    cannot start before its upstream neighbour's has passed, so the
    world has about three dependency levels per rank and sweep while
    each level holds only a few instructions — the narrowest rounds a
    level-synchronous compile meets.
    """
    streams = [[] for _ in range(nproc)]
    for s, nbytes in enumerate(sizes):
        order = range(nproc) if s % 2 == 0 else range(nproc - 1, -1, -1)
        chain = list(order)
        for i, rank in enumerate(chain):
            if i > 0:
                streams[rank].append(vmpi.recv(src=chain[i - 1], tag=s))
            streams[rank].append(vmpi.compute(compute * (1 + rank % 3)))
            if i < nproc - 1:
                streams[rank].append(vmpi.send(chain[i + 1], nbytes, tag=s))
    return streams


@st.composite
def wavefront_worlds(draw):
    """:func:`wavefront` worlds: 2-6 ranks, 1-3 sweeps, each sweep
    eager or rendezvous on the default platform (all but the 8-byte
    ones rendezvous on :data:`RENDEZVOUS`)."""
    nproc = draw(st.integers(2, 6))
    sizes = draw(st.lists(st.sampled_from([8, 256, BIG]), min_size=1,
                          max_size=3))
    return wavefront(nproc, sizes)


def des_blocked_ranks(streams, platform):
    """Ranks the DES leaves blocked (empty when the run completes)."""
    try:
        MpiSimulator(platform).run(streams)
    except DeadlockError as exc:
        return {
            int(m.group(1))
            for line in exc.blocked
            if (m := re.match(r"rank(\d+) waiting", line))
        }
    return set()
