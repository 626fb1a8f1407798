"""Generated worlds shared by the differential tests.

:func:`valid_worlds` draws small, structurally valid MPI worlds; the
static deadlock replay (``tests/test_lint_columnar.py``) and the
compiled kernel's level-scheduled batch pass (``tests/test_compiled.py``)
are both checked against their oracles over it, on the default
platform and on :data:`RENDEZVOUS`.
"""

import dataclasses

from hypothesis import strategies as st

from repro.apps import vmpi
from repro.netsim.platform import MYRINET_LIKE
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
