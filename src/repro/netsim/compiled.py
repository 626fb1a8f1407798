"""Compiled replay kernel: compile a world once, price assignments fast.

The DES (:class:`~repro.netsim.simulator.MpiSimulator`) re-executes the
whole generator/heap machinery for every frequency assignment even
though only compute-burst durations change between what-ifs.  This
module separates *understanding the world* from *pricing an
assignment*:

* :func:`compile_world` reads the world's columns once and emits a
  flat instruction tape in two array steps, with no virtual clock:
  (a) pair each channel's k-th send with its k-th receive by a stable
  sort, and resolve every wait and collective statically; (b) run a
  Kahn frontier over the resulting dependency graph in numpy rounds.
  The tape — bursts with base durations and β, point-to-point edges
  with wire costs, collective barriers with their cost, wait joins —
  comes out grouped by round, and a round is a dependency level.
  Markers and waits with nothing to join move no clock and stay off
  the tape: the kernel prices, and recording (traces, state intervals,
  marker stamps) is the DES's job.
* ``evaluate_many`` prices *K* assignments at once.  The program's
  first pass groups each level of the tape by opcode; each group then
  runs as one numpy op over ``(ranks, K)`` lanes, so a 4096-rank tape of
  ~156k instructions takes ~40 levels — which is what makes gear-set
  sweeps cheap.  A level holds only independent instructions, so every
  lane still sees the scalar kernel's operations in the same order
  (bit-identical rows).
* :class:`CompiledProgram.evaluate` prices one assignment.  A tape that
  averages at least ``_SMALL_ROUND`` instructions per level runs the
  same pass with one lane; a narrower one (a pipeline, a 32-rank world)
  is walked one instruction at a time with plain float arithmetic (no
  event heap, no generators).  That walk is the oracle the pass is
  tested against.

Equivalence guarantee
---------------------
On the worlds it accepts, the kernel is *bit-identical* to the DES,
not merely close: every DES completion time is a max/plus formula over
compile-time constants (wire times, overheads, collective costs) and
frequency-scaled burst durations, and the tape replays those formulas
with the same operands in the same order (per-rank sequential
accumulation; no pairwise summation).  The capability check therefore
rejects — with :class:`UnsupportedWorldError` — exactly the features
that couple message pairing or costs to the timeline:

=========================================  ==============================
world feature                              why it needs the DES
=========================================  ==============================
``platform.buses`` contention              transfer cost depends on the
                                           global schedule
``platform.decompose_collectives``         emits timing-dependent p2p
``ANY_SOURCE`` / ``ANY_TAG`` receives      match depends on arrival order
mixed eager/rendezvous on one channel      matcher interleaving is
                                           timing-dependent
shrinking eager sizes on one channel       later sends could overtake
=========================================  ==============================

Structurally broken worlds (mismatched send/recv counts, request
reuse or unknown requests, collective shape mismatch, cyclic blocking:
named by the ranks the DES leaves blocked) raise :class:`CompileError`;
``engine="auto"`` falls back to the DES so the *authentic* runtime error
(``DeadlockError``/``SimulationError``) surfaces.
:meth:`CompiledProgram.assert_equivalent` is the validation mode: it
replays the same world through the DES and asserts exact agreement of
makespan and per-rank compute/comm/end times.
"""

from __future__ import annotations

from array import array
from time import perf_counter
from typing import Any, NamedTuple
from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.timemodel import BetaTimeModel
from repro.netsim.collectives import collective_time
from repro.netsim.enginestats import add_engine_stats
from repro.netsim.platform import MYRINET_LIKE, PlatformConfig
from repro.netsim.record import RunResult
from repro.traces.columnar import (
    K_COLLECTIVE,
    K_COMPUTE,
    K_IRECV,
    K_ISEND,
    K_MARKER,
    K_RECV,
    K_SEND,
    K_WAIT,
    K_WAITALL,
    ColumnarTrace,
)
from repro.traces.records import COLLECTIVE_OPS, Record

__all__ = [
    "CompileError",
    "CompiledProgram",
    "CompiledReplayEngine",
    "UnsupportedWorldError",
    "compile_columnar_world",
    "compile_world",
]


class UnsupportedWorldError(Exception):
    """The world needs DES features outside the compiled subset."""


class CompileError(UnsupportedWorldError):
    """The world is structurally broken; the DES owns the real error."""


# Instruction opcodes (tuples on the tape start with one of these).
_COMPUTE = 0        # (op, rank, burst_index)
_SEND_EAGER = 1     # (op, rank, slot)   blocking eager send or eager isend
_SEND_RDV_POST = 2  # (op, rank, slot)   blocking rendezvous send: post
_SEND_RDV_DONE = 3  # (op, rank, slot)   blocking rendezvous send: complete
_ISEND_RDV = 4      # (op, rank, slot)
_RECV_EAGER = 5     # (op, rank, slot)
_RECV_RDV = 6       # (op, rank, slot)
_IRECV_EAGER = 7    # (op, rank)
_IRECV_RDV = 8      # (op, rank, slot)
_WAIT = 9           # (op, rank, ((valkind, slot), ...))
_COLL = 10          # (op, coll_index)
#: Scan code of a marker: it moves no clock, so it never reaches the tape.
_SKIP = 11

#: wait-value kinds: eager arrival slot vs rendezvous max(sp,rp)+wire.
_VAL_ARR = 0
_VAL_RDV = 1

#: Events per block when compile reads the columns: it reads a world
#: once, whole ranks at a time, and releases each block's mapped column
#: pages before the next, so about one block (46 B per event) is resident.
_RELEASE_INTERVAL = 1 << 14

#: Burst-axis block for chunked frequency sweeps (see
#: ``CompiledProgram.evaluate_many``).  Deliberately much larger than
#: the release stride: it bounds vectorised temporaries, not pages.
_BURST_BLOCK = 1 << 20

#: ``need`` of the sink and of events that are not nodes: never ready.
_NEVER = 1 << 30
#: Node ids must fit the int32 working arrays.
_MAX_NODES = (1 << 31) - 1
#: Request ids are biased into [0, 2**32) inside sort keys.
_ID_BIAS = 1 << 31
#: Hits per round up to which a plain loop beats numpy's per-call cost;
#: likewise the instructions per level below which ``evaluate`` walks
#: the tape instead of running the level pass with one lane.
_SMALL_ROUND = 32


def _check_platform(platform: PlatformConfig) -> None:
    """Reject platform features that couple costs to the timeline."""
    if platform.buses:
        raise UnsupportedWorldError(
            "bus contention couples wire time to the global schedule; "
            "DES required"
        )
    if platform.decompose_collectives:
        raise UnsupportedWorldError(
            "decomposed collectives emit timing-dependent point-to-point "
            "rounds; DES required"
        )


def compile_world(
    programs: Sequence[Iterable[Record]],
    platform: PlatformConfig | None = None,
    time_model: BetaTimeModel | None = None,
) -> "CompiledProgram":
    """Compile per-rank record programs into a :class:`CompiledProgram`.

    Lowers the rank programs to a :class:`ColumnarTrace` and hands off
    to :func:`compile_columnar_world`'s compile core, so record programs
    and their recorded trace compile to the same tape by construction.

    Raises :class:`UnsupportedWorldError` when the world needs the DES
    (see the module capability matrix) and :class:`CompileError` when
    it is structurally invalid — ``engine="auto"`` treats both as
    "route to the DES".
    """
    platform = platform or MYRINET_LIKE
    time_model = time_model or BetaTimeModel(fmax=2.3)
    mats = [list(p) for p in programs]
    if len(mats) == 0:
        raise CompileError("need at least one rank program")
    _check_platform(platform)
    try:
        world = ColumnarTrace.from_streams(mats)
    except ValueError as exc:
        raise CompileError(str(exc)) from None
    return _compile_columns(world, platform, time_model)


def compile_columnar_world(
    world: ColumnarTrace,
    platform: PlatformConfig | None = None,
    time_model: BetaTimeModel | None = None,
) -> "CompiledProgram":
    """Compile a :class:`ColumnarTrace` without materialising records.

    The instruction tape is built straight from the pooled columns, so
    a 32k-rank world compiles without ever allocating per-event record
    objects.  Same error contract as :func:`compile_world`.
    """
    platform = platform or MYRINET_LIKE
    time_model = time_model or BetaTimeModel(fmax=2.3)
    _check_platform(platform)
    return _compile_columns(world, platform, time_model)


def _new_pool(typecode: str, size: int) -> tuple[array, np.ndarray]:
    """A zeroed ``array.array`` pool, as the scalar kernel walks it, and
    a writable numpy view of it."""
    pool = array(typecode, [0]) * size
    dtype = {"d": np.float64, "i": np.int32, "q": np.int64}[typecode]
    return pool, _pool_view(pool, dtype)


def _pool(typecode: str, values: np.ndarray) -> array:
    pool, view = _new_pool(typecode, values.shape[0])
    view[:] = values
    return pool


def _where32(mask: np.ndarray) -> np.ndarray:
    """``np.flatnonzero(mask)`` as int32, built without an int64 copy."""
    out = np.empty(int(np.count_nonzero(mask)), dtype=np.int32)
    at = 0
    for lo in range(0, mask.shape[0], _RELEASE_INTERVAL):
        idx = np.flatnonzero(mask[lo:lo + _RELEASE_INTERVAL])
        out[at:at + idx.shape[0]] = idx + lo
        at += idx.shape[0]
    return out


def _first(mask: np.ndarray) -> int:
    return int(np.argmax(mask))


class _Scan:
    """The arrays :func:`_scan` reads out of the columns."""


def _scan(
    world: ColumnarTrace, offsets: np.ndarray, default_beta: float
) -> _Scan:
    """Read the columns once, in whole-rank blocks, into compile arrays.

    Per event: the tape opcode and second argument (``code``, ``arg``;
    a point-to-point event keeps its record kind until :func:`_pair`).
    Per send and per receive, in event order (``s_*``, ``r_*``): event,
    channel key, whether it blocks, the wait event claiming its request
    (-1 if blocking) and, for sends, the size.  Per wait-list entry, in
    list order, the event that posted its request (``ref_post``; wait
    ``w`` owns entries ``ref_off[w]`` on).  Per collective instance
    (``inst`` rows): op code, root, largest size, entering ranks.

    A counting pass sizes every output first, so each block is written
    in place: pieces joined at the end would leave freed heap that the
    allocator keeps resident.  Raises at the first event no replay can
    take (unknown kind, self- or out-of-range peer, wildcard receive)
    and on broken request or collective discipline.
    """
    nproc, n = world.nproc, int(offsets[-1])
    marks = np.arange(_RELEASE_INTERVAL, n, _RELEASE_INTERVAL)
    edges = sorted({0, nproc, *np.searchsorted(offsets, marks).tolist()})
    blocks = [(int(offsets[a]), int(offsets[b]), a, b)
              for a, b in zip(edges[:-1], edges[1:], strict=True)]
    tally = np.zeros(256, dtype=np.int64)
    listed = tag_lo = tag_hi = 0
    for lo, hi, _, _ in blocks:
        kind = world.kind[lo:hi]
        tally += np.bincount(kind.view(np.uint8), minlength=256)
        listed += int(world.req[lo:hi][kind == K_WAITALL].sum())
        tags = world.tag[lo:hi][(kind >= K_SEND) & (kind <= K_IRECV)]
        if tags.size:
            tag_lo = min(tag_lo, int(tags.min()))
            tag_hi = max(tag_hi, int(tags.max()))
        world.release_pages()
    span = tag_hi - tag_lo + 1  # channel key: (src*nproc + dst)*span + tag
    if n >= _MAX_NODES // 2 or nproc * nproc * span >= 1 << 62:
        raise UnsupportedWorldError(
            "world exceeds the compiled kernel's index range; DES required"
        )
    sc = _Scan()
    sc.nproc, sc.span, sc.tag_lo = nproc, span, tag_lo
    sc.code, sc.arg = np.empty(n, np.uint8), np.empty(n, np.int32)
    sc.dur, dur = _new_pool("d", int(tally[K_COMPUTE]))
    sc.beta, beta = _new_pool("d", int(tally[K_COMPUTE]))
    sc.brank, brank = _new_pool("i", int(tally[K_COMPUTE]))
    for side, kinds in (("s", [K_SEND, K_ISEND]), ("r", [K_RECV, K_IRECV])):
        size = int(tally[kinds].sum())
        setattr(sc, side + "_ev", np.empty(size, np.int32))
        setattr(sc, side + "_key", np.empty(size, np.int64))
        setattr(sc, side + "_block", np.empty(size, bool))
        setattr(sc, side + "_claim", np.full(size, -1, np.int32))
    sc.s_size = np.empty(sc.s_ev.shape[0], np.int64)
    sc.ref_post = np.empty(max(int(tally[K_WAIT]) + listed, 0), np.int32)
    sc.ref_off = np.zeros(int(tally[K_WAIT] + tally[K_WAITALL]) + 1, np.int64)
    sc.inst = np.zeros((0, 4), dtype=np.int64)
    at = dict.fromkeys((_COMPUTE, _WAIT, "s", "r", "ref"), 0)

    def number(idx: np.ndarray, what: Any) -> slice:
        """Give events ``idx`` the next indices of ``what``."""
        first = at[what]
        at[what] = first + idx.shape[0]
        if what in (_COMPUTE, _WAIT):
            sc.code[idx] = what
            sc.arg[idx] = np.arange(first, at[what])
        return slice(first, at[what])

    for lo, hi, r0, r1 in blocks:
        if lo == hi:
            continue
        kind, peer = np.array(world.kind[lo:hi]), np.array(world.peer[lo:hi])
        tag = world.tag[lo:hi]
        erank = np.repeat(np.arange(r0, r1, dtype=np.int32),
                          np.diff(offsets[r0:r1 + 1]))
        is_send = (kind == K_SEND) | (kind == K_ISEND)
        is_recv = (kind == K_RECV) | (kind == K_IRECV)
        wild = is_recv & ((peer < 0) | (tag < 0))
        bad = (kind < K_COMPUTE) | (kind > K_MARKER) | wild | (
            (is_send | is_recv) & ((peer < 0) | (peer >= nproc) | (peer == erank))
        )
        if bad.any():
            i = _first(bad)
            rank, p = int(erank[i]), int(peer[i])
            side = "send" if is_send[i] else "recv"
            if wild[i]:
                raise UnsupportedWorldError(
                    f"rank {rank}: ANY_SOURCE/ANY_TAG receive — matching "
                    "depends on arrival order; DES required"
                )
            raise CompileError(
                f"rank {rank}: unknown record kind code {kind[i]}"
                if not (is_send[i] or is_recv[i])
                else f"rank {rank}: self-{side}" if p == rank
                else f"rank {rank}: {side} names rank {p} outside the world"
            )

        idx = np.flatnonzero(kind == K_COMPUTE)
        s = number(lo + idx, _COMPUTE)
        dur[s] = world.duration[lo:hi][idx]
        b = world.beta[lo:hi][idx]
        beta[s] = np.where(np.isnan(b), default_beta, b)
        brank[s] = erank[idx]
        sc.code[lo + np.flatnonzero(kind == K_MARKER)] = _SKIP
        firsts = []
        for mask, side, src, dst in ((is_send, "s", erank, peer),
                                     (is_recv, "r", peer, erank)):
            idx = np.flatnonzero(mask)
            s = number(idx, side)
            firsts.append((mask, s.start))
            key = (src[idx].astype(np.int64) * nproc + dst[idx]) * span
            getattr(sc, side + "_key")[s] = key + tag[idx] - tag_lo
            getattr(sc, side + "_ev")[s] = lo + idx
            getattr(sc, side + "_block")[s] = kind[idx] < K_ISEND  # send, recv
            sc.code[lo + idx] = kind[idx]
            if side == "s":
                sc.s_size[s] = world.size[lo:hi][idx]
        _resolve_requests(sc, world, lo, hi, kind, erank, at, firsts)
        number(lo + np.flatnonzero((kind == K_WAIT) | (kind == K_WAITALL)), _WAIT)
        _join_collectives(sc, world, lo, hi, kind, erank, peer)
        world.release_pages()
    np.cumsum(sc.ref_off, out=sc.ref_off)
    return sc


def _resolve_requests(
    sc: _Scan, world: ColumnarTrace, lo: int, hi: int, kind: np.ndarray,
    erank: np.ndarray, at: dict, firsts: list,
) -> None:
    """Pair the request posts of a rank block with the waits naming them.

    Posts (isend/irecv) and wait-list entries are stable-sorted by
    (rank, request id), which keeps program order within each id, so a
    valid rank alternates post, entry, post, entry...  Anything else is
    an entry naming no open request (the DES's "wait on unknown
    request"), a request posted again while open, or one left open.
    Writes the block's wait-list sizes, entries and claims at ``at``.
    """
    rq = np.flatnonzero((kind >= K_ISEND) & (kind <= K_WAITALL)).astype(np.int32)
    ids = world.req[lo:hi][rq]
    listed = kind[rq] == K_WAITALL
    count = np.where(listed, ids, 1)
    if (count < 0).any():
        rank = int(erank[rq[_first(count < 0)]])
        raise CompileError(f"rank {rank}: waitall lists a negative count")
    is_wait = kind[rq] >= K_WAIT
    w0 = at[_WAIT]
    sc.ref_off[w0 + 1:w0 + 1 + int(is_wait.sum())] = count[is_wait]
    item_ev, item_id = np.repeat(rq, count), np.repeat(ids, count)
    if listed.any():  # waitall entries come from the request pool
        pos = np.flatnonzero(np.repeat(listed, count))
        first = (np.cumsum(count) - count)[listed]
        pool_at = np.repeat(
            world.aux[lo:hi][rq[listed]].astype(np.int64) - first, count[listed]
        )
        item_id[pos] = world.reqpool[pool_at + pos]
    is_ref = np.repeat(is_wait, count)
    key = (erank[item_ev] - erank[0]).astype(np.int64) << 32
    order = np.argsort(key + item_id + _ID_BIAS, kind="stable")
    key = key[order] + item_id[order]
    ref = is_ref[order]
    same = key[1:] == key[:-1]
    paired = np.zeros(ref.shape[0], dtype=bool)
    paired[1:] = ref[1:] & same & ~ref[:-1]
    closed = np.zeros(ref.shape[0], dtype=bool)
    closed[:-1] = paired[1:]
    bad = np.flatnonzero(np.where(ref, ~paired, ~closed))
    if bad.size:  # the earliest offending post or entry
        i = int(bad[np.argmin(order[bad])])
        rank, req = int(erank[item_ev[order[i]]]), int(item_id[order[i]])
        if ref[i]:
            raise CompileError(f"rank {rank}: wait on unknown request {req}")
        if i + 1 < ref.shape[0] and same[i] and not ref[i + 1]:
            raise CompileError(f"rank {rank}: request id {req} reused")
        raise CompileError(f"rank {rank} finished with outstanding requests [{req}]")
    posts = np.flatnonzero(~ref)
    post_ev = item_ev[order[posts]]
    wait_ev = item_ev[order[posts + 1]] + lo
    post_of = np.empty(ref.shape[0], dtype=np.int32)
    post_of[order[posts + 1]] = post_ev + lo
    n_ref = int(is_ref.sum())
    sc.ref_post[at["ref"]:at["ref"] + n_ref] = post_of[is_ref]
    at["ref"] += n_ref
    for (mask, start), claim in zip(firsts, (sc.s_claim, sc.r_claim), strict=True):
        mine = mask[post_ev]
        at_ = start + np.searchsorted(np.flatnonzero(mask), post_ev[mine])
        claim[at_] = wait_ev[mine]


def _join_collectives(
    sc: _Scan, world: ColumnarTrace, lo: int, hi: int, kind: np.ndarray,
    erank: np.ndarray, peer: np.ndarray,
) -> None:
    """The k-th collective of every rank joins instance k, whose op and
    root its first caller fixes."""
    idx = np.flatnonzero(kind == K_COLLECTIVE)
    if not idx.size:
        return
    crank = erank[idx]
    k = np.arange(idx.shape[0]) - np.searchsorted(crank, crank)
    sc.code[lo + idx], sc.arg[lo + idx] = _COLL, k
    op = world.collop[lo:hi][idx].astype(np.int64)
    root = peer[idx].astype(np.int64)
    order = np.argsort(k, kind="stable")
    starts = np.flatnonzero(np.diff(k[order], prepend=-1))
    group = k[order][starts]
    new = starts[group >= sc.inst.shape[0]]
    if new.size:
        born = np.zeros((new.shape[0], 4), dtype=np.int64)
        born[:, 0], born[:, 1] = op[order[new]], root[order[new]]
        sc.inst = np.concatenate((sc.inst, born))
    inst = sc.inst  # rows: op code, root, largest size, entering ranks
    clash = (op != inst[k, 0]) | (root != inst[k, 1])
    if clash.any():
        i = _first(clash)
        raise CompileError(
            f"collective mismatch at instance {k[i]}: rank {crank[i]} calls "
            f"{COLLECTIVE_OPS[op[i]]}(root={root[i]}) but earlier ranks "
            f"called {COLLECTIVE_OPS[inst[k[i], 0]]}(root={inst[k[i], 1]})"
        )
    nbytes = world.size[lo:hi][idx].astype(np.int64)[order]
    inst[group, 2] = np.maximum(inst[group, 2], np.maximum.reduceat(nbytes, starts))
    inst[group, 3] += np.diff(starts, append=idx.shape[0])


def _wire_times(
    platform: PlatformConfig, nbytes: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """``platform.transfer_time`` of every message, bit for bit: the base
    platform's formula as array ops (same operands, same order), a
    subclass's own cost model once per message."""
    cls = type(platform)
    if (cls.transfer_time is not PlatformConfig.transfer_time
            or cls.node_of is not PlatformConfig.node_of):
        return np.array([
            platform.transfer_time(b, s, d) for b, s, d in zip(
                nbytes.tolist(), src.tolist(), dst.tolist(), strict=True)
        ], dtype=np.float64)
    if (nbytes < 0).any():
        bad = int(nbytes[_first(nbytes < 0)])
        raise ValueError(f"nbytes must be >= 0, got {bad!r}")
    cpn, speedup = platform.cpus_per_node, platform.intra_node_speedup
    return np.where(
        src // cpn == dst // cpn,
        platform.latency / speedup + nbytes / (platform.bandwidth * speedup),
        platform.latency + nbytes / platform.bandwidth,
    )


def _pair(sc: _Scan, platform: PlatformConfig) -> tuple[array, array]:
    """Step (a): pair messages, fix protocols and price the wires.

    With wildcards rejected, the DES matcher pairs the k-th send on a
    (src, dst, tag) channel with the k-th receive posted for it — FIFO
    on both sides — provided the channel speaks one protocol and its
    eager sizes do not shrink (so arrivals cannot overtake).  A stable
    sort of each side by channel key puts message ``m`` at position
    ``m`` of both.  Sets every point-to-point event's opcode and slot,
    and ``s_eager``/``s_partner``/``r_eager``/``r_partner``; returns the
    eager and rendezvous wire pools.
    """
    nproc, span = sc.nproc, sc.span

    def chan(key: int) -> tuple[int, int, int]:
        pair, tag = divmod(int(key), span)
        return (pair // nproc, pair % nproc, tag + sc.tag_lo)

    perm_s = np.argsort(sc.s_key, kind="stable").astype(np.int32)
    key, sc.s_key = sc.s_key[perm_s], None
    perm_r = np.argsort(sc.r_key, kind="stable").astype(np.int32)
    r_key, sc.r_key = sc.r_key[perm_r], None
    if key.shape != r_key.shape or not np.array_equal(key, r_key):
        chans, side = np.unique(np.concatenate((key, r_key)), return_inverse=True)
        sends = np.bincount(side[:key.shape[0]], minlength=chans.shape[0])
        recvs = np.bincount(side[key.shape[0]:], minlength=chans.shape[0])
        i = _first(sends != recvs)
        raise CompileError(
            f"channel {chan(chans[i])}: {sends[i]} send(s) vs {recvs[i]} recv(s)"
        )
    del r_key
    size = sc.s_size[perm_s]
    sc.s_size = None
    eager = size <= platform.eager_threshold
    same = key[1:] == key[:-1]
    mixed = same & (eager[1:] != eager[:-1])
    shrink = same & eager[1:] & eager[:-1] & (size[1:] < size[:-1])
    if mixed.any() or shrink.any():  # the first bad channel; mixing first
        first = key[1 + _first(mixed | shrink)]
        if mixed[key[1:] == first].any():
            raise UnsupportedWorldError(
                f"channel {chan(first)}: mixes eager and rendezvous messages "
                "— matcher interleaving is timing-dependent; DES required"
            )
        raise UnsupportedWorldError(
            f"channel {chan(first)}: eager sizes decrease in program order "
            "— later messages could overtake; DES required"
        )
    del same, mixed, shrink
    wire = np.empty(size.shape[0])
    for lo in range(0, size.shape[0], _RELEASE_INTERVAL):
        hi = lo + _RELEASE_INTERVAL
        src, dst = np.divmod(key[lo:hi] // span, nproc)
        wire[lo:hi] = _wire_times(platform, size[lo:hi], src, dst)
    del key, size
    wire_eager, wire_rdv = _pool("d", wire[eager]), _pool("d", wire[~eager])
    del wire
    slot = np.where(eager, np.cumsum(eager) - 1, np.cumsum(~eager) - 1)
    slot = slot.astype(np.int32)
    # message of each send and receive (event order), then its partner
    msg = np.empty(perm_s.shape[0], dtype=np.int32)
    msg[perm_s] = np.arange(msg.shape[0], dtype=np.int32)
    sc.s_eager, sc.arg[sc.s_ev] = eager[msg], slot[msg]
    sc.s_partner = sc.r_ev[perm_r[msg]]
    msg[perm_r] = np.arange(msg.shape[0], dtype=np.int32)
    sc.r_eager, sc.arg[sc.r_ev] = eager[msg], slot[msg]
    sc.r_partner = sc.s_ev[perm_s[msg]]
    del msg, perm_s, perm_r, eager, slot
    sc.code[sc.s_ev] = np.where(
        sc.s_eager, _SEND_EAGER, np.where(sc.s_block, _SEND_RDV_POST, _ISEND_RDV)
    )
    sc.code[sc.r_ev] = np.where(
        sc.r_eager,
        np.where(sc.r_block, _RECV_EAGER, _IRECV_EAGER),
        np.where(sc.r_block, _RECV_RDV, _IRECV_RDV),
    )
    return wire_eager, wire_rdv


def _collective_costs(sc: _Scan, platform: PlatformConfig) -> array:
    """The analytic cost of every collective instance all ranks enter."""
    costs = array("d")
    for op_code, _, nbytes, ranks in sc.inst.tolist():
        if ranks < sc.nproc:
            break  # never completes: the frontier reports the deadlock
        op = COLLECTIVE_OPS[op_code]
        try:
            costs.append(collective_time(op, nbytes, sc.nproc, platform))
        except Exception as exc:
            raise CompileError(f"collective {op}: {exc}") from None
    return costs


def _wait_joins(sc: _Scan) -> tuple[array, bytearray, array, np.ndarray]:
    """The wait pools, each wait's joins in list order, and the number of
    joins per wait.  Every wait-list entry but an eager isend's (complete
    on post) joins one value: an eager irecv's arrival slot, or a
    rendezvous message's ``max(sp, rp) + wire``."""
    pcode = sc.code[sc.ref_post]
    joins = pcode != _SEND_EAGER
    keep = np.flatnonzero(joins)
    kinds = np.where(pcode[keep] == _IRECV_EAGER, _VAL_ARR, _VAL_RDV)
    wait_kind = bytearray(kinds.astype(np.uint8).tobytes())
    wait_slot = _pool("i", sc.arg[sc.ref_post[keep]])
    cum = np.zeros(joins.shape[0] + 1, dtype=np.int64)
    np.cumsum(joins, out=cum[1:])
    cum = cum[sc.ref_off]
    sc.ref_post = sc.ref_off = None
    return _pool("q", cum), wait_kind, wait_slot, np.diff(cum)


def _graph(sc: _Scan, offsets: np.ndarray, n_joins: np.ndarray) -> tuple:
    """The static dependency graph of step (b).

    Nodes: the events that are instructions, a completion per blocking
    rendezvous send (of send ``done_ev[j]``), a node per collective
    instance (from ``inst_lo``), a sink.  ``need`` counts a node's
    dependencies; ``adj`` holds its rank successor and the one node on
    another rank it unblocks (the sink for none); instance k unblocks
    ``inst_next[inst_off[k]:inst_off[k+1]]``.  Markers and join-free
    waits are not nodes; ``tail`` is each rank's last node (-1 for
    none).
    """
    code, arg = sc.code, sc.arg
    n = code.shape[0]
    done_ev = sc.s_ev[sc.s_block & ~sc.s_eager]
    inst_lo = n + done_ev.shape[0]
    sink = inst_lo + sc.inst.shape[0]
    if sink >= _MAX_NODES:
        raise UnsupportedWorldError(
            "world exceeds the compiled kernel's index range; DES required"
        )
    need = np.full(sink + 1, _NEVER, dtype=np.int32)
    adj = np.full((sink + 1, 2), sink, dtype=np.int32)
    # rank chains over instructions and collective entries; an entry
    # stands for its instance, which waits for every rank's arrival (a
    # rank without a k-th collective leaves instance k unemitted)
    free = code == _SKIP
    waits = np.flatnonzero(code == _WAIT)
    free[waits[n_joins == 0]] = True
    node = _where32(~free)
    starts = np.searchsorted(node, offsets[:-1])
    ends = np.searchsorted(node, offsets[1:])
    has = starts < ends
    entry = np.flatnonzero(code[node] == _COLL)
    node[entry] = inst_lo + arg[node[entry]]
    nxt = np.empty_like(node)
    nxt[:-1] = node[1:]
    nxt[ends[has] - 1] = sink
    adj[node, 0] = nxt
    need[node] = 1
    need[node[starts[has]]] = 0
    tail = np.full(offsets.shape[0] - 1, -1, dtype=np.int64)
    tail[has] = node[ends[has] - 1]
    order = entry[np.argsort(node[entry], kind="stable")]
    inst_next = nxt[order]
    inst_off = np.searchsorted(node[order], np.arange(inst_lo, sink + 1))
    adj[inst_lo:sink] = sink
    need[inst_lo:sink] = sc.nproc
    if sink > inst_lo:
        need[inst_lo] -= int(np.count_nonzero(node[starts[has]] >= inst_lo))
    del node, nxt, entry, order, starts, ends, has
    # a blocking rendezvous send completes once its receive is posted
    done = np.arange(n, inst_lo, dtype=np.int32)
    adj[done, 0] = adj[done_ev, 0]
    adj[done_ev, 0] = done
    need[done] = 2
    posts = (tail >= 0) & (tail < n)
    posts[posts] = code[tail[posts]] == _SEND_RDV_POST
    tail[posts] = n + np.searchsorted(done_ev, tail[posts])
    # cross-rank edges: a send unblocks the receive, or the wait on the
    # irecv; a rendezvous receive post unblocks the send's completion,
    # or the wait on the isend
    need[sc.r_ev[sc.r_block]] += 1
    need[waits] += n_joins.astype(np.int32)
    recv = np.searchsorted(sc.r_ev, sc.s_partner)
    adj[sc.s_ev, 1] = np.where(sc.r_block[recv], sc.s_partner, sc.r_claim[recv])
    del recv
    rdv = ~sc.r_eager
    send = np.searchsorted(sc.s_ev, sc.r_partner[rdv])
    target, blocking = sc.s_claim[send], sc.s_block[send]
    target[blocking] = n + np.searchsorted(done_ev, sc.s_ev[send[blocking]])
    adj[sc.r_ev[rdv], 1] = target
    return need, adj, (inst_lo, inst_off, inst_next), done_ev, tail


def _compile_columns(
    world: ColumnarTrace, platform: PlatformConfig, time_model: BetaTimeModel
) -> "CompiledProgram":
    """The one compile core: columns in, instruction tape out.

    Step (a) reads the columns once (:func:`_scan`), pairs messages
    (:func:`_pair`) and resolves every wait to the slots it joins; that
    fixes the dependency graph (:func:`_graph`).  Step (b) runs a Kahn
    frontier over it (:func:`_rounds`), and the tape is laid out round by
    round (:func:`_layout`): a round is a level of ``evaluate_many``.
    """
    offsets = np.array(world.offsets, dtype=np.int64)  # a private copy
    sc = _scan(world, offsets, time_model.beta)
    wire_eager, wire_rdv = _pair(sc, platform)
    costs = _collective_costs(sc, platform)
    wait_off, wait_kind, wait_slot, n_joins = _wait_joins(sc)
    need, adj, insts, done_ev, tail = _graph(sc, offsets, n_joins)
    code, arg = sc.code, sc.arg
    pools = dict(dur=sc.dur, beta=sc.beta, brank=sc.brank)
    del sc, n_joins  # the per-message arrays are spent
    rounds = _rounds(need, adj, *insts)
    del adj  # and so are the edges
    stuck = np.flatnonzero(tail >= 0)
    stuck = stuck[need[tail[stuck]] != 0]
    if stuck.size:
        raise CompileError(
            f"compile-time deadlock: ranks {stuck.tolist()} cannot progress"
        )
    levels, codes, arg1, arg2 = _layout(
        rounds, code, arg, offsets, done_ev, insts[0]
    )
    add_engine_stats(compiled_compiles=1)
    return CompiledProgram(
        world.nproc, platform, time_model, codes=codes, arg1=arg1, arg2=arg2,
        wait_off=wait_off, wait_kind=wait_kind, wait_slot=wait_slot,
        wire_eager=wire_eager, wire_rdv=wire_rdv, coll_costs=costs,
        world=world, levels=levels, **pools,
    )


def _rounds(
    need: np.ndarray, adj: np.ndarray, inst_lo: int, inst_off: np.ndarray,
    inst_next: np.ndarray,
) -> list[np.ndarray]:
    """Step (b): the Kahn frontier over :func:`_graph`, one round per level.

    Emitting a node satisfies one dependency of each node in its ``adj``
    row and, for a collective instance, of each rank's successor.  Round
    r emits exactly the nodes whose count reached zero in round r-1, so
    it touches only newly ready nodes.  Returns each round's nodes,
    sorted; ``need`` ends at zero for every node emitted.
    """
    sink = need.shape[0] - 1
    frontier = np.flatnonzero(need == 0).astype(np.int32)
    rounds = []
    while frontier.shape[0]:
        rounds.append(frontier)
        hit = adj[frontier].ravel()
        if frontier[-1] >= inst_lo:
            hit = np.concatenate([hit] + [
                inst_next[inst_off[k]:inst_off[k + 1]]
                for k in (frontier[frontier >= inst_lo] - inst_lo).tolist()
            ])
        need[sink] = _NEVER
        if hit.shape[0] <= _SMALL_ROUND:  # a narrow round, e.g. a pipeline
            ready = set()
            for v in hit.tolist():
                left = need[v] - 1
                need[v] = left
                if left == 0:
                    ready.add(v)
            frontier = np.array(sorted(ready), dtype=np.int32)
        else:
            hit.sort()
            head = np.flatnonzero(np.diff(hit, prepend=-1))
            nodes = hit[head]
            need[nodes] -= np.diff(head, append=hit.shape[0]).astype(np.int32)
            frontier = nodes[need[nodes] == 0]
    return rounds


def _layout(
    rounds: list[np.ndarray], code: np.ndarray, arg: np.ndarray,
    offsets: np.ndarray, done_ev: np.ndarray, inst_lo: int,
) -> tuple[np.ndarray, bytearray, array, array]:
    """Write the tape level by level; returns the level bounds and tape.

    Level r holds round r's nodes, which are tape entries
    ``[levels[r], levels[r+1])``; a rank's nodes sit in increasing
    rounds, so ranks keep program order.  Events that are not nodes
    (markers, join-free waits) move no clock and are left out.
    Empties ``rounds``.
    """
    n = code.shape[0]
    sizes = [r.shape[0] for r in rounds]
    order = np.concatenate(rounds) if rounds else np.empty(0, np.int32)
    rounds.clear()
    levels = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=levels[1:])
    codes = bytearray(order.shape[0])
    cv = np.frombuffer(codes, dtype=np.uint8)
    arg1, a1 = _new_pool("i", len(codes))
    arg2, a2 = _new_pool("i", len(codes))
    for lo in range(0, order.shape[0], _RELEASE_INTERVAL):
        node = order[lo:lo + _RELEASE_INTERVAL]
        c, x1, x2 = (v[lo:lo + node.shape[0]] for v in (cv, a1, a2))
        ev = node.copy()  # the event behind each node
        done = (node >= n) & (node < inst_lo)
        ev[done] = done_ev[node[done] - n]
        coll = node >= inst_lo
        ev[coll] = 0
        c[:], x2[:] = code[ev], arg[ev]
        x1[:] = np.searchsorted(offsets, ev, "right") - 1
        c[done] = _SEND_RDV_DONE
        c[coll], x1[coll], x2[coll] = _COLL, node[coll] - inst_lo, 0
    return levels, codes, arg1, arg2


def _pool_view(arr: array | bytearray, dtype: Any) -> np.ndarray:
    """Zero-copy numpy view over an ``array.array`` constant pool."""
    if len(arr) == 0:
        return np.empty(0, dtype=dtype)
    return np.frombuffer(arr, dtype=dtype)


class _Schedule(NamedTuple):
    """The tape grouped by dependency level, for ``evaluate_many``.

    Group ``g`` is one (``level[g]``, ``code[g]``) pair holding
    instructions ``[bounds[g], bounds[g+1])`` of the grouped tape; their
    second tape arguments are those entries of ``arg``.  When the
    group's ranks are consecutive, ``run[g]`` is the first of them and
    the entries are in rank order; otherwise ``run[g]`` is -1 and the
    ranks (a collective's index, for a ``_COLL`` group) are entries
    ``[rank_at[g], rank_at[g+1])`` of ``rank``.  ``_WAIT`` joins are cut
    into segments of one join position and one value kind: group ``g``
    owns segments ``[group_seg[g], group_seg[g+1])``, in position order,
    and segment ``s`` lists entries ``[seg_bounds[s], seg_bounds[s+1])``
    of ``join_slot``.  A segment that covers only some waits of its
    group names them (their indices in the group, ascending) in entries
    ``[sel_at[s], sel_at[s+1])`` of ``join_sel``; one that covers all of
    them, in group order, has an empty range there.

    Eager arrivals are stored in the order the pass writes them: the
    i-th ``_SEND_EAGER`` entry (its ``arg`` is still the message slot,
    which names its wire time) fills arrival row i, and the ``arg`` of
    a ``_RECV_EAGER`` entry and the ``join_slot`` of an eager join name
    that row.  Rendezvous slots keep their tape numbering.
    """

    level: np.ndarray
    code: np.ndarray
    bounds: np.ndarray
    run: np.ndarray
    rank_at: np.ndarray
    rank: np.ndarray
    arg: np.ndarray
    group_seg: np.ndarray
    seg_kind: np.ndarray
    seg_bounds: np.ndarray
    sel_at: np.ndarray
    join_sel: np.ndarray
    join_slot: np.ndarray


def _level_schedule(program: "CompiledProgram") -> _Schedule:
    """Group the tape by (dependency level, opcode) for ``evaluate_many``.

    Compile lays the tape out level by level (see
    :func:`_compile_columns`): an instruction sits one level above its
    rank's previous instruction and above the instructions that wrote
    the message slots it reads; a collective sits alone, one level
    above everything before it, and everything after it sits above it.
    So within a level each rank appears once and every slot read was
    written at a lower level: a (level, opcode) group can run as one
    vectorised op, and each element still sees the IEEE operations of
    a sequential tape walk in the same per-rank order.
    """
    levels = program._levels
    n_levels = levels.shape[0] - 1
    codes = _pool_view(program._codes, np.uint8)
    group_key = np.repeat(
        np.arange(n_levels, dtype=np.int32 if n_levels < 1 << 26 else np.int64),
        np.diff(levels),
    )
    group_key <<= 4
    group_key += codes
    # the stable sort keeps each group in tape order
    order = np.argsort(group_key, kind="stable")
    group_key = group_key[order]
    bounds = np.flatnonzero(group_key[1:] != group_key[:-1]) + 1
    bounds = np.concatenate(([0], bounds, [order.shape[0]]))
    if not order.shape[0]:  # nothing to schedule: no groups
        bounds = bounds[:1]
    group_key = group_key[bounds[:-1]]
    rank = _pool_view(program._arg1, np.int32)[order]
    # a group whose ranks are consecutive is put in rank order, so the
    # batch pass addresses its rows by slice; only the other groups
    # keep their ranks
    ngroups = bounds.shape[0] - 1
    size = np.diff(bounds)
    run = np.full(ngroups, -1, dtype=np.int32)
    if ngroups:
        low = np.minimum.reduceat(rank, bounds[:-1])
        span = np.maximum.reduceat(rank, bounds[:-1]) - low + 1
        consecutive = (span == size) & ((group_key & 15) != _COLL)
        run[consecutive] = low[consecutive]
        for g in np.flatnonzero(consecutive & (span > 1)).tolist():
            a, b = bounds[g], bounds[g + 1]
            place = np.empty_like(order[a:b])
            place[rank[a:b] - low[g]] = order[a:b]
            order[a:b] = place
    rank = rank[np.repeat(run < 0, size)]
    rank_at = np.zeros(ngroups + 1, dtype=np.int32)
    np.cumsum(np.where(run < 0, size, 0), out=rank_at[1:])
    arg = _pool_view(program._arg2, np.int32)[order]
    entry_code = codes[order]
    del order
    # eager arrivals live in the rows the pass writes them to: the i-th
    # _SEND_EAGER entry fills row i, so a send group writes one slice
    # (its arg stays the message slot, for the wire time); receives and
    # joins name rows
    sends = np.flatnonzero(entry_code == _SEND_EAGER)
    arr_row = np.zeros(len(program._wire_eager), dtype=np.int32)
    arr_row[arg[sends]] = np.arange(sends.shape[0], dtype=np.int32)
    recvs = np.flatnonzero(entry_code == _RECV_EAGER)
    arg[recvs] = arr_row[arg[recvs]]
    del sends, recvs

    # wait joins: (group, join position, kind, wait-in-group) order
    wpos = np.flatnonzero(entry_code == _WAIT)
    del entry_code
    woff = _pool_view(program._wait_off, np.int64)
    wid = arg[wpos]
    jlo = woff[wid]
    nj = woff[wid + 1] - jlo
    owner = np.repeat(np.arange(wpos.shape[0]), nj)
    position = np.arange(owner.shape[0]) - np.repeat(np.cumsum(nj) - nj, nj)
    join = jlo[owner] + position
    jkind = _pool_view(program._wait_kind, np.uint8)[join]
    jslot = _pool_view(program._wait_slot, np.int32)[join]
    eager = jkind == _VAL_ARR
    jslot[eager] = arr_row[jslot[eager]]
    del arr_row, eager
    wgroup = np.searchsorted(bounds, wpos, side="right") - 1
    jgroup = wgroup[owner]
    jsel = (wpos - bounds[wgroup])[owner]
    perm = np.lexsort((jsel, jkind, position, jgroup))
    jgroup, position, jkind = jgroup[perm], position[perm], jkind[perm]
    if perm.shape[0]:
        cut = np.flatnonzero(
            (jgroup[1:] != jgroup[:-1]) | (position[1:] != position[:-1])
            | (jkind[1:] != jkind[:-1])
        ) + 1
        seg_bounds = np.concatenate(([0], cut, [perm.shape[0]]))
    else:
        seg_bounds = np.zeros(1, dtype=np.int64)
    seg_start = seg_bounds[:-1]
    # only segments that miss some waits of their group keep join_sel
    seg_size = np.diff(seg_bounds)
    partial = seg_size != size[jgroup[seg_start]]
    sel_at = np.zeros(seg_start.shape[0] + 1, dtype=np.int32)
    np.cumsum(np.where(partial, seg_size, 0), out=sel_at[1:])
    return _Schedule(
        level=(group_key >> 4).astype(np.int32),
        code=(group_key & 15).astype(np.uint8),
        bounds=bounds.astype(np.int32),
        run=run,
        rank_at=rank_at,
        rank=rank,
        arg=arg,
        group_seg=np.searchsorted(
            jgroup[seg_start], np.arange(ngroups + 1)
        ).astype(np.int32),
        seg_kind=jkind[seg_start],
        seg_bounds=seg_bounds.astype(np.int32),
        sel_at=sel_at,
        join_sel=jsel[perm][np.repeat(partial, seg_size)].astype(np.int32),
        join_slot=jslot[perm],
    )


class CompiledProgram:
    """A compiled world: an instruction tape plus its constant pools.

    ``evaluate`` prices one frequency vector bit-identically to the
    DES; ``evaluate_many`` prices a ``(K, nproc)`` batch in one
    level-scheduled pass, which ``evaluate`` also runs, with one lane,
    on tapes averaging at least ``_SMALL_ROUND`` instructions per level
    (narrower tapes keep the scalar walk).  Programs are immutable and
    reusable across any number of evaluations (the whole point); the
    only state added later is the level schedule, built by the first
    pass and published with one attribute assignment.

    The tape is struct-of-arrays: one opcode byte plus two int32
    arguments per instruction (~9 B), with wait join lists and burst
    constants in flat side pools — the tuple tape it
    replaced cost ~20× that in boxed objects, which mattered once
    100k-rank worlds stopped paying for column copies.  Compile lays
    the tape out by dependency level; ``_levels`` holds the bounds.
    """

    def __init__(
        self,
        nproc: int,
        platform: PlatformConfig,
        time_model: BetaTimeModel,
        codes: bytearray,
        arg1: array,
        arg2: array,
        wait_off: array,
        wait_kind: bytearray,
        wait_slot: array,
        dur: array,
        beta: array,
        brank: array,
        wire_eager: array,
        wire_rdv: array,
        coll_costs: array,
        world: ColumnarTrace,
        levels: np.ndarray,
    ):
        self.nproc = nproc
        self.platform = platform
        self.time_model = time_model
        self._codes = codes
        self._arg1 = arg1
        self._arg2 = arg2
        self._wait_off = wait_off
        self._wait_kind = wait_kind
        self._wait_slot = wait_slot
        self._dur = dur
        self._beta = beta
        self._brank = brank
        self._wire_eager = wire_eager
        self._wire_rdv = wire_rdv
        self._coll_costs = coll_costs
        self._world = world
        #: tape entries [levels[r], levels[r+1]) form dependency level r
        self._levels = levels
        # numpy constant pools for the batch VM (views, not copies)
        self._np_dur = _pool_view(dur, float)
        self._np_beta = _pool_view(beta, float)
        self._np_brank = _pool_view(brank, np.int32)
        self._np_wire_eager = _pool_view(wire_eager, float)
        self._np_wire_rdv = _pool_view(wire_rdv, float)
        #: level schedule, built by the first level pass
        self._sched: _Schedule | None = None

    @property
    def n_instructions(self) -> int:
        return len(self._codes)

    # ------------------------------------------------------------------
    def _normalize(self, frequencies: Any) -> np.ndarray | None:
        from repro.netsim.simulator import MpiSimulator

        return MpiSimulator._normalize_frequencies(frequencies, self.nproc)

    def evaluate(
        self,
        frequencies: Sequence[float] | float | None = None,
        meta: dict[str, Any] | None = None,
    ) -> RunResult:
        """Price one assignment; returns a DES-identical RunResult.

        The result carries what pricing reads: the makespan and each
        rank's compute, comm and end seconds (no intervals or markers;
        recording is the DES's).  A tape that averages at least
        ``_SMALL_ROUND`` instructions per dependency level runs the
        level pass of :meth:`evaluate_many` with one lane, building or
        reusing the program's schedule.  Narrower tapes, whose levels
        are too small to amortise numpy's per-call cost, are walked one
        instruction at a time (:meth:`_walk`).  Both give the same bits.
        """
        freqs = self._normalize(frequencies)
        start = perf_counter()
        n_levels = self._levels.shape[0] - 1
        if len(self._codes) >= _SMALL_ROUND * n_levels:
            if freqs is None:
                sdur = self._np_dur[:, None]
            else:
                sdur = self._scaled_durations(freqs[None, :])
            t, comp, comm = self._level_pass(sdur)
            end_times, comp, comm = t[:, 0], comp[:, 0], comm[:, 0]
        else:
            end_times, comp, comm = self._walk(freqs)
        elapsed = perf_counter() - start
        add_engine_stats(
            compiled_runs=1,
            compiled_evaluations=1,
            compiled_instructions=len(self._codes),
            compiled_seconds=elapsed,
        )
        return RunResult(
            execution_time=float(end_times.max(initial=0.0)),
            compute_times=comp,
            comm_times=comm,
            end_times=end_times,
            events=len(self._codes),
            intervals=None,
            markers=None,
            trace=None,
            meta=meta or {},
            engine="compiled",
        )

    def _walk(
        self, freqs: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The scalar kernel: replay the tape one instruction at a time
        with plain float arithmetic.  Returns the end, compute and comm
        seconds per rank; ``freqs`` is a normalised frequency row, or
        ``None`` for nominal speed."""
        nproc = self.nproc
        if freqs is None:
            sdur: Sequence[float] = self._dur
        else:
            fmax = self.time_model.fmax
            # same operand order as timemodel.time_ratio, per burst
            r1 = [fmax / float(freqs[r]) - 1.0 for r in range(nproc)]
            dur, bet, brk = self._dur, self._beta, self._brank
            sdur = [
                dur[j] * (bet[j] * r1[brk[j]] + 1.0) for j in range(len(dur))
            ]
        t = [0.0] * nproc
        comp = [0.0] * nproc
        comm = [0.0] * nproc
        arr = [0.0] * len(self._wire_eager)
        sp = [0.0] * len(self._wire_rdv)
        rp = [0.0] * len(self._wire_rdv)
        wire_e, wire_r = self._wire_eager, self._wire_rdv
        costs = self._coll_costs
        send_ov = self.platform.send_overhead
        recv_ov = self.platform.recv_overhead
        ranks = range(nproc)
        codes, a1, a2 = self._codes, self._arg1, self._arg2
        woff, wkind, wslot = self._wait_off, self._wait_kind, self._wait_slot

        for i in range(len(codes)):
            code = codes[i]
            if code == _COMPUTE:
                r = a1[i]
                t0 = t[r]
                nt = t0 + sdur[a2[i]]
                comp[r] += nt - t0
                t[r] = nt
            elif code == _SEND_EAGER:
                r, m = a1[i], a2[i]
                t0 = t[r]
                arr[m] = t0 + wire_e[m]
                nt = t0 + send_ov
                comm[r] += nt - t0
                t[r] = nt
            elif code == _RECV_EAGER:
                r, m = a1[i], a2[i]
                t0 = t[r]
                tr = t0 + recv_ov
                a = arr[m]
                nt = tr if tr >= a else a
                comm[r] += nt - t0
                t[r] = nt
            elif code == _WAIT:
                r = a1[i]
                t0 = t[r]
                cur = t0
                wid = a2[i]
                for j in range(woff[wid], woff[wid + 1]):
                    m = wslot[j]
                    if wkind[j] == _VAL_ARR:
                        val = arr[m]
                    else:
                        s, p = sp[m], rp[m]
                        val = (s if s >= p else p) + wire_r[m]
                    if val > cur:
                        cur = val
                comm[r] += cur - t0
                t[r] = cur
            elif code == _COLL:
                lv = max(t) + costs[a1[i]]
                for r in ranks:
                    comm[r] += lv - t[r]
                    t[r] = lv
            elif code == _SEND_RDV_POST:
                sp[a2[i]] = t[a1[i]]
            elif code == _SEND_RDV_DONE:
                r, m = a1[i], a2[i]
                t0 = t[r]
                s, p = sp[m], rp[m]
                nt = (s if s >= p else p) + wire_r[m]
                comm[r] += nt - t0
                t[r] = nt
            elif code == _ISEND_RDV:
                r, m = a1[i], a2[i]
                t0 = t[r]
                sp[m] = t0
                nt = t0 + send_ov
                comm[r] += nt - t0
                t[r] = nt
            elif code == _RECV_RDV:
                r, m = a1[i], a2[i]
                t0 = t[r]
                tr = t0 + recv_ov
                rp[m] = tr
                s = sp[m]
                nt = (s if s >= tr else tr) + wire_r[m]
                comm[r] += nt - t0
                t[r] = nt
            elif code == _IRECV_EAGER:
                r = a1[i]
                t0 = t[r]
                nt = t0 + recv_ov
                comm[r] += nt - t0
                t[r] = nt
            else:  # _IRECV_RDV
                r, m = a1[i], a2[i]
                t0 = t[r]
                rp[m] = t0
                nt = t0 + recv_ov
                comm[r] += nt - t0
                t[r] = nt

        return np.array(t), np.array(comp), np.array(comm)

    # ------------------------------------------------------------------
    def evaluate_many(
        self, frequencies: Any, *, burst_block: int | None = None
    ) -> dict[str, np.ndarray]:
        """Price K assignments in one level-scheduled pass over the tape.

        ``frequencies`` is a ``(K, nproc)`` array-like of per-rank GHz,
        each positive and finite.  Returns ``execution_time`` ``(K,)``
        plus per-rank ``compute_times`` / ``comm_times`` / ``end_times``
        ``(K, nproc)`` (C-contiguous) — each row bit-identical to
        :meth:`evaluate`.

        The first pass of a program (this or a wide-tape
        :meth:`evaluate`) builds its level schedule (see
        :func:`_level_schedule`) and caches it on the program.  The pass
        (:meth:`_level_pass`) then keeps one row of K lanes per rank and
        per message slot and runs each (level, opcode) group of the
        schedule as one fancy-indexed numpy op — slices when the group's
        ranks are consecutive.  Within a level every rank appears once
        and every slot it reads was written at a lower level, so each
        lane gets exactly the IEEE operations of a sequential tape walk,
        in the same per-rank order, and a wait folds its joins in list
        order.

        ``burst_block`` bounds the duration-scaling *temporaries* to
        ``O(K × burst_block)`` by filling the scaled-duration pool in
        fixed-size slices along the burst axis.  Blocking cannot change
        results — the scaling is elementwise, so every slice computes
        the same operations on the same operands — it only matters for
        out-of-core worlds where three full ``(K, nbursts)`` gather
        temporaries would rival the mapped columns they avoid.
        """
        fmat = np.asarray(frequencies, dtype=float)
        if fmat.ndim != 2 or fmat.shape[1] != self.nproc:
            raise ValueError(
                f"frequency matrix shape {fmat.shape} does not match "
                f"(K, nproc={self.nproc})"
            )
        if not (np.isfinite(fmat) & (fmat > 0.0)).all():
            raise ValueError("frequencies must be positive and finite")
        start = perf_counter()
        t, comp, comm = self._level_pass(
            self._scaled_durations(fmat, burst_block)
        )
        K = fmat.shape[0]
        end = np.ascontiguousarray(t.T)
        elapsed = perf_counter() - start
        add_engine_stats(
            compiled_runs=1,
            compiled_evaluations=K,
            compiled_instructions=len(self._codes) * K,
            compiled_seconds=elapsed,
        )
        return {
            "execution_time": end.max(axis=1),
            "compute_times": np.ascontiguousarray(comp.T),
            "comm_times": np.ascontiguousarray(comm.T),
            "end_times": end,
        }

    def _schedule(self) -> _Schedule:
        """The level schedule, built by the program's first pass."""
        sched = self._sched
        if sched is None:
            # built once per program and published by one assignment;
            # racing threads build equal schedules, so either may win
            sched = self._sched = _level_schedule(self)
        return sched

    def _scaled_durations(
        self, fmat: np.ndarray, burst_block: int | None = None
    ) -> np.ndarray:
        """``(nbursts, K)`` burst seconds at the ``(K, nproc)`` frequencies,
        with :meth:`_walk`'s operations per burst."""
        K = fmat.shape[0]
        # lane-contiguous state: one row of K lanes per rank
        r1 = np.ascontiguousarray((self.time_model.fmax / fmat - 1.0).T)
        dur, beta, brank = self._np_dur, self._np_beta, self._np_brank
        nbursts = dur.shape[0]
        if burst_block is None or burst_block >= nbursts:
            ratio = beta[:, None] * np.take(r1, brank, 0) + 1.0
            sdur = dur[:, None] * ratio                    # (nbursts, K)
            del ratio
        else:
            sdur = np.empty((nbursts, K))
            for lo in range(0, nbursts, burst_block):
                hi = lo + burst_block
                sdur[lo:hi] = dur[lo:hi, None] * (
                    beta[lo:hi, None] * np.take(r1, brank[lo:hi], 0) + 1.0
                )
        return sdur

    def _level_pass(
        self, sdur: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run the level schedule over K lanes of scaled burst seconds;
        returns the ``(nproc, K)`` clocks, compute and comm seconds."""
        sched = self._schedule()
        K = sdur.shape[1]
        nproc = self.nproc
        t = np.zeros((nproc, K))
        comp = np.zeros((nproc, K))
        comm = np.zeros((nproc, K))
        arr = np.zeros((len(self._wire_eager), K))
        sp = np.zeros((len(self._wire_rdv), K))
        rp = np.zeros((len(self._wire_rdv), K))
        wire_e, wire_r = self._np_wire_eager, self._np_wire_rdv
        costs = self._coll_costs
        send_ov = self.platform.send_overhead
        recv_ov = self.platform.recv_overhead
        maximum, take = np.maximum, np.take
        # A lane row viewed as one opaque item: fancy-index scatters of
        # whole rows then take numpy's 1-D copy path (gathers use take).
        row = np.dtype((np.void, 8 * K))

        def rows(a: np.ndarray) -> np.ndarray:
            return a.view(row).reshape(-1)

        tv, compv, commv = rows(t), rows(comp), rows(comm)
        spv, rpv = rows(sp), rows(rp)
        arr_next = 0  # eager arrival rows fill in schedule order
        ranks, args = sched.rank, sched.arg
        bounds = sched.bounds.tolist()
        run = sched.run.tolist()
        rank_at = sched.rank_at.tolist()
        group_seg = sched.group_seg.tolist()
        seg_bounds = sched.seg_bounds.tolist()
        seg_kind = sched.seg_kind.tolist()
        sel_at = sched.sel_at.tolist()
        join_sel, join_slot = sched.join_sel, sched.join_slot

        for g, code in enumerate(sched.code.tolist() if K else ()):
            lo, hi = bounds[g], bounds[g + 1]
            if code == _COLL:  # alone in its group
                lv = t.max(axis=0) + costs[int(ranks[rank_at[g]])]
                comm += lv - t
                t[:] = lv
                continue
            m = args[lo:hi]
            r0 = run[g]
            if r0 >= 0:
                r = slice(r0, r0 + hi - lo)
                col = t[r]
            else:
                r = ranks[rank_at[g]:rank_at[g + 1]].astype(np.intp)
                col = take(t, r, 0)
            if code == _SEND_RDV_POST:
                spv[m] = rows(col)
                continue
            spent, spentv = comm, commv
            if code == _COMPUTE:
                nt = col + take(sdur, m, 0)
                spent, spentv = comp, compv
            elif code == _SEND_EAGER:
                arr[arr_next:arr_next + hi - lo] = (
                    col + take(wire_e, m)[:, None]
                )
                arr_next += hi - lo
                nt = col + send_ov
            elif code == _RECV_EAGER:
                nt = maximum(col + recv_ov, take(arr, m, 0))
            elif code == _WAIT:
                # segments run in join-position order, so every wait
                # folds its values into ``nt`` in its join-list order
                nt = col
                for s in range(group_seg[g], group_seg[g + 1]):
                    jlo, jhi = seg_bounds[s], seg_bounds[s + 1]
                    slot = join_slot[jlo:jhi]
                    if seg_kind[s] == _VAL_ARR:
                        val = take(arr, slot, 0)
                    else:
                        slot = slot.astype(np.intp)
                        val = (maximum(take(sp, slot, 0), take(rp, slot, 0))
                               + take(wire_r, slot)[:, None])
                    if jhi - jlo == hi - lo:  # every wait of the group
                        nt = maximum(nt, val)
                    else:
                        if nt is col:
                            nt = col.copy()
                        sel = join_sel[sel_at[s]:sel_at[s + 1]]
                        sel = sel.astype(np.intp)
                        rows(nt)[sel] = rows(maximum(take(nt, sel, 0), val))
            elif code == _SEND_RDV_DONE:
                m = m.astype(np.intp)
                nt = (maximum(take(sp, m, 0), take(rp, m, 0))
                      + take(wire_r, m)[:, None])
            elif code == _ISEND_RDV:
                spv[m] = rows(col)
                nt = col + send_ov
            elif code == _RECV_RDV:
                m = m.astype(np.intp)
                tr = col + recv_ov
                rpv[m] = rows(tr)
                nt = maximum(take(sp, m, 0), tr) + take(wire_r, m)[:, None]
            elif code == _IRECV_EAGER:
                nt = col + recv_ov
            else:  # _IRECV_RDV
                rpv[m] = rows(col)
                nt = col + recv_ov
            if r0 >= 0:
                acc = spent[r]  # a view: accumulate in place
                acc += nt - col
                t[r] = nt
            else:
                acc = take(spent, r, 0)
                acc += nt - col
                spentv[r] = rows(acc)
                tv[r] = rows(nt)
        return t, comp, comm

    # ------------------------------------------------------------------
    def assert_equivalent(
        self,
        frequencies: Sequence[float] | float | None = None,
        simulator: Any = None,
    ) -> RunResult:
        """Validation mode: cross-check this program against the DES.

        Replays the compiled world's source trace through
        :class:`~repro.netsim.simulator.MpiSimulator` and asserts
        *exact* (bit-identical) agreement of makespan and per-rank
        compute/comm/end seconds.  Returns the compiled result.
        """
        from repro.netsim.simulator import MpiSimulator

        sim = simulator or MpiSimulator(self.platform, self.time_model)
        des = sim.run_trace(self._world, frequencies=frequencies)
        mine = self.evaluate(frequencies)
        checks = (
            ("execution_time", des.execution_time, mine.execution_time),
            ("compute_times", des.compute_times, mine.compute_times),
            ("comm_times", des.comm_times, mine.comm_times),
            ("end_times", des.end_times, mine.end_times),
        )
        for name, want, got in checks:
            if not np.array_equal(np.asarray(want), np.asarray(got)):
                delta = np.max(
                    np.abs(np.asarray(want) - np.asarray(got))
                )
                raise AssertionError(
                    f"compiled replay diverges from DES on {name}: "
                    f"max |Δ| = {delta:.3e}"
                )
        return mine


class CompiledReplayEngine:
    """Engine facade over :func:`compile_columnar_world`: it prices.

    ``run_trace`` and ``evaluate_assignments`` match
    :class:`~repro.netsim.simulator.MpiSimulator`'s on the supported
    subset; recording (traces, intervals, markers) stays on the DES.
    Compiled programs are cached on the trace object, keyed by
    (platform, fmax, β), so a sweep compiles once and evaluates many
    times; capability rejections are negative-cached the same way.
    """

    name = "compiled"

    def __init__(
        self,
        platform: PlatformConfig | None = None,
        time_model: BetaTimeModel | None = None,
    ):
        self.platform = platform or MYRINET_LIKE
        self.time_model = time_model or BetaTimeModel(fmax=2.3)

    def compile_trace(self, trace: ColumnarTrace) -> CompiledProgram:
        key = (self.platform, self.time_model.fmax, self.time_model.beta)
        cache = getattr(trace, "_compiled_cache", None)
        if cache is None:
            cache = []
            trace._compiled_cache = cache  # dropped when the trace pickles
        for cached_key, entry in cache:
            if cached_key == key:
                if isinstance(entry, UnsupportedWorldError):
                    raise type(entry)(str(entry))
                return entry
        try:
            program = compile_columnar_world(
                trace, self.platform, self.time_model
            )
        except UnsupportedWorldError as exc:
            cache.append((key, exc))
            raise
        cache.append((key, program))
        return program

    def run_trace(
        self,
        trace: ColumnarTrace,
        frequencies: Sequence[float] | float | None = None,
    ) -> RunResult:
        return self.compile_trace(trace).evaluate(
            frequencies, meta=dict(trace.meta)
        )

    def evaluate_assignments(
        self,
        trace: ColumnarTrace,
        frequencies: Any,
        chunk_size: int | None = None,
    ) -> dict[str, np.ndarray]:
        """Compile (cached) + batch-evaluate a (K, nproc) matrix.

        ``chunk_size`` bounds the candidate count per level-scheduled
        pass, which bounds peak working-set memory (each pass allocates
        ``O(chunk × (nproc + messages))`` floats; the burst-scaling
        temporaries are additionally blocked along the burst axis).
        Chunking cannot change results:
        :meth:`CompiledProgram.evaluate_many` computes every row
        independently and the burst blocking is elementwise, so the
        concatenation of chunked passes is bit-identical to one full
        pass.

        A one-row matrix is priced by :meth:`evaluate` instead, whose
        row is bit-identical: it runs the same level pass with one lane
        on wide tapes and the scalar walk on narrow ones, where a level
        holds too few instructions to amortise numpy's per-call cost.
        """
        program = self.compile_trace(trace)
        fmat = np.asarray(frequencies, dtype=float)
        if fmat.ndim != 2:
            raise ValueError(
                f"frequency matrix must be (K, nproc), got shape {fmat.shape}"
            )
        K = fmat.shape[0]
        if K == 1:
            row = program.evaluate(fmat[0])
            parts = [{
                "execution_time": np.array([row.execution_time]),
                "compute_times": row.compute_times[None, :],
                "comm_times": row.comm_times[None, :],
                "end_times": row.end_times[None, :],
            }]
        elif chunk_size is None or chunk_size <= 0 or chunk_size >= K:
            parts = [program.evaluate_many(fmat)]
        else:
            parts = [
                program.evaluate_many(
                    fmat[lo : lo + chunk_size],
                    burst_block=_BURST_BLOCK,
                )
                for lo in range(0, K, chunk_size)
            ]
        add_engine_stats(
            batch_batches=1, batch_candidates=K, batch_chunks=len(parts)
        )
        if len(parts) == 1:
            return parts[0]
        return {
            key: np.concatenate([p[key] for p in parts])
            for key in parts[0]
        }
