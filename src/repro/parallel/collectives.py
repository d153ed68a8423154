"""Collective-communication algorithms built from point-to-point messages.

The paper compares filtering implementations by the message counts and
data volumes of the underlying communication patterns (ring, binary tree,
transpose).  To make those comparisons real, every collective here is an
explicit algorithm — a :class:`~repro.parallel.events.Exchange` schedule
of send/recv rounds priced per message, or ``Send``/``Recv`` ops for the
trees — so a simulation run charges exactly the messages the algorithm
performs:

* broadcast / reduce — binomial trees, ``ceil(log2 P)`` rounds;
* allgather — the ring algorithm, ``P - 1`` rounds (the pattern used by
  the original convolution filter's ring variant);
* all-to-all — pairwise exchange, ``P - 1`` rounds (the pattern of the
  transpose-based FFT filter and of physics load-balancing scheme 1).

All functions are generators intended to be driven through a
:class:`~repro.parallel.comm.GroupComm` with ``yield from``.

The multi-round collectives (ring allgather, recursive-doubling
allreduce, ring reduce-scatter) yield **one** ``Exchange`` describing
all their rounds.  The scheduler interprets the schedule message by
message — each round is one send then one receive, with the same
pricing, accounting and FIFO matching as a ``Send`` and a ``Recv`` op —
but resumes the rank's generator once per collective.  The pairwise
all-to-all goes further and yields one
:class:`~repro.parallel.events.AllToAll`: its structure, from which the
scheduler either builds the same shift schedule or, for a large group,
advances every member at once.  The log-round tree collectives
(bcast/reduce/gather/scatter) stay on ``Send``/``Recv``: their round
counts are logarithmic and their payloads data-dependent, so there is
nothing to win.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.parallel.events import (
    ACCUM,
    AllToAll,
    Exchange,
    FromRound,
    join_received,
)
from repro.util.validation import check_chunk_count

_TAG_BCAST = 0x7FFF0001
_TAG_REDUCE = 0x7FFF0002
_TAG_GATHER = 0x7FFF0003
_TAG_SCATTER = 0x7FFF0004
_TAG_ALLGATHER = 0x7FFF0005
_TAG_ALLTOALL = 0x7FFF0006
_TAG_RDOUBLE = 0x7FFF0007
_TAG_RSCAT = 0x7FFF0008


def _default_op(op: Optional[Callable[[Any, Any], Any]]):
    """Default reduction operator: addition (elementwise for arrays)."""
    return operator.add if op is None else op


def bcast_binomial(comm, obj: Any, root: int = 0):
    """Binomial-tree broadcast; every member returns the broadcast object."""
    size = comm.size
    if not 0 <= root < size:
        raise ValueError(f"root {root} outside group of size {size}")
    if size == 1:
        return obj
    vrank = (comm.rank - root) % size
    if vrank != 0:
        hbit = 1 << (vrank.bit_length() - 1)
        src = ((vrank - hbit) + root) % size
        obj = yield from comm.recv(src, tag=_TAG_BCAST)
    mask = 1 << vrank.bit_length() if vrank != 0 else 1
    while mask < size:
        child = vrank + mask
        if child < size:
            dest = (child + root) % size
            yield from comm.send(dest, obj, tag=_TAG_BCAST)
        mask <<= 1
    return obj


def reduce_binomial(comm, value: Any,
                    op: Optional[Callable[[Any, Any], Any]] = None,
                    root: int = 0):
    """Binomial-tree reduction; returns the result at ``root``, None elsewhere.

    ``op`` must be associative and commutative (default: addition).
    """
    size = comm.size
    if not 0 <= root < size:
        raise ValueError(f"root {root} outside group of size {size}")
    op = _default_op(op)
    if size == 1:
        return value
    vrank = (comm.rank - root) % size
    mask = 1
    while mask < size:
        if vrank & mask:
            dest = ((vrank ^ mask) + root) % size
            yield from comm.send(dest, value, tag=_TAG_REDUCE)
            return None
        src_v = vrank | mask
        if src_v < size:
            src = (src_v + root) % size
            other = yield from comm.recv(src, tag=_TAG_REDUCE)
            value = op(value, other)
        mask <<= 1
    return value


def gather_direct(comm, value: Any, root: int = 0):
    """Direct gather: each non-root sends one message to the root.

    Returns the list of values in group-rank order at ``root``, None
    elsewhere.
    """
    size = comm.size
    if not 0 <= root < size:
        raise ValueError(f"root {root} outside group of size {size}")
    if comm.rank == root:
        out: List[Any] = [None] * size
        out[root] = value
        for src in range(size):
            if src != root:
                out[src] = yield from comm.recv(src, tag=_TAG_GATHER)
        return out
    yield from comm.send(root, value, tag=_TAG_GATHER)
    return None


def scatter_direct(comm, values: Optional[Sequence[Any]], root: int = 0):
    """Direct scatter from ``root``; returns this member's element."""
    size = comm.size
    if not 0 <= root < size:
        raise ValueError(f"root {root} outside group of size {size}")
    if comm.rank == root:
        if values is None:
            raise ValueError(f"root must supply exactly {size} values, got None")
        check_chunk_count(values, size, "scatter")
        for dest in range(size):
            if dest != root:
                yield from comm.send(dest, values[dest], tag=_TAG_SCATTER)
        return values[root]
    value = yield from comm.recv(root, tag=_TAG_SCATTER)
    return value


def gather_binomial(comm, value: Any, root: int = 0):
    """Binomial-tree gather (the "binary tree" of the convolution filter).

    Data aggregates up the tree: each internal node forwards everything it
    has collected, so the total transferred volume is ``O(N P + N log P)``
    for per-rank payloads of size N — exactly the complexity the paper
    quotes for the tree variant.  Returns a rank-indexed list at ``root``,
    None elsewhere.
    """
    size = comm.size
    if not 0 <= root < size:
        raise ValueError(f"root {root} outside group of size {size}")
    collected = {comm.rank: value}
    if size == 1:
        return [value]
    vrank = (comm.rank - root) % size
    mask = 1
    while mask < size:
        if vrank & mask:
            dest = ((vrank ^ mask) + root) % size
            yield from comm.send(dest, collected, tag=_TAG_GATHER)
            return None
        src_v = vrank | mask
        if src_v < size:
            src = (src_v + root) % size
            part = yield from comm.recv(src, tag=_TAG_GATHER)
            collected.update(part)
        mask <<= 1
    return [collected[r] for r in range(size)]


# ----------------------------------------------------------------------
# Multi-round collectives: one Exchange schedule each.
# ----------------------------------------------------------------------

def allgather_ring(comm, value: Any):
    """Ring allgather: ``P - 1`` rounds of neighbour exchange.

    This is the communication pattern of the original convolution filter's
    "processor ring" variant (paper Section 3.1): every element travels
    all the way around the ring, giving ``P(P-1)`` messages total and an
    aggregate volume of ``(P-1) * sum(nbytes)``.  One Exchange whose
    round ``i`` forwards what round ``i - 1`` received
    (:class:`FromRound` chaining).
    """
    size = comm.size
    result: List[Any] = [None] * size
    result[comm.rank] = value
    if size == 1:
        return result
    rank = comm.rank
    granks = comm.ranks
    right = granks[(rank + 1) % size]
    left = granks[(rank - 1) % size]
    sends: List[Any] = [(right, value, _TAG_ALLGATHER, None, True)]
    recvs: List[Any] = [(left, _TAG_ALLGATHER)]
    for step in range(1, size - 1):
        sends.append((right, FromRound(step - 1), _TAG_ALLGATHER, None, True))
        recvs.append((left, _TAG_ALLGATHER))
    received = yield Exchange(sends=tuple(sends), recvs=tuple(recvs))
    for step in range(size - 1):
        result[(rank - step - 1) % size] = received[step]
    return result


def alltoall_pairwise(comm, chunks: Sequence[Any], tag: int = _TAG_ALLTOALL,
                      join: Optional[int] = None):
    """Pairwise-exchange all-to-all: ``P - 1`` rounds of shifted sendrecv.

    ``chunks[d]`` is destined for group rank ``d``; returns the received
    chunks indexed by source rank or, with ``join`` set, those chunks
    concatenated along axis ``join`` as one read-only array (it may be a
    view of an array the whole group shares, so it is never written).
    ``chunks`` may be a :class:`~repro.parallel.events.Blocks`: one array
    cut at shared bounds, whose blocks are cut only where a message
    needs one.  This is the pattern of the data
    transpose in the FFT filter, of the cyclic shuffle of physics
    load-balancing scheme 1 and — under their own ``tag`` — of the
    pillar transposes of a 3-D mesh.  It is one :class:`AllToAll` op:
    the scheduler is told the structure, not ``P - 1`` messages, and
    either interprets its shift schedule or advances the whole group at
    once.
    """
    size = comm.size
    check_chunk_count(chunks, size, "alltoall")
    if size == 1:
        mine = [chunks[0]]
        return mine if join is None else join_received(mine, join)
    received = yield AllToAll(comm.ranks, comm.rank, chunks, tag, join)
    return received


def allreduce_recursive_doubling(comm, value: Any,
                                 op: Optional[Callable[[Any, Any], Any]] = None):
    """Recursive-doubling allreduce: ``log2 P`` rounds, no broadcast phase.

    For power-of-two groups every rank exchanges with ``rank XOR 2^k``;
    for other sizes the surplus ranks fold into the largest power-of-two
    core first and receive the result afterwards (the standard
    construction).  Halves the critical-path rounds of reduce+bcast for
    small payloads — the variant modern MPI libraries choose.  The
    whole ladder is one combining Exchange sending the running
    accumulator (:data:`ACCUM`) each round, folded as
    ``value = op(value, other)``.
    """
    op = _default_op(op)
    size = comm.size
    if size == 1:
        return value
    pow2 = 1
    while pow2 * 2 <= size:
        pow2 *= 2
    rem = size - pow2
    rank = comm.rank
    granks = comm.ranks

    if rank >= pow2:
        partner = granks[rank - pow2]
        received = yield Exchange(
            sends=((partner, value, _TAG_RDOUBLE, None, True),),
            recvs=((partner, _TAG_RDOUBLE),),
        )
        return received[0]

    sends: List[Any] = []
    recvs: List[Any] = []
    if rank < rem:
        sends.append(None)
        recvs.append((granks[rank + pow2], _TAG_RDOUBLE))
    mask = 1
    while mask < pow2:
        partner = granks[rank ^ mask]
        sends.append((partner, ACCUM, _TAG_RDOUBLE, None, True))
        recvs.append((partner, _TAG_RDOUBLE))
        mask <<= 1
    if rank < rem:
        sends.append((granks[rank + pow2], ACCUM, _TAG_RDOUBLE, None, True))
        recvs.append(None)
    value = yield Exchange(
        sends=tuple(sends), recvs=tuple(recvs),
        combine=lambda acc, other, _round: op(acc, other), initial=value,
    )
    return value


def reduce_scatter_ring(comm, chunks: Sequence[Any],
                        op: Optional[Callable[[Any, Any], Any]] = None):
    """Ring reduce-scatter: each rank ends with the reduction of chunk
    ``rank`` over all ranks' contributions.

    ``chunks[d]`` is this rank's contribution to destination ``d``.
    ``P - 1`` rounds; the partial sum for chunk ``d`` starts at rank
    ``d + 1`` and travels once around the ring, each rank folding in its
    own contribution — the bandwidth-optimal first half of a ring
    allreduce.  One combining Exchange that sends the pre-fold
    accumulator each round.
    """
    op = _default_op(op)
    size = comm.size
    check_chunk_count(chunks, size, "reduce_scatter")
    if size == 1:
        return chunks[0]
    rank = comm.rank
    granks = comm.ranks
    right = granks[(rank + 1) % size]
    left = granks[(rank - 1) % size]
    sends = tuple(
        (right, ACCUM, _TAG_RSCAT, None, True) for _ in range(size - 1)
    )
    recvs = tuple((left, _TAG_RSCAT) for _ in range(size - 1))

    def fold(acc, received, step):
        # The new partial replaces the accumulator: the received partial
        # folded with this rank's own contribution for that chunk.
        return op(received, chunks[(rank - 2 - step) % size])

    acc = yield Exchange(
        sends=sends, recvs=recvs, combine=fold,
        initial=chunks[(rank - 1) % size],
    )
    return acc


# ----------------------------------------------------------------------
# 3-D decomposition collectives (AGCM-3DLF)
# ----------------------------------------------------------------------

_TAG_VHALO_UP = 0x7FFF0009
_TAG_VHALO_DOWN = 0x7FFF000A
_TAG_TRANS_FWD = 0x7FFF000B
_TAG_TRANS_BACK = 0x7FFF000C


def transpose_to_levels(comm, chunks: Sequence[Any], join: Optional[int] = None):
    """Slab -> column-space transpose over one pillar of a 3-D mesh.

    ``chunks[d]`` holds the horizontal column subset destined for pillar
    rank ``d`` (carrying this rank's local layers); the return value is
    indexed by source pillar rank, i.e. by **vertical block in global
    layer order** — concatenating along the layer axis (``join``)
    reassembles full columns deterministically.
    """
    check_chunk_count(chunks, comm.size, "transpose")
    result = yield from alltoall_pairwise(comm, chunks, tag=_TAG_TRANS_FWD,
                                          join=join)
    return result


def transpose_from_levels(comm, chunks: Sequence[Any], join: Optional[int] = None):
    """Column-space -> slab transpose (inverse of
    :func:`transpose_to_levels`); distinct tag so the two directions of
    a leap-format round can never cross-match."""
    check_chunk_count(chunks, comm.size, "transpose")
    result = yield from alltoall_pairwise(comm, chunks, tag=_TAG_TRANS_BACK,
                                          join=join)
    return result


def exchange_vertical_halo(ctx, decomp, local, halo: int = 1):
    """Pad a local slab with ``halo`` ghost layers from the pillar
    neighbours above and below.

    ``decomp`` is a :class:`repro.grid.decomposition.Decomposition` given
    its layer count; ``local`` is this rank's
    ``(nlat_loc, nlon_loc, nlev_loc, ...)`` slab.  The vertical is not
    periodic: at the top and bottom of the atmosphere the boundary layer
    is replicated into the ghost slots (the same convention the
    horizontal exchange uses at the poles).  On an unsplit mesh
    (``nlev_procs == 1``) no messages are sent.
    """
    mesh = decomp.mesh
    rank = ctx.rank
    sub = decomp.subdomain(rank)
    slab = (*sub.shape, sub.nlev)
    if local.shape[:3] != slab:
        raise ValueError(
            f"rank {rank}: local shape {local.shape[:3]} != slab {slab}"
        )
    if halo < 1 or halo > sub.nlev:
        raise ValueError(f"invalid vertical halo {halo} for slab {slab}")
    shape = (sub.nlat, sub.nlon, sub.nlev + 2 * halo, *local.shape[3:])
    padded = np.empty(shape, dtype=local.dtype)
    padded[:, :, halo:-halo] = local

    up = mesh.up_of(rank)
    down = mesh.down_of(rank)
    top_edge = np.ascontiguousarray(local[:, :, -halo:])
    bottom_edge = np.ascontiguousarray(local[:, :, :halo])

    ghosts = (None, None)
    if up is not None or down is not None:
        ghosts = yield Exchange(
            sends=(
                (up, top_edge, _TAG_VHALO_UP, None, True)
                if up is not None else None,
                (down, bottom_edge, _TAG_VHALO_DOWN, None, True)
                if down is not None else None,
            ),
            recvs=(
                (down, _TAG_VHALO_UP) if down is not None else None,
                (up, _TAG_VHALO_DOWN) if up is not None else None,
            ),
        )
    if down is not None:
        padded[:, :, :halo] = ghosts[0]
    else:
        for g in range(halo):  # bottom of atmosphere: replicate
            padded[:, :, g] = padded[:, :, halo]
    if up is not None:
        padded[:, :, -halo:] = ghosts[1]
    else:
        for g in range(halo):  # top of atmosphere: replicate
            padded[:, :, -(g + 1)] = padded[:, :, -(halo + 1)]
    return padded
