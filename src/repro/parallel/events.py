"""Primitive simulation operations yielded by rank programs.

A rank program is a Python generator.  Whenever it needs the virtual
machine to do something — burn compute time, send a message, receive one,
or synchronise — it ``yield``s one of the dataclasses below to the
scheduler.  Higher-level operations (collectives, halo exchanges,
transposes) are composed from these four primitives so that their virtual
cost *emerges* from the algorithm, exactly as the paper's complexity
analysis assumes.

Payload size accounting: message payloads may be numpy arrays (``nbytes``
taken from the buffer, mirroring mpi4py's fast buffer path) or arbitrary
picklable objects (sized by a shallow estimate).  Hot paths always use
arrays.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np


def payload_nbytes(obj: Any) -> int:
    """Best-effort wire size of a message payload in bytes.

    numpy arrays are counted exactly; small scalars/objects fall back to a
    pickle-based estimate (mirroring mpi4py's lowercase-method path).
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (int, float, complex, bool)) or obj is None:
        return 8
    if isinstance(obj, (tuple, list)) and all(
        isinstance(x, (int, float, complex, bool)) for x in obj
    ):
        return 8 * len(obj)
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 64


@dataclass
class Compute:
    """Charge compute time to the issuing rank.

    Either give an explicit ``seconds`` or let the machine model convert
    ``flops``/``mem_bytes`` via ``MachineModel.compute_time``.  ``label``
    attributes the time to a named phase in the trace.
    """

    flops: float = 0.0
    mem_bytes: float = 0.0
    seconds: Optional[float] = None
    #: Inner-loop length for the machine's vector-startup degradation.
    inner_length: Optional[float] = None
    label: str = ""


@dataclass
class Send:
    """Eager (non-blocking-completion) message send to ``dest``.

    The sender is busy for ``MachineModel.send_busy_time(nbytes)``; the
    message arrives at the destination mailbox at
    ``t_start + MachineModel.message_time(nbytes)``.

    Under fault injection (a ``FaultPlan`` on the simulator) a droppable
    message may be lost and retransmitted with backoff, delaying its
    arrival; ``droppable=False`` exempts it (a reliable control channel).
    On a perfect machine the flag has no effect.

    Payloads travel **by reference**: the receiver is handed the very
    object that was sent, whenever the engine gets to its receive — which
    on the host may be long after the sender has moved on.  Never write
    to an array after handing it to a ``Send`` (or an :class:`Exchange`
    or a collective built from them); send a copy, or write to a new
    array.
    """

    dest: int
    payload: Any = None
    tag: int = 0
    nbytes: Optional[int] = None  # override wire size (cost-only messages)
    droppable: bool = True

    def wire_bytes(self) -> int:
        """Bytes charged on the wire for this message."""
        if self.nbytes is not None:
            return int(self.nbytes)
        return payload_nbytes(self.payload)


@dataclass
class Recv:
    """Blocking receive of one message from ``source`` with matching ``tag``.

    Completion time is ``max(arrival, t_recv_posted) + recv_overhead``.
    The scheduler delivers the payload as the value of the ``yield``.
    """

    source: int
    tag: int = 0


class FromRound:
    """Payload sentinel inside an :class:`Exchange`: send what an earlier
    round received.

    ``FromRound(j)`` resolves to the payload delivered by round ``j``'s
    receive — the chaining used by ring algorithms (allgather forwards
    each round what the previous round brought in).  Only valid in
    exchanges without ``combine`` (the per-round results must be kept).
    """

    __slots__ = ("round",)

    def __init__(self, round: int):
        self.round = int(round)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FromRound({self.round})"


class _AccumSentinel:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "ACCUM"


#: Payload sentinel inside an :class:`Exchange`: send the current
#: accumulator of a combining exchange (recursive doubling sends its
#: running reduction value each round).
ACCUM = _AccumSentinel()


@dataclass(slots=True)
class Exchange:
    """A schedule of send/recv rounds executed by the scheduler.

    Collectives yield **one** ``Exchange`` describing all their rounds
    instead of ``2 (P - 1)`` individual ``Send``/``Recv`` ops, so the
    scheduler interprets the whole schedule in a tight loop and the rank
    program resumes once.

    Per round ``i`` the scheduler executes, in program order, the send
    ``sends[i]`` (if not None) and then the receive ``recvs[i]`` (if not
    None), exactly as if the program had yielded the equivalent
    ``Send``/``Recv`` pair — virtual clocks, accounting, fault handling
    and per-channel FIFO order are those of the two ops — and so is the
    by-reference payload rule of :class:`Send`: an array named in
    ``sends`` must not be written again by its sender.

    ``sends[i]`` is ``(dest, payload, tag, nbytes, droppable)`` with
    **global** destination ranks; ``payload`` may be the
    :class:`FromRound`/:data:`ACCUM` sentinels.  ``recvs[i]`` is
    ``(source, tag)``.  Without ``combine`` the ``yield`` returns the
    list of received payloads (``None`` for recv-less rounds); with
    ``combine(acc, received, round)`` the accumulator (seeded from
    ``initial``) is folded on every delivery and returned instead.
    """

    sends: Tuple[Optional[Tuple[int, Any, int, Optional[int], bool]], ...]
    recvs: Tuple[Optional[Tuple[int, int]], ...]
    combine: Optional[Callable[[Any, Any, int], Any]] = None
    initial: Any = None

    def __post_init__(self) -> None:
        if len(self.sends) != len(self.recvs):
            raise ValueError(
                f"Exchange rounds mismatched: {len(self.sends)} sends vs "
                f"{len(self.recvs)} recvs (pad with None)"
            )


class Blocks:
    """One array cut into per-member blocks along ``axis``: the chunk
    "list" of an all-to-all that moves one array.

    ``blocks[d]`` is the view ``array[..., a:b, ...]`` (``a, b =
    bounds[d]`` on ``axis``), so a ``Blocks`` is a :class:`Sequence` of
    views and anything that indexes a chunk list reads it unchanged.
    The views are not cut until someone asks: the bulk executor prices a
    block from the array's shape and, when a whole group sends ``Blocks``
    with the same bounds, never cuts them at all.  ``bounds`` are
    ``(start, stop)`` pairs with ``0 <= start <= stop <= array.shape[axis]``
    (an all-to-all raises ``ValueError`` otherwise); a processor row
    shares one bounds tuple, which lets the executor take the widths
    once per row.  The array is a payload like any other: it must not be
    written once sent.
    """

    __slots__ = ("array", "axis", "bounds", "lead")

    def __init__(self, array: np.ndarray, axis: int, bounds: Sequence[Tuple[int, int]]):
        ndim = array.ndim
        if not -ndim <= axis < ndim:
            raise ValueError(f"Blocks axis {axis} out of range for a "
                             f"{ndim}-d array")
        if axis < 0:
            axis += ndim
        self.array = array
        self.axis = axis
        self.bounds = bounds
        #: The full slices before ``axis``: ``array[(*lead, slice(a, b))]``
        #: is block ``(a, b)``.
        self.lead = (slice(None),) * axis

    def __len__(self) -> int:
        return len(self.bounds)

    def __getitem__(self, d: int) -> np.ndarray:
        return self.array[(*self.lead, slice(*self.bounds[d]))]

    def views(self) -> List[np.ndarray]:
        """Every block, cut in one pass."""
        array, lead = self.array, self.lead
        return [array[(*lead, slice(a, b))] for a, b in self.bounds]


def join_received(pieces: Sequence[np.ndarray], axis: int) -> np.ndarray:
    """The received blocks of a joined all-to-all as one read-only array."""
    joined = np.concatenate(pieces, axis=axis)
    joined.setflags(write=False)
    return joined


@dataclass
class AllToAll:
    """The pairwise all-to-all of one member of ``group``, as one op.

    ``group`` holds the members' global ranks, ``pos`` is this member's
    position in it, ``chunks[d]`` is the payload for position ``d`` and
    ``tag`` labels every message.  ``chunks`` is a list, or a
    :class:`Blocks` when one array is cut into the member's chunks.  The
    ``yield`` returns the chunks received, indexed by source position,
    with the member's own chunk at ``pos``; with ``join`` set it returns
    them concatenated along that axis instead, as one **read-only**
    array that may be a view of an array the whole group shares (a group
    that sends :class:`Blocks` of equal shape and bounds is joined once,
    and each member gets its slice).  Every member of the group must
    yield one with the same ``tag``.

    Its cost is that of the shift schedule :meth:`schedule` spells out:
    in round ``s`` every member sends to position ``pos + s + 1`` and
    receives from ``pos - s - 1`` (mod the group size).  The scheduler
    interprets that schedule (a fault plan, a timeline, a small group)
    or, being told the structure instead of the messages, advances the
    whole group at once with the same arithmetic.  Either way a block is
    priced by its ``nbytes``, so a :class:`Blocks` and the list of its
    views cost the same.
    """

    group: Tuple[int, ...]
    pos: int
    chunks: Sequence[Any]
    tag: int
    join: Optional[int] = None

    def schedule(self) -> Exchange:
        """The shift schedule as an explicit :class:`Exchange`."""
        group, pos, chunks, tag = self.group, self.pos, self.chunks, self.tag
        size = len(group)
        dests = [*range(pos + 1, size), *range(pos)]
        srcs = [*range(pos - 1, -1, -1), *range(size - 1, pos, -1)]
        if type(chunks) is Blocks:
            # Each view is cut once, straight into its send; a bound the
            # bulk executor would refuse is refused here too.
            array, lead, bounds = chunks.array, chunks.lead, chunks.bounds
            extent = array.shape[chunks.axis]
            for a, b in bounds:
                if not 0 <= a <= b <= extent:
                    raise ValueError(
                        f"Blocks bound {(a, b)} is not 0 <= start <= stop "
                        f"<= {extent} (axis {chunks.axis})"
                    )
            sends = [(group[d], array[(*lead, slice(*bounds[d]))], tag,
                      None, True) for d in dests]
        else:
            sends = [(group[d], chunks[d], tag, None, True) for d in dests]
        return Exchange(
            sends=tuple(sends),
            recvs=tuple([(group[s], tag) for s in srcs]),
        )

    def by_source(self, received: List[Any]) -> Any:
        """Reorder :meth:`schedule`'s per-round results by source position
        (round ``s`` received from ``pos - s - 1``), joined along
        ``join`` when it is set."""
        pos, chunks = self.pos, self.chunks
        if type(chunks) is Blocks:  # inline: no Python call per member
            own = chunks.array[(*chunks.lead, slice(*chunks.bounds[pos]))]
        else:
            own = chunks[pos]
        out = [*reversed(received[:pos]), own, *reversed(received[pos:])]
        if self.join is None:
            return out
        return join_received(out, self.join)


@dataclass
class Barrier:
    """Synchronise a group of ranks.

    All members' clocks advance to ``max(member clocks) + cost`` where the
    cost models a dissemination barrier: ``ceil(log2(n)) * latency``.
    ``group`` is a sorted tuple of global ranks; every member must issue a
    Barrier with the identical group and ``tag``.
    """

    group: Sequence[int] = field(default_factory=tuple)
    tag: int = 0
