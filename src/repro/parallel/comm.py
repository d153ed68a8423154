"""Virtual communicator: the API rank programs use to talk and compute.

The interface deliberately mirrors mpi4py (the domain-standard Python MPI
binding): lowercase methods move Python objects / numpy arrays, and the
usual collectives are available.  Every method is a *generator* — rank
programs compose them with ``yield from``::

    def program(ctx):
        with ctx.region("halo"):
            east = yield from ctx.sendrecv(dest=ctx.east, payload=buf, source=ctx.west)
        yield from ctx.compute(flops=1e6)
        total = yield from ctx.allreduce(local_sum)
        return total

Collectives are explicit algorithms in :mod:`repro.parallel.collectives`
(binomial trees over sends/receives, rings and pairwise exchanges as
:class:`Exchange` schedules), every message priced by the machine model,
so their virtual cost is exactly the cost of the underlying algorithm —
which is the property the paper's complexity comparisons rely on.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional, Sequence, Tuple

from repro.obs.spans import NULL_OBSERVER, NULL_SPAN, _LiveSpan
from repro.parallel import collectives as coll
from repro.parallel.events import Barrier, Compute, Exchange, Recv, Send
from repro.parallel.machine import MachineModel
from repro.parallel.trace import Trace


class GroupComm:
    """A communicator over an ordered subset of global ranks.

    ``ranks[i]`` is the global rank of local position ``i``; all collective
    roots and point-to-point endpoints are expressed in local positions,
    mirroring MPI sub-communicators.
    """

    def __init__(self, ctx: "VirtualComm", ranks: Tuple[int, ...]):
        # ``ranks`` is trusted here; VirtualComm.group() validates what
        # callers hand it.
        self.ctx = ctx
        self.ranks = ranks
        self.size = len(ranks)
        self.rank = ranks.index(ctx.rank)

    # -- point to point ----------------------------------------------------
    def send(self, dest: int, payload: Any = None, tag: int = 0,
             nbytes: Optional[int] = None, droppable: bool = True):
        """Send ``payload`` to local rank ``dest`` (eager, never blocks).

        ``droppable=False`` exempts the message from fault-injected
        drops (see :mod:`repro.faults`); irrelevant on a perfect machine.
        """
        yield Send(self.ranks[dest], payload=payload, tag=tag, nbytes=nbytes,
                   droppable=droppable)

    def recv(self, source: int, tag: int = 0):
        """Blocking receive from local rank ``source``; returns the payload."""
        payload = yield Recv(self.ranks[source], tag=tag)
        return payload

    def sendrecv(self, dest: int, payload: Any, source: int, tag: int = 0,
                 nbytes: Optional[int] = None, droppable: bool = True):
        """Paired exchange: send to ``dest`` and receive from ``source``.

        Deadlock-free under the eager-send model; returns the received
        payload.  The pair is a one-round :class:`Exchange` — one
        generator resume, priced as one send followed by one receive.
        """
        received = yield Exchange(
            ((self.ranks[dest], payload, tag, nbytes, droppable),),
            ((self.ranks[source], tag),),
        )
        return received[0]

    # -- synchronisation ----------------------------------------------------
    def barrier(self, tag: int = 0):
        """Synchronise all group members."""
        yield Barrier(group=self.ranks, tag=tag)

    # -- collectives (algorithms in repro.parallel.collectives) -------------
    def reduce(self, value: Any, op: Callable[[Any, Any], Any] = None,
               root: int = 0):
        """Binomial-tree reduction to ``root`` (None elsewhere)."""
        with self.ctx.span("coll.reduce"):
            result = yield from coll.reduce_binomial(self, value, op, root)
        return result

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any] = None):
        """Reduce-then-broadcast; every member returns the reduced value."""
        with self.ctx.span("coll.allreduce"):
            result = yield from coll.reduce_binomial(self, value, op, root=0)
            result = yield from coll.bcast_binomial(self, result, root=0)
        return result

    def gather(self, value: Any, root: int = 0):
        """Gather one object per member to ``root`` (list in rank order)."""
        with self.ctx.span("coll.gather"):
            result = yield from coll.gather_direct(self, value, root)
        return result

    def allgather(self, value: Any):
        """Ring allgather; every member returns the full list."""
        with self.ctx.span("coll.allgather"):
            result = yield from coll.allgather_ring(self, value)
        return result

    def scatter(self, values: Optional[Sequence[Any]], root: int = 0):
        """Scatter one object per member from ``root``."""
        with self.ctx.span("coll.scatter"):
            result = yield from coll.scatter_direct(self, values, root)
        return result

    def alltoall(self, chunks: Sequence[Any], join: Optional[int] = None):
        """Pairwise-exchange all-to-all; ``chunks[d]`` goes to local rank d.

        ``chunks`` is a list or a :class:`~repro.parallel.events.Blocks`
        (one array cut at bounds shared by the group).  Returns the list
        of chunks received, indexed by source local rank, or with
        ``join`` set those chunks concatenated along axis ``join``: one
        read-only array, possibly a view of an array the whole group
        shares.
        """
        with self.ctx.span("coll.alltoall"):
            result = yield from coll.alltoall_pairwise(self, chunks, join=join)
        return result

    def transpose_to_levels(self, chunks: Sequence[Any], join: Optional[int] = None):
        """Slab -> column-space pillar transpose (leap-format rounds).

        ``chunks[d]`` is the column share destined for pillar member
        ``d``; the return value is indexed by source member, i.e. by
        vertical block in global layer order, or joined along ``join``
        as for :meth:`alltoall`.
        """
        with self.ctx.span("coll.transpose_fwd"):
            result = yield from coll.transpose_to_levels(self, chunks, join)
        return result

    def transpose_from_levels(self, chunks: Sequence[Any], join: Optional[int] = None):
        """Column-space -> slab pillar transpose (inverse direction)."""
        with self.ctx.span("coll.transpose_back"):
            result = yield from coll.transpose_from_levels(self, chunks, join)
        return result


class VirtualComm(GroupComm):
    """The world communicator handed to every rank program.

    Adds compute charging, named trace regions and sub-group creation on
    top of :class:`GroupComm`.
    """

    def __init__(self, rank: int, world: Tuple[int, ...],
                 machine: MachineModel, trace: Trace, observer=None,
                 run_store: Optional[dict] = None):
        #: In the world communicator the local position is the rank.
        self.rank = rank
        self.machine = machine
        self.trace = trace
        #: The observability sink (see :mod:`repro.obs`); the shared
        #: NULL_OBSERVER unless the simulator was given a live one.
        self.obs = observer if observer is not None else NULL_OBSERVER
        self._state = None  # set by the scheduler; exposes the virtual clock
        #: The run's shared host-side store (see :meth:`once`): one dict
        #: per ``Simulator.run``, emptied when the run ends.
        self._run_store = run_store if run_store is not None else {}
        # ``world`` is the simulator's ``(0, ..., size - 1)``, one tuple
        # shared by every rank of the run: valid by construction, so no
        # per-element checks, no copy and no position search, any of
        # which would be O(size) on each of ``size`` ranks.
        self.ctx = self
        self.ranks = world
        self.size = len(world)

    # -- compute -------------------------------------------------------------
    def compute(self, flops: float = 0.0, mem_bytes: float = 0.0,
                seconds: Optional[float] = None,
                inner_length: Optional[float] = None, label: str = ""):
        """Charge compute time (explicit seconds, or priced by the machine).

        ``inner_length`` exposes the loop's inner dimension to the
        machine's vector-startup model.
        """
        yield Compute(flops=flops, mem_bytes=mem_bytes, seconds=seconds,
                      inner_length=inner_length, label=label)

    def memcpy(self, nbytes: float, label: str = "memcpy"):
        """Charge one local memory copy of ``nbytes`` (read + write).

        Priced purely by the machine's memory bandwidth — the cost basis
        of diskless in-memory checkpointing (see :mod:`repro.guard`),
        as opposed to the host-I/O rate of
        :func:`repro.model.snapshot.io_seconds`.
        """
        yield Compute(mem_bytes=2.0 * float(nbytes), label=label)

    # -- trace regions --------------------------------------------------------
    @property
    def clock(self) -> float:
        """Current virtual time on this rank [s]."""
        return self._state.clock if self._state is not None else 0.0

    @contextmanager
    def region(self, name: str) -> Iterator[None]:
        """Attribute the enclosed virtual time to phase ``name`` in the trace.

        Elapsed time includes blocking waits, matching how the paper's
        per-component timings were measured.  With a live observer
        attached the region is also recorded as a span, so the coarse
        phase structure appears in exported traces for free.
        """
        obs = self.obs
        sid = obs.begin(self.rank, name, self.clock) if obs.enabled else -1
        self.trace.open_region(self.rank, name, self.clock)
        try:
            yield
        finally:
            self.trace.close_region(self.rank, name, self.clock)
            if sid >= 0:
                obs.end(self.rank, sid, self.clock)

    def span(self, name: str, **tags):
        """A context manager recording one observability span.

        Unlike :meth:`region`, spans do not touch the trace's phase
        accounting — they exist purely for the observer, and cost a
        single attribute check when observability is off::

            with ctx.span("filter.fft", lines=n):
                yield from ctx.compute(flops=...)
        """
        obs = self.obs
        if not obs.enabled:
            return NULL_SPAN
        return _LiveSpan(obs, self, self.rank, name, tags or None)

    def instant(self, name: str, **tags) -> None:
        """Record a zero-duration observability marker at the current clock."""
        obs = self.obs
        if obs.enabled:
            obs.instant(self.rank, name, self.clock, tags or None)

    @property
    def metrics(self):
        """The observer's counter/gauge registry (a no-op sink when off)."""
        return self.obs.metrics

    # -- run-scoped sharing ----------------------------------------------------
    def once(self, key, build: Callable[[], Any]) -> Any:
        """``build()`` of the first rank of this run to ask for ``key``.

        Host-side sharing of what is the same on every rank (a set-up
        plan, precomputed coefficients): the first caller builds it, the
        others of the same ``Simulator.run`` read it, and the run drops
        it when it returns or raises.  It changes no virtual cost — each
        rank still charges its own set-up.  Ranks of one run interleave
        at every ``yield``, so a shared value may hold scratch memory
        only for code that does not yield while using it, and must hold
        no ``ctx``, trace or group communicator (they would keep the run
        alive through the store).
        """
        try:
            return self._run_store[key]
        except KeyError:
            value = self._run_store[key] = build()
            return value

    # -- groups ----------------------------------------------------------------
    def group(self, ranks: Sequence[int]) -> GroupComm:
        """Create a sub-communicator over ``ranks`` (must include self);
        a rank tuple is validated once per run, then only membership."""
        key = ranks if type(ranks) is tuple else tuple(ranks)
        ranks = self.once(("group", key),
                          lambda: _validated_group(key, self.size))
        if self.rank not in ranks:
            raise ValueError(f"rank {self.rank} not a member of group {ranks}")
        return GroupComm(self, ranks)


def _validated_group(ranks: Sequence[int], size: int) -> Tuple[int, ...]:
    """``ranks`` as a tuple of ints, each in ``0..size - 1`` and distinct."""
    ranks = tuple(int(r) for r in ranks)
    outside = [r for r in ranks if not 0 <= r < size]
    if outside:
        raise ValueError(
            f"ranks {outside} outside 0..{size - 1} in group {ranks}"
        )
    if len(set(ranks)) != len(ranks):
        raise ValueError(f"duplicate ranks in group: {ranks}")
    return ranks
