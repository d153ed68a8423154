"""Discrete-event scheduler executing SPMD rank programs in virtual time.

The scheduler is a conservative parallel-discrete-event engine specialised
for the message-passing semantics the AGCM needs:

* Every rank runs a deterministic generator (its "program").
* ``Compute`` advances only the issuing rank's clock.
* ``Send`` is *eager*: the sender is busy for its injection time and never
  blocks; the message is timestamped with its arrival time at the
  destination mailbox.
* ``Recv`` blocks until a matching message (source, tag) exists; its
  completion time is ``max(post time, arrival time) + receive overhead``;
  the gap between post time and arrival is accounted as wait time.
* ``Exchange`` is a schedule of send/recv rounds (how collectives
  execute): each round is one eager send then one blocking receive with
  exactly the ``Send`` / ``Recv`` semantics above, but the scheduler
  interprets the whole schedule in one visit and resumes the rank
  program once instead of ``2 (P - 1)`` times.
* ``AllToAll`` is one member's pairwise all-to-all, described by its
  structure (group, position, chunks, tag) instead of its messages; it
  costs exactly its shift schedule of ``P - 1`` rounds.
* ``Barrier`` synchronises a group: all members advance to the group's
  maximum clock plus a dissemination-barrier cost.

Ready ranks are dispatched in same-timestamp **cohorts**: the run queue
(:class:`CohortQueue`) extracts all entries sharing the minimum clock,
sorted by rank, and dispatches them together.  Virtual results are
independent of host dispatch order: each rank executes its ops in
program order until it blocks, per-channel message order is FIFO, and a
wake-up never carries a clock below the waker's.

An ``Exchange`` has two interpreters that compute the same bits.
:meth:`Simulator._advance_exchange` executes it message by message
through :meth:`Simulator._do_send` and :meth:`Simulator._complete_recv`,
the code the ``Send`` and ``Recv`` ops run; it is what a fault plan or a
``record_events=True`` timeline runs through, and it is the reference
(the ``engine-fast-vs-general`` differential pair, and the digests
frozen in ``tests/parallel/test_engine_frozen.py``).  On a perfect
machine with the timeline off, :meth:`Simulator._interpret_fast` does
the same arithmetic straight from the op, with the rank's clock and
accounting in locals, every wire size priced once per run, and a
cursor (:class:`_ExchState`) only for a round whose receive has to wait.
An ``AllToAll`` is lowered to its explicit ``Exchange``
(:meth:`AllToAll.schedule`) and interpreted, except on a perfect
machine with the timeline off and a group moving at least
``_BULK_MIN_MSGS`` messages: there its members park until the group
closes and :meth:`Simulator._bulk_alltoall` advances all of them with
one array operation per round, from the chunk lists alone.

An all-to-all may move one array cut at bounds (a :class:`Blocks`)
instead of a chunk list, and may ask for its received blocks ``join``-ed
along an axis.  A joined result is one **read-only** array: when a whole
bulk group sends ``Blocks`` of one shape and bounds, the executor
concatenates the group's arrays once and each member's result is a view
of that shared array, so no member may write it.  The interpreters cut
the views once, in :meth:`AllToAll.schedule`, and join once per member.

A situation where no rank can progress is a genuine communication
deadlock and raises :class:`DeadlockError`.

Fault injection: constructing the simulator with a
:class:`repro.faults.plan.FaultPlan` makes the machine misbehave on a
seeded, deterministic schedule — compute ops stretch inside slowdown
windows, messages are dropped and retransmitted with backoff (the
transport retries; the sender's program never blocks or re-executes),
and ranks can die mid-run, raising :class:`RankFailedError` ("stop"
mode) or silently hanging until the run deadlocks ("hang" mode).
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict, deque
from functools import partial
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.obs.spans import NULL_OBSERVER, get_active
from repro.parallel.events import (
    ACCUM,
    AllToAll,
    Barrier,
    Blocks,
    Compute,
    Exchange,
    FromRound,
    Recv,
    Send,
    join_received,
    payload_nbytes,
)
from repro.parallel.machine import MachineModel
from repro.parallel.timeline import Event as _Event
from repro.parallel.trace import RankAccounting, SimResult, Trace

#: All-to-alls moving at least this many messages in total (members x
#: rounds) run through the vectorized bulk executor; smaller ones are
#: interpreted round-by-round (the NumPy setup would dominate).
_BULK_MIN_MSGS = 512


def _wire_size(payload: Any) -> int:
    """:func:`payload_nbytes`, with the two payload types every hot
    collective sends tested first; it agrees with it by construction."""
    tp = type(payload)
    if tp is np.ndarray:
        return payload.nbytes
    if tp is float or tp is int:
        return 8
    return payload_nbytes(payload)


def _block_widths(bounds) -> Tuple[np.ndarray, int]:
    """The widths of a :class:`Blocks` bounds tuple and its largest stop;
    a bound that is not ``0 <= start <= stop`` raises."""
    widths = []
    stop = 0
    for a, b in bounds:
        if not 0 <= a <= b:
            raise ValueError(f"Blocks bound {(a, b)} is not 0 <= start <= stop")
        widths.append(b - a)
        if b > stop:
            stop = b
    return np.array(widths, dtype=np.int64), stop


def _shared_blocks(ops: List[AllToAll]) -> bool:
    """Whether every member of a group sent :class:`Blocks` of one axis
    and bounds, asked to join them along one other axis, and sent arrays
    that agree in shape off that axis: then concatenating the arrays
    once and slicing the result gives every member its joined blocks."""
    first = ops[0]
    chunks = first.chunks
    join = first.join
    if type(chunks) is not Blocks or join is None:
        return False
    axis, bounds, shape = chunks.axis, chunks.bounds, chunks.array.shape
    if not 0 <= join < len(shape) or join == axis:
        return False
    head, tail = shape[:join], shape[join + 1:]
    for op in ops:
        c = op.chunks
        if (type(c) is not Blocks or op.join != join or c.axis != axis
                or (c.bounds is not bounds and c.bounds != bounds)):
            return False
        s = c.array.shape
        if s[:join] != head or s[join + 1:] != tail:
            return False
    return True


class DeadlockError(RuntimeError):
    """Raised when every unfinished rank is blocked on a receive/barrier.

    The message contains the full per-rank wait graph — who waits on
    whom, for what tag, since when — so a hang is diagnosable from the
    exception alone.  The same information is available structured via
    ``wait_graph``: ``{rank: {"kind": "recv" | "barrier" | "exchange" |
    "hang" | "unknown", "on": [ranks waited on], "tag": int | None,
    "since": float}}``; ``"barrier"`` and ``"exchange"`` (a member parked
    for a bulk all-to-all) also carry the ``"group"``.
    """

    def __init__(self, message: str, wait_graph: Optional[Dict[int, dict]] = None):
        super().__init__(message)
        self.wait_graph: Dict[int, dict] = (
            wait_graph if wait_graph is not None else {}
        )


class RankFailedError(RuntimeError):
    """Raised when an injected ``mode="stop"`` rank failure fires.

    Carries the failed ``rank`` and the virtual time ``at`` the failure
    was detected, so the recovery loop (see
    :func:`repro.guard.supervisor.run_agcm_guarded`) can account the
    lost work and restart from the last checkpoint.
    """

    def __init__(self, rank: int, at: float):
        super().__init__(f"rank {rank} failed at virtual t={at:.6g} s")
        self.rank = rank
        self.at = at


class CohortQueue:
    """Heap-backed ready queue dispatching same-timestamp cohorts.

    Entries are ``(clock, rank)``.  Pending entries live in a binary
    heap; when asked for the next entry, the queue pops every entry
    sharing the minimum clock — the heap yields them already in rank
    order — and serves that cohort in O(1) per member until it drains.
    Forming a cohort of ``k`` out of ``n`` pending entries costs
    O(k log n): a whole mesh released by one barrier forms in one go,
    and a sweep of pairwise-distinct clocks (every rank of a large mesh
    leaving a bulk exchange at its own time) never re-scans the rest.

    Ordering contract (property-tested): for any entries present when a
    cohort is formed, dispatch follows exact ``(clock, rank)`` order.
    Entries pushed *while* a cohort drains dispatch no earlier than the
    cohort's timestamp; the engine only pushes wake-ups at clocks ``>=``
    the waker's current clock, so cohort timestamps never regress.
    """

    __slots__ = ("_heap", "_cohort", "_cohort_clock", "_ci")

    def __init__(self, entries: Iterable[Tuple[float, int]] = ()):
        self._heap: List[Tuple[float, int]] = list(entries)
        heapq.heapify(self._heap)
        self._cohort: List[int] = []
        self._cohort_clock = 0.0
        self._ci = 0

    def __len__(self) -> int:
        return (len(self._cohort) - self._ci) + len(self._heap)

    def push(self, clock: float, rank: int) -> None:
        """Enqueue a ready rank at its current clock."""
        heapq.heappush(self._heap, (clock, rank))

    def pop(self) -> Optional[Tuple[float, int]]:
        """Next ``(clock, rank)`` entry, or None when the queue is empty."""
        if self._ci < len(self._cohort):
            rank = self._cohort[self._ci]
            self._ci += 1
            return (self._cohort_clock, rank)
        heap = self._heap
        if not heap:
            return None
        heappop = heapq.heappop
        first = heappop(heap)
        t = first[0]
        cohort = [first[1]]
        while heap and heap[0][0] == t:
            cohort.append(heappop(heap)[1])
        self._cohort = cohort
        self._cohort_clock = t
        self._ci = 1
        return first


#: What a barrier in flight is filed under: ``(sorted group, tag)``, with
#: the world group spelt ``None`` so that the P arrivals at a world
#: barrier never hash a P-tuple.
_BarrierKey = Tuple[Optional[Tuple[int, ...]], int]


class _Prices(dict):
    """``{wire size: (send busy, message time, receive busy)}`` of one
    run, each priced once by the scalar :class:`MachineModel` methods the
    general interpreter calls per message: the very same floats."""

    __slots__ = ("machine",)

    def __init__(self, machine: MachineModel):
        super().__init__()
        self.machine = machine

    def __missing__(self, wire: int) -> Tuple[float, float, float]:
        machine = self.machine
        cost = self[wire] = (machine.send_busy_time(wire),
                             machine.message_time(wire),
                             machine.recv_busy_time(wire))
        return cost


class _ExchState:
    """Cursor of an :class:`Exchange` whose round ``i`` waits on its receive.

    Holds what a resume needs: the op, the round, the per-round results
    (``None`` for a combining exchange) or the accumulator ``acc``, and
    ``arrange``, which maps the results to what the ``yield`` returns (a
    lowered :class:`AllToAll` orders them by source).
    """

    __slots__ = ("op", "i", "results", "acc", "arrange")

    def __init__(self, op: Exchange, i: int, results: Optional[List[Any]],
                 acc: Any, arrange: Optional[Callable[[List[Any]], Any]]):
        self.op = op
        self.i = i
        self.results = results
        self.acc = acc
        self.arrange = arrange

    def deliver(self, payload: Any) -> None:
        """Consume the payload of round ``i``'s recv and advance the cursor."""
        if self.results is None:
            self.acc = self.op.combine(self.acc, payload, self.i)
        else:
            self.results[self.i] = payload
        self.i += 1

    def result(self) -> Any:
        if self.results is None:
            return self.acc
        if self.arrange is not None:
            return self.arrange(self.results)
        return self.results


class _RankState:
    """Mutable execution state of one rank."""

    __slots__ = (
        "rank",
        "gen",
        "clock",
        "blocked",
        "pending_recv",
        "pending_barrier",
        "pending_alltoall",
        "done",
        "failed",
        "retval",
        "send_value",
        "exch",
    )

    def __init__(self, rank: int, gen):
        self.rank = rank
        self.gen = gen
        self.clock = 0.0
        self.blocked = False
        self.pending_recv: Optional[Tuple[int, int, float]] = None  # (src, tag, post time)
        self.pending_barrier: Optional[_BarrierKey] = None
        self.pending_alltoall: Optional[AllToAll] = None  # parked, bulk
        self.done = False
        self.failed = False  # an injected failure fired on this rank
        self.retval: Any = None
        self.send_value: Any = None  # value to send into the generator next
        self.exch: Optional[_ExchState] = None  # Exchange blocked on a recv


class Simulator:
    """Runs ``nranks`` copies of a rank program over a machine model.

    Parameters
    ----------
    nranks:
        Number of virtual ranks.
    machine:
        The :class:`MachineModel` whose cost functions price every event.
    faults:
        Optional :class:`repro.faults.plan.FaultPlan`.  When given, the
        machine misbehaves on the plan's deterministic schedule: compute
        slowdowns, message drops with timeout/retransmit (accounted in
        the trace under the ``"retry"`` phase), and rank failures.

    Example
    -------
    >>> from repro.parallel.machine import GENERIC
    >>> from repro.parallel.events import Compute
    >>> def program(ctx):
    ...     yield Compute(seconds=1.0)
    ...     return ctx.rank
    >>> sim = Simulator(2, GENERIC)
    >>> result = sim.run(program)
    >>> result.returns
    [0, 1]
    >>> result.elapsed
    1.0
    """

    def __init__(self, nranks: int, machine: MachineModel,
                 record_events: bool = False, faults=None, observer=None):
        if nranks <= 0:
            raise ValueError(f"nranks must be positive, got {nranks}")
        self.nranks = nranks
        self.machine = machine
        #: When True, the trace collects per-op timeline events for the
        #: analysis tools in repro.parallel.timeline.
        self.record_events = record_events
        #: Optional FaultPlan (duck-typed to avoid importing repro.faults
        #: here); None means a perfect machine.
        self.faults = faults
        if faults is not None:
            # Fail fast on a plan naming ranks this mesh does not have
            # (duck-typed for the same import-cycle reason as above).
            validate = getattr(faults, "validate_ranks", None)
            if validate is not None:
                validate(nranks)
        #: Optional repro.obs.Observer.  None falls back to the ambient
        #: observer (repro.obs.activate) and finally to the disabled
        #: singleton — so experiment code need not thread the observer
        #: through every call for `python -m repro profile` to see it.
        self.observer = observer

    # ------------------------------------------------------------------
    def run(self, program: Callable[..., Any], *args: Any, **kwargs: Any) -> SimResult:
        """Execute ``program(ctx, *args, **kwargs)`` on every rank.

        ``program`` must be a generator function whose first argument is a
        :class:`repro.parallel.comm.VirtualComm` context.  Its Python
        return value is captured per rank.
        """
        from repro.parallel.comm import VirtualComm  # local import: cycle

        obs = self.observer
        if obs is None:
            obs = get_active() or NULL_OBSERVER
        if obs.enabled:
            obs.start_run(
                label=getattr(program, "__name__", "program"),
                nranks=self.nranks,
            )
        trace = Trace(self.nranks, record_events=self.record_events)
        # One world group for the whole run: every rank's ``ctx.ranks``
        # is this object, and the event loop knows it by identity.
        world = tuple(range(self.nranks))
        # What the ranks share on the host for this run only
        # (``ctx.once``).  A ``ctx`` refers to itself, so whatever it can
        # reach waits for the cyclic collector: the ``finally`` below
        # empties the store so a finished run's plan dies with the run.
        run_store: Dict[Any, Any] = {}
        states: List[_RankState] = []
        for rank in range(self.nranks):
            ctx = VirtualComm(rank, world, self.machine, trace,
                              observer=obs, run_store=run_store)
            gen = program(ctx, *args, **kwargs)
            state = _RankState(rank, gen)
            ctx._state = state  # back-reference for clock access
            states.append(state)

        # mailbox[(dest, src, tag)] -> deque of (arrival_time, payload, nbytes)
        # A channel lives only while it holds a message: sends create it
        # (``mailbox[key].append``), receives test with ``in``/``get``
        # and the receive that drains it deletes it, so a run whose tags
        # change every round holds its in-flight messages, not its past.
        mailbox: Dict[Tuple[int, int, int], Deque[Tuple[float, Any, int]]] = (
            defaultdict(deque)
        )
        # barrier arrivals: (group, tag) -> list of ranks arrived; the
        # world group is keyed as None (see _BarrierKey)
        barrier_waiting: Dict[_BarrierKey, List[int]] = defaultdict(list)

        faults = self.faults
        # per-link message sequence numbers: (src, dst) -> next seq, the
        # deterministic coordinate of the fault plan's drop decisions
        link_seq: Dict[Tuple[int, int], int] = defaultdict(int)
        # pending injected failures: rank -> RankFailure, consumed on fire
        fail_pending = (
            {f.rank: f for f in faults.failures} if faults is not None else {}
        )

        ready = CohortQueue((0.0, r) for r in range(self.nranks))

        try:
            self._event_loop(states, world, mailbox, barrier_waiting, faults,
                             link_seq, fail_pending, ready, trace, obs)
        except BaseException:
            # One rank's exception abandons every other rank mid-step.
            # Close their generators now so nested trace regions unwind
            # LIFO per rank; left to the GC, the suspended contextmanager
            # generators close in arbitrary order and close_region raises
            # spurious mismatch errors into stderr.
            for state in states:
                try:
                    state.gen.close()
                except Exception:
                    pass
            raise
        finally:
            run_store.clear()
            # Observer teardown runs even when the simulation dies
            # (RankFailedError, DeadlockError): dangling spans are closed
            # at each rank's final clock so partial traces stay loadable.
            if obs.enabled:
                acc = trace.ranks
                obs.finish_run(
                    clocks=[s.clock for s in states],
                    summary={
                        "messages_sent": sum(a.messages_sent for a in acc),
                        "bytes_sent": sum(a.bytes_sent for a in acc),
                        "messages_received": sum(
                            a.messages_received for a in acc
                        ),
                        "messages_dropped": sum(
                            a.messages_dropped for a in acc
                        ),
                        "messages_retransmitted": sum(
                            a.messages_retransmitted for a in acc
                        ),
                    },
                )

        clocks = [s.clock for s in states]
        return SimResult(
            elapsed=max(clocks),
            clocks=clocks,
            returns=[s.retval for s in states],
            trace=trace,
        )

    def _event_loop(
        self,
        states: List[_RankState],
        world: Tuple[int, ...],
        mailbox: Dict[Tuple[int, int, int], Deque[Tuple[float, Any, int]]],
        barrier_waiting: Dict[_BarrierKey, List[int]],
        faults,
        link_seq: Dict[Tuple[int, int], int],
        fail_pending: Dict[int, Any],
        ready: CohortQueue,
        trace: Trace,
        obs,
    ) -> None:
        """Drive every rank to completion (the conservative PDES core).

        NULL-observer/NULL-fault checks are hoisted out of the per-op
        loop into the locals below — ``events``/``has_faults`` are fixed
        for the whole run, so the hot path tests a local bool instead of
        re-reading attributes per event.
        """
        machine = self.machine
        compute_time = machine.compute_time
        events = trace.events
        acc_ranks = trace.ranks
        has_faults = faults is not None
        nranks = self.nranks
        finished = 0
        # Fault-free, timeline-free runs interpret Exchanges through the
        # fast interpreter (same arithmetic, hoisted locals) and send big
        # all-to-alls to the bulk executor; a fault plan or a timeline
        # takes the general interpreter, the reference the other two are
        # checked against.  Either is called as
        # ``interpret(state, op, cursor or None, arrange)``.
        fast = not has_faults and events is None
        if fast:
            interpret = partial(self._interpret_fast, states, mailbox, ready,
                                acc_ranks, _Prices(machine))
        else:
            interpret = partial(self._advance_exchange, states, mailbox,
                                faults, link_seq, fail_pending, ready, trace,
                                obs)
        # Bulk all-to-all members rendezvous here (like a barrier) until
        # every member has arrived, then execute in one vectorized pass.
        exch_waiting: Dict[Tuple[int, ...], List[int]] = defaultdict(list)

        while finished < nranks:
            entry = ready.pop()
            if entry is None:
                raise self._deadlock_error(
                    states, barrier_waiting, exch_waiting
                )

            rank = entry[1]
            state = states[rank]
            if state.done or state.blocked:
                continue  # stale queue entry

            ex = state.exch
            if ex is not None:
                # Resume the Exchange this rank blocked inside; the recv
                # that woke it was already delivered into the cursor.
                if ex.i == len(ex.op.recvs):
                    # That was its last round: nothing left to interpret.
                    state.send_value = ex.result()
                    state.exch = None
                elif not interpret(state, ex.op, ex, None):
                    continue

            gen_send = state.gen.send
            # Advance this rank until it blocks or finishes.
            while True:
                # Injected failures fire at the first op boundary at or
                # after their scheduled virtual time.
                if fail_pending and self._maybe_fail(
                    state, fail_pending, obs
                ):
                    break
                try:
                    op = gen_send(state.send_value)
                except StopIteration as stop:
                    state.done = True
                    state.retval = stop.value
                    finished += 1
                    break
                state.send_value = None

                cls = op.__class__
                if cls is Compute:
                    seconds = (
                        op.seconds
                        if op.seconds is not None
                        else compute_time(
                            op.flops, op.mem_bytes, op.inner_length
                        )
                    )
                    if seconds < 0:
                        raise ValueError("Compute seconds must be non-negative")
                    if has_faults and seconds > 0:
                        seconds = faults.stretch_compute(
                            rank, state.clock, seconds
                        )
                    if events is not None and seconds > 0:
                        events.append(_Event(
                            rank, "compute", state.clock,
                            state.clock + seconds,
                        ))
                    state.clock += seconds
                    acc_ranks[rank].compute_time += seconds
                    continue

                if cls is Exchange:
                    if not interpret(state, op, None, None):
                        break
                    continue

                if cls is AllToAll:
                    group = op.group
                    size = len(group)
                    if not 0 <= op.pos < size or group[op.pos] != rank:
                        # A wrong position would pair the wrong messages;
                        # a non-member would park forever.
                        where = group.index(rank) if rank in group else None
                        raise ValueError(
                            f"rank {rank} issued all-to-all for group "
                            f"{group} at position {op.pos}, but its "
                            f"position there is {where}"
                        )
                    if fast and size * (size - 1) >= _BULK_MIN_MSGS:
                        waiting = exch_waiting[group]
                        if waiting:
                            tag = states[waiting[0]].pending_alltoall.tag
                            if op.tag != tag:
                                raise ValueError(
                                    f"rank {rank} issued all-to-all for "
                                    f"group {group} with tag {op.tag:#x}, "
                                    f"the group's is {tag:#x}"
                                )
                        waiting.append(rank)
                        state.pending_alltoall = op
                        if len(waiting) < size:
                            # Park like a barrier until the group closes.
                            state.blocked = True
                            break
                        del exch_waiting[group]
                        # This rank closed the group; keep running it.
                        self._bulk_alltoall(group, states, ready, trace)
                        continue
                    if not interpret(state, op.schedule(), None,
                                     op.by_source):
                        break
                    continue

                if cls is Send:
                    self._do_send(
                        rank, state, op.dest, op.payload, op.tag,
                        op.wire_bytes(), op.droppable, states, mailbox,
                        faults, link_seq, ready, trace, obs,
                    )
                    continue

                if cls is Recv:
                    key = (rank, op.source, op.tag)
                    state.pending_recv = (op.source, op.tag, state.clock)
                    if key in mailbox:
                        self._complete_recv(state, mailbox, trace)
                        continue
                    state.blocked = True
                    break

                if cls is Barrier:
                    group = op.group
                    if group is world or not group:
                        # ``ctx.barrier()``: every rank arrives with the
                        # run's one world tuple, so nothing O(P) is
                        # sorted, scanned or hashed per arrival.
                        bkey = (None, op.tag)
                        size = nranks
                    else:
                        group = tuple(sorted(group))
                        if rank not in group:
                            raise ValueError(
                                f"rank {rank} issued barrier for group "
                                f"{group} it does not belong to"
                            )
                        size = len(group)
                        # A hand-built group naming every rank meets the
                        # world barrier of the same tag.
                        if group == world:
                            group = None
                        bkey = (group, op.tag)
                    waiting = barrier_waiting[bkey]
                    waiting.append(rank)
                    if len(waiting) == size:
                        self._release_barrier(
                            bkey, barrier_waiting, states, trace, ready
                        )
                        # This rank was released too; continue running it.
                        continue
                    state.pending_barrier = bkey
                    state.blocked = True
                    break

                raise TypeError(f"rank {rank} yielded unknown op {op!r}")

    # ------------------------------------------------------------------
    def _maybe_fail(self, state: _RankState, fail_pending: Dict[int, Any],
                    obs) -> bool:
        """Fire a pending injected failure if its time has come.

        Returns True when the rank hangs (caller stops driving it);
        raises :class:`RankFailedError` for "stop" mode.  This is the
        only place an injected failure fires: it is checked at every op
        boundary, including each send and each recv inside an Exchange,
        so a failure lands on the same message it would between
        ``Send`` and ``Recv`` ops.
        """
        fault = fail_pending.get(state.rank)
        if fault is None or state.clock < fault.at:
            return False
        del fail_pending[state.rank]
        state.failed = True
        if obs.enabled:
            obs.instant(state.rank, "rank_failure", state.clock,
                        {"mode": fault.mode})
        if fault.mode == "hang":
            state.blocked = True
            return True
        raise RankFailedError(state.rank, state.clock)

    def _advance_exchange(
        self,
        states: List[_RankState],
        mailbox: Dict[Tuple[int, int, int], Deque[Tuple[float, Any, int]]],
        faults,
        link_seq: Dict[Tuple[int, int], int],
        fail_pending: Dict[int, Any],
        ready: CohortQueue,
        trace: Trace,
        obs,
        state: _RankState,
        op: Exchange,
        ex: Optional[_ExchState],
        arrange: Optional[Callable[[List[Any]], Any]],
    ) -> bool:
        """Run ``op`` from round 0 (``ex`` None) or from its cursor until
        it completes (True, its result in ``state.send_value``) or blocks.

        The general interpreter, and the reference the fast one and the
        bulk executor reproduce bit for bit: each round's send and recv
        run through :meth:`_do_send` and :meth:`_complete_recv`, the code
        of the ``Send`` and ``Recv`` ops, so fault plans and timelines
        see every message.  A rank blocked on a round's recv is woken by
        its sender, which delivers into the cursor and re-queues it.
        """
        if ex is None:
            results = None if op.combine is not None else [None] * len(op.recvs)
            ex = state.exch = _ExchState(op, 0, results, op.initial, arrange)
        sends = op.sends
        recvs = op.recvs
        nrounds = len(sends)
        rank = state.rank
        while ex.i < nrounds:
            i = ex.i
            if fail_pending and self._maybe_fail(state, fail_pending, obs):
                return False
            s = sends[i]
            if s is not None:
                dest, payload, tag, nbytes, droppable = s
                if payload is ACCUM:
                    payload = ex.acc
                elif type(payload) is FromRound:
                    payload = ex.results[payload.round]
                wire = (int(nbytes) if nbytes is not None
                        else payload_nbytes(payload))
                self._do_send(
                    rank, state, dest, payload, tag, wire, droppable,
                    states, mailbox, faults, link_seq, ready, trace, obs,
                )
            r = recvs[i]
            if r is None:
                ex.i += 1
                continue
            if fail_pending and self._maybe_fail(state, fail_pending, obs):
                return False
            src, tag = r
            state.pending_recv = (src, tag, state.clock)
            if (rank, src, tag) not in mailbox:
                state.blocked = True
                return False
            # _complete_recv delivers into the cursor (state.exch is
            # set), advancing ex.i past this round.
            self._complete_recv(state, mailbox, trace)
        state.send_value = ex.result()
        state.exch = None
        return True

    def _interpret_fast(
        self,
        states: List[_RankState],
        mailbox: Dict[Tuple[int, int, int], Deque[Tuple[float, Any, int]]],
        ready: CohortQueue,
        acc_ranks: List[RankAccounting],
        prices: _Prices,
        state: _RankState,
        op: Exchange,
        ex: Optional[_ExchState],
        arrange: Optional[Callable[[List[Any]], Any]],
    ) -> bool:
        """:meth:`_advance_exchange` on a perfect machine with the
        timeline off: the *same arithmetic in the same order*, so clocks
        and accounting are bit-identical, with less host work.

        A fresh exchange (``ex`` None) runs straight from the op and gets
        a cursor only when a receive has to wait.  The rank's clock and
        accounting live in locals (written back by the ``finally``), each
        wire size is priced once per run (``prices``), and a send that a
        parked receiver waits for completes that receive in place and
        queues the receiver with its cursor past the round.
        """
        sends = op.sends
        recvs = op.recvs
        nrounds = len(sends)
        combine = op.combine
        if ex is None:
            i = 0
            results = None if combine is not None else [None] * nrounds
            value = op.initial
        else:
            i = ex.i
            results = ex.results
            value = ex.acc
            arrange = ex.arrange
        rank = state.rank
        acc = acc_ranks[rank]
        clock = state.clock
        sbt = acc.send_busy_time
        nsent = acc.messages_sent
        bsent = acc.bytes_sent
        rwt = acc.recv_wait_time
        rbt = acc.recv_busy_time
        nrecv = acc.messages_received
        brecv = acc.bytes_received
        try:
            while i < nrounds:
                s = sends[i]
                if s is not None:
                    dest, payload, tag, nbytes, _droppable = s
                    if payload is ACCUM:
                        payload = value
                    elif type(payload) is FromRound:
                        payload = results[payload.round]
                    if nbytes is not None:
                        wire = int(nbytes)
                    elif type(payload) is np.ndarray:
                        wire = payload.nbytes
                    else:
                        wire = _wire_size(payload)
                    busy, msg_time, recv_busy = prices[wire]
                    arrival = clock + msg_time
                    clock += busy
                    sbt += busy
                    nsent += 1
                    bsent += wire
                    dest_state = states[dest]
                    # Without faults a pending receive means a blocked
                    # rank, and its channel is empty: this message is the
                    # one it waits for.
                    pending = dest_state.pending_recv
                    if (pending is not None and pending[0] == rank
                            and pending[1] == tag):
                        # _complete_recv's arithmetic, in place.
                        dclock = dest_state.clock
                        wait = arrival - dclock
                        if wait < 0.0:
                            wait = 0.0
                        dest_state.clock = dclock + (wait + recv_busy)
                        dacc = acc_ranks[dest]
                        dacc.recv_wait_time += wait
                        dacc.recv_busy_time += recv_busy
                        dacc.messages_received += 1
                        dacc.bytes_received += wire
                        dest_state.pending_recv = None
                        dest_state.blocked = False
                        if dest_state.exch is None:
                            dest_state.send_value = payload
                        else:
                            dest_state.exch.deliver(payload)
                        ready.push(dest_state.clock, dest)
                    else:
                        mailbox[(dest, rank, tag)].append(
                            (arrival, payload, wire)
                        )
                r = recvs[i]
                if r is not None:
                    src, tag = r
                    key = (rank, src, tag)
                    queue = mailbox.get(key)
                    if not queue:
                        if ex is None:
                            ex = state.exch = _ExchState(
                                op, i, results, value, arrange
                            )
                        else:
                            ex.i = i
                            ex.acc = value
                        state.pending_recv = (src, tag, clock)
                        state.blocked = True
                        return False
                    arrival, payload, nbytes = queue.popleft()
                    if not queue:
                        del mailbox[key]
                    wait = arrival - clock
                    if wait < 0.0:
                        wait = 0.0
                    busy = prices[nbytes][2]
                    clock += wait + busy
                    rwt += wait
                    rbt += busy
                    nrecv += 1
                    brecv += nbytes
                    if results is None:
                        value = combine(value, payload, i)
                    else:
                        results[i] = payload
                i += 1
        finally:
            state.clock = clock
            acc.send_busy_time = sbt
            acc.messages_sent = nsent
            acc.bytes_sent = bsent
            acc.recv_wait_time = rwt
            acc.recv_busy_time = rbt
            acc.messages_received = nrecv
            acc.bytes_received = brecv
        if results is None:
            state.send_value = value
        elif arrange is not None:
            state.send_value = arrange(results)
        else:
            state.send_value = results
        state.exch = None
        return True

    def _bulk_alltoall(
        self,
        group: Tuple[int, ...],
        states: List[_RankState],
        ready: "CohortQueue",
        trace: Trace,
    ) -> None:
        """Execute a closed group's pairwise all-to-all in one pass.

        Every member is parked with its :class:`AllToAll`; instead of
        ``G * R`` per-message visits (``R = G - 1`` rounds) the shift
        schedule is known from the structure alone: in round ``r`` member
        ``g`` sends its chunk for ``(g + r + 1) % G`` and receives from
        ``sidx[g, r] = (g - r - 1) % G``.  The wire sizes are taken once,
        as the ``(G, G)`` matrix ``W``, priced in one
        :meth:`MachineModel.batch_message_costs` call (elementwise, so
        bit-identical to pricing message by message).  Round ``r``'s
        receive on every member consumes exactly round ``r``'s send of
        its partner, so the per-round recurrence

        ``arrival = clocks + msg[:, r]``  (sender clock before its busy)
        ``clocks += busy[:, r]``          (sender injection)
        ``wait = max(arrival[sidx[:, r]] - clocks, 0)``
        ``clocks += wait + recv_busy``    (receive completion)

        performs the *same IEEE operations in the same order* as the
        scalar interpreter running :meth:`AllToAll.schedule` on every
        member; accumulator vectors fold one round at a time (not
        ``np.sum``) to keep the float association.  A :class:`Blocks`
        row is priced from its array's shape (other extent x widths x
        itemsize, what the views' ``nbytes`` would be) without cutting a
        view.  When every member sent ``Blocks`` of one axis and bounds
        and asked to join along another, the arrays are concatenated once
        and member ``g`` gets slice ``g`` of that one read-only array,
        which the group shares.  Otherwise member ``g`` receives column
        ``g`` of the chunk lists, transposed in C by ``zip`` (and joined
        on its own if it asked).  Parked members are woken and re-queued
        here; the caller (the last member to arrive) continues inline.
        """
        G = len(group)
        R = G - 1
        machine = self.machine
        members = [states[g] for g in group]
        ops = [s.pending_alltoall for s in members]
        W = np.empty((G, G), dtype=np.int64)
        seen = widths = None
        for g, op in enumerate(ops):
            chunks = op.chunks
            if type(chunks) is Blocks:
                # A block's nbytes from the array's shape: the members of
                # a row share one bounds tuple, so its widths are taken
                # once per row.
                if chunks.bounds is not seen:
                    seen = chunks.bounds
                    widths, stop = _block_widths(seen)
                array = chunks.array
                extent = array.shape[chunks.axis]
                if stop > extent:
                    raise ValueError(
                        f"rank {group[g]} sent Blocks with bounds up to "
                        f"{stop} along axis {chunks.axis} of extent {extent}"
                    )
                W[g] = widths * (array.size // extent * array.itemsize
                                 if extent else 0)
                continue
            # One type test per row: the hot collectives send rows of
            # Python scalars or of arrays.
            kinds = set(map(type, chunks))
            if kinds <= {float, int}:
                W[g] = 8
            elif kinds == {np.ndarray}:
                W[g] = [c.nbytes for c in chunks]
            else:
                W[g] = list(map(_wire_size, chunks))
        rows = np.arange(G)[:, None]
        shift = np.arange(1, G)  # round r + 1
        wire = W[rows, (rows + shift) % G]
        sidx = (rows - shift) % G
        in_wire = W[sidx, rows]
        busy, msg = machine.batch_message_costs(wire)
        # Receive pricing depends only on nbytes: price each distinct
        # wire size once through the machine model.
        recv_busy_time = machine.recv_busy_time
        sizes, inverse = np.unique(in_wire, return_inverse=True)
        rbusy = np.array([recv_busy_time(int(u)) for u in sizes],
                         dtype=np.float64)[inverse.reshape(in_wire.shape)]

        acc_ranks = trace.ranks
        clocks = np.array([s.clock for s in members])
        sbt = np.array([acc_ranks[g].send_busy_time for g in group])
        rwt = np.array([acc_ranks[g].recv_wait_time for g in group])
        rbt = np.array([acc_ranks[g].recv_busy_time for g in group])
        for r in range(R):
            b = busy[:, r]
            arrival = clocks + msg[:, r]
            clocks = clocks + b
            sbt += b
            wait = arrival[sidx[:, r]] - clocks
            np.maximum(wait, 0.0, out=wait)
            rb = rbusy[:, r]
            clocks = clocks + (wait + rb)
            rwt += wait
            rbt += rb
        bsent = wire.sum(axis=1).tolist()
        brecv = in_wire.sum(axis=1).tolist()

        shared = seen is not None and _shared_blocks(ops)
        if shared:
            # Member d's joined blocks are slice d of the joined arrays.
            first = ops[0].chunks
            full = join_received([op.chunks.array for op in ops], ops[0].join)
            lead = first.lead
            results = [full[(*lead, slice(a, b))] for a, b in first.bounds]
        else:
            # Member g receives column g of the chunk lists.
            results = list(zip(*[
                op.chunks.views() if type(op.chunks) is Blocks else op.chunks
                for op in ops
            ]))
        clocks_l = clocks.tolist()
        sbt_l = sbt.tolist()
        rwt_l = rwt.tolist()
        rbt_l = rbt.tolist()
        for gi, g in enumerate(group):
            s = members[gi]
            if shared:
                s.send_value = results[gi]
            elif ops[gi].join is None:
                s.send_value = list(results[gi])
            else:
                s.send_value = join_received(results[gi], ops[gi].join)
            s.pending_alltoall = None
            s.clock = clocks_l[gi]
            acc = acc_ranks[g]
            acc.send_busy_time = sbt_l[gi]
            acc.recv_wait_time = rwt_l[gi]
            acc.recv_busy_time = rbt_l[gi]
            acc.messages_sent += R
            acc.messages_received += R
            acc.bytes_sent += int(bsent[gi])
            acc.bytes_received += int(brecv[gi])
            if s.blocked:
                # Parked member: wake it; the main loop sends it its
                # results on its next visit.
                s.blocked = False
                ready.push(s.clock, g)

    def _do_send(
        self,
        rank: int,
        state: _RankState,
        dest: int,
        payload: Any,
        tag: int,
        wire: int,
        droppable: bool,
        states: List[_RankState],
        mailbox: Dict[Tuple[int, int, int], Deque[Tuple[float, Any, int]]],
        faults,
        link_seq: Dict[Tuple[int, int], int],
        ready: CohortQueue,
        trace: Trace,
        obs,
    ) -> None:
        """Execute one eager send (shared by the Send op and the general
        interpreter's Exchange rounds)."""
        machine = self.machine
        busy = machine.send_busy_time(wire)
        msg_time = machine.message_time(wire)
        arrival = state.clock + msg_time
        if faults is not None and droppable:
            key = (rank, dest)
            seq = link_seq[key]
            link_seq[key] = seq + 1
            delivery = faults.plan_delivery(
                rank, dest, seq, state.clock, msg_time,
            )
            arrival = delivery.arrival
            if delivery.drop_times:
                self._account_retries(
                    trace, rank, dest, wire, busy, delivery, obs,
                )
        mailbox[(dest, rank, tag)].append((arrival, payload, wire))
        if trace.events is not None:
            trace.events.append(_Event(
                rank, "send", state.clock, state.clock + busy,
                peer=dest, nbytes=wire,
            ))
        state.clock += busy
        acc = trace.ranks[rank]
        acc.send_busy_time += busy
        acc.messages_sent += 1
        acc.bytes_sent += wire
        # The destination may have been blocked on this message.
        dest_state = states[dest]
        if dest_state.blocked and dest_state.pending_recv is not None:
            src, rtag, _post = dest_state.pending_recv
            if src == rank and rtag == tag:
                self._complete_recv(dest_state, mailbox, trace)
                ready.push(dest_state.clock, dest)

    # ------------------------------------------------------------------
    @staticmethod
    def _deadlock_error(
        states: List[_RankState],
        barrier_waiting: Dict[_BarrierKey, List[int]],
        exch_waiting: Dict[Tuple[int, ...], List[int]],
    ) -> DeadlockError:
        """Build the per-rank wait graph of a stuck simulation."""
        wait_graph: Dict[int, dict] = {}
        details = []
        for s in states:
            if s.done:
                continue
            r = s.rank
            if s.failed:
                wait_graph[r] = {
                    "kind": "hang", "on": [], "tag": None, "since": s.clock,
                }
                details.append(
                    f"rank {r} failed (hang) at t={s.clock:.6g} s "
                    "and never recovered"
                )
            elif s.pending_recv is not None:
                src, tag, post = s.pending_recv
                wait_graph[r] = {
                    "kind": "recv", "on": [src], "tag": tag, "since": post,
                }
                where = (
                    f" (round {s.exch.i} of a batched exchange)"
                    if s.exch is not None else ""
                )
                details.append(
                    f"rank {r} waiting on rank {src} for "
                    f"recv(tag=0x{tag:08x}){where} since t={post:.6g} s"
                )
            elif s.pending_barrier is not None:
                group, tag = s.pending_barrier
                if group is None:  # the world barrier
                    group = range(len(states))
                arrived = set(barrier_waiting.get(s.pending_barrier, ()))
                missing = [m for m in group if m not in arrived]
                wait_graph[r] = {
                    "kind": "barrier", "on": missing, "tag": tag,
                    "since": s.clock, "group": list(group),
                }
                details.append(
                    f"rank {r} waiting on rank(s) {missing} at "
                    f"barrier(tag=0x{tag:08x}, group={list(group)}) "
                    f"since t={s.clock:.6g} s"
                )
            elif s.pending_alltoall is not None:
                group, tag = s.pending_alltoall.group, s.pending_alltoall.tag
                arrived = set(exch_waiting.get(group, ()))
                missing = [m for m in group if m not in arrived]
                wait_graph[r] = {
                    "kind": "exchange", "on": missing, "tag": tag,
                    "since": s.clock, "group": list(group),
                }
                details.append(
                    f"rank {r} parked for bulk all-to-all members "
                    f"{missing} (tag=0x{tag:08x}, group={list(group)}) "
                    f"since t={s.clock:.6g} s"
                )
            else:
                wait_graph[r] = {
                    "kind": "unknown", "on": [], "tag": None, "since": s.clock,
                }
                details.append(f"rank {r} blocked for an unknown reason")
        return DeadlockError(
            "communication deadlock; wait graph:\n  " + "\n  ".join(details),
            wait_graph,
        )

    def _complete_recv(
        self,
        state: _RankState,
        mailbox: Dict[Tuple[int, int, int], Deque[Tuple[float, Any, int]]],
        trace: Trace,
    ) -> None:
        """Deliver the head-of-queue message to a rank whose recv can finish.

        For a rank blocked inside an Exchange the payload is delivered
        into the interpreter cursor (advancing it past the round) instead
        of being staged for the generator — the main loop resumes the
        interpretation when the rank's queue entry comes up.
        """
        src, tag, post_time = state.pending_recv  # type: ignore[misc]
        key = (state.rank, src, tag)
        queue = mailbox[key]
        arrival, payload, nbytes = queue.popleft()
        if not queue:
            del mailbox[key]
        wait = max(0.0, arrival - state.clock)
        busy = self.machine.recv_busy_time(nbytes)
        if trace.events is not None:
            if wait > 0:
                trace.events.append(_Event(
                    state.rank, "recv_wait", state.clock,
                    state.clock + wait, peer=src,
                ))
            trace.events.append(_Event(
                state.rank, "recv", state.clock + wait,
                state.clock + wait + busy, peer=src, nbytes=nbytes,
            ))
        state.clock += wait + busy
        acc = trace.ranks[state.rank]
        acc.recv_wait_time += wait
        acc.recv_busy_time += busy
        acc.messages_received += 1
        acc.bytes_received += nbytes
        state.pending_recv = None
        state.blocked = False
        ex = state.exch
        if ex is not None:
            ex.deliver(payload)
        else:
            state.send_value = payload

    def _account_retries(
        self,
        trace: Trace,
        rank: int,
        dest: int,
        nbytes: int,
        busy: float,
        delivery,
        obs=NULL_OBSERVER,
    ) -> None:
        """Account a faulted message's retransmissions in the trace.

        Retransmits are transport-layer: they never advance the sender's
        program clock (so the clock-identity invariant is unaffected) but
        each one is nbytes-accounted and visible as a ``"retry"`` phase /
        timeline event.  Every failed attempt counts as one drop and one
        retransmission — the conservation identity is
        ``sent + retransmitted == received + dropped``.
        """
        ndrops = len(delivery.drop_times)
        acc = trace.ranks[rank]
        acc.messages_dropped += ndrops
        acc.bytes_dropped += ndrops * nbytes
        acc.messages_retransmitted += ndrops
        acc.bytes_retransmitted += ndrops * nbytes
        # Attempt 0 is the original send (charged normally); the
        # retransmissions are attempts 1..ndrops, injected at the failed
        # attempts' timeout expiries plus the final successful attempt.
        retry_times = list(delivery.drop_times[1:]) + [delivery.inject_time]
        for t_retry in retry_times:
            trace.add_phase_time("retry", rank, busy)
            if trace.events is not None:
                trace.events.append(_Event(
                    rank, "retry", t_retry, t_retry + busy,
                    peer=dest, nbytes=nbytes,
                ))
            if obs.enabled:
                obs.instant(rank, "retry", t_retry,
                            {"peer": dest, "nbytes": nbytes})

    def _release_barrier(
        self,
        bkey: _BarrierKey,
        barrier_waiting: Dict[_BarrierKey, List[int]],
        states: List[_RankState],
        trace: Trace,
        ready: CohortQueue,
    ) -> None:
        """Advance all members of a completed barrier and unblock them.

        The released members share one clock, so they land in the ready
        queue as a single cohort — the whole mesh dispatches together on
        the next queue visit.
        """
        # Complete means every member arrived: ``members`` is the group.
        members = barrier_waiting.pop(bkey)
        size = len(members)
        release = max(states[r].clock for r in members)
        cost = (
            math.ceil(math.log2(size)) * self.machine.latency
            if size > 1 else 0.0
        )
        for r in members:
            s = states[r]
            wait = release - s.clock
            if trace.events is not None and wait + cost > 0:
                trace.events.append(_Event(
                    r, "barrier", s.clock, release + cost,
                ))
            s.clock = release + cost
            trace.ranks[r].barrier_wait_time += wait + cost
            if s.pending_barrier is not None:
                s.pending_barrier = None
                s.blocked = False
                s.send_value = None
                ready.push(s.clock, r)
        # The rank that completed the barrier in-line is handled by caller.
