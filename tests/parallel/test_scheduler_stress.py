"""Stress and property tests of the discrete-event scheduler.

Randomised SPMD programs that are deadlock-free by construction, checked
for determinism, message conservation and clock sanity — the invariants
everything else in the package leans on.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.parallel import (
    ACCUM, GENERIC, PARAGON, Compute, Exchange, FromRound, Recv, Send,
    Simulator,
)
from repro.parallel.scheduler import _BULK_MIN_MSGS


def _random_program_factory(seed: int, nrounds: int):
    """An SPMD program of random neighbour exchanges and collectives.

    Every rank derives the same schedule from the shared seed, so all
    collectives match up and every send has a posted receive.
    """

    def program(ctx):
        rng = np.random.default_rng(seed)
        total = 0.0
        for round_idx in range(nrounds):
            op = rng.integers(0, 4)
            shift = int(rng.integers(1, max(2, ctx.size)))
            nelem = int(rng.integers(1, 64))
            if op == 0:
                yield from ctx.compute(seconds=1e-4 * ((ctx.rank + round_idx) % 3))
            elif op == 1 and ctx.size > 1:
                dest = (ctx.rank + shift) % ctx.size
                src = (ctx.rank - shift) % ctx.size
                got = yield from ctx.sendrecv(
                    dest=dest,
                    payload=np.full(nelem, float(ctx.rank)),
                    source=src,
                    tag=round_idx,
                )
                total += float(got.sum())
            elif op == 2:
                value = yield from ctx.allreduce(float(ctx.rank))
                total += value
            else:
                yield from ctx.barrier(tag=round_idx)
        return total

    return program


class TestRandomPrograms:
    @given(
        seed=st.integers(0, 10_000),
        nranks=st.integers(1, 9),
        nrounds=st.integers(1, 12),
    )
    @settings(max_examples=25, deadline=None)
    def test_runs_to_completion_deterministically(self, seed, nranks, nrounds):
        program = _random_program_factory(seed, nrounds)
        r1 = Simulator(nranks, GENERIC).run(program)
        r2 = Simulator(nranks, GENERIC).run(program)
        assert r1.clocks == r2.clocks
        assert r1.returns == r2.returns
        assert r1.trace.total_messages() == r2.trace.total_messages()

    @given(seed=st.integers(0, 10_000), nranks=st.integers(2, 8))
    @settings(max_examples=20, deadline=None)
    def test_message_conservation(self, seed, nranks):
        program = _random_program_factory(seed, 8)
        res = Simulator(nranks, GENERIC).run(program)
        sent = sum(r.messages_sent for r in res.trace.ranks)
        received = sum(r.messages_received for r in res.trace.ranks)
        assert sent == received
        assert sum(r.bytes_sent for r in res.trace.ranks) == sum(
            r.bytes_received for r in res.trace.ranks
        )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_clocks_monotone_and_elapsed_is_max(self, seed):
        program = _random_program_factory(seed, 10)
        res = Simulator(5, GENERIC).run(program)
        assert all(c >= 0 for c in res.clocks)
        assert res.elapsed == max(res.clocks)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_machine_scales_but_preserves_results(self, seed):
        """A slower machine changes clocks, never data."""
        program = _random_program_factory(seed, 6)
        fast = Simulator(4, GENERIC).run(program)
        slow = Simulator(4, PARAGON).run(program)
        assert fast.returns == slow.returns
        assert slow.elapsed >= fast.elapsed


class TestScale:
    def test_many_ranks(self):
        """240 virtual ranks (the paper's production size) stay cheap."""

        def program(ctx):
            yield from ctx.compute(seconds=1e-6 * ctx.rank)
            total = yield from ctx.allreduce(1)
            return total

        res = Simulator(240, GENERIC).run(program)
        assert res.returns == [240] * 240

    def test_deep_message_chains(self):
        """A long sequential pipeline exercises the ready-heap path."""

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, 0)
                final = yield from ctx.recv(ctx.size - 1)
                return final
            token = yield from ctx.recv(ctx.rank - 1)
            token += ctx.rank
            yield from ctx.send((ctx.rank + 1) % ctx.size, token)
            return token

        res = Simulator(30, GENERIC).run(program)
        assert res.returns[0] == sum(range(30))


# ----------------------------------------------------------------------
# the fast Exchange interpreter against the general one
# ----------------------------------------------------------------------

def _payload(rank, step, j):
    """A rank-dependent payload: arrays of 1-4 values, or every third
    one a Python float or a small tuple (``payload_nbytes``'s paths)."""
    k = rank + step + j
    if k % 3 == 0:
        return (float(k), (float(rank), float(j)))[k // 3 % 2]
    return np.arange(k % 4 + 1, dtype=np.float64) + rank


def _fold(acc, received, i):
    return 0.5 * acc + received + i


def _step_kinds(seed: int, nsteps: int):
    """What each step of ``_raw_exchange_program_factory(seed, nsteps)``
    does (0-5, see there)."""
    return np.random.default_rng(seed).integers(0, 6, nsteps).tolist()


def _raw_exchange_program_factory(seed: int, nsteps: int):
    """Raw ``Exchange`` ops (and ``Send``/``Recv`` around them) drawn
    from a seed every rank shares: each step's sends all run before any
    receive can wait on another rank's later step, so the program is
    deadlock-free by construction.  Compute of rank-dependent length
    between steps makes some receives wait and others find their
    message queued."""

    def program(ctx):
        rng = np.random.default_rng(seed + 1)
        me, size = ctx.rank, ctx.size
        got = []
        for step, kind in enumerate(_step_kinds(seed, nsteps)):
            k = int(rng.integers(1, 4))
            shift = int(rng.integers(0, size))  # 0 is a self-send
            dest, src = (me + shift) % size, (me - shift) % size
            tag = 0x100 + step
            yield Compute(seconds=1e-5 * ((3 * me + step) % 4))
            if kind == 0:
                # A FromRound chain: forward what the last round brought.
                sends = ((dest, _payload(me, step, 0), tag, None, True),) + \
                    tuple((dest, FromRound(j), tag, None, True)
                          for j in range(k - 1))
                got.append((yield Exchange(sends, ((src, tag),) * k)))
            elif kind == 1:
                # A combining exchange sending its running accumulator.
                got.append((yield Exchange(
                    ((dest, ACCUM, tag, None, True),) * k,
                    ((src, tag),) * k, _fold, float(me),
                )))
            elif kind == 2:
                # All sends, then all receives, each side None-padded;
                # the repeated first shift puts two messages queued on
                # one channel, and a drawn nbytes prices one cost-only.
                shifts = [int(rng.integers(0, size)) for _ in range(k)]
                shifts.append(shifts[0])
                nbytes = [None] * len(shifts)
                nbytes[-1] = int(rng.integers(0, 200))
                sends = tuple(
                    ((me + s) % size, _payload(me, step, j), tag, nb, True)
                    for j, (s, nb) in enumerate(zip(shifts, nbytes))
                )
                recvs = tuple(((me - s) % size, tag) for s in shifts)
                pad = (None,) * len(shifts)
                got.append((yield Exchange(sends + pad, pad + recvs)))
            elif kind == 3:
                got.append((yield from ctx.alltoall(
                    [_payload(me, step, d) for d in range(size)]
                )))
            elif kind == 4:
                # Send/Recv ops waking, and woken by, exchange rounds.
                yield Send(dest, _payload(me, step, 0), tag)
                got.append((yield Exchange((None,), ((src, tag),))))
                yield Exchange(((dest, _payload(me, step, 1), tag + 0x1000,
                                 None, True),), (None,))
                got.append((yield Recv(src, tag + 0x1000)))
            else:
                got.append((yield from ctx.sendrecv(
                    dest=dest, payload=_payload(me, step, 0), source=src,
                    tag=tag,
                )))
        return got

    return program


def _canonical(value):
    """A value's type and bits, recursively (arrays by dtype and bytes)."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_canonical(v) for v in value])
    return (type(value).__name__, value)


_ACCOUNTING = ("send_busy_time", "recv_busy_time", "recv_wait_time",
               "messages_sent", "bytes_sent", "messages_received",
               "bytes_received")


class TestFastInterpreterMatchesGeneral:
    """Random raw-``Exchange`` schedules give identical returns, clocks
    and accounting on the fast interpreter (and the bulk executor, from
    24 ranks up) and on the general per-message one, which a timeline
    forces."""

    @given(
        seed=st.integers(0, 10_000),
        nranks=st.sampled_from([1, 2, 3, 5, 8, 24]),
        nsteps=st.integers(1, 10),
    )
    @example(seed=1, nranks=5, nsteps=10)
    @example(seed=1, nranks=24, nsteps=10)
    @settings(max_examples=30, deadline=None)
    def test_same_bits(self, seed, nranks, nsteps):
        program = _raw_exchange_program_factory(seed, nsteps)
        fast = Simulator(nranks, PARAGON).run(program)
        general = Simulator(nranks, PARAGON, record_events=True).run(program)
        assert _canonical(fast.returns) == _canonical(general.returns)
        assert fast.clocks == general.clocks
        for a, b in zip(fast.trace.ranks, general.trace.ranks):
            for name in _ACCOUNTING:
                assert getattr(a, name) == getattr(b, name), name

    def test_examples_cover_every_step_kind_and_both_alltoall_regimes(self):
        """The pinned examples draw every step kind, ``ctx.alltoall``
        among them, at 5 ranks (below ``_BULK_MIN_MSGS``: interpreted)
        and at 24 (bulk)."""
        assert sorted(set(_step_kinds(1, 10))) == list(range(6))
        assert 5 * 4 < _BULK_MIN_MSGS <= 24 * 23
