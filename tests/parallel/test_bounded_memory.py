"""The engine's memory follows the messages in flight, not the run's past.

A mailbox channel is keyed ``(dest, source, tag)``.  A program whose
tag changes every round (the benchmark's point-to-point ring does this)
touches a new channel per message, so an engine that kept drained
channels would grow with every message ever sent.
"""

import tracemalloc

import numpy as np
import pytest

from repro.parallel import GENERIC, Simulator
from repro.verify.pairs import _engine_probe_program


def _tagged_ring(ctx, rounds):
    right = (ctx.rank + 1) % ctx.size
    left = (ctx.rank - 1) % ctx.size
    value = float(ctx.rank)
    for i in range(rounds):
        value = yield from ctx.sendrecv(dest=right, payload=value,
                                        source=left, tag=i)
    return value


def _traced_peak(rounds: int) -> int:
    sim = Simulator(64, GENERIC)
    tracemalloc.start()
    try:
        sim.run(_tagged_ring, rounds)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tagged_ring_peak_does_not_grow_with_the_rounds():
    short, long = _traced_peak(20), _traced_peak(200)
    assert long <= 1 << 20, f"200 rounds peaked at {long / 1e6:.2f} MB"
    assert long <= 3 * short, (
        f"200 rounds peaked at {long / 1e6:.2f} MB, "
        f"20 rounds at {short / 1e6:.2f} MB"
    )


@pytest.fixture
def mailboxes(monkeypatch):
    """Every mailbox ``Simulator.run`` hands its event loop."""
    seen = []
    loop = Simulator._event_loop

    def spy(self, states, world, mailbox, *rest):
        seen.append(mailbox)
        return loop(self, states, world, mailbox, *rest)

    monkeypatch.setattr(Simulator, "_event_loop", spy)
    return seen


#: p = 2 and 12 interpret every exchange message by message; p = 26 runs
#: its all-to-all through the bulk executor.
#: A timeline sends the exchanges through the general interpreter.
@pytest.mark.parametrize("record_events", [False, True])
@pytest.mark.parametrize("p", [2, 12, 26])
def test_collective_mix_leaves_no_channel_behind(mailboxes, p, record_events):
    data = np.random.default_rng(p).standard_normal((p, 4))
    res = Simulator(p, GENERIC, record_events=record_events).run(
        _engine_probe_program, data)
    assert sum(a.messages_received for a in res.trace.ranks) > 0
    (mailbox,) = mailboxes
    assert not mailbox, (
        f"{len(mailbox)} channel(s) left, e.g. {next(iter(mailbox))}")
