"""Tests for the batched postal-model pricing of message blocks and the
message counts of the ring allgather."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.parallel import GENERIC, Simulator, available_machines, make_machine


# Sizes where a divide-then-add could round differently if the batched
# pricing reassociated anything: empty and one-byte messages, powers of
# two (packet and page boundaries) and their neighbours, and >= 1 MB.
_EDGE_SIZES = [0, 1] + [
    (1 << k) + d for k in (3, 6, 10, 12, 16, 20, 24) for d in (-1, 0, 1)
]
_WIRE_SIZES = st.lists(
    st.one_of(
        st.sampled_from(_EDGE_SIZES),
        st.integers(min_value=0, max_value=1 << 26),
    ),
    min_size=1, max_size=40,
)


class TestBatchMessageCosts:
    @pytest.mark.parametrize("name", available_machines())
    @given(wires=_WIRE_SIZES)
    @example(wires=_EDGE_SIZES)
    @settings(max_examples=60, deadline=None)
    def test_equals_scalar_pricing_bit_for_bit(self, name, wires):
        """The one-pass NumPy pricing of an Exchange's rounds is the
        scalar pricing of each message: ``==`` on floats, not approx."""
        machine = make_machine(name)
        busy, msg = machine.batch_message_costs(wires)
        assert busy.tolist() == [machine.send_busy_time(w) for w in wires]
        assert msg.tolist() == [machine.message_time(w) for w in wires]

    @pytest.mark.parametrize("name", available_machines())
    def test_matrix_equals_row_by_row_pricing(self, name):
        """The bulk all-to-all prices a (members, rounds) int matrix in
        one call; that is each row priced on its own, with ``==``."""
        machine = make_machine(name)
        rows = [_EDGE_SIZES[i:] + _EDGE_SIZES[:i] for i in range(5)]
        busy, msg = machine.batch_message_costs(
            np.array(rows, dtype=np.int64)
        )
        for i, row in enumerate(rows):
            row_busy, row_msg = machine.batch_message_costs(row)
            assert busy[i].tolist() == row_busy.tolist()
            assert msg[i].tolist() == row_msg.tolist()


class TestCommEstimates:
    def test_ring_matches_simulation(self):
        """The ring allgather's closed form -- ``P (P-1)`` messages of one
        rank's block each, over ``P-1`` rounds of one message time --
        matches the counts and time the simulator produces."""
        nranks, nbytes = 6, 256

        def program(ctx):
            yield from ctx.allgather(np.zeros(nbytes // 8))

        res = Simulator(nranks, GENERIC).run(program)
        rounds = nranks - 1
        assert res.trace.total_messages() == nranks * rounds
        assert res.trace.total_bytes() == nranks * rounds * nbytes
        assert res.elapsed >= rounds * GENERIC.message_time(nbytes) * (1 - 1e-12)
