"""Tests for the analytic communication/computation cost formulas."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.parallel import GENERIC, Simulator, available_machines, make_machine
from repro.parallel.costs import (
    batch_message_costs,
    convolution_flops,
    fft_filter_flops,
    halo_exchange_estimate,
    pairwise_alltoall_estimate,
    ring_allgather_estimate,
    tree_reduce_bcast_estimate,
)


class TestKernelFlops:
    def test_convolution_quadratic(self):
        assert convolution_flops(100, 50) == 2 * 100 * 50

    def test_fft_n_log_n(self):
        f1 = fft_filter_flops(128)
        f2 = fft_filter_flops(256)
        # doubling N slightly more than doubles the cost
        assert 2.0 < f2 / f1 < 2.4

    def test_fft_trivial_line(self):
        assert fft_filter_flops(1) == 0.0

    def test_convolution_beats_fft_asymptotically(self):
        n = 1024
        assert convolution_flops(n, n // 2) > fft_filter_flops(n)


class TestCommEstimates:
    def test_ring_matches_simulation(self):
        """The analytic ring estimate matches emergent simulator counts."""
        nranks, nbytes = 6, 256

        def program(ctx):
            import numpy as np

            yield from ctx.allgather(np.zeros(nbytes // 8))

        res = Simulator(nranks, GENERIC).run(program)
        est = ring_allgather_estimate(nbytes, nranks, GENERIC)
        assert res.trace.total_messages() == est.messages
        assert res.trace.total_bytes() == est.volume_bytes

    def test_tree_message_count(self):
        est = tree_reduce_bcast_estimate(100, 8, GENERIC)
        assert est.messages == 2 * 7

    def test_tree_single_rank_free(self):
        est = tree_reduce_bcast_estimate(100, 1, GENERIC)
        assert est.time == 0.0 and est.messages == 0

    def test_pairwise_alltoall_counts(self):
        est = pairwise_alltoall_estimate(1000, 5, GENERIC)
        assert est.messages == 5 * 4

    def test_halo_four_messages(self):
        est = halo_exchange_estimate(100, 200, GENERIC)
        assert est.messages == 4
        assert est.volume_bytes == 600

    def test_ring_time_grows_with_ranks(self):
        t4 = ring_allgather_estimate(100, 4, GENERIC).time
        t8 = ring_allgather_estimate(100, 8, GENERIC).time
        assert t8 > t4


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
        busy, msg = batch_message_costs(machine, wires)
        assert busy.tolist() == [machine.send_busy_time(w) for w in wires]
        assert msg.tolist() == [machine.message_time(w) for w in wires]

    @pytest.mark.parametrize("name", available_machines())
    def test_matrix_equals_row_by_row_pricing(self, name):
        """The bulk all-to-all prices a (members, rounds) int matrix in
        one call; that is each row priced on its own, with ``==``."""
        machine = make_machine(name)
        rows = [_EDGE_SIZES[i:] + _EDGE_SIZES[:i] for i in range(5)]
        busy, msg = batch_message_costs(
            machine, np.array(rows, dtype=np.int64)
        )
        for i, row in enumerate(rows):
            row_busy, row_msg = batch_message_costs(machine, row)
            assert busy[i].tolist() == row_busy.tolist()
            assert msg[i].tolist() == row_msg.tolist()
