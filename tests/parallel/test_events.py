"""Tests for event primitives and payload sizing."""

import numpy as np
import pytest

from repro.parallel.events import Barrier, Compute, Recv, Send, payload_nbytes
from repro.parallel.scheduler import _wire_size


class TestPayloadNbytes:
    def test_numpy_exact(self):
        assert payload_nbytes(np.zeros(10)) == 80
        assert payload_nbytes(np.zeros((3, 4), dtype=np.float32)) == 48

    def test_bytes(self):
        assert payload_nbytes(b"abcd") == 4

    def test_scalars(self):
        assert payload_nbytes(3) == 8
        assert payload_nbytes(2.5) == 8
        assert payload_nbytes(None) == 8

    def test_numeric_tuple(self):
        assert payload_nbytes((1, 2.0, 3)) == 24

    def test_generic_object_pickled(self):
        n = payload_nbytes({"key": [1, 2, 3]})
        assert n > 8

    def test_dict_of_arrays_counts_data(self):
        small = payload_nbytes({"a": np.zeros(1)})
        big = payload_nbytes({"a": np.zeros(1000)})
        assert big - small > 7000  # array bytes dominate


class TestSchedulerWireSize:
    """The scheduler's one sizing function is ``payload_nbytes``."""

    @pytest.mark.parametrize("payload", [
        np.zeros(5),
        np.zeros((3, 4), dtype=np.float32),
        np.arange(7, dtype=np.int16),
        np.array(2.5),
        np.float64(1.5),
        True,
        3,
        2.5,
        b"abcdef",
        (1.0, 2.0, 3.0),
        {"key": [1, 2, 3]},
    ], ids=lambda p: type(p).__name__)
    def test_equals_payload_nbytes(self, payload):
        assert _wire_size(payload) == payload_nbytes(payload)


class TestSendWireBytes:
    def test_payload_sized(self):
        assert Send(0, payload=np.zeros(4)).wire_bytes() == 32

    def test_override(self):
        assert Send(0, payload=np.zeros(4), nbytes=5).wire_bytes() == 5


class TestDefaults:
    def test_compute_defaults(self):
        op = Compute()
        assert op.flops == 0.0 and op.seconds is None

    def test_recv_defaults(self):
        assert Recv(3).tag == 0

    def test_barrier_defaults(self):
        assert Barrier().group == ()
