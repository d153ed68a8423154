"""Frame codec: round trips, rejection paths, and a real socket echo."""

from __future__ import annotations

import os
import socket
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.fleet.frames import (
    DEFAULT_MAX_BYTES,
    HEADER,
    KINDS,
    MAGIC,
    FrameDecoder,
    FrameError,
    decode_frame,
    encode_frame,
)

# -- basic round trips --------------------------------------------------


def test_every_kind_round_trips():
    for kind in KINDS:
        payload = {"kind": kind, "n": 3}
        blob = encode_frame(kind, payload)
        got_kind, got_payload, consumed = decode_frame(blob)
        assert got_kind == kind
        assert got_payload == payload
        assert consumed == len(blob)


def test_unknown_kind_rejected():
    with pytest.raises(FrameError, match="unknown frame kind"):
        encode_frame("telegram", {})


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=10,
)


@settings(max_examples=60, deadline=None)
@given(payload=st.dictionaries(st.text(max_size=12), _JSON_VALUES,
                               max_size=5))
def test_json_params_dict_round_trips(payload):
    # Control frames (hello/welcome/heartbeat) carry params-style dicts.
    blob = encode_frame("hello", payload)
    kind, got, consumed = decode_frame(blob)
    assert kind == "hello"
    assert got == payload
    assert consumed == len(blob)


@settings(max_examples=30, deadline=None)
@given(
    arr=arrays(
        dtype=st.sampled_from([np.float64, np.float32, np.int64,
                               np.complex128]),
        shape=st.tuples(st.integers(0, 8), st.integers(0, 5)),
        elements=st.just(0),
        fill=st.nothing(),
    ).map(lambda a: a + np.arange(a.size, dtype=a.dtype.char
                                  ).reshape(a.shape)),
    label=st.text(max_size=16),
)
def test_pickled_numpy_payload_round_trips(arr, label):
    # Assign/result frames carry numpy-laden campaign objects via pickle.
    payload = {"label": label, "value": arr, "meta": {"shape": arr.shape}}
    kind, got, _ = decode_frame(encode_frame("result", payload))
    assert kind == "result"
    assert got["label"] == label
    assert got["meta"] == {"shape": arr.shape}
    assert got["value"].dtype == arr.dtype
    assert np.array_equal(got["value"], arr)


# -- rejection: truncation, size, magic ---------------------------------


def test_truncated_header_is_actionable():
    with pytest.raises(FrameError, match="header needs"):
        decode_frame(b"RF")


def test_truncated_payload_names_byte_counts():
    blob = encode_frame("hello", {"worker": 1})
    with pytest.raises(FrameError, match=r"promises \d+ bytes"):
        decode_frame(blob[:-3])


def test_bad_magic_names_protocol():
    blob = b"XXXX" + encode_frame("hello", {})[4:]
    with pytest.raises(FrameError, match="bad magic"):
        decode_frame(blob)


def test_oversized_encode_rejected_with_limit():
    with pytest.raises(FrameError, match="exceeds the 64-byte"):
        encode_frame("hello", {"pad": "x" * 128}, max_bytes=64)


def test_oversized_decode_rejected_before_buffering():
    # A hostile length field must fail on the header alone.
    header = HEADER.pack(MAGIC, 0, 0, DEFAULT_MAX_BYTES + 1)
    with pytest.raises(FrameError, match="refusing to buffer"):
        decode_frame(header)


def test_decoder_rejects_oversized_without_payload():
    dec = FrameDecoder(max_bytes=1024)
    dec.feed(HEADER.pack(MAGIC, 0, 0, 1 << 30))
    with pytest.raises(FrameError, match="frame limit"):
        list(dec.frames())


# -- incremental decoding -----------------------------------------------


def test_decoder_reassembles_byte_by_byte():
    frames = [("hello", {"worker": i}) for i in range(3)]
    stream = b"".join(encode_frame(k, p) for k, p in frames)
    dec = FrameDecoder()
    got = []
    for i in range(len(stream)):
        dec.feed(stream[i:i + 1])
        got.extend(dec.frames())
    assert got == frames
    assert len(dec._buf) == 0


def test_decoder_keeps_partial_frame_buffered():
    blob = encode_frame("heartbeat", {"busy": True})
    dec = FrameDecoder()
    dec.feed(blob[:-1])
    assert list(dec.frames()) == []
    assert len(dec._buf) == len(blob) - 1
    dec.feed(blob[-1:])
    assert list(dec.frames()) == [("heartbeat", {"busy": True})]


# -- two-process socket echo --------------------------------------------


def _src_path() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(os.path.dirname(os.path.dirname(here)), "src")


def test_echo_server_round_trips_frames_over_tcp():
    """Frames survive a real encode/send/recv/decode trip across
    processes: ``python -m repro fleet echo`` reflects them verbatim."""
    from repro.fleet.frames import read_frame, send_frame

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "fleet", "echo",
         "--listen", "127.0.0.1:0", "--once"],
        env={**os.environ, "PYTHONPATH": _src_path()},
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        line = proc.stdout.readline().strip()
        assert line.startswith("echo listening on "), line
        host, _, port = line[len("echo listening on "):].rpartition(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            messages = [
                ("hello", {"name": "w0", "pid": 123}),
                ("result", {"value": np.arange(12.0).reshape(3, 4)}),
                ("goodbye", {"reason": "done"}),
            ]
            for kind, payload in messages:
                send_frame(sock, kind, payload)
                got_kind, got = read_frame(sock, timeout=10)
                assert got_kind == kind
                if kind == "result":
                    assert np.array_equal(got["value"], payload["value"])
                else:
                    assert got == payload
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
