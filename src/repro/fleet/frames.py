"""Length-prefixed frame codec for the fleet transport.

Every message between the campaign coordinator and a fleet worker is one
*frame* on a TCP stream::

    +------+------+-------+----------+----------------+
    | RFL1 | kind | codec | length   | payload        |
    | 4 B  | 1 B  | 1 B   | 4 B (BE) | length bytes   |
    +------+------+-------+----------+----------------+

``kind`` names the message (:data:`KINDS`); ``codec`` records how the
payload is encoded — JSON for control traffic (hello, heartbeats,
shutdown), pickle for data traffic (work units and outcomes, which are
numpy-laden Python objects the cache already stores pickled).  The
length prefix makes framing trivial and lets a receiver reject an
oversized frame *before* buffering it: a corrupt or hostile length
field fails fast with an actionable error instead of ballooning memory.

Security note: pickle payloads execute arbitrary code on decode.  The
fleet transport is a trusted-cluster protocol — the same trust boundary
as a campaign's forked local workers, which speak it over a
``socketpair`` — and must not be exposed to untrusted networks (see
``docs/fleet.md``).
"""

from __future__ import annotations

import io
import json
import pickle
import socket
import struct
import threading
from typing import Any, Iterator, Optional, Tuple

__all__ = [
    "FrameError",
    "FrameDecoder",
    "FrameStream",
    "KINDS",
    "decode_frame",
    "encode_frame",
    "read_frame",
    "send_frame",
]

MAGIC = b"RFL1"
HEADER = struct.Struct(">4sBBI")  # magic, kind, codec, payload length

#: Default ceiling on one frame's payload (64 MiB).  Campaign results
#: are typically kilobytes; anything near this limit is a bug or an
#: attack, not a workload.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024

#: Registered frame kinds.  Control kinds carry JSON payloads; ASSIGN
#: and RESULT carry pickled campaign objects.
KINDS = (
    "hello",       # worker -> coordinator: name, host, pid, cache_dir
    "welcome",     # coordinator -> worker: worker id + run knobs
    "assign",      # coordinator -> worker: one CampaignUnit + attempt
    "result",      # worker -> coordinator: one UnitOutcome
    "heartbeat",   # worker -> coordinator: liveness + busy state
    "shutdown",    # coordinator -> worker: campaign over, exit cleanly
    "goodbye",     # worker -> coordinator: voluntary clean departure
)
_KIND_CODE = {name: i for i, name in enumerate(KINDS)}

_CODEC_JSON = 0
_CODEC_PICKLE = 1

#: Kinds whose payloads are pickled Python objects rather than JSON.
PICKLED_KINDS = frozenset({"assign", "result"})


class FrameError(ValueError):
    """A frame could not be encoded or decoded.

    The message always says *what* was wrong (bad magic, truncation,
    size) and, for truncation, how many bytes were promised vs present.
    """


def encode_frame(kind: str, payload: Any = None, *,
                 max_bytes: int = DEFAULT_MAX_BYTES) -> bytes:
    """One wire-ready frame for ``payload`` under ``kind``."""
    try:
        code = _KIND_CODE[kind]
    except KeyError:
        raise FrameError(
            f"unknown frame kind {kind!r}; expected one of {KINDS}"
        ) from None
    if kind in PICKLED_KINDS:
        codec = _CODEC_PICKLE
        body = pickle.dumps(payload, protocol=4)
    else:
        codec = _CODEC_JSON
        body = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
    if len(body) > max_bytes:
        raise FrameError(
            f"{kind} frame payload of {len(body)} bytes exceeds the "
            f"{max_bytes}-byte frame limit"
        )
    return HEADER.pack(MAGIC, code, codec, len(body)) + body


def decode_frame(data: bytes, *,
                 max_bytes: int = DEFAULT_MAX_BYTES
                 ) -> Tuple[str, Any, int]:
    """Decode the frame at the head of ``data``.

    Returns ``(kind, payload, consumed_bytes)``.  Raises
    :class:`FrameError` on a bad magic, an unknown kind or codec, an
    oversized length field, or a truncated buffer — each with an error
    message naming the problem and the byte counts involved.
    """
    if len(data) < HEADER.size:
        raise FrameError(
            f"truncated frame: header needs {HEADER.size} bytes, "
            f"got {len(data)}"
        )
    magic, code, codec, length = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FrameError(
            f"not a fleet frame: bad magic {magic!r} "
            f"(expected {MAGIC!r}; is the peer speaking this protocol?)"
        )
    if code >= len(KINDS):
        raise FrameError(f"unknown frame kind code {code}")
    if length > max_bytes:
        raise FrameError(
            f"frame payload of {length} bytes exceeds the "
            f"{max_bytes}-byte frame limit (refusing to buffer it)"
        )
    end = HEADER.size + length
    if len(data) < end:
        raise FrameError(
            f"truncated frame: payload promises {length} bytes, "
            f"only {len(data) - HEADER.size} present"
        )
    body = bytes(data[HEADER.size:end])
    kind = KINDS[code]
    try:
        if codec == _CODEC_JSON:
            payload = json.loads(body.decode("utf-8"))
        elif codec == _CODEC_PICKLE:
            payload = pickle.loads(body)
        else:
            raise FrameError(f"unknown payload codec {codec}")
    except FrameError:
        raise
    except Exception as exc:
        raise FrameError(
            f"undecodable {kind} frame payload: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    return kind, payload, end


class FrameDecoder:
    """Incremental decoder for a stream of frames.

    Feed raw socket bytes in with :meth:`feed`; complete frames come out
    of :meth:`frames`.  Partial frames stay buffered (that is normal
    streaming, not an error); a malformed header raises
    :class:`FrameError` immediately.
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        self.max_bytes = max_bytes
        self._buf = bytearray()

    def feed(self, data: bytes) -> None:
        self._buf.extend(data)

    def frames(self) -> Iterator[Tuple[str, Any]]:
        """Yield every complete frame currently buffered."""
        while len(self._buf) >= HEADER.size:
            magic, code, codec, length = HEADER.unpack_from(self._buf)
            if magic != MAGIC:
                raise FrameError(
                    f"not a fleet frame: bad magic {magic!r} "
                    f"(expected {MAGIC!r})"
                )
            if length > self.max_bytes:
                raise FrameError(
                    f"frame payload of {length} bytes exceeds the "
                    f"{self.max_bytes}-byte frame limit"
                )
            if len(self._buf) < HEADER.size + length:
                return  # incomplete; wait for more bytes
            kind, payload, consumed = decode_frame(
                bytes(self._buf), max_bytes=self.max_bytes
            )
            del self._buf[:consumed]
            yield kind, payload


def send_frame(sock: socket.socket, kind: str, payload: Any = None, *,
               max_bytes: int = DEFAULT_MAX_BYTES) -> None:
    """Encode and send one frame on a (blocking) socket."""
    sock.sendall(encode_frame(kind, payload, max_bytes=max_bytes))


def read_frame(sock: socket.socket, *,
               max_bytes: int = DEFAULT_MAX_BYTES,
               timeout: Optional[float] = None) -> Tuple[str, Any]:
    """Read exactly one frame from a blocking socket.

    Raises :class:`EOFError` on a cleanly closed peer,
    :class:`socket.timeout` when ``timeout`` elapses mid-silence, and
    :class:`FrameError` on a peer closing mid-frame (torn frame).
    """
    sock.settimeout(timeout)
    header = _recv_exact(sock, HEADER.size, "frame header")
    magic, code, codec, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameError(f"not a fleet frame: bad magic {magic!r}")
    if length > max_bytes:
        raise FrameError(
            f"frame payload of {length} bytes exceeds the "
            f"{max_bytes}-byte frame limit"
        )
    body = _recv_exact(sock, length, "frame payload")
    kind, payload, _ = decode_frame(header + body, max_bytes=max_bytes)
    return kind, payload


def _recv_exact(sock: socket.socket, n: int, what: str) -> bytes:
    buf = io.BytesIO()
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if buf.tell() == 0 and n and what == "frame header":
                raise EOFError("peer closed the connection")
            raise FrameError(
                f"peer closed mid-{what}: needed {n} bytes, "
                f"got {buf.tell()}"
            )
        buf.write(chunk)
        remaining -= len(chunk)
    return buf.getvalue()


class FrameStream:
    """A blocking socket wrapped with framing and a send lock.

    The send lock lets a worker's heartbeat thread and its main loop
    share one socket without interleaving frames.
    """

    def __init__(self, sock: socket.socket,
                 max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        self.sock = sock
        self.max_bytes = max_bytes
        self._send_lock = threading.Lock()

    def send(self, kind: str, payload: Any = None) -> None:
        data = encode_frame(kind, payload, max_bytes=self.max_bytes)
        with self._send_lock:
            self.sock.sendall(data)

    def recv(self, timeout: Optional[float] = None) -> Tuple[str, Any]:
        return read_frame(self.sock, max_bytes=self.max_bytes,
                          timeout=timeout)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass
