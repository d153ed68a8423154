"""Fleet worker: one process executing campaign units over a socket.

Started as ``python -m repro fleet worker --connect HOST:PORT`` (dial
the coordinator, retrying with exponential backoff — the worker may
well start before the coordinator binds) or ``--listen HOST:PORT``
(wait to be dialed), or forked by the coordinator itself onto one end
of a ``socketpair`` (a local campaign's worker: ``Worker().run(sock)``).
Every way the protocol is the same once a connection exists:

1. worker sends ``hello`` (name, host, pid, its cache dir if any);
2. coordinator replies ``welcome`` (worker id, cache dir to use,
   heartbeat interval, observe flag);
3. a daemon thread pushes ``heartbeat`` frames every interval — the
   coordinator's dead-host detector watches for their silence;
4. the main loop serves ``assign`` frames: execute the unit with the
   campaign's cache-before-report discipline (the result is durable on
   disk before the coordinator hears anything), then send ``result`` —
   a ``failed`` one naming the sizes if the outcome exceeds the frame
   limit, so an oversized result fails its unit, not the worker;
5. ``shutdown`` ends the process cleanly.

A scripted :class:`~repro.fleet.chaos.ChaosPlan` (``--chaos``) can
kill, hang or disconnect the worker at unit boundaries — after the
cache write, before the report — which is exactly the window the
coordinator's salvage pass exists to cover.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import replace
from typing import Optional

from repro.fleet.chaos import ChaosPlan
from repro.fleet.config import parse_address
from repro.fleet.frames import DEFAULT_MAX_BYTES, FrameError, FrameStream

__all__ = ["Worker", "run_worker"]

#: Dial schedule for connecting (and reconnecting) to the coordinator.
CONNECT_BASE = 0.2
CONNECT_FACTOR = 1.6
CONNECT_MAX = 2.0
CONNECT_ATTEMPTS = 25

#: How long a chaos ``hang`` freezes the process before it finally
#: exits (long enough that every detector timeout has fired first).
HANG_SECONDS = 600.0


_ENDPOINTS_ERROR = (
    "a worker needs exactly one of --connect HOST:PORT (dial the "
    "coordinator) or --listen HOST:PORT (wait to be dialed)"
)


class _Disconnect(Exception):
    """Internal: drop the current connection and redial."""


class Worker:
    """The worker-side state machine (see module docstring)."""

    def __init__(
        self,
        connect: Optional[str] = None,
        listen: Optional[str] = None,
        cache_dir: Optional[str] = None,
        name: Optional[str] = None,
        chaos: Optional[ChaosPlan] = None,
        max_frame_bytes: int = DEFAULT_MAX_BYTES,
        connect_attempts: int = CONNECT_ATTEMPTS,
    ) -> None:
        if connect is not None and listen is not None:
            raise ValueError(_ENDPOINTS_ERROR)
        self.connect = connect
        self.listen = listen
        self.cache_dir = cache_dir
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.host = f"{socket.gethostname()}:{os.getpid()}"
        self.chaos = chaos or ChaosPlan()
        self.max_frame_bytes = max_frame_bytes
        self.connect_attempts = connect_attempts
        #: Units completed over the worker's lifetime (chaos boundaries
        #: count across reconnects).
        self.completed = 0
        self._hang = threading.Event()

    # -- connection management ------------------------------------------
    def _dial(self) -> FrameStream:
        """Connect to the coordinator with exponential backoff."""
        host, port = parse_address(self.connect)
        delay = CONNECT_BASE
        last_error: Optional[Exception] = None
        for _ in range(self.connect_attempts):
            try:
                sock = socket.create_connection((host, port), timeout=5.0)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                return FrameStream(sock, self.max_frame_bytes)
            except OSError as exc:
                last_error = exc
                time.sleep(delay)
                delay = min(delay * CONNECT_FACTOR, CONNECT_MAX)
        raise ConnectionError(
            f"worker {self.name}: coordinator at {self.connect} "
            f"unreachable after {self.connect_attempts} attempts "
            f"({last_error})"
        )

    def _accept(self, server: socket.socket) -> FrameStream:
        sock, _ = server.accept()
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return FrameStream(sock, self.max_frame_bytes)

    # -- protocol -------------------------------------------------------
    def _handshake(self, stream: FrameStream) -> dict:
        stream.send("hello", {
            "name": self.name,
            "host": self.host,
            "pid": os.getpid(),
            "cache_dir": self.cache_dir,
        })
        kind, payload = stream.recv(timeout=10.0)
        if kind != "welcome":
            raise _Disconnect(f"expected welcome, got {kind!r}")
        return payload

    def _heartbeat_loop(self, stream: FrameStream, interval: float,
                        stop: threading.Event) -> None:
        while not stop.wait(interval):
            if self._hang.is_set():
                return  # a hung host stops beating: that IS the signal
            try:
                stream.send("heartbeat", {"name": self.name,
                                          "completed": self.completed})
            except OSError:
                return

    def _serve(self, stream: FrameStream) -> bool:
        """Serve one connection; True means shut down for good."""
        from repro.campaign.cache import ResultCache
        from repro.campaign.scheduler import _run_one

        welcome = self._handshake(stream)
        worker_id = int(welcome.get("worker_id", -1))
        interval = float(welcome.get("heartbeat_interval", 0.5))
        observe = bool(welcome.get("observe", False))
        cache_dir = self.cache_dir or welcome.get("cache_dir")
        cache = ResultCache(cache_dir) if cache_dir else None

        stop = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop, args=(stream, interval, stop),
            daemon=True,
        )
        beat.start()
        try:
            while True:
                try:
                    kind, payload = stream.recv(timeout=max(1.0,
                                                            4 * interval))
                except socket.timeout:
                    continue  # silence is fine; heartbeats flow anyway
                if kind == "shutdown":
                    try:
                        stream.send("goodbye", {"name": self.name})
                    except OSError:
                        pass
                    return True
                if kind != "assign":
                    continue
                unit = payload["unit"]
                attempt = int(payload.get("attempt", 1))
                outcome = _run_one(unit, worker_id, cache, observe)
                outcome.attempt = attempt
                outcome.host = self.host
                self.completed += 1
                action = self.chaos.decide(self.name, self.completed)
                if action is not None:
                    self._misbehave(action, stream)
                    # only "disconnect" returns; redial without reporting
                    raise _Disconnect(f"chaos {action}")
                try:
                    stream.send("result", outcome)
                except FrameError as exc:  # nothing was sent: say why
                    stream.send("result", replace(
                        outcome, status="failed", error=str(exc),
                        result=None, metrics=None,
                    ))
        finally:
            stop.set()

    def _misbehave(self, action: str, stream: FrameStream) -> None:
        """Execute one chaos action (after cache write, before report)."""
        if action == "kill":
            # A crashed host: no goodbye, no flush, heartbeats included.
            os._exit(17)
        if action == "hang":
            # A wedged host: heartbeats stop but the TCP connection
            # stays up, so only the heartbeat timeout can detect it.
            self._hang.set()
            time.sleep(HANG_SECONDS)
            os._exit(18)
        if action == "disconnect":
            stream.close()
            return
        raise ValueError(f"unknown chaos action {action!r}")

    # -- entry point ----------------------------------------------------
    def run(self, sock: Optional[socket.socket] = None) -> int:
        """Serve until the coordinator shuts us down; 0 on clean exit.

        ``sock`` is an already-connected coordinator socket (a forked
        local worker's end of a socketpair): it is served until shutdown
        or EOF and never redialed.
        """
        if sock is not None:
            stream = FrameStream(sock, self.max_frame_bytes)
            try:
                self._serve(stream)
            except (_Disconnect, EOFError, OSError):
                pass  # the coordinator is gone; so is this worker
            finally:
                stream.close()
            return 0
        if self.connect is None and self.listen is None:
            raise ValueError(_ENDPOINTS_ERROR)
        if self.listen is not None:
            host, port = parse_address(self.listen)
            server = socket.create_server((host, port))
            try:
                while True:
                    stream = self._accept(server)
                    try:
                        if self._serve(stream):
                            return 0
                    except (_Disconnect, EOFError, OSError,
                            ConnectionError):
                        pass  # coordinator went away; accept the next
                    finally:
                        stream.close()
            finally:
                server.close()
        while True:
            stream = self._dial()
            try:
                if self._serve(stream):
                    return 0
            except (_Disconnect, EOFError, OSError):
                # Connection lost (or chaos-dropped): redial with
                # backoff.  _dial raises ConnectionError once the
                # coordinator is gone for good.
                pass
            finally:
                stream.close()


def run_worker(connect: Optional[str] = None,
               listen: Optional[str] = None,
               cache_dir: Optional[str] = None,
               name: Optional[str] = None,
               chaos: Optional[str] = None,
               connect_attempts: int = CONNECT_ATTEMPTS) -> int:
    """CLI entry: build a :class:`Worker` from flags and run it."""
    worker = Worker(
        connect=connect, listen=listen, cache_dir=cache_dir, name=name,
        chaos=ChaosPlan.parse(chaos), connect_attempts=connect_attempts,
    )
    try:
        return worker.run()
    except ConnectionError as exc:
        print(f"fleet worker: {exc}", flush=True)
        return 1
    except KeyboardInterrupt:
        return 130
