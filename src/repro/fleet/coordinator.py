"""Fleet coordinator: dispatch campaign units to socket workers.

A single-threaded ``selectors`` event loop owns every connection.  The
coordinator can *listen* for workers that dial in (``--listen``), *dial*
workers that are themselves listening (``--fleet HOST:PORT,...``), or
both at once; after the HELLO/WELCOME handshake the two directions are
indistinguishable.

Recovery model (the reason this module exists):

* **dead-host detection** — workers push heartbeats; a worker silent for
  ``heartbeat_timeout`` seconds, or whose socket reports EOF or a send
  failure, is declared dead;
* **re-queue** — a dead worker's in-flight unit goes back onto the LPT
  queue, but only after a *salvage probe*: if the worker cached the
  result before dying (cache-before-report guarantees this for any
  completed unit), the coordinator recovers it from disk instead of
  recomputing — that is the ``salvaged`` outcome status;
* **quarantine** — a unit whose every attempt kills its worker is
  poison; after ``max_attempts`` dispatches it is failed with an error
  naming each lost host rather than allowed to take down the fleet;
* **degradation ladder** — if no worker ever appears within
  ``connect_grace`` the caller falls back to local multiprocessing; if
  every worker dies mid-run and none returns within ``rescue_grace``,
  the coordinator finishes the remainder locally in-process.

Termination is by accounting, not by idleness: the loop runs until
every unit it was given is a result, a salvage or a quarantined
failure — so one dead worker costs exactly its in-flight unit's
recompute, never the campaign.
"""

from __future__ import annotations

import os
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.cache import ResultCache
from repro.campaign.report import UnitOutcome
from repro.campaign.units import CampaignUnit
from repro.fleet.config import FleetConfig, parse_address
from repro.fleet.frames import FrameDecoder, FrameError, encode_frame
from repro.fleet.requeue import AttemptTracker
from repro.fleet.salvage import (
    remember_worker_dir,
    remembered_worker_dirs,
    salvage_value,
)

__all__ = ["FleetCoordinator", "FleetRun"]

#: Event-loop tick (select timeout): bounds detection latency from below.
_TICK = 0.05
#: Blocking-connect timeout for one dial attempt at a worker address.
_DIAL_TIMEOUT = 0.5
#: Coordinator-side send timeout; a worker not draining its socket for
#: this long is treated like any other dead host.
_SEND_TIMEOUT = 5.0


class _Conn:
    """Coordinator-side state for one worker connection."""

    __slots__ = ("sock", "decoder", "worker_id", "name", "host",
                 "cache_dir", "last_seen", "ready", "inflight", "addr")

    def __init__(self, sock: socket.socket, max_bytes: int,
                 now: float, addr: Optional[str]) -> None:
        self.sock = sock
        self.decoder = FrameDecoder(max_bytes)
        self.worker_id = -1
        self.name = "?"
        self.host = "?"
        self.cache_dir: Optional[str] = None
        self.last_seen = now
        self.ready = False           # True once HELLO/WELCOME completed
        #: ``(unit, attempt)`` currently executing on this worker.
        self.inflight: Optional[Tuple[CampaignUnit, int]] = None
        self.addr = addr             # dial target, for redial on death


@dataclass
class _DialState:
    """Backoff bookkeeping for one ``--fleet`` worker address."""

    addr: str
    delays: Tuple[float, ...]
    idx: int = 0
    next_try: float = 0.0
    connected: bool = False

    @property
    def exhausted(self) -> bool:
        return self.idx >= len(self.delays)


@dataclass
class FleetRun:
    """What a completed fleet dispatch hands back to the scheduler."""

    outcomes: List[UnitOutcome]
    events: List[Dict] = field(default_factory=list)
    workers: Dict[str, str] = field(default_factory=dict)  # name -> host
    salvaged: int = 0
    degraded: bool = False

    def summary(self) -> Dict:
        return {
            "workers": dict(self.workers),
            "events": list(self.events),
            "salvaged": self.salvaged,
            "degraded": self.degraded,
        }


class FleetCoordinator:
    """See module docstring; one instance drives one campaign."""

    def __init__(self, config: FleetConfig,
                 cache: Optional[ResultCache] = None,
                 observe: bool = False) -> None:
        self.config = config
        self.cache = cache
        self.observe = observe
        self.sel = selectors.DefaultSelector()
        self.listener: Optional[socket.socket] = None
        self.conns: List[_Conn] = []
        self.events: List[Dict] = []
        self.workers_seen: Dict[str, str] = {}
        self.salvage_dirs: List[str] = []
        self.salvaged = 0
        self._t0 = 0.0
        #: Completed outcomes by unit key (the accounting ledger).
        self.done: Dict[str, UnitOutcome] = {}
        #: (unit, dead host) pairs awaiting the reap pass.  Deaths are
        #: discovered mid-_pump; recovery runs once per tick with the
        #: queue and tracker in hand.
        self._pending_recovery: List[Tuple[CampaignUnit, str]] = []

    # -- bookkeeping ----------------------------------------------------
    def _event(self, kind: str, worker: str = "", detail: str = "") -> None:
        self.events.append({
            "t": round(time.monotonic() - self._t0, 3),
            "event": kind, "worker": worker, "detail": detail,
        })

    @property
    def address(self) -> Optional[str]:
        """The bound listen address (useful with port 0)."""
        if self.listener is None:
            return None
        host, port = self.listener.getsockname()[:2]
        return f"{host}:{port}"

    def bind(self) -> Optional[str]:
        """Bind the listen socket (idempotent); returns the address."""
        if self.listener is None and self.config.listen is not None:
            host, port = parse_address(self.config.listen)
            self.listener = socket.create_server((host, port), backlog=16)
            self.listener.setblocking(False)
            self.sel.register(self.listener, selectors.EVENT_READ,
                              ("accept", None))
        return self.address

    # -- the run --------------------------------------------------------
    def run(self, units: Sequence[CampaignUnit]) -> Optional[FleetRun]:
        """Execute ``units``; None means "no worker ever showed up".

        A None return is the bottom rung of the degradation ladder: the
        caller (the campaign scheduler) reruns the same units on the
        local multiprocessing pool, so an unreachable fleet costs a
        warning, never a hang.
        """
        cfg = self.config
        self._t0 = time.monotonic()
        self.bind()
        dials = [
            _DialState(addr, cfg.backoff_delays()) for addr in cfg.workers
        ]
        tracker = AttemptTracker(cfg.max_attempts)
        queue: List[CampaignUnit] = list(units)  # caller pre-sorts LPT
        total = len(units)

        # Coordinator-restart salvage: earlier runs recorded their
        # workers' cache dirs next to the manifest; sweep them before
        # dispatching anything so already-computed units are recovered,
        # not recomputed.
        self.salvage_dirs = remembered_worker_dirs(self.cache)
        if self.salvage_dirs:
            queue = [u for u in queue
                     if not self._try_salvage(u, tracker, "restart")]

        ever_connected = False
        all_dead_since: Optional[float] = None
        degraded = False
        try:
            while len(self.done) < total:
                now = time.monotonic()
                self._dial(dials, now)
                if self.conns:
                    ever_connected = True
                    all_dead_since = None
                dialing = any(not d.exhausted for d in dials
                              if not d.connected)

                if not ever_connected:
                    if now - self._t0 > cfg.connect_grace and not dialing:
                        self._event("fallback", detail=(
                            "no worker reachable within "
                            f"{cfg.connect_grace}s"))
                        return None
                elif not self.conns:
                    if all_dead_since is None:
                        all_dead_since = now
                    elif (now - all_dead_since > cfg.rescue_grace
                          and not dialing):
                        self._degrade(queue, tracker)
                        degraded = True
                        break

                self._pump()
                self._reap(time.monotonic(), tracker, queue)
                self._dispatch(queue, tracker)
            self._shutdown_workers()
        finally:
            self._close_all()

        outcomes = [self.done[u.key] for u in units if u.key in self.done]
        return FleetRun(
            outcomes=outcomes, events=self.events,
            workers=dict(self.workers_seen), salvaged=self.salvaged,
            degraded=degraded,
        )

    # -- connection plumbing --------------------------------------------
    def _dial(self, dials: List[_DialState], now: float) -> None:
        connected_addrs = {c.addr for c in self.conns if c.addr}
        for state in dials:
            state.connected = state.addr in connected_addrs
            if state.connected or state.exhausted or now < state.next_try:
                continue
            host, port = parse_address(state.addr)
            try:
                sock = socket.create_connection(
                    (host, port), timeout=_DIAL_TIMEOUT
                )
            except OSError as exc:
                delay = state.delays[state.idx]
                state.idx += 1
                state.next_try = now + delay
                if state.exhausted:
                    self._event("dial-exhausted", worker=state.addr,
                                detail=str(exc))
                continue
            state.connected = True
            state.idx = 0  # a success re-arms the backoff schedule
            self._adopt(sock, addr=state.addr)

    def _adopt(self, sock: socket.socket, addr: Optional[str]) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        conn = _Conn(sock, self.config.max_frame_bytes,
                     time.monotonic(), addr)
        self.conns.append(conn)
        self.sel.register(sock, selectors.EVENT_READ, ("conn", conn))

    def _pump(self) -> None:
        """One select round: accept and read whatever is ready."""
        for key, _ in self.sel.select(timeout=_TICK):
            role, conn = key.data
            if role == "accept":
                try:
                    sock, _peer = self.listener.accept()
                except OSError:
                    continue
                self._adopt(sock, addr=None)
                continue
            try:
                data = conn.sock.recv(1 << 16)
            except (BlockingIOError, InterruptedError):
                continue
            except OSError as exc:
                self._mark_dead(conn, f"recv failed: {exc}")
                continue
            if not data:
                self._mark_dead(conn, "connection closed")
                continue
            conn.last_seen = time.monotonic()
            conn.decoder.feed(data)
            try:
                for kind, payload in conn.decoder.frames():
                    self._handle(conn, kind, payload)
            except FrameError as exc:
                self._mark_dead(conn, f"protocol error: {exc}")

    def _handle(self, conn: _Conn, kind: str, payload) -> None:
        if kind == "hello":
            conn.ready = True
            conn.worker_id = len(self.workers_seen)
            conn.name = str(payload.get("name", f"worker-{conn.worker_id}"))
            conn.host = str(payload.get("host", conn.name))
            conn.cache_dir = payload.get("cache_dir") or None
            self.workers_seen.setdefault(conn.name, conn.host)
            if conn.cache_dir:
                if conn.cache_dir not in self.salvage_dirs:
                    self.salvage_dirs.append(conn.cache_dir)
                remember_worker_dir(self.cache, conn.cache_dir)
            self._event("connect", worker=conn.name)
            # The advertised dir must be absolute and must not depend on
            # the cache's truthiness (ResultCache.__len__ makes an
            # *empty* cache falsy — exactly the cold-start case).
            self._send(conn, "welcome", {
                "worker_id": conn.worker_id,
                "cache_dir": (os.path.abspath(self.cache.root)
                              if self.cache is not None else None),
                "heartbeat_interval": self.config.heartbeat_interval,
                "observe": self.observe,
            })
        elif kind == "heartbeat":
            pass  # last_seen already refreshed by the read itself
        elif kind == "result":
            outcome: UnitOutcome = payload
            unit = conn.inflight[0] if conn.inflight else None
            conn.inflight = None
            self.done[outcome.key] = outcome
            self._absorb(outcome, unit)
        elif kind == "goodbye":
            self._mark_dead(conn, "goodbye", voluntary=True)

    def _absorb(self, outcome: UnitOutcome,
                unit: Optional[CampaignUnit]) -> None:
        """Mirror a reported result into the coordinator's cache.

        Workers cache before reporting, but their cache dir may be on
        another machine or ephemeral; the coordinator's own cache is the
        campaign's durable record (what ``--resume`` replays), so every
        reported value is written here too — unless the worker shares
        the dir and the entry already landed.
        """
        if (self.cache is None or outcome.status != "ran"
                or outcome.error is not None
                or self.cache.contains(outcome.key)):
            return
        from repro import __version__
        from repro.campaign.cache import canonical_params

        meta = {
            "ident": outcome.ident,
            "duration": outcome.compute_seconds,
            "version": __version__,
            "worker": outcome.worker,
            "host": outcome.host,
        }
        if unit is not None:
            meta["point"] = unit.point.label
            meta["params"] = canonical_params(unit.point.as_dict())
        self.cache.put(outcome.key, outcome.result, meta=meta)

    def _send(self, conn: _Conn, kind: str, payload=None) -> bool:
        data = encode_frame(kind, payload,
                            max_bytes=self.config.max_frame_bytes)
        try:
            conn.sock.settimeout(_SEND_TIMEOUT)
            conn.sock.sendall(data)
            conn.sock.setblocking(False)
            return True
        except OSError as exc:
            self._mark_dead(conn, f"send failed: {exc}")
            return False

    # -- death, salvage, re-queue ---------------------------------------
    def _mark_dead(self, conn: _Conn, reason: str,
                   voluntary: bool = False) -> None:
        if conn not in self.conns:
            return
        self.conns.remove(conn)
        try:
            self.sel.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        self._event("goodbye" if voluntary else "death",
                    worker=conn.name, detail=reason)
        if conn.inflight is not None:
            unit, _attempt = conn.inflight
            conn.inflight = None
            self._pending_recovery.append((unit, conn.host))

    def _reap(self, now: float, tracker: AttemptTracker,
              queue: List[CampaignUnit]) -> None:
        for conn in list(self.conns):
            silent = now - conn.last_seen
            if silent > self.config.heartbeat_timeout:
                self._mark_dead(
                    conn,
                    f"heartbeat timeout: silent {silent:.1f}s "
                    f"(> {self.config.heartbeat_timeout}s)",
                )
        while self._pending_recovery:
            unit, host = self._pending_recovery.pop(0)
            self._recover(unit, host, tracker, queue)

    def _recover(self, unit: CampaignUnit, host: str,
                 tracker: AttemptTracker,
                 queue: List[CampaignUnit]) -> None:
        tracker.record_loss(unit.key, host)
        if self._try_salvage(unit, tracker, f"death of {host}"):
            return
        if tracker.exhausted(unit.key):
            self.done[unit.key] = UnitOutcome(
                ident=unit.ident, label=unit.label, key=unit.key,
                status="failed", worker=-1, seconds=0.0,
                compute_seconds=0.0,
                error=tracker.quarantine_error(unit.key, unit.label),
                attempt=tracker.attempts(unit.key), host=host,
            )
            self._event("quarantine", worker=host, detail=unit.label)
            return
        # Back onto the LPT queue, keeping the longest-first invariant.
        at = 0
        while at < len(queue) and queue[at].est_cost >= unit.est_cost:
            at += 1
        queue.insert(at, unit)
        self._event("requeue", worker=host, detail=unit.label)

    def _try_salvage(self, unit: CampaignUnit, tracker: AttemptTracker,
                     why: str) -> bool:
        got = salvage_value(unit.key, self.salvage_dirs, self.cache)
        if got is None:
            return False
        value, meta = got
        attempt = max(1, tracker.attempts(unit.key))
        self.done[unit.key] = UnitOutcome(
            ident=unit.ident, label=unit.label, key=unit.key,
            status="salvaged", worker=-1, seconds=0.0,
            compute_seconds=float(meta.get("duration", 0.0) or 0.0),
            result=value, attempt=attempt,
            host=meta.get("host") or None,
        )
        self.salvaged += 1
        self._event("salvage", detail=f"{unit.label} ({why})")
        return True

    # -- dispatch -------------------------------------------------------
    def _dispatch(self, queue: List[CampaignUnit],
                  tracker: AttemptTracker) -> None:
        for conn in list(self.conns):
            if not queue:
                return
            if not conn.ready or conn.inflight is not None:
                continue
            unit = queue.pop(0)
            attempt = tracker.start(unit.key)
            conn.inflight = (unit, attempt)
            if not self._send(conn, "assign",
                              {"unit": unit, "attempt": attempt}):
                continue  # _mark_dead queued it for recovery

    # -- endgame --------------------------------------------------------
    def _degrade(self, queue: List[CampaignUnit],
                 tracker: AttemptTracker) -> None:
        """Every worker died and none came back: finish locally."""
        from repro.campaign.scheduler import _run_one

        self._event("degrade", detail=(
            f"all workers dead > {self.config.rescue_grace}s; "
            f"finishing {len(queue)} unit(s) locally"))
        while queue:
            unit = queue.pop(0)
            if self._try_salvage(unit, tracker, "degraded teardown"):
                continue
            attempt = tracker.start(unit.key)
            outcome = _run_one(unit, -1, self.cache, self.observe)
            outcome.attempt = attempt
            outcome.host = "coordinator-local"
            self.done[unit.key] = outcome

    def _shutdown_workers(self) -> None:
        for conn in list(self.conns):
            self._send(conn, "shutdown", {})
        deadline = time.monotonic() + 1.0
        while self.conns and time.monotonic() < deadline:
            self._pump()

    def _close_all(self) -> None:
        for conn in list(self.conns):
            try:
                self.sel.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
            try:
                conn.sock.close()
            except OSError:
                pass
        self.conns.clear()
        if self.listener is not None:
            try:
                self.sel.unregister(self.listener)
            except (KeyError, ValueError):
                pass
            self.listener.close()
            self.listener = None
        self.sel.close()
