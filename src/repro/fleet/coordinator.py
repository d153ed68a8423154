"""Fleet coordinator: dispatch campaign units to socket workers.

A single-threaded ``selectors`` event loop owns every connection.  The
coordinator can *listen* for workers that dial in (``--listen``), *dial*
workers that are themselves listening (``--fleet HOST:PORT,...``), and
*fork* local workers, each serving the :class:`~repro.fleet.worker.Worker`
loop on one end of a ``socketpair`` (every ``workers > 1`` campaign, and
the bottom rung of the degradation ladder).  After the HELLO/WELCOME
handshake the three are indistinguishable: one LPT queue, one dispatch
loop, one recovery path.

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
* **local workers** — a dead forked worker (SIGKILL shows up as EOF, a
  hang as heartbeat silence) goes through the same three steps, and is
  replaced by a new fork while units remain queued;
* **degradation ladder** — if no worker appears within
  ``connect_grace``, or every worker dies mid-run and none returns
  within ``rescue_grace``, the coordinator warns, marks the run
  ``degraded`` and forks local workers into the same run.  No unit ever
  runs in the coordinator process.

Termination is by accounting, not by idleness: the loop runs until
every unit it was given is a result, a salvage or a quarantined
failure — so one dead worker costs exactly its in-flight unit's
recompute, never the campaign.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import selectors
import socket
import time
import warnings
from dataclasses import dataclass, field, fields
from types import SimpleNamespace
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
from repro.fleet.worker import Worker

__all__ = ["FleetCoordinator", "FleetRun"]

#: Event-loop tick (select timeout): bounds detection latency from below.
_TICK = 0.05
#: Blocking-connect timeout for one dial attempt at a worker address.
_DIAL_TIMEOUT = 0.5
#: Coordinator-side send timeout; a worker not draining its socket for
#: this long is treated like any other dead host.
_SEND_TIMEOUT = 5.0
#: Seconds a local worker gets to exit after its goodbye (or after its
#: socket closes) before it is killed.
_EXIT_GRACE = 1.0

#: The knobs of a coordinator without endpoints (a local ``workers > 1``
#: campaign): FleetConfig's defaults, which FleetConfig itself refuses
#: to construct without a listen or dial address.
_NO_ENDPOINTS = SimpleNamespace(
    **{f.name: f.default for f in fields(FleetConfig)}
)


def _serve_forked(sock: socket.socket,
                  inherited: Sequence[socket.socket],
                  max_frame_bytes: int) -> None:
    """Body of a forked local worker: serve the coordinator on ``sock``.

    The fork copied every coordinator socket; closing them here keeps a
    sibling's EOF (and the listen port) from depending on this child.
    """
    for other in inherited:
        other.close()
    Worker(max_frame_bytes=max_frame_bytes).run(sock)


def _stop(proc, grace: float) -> None:
    """Reap a local worker, killing it if it outlives ``grace``."""
    proc.join(grace)
    if proc.exitcode is None:
        proc.kill()
        proc.join()


class _Conn:
    """Coordinator-side state for one worker connection."""

    __slots__ = ("sock", "decoder", "worker_id", "name", "host",
                 "cache_dir", "last_seen", "ready", "inflight", "addr",
                 "proc")

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
        self.proc = None             # the Process of a forked local worker


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
    """See module docstring; one instance drives one campaign.

    ``config=None`` is a local campaign: ``local_workers`` are forked at
    once and nothing listens or dials.  With a config, ``local_workers``
    is how many forks the degradation ladder starts.  ``max_attempts``
    overrides the attempt cap (default: the config's, 1 without one).
    """

    def __init__(self, config: Optional[FleetConfig] = None,
                 cache: Optional[ResultCache] = None,
                 observe: bool = False, local_workers: int = 1,
                 max_attempts: Optional[int] = None) -> None:
        self.config = config if config is not None else _NO_ENDPOINTS
        self.cache = cache
        self.observe = observe
        self.local_workers = max(1, local_workers)
        if max_attempts is None:
            max_attempts = config.max_attempts if config is not None else 1
        self.max_attempts = max_attempts
        #: Worker ids of the local slots, empty until local workers are
        #: started; a slot without a live connection gets a new fork.
        self.local_slots: range = range(0)
        #: Local workers that died before their handshake; past one per
        #: slot, forking again would only loop.
        self.stillborn = 0
        self.degraded = False
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
    def run(self, units: Sequence[CampaignUnit]) -> FleetRun:
        """Execute ``units``: each ends as a result, a salvage or a
        quarantined failure, whatever happens to the workers."""
        cfg = self.config
        self._t0 = time.monotonic()
        self.bind()
        dials = [
            _DialState(addr, cfg.backoff_delays()) for addr in cfg.workers
        ]
        tracker = AttemptTracker(self.max_attempts)
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
        try:
            if cfg is _NO_ENDPOINTS:
                self._start_local(queue)
            while len(self.done) < total:
                now = time.monotonic()
                self._dial(dials, now)
                if self.conns:
                    ever_connected = True
                    all_dead_since = None
                dialing = any(not d.exhausted for d in dials
                              if not d.connected)

                if self.local_slots:
                    pass  # local workers are running: nothing to degrade
                elif not ever_connected:
                    if now - self._t0 > cfg.connect_grace and not dialing:
                        self._go_local(queue, (
                            "no worker reachable within "
                            f"{cfg.connect_grace}s"))
                elif not self.conns:
                    if all_dead_since is None:
                        all_dead_since = now
                    elif (now - all_dead_since > cfg.rescue_grace
                          and not dialing):
                        self._go_local(queue, (
                            "every worker died and none returned within "
                            f"{cfg.rescue_grace}s"))

                self._pump()
                self._reap(time.monotonic(), tracker, queue)
                self._fork_missing(queue)
                self._dispatch(queue, tracker)
            self._shutdown_workers()
        finally:
            self._close_all()

        return FleetRun(
            outcomes=[self.done[u.key] for u in units], events=self.events,
            workers=dict(self.workers_seen), salvaged=self.salvaged,
            degraded=self.degraded,
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

    def _adopt(self, sock: socket.socket, addr: Optional[str]) -> _Conn:
        if sock.family != socket.AF_UNIX:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        conn = _Conn(sock, self.config.max_frame_bytes,
                     time.monotonic(), addr)
        self.conns.append(conn)
        self.sel.register(sock, selectors.EVENT_READ, ("conn", conn))
        return conn

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
            if conn.proc is None:  # a local worker's id is its slot
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
        if conn.proc is not None:
            _stop(conn.proc, _EXIT_GRACE if voluntary else 0.0)
            if not conn.ready:
                self.stillborn += 1
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

    # -- local workers --------------------------------------------------
    def _go_local(self, queue: List[CampaignUnit], why: str) -> None:
        """The bottom rung of the degradation ladder: fork local workers
        into this run (never a hang, never a unit in this process)."""
        warnings.warn(f"fleet: {why}; degrading to local execution",
                      RuntimeWarning, stacklevel=4)
        self._event("degrade", detail=why)
        self.degraded = True
        self._start_local(queue)

    def _start_local(self, queue: List[CampaignUnit]) -> None:
        """Open one local slot per worker (at most one per queued unit)
        and fork into them; ids follow any remote workers', so a local
        campaign's are 0..n-1."""
        base = len(self.workers_seen)
        self.local_slots = range(
            base, base + max(1, min(self.local_workers, len(queue)))
        )
        self._fork_missing(queue)

    def _fork_missing(self, queue: List[CampaignUnit]) -> None:
        """Fork a worker into every empty local slot while queued units
        outnumber the workers free to take them."""
        if not self.local_slots or not queue:
            return
        if self.stillborn > len(self.local_slots):
            raise RuntimeError(
                f"{self.stillborn} local workers died before their "
                "handshake; not forking more"
            )
        live = {c.worker_id for c in self.conns if c.proc is not None}
        free = sum(1 for c in self.conns if c.inflight is None)
        for slot in self.local_slots:
            if slot not in live and len(queue) > free:
                self._fork(slot)
                free += 1

    def _fork(self, slot: int) -> None:
        """Fork a worker onto a socketpair and adopt the other end."""
        parent_end, child_end = socket.socketpair()
        inherited = [c.sock for c in self.conns] + [parent_end]
        if self.listener is not None:
            inherited.append(self.listener)
        proc = mp.get_context("fork").Process(
            target=_serve_forked,
            args=(child_end, inherited, self.config.max_frame_bytes),
            daemon=True,
        )
        proc.start()
        child_end.close()
        conn = self._adopt(parent_end, addr=None)
        conn.worker_id = slot
        conn.proc = proc

    # -- endgame --------------------------------------------------------
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
        for conn in self.conns:
            if conn.proc is not None:  # EOF on its socket ends it
                _stop(conn.proc, _EXIT_GRACE)
        self.conns.clear()
        if self.listener is not None:
            try:
                self.sel.unregister(self.listener)
            except (KeyError, ValueError):
                pass
            self.listener.close()
            self.listener = None
        self.sel.close()
