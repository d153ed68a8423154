"""Fleet configuration: transport endpoints, heartbeats, recovery knobs.

A :class:`FleetConfig` travels from the run surface (``RunOptions.fleet``,
``--fleet``/``--listen`` on the CLI) down to the coordinator.  Both
connection directions are supported and may be mixed:

* ``listen="HOST:PORT"`` — the coordinator binds there and accepts
  workers started with ``python -m repro fleet worker --connect``;
* ``workers=("HOST:PORT", ...)`` — the coordinator dials workers that
  were started with ``--listen`` (with exponential backoff per target).

Every timing knob has a deliberately conservative default; the chaos
tests and the benchmark shrink them so failure detection is fast.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional, Sequence, Tuple

from repro.fleet.frames import DEFAULT_MAX_BYTES
from repro.util.validation import check_port, check_positive_int

__all__ = ["FleetConfig", "parse_address"]

#: Default coordinator bind address when listening is requested without
#: an explicit endpoint (port 0 = an ephemeral port).
DEFAULT_LISTEN = "127.0.0.1:0"


def parse_address(spec: str) -> Tuple[str, int]:
    """``"HOST:PORT"`` -> ``(host, port)`` with an actionable error."""
    host, sep, port = str(spec).strip().rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"bad fleet address {spec!r}: expected 'HOST:PORT' "
            f"(e.g. '127.0.0.1:7900')"
        )
    try:
        port_num = int(port)
    except ValueError:
        raise ValueError(
            f"bad fleet address {spec!r}: port {port!r} is not an integer"
        ) from None
    return host, check_port(port_num, f"bad fleet address {spec!r}: port")


@dataclass(frozen=True)
class FleetConfig:
    """Everything the coordinator and its workers agree on."""

    #: Coordinator bind address (``"HOST:PORT"``; port 0 picks an
    #: ephemeral port).  ``None`` disables listening.
    listen: Optional[str] = None
    #: Worker addresses the coordinator dials (workers started with
    #: ``--listen``).
    workers: Tuple[str, ...] = ()
    #: Seconds between worker heartbeat frames.
    heartbeat_interval: float = 0.5
    #: Silence after which a worker is declared dead and its in-flight
    #: unit re-queued.  Must comfortably exceed the interval.
    heartbeat_timeout: float = 3.0
    #: Seconds the coordinator waits for the first worker before
    #: declaring the fleet unreachable and forking local workers.
    connect_grace: float = 5.0
    #: Seconds the coordinator keeps waiting for reconnects once every
    #: connected worker has died mid-run, before forking local workers
    #: for the remainder.
    rescue_grace: float = 2.0
    #: Re-queue attempt cap per unit: a unit that has been dispatched
    #: this many times and never completed is quarantined as poison.
    max_attempts: int = 3
    #: Exponential backoff for dialing (worker reconnect and coordinator
    #: redial): base seconds, multiplier, ceiling, attempt budget.
    reconnect_base: float = 0.2
    reconnect_factor: float = 2.0
    reconnect_max: float = 5.0
    reconnect_attempts: int = 8
    #: Frame payload ceiling shared by both sides of the transport.
    max_frame_bytes: int = DEFAULT_MAX_BYTES

    def __post_init__(self) -> None:
        check_positive_int(self.max_attempts, "fleet max_attempts")
        check_positive_int(self.reconnect_attempts,
                           "fleet reconnect_attempts")
        if self.listen is not None:
            parse_address(self.listen)
        for addr in self.workers:
            parse_address(addr)
        if self.listen is None and not self.workers:
            raise ValueError(
                "a FleetConfig needs a listen= address, worker "
                "addresses, or both (got neither)"
            )
        if self.heartbeat_interval <= 0 or self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat interval/timeout must be positive")
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ValueError(
                f"heartbeat_timeout ({self.heartbeat_timeout}) must "
                f"exceed heartbeat_interval ({self.heartbeat_interval}) "
                f"or every slow beat looks like a death"
            )

    def with_(self, **changes) -> "FleetConfig":
        return replace(self, **changes)

    def backoff_delays(self) -> Tuple[float, ...]:
        """The dial retry schedule: exponential, capped, finite."""
        delays = []
        delay = self.reconnect_base
        for _ in range(self.reconnect_attempts):
            delays.append(min(delay, self.reconnect_max))
            delay *= self.reconnect_factor
        return tuple(delays)

    @classmethod
    def coerce(cls, value: Any) -> Optional["FleetConfig"]:
        """Normalise a ``fleet=`` knob into a config (or None).

        Accepted spellings::

            FleetConfig(...)            # passed through
            "HOST:PORT,HOST:PORT"       # worker addresses to dial
            ["HOST:PORT", ...]          # same, as a sequence
            "listen" / "listen:H:P"     # listen-only coordinator
            True                        # listen on the default address
            None / False / ""           # fleet disabled
        """
        if value is None or value is False or value == "":
            return None
        if isinstance(value, cls):
            return value
        if value is True:
            return cls(listen=DEFAULT_LISTEN)
        if isinstance(value, str):
            if value == "listen":
                return cls(listen=DEFAULT_LISTEN)
            if value.startswith("listen:"):
                return cls(listen=value[len("listen:"):])
            parts = tuple(p.strip() for p in value.split(",") if p.strip())
            return cls(workers=parts)
        if isinstance(value, Sequence):
            return cls(workers=tuple(str(v) for v in value))
        raise TypeError(
            f"fleet must be a FleetConfig, an address spec string, a "
            f"sequence of addresses, True or None — not "
            f"{type(value).__name__}"
        )
