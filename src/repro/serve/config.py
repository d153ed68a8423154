"""Configuration for the service gateway.

One frozen dataclass so a gateway, the CLI and the tests all agree on
defaults.  Every knob is safe to leave alone: the defaults give a
small-footprint gateway (4 pool workers, 64-deep admission queue)
suitable for the CI container; production deployments raise
``pool_workers`` and ``queue_limit`` together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.util.validation import check_port, check_positive_int

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one :class:`repro.serve.Gateway`.

    ``queue_limit`` bounds *admitted executions* (queued + running units
    in the worker pool).  Cache hits and coalesced waiters never count
    against it — they are answered without touching the pool, which is
    precisely what makes the gateway survive bursty identical traffic.
    """

    host: str = "127.0.0.1"
    #: 0 asks the OS for an ephemeral port (the bound port is on
    #: ``Gateway.port`` after ``start_server``).
    port: int = 0
    #: Concurrent executions admitted to the worker pool before new
    #: work is rejected with a 429.
    queue_limit: int = 64
    #: Pool worker tasks (each runs units in a background thread).
    pool_workers: int = 4
    #: Content-addressed result store shared with the campaign engine;
    #: ``None`` serves without a persistent cache (coalescing still
    #: works, warm hits do not survive a restart).
    cache_dir: Optional[str] = None
    #: Cross-run result index (:mod:`repro.results`): when set, every
    #: executed unit is recorded at cache-write time and every cache
    #: hit bumps the run's hit counter.  ``None`` records nothing.
    results_db: Optional[str] = None
    #: Seconds a 429 response tells the client to back off.
    retry_after_seconds: float = 1.0
    #: Per-class latency samples kept for the p50/p99 estimates.
    reservoir_size: int = 4096
    #: Record per-request observability spans (cheap; disable only for
    #: microbenchmarks of the gateway itself).
    spans: bool = True

    @classmethod
    def from_options(cls, options: Any, **overrides) -> "ServeConfig":
        """Build a config from a :class:`repro.options.RunOptions`.

        Maps the shared knobs (``cache_dir``, ``results_db``,
        ``workers`` -> ``pool_workers``); gateway-specific fields
        (``host``, ``port``, ``queue_limit``, ...) come as keyword
        overrides, which also win over the mapped values.
        """
        from repro.options import RunOptions

        opts = RunOptions.coerce(options)
        mapped = {
            "cache_dir": opts.cache_dir,
            "results_db": opts.results_db,
            "pool_workers": opts.workers,
        }
        mapped.update(overrides)
        return cls(**mapped)

    def __post_init__(self) -> None:
        check_positive_int(self.queue_limit, "queue_limit")
        check_positive_int(self.pool_workers, "pool_workers")
        check_positive_int(self.reservoir_size, "reservoir_size")
        check_port(self.port)
        if self.retry_after_seconds <= 0:
            raise ValueError(
                f"retry_after_seconds must be positive, got "
                f"{self.retry_after_seconds}"
            )
