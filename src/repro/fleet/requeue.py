"""Re-queue/quarantine accounting for dead-worker recovery.

The coordinator hands every unit lost with a dying worker — a socket
worker on another host or a forked local one, whether it went silent,
hit EOF or failed a send — to one :class:`AttemptTracker`.

The tracker answers the only two questions recovery needs — *which
attempt is this?* and *has this unit exhausted its budget?* — and
remembers where each attempt died, so a quarantined unit's error names
every host that tried it.  A unit that kills whatever runs it is
*poison*: without the attempt cap it would bounce between workers
forever, taking each one down in turn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["AttemptTracker"]


@dataclass
class AttemptTracker:
    """Per-unit dispatch attempt counts with a quarantine cap."""

    max_attempts: int = 3
    _attempts: Dict[str, int] = field(default_factory=dict)
    _hosts: Dict[str, List[str]] = field(default_factory=dict)

    def start(self, key: str) -> int:
        """Record one dispatch of ``key``; returns the attempt number
        (1-based)."""
        n = self._attempts.get(key, 0) + 1
        self._attempts[key] = n
        return n

    def record_loss(self, key: str, host: str) -> None:
        """Remember that an attempt of ``key`` died on ``host``."""
        self._hosts.setdefault(key, []).append(host)

    def attempts(self, key: str) -> int:
        return self._attempts.get(key, 0)

    def exhausted(self, key: str) -> bool:
        """True once ``key`` has used its whole attempt budget."""
        return self._attempts.get(key, 0) >= self.max_attempts

    def quarantine_error(self, key: str, label: str) -> str:
        """The error message a quarantined (poison) unit reports."""
        n = self._attempts.get(key, 0)
        hosts = self._hosts.get(key, [])
        where = f" (workers lost: {', '.join(hosts)})" if hosts else ""
        return (
            f"worker died before completing this unit; {label!r} "
            f"quarantined as poison after {n}/{self.max_attempts} "
            f"attempt(s){where}"
        )
