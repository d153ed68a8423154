"""Light-weight argument validation helpers.

These keep validation terse at public API boundaries while producing
actionable error messages.  Hot inner kernels skip validation entirely
(see the domain guide: validate at boundaries, not in loops).
"""

from __future__ import annotations

from typing import Any


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError(message)`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def check_positive_int(value: Any, name: str) -> int:
    """Return ``value`` as int after checking it is a positive integer."""
    if isinstance(value, bool) or not isinstance(value, (int,)):
        try:
            ivalue = int(value)
        except (TypeError, ValueError):
            raise TypeError(f"{name} must be a positive integer, got {value!r}")
        if ivalue != value:
            raise TypeError(f"{name} must be a positive integer, got {value!r}")
        value = ivalue
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


def check_in_range(value: float, name: str, lo: float, hi: float) -> float:
    """Check ``lo <= value <= hi`` and return ``value``."""
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value}")
    return value


def check_port(port: int, name: str = "port") -> int:
    """Check a TCP port number (0 asks the OS for an ephemeral one)."""
    return check_in_range(port, name, 0, 65535)


def check_chunk_count(chunks: Any, size: int, collective: str) -> Any:
    """Check a collective got exactly one chunk per group member.

    ``alltoall``-family collectives index ``chunks[d]`` for every group
    rank ``d``; a short or unsized sequence used to surface as a deep
    ``IndexError`` from inside the exchange schedule.  Returns ``chunks``.
    """
    if not hasattr(chunks, "__len__"):
        raise TypeError(
            f"{collective} needs a sized sequence with one chunk per group "
            f"member (chunks[d] is the payload for group rank d), got "
            f"{type(chunks).__name__}"
        )
    n = len(chunks)
    require(
        n == size,
        f"{collective} requires exactly one chunk per group member: group "
        f"size is {size}, got {n} chunk{'' if n == 1 else 's'} "
        f"(chunks[d] is the payload destined for group rank d)",
    )
    return chunks
