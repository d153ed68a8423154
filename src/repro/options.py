"""Unified run options: one dataclass for every execution knob.

Every run entry point (:func:`repro.api.run`, :func:`repro.api.profile`,
:func:`repro.api.run_campaign`, ``ServeConfig.from_options`` and the
CLI) takes its execution knobs as one :class:`RunOptions` value::

    from repro import api
    from repro.options import RunOptions

    opts = RunOptions(obs=True, results_db="runs.sqlite")
    api.run("fig1", options=opts)
    api.run_campaign(sweep="smoke", options=opts.with_(workers=4))

A plain dict works too (``options={"obs": True}``); unknown keys fail
with a did-you-mean hint instead of being silently ignored.  This is
the only spelling: the facade functions reject a knob passed as a
keyword of its own (:func:`reject_option_keywords`).

No option a campaign or serve unit runs under changes its result — the
cache key includes none of them, so adding a field here is a decision
about that key (``tests/campaign/test_key_soundness.py`` pins the field
list).
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Optional, Tuple

from repro.util.validation import check_positive_int

__all__ = ["RunOptions", "reject_option_keywords"]


@dataclass(frozen=True)
class RunOptions:
    """Execution knobs shared by every run entry point.

    Entry points ignore knobs that do not apply to them (``workers`` on
    a single ``api.run``, say) rather than erroring, so one options
    value can drive a whole session.
    """

    #: Observability: ``None``/``False`` for an uninstrumented run,
    #: ``True`` for a fresh :class:`repro.obs.Observer`, or an existing
    #: observer to aggregate several runs.
    obs: Any = None
    #: Numerical-health supervision for guard-aware runners: ``True``
    #: for the default :class:`repro.guard.GuardConfig`, a policy name,
    #: or a full config.
    guard: Any = None
    #: Content-addressed result store (campaign/serve); ``None``
    #: disables persistent caching.
    cache_dir: Optional[str] = None
    #: Cross-run result index (:mod:`repro.results`); ``None`` records
    #: nothing.
    results_db: Optional[str] = None
    #: Campaign worker processes / serve pool size.
    workers: int = 1
    #: Resume the last interrupted campaign from ``cache_dir``.
    resume: bool = False
    #: Replay cached campaign units instead of recomputing them.
    use_cache: bool = True
    #: Distributed campaign dispatch (:mod:`repro.fleet`): a
    #: :class:`~repro.fleet.FleetConfig`, an address spec string
    #: (``"host:port,..."`` or ``"listen[:host:port]"``), or ``True``
    #: for the default listen address.  ``None`` keeps the campaign on
    #: this machine.
    fleet: Any = None
    #: Re-queue attempt cap for units lost to dying workers; ``None``
    #: means the default (1 local, the FleetConfig cap for fleets).
    max_attempts: Optional[int] = None

    def __new__(cls, *args, **knobs):
        # The generated __init__ would name an unknown keyword but not
        # the known ones; every construction (direct, dict, with_)
        # gets the did-you-mean hint here instead.
        _check_field_names(knobs, "RunOptions")
        return super().__new__(cls)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "workers", check_positive_int(self.workers, "workers")
        )
        if self.max_attempts is not None:
            object.__setattr__(self, "max_attempts", check_positive_int(
                self.max_attempts, "max_attempts"
            ))

    def with_(self, **changes) -> "RunOptions":
        """A copy with ``changes`` applied (unknown names error)."""
        return replace(self, **changes)

    @classmethod
    def coerce(cls, value: Any) -> "RunOptions":
        """Normalise ``options=`` input: None, RunOptions or dict."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls(**value)
        raise TypeError(
            "options must be a RunOptions, a dict of its fields or "
            f"None, not {type(value).__name__}"
        )


FIELD_NAMES: Tuple[str, ...] = tuple(f.name for f in fields(RunOptions))


def _check_field_names(mapping: Dict[str, Any], caller: str) -> None:
    for name in mapping:
        if name not in FIELD_NAMES:
            close = difflib.get_close_matches(name, FIELD_NAMES, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise TypeError(
                f"{caller}: unknown option {name!r}{hint} "
                f"(known options: {', '.join(FIELD_NAMES)})"
            )


def reject_option_keywords(caller: str, keywords: Dict[str, Any]) -> None:
    """Refuse a :class:`RunOptions` field passed as a keyword of its own
    (``api.run`` would otherwise forward it to the runner unresolved)."""
    for name in keywords:
        if name in FIELD_NAMES:
            raise TypeError(
                f"{caller}: {name}= is not a keyword of this function; "
                f"pass options=RunOptions({name}=...)"
            )
