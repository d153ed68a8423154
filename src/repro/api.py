"""Unified run API: one facade over experiments, observability and export.

The repo grew three overlapping entry points — ``run_experiment`` for
registry experiments, ``Simulator.run`` for ad-hoc rank programs, and
``python -m repro`` for the CLI — each returning a different result type
and none of them aware of observability.  This module is the single
front door::

    import repro.api as api
    from repro.options import RunOptions

    res = api.run("fig1")                                # plain run
    res = api.run("fig1", options=RunOptions(obs=True))  # + spans
    print(res.render())
    res.observer.spans                                   # recorded spans

    api.profile("table8", trace_out="t.json")  # run + Perfetto export

Execution knobs (observability, guard, cache and results-db
locations, worker counts) travel together in a
:class:`repro.options.RunOptions` and nowhere else: a knob passed as a
keyword of its own (``obs=``, ``guard=``, ``workers=``, ...) raises
``TypeError`` naming the ``options=RunOptions(...)`` spelling.

``run`` is keyword-only beyond the experiment identifier, mirroring
:func:`repro.reporting.run_experiment`; all runner options pass through
(``nsteps=``, ``meshes=``, ``machine=``, ...).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

from repro.options import RunOptions, reject_option_keywords
from repro.obs import (
    Observer,
    activate,
    chrome_trace,
    figure1_fractions,
    folded_stacks,
    metrics_summary,
    write_chrome_trace,
    write_metrics_summary,
)
from repro.reporting.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    ExperimentSpec,
    run_experiment,
)


@dataclass
class RunResult:
    """Uniform wrapper around whatever a run produced.

    ``value`` is the underlying result object — an
    :class:`repro.reporting.ExperimentResult` for registry experiments,
    a ``SimResult`` for raw simulator runs wrapped via
    :func:`wrap_sim_result` — and ``observer`` is the live
    :class:`repro.obs.Observer` if the run was observed (None
    otherwise).
    """

    experiment: str
    value: Any
    observer: Optional[Observer] = None
    options: Dict[str, Any] = field(default_factory=dict)
    #: The resolved :class:`repro.options.RunOptions` the run used (None
    #: for results wrapped via :func:`wrap_sim_result`).
    run_options: Optional[RunOptions] = None

    @property
    def observed(self) -> bool:
        return self.observer is not None

    def render(self) -> str:
        """The underlying result's text rendering (tables for
        experiments, a one-line summary otherwise)."""
        render = getattr(self.value, "render", None)
        if render is not None:
            return render()
        elapsed = getattr(self.value, "elapsed", None)
        if elapsed is not None:
            return f"{self.experiment}: elapsed {elapsed:.6g} virtual s"
        return f"{self.experiment}: {self.value!r}"

    # -- observability accessors (raise rather than return garbage when
    # -- the run was not observed) ---------------------------------------
    def _require_observer(self) -> Observer:
        if self.observer is None:
            raise ValueError(
                f"run {self.experiment!r} was not observed; "
                f"pass options=RunOptions(obs=True) (or an Observer) "
                f"to repro.api.run"
            )
        return self.observer

    def trace(self) -> Dict[str, Any]:
        """Chrome-trace/Perfetto document built from the recorded spans."""
        return chrome_trace(self._require_observer())

    def metrics(self) -> Dict[str, Any]:
        """Structured metrics summary (per-run phases, figure-1
        fractions, counters/gauges)."""
        return metrics_summary(self._require_observer())

    def flamegraph(self) -> str:
        """Folded-stack dump suitable for flamegraph.pl / speedscope."""
        return folded_stacks(self._require_observer())

    def figure1(self, run: int = 0) -> Optional[Dict[str, float]]:
        """Span-derived Figure-1 fractions for one simulator run."""
        return figure1_fractions(self._require_observer(), run=run)


def _resolve_observer(obs: Union[None, bool, Observer]) -> Optional[Observer]:
    if obs is None or obs is False:
        return None
    if obs is True:
        return Observer()
    if isinstance(obs, Observer):
        return obs
    raise TypeError(
        f"obs must be None, a bool or an Observer, not {type(obs).__name__}"
    )


def _resolve_guard(guard):
    """Normalise the ``guard=`` argument to a GuardConfig or None.

    Lazy import: :mod:`repro.guard` pulls in the model package, and the
    facade must stay importable on its own.
    """
    if guard is None or guard is False:
        return None
    from repro.guard import GuardConfig

    if guard is True:
        return GuardConfig()
    if isinstance(guard, str):
        return GuardConfig(policy=guard)
    if isinstance(guard, GuardConfig):
        return guard
    raise TypeError(
        f"guard must be None, a bool, a policy name or a GuardConfig, "
        f"not {type(guard).__name__}"
    )


def _record_api_run(db_path: str, experiment: str,
                    options: Dict[str, Any], seconds: float) -> None:
    """Index one ad-hoc ``api.run`` in the cross-run results DB."""
    import uuid

    from repro.results import ResultsDB, current_git_sha
    from repro.results.db import _utcnow

    with ResultsDB(db_path) as db:
        db.record_run(
            run_key=uuid.uuid4().hex, source="api", ident=experiment,
            params={k: repr(v) for k, v in sorted(options.items())},
            git_sha=current_git_sha(), created_at=_utcnow(),
            metrics={"duration_seconds": (seconds, "s")},
        )


def run(experiment: str, *, options: Any = None,
        **runner_options) -> RunResult:
    """Run a registered experiment and return a :class:`RunResult`.

    ``experiment`` is a registry identifier (see
    :data:`repro.reporting.EXPERIMENTS` or ``python -m repro list``).
    ``options`` is a :class:`repro.options.RunOptions` (or a dict of its
    fields); a single run reads ``obs``, ``guard`` and ``results_db``
    from it — the class documents each.

    Every other keyword goes to the experiment runner verbatim, except
    that a ``RunOptions`` field name is refused (``TypeError``) instead
    of reaching the runner unresolved.
    """
    reject_option_keywords("repro.api.run", runner_options)
    opts = RunOptions.coerce(options)
    observer = _resolve_observer(opts.obs)
    gcfg = _resolve_guard(opts.guard)
    if gcfg is not None:
        runner_options = dict(runner_options, guard=gcfg)
    t0 = time.perf_counter()
    value = run_experiment(experiment, obs=observer, **runner_options)
    if opts.results_db:
        _record_api_run(opts.results_db, experiment, runner_options,
                        time.perf_counter() - t0)
    return RunResult(experiment=experiment, value=value, observer=observer,
                     options=dict(runner_options), run_options=opts)


def run_campaign(
    experiments: Optional[Any] = None,
    *,
    sweep: Optional[str] = None,
    options: Any = None,
    **keywords,
):
    """Run a process-parallel, cache-backed campaign over the registry.

    ``experiments`` is a list of unit selectors (``"table8"`` for every
    enumerated point, ``"table8@4x8"`` for one), or None to use the
    named ``sweep`` (``"smoke"`` by default; see
    :data:`repro.campaign.SWEEPS`).  Units are sharded across
    ``workers`` processes with dynamic longest-first scheduling and
    memoized in the content-addressed store at ``cache_dir``; a rerun
    (or ``resume=True`` after an interrupt) replays cached units and
    recomputes only what a code or parameter change invalidated.
    Returns a :class:`repro.campaign.CampaignReport` (per-unit status,
    cache hit/miss accounting, worker utilization, speedup vs serial,
    merged per-worker metrics when ``obs=True``).  ``results_db``
    additionally records every completed unit in the
    :mod:`repro.results` cross-run index (idempotent on the unit key).

    Every name above is a :class:`repro.options.RunOptions` field, as
    are ``fleet`` and ``max_attempts`` (socket-transport workers on
    other hosts, and the re-queue cap for lost units; see
    ``docs/fleet.md``).  They travel in ``options=`` only;
    ``**keywords`` exists to answer a knob passed as a keyword with that
    spelling.  A bad worker count or attempt cap dies here, at the
    facade, before the campaign machinery (and multiprocessing) loads.

    Lazy import: the campaign engine pulls in ``multiprocessing`` and
    the full registry; the facade stays importable without it.
    """
    reject_option_keywords("repro.api.run_campaign", keywords)
    if keywords:
        raise TypeError(
            "repro.api.run_campaign: unexpected keyword argument "
            f"{next(iter(keywords))!r}"
        )
    opts = RunOptions.coerce(options)
    from repro.campaign import run_campaign as _run_campaign

    return _run_campaign(
        experiments, sweep=sweep, workers=opts.workers,
        cache_dir=opts.cache_dir, resume=opts.resume, obs=bool(opts.obs),
        use_cache=opts.use_cache, results_db=opts.results_db,
        fleet=opts.fleet, max_attempts=opts.max_attempts,
    )


def wrap_sim_result(experiment: str, value: Any,
                    observer: Optional[Observer] = None) -> RunResult:
    """Wrap an ad-hoc ``Simulator.run`` result in the uniform type.

    For code that drives the simulator directly rather than through the
    registry::

        obs = Observer()
        with repro.obs.activate(obs):
            sim_result = Simulator(n, machine).run(program, ...)
        res = api.wrap_sim_result("my-run", sim_result, obs)
    """
    return RunResult(experiment=experiment, value=value, observer=observer)


def profile(experiment: str, *, trace_out: Optional[str] = None,
            metrics_out: Optional[str] = None,
            flamegraph_out: Optional[str] = None,
            options: Any = None,
            **runner_options) -> RunResult:
    """Run an experiment under observation and export the artefacts.

    Always observes (``obs=None`` in ``options`` means a fresh observer
    here, unlike :func:`run`).  Writes a Perfetto-loadable Chrome trace
    to ``trace_out``, a JSON metrics summary to ``metrics_out`` and a
    folded-stack flamegraph dump to ``flamegraph_out`` when given; any
    may be omitted.
    """
    reject_option_keywords("repro.api.profile", runner_options)
    opts = RunOptions.coerce(options)
    observer = _resolve_observer(opts.obs) or Observer()
    result = run(experiment, options=opts.with_(obs=observer),
                 **runner_options)
    if trace_out:
        write_chrome_trace(observer, trace_out)
    if metrics_out:
        write_metrics_summary(observer, metrics_out)
    if flamegraph_out:
        with open(flamegraph_out, "w") as fh:
            fh.write(result.flamegraph())
    return result


__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "ExperimentSpec",
    "Observer",
    "RunOptions",
    "RunResult",
    "activate",
    "profile",
    "run",
    "run_campaign",
    "run_experiment",
    "wrap_sim_result",
]
