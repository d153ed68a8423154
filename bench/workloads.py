"""The four workloads: unit lists, seeded plans and the simulator pass.

A *plan* is everything a pass needs that depends on the seed: the order
units run in and, for ``service_plane``, the warm request sequence of
each connection.  The program under test only ever sees the generated
selectors.  A *pass* runs every unit of the plan once; the same seed
always gives the same plan.

Only default options are used (no ``fast``, no legacy keywords, no
engine mode switches), so the numbers are what a user of ``repro.api``
gets.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

import repro.api as api
from repro.campaign import enumerate_units
from repro.obs import Observer, activate
from repro.options import RunOptions
from repro.parallel import GENERIC, Simulator, make_machine
from repro.perf.simbench import probe_program

from spans import SpanRecorder

#: Workers of a campaign pool / serve pool and closed-loop connections:
#: the load comes from one process and is sized to the box.
PARALLELISM = min(2, os.cpu_count() or 1)

#: Warm ``POST /run`` hits per connection and warm campaign reruns per
#: ``service_plane`` pass.
WARM_HITS_PER_CONNECTION = 100
WARM_CAMPAIGN_RERUNS = 5

#: A pass costs 1.5 to 2.5 s, so that a run holds about ten of them: the
#: host's noise comes in stretches longer than any one unit, and only
#: many short samples of every unit let a run look past it.
SELECTORS: Dict[str, Tuple[str, ...]] = {
    "agcm_model": ("table5@4x4", "table5@8x8", "table7@4x4", "fig_3d"),
    "filter_tables": ("table8@4x4", "table8@4x8", "table8@8x8",
                      "table10@4x4"),
    "engine_scale": ("bigmesh@32x40",),
    "service_plane": (
        "fig_3d", "fig2_3", "fig4_6",
        "table8@4x4", "table9@4x4",
    ),
}

#: The cheapest ``service_plane`` units, for the layer probes' small
#: campaign and gateway.
CHEAP_SELECTORS = ("fig_3d", "fig2_3", "fig4_6")


def p2p_ring_program(ctx, rounds: int):
    """Benchmark-owned rank program: a point-to-point ring.

    Every round each rank swaps a small array with its right and then
    its left neighbour through ``sendrecv``, so every message takes the
    engine's per-message path and none is grouped into a bulk exchange.
    """
    right = (ctx.rank + 1) % ctx.size
    left = (ctx.rank - 1) % ctx.size
    value = np.full(16, float(ctx.rank))
    for i in range(rounds):
        got = yield from ctx.sendrecv(dest=right, payload=value,
                                      source=left, tag=2 * i)
        value = 0.5 * (value + got)
        got = yield from ctx.sendrecv(dest=left, payload=value,
                                      source=right, tag=2 * i + 1)
        value = 0.5 * (value + got)
    return float(value[0])


#: ``engine_scale`` units that drive ``Simulator.run`` directly:
#: label -> (ranks, rank program, its arguments).
ENGINE_PROGRAMS: Dict[str, Tuple[int, Callable, tuple]] = {
    "probe240x4": (240, probe_program, (4,)),
    "p2p_ring240x100": (240, p2p_ring_program, (100,)),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def observed_counts(result: api.RunResult) -> Dict[str, float]:
    """Exact virtual time and event counts of an observed run."""
    with_obs = result.metrics()
    counters = with_obs["metrics"]["counters"]
    return {
        "virtual_s": sum(run["elapsed"] for run in with_obs["runs"]),
        "events": int(counters.get("sim.messages_sent", 0)
                      + counters.get("sim.messages_received", 0)),
        "bytes": int(counters.get("sim.bytes_sent", 0)),
        "obs_spans": sum(run["spans"] for run in with_obs["runs"]),
    }


def run_selector(label: str, traced: bool, rec: SpanRecorder) -> Dict[str, Any]:
    """One registry unit in-process through ``api.run``."""
    unit = enumerate_units([label])[0]
    options = unit.point.as_dict()
    if isinstance(options.get("machine"), str):
        options["machine"] = make_machine(options["machine"])
    with rec.span("api.run"):
        result = api.run(unit.ident,
                         options=RunOptions(obs=True) if traced else None,
                         **options)
    with rec.span("render"):
        out: Dict[str, Any] = {"sha256": _sha256(result.render())}
    if traced:
        with rec.span("obs.metrics"):
            out.update(observed_counts(result))
    return out


def run_engine_program(label: str, traced: bool,
                       rec: SpanRecorder) -> Dict[str, Any]:
    """One rank program straight through ``Simulator.run``."""
    nranks, program, args = ENGINE_PROGRAMS[label]
    observer = Observer() if traced else None
    with rec.span("Simulator.run"):
        if observer is not None:
            with activate(observer):
                sim = Simulator(nranks, GENERIC).run(program, *args)
        else:
            sim = Simulator(nranks, GENERIC).run(program, *args)
    # The simulator's own trace gives the totals on every pass, traced
    # or not, so these units check them on every pass too.
    out: Dict[str, Any] = {
        "sha256": _sha256(repr((sim.clocks, sim.returns))),
        "virtual_s": sim.elapsed,
        "events": sum(r.messages_sent + r.messages_received
                      for r in sim.trace.ranks),
        "bytes": sim.trace.total_bytes(),
    }
    if observer is not None:
        with rec.span("obs.metrics"):
            counts = observed_counts(api.wrap_sim_result(label, sim, observer))
        for key in ("virtual_s", "events", "bytes"):
            if counts[key] != out[key]:
                raise AssertionError(
                    f"{label}: observed {key} {counts[key]!r} != trace "
                    f"{out[key]!r}"
                )
        out["obs_spans"] = counts["obs_spans"]
    return out


@dataclass
class Plan:
    """Seed-dependent inputs of one workload."""

    workload: str
    seed: int
    #: Unit labels in the order a pass runs (or submits) them.
    order: List[str]
    #: ``service_plane`` only: the selectors each connection requests
    #: during the warm phase.
    hit_sequences: List[List[str]] = field(default_factory=list)
    warm_reruns: int = WARM_CAMPAIGN_RERUNS


def unit_labels(workload: str) -> List[str]:
    """Every unit of a workload, registry order."""
    labels = [u.label for u in enumerate_units(SELECTORS[workload])]
    if workload == "engine_scale":
        labels = list(ENGINE_PROGRAMS) + labels
    return labels


def make_plan(workload: str, seed: int) -> Plan:
    rng = random.Random(f"{workload}:{seed}")
    order = unit_labels(workload)
    rng.shuffle(order)
    plan = Plan(workload, seed, order)
    if workload == "service_plane":
        plan.hit_sequences = [
            [rng.choice(order) for _ in range(WARM_HITS_PER_CONNECTION)]
            for _ in range(PARALLELISM)
        ]
    return plan


def make_warmup_plan(plan: Plan) -> Plan:
    """What the warm-up runs before anything is timed: a full pass, with
    a short warm phase for ``service_plane``.

    First-touch page faults of the 1280-rank heap, the filter's cached
    operators and lazy imports cost as much as a pass, and they belong
    in ``setup_s``, not in ``wall_s``.
    """
    if plan.workload != "service_plane":
        return plan
    return Plan(plan.workload, plan.seed, plan.order,
                [seq[:20] for seq in plan.hit_sequences], warm_reruns=1)


@dataclass
class PassResult:
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: label -> what this pass saw of the unit; every pass of a run must
    #: reproduce the first pass's values exactly.
    fingerprint: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: label -> host seconds of the unit.
    unit_wall_s: Dict[str, float] = field(default_factory=dict)
    #: label -> CPU seconds of this process in the unit: beside its host
    #: seconds they tell a descheduled unit from a slowed one.
    unit_cpu_s: Dict[str, float] = field(default_factory=dict)
    #: What the pass is made of -> host seconds: its units, or the phases
    #: of a ``service_plane`` pass.  ``wall_s`` of a run is the sum over
    #: parts of each part's steady value over the run's passes.
    parts: Dict[str, float] = field(default_factory=dict)
    #: Phase timings and raw samples (``service_plane``).
    extra: Dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def run_sim_pass(plan: Plan, traced: bool, rec: SpanRecorder) -> PassResult:
    """Run every unit of a simulator workload once, in plan order."""
    result = PassResult()
    t_pass = time.perf_counter()
    with rec.span("pass"):
        for label in plan.order:
            run = (run_engine_program if label in ENGINE_PROGRAMS
                   else run_selector)
            result.attempted += 1
            t0 = time.perf_counter()
            c0 = time.process_time()
            try:
                with rec.span(f"unit:{label}"):
                    fp = run(label, traced, rec)
            except Exception as exc:  # a unit that raises is a failed unit
                result.fail(f"{label}: {type(exc).__name__}: {exc}")
                continue
            result.unit_wall_s[label] = time.perf_counter() - t0
            result.unit_cpu_s[label] = time.process_time() - c0
            result.fingerprint[label] = fp
    result.wall_s = time.perf_counter() - t_pass
    result.parts = dict(result.unit_wall_s)
    return result


def check_repeats(first: PassResult, other: PassResult) -> None:
    """Count every unit of ``other`` that differs from ``first``.

    Passes are compared on the keys both have: an observed pass knows
    counts an unobserved one does not.  ``obs_spans`` is telemetry, not
    an output.
    """
    for label, fp in other.fingerprint.items():
        ref = first.fingerprint.get(label)
        if ref is None:
            continue
        other.attempted += 1
        differing = [k for k in fp.keys() & ref.keys()
                     if k != "obs_spans" and fp[k] != ref[k]]
        if differing:
            other.fail(f"{label}: {', '.join(sorted(differing))} differ "
                       f"from the first pass")
