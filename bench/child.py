"""One benchmark run of one workload, in a process of its own.

``run.py`` starts this script in a fresh interpreter with BLAS/OMP
threads pinned to 1, so no run sees another's imports, heap or caches.
The run is: warm-up (the end of it ends ``setup_s``; ``--setup-only``
stops there), untraced passes for ``--seconds``, and with ``--trace 1``
one traced pass plus the layer probes.  The last line of stdout is one
JSON document.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from typing import Any, Dict, List

from catalogue import steady, unit_of

#: A run holds at least this many untraced passes, however slow the box.
MIN_PASSES = 3
#: A traced run spends this share of ``--seconds`` on untraced passes:
#: its numbers come from the traced pass and the probes.
TRACED_SHARE = 0.4


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--passes", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent at spawn")
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for
    descendant (a pool worker or the gateway process)."""
    return sum(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def _put(block: Dict[str, Dict[str, Any]], name: str, value: float,
         n: int = 1) -> None:
    block[name] = {"value": value, "unit": unit_of(name), "n": n}


def _layer_metrics(counts, passes, totals: Dict[str, float]
                   ) -> Dict[str, Dict[str, Any]]:
    """``unit.<selector>.*`` and ``trace.*`` from the observed counts."""
    layers: Dict[str, Dict[str, Any]] = {}
    for label, fp in sorted(counts.fingerprint.items()):
        # A unit's wall time comes from the untraced passes; service_plane
        # runs its units in other processes there and times none, so it
        # falls back on the observed in-process reference.
        walls = [p.unit_wall_s[label] for p in passes
                 if label in p.unit_wall_s] or [counts.unit_wall_s[label]]
        _put(layers, f"unit.{label}.wall_s", steady(walls), len(walls))
        for key in ("virtual_s", "events", "bytes"):
            _put(layers, f"unit.{label}.{key}", fp[key])
    for key in ("virtual_s", "events", "bytes"):
        _put(layers, f"trace.{key}", totals[key])
    _put(layers, "obs.spans_recorded", totals["obs_spans"])
    return layers


def main(argv: List[str]) -> int:
    args = _parse(argv)
    loadavg_start = os.getloadavg()[0]

    # Imports are part of set-up: the parent started the clock at spawn.
    import workloads as wl
    from repro.results import current_git_sha
    from service import (reference_units, run_service_pass,
                         service_metrics, service_samples)
    from spans import SpanRecorder

    plan = wl.make_plan(args.workload, args.seed)
    service = args.workload == "service_plane"
    if service and hasattr(os, "sched_setaffinity"):
        # The pool workers, the gateway process and the clients all run on
        # one CPU.  Their hand-offs are then context switches of the guest
        # kernel; across two virtual CPUs each one waits for the host to
        # wake the other CPU, and a busy host made a warm hit cost six
        # times as much from one run to the next (README.md, "Noise and
        # bounds").
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(cpus)})
    off = SpanRecorder(args.workload, enabled=False)
    metrics: Dict[str, Dict[str, Any]] = {}
    layers: Dict[str, Dict[str, Any]] = {}
    spans: List[dict] = []

    def run_pass(p: wl.Plan, traced: bool, rec: SpanRecorder) -> wl.PassResult:
        if service:
            return run_service_pass(p, traced, rec, args.workdir)
        return wl.run_sim_pass(p, traced, rec)

    warmup = run_pass(wl.make_warmup_plan(plan), False, off)
    _put(metrics, "setup_s", time.monotonic() - args.t0)
    if args.setup_only:
        print(json.dumps({"setup_s": metrics["setup_s"]["value"],
                          "attempted": warmup.attempted,
                          "failed": warmup.failed, "errors": warmup.errors}))
        return 0

    # Untraced passes: every wall-clock end-to-end metric comes from here.
    seconds = args.seconds * (TRACED_SHARE if args.trace else 1.0)
    passes: List[wl.PassResult] = []
    t_begin = time.perf_counter()
    while True:
        passes.append(run_pass(plan, False, off))
        elapsed = time.perf_counter() - t_begin
        if args.passes:
            if len(passes) >= args.passes:
                break
        elif (len(passes) >= MIN_PASSES
              and elapsed + 0.5 * passes[-1].wall_s > seconds):
            break
    _put(metrics, "peak_rss_mb", _peak_rss_mb())
    for other in passes:
        wl.check_repeats(warmup, other)
    counted = [warmup] + passes

    # ``wall_s`` is a pass put together from the steady value of each of
    # its parts, so a busy stretch of the host that slows some passes of
    # every part does not reach it (``catalogue.steady``).
    samples: Dict[str, List[float]] = {
        f"part.{name}": [p.parts[name] for p in passes if name in p.parts]
        for name in sorted(set().union(*(p.parts for p in passes)))}
    _put(metrics, "wall_s", sum(steady(v) for v in samples.values()),
         len(passes))
    samples["pass_wall_s"] = [p.wall_s for p in passes]
    for label in sorted(set().union(*(p.unit_cpu_s for p in passes))):
        samples[f"cpu.{label}"] = [p.unit_cpu_s[label] for p in passes
                                   if label in p.unit_cpu_s]
    if service:
        samples.update(service_samples(passes))
        hits = sum(len(seq) for seq in plan.hit_sequences)
        for name, (value, n) in service_metrics(
                samples, len(plan.order), hits).items():
            _put(metrics, name, value, n)
    wall_s = metrics["wall_s"]["value"]

    if args.trace:
        from probes import run_probes

        rec = SpanRecorder(args.workload)
        traced = run_pass(plan, True, rec)
        # service_plane's units run in pool workers and in the gateway,
        # out of an observer's reach: count them in-process instead.
        counts = reference_units(plan, rec) if service else traced
        for observed in ([traced, counts] if service else [traced]):
            wl.check_repeats(warmup, observed)
            counted.append(observed)
        labels = sorted(counts.fingerprint)  # fixed order: float sums repeat
        totals = {key: sum(counts.fingerprint[label][key] for label in labels)
                  for key in ("virtual_s", "events", "bytes", "obs_spans")}
        if not service:
            _put(metrics, "sim_events_per_s", totals["events"] / wall_s,
                 len(passes))
            _put(metrics, "virtual_s", totals["virtual_s"])
        layers = _layer_metrics(counts, passes, totals)
        _put(layers, "trace.pass_cover_frac", rec.cover_fraction("pass"))
        _put(layers, "trace_overhead_frac", traced.wall_s / wall_s - 1.0)
        if service and hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, cpus)  # the probes read alike in every run
        for name, (value, n) in run_probes(args.workdir, rec).items():
            _put(layers, name, value, n)
        spans = rec.dump()

    attempted = sum(p.attempted for p in counted)
    failed = sum(p.failed for p in counted)
    _put(metrics, "failed_frac", failed / attempted, attempted)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "parallelism": wl.PARALLELISM,
        "numpy": wl.np.__version__,
        "git_sha": current_git_sha(),
        "attempted": attempted,
        "failed": failed,
        "errors": [e for p in counted for e in p.errors][:20],
        "metrics": metrics,
        "layers": layers,
        "samples": samples,
        "unit_wall_s": [p.unit_wall_s for p in counted],
        "loadavg_1m": [loadavg_start, os.getloadavg()[0]],
        "spans": spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
