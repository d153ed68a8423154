#!/usr/bin/env python
"""Sampling profile of one simulator workload of ``bench/``, in-process.

``cProfile`` charges every Python call a fixed cost and native code
none, so it over-weights call-heavy code; "what is hot" paragraphs in
docs/performance.md come from this instead.  ``SIGPROF`` fires every
0.5 ms of process CPU time; each sample walks the interrupted stack and
is weighted by the CPU time since the previous one (signals that arrive
during one long native call merge into one).  Prints the leaf share
(the Python function that was running, or was inside native code) and
the inclusive share (anywhere on the stack) per function.  CPython runs
the handler at its next call or loop back-edge, so time in a long
straight-line frame or in native code is charged to the function
entered next: leaf shares below ~10 % lean toward function entries, and
a line under the leaf table says so; cross-check them with ``--calls``::

    python tools/sample_profile.py --workload agcm_model [--passes 3]
    python tools/sample_profile.py --workload filter_tables --unit table8@4x4
    python tools/sample_profile.py --workload engine_scale --memory
    python tools/sample_profile.py --workload engine_scale --calls

``--unit`` (repeatable) profiles only the named units of the workload; a
label that is not one of its units exits 2 and lists the valid ones.

``--memory`` profiles memory instead: the passes run under
:mod:`tracemalloc`, each tick snapshots the traces once the traced size
has grown 5 % past the last snapshot, and the tool prints the traced
peak and the top allocation sites (file:line) of the largest snapshot.

``--calls`` counts work instead of timing it: after the warm-up pass,
each unit runs once more under :mod:`cProfile`, and the tool prints the
Python function calls of that pass, in total and per top-level
``repro`` package.  Host noise does not move the counts, so two runs of
the same tree print the same table.
"""

from __future__ import annotations

import cProfile
import collections
import dataclasses
import os
import signal
import sys
import time
import tracemalloc

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_REPRO_SRC = os.path.join(_REPO_ROOT, "src", "repro")
sys.path[:0] = [os.path.join(_REPO_ROOT, "src"),
                os.path.join(_REPO_ROOT, "bench")]

from repro.util.cli import StrictParser  # noqa: E402

from catalogue import SIM_WORKLOADS  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import make_plan, run_sim_pass, unit_labels  # noqa: E402

INTERVAL_S = 0.0005
#: ``--memory`` snapshots once the traced size is this much past the
#: last snapshot's.
SNAPSHOT_GROWTH = 1.05


def parse_args(argv=None):
    """The command line, units checked against the workload's (exit 2)."""
    parser = StrictParser("sample_profile.py",
                          prog="python tools/sample_profile.py",
                          description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=SIM_WORKLOADS,
                        default="agcm_model")
    parser.add_argument("--passes", type=int, default=3, metavar="N",
                        help="sampled passes, after one unsampled "
                        "(default: %(default)s)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=25, metavar="N",
                        help="rows per table (default: %(default)s)")
    parser.add_argument("--unit", action="append", metavar="LABEL",
                        help="profile only this unit of --workload "
                        "(repeatable; default: every unit)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--memory", action="store_true",
                      help="trace allocations instead of sampling CPU: "
                      "the traced peak and the top allocation sites")
    mode.add_argument("--calls", action="store_true",
                      help="count Python function calls instead of "
                      "sampling CPU: one cProfile pass per unit, split "
                      "by repro package (--passes is not used)")
    args = parser.parse_args(argv)
    valid = unit_labels(args.workload)
    unknown = [label for label in args.unit or () if label not in valid]
    if unknown:
        parser.error(f"not a unit of {args.workload}: {', '.join(unknown)} "
                     f"(valid: {', '.join(valid)})")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    plan = make_plan(args.workload, args.seed)
    if args.unit:
        plan.order = [label for label in plan.order if label in args.unit]
    rec = SpanRecorder(args.workload, enabled=False)
    run_sim_pass(plan, False, rec)  # imports, caches, first-touch pages
    if args.memory:
        return memory_profile(args, plan, rec)
    if args.calls:
        return calls_profile(args, plan, rec)

    leaf: collections.Counter = collections.Counter()
    inclusive: collections.Counter = collections.Counter()
    state = {"last": time.process_time(), "samples": 0}

    def sample(_signum, frame) -> None:
        now = time.process_time()
        weight, state["last"] = now - state["last"], now
        state["samples"] += 1
        stack = []
        while frame is not None:
            code = frame.f_code
            stack.append(f"{code.co_name} ({os.path.basename(code.co_filename)}"
                         f":{code.co_firstlineno})")
            frame = frame.f_back
        leaf[stack[0]] += weight
        for name in set(stack):  # once per sample, recursion or not
            inclusive[name] += weight

    if not run_sampled(args, plan, rec, sample):
        return 1
    total = sum(leaf.values())
    print(f"{args.workload}: {args.passes} passes of "
          f"{', '.join(plan.order)}; {state['samples']} samples, "
          f"{total:.2f} CPU s")
    for title, table in (("leaf", leaf), ("inclusive", inclusive)):
        print(f"\n{title} share")
        for name, weight in table.most_common(args.top):
            print(f"  {100 * weight / total:5.1f} %  {name}")
        if title == "leaf":
            print("  (leaf shares below ~10 % lean toward function entries; "
                  "cross-check with --calls)")
    return 0


def run_sampled(args, plan, rec, handler) -> bool:
    """Run ``--passes`` passes with *handler* on every ``SIGPROF`` tick;
    False (errors on stderr) when a pass fails its checks."""
    signal.signal(signal.SIGPROF, handler)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
    try:
        for _ in range(args.passes):
            result = run_sim_pass(plan, False, rec)
            if result.failed:
                print("\n".join(result.errors), file=sys.stderr)
                return False
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
    return True


def memory_profile(args, plan, rec) -> int:
    """``--memory``: the traced peak and the largest snapshot's top sites.

    Only the top sites of a snapshot are kept, and the traced peak is
    read before and reset after each snapshot, so neither a snapshot
    nor its bookkeeping counts as the workload's memory.
    """
    state = {"size": 0, "peak": 0, "sites": None, "snapshots": 0,
             "busy": False}

    def sample(_signum, _frame) -> None:
        size, peak = tracemalloc.get_traced_memory()
        if state["busy"] or size < SNAPSHOT_GROWTH * state["size"]:
            return
        state["busy"] = True
        state["peak"] = max(state["peak"], peak)
        stats = tracemalloc.take_snapshot().statistics("lineno")
        state["sites"] = [(stat.size, stat.count, stat.traceback[0])
                          for stat in stats[:args.top]]
        del stats
        state["size"] = size
        state["snapshots"] += 1
        tracemalloc.reset_peak()
        state["busy"] = False

    tracemalloc.start()
    try:
        if not run_sampled(args, plan, rec, sample):
            return 1
        peak = max(state["peak"], tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    print(f"{args.workload}: {args.passes} passes of "
          f"{', '.join(plan.order)}; traced peak {peak / 1e6:.1f} MB, "
          f"largest of {state['snapshots']} snapshots "
          f"{state['size'] / 1e6:.1f} MB")
    print("\nallocation sites (largest snapshot)")
    for size, count, frame in state["sites"] or ():
        where = os.path.relpath(frame.filename, _REPO_ROOT)
        if where.startswith(".."):
            where = os.path.basename(frame.filename)
        print(f"  {size / 1e6:7.2f} MB  {count:8d} blocks  "
              f"{where}:{frame.lineno}")
    return 0


def calls_profile(args, plan, rec) -> int:
    """``--calls``: each unit's Python function calls in one cProfile
    pass, in total and per top-level ``repro`` package ("other" is
    everything outside ``src/repro``: the benchmark, numpy, the standard
    library)."""
    counts = {}
    for label in plan.order:
        profile = cProfile.Profile()
        result = profile.runcall(
            run_sim_pass, dataclasses.replace(plan, order=[label]), False, rec
        )
        if result.failed:
            print("\n".join(result.errors), file=sys.stderr)
            return 1
        per_package: collections.Counter = collections.Counter()
        # Raw entries, one per code object: ``pstats`` keys by (file,
        # line, name) and so keeps one of the generated dataclass
        # ``__init__``s of "<string>", dropping the others' calls.
        for entry in profile.getstats():
            if not isinstance(entry.code, str):  # str: a built-in
                per_package[_package(entry.code.co_filename)] += \
                    entry.callcount
        counts[label] = per_package
    packages = sorted({p for c in counts.values() for p in c} - {"other"})
    columns = ["calls", *packages, "other"]
    width = max(len(label) for label in counts)
    print(f"{args.workload}: one cProfile pass per unit after the warm-up, "
          f"seed {args.seed}")
    print("\ncalls per unit (Python function calls)")
    widths = [max(len(c), 8) for c in columns]
    print(f"  {'unit':<{width}}"
          + "".join(f"  {c:>{w}}" for c, w in zip(columns, widths)))
    for label, per_package in counts.items():
        row = [sum(per_package.values())] + [per_package[p]
                                             for p in columns[1:]]
        print(f"  {label:<{width}}"
              + "".join(f"  {n:>{w}}" for n, w in zip(row, widths)))
    return 0


def _package(filename: str) -> str:
    """``repro.<top-level package or module>`` of a source file, or
    ``"other"``."""
    rel = os.path.relpath(os.path.abspath(filename), _REPRO_SRC)
    if rel.startswith(".."):
        return "other"
    return "repro." + rel.split(os.sep)[0].removesuffix(".py")


if __name__ == "__main__":
    sys.exit(main())
