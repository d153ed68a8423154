#!/usr/bin/env python
"""Sampling profile of one simulator workload of ``bench/``, in-process.

``cProfile`` charges every Python call a fixed cost and native code
none, so it over-weights call-heavy code; "what is hot" paragraphs in
docs/performance.md come from this instead.  ``SIGPROF`` fires every
0.5 ms of process CPU time; each sample walks the interrupted stack and
is weighted by the CPU time since the previous one (signals that arrive
during one long native call merge into one).  Prints the leaf share
(the Python function that was running, or was inside native code) and
the inclusive share (anywhere on the stack) per function::

    python tools/sample_profile.py --workload agcm_model [--passes 3]
    python tools/sample_profile.py --workload filter_tables --unit table8@4x4

``--unit`` (repeatable) profiles only the named units of the workload; a
label that is not one of its units exits 2 and lists the valid ones.
"""

from __future__ import annotations

import collections
import os
import signal
import sys
import time

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(_REPO_ROOT, "src"),
                os.path.join(_REPO_ROOT, "bench")]

from repro.util.cli import StrictParser  # noqa: E402

from catalogue import SIM_WORKLOADS  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import make_plan, run_sim_pass, unit_labels  # noqa: E402

INTERVAL_S = 0.0005


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

    signal.signal(signal.SIGPROF, sample)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
    try:
        for _ in range(args.passes):
            result = run_sim_pass(plan, False, rec)
            if result.failed:
                print("\n".join(result.errors), file=sys.stderr)
                return 1
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
    total = sum(leaf.values())
    print(f"{args.workload}: {args.passes} passes of "
          f"{', '.join(plan.order)}; {state['samples']} samples, "
          f"{total:.2f} CPU s")
    for title, table in (("leaf", leaf), ("inclusive", inclusive)):
        print(f"\n{title} share")
        for name, weight in table.most_common(args.top):
            print(f"  {100 * weight / total:5.1f} %  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
