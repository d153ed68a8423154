#!/usr/bin/env python
"""Benchmark-regression gate: recompute, compare, record.

Recomputes the deterministic AGCM benchmarks (filtering tables, old/new
component timings, straggler, guard and 3-D probes — virtual time only,
so an entry is exactly reproducible), checks the guard and 3-D absolute
bounds, gates every tracked speedup ratio against the most recent entry
in ``BENCH_agcm.json``, and — when the gate passes — appends the new
entry to the trajectory.  Host wall time is not measured here: that
ledger is ``bench/`` (``python bench/run.py``).

Exit codes: 0 = pass (entry recorded), 2 = tracked ratio regressed
(entry NOT recorded, so the bad run can't become the next baseline),
1 = usage/internal error.

``BENCH_agcm.json`` is the gate's only baseline.  To query the
trajectory, ingest it into the result index (idempotent)::

    python -m repro results ingest --bench BENCH_agcm.json

Usage::

    python tools/bench_gate.py                 # gate + record
    python tools/bench_gate.py --dry-run       # gate only, write nothing
    python tools/bench_gate.py --label "PR 12" # annotate the entry
"""

from __future__ import annotations

import datetime
import os
import sys

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

from repro.util.cli import StrictParser  # noqa: E402
from repro.verify import bench_record  # noqa: E402


def main(argv=None) -> int:
    parser = StrictParser("bench_gate.py", prog="python tools/bench_gate.py",
                          description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=os.path.join(_REPO_ROOT, "BENCH_agcm.json"),
        help="trajectory file (default: BENCH_agcm.json at the repo root)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=bench_record.DEFAULT_THRESHOLD,
        help="fractional ratio degradation that fails the gate "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--label", default="", help="free-form annotation stored in the entry"
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="compare against the baseline but do not write the trajectory",
    )
    args = parser.parse_args(argv)

    traj = bench_record.load_trajectory(args.output)
    baseline = bench_record.baseline_entry(traj)

    print("collecting deterministic benchmark metrics ...")
    metrics = bench_record.collect_metrics()

    width = max(len(k) for k in metrics)
    for name in sorted(metrics):
        marker = "  [tracked]" if name in bench_record.TRACKED_RATIOS else ""
        print(f"  {name:<{width}}  {metrics[name]:12.4f}{marker}")

    violations = bench_record.check_constraints(metrics)
    if violations:
        print(
            f"\nGATE FAILED: {len(violations)} absolute "
            f"constraint(s) violated:"
        )
        for violation in violations:
            print(f"  - {violation}")
        print("entry NOT recorded.")
        return 2

    regressions = bench_record.compare_to_baseline(
        metrics, baseline, threshold=args.threshold
    )
    if regressions:
        print(
            f"\nGATE FAILED: {len(regressions)} tracked ratio(s) degraded "
            f">= {args.threshold:.0%} vs baseline "
            f"({baseline['timestamp']}):"
        )
        for reg in regressions:
            print(f"  - {reg}")
        print("entry NOT recorded.")
        return 2

    entry = bench_record.make_entry(
        metrics,
        timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        label=args.label,
        threshold=args.threshold,
    )
    problems = bench_record.validate_entry(entry)
    if problems:
        print("internal error: produced an invalid entry:", problems)
        return 1

    if baseline is None:
        print("\nno baseline entry yet; this run becomes the baseline.")
    else:
        print(f"\nGATE PASSED vs baseline {baseline['timestamp']}.")

    if args.dry_run:
        print("dry run: trajectory not written.")
        return 0

    traj["entries"].append(entry)
    bench_record.save_trajectory(args.output, traj)
    print(
        f"recorded entry #{len(traj['entries'])} in {args.output}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
