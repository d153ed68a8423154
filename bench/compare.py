"""Compare two result files of ``run.py --json-out``.

    python bench/compare.py A.json B.json

For every (end-to-end metric, workload) pair: both medians, the ratio
B / A with its base, and a verdict.

``regressed``   B's median is worse than A's by more than the metric's
                bound.
``unresolved``  the run-to-run spread of either side, (q3 - q1) / median,
                exceeds the bound, and not every run of B beats every run
                of A; the files cannot tell.
``ok``          otherwise.

Exits 1 when any pair regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Optional, Tuple

from catalogue import END_TO_END, Metric


def load(path: str) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> that metric's value in every run."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    values: Dict[Tuple[str, str], List[float]] = {}
    for run in doc["runs"]:
        for name, metric in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(
                metric["value"])
    return values


def iqr(values: List[float]) -> float:
    """Distance between the quartiles (0 for a single value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(metric: Metric, a: List[float], b: List[float]) -> str:
    """``ok``, ``regressed`` or ``unresolved`` for one pair."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (med_b - med_a)
    spread = max(iqr(a), iqr(b))
    if not metric.absolute:
        # Shares of A's median; a zero baseline has no share to take.
        if med_a == 0:
            return "ok" if worse_by <= 0 else "regressed"
        worse_by /= abs(med_a)
        spread /= abs(med_a)
    if metric.better == "lower":
        b_always_better = max(b) < min(a)
    else:
        b_always_better = min(b) > max(a)
    if spread > metric.bound and not b_always_better:
        return "unresolved"
    return "regressed" if worse_by > metric.bound else "ok"


def compare(a: Dict[Tuple[str, str], List[float]],
            b: Dict[Tuple[str, str], List[float]]) -> List[dict]:
    rows = []
    for metric in END_TO_END:
        for workload in metric.workloads:
            va = a.get((workload, metric.name))
            vb = b.get((workload, metric.name))
            if not va or not vb:
                continue  # a traced-only metric in an untraced file
            med_a, med_b = statistics.median(va), statistics.median(vb)
            rows.append({
                "workload": workload, "metric": metric.name,
                "unit": metric.unit, "a": med_a, "b": med_b,
                "n_a": len(va), "n_b": len(vb),
                "ratio": med_b / med_a if med_a else None,
                "bound": metric.bound,
                "verdict": verdict(metric, va, vb),
            })
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(load(argv[0]), load(argv[1]))
    print(f"{'workload':14s} {'metric':22s} {'A median':>14s} "
          f"{'B median':>14s} unit   {'B/A':>9s} (base A)    bound  verdict")
    for r in rows:
        ratio = "n/a" if r["ratio"] is None else f"{r['ratio']:.4f}"
        print(f"{r['workload']:14s} {r['metric']:22s} {r['a']:>14.6g} "
              f"{r['b']:>14.6g} {r['unit']:6s} {ratio:>9s} "
              f"(n={r['n_a']}/{r['n_b']}) {r['bound']:>8g}  {r['verdict']}")
    counts = {v: sum(1 for r in rows if r["verdict"] == v)
              for v in ("ok", "unresolved", "regressed")}
    print(f"{len(rows)} pairs: {counts['ok']} ok, {counts['unresolved']} "
          f"unresolved, {counts['regressed']} regressed")
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())
