"""The repo's host-time benchmark: one command, every metric by name.

    python bench/run.py [--workload W] [--seed N] [--seconds S | --passes P]
                        [--trace [0|1]] [--runs R] [--json-out PATH]

Each run of each workload happens in a fresh interpreter (``child.py``)
with BLAS/OMP threads pinned to 1, after two more interpreters that only
set up, so ``setup_s`` is the steady value of three.  With no
``--workload`` all four run.
``--trace`` adds one traced pass and the layer probes to the first run
of every workload and prints the per-layer block.  ``--runs R`` repeats
every workload with seeds ``N .. N+R-1`` and prints each end-to-end
metric's spread.  The exit code is non-zero when an output check failed.

With exactly one workload and one run, the last line of stdout is the
result object the driver of ``BENCHMARK.json`` reads.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

from catalogue import END_TO_END, WORKLOADS, steady
from compare import iqr

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: A run whose children have not all answered by then is killed and fails.
RUN_TIMEOUT_S = 170
#: Set-ups per untraced run; ``setup_s`` is their steady value.
SETUPS = 3


def _benchmark_json() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_child(workload: str, seed: int, trace: int, args: argparse.Namespace,
              workdir: str, deadline: float,
              setup_only: bool = False) -> Dict[str, Any]:
    """One run, or one set-up, in a fresh interpreter; its document.
    The interpreter leads a process group of its own, so that a kill at
    ``deadline`` also reaches its pool workers and its gateway."""
    env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=workdir,
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1")
    argv = [sys.executable, os.path.join(BENCH_DIR, "child.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--passes", str(args.passes),
            "--trace", str(trace), "--workdir", workdir,
            "--t0", repr(time.monotonic())]
    if setup_only:
        argv.append("--setup-only")
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload}: no result after "
                           f"{RUN_TIMEOUT_S}s; killed") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: child exited {proc.returncode}")
    return json.loads(stdout.splitlines()[-1])


def run_once(workload: str, seed: int, trace: int, args: argparse.Namespace,
             workdir: str) -> Dict[str, Any]:
    """One run of one workload.  An untraced run sets up ``SETUPS`` times,
    each in an interpreter of its own, and the last one goes on to
    measure; ``setup_s`` is their steady value."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    extra = [] if trace else [
        run_child(workload, seed, 0, args, workdir, deadline, setup_only=True)
        for _ in range(SETUPS - 1)]
    doc = run_child(workload, seed, trace, args, workdir, deadline)
    setups = [e["setup_s"] for e in extra] + [doc["metrics"]["setup_s"]["value"]]
    doc["samples"]["setup_s"] = setups
    doc["metrics"]["setup_s"].update(value=steady(setups), n=len(setups))
    for e in extra:
        doc["attempted"] += e["attempted"]
        doc["failed"] += e["failed"]
        doc["errors"] += e["errors"]
    doc["metrics"]["failed_frac"].update(
        value=doc["failed"] / doc["attempted"], n=doc["attempted"])
    return doc


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    median = statistics.median(values)
    return iqr(values) / abs(median) if median else 0.0


def _print_block(title: str, metrics: Dict[str, Dict[str, Any]]) -> None:
    print(f"  {title}")
    for name, m in metrics.items():
        print(f"    {name:42s} {m['value']:>16.6g} {m['unit']:6s} n={m['n']}")


def print_run(doc: Dict[str, Any]) -> None:
    print(f"== {doc['workload']}  seed {doc['seed']}  passes "
          f"{doc['passes']}  attempted {doc['attempted']}  failed "
          f"{doc['failed']}  load {doc['loadavg_1m'][0]:.2f}->"
          f"{doc['loadavg_1m'][1]:.2f}")
    for error in doc["errors"]:
        print(f"  FAILED {error}")
    _print_block("end-to-end", doc["metrics"])
    if doc["layers"]:
        _print_block("per-layer", doc["layers"])
        top = sorted(doc["spans"], key=lambda s: -s["self"])[:8]
        print("  largest self times")
        for s in top:
            print(f"    {s['name']:42s} {s['self']:>16.6g} s")


def print_spreads(runs: List[Dict[str, Any]]) -> None:
    """Per (workload, end-to-end metric): median and quartile spread."""
    print("== spread over runs: (q3 - q1) / median")
    for workload in WORKLOADS:
        docs = [r for r in runs if r["workload"] == workload]
        for metric in END_TO_END:
            values = [r["metrics"][metric.name]["value"] for r in docs
                      if metric.name in r["metrics"]]
            if len(values) < 2:
                continue
            bound = f"{metric.bound:g}"
            print(f"    {workload:14s} {metric.name:22s} median "
                  f"{statistics.median(values):>12.6g} {metric.unit:5s} "
                  f"spread {spread(values):8.4f}  bound {bound}  "
                  f"n={len(values)}")


def driver_line(doc: Dict[str, Any]) -> str:
    """The result object ``BENCHMARK.json``'s contract asks for."""
    spec = _benchmark_json()
    if doc["trace"]:
        source, wanted = doc["layers"], spec["per_layer"]
    else:
        source, wanted = doc["metrics"], spec["end_to_end"]
    metrics = {m["name"]: {"value": source[m["name"]]["value"],
                           "unit": source[m["name"]]["unit"]}
               for m in wanted}
    return json.dumps({"correct": doc["failed"] == 0,
                       "attempted": doc["attempted"],
                       "failed": doc["failed"], "metrics": metrics})


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time for untraced passes after the warm-up; "
                             "default: run_seconds of BENCHMARK.json")
    parser.add_argument("--passes", type=int, default=0,
                        help="run exactly this many untraced passes instead")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--json-out", default=None)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(_benchmark_json()["run_seconds"])
    workloads = args.workload or list(WORKLOADS)

    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    if load > nproc:
        print(f"bench: warning: 1-minute load average {load:.2f} exceeds "
              f"{nproc} cores; timings will be noisy", file=sys.stderr)
    os.makedirs(os.path.join(BENCH_DIR, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(BENCH_DIR, ".work"),
                               prefix="run-")
    runs: List[Dict[str, Any]] = []
    try:
        for workload in workloads:
            for r in range(args.runs):
                # One traced run per workload is enough: its counts are
                # exact and its timings are not end-to-end numbers.
                doc = run_once(workload, args.seed + r,
                               args.trace if r == 0 else 0, args, workdir)
                print_run(doc)
                runs.append(doc)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.runs > 1:
        print_spreads(runs)

    if args.json_out:
        env = {
            "nproc": nproc,
            "parallelism": runs[0]["parallelism"],
            "python": platform.python_version(),
            "numpy": runs[0]["numpy"],
            "platform": platform.platform(),
            "git_sha": runs[0]["git_sha"],
            "seed": args.seed,
            "seconds": args.seconds,
            "passes": args.passes,
            "loadavg_1m_start": load,
            "loadavg_1m_end": os.getloadavg()[0],
        }
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "runs": runs}, fh, indent=1)
            fh.write("\n")
    if len(runs) == 1:
        print(driver_line(runs[0]))
    return 1 if any(r["failed"] for r in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
