"""Why ``wall_s`` is built from fastest samples: the evidence, repeatable.

    python bench/noise.py neighbours        # busy neighbours, until killed
    python bench/noise.py estimators bench/results/busy_neighbours.json

``neighbours`` keeps ``nproc`` processes busy for 4-20 s and idle for
4-20 s each, at random: the shape of the interference this shared host
gives.  ``estimators`` reads a file of ``run.py --runs R --json-out`` and
prints, per workload, what ``wall_s`` and its run-to-run spread would be
if a part's samples were reduced by their fastest, their lower quartile
or their median.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import statistics
import sys
import time
from typing import Callable, Dict, List

from run import spread


def _busy_then_idle(seed: int) -> None:
    rng = random.Random(seed)
    while True:
        until = time.monotonic() + rng.uniform(4, 20)
        while time.monotonic() < until:
            sum(i * i for i in range(20000))
        time.sleep(rng.uniform(4, 20))


def neighbours() -> None:
    procs = [multiprocessing.Process(target=_busy_then_idle, args=(i,),
                                     daemon=True)
             for i in range(os.cpu_count() or 1)]
    for proc in procs:
        proc.start()
    try:
        for proc in procs:
            proc.join()
    except KeyboardInterrupt:
        pass


ESTIMATORS: Dict[str, Callable[[List[float]], float]] = {
    "fastest": min,
    "lower quartile": lambda v: statistics.quantiles(
        v, n=4, method="inclusive")[0],
    "median": statistics.median,
}


def estimators(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    for workload in dict.fromkeys(r["workload"] for r in runs):
        print(workload)
        docs = [r for r in runs if r["workload"] == workload]
        for name, reduce in ESTIMATORS.items():
            walls = [sum(reduce(v) for k, v in r["samples"].items()
                         if k.startswith("part."))
                     for r in docs]
            print(f"  {name:15s} wall_s median {statistics.median(walls):7.4f}"
                  f" s  spread {spread(walls):7.4f}  n={len(walls)}")


if __name__ == "__main__":
    if sys.argv[1:] == ["neighbours"]:
        neighbours()
    elif len(sys.argv) == 3 and sys.argv[1] == "estimators":
        estimators(sys.argv[2])
    else:
        sys.exit(__doc__)
