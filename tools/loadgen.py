#!/usr/bin/env python
"""Replay seeded bursty traffic against a running (or ad-hoc) gateway.

Two modes:

* **Self-contained benchmark** (no arguments): start a fresh gateway on
  an ephemeral port with an empty cache, replay the canonical seeded
  plan twice (cold, then warm), print the SLO summary::

      python tools/loadgen.py [--seed N] [--json-out PATH]

* **External target**: replay one pass against a gateway you started
  yourself (``python -m repro serve --port 8080 --cache-dir ...``)::

      python tools/loadgen.py --host 127.0.0.1 --port 8080

Exit code 1 if any request failed (non-200) or coalesced/hit answers
were not bit-identical per key; 0 otherwise.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

from repro.serve.bench import failed_requests, run_bench  # noqa: E402
from repro.serve.loadgen import (  # noqa: E402
    DEFAULT_SEED,
    LoadPlan,
    replay,
)
from repro.util.cli import StrictParser  # noqa: E402


def main(argv=None) -> int:
    parser = StrictParser("loadgen.py", prog="python tools/loadgen.py",
                          description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="traffic plan seed (default: %(default)s)")
    parser.add_argument("--host", default=None,
                        help="replay against this running gateway instead "
                        "of starting one")
    parser.add_argument("--port", type=int, default=None,
                        help="port of the running gateway (with --host)")
    parser.add_argument("--json-out", default=None,
                        help="write the full SLO summary here")
    args = parser.parse_args(argv)

    if (args.host is None) != (args.port is None):
        parser.error("--host and --port go together")

    if args.host is not None:
        plan = LoadPlan.generate(args.seed)
        report = asyncio.run(replay(plan, args.host, args.port)).to_json()
        failed = report["failures"] + len(report["sha_conflicts"])
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        report = run_bench(args.seed)
        cold, warm = report["cold"], report["warm"]
        failed = failed_requests(report)
        print(f"cold: coalesce rate {cold['coalesce_rate']:.0%}, "
              f"{cold['failures']} failed")
        print(f"warm: hit rate {warm['hit_rate']:.0%}, "
              f"hit p99 {warm['latency_us']['hit']['p99']} us, "
              f"{warm['throughput_rps']:.1f} rps, "
              f"{warm['failures']} failed")

    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"SLO summary written to {args.json_out}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
