#!/usr/bin/env python
"""Profiling a run: spans, metrics and a Perfetto trace via repro.api.

Runs the Figure-1 experiment (small mesh) under observation and shows
what the observability subsystem captured:

* the span forest — where, inside a step, virtual time goes;
* the Figure-1 component fractions rebuilt from spans alone, next to
  the trace-accounting numbers the experiment itself reports;
* counter metrics (messages, physics flops by component);
* a Chrome-trace export you can open at https://ui.perfetto.dev.

Run:  python examples/profile_trace.py
"""

from __future__ import annotations

from collections import Counter

import repro.api as api
from repro.obs import render_metrics_markdown, validate_chrome_trace
from repro.options import RunOptions

MESH = (4, 4)


def main() -> None:
    res = api.run("fig1", options=RunOptions(obs=True), meshes=(MESH,),
                  nsteps=4)
    obs = res.observer

    print(res.render())

    print(f"recorded {len(obs.spans)} spans and {len(obs.instants)} "
          f"instants across {len(obs.runs)} run(s)\n")

    counts = Counter(s.name for s in obs.spans)
    print("most frequent spans:")
    for name, n in counts.most_common(8):
        total = sum(s.duration for s in obs.spans if s.name == name)
        print(f"  {name:20s} x{n:5d}  {total:10.3f} virtual s summed")

    fracs = res.figure1()
    print("\nFigure-1 fractions rebuilt from spans:")
    print(f"  dynamics share of main body : {100 * fracs['dynamics_fraction']:.1f}%")
    print(f"  filtering share of dynamics : {100 * fracs['filtering_fraction']:.1f}%")

    print("\n" + render_metrics_markdown(res.metrics()))

    doc = res.trace()
    errors = validate_chrome_trace(doc)
    out = "profile_fig1.json"
    assert not errors, errors
    import json

    with open(out, "w") as fh:
        json.dump(doc, fh)
    print(f"wrote {len(doc['traceEvents'])} events to {out} — "
          f"open it at https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
