"""Command-line entry point: regenerate the paper's tables and figures.

``python -m repro -h`` lists the subcommands; ``python -m repro <cmd>
--help`` lists a subcommand's flags (each is declared once, in the
``_declare_*`` function next to its handler, on a
:class:`repro.util.cli.StrictParser`).  The common cases::

    python -m repro list                 # available experiments + cost
    python -m repro table8 fig4_6        # regenerate artefacts by name
    python -m repro report --quick       # fast markdown report
    python -m repro campaign --sweep mini --workers 2 --cache-dir
"""

from __future__ import annotations

import argparse
import difflib
import sys
import time

from repro.reporting.experiments import EXPERIMENTS, run_experiment
from repro.util.cli import Command, StrictParser, run_command, usage_table


def _unknown_experiment(idents: list[str]) -> int:
    for ident in idents:
        close = difflib.get_close_matches(ident, EXPERIMENTS, n=1)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        print(f"unknown experiment {ident!r}{hint} (try 'list')",
              file=sys.stderr)
    return 2


def _cmd_list(args: argparse.Namespace) -> int:
    for ident, spec in sorted(EXPERIMENTS.items()):
        print(f"{ident:15s} [{spec.cost:6s}] {spec.doc}")
    return 0


def _declare_report(p: StrictParser) -> None:
    p.add_argument("path", nargs="?", metavar="PATH",
                   help="write the report here instead of printing it")
    p.add_argument("--quick", action="store_true",
                   help="fast subset (seconds, not minutes)")


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.reporting.report import generate_report, write_report

    if args.path is not None:
        out = write_report(args.path, quick=args.quick)
        print(f"report written to {out}")
    else:
        print(generate_report(quick=args.quick))
    return 0


def _obs_flag(p: StrictParser) -> None:
    p.add_argument("--obs", action=argparse.BooleanOptionalAction,
                   default=False,
                   help="run observed (spans + metrics); the last of "
                   "--obs/--no-obs wins")


def _cache_dir_flag(p: StrictParser, default: str) -> None:
    p.add_optional("--cache-dir", default,
                   "content-addressed result store")


def _results_db_flag(p: StrictParser) -> None:
    from repro.results import DEFAULT_DB

    p.add_optional("--results-db", DEFAULT_DB,
                   "record each run in the cross-run result index")


def _declare_run(p: StrictParser) -> None:
    from repro.campaign.scheduler import default_cache_dir

    p.add_argument("idents", nargs="+", metavar="EXPERIMENT")
    _obs_flag(p)
    _cache_dir_flag(p, default_cache_dir())
    _results_db_flag(p)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro import api
    from repro.options import RunOptions

    unknown = [ident for ident in args.idents if ident not in EXPERIMENTS]
    if unknown:
        return _unknown_experiment(unknown)
    opts = RunOptions(obs=args.obs, cache_dir=args.cache_dir,
                      results_db=args.results_db)
    for ident in args.idents:
        start = time.time()
        result = api.run(ident, options=opts)
        print(result.render())
        print(f"[{ident} ran in {time.time() - start:.1f}s]\n")
    if args.results_db:
        print(f"runs recorded in result index {args.results_db}")
    return 0


def _declare_profile(p: StrictParser) -> None:
    p.add_argument("ident", metavar="EXPERIMENT")
    # The handler fills in <ident>.
    p.add_optional("--trace-out", "trace-<ident>.json",
                   "export the Perfetto trace")
    p.add_optional("--metrics-out", "metrics-<ident>.json",
                   "export the metrics summary")
    p.add_optional("--flamegraph-out", "flamegraph-<ident>.folded",
                   "export the folded flamegraph stacks")
    _results_db_flag(p)


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro import api
    from repro.options import RunOptions

    ident = args.ident
    if ident not in EXPERIMENTS:
        return _unknown_experiment([ident])

    trace_out, metrics_out, flamegraph_out = (
        path and path.replace("<ident>", ident)
        for path in (args.trace_out, args.metrics_out, args.flamegraph_out))
    opts = RunOptions(results_db=args.results_db)
    if trace_out is metrics_out is flamegraph_out is None:
        # Still observe — print the metrics summary so a bare
        # `profile fig1` is useful on its own.
        from repro.obs import render_metrics_markdown

        result = api.profile(ident, options=opts)
        print(result.render())
        print(render_metrics_markdown(result.metrics()))
        return 0
    start = time.time()
    result = api.profile(ident, trace_out=trace_out,
                         metrics_out=metrics_out,
                         flamegraph_out=flamegraph_out, options=opts)
    print(result.render())
    if trace_out:
        print(f"trace written to {trace_out}")
    if metrics_out:
        print(f"metrics written to {metrics_out}")
    if flamegraph_out:
        print(f"flamegraph stacks written to {flamegraph_out}")
    print(f"[{ident} profiled in {time.time() - start:.1f}s]")
    return 0


def _declare_guard(p: StrictParser) -> None:
    from repro.guard import POLICY_NAMES, GuardConfig

    default = GuardConfig()
    p.add_argument("--policy", default=default.policy, metavar="NAME",
                   help=f"recovery policy: one of {', '.join(POLICY_NAMES)} "
                   f"(default: %(default)s)")
    p.add_argument("--buddy-every", type=int, default=default.buddy_every,
                   metavar="N", help="replicate state to the buddy rank "
                   "every N steps (default: %(default)s)")
    p.add_optional("--report-out", "guard-report.md",
                   "also write the tables as markdown")


def _cmd_guard(args: argparse.Namespace) -> int:
    from repro import api
    from repro.guard import GuardConfig

    try:
        gcfg = GuardConfig(policy=args.policy, buddy_every=args.buddy_every)
    except ValueError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return 2
    from repro.options import RunOptions

    start = time.time()
    result = api.run("guard", options=RunOptions(guard=gcfg))
    text = result.render()
    print(text)
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as fh:
            fh.write("# Guard supervision report\n\n```\n")
            fh.write(text)
            fh.write("\n```\n")
        print(f"report written to {args.report_out}")
    print(f"[guard regenerated in {time.time() - start:.1f}s]")
    return 0


def _declare_campaign(p: StrictParser) -> None:
    from repro.campaign.scheduler import default_cache_dir
    from repro.campaign.units import SWEEPS

    p.add_argument("selectors", nargs="*", metavar="SELECTOR",
                   help="experiment[@mesh] units (default: every experiment)")
    p.add_argument("--sweep", metavar="NAME",
                   help=f"a named selector list: one of "
                   f"{', '.join(sorted(SWEEPS))}")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="worker processes (default: %(default)s)")
    _cache_dir_flag(p, default_cache_dir())
    p.add_argument("--resume", action="store_true",
                   help="finish the last interrupted campaign of the "
                   "cache dir")
    _obs_flag(p)
    p.add_argument("--no-cache", dest="use_cache", action="store_false",
                   help="recompute every unit instead of replaying hits")
    p.add_optional("--report-out", "campaign-report.md", "markdown report")
    p.add_optional("--json-out", "campaign-report.json",
                   "machine-readable report")
    p.add_argument("--results", action="store_true",
                   help="print every unit's rendered result too")
    _results_db_flag(p)
    p.add_argument("--fleet", metavar="HOST:PORT,...",
                   help="dial these listening socket workers "
                   "(docs/fleet.md)")
    # argparse passes a string const through `type` as well, so the
    # bare flag becomes "listen"; the last of --fleet/--listen wins.
    p.add_argument("--listen", dest="fleet", nargs="?", const="",
                   metavar="HOST:PORT",
                   type=lambda addr: f"listen:{addr}" if addr else "listen",
                   help="wait for `fleet worker --connect` workers here")
    p.add_argument("--max-attempts", type=int, metavar="N",
                   help="re-queue cap for units lost to dying workers")


def _cmd_campaign(args: argparse.Namespace) -> int:
    import json

    from repro import api
    from repro.campaign.scheduler import default_cache_dir

    if args.selectors and args.sweep:
        print("campaign: pass selectors or --sweep, not both",
              file=sys.stderr)
        return 2
    cache_dir = args.cache_dir
    if args.resume and cache_dir is None:
        cache_dir = default_cache_dir()
    from repro.options import RunOptions

    start = time.time()
    try:
        report = api.run_campaign(
            args.selectors or None, sweep=args.sweep,
            options=RunOptions(
                workers=args.workers, cache_dir=cache_dir,
                resume=args.resume, obs=args.obs, use_cache=args.use_cache,
                results_db=args.results_db, fleet=args.fleet,
                max_attempts=args.max_attempts,
            ),
        )
    except (KeyError, ValueError) as exc:
        print(f"campaign: {exc}", file=sys.stderr)
        return 2
    print(report.render(include_results=args.results))
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as fh:
            fh.write("# Campaign report\n\n```\n")
            fh.write(report.render(include_results=True))
            fh.write("\n```\n")
        print(f"report written to {args.report_out}")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"json report written to {args.json_out}")
    if args.results_db:
        print(f"units recorded in result index {args.results_db} "
              f"(query with `python -m repro results runs "
              f"--db {args.results_db}`)")
    salvaged = f", {report.salvaged} salvaged" if report.salvaged else ""
    print(f"[campaign finished in {time.time() - start:.1f}s: "
          f"{report.cache_hits} hit(s), "
          f"{report.cache_misses - report.salvaged} computed"
          f"{salvaged}, {report.failures} failed]")
    return 1 if report.failures else 0


def _declare_serve(p: StrictParser) -> None:
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: %(default)s)")
    p.add_argument("--port", type=int, default=0,
                   help="bind port (default: an ephemeral one)")
    p.add_argument("--workers", type=int, default=4, metavar="N",
                   help="pool threads: they overlap waiting, not compute "
                   "(docs/serve.md; default: %(default)s)")
    p.add_argument("--queue-limit", type=int, default=64, metavar="N",
                   help="admitted executions before a 429 "
                   "(default: %(default)s)")
    _cache_dir_flag(p, ".repro-serve-cache")
    _results_db_flag(p)
    p.add_argument("--no-obs", dest="spans", action="store_false",
                   help="per-request gateway spans off (the serve "
                   "analogue of an unobserved run)")


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.serve import Gateway, ServeConfig

    try:
        config = ServeConfig(host=args.host, port=args.port,
                             pool_workers=args.workers,
                             queue_limit=args.queue_limit,
                             cache_dir=args.cache_dir,
                             results_db=args.results_db, spans=args.spans)
    except (TypeError, ValueError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2

    async def _serve_forever() -> None:
        import signal

        # SIGTERM leaves through Gateway.stop() exactly as Ctrl-C does:
        # queued hit counters are committed before the process exits.
        stop = asyncio.Event()
        try:
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGTERM, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
        async with Gateway(config) as gateway:
            bound_host, bound_port = await gateway.start_server()
            print(f"gateway listening on http://{bound_host}:{bound_port} "
                  f"(POST /run, POST /campaign, GET /status, GET /metrics; "
                  f"Ctrl-C to stop)", flush=True)
            try:
                await stop.wait()
            finally:
                print(json.dumps(gateway.status(), indent=1, sort_keys=True))

    try:
        asyncio.run(_serve_forever())
    except KeyboardInterrupt:
        pass
    print("gateway stopped")
    return 0


COMMANDS = {
    "list": Command("available experiments + cost", lambda p: None,
                    _cmd_list),
    "report": Command("full markdown report (minutes; --quick: seconds)",
                      _declare_report, _cmd_report),
    "run": Command("run experiments through the unified options surface",
                   _declare_run, _cmd_run),
    "profile": Command("run one experiment observed; export Perfetto "
                       "trace, metrics, flamegraph", _declare_profile,
                       _cmd_profile),
    "guard": Command("numerical-health supervision demo (overhead, "
                     "recovery matrix, buddy vs disk)", _declare_guard,
                     _cmd_guard),
    "campaign": Command("process-parallel sweep over the registry with "
                        "content-addressed result caching",
                        _declare_campaign, _cmd_campaign),
    "serve": Command("always-on service gateway (cache-first, coalescing, "
                     "admission control)", _declare_serve, _cmd_serve),
}


def _usage() -> str:
    rows = {"EXPERIMENT ...": "regenerate artefacts by name "
            "(`all`: every one, minutes)"}
    rows.update((name, cmd.summary) for name, cmd in COMMANDS.items())
    rows["fleet worker|echo"] = ("one distributed campaign worker / a "
                                 "frame echo server (docs/fleet.md)")
    rows["results ..."] = ("SQLite cross-run result index: ingest, query, "
                           "runs, prune")
    return (f"usage:\n{usage_table(rows)}\n\n"
            f"`python -m repro <subcommand> --help` lists its flags.")


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args or args[0] in ("-h", "--help"):
        print(_usage())
        print("Experiments:", ", ".join(sorted(EXPERIMENTS)))
        return 0
    if args[0] in ("fleet", "results"):  # groups with their own registry
        from importlib import import_module

        return import_module(f"repro.{args[0]}.cli").main(args[1:])
    # Bare `guard` falls through to the registry experiment below; with
    # flags it becomes the configured demo + report writer.
    if args[0] in COMMANDS and args != ["guard"]:
        return run_command(COMMANDS, args)
    idents = sorted(EXPERIMENTS) if args == ["all"] else args
    # Validate everything up front so a typo late in the list cannot
    # waste the minutes the earlier experiments take.
    unknown = [ident for ident in idents if ident not in EXPERIMENTS]
    if unknown:
        return _unknown_experiment(unknown)
    for ident in idents:
        start = time.time()
        result = run_experiment(ident)
        print(result.render())
        print(f"[{ident} regenerated in {time.time() - start:.1f}s]\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
