"""The contract of every ``python -m repro`` flag parser.

All CLIs are built from one strict parser type
(:class:`repro.util.cli.StrictParser`), so the properties pinned here
are properties of that type, checked once per subcommand:

* an unknown option, a flag *prefix* (``--work`` for ``--workers``) and
  a stray positional exit 2 with a ``"<cmd>: ..."`` line on stderr,
  before any work starts — a mistyped option that is ignored instead of
  rejected silently runs the wrong experiment;
* ``-h`` / ``--help`` exit 0 and list every flag;
* what each handler passes on (``api.run``, ``api.profile``,
  ``api.run_campaign``, ``ServeConfig``, ``run_worker``, the report
  writers) for a given argv is ``PARSE_TABLE``, recorded from the
  hand-written flag loops this parser type replaced.
"""

import dataclasses
import os
import shlex
import subprocess
import sys

import pytest

from repro.__main__ import main


def _exit_code(argv):
    """Run the CLI in-process; normalise SystemExit (argparse) to a code."""
    try:
        return main(argv)
    except SystemExit as exc:  # argparse-based subcommands raise
        return exc.code


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["run", "--no-such-flag"], id="run"),
        pytest.param(["report", "--no-such-flag"], id="report"),
        pytest.param(["profile", "--no-such-flag"], id="profile"),
        pytest.param(["campaign", "--no-such-flag"], id="campaign"),
        pytest.param(["serve", "--no-such-flag"], id="serve"),
        pytest.param(["guard", "--no-such-flag"], id="guard"),
        pytest.param(["results", "--no-such-flag"], id="results"),
        pytest.param(["fleet", "worker", "--no-such-flag"],
                     id="fleet-worker"),
        pytest.param(["fleet", "echo", "--no-such-flag"], id="fleet-echo"),
        pytest.param(["fleet", "frobnicate"], id="fleet-unknown-sub"),
        # A removed flag is an unknown flag: --fast must not come back
        # as something these four silently accept.
        pytest.param(["run", "fig4_6", "--fast"], id="run-fast"),
        pytest.param(["profile", "fig4_6", "--fast"], id="profile-fast"),
        pytest.param(["campaign", "fig4_6", "--fast"], id="campaign-fast"),
        pytest.param(["serve", "--fast"], id="serve-fast"),
    ],
)
def test_unknown_flag_exits_2(argv, capsys):
    assert _exit_code(argv) == 2
    # The rejection must be diagnosed on stderr, not swallowed.
    captured = capsys.readouterr()
    assert captured.err.strip()


def test_unknown_experiment_exits_2(capsys):
    assert _exit_code(["no-such-experiment"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_valid_list_still_works(capsys):
    assert _exit_code(["list"]) == 0


# ----------------------------------------------------------------------
# (a) parse equivalence: what each handler passes on, per argv
# ----------------------------------------------------------------------

class _Captured(Exception):
    """Raised by a fake to stop the handler once its call is recorded."""


class _StubResult:
    def render(self):
        return "rendered"


def _plain(value):
    """Dataclass values as the dict of their non-default fields."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        default = type(value)()
        return {
            f.name: _plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if getattr(value, f.name) != getattr(default, f.name)
        }
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def outcome(argv, monkeypatch, tmp_path):
    """``(exit status or None when a fake stopped the handler, recorded
    calls, files the handler wrote)`` of one in-process CLI run."""
    calls = []

    def fake(name, returns=None):
        def record(*args, **kwargs):
            calls.append([name, _plain(args), _plain(kwargs)])
            if returns is None:
                raise _Captured(name)
            return returns
        return record

    # api.run returns (a handler may call it once per experiment and
    # write a report afterwards); every other fake ends the handler.
    monkeypatch.setattr("repro.api.run", fake("api.run", _StubResult()))
    monkeypatch.setattr("repro.api.profile", fake("api.profile"))
    monkeypatch.setattr("repro.api.run_campaign", fake("api.run_campaign"))
    monkeypatch.setattr("repro.serve.ServeConfig", fake("ServeConfig"))
    monkeypatch.setattr("repro.fleet.worker.run_worker", fake("run_worker"))
    monkeypatch.setattr("repro.reporting.report.generate_report",
                        fake("generate_report", "report text"))
    monkeypatch.setattr("repro.reporting.report.write_report",
                        fake("write_report", "written"))
    monkeypatch.chdir(tmp_path)
    try:
        status = _exit_code(argv)
    except _Captured:
        status = None
    return [status, calls, sorted(os.listdir(tmp_path))]


# Recorded at the parent of the argparse rewrite (commit 47156d9), whose
# hand-written flag loops defined these semantics: an optional-value
# flag consumes the next token unless it starts with "-" (so
# `run --cache-dir fig4_6` has no experiment left), the last of
# --obs/--no-obs and of --fleet/--listen wins, positionals interleave
# with flags.  Rows: (command line, exit status or None when a fake
# stopped the handler, recorded calls, files written).
PARSE_TABLE = [
    ('run fig4_6', 0, [['api.run', ['fig4_6'], {'options': {'obs': False}}]],
     []),
    ('run fig4_6 --obs table8', 0,
     [['api.run', ['fig4_6'], {'options': {'obs': True}}],
      ['api.run', ['table8'], {'options': {'obs': True}}]],
     []),
    ('run --obs --no-obs fig4_6', 0,
     [['api.run', ['fig4_6'], {'options': {'obs': False}}]], []),
    ('run --no-obs --obs fig4_6', 0,
     [['api.run', ['fig4_6'], {'options': {'obs': True}}]], []),
    ('run fig4_6 --cache-dir', 0,
     [['api.run', ['fig4_6'],
       {'options': {'cache_dir': '.repro-campaign-cache', 'obs': False}}]],
     []),
    ('run --cache-dir --obs fig4_6', 0,
     [['api.run', ['fig4_6'],
       {'options': {'cache_dir': '.repro-campaign-cache', 'obs': True}}]],
     []),
    ('run --cache-dir fig4_6', 2, [], []),
    ('run --cache-dir c fig4_6 --results-db', 0,
     [['api.run', ['fig4_6'],
       {'options': {'cache_dir': 'c',
                    'obs': False,
                    'results_db': '.repro-results.db'}}]],
     []),
    ('run fig4_6 --results-db r.sqlite', 0,
     [['api.run', ['fig4_6'],
       {'options': {'obs': False, 'results_db': 'r.sqlite'}}]],
     []),
    ('run', 2, [], []),
    ('run nope', 2, [], []),
    ('run fig4_6 --workers 2', 2, [], []),
    ('profile fig4_6 --trace-out', None,
     [['api.profile', ['fig4_6'],
       {'flamegraph_out': None,
        'metrics_out': None,
        'options': {},
        'trace_out': 'trace-fig4_6.json'}]],
     []),
    ('profile --trace-out t.json fig4_6 --metrics-out --flamegraph-out '
     'f.folded',
     None,
     [['api.profile', ['fig4_6'],
       {'flamegraph_out': 'f.folded',
        'metrics_out': 'metrics-fig4_6.json',
        'options': {},
        'trace_out': 't.json'}]],
     []),
    ('profile --metrics-out fig4_6', 2, [], []),
    ('profile fig4_6 table8', 2, [], []),
    ('profile fig4_6 --results-db', None,
     [['api.profile', ['fig4_6'],
       {'options': {'results_db': '.repro-results.db'}}]],
     []),
    ('profile fig1 --flamegraph-out flamegraph-fig1.folded --metrics-out '
     'metrics-fig1.json',
     None,
     [['api.profile', ['fig1'],
       {'flamegraph_out': 'flamegraph-fig1.folded',
        'metrics_out': 'metrics-fig1.json',
        'options': {},
        'trace_out': None}]],
     []),
    ('guard --policy rollback_adapt', 0,
     [['api.run', ['guard'],
       {'options': {'guard': {'policy': 'rollback_adapt'}}}]],
     []),
    ('guard --buddy-every 3 --report-out', 0,
     [['api.run', ['guard'], {'options': {'guard': {'buddy_every': 3}}}]],
     ['guard-report.md']),
    ('guard --report-out g.md --policy halt', 0,
     [['api.run', ['guard'], {'options': {'guard': {'policy': 'halt'}}}]],
     ['g.md']),
    ('guard --policy nope', 2, [], []),
    ('guard --buddy-every x', 2, [], []),
    ('guard --policy', 2, [], []),
    ('guard extra --policy halt', 2, [], []),
    ('campaign', None,
     [['api.run_campaign', [None],
       {'options': {'obs': False}, 'sweep': None}]],
     []),
    ('campaign fig4_6 --workers 2 table8@4x4', None,
     [['api.run_campaign', [['fig4_6', 'table8@4x4']],
       {'options': {'obs': False, 'workers': 2}, 'sweep': None}]],
     []),
    ('campaign --sweep mini --workers 2 --cache-dir .campaign-cache '
     '--json-out campaign-warm.json --report-out campaign-report.md',
     None,
     [['api.run_campaign', [None],
       {'options': {'cache_dir': '.campaign-cache',
                    'obs': False,
                    'workers': 2},
        'sweep': 'mini'}]],
     []),
    ('campaign --resume', None,
     [['api.run_campaign', [None],
       {'options': {'cache_dir': '.repro-campaign-cache',
                    'obs': False,
                    'resume': True},
        'sweep': None}]],
     []),
    ('campaign --cache-dir --resume', None,
     [['api.run_campaign', [None],
       {'options': {'cache_dir': '.repro-campaign-cache',
                    'obs': False,
                    'resume': True},
        'sweep': None}]],
     []),
    ("campaign 'sleep:0.2#a' --listen", None,
     [['api.run_campaign', [['sleep:0.2#a']],
       {'options': {'fleet': 'listen', 'obs': False}, 'sweep': None}]],
     []),
    ("campaign --listen 127.0.0.1:7900 'sleep:0.2#a'", None,
     [['api.run_campaign', [['sleep:0.2#a']],
       {'options': {'fleet': 'listen:127.0.0.1:7900', 'obs': False},
        'sweep': None}]],
     []),
    ('campaign --fleet h:1,h:2 --max-attempts 3', None,
     [['api.run_campaign', [None],
       {'options': {'fleet': 'h:1,h:2', 'max_attempts': 3, 'obs': False},
        'sweep': None}]],
     []),
    ('campaign --fleet h:1 --listen', None,
     [['api.run_campaign', [None],
       {'options': {'fleet': 'listen', 'obs': False}, 'sweep': None}]],
     []),
    ('campaign --sweep mini fig4_6', 2, [], []),
    ('campaign --workers 0', 2, [], []),
    ('campaign --workers x', 2, [], []),
    ('campaign --max-attempts x', 2, [], []),
    ('campaign --no-cache --results --obs --no-obs fig4_6', None,
     [['api.run_campaign', [['fig4_6']],
       {'options': {'obs': False, 'use_cache': False}, 'sweep': None}]],
     []),
    ('campaign --obs fig4_6 --results-db', None,
     [['api.run_campaign', [['fig4_6']],
       {'options': {'obs': True, 'results_db': '.repro-results.db'},
        'sweep': None}]],
     []),
    ('campaign --json-out --report-out fig4_6', None,
     [['api.run_campaign', [None],
       {'options': {'obs': False}, 'sweep': None}]],
     []),
    ('serve', None,
     [['ServeConfig', [],
       {'cache_dir': None,
        'host': '127.0.0.1',
        'pool_workers': 4,
        'port': 0,
        'queue_limit': 64,
        'results_db': None,
        'spans': True}]],
     []),
    ('serve --host 0.0.0.0 --port 8080 --workers 2 --queue-limit 8 '
     '--cache-dir --results-db r.db --no-obs',
     None,
     [['ServeConfig', [],
       {'cache_dir': '.repro-serve-cache',
        'host': '0.0.0.0',
        'pool_workers': 2,
        'port': 8080,
        'queue_limit': 8,
        'results_db': 'r.db',
        'spans': False}]],
     []),
    ('serve --cache-dir c --results-db', None,
     [['ServeConfig', [],
       {'cache_dir': 'c',
        'host': '127.0.0.1',
        'pool_workers': 4,
        'port': 0,
        'queue_limit': 64,
        'results_db': '.repro-results.db',
        'spans': True}]],
     []),
    ('serve --port x', 2, [], []),
    ('serve --bench', 2, [], []),
    ('serve --seed 7', 2, [], []),
    ('serve --json-out', 2, [], []),
    ('serve extra', 2, [], []),
    ("fleet worker --connect 127.0.0.1:1 --name w0 --cache-dir '' --chaos "
     'kill@2',
     None,
     [['run_worker', [],
       {'cache_dir': '',
        'chaos': 'kill@2',
        'connect': '127.0.0.1:1',
        'connect_attempts': 25,
        'listen': None,
        'name': 'w0'}]],
     []),
    ('fleet worker --listen h:1 --retries 3', None,
     [['run_worker', [],
       {'cache_dir': None,
        'chaos': None,
        'connect': None,
        'connect_attempts': 3,
        'listen': 'h:1',
        'name': None}]],
     []),
    ('fleet worker --retries x', 2, [], []),
    ('fleet worker --connect', 2, [], []),
    ('fleet echo', 2, [], []),
    ('fleet echo --once --listen nonsense', 2, [], []),
    ('report --quick', 0, [['generate_report', [], {'quick': True}]], []),
    ('report out.md --quick', 0,
     [['write_report', ['out.md'], {'quick': True}]], []),
    ('report a.md b.md', 2, [], []),
    ('results ingest --serve-slo x', 2, [], []),
    ('results ingest --bench x', 2, [], []),
    ('results trajectory', 2, [], []),
]


@pytest.mark.parametrize(
    "line, status, calls, files", PARSE_TABLE,
    ids=[row[0] for row in PARSE_TABLE],
)
def test_parse_equivalence(line, status, calls, files, monkeypatch,
                           tmp_path, capsys):
    argv = shlex.split(line)
    assert outcome(argv, monkeypatch, tmp_path) == [status, calls, files]
    if status == 2:
        # Usage errors are one "<cmd>: ..." line on stderr; a removed
        # subcommand is diagnosed by its group.
        cmd = (" ".join(argv[:2]) if argv[0] in ("fleet", "results")
               else argv[0])
        err = capsys.readouterr().err
        assert (err.startswith(f"{cmd}: ") or "unknown experiment" in err
                or err.startswith(
                    f"{argv[0]}: unknown subcommand {argv[1]!r}"))


# ----------------------------------------------------------------------
# (b) every subcommand answers -h / --help with every flag it takes
# ----------------------------------------------------------------------

FLAGS = {
    "report": ["--quick"],
    "run": ["--obs", "--no-obs", "--cache-dir", "--results-db"],
    "profile": ["--trace-out", "--metrics-out", "--flamegraph-out",
                "--results-db"],
    "guard": ["--policy", "--buddy-every", "--report-out"],
    "campaign": ["--sweep", "--workers", "--cache-dir", "--resume", "--obs",
                 "--no-obs", "--no-cache", "--report-out", "--json-out",
                 "--results", "--results-db", "--fleet", "--listen",
                 "--max-attempts"],
    "serve": ["--host", "--port", "--workers", "--queue-limit",
              "--cache-dir", "--results-db", "--no-obs"],
    "fleet worker": ["--connect", "--listen", "--cache-dir", "--name",
                     "--chaos", "--retries"],
    "fleet echo": ["--listen", "--once"],
    "results ingest": ["--db", "--cache-dir", "--git-sha", "--json"],
    "results query": ["--db", "--param", "--json"],
    "results runs": ["--db", "--ident", "--source", "--json"],
    "results prune": ["--cache-dir", "--db", "--older-than", "--dry-run",
                      "--json"],
}


@pytest.mark.parametrize("spelling", ["-h", "--help"])
@pytest.mark.parametrize("cmd", FLAGS)
def test_help_exits_0_and_lists_every_flag(cmd, spelling, capsys):
    assert _exit_code(cmd.split() + [spelling]) == 0
    out = capsys.readouterr().out
    assert [flag for flag in FLAGS[cmd] if flag not in out] == []


def test_top_level_help_lists_subcommands_and_experiments(capsys):
    assert _exit_code(["-h"]) == 0
    out = capsys.readouterr().out
    assert "Experiments:" in out and "table8" in out
    for cmd in FLAGS:
        assert cmd.split()[0] in out


# ----------------------------------------------------------------------
# (c) no parser accepts a flag prefix
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv, token",
    [
        (["results", "runs", "--ide", "fig1"], "--ide"),
        (["results", "ingest", "--cache", "d"], "--cache"),
        (["campaign", "--work", "2"], "--work"),
        (["serve", "--queue", "3"], "--queue"),
    ],
    ids=["results-runs", "results-ingest", "campaign", "serve"],
)
def test_flag_prefix_exits_2_naming_the_token(argv, token, capsys):
    assert _exit_code(argv) == 2
    assert repr(token) in capsys.readouterr().err


def test_differential_runner_rejects_a_flag_prefix(capsys):
    from repro.verify.differential import main as differential_main

    with pytest.raises(SystemExit) as exit_info:
        differential_main(["--pair", "engine-fast-vs-general"])
    assert exit_info.value.code == 2
    assert "'--pair'" in capsys.readouterr().err


def _run_tool(name, *args):
    tool = os.path.join(os.path.dirname(__file__), "..", "..", "tools", name)
    return subprocess.run([sys.executable, tool, *args],
                          capture_output=True, text=True)


def test_sample_profile_rejects_a_flag_prefix():
    # `--mem` must not be read as --memory and profile a workload.
    proc = _run_tool("sample_profile.py", "--mem")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "'--mem'" in proc.stderr


# ----------------------------------------------------------------------
# (d) value errors still name what was expected
# ----------------------------------------------------------------------

def test_guard_unknown_policy_names_the_valid_ones(capsys):
    assert _exit_code(["guard", "--policy", "nope"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("guard: ") and "rollback_retry" in err


def test_serve_port_out_of_range_exits_2(capsys):
    assert _exit_code(["serve", "--port", "70000"]) == 2
    assert (capsys.readouterr().err
            == "serve: port must be in [0, 65535], got 70000\n")


# ----------------------------------------------------------------------
# (e) the documented command lines parse (tools/check_cli_docs.py)
# ----------------------------------------------------------------------

def test_every_documented_command_line_parses():
    proc = _run_tool("check_cli_docs.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_docs_checker_rejects_a_removed_flag(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("```bash\npython -m repro campaign --sweep mini \\\n"
                   "    --fast --workers 2   # comment\n```\n"
                   "and `python -m repro\nresults runs --ident x` inline\n")
    proc = _run_tool("check_cli_docs.py", str(doc))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "campaign: unknown option '--fast'" in proc.stdout
    assert "2 command line(s) checked, 1 rejected" in proc.stdout


def test_sample_profile_unit_must_belong_to_the_workload():
    proc = _run_tool("sample_profile.py", "--workload", "filter_tables",
                     "--unit", "table8@4x4", "--unit", "bigmesh@32x40")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stderr.startswith("sample_profile.py: ")
    assert "bigmesh@32x40" in proc.stderr
    assert "valid: table8@4x4, table8@4x8, table8@8x8, table10@4x4" in proc.stderr


def test_docs_checker_parses_sample_profile_lines(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("`python tools/sample_profile.py --workload filter_tables\n"
                   "--unit table8@4x4 --passes 2`, and\n```bash\n"
                   "python tools/sample_profile.py --workload engine_scale "
                   "--unit table8@4x4\n```\n")
    proc = _run_tool("check_cli_docs.py", str(doc))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "not a unit of engine_scale: table8@4x4" in proc.stdout
    assert "2 command line(s) checked, 1 rejected" in proc.stdout


def test_docs_checker_accepts_the_sample_profile_memory_flag(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("`python tools/sample_profile.py --workload engine_scale "
                   "--passes 1 --top 5 --memory`, not `python "
                   "tools/sample_profile.py --workload engine_scale --mem`\n")
    proc = _run_tool("check_cli_docs.py", str(doc))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "--mem" in proc.stdout and "--memory" not in proc.stdout
    assert "2 command line(s) checked, 1 rejected" in proc.stdout
