"""Every CLI subcommand must reject unknown flags with exit code 2.

Regression sweep for the silent-flag-drop class of bug: a mistyped
option (``--nsteps`` for ``--steps``) that is ignored instead of
rejected silently runs the wrong experiment.  The contract pinned here
is uniform across the hand-rolled parsers in ``repro.__main__`` /
``repro.fleet.cli`` and the argparse-based ones (``repro.results.cli``,
``tools/``): unknown options terminate with status 2 before any work
starts.
"""

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
