#!/usr/bin/env python
"""Docs checker: every documented ``python -m repro ...`` line must parse.

Extracts the command lines of README.md, docs/*.md and the CI workflow
(or of the files given), parses each with the parser the CLI itself
would build for it — nothing is executed — and reports rejected flags,
unknown subcommands, experiments, campaign selectors and sweeps.  The
``python tools/sample_profile.py ...`` lines are checked the same way,
unit labels included.

Exit codes: 0 = every command line parses, 1 = at least one is rejected.

Usage::

    python tools/check_cli_docs.py            # the default file set
    python tools/check_cli_docs.py FILE ...   # these files only
"""

from __future__ import annotations

import contextlib
import glob
import io
import os
import re
import shlex
import sys

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(_REPO_ROOT, "src"),
                os.path.join(_REPO_ROOT, "tools")]

from repro.__main__ import COMMANDS, EXPERIMENTS  # noqa: E402
from repro.campaign.units import describe_sweep, enumerate_units  # noqa: E402
from repro.fleet.cli import COMMANDS as FLEET_COMMANDS  # noqa: E402
from repro.results.cli import COMMANDS as RESULTS_COMMANDS  # noqa: E402
from repro.util.cli import StrictParser, parse_command  # noqa: E402

import sample_profile  # noqa: E402

GROUPS = {"fleet": FLEET_COMMANDS, "results": RESULTS_COMMANDS}


def _patterns(command: str):
    """What follows *command* (not ``python -m repro.verify...``): an
    inline `...` span, which may wrap, or the rest of a code-block line."""
    return (re.compile(rf"`{command}(?![.\w])([^`]*)`"),
            re.compile(rf"^[^`\n]*\b{command}(?![.\w])([^`\n]*)$", re.M))


_REPRO = _patterns(r"python -m repro")
_SAMPLE_PROFILE = _patterns(r"python\s+tools/sample_profile\.py")
_SHELL_OPERATOR = re.compile(r"[|&;<]+|\d?>.*")


def command_lines(text: str, patterns):
    """argv (after the command of *patterns*) of every command line in
    *text*."""
    # Join backslash continuations and the `--flag` lines of a folded
    # YAML `run: >` step onto the line that starts the command.
    text = re.sub(r"\\\n|\n\s+(?=--\w)", " ", text)
    for pattern in patterns:
        for match in pattern.finditer(text):
            argv = shlex.split(re.sub(r"\s#.*", "", match.group(1)))
            for i, token in enumerate(argv):
                if _SHELL_OPERATOR.fullmatch(token):
                    del argv[i:]
                    break
            if argv:
                yield argv


def _unknown_experiments(idents):
    unknown = [ident for ident in idents if ident not in EXPERIMENTS]
    return f"unknown experiment(s) {unknown}" if unknown else None


def _parse_quietly(parse, *args):
    """``(None, parse(*args))``, or what *parse* printed on stderr as it
    exited (None for an exit 0: the line asks for --help) and None."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            return None, parse(*args)
        except SystemExit as exc:
            return (stderr.getvalue().strip() if exc.code else None), None


def sample_profile_rejection(argv):
    """Why ``tools/sample_profile.py`` would refuse *argv*, or None."""
    return _parse_quietly(sample_profile.parse_args, argv)[0]


def rejection(argv):
    """Why the CLI would refuse *argv* before doing any work, or None."""
    if argv[0] in GROUPS:
        commands, group, argv = GROUPS[argv[0]], argv[0], argv[1:]
    elif argv[0] in COMMANDS and argv != ["guard"]:
        commands, group = COMMANDS, ""
    else:  # the bare form: experiment names, or `all`
        return _unknown_experiments([] if argv == ["all"] else argv)
    why, args = _parse_quietly(parse_command, commands, argv, group)
    if args is None:
        return why
    # What the handlers check before any work starts.
    if commands is COMMANDS and argv[0] == "campaign":
        try:
            enumerate_units(args.selectors)
            if args.sweep:
                describe_sweep(args.sweep)
        except (KeyError, ValueError) as exc:
            return f"campaign: {exc.args[0]}"
    if commands is COMMANDS and argv[0] in ("run", "profile"):
        return _unknown_experiments(
            args.idents if argv[0] == "run" else [args.ident])
    return None


def main(argv=None) -> int:
    parser = StrictParser("check_cli_docs.py",
                          prog="python tools/check_cli_docs.py",
                          description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", metavar="FILE",
                        help="default: README.md, docs/*.md, the CI workflow")
    paths = parser.parse_args(argv).files or [
        os.path.join(_REPO_ROOT, "README.md"),
        *sorted(glob.glob(os.path.join(_REPO_ROOT, "docs", "*.md"))),
        os.path.join(_REPO_ROOT, ".github", "workflows", "ci.yml"),
    ]
    checks = (("python -m repro", _REPRO, rejection),
              ("python tools/sample_profile.py", _SAMPLE_PROFILE,
               sample_profile_rejection))
    checked = rejected = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        for command, patterns, reject in checks:
            for line in command_lines(text, patterns):
                checked += 1
                why = reject(line)
                if why:
                    rejected += 1
                    print(f"{os.path.relpath(path)}: {command} "
                          f"{shlex.join(line)}\n    {why}")
    print(f"{checked} command line(s) checked, {rejected} rejected")
    return 1 if rejected else 0


if __name__ == "__main__":
    raise SystemExit(main())
