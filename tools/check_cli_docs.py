#!/usr/bin/env python
"""Docs checker: every documented command line parses, every path exists.

Extracts the command lines of README.md, DESIGN.md, EXPERIMENTS.md,
docs/*.md and the CI workflow (or of the files given), parses each with
the parser the CLI itself would build for it — nothing is executed — and
reports rejected flags, unknown subcommands, experiments, campaign
selectors and sweeps.  The ``python tools/sample_profile.py ...`` lines
are checked the same way, unit labels included.

In the Markdown files, every backticked path (one with a ``/`` that ends
in ``/`` or names a file with an extension) must exist under the repo
root, ``src/`` or ``src/repro/``; a ``path:line`` (or ``path:first-last``)
must not run past the end of its file; and a ``path::Class::test_name``
id must name a test the file defines.

Exit codes: 0 = every command line parses and every path resolves,
1 = at least one does not.

Usage::

    python tools/check_cli_docs.py            # the default file set
    python tools/check_cli_docs.py FILE ...   # these files only
"""

from __future__ import annotations

import ast
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


_PATH = re.compile(
    r"`(?P<path>[\w.\-]+(?:/[\w.\-]*)+)"
    r"(?::(?P<first>\d+)(?:[-\u2013](?P<last>\d+))?|::(?P<test>[\w:\[\].\-]+))?`")
_ROOTS = ("", "src", os.path.join("src", "repro"))


def _test_defined(path, test_id):
    """Whether ``Class::test`` (or ``test``) names a test in *path*."""
    with open(path, encoding="utf-8") as fh:
        body = ast.parse(fh.read()).body
    for name in re.sub(r"\[.*?\]", "", test_id).split("::"):
        found = [node for node in body if getattr(node, "name", None) == name]
        if not found:
            return False
        body = getattr(found[0], "body", [])
    return True


def path_problems(text: str):
    """Why each backticked path of *text* does not resolve."""
    for match in _PATH.finditer(text):
        rel = match.group("path")
        last = rel.rstrip("/").rsplit("/", 1)[-1]
        if not (rel.endswith("/") or "." in last.lstrip(".")):
            continue  # a ratio such as `s/day`, not a path
        found = [os.path.join(_REPO_ROOT, root, rel) for root in _ROOTS
                 if os.path.exists(os.path.join(_REPO_ROOT, root, rel))]
        if not found:
            yield f"`{rel}` does not exist"
            continue
        if match.group("first"):
            line = int(match.group("last") or match.group("first"))
            with open(found[0], encoding="utf-8") as fh:
                length = sum(1 for _ in fh)
            if line > length:
                yield f"`{match.group(0)[1:-1]}` is past the end " \
                      f"({length} lines)"
        if match.group("test") and not _test_defined(found[0],
                                                     match.group("test")):
            yield f"`{match.group(0)[1:-1]}` names no test"


def main(argv=None) -> int:
    parser = StrictParser("check_cli_docs.py",
                          prog="python tools/check_cli_docs.py",
                          description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", metavar="FILE",
                        help="default: README.md, DESIGN.md, EXPERIMENTS.md, "
                             "docs/*.md, the CI workflow")
    paths = parser.parse_args(argv).files or [
        *(os.path.join(_REPO_ROOT, name)
          for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")),
        *sorted(glob.glob(os.path.join(_REPO_ROOT, "docs", "*.md"))),
        os.path.join(_REPO_ROOT, ".github", "workflows", "ci.yml"),
    ]
    checks = (("python -m repro", _REPRO, rejection),
              ("python tools/sample_profile.py", _SAMPLE_PROFILE,
               sample_profile_rejection))
    checked = rejected = dangling = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if path.endswith(".md"):
            for why in path_problems(text):
                dangling += 1
                print(f"{os.path.relpath(path)}: {why}")
        for command, patterns, reject in checks:
            for line in command_lines(text, patterns):
                checked += 1
                why = reject(line)
                if why:
                    rejected += 1
                    print(f"{os.path.relpath(path)}: {command} "
                          f"{shlex.join(line)}\n    {why}")
    print(f"{checked} command line(s) checked, {rejected} rejected; "
          f"{dangling} dangling path(s)")
    return 1 if rejected or dangling else 0


if __name__ == "__main__":
    raise SystemExit(main())
