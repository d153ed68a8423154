"""The one flag-parser type behind every command line of this repo.

``python -m repro <cmd>``, ``python -m repro.verify.differential`` and
the scripts in ``tools/`` declare their flags on a :class:`StrictParser`;
:func:`run_command` dispatches ``argv[0]`` over a registry of
:class:`Command` entries and builds only the invoked subcommand's
parser, so a declaration may import what its defaults and help need.
"""

from __future__ import annotations

import argparse
from typing import Callable, List, Mapping, NamedTuple, Optional

__all__ = ["Command", "StrictParser", "parse_command", "run_command",
           "usage_table"]


class StrictParser(argparse.ArgumentParser):
    """``argparse`` that takes no flag prefix (``--work`` for
    ``--workers``) and no leftover token: either is one ``"<cmd>: ..."``
    line naming the token on stderr and exit status 2.  Positionals and
    flags interleave (``run fig1 --obs table8``).

    *cmd* is the subcommand path (``"run"``, ``"fleet worker"``).
    """

    def __init__(self, cmd: str, *, prog: Optional[str] = None, **kwargs):
        super().__init__(prog=prog or f"python -m repro {cmd}",
                         allow_abbrev=False, **kwargs)
        self.cmd = cmd

    def error(self, message: str):
        self.exit(2, f"{self.cmd}: {message}\n")

    def parse_args(self, args=None, namespace=None):
        parsed, extra = self.parse_known_intermixed_args(args, namespace)
        if extra:
            kind = ("unknown option" if extra[0].startswith("-")
                    else "unexpected argument")
            self.error(f"{kind} {extra[0]!r}")
        return parsed

    def add_optional(self, flag: str, const: str, help: str,
                     metavar: str = "PATH") -> None:
        """``flag [VALUE]``: ``None`` when absent, *const* when bare or
        given an empty value.  (A bare flag takes the next token as its
        value unless that token is itself a flag.)"""
        self.add_argument(flag, nargs="?", const=const, metavar=metavar,
                          type=lambda value: value or const,
                          help=f"{help} (bare flag: {const})")


class Command(NamedTuple):
    """One subcommand: a help line, its flag declarations, its handler."""

    summary: str
    declare: Callable[[StrictParser], None]
    handler: Callable[[argparse.Namespace], int]


def usage_table(commands: Mapping[str, str], group: str = "") -> str:
    """``python -m repro [group] <name>  summary`` lines, one per entry."""
    stem = f"python -m repro {group}".rstrip()
    width = max(len(name) for name in commands)
    return "\n".join(f"  {stem} {name:{width}s}  {summary}"
                     for name, summary in commands.items())


def parse_command(commands: Mapping[str, Command], argv: List[str],
                  group: str = "") -> argparse.Namespace:
    """``argv[1:]`` parsed by subcommand ``argv[0]``'s parser.  Raises
    ``SystemExit``: 2 on a usage error, 0 after ``--help``."""
    if not argv or argv[0] not in commands:
        what = (f"unknown subcommand {argv[0]!r}" if argv
                else "a subcommand is required")
        StrictParser(group).error(f"{what} (one of {', '.join(commands)})")
    command = commands[argv[0]]
    parser = StrictParser(f"{group} {argv[0]}".strip(),
                          description=command.summary)
    command.declare(parser)
    return parser.parse_args(argv[1:])


def run_command(commands: Mapping[str, Command], argv: List[str],
                group: str = "", doc: str = "") -> int:
    """Run subcommand ``argv[0]`` on ``argv[1:]``; ``-h`` in its place
    prints *doc* and the group's table."""
    if argv[:1] in (["-h"], ["--help"]):
        print(doc)
        print(usage_table({n: c.summary for n, c in commands.items()},
                          group))
        return 0
    try:
        args = parse_command(commands, argv, group)
    except SystemExit as exc:
        return int(exc.code or 0)
    return commands[argv[0]].handler(args)
