"""``python -m repro fleet ...``: worker processes and transport tools.

``fleet worker`` is one execution worker of a distributed campaign; it
may start before its coordinator (``--connect`` retries with backoff).
``fleet echo`` reflects every frame back verbatim, for the two-process
codec test and as a connectivity probe: anything it returns survived a
real encode/decode round trip over TCP.

``python -m repro fleet <worker|echo> --help`` lists the flags.
"""

from __future__ import annotations

import argparse
import socket
import sys

from repro.fleet.frames import (
    DEFAULT_MAX_BYTES,
    FrameError,
    read_frame,
    send_frame,
)
from repro.util.cli import Command, StrictParser, run_command

__all__ = ["main"]


def _declare_worker(p: StrictParser) -> None:
    from repro.fleet.worker import CONNECT_ATTEMPTS

    p.add_argument("--connect", metavar="HOST:PORT",
                   help="dial the campaign coordinator here")
    p.add_argument("--listen", metavar="HOST:PORT",
                   help="wait here to be dialed by `campaign --fleet`")
    p.add_argument("--cache-dir", metavar="PATH",
                   help="result store (default: the one the coordinator's "
                   "welcome frame names)")
    p.add_argument("--name", help="worker name in reports and events")
    p.add_argument("--chaos", metavar="SPEC",
                   help='scripted failures for resilience testing: '
                   '"kill@2", "disconnect@1,hang@3", "seed=7:p=0.05"')
    p.add_argument("--retries", type=int, default=CONNECT_ATTEMPTS,
                   metavar="N", help="--connect attempts "
                   "(default: %(default)s)")


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.fleet.worker import run_worker

    try:
        return run_worker(connect=args.connect, listen=args.listen,
                          cache_dir=args.cache_dir, name=args.name,
                          chaos=args.chaos, connect_attempts=args.retries)
    except ValueError as exc:
        print(f"fleet worker: {exc}", file=sys.stderr)
        return 2


def _declare_echo(p: StrictParser) -> None:
    p.add_argument("--listen", metavar="HOST:PORT", required=True,
                   help="bind address (port 0 picks a free port)")
    p.add_argument("--once", action="store_true",
                   help="exit after the first connection closes")


def _cmd_echo(args: argparse.Namespace) -> int:
    from repro.fleet.config import parse_address

    try:
        host, port = parse_address(args.listen)
    except ValueError as exc:
        print(f"fleet echo: {exc}", file=sys.stderr)
        return 2
    server = socket.create_server((host, port))
    bound = server.getsockname()
    print(f"echo listening on {bound[0]}:{bound[1]}", flush=True)
    try:
        while True:
            sock, _peer = server.accept()
            try:
                while True:
                    kind, payload = read_frame(
                        sock, max_bytes=DEFAULT_MAX_BYTES, timeout=30.0
                    )
                    send_frame(sock, kind, payload)
            except (EOFError, FrameError, OSError):
                pass
            finally:
                sock.close()
            if args.once:
                return 0
    except KeyboardInterrupt:
        return 130
    finally:
        server.close()


COMMANDS = {
    "worker": Command("one execution worker of a distributed campaign",
                      _declare_worker, _cmd_worker),
    "echo": Command("frame echo server (codec test, connectivity probe)",
                    _declare_echo, _cmd_echo),
}


def main(rest: list) -> int:
    # A bare `fleet` prints the help and exits 0, as it always has.
    return run_command(COMMANDS, rest or ["--help"], "fleet", __doc__)
