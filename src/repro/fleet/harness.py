"""LocalFleet: spawn a coordinator-plus-workers fleet on localhost.

The chaos tests (the recovery-overhead floor among them) and the CI
``fleet-smoke`` job all need the same scaffolding: a
free port, N worker subprocesses dialing it (each optionally carrying a
scripted :mod:`~repro.fleet.chaos` plan), a :class:`FleetConfig` with
test-scale timeouts, and a teardown that never leaks a process — chaos
``hang`` workers in particular outlive the campaign by design and must
be killed.

Usage::

    with LocalFleet(nworkers=3, chaos={1: "kill@2"},
                    cache_dir=tmp) as fleet:
        report = api.run_campaign(
            ["fig2_3"],
            options=RunOptions(fleet=fleet.config, cache_dir=tmp))

Workers dial with exponential backoff, so spawning them *before* the
coordinator binds is fine — that resolves the bind-order race without
any synchronization.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.fleet.config import FleetConfig

__all__ = ["LocalFleet", "free_port"]

#: Fast-failure-detection knobs for localhost fleets: death is declared
#: in under a second instead of the production-scale 3 s default.
TEST_HEARTBEAT_INTERVAL = 0.1
TEST_HEARTBEAT_TIMEOUT = 0.9
TEST_CONNECT_GRACE = 10.0
TEST_RESCUE_GRACE = 1.0


def free_port(host: str = "127.0.0.1") -> int:
    """An ephemeral port that was free a moment ago.

    The classic bind-then-close probe: a tiny race remains, but workers
    retry-dial and the coordinator fails loudly on a stolen port, so
    the worst case is a rerun, not a hang.
    """
    with socket.socket() as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


def _pythonpath_env() -> Dict[str, str]:
    """Subprocess env with this ``repro`` package importable."""
    src = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    parts = [src] + ([existing] if existing else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


class LocalFleet:
    """Context manager owning N localhost worker subprocesses."""

    def __init__(
        self,
        nworkers: int = 3,
        cache_dir: Optional[str] = None,
        worker_cache_dirs: Optional[Sequence[Optional[str]]] = None,
        chaos: Optional[Dict[int, str]] = None,
        heartbeat_interval: float = TEST_HEARTBEAT_INTERVAL,
        heartbeat_timeout: float = TEST_HEARTBEAT_TIMEOUT,
        connect_grace: float = TEST_CONNECT_GRACE,
        rescue_grace: float = TEST_RESCUE_GRACE,
        max_attempts: int = 3,
        host: str = "127.0.0.1",
        name_prefix: str = "fleet-w",
    ) -> None:
        if nworkers < 1:
            raise ValueError("a fleet needs at least one worker")
        self.nworkers = nworkers
        self.cache_dir = cache_dir
        self.worker_cache_dirs = list(worker_cache_dirs or [])
        self.chaos = dict(chaos or {})  # worker index -> chaos spec
        self.host = host
        self.name_prefix = name_prefix
        self.port = free_port(host)
        self.config = FleetConfig(
            listen=f"{host}:{self.port}",
            heartbeat_interval=heartbeat_interval,
            heartbeat_timeout=heartbeat_timeout,
            connect_grace=connect_grace,
            rescue_grace=rescue_grace,
            max_attempts=max_attempts,
        )
        self.procs: List[subprocess.Popen] = []
        #: Exit codes captured at shutdown, by worker index.
        self.returncodes: List[Optional[int]] = []

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def worker_name(self, index: int) -> str:
        return f"{self.name_prefix}{index}"

    def _worker_cmd(self, index: int) -> List[str]:
        cmd = [sys.executable, "-m", "repro", "fleet", "worker",
               "--connect", self.address,
               "--name", self.worker_name(index)]
        cache = None
        if index < len(self.worker_cache_dirs):
            cache = self.worker_cache_dirs[index]
        elif self.cache_dir is not None:
            cache = self.cache_dir
        # ``is not None``, not truthiness: a worker-specific entry may
        # legitimately be "" / Path(".") and must still be forwarded.
        if cache is not None:
            cmd += ["--cache-dir", str(cache)]
        spec = self.chaos.get(index)
        if spec:
            cmd += ["--chaos", spec]
        return cmd

    def spawn(self) -> "LocalFleet":
        env = _pythonpath_env()
        for i in range(self.nworkers):
            self.procs.append(subprocess.Popen(
                self._worker_cmd(i), env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            ))
        return self

    def __enter__(self) -> "LocalFleet":
        return self.spawn()

    def shutdown(self, grace: float = 3.0) -> None:
        """Reap every worker: wait briefly, then terminate, then kill."""
        deadline = time.monotonic() + grace
        for proc in self.procs:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=1.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.returncodes = [proc.returncode for proc in self.procs]
        self.procs.clear()

    def __exit__(self, *exc) -> None:
        self.shutdown()
