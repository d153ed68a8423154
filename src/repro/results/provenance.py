"""Provenance stamping for ingested rows: which code produced this run?

The index's cross-run comparisons are only trustworthy if every row says
what code produced it.  Campaign/serve sidecars already record the
``repro`` package version inside the cache key; the git commit is the
finer-grained stamp — it distinguishes two working trees at the same
version — and is resolved here in this order:

1. the ``REPRO_GIT_SHA`` environment variable, read on every call (CI
   sets it from the checkout it is testing, so containers without
   ``.git`` still stamp);
2. ``git rev-parse HEAD`` in the relevant directory — one subprocess
   per directory per process: the answer is the commit of the code this
   process is running, and every recorded campaign and ``api.run``
   would otherwise pay ≈ 3 ms for it;
3. ``None`` — provenance-unknown rows are allowed, never fabricated.
"""

from __future__ import annotations

import functools
import os
import subprocess
from typing import Optional

__all__ = ["current_git_sha", "GIT_SHA_ENV"]

GIT_SHA_ENV = "REPRO_GIT_SHA"


def current_git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """The commit stamped on ingested rows, or None when unresolvable."""
    env_sha = os.environ.get(GIT_SHA_ENV)
    if env_sha:
        return env_sha.strip()
    return _rev_parse_head(os.path.abspath(cwd or os.getcwd()))


@functools.lru_cache(maxsize=None)
def _rev_parse_head(cwd: str) -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    sha = proc.stdout.strip()
    return sha or None
