"""Partial-result salvage: completed-but-unreported units are never lost.

Fleet workers follow the campaign's cache-before-report discipline: a
unit's result hits the worker's content-addressed cache *before* the
outcome frame goes to the coordinator.  So when a worker dies, every
unit it finished is still on disk somewhere — the coordinator just
never heard about it.  This module closes that gap, in the idiom of
``results ingest``: walk cache directories **sidecar-first** (the JSON
sidecar is cheap and carries ident/point/duration; the pickle is only
loaded for keys actually owed), and re-report each recovered unit as a
``salvaged`` outcome.

Salvage happens at two moments:

* **on re-queue** — before the coordinator re-dispatches a dead
  worker's in-flight unit, it probes the salvage dirs; a cached unit is
  recovered instead of recomputed (the "0 recomputes" guarantee);
* **on coordinator restart** — worker cache dirs are remembered in
  ``fleet-workers.json`` next to the campaign manifest, so a restarted
  (``--resume``) campaign sweeps them before scheduling anything.

Exactly-once follows from content addressing: a salvaged entry is
copied into the coordinator's cache under its sha256 unit key, so the
next campaign sees a plain cache hit and never recomputes.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.campaign.cache import ResultCache

__all__ = [
    "probe_dirs",
    "remember_worker_dir",
    "remembered_worker_dirs",
    "salvage_value",
]

#: File (next to ``manifest.json``) recording every worker cache dir
#: the coordinator has seen, for salvage on restart.
WORKER_DIRS_FILE = "fleet-workers.json"


def probe_dirs(key: str, dirs: Sequence[str]) -> Optional[str]:
    """The first dir in ``dirs`` holding a complete entry for ``key``.

    Sidecar-first: a directory qualifies only when both the JSON
    sidecar and the pickle payload exist (a torn write has at most one,
    thanks to atomic tmp+rename).
    """
    for root in dirs:
        if not root or not os.path.isdir(root):
            continue
        shard = os.path.join(root, key[:2])
        pkl = os.path.join(shard, key + ".pkl")
        sidecar = os.path.join(shard, key + ".json")
        if os.path.exists(sidecar) and os.path.exists(pkl):
            return root
    return None


def salvage_value(key: str, dirs: Sequence[str],
                  main_cache: Optional[ResultCache]
                  ) -> Optional[Tuple[object, Dict]]:
    """Recover ``key`` from the salvage dirs; replicate into the main
    cache.

    Returns ``(value, sidecar_meta)`` or None when no dir has the
    entry.  The main cache is probed first (a worker sharing the
    coordinator's cache dir is the common same-host case); a hit found
    only in a worker-local dir is copied into the main cache so every
    future campaign replays it as an ordinary hit.
    """
    if main_cache is not None and main_cache.contains(key):
        value = main_cache.get(key)
        if value is not None:
            return value, main_cache.meta(key)
    root = probe_dirs(key, dirs)
    if root is None:
        return None
    donor = ResultCache(root)
    meta = donor.meta(key)
    value = donor.get(key)
    if value is None:  # torn or unreadable payload: not salvageable
        return None
    if main_cache is not None and main_cache.root != donor.root:
        # Re-put the donor's sidecar rather than byte-copy: put()
        # restamps key, created_at, bytes and result_sha256, keeping
        # that recipe authoritative; the unit_meta fields carry over.
        main_cache.put(key, value, meta=meta)
    return value, meta


def remember_worker_dir(cache: Optional[ResultCache],
                        worker_dir: Optional[str]) -> None:
    """Append ``worker_dir`` to the salvage list next to the manifest."""
    if cache is None or not worker_dir:
        return
    worker_dir = os.path.abspath(worker_dir)
    path = os.path.join(cache.root, WORKER_DIRS_FILE)
    dirs = remembered_worker_dirs(cache)
    if worker_dir in dirs or worker_dir == os.path.abspath(cache.root):
        return
    dirs.append(worker_dir)
    cache._atomic_write(
        path, json.dumps({"worker_dirs": dirs},
                         sort_keys=True, indent=1).encode("utf-8")
    )


def remembered_worker_dirs(cache: Optional[ResultCache]) -> List[str]:
    """Worker cache dirs recorded by earlier (or this) coordinator runs."""
    if cache is None:
        return []
    path = os.path.join(cache.root, WORKER_DIRS_FILE)
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return []
    dirs = doc.get("worker_dirs", [])
    return [str(d) for d in dirs if isinstance(d, str)]
