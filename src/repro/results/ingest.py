"""Idempotent ingestion: a campaign or serve cache dir becomes index rows.

Every ingested run is keyed on its sha256 unit cache key, so
re-ingesting the same cache is a no-op.  The cache holds pickle
payloads with JSON sidecars; the sidecar alone carries everything a
provenance row needs, so ingestion never unpickles a payload, and
:func:`sidecar_row` builds the same row the live hooks record.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.results.db import ResultsDB, _utcnow
from repro.results.provenance import current_git_sha

__all__ = ["IngestStats", "Ingestor"]


@dataclass
class IngestStats:
    """What one ingest pass did to the index."""

    source: str
    path: str
    scanned: int = 0
    #: Rows newly inserted this pass.
    added: int = 0
    #: Records already indexed (the idempotency guarantee at work).
    skipped: int = 0
    errors: List[str] = field(default_factory=list)

    def __str__(self) -> str:
        msg = (f"{self.source} {self.path}: scanned {self.scanned}, "
               f"added {self.added}, already indexed {self.skipped}")
        if self.errors:
            msg += f", {len(self.errors)} error(s)"
        return msg

    def to_json(self) -> Dict[str, Any]:
        return {
            "source": self.source, "path": self.path,
            "scanned": self.scanned, "added": self.added,
            "skipped": self.skipped, "errors": list(self.errors),
        }


def _file_sha256(path: str) -> Optional[str]:
    try:
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        return h.hexdigest()
    except OSError:
        return None


def _mtime_iso(path: str) -> Optional[str]:
    from datetime import datetime, timezone

    try:
        ts = os.path.getmtime(path)
    except OSError:
        return None
    return datetime.fromtimestamp(ts, timezone.utc).isoformat(
        timespec="seconds"
    )


def sidecar_row(key: str, meta: Dict[str, Any],
                payload: Optional[str]) -> Dict[str, Any]:
    """The :meth:`ResultsDB.record_run` keywords of one finished unit.

    ``meta`` is the unit's sidecar (``unit_meta`` plus what
    ``ResultCache.put`` stamps) and ``payload`` the path of its stored
    result, or None for a unit run without a cache.  Every row of a
    cached unit — recorded live by a campaign or a gateway, or ingested
    later — is built here, so all three agree.  A sidecar older than
    put-time stamping gets them from the payload file.
    """
    artifacts = []
    if payload is not None:
        if "result_sha256" not in meta:
            meta = {"created_at": _mtime_iso(payload),
                    "bytes": os.path.getsize(payload),
                    "result_sha256": _file_sha256(payload), **meta}
        artifacts.append((payload, meta["result_sha256"],
                          int(meta["bytes"])))
    point = str(meta.get("point", ""))
    return dict(
        run_key=key, cache_key=key, status="ran",
        source="serve" if meta.get("worker") == "serve" else "campaign",
        ident=str(meta.get("ident", "?")), point=point,
        params=meta.get("params", {"point": point}),
        created_at=meta.get("created_at") or _utcnow(),
        metrics={"duration_seconds": (float(meta["duration"]), "s")}
        if "duration" in meta else {},
        artifacts=artifacts, host=meta.get("host"),
    )


class Ingestor:
    """Walks artifact sources into one :class:`ResultsDB`.

    ``git_sha`` defaults to auto-resolution (env var, then ``git
    rev-parse``); pass an explicit string to pin it, or ``""`` to stamp
    nothing.
    """

    def __init__(self, db: ResultsDB, *,
                 git_sha: Optional[str] = None) -> None:
        self.db = db
        self.git_sha = (current_git_sha() if git_sha is None
                        else (git_sha or None))

    # -- campaign / serve cache dirs ------------------------------------
    def ingest_cache_dir(self, root: str) -> IngestStats:
        """Index every complete entry of a content-addressed cache.

        The unit's sha256 cache key is the run key, so entries written
        by campaigns and by the gateway against the same cache land as
        the same rows no matter who ingests first.
        """
        from repro.campaign.cache import ResultCache

        stats = IngestStats(source="cache", path=str(root))
        if not os.path.isdir(root):
            stats.errors.append(f"not a directory: {root}")
            return stats
        cache = ResultCache(str(root))
        for key in cache.keys():
            stats.scanned += 1
            meta = cache.meta(key)
            if not meta:
                stats.errors.append(f"{key[:12]}: unreadable sidecar")
                continue
            try:
                added = self.db.record_run(
                    git_sha=self.git_sha,
                    **sidecar_row(key, meta, cache._paths(key)[0]))
            except (OSError, TypeError, ValueError) as exc:
                stats.errors.append(f"{key[:12]}: {exc}")
                continue
            if added:
                stats.added += 1
            else:
                stats.skipped += 1
        return stats
