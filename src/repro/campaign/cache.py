"""Content-addressed on-disk result store for campaign work units.

Every completed unit is memoized under a key that hashes *what produced
it*: the experiment identifier, the canonicalized parameter point, and
the ``repro`` package version.  Re-running a campaign therefore replays
only invalidated units — a code release (version bump) or a changed
parameter point changes the key; everything else is a hit, loaded
bit-for-bit from disk.

Layout under the cache root::

    <root>/
      manifest.json          # last campaign plan (used by --resume)
      ab/
        ab3f...e2.pkl        # pickled unit result (atomic tmp+rename)
        ab3f...e2.json       # sidecar: unit_meta (ident, point, params,
                             #   duration, version, worker, host) plus
                             #   key, created_at, bytes, result_sha256

Values are stored with :mod:`pickle` (results are numpy-laden Python
objects); sidecars are JSON so the store can be inspected — and the
original compute duration recovered for serial-time estimates — without
unpickling anything.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import socket
import tempfile
from datetime import datetime, timezone
from typing import Any, Dict, Iterator, Optional, Tuple

from repro import __version__

__all__ = ["ResultCache", "cache_key", "canonical_params", "unit_meta"]


def canonical_params(obj: Any) -> Any:
    """A JSON-able canonical form of a parameter structure.

    Tuples become lists, mappings are sorted by key, numpy scalars
    collapse to Python numbers — so that two points that would drive a
    runner identically always hash identically, regardless of how their
    options were spelled.
    """
    if isinstance(obj, dict):
        return {str(k): canonical_params(obj[k]) for k in sorted(obj)}
    if isinstance(obj, (list, tuple)):
        return [canonical_params(v) for v in obj]
    if isinstance(obj, (str, bool)) or obj is None:
        return obj
    if isinstance(obj, (int, float)):
        return obj
    item = getattr(obj, "item", None)  # numpy scalars
    if callable(item):
        return canonical_params(item())
    raise TypeError(
        f"parameter value {obj!r} ({type(obj).__name__}) is not "
        f"cacheable; points must be built from primitives, strings and "
        f"tuples"
    )


def cache_key(ident: str, params: Any, version: str) -> str:
    """SHA-256 over (experiment ident, canonical params, repro version)."""
    doc = json.dumps(
        {"ident": ident, "params": canonical_params(params),
         "version": version},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def unit_meta(unit, seconds: float, worker,
              host: Optional[str] = None) -> Dict[str, Any]:
    """The sidecar ``meta`` of an executed unit — the only recipe for one.

    One schema for every executor: ``worker`` is the campaign worker
    index, or ``"serve"`` for the gateway pool (how the result index
    tells the two sources apart); ``host`` is the executing
    ``hostname:pid``, this process's unless given (a fleet coordinator
    storing what a worker reported).
    """
    return {
        "ident": unit.ident,
        "point": unit.point.label,
        "params": canonical_params(unit.point.as_dict()),
        "duration": seconds,
        "version": __version__,
        "worker": worker,
        "host": host or f"{socket.gethostname()}:{os.getpid()}",
    }


class ResultCache:
    """Content-addressed pickle store with JSON sidecars.

    Writes are atomic (tempfile + ``os.replace`` in the same directory),
    so a campaign killed mid-write never leaves a torn entry behind —
    at worst the unit is simply absent and recomputed on resume.
    """

    def __init__(self, root: str) -> None:
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)

    # -- paths ----------------------------------------------------------
    def _paths(self, key: str) -> Tuple[str, str]:
        shard = os.path.join(self.root, key[:2])
        return (os.path.join(shard, key + ".pkl"),
                os.path.join(shard, key + ".json"))

    def contains(self, key: str) -> bool:
        return os.path.exists(self._paths(key)[0])

    # -- read/write -----------------------------------------------------
    def get(self, key: str) -> Optional[Any]:
        """The stored value, or None on a miss (or an unreadable entry)."""
        pkl, _ = self._paths(key)
        try:
            with open(pkl, "rb") as fh:
                return pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError):
            return None

    def meta(self, key: str) -> Dict[str, Any]:
        """The JSON sidecar for ``key`` (empty dict when absent)."""
        _, sidecar = self._paths(key)
        try:
            with open(sidecar, encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError):
            return {}

    def put(self, key: str, value: Any, meta: Optional[Dict] = None) -> None:
        """Store ``value`` (and its sidecar) atomically under ``key``.

        The sidecar is stamped with provenance at put-time —
        ``created_at`` (UTC), payload ``bytes`` and ``result_sha256``
        (the hash of the pickled payload, same recipe as the gateway's
        bit-identity witness) — so the result index can ingest an entry
        without unpickling anything.
        """
        pkl, sidecar = self._paths(key)
        os.makedirs(os.path.dirname(pkl), exist_ok=True)
        payload = pickle.dumps(value, protocol=4)
        self._atomic_write(pkl, payload)
        doc = dict(meta or {})
        doc["key"] = key
        doc["created_at"] = datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        )
        doc["bytes"] = len(payload)
        doc["result_sha256"] = hashlib.sha256(payload).hexdigest()
        self._atomic_write(
            sidecar,
            json.dumps(doc, sort_keys=True, indent=1).encode("utf-8"),
        )

    @staticmethod
    def _atomic_write(path: str, payload: bytes) -> None:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-", suffix="~"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- inspection -----------------------------------------------------
    def keys(self) -> Iterator[str]:
        """Keys of every complete entry currently in the store."""
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if len(shard) != 2 or not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".pkl"):
                    yield name[: -len(".pkl")]

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    # -- campaign manifest ----------------------------------------------
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, "manifest.json")

    def write_manifest(self, doc: Dict[str, Any]) -> None:
        self._atomic_write(
            self.manifest_path,
            json.dumps(doc, sort_keys=True, indent=1).encode("utf-8"),
        )

    def read_manifest(self) -> Optional[Dict[str, Any]]:
        try:
            with open(self.manifest_path, encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
