"""Coordinated checkpoint/restart of the parallel AGCM under faults.

A checkpoint is *step-consistent*: every rank's
:class:`~repro.model.snapshot.RankSnapshot` of the same step funnels to
rank 0 through a binomial gather (real messages, real cost), and rank 0
writes them to one lossless ``.npz`` archive, charged at the
:func:`~repro.model.snapshot.io_seconds` host-I/O rate.  A snapshot
holds both leapfrog levels, the physics forcing and the balancer's
state, so a restarted integration replays the remaining steps
bit-for-bit — what the fault-recovery differential pair asserts.

The restart loop is :func:`repro.guard.supervisor.run_agcm_guarded`:
with ``GuardConfig(detect=False, buddy_every=0)`` it is plain
checkpoint/restart — when an injected rank failure aborts the
simulation it restarts from the last :class:`Checkpointer` snapshot
(cold-start from step 0 if none exists) with that failure consumed, so
a transient fault does not re-fire when virtual clocks reset.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.grid.decomposition import Decomposition
from repro.model.snapshot import RankSnapshot, io_seconds
from repro.parallel import collectives as coll

_TAG_CKPT_BARRIER = 0x00EE0002


class CheckpointCorruptError(RuntimeError):
    """A checkpoint file failed to load or verify.

    Raised by :func:`load_checkpoint` for anything from a truncated
    archive to a content-checksum mismatch — one clear exception instead
    of whatever numpy/zipfile error the corruption happened to trigger.
    The recovery loop treats it as "no checkpoint" (cold start) rather
    than dying mid-recovery.
    """

    def __init__(self, path, reason: str):
        super().__init__(f"checkpoint {path} is corrupt: {reason}")
        self.path = str(path)
        self.reason = reason


def _content_checksum(arrays: Dict[str, np.ndarray]) -> int:
    """CRC-32 over every array's name, dtype, shape and bytes.

    Deterministic (sorted key order) so save and load agree regardless
    of dict ordering.
    """
    crc = 0
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        header = f"{name}:{a.dtype.str}:{a.shape}".encode()
        crc = zlib.crc32(header, crc)
        crc = zlib.crc32(a.tobytes(), crc)
    return crc


@dataclass
class CheckpointData:
    """A step-consistent disk checkpoint: every rank's snapshot, in order."""

    snapshots: List[RankSnapshot]

    @property
    def step(self) -> int:
        return self.snapshots[0].step

    @property
    def nbytes(self) -> int:
        """Array bytes of every rank's snapshot (the host-I/O charge)."""
        return sum(s.nbytes for s in self.snapshots)

    def restore(self, ctx, decomp: Decomposition):
        """Generator: rank 0 charges the host read and scatters snapshots.

        Returns this rank's :class:`RankSnapshot`.  Raises ``ValueError``
        before any message if ``decomp`` is not the mesh the checkpoint
        was written on.
        """
        self._check_mesh(ctx.rank, decomp)
        if ctx.rank == 0:
            yield from ctx.compute(seconds=io_seconds(self.nbytes))
            payloads = [vars(s.copy()) for s in self.snapshots]
            mine = yield from ctx.scatter(payloads, root=0)
        else:
            mine = yield from ctx.scatter(None, root=0)
        return RankSnapshot(**mine)

    def _check_mesh(self, rank: int, decomp: Decomposition) -> None:
        def blocks(shapes):
            return ", ".join(sorted({f"{a}x{b}" for a, b in shapes}))

        have = [s.forcing_pt.shape[:2] for s in self.snapshots]
        size, sub = decomp.mesh.size, decomp.subdomain(rank)
        if len(have) == size and have[rank] == (sub.nlat, sub.nlon):
            return
        want = [(s.nlat, s.nlon) for s in map(decomp.subdomain, range(size))]
        raise ValueError(
            f"cannot resume a checkpoint of {len(have)} ranks (blocks "
            f"{blocks(have)}) on the {decomp.mesh.describe()} mesh "
            f"({size} ranks, blocks {blocks(want)})"
        )


def save_checkpoint(path, data: CheckpointData) -> Path:
    """Write every rank's snapshot to ``path`` as one lossless ``.npz``.

    Rank ``r``'s arrays are stored as ``"{r}/now_u"`` and so on, and the
    metadata records a CRC-32 content checksum over every array.  The
    archive is written to ``path + ".tmp"``, synced and renamed over
    ``path``, so a save that dies part-way leaves the previous one intact.
    """
    path = Path(path)
    arrays = {
        f"{r}/{key}": a
        for r, snap in enumerate(data.snapshots)
        for key, a in snap.arrays().items()
    }
    meta = {
        "step": data.step,
        "time": data.snapshots[0].time,
        "counters": [s.counters for s in data.snapshots],
        "checksum": _content_checksum(arrays),
    }
    arrays["meta"] = np.array(json.dumps(meta))
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_checkpoint(path) -> CheckpointData:
    """Read and verify a checkpoint written by :func:`save_checkpoint`.

    Raises :class:`CheckpointCorruptError` on a truncated or otherwise
    unreadable archive, on missing keys, and on a content-checksum
    mismatch — never an opaque numpy/zipfile error mid-recovery.  A
    genuinely missing file still raises ``FileNotFoundError`` (that is
    a different condition: nothing was ever written).
    """
    try:
        with np.load(path, allow_pickle=False) as z:
            meta = json.loads(str(z["meta"]))
            arrays = {
                key: z[key].copy() for key in z.files if key != "meta"
            }
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise CheckpointCorruptError(
            path, f"unreadable archive ({type(exc).__name__}: {exc})"
        ) from exc
    stored = meta.get("checksum")
    if stored is None:
        raise CheckpointCorruptError(path, "no content checksum in metadata")
    actual = _content_checksum(arrays)
    if actual != stored:
        raise CheckpointCorruptError(
            path,
            f"content checksum mismatch (stored {stored}, computed {actual})",
        )
    try:
        blocks: List[Dict[str, np.ndarray]] = [{} for _ in meta["counters"]]
        for key, a in arrays.items():
            rank, name = key.split("/")
            blocks[int(rank)][name] = a
        for c in meta["counters"]:
            if c.get("measure") is not None:
                c["measure"] = tuple(c["measure"])
        return CheckpointData([
            RankSnapshot.from_arrays(b, time=float(meta["time"]),
                                     step=int(meta["step"]), counters=c)
            for b, c in zip(blocks, meta["counters"])
        ])
    except (AttributeError, IndexError, KeyError, TypeError,
            ValueError) as exc:
        raise CheckpointCorruptError(
            path, f"malformed contents ({type(exc).__name__}: {exc})"
        ) from exc


class Checkpointer:
    """Periodic coordinated checkpoints every ``every`` steps.

    One instance is shared by all rank programs of a run (rank 0 is the
    only writer).  The file at ``path`` always holds the most recent
    snapshot; :meth:`load` returns it for a restart.
    """

    def __init__(self, every: int, path):
        if every <= 0:
            raise ValueError(f"checkpoint interval must be positive, got {every}")
        self.every = every
        self.path = Path(path)
        if self.path.suffix != ".npz":
            self.path = self.path.with_suffix(self.path.suffix + ".npz")
        self.written = 0
        self.last_step: Optional[int] = None

    def due(self, step: int, nsteps: int) -> bool:
        """Checkpoint after ``step``?  (Never after the final step — a
        snapshot nothing could restart into is pure overhead.)"""
        done = step + 1
        return done % self.every == 0 and done < nsteps

    def load(self) -> Optional[CheckpointData]:
        """The most recent checkpoint, or None if nothing was written."""
        if not self.written:
            return None
        return load_checkpoint(self.path)

    def save(self, ctx, snap: RankSnapshot):
        """Generator: gather every rank's snapshot to rank 0 and write.

        All ranks synchronise on a barrier afterwards — the coordinated
        checkpoint is a global pause whose cost (gather messages plus
        rank-0 host write) lands in the ``"checkpoint"`` trace phase.
        """
        gathered = yield from coll.gather_binomial(
            ctx, {**snap.arrays(), "counters": snap.counters}, root=0)
        if ctx.rank == 0:
            data = CheckpointData([
                RankSnapshot.from_arrays(
                    p, time=snap.time, step=snap.step, counters=p["counters"])
                for p in gathered
            ])
            save_checkpoint(self.path, data)
            self.written += 1
            self.last_step = snap.step
            yield from ctx.compute(seconds=io_seconds(data.nbytes))
        yield from ctx.barrier(tag=_TAG_CKPT_BARRIER)
