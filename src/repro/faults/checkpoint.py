"""Coordinated checkpoint/restart of the parallel AGCM under faults.

A checkpoint is *step-consistent*: every rank contributes its block of
the prognostic state at the same step boundary, the blocks funnel to
rank 0 through a binomial gather (real messages, real cost), and rank 0
writes one lossless ``.npz`` archive, charged at the
:mod:`repro.model.parallel_io` host-I/O rate.  Because the snapshot
holds *both* leapfrog levels plus the persistent physics forcing and
the balancer's measurement state, a restarted integration replays the
remaining steps bit-for-bit — the property the fault-recovery
differential pair asserts against the fault-free serial model.

The restart loop is :func:`repro.guard.supervisor.run_agcm_guarded`:
with ``GuardConfig(detect=False, buddy_every=0)`` it is plain
checkpoint/restart — when an injected rank failure aborts the
simulation it restarts from the last :class:`Checkpointer` snapshot
(cold-start from step 0 if none exists) with that failure consumed, so
a transient fault does not re-fire when virtual clocks reset.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.dynamics.state import PROGNOSTIC_NAMES
from repro.grid.decomposition import Decomposition2D
from repro.model.config import AGCMConfig
from repro.model.parallel_io import IO_BANDWIDTH, io_read_seconds, io_write_seconds
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
    """One step-consistent global snapshot of the parallel AGCM.

    ``now``/``prev`` are the two leapfrog levels (global arrays),
    ``forcing_pt``/``forcing_q`` the persistent physics forcing, and
    ``counters`` the per-rank restart bookkeeping (load measurement,
    physics-call and column-movement counts).
    """

    step: int
    time: float
    now: Dict[str, np.ndarray]
    prev: Dict[str, np.ndarray]
    forcing_pt: np.ndarray
    forcing_q: np.ndarray
    counters: List[dict]

    def total_nbytes(self) -> int:
        """Bytes of array state in the snapshot (the I/O charge basis)."""
        n = self.forcing_pt.nbytes + self.forcing_q.nbytes
        n += sum(a.nbytes for a in self.now.values())
        n += sum(a.nbytes for a in self.prev.values())
        return int(n)

    def scatter_state(self, ctx, decomp: Decomposition2D,
                      io_bandwidth: float = IO_BANDWIDTH):
        """Generator: rank 0 charges the host read and scatters blocks.

        Returns each rank's restart bundle: local ``now``/``prev``
        fields, forcing blocks, model time, start step and counters.
        """
        if ctx.rank == 0:
            yield from ctx.compute(
                seconds=io_read_seconds(self.total_nbytes(), io_bandwidth)
            )
            blocks_now = {
                n: decomp.scatter(self.now[n]) for n in PROGNOSTIC_NAMES
            }
            blocks_prev = {
                n: decomp.scatter(self.prev[n]) for n in PROGNOSTIC_NAMES
            }
            blocks_fpt = decomp.scatter(self.forcing_pt)
            blocks_fq = decomp.scatter(self.forcing_q)
            payloads = [
                {
                    "now": {
                        n: np.ascontiguousarray(blocks_now[n][r])
                        for n in PROGNOSTIC_NAMES
                    },
                    "prev": {
                        n: np.ascontiguousarray(blocks_prev[n][r])
                        for n in PROGNOSTIC_NAMES
                    },
                    "forcing_pt": np.ascontiguousarray(blocks_fpt[r]),
                    "forcing_q": np.ascontiguousarray(blocks_fq[r]),
                    "time": self.time,
                    "step": self.step,
                    "counters": self.counters[r],
                }
                for r in range(ctx.size)
            ]
            mine = yield from ctx.scatter(payloads, root=0)
        else:
            mine = yield from ctx.scatter(None, root=0)
        return mine


def save_checkpoint(path, data: CheckpointData) -> Path:
    """Write a snapshot to ``path`` as a lossless ``.npz`` archive.

    The metadata records a CRC-32 content checksum over every array so
    :func:`load_checkpoint` can verify integrity before a restart
    trusts the state.
    """
    path = Path(path)
    arrays = {f"now_{n}": data.now[n] for n in PROGNOSTIC_NAMES}
    arrays.update({f"prev_{n}": data.prev[n] for n in PROGNOSTIC_NAMES})
    arrays["forcing_pt"] = data.forcing_pt
    arrays["forcing_q"] = data.forcing_q
    meta = {
        "step": data.step,
        "time": data.time,
        "counters": data.counters,
        "checksum": _content_checksum(arrays),
    }
    arrays["meta"] = np.array(json.dumps(meta))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    return path


def load_checkpoint(path) -> CheckpointData:
    """Read and verify a snapshot written by :func:`save_checkpoint`.

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
        counters = []
        for c in meta["counters"]:
            c = dict(c)
            if c.get("measure") is not None:
                c["measure"] = tuple(c["measure"])
            counters.append(c)
        return CheckpointData(
            step=int(meta["step"]),
            time=float(meta["time"]),
            now={n: arrays[f"now_{n}"] for n in PROGNOSTIC_NAMES},
            prev={n: arrays[f"prev_{n}"] for n in PROGNOSTIC_NAMES},
            forcing_pt=arrays["forcing_pt"],
            forcing_q=arrays["forcing_q"],
            counters=counters,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointCorruptError(
            path, f"malformed contents ({type(exc).__name__}: {exc})"
        ) from exc


class Checkpointer:
    """Periodic coordinated checkpoints every ``every`` steps.

    One instance is shared by all rank programs of a run (rank 0 is the
    only writer).  The file at ``path`` always holds the most recent
    snapshot; :meth:`load` returns it for a restart.
    """

    def __init__(self, every: int, path, io_bandwidth: float = IO_BANDWIDTH):
        if every <= 0:
            raise ValueError(f"checkpoint interval must be positive, got {every}")
        self.every = every
        self.path = Path(path)
        if self.path.suffix != ".npz":
            self.path = self.path.with_suffix(self.path.suffix + ".npz")
        self.io_bandwidth = io_bandwidth
        self.written = 0
        self.last_step: Optional[int] = None

    def due(self, step: int, nsteps: int) -> bool:
        """Checkpoint after ``step``?  (Never after the final step — a
        snapshot nothing could restart into is pure overhead.)"""
        done = step + 1
        return done % self.every == 0 and done < nsteps

    def load(self) -> Optional[CheckpointData]:
        """The most recent snapshot, or None if nothing was written."""
        if not self.written:
            return None
        return load_checkpoint(self.path)

    def save(self, ctx, decomp: Decomposition2D, cfg: AGCMConfig, *,
             step: int, time_now: float,
             now: Dict[str, np.ndarray], prev: Dict[str, np.ndarray],
             forcing_pt: np.ndarray, forcing_q: np.ndarray,
             counters: dict):
        """Generator: gather every rank's block to rank 0 and write.

        All ranks synchronise on a barrier afterwards — the coordinated
        checkpoint is a global pause whose cost (gather messages plus
        rank-0 host write) lands in the ``"checkpoint"`` trace phase.
        """
        payload = {
            f"now_{n}": np.ascontiguousarray(now[n]) for n in PROGNOSTIC_NAMES
        }
        payload.update({
            f"prev_{n}": np.ascontiguousarray(prev[n])
            for n in PROGNOSTIC_NAMES
        })
        payload["forcing_pt"] = np.ascontiguousarray(forcing_pt)
        payload["forcing_q"] = np.ascontiguousarray(forcing_q)
        payload["counters"] = counters
        gathered = yield from coll.gather_binomial(ctx, payload, root=0)
        if ctx.rank == 0:
            def assemble(key: str) -> np.ndarray:
                return decomp.gather(
                    [gathered[r][key] for r in range(ctx.size)]
                )

            data = CheckpointData(
                step=step,
                time=time_now,
                now={n: assemble(f"now_{n}") for n in PROGNOSTIC_NAMES},
                prev={n: assemble(f"prev_{n}") for n in PROGNOSTIC_NAMES},
                forcing_pt=assemble("forcing_pt"),
                forcing_q=assemble("forcing_q"),
                counters=[gathered[r]["counters"] for r in range(ctx.size)],
            )
            save_checkpoint(self.path, data)
            self.written += 1
            self.last_step = step
            yield from ctx.compute(
                seconds=io_write_seconds(data.total_nbytes(), self.io_bandwidth)
            )
        yield from ctx.barrier(tag=_TAG_CKPT_BARRIER)

