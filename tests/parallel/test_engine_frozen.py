"""Frozen engine results: what the deleted per-message heap engine computed.

Provenance.  Every digest below was recorded at commit 08f127c (the
parent of the change that deleted the heap engine), python 3.11.7,
numpy 2.4.6 + scipy-openblas 0.3.31, from a run under
``repro.parallel.engine.legacy_engine()`` — one heap pop per event, one
``Send``/``Recv`` yield per message, the ``*_loop`` collectives, no
``Exchange`` op anywhere.  At that commit the default engine reproduced
every one of them; the engine that remains must keep doing so.

A digest covers per-rank final clocks, the ``send_busy`` / ``recv_busy``
/ ``recv_wait`` accounting floats and the message / byte counts; the
collective probes add every rank's return values.  The AGCM digests
leave the fields out (they rest on BLAS and FFT bits, which
``tests/core/test_prepared_filter.py`` pins per platform); virtual
clocks are priced from shapes and counts, in plain IEEE arithmetic.
"""

import hashlib

import numpy as np
import pytest

from repro.grid import Decomposition
from repro.model import agcm_rank_program, make_config
from repro.parallel import GENERIC, PARAGON, ProcessorMesh, Simulator
from repro.perf.simbench import probe_program
from repro.verify.pairs import _engine_probe_program


def _digest(res, returns=()) -> str:
    acc = res.trace.ranks
    h = hashlib.sha256()
    h.update(np.array(res.clocks, dtype=np.float64).tobytes())
    for name in ("send_busy_time", "recv_busy_time", "recv_wait_time"):
        h.update(
            np.array([getattr(a, name) for a in acc], dtype=np.float64).tobytes()
        )
    h.update(np.array(
        [[a.messages_sent, a.messages_received, a.bytes_sent, a.bytes_received]
         for a in acc],
        dtype=np.int64,
    ).tobytes())
    for value in returns:
        h.update(np.ascontiguousarray(value, dtype=np.float64).tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# collective mix of the engine differential pair: (p, n, seed)
# ----------------------------------------------------------------------

#: p = 2, 7 and 12 interpret every exchange (the all-to-all lowered to its
#: shift schedule), p >= 24 crosses ``_BULK_MIN_MSGS`` and runs the
#: all-to-all through the bulk executor.
COLLECTIVE_MIX = {
    (2, 5, 101):
        "2945ad17ec68ea4a8765592a513805f6e0c4834fb572129e0fb64f9ed6f256f1",
    (7, 3, 102):
        "a363d9c03aa7c93152c5030e59428803abd9b1129742fa906dc20dac9675668e",
    (12, 8, 103):
        "84f62f3e4461156d920c930ae6579d949d22c0b389170bd8abdc3818c19ebd71",
    (24, 4, 104):
        "004a43cbb4b3ea19020ea6dd0b0a567dc644941873ca93842381806ce96cb7f1",
    (26, 6, 105):
        "f1f61053dd9de70772063cf319bb8b1aea90c2c158fdcd5e95cbf274a7f4c895",
}


def run_collective_mix(p, n, seed) -> str:
    data = np.random.default_rng(seed).standard_normal((p, n))
    res = Simulator(p, GENERIC).run(_engine_probe_program, data)
    returns = [
        res.returns[r][key]
        for r in range(p) for key in ("allgather", "alltoall", "total")
    ]
    return _digest(res, returns)


@pytest.mark.parametrize("p, n, seed", sorted(COLLECTIVE_MIX))
def test_collective_mix_reproduces_heap_engine(p, n, seed):
    assert run_collective_mix(p, n, seed) == COLLECTIVE_MIX[(p, n, seed)]


# ----------------------------------------------------------------------
# the 240-rank throughput probe, two rounds
# ----------------------------------------------------------------------

PROBE_240 = "997fc119b40974cea43f6968983c92f78c56158c7833bedb1f12156de70c315b"


def run_probe_240() -> str:
    res = Simulator(240, GENERIC).run(probe_program, 2)
    return _digest(res, [res.returns])


def test_probe_240_reproduces_heap_engine():
    assert run_probe_240() == PROBE_240


# ----------------------------------------------------------------------
# the AGCM rank program: halo, stage-A redistribution, vertical halo
# ----------------------------------------------------------------------

#: ``fft-lb`` on the tiny preset is the one input that sends stage-A
#: row-unit traffic; 4x4 exercises the four-neighbour halo, 2x2x4 the
#: pillar transposes and the vertical ghost-layer exchange.
AGCM = {
    (4, 4, 1):
        "415060638d275a2c647c0984852ade383288efeeba64f53ebd1771c078d32497",
    (2, 2, 4):
        "7d8c330791269261dc4b94d72a3bc0e667d5a803fb6928a1c3a8710c1bf086a1",
}


def run_agcm(dims) -> str:
    cfg = make_config("tiny", filter_backend="fft-lb")
    mesh = ProcessorMesh(*dims)
    decomp = Decomposition(cfg.nlat, cfg.nlon, mesh, cfg.nlayers)
    res = Simulator(mesh.size, PARAGON).run(agcm_rank_program, cfg, decomp, 4)
    assert all(summary["finite"] for summary in res.returns)
    return _digest(res)


@pytest.mark.parametrize(
    "dims", sorted(AGCM), ids=lambda dims: "x".join(map(str, dims))
)
def test_agcm_reproduces_heap_engine(dims):
    assert run_agcm(dims) == AGCM[dims]
