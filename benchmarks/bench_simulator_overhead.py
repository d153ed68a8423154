"""Meta-benchmark — real wall-clock cost of the virtual machine itself.

Users who extend this package care how much *host* time a virtual rank
costs.  These pytest-benchmark timings measure the scheduler's op
throughput (compute ops, point-to-point messages, collectives) and a
full parallel-AGCM step at the paper's production 240-rank size.
"""

import numpy as np
import pytest

from repro.grid import Decomposition
from repro.model import AGCMConfig
from repro.model.parallel_agcm import agcm_rank_program
from repro.parallel import GENERIC, PARAGON, ProcessorMesh, Simulator


def test_bench_compute_ops(benchmark):
    """Throughput of bare Compute ops (scheduler bookkeeping floor)."""

    def program(ctx):
        for _ in range(200):
            yield from ctx.compute(seconds=1e-6)

    benchmark(lambda: Simulator(8, GENERIC).run(program))


def test_bench_point_to_point(benchmark):
    """Neighbour sendrecv throughput with real array payloads."""
    payload_template = np.zeros(256)

    def program(ctx):
        buf = payload_template + ctx.rank
        for step in range(50):
            buf = yield from ctx.sendrecv(
                dest=(ctx.rank + 1) % ctx.size,
                payload=buf,
                source=(ctx.rank - 1) % ctx.size,
                tag=step,
            )

    benchmark(lambda: Simulator(8, GENERIC).run(program))


def test_bench_allreduce(benchmark):
    """Tree allreduce throughput (the LB and CG hot collective)."""

    def program(ctx):
        total = 0.0
        for _ in range(25):
            total = yield from ctx.allreduce(float(ctx.rank))
        return total

    benchmark(lambda: Simulator(16, GENERIC).run(program))


@pytest.fixture(scope="module")
def production_setup():
    cfg = AGCMConfig.paper_2x2_5()
    mesh = ProcessorMesh(8, 30)
    decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
    return cfg, mesh, decomp


def test_bench_agcm_step_240_ranks(benchmark, production_setup):
    """One full AGCM step on 240 virtual ranks (paper production size)."""
    cfg, mesh, decomp = production_setup
    benchmark.pedantic(
        lambda: Simulator(mesh.size, PARAGON).run(
            agcm_rank_program, cfg, decomp, 1
        ),
        rounds=2, iterations=1,
    )
