"""Simulator conservation laws: positive cases and planted violations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid.decomposition import Decomposition
from repro.model.config import AGCMConfig
from repro.model.parallel_agcm import agcm_rank_program
from repro.parallel import GENERIC, Event, ProcessorMesh, Simulator
from repro.verify.invariants import (
    InvariantViolation,
    assert_sim_invariants,
    check_bytes_conservation,
    check_clock_identity,
    check_comm_matrix_symmetry,
    check_events,
    check_sim_result,
)


def _pairwise_exchange(ctx, n):
    """Ranks 2k <-> 2k+1 swap equal-sized payloads (symmetric pattern)."""
    data = np.full(n, float(ctx.rank))
    peer = ctx.rank ^ 1
    if peer < ctx.size:
        if ctx.rank < peer:
            yield from ctx.send(peer, data)
            got = yield from ctx.recv(peer)
        else:
            got = yield from ctx.recv(peer)
            yield from ctx.send(peer, data)
        return float(np.sum(got))
    return 0.0


def _ring_allgather(ctx, n):
    out = yield from ctx.allgather(np.full(n, float(ctx.rank)))
    return len(out)


@pytest.fixture
def agcm_result():
    cfg = AGCMConfig(
        nlat=12, nlon=16, nlayers=1, physics_every=2, dt_safety=0.3, seed=11
    )
    mesh = ProcessorMesh(2, 2)
    decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
    sim = Simulator(mesh.size, GENERIC, record_events=True)
    return sim.run(agcm_rank_program, cfg, decomp, 3)


def test_agcm_run_satisfies_all_invariants(agcm_result):
    assert check_sim_result(agcm_result) == []
    assert_sim_invariants(agcm_result, label="tiny agcm")


def test_pairwise_exchange_has_symmetric_comm_matrix():
    res = Simulator(4, GENERIC, record_events=True).run(_pairwise_exchange, 8)
    assert_sim_invariants(res, symmetric=True)


def test_ring_allgather_conserves_but_is_not_symmetric():
    res = Simulator(4, GENERIC, record_events=True).run(_ring_allgather, 8)
    assert check_bytes_conservation(res.trace) == []
    assert check_clock_identity(res) == []
    assert check_events(res) == []
    # rank i only ever sends to i+1: legitimately asymmetric
    violations = check_comm_matrix_symmetry(res.trace)
    assert violations and "symmetry" in violations[0]


def test_single_rank_run_is_trivially_conserving():
    def lone(ctx):
        yield from ctx.compute(flops=1000.0)
        return ctx.rank

    res = Simulator(1, GENERIC, record_events=True).run(lone)
    assert_sim_invariants(res, symmetric=True)


def test_planted_byte_leak_is_detected(agcm_result):
    agcm_result.trace.ranks[0].bytes_sent += 1
    violations = check_bytes_conservation(agcm_result.trace)
    assert violations and "byte conservation" in violations[0]


def test_planted_message_leak_is_detected(agcm_result):
    agcm_result.trace.ranks[0].messages_received += 2
    violations = check_bytes_conservation(agcm_result.trace)
    assert any("message conservation" in v for v in violations)


def test_planted_clock_drift_is_detected(agcm_result):
    agcm_result.trace.ranks[1].compute_time += 1.0
    violations = check_clock_identity(agcm_result)
    assert any("clock identity: rank 1" in v for v in violations)


def test_planted_bogus_event_is_detected(agcm_result):
    agcm_result.trace.events.append(
        Event(rank=0, kind="send", start=0.0, end=agcm_result.elapsed + 5.0,
              peer=1, nbytes=64)
    )
    violations = check_events(agcm_result)
    assert any("outside the run window" in v for v in violations)
    assert any("events vs accounting" in v for v in violations)


def test_assert_lists_every_violation(agcm_result):
    agcm_result.trace.ranks[0].bytes_sent += 1
    agcm_result.trace.ranks[1].compute_time += 1.0
    with pytest.raises(InvariantViolation) as err:
        assert_sim_invariants(agcm_result, label="tampered")
    text = str(err.value)
    assert text.startswith("[tampered]")
    assert "byte conservation" in text and "clock identity" in text


def test_faulty_run_satisfies_generalised_conservation():
    """Drops + retransmissions still balance exactly (sent + retrans ==
    received + dropped), and retry events match the counters."""
    from repro.faults import FaultPlan, LinkFault

    plan = FaultPlan(seed=9, link_faults=(LinkFault(drop_rate=0.4),))
    sim = Simulator(4, GENERIC, record_events=True, faults=plan)

    res = sim.run(_pairwise_exchange, 512)
    assert check_sim_result(res) == []
    tr = res.trace
    dropped = sum(r.messages_dropped for r in tr.ranks)
    assert dropped > 0, "40% drop rate produced no drops"
    assert dropped == sum(r.messages_retransmitted for r in tr.ranks)


def test_planted_unbalanced_drop_is_detected(agcm_result):
    agcm_result.trace.ranks[0].bytes_dropped += 128
    agcm_result.trace.ranks[0].messages_dropped += 1
    violations = check_bytes_conservation(agcm_result.trace)
    assert any("retry completeness" in v for v in violations)
    assert any("byte conservation" in v for v in violations)


def test_planted_retry_event_mismatch_is_detected(agcm_result):
    agcm_result.trace.events.append(
        Event(rank=0, kind="retry", start=0.0, end=0.0, peer=1, nbytes=64)
    )
    violations = check_events(agcm_result)
    assert any("retry events" in v for v in violations)
