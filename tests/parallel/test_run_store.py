"""The run-scoped store behind ``ctx.once``: one value per key per run,
gone the moment ``Simulator.run`` returns or raises."""

import gc
import threading
import weakref

import pytest

from repro.parallel import GENERIC, Simulator
from repro.parallel.scheduler import DeadlockError, RankFailedError


class _Plan:
    """Stands in for a set-up plan: weak-referenceable, counts builds."""

    built = 0

    def __init__(self):
        type(self).built += 1


@pytest.fixture(autouse=True)
def _reset_count():
    _Plan.built = 0


@pytest.fixture
def no_gc():
    """Refcounts alone must free the plan: a ``ctx`` refers to itself, so
    a plan only a ``ctx`` could reach would wait for the cyclic collector."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _sharing_program(ctx, seen, fail=None):
    plan = ctx.once("plan", _Plan)
    if ctx.rank == 0:
        seen.append(weakref.ref(plan))
    seen.append(id(plan))
    yield from ctx.barrier()
    if fail == "raise" and ctx.rank == 1:
        raise KeyError("boom")
    if fail == "deadlock" and ctx.rank == 1:
        yield from ctx.recv(0, tag=99)
    yield from ctx.compute(seconds=1.0)
    return None


def test_first_rank_builds_and_the_others_read(no_gc):
    seen = []
    Simulator(4, GENERIC).run(_sharing_program, seen)
    ref, ids = seen[0], [x for x in seen if isinstance(x, int)]
    assert _Plan.built == 1 and len(set(ids)) == 1 and len(ids) == 4
    assert ref() is None  # dead as soon as run() returned


@pytest.mark.parametrize("fail, error", [
    ("raise", KeyError), ("deadlock", DeadlockError),
])
def test_store_is_emptied_when_a_rank_raises(no_gc, fail, error):
    seen = []
    with pytest.raises(error):
        Simulator(3, GENERIC).run(_sharing_program, seen, fail=fail)
    assert _Plan.built == 1
    assert seen[0]() is None


def test_store_is_emptied_on_an_injected_rank_failure(no_gc):
    from repro.faults.plan import FaultPlan, RankFailure

    seen = []
    sim = Simulator(3, GENERIC,
                    faults=FaultPlan(
                        seed=0, failures=(RankFailure(rank=2, at=0.5),)))
    with pytest.raises(RankFailedError):
        sim.run(_sharing_program, seen)
    assert seen[0]() is None


def test_each_run_has_its_own_store():
    """Also one simulator run twice: nothing carries over."""
    sim, seen = Simulator(2, GENERIC), []
    sim.run(_sharing_program, seen)
    sim.run(_sharing_program, seen)
    assert _Plan.built == 2


def test_concurrent_runs_do_not_see_each_others_plan():
    """serve runs units in threads: two simulators, two threads, each
    parked at a barrier between building and finishing."""
    both_built = threading.Barrier(2, timeout=30)
    plans = {}

    def program(ctx, who):
        plan = ctx.once("plan", lambda: (who, object()))
        if ctx.rank == 0:
            both_built.wait()  # the other run's plan now exists too
        yield from ctx.barrier()
        assert ctx.once("plan", lambda: ("late", None)) is plan
        plans.setdefault(who, set()).add(plan)
        return None

    errors = []

    def drive(who):
        try:
            Simulator(3, GENERIC).run(program, who)
        except BaseException as exc:  # reported by the assert below
            errors.append(exc)

    threads = [threading.Thread(target=drive, args=(w,)) for w in "ab"]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads) and not errors
    assert {who for who, _ in plans["a"]} == {"a"}
    assert {who for who, _ in plans["b"]} == {"b"}
    assert len(plans["a"]) == len(plans["b"]) == 1


def test_a_group_is_validated_once_per_run(monkeypatch):
    """Every member of a row asks ``ctx.group`` for the same rank tuple;
    it is checked once per run, then only for membership."""
    import repro.parallel.comm as comm

    checked = []
    validated = comm._validated_group

    def counted(ranks, size):
        checked.append(ranks)
        return validated(ranks, size)

    monkeypatch.setattr(comm, "_validated_group", counted)

    def program(ctx):
        row = tuple(range(ctx.rank - ctx.rank % 4, ctx.rank - ctx.rank % 4 + 4))
        for _ in range(3):
            group = ctx.group(row)
        total = yield from group.allreduce(ctx.rank)
        return group.rank, total

    res = Simulator(12, GENERIC).run(program)
    assert sorted(checked) == [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)]
    assert res.returns[5] == (1, 4 + 5 + 6 + 7)
    Simulator(12, GENERIC).run(program)  # a new run checks again
    assert len(checked) == 6


def test_group_rejects_a_non_member_after_validation():
    def program(ctx):
        ctx.group((0, 1))
        yield from ctx.compute(seconds=0.0)

    with pytest.raises(ValueError, match="rank 2 not a member of group"):
        Simulator(3, GENERIC).run(program)
