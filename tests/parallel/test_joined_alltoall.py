"""Joined all-to-alls: one array cut at bounds (``Blocks``) in, the
received blocks concatenated (``join``) out.

A joined ``Blocks`` all-to-all must return, byte for byte, what the list
form returns concatenated, at the same virtual cost, on every path: the
bulk executor (a group of at least 24), the fast interpreter (a small
group) and the reference interpreter (a timeline forces it).  The
filter's row transpose is the client that matters: on a bulk-sized row
the engine joins once per row and direction and cuts no view."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_filter_plan, prepare_filter_backend
from repro.grid import Decomposition, SphericalGrid
from repro.parallel import GENERIC, PARAGON, ProcessorMesh, Simulator
from repro.parallel import events, scheduler
from repro.parallel.events import AllToAll, Blocks
from repro.parallel.scheduler import _BULK_MIN_MSGS


def _bulk_size():
    """Smallest group whose all-to-all runs through the bulk executor."""
    p = 2
    while p * (p - 1) < _BULK_MIN_MSGS:
        p += 1
    return p


BULK = _bulk_size()


def _bounds(widths):
    edges = np.concatenate(([0], np.cumsum(widths))).tolist()
    return tuple(zip(edges[:-1], edges[1:]))


def _case(data, group):
    """Per-member arrays that agree off the join axis, and the bounds."""
    ndim = data.draw(st.integers(2, 3), label="ndim")
    axis = data.draw(st.integers(0, ndim - 1), label="axis")
    join = data.draw(st.integers(0, ndim - 1), label="join")
    widths = data.draw(st.lists(st.integers(0, 3), min_size=group,
                                max_size=group), label="widths")
    bounds = _bounds(widths)
    shape = data.draw(st.lists(st.integers(1, 3), min_size=ndim,
                               max_size=ndim), label="shape")
    shape[axis] = bounds[-1][1]
    # Rows past the last bound; unequal ones make the arrays differ off
    # the join axis, which the bulk executor must notice.
    if axis != join and data.draw(st.booleans(), label="ragged slack"):
        slack = data.draw(st.lists(st.integers(0, 1), min_size=group,
                                   max_size=group), label="slack")
    else:
        slack = [data.draw(st.integers(0, 1 if axis != join else 0),
                           label="slack")] * group
    extents = data.draw(st.lists(st.integers(0 if axis != join else 1, 3),
                                 min_size=group, max_size=group),
                        label="join extents")
    dtype = data.draw(st.sampled_from([np.float64, np.int32]), label="dtype")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    arrays = []
    for extent, extra in zip(extents, slack):
        member_shape = list(shape)
        member_shape[axis] += extra
        if axis != join:
            member_shape[join] = extent
        arrays.append((rng.standard_normal(member_shape) * 100).astype(dtype))
    shared = data.draw(st.booleans(), label="one bounds object")
    return arrays, axis, join, bounds, shared


def _run(group, arrays, axis, join, bounds, shared, joined, record_events):
    def program(ctx):
        mine = bounds if shared else tuple(map(tuple, bounds))
        blocks = Blocks(arrays[ctx.rank], axis, mine)
        if joined:
            out = yield from ctx.alltoall(blocks, join=join)
            return out
        received = yield from ctx.alltoall(list(blocks))
        return np.concatenate(received, axis=join)

    return Simulator(group, PARAGON, record_events=record_events).run(program)


def _assert_same(res, ref):
    for a, b in zip(res.returns, ref.returns):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert res.clocks == ref.clocks
    assert res.trace.ranks == ref.trace.ranks


def _check(group, data, record_events):
    case = _case(data, group)
    res = _run(group, *case, joined=True, record_events=record_events)
    ref = _run(group, *case, joined=False, record_events=True)
    _assert_same(res, ref)
    for out in res.returns:
        assert not out.flags.writeable


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_bulk_join_is_the_concatenated_list(data):
    _check(BULK, data, record_events=False)


@given(data=st.data(), group=st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_interpreted_join_is_the_concatenated_list(data, group):
    _check(group, data, record_events=False)


@given(data=st.data(), group=st.sampled_from([2, 5, BULK]))
@settings(max_examples=15, deadline=None)
def test_reference_join_is_the_concatenated_list(data, group):
    _check(group, data, record_events=True)


def test_single_member_join_is_a_read_only_copy():
    held = np.arange(6.0).reshape(2, 3)

    def program(ctx):
        out = yield from ctx.alltoall(Blocks(held, 1, ((0, 3),)), join=0)
        return out

    out = Simulator(1, GENERIC).run(program).returns[0]
    assert out.tobytes() == held.tobytes() and not out.flags.writeable
    assert not np.shares_memory(out, held)


def test_blocks_is_a_sequence_of_views():
    array = np.arange(24.0).reshape(2, 3, 4)
    blocks = Blocks(array, -1, ((0, 1), (1, 4)))
    assert blocks.axis == 2 and len(blocks) == 2
    assert blocks[1].tobytes() == array[:, :, 1:4].tobytes()
    assert np.shares_memory(blocks[0], array)
    assert [v.shape for v in blocks] == [(2, 3, 1), (2, 3, 3)]
    with pytest.raises(ValueError, match="axis 3 out of range"):
        Blocks(array, 3, ((0, 1),))


@pytest.mark.parametrize("group, record_events",
                         [(BULK, False), (4, False), (4, True)])
@pytest.mark.parametrize("last", [(1, 2), (1, 0), (-1, 1)])
def test_every_path_rejects_a_bound_outside_the_array(group, record_events,
                                                      last):
    """A bound past the array's extent, reversed or negative raises on
    the bulk executor and on both interpreters alike (slicing would
    quietly clamp it)."""
    bounds = (*_bounds([0] * (group - 1)), last)
    array = np.zeros((2, 1))

    def program(ctx):
        yield from ctx.alltoall(Blocks(array, 1, bounds))

    with pytest.raises(ValueError, match="Blocks bound|bounds up to"):
        Simulator(group, GENERIC, record_events=record_events).run(program)


def test_schedule_cuts_each_view_into_its_send():
    array = np.arange(12.0).reshape(3, 4)
    op = AllToAll((0, 1, 2), 1, Blocks(array, 0, ((0, 1), (1, 2), (2, 3))),
                  tag=5, join=1)
    sends = op.schedule().sends
    assert [s[0] for s in sends] == [2, 0]
    assert [s[1].tobytes() for s in sends] == [array[2:3].tobytes(),
                                             array[0:1].tobytes()]
    joined = op.by_source([np.zeros((1, 2)), np.ones((1, 2))])
    assert joined.tobytes() == np.concatenate(
        [np.zeros((1, 2)), array[1:2], np.ones((1, 2))], axis=1).tobytes()


# ----------------------------------------------------------------------
# The filter's row transpose on a bulk-sized row
# ----------------------------------------------------------------------

_GRID = SphericalGrid(nlat=16, nlon=48)
_MESH = ProcessorMesh(2, BULK)


def _filter_run(record_events=False, applications=2):
    decomp = Decomposition(_GRID.nlat, _GRID.nlon, _MESH)
    backend = prepare_filter_backend("fft-lb", make_filter_plan(_GRID), decomp)
    rng = np.random.default_rng(3)
    fields = {n: rng.standard_normal((_GRID.nlat, _GRID.nlon, 2))
              for n in ("u", "v", "pt", "q", "ps")}

    def program(ctx):
        local = {n: decomp.scatter(fields[n])[ctx.rank].copy() for n in fields}
        for _ in range(applications):
            yield from backend.apply(ctx, local)
        return local

    return Simulator(_MESH.size, PARAGON, record_events=record_events).run(program)


def test_row_transpose_joins_once_per_row_and_direction(monkeypatch):
    """Host-independent: per application the bulk executor concatenates
    once per processor row and direction (2 rows x 2 directions), no
    member joins on its own, and no view of a ``Blocks`` is cut."""
    counts = {"engine": 0, "member": 0, "views": 0, "getitem": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scheduler, "join_received",
                        counted("engine", scheduler.join_received))
    monkeypatch.setattr(events, "join_received",
                        counted("member", events.join_received))
    monkeypatch.setattr(Blocks, "views", counted("views", Blocks.views))
    monkeypatch.setattr(Blocks, "__getitem__",
                        counted("getitem", Blocks.__getitem__))
    _filter_run(applications=2)
    assert counts == {"engine": 2 * 2 * 2, "member": 0, "views": 0,
                      "getitem": 0}


def test_row_transpose_bulk_matches_reference_interpreter():
    res = _filter_run()
    ref = _filter_run(record_events=True)
    for a, b in zip(res.returns, ref.returns):
        for n in a:
            assert a[n].tobytes() == b[n].tobytes()
    assert res.clocks == ref.clocks
    assert res.trace.ranks == ref.trace.ranks
