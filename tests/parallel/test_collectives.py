"""Tests for collective algorithms against numpy references."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel import GENERIC, Simulator
from repro.parallel import collectives as coll


def run(nranks, program, *args):
    return Simulator(nranks, GENERIC).run(program, *args)


class TestBcast:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 7, 8, 13])
    @pytest.mark.parametrize("root", [0, "last"])
    def test_all_receive(self, size, root):
        root = size - 1 if root == "last" else 0

        def program(ctx):
            obj = {"data": 42} if ctx.rank == root else None
            got = yield from coll.bcast_binomial(ctx, obj, root=root)
            return got["data"]

        res = run(size, program)
        assert res.returns == [42] * size

    def test_array_payload(self):
        def program(ctx):
            arr = np.arange(8.0) if ctx.rank == 1 else None
            got = yield from coll.bcast_binomial(ctx, arr, root=1)
            return got.sum()

        assert run(4, program).returns == [28.0] * 4

    def test_bad_root(self):
        def program(ctx):
            yield from coll.bcast_binomial(ctx, 1, root=9)

        with pytest.raises(ValueError):
            run(3, program)


class TestReduceAllreduce:
    @pytest.mark.parametrize("size", [1, 2, 5, 8, 11])
    def test_sum_at_root(self, size):
        def program(ctx):
            return (yield from ctx.reduce(ctx.rank + 1, root=0))

        res = run(size, program)
        assert res.returns[0] == sum(range(1, size + 1))
        assert all(v is None for v in res.returns[1:])

    def test_nonzero_root(self):
        def program(ctx):
            return (yield from ctx.reduce(ctx.rank, root=2))

        res = run(5, program)
        assert res.returns[2] == 10

    def test_custom_op(self):
        def program(ctx):
            return (yield from ctx.allreduce(ctx.rank + 1, op=max))

        assert run(6, program).returns == [6] * 6

    def test_array_elementwise(self):
        def program(ctx):
            v = np.full(3, float(ctx.rank))
            out = yield from ctx.allreduce(v)
            return out.tolist()

        res = run(4, program)
        assert res.returns == [[6.0, 6.0, 6.0]] * 4

    @given(size=st.integers(1, 12))
    @settings(max_examples=12, deadline=None)
    def test_allreduce_any_size(self, size):
        def program(ctx):
            return (yield from ctx.allreduce(ctx.rank))

        assert run(size, program).returns == [size * (size - 1) // 2] * size


class TestGatherScatter:
    def test_gather_rank_order(self):
        def program(ctx):
            return (yield from ctx.gather(ctx.rank * 10, root=1))

        res = run(4, program)
        assert res.returns[1] == [0, 10, 20, 30]
        assert res.returns[0] is None

    def test_scatter(self):
        def program(ctx):
            values = [f"v{i}" for i in range(ctx.size)] if ctx.rank == 0 else None
            return (yield from ctx.scatter(values, root=0))

        assert run(3, program).returns == ["v0", "v1", "v2"]

    def test_scatter_wrong_count(self):
        def program(ctx):
            values = [1] if ctx.rank == 0 else None
            yield from ctx.scatter(values, root=0)

        with pytest.raises(ValueError):
            run(3, program)

    @pytest.mark.parametrize("size", [1, 2, 6, 9])
    def test_gather_binomial(self, size):
        from repro.parallel import collectives as coll

        def program(ctx):
            return (yield from coll.gather_binomial(ctx, ctx.rank + 100, root=0))

        res = run(size, program)
        assert res.returns[0] == [100 + r for r in range(size)]


class TestAllgatherAlltoall:
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
    def test_allgather_ring(self, size):
        def program(ctx):
            return (yield from ctx.allgather(ctx.rank * 2))

        res = run(size, program)
        for r in range(size):
            assert res.returns[r] == [2 * i for i in range(size)]

    def test_ring_message_count(self):
        """Ring allgather sends P(P-1) messages total, each one rank's
        32-byte block."""

        def program(ctx):
            yield from ctx.allgather(np.zeros(4))

        res = run(6, program)
        assert res.trace.total_messages() == 6 * 5
        assert res.trace.total_bytes() == 6 * 5 * 32

    @pytest.mark.parametrize("size", [1, 2, 4, 7])
    def test_alltoall_pairwise(self, size):
        def program(ctx):
            chunks = [ctx.rank * 100 + d for d in range(size)]
            return (yield from ctx.alltoall(chunks))

        res = run(size, program)
        for r in range(size):
            assert res.returns[r] == [s * 100 + r for s in range(size)]

    def test_alltoall_wrong_chunks(self):
        def program(ctx):
            yield from ctx.alltoall([1])

        with pytest.raises(ValueError):
            run(3, program)


class TestGroupComm:
    def test_row_groups_independent(self):
        def program(ctx):
            row = ctx.group([r for r in range(ctx.size) if r // 3 == ctx.rank // 3])
            return (yield from row.allreduce(ctx.rank))

        res = run(6, program)
        assert res.returns == [3, 3, 3, 12, 12, 12]

    def test_group_requires_membership(self):
        def program(ctx):
            if ctx.rank == 0:
                ctx.group([1, 2])
            return None
            yield  # pragma: no cover - make it a generator

        with pytest.raises(ValueError):
            run(3, program)

    def test_group_rejects_duplicates(self):
        def program(ctx):
            ctx.group([0, 0])
            return None
            yield  # pragma: no cover

        with pytest.raises(ValueError):
            run(1, program)

    def test_group_local_ranks(self):
        def program(ctx):
            g = ctx.group([2, 0, 1])  # order defines local positions
            yield from ctx.compute(seconds=0.0)
            return g.rank

        res = run(3, program)
        assert res.returns == [1, 2, 0]
