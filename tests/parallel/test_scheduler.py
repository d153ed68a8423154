"""Tests for the discrete-event SPMD scheduler."""

import numpy as np
import pytest

from repro.parallel import (
    Barrier,
    Compute,
    DeadlockError,
    GENERIC,
    Recv,
    Send,
    Simulator,
)


class TestCompute:
    def test_explicit_seconds(self):
        def program(ctx):
            yield Compute(seconds=2.5)
            return ctx.rank

        res = Simulator(3, GENERIC).run(program)
        assert res.elapsed == pytest.approx(2.5)
        assert res.clocks == [pytest.approx(2.5)] * 3

    def test_flops_priced_by_machine(self):
        def program(ctx):
            yield Compute(flops=GENERIC.flop_rate)

        res = Simulator(1, GENERIC).run(program)
        assert res.elapsed == pytest.approx(1.0)

    def test_negative_seconds_rejected(self):
        def program(ctx):
            yield Compute(seconds=-1.0)

        with pytest.raises(ValueError):
            Simulator(1, GENERIC).run(program)

    def test_compute_time_accounted(self):
        def program(ctx):
            yield Compute(seconds=1.0)
            yield Compute(seconds=0.5)

        res = Simulator(2, GENERIC).run(program)
        assert res.trace.ranks[0].compute_time == pytest.approx(1.5)


class TestSendRecv:
    def test_payload_delivery(self):
        def program(ctx):
            if ctx.rank == 0:
                yield Send(1, payload=np.arange(5.0))
                return None
            got = yield Recv(0)
            return got.sum()

        res = Simulator(2, GENERIC).run(program)
        assert res.returns[1] == pytest.approx(10.0)

    def test_recv_waits_for_arrival(self):
        nbytes = 800

        def program(ctx):
            if ctx.rank == 0:
                yield Compute(seconds=1.0)
                yield Send(1, payload=np.zeros(100))
            else:
                got = yield Recv(0)
                return got

        res = Simulator(2, GENERIC).run(program)
        expected = 1.0 + GENERIC.message_time(nbytes) + GENERIC.recv_busy_time(
            nbytes
        )
        assert res.clocks[1] == pytest.approx(expected)
        assert res.trace.ranks[1].recv_wait_time > 0

    def test_early_send_no_wait(self):
        """If the message already arrived, the receiver pays no wait."""

        def program(ctx):
            if ctx.rank == 0:
                yield Send(1, payload=np.zeros(10))
            else:
                yield Compute(seconds=5.0)
                got = yield Recv(0)
                return got

        res = Simulator(2, GENERIC).run(program)
        assert res.trace.ranks[1].recv_wait_time == pytest.approx(0.0)

    def test_fifo_ordering_same_tag(self):
        """Messages between a pair with equal tags are non-overtaking."""

        def program(ctx):
            if ctx.rank == 0:
                for k in range(5):
                    yield Send(1, payload=float(k), tag=7)
            else:
                got = []
                for _ in range(5):
                    v = yield Recv(0, tag=7)
                    got.append(v)
                return got

        res = Simulator(2, GENERIC).run(program)
        assert res.returns[1] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_tags_segregate(self):
        def program(ctx):
            if ctx.rank == 0:
                yield Send(1, payload="a", tag=1)
                yield Send(1, payload="b", tag=2)
            else:
                b = yield Recv(0, tag=2)
                a = yield Recv(0, tag=1)
                return (a, b)

        res = Simulator(2, GENERIC).run(program)
        assert res.returns[1] == ("a", "b")

    def test_message_accounting(self):
        def program(ctx):
            if ctx.rank == 0:
                yield Send(1, payload=np.zeros(100))  # 800 bytes
            else:
                yield Recv(0)

        res = Simulator(2, GENERIC).run(program)
        assert res.trace.total_messages() == 1
        assert res.trace.total_bytes() == 800
        assert res.trace.ranks[1].bytes_received == 800

    def test_explicit_nbytes_override(self):
        def program(ctx):
            if ctx.rank == 0:
                yield Send(1, payload=None, nbytes=12345)
            else:
                yield Recv(0)

        res = Simulator(2, GENERIC).run(program)
        assert res.trace.total_bytes() == 12345


class TestDeadlock:
    def test_mutual_recv_deadlocks(self):
        def program(ctx):
            other = 1 - ctx.rank
            yield Recv(other)

        with pytest.raises(DeadlockError, match="deadlock"):
            Simulator(2, GENERIC).run(program)

    def test_recv_from_silent_rank(self):
        def program(ctx):
            if ctx.rank == 0:
                yield Recv(1)
            # rank 1 exits immediately

        with pytest.raises(DeadlockError):
            Simulator(2, GENERIC).run(program)

    def test_wait_graph_names_peer_tag_and_time(self):
        def program(ctx):
            yield Compute(seconds=0.5 * (1 + ctx.rank))
            yield Recv(1 - ctx.rank, tag=0xBEEF)

        with pytest.raises(DeadlockError) as err:
            Simulator(2, GENERIC).run(program)
        graph = err.value.wait_graph
        assert graph[0] == {
            "kind": "recv", "on": [1], "tag": 0xBEEF, "since": 0.5,
        }
        assert graph[1]["on"] == [0] and graph[1]["since"] == 1.0
        msg = str(err.value)
        assert "rank 0 waiting on rank 1" in msg
        assert "recv(tag=0x0000beef)" in msg
        assert "since t=0.5 s" in msg

    def test_wait_graph_barrier_lists_missing_ranks(self):
        def program(ctx):
            if ctx.rank < 2:
                yield Barrier(group=(0, 1, 2))
            else:
                yield Recv(0)  # never arrives at the barrier

        with pytest.raises(DeadlockError) as err:
            Simulator(3, GENERIC).run(program)
        graph = err.value.wait_graph
        assert graph[0]["kind"] == "barrier" and graph[0]["on"] == [2]
        assert graph[0]["group"] == [0, 1, 2]
        assert graph[2]["kind"] == "recv" and graph[2]["on"] == [0]
        assert "waiting on rank(s) [2]" in str(err.value)

    def test_world_barrier_report_names_group_and_missing_rank(self):
        """The text recorded before world barriers stopped being filed
        under their P-tuple: group and missing rank are still spelt out."""
        def program(ctx):
            yield Compute(seconds=0.25 * ctx.rank)
            if ctx.rank < 3:
                yield from ctx.barrier(tag=5)
            else:
                yield Recv(0, tag=9)  # never comes

        with pytest.raises(DeadlockError) as err:
            Simulator(4, GENERIC).run(program)
        assert str(err.value) == (
            "communication deadlock; wait graph:\n"
            "  rank 0 waiting on rank(s) [3] at barrier(tag=0x00000005, "
            "group=[0, 1, 2, 3]) since t=0 s\n"
            "  rank 1 waiting on rank(s) [3] at barrier(tag=0x00000005, "
            "group=[0, 1, 2, 3]) since t=0.25 s\n"
            "  rank 2 waiting on rank(s) [3] at barrier(tag=0x00000005, "
            "group=[0, 1, 2, 3]) since t=0.5 s\n"
            "  rank 3 waiting on rank 0 for recv(tag=0x00000009) "
            "since t=0.75 s"
        )
        assert err.value.wait_graph[1] == {
            "kind": "barrier", "on": [3], "tag": 5, "since": 0.25,
            "group": [0, 1, 2, 3],
        }

    def test_wait_graph_marks_hung_rank(self):
        from repro.faults import FaultPlan, RankFailure

        def program(ctx):
            yield Compute(seconds=1.0)
            if ctx.rank == 0:
                yield Recv(1)
            else:
                yield Send(0, payload=1.0)

        plan = FaultPlan(
            seed=3, failures=(RankFailure(rank=1, at=0.5, mode="hang"),)
        )
        with pytest.raises(DeadlockError) as err:
            Simulator(2, GENERIC, faults=plan).run(program)
        graph = err.value.wait_graph
        assert graph[1]["kind"] == "hang" and graph[1]["on"] == []
        assert graph[0]["kind"] == "recv" and graph[0]["on"] == [1]
        assert "rank 1 failed (hang)" in str(err.value)


class TestBarrier:
    def test_barrier_aligns_clocks(self):
        def program(ctx):
            yield Compute(seconds=float(ctx.rank))
            yield Barrier(group=tuple(range(ctx.size)))
            return ctx.clock

        res = Simulator(4, GENERIC).run(program)
        assert len(set(round(c, 12) for c in res.returns)) == 1
        assert res.returns[0] >= 3.0

    def test_subgroup_barrier(self):
        def program(ctx):
            if ctx.rank < 2:
                yield Compute(seconds=1.0 + ctx.rank)
                yield Barrier(group=(0, 1))
            return ctx.clock

        res = Simulator(3, GENERIC).run(program)
        assert res.clocks[0] == pytest.approx(res.clocks[1])
        assert res.clocks[2] == 0.0

    def test_barrier_wrong_membership(self):
        def program(ctx):
            yield Barrier(group=(1, 2))

        with pytest.raises(ValueError):
            Simulator(3, GENERIC).run(program)

    def test_every_spelling_of_the_world_meets_at_one_barrier(self):
        """``ctx.barrier()``, a group-less Barrier and a hand-built group
        naming every rank (in any order) are the same barrier."""
        def program(ctx):
            yield Compute(seconds=float(ctx.rank))
            if ctx.rank == 0:
                yield from ctx.barrier()
            elif ctx.rank == 1:
                yield Barrier()
            elif ctx.rank == 2:
                yield Barrier(group=(3, 2, 1, 0))
            else:
                yield from ctx.group(range(ctx.size)).barrier()
            return ctx.clock

        res = Simulator(4, GENERIC).run(program)
        assert len(set(res.returns)) == 1 and res.returns[0] >= 3.0


class TestGroups:
    def test_world_group_is_one_object_per_run(self):
        def program(ctx):
            return ctx.ranks
            yield  # pragma: no cover - makes this a generator

        res = Simulator(6, GENERIC).run(program)
        assert res.returns[0] == tuple(range(6))
        assert all(ranks is res.returns[0] for ranks in res.returns)

    @pytest.mark.parametrize("outsider", [99, -1])
    def test_group_rejects_ranks_outside_the_world(self, outsider):
        """Not an IndexError inside the scheduler, not a deadlock on a
        rank that does not exist."""
        def program(ctx):
            yield from ctx.group([ctx.rank, outsider]).barrier()

        with pytest.raises(ValueError, match=rf"\[{outsider}\] outside 0\.\.3"):
            Simulator(4, GENERIC).run(program)


class TestDeterminism:
    def test_identical_runs(self):
        def program(ctx):
            total = 0.0
            for step in range(3):
                vals = yield from ctx.allgather(float(ctx.rank * step))
                total += sum(vals)
                yield Compute(seconds=0.01 * ctx.rank)
            return total

        r1 = Simulator(5, GENERIC).run(program)
        r2 = Simulator(5, GENERIC).run(program)
        assert r1.clocks == r2.clocks
        assert r1.returns == r2.returns
        assert r1.trace.total_messages() == r2.trace.total_messages()


class TestRegions:
    def test_region_elapsed_includes_waits(self):
        def program(ctx):
            with ctx.region("phase"):
                if ctx.rank == 0:
                    yield Compute(seconds=2.0)
                    yield Send(1, payload=1.0)
                else:
                    got = yield Recv(0)
            return None

        res = Simulator(2, GENERIC).run(program)
        # Rank 1 spent the whole wait inside the region.
        assert res.trace.phase_elapsed["phase"][1] >= 2.0

    def test_nested_regions(self):
        def program(ctx):
            with ctx.region("outer"):
                yield Compute(seconds=1.0)
                with ctx.region("inner"):
                    yield Compute(seconds=0.5)

        res = Simulator(1, GENERIC).run(program)
        assert res.trace.phase_max("outer") == pytest.approx(1.5)
        assert res.trace.phase_max("inner") == pytest.approx(0.5)

    def test_mismatched_region_raises(self):
        from repro.parallel.trace import Trace

        tr = Trace(1)
        tr.open_region(0, "a", 0.0)
        with pytest.raises(RuntimeError):
            tr.close_region(0, "b", 1.0)

    def test_phase_imbalance_metric(self):
        def program(ctx):
            with ctx.region("p"):
                yield Compute(seconds=1.0 + ctx.rank)

        res = Simulator(2, GENERIC).run(program)
        # loads 1 and 2: (max - mean) / mean = 0.5 / 1.5
        loads = res.trace.phase_elapsed["p"]
        mean = sum(loads) / len(loads)
        assert (res.trace.phase_max("p") - mean) / mean == pytest.approx(1 / 3)
