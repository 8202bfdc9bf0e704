"""Tests for the discrete-event MPI simulator engine."""

import pytest

from repro.profiles import profile_trace, replay_trace
from repro.sim import ops
from repro.sim.countermodel import CounterSet, CounterSpec, PAPI_TOT_CYC
from repro.sim.engine import DeadlockError, Simulator, simulate
from repro.sim.network import NetworkModel
from repro.lint import lint_trace, validate_config
from repro.trace.definitions import MetricMode

FAST_NET = NetworkModel(latency=1e-3, bandwidth=1e6, eager_threshold=1000)


def run(size, program, **kwargs):
    return simulate(size, program, **kwargs)


class TestComputeAndRegions:
    def test_single_rank_regions(self):
        def program(rank, size):
            yield ops.Enter("main")
            yield ops.Compute(1.0, region="work")
            yield ops.Elapse(0.5)
            yield ops.Leave("main")

        result = run(1, program)
        assert result.makespan == 1.5
        stats = profile_trace(result.trace, replay_trace(result.trace)).stats
        assert stats.of("main").inclusive_sum == 1.5
        assert stats.of("work").inclusive_sum == 1.0

    def test_compute_without_region(self):
        def program(rank, size):
            yield ops.Enter("main")
            yield ops.Compute(2.0)
            yield ops.Leave("main")

        result = run(1, program)
        assert result.makespan == 2.0

    def test_interruption_extends_wall_not_counters(self):
        def program(rank, size):
            yield ops.Compute(1.0, region="work", interruption=0.5)

        counters = CounterSet((CounterSet.cycles(frequency_hz=1e9),))
        result = run(1, program, counters=counters)
        assert result.makespan == 1.5
        from repro.core.metrics import per_rank_metric_total

        cyc = per_rank_metric_total(result.trace, PAPI_TOT_CYC)
        assert cyc[0] == 1e9  # only active time counts

    def test_mismatched_leave_raises(self):
        def program(rank, size):
            yield ops.Enter("a")
            yield ops.Leave("b")

        with pytest.raises(ValueError, match="does not match"):
            run(1, program)

    def test_non_op_yield_raises(self):
        def program(rank, size):
            yield "banana"

        with pytest.raises(TypeError, match="non-op"):
            run(1, program)

    def test_trace_is_wellformed(self):
        def program(rank, size):
            yield ops.Enter("main")
            yield ops.Compute(0.1, region="w")
            yield ops.Barrier()
            yield ops.Leave("main")

        result = run(3, program)
        assert lint_trace(result.trace, config=validate_config()).ok


class TestCollectives:
    def test_barrier_synchronises(self):
        def program(rank, size):
            yield ops.Compute(1.0 * (rank + 1))
            yield ops.Barrier()

        result = run(3, program, network=FAST_NET)
        # All ranks leave the barrier together, after the slowest.
        times = list(result.end_times.values())
        assert len(set(times)) == 1
        assert times[0] == pytest.approx(3.0 + FAST_NET.barrier_cost(3))

    def test_fast_rank_waits_inside_barrier(self):
        def program(rank, size):
            yield ops.Compute(1.0 if rank else 3.0)
            yield ops.Barrier()

        result = run(2, program, network=FAST_NET)
        tables = replay_trace(result.trace)
        barrier = result.trace.regions.id_of("MPI_Barrier")
        t0 = tables[0].for_region(barrier)
        t1 = tables[1].for_region(barrier)
        assert t1.inclusive[0] > t0.inclusive[0] + 1.5

    def test_allreduce_cost_scales(self):
        def program(rank, size):
            yield ops.Allreduce(size=1000)

        r2 = run(2, program, network=FAST_NET)
        r8 = run(8, program, network=FAST_NET)
        assert r8.makespan > r2.makespan

    def test_collective_mismatch_detected(self):
        def program(rank, size):
            if rank == 0:
                yield ops.Barrier()
            else:
                yield ops.Allreduce(size=8)

        with pytest.raises(RuntimeError, match="collective mismatch"):
            run(2, program)

    def test_sub_communicator(self):
        comm = ops.Comm(id=1, ranks=(0, 1))

        def program(rank, size):
            yield ops.Compute(0.1 * (rank + 1))
            if rank < 2:
                yield ops.Barrier(comm=comm)

        result = run(3, program, network=FAST_NET)
        # Rank 2 never synchronises.
        assert result.end_times[2] == pytest.approx(0.3)
        assert result.end_times[0] == result.end_times[1]

    def test_collective_on_foreign_comm_raises(self):
        comm = ops.Comm(id=1, ranks=(0,))

        def program(rank, size):
            yield ops.Barrier(comm=comm)

        with pytest.raises(ValueError, match="does not belong"):
            run(2, program)

    def test_collectives_counted(self):
        def program(rank, size):
            yield ops.Barrier()
            yield ops.Allreduce(size=8)

        assert run(4, program).collectives == 2


class TestPointToPoint:
    def test_blocking_send_recv(self):
        def program(rank, size):
            if rank == 0:
                yield ops.Compute(1.0)
                yield ops.Send(1, size=100, tag=5)
            else:
                yield ops.Recv(0, size=100, tag=5)

        result = run(2, program, network=FAST_NET)
        # Receiver leaves after message arrival: 1.0 + latency + size/bw.
        expected = 1.0 + FAST_NET.transfer_time(100) + FAST_NET.recv_overhead
        assert result.end_times[1] == pytest.approx(expected)

    def test_recv_posted_before_send(self):
        def program(rank, size):
            if rank == 0:
                yield ops.Recv(1, tag=1)
            else:
                yield ops.Compute(2.0)
                yield ops.Send(0, size=10, tag=1)

        result = run(2, program, network=FAST_NET)
        assert result.end_times[0] > 2.0

    def test_fifo_matching_per_channel(self):
        received = []

        def program(rank, size):
            if rank == 0:
                yield ops.Send(1, size=1, tag=9)
                yield ops.Compute(1.0)
                yield ops.Send(1, size=2, tag=9)
            else:
                yield ops.Recv(0, tag=9)
                yield ops.Recv(0, tag=9)

        result = run(2, program, network=FAST_NET)
        assert lint_trace(result.trace, config=validate_config()).ok
        # Sizes on the RECV events follow send order.
        from repro.trace.events import EventKind

        ev = result.trace.events_of(1)
        recvs = ev.select(ev.kind == EventKind.RECV)
        assert list(recvs.size) == [1, 2]

    def test_tags_separate_channels(self):
        def program(rank, size):
            if rank == 0:
                yield ops.Send(1, size=1, tag=1)
                yield ops.Send(1, size=2, tag=2)
            else:
                # Receive in reverse tag order: matching is per tag.
                yield ops.Recv(0, tag=2)
                yield ops.Recv(0, tag=1)

        result = run(2, program, network=FAST_NET)
        assert lint_trace(result.trace, config=validate_config()).ok

    def test_rendezvous_blocks_sender(self):
        def program(rank, size):
            if rank == 0:
                yield ops.Send(1, size=100_000, tag=1)  # above threshold
                yield ops.Compute(0.0)
            else:
                yield ops.Compute(5.0)
                yield ops.Recv(0, size=100_000, tag=1)

        result = run(2, program, network=FAST_NET)
        # Sender cannot complete before the receiver posts at t=5.
        assert result.end_times[0] > 5.0

    def test_eager_send_does_not_block(self):
        def program(rank, size):
            if rank == 0:
                yield ops.Send(1, size=10, tag=1)
                yield ops.Compute(0.0)
            else:
                yield ops.Compute(5.0)
                yield ops.Recv(0, size=10, tag=1)

        result = run(2, program, network=FAST_NET)
        assert result.end_times[0] < 1.0

    def test_isend_irecv_waitall(self):
        def program(rank, size):
            peer = 1 - rank
            r = yield ops.Irecv(peer, size=64, tag=3)
            s = yield ops.Isend(peer, size=64, tag=3)
            yield ops.Waitall([r, s])
            yield ops.Compute(0.1)

        result = run(2, program, network=FAST_NET)
        assert lint_trace(result.trace, config=validate_config()).ok
        assert result.messages == 2

    def test_wait_single_request(self):
        def program(rank, size):
            if rank == 0:
                req = yield ops.Isend(1, size=10, tag=1)
                yield ops.Wait(req)
            else:
                req = yield ops.Irecv(0, size=10, tag=1)
                yield ops.Wait(req)

        result = run(2, program, network=FAST_NET)
        assert lint_trace(result.trace, config=validate_config()).ok

    def test_wait_blocks_until_message(self):
        def program(rank, size):
            if rank == 0:
                req = yield ops.Irecv(1, size=10, tag=1)
                yield ops.Wait(req)
            else:
                yield ops.Compute(3.0)
                yield ops.Send(0, size=10, tag=1)

        result = run(2, program, network=FAST_NET)
        assert result.end_times[0] > 3.0

    def test_rendezvous_isend_completion_time(self):
        def program(rank, size):
            if rank == 0:
                req = yield ops.Isend(1, size=500_000, tag=1)
                yield ops.Wait(req)
            else:
                yield ops.Compute(2.0)
                yield ops.Recv(0, size=500_000, tag=1)

        result = run(2, program, network=FAST_NET)
        # Transfer starts at t=2 (recv post), takes 0.5s at 1MB/s.
        assert result.end_times[0] == pytest.approx(2.5, rel=0.01)


class TestDeadlockAndErrors:
    def test_recv_deadlock_detected(self):
        def program(rank, size):
            yield ops.Recv(1 - rank, tag=1)

        with pytest.raises(DeadlockError, match="MPI_Recv"):
            run(2, program)

    def test_collective_deadlock_detected(self):
        def program(rank, size):
            if rank == 0:
                yield ops.Barrier()
            else:
                yield ops.Compute(1.0)
                # rank 1 never reaches the barrier

        with pytest.raises(DeadlockError, match="MPI_Barrier"):
            run(2, program)

    def test_rendezvous_deadlock_detected(self):
        def program(rank, size):
            yield ops.Send(1 - rank, size=10_000_000, tag=1)
            yield ops.Recv(1 - rank, tag=1)

        with pytest.raises(DeadlockError, match="MPI_Send"):
            run(2, program, network=FAST_NET)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Simulator(0, lambda r, s: iter(()))


class TestCountersAndDeterminism:
    def test_explicit_counters(self):
        def program(rank, size):
            yield ops.Compute(1.0, region="w", counters={"FLOPS": 2e9})
            yield ops.Sample("FLOPS")

        result = run(1, program)
        from repro.core.metrics import per_rank_metric_total

        assert per_rank_metric_total(result.trace, "FLOPS")[0] == 2e9

    def test_rate_counters_accumulate(self):
        spec = CounterSpec(
            name="X", mode=MetricMode.ACCUMULATED, rate=lambda r, dt: 10 * dt
        )

        def program(rank, size):
            yield ops.Compute(1.0)
            yield ops.Compute(2.0)

        result = run(1, program, counters=CounterSet((spec,)))
        from repro.core.metrics import per_rank_metric_total

        assert per_rank_metric_total(result.trace, "X")[0] == 30.0

    def test_sample_explicit_value(self):
        def program(rank, size):
            yield ops.Sample("G", value=42.0)

        result = run(1, program)
        from repro.core.metrics import metric_series

        assert metric_series(result.trace, "G")[0].values[0] == 42.0

    def test_duplicate_counter_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            CounterSet((CounterSet.cycles(), CounterSet.cycles()))

    def test_determinism(self):
        from repro.sim.noise import GaussianJitter

        def program(rank, size):
            yield ops.Compute(0.5, region="w")
            yield ops.Barrier()

        noise = GaussianJitter(sigma=0.05, seed=42)
        a = run(4, program, noise=noise)
        b = run(4, program, noise=GaussianJitter(sigma=0.05, seed=42))
        for rank in range(4):
            assert a.trace.events_of(rank) == b.trace.events_of(rank)

    def test_different_seeds_differ(self):
        from repro.sim.noise import GaussianJitter

        def program(rank, size):
            yield ops.Compute(0.5, region="w")

        a = run(2, program, noise=GaussianJitter(sigma=0.05, seed=1))
        b = run(2, program, noise=GaussianJitter(sigma=0.05, seed=2))
        assert a.makespan != b.makespan


class TestNewCollectivesAndSendrecv:
    def test_gather_scatter(self):
        def program(rank, size):
            yield ops.Compute(0.01 * (rank + 1))
            yield ops.Gather(size=1024, root=0)
            yield ops.Scatter(size=1024, root=0)

        result = run(4, program, network=FAST_NET)
        assert lint_trace(result.trace, config=validate_config()).ok
        names = {r.name for r in result.trace.regions}
        assert {"MPI_Gather", "MPI_Scatter"} <= names
        # Synchronizing: all end together.
        assert len(set(result.end_times.values())) == 1

    def test_gather_cost_scales_with_p(self):
        def program(rank, size):
            yield ops.Gather(size=100_000, root=0)

        small = run(2, program, network=FAST_NET)
        large = run(8, program, network=FAST_NET)
        assert large.makespan > small.makespan

    def test_sendrecv_ring_no_deadlock(self):
        def program(rank, size):
            yield ops.Compute(0.1 * (rank + 1))
            yield ops.Sendrecv(
                dest=(rank + 1) % size, source=(rank - 1) % size,
                size=512, tag=1,
            )

        result = run(5, program, network=FAST_NET)
        assert lint_trace(result.trace, config=validate_config()).ok
        assert result.messages == 5

    def test_sendrecv_blocks_until_message_arrives(self):
        def program(rank, size):
            if rank == 1:
                yield ops.Compute(3.0)
            yield ops.Sendrecv(dest=1 - rank, source=1 - rank, size=64, tag=2)

        result = run(2, program, network=FAST_NET)
        # Rank 0 must wait for rank 1's late send.
        assert result.end_times[0] > 3.0

    def test_sendrecv_rendezvous_sizes(self):
        def program(rank, size):
            yield ops.Sendrecv(
                dest=1 - rank, source=1 - rank, size=500_000, tag=9,
            )

        result = run(2, program, network=FAST_NET)
        assert lint_trace(result.trace, config=validate_config()).ok
        # Both transfers complete: 0.5s at 1 MB/s plus overheads.
        assert result.makespan >= 0.5

    def test_sendrecv_asymmetric_sizes(self):
        def program(rank, size):
            recv_size = 128 if rank == 0 else 64
            send_size = 64 if rank == 0 else 128
            yield ops.Sendrecv(dest=1 - rank, source=1 - rank,
                               size=send_size, recv_size=recv_size, tag=5)

        result = run(2, program, network=FAST_NET)
        from repro.trace.events import EventKind

        ev0 = result.trace.events_of(0)
        recvs = ev0.select(ev0.kind == EventKind.RECV)
        assert list(recvs.size) == [128]


class TestInputValidation:
    def test_negative_compute_rejected(self):
        def program(rank, size):
            yield ops.Compute(-1.0)

        with pytest.raises(ValueError, match="negative Compute"):
            run(1, program)

    def test_negative_interruption_rejected(self):
        def program(rank, size):
            yield ops.Compute(1.0, interruption=-0.5)

        with pytest.raises(ValueError, match="negative Compute"):
            run(1, program)

    def test_negative_elapse_rejected(self):
        def program(rank, size):
            yield ops.Elapse(-1.0)

        with pytest.raises(ValueError, match="negative Elapse"):
            run(1, program)

    def test_zero_durations_fine(self):
        def program(rank, size):
            yield ops.Compute(0.0)
            yield ops.Elapse(0.0)

        assert run(1, program).makespan == 0.0
