"""Tests for simulator support modules: network, noise, counters, program."""

import numpy as np
import pytest

from repro.sim import ops
from repro.sim.countermodel import CounterSet, PAPI_TOT_CYC
from repro.sim.network import NetworkModel
from repro.sim.noise import (
    CompositeNoise,
    GaussianJitter,
    NoNoise,
    ScheduledInterruptions,
)
from repro.sim.program import grid_coords, grid_rank, halo_exchange, neighbors_2d


class TestNetworkModel:
    def test_transfer_time(self):
        net = NetworkModel(latency=1e-6, bandwidth=1e9)
        assert net.transfer_time(0) == 1e-6
        assert net.transfer_time(1000) == pytest.approx(2e-6)

    def test_eager_threshold(self):
        net = NetworkModel(eager_threshold=100)
        assert net.is_eager(100)
        assert not net.is_eager(101)

    def test_collective_costs_grow_with_p(self):
        net = NetworkModel()
        assert net.barrier_cost(64) > net.barrier_cost(2)
        assert net.allreduce_cost(1024, 64) > net.allreduce_cost(1024, 4)
        assert net.alltoall_cost(1024, 64) > net.allgather_cost(1024, 2)

    def test_collective_costs_grow_with_size(self):
        net = NetworkModel()
        assert net.bcast_cost(1 << 20, 8) > net.bcast_cost(8, 8)
        assert net.reduce_cost(1 << 20, 8) > net.reduce_cost(8, 8)

    def test_minimum_one_round(self):
        net = NetworkModel()
        assert net.barrier_cost(1) > 0


class TestNoiseModels:
    def test_no_noise(self):
        assert NoNoise().interruption(0, 1.0, 5.0) == 0.0

    def test_gaussian_jitter_deterministic(self):
        a = GaussianJitter(sigma=0.1, seed=1)
        b = GaussianJitter(sigma=0.1, seed=1)
        assert a.interruption(3, 2.5, 1.0) == b.interruption(3, 2.5, 1.0)

    def test_gaussian_jitter_varies_with_inputs(self):
        noise = GaussianJitter(sigma=0.1, seed=1)
        values = {
            noise.interruption(rank, t, 1.0)
            for rank in range(4)
            for t in (0.1, 0.2, 0.3)
        }
        assert len(values) > 6

    def test_gaussian_jitter_nonnegative(self):
        noise = GaussianJitter(sigma=0.5, seed=9)
        for t in np.linspace(0, 10, 50):
            assert noise.interruption(0, float(t), 1.0) >= 0.0

    def test_gaussian_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            GaussianJitter(sigma=-0.1)

    def test_scheduled_interruptions(self):
        noise = ScheduledInterruptions(events=((2, 1.0, 2.0, 0.5),))
        assert noise.interruption(2, 1.5, 1.0) == 0.5
        assert noise.interruption(2, 2.5, 1.0) == 0.0  # outside window
        assert noise.interruption(1, 1.5, 1.0) == 0.0  # other rank

    def test_scheduled_multiple_windows_accumulate(self):
        noise = ScheduledInterruptions(
            events=((0, 0.0, 10.0, 0.1), (0, 0.0, 10.0, 0.2))
        )
        assert noise.interruption(0, 5.0, 1.0) == pytest.approx(0.3)

    def test_composite(self):
        noise = CompositeNoise(
            models=(
                ScheduledInterruptions(events=((0, 0.0, 1.0, 0.5),)),
                NoNoise(),
            )
        )
        assert noise.interruption(0, 0.5, 1.0) == 0.5


class TestCounterSpecs:
    def test_cycles_spec(self):
        spec = CounterSet.cycles(frequency_hz=2e9)
        assert spec.name == PAPI_TOT_CYC
        assert spec.increment(0, 0.5) == 1e9

    def test_fpu_spec_hot_ranks(self):
        spec = CounterSet.fpu_exceptions(base_rate=10.0, hot_ranks={3: 1e6})
        assert spec.increment(0, 1.0) == 10.0
        assert spec.increment(3, 1.0) == 1e6

    def test_spec_without_rate(self):
        from repro.sim.countermodel import CounterSpec

        assert CounterSpec(name="X").increment(0, 1.0) == 0.0


class TestGridTopology:
    def test_coords_roundtrip(self):
        for rank in range(12):
            col, row = grid_coords(rank, 4, 3)
            assert grid_rank(col, row, 4, 3) == rank

    def test_coords_out_of_range(self):
        with pytest.raises(ValueError):
            grid_coords(12, 4, 3)
        with pytest.raises(ValueError):
            grid_rank(4, 0, 4, 3)

    def test_interior_neighbors(self):
        nbrs = neighbors_2d(5, 4, 3)  # (1,1) in a 4x3 grid
        assert nbrs == [4, 6, 1, 9]

    def test_corner_neighbors(self):
        assert neighbors_2d(0, 4, 3) == [1, 4]

    def test_periodic_neighbors(self):
        nbrs = neighbors_2d(0, 4, 3, periodic=True)
        assert sorted(nbrs) == [1, 3, 4, 8]

    def test_halo_exchange_ops(self):
        gen = halo_exchange(0, [1, 2], size=64, tag=5)
        first = next(gen)
        assert isinstance(first, ops.Enter)
        op = gen.send(None)
        assert isinstance(op, ops.Irecv) and op.source == 1
        op = gen.send(ops.Request(0, "recv", 1, 64, 5))
        assert isinstance(op, ops.Irecv) and op.source == 2
        op = gen.send(ops.Request(0, "recv", 2, 64, 5))
        assert isinstance(op, ops.Isend) and op.dest == 1

    def test_halo_exchange_runs_in_engine(self):
        from repro.sim.engine import simulate

        def program(rank, size):
            yield ops.Enter("main")
            yield from halo_exchange(
                rank, neighbors_2d(rank, 2, 2), size=128, tag=1
            )
            yield ops.Leave("main")

        result = simulate(4, program)
        from repro.lint import lint_trace, validate_config

        assert lint_trace(result.trace, config=validate_config()).ok
        assert result.messages == 8

    def test_halo_exchange_no_region(self):
        gen = halo_exchange(0, [1], size=8, tag=0, region=None)
        op = next(gen)
        assert isinstance(op, ops.Irecv)
