"""Differential tests: fast path vs general interpreter, one recorder.

The vectorized fast path is only allowed to exist because it is
bitwise-indistinguishable from the general interpreter, which records
event by event through :class:`repro.trace.builder.TraceBuilder`.  These
tests pin that equivalence — trace fingerprints across engines, file
bytes across ``.rpt`` versions and codecs — plus the recorder's error
messages and the topology network models feeding the congestion
workload.  ``tests/test_recorder_golden.py`` pins the fingerprints
themselves.
"""

import pytest

from repro.sim import fastpath, ops
from repro.sim.engine import simulate
from repro.sim.network import (
    DragonflyTopology,
    FatTreeTopology,
    NetworkModel,
    TopologyNetworkModel,
    TorusTopology,
)
from repro.sim.workloads import (
    congestion,
    cosmo_specs,
    idle_wave,
    late_sender,
    serialization,
)
from repro.sim.workloads.cosmo_specs import CosmoSpecsConfig
from repro.sim.workloads.synthetic import SyntheticConfig, generate_result
from repro.trace import read_trace, write_binary
from repro.trace.builder import TraceBuilder
from repro.trace.fingerprint import fingerprint_trace


SYNTHETIC_VARIANTS = {
    "w1": SyntheticConfig(ranks=8, iterations=12),
    "outliers": SyntheticConfig(
        ranks=6, iterations=10, outliers={(2, 3): 0.05, (5, 7): 0.02}
    ),
    "slow-trend": SyntheticConfig(
        ranks=6, iterations=10, slow_ranks={1: 1.5}, trend_per_step=0.01
    ),
    "subiters": SyntheticConfig(ranks=5, iterations=8, subiters=3),
    "barrier": SyntheticConfig(ranks=6, iterations=8, collective="barrier"),
    "no-collective": SyntheticConfig(ranks=6, iterations=8, collective="none"),
    "no-halo": SyntheticConfig(ranks=6, iterations=8, use_halo=False),
    "two-ranks": SyntheticConfig(ranks=2, iterations=6),
    "one-rank": SyntheticConfig(ranks=1, iterations=6),
    "jitter": SyntheticConfig(ranks=6, iterations=10, jitter_sigma=0.001),
}

#: COSMO-SPECS on square process grids, 6 iterations each: corner, edge
#: and interior ranks have 2, 3 and 4 halo neighbours, the 1x1 grid
#: none.  The rendezvous case sends halos above the eager threshold,
#: which only the engine reproduces.
COSMO_VARIANTS = {
    f"cosmo-{n}x{n}": CosmoSpecsConfig(px=n, py=n, iterations=6)
    for n in (1, 2, 3, 4, 10)
}
COSMO_VARIANTS["cosmo-3x3-rendezvous"] = CosmoSpecsConfig(
    px=3, py=3, iterations=6, halo_bytes=128 * 1024
)
COSMO_SEEDS = (7, 20160816)

#: (variant, seed) pairs of the fast-path-vs-engine parity test.
PARITY_CASES = [
    (name, seed) for seed in (1, 2, 3) for name in sorted(SYNTHETIC_VARIANTS)
] + [(name, seed) for seed in COSMO_SEEDS for name in sorted(COSMO_VARIANTS)]

PHENOMENON_CASES = [
    (idle_wave, {"ranks": 12, "iterations": 10}),
    (late_sender, {"ranks": 8, "iterations": 10}),
    (serialization, {}),
    (congestion, {"ranks": 24, "iterations": 6}),
]


def _fingerprints(trace):
    fp = fingerprint_trace(trace)
    return fp.hexdigest, tuple(fp.rank_digest(r) for r in trace.ranks)


def _variant_result(name, seed):
    from repro._record import replace

    if name in COSMO_VARIANTS:
        return cosmo_specs.generate_result(replace(COSMO_VARIANTS[name], seed=seed))
    return generate_result(replace(SYNTHETIC_VARIANTS[name], seed=seed))


def _general(fn, monkeypatch):
    """Run ``fn`` with the vectorized fast path disabled."""
    monkeypatch.setenv("REPRO_SIM_NO_FASTPATH", "1")
    try:
        return fn()
    finally:
        monkeypatch.delenv("REPRO_SIM_NO_FASTPATH")


class TestSinkParity:
    """Fast path == general interpreter, both recording through the one
    ``TraceBuilder`` (test ids predate the single recorder)."""

    @pytest.mark.parametrize(
        "name,seed", PARITY_CASES, ids=[f"{s}-{n}" for n, s in PARITY_CASES]
    )
    def test_synthetic_three_way(self, name, seed, monkeypatch):
        """Fingerprints, event counts and run statistics agree, for the
        synthetic variants and the COSMO-SPECS grids; every case but the
        rendezvous one takes the fast path."""
        vectorised = []

        def spy(sim, run_fast=fastpath.run_fast):
            result = run_fast(sim)
            vectorised.append(result is not None)
            return result

        with monkeypatch.context() as patch:
            patch.setattr(fastpath, "run_fast", spy)
            fast = _variant_result(name, seed)
        assert vectorised == [not name.endswith("rendezvous")]
        general = _general(lambda: _variant_result(name, seed), monkeypatch)
        assert _fingerprints(general.trace) == _fingerprints(fast.trace)
        assert general.events == fast.events
        assert general.makespan == fast.makespan
        assert general.messages == fast.messages
        assert general.collectives == fast.collectives

    @pytest.mark.parametrize("module,kwargs", PHENOMENON_CASES)
    def test_phenomenon_workloads(self, module, kwargs, monkeypatch):
        fast_fp = _fingerprints(module.generate(**kwargs))
        general_fp = _fingerprints(
            _general(lambda: module.generate(**kwargs), monkeypatch)
        )
        assert general_fp == fast_fp


class TestDirectWrite:
    """SimResult.write streams buffers to .rpt without Trace objects."""

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("codec", [None, "raw", "zlib"])
    def test_bytes_identical_to_legacy_writer(self, tmp_path, version, codec):
        if version == 1 and codec is not None:
            pytest.skip("v1 has no codecs")
        config = SyntheticConfig(ranks=6, iterations=10)
        result = generate_result(config)

        direct = tmp_path / "direct.rpt"
        kwargs = {"version": version}
        if codec is not None:
            kwargs["codec"] = codec
        total = result.write(direct, **kwargs)
        assert total == direct.stat().st_size

        staged = tmp_path / "staged.rpt"
        write_binary(result.trace, staged, **kwargs)
        assert direct.read_bytes() == staged.read_bytes()

    def test_general_run_bytes_identical(self, tmp_path, monkeypatch):
        result = _general(
            lambda: generate_result(SyntheticConfig(ranks=4, iterations=5)),
            monkeypatch,
        )
        result.write(tmp_path / "direct.rpt")
        write_binary(result.trace, tmp_path / "staged.rpt")
        assert (tmp_path / "direct.rpt").read_bytes() == (
            tmp_path / "staged.rpt"
        ).read_bytes()

    def test_written_trace_round_trips(self, tmp_path):
        result = idle_wave.generate_result()
        path = tmp_path / "iw.rpt"
        result.write(path)
        loaded = read_trace(path)
        assert _fingerprints(loaded) == _fingerprints(result.trace)


class TestRecorderErrorParity:
    """The recorder's error messages, verbatim."""

    def _recorder(self):
        tb = TraceBuilder()
        tb.region("main")
        tb.region("work")
        return tb, tb.process(0)

    def _message(self, drive):
        tb, rec = self._recorder()
        with pytest.raises(ValueError) as err:
            drive(tb, rec)
        return str(err.value)

    def test_leave_on_empty_stack(self):
        msg = self._message(lambda tb, rec: rec.leave(1.0))
        assert msg == "leave at t=1.0 on Process 0: stack is empty"

    def test_leave_mismatch(self):
        def drive(tb, rec):
            rec.enter(0.0, "main")
            rec.leave(1.0, "work")

        msg = self._message(drive)
        assert msg == "leave('work') at t=1.0 does not match open region 'main'"

    def test_non_monotonic_time(self):
        def drive(tb, rec):
            rec.enter(1.0, "main")
            rec.enter(0.5, "work")

        msg = self._message(drive)
        assert msg == "non-monotonic timestamp 0.5 after 1.0"

    def test_negative_call_duration(self):
        msg = self._message(lambda tb, rec: rec.call(2.0, 1.0, "main"))
        assert msg == "negative duration: [2.0, 1.0]"

    def test_unclosed_regions_at_freeze(self):
        def drive(tb, rec):
            rec.enter(0.0, "main")
            rec.enter(0.5, "work")
            tb.freeze()

        msg = self._message(drive)
        assert msg == (
            "Process 0: unclosed regions at end of trace: ['main', 'work']"
        )

        def program(rank, size):
            yield ops.Enter("main")

        with pytest.raises(ValueError) as err:
            simulate(1, program)
        assert str(err.value) == (
            "Rank 0: unclosed regions at end of trace: ['main']"
        )


class TestTopologies:
    def test_fat_tree_hop_counts(self):
        topo = FatTreeTopology(leaf_arity=4, spines=2)
        assert topo.route(3, 3) == ()
        assert topo.hops(0, 1) == 2  # same leaf
        assert topo.hops(0, 5) == 4  # via spine
        assert len(topo.route(0, 5)) == topo.hops(0, 5)

    def test_torus_shortest_wrap(self):
        topo = TorusTopology(dims=(4, 4))
        assert topo.hops(0, 0) == 0
        assert topo.hops(0, 3) == 1  # wrap is shorter than 3 steps
        assert topo.hops(0, 5) == 2  # one step per axis
        assert topo.diameter == 4
        assert len(topo.route(0, 5)) == 2

    def test_dragonfly_max_hops(self):
        topo = DragonflyTopology(groups=3, routers=3, hosts_per_router=2)
        ranks = 3 * 3 * 2
        for src in range(ranks):
            for dst in range(ranks):
                assert len(topo.route(src, dst)) <= topo.diameter

    def test_routes_are_deterministic(self):
        for topo in (
            FatTreeTopology(leaf_arity=4, spines=2),
            TorusTopology(dims=(3, 3)),
            DragonflyTopology(groups=2, routers=2, hosts_per_router=2),
        ):
            assert topo.route(1, 6) == topo.route(1, 6)

    def test_congestion_queues_on_shared_link(self):
        net = TopologyNetworkModel(
            topology=FatTreeTopology(leaf_arity=8, spines=2),
            link_bandwidth=1e9,
        )
        net.reset()
        first = net.eager_completion(1, 0, 64 * 1024, 0.0)
        second = net.eager_completion(2, 0, 64 * 1024, 0.0)
        # Both payloads share the root's down-link: the second queues.
        assert second > first
        # Without congestion both finish together.
        free = TopologyNetworkModel(
            topology=FatTreeTopology(leaf_arity=8, spines=2),
            link_bandwidth=1e9,
            congestion=False,
        )
        assert free.eager_completion(1, 0, 64 * 1024, 0.0) == pytest.approx(
            free.eager_completion(2, 0, 64 * 1024, 0.0)
        )

    def test_reset_restores_determinism(self):
        net = TopologyNetworkModel(
            topology=TorusTopology(dims=(4, 4)), link_bandwidth=1e9
        )
        net.reset()
        a = net.transfer_completion(0, 5, 1 << 20, 0.0)
        net.reset()
        b = net.transfer_completion(0, 5, 1 << 20, 0.0)
        assert a == b

    def test_flat_model_hooks_match_classic_formulas(self):
        net = NetworkModel()
        assert net.path_latency(0, 1) == net.latency
        assert net.eager_completion(0, 1, 4096, 2.5) == 2.5 + net.transfer_time(4096)
        assert net.transfer_completion(0, 1, 4096, 2.5) == 2.5 + 4096 / net.bandwidth

    def test_congestion_workload_deterministic(self):
        cfg = congestion.CongestionConfig(ranks=16, iterations=4)
        a = congestion.generate_result(cfg).trace
        b = congestion.generate_result(cfg).trace
        assert _fingerprints(a) == _fingerprints(b)

    def test_congestion_collapse_slower_than_flat(self):
        cfg = congestion.CongestionConfig(ranks=32, iterations=6)
        topo = congestion.generate_result(cfg).trace
        flat = congestion.generate_result(cfg, network=NetworkModel()).trace
        assert topo.duration > flat.duration


class TestObsCounters:
    @pytest.fixture
    def obs_collector(self):
        from repro import obs

        col = obs.enable()
        yield col
        obs.disable()

    def test_simulation_emits_counters(self, obs_collector):
        result = generate_result(SyntheticConfig(ranks=4, iterations=6))
        counters = obs_collector.counters()
        assert counters.get("sim.events_emitted") == result.events
        assert counters.get("sim.heap_ops") == result.sched_ops

    def test_direct_write_counts_bytes(self, tmp_path, obs_collector):
        result = generate_result(SyntheticConfig(ranks=4, iterations=6))
        total = result.write(tmp_path / "t.rpt")
        assert obs_collector.counters().get("sim.bytes_written") == total
