"""Property tests of the injection knobs in :mod:`repro.sim.noise`.

Two contracts matter for every knob the fuzzer samples:

* **Determinism** — a model's interruption is a pure function of its
  constructor arguments and the ``(rank, t_start, active)`` query.
  Scheduling order, call count and process boundaries must not leak
  in; this is what makes whole fuzz scenarios reproducible from one
  integer seed.
* **Effectiveness** — each knob actually perturbs the metric it
  claims to perturb when simulated, and leaves untargeted ranks
  untouched.  An injection that silently does nothing would turn
  fuzz scenarios into unlabelled no-ops.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim import ops
from repro.sim.engine import simulate
from repro.sim.noise import (
    CompositeNoise,
    GaussianJitter,
    ImbalanceRamp,
    NoiseBursts,
    NoNoise,
    ScheduledInterruptions,
    Straggler,
    scalar_noise,
    vector_noise,
)

ranks_st = st.integers(min_value=0, max_value=15)
t_st = st.floats(min_value=0.0, max_value=10.0,
                 allow_nan=False, allow_infinity=False)
active_st = st.floats(min_value=1e-6, max_value=1.0,
                      allow_nan=False, allow_infinity=False)


def _makespan(noise, ranks=4, iterations=6, compute=0.01):
    def program(rank, size):
        yield ops.Enter("main")
        for _ in range(iterations):
            yield ops.Enter("iteration")
            yield ops.Compute(compute, region="work")
            yield ops.Barrier()
            yield ops.Leave("iteration")
        yield ops.Leave("main")

    trace = simulate(size=ranks, program=program, noise=noise).trace
    return {
        rank: float(trace.events_of(rank).time[-1])
        for rank in trace.ranks
    }


class TestDeterminism:
    @given(seed=st.integers(0, 2**31), sigma=st.floats(0.0, 0.5),
           rank=ranks_st, t=t_st, active=active_st)
    @example(seed=0, sigma=0.01, rank=0, t=8.5, active=0.5)  # 1-word key
    @settings(max_examples=60, deadline=None)
    def test_gaussian_jitter_pure(self, seed, sigma, rank, t, active):
        a = GaussianJitter(sigma=sigma, seed=seed)
        b = GaussianJitter(sigma=sigma, seed=seed)
        first = a.interruption(rank, t, active)
        assert first == b.interruption(rank, t, active)
        # Repeated queries of the same model must not advance state.
        assert first == a.interruption(rank, t, active)
        assert first >= 0.0
        # The fast path's whole-vector draw and the engine's compiled
        # closure equal the reference rank by rank, bit for bit -- also
        # where int(t * 1e9) switches from one 32-bit seed word to two.
        starts = [0.0, 1e-9, 2e-9] + [
            ns * 1e-9 for ns in (2**32 - 1, 2**32, 2**32 + 1, 2**33)
        ]
        size = 16
        t_vec = np.resize(np.array(starts), size)
        t_vec[rank] = t
        act = np.linspace(active, 2 * active, size)
        got = vector_noise(a, size)(t_vec, act)
        want = [a.interruption(r, float(t_vec[r]), float(act[r])) for r in range(size)]
        assert got.view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()
        closure = scalar_noise(a, size)
        assert closure is not a.interruption
        for _ in range(2):  # the second pass reuses each rank's key pool
            drawn = [closure(r, float(t_vec[r]), float(act[r])) for r in range(size)]
            assert np.array(drawn).view(np.uint64).tolist() == (
                np.array(want).view(np.uint64).tolist()
            )

    @given(rank=ranks_st, t=t_st, active=active_st,
           period=st.floats(0.01, 2.0), duration=st.floats(0.0, 0.5),
           phase=st.floats(0.0, 1.0), window=st.floats(0.001, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_bursts_pure_and_bounded(self, rank, t, active, period,
                                     duration, phase, window):
        model = NoiseBursts(ranks=(rank,), period=period,
                            duration=duration, phase=phase, window=window)
        got = model.interruption(rank, t, active)
        assert got == model.interruption(rank, t, active)
        assert got in (0.0, duration)
        assert model.interruption(rank + 1, t, active) == 0.0

    @given(rank=ranks_st, t=t_st, active=active_st,
           rate=st.floats(0.01, 5.0), t_cap=st.floats(0.1, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_ramp_pure_monotone_capped(self, rank, t, active, rate, t_cap):
        model = ImbalanceRamp(ranks=(rank,), rate=rate, t_cap=t_cap)
        got = model.interruption(rank, t, active)
        assert got == model.interruption(rank, t, active)
        # Later queries never yield less, and the cap bounds the ramp.
        assert model.interruption(rank, t + 1.0, active) >= got
        assert got <= rate * t_cap * active + 1e-12
        assert model.interruption(rank + 1, t, active) == 0.0

    @given(rank=ranks_st, t=t_st, active=active_st,
           factor=st.floats(1.0, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_straggler_pure_proportional(self, rank, t, active, factor):
        model = Straggler(ranks=(rank,), factor=factor)
        got = model.interruption(rank, t, active)
        assert got == model.interruption(rank, t, active)
        assert got == pytest.approx((factor - 1.0) * active)
        # Time-independent: a straggler is slow at t=0 and at t=1000.
        assert model.interruption(rank, t + 1000.0, active) == got

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_simulated_traces_identical_per_seed(self, seed):
        from repro.trace.fingerprint import fingerprint_trace

        noise = CompositeNoise(models=(
            GaussianJitter(sigma=0.05, seed=seed),
            NoiseBursts(ranks=(1,), period=0.05, duration=0.01),
            Straggler(ranks=(2,), factor=1.5),
        ))
        a = fingerprint_trace(simulate(
            size=3, program=_two_iter_program, noise=noise).trace)
        b = fingerprint_trace(simulate(
            size=3, program=_two_iter_program, noise=noise).trace)
        assert a.hexdigest == b.hexdigest


def _two_iter_program(rank, size):
    yield ops.Enter("main")
    for _ in range(2):
        yield ops.Enter("iteration")
        yield ops.Compute(0.01, region="work")
        yield ops.Allreduce(size=8)
        yield ops.Leave("iteration")
    yield ops.Leave("main")


class TestEffectiveness:
    """Each knob must move the metric it targets, on the ranks it targets."""

    def test_bursts_stretch_target_rank(self):
        clean = _makespan(NoNoise())
        noisy = _makespan(NoiseBursts(
            ranks=(1,), period=0.005, duration=0.02, window=0.005
        ))
        assert noisy[1] > clean[1]

    def test_ramp_grows_over_time(self):
        model = ImbalanceRamp(ranks=(0,), rate=2.0)
        early = model.interruption(0, 0.01, 0.01)
        late = model.interruption(0, 1.0, 0.01)
        assert late > early * 10
        assert _makespan(model)[0] > _makespan(NoNoise())[0]

    def test_straggler_scales_with_factor(self):
        slow = _makespan(Straggler(ranks=(2,), factor=2.0))
        slower = _makespan(Straggler(ranks=(2,), factor=4.0))
        clean = _makespan(NoNoise())
        assert clean[2] < slow[2] < slower[2]

    def test_untargeted_compute_is_untouched(self):
        # The barrier couples finish times, so compare the isolated
        # models' raw interruption on a rank outside their target set.
        for model in (
            NoiseBursts(ranks=(1,), period=0.01, duration=0.05),
            ImbalanceRamp(ranks=(1,), rate=3.0),
            Straggler(ranks=(1,), factor=5.0),
            ScheduledInterruptions(events=((1, 0.0, 1.0, 0.5),)),
        ):
            assert model.interruption(0, 0.5, 0.1) == 0.0

    def test_jitter_sigma_zero_is_noiseless(self):
        model = GaussianJitter(sigma=0.0, seed=9)
        assert model.interruption(3, 0.25, 0.1) == 0.0

    def test_straggler_rejects_speedup(self):
        with pytest.raises(ValueError):
            Straggler(ranks=(0,), factor=0.5)

    @given(duration=st.floats(0.005, 0.1))
    @settings(max_examples=10, deadline=None)
    def test_burst_duration_reaches_the_trace(self, duration):
        # The injected delay must surface in the target rank's finish
        # time by at least one full burst duration.
        clean = _makespan(NoNoise())
        noisy = _makespan(NoiseBursts(
            ranks=(0,), period=0.004, duration=duration, window=0.004
        ))
        assert noisy[0] - clean[0] >= duration

    def test_composite_sums_members(self):
        members = (
            Straggler(ranks=(0,), factor=2.0),
            ImbalanceRamp(ranks=(0,), rate=1.0),
        )
        combined = CompositeNoise(models=members)
        t, active = 0.5, 0.02
        assert combined.interruption(0, t, active) == pytest.approx(
            sum(m.interruption(0, t, active) for m in members)
        )

    def test_counters_do_not_advance_during_interruptions(self):
        # Noise stretches wall time only: cycle counts must match the
        # clean run sample for sample.
        from repro.sim.countermodel import CounterSet
        from repro.trace.events import EventKind

        def run(noise):
            def program(rank, size):
                yield ops.Enter("main")
                yield ops.Compute(0.02, region="work")
                yield ops.Leave("main")

            return simulate(
                size=2, program=program, noise=noise,
                counters=CounterSet((CounterSet.cycles(),)),
            ).trace

        clean, noisy = run(NoNoise()), run(Straggler(ranks=(1,), factor=3.0))
        for rank in (0, 1):
            a = clean.events_of(rank)
            b = noisy.events_of(rank)
            metric = EventKind.METRIC
            np.testing.assert_array_equal(
                a.value[a.kind == metric], b.value[b.kind == metric]
            )
