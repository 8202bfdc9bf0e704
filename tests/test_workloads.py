"""Tests for workload generators (beyond the case-study assertions)."""

import numpy as np
import pytest

from repro.core import analyze_trace
from repro.profiles import replay_trace
from repro.sim.workloads.base import CloudField, per_rank_cost
from repro.sim.workloads.cosmo_specs import CosmoSpecsConfig
from repro.sim.workloads.synthetic import SyntheticConfig, generate, generate_result
from repro.lint import lint_trace, validate_config


class TestCloudField:
    def test_weights_shape_and_floor(self):
        cloud = CloudField(nx=10, ny=8, center=(5, 4), sigma=2.0)
        w = cloud.weights(10)
        assert w.shape == (8, 10)
        assert np.all(w >= 1.0)

    def test_peak_at_center(self):
        cloud = CloudField(nx=11, ny=11, center=(5.5, 5.5), sigma=1.0,
                           growth_steps=1)
        w = cloud.weights(1)
        iy, ix = np.unravel_index(np.argmax(w), w.shape)
        assert (ix, iy) == (5, 5)

    def test_amplitude_ramp(self):
        cloud = CloudField(nx=4, ny=4, center=(2, 2), sigma=1.0,
                           max_amplitude=10.0, growth_steps=10)
        assert cloud.amplitude(0) == 0.0
        assert cloud.amplitude(5) == 5.0
        assert cloud.amplitude(10) == 10.0
        assert cloud.amplitude(99) == 10.0

    def test_growth_exponent(self):
        linear = CloudField(nx=4, ny=4, center=(2, 2), sigma=1.0,
                            max_amplitude=8.0, growth_steps=10)
        quadratic = CloudField(nx=4, ny=4, center=(2, 2), sigma=1.0,
                               max_amplitude=8.0, growth_steps=10,
                               growth_exponent=2.0)
        assert quadratic.amplitude(5) < linear.amplitude(5)
        assert quadratic.amplitude(10) == linear.amplitude(10)

    def test_drift_moves_peak(self):
        cloud = CloudField(nx=20, ny=20, center=(5, 10), sigma=1.0,
                           growth_steps=1, drift=(1.0, 0.0))
        w0 = cloud.weights(1)
        w5 = cloud.weights(5)
        x0 = np.unravel_index(np.argmax(w0), w0.shape)[1]
        x5 = np.unravel_index(np.argmax(w5), w5.shape)[1]
        assert x5 > x0

    def test_anisotropic_sigma(self):
        cloud = CloudField(nx=21, ny=21, center=(10.5, 10.5),
                           sigma=(1.0, 4.0), growth_steps=1)
        w = cloud.weights(1)
        # Wider in y than in x: farther cells in y keep more weight.
        assert w[16, 10] > w[10, 16]

    def test_per_rank_cost(self):
        weights = np.ones(8)
        assignment = np.asarray([0, 0, 1, 1, 2, 2, 3, 3])
        cost = per_rank_cost(weights, assignment, 4)
        assert list(cost) == [2.0, 2.0, 2.0, 2.0]

    def test_per_rank_cost_length_check(self):
        with pytest.raises(ValueError):
            per_rank_cost(np.ones(4), np.zeros(5, dtype=int), 2)


class TestCosmoSpecsConfig:
    def test_defaults_match_paper_scale(self):
        config = CosmoSpecsConfig()
        assert config.processes == 100
        assert config.iterations == 60

    def test_grid_dimensions(self):
        config = CosmoSpecsConfig(px=4, py=5, cells_per_rank=3)
        assert config.nx == 12 and config.ny == 15

    def test_non_square_process_count_rejected(self):
        from repro.sim.workloads import cosmo_specs

        with pytest.raises(ValueError, match="perfect square"):
            cosmo_specs.generate(processes=50)

    def test_small_run_is_valid_and_detectable(self):
        from repro.sim.workloads import cosmo_specs

        config = CosmoSpecsConfig(px=4, py=4, iterations=15)
        result = cosmo_specs.generate_result(config)
        assert lint_trace(result.trace, config=validate_config()).ok
        analysis = analyze_trace(result.trace)
        assert analysis.dominant_name == "timeloop_iteration"


class TestFD4Workload:
    def test_interrupt_rank_validated(self):
        from repro.sim.workloads import cosmo_specs_fd4

        with pytest.raises(ValueError, match="interrupt_rank"):
            cosmo_specs_fd4.generate(
                processes=10, iterations=2, interrupt_rank=99,
                blocks_x=8, blocks_y=8,
            )

    def test_small_run(self):
        from repro.sim.workloads import cosmo_specs_fd4

        trace = cosmo_specs_fd4.generate(
            processes=8,
            iterations=6,
            blocks_x=8,
            blocks_y=8,
            interrupt_rank=3,
            interrupt_step=2,
            interrupt_substep=1,
            interrupt_seconds=0.1,
        )
        assert lint_trace(trace, config=validate_config()).ok
        analysis = analyze_trace(trace)
        hot = analysis.imbalance.hottest_segment()
        assert hot.rank == 3 and hot.segment_index == 2


class TestWRFWorkload:
    def test_slow_rank_validated(self):
        from repro.sim.workloads import wrf

        with pytest.raises(ValueError, match="slow_rank"):
            wrf.generate(processes=4, iterations=2, slow_rank=64)

    def test_non_square_rejected(self):
        from repro.sim.workloads import wrf

        with pytest.raises(ValueError, match="perfect square"):
            wrf.generate(processes=12)

    def test_small_run_flags_slow_rank(self):
        from repro.sim.workloads import wrf

        trace = wrf.generate(processes=16, iterations=8, slow_rank=5,
                             init_seconds=0.5)
        analysis = analyze_trace(trace)
        assert analysis.hot_ranks() == [5]


class TestSyntheticWorkload:
    def test_ground_truth(self):
        config = SyntheticConfig(
            slow_ranks={3: 2.0}, outliers={(1, 4): 0.1}, trend_per_step=0.01
        )
        gt = config.ground_truth()
        assert gt.slow_ranks == (3,)
        assert gt.outlier_segments == ((1, 4),)
        assert gt.has_trend

    def test_compute_seconds(self):
        config = SyntheticConfig(
            base_compute=1.0, slow_ranks={2: 3.0}, trend_per_step=0.1
        )
        assert config.compute_seconds(0, 0) == 1.0
        assert config.compute_seconds(2, 0) == 3.0
        assert config.compute_seconds(0, 1) == pytest.approx(1.1)

    def test_collective_variants(self):
        for collective in ("allreduce", "barrier", "none"):
            trace = generate(
                SyntheticConfig(ranks=3, iterations=3, collective=collective)
            )
            assert lint_trace(trace, config=validate_config()).ok

    def test_bad_collective(self):
        with pytest.raises(ValueError, match="unknown collective"):
            generate(SyntheticConfig(collective="gossip"))

    def test_no_halo_single_rank(self):
        trace = generate(SyntheticConfig(ranks=1, iterations=3, use_halo=False,
                                         collective="none"))
        assert lint_trace(trace, config=validate_config()).ok

    def test_subiters(self):
        trace = generate(SyntheticConfig(ranks=2, iterations=4, subiters=3))
        from repro.profiles import profile_trace

        stats = profile_trace(trace, replay_trace(trace)).stats
        assert stats.of("work").count == 2 * 4 * 3

    def test_generate_kwargs_form(self):
        trace = generate(ranks=2, iterations=2)
        assert trace.num_processes == 2

    def test_generate_rejects_both_forms(self):
        with pytest.raises(TypeError):
            generate(SyntheticConfig(), ranks=2)

    def test_jitter(self):
        result = generate_result(
            SyntheticConfig(ranks=2, iterations=3, jitter_sigma=0.05, seed=1)
        )
        durations = analyze_trace(result.trace).sos.duration_matrix()
        assert np.std(durations) > 0
