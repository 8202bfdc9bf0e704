"""Tests for hotspot detection and temporal variation analysis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.imbalance import (
    _nanmedian_rows,
    detect_imbalances,
    finite_median,
    imbalance_percentage,
    robust_zscores,
)
from repro.core.sos import RankSOS, SOSResult
from repro.core.segments import RankSegments, Segmentation
from repro.core.classify import default_classifier
from repro.core.variation import (
    binned_matrix,
    detect_trend,
    mann_kendall,
    step_series,
    theil_sen_slope,
)


def make_sos(matrix, seg_duration=1.0):
    """Build an SOSResult from a dense (ranks, segments) value matrix."""
    matrix = np.asarray(matrix, dtype=np.float64)
    per_rank_seg = {}
    per_rank_sos = {}
    n_ranks, n_segs = matrix.shape
    for rank in range(n_ranks):
        t_start = np.arange(n_segs) * seg_duration
        seg = RankSegments(
            rank=rank,
            t_start=t_start,
            t_stop=t_start + seg_duration,
            invocation_row=np.arange(n_segs),
        )
        per_rank_seg[rank] = seg
        values = matrix[rank]
        per_rank_sos[rank] = RankSOS(
            rank=rank,
            duration=np.full(n_segs, seg_duration),
            sync_time=seg_duration - values,
            sos=values,
        )
    segmentation = Segmentation(0, per_rank_seg)
    return SOSResult(segmentation, per_rank_sos, default_classifier())


class TestRobustZscores:
    def test_outlier_detection(self):
        values = np.asarray([1.0] * 20 + [10.0])
        z = robust_zscores(values)
        assert z[-1] > 3.0

    def test_nan_passthrough(self):
        z = robust_zscores(np.asarray([1.0, np.nan, 2.0]))
        assert np.isnan(z[1]) and np.isfinite(z[0])

    def test_degenerate_all_equal(self):
        z = robust_zscores(np.ones(5))
        assert np.all(z == 0.0)

    def test_zero_mad_uses_relative_floor(self):
        # Most values identical, two true outliers: the MAD is zero, and
        # a std fallback would be polluted by the outliers themselves.
        values = np.asarray([1.0] * 10 + [1.5, 2.0])
        z = robust_zscores(values)
        assert np.all(np.isfinite(z))
        assert z[-1] > z[-2] > 3.0

    def test_zero_median_zero_mad_fallback_to_std(self):
        values = np.asarray([-1.0, 0.0, 0.0, 0.0, 1.0])
        z = robust_zscores(values)
        assert np.all(np.isfinite(z))
        assert z[-1] > 0 > z[0]

    def test_all_nan(self):
        z = robust_zscores(np.asarray([np.nan, np.nan]))
        assert np.all(np.isnan(z))


_MAGNITUDE = st.builds(
    lambda mantissa, exp, sign: sign * mantissa * 10.0**exp,
    st.floats(1.0, 9.999),
    st.integers(-5, 5),
    st.sampled_from([1.0, -1.0]),
)
#: Finite values with ties and both zeros, as SOS columns have them.
_FINITE = st.one_of(_MAGNITUDE, st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]))


@st.composite
def _nan_rows(draw):
    """(rows, cols) matrix; NaN anywhere, but every row keeps a finite."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 41))
    values = draw(
        st.lists(
            st.one_of(st.just(np.nan), _FINITE),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    m = np.asarray(values, dtype=np.float64).reshape(rows, cols)
    for r in range(rows):
        m[r, draw(st.integers(0, cols - 1))] = draw(_FINITE)
    return m


def _bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


class TestMedianHelpers:
    """The numpy.ma-free medians equal NumPy's, bit for bit."""

    @given(_nan_rows())
    @settings(max_examples=300, deadline=None)
    def test_rows_match_nanmedian(self, m):
        assert _bits(_nanmedian_rows(m)) == _bits(np.nanmedian(m, axis=1))

    @pytest.mark.parametrize("seed", range(3))
    def test_wide_rows_match_nanmedian(self, seed):
        # From 600 columns on, np.nanmedian partitions row by row
        # instead of sorting a masked array.
        rng = np.random.default_rng(seed)
        m = rng.choice([0.0, -0.0, 1.0, -1.0, 2.5, np.nan], size=(3, 650))
        m[:, 0] = rng.normal(size=3)
        assert _bits(_nanmedian_rows(m)) == _bits(np.nanmedian(m, axis=1))

    @given(st.lists(_FINITE, min_size=1, max_size=60), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_finite_median_matches_median(self, values, overwrite):
        v = np.asarray(values, dtype=np.float64)
        want = np.median(v)
        assert _bits(finite_median(v.copy(), overwrite_input=overwrite)) == _bits(want)

    def test_finite_median_of_nothing_is_nan(self):
        assert np.isnan(finite_median(np.empty(0)))


class TestImbalancePercentage:
    def test_perfect_balance(self):
        assert imbalance_percentage(np.ones(4)) == 0.0

    def test_known_value(self):
        # max 2, mean 1.25 -> (2-1.25)/2 = 37.5%
        assert imbalance_percentage(np.asarray([1, 1, 1, 2.0])) == pytest.approx(37.5)

    def test_empty_and_zero(self):
        assert imbalance_percentage(np.asarray([])) == 0.0
        assert imbalance_percentage(np.zeros(3)) == 0.0


class TestDetectImbalances:
    def test_hot_rank_detection(self):
        matrix = np.ones((16, 10))
        matrix[5] *= 2.0
        report = detect_imbalances(make_sos(matrix))
        assert [h.rank for h in report.hot_ranks] == [5]
        assert report.hottest_rank().rank == 5

    def test_materiality_bar(self):
        # Statistically separated but immaterial (0.1% above median).
        matrix = np.ones((16, 10))
        matrix[5] *= 1.001
        report = detect_imbalances(make_sos(matrix), min_relative_excess=0.1)
        assert report.hot_ranks == []

    def test_hot_segment_detection(self):
        matrix = np.ones((8, 12))
        matrix[3, 7] = 5.0
        report = detect_imbalances(make_sos(matrix))
        assert (3, 7) in [(h.rank, h.segment_index) for h in report.hot_segments]
        hottest = report.hottest_segment()
        assert hottest.rank == 3 and hottest.segment_index == 7
        assert hottest.t_start == 7.0 and hottest.t_stop == 8.0

    def test_slow_rank_segments_not_flagged_as_outliers(self):
        # A persistently slow rank is a rank anomaly, not a segment one:
        # its segments are not anomalous within the rank.
        matrix = np.ones((8, 12))
        matrix[3] *= 2.0
        report = detect_imbalances(make_sos(matrix))
        assert report.hot_segments == []
        assert [h.rank for h in report.hot_ranks] == [3]

    def test_empty(self):
        report = detect_imbalances(make_sos(np.ones((1, 0))))
        assert not report.has_findings

    def test_max_findings_cap(self):
        matrix = np.ones((40, 4))
        matrix[:20] *= np.linspace(3, 5, 20)[:, None]
        report = detect_imbalances(make_sos(matrix), max_findings=5)
        assert len(report.hot_ranks) <= 5

    def test_report_str(self):
        matrix = np.ones((16, 10))
        matrix[2] *= 3.0
        report = detect_imbalances(make_sos(matrix))
        assert "rank 2" in str(report.hot_ranks[0])


class TestMannKendall:
    def test_increasing_series(self):
        tau, p = mann_kendall(np.arange(20.0))
        assert tau == 1.0
        assert p < 0.001

    def test_decreasing_series(self):
        tau, p = mann_kendall(np.arange(20.0)[::-1])
        assert tau == -1.0
        assert p < 0.001

    def test_flat_series(self):
        tau, p = mann_kendall(np.ones(20))
        assert tau == 0.0
        assert p == 1.0

    def test_too_short(self):
        assert mann_kendall(np.asarray([1.0, 2.0])) == (0.0, 1.0)

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=3,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_tau_bounds_and_p_valid(self, values):
        tau, p = mann_kendall(np.asarray(values))
        assert -1.0 <= tau <= 1.0
        assert 0.0 <= p <= 1.0

    def test_nan_values_filtered(self):
        clean = mann_kendall(np.arange(20.0))
        with_nan = mann_kendall(
            np.concatenate([np.arange(20.0), [np.nan, np.inf]])
        )
        assert with_nan == clean

    def test_exact_s_refuses_non_finite(self):
        # The merge-count path would turn a NaN into an arbitrary
        # finite S where the legacy sign-matrix sum propagated NaN.
        from repro.core.variation import _kendall_s

        with pytest.raises(ValueError, match="finite"):
            _kendall_s(np.asarray([1.0, np.nan, 2.0]))
        assert _kendall_s(np.asarray([1.0, 3.0, 2.0])) == 1


def _reference_mk_z(v):
    """Mann–Kendall z from the O(n^2) sign sum, with tie correction."""
    n = len(v)
    s = float(np.sign(v[None, :] - v[:, None])[np.triu_indices(n, 1)].sum())
    _, counts = np.unique(v, return_counts=True)
    tie_term = float(np.sum(counts * (counts - 1) * (2 * counts + 5)))
    var_s = (n * (n - 1) * (2 * n + 5) - tie_term) / 18.0
    if var_s <= 0 or s == 0:
        return 0.0
    return (s - np.sign(s)) / np.sqrt(var_s)


# scipy is a test-only dependency: the runtime never imports it, so it
# serves as an independent oracle for the trend statistics.
class TestScipyOracle:
    @given(
        st.one_of(
            # Small integers force ties; wide floats exercise the tail.
            st.lists(st.integers(0, 4).map(float), min_size=3, max_size=40),
            st.lists(
                st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                min_size=3,
                max_size=40,
            ),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_mann_kendall_p_matches_norm_sf(self, values):
        stats = pytest.importorskip("scipy.stats")
        v = np.asarray(values)
        _, p = mann_kendall(v)
        expected = 2.0 * float(stats.norm.sf(abs(_reference_mk_z(v))))
        np.testing.assert_allclose(p, expected, rtol=1e-12, atol=0.0)

    def test_mann_kendall_p_far_tail(self):
        stats = pytest.importorskip("scipy.stats")
        v = np.arange(400.0)
        _, p = mann_kendall(v)
        expected = 2.0 * float(stats.norm.sf(abs(_reference_mk_z(v))))
        assert 0.0 < p < 1e-100
        np.testing.assert_allclose(p, expected, rtol=1e-12, atol=0.0)

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_theil_sen_bitwise_equals_theilslopes(self, values):
        stats = pytest.importorskip("scipy.stats")
        y = np.asarray(values)
        expected = float(stats.theilslopes(y, np.arange(len(y)))[0])
        assert theil_sen_slope(y) == expected


class TestDetectTrend:
    def test_increasing_trend(self):
        steps = np.linspace(1.0, 2.0, 30)
        matrix = np.tile(steps, (8, 1))
        trend = detect_trend(make_sos(matrix))
        assert trend.increasing
        assert trend.slope == pytest.approx(steps[1] - steps[0], rel=0.05)

    def test_flat_no_trend(self):
        trend = detect_trend(make_sos(np.ones((8, 30))))
        assert not trend.increasing and not trend.decreasing

    def test_tiny_float_noise_not_a_trend(self):
        matrix = np.ones((4, 20)) + np.linspace(0, 1e-15, 20)
        trend = detect_trend(make_sos(matrix))
        assert not trend.increasing

    def test_describe(self):
        trend = detect_trend(make_sos(np.tile(np.arange(10.0) + 1, (3, 1))))
        assert "increasing" in trend.describe()

    def test_short_series(self):
        trend = detect_trend(make_sos(np.ones((3, 2))))
        assert trend.n_steps == 2
        assert not trend.increasing


class TestBinnedMatrix:
    def test_values_land_in_bins(self):
        sos = make_sos(np.asarray([[1.0, 2.0, 3.0]]), seg_duration=1.0)
        matrix, edges = binned_matrix(sos, bins=6)
        assert matrix.shape == (1, 6)
        assert list(matrix[0]) == [1, 1, 2, 2, 3, 3]
        assert edges[0] == 0.0 and edges[-1] == 3.0

    def test_gaps_are_nan(self):
        seg = RankSegments(
            rank=0,
            t_start=np.asarray([0.0, 5.0]),
            t_stop=np.asarray([1.0, 6.0]),
            invocation_row=np.asarray([0, 1]),
        )
        segmentation = Segmentation(0, {0: seg})
        sos = SOSResult(
            segmentation,
            {
                0: RankSOS(
                    rank=0,
                    duration=np.asarray([1.0, 1.0]),
                    sync_time=np.zeros(2),
                    sos=np.asarray([1.0, 2.0]),
                )
            },
            default_classifier(),
        )
        matrix, _ = binned_matrix(sos, bins=6)
        assert np.isnan(matrix[0, 2])  # middle gap
        assert matrix[0, 0] == 1.0 and matrix[0, -1] == 2.0

    def test_normalised(self):
        sos = make_sos(np.asarray([[2.0, 4.0]]))
        matrix, _ = binned_matrix(sos, bins=4, normalize=True)
        assert np.nanmin(matrix) == 0.0 and np.nanmax(matrix) == 1.0

    def test_explicit_window(self):
        sos = make_sos(np.asarray([[1.0, 2.0, 3.0]]))
        matrix, edges = binned_matrix(sos, bins=2, t0=1.0, t1=2.0)
        assert edges[0] == 1.0 and edges[-1] == 2.0
        assert list(matrix[0]) == [2.0, 2.0]

    def test_step_series(self):
        sos = make_sos(np.asarray([[1.0, 3.0], [3.0, 5.0]]))
        series = step_series(sos)
        assert list(series) == [2.0, 4.0]
