"""Diagnostic-series tests: diagonal behavior on perfect data, trapezoid and
consistency oracles for the density panel, return-curve geometry, and the
per-plot expressions as a bit-for-bit oracle for the one-pass entry point."""

import numpy as np
import pytest

from rainmax.diagnose import PLOT_KINDS, station_diagnostics
from rainmax.estimate import fit_mle
from rainmax.gev import GevParams, gev_cdf, gev_pdf, gev_quantile, gev_sample, return_level
from rainmax.ingest import _quantiles

GUMBEL = GevParams(0.0, 1.0, 0.0)


def _perfect_sample(params, n):
    return gev_quantile(np.arange(1, n + 1) / (n + 1), params)


def _plots(data, params):
    return {s.kind: s for s in station_diagnostics(data, params)}


class TestPpPoints:
    def test_perfect_sample_on_diagonal(self):
        series = _plots(_perfect_sample(GUMBEL, 40), GUMBEL)["pp"]
        np.testing.assert_allclose(series.y, series.x, atol=1e-10)

    def test_two_points(self):
        params = GevParams(2.0, 1.0, 0.0)
        series = _plots([3.0, 2.0], params)["pp"]
        assert series.x.tolist() == [1 / 3, 2 / 3]
        assert series.y.tolist() == [gev_cdf(2.0, params), gev_cdf(3.0, params)]

    def test_fitted_sample_stays_near_diagonal(self):
        x = gev_sample(GUMBEL, 33, seed=4)
        fit = fit_mle(x, "free")
        series = _plots(x, fit.params)["pp"]
        assert np.max(np.abs(series.y - series.x)) < 0.15

    def test_monotone_in_both_coordinates(self):
        x = gev_sample(GevParams(80, 25, 0.1), 50, seed=5)
        series = _plots(x, GevParams(80, 25, 0.1))["pp"]
        assert np.all(np.diff(series.x) >= 0)
        assert np.all(np.diff(series.y) >= 0)


class TestQqPoints:
    def test_perfect_sample_on_diagonal(self):
        data = _perfect_sample(GevParams(10, 3, 0.2), 30)
        series = _plots(data, GevParams(10, 3, 0.2))["qq"]
        np.testing.assert_allclose(series.y, series.x, atol=1e-10)

    def test_refit_after_shift_restores_diagonal(self):
        x = gev_sample(GevParams(80, 25, 0.0), 4000, seed=6)
        shifted = x + 50.0
        refit = fit_mle(shifted, "free")
        series = _plots(shifted, refit.params)["qq"]
        # estimation noise only: regression slope of y on x is ~1
        slope = np.polyfit(series.x, series.y, 1)[0]
        assert slope == pytest.approx(1.0, abs=0.02)

    def test_halved_scale_model_gives_half_slope(self):
        params = GevParams(0.0, 1.0, 0.0)
        data = _perfect_sample(params, 200)
        doubled = GevParams(0.0, 2.0, 0.0)
        series = _plots(data, doubled)["qq"]
        slope = np.polyfit(series.x, series.y, 1)[0]
        assert slope == pytest.approx(0.5, abs=1e-6)

    def test_monotone(self):
        x = gev_sample(GUMBEL, 40, seed=7)
        series = _plots(x, GUMBEL)["qq"]
        assert np.all(np.diff(series.x) >= 0)
        assert np.all(np.diff(series.y) >= 0)


class TestDensitySeries:
    def test_kde_integrates_to_one(self):
        x = gev_sample(GevParams(80, 25, 0.1), 500, seed=8)
        kde = _plots(x, GevParams(80, 25, 0.1))["density_empirical"]
        assert np.trapezoid(kde.y, kde.x) == pytest.approx(1.0, abs=1e-3)

    def test_kde_tracks_true_density_at_scale(self):
        x = gev_sample(GUMBEL, 10_000, seed=9)
        plots = _plots(x, GUMBEL)
        kde, model = plots["density_empirical"], plots["density_model"]
        assert np.max(np.abs(kde.y - model.y)) < 0.03

    def test_model_series_is_true_pdf_on_grid(self):
        x = gev_sample(GUMBEL, 100, seed=10)
        plots = _plots(x, GUMBEL)
        model = plots["density_model"]
        assert model.x.tobytes() == plots["density_empirical"].x.tobytes()
        np.testing.assert_allclose(model.y, gev_pdf(model.x, GUMBEL), atol=1e-12)

    @pytest.mark.parametrize("data", [[3.0], [2.5] * 8])
    def test_sample_without_spread_rejected(self, data):
        # no spread, no bandwidth: Silverman's rule gives 0
        with pytest.raises(ValueError, match="bandwidth must be positive, got 0.0"):
            station_diagnostics(data, GUMBEL)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            station_diagnostics([], GUMBEL)


class TestReturnLevelSeries:
    def test_zero_shape_curve_equals_reference_line(self):
        x = gev_sample(GevParams(80, 25, 0.0), 33, seed=11)
        plots = _plots(x, GevParams(80, 25, 0.0))
        np.testing.assert_array_equal(plots["return_curve"].y, plots["return_gumbel_line"].y)

    def test_heavy_tail_curve_sits_above_line(self):
        x = gev_sample(GevParams(80, 25, 0.3), 33, seed=12)
        plots = _plots(x, GevParams(80, 25, 0.3))
        curve, line = plots["return_curve"], plots["return_gumbel_line"]
        tail = curve.x >= 10.0
        assert np.all(curve.y[tail] > line.y[tail])

    def test_bounded_tail_curve_sits_below_line(self):
        x = gev_sample(GevParams(80, 25, -0.3), 33, seed=13)
        plots = _plots(x, GevParams(80, 25, -0.3))
        curve, line = plots["return_curve"], plots["return_gumbel_line"]
        tail = curve.x >= 10.0
        assert np.all(curve.y[tail] < line.y[tail])

    def test_curve_is_quantile_transform_of_grid(self):
        params = GevParams(80, 25, 0.15)
        x = gev_sample(params, 33, seed=14)
        curve = _plots(x, params)["return_curve"]
        np.testing.assert_allclose(
            curve.y, gev_quantile(1.0 - 1.0 / curve.x, params), atol=1e-12
        )

    def test_empirical_periods_exceed_one(self):
        x = gev_sample(GevParams(80, 25, 0.0), 33, seed=15)
        points = _plots(x, GevParams(80, 25, 0.0))["return_points"]
        assert np.all(points.x > 1.0)


def _reference_series(data, params):
    """The diagnostics one plot at a time, each checking and sorting the
    sample itself: the per-plot functions station_diagnostics folded."""
    raw = np.asarray(data, dtype=float).ravel()
    x = np.sort(raw)
    positions = np.arange(1, x.size + 1) / (x.size + 1)
    pp = (positions, np.asarray(gev_cdf(x, params)))
    qq = (np.asarray(gev_quantile(positions, params)), x)

    sd = float(raw.std())
    q1, q3 = _quantiles(raw, [0.25, 0.75])
    iqr = float(q3 - q1)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    bandwidth = 0.9 * spread * raw.size ** (-0.2)
    grid = np.linspace(raw.min() - 3 * bandwidth, raw.max() + 3 * bandwidth, 512)
    z = (grid[:, None] - raw[None, :]) / bandwidth
    kde = np.exp(-0.5 * z * z).sum(axis=1) / (raw.size * bandwidth * np.sqrt(2.0 * np.pi))
    model = np.asarray(gev_pdf(grid, params))

    periods = np.geomspace(1.1, 1000.0, 200)
    curve_y = return_level(periods, params)
    line_y = return_level(periods, GevParams(params.mu, params.sigma, 0.0))
    return [
        pp,
        qq,
        (grid, kde),
        (grid, model),
        (1.0 / (1.0 - positions), x),
        (periods, curve_y),
        (periods, line_y),
    ]


class TestStationDiagnostics:
    def test_station_bundle_has_all_kinds(self):
        x = gev_sample(GUMBEL, 20, seed=17)
        kinds = [s.kind for s in station_diagnostics(x, GUMBEL)]
        assert kinds == list(PLOT_KINDS) == [
            "pp",
            "qq",
            "density_empirical",
            "density_model",
            "return_points",
            "return_curve",
            "return_gumbel_line",
        ]

    @pytest.mark.parametrize(
        "params", [GevParams(80, 25, 0.12), GevParams(80, 25, 0.0), GevParams(80, 25, -0.2)]
    )
    def test_equals_per_plot_expressions_bit_for_bit(self, params):
        # an unsorted sample with a tie: the bandwidth and the kernel sums
        # read it in input order, and on the sorted copy their last bits
        # differ
        x = gev_sample(params, 33, seed=18)
        x[5] = x[20]
        assert np.any(np.diff(x) < 0)
        got = station_diagnostics(x, params)
        for plot, (want_x, want_y) in zip(got, _reference_series(x, params), strict=True):
            assert plot.x.dtype == plot.y.dtype == np.float64
            assert plot.x.tobytes() == want_x.tobytes(), plot.kind
            assert plot.y.tobytes() == want_y.tobytes(), plot.kind

    def test_input_is_not_modified(self):
        x = gev_sample(GUMBEL, 25, seed=19)
        before = x.copy()
        station_diagnostics(x, GUMBEL)
        assert x.tobytes() == before.tobytes()
