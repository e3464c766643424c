"""Diagnostic-series tests: diagonal behavior on perfect data, trapezoid and
consistency oracles for the density panel, return-curve geometry."""

import numpy as np
import pytest

from rainmax.diagnose import (
    density_series,
    pp_points,
    qq_points,
    return_level_series,
    station_diagnostics,
)
from rainmax.estimate import fit_mle
from rainmax.gev import GevParams, gev_pdf, gev_quantile, gev_sample

GUMBEL = GevParams(0.0, 1.0, 0.0)


def _perfect_sample(params, n):
    return gev_quantile(np.arange(1, n + 1) / (n + 1), params)


class TestPpPoints:
    def test_perfect_sample_on_diagonal(self):
        series = pp_points(_perfect_sample(GUMBEL, 40), GUMBEL)
        np.testing.assert_allclose(series.y, series.x, atol=1e-10)

    def test_single_point(self):
        series = pp_points([3.0], GevParams(2.0, 1.0, 0.0))
        assert series.x.tolist() == [0.5]
        assert len(series.y) == 1

    def test_fitted_sample_stays_near_diagonal(self):
        x = gev_sample(GUMBEL, 33, seed=4)
        fit = fit_mle(x, "free")
        series = pp_points(x, fit.params)
        assert np.max(np.abs(series.y - series.x)) < 0.15

    def test_monotone_in_both_coordinates(self):
        x = gev_sample(GevParams(80, 25, 0.1), 50, seed=5)
        series = pp_points(x, GevParams(80, 25, 0.1))
        assert np.all(np.diff(series.x) >= 0)
        assert np.all(np.diff(series.y) >= 0)


class TestQqPoints:
    def test_perfect_sample_on_diagonal(self):
        data = _perfect_sample(GevParams(10, 3, 0.2), 30)
        series = qq_points(data, GevParams(10, 3, 0.2))
        np.testing.assert_allclose(series.y, series.x, atol=1e-10)

    def test_refit_after_shift_restores_diagonal(self):
        x = gev_sample(GevParams(80, 25, 0.0), 4000, seed=6)
        shifted = x + 50.0
        refit = fit_mle(shifted, "free")
        series = qq_points(shifted, refit.params)
        # estimation noise only: regression slope of y on x is ~1
        slope = np.polyfit(series.x, series.y, 1)[0]
        assert slope == pytest.approx(1.0, abs=0.02)

    def test_halved_scale_model_gives_half_slope(self):
        params = GevParams(0.0, 1.0, 0.0)
        data = _perfect_sample(params, 200)
        doubled = GevParams(0.0, 2.0, 0.0)
        series = qq_points(data, doubled)
        slope = np.polyfit(series.x, series.y, 1)[0]
        assert slope == pytest.approx(0.5, abs=1e-6)

    def test_monotone(self):
        x = gev_sample(GUMBEL, 40, seed=7)
        series = qq_points(x, GUMBEL)
        assert np.all(np.diff(series.x) >= 0)
        assert np.all(np.diff(series.y) >= 0)


class TestDensitySeries:
    def test_kde_integrates_to_one(self):
        x = gev_sample(GevParams(80, 25, 0.1), 500, seed=8)
        kde, _ = density_series(x, GevParams(80, 25, 0.1))
        assert np.trapezoid(kde.y, kde.x) == pytest.approx(1.0, abs=1e-3)

    def test_kde_tracks_true_density_at_scale(self):
        x = gev_sample(GUMBEL, 10_000, seed=9)
        kde, model = density_series(x, GUMBEL)
        assert np.max(np.abs(kde.y - model.y)) < 0.03

    def test_model_series_is_true_pdf_on_grid(self):
        x = gev_sample(GUMBEL, 100, seed=10)
        _, model = density_series(x, GUMBEL)
        np.testing.assert_allclose(model.y, gev_pdf(model.x, GUMBEL), atol=1e-12)

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            density_series([1.0, 2.0, 3.0], GUMBEL, bandwidth=-1.0)


class TestReturnLevelSeries:
    def test_zero_shape_curve_equals_reference_line(self):
        x = gev_sample(GevParams(80, 25, 0.0), 33, seed=11)
        points, curve, line = return_level_series(x, GevParams(80, 25, 0.0))
        np.testing.assert_array_equal(curve.y, line.y)
        assert points.kind == "return_points"

    def test_heavy_tail_curve_sits_above_line(self):
        x = gev_sample(GevParams(80, 25, 0.3), 33, seed=12)
        _, curve, line = return_level_series(x, GevParams(80, 25, 0.3))
        tail = curve.x >= 10.0
        assert np.all(curve.y[tail] > line.y[tail])

    def test_bounded_tail_curve_sits_below_line(self):
        x = gev_sample(GevParams(80, 25, -0.3), 33, seed=13)
        _, curve, line = return_level_series(x, GevParams(80, 25, -0.3))
        tail = curve.x >= 10.0
        assert np.all(curve.y[tail] < line.y[tail])

    def test_curve_is_quantile_transform_of_grid(self):
        params = GevParams(80, 25, 0.15)
        x = gev_sample(params, 33, seed=14)
        _, curve, _ = return_level_series(x, params)
        np.testing.assert_allclose(
            curve.y, gev_quantile(1.0 - 1.0 / curve.x, params), atol=1e-12
        )

    def test_empirical_periods_exceed_one(self):
        x = gev_sample(GevParams(80, 25, 0.0), 33, seed=15)
        points = return_level_series(x, GevParams(80, 25, 0.0))[0]
        assert np.all(points.x > 1.0)


class TestStationDiagnostics:
    def test_station_bundle_has_all_kinds(self):
        x = gev_sample(GUMBEL, 20, seed=17)
        kinds = [s.kind for s in station_diagnostics(x, GUMBEL)]
        assert kinds == [
            "pp",
            "qq",
            "density_empirical",
            "density_model",
            "return_points",
            "return_curve",
            "return_gumbel_line",
        ]
