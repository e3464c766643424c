"""Distribution-family tests: frozen closed-form oracles, quadrature and
finite-difference checks, branch continuity through shape -> 0."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import genextreme

from rainmax import gof
from rainmax.gev import (
    GevParams,
    _gev_rows_cdf,
    _gev_rows_loglik,
    _gumbel_rows_loglik,
    gev_cdf,
    gev_pdf,
    gev_quantile,
    gev_sample,
    log_likelihood,
    return_level,
)

GUMBEL01 = GevParams(0.0, 1.0, 0.0)


class TestParams:
    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            GevParams(0.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            GevParams(0.0, -1.0, 0.1)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            GevParams(math.nan, 1.0, 0.0)
        with pytest.raises(ValueError):
            GevParams(0.0, 1.0, math.inf)


class TestCdf:
    def test_gumbel_at_zero(self):
        assert gev_cdf(0.0, GUMBEL01) == pytest.approx(math.exp(-1.0), abs=1e-14)

    def test_below_finite_lower_endpoint(self):
        assert gev_cdf(-2.0, GevParams(0, 1, 0.5)) == 0.0
        assert gev_cdf(-2.5, GevParams(0, 1, 0.5)) == 0.0

    def test_above_finite_upper_endpoint(self):
        assert gev_cdf(2.5, GevParams(0, 1, -0.5)) == 1.0

    def test_limit_continuity_at_zero_shape(self):
        for x in (-1.0, 0.3, 1.0, 4.0):
            near = gev_cdf(x, GevParams(0, 1, 1e-9))
            exact = gev_cdf(x, GUMBEL01)
            assert near == pytest.approx(exact, abs=1e-6)

    def test_matches_scipy_genextreme(self):
        # scipy's shape convention is the negative of ours
        for xi in (-0.4, -0.1, 0.1, 0.4):
            params = GevParams(1.5, 2.0, xi)
            x = np.linspace(-4, 20, 50)
            mine = gev_cdf(x, params)
            ref = genextreme.cdf(x, -xi, loc=1.5, scale=2.0)
            np.testing.assert_allclose(mine, ref, atol=1e-12)


class TestPdf:
    def test_integrates_to_one_gumbel(self):
        total, err = quad(lambda x: gev_pdf(x, GUMBEL01), -10, 40, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_integrates_to_one_finite_support(self):
        params = GevParams(0, 1, -0.3)
        hi = 1 / 0.3  # the upper endpoint mu - sigma / xi
        total, _ = quad(lambda x: gev_pdf(x, params), -15, hi, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_zero_outside_support(self):
        assert gev_pdf(-2.1, GevParams(0, 1, 0.5)) == 0.0
        assert gev_pdf(2.1, GevParams(0, 1, -0.5)) == 0.0

    @pytest.mark.parametrize("xi", [-0.3, 0.0, 0.2, 0.3])
    def test_matches_cdf_derivative(self, xi):
        params = GevParams(0.0, 1.0, xi)
        h = 1e-6
        for x in (0.7, 0.0, 1.5):
            fd = (gev_cdf(x + h, params) - gev_cdf(x - h, params)) / (2 * h)
            assert gev_pdf(x, params) == pytest.approx(fd, abs=1e-5)

    def test_limit_continuity_at_zero_shape(self):
        for x in (-1.0, 0.7, 2.0):
            assert gev_pdf(x, GevParams(0, 1, 1e-8)) == pytest.approx(
                gev_pdf(x, GUMBEL01), abs=1e-6
            )


class TestQuantile:
    def test_gumbel_median(self):
        assert gev_quantile(0.5, GUMBEL01) == pytest.approx(-math.log(math.log(2.0)), abs=1e-14)

    def test_frechet_upper_quantile(self):
        # closed form: 2 * ((-ln 0.9)^{-1/2} - 1)
        expected = 2.0 * ((-math.log(0.9)) ** -0.5 - 1.0)
        got = gev_quantile(0.9, GevParams(0, 1, 0.5))
        assert got == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(4.1616, abs=5e-5)
        # independent route: bisection on the CDF
        root = brentq(lambda x: gev_cdf(x, GevParams(0, 1, 0.5)) - 0.9, -1.9, 100.0, xtol=1e-12)
        assert got == pytest.approx(root, abs=1e-9)

    def test_inverse_of_cdf_example(self):
        assert gev_quantile(math.exp(-1.0), GUMBEL01) == pytest.approx(0.0, abs=1e-12)

    def test_domain_errors(self):
        for p in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                gev_quantile(p, GUMBEL01)

    @pytest.mark.parametrize("xi", [-0.3, -0.05, 0.0, 0.05, 0.3])
    def test_roundtrip_with_cdf(self, xi):
        params = GevParams(3.0, 2.5, xi)
        p = np.arange(0.01, 1.0, 0.01)
        back = gev_cdf(gev_quantile(p, params), params)
        np.testing.assert_allclose(back, p, atol=1e-10)

    def test_limit_continuity_at_zero_shape(self):
        p = np.array([0.05, 0.5, 0.95])
        near = gev_quantile(p, GevParams(0, 1, -1e-8))
        exact = gev_quantile(p, GUMBEL01)
        np.testing.assert_allclose(near, exact, atol=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(
        p=st.floats(0.01, 0.99),
        mu=st.floats(-50, 150),
        sigma=st.floats(0.1, 60),
        xi=st.floats(-0.45, 0.45),
    )
    def test_location_scale_equivariance(self, p, mu, sigma, xi):
        standard = gev_quantile(p, GevParams(0.0, 1.0, xi))
        shifted = gev_quantile(p, GevParams(mu, sigma, xi))
        assert shifted == pytest.approx(mu + sigma * standard, rel=1e-9, abs=1e-9)


class TestReturnLevel:
    def test_ten_year_level_from_reference_row(self):
        params = GevParams(70.25, 22.30, 0.0)
        expected = 70.25 + 22.30 * (-math.log(-math.log(0.9)))
        got = return_level(10.0, params)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(120.4332, abs=1e-3)

    def test_strictly_increasing_in_period(self):
        params = GevParams(80, 25, 0.1)
        levels = [return_level(t, params) for t in (2, 5, 10, 50, 100)]
        assert all(a < b for a, b in zip(levels, levels[1:]))

    def test_array_of_periods_matches_scalars(self):
        params = GevParams(80, 25, -0.2)
        periods = [1.5, 10.0, 100.0]
        levels = return_level(np.array(periods), params)
        assert isinstance(levels, np.ndarray)
        assert levels.tolist() == [return_level(t, params) for t in periods]
        assert isinstance(return_level(10.0, params), float)

    @pytest.mark.parametrize("periods", [1.0, 0.5, -2.0, [10.0, 1.0]])
    def test_period_must_exceed_one(self, periods):
        with pytest.raises(ValueError, match="exceed 1"):
            return_level(periods, GUMBEL01)

    def test_inverts_cdf_at_mode_probability(self):
        t = 1.0 / (1.0 - math.exp(-1.0))
        assert return_level(t, GUMBEL01) == pytest.approx(0.0, abs=1e-12)


class TestSample:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gev_sample(GUMBEL01, 0, seed=1)

    def test_deterministic(self):
        a = gev_sample(GevParams(80, 25, 0.1), 100, seed=7)
        b = gev_sample(GevParams(80, 25, 0.1), 100, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_gumbel_mean_near_euler_gamma(self):
        x = gev_sample(GUMBEL01, 100_000, seed=3)
        assert x.mean() == pytest.approx(np.euler_gamma, abs=0.02)

    def test_limit_continuity_at_zero_shape(self):
        near = gev_sample(GevParams(0, 1, 1e-8), 200, seed=5)
        exact = gev_sample(GUMBEL01, 200, seed=5)
        np.testing.assert_allclose(near, exact, atol=1e-6)


class TestLogLikelihood:
    def test_single_point_at_gumbel_mode(self):
        assert log_likelihood(GUMBEL01, [0.0]) == pytest.approx(-1.0, abs=1e-12)

    def test_out_of_support_sentinel(self):
        assert log_likelihood(GevParams(0, 1, 0.5), [-3.0, 1.0]) == -math.inf

    def test_additive_over_points(self):
        params = GevParams(1.0, 2.0, 0.2)
        pts = [0.5, 2.0, 7.0]
        total = log_likelihood(params, pts)
        assert total == pytest.approx(sum(log_likelihood(params, [p]) for p in pts), abs=1e-10)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            log_likelihood(GUMBEL01, [])

    def test_limit_continuity_at_zero_shape(self):
        data = gev_sample(GevParams(5, 2, 0.0), 50, seed=11)
        near = log_likelihood(GevParams(5, 2, 1e-8), data)
        exact = log_likelihood(GevParams(5, 2, 0.0), data)
        assert near == pytest.approx(exact, abs=1e-6)

    def test_support_edge_at_shape_minus_one(self):
        # at xi = -1 the density exp(-t)/sigma, t = 1 - z, stays positive on
        # the support edge t = 0, so a point there keeps the total finite
        x = np.array([3.0, 5.5, 7.25, 10.0])
        params = GevParams(6.0, 4.0, -1.0)  # support edge mu + sigma = 10
        t = 1.0 - (x - params.mu) / params.sigma
        assert log_likelihood(params, x) == -x.size * math.log(params.sigma) - t.sum()
        # the closed-form supremum at xi = -1: sigma = mean(max x - x)
        sigma = float((x.max() - x).mean())
        edge = GevParams(x.max() - sigma, sigma, -1.0)
        assert log_likelihood(edge, x) == pytest.approx(-x.size * (math.log(sigma) + 1.0), abs=1e-12)
        assert log_likelihood(GevParams(6.0, 3.9, -1.0), x) == -math.inf
        # the general branch agrees inside the support
        inner = x[:3]
        assert log_likelihood(params, inner) == pytest.approx(
            log_likelihood(GevParams(6.0, 4.0, -1.0 + 1e-9), inner), abs=1e-6
        )


ROW_PARAMS = [GevParams(5.0, 2.0, 0.0), GevParams(5.0, 2.0, 0.3), GevParams(5.0, 2.0, -0.4)]
GEV_FIELDS = ("mu", "sigma", "xi")


class TestOneRowCases:
    """The scalar CDF and log-likelihood are the one-row case of the row
    kernels that the tCvM test and the fitting kernel call."""

    def test_cdf_is_the_row_cdf_bit_for_bit(self):
        # Gumbel, Frechet and Weibull rows; the Frechet row's lower endpoint
        # is 5 - 2/0.3 = -1.67 and the Weibull row's upper endpoint 10, so
        # -5 and 12 lie outside their supports
        x = np.array([-5.0, -1.0, 0.0, 3.0, 5.0, 7.5, 9.99, 12.0, 40.0])
        X = np.tile(x, (len(ROW_PARAMS), 1))
        mu, sigma, xi = (np.array([getattr(p, f) for p in ROW_PARAMS]) for f in GEV_FIELDS)
        rows = _gev_rows_cdf(X, mu, sigma, xi)
        assert gof._gev_rows_cdf is _gev_rows_cdf
        for row, params in zip(rows, ROW_PARAMS):
            assert np.asarray(gev_cdf(x, params)).tobytes() == row.tobytes()
            assert [gev_cdf(v, params) for v in x] == row.tolist()
        assert rows[1, 0] == 0.0 and rows[2, -2] == 1.0

    @pytest.mark.parametrize("params", ROW_PARAMS, ids=["gumbel", "frechet", "weibull"])
    def test_loglik_is_the_row_formula(self, params):
        x = gev_sample(params, 40, seed=17)
        mu, sigma, xi = np.array([params.mu]), np.array([params.sigma]), np.array([params.xi])
        if params.xi == 0.0:
            row = _gumbel_rows_loglik(x[None, :], mu, sigma)[0]
        else:
            row = _gev_rows_loglik(x[None, :], mu, np.log(sigma), xi)[0]
        assert log_likelihood(params, x) == row
        ref = genextreme.logpdf(x, -params.xi, params.mu, params.sigma).sum()
        assert log_likelihood(params, x) == pytest.approx(ref, rel=1e-12)
