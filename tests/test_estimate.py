"""Estimator tests: PWM hand-oracle values, simulation recovery with known
truth, nesting and local-optimality properties, profile-interval geometry
and the fixed-shape profile kernel against a Nelder-Mead reference."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as scipy_gamma
from scipy.stats import chi2

from rainmax import estimate
from rainmax.demo import demo_dataset
from rainmax.estimate import (
    CONSTRAINTS,
    FitError,
    FitResult,
    ProfileInterval,
    _chi2_1_quantile,
    _fit_rows,
    _gev_rows_derivatives,
    fit_mle,
    fit_mle_rows,
    fit_pwm,
    profile_ci_xi,
    profile_ci_xi_rows,
    sample_pwms,
)
from rainmax.gev import (
    XI_EPS,
    GevParams,
    _gev_rows_loglik,
    _quantile_sample,
    gev_quantile,
    gev_sample,
    log_likelihood,
)
from rainmax.seeding import derive_seed

from _reference_fits import (
    finite_difference_se,
    nelder_mead_fit,
    nelder_mead_profile_loglik,
    profile_ci_loop,
    profile_loglik,
)


class TestSamplePwms:
    def test_hand_computed_values(self):
        b0, b1, b2 = sample_pwms([1.0, 2.0, 3.0])
        assert b0 == pytest.approx(2.0)
        assert b1 == pytest.approx(4.0 / 3.0)  # (0*1 + 0.5*2 + 1*3)/3
        assert b2 == pytest.approx(1.0)  # only the top order statistic contributes

    def test_sorting_is_internal(self):
        assert sample_pwms([3.0, 1.0, 2.0]) == sample_pwms([1.0, 2.0, 3.0])


class TestFitPwm:
    def test_gumbel_recovery_large_sample(self):
        x = gev_sample(GevParams(0, 1, 0.0), 100_000, seed=2)
        fit = fit_pwm(x)
        assert fit.params.mu == pytest.approx(0.0, abs=0.02)
        assert fit.params.sigma == pytest.approx(1.0, abs=0.02)
        assert fit.method == "pwm" and fit.converged

    def test_degenerate_data_rejected(self):
        with pytest.raises(ValueError):
            fit_pwm([50.0, 50.0, 50.0])

    @settings(max_examples=30, deadline=None)
    @given(a=st.floats(-100, 100), b=st.floats(0.1, 50))
    def test_affine_equivariance(self, a, b):
        x = gev_sample(GevParams(80, 25, 0.1), 60, seed=9)
        base = fit_pwm(x).params
        moved = fit_pwm(a + b * x).params
        assert moved.mu == pytest.approx(a + b * base.mu, rel=1e-6, abs=1e-6)
        assert moved.sigma == pytest.approx(b * base.sigma, rel=1e-6)
        assert moved.xi == pytest.approx(base.xi, abs=1e-9)

    def test_math_gamma_matches_scipy_gamma(self, monkeypatch):
        shapes = (-0.3, -0.1, 0.1, 0.4)
        samples = [gev_sample(GevParams(80, 25, xi), 40, seed=s) for s, xi in enumerate(shapes)]
        fits = [fit_pwm(x).params for x in samples]
        monkeypatch.setattr(math, "gamma", lambda v: float(scipy_gamma(v)))
        for x, fit in zip(samples, fits):
            ref = fit_pwm(x).params
            assert fit.xi == ref.xi
            assert fit.mu == pytest.approx(ref.mu, rel=1e-13, abs=0)
            assert fit.sigma == pytest.approx(ref.sigma, rel=1e-13, abs=0)


class TestChi2Quantile:
    @pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.99])
    def test_matches_scipy(self, level):
        assert _chi2_1_quantile(level) == pytest.approx(chi2.ppf(level, df=1), rel=1e-14, abs=0)

    def test_default_level_keeps_its_bits(self):
        # the 0.95 threshold every default profile interval is solved against
        assert _chi2_1_quantile(0.95) == 3.8414588206941236

    @pytest.mark.parametrize("level", [0.99, 0.999, 0.99999, 1 - 1e-8, 1 - 1e-12])
    def test_levels_near_one_keep_full_precision(self, level):
        # erf(z) rounds towards 1 here; the erfc tail does not
        assert _chi2_1_quantile(level) == pytest.approx(chi2.ppf(level, df=1), rel=1e-14, abs=0)


class TestFitMle:
    def test_gumbel_truth_recovery(self):
        x = gev_sample(GevParams(80, 25, 0.0), 5000, seed=1)
        fit = fit_mle(x, "free")
        assert fit.converged
        assert fit.params.mu == pytest.approx(80.0, abs=1.5)
        assert fit.params.sigma == pytest.approx(25.0, abs=1.5)
        assert fit.params.xi == pytest.approx(0.0, abs=0.05)
        assert fit.std_errors is not None and all(se > 0 for se in fit.std_errors)

    def test_degenerate_data_rejected(self):
        with pytest.raises(ValueError):
            fit_mle([50.0] * 40, "free")
        with pytest.raises(ValueError):
            fit_mle([1.0, 2.0, 3.0, 1.0, 2.0], "free")  # only 3 distinct

    def test_gumbel_constraint_exact_zero_shape(self):
        x = gev_sample(GevParams(0, 1, 0.0), 5000, seed=4)
        gum = fit_mle(x, "gumbel")
        free = fit_mle(x, "free")
        assert gum.params.xi == 0.0
        assert gum.loglik <= free.loglik

    @pytest.mark.parametrize("seed", range(8))
    def test_nested_models_loglik_order(self, seed):
        x = gev_sample(GevParams(85, 22, 0.05), 33, seed=seed)
        assert fit_mle(x, "free").loglik >= fit_mle(x, "gumbel").loglik - 1e-12

    def test_sign_constrained_families(self):
        xf = gev_sample(GevParams(0, 1, 0.3), 1500, seed=5)
        frechet = fit_mle(xf, "frechet")
        assert frechet.params.xi > 0
        assert frechet.params.xi == pytest.approx(0.3, abs=0.08)
        xw = gev_sample(GevParams(0, 1, -0.3), 1500, seed=6)
        weibull = fit_mle(xw, "weibull")
        assert weibull.params.xi < 0
        assert weibull.params.xi == pytest.approx(-0.3, abs=0.08)

    def test_unknown_constraint(self):
        with pytest.raises(ValueError):
            fit_mle([1.0, 2.0, 3.0, 4.0, 5.0], "cauchy")

    @pytest.mark.parametrize("seed", range(6))
    def test_local_optimality_of_mle(self, seed):
        x = gev_sample(GevParams(80, 25, 0.1), 33, seed=seed)
        fit = fit_mle(x, "free")
        base = fit.loglik
        for i in range(3):
            for sign in (1.0, -1.0):
                theta = [fit.params.mu, fit.params.sigma, fit.params.xi]
                theta[i] += sign * 1e-4
                perturbed = log_likelihood(GevParams(*theta), x)
                assert perturbed <= base + 1e-9

    def test_loglik_field_recomputed(self):
        x = gev_sample(GevParams(80, 25, 0.0), 200, seed=8)
        for constraint in ("free", "gumbel"):
            fit = fit_mle(x, constraint)
            assert fit.loglik == pytest.approx(log_likelihood(fit.params, x), abs=1e-10)

    def test_weibull_fit_stays_where_the_likelihood_is_bounded(self):
        # demo station Trinidad, a draw from its stage-1 Weibull fit on the
        # stream (seed, "tcvm", "weibull", 413), which was bootstrap
        # replicate 413 when each replicate had a stream of its own: the
        # simplex on xi = -exp(eta) used to stop at xi = -1.022, where the
        # likelihood is unbounded above. The supremum over xi > -1 lies on
        # the support edge xi = -1, which the kernel takes in closed form.
        x = next(s.values for s in demo_dataset(seed=29) if s.station_id == "Trinidad")
        seed = derive_seed(derive_seed(29, "gof", "Trinidad"), "stage1")
        rng = np.random.default_rng([derive_seed(seed, "tcvm", "weibull", 413)])
        sample = _quantile_sample(rng.random(x.size), fit_mle(x, "weibull").params)
        fit = fit_mle(sample, "weibull")
        assert -1.0 <= fit.params.xi < 0.0
        assert np.isfinite(fit.loglik)
        assert fit.loglik >= nelder_mead_fit(sample, "weibull").loglik

    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    @pytest.mark.parametrize("offset", [1e4, 1e6, 1e8])
    def test_fits_far_from_zero_match_the_unshifted_fits(self, offset, constraint):
        # samples of scale about 1 moved thousands of scales from 0, where a
        # Gumbel scale equation solved on x itself loses about offset * eps
        # to cancellation, more than its stop test allows, and every fit
        # starts from the Gumbel one. Tolerance 16 offset eps + 1e-8: the
        # shift rounds each point by up to offset eps / 2, and the Newton
        # stop test leaves either fit up to about 6e-9 from the exact
        # optimum along the likelihood's flat directions (in units of
        # sigma). The log-likelihoods agree to n offset eps.
        eps = np.finfo(float).eps
        tol = 16.0 * offset * eps + 1e-8
        samples = [s.values / 25.0 for s in demo_dataset(seed=29)]
        samples += [x / 25.0 for x in _seeded_samples()[:10]]
        for x in samples:
            base = fit_mle(x, constraint)
            moved = fit_mle(x + offset, constraint)
            assert abs((moved.params.mu - offset) - base.params.mu) <= tol
            assert abs(moved.params.sigma - base.params.sigma) <= tol
            assert abs(moved.params.xi - base.params.xi) <= tol
            assert abs(moved.loglik - base.loglik) <= x.size * offset * eps
            if constraint == "gumbel":
                # Newton settles on its own, as on the standardized sweep
                assert moved.iterations <= 20

    def test_pwm_and_mle_agree_large_sample(self):
        x = gev_sample(GevParams(0, 1, 0.0), 100_000, seed=10)
        mle = fit_mle(x, "free").params
        pwm = fit_pwm(x).params
        assert abs(mle.mu - pwm.mu) < 0.05
        assert abs(mle.sigma - pwm.sigma) < 0.05
        assert abs(mle.xi - pwm.xi) < 0.05


def _seeded_samples(count=24):
    rng = np.random.default_rng(20)
    out = []
    for i in range(count):
        n, xi = int(rng.integers(20, 101)), float(rng.uniform(-0.4, 0.5))
        out.append(gev_sample(GevParams(80, 25, xi), n, seed=500 + i))
    return out


# an n = 22 sample with an interior maximum at xi = -0.881 (loglik -96.896)
# and a second basin that climbs to the support edge xi = -1 (-96.979)
BASIN_SAMPLE = gev_sample(GevParams(80, 25, -0.4), 22, seed=1106)


def _assert_reaches_oracle(x, constraint, check_se=True):
    fit = fit_mle(x, constraint)
    ref = nelder_mead_fit(x, constraint)
    assert fit.params.xi >= -1.0
    if ref.params.xi > -1.0:  # below -1 the simplex has left the bounded likelihood
        assert fit.loglik >= ref.loglik - 1e-9
    assert fit.loglik == log_likelihood(fit.params, x)
    if not check_se:
        return
    if fit.params.xi == -1.0:
        assert fit.std_errors is None
        return
    # the finite-difference information at the same point, with the shape
    # held at 0 on the Gumbel boundary
    ref_se = finite_difference_se(fit.params, x, free=(True, True, fit.params.xi != 0.0))
    np.testing.assert_allclose(fit.std_errors, ref_se, rtol=1e-3)


class TestKernelAgainstOracle:
    """Every fit_mle fit is the row kernel's; the Nelder-Mead simplex and
    finite-difference standard errors it replaced are the reference, and
    scipy's ``gumbel_r.fit`` is the Gumbel one."""

    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    def test_demo_stations(self, constraint):
        for s in demo_dataset(seed=29):
            _assert_reaches_oracle(s.values, constraint)

    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    def test_seeded_samples(self, constraint):
        for x in _seeded_samples():
            _assert_reaches_oracle(x, constraint)

    def test_gumbel_standard_errors_are_closed_form(self):
        for x in _seeded_samples()[:6]:
            fit = fit_mle(x, "gumbel")
            ref_se = finite_difference_se(fit.params, x, free=(True, True, False))
            np.testing.assert_allclose(fit.std_errors, ref_se, rtol=1e-3)
            assert fit.std_errors[2] == 0.0

    @pytest.mark.parametrize("constraint", ["free", "weibull"])
    def test_capped_shape_step_keeps_the_interior_maximum(self, constraint, monkeypatch):
        fit = fit_mle(BASIN_SAMPLE, constraint)
        assert fit.params.xi == pytest.approx(-0.8807, abs=1e-4)
        # the top point lies 0.008 inside the support edge, too close for the
        # reference's finite-difference stencil
        _assert_reaches_oracle(BASIN_SAMPLE, constraint, check_se=False)
        # an uncapped Newton step jumps past it into the edge basin, and the
        # edge certificate brings it back
        cap = estimate._XI_STEP_CAP
        monkeypatch.setattr(estimate, "_XI_STEP_CAP", np.inf)
        rescued = fit_mle(BASIN_SAMPLE, constraint)
        assert rescued.params.xi == pytest.approx(fit.params.xi, abs=1e-6)
        assert rescued.loglik >= fit.loglik - 1e-9
        # with the grid check off, the uncapped step ends on the edge and
        # the capped one still keeps the interior maximum
        monkeypatch.setattr(estimate, "_EDGE_GRID", np.empty(0))
        uncapped = fit_mle(BASIN_SAMPLE, constraint)
        assert uncapped.params.xi == -1.0
        assert uncapped.loglik < fit.loglik - 0.05
        monkeypatch.setattr(estimate, "_XI_STEP_CAP", cap)
        assert fit_mle(BASIN_SAMPLE, constraint) == fit

    @pytest.mark.parametrize("constraint", ["free", "weibull"])
    @pytest.mark.parametrize(
        "xi, seed",
        [(-0.5, 1161), (-0.5, 3481), (-0.4, 2851), (-0.4, 3841), (-0.3, 3662)],
        ids=lambda v: str(v),
    )
    def test_edge_certificate_finds_the_interior_maximum(self, xi, seed, constraint, monkeypatch):
        # n = 22 samples on which the capped step climbs from an interior
        # maximum's ridge into the support-edge basin
        x = gev_sample(GevParams(80, 25, xi), 22, seed)
        fit = fit_mle(x, constraint)
        assert -1.0 < fit.params.xi < 0.0
        assert fit.loglik >= nelder_mead_fit(x, constraint).loglik - 1e-8
        if seed == 2851:
            # the edge gives -96.3420; the maximum is -96.3287062
            assert round(fit.loglik, 4) >= -96.3287
        monkeypatch.setattr(estimate, "_EDGE_GRID", np.empty(0))
        edge = fit_mle(x, constraint)
        assert edge.params.xi == -1.0 and edge.loglik < fit.loglik

    def test_short_free_fit_stays_where_the_likelihood_is_bounded(self):
        # the simplex returned xi = -1.021 here, where the likelihood is
        # unbounded above; the kernel takes the support edge
        x = gev_sample(GevParams(80, 25, -0.3), 20, seed=104)
        fit = fit_mle(x, "free")
        assert fit.params.xi >= -1.0
        assert nelder_mead_fit(x, "free").params.xi < -1.0

    def test_edge_fit_is_the_closed_form_supremum(self):
        # demo station Prado, a draw from its stage-1 Weibull fit on the
        # stream (seed, "tcvm", "weibull", 169), which was bootstrap
        # replicate 169 when each replicate had a stream of its own: the
        # simplex stopped at xi = -0.836 with loglik -155.778, below the
        # supremum -155.7217 that the support edge xi = -1 reaches
        x = next(s.values for s in demo_dataset(seed=29) if s.station_id == "Prado")
        seed = derive_seed(derive_seed(29, "gof", "Prado"), "stage1")
        rng = np.random.default_rng([derive_seed(seed, "tcvm", "weibull", 169)])
        sample = _quantile_sample(rng.random(x.size), fit_mle(x, "weibull").params)
        fit = fit_mle(sample, "weibull")
        assert fit.loglik >= -155.7217
        assert fit.params.xi == -1.0 and fit.std_errors is None
        assert fit.params.mu + fit.params.sigma == pytest.approx(sample.max(), rel=1e-15)
        sigma = (sample.max() - sample).mean()
        assert fit.loglik == pytest.approx(-sample.size * (math.log(sigma) + 1.0), abs=1e-9)
        assert fit.loglik == log_likelihood(fit.params, sample)
        assert fit.loglik >= nelder_mead_fit(sample, "weibull").loglik

    def test_unsettled_fit_raises(self, monkeypatch):
        monkeypatch.setattr(estimate, "_ROW_MAX_ITER", 1)
        x = gev_sample(GevParams(80, 25, 0.2), 40, seed=3)
        with pytest.raises(FitError, match="'frechet'"):
            fit_mle(x, "frechet")

    def test_free_iterations_sum_both_sides(self):
        x = gev_sample(GevParams(80, 25, 0.2), 40, seed=3)
        gumbel = _fit_rows(x[None, :], "gumbel")[4][0]
        sides = [_fit_rows(x[None, :], c)[4][0] - gumbel for c in ("frechet", "weibull")]
        assert fit_mle(x, "free").iterations == gumbel + sum(sides)


def _sample_matrix(xi, rows=60, n=33):
    return np.stack([gev_sample(GevParams(80, 25, xi), n, seed=s) for s in range(rows)])


class TestFitRows:
    """The batched bootstrap kernel against the scalar fits it replaces."""

    @pytest.mark.parametrize("xi", [-0.2, 0.0, 0.2])
    def test_gumbel_rows_match_exact_scalar_fit(self, xi):
        # the scalar fit is scipy's bracketed root of the scale equation
        X = _sample_matrix(xi)
        mu, sigma, shape, converged, _ = _fit_rows(X, "gumbel")
        assert converged.all()
        assert np.all(shape == 0.0)
        for row, x in enumerate(X):
            ref = nelder_mead_fit(x, "gumbel").params
            assert mu[row] == pytest.approx(ref.mu, rel=1e-12)
            assert sigma[row] == pytest.approx(ref.sigma, rel=1e-12)

    def test_gumbel_rows_settle_on_the_standardized_sweep(self):
        # _gumbel_rows' iterations depend only on the standardized sample
        # (see its docstring), so this grid at mu = 0, sigma = 1 stands for
        # every location and scale; the power-of-two scalings check that
        # the iterates scale bit for bit
        for n in (5, 8, 15, 33, 60, 200):
            for xi in np.round(np.linspace(-0.9, 1.5, 25), 10):
                rng = np.random.default_rng([n, int(round(10 * xi)) + 9])
                u = rng.random((300, n))
                u[u == 0.0] = np.nextafter(0.0, 1.0)
                X = np.asarray(gev_quantile(u, GevParams(0.0, 1.0, float(xi))))
                mu, sigma, ok, iterations = estimate._gumbel_rows(X)
                assert ok.all() and iterations.max() <= 20, (n, xi)
                for scale in (2.0**-30, 2.0**30):
                    scaled = estimate._gumbel_rows(X * scale)
                    assert np.array_equal(scaled[0], mu * scale)
                    assert np.array_equal(scaled[1], sigma * scale)
                    assert np.array_equal(scaled[3], iterations)

    @pytest.mark.parametrize("family", ["frechet", "weibull"])
    def test_signed_rows_reach_scalar_loglik(self, family):
        # the three shapes put the free estimate on both sides of 0, so
        # some rows end on the xi = 0 boundary (their Gumbel solution)
        X = np.concatenate([_sample_matrix(xi, rows=20) for xi in (-0.2, 0.0, 0.2)])
        mu, sigma, shape, converged, _ = _fit_rows(X, family)
        assert converged.all()
        sign = 1.0 if family == "frechet" else -1.0
        assert np.all(sign * shape >= 0.0)
        boundary = shape == 0.0
        assert 0 < boundary.sum() < len(X)
        for row, x in enumerate(X):
            ll = log_likelihood(GevParams(mu[row], sigma[row], shape[row]), x)
            assert ll >= nelder_mead_fit(x, family).loglik - 1e-8
            if boundary[row]:
                gum = fit_mle(x, "gumbel").params
                assert mu[row] == pytest.approx(gum.mu, rel=1e-12)
                assert sigma[row] == pytest.approx(gum.sigma, rel=1e-12)

    def test_closed_form_derivatives_match_finite_differences(self):
        X = gev_sample(GevParams(80, 25, 0.2), 33, seed=1)[None, :]
        theta = np.array([82.0, math.log(24.0), 0.15])
        for shape in (0.15, -0.1):
            theta[2] = shape
            grad, hess = _gev_rows_derivatives(X, theta[:1], theta[1:2], theta[2:])

            def ll(t):
                return _gev_rows_loglik(X, t[:1], t[1:2], t[2:])[0]

            h = 1e-5
            eye = np.eye(3) * h
            num_grad = [(ll(theta + e) - ll(theta - e)) / (2 * h) for e in eye]
            num_hess = [
                [
                    (ll(theta + e + f) - ll(theta + e - f) - ll(theta - e + f) + ll(theta - e - f))
                    / (4 * h * h)
                    for f in eye
                ]
                for e in eye
            ]
            np.testing.assert_allclose(grad[0], num_grad, rtol=1e-6, atol=1e-6)
            np.testing.assert_allclose(hess[0], num_hess, rtol=1e-4, atol=1e-3)
            assert ll(theta) == pytest.approx(
                log_likelihood(GevParams(theta[0], math.exp(theta[1]), shape), X[0]), abs=1e-10
            )

    @pytest.mark.parametrize("constraint", ["weibull", "free"])
    def test_row_on_the_support_edge_stops_early(self, monkeypatch, constraint):
        # a Weibull-side row that creeps onto xi = -1 below the edge's
        # supremum used to run all _ROW_MAX_ITER iterations there
        X = gev_sample(GevParams(80, 25, -0.3), 22, seed=116)[None, :]
        stopped = _fit_rows(X, constraint)
        monkeypatch.setattr(estimate, "_EDGE_STOP", 0.0)
        full = _fit_rows(X, constraint)
        assert stopped[2][0] == -1.0 and stopped[3][0]
        for a, b in zip(stopped[:4], full[:4]):
            assert np.array_equal(a, b)
        assert stopped[4][0] < full[4][0] - 50

    def test_rows_the_scalar_fit_rejects_come_back_unconverged(self):
        X = _sample_matrix(0.1, rows=3)
        X[1, 5] = np.inf
        X[2] = np.repeat([1.0, 2.0, 3.0, 4.0], [9, 8, 8, 8])
        for constraint in ("free", "gumbel", "frechet", "weibull"):
            mu, sigma, shape, converged, _ = _fit_rows(X, constraint)
            assert converged.tolist() == [True, False, False]
            assert np.isnan(mu[1:]).all() and np.isnan(sigma[1:]).all()
        with pytest.raises(ValueError):
            _fit_rows(X, "cauchy")


SHORT_STATION = np.array([61.2, 88.0, 73.5, 95.1, 70.3, 102.4, 66.0, 80.8])


def _profile_samples():
    samples = [
        gev_sample(GevParams(80, 25, xi), n, seed=seed)
        for xi, n, seed in ((-0.3, 33, 0), (0.0, 50, 1), (0.1, 100, 2), (0.4, 20, 3))
    ]
    return samples + [SHORT_STATION]


class TestProfileKernel:
    """The fixed-shape Newton solve against the Nelder-Mead reference."""

    @pytest.mark.parametrize(
        "xi", [-0.99, -0.5, -1e-7, -1e-9, 0.0, 1e-9, 1e-7, 0.05, 0.5, 1.5, 2.0]
    )
    def test_reaches_reference_loglik(self, xi):
        for x in _profile_samples():
            free = fit_mle(x, "free").params
            start = (free.mu, free.sigma)
            ll, (mu, sigma) = profile_loglik(x, xi, start)
            assert ll >= nelder_mead_profile_loglik(x, xi, start)[0] - 1e-9
            assert ll == pytest.approx(log_likelihood(GevParams(mu, sigma, xi), x), abs=1e-9)

    def test_batched_fixed_shapes_match_the_one_row_solve(self):
        x = _profile_samples()[0]
        free = fit_mle(x, "free").params
        shapes = np.array([-0.95, -0.6, -0.3, -0.05, 0.05, 0.4, 1.0, 2.0])
        X = np.tile(x, (shapes.size, 1))
        mu, eta = np.full(shapes.size, free.mu), np.full(shapes.size, math.log(free.sigma))
        xi = shapes.copy()
        ll = estimate._widen_into_support(X, mu, eta, xi)
        converged, _ = estimate._newton_rows(X, mu, eta, xi, ll, np.ones(shapes.size, dtype=bool))
        assert converged.all() and np.array_equal(xi, shapes)
        for row, shape in enumerate(shapes):
            one, (m, s) = profile_loglik(x, shape, (free.mu, free.sigma))
            assert (ll[row], mu[row], math.exp(eta[row])) == (one, m, s)

    def test_batched_gumbel_edge_and_interior_rows_match_one_row_solves(self):
        # |xi| < XI_EPS takes the Gumbel fit, xi = -1 the support edge and
        # the rest the fixed-shape Newton solve, all in one call
        samples = [
            gev_sample(GevParams(80, 25, xi), 33, seed=s) for s, xi in enumerate((-0.3, 0.0, 0.3))
        ]
        shapes = (0.0, -1.0, 0.4, -1e-9, -0.5, 1e-9, 0.1)
        rows = [(x, xi) for x in samples for xi in shapes]
        frees = {id(x): fit_mle(x, "free").params for x in samples}
        starts = [(frees[id(x)].mu, frees[id(x)].sigma) for x, _ in rows]
        X = np.stack([x for x, _ in rows])
        xi = np.array([k for _, k in rows])
        assert 0 < (np.abs(xi) < XI_EPS).sum() < xi.size and (xi == -1.0).any()
        mu, eta = np.array([(m, math.log(s)) for m, s in starts]).T
        ll, mu, eta, status = estimate._profile_rows(X, xi, mu, eta)
        assert not status.any()
        for r, ((x, k), start) in enumerate(zip(rows, starts)):
            assert (ll[r], (mu[r], math.exp(eta[r]))) == profile_loglik(x, k, start)

    def test_closed_form_at_lower_search_bound(self):
        # the supremum lies on the support edge mu + sigma = max x
        for x in _profile_samples():
            free = fit_mle(x, "free").params
            start = (free.mu, free.sigma)
            ll, (mu, sigma) = profile_loglik(x, -1.0, start)
            assert ll >= nelder_mead_profile_loglik(x, -1.0, start)[0]
            assert mu + sigma == pytest.approx(x.max(), rel=1e-15)
        free = fit_mle(SHORT_STATION, "free")
        ll, _ = profile_loglik(SHORT_STATION, -1.0, (free.params.mu, free.params.sigma))
        assert 2.0 * (free.loglik - ll) == pytest.approx(1.979584541510647, abs=1e-9)

    def test_infeasible_start_raises_naming_the_shape(self):
        x = gev_sample(GevParams(80, 25, 0.1), 33, seed=4)
        with pytest.raises(FitError, match="xi=0.5"):
            profile_loglik(x, 0.5, (1e20, 1.0))

    def test_unsettled_solve_raises(self, monkeypatch):
        x = gev_sample(GevParams(80, 25, 0.1), 33, seed=4)
        monkeypatch.setattr(estimate, "_ROW_MAX_ITER", 1)
        with pytest.raises(FitError, match="did not settle at xi=0.3"):
            profile_loglik(x, 0.3, (60.0, 10.0))

    def test_interval_matches_reference_driven_interval(self, monkeypatch):
        samples = _profile_samples()[:4]
        newton = [profile_ci_xi(x) for x in samples]

        def reference_rows(X, xi, mu, eta):
            solves = [
                nelder_mead_profile_loglik(x, float(k), (m, math.exp(e)))
                for x, k, m, e in zip(X, xi, mu, eta)
            ]
            ll, mu, sigma = np.array([(ll, m, s) for ll, (m, s) in solves]).T
            return ll, mu, np.log(sigma), np.zeros(xi.size, dtype=int)

        monkeypatch.setattr(estimate, "_profile_rows", reference_rows)
        for x, ci in zip(samples, newton):
            ref = profile_ci_xi(x)
            assert ci.lower == pytest.approx(ref.lower, abs=1e-9)
            assert ci.upper == pytest.approx(ref.upper, abs=1e-9)

    def test_no_shape_is_solved_twice(self, monkeypatch):
        # the MLE's deviance is 0 and the march's deviances close the
        # bracket, on both sides of each station
        solved = []
        solve = estimate._profile_rows

        def counting(X, xi, mu, eta):
            solved.extend(xi.tolist())
            return solve(X, xi, mu, eta)

        monkeypatch.setattr(estimate, "_profile_rows", counting)
        for s in demo_dataset(seed=29):
            solved.clear()
            free = fit_mle(s.values, "free")
            ci = profile_ci_xi(s.values, free=free)
            assert len(solved) == len(set(solved)), s.station_id
            assert min(solved) <= ci.lower < free.params.xi < ci.upper <= max(solved)

    def test_given_free_fit_is_not_refitted(self, monkeypatch):
        x = gev_sample(GevParams(80, 25, 0.1), 50, seed=6)
        free = fit_mle(x, "free")
        expected = profile_ci_xi(x)

        def refit(*args, **kwargs):
            raise AssertionError("free fit repeated")

        monkeypatch.setattr(estimate, "fit_mle", refit)
        assert profile_ci_xi(x, free=free) == expected


FAILING_STATION = [189.3, 72.7, 145.4, 210.8, 85.8, 423.1, 72.2, 87.2, 121.8]  # no free fit
FEW_DISTINCT = [[61.2, 88.0, 73.5, 95.1], [70.0] * 33]


def _mixed_length_stations():
    """The demo network (33 years) around the 8-year Short station, a
    9-year station whose free fit fails and two with fewer than 5 distinct
    values, so the rows split into groups of several lengths."""
    demo = [s.values for s in demo_dataset(seed=29)]
    return demo[:10] + [SHORT_STATION, FAILING_STATION, *FEW_DISTINCT] + demo[10:]


def _bits(outcome):
    """A result by its repr (floats round-trip exactly), an error by type and text."""
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    return repr(outcome)


class TestRowEntryPoints:
    """The row entry points against their one-row cases, station by station."""

    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    def test_fits_equal_one_row_fits(self, constraint):
        samples = _mixed_length_stations()
        rows = fit_mle_rows(samples, constraint)
        for x, fit in zip(samples, rows):
            try:
                one = fit_mle(x, constraint)
            except (FitError, ValueError) as exc:
                one = exc
            assert _bits(fit) == _bits(one)
        if constraint == "free":
            assert [_bits(f) for f in rows[11:14]] == [
                (FitError, "MLE did not converge under constraint 'free'"),
                *[(ValueError, "data must contain at least 5 distinct values")] * 2,
            ]
        with pytest.raises(ValueError, match="constraint"):
            fit_mle_rows(samples, "cauchy")

    def test_stalled_gumbel_row_gets_the_fit_error(self, monkeypatch):
        # one row of a block whose Gumbel iteration does not settle fails
        # alone; the other rows keep their fits bit for bit
        samples = [s.values for s in demo_dataset(seed=29)]
        settled = fit_mle_rows(samples, "gumbel")
        rows = estimate._gumbel_rows

        def stall_one(X):
            mu, sigma, ok, iterations = rows(X)
            ok[np.all(X == samples[3], axis=1)] = False
            return mu, sigma, ok, iterations

        monkeypatch.setattr(estimate, "_gumbel_rows", stall_one)
        stalled = fit_mle_rows(samples, "gumbel")
        assert _bits(stalled[3]) == (FitError, "MLE did not converge under constraint 'gumbel'")
        for i, (fit, ref) in enumerate(zip(stalled, settled)):
            if i != 3:
                assert _bits(fit) == _bits(ref)
        with pytest.raises(FitError, match="'gumbel'"):
            fit_mle(samples[3], "gumbel")

    def test_intervals_equal_one_row_intervals(self):
        frees = fit_mle_rows(_mixed_length_stations())
        samples, fits = zip(
            *((x, f) for x, f in zip(_mixed_length_stations(), frees) if isinstance(f, FitResult))
        )
        rows = profile_ci_xi_rows(samples, 0.95, fits)
        for x, free, ci in zip(samples, fits, rows):
            try:
                one = profile_ci_xi(x, 0.95, free)
            except FitError as exc:
                one = exc
            assert _bits(ci) == _bits(one)
            # the march-plus-Brent search: each endpoint within _XI_TOL of the root
            try:
                loop = profile_ci_loop(np.asarray(x), 0.95, free)
            except FitError as exc:
                assert _bits(ci) == _bits(exc)
                continue
            assert abs(ci.lower - loop.lower) <= 2 * estimate._XI_TOL
            assert abs(ci.upper - loop.upper) <= 2 * estimate._XI_TOL
        assert _bits(rows[10]) == (
            FitError,
            "profile deviance stays below the threshold at xi=-1.0; "
            "lower endpoint unbounded in (-1.0, 2.0)",
        )
        assert sum(isinstance(ci, ProfileInterval) for ci in rows) == len(rows) - 1

    @pytest.mark.parametrize(
        "status, text",
        [(1, "no feasible (mu, sigma) start for the profile"), (2, "profile likelihood did not settle")],
    )
    def test_failed_solve_stops_only_its_own_row(self, monkeypatch, status, text):
        # every solve of one demo station fails inside its stacked group; the
        # other stations, the 8-year one in a group of its own included, keep
        # their one-row outcomes bit for bit
        frees = fit_mle_rows(_mixed_length_stations())
        samples, fits = zip(
            *((x, f) for x, f in zip(_mixed_length_stations(), frees) if isinstance(f, FitResult))
        )
        alone = []
        for x, free in zip(samples, fits):
            try:
                alone.append(profile_ci_xi(x, 0.95, free))
            except FitError as exc:
                alone.append(exc)
        failing = np.asarray(samples[3])
        solve = estimate._profile_rows

        def fail_one(X, xi, mu, eta):
            ll, mu, eta, stop = solve(X, xi, mu, eta)
            if X.shape[1] == failing.size:
                stop[np.all(X == failing, axis=1)] = status
            return ll, mu, eta, stop

        monkeypatch.setattr(estimate, "_profile_rows", fail_one)
        rows = profile_ci_xi_rows(samples, 0.95, fits)
        # the upper endpoint's first trial, one march step above the MLE
        assert _bits(rows[3]) == (FitError, f"{text} at xi={fits[3].params.xi + 0.1}")
        for i, (ci, one) in enumerate(zip(rows, alone)):
            if i != 3:
                assert _bits(ci) == _bits(one)
        assert isinstance(rows[10], FitError) and "unbounded" in str(rows[10])

    def test_fits_not_free_rejected(self):
        x = gev_sample(GevParams(80, 25, 0.2), 60, seed=4)
        for constraint in ("gumbel", "frechet", "weibull"):
            with pytest.raises(ValueError, match=f"need the free fit, got a '{constraint}' fit"):
                profile_ci_xi(x, free=fit_mle(x, constraint))

    def test_one_free_fit_per_sample(self):
        samples = _profile_samples()[:2]
        frees = fit_mle_rows(samples)
        for given in (frees[:1], frees + frees[:1]):
            with pytest.raises(ValueError, match=f"got {len(given)} free fits for 2 samples"):
                profile_ci_xi_rows(samples, 0.95, given)

    def test_intervals_without_free_fits(self):
        x = _profile_samples()[0]
        rows = profile_ci_xi_rows([x, FAILING_STATION, SHORT_STATION])
        assert _bits(rows[0]) == _bits(profile_ci_xi(x))
        assert _bits(rows[1]) == (FitError, "MLE did not converge under constraint 'free'")
        assert isinstance(rows[2], FitError)
        with pytest.raises(ValueError, match="distinct"):
            profile_ci_xi_rows([x, FEW_DISTINCT[0]])


class TestGoldenIntervals:
    def test_demo_shape_intervals(self):
        # the reference holds the (ci_lo, ci_hi) that profile_ci_xi_rows gave
        # on the demo network, at 17 significant digits. An endpoint is the
        # last trial of a bracket narrower than _XI_TOL, so last-bit
        # differences between CPUs move it by less than that. A change that
        # moves the intervals rewrites the file and states the drift
        series = demo_dataset(seed=29)
        path = Path(__file__).parent / "golden" / "demo_profile_ci.json"
        golden = json.loads(path.read_text(encoding="utf-8"))
        assert list(golden) == [s.station_id for s in series]
        rows = profile_ci_xi_rows([s.values for s in series])
        moves = [
            abs(end - ref)
            for s, ci in zip(series, rows)
            for end, ref in zip((ci.lower, ci.upper), golden[s.station_id])
        ]
        print(f"largest endpoint move {max(moves):.3g}; all 40 bit-equal: {not any(moves)}")
        assert len(moves) == 40 and max(moves) <= 2 * estimate._XI_TOL


class TestProfileCi:
    def test_contains_truth_and_narrow_at_large_n(self):
        x = gev_sample(GevParams(0, 1, 0.1), 5000, seed=1)
        ci = profile_ci_xi(x, level=0.95)
        assert ci.contains(0.1)
        assert ci.upper - ci.lower < 0.1

    def test_nesting_in_level(self):
        x = gev_sample(GevParams(80, 25, 0.05), 200, seed=3)
        narrow = profile_ci_xi(x, level=0.95)
        wide = profile_ci_xi(x, level=0.99)
        assert wide.lower <= narrow.lower and narrow.upper <= wide.upper

    def test_endpoints_sit_on_deviance_threshold(self):
        x = gev_sample(GevParams(80, 25, 0.05), 100, seed=5)
        free = fit_mle(x, "free")
        ci = profile_ci_xi(x, level=0.95)
        threshold = chi2.ppf(0.95, df=1)
        for endpoint in (ci.lower, ci.upper):
            ll, _ = nelder_mead_profile_loglik(x, endpoint, (free.params.mu, free.params.sigma))
            assert 2.0 * (free.loglik - ll) == pytest.approx(threshold, abs=1e-3)

    def test_small_sample_coverage_sanity(self):
        # desk-scale version of the coverage experiment: the binding
        # [0.91, 0.98] check at n=100 over 500 replications lives in the
        # acceptance suite
        hits = 0
        runs = 40
        for seed in range(runs):
            x = gev_sample(GevParams(80, 25, 0.0), 33, seed=seed)
            try:
                ci = profile_ci_xi(x, level=0.95)
            except FitError:
                continue
            hits += ci.contains(0.0)
        assert hits >= int(0.8 * runs)

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            profile_ci_xi([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], level=1.2)
