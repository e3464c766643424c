"""Goodness-of-fit tests: closed-form and quadrature oracles for the
truncated statistic, bootstrap determinism, LRT properties, family routing."""

import dataclasses
import math

import numpy as np
import pytest

from rainmax import gof
from rainmax.demo import demo_dataset
from rainmax.estimate import FitError, _fit_rows, fit_mle
from rainmax.gev import (
    GevParams,
    _gev_rows_cdf,
    _quantile_sample,
    gev_cdf,
    gev_quantile,
    gev_sample,
)
from rainmax.gof import (
    fit_family,
    lrt_gumbel_vs_gev,
    select_family,
    tcvm_statistic,
    tcvm_test,
)
from rainmax.seeding import derive_seed

from _reference_fits import nelder_mead_fit

GUMBEL = GevParams(80.0, 25.0, 0.0)


def _tcvm_by_quadrature(data, params, delta, m=10**6):
    """Midpoint-rule evaluation of the defining integral in probability scale."""
    u_sorted = np.sort(gev_cdf(np.asarray(data), params))
    n = len(u_sorted)
    lo, hi = delta, 1.0 - delta
    u = lo + (np.arange(m) + 0.5) * (hi - lo) / m
    empirical = np.searchsorted(u_sorted, u, side="right") / n
    return n * np.sum((empirical - u) ** 2) * (hi - lo) / m


def _tcvm_rows_cubes(X, mu, sigma, xi, delta):
    """``gof._tcvm_rows`` with each interval's (c - a)**3 - (c - b)**3 taken
    by numpy's power, the form the kernel had before its factored cube
    difference: the reference it must match."""
    u = np.sort(_gev_rows_cdf(X, mu, sigma, xi), axis=1)
    n = X.shape[1]
    knots = np.concatenate([np.zeros((X.shape[0], 1)), u, np.ones((X.shape[0], 1))], axis=1)
    a = np.clip(knots[:, :-1], delta, 1.0 - delta)
    b = np.clip(knots[:, 1:], delta, 1.0 - delta)
    c = np.arange(n + 1) / n
    return n * ((c - a) ** 3 - (c - b) ** 3).sum(axis=1) / 3.0


@pytest.fixture(scope="module")
def kernel_rows():
    """12 000 bootstrap-like rows at n = 33, each with the parameters of its
    own refit of the family that made it, and again with the generating
    parameters: 24 000 (X, mu, sigma, xi) rows in all."""
    rng = np.random.default_rng(19)
    parts = []
    for family, shape in (("gumbel", 0.0), ("frechet", 0.25), ("weibull", -0.25)):
        X = gev_quantile(1.0 - rng.random((4000, 33)), GevParams(80.0, 25.0, shape))
        mu, sigma, xi, ok, _ = _fit_rows(X, family)
        parts.append((X[ok], mu[ok], sigma[ok], xi[ok]))
        true = np.ones(X.shape[0])
        parts.append((X, 80.0 * true, 25.0 * true, shape * true))
    return tuple(np.concatenate(column) for column in zip(*parts))


class TestTcvmKernel:
    # the tolerance was fixed before the two forms were compared
    RTOL = 1e-13

    @pytest.mark.parametrize("delta", [0.0, 0.05, 0.2, 0.49])
    def test_matches_cube_reference(self, kernel_rows, delta):
        X = kernel_rows[0]
        assert X.shape[0] >= 20_000
        got = gof._tcvm_rows(*kernel_rows, delta)
        want = _tcvm_rows_cubes(*kernel_rows, delta)
        np.testing.assert_allclose(got, want, rtol=self.RTOL, atol=0)

    @pytest.mark.parametrize("delta", [0.0, 0.05, 0.2, 0.49])
    def test_clipped_intervals_add_exactly_zero(self, delta):
        # every point of a row far below (above) the band: every interval is
        # clipped to a point but the one that spans [delta, 1 - delta]
        n = 20
        X = np.stack([np.linspace(-9.0, -5.0, n), np.linspace(60.0, 70.0, n)])
        params = (np.zeros(2), np.ones(2), np.zeros(2))  # the standard Gumbel
        got = gof._tcvm_rows(X, *params, delta)
        np.testing.assert_allclose(got, _tcvm_rows_cubes(X, *params, delta), rtol=self.RTOL, atol=0)
        lo, hi = delta, 1.0 - delta
        for row, c in zip(got, (1.0, 0.0)):
            A, B = c - lo, c - hi
            assert row == n * ((hi - lo) * (A * A + A * B + B * B)) / 3.0
        # the same value as F_n - F integrated in closed form
        np.testing.assert_allclose(got, n * (hi**3 - lo**3) / 3.0, rtol=self.RTOL)

    def test_demo_p_values_equal_cube_reference(self, monkeypatch):
        # every demo station's family choice at B = 999, as report makes it
        # (Tacuarembo's second stage included), with either kernel
        def decisions():
            out = []
            for s in demo_dataset(seed=29):
                seed = derive_seed(29, "gof", s.station_id)
                decision = select_family(s.values, fit_mle(s.values, "free"), seed=seed)
                out.append((s.station_id, decision.chosen, decision.gumbel_p, decision.second_p))
            return out

        new = decisions()
        monkeypatch.setattr(gof, "_tcvm_rows", _tcvm_rows_cubes)
        assert decisions() == new
        assert sum(chosen != "gumbel" for _, chosen, _, _ in new) == 1


class TestTcvmStatistic:
    def test_perfect_plotting_positions_hit_classical_floor(self):
        for n in (10, 33):
            data = gev_quantile((np.arange(1, n + 1) - 0.5) / n, GUMBEL)
            stat = tcvm_statistic(data, GUMBEL, delta=0.0)
            assert stat == pytest.approx(1.0 / (12.0 * n), abs=1e-12)

    def test_truncation_never_increases_statistic(self):
        x = gev_sample(GUMBEL, 33, seed=3)
        params = GevParams(float(x.mean()), float(x.std()), 0.0)
        assert tcvm_statistic(x, params, delta=0.49) <= tcvm_statistic(x, params, delta=0.0)

    def test_matches_quadrature_oracle(self):
        x = gev_sample(GUMBEL, 33, seed=5)
        stat = tcvm_statistic(x, GUMBEL, delta=0.05)
        oracle = _tcvm_by_quadrature(x, GUMBEL, delta=0.05)
        assert stat == pytest.approx(oracle, abs=1e-6)

    def test_matches_quadrature_oracle_untruncated(self):
        x = gev_sample(GevParams(0, 1, 0.2), 25, seed=6)
        params = GevParams(0.2, 1.1, 0.15)
        stat = tcvm_statistic(x, params, delta=0.0)
        assert stat == pytest.approx(_tcvm_by_quadrature(x, params, 0.0), abs=1e-6)

    def test_affine_invariance(self):
        x = gev_sample(GUMBEL, 40, seed=7)
        base = tcvm_statistic(x, GUMBEL, delta=0.05)
        moved = tcvm_statistic(
            3.0 * x + 11.0, GevParams(3.0 * 80.0 + 11.0, 3.0 * 25.0, 0.0), delta=0.05
        )
        assert moved == pytest.approx(base, rel=1e-12)

    def test_delta_domain(self):
        x = gev_sample(GUMBEL, 20, seed=8)
        for bad in (0.5, 0.7, -0.01):
            with pytest.raises(ValueError):
                tcvm_statistic(x, GUMBEL, delta=bad)


class TestTcvmTest:
    def test_small_bootstrap_count_rejected(self):
        x = gev_sample(GUMBEL, 33, seed=1)
        with pytest.raises(ValueError):
            tcvm_test(x, "gumbel", B=10)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            tcvm_test(gev_sample(GUMBEL, 33, seed=1), "normal")

    def test_seeded_reproducibility(self):
        x = gev_sample(GUMBEL, 33, seed=11)
        a = tcvm_test(x, "gumbel", delta=0.05, B=99, seed=5)
        b = tcvm_test(x, "gumbel", delta=0.05, B=99, seed=5)
        assert a == b

    def test_p_value_counting_convention(self):
        x = gev_sample(GUMBEL, 33, seed=12)
        res = tcvm_test(x, "gumbel", delta=0.05, B=99, seed=6)
        # p = (1 + #{boot >= obs}) / (B + 1) implies the attainable grid
        assert res.p_value * (res.replicates + 1) == pytest.approx(
            round(res.p_value * (res.replicates + 1))
        )
        assert 1.0 / (res.replicates + 1) <= res.p_value <= 1.0

    def test_well_fitting_sample_not_rejected(self):
        x = gev_sample(GUMBEL, 33, seed=2)
        res = tcvm_test(x, "gumbel", delta=0.05, B=199, seed=3)
        assert res.p_value > 0.05


def _first_uniforms(seed, family, B, n):
    """Every replicate's first draw: row b of the test's one stream."""
    return np.random.default_rng([derive_seed(seed, "tcvm", family)]).random((B, n))


def _redraw_uniforms(seed, family, b, t, n):
    """Replicate b's t-th redraw, from a stream of its own."""
    return np.random.default_rng([derive_seed(seed, "tcvm", family, b, t)]).random(n)


def _scalar_tcvm_p_value(x, family, delta, B, seed):
    """The bootstrap as a per-replicate loop of Nelder-Mead refits: the
    reference the batched tcvm_test must reproduce."""
    fitted = nelder_mead_fit(x, family)
    observed = tcvm_statistic(x, fitted.params, delta)
    first = _first_uniforms(seed, family, B, x.size)
    exceed = 0
    for b in range(B):
        for t in range(10):
            u = first[b].copy() if t == 0 else _redraw_uniforms(seed, family, b, t, x.size)
            u[u == 0.0] = np.nextafter(0.0, 1.0)
            sample = np.asarray(gev_quantile(u, fitted.params))
            try:
                refit = nelder_mead_fit(sample, family)
            except (FitError, ValueError):
                continue
            exceed += tcvm_statistic(sample, refit.params, delta) >= observed
            break
        else:
            raise FitError(f"replicate {b} failed")
    return (1.0 + exceed) / (B + 1.0)


def _gumbel_bootstrap_statistics(x, seed, B=99):
    """Bootstrap statistics of the Gumbel test, one scalar refit per replicate."""
    fitted = fit_family(x, "gumbel")
    for u in _first_uniforms(seed, "gumbel", B, x.size):
        sample = _quantile_sample(u, fitted.params)
        yield tcvm_statistic(sample, fit_family(sample, "gumbel").params)


class TestBatchedBootstrap:
    @pytest.mark.parametrize("family", ["gumbel", "frechet", "weibull"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_p_value_equals_scalar_loop(self, family, seed):
        x = gev_sample(GevParams(80, 25, 0.1), 33, seed=100 + seed)
        res = tcvm_test(x, family, delta=0.05, B=99, seed=seed)
        assert res.p_value == _scalar_tcvm_p_value(x, family, 0.05, 99, seed)

    def test_blocks_equal_per_replicate_loop(self, monkeypatch):
        # B = 300 is three refit blocks of 128, the last one partial
        monkeypatch.setattr(gof, "_BLOCK_ROWS", 128)
        x = gev_sample(GUMBEL, 33, seed=22)
        kernel = gof._tcvm_rows
        statistics = []

        def record(*args):
            out = kernel(*args)
            statistics.append(out)
            return out

        monkeypatch.setattr(gof, "_tcvm_rows", record)
        res = tcvm_test(x, "gumbel", B=300, seed=5)
        observed, *blocks = statistics  # the observed sample's statistic comes first
        assert [len(b) for b in blocks] == [128, 128, 44]
        expected = list(_gumbel_bootstrap_statistics(x, 5, B=300))
        assert np.concatenate(blocks).tolist() == expected
        assert res.p_value == (1.0 + sum(b >= observed[0] for b in expected)) / 301.0

    def test_unconverged_row_draws_again(self, monkeypatch):
        self._check_redraws(monkeypatch, B=99, replicate=7)

    def test_unconverged_row_in_last_partial_block_draws_again(self, monkeypatch):
        monkeypatch.setattr(gof, "_BLOCK_ROWS", 128)  # replicate 290 is in the third block
        self._check_redraws(monkeypatch, B=300, replicate=290)

    @pytest.mark.parametrize("family", ["gumbel", "frechet", "weibull"])
    def test_p_value_independent_of_block_size(self, monkeypatch, family):
        # B = 999 is one block of 1024 rows, or eight of 128
        x = gev_sample(GevParams(80, 25, 0.1), 33, seed=23)
        one = tcvm_test(x, family, B=999, seed=8)
        monkeypatch.setattr(gof, "_BLOCK_ROWS", 128)
        eight = tcvm_test(x, family, B=999, seed=8)
        assert (eight.statistic, eight.p_value, eight.redraws) == (
            one.statistic,
            one.p_value,
            one.redraws,
        )

    @pytest.mark.parametrize("family", ["gumbel", "frechet", "weibull"])
    def test_first_replicates_do_not_depend_on_B(self, monkeypatch, family):
        x = gev_sample(GUMBEL, 33, seed=24)
        kernel = gof._tcvm_rows
        statistics = []

        def record(*args):
            statistics.append(kernel(*args))
            return statistics[-1]

        monkeypatch.setattr(gof, "_tcvm_rows", record)
        assert tcvm_test(x, family, B=199, seed=9).redraws == 0
        assert tcvm_test(x, family, B=999, seed=9).redraws == 0
        _, small, _, large = statistics  # observed, bootstrap, for each B
        assert (small.size, large.size) == (199, 999)
        np.testing.assert_array_equal(large[:199], small)

    def test_forced_redraw_changes_that_replicate_only(self, monkeypatch):
        x = gev_sample(GUMBEL, 33, seed=25)
        fit_kernel, stat_kernel = gof._fit_rows, gof._tcvm_rows
        statistics = []

        def record(*args):
            statistics.append(stat_kernel(*args))
            return statistics[-1]

        monkeypatch.setattr(gof, "_tcvm_rows", record)
        tcvm_test(x, "gumbel", B=199, seed=2)
        base = statistics[1]
        statistics.clear()

        def fail_first_call(samples, family):
            mu, sigma, xi, converged, iterations = fit_kernel(samples, family)
            if samples.shape[0] == 199:
                converged[57] = False
            return mu, sigma, xi, converged, iterations

        monkeypatch.setattr(gof, "_fit_rows", fail_first_call)
        assert tcvm_test(x, "gumbel", B=199, seed=2).redraws == 1
        _, block, redrawn = statistics
        np.testing.assert_array_equal(block, np.delete(base, 57))
        params = fit_family(x, "gumbel").params
        sample = _quantile_sample(_redraw_uniforms(2, "gumbel", 57, 1, 33), params)
        assert redrawn.tolist() == [tcvm_statistic(sample, fit_family(sample, "gumbel").params)]
        assert redrawn[0] != base[57]

    def test_two_redraws_independent_of_block_size(self, monkeypatch):
        # replicate 700 fails its first draw and its first redraw, wherever
        # it lies: the sixth of eight blocks of 128, or the one block
        x = gev_sample(GUMBEL, 33, seed=26)
        params = fit_family(x, "gumbel").params
        failing = [
            _quantile_sample(_first_uniforms(6, "gumbel", 999, 33)[700], params),
            _quantile_sample(_redraw_uniforms(6, "gumbel", 700, 1, 33), params),
        ]
        fit_kernel = gof._fit_rows
        calls = []

        def failing_fit(samples, family):
            mu, sigma, xi, converged, iterations = fit_kernel(samples, family)
            calls.append(samples.shape[0])
            for sample in failing:
                converged[(samples == sample).all(axis=1)] = False
            return mu, sigma, xi, converged, iterations

        monkeypatch.setattr(gof, "_fit_rows", failing_fit)
        one = tcvm_test(x, "gumbel", B=999, seed=6)
        assert calls == [999, 1, 1]
        calls.clear()
        monkeypatch.setattr(gof, "_BLOCK_ROWS", 128)
        eight = tcvm_test(x, "gumbel", B=999, seed=6)
        assert calls == [128] * 5 + [128, 1, 1] + [128, 103]
        assert (eight.p_value, eight.redraws) == (one.p_value, 2)

    def test_gumbel_bootstrap_far_from_zero_draws_once(self):
        # demo stations mapped to v/25 + 1e4, thousands of scales from 0: a
        # replicate whose Gumbel refit stalls draws again and moves the
        # p-value, so none may stall
        for s in demo_dataset(seed=29)[:6]:
            x = s.values / 25
            shifted = tcvm_test(x + 1e4, "gumbel", B=199, seed=3)
            assert shifted.redraws == 0, s.station_id
            assert shifted.p_value == tcvm_test(x, "gumbel", B=199, seed=3).p_value, s.station_id

    def test_unsettled_rows_of_a_block_draw_again_together(self, monkeypatch):
        # replicate 7 fails its first two draws and replicate 30 its first:
        # both draw again in one kernel call, then 7 alone
        x = gev_sample(GUMBEL, 33, seed=21)
        params = fit_family(x, "gumbel").params
        fit_kernel, stat_kernel = gof._fit_rows, gof._tcvm_rows
        samples, statistics = [], []

        def failing_fit(rows, family):
            mu, sigma, xi, converged, iterations = fit_kernel(rows, family)
            samples.append(rows.copy())
            converged[{1: [7, 30], 2: [0]}.get(len(samples), [])] = False
            return mu, sigma, xi, converged, iterations

        def recording_stat(*args):
            statistics.append(stat_kernel(*args))
            return statistics[-1]

        monkeypatch.setattr(gof, "_fit_rows", failing_fit)
        monkeypatch.setattr(gof, "_tcvm_rows", recording_stat)
        res = tcvm_test(x, "gumbel", B=99, seed=4)
        assert res.redraws == 3
        assert [s.shape[0] for s in samples] == [99, 2, 1]

        first = _first_uniforms(4, "gumbel", 99, 33)

        def draws(replicate, count):
            u = [first[replicate]] + [
                _redraw_uniforms(4, "gumbel", replicate, t, 33) for t in range(1, count)
            ]
            return [_quantile_sample(row, params) for row in u]

        def statistic(sample):
            return tcvm_statistic(sample, fit_family(sample, "gumbel").params)

        seven, thirty = draws(7, 3), draws(30, 2)
        np.testing.assert_array_equal(samples[1], np.stack([seven[1], thirty[1]]))
        np.testing.assert_array_equal(samples[2], seven[2][None, :])
        # observed, block, first redraw (30 settles), second redraw (7 settles)
        assert [s.size for s in statistics] == [1, 97, 1, 1]
        assert statistics[2][0] == statistic(thirty[1])
        assert statistics[3][0] == statistic(seven[2])
        expected = list(_gumbel_bootstrap_statistics(x, 4, B=99))
        expected[7], expected[30] = statistic(seven[2]), statistic(thirty[1])
        assert res.p_value == (1.0 + sum(b >= statistics[0][0] for b in expected)) / 100.0

    @staticmethod
    def _check_redraws(monkeypatch, B, replicate):
        x = gev_sample(GUMBEL, 33, seed=21)
        reference = tcvm_test(x, "gumbel", B=B, seed=4)
        assert reference.redraws == 0

        kernel = gof._fit_rows
        block, row = divmod(replicate, gof._BLOCK_ROWS)
        calls = []

        def fail_replicate(samples, family, failures):
            mu, sigma, xi, converged, iterations = kernel(samples, family)
            calls.append(samples)
            # the replicate's block call, then each of its redraws
            if block < len(calls) <= block + failures:
                converged[row if len(calls) == block + 1 else 0] = False
            return mu, sigma, xi, converged, iterations

        monkeypatch.setattr(gof, "_fit_rows", lambda s, f: fail_replicate(s, f, 2))
        res = tcvm_test(x, "gumbel", B=B, seed=4)
        assert res.redraws == 2
        # the first draw is the replicate's row of the test's stream, each
        # redraw t the replicate's own stream (replicate, t)
        u = [_first_uniforms(4, "gumbel", B, 33)[replicate]]
        u += [_redraw_uniforms(4, "gumbel", replicate, t, 33) for t in (1, 2)]
        draws = [_quantile_sample(row, fit_family(x, "gumbel").params) for row in u]
        assert len(calls) == block + 3
        np.testing.assert_array_equal(calls[block][row], draws[0])
        np.testing.assert_array_equal(calls[block + 1][0], draws[1])
        np.testing.assert_array_equal(calls[block + 2][0], draws[2])
        # the replicate's statistic now comes from its third draw
        refit = fit_family(draws[2], "gumbel")
        expected = list(_gumbel_bootstrap_statistics(x, 4, B=B))
        expected[replicate] = tcvm_statistic(draws[2], refit.params)
        observed = tcvm_statistic(x, fit_family(x, "gumbel").params)
        assert res.p_value == (1.0 + sum(b >= observed for b in expected)) / (B + 1.0)

        calls.clear()
        monkeypatch.setattr(gof, "_fit_rows", lambda s, f: fail_replicate(s, f, 10))
        with pytest.raises(
            FitError, match=f"replicate {replicate} failed to refit gumbel after 10 draws"
        ):
            tcvm_test(x, "gumbel", B=B, seed=4)


class TestRowsIndependentOfTheirBlock:
    """A bootstrap row's refit and statistic have the same bits whether it
    is fitted in a block of 256 rows or alone, so splitting one test's
    block across threads would leave its p-value unchanged."""

    PICKED = range(0, 256, 8)  # the 32 rows fitted alone, the rejected one included

    @pytest.fixture(scope="class")
    def block(self):
        rng = np.random.default_rng(47)
        shapes = rng.permutation(np.linspace(-0.4, 0.4, 256))
        uniforms = rng.random((256, 33))
        X = np.stack(
            [_quantile_sample(u, GevParams(80.0, 25.0, xi)) for u, xi in zip(uniforms, shapes)]
        )
        X[16] = np.resize([60.0, 75.0, 90.0, 120.0], 33)  # 4 distinct values: the kernel rejects it
        return X

    @pytest.mark.parametrize("constraint", ["gumbel", "frechet", "weibull", "free"])
    def test_fit_rows(self, block, constraint):
        together = _fit_rows(block, constraint)
        assert not together[3][16]
        for r in self.PICKED:
            alone = _fit_rows(block[r : r + 1], constraint)
            names = ("mu", "sigma", "xi", "converged", "iterations")
            for name, got, want in zip(names, alone, together):
                assert got.tobytes() == want[r : r + 1].tobytes(), (r, name)

    @pytest.mark.parametrize("constraint", ["gumbel", "frechet", "weibull", "free"])
    def test_tcvm_rows(self, block, constraint):
        mu, sigma, xi, ok, _ = _fit_rows(block, constraint)
        X, mu, sigma, xi = block[ok], mu[ok], sigma[ok], xi[ok]
        together = gof._tcvm_rows(X, mu, sigma, xi, gof.DEFAULT_DELTA)
        for r in range(0, X.shape[0], 8):
            one = slice(r, r + 1)
            alone = gof._tcvm_rows(X[one], mu[one], sigma[one], xi[one], gof.DEFAULT_DELTA)
            assert alone.tobytes() == together[one].tobytes(), r


class TestLrt:
    @pytest.mark.parametrize("seed", range(6))
    def test_deviance_nonnegative(self, seed):
        x = gev_sample(GUMBEL, 33, seed=seed)
        res = lrt_gumbel_vs_gev(fit_mle(x, "free"), fit_mle(x, "gumbel"))
        assert res.statistic >= 0.0
        assert 0.0 <= res.p_value <= 1.0

    def test_deviance_is_twice_the_stored_loglik_gap(self):
        x = gev_sample(GevParams(80, 25, 0.3), 33, seed=12)
        free, gumbel = fit_mle(x, "free"), fit_mle(x, "gumbel")
        res = lrt_gumbel_vs_gev(free, gumbel)
        assert res.statistic == max(0.0, 2.0 * (free.loglik - gumbel.loglik))
        assert res.fit is None

    def test_fits_must_be_free_then_gumbel(self):
        x = gev_sample(GUMBEL, 33, seed=0)
        free, gumbel = fit_mle(x, "free"), fit_mle(x, "gumbel")
        with pytest.raises(ValueError, match="need a free and a gumbel fit"):
            lrt_gumbel_vs_gev(gumbel, free)

    def test_zero_deviance_gives_unit_p(self):
        from scipy.stats import chi2

        assert chi2.sf(0.0, df=1) == 1.0

    def test_p_value_matches_chi2_survival(self):
        from scipy.stats import chi2

        x = gev_sample(GUMBEL, 33, seed=0)
        free, gumbel = fit_mle(x, "free"), fit_mle(x, "gumbel")
        gumbel = dataclasses.replace(gumbel, loglik=0.0)
        for d in np.linspace(0.0, 200.0, 2001):
            res = lrt_gumbel_vs_gev(dataclasses.replace(free, loglik=d / 2.0), gumbel)
            assert res.statistic == d
            assert res.p_value == pytest.approx(chi2.sf(d, df=1), rel=1e-12, abs=0)

    def test_large_sample_power_against_heavy_tail(self):
        rejections = 0
        runs = 200
        for seed in range(runs):
            x = gev_sample(GevParams(0, 1, 0.4), 200, seed=seed)
            rejections += lrt_gumbel_vs_gev(fit_mle(x, "free"), fit_mle(x, "gumbel")).p_value < 0.05
        assert rejections >= int(0.90 * runs)


class TestSelectFamily:
    def test_alpha_zero_always_keeps_gumbel(self):
        x = gev_sample(GevParams(0, 1, 0.4), 33, seed=1)
        decision = select_family(x, fit_mle(x, "free"), alpha=0.0, B=99, seed=2)
        assert decision.chosen == "gumbel"
        assert decision.second_p is None

    def test_accepting_sample_keeps_gumbel(self):
        x = gev_sample(GUMBEL, 33, seed=2)
        decision = select_family(x, fit_mle(x, "free"), alpha=0.05, B=199, seed=3)
        assert decision.chosen == "gumbel"
        assert decision.gumbel_p >= 0.05
        assert decision.second_p is None

    def test_rejection_routes_by_shape_sign(self):
        # heavy-tailed sample chosen so the first-stage test rejects
        x = gev_sample(GevParams(80, 25, 0.3), 33, seed=12)
        decision = select_family(x, fit_mle(x, "free"), alpha=0.05, delta=0.05, B=199, seed=5)
        assert decision.gumbel_p < 0.05, "construction must reject the first stage"
        assert decision.chosen == "frechet"
        assert decision.second_p is not None

    def test_zero_shape_routes_to_frechet(self):
        # the second stage sends xi >= 0 to the Frechet side, xi = 0 exactly
        # included: the one rule that maps a fitted shape to a family
        x = gev_sample(GevParams(80, 25, 0.3), 33, seed=12)
        free = fit_mle(x, "free")
        zero = dataclasses.replace(free, params=dataclasses.replace(free.params, xi=0.0))
        decision = select_family(x, zero, alpha=0.05, delta=0.05, B=199, seed=5)
        assert decision.gumbel_p < 0.05, "construction must reject the first stage"
        assert decision.chosen == "frechet"
        assert decision.fit == fit_family(x, "frechet")

    def test_decision_carries_both_p_values(self):
        x = gev_sample(GevParams(80, 25, 0.3), 33, seed=12)
        decision = select_family(x, fit_mle(x, "free"), alpha=0.05, B=199, seed=5)
        assert 0.0 < decision.gumbel_p < 1.0
        assert 0.0 < decision.second_p <= 1.0
        assert decision.alpha == 0.05

    @pytest.mark.parametrize(
        "params, seed, chosen",
        [(GUMBEL, 2, "gumbel"), (GevParams(80, 25, 0.3), 12, "frechet")],
    )
    def test_decision_carries_the_tested_fits(self, params, seed, chosen):
        # the fits are those the tCvM tests made of the observed sample,
        # equal to refitting the family
        x = gev_sample(params, 33, seed=seed)
        decision = select_family(x, fit_mle(x, "free"), alpha=0.05, B=99, seed=5)
        assert decision.chosen == chosen
        assert decision.gumbel_fit == fit_family(x, "gumbel")
        assert decision.fit == fit_family(x, chosen)

    def test_requires_the_free_fit(self):
        x = gev_sample(GUMBEL, 33, seed=2)
        with pytest.raises(ValueError, match="need the free fit"):
            select_family(x, fit_mle(x, "gumbel"), B=99)


def test_tcvm_result_carries_the_observed_fit():
    x = gev_sample(GevParams(80, 25, -0.2), 33, seed=3)
    for family in ("gumbel", "weibull"):
        assert tcvm_test(x, family, B=99, seed=1).fit == fit_family(x, family)
