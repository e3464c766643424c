"""Recurrence-rate tests: brute-force oracles for the kernel's rates, its
pair bins and the permutation test, factorization, inequality and
invariance properties, permutation determinism, report plumbing."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rainmax.recurrence as recurrence_module
from rainmax import ingest
from rainmax.gev import GevParams
from rainmax.seeding import derive_seed
from rainmax.ingest import AnnualMaximaSeries, synth_dataset
from rainmax.recurrence import (
    RADIUS_QUANTILES,
    _PERM_BLOCK_PAIRS,
    GridDetail,
    IndependenceResult,
    _aligned_pair,
    _cumulative_rates,
    _pair_bins,
    independence_test,
    pairwise_independence_report,
)

from _reference_years import common_years, gapped_network


def _kernel_rates(x, y, quantiles=RADIUS_QUANTILES):
    """The kernel's radius grids, x pair bins and cumulative recurrence
    rates of two aligned series: entry (r, s) of the (g+1, g+1) table is
    the share of pairs within x radius r and y radius s, and its last
    column and row, beyond the top radii, are the x and y marginal rates."""
    ax, ay = _aligned_pair(x, y)
    q = np.asarray(quantiles, dtype=float)
    iu_r, iu_c = np.triu_indices(ax.size, k=1)
    gx, gy, ix, iy, _ = _pair_bins(ax, ay, q, iu_r, iu_c)
    gbins = q.size + 1
    counts = np.bincount(ix * gbins + iy, minlength=gbins * gbins)
    return gx, gy, ix, _cumulative_rates(counts.reshape(gbins, gbins), iu_r.size)


def _kernel_deviations(x, y, quantiles=RADIUS_QUANTILES):
    """The observed deviation table |joint rate - product of marginal
    rates| from the kernel's rates, without the permutations: its maximum
    is the test statistic."""
    _, _, _, cum = _kernel_rates(x, y, quantiles)
    g = cum.shape[0] - 1
    return np.abs(cum[:g, :g] - cum[:g, -1][:, None] * cum[-1, :g][None, :])


def _statistic(x, y):
    return independence_test(x, y, permutations=99).statistic


# constant but for three points: a constant series has no radius grid, and
# this one's single nonzero distance is every radius
_NEAR_CONSTANT = np.array([5.0] * 30 + [6.0] * 3)


class TestMarginalRate:
    def test_constant_series_saturates(self):
        y = np.random.default_rng(1).random(33)
        gx, _, _, cum = _kernel_rates(_NEAR_CONSTANT, y)
        assert np.all(gx == 1.0)
        assert np.all(cum[:-1, -1] == 1.0)

    def test_two_far_points(self):
        # the pair of the two far points, the last of the upper triangle,
        # lies beyond the top radius and recurs at none
        x = np.r_[np.linspace(0.0, 1.0, 18), -50.0, 50.0]
        gx, _, ix, cum = _kernel_rates(x, np.random.default_rng(2).random(20))
        assert gx[-1] < 100.0
        assert ix[-1] == gx.size
        assert cum[-2, -1] < 1.0

    def test_max_distance_radius_saturates(self):
        # a pair exactly at the radius recurs: the largest distance as the
        # top radius takes in every pair
        rng = np.random.default_rng(1)
        x = rng.random(25)
        gx, _, _, cum = _kernel_rates(x, rng.random(25), quantiles=(0.5, 1.0))
        assert gx[-1] == np.abs(x[:, None] - x[None, :]).max()
        assert cum[0, -1] < 1.0 and cum[1, -1] == 1.0


class TestJointRate:
    def test_perfect_coupling(self):
        x = np.random.default_rng(2).random(20)
        gx, gy, _, cum = _kernel_rates(x, x.copy())
        assert gx.tobytes() == gy.tobytes()
        np.testing.assert_array_equal(np.diag(cum)[:-1], cum[:-1, -1])

    def test_constant_series_factorizes(self):
        y = np.random.default_rng(3).random(33)
        _, _, _, cum = _kernel_rates(_NEAR_CONSTANT, y)
        np.testing.assert_array_equal(cum[:-1, :-1], np.tile(cum[-1, :-1], (cum.shape[0] - 1, 1)))

    def test_matches_bruteforce_double_loop(self):
        # integer series: their radii are pair distances, which recur
        rng = np.random.default_rng(4)
        x, y = rng.integers(0, 6, size=(2, 20)).astype(float)
        gx, gy, _, cum = _kernel_rates(x, y)
        pairs = [(abs(x[i] - x[j]), abs(y[i] - y[j])) for i in range(20) for j in range(i + 1, 20)]
        for a, r in enumerate(gx):
            for b, s in enumerate(gy):
                count = sum(dx <= r and dy <= s for dx, dy in pairs)
                assert cum[a, b] == count / len(pairs)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ"):
            _statistic(np.arange(10.0), np.arange(11.0))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), ties=st.booleans())
    def test_joint_bounded_by_marginals(self, seed, ties):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=12), rng.normal(size=12)
        if ties:
            x, y = np.round(4.0 * x), np.round(4.0 * y)
        _, _, _, cum = _kernel_rates(x, y)
        joint = cum[:-1, :-1]
        assert np.all(joint <= np.minimum.outer(cum[:-1, -1], cum[-1, :-1]))


class TestIndependenceStatistic:
    def test_near_constant_series_factorizes_to_zero(self):
        # a two-valued, almost constant series: all its recurrence rates are
        # 1 on its quantile grid, so every deviation vanishes
        x = np.array([1.0] * 19 + [2.0] * 2 + [1.0] * 12)
        y = np.random.default_rng(5).random(33)
        assert _statistic(x, y) == 0.0

    def test_identical_series_strongly_dependent(self):
        x = np.sort(np.random.default_rng(6).random(50))
        assert _statistic(x, x.copy()) >= 0.2

    def test_independent_series_small_statistic_at_scale(self):
        rng = np.random.default_rng(7)
        n = 3000  # the longest series the test accepts
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        assert _kernel_deviations(x, y).max() < 0.02

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            _statistic([3.0] * 20, np.arange(20.0))

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            _statistic(np.arange(5.0), np.arange(5.0))

    def test_long_series_rejected(self):
        x = np.arange(3001.0)
        with pytest.raises(ValueError, match="up to 3000 points"):
            _statistic(x, x[::-1].copy())

    def test_positive_affine_invariance(self):
        rng = np.random.default_rng(8)
        x, y = rng.random(40), rng.random(40)
        base = _statistic(x, y)
        moved_x = _statistic(5.0 * x + 3.0, y)
        moved_y = _statistic(x, 0.25 * y - 7.0)
        assert base == moved_x == moved_y

    @pytest.mark.parametrize("tied", [False, True])
    def test_statistic_is_the_tests_observed_value(self, tied):
        rng = np.random.default_rng(23)
        x, y = rng.random(33), rng.random(33)
        if tied:
            x, y = np.round(10.0 * x), np.round(5.0 * y)
        gx, gy, _, _ = _kernel_rates(x, y)
        deviations = _kernel_deviations(x, y)
        result = independence_test(x, y, permutations=99, seed=2)
        assert result.statistic == deviations.max()
        assert result.grid.deviations.tobytes() == deviations.tobytes()
        assert result.grid.x_radii.tobytes() == gx.tobytes()
        assert result.grid.y_radii.tobytes() == gy.tobytes()

    def test_grid_detail_shape(self):
        rng = np.random.default_rng(9)
        result = independence_test(rng.random(30), rng.random(30), permutations=99)
        t, detail = result.statistic, result.grid
        assert detail.deviations.shape == (9, 9)
        assert detail.x_radii.shape == (9,)
        assert np.all(np.diff(detail.x_radii) >= 0)
        assert t == detail.deviations.max()


class TestIndependenceTest:
    def test_permutation_count_precondition(self):
        x = np.arange(20.0)
        with pytest.raises(ValueError, match="permutations must be at least 99, got 10"):
            independence_test(x, x[::-1].copy(), permutations=10)
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            independence_test(x, x[::-1].copy(), seed=-1)

    def test_seeded_reproducibility(self):
        rng = np.random.default_rng(10)
        x, y = rng.random(33), rng.random(33)
        a = independence_test(x, y, permutations=199, seed=4)
        b = independence_test(x, y, permutations=199, seed=4)
        assert a.statistic == b.statistic and a.p_value == b.p_value

    def test_p_value_formula_grid(self):
        rng = np.random.default_rng(11)
        res = independence_test(rng.random(33), rng.random(33), permutations=99, seed=1)
        k = res.p_value * (res.permutations + 1)
        assert k == pytest.approx(round(k))

    def test_dependent_pair_rejected(self):
        rng = np.random.default_rng(12)
        x = rng.random(33)
        y = x + 0.05 * x.std() * rng.standard_normal(33)
        res = independence_test(x, y, permutations=499, seed=2)
        assert res.p_value <= 0.01


def _reference_deviations(counts, n_pairs, g):
    cum = counts.cumsum(axis=0).cumsum(axis=1).astype(float) / n_pairs
    rr_x = cum[:g, -1]
    rr_y = cum[-1, :g]
    return np.abs(cum[:g, :g] - np.outer(rr_x, rr_y))


def _cumulative_rates_cumsum(counts, n_pairs):
    """Integer cumulative sums over the last two axes: the form the
    ones-matrix products of _cumulative_rates replaced."""
    return counts.cumsum(axis=-2).cumsum(axis=-1).astype(float) / n_pairs


class TestCumulativeRates:
    @pytest.mark.parametrize(
        "shape", [(10, 10), (9, 10), (20, 20), (37, 9, 10), (3, 4, 19, 20), (1, 1)]
    )
    def test_equals_integer_cumsums_bit_for_bit(self, shape):
        # counts up to a full n = 3000 table's 4 498 500 pairs
        rng = np.random.default_rng(sum(shape))
        for high in (3, 1000, 4_498_500 // (shape[-2] * shape[-1])):
            counts = rng.integers(0, high + 1, size=shape)
            n_pairs = int(counts.sum(axis=(-2, -1)).max()) or 1
            got = _cumulative_rates(counts, n_pairs)
            want = _cumulative_rates_cumsum(counts, n_pairs)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def _reference_pair_bins(ax, ay, q):
    """Radius grids and pair bins from full n x n distance matrices: the
    x and y bins of the upper triangle in row-major order, and the y bins
    of every (i, j), diagonal included."""
    n = ax.size
    dx_full = np.abs(ax[:, None] - ax[None, :])
    dy_full = np.abs(ay[:, None] - ay[None, :])
    iu_r, iu_c = np.triu_indices(n, k=1)
    dx, dy = dx_full[iu_r, iu_c], dy_full[iu_r, iu_c]
    gx = ingest._quantiles(dx[dx > 0], q)
    gy = ingest._quantiles(dy[dy > 0], q)
    ix = np.searchsorted(gx, dx_full, side="left")[iu_r, iu_c]
    iy_full = np.searchsorted(gy, dy_full, side="left")
    return gx, gy, ix, iy_full[iu_r, iu_c], iy_full


def _reference_independence_test(x, y, permutations, seed):
    """The permutation test one permutation at a time: the oracle for the
    blocked bincount in independence_test."""
    ax, ay = _aligned_pair(x, y)
    n = ax.size
    q = RADIUS_QUANTILES
    g = q.size
    gbins = g + 1
    n_pairs = n * (n - 1) // 2
    iu_r, iu_c = np.triu_indices(n, k=1)
    gx, gy, ix, iy, iy_full = _reference_pair_bins(ax, ay, q)

    def deviations_for(iy_pairs):
        counts = np.bincount(ix * gbins + iy_pairs, minlength=gbins * gbins)
        return _reference_deviations(counts.reshape(gbins, gbins), n_pairs, g)

    deviations = deviations_for(iy)
    observed = float(deviations.max())
    rng = np.random.default_rng([derive_seed(seed, "recurrence-perm")])
    perms = rng.permuted(np.tile(np.arange(n), (permutations, 1)), axis=1)
    exceed = 0
    for pi in perms:
        if float(deviations_for(iy_full[pi[iu_r], pi[iu_c]]).max()) >= observed:
            exceed += 1
    return IndependenceResult(
        statistic=observed,
        p_value=(1.0 + exceed) / (permutations + 1.0),
        grid=GridDetail(x_radii=gx, y_radii=gy, deviations=deviations),
        permutations=permutations,
        seed=seed,
        n=n,
    )


class TestPairBins:
    @pytest.mark.parametrize("case", ["tied", "gapped"])
    def test_bins_equal_full_matrix_reference(self, case):
        # integer series with heavy ties, and every pair of a gapped
        # network on its common years
        if case == "tied":
            rng = np.random.default_rng(38)
            pairs = [rng.integers(0, k, size=(2, 40)).astype(float) for k in (3, 5, 12)]
        else:
            series = gapped_network(5)
            pairs = [common_years(a, b) for i, a in enumerate(series) for b in series[i + 1 :]]
        q = RADIUS_QUANTILES
        for x, y in pairs:
            iu_r, iu_c = np.triu_indices(x.size, k=1)
            got = _pair_bins(x, y, q, iu_r, iu_c)
            gx, gy, ix, iy, iy_full = _reference_pair_bins(x, y, q)
            want = (gx, gy, ix.astype(np.int32), iy.astype(np.int32), iy_full.astype(np.int32).ravel())
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestIndependenceAgainstPermutationLoop:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("permutations", [99, 129, 999])
    @pytest.mark.parametrize("n", [10, 33, 60])
    def test_matches_reference(self, n, permutations, seed):
        # a block holds 1456, 124 and 37 permutations at n = 10, 33 and 60:
        # all counts fit in one block at n = 10, 129 and 999 span several
        # at n = 33, and every count spans several at n = 60
        rng = np.random.default_rng(100 * seed + n)
        x = rng.random(n)
        if seed == 0:
            y = rng.integers(0, 5, size=n).astype(float)  # heavy ties in y
        else:
            y = x + rng.normal(0.0, 0.5, size=n)
        self._assert_matches(x, y, permutations, seed)

    @staticmethod
    def _assert_matches(x, y, permutations, seed):
        got = independence_test(x, y, permutations=permutations, seed=seed)
        want = _reference_independence_test(x, y, permutations, seed)
        assert got.statistic == want.statistic
        assert got.p_value == want.p_value
        assert got.grid.deviations.tobytes() == want.grid.deviations.tobytes()
        np.testing.assert_array_equal(got.grid.x_radii, want.grid.x_radii)
        np.testing.assert_array_equal(got.grid.y_radii, want.grid.y_radii)

    @pytest.mark.parametrize(
        "n, permutations, ties",
        [
            pytest.param(33, 999, False, id="partial-last-block"),
            pytest.param(400, 99, False, id="one-permutation-per-block"),
            pytest.param(60, 999, True, id="ties-in-both-series"),
        ],
    )
    def test_block_edge_cases(self, n, permutations, ties):
        rng = np.random.default_rng(n + 9)
        if ties:
            x = rng.integers(0, 4, size=n).astype(float)
            y = np.minimum(x + rng.integers(0, 2, size=n), 4.0)
        else:
            x = rng.random(n)
            y = x + rng.normal(0.0, 0.5, size=n)
        self._assert_matches(x, y, permutations, n)

    def test_pairs_at_distance_zero(self):
        # permutations count only the pairs within the top x radius: integer
        # series with three values put most pairs at distance zero, in the
        # first bin, and the rest at a distance that is every radius
        rng = np.random.default_rng(37)
        n = 60
        x = rng.integers(0, 3, size=n).astype(float)
        y = np.where(rng.random(n) < 0.7, x, rng.integers(0, 3, size=n))
        dx = np.abs(x[:, None] - x[None, :])[np.triu_indices(n, k=1)]
        assert (dx == 0).mean() > 0.25
        self._assert_matches(x, y, 999, 4)

    def test_edge_cases_reach_the_block_edges(self):
        # n = 33: 124 permutations per block and 999 = 8 * 124 + 7; n = 400:
        # 79 800 pairs exceed one block, so each block is one permutation
        assert divmod(999, _PERM_BLOCK_PAIRS // (33 * 32 // 2)) == (8, 7)
        assert 400 * 399 // 2 > _PERM_BLOCK_PAIRS

    def test_block_buffers_are_reused(self):
        # every block of a test is computed in the same buffers; allocating
        # fresh temporaries per block peaked near 4.4 MB here
        rng = np.random.default_rng(35)
        x, y = rng.random(60), rng.random(60)
        # a first, small test keeps one-time imports and caches out of the peak
        independence_test(x[:20], y[:20], permutations=99, seed=7)
        tracemalloc.start()
        try:
            independence_test(x, y, permutations=999, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20

    def test_block_buffers_follow_the_rows_used(self):
        # at n = 10 a block may hold 1456 permutations (about 790 KB of
        # buffers), but P = 99 fills 99: buffers of the full block size
        # peaked at 1150 KB
        rng = np.random.default_rng(36)
        x, y = rng.random(10), rng.random(10)
        independence_test(x, y, permutations=99, seed=8)
        tracemalloc.start()
        try:
            independence_test(x, y, permutations=99, seed=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 640 * 2**10

    def test_block_memory_follows_pair_count(self):
        # at n = 1000 one permutation already has 499 500 pairs; blocks sized
        # by rows (128 permutations) would hold several hundred MB
        rng = np.random.default_rng(14)
        x, y = rng.random(1000), rng.random(1000)
        tracemalloc.start()
        try:
            result = independence_test(x, y, permutations=99, seed=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert 0.0 < result.p_value <= 1.0


class TestPairwiseReport:
    def _network(self):
        spec = [(f"st{i:02d}", GevParams(90.0, 20.0, 0.05)) for i in range(6)]
        return synth_dataset(spec, years=33, seed=13)

    def test_one_row_per_other_station(self):
        rows = pairwise_independence_report(self._network(), "st03", permutations=99, seed=3)
        assert [r.other for r in rows] == ["st00", "st01", "st02", "st04", "st05"]
        assert all(r.result is not None for r in rows)
        assert all(r.n_common == 33 for r in rows)

    def test_gapped_pairs_match_per_pair_alignment(self):
        series = gapped_network(4)
        rows = pairwise_independence_report(series, "g2", permutations=99, seed=7)
        assert [r.other for r in rows] == ["g0", "g1", "g3", "g4", "g5"]
        target = series[2]
        for row, other in zip(rows, series[:2] + series[3:]):
            x, y = common_years(target, other)
            assert row.n_common == x.size
            seed = derive_seed(7, "indep", "g2", other.station_id)
            expected = independence_test(x, y, permutations=99, seed=seed)
            assert row.result.statistic == expected.statistic
            assert row.result.p_value == expected.p_value

    @staticmethod
    def _network_failing_in_the_middle():
        # five pairs for target st00; the third, "lonely", shares 8 years
        # with it, too few for a test
        series = synth_dataset(
            [(f"st{i:02d}", GevParams(90.0, 20.0, 0.05)) for i in range(5)], years=33, seed=17
        )
        lonely = AnnualMaximaSeries("lonely", np.arange(2005, 2013), np.linspace(50, 90, 8))
        return series[:3] + [lonely] + series[3:]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_pool_matches_serial_pair_loop(self, monkeypatch, workers):
        monkeypatch.setattr(recurrence_module, "_usable_cpus", lambda: workers)
        series = self._network_failing_in_the_middle()
        rows = pairwise_independence_report(series, "st00", permutations=199, seed=11)
        others = series[1:]
        assert [r.other for r in rows] == [s.station_id for s in others]
        assert rows[2].other == "lonely" and rows[2].result is None
        for row, other in zip(rows, others):
            x, y = common_years(series[0], other)
            seed = derive_seed(11, "indep", "st00", other.station_id)
            assert (row.target, row.n_common) == ("st00", x.size)
            try:
                want = independence_test(x, y, permutations=199, seed=seed)
            except ValueError as exc:
                assert row.result is None and row.error == str(exc)
                continue
            got = row.result
            assert row.error is None
            assert (got.permutations, got.seed, got.n) == (want.permutations, want.seed, want.n)
            assert got.statistic.hex() == want.statistic.hex()
            assert got.p_value.hex() == want.p_value.hex()
            for field in ("x_radii", "y_radii", "deviations"):
                assert getattr(got.grid, field).tobytes() == getattr(want.grid, field).tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_other_errors_in_a_pair_propagate(self, monkeypatch, workers):
        # only ValueError becomes an error row; anything else raised in a
        # pair, on whichever thread, ends the report
        monkeypatch.setattr(recurrence_module, "_usable_cpus", lambda: workers)
        failing_seed = derive_seed(5, "indep", "st00", "st03")

        def independence_test_failing_once(x, y, permutations, seed):
            if seed == failing_seed:
                raise RuntimeError("pair st03 failed")
            return independence_test(x, y, permutations, seed)

        monkeypatch.setattr(recurrence_module, "independence_test", independence_test_failing_once)
        with pytest.raises(RuntimeError, match="pair st03 failed"):
            pairwise_independence_report(
                self._network_failing_in_the_middle(), "st00", permutations=99, seed=5
            )

    @staticmethod
    def _record_pairs(monkeypatch):
        """The (permutations, seed) of every pair the report tests, through
        the module global that the report calls."""
        seen = []

        def independence_test_recording(x, y, permutations, seed):
            seen.append((permutations, seed))
            return independence_test(x, y, permutations, seed)

        monkeypatch.setattr(recurrence_module, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(recurrence_module, "independence_test", independence_test_recording)
        return seen

    def test_pairs_get_the_reports_permutations_and_derived_seeds(self, monkeypatch):
        seen = self._record_pairs(monkeypatch)
        rows = pairwise_independence_report(self._network(), "st02", permutations=129, seed=9)
        others = ["st00", "st01", "st03", "st04", "st05"]
        assert seen == [(129, derive_seed(9, "indep", "st02", o)) for o in others]
        assert [r.result.permutations for r in rows] == [129] * 5
        assert all(r.result.grid.deviations.shape == (9, 9) for r in rows)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"permutations": 10}, "permutations must be at least 99, got 10"),
            ({"seed": -1}, "seed must be nonnegative"),
        ],
        ids=["permutations", "seed"],
    )
    def test_bad_arguments_raise_before_any_pair(self, monkeypatch, kwargs, message):
        # inside a pair a ValueError would become that pair's error row
        seen = self._record_pairs(monkeypatch)
        with pytest.raises(ValueError, match=message):
            pairwise_independence_report(self._network(), "st02", **kwargs)
        assert seen == []

    def test_missing_target_rejected(self):
        with pytest.raises(ValueError, match="nowhere"):
            pairwise_independence_report(self._network(), "nowhere")

    def test_failing_pair_reported_not_fatal(self):
        series = self._network()
        lonely = AnnualMaximaSeries("lonely", np.arange(2005, 2013), np.linspace(50, 90, 8))
        rows = pairwise_independence_report(series + [lonely], "st00", permutations=99, seed=4)
        by_station = {r.other: r for r in rows}
        assert by_station["lonely"].result is None
        assert by_station["lonely"].error is not None
        assert by_station["st01"].result is not None
