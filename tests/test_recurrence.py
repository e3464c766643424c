"""Recurrence-rate tests: brute-force oracles for the rates, factorization
and inequality properties, permutation determinism, report plumbing."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainmax.gev import GevParams
from rainmax.seeding import derive_seed
from rainmax.ingest import AnnualMaximaSeries, synth_dataset
from rainmax.recurrence import (
    GridDetail,
    IndependenceResult,
    RecurrenceConfig,
    _aligned_pair,
    _radius_grid,
    independence_statistic,
    independence_test,
    joint_rr,
    marginal_rr,
    pairwise_independence_report,
    write_pair_report_csv,
)


class TestMarginalRate:
    def test_constant_series_saturates(self):
        assert marginal_rr([5.0] * 8, 0.0) == 1.0

    def test_two_far_points(self):
        assert marginal_rr([0.0, 10.0], 1.0) == 0.0

    def test_max_distance_radius_saturates(self):
        rng = np.random.default_rng(1)
        x = rng.random(25)
        r = float(np.abs(x[:, None] - x[None, :]).max())
        assert marginal_rr(x, r) == 1.0

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            marginal_rr([1.0, 2.0], -0.1)


class TestJointRate:
    def test_perfect_coupling(self):
        rng = np.random.default_rng(2)
        x = rng.random(20)
        assert joint_rr(x, x, 0.2, 0.2) == marginal_rr(x, 0.2)

    def test_constant_series_factorizes(self):
        rng = np.random.default_rng(3)
        y = rng.random(15)
        assert joint_rr([7.0] * 15, y, 0.0, 0.3) == marginal_rr(y, 0.3)

    def test_matches_bruteforce_double_loop(self):
        rng = np.random.default_rng(4)
        x, y = rng.random(20), rng.random(20)
        r, s = 0.25, 0.4
        count = 0
        pairs = 0
        for i in range(20):
            for j in range(i + 1, 20):
                pairs += 1
                count += abs(x[i] - x[j]) <= r and abs(y[i] - y[j]) <= s
        assert joint_rr(x, y, r, s) == count / pairs

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            joint_rr([1.0, 2.0], [1.0, 2.0, 3.0], 0.1, 0.1)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        r=st.floats(0.0, 2.0),
        s=st.floats(0.0, 2.0),
    )
    def test_joint_bounded_by_marginals(self, seed, r, s):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=12), rng.normal(size=12)
        assert joint_rr(x, y, r, s) <= min(marginal_rr(x, r), marginal_rr(y, s)) + 1e-12


class TestIndependenceStatistic:
    def test_near_constant_series_factorizes_to_zero(self):
        # a two-valued, almost constant series: all its recurrence rates are
        # 1 on its quantile grid, so every deviation vanishes
        x = np.array([1.0] * 19 + [2.0] * 2 + [1.0] * 12)
        y = np.random.default_rng(5).random(33)
        t, _ = independence_statistic(x, y)
        assert t == 0.0

    def test_identical_series_strongly_dependent(self):
        x = np.sort(np.random.default_rng(6).random(50))
        t, _ = independence_statistic(x, x.copy())
        assert t >= 0.2

    def test_independent_series_small_statistic_at_scale(self):
        rng = np.random.default_rng(7)
        n = 3000  # the longest series the statistic accepts
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        t, _ = independence_statistic(x, y)
        assert t < 0.02

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            independence_statistic([3.0] * 20, np.arange(20.0))

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            independence_statistic(np.arange(5.0), np.arange(5.0))

    @pytest.mark.parametrize("entry", [independence_statistic, independence_test])
    def test_long_series_rejected_by_both_entry_points(self, entry):
        x = np.arange(3001.0)
        with pytest.raises(ValueError, match="up to 3000 points"):
            entry(x, x[::-1].copy())

    def test_positive_affine_invariance(self):
        rng = np.random.default_rng(8)
        x, y = rng.random(40), rng.random(40)
        base, _ = independence_statistic(x, y)
        moved_x, _ = independence_statistic(5.0 * x + 3.0, y)
        moved_y, _ = independence_statistic(x, 0.25 * y - 7.0)
        assert base == moved_x == moved_y

    def test_grid_detail_shape(self):
        rng = np.random.default_rng(9)
        t, detail = independence_statistic(rng.random(30), rng.random(30))
        assert detail.deviations.shape == (9, 9)
        assert detail.x_radii.shape == (9,)
        assert np.all(np.diff(detail.x_radii) >= 0)
        assert t == detail.deviations.max()


class TestIndependenceTest:
    def test_permutation_count_precondition(self):
        with pytest.raises(ValueError):
            RecurrenceConfig(permutations=10)

    def test_quantile_grid_preconditions(self):
        with pytest.raises(ValueError):
            RecurrenceConfig(radius_quantiles=(0.5, 0.2))
        with pytest.raises(ValueError):
            RecurrenceConfig(radius_quantiles=(0.0, 0.5))

    def test_seeded_reproducibility(self):
        rng = np.random.default_rng(10)
        x, y = rng.random(33), rng.random(33)
        cfg = RecurrenceConfig(permutations=199, seed=4)
        a = independence_test(x, y, cfg)
        b = independence_test(x, y, cfg)
        assert a.statistic == b.statistic and a.p_value == b.p_value

    def test_p_value_formula_grid(self):
        rng = np.random.default_rng(11)
        res = independence_test(rng.random(33), rng.random(33), RecurrenceConfig(permutations=99, seed=1))
        k = res.p_value * (res.permutations + 1)
        assert k == pytest.approx(round(k))

    def test_dependent_pair_rejected(self):
        rng = np.random.default_rng(12)
        x = rng.random(33)
        y = x + 0.05 * x.std() * rng.standard_normal(33)
        res = independence_test(x, y, RecurrenceConfig(permutations=499, seed=2))
        assert res.p_value <= 0.01


def _reference_deviations(counts, n_pairs, g):
    cum = counts.cumsum(axis=0).cumsum(axis=1).astype(float) / n_pairs
    rr_x = cum[:g, -1]
    rr_y = cum[-1, :g]
    return np.abs(cum[:g, :g] - np.outer(rr_x, rr_y))


def _reference_independence_test(x, y, config):
    """The permutation test one permutation at a time: the oracle for the
    blocked bincount in independence_test."""
    ax, ay = _aligned_pair(x, y)
    n = ax.size
    q = np.asarray(config.radius_quantiles)
    g = q.size
    gbins = g + 1
    n_pairs = n * (n - 1) // 2
    dx_full = np.abs(ax[:, None] - ax[None, :])
    dy_full = np.abs(ay[:, None] - ay[None, :])
    iu_r, iu_c = np.triu_indices(n, k=1)
    gx = _radius_grid(dx_full[iu_r, iu_c], q, "x")
    gy = _radius_grid(dy_full[iu_r, iu_c], q, "y")
    ix = np.searchsorted(gx, dx_full, side="left")[iu_r, iu_c]
    iy_full = np.searchsorted(gy, dy_full, side="left")

    def deviations_for(iy_pairs):
        counts = np.bincount(ix * gbins + iy_pairs, minlength=gbins * gbins)
        return _reference_deviations(counts.reshape(gbins, gbins), n_pairs, g)

    deviations = deviations_for(iy_full[iu_r, iu_c])
    observed = float(deviations.max())
    rng = np.random.default_rng([derive_seed(config.seed, "recurrence-perm")])
    perms = rng.permuted(np.tile(np.arange(n), (config.permutations, 1)), axis=1)
    exceed = 0
    for pi in perms:
        if float(deviations_for(iy_full[pi[iu_r], pi[iu_c]]).max()) >= observed:
            exceed += 1
    return IndependenceResult(
        statistic=observed,
        p_value=(1.0 + exceed) / (config.permutations + 1.0),
        grid=GridDetail(x_radii=gx, y_radii=gy, deviations=deviations),
        permutations=config.permutations,
        seed=config.seed,
        n=n,
    )


class TestIndependenceAgainstPermutationLoop:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("permutations", [99, 129, 999])
    @pytest.mark.parametrize("n", [10, 33, 60])
    def test_matches_reference(self, n, permutations, seed):
        # 999 permutations span several blocks at n = 33 and n = 60 (496 and
        # 148 rows per block), 99 and 129 fit in one
        rng = np.random.default_rng(100 * seed + n)
        x = rng.random(n)
        if seed == 0:
            y = rng.integers(0, 5, size=n).astype(float)  # heavy ties in y
        else:
            y = x + rng.normal(0.0, 0.5, size=n)
        config = RecurrenceConfig(permutations=permutations, seed=seed)
        got = independence_test(x, y, config)
        want = _reference_independence_test(x, y, config)
        assert got.statistic == want.statistic
        assert got.p_value == want.p_value
        assert got.grid.deviations.tobytes() == want.grid.deviations.tobytes()
        np.testing.assert_array_equal(got.grid.x_radii, want.grid.x_radii)
        np.testing.assert_array_equal(got.grid.y_radii, want.grid.y_radii)

    def test_block_memory_follows_pair_count(self):
        # at n = 1000 one permutation already has 499 500 pairs; blocks sized
        # by rows (128 permutations) would hold several hundred MB
        rng = np.random.default_rng(14)
        x, y = rng.random(1000), rng.random(1000)
        tracemalloc.start()
        try:
            result = independence_test(x, y, RecurrenceConfig(permutations=99, seed=6))
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
        rows = pairwise_independence_report(
            self._network(), "st03", RecurrenceConfig(permutations=99, seed=3)
        )
        assert [r.other for r in rows] == ["st00", "st01", "st02", "st04", "st05"]
        assert all(r.result is not None for r in rows)
        assert all(r.n_common == 33 for r in rows)

    def test_missing_target_rejected(self):
        with pytest.raises(ValueError, match="nowhere"):
            pairwise_independence_report(self._network(), "nowhere")

    def test_failing_pair_reported_not_fatal(self):
        series = self._network()
        lonely = AnnualMaximaSeries(
            "lonely", np.arange(2005, 2013), np.linspace(50, 90, 8), np.ones(8)
        )
        rows = pairwise_independence_report(
            series + [lonely], "st00", RecurrenceConfig(permutations=99, seed=4)
        )
        by_station = {r.other: r for r in rows}
        assert by_station["lonely"].result is None
        assert by_station["lonely"].error is not None
        assert by_station["st01"].result is not None

    def test_csv_layout(self):
        import io

        rows = pairwise_independence_report(
            self._network()[:3], "st00", RecurrenceConfig(permutations=99, seed=5)
        )
        buf = io.StringIO()
        write_pair_report_csv(rows, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "target,other,statistic,p_value,n_common_years"
        assert len(lines) == 3
