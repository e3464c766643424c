"""Clustering tests: brute-force oracles for every distance/partition/score
operation, scipy cross-checks for Ward, exhaustive search for PAM."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import pdist, squareform

import rainmax.cluster as cluster_module
from rainmax.cluster import (
    DistanceMatrix,
    FeatureMatrix,
    Partition,
    _squared_distances,
    _standardize,
    euclidean_dm,
    extremal_coefficient,
    fmadogram_dm,
    pam_cluster,
    pam_cost,
    param_features,
    pseudo_f,
    select_k,
    silhouette,
    singleton_stations,
    ward_cluster,
)
from rainmax.demo import URUGUAY_STATION_PARAMS
from rainmax.estimate import FitResult
from rainmax.gev import GevParams
from rainmax.ingest import AnnualMaximaSeries, synth_dataset

from _reference_ward import ward_merges
from _reference_years import common_years, gapped_network


def _fit(params: GevParams) -> FitResult:
    return FitResult(
        params=params,
        method="mle",
        constraint="free",
        loglik=0.0,
        std_errors=None,
        converged=True,
        iterations=0,
    )


def _features(rows, standardize=False, labels=None):
    x = np.array(rows, dtype=float)
    labels = tuple(f"s{i:02d}" for i in range(len(x))) if labels is None else tuple(labels)
    return FeatureMatrix(labels, _standardize(x) if standardize else x)


class TestParamFeatures:
    def test_two_stations_standardized_to_symmetric_pair(self):
        fits = {"a": _fit(GevParams(80, 20, 0.1)), "b": _fit(GevParams(100, 30, -0.1))}
        feats = param_features(fits, standardize=True)
        np.testing.assert_allclose(feats.values.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.abs(feats.values), 1.0, atol=1e-12)

    def test_reference_rows_keep_printed_order(self):
        fits = {name: _fit(p) for name, p in URUGUAY_STATION_PARAMS}
        feats = param_features(fits, standardize=False)
        assert feats.values.shape == (20, 3)
        printed_mu = [p.mu for _, p in URUGUAY_STATION_PARAMS]
        np.testing.assert_allclose(feats.values[:, 0], printed_mu)

    def test_standardization_idempotent(self):
        fits = {
            f"s{i}": _fit(GevParams(80 + 3 * i, 20 + i, 0.01 * i)) for i in range(6)
        }
        once = param_features(fits, standardize=True)
        twice = _features(once.values, standardize=True, labels=once.labels)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-12)

    def test_zero_variance_column_rejected(self):
        fits = {"a": _fit(GevParams(80, 20, 0.0)), "b": _fit(GevParams(90, 20, 0.0))}
        with pytest.raises(ValueError, match="column\\(s\\): sigma, xi$"):
            param_features(fits, standardize=True)

    def test_raw_rows_name_zero_variance_column(self):
        with pytest.raises(ValueError, match="column\\(s\\): sigma$"):
            _features([(80.0, 20.0, 0.1), (90.0, 20.0, 0.0)], standardize=True)

    def test_unconverged_fit_rejected(self):
        bad = FitResult(GevParams(1, 1, 0), "mle", "free", 0.0, None, False, 10)
        with pytest.raises(ValueError, match="nowhere"):
            param_features({"nowhere": bad}, standardize=False)


class TestEuclidean:
    def test_identical_rows_distance_zero(self):
        feats = _features([(1.0, 2.0, 3.0), (1.0, 2.0, 3.0)])
        assert euclidean_dm(feats).values[0, 1] == 0.0

    def test_three_four_five(self):
        feats = _features([(0.0, 0.0, 0.0), (3.0, 4.0, 0.0)])
        assert euclidean_dm(feats).values[0, 1] == pytest.approx(5.0)

    def test_matches_bruteforce_double_loop(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(10, 3))
        dm = euclidean_dm(_features([tuple(r) for r in rows]))
        for i in range(10):
            for j in range(10):
                expected = math.sqrt(((rows[i] - rows[j]) ** 2).sum())
                assert dm.values[i, j] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("columns", [1, 3, 6])
    def test_bitwise_equal_to_pdist(self, columns):
        rng = np.random.default_rng(columns)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            x = rng.normal(size=(n, columns)) * 10.0 ** rng.uniform(-3, 3)
            feats = FeatureMatrix(tuple(f"s{i}" for i in range(n)), x)
            assert np.array_equal(_squared_distances(x), squareform(pdist(x, "sqeuclidean")))
            assert np.array_equal(euclidean_dm(feats).values, squareform(pdist(x)))


_INF = math.inf


@pytest.mark.parametrize(
    "values, message",
    [
        ([[0, 1], [1, 0]], "distance matrix must be square and match labels"),
        ([[0, _INF, 2], [_INF, 0, 1], [2, 1, 0]], "distances must be finite"),
        ([[0, -1, 2], [-1, 0, 1], [2, 1, 0]], "distances must be nonnegative"),
        ([[0, 1, 2], [1, 1e-300, 1], [2, 1, 0]], "diagonal must be zero"),
        ([[0, 1, 2], [1, 0, 1], [2, 1.5, 0]], "distance matrix must be symmetric"),
    ],
    ids=["shape", "finite", "nonnegative", "diagonal", "symmetric"],
)
def test_distance_matrix_checks(values, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        DistanceMatrix(("a", "b", "c"), np.array(values, dtype=float))


def _series(station, values, years=None):
    values = np.asarray(values, dtype=float)
    years = np.arange(1981, 1981 + len(values)) if years is None else np.asarray(years)
    return AnnualMaximaSeries(station, years, values)


class TestFmadogram:
    def test_identical_series_distance_zero(self):
        base = synth_dataset([("a", GevParams(80, 20, 0.1))], years=30, seed=1)[0]
        twin = _series("b", base.values)
        dm, _ = fmadogram_dm([base, twin], min_overlap=10)
        assert dm.values[0, 1] == 0.0

    def test_increasing_transform_distance_zero(self):
        base = synth_dataset([("a", GevParams(80, 20, 0.1))], years=30, seed=2)[0]
        scaled = _series("b", 2.0 * base.values + 7.0)
        dm, _ = fmadogram_dm([base, scaled], min_overlap=10)
        assert dm.values[0, 1] == 0.0

    def test_independent_series_near_one_sixth(self):
        spec = [("a", GevParams(100, 10, 0.0)), ("b", GevParams(100, 10, 0.0))]
        series = synth_dataset(spec, years=10_000, seed=3)
        dm, _ = fmadogram_dm(series, min_overlap=10)
        assert dm.values[0, 1] == pytest.approx(1.0 / 6.0, abs=0.01)

    def test_entries_below_half(self):
        spec = [(f"s{i}", GevParams(90, 25, 0.05)) for i in range(6)]
        dm, _ = fmadogram_dm(synth_dataset(spec, years=33, seed=4))
        assert np.all(dm.values < 0.5)

    def test_insufficient_overlap_names_pair(self):
        a = _series("alpha", [10.0, 20.0, 30.0], years=[1981, 1982, 1983])
        b = _series("beta", [10.0, 20.0, 30.0], years=[1990, 1991, 1992])
        # a tie in short pairs and in years goes to the later station
        dm, excluded = fmadogram_dm([a, b], min_overlap=3)
        assert excluded == {"beta": {"alpha": 0}}
        assert dm.labels == ("alpha",)

    @pytest.mark.parametrize("min_overlap", [0, 1])
    def test_min_overlap_below_two_rejected(self, min_overlap):
        # one common year ranks both stations 1/2, a distance of 0 that
        # reads as comonotone; no common year leaves an empty mean
        a = _series("alpha", [10.0, 20.0, 30.0], years=[1981, 1982, 1983])
        b = _series("beta", [30.0, 20.0, 10.0], years=[1983, 1984, 1985])
        with pytest.raises(ValueError, match="min_overlap must be at least 2, got"):
            fmadogram_dm([a, b], min_overlap=min_overlap)
        _, excluded = fmadogram_dm([a, b], min_overlap=2)
        assert excluded == {"beta": {"alpha": 1}}

    def test_every_short_pair_named_in_the_exclusions(self):
        full = [_series(f"full{i}", np.arange(1.0, 31.0) * (i + 1)) for i in range(2)]
        short_a = _series("shortA", np.arange(1.0, 9.0), years=np.arange(1981, 1989))
        short_b = _series("shortB", np.arange(1.0, 6.0), years=np.arange(2006, 2011))
        dm, excluded = fmadogram_dm([full[0], short_a, full[1], short_b], min_overlap=10)
        # shortA and shortB are in 3 short pairs each, and shortB has fewer
        # years; every short pair is named once, under the station left out
        assert list(excluded) == ["shortB", "shortA"]
        assert excluded == {
            "shortB": {"full0": 5, "shortA": 0, "full1": 5},
            "shortA": {"full0": 8, "full1": 8},
        }
        assert dm.labels == ("full0", "full1")

    @pytest.mark.parametrize("seed", range(3))
    def test_gapped_series_match_per_pair_alignment(self, seed):
        from scipy.stats import rankdata

        series = gapped_network(seed)
        dm, _ = fmadogram_dm(series, min_overlap=10)
        for i, j in itertools.combinations(range(len(series)), 2):
            a, b = common_years(series[i], series[j])
            m = a.size
            fa, fb = rankdata(a) / (m + 1), rankdata(b) / (m + 1)
            assert dm.values[i, j] == 0.5 * float(np.abs(fa - fb).mean())

    def test_full_overlap_ranks_each_station_once(self, monkeypatch):
        calls = []
        average_ranks = cluster_module._average_ranks

        def counting(x):
            calls.append(x.size)
            return average_ranks(x)

        monkeypatch.setattr(cluster_module, "_average_ranks", counting)
        spec = [(f"s{i}", GevParams(90.0, 20.0, 0.05)) for i in range(12)]
        fmadogram_dm(synth_dataset(spec, years=30, seed=25))
        assert calls == [30] * 12

    def test_gapped_pairs_rank_common_years_and_keep_one_array_per_station(
        self, monkeypatch
    ):
        from scipy.stats import rankdata

        calls = []
        average_ranks = cluster_module._average_ranks

        def counting(x):
            calls.append(x.size)
            return average_ranks(x)

        monkeypatch.setattr(cluster_module, "_average_ranks", counting)
        # two stations fill every year the six gapped ones span
        spec = [(f"full{i}", GevParams(90.0, 20.0, 0.05)) for i in range(2)]
        series = gapped_network(4) + synth_dataset(spec, years=55, seed=26)
        dm, _ = fmadogram_dm(series, min_overlap=10)

        own = [s.years.size for s in series]
        own_once, per_pair = set(), []
        for i, j in itertools.combinations(range(len(series)), 2):
            a, b = common_years(series[i], series[j])
            m = a.size
            fa, fb = rankdata(a) / (m + 1), rankdata(b) / (m + 1)
            assert dm.values[i, j] == 0.5 * float(np.abs(fa - fb).mean())
            for k in (i, j):
                if m == own[k]:
                    own_once.add(k)
                else:
                    per_pair.append(m)
        # each gapped station inside a full one, and the two full stations
        # together, reuse the station's own ranks; every other side is
        # ranked over the pair's common years
        assert own_once == set(range(len(series)))
        assert sorted(calls) == sorted([own[k] for k in own_once] + per_pair)

    def test_gapped_network_keeps_no_ranks_per_pair(self):
        # 60 stations missing a random quarter of 80 years: nearly every
        # pair has its own common years, and ranks kept per (station, year
        # set) peaked at 2.6 MB here against 0.2 MB for one pair at a time
        rng = np.random.default_rng(27)
        spec = [(f"g{i}", GevParams(90.0, 20.0, 0.05)) for i in range(60)]
        series = []
        for s in synth_dataset(spec, years=80, seed=27):
            keep = rng.random(80) >= 0.25
            series.append(AnnualMaximaSeries(s.station_id, s.years[keep], s.values[keep]))
        fmadogram_dm(series[:5])  # one-time imports and caches stay out of the peak
        tracemalloc.start()
        try:
            fmadogram_dm(series)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 2**10

    def test_no_stations(self):
        assert fmadogram_dm([])[0].values.shape == (0, 0)

    def test_average_ranks_match_scipy_on_ties(self):
        from scipy.stats import rankdata

        from rainmax.cluster import _average_ranks

        rng = np.random.default_rng(24)
        for trial in range(200):
            m = int(rng.integers(1, 60))
            if trial % 2:
                x = rng.integers(0, int(rng.integers(1, 8)), size=m).astype(float)
            else:
                x = rng.random(m)
            assert _average_ranks(x).tobytes() == rankdata(x, method="average").tobytes()
        assert np.isnan(_average_ranks(np.array([2.0, np.nan, 1.0]))).all()

    def test_invariant_under_random_monotone_maps(self):
        rng = np.random.default_rng(9)
        spec = [("a", GevParams(85, 20, 0.0)), ("b", GevParams(95, 30, 0.1))]
        series = synth_dataset(spec, years=33, seed=5)
        base = fmadogram_dm(series, min_overlap=10)[0].values[0, 1]
        for _ in range(50):
            a, b = rng.uniform(0.2, 3.0, size=2)
            mapped = [
                _series("a", a * np.exp(b * series[0].values / series[0].values.max())),
                _series("b", series[1].values ** 1.7 + 5.0),
            ]
            assert fmadogram_dm(mapped, min_overlap=10)[0].values[0, 1] == pytest.approx(
                base, abs=1e-15
            )


def _span(station, first, last):
    years = np.arange(first, last + 1)
    return AnnualMaximaSeries(station, years, np.linspace(10.0, 50.0, years.size))


class TestFmadogramExcludingShort:
    def test_most_short_pairs_first_then_later_station(self):
        # C and D (9 years each) are in 3 short pairs, B (12 years) in 2
        series = [
            _span("A", 1981, 2010),
            _span("B", 1981, 1992),
            _span("C", 2002, 2010),
            _span("D", 2002, 2010),
        ]
        dm, excluded = fmadogram_dm(series, min_overlap=10)
        assert list(excluded) == ["D", "C"]
        assert excluded == {"D": {"A": 9, "B": 0, "C": 9}, "C": {"A": 9, "B": 0}}
        assert dm.labels == ("A", "B")

    def test_tie_goes_to_fewer_years(self):
        # every station is in 2 short pairs; B and C have 8 years, A 30
        series = [_span("A", 1981, 2010), _span("B", 1981, 1988), _span("C", 2003, 2010)]
        dm, excluded = fmadogram_dm(series, min_overlap=10)
        assert excluded == {"C": {"A": 8, "B": 0}, "B": {"A": 8}}
        assert list(excluded) == ["C", "B"]
        assert dm.labels == ("A",)

    def test_nothing_to_exclude(self):
        dm, excluded = fmadogram_dm([_span("A", 1981, 1990)] * 2, min_overlap=10)
        assert excluded == {} and dm.labels == ("A", "A")
        dm, excluded = fmadogram_dm([], min_overlap=10)
        assert excluded == {} and dm.values.shape == (0, 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_aligns_once_and_matches_fmadogram_dm_on_kept_stations(self, seed, monkeypatch):
        short = [_span("S1", 1950, 1957), _span("S2", 2100, 2111)]
        series = [*gapped_network(seed), *short]
        calls = []
        aligned = cluster_module.year_matrix

        def counting(stations):
            calls.append(len(stations))
            return aligned(stations)

        monkeypatch.setattr(cluster_module, "year_matrix", counting)
        dm, excluded = fmadogram_dm(series, min_overlap=10)
        assert calls == [len(series)]
        assert set(excluded) == {"S1", "S2"}
        kept = [s for s in series if s.station_id not in excluded]
        ref, ref_excluded = fmadogram_dm(kept, min_overlap=10)
        assert ref_excluded == {}
        assert dm.labels == ref.labels
        assert dm.values.tobytes() == ref.values.tobytes()


class TestExtremalCoefficient:
    def test_complete_dependence(self):
        assert extremal_coefficient(0.0).theta == 1.0

    def test_independence_value(self):
        coef = extremal_coefficient(1.0 / 6.0)
        assert coef.raw == pytest.approx(2.0, abs=1e-12)
        assert coef.theta == pytest.approx(2.0, abs=1e-12)

    def test_intermediate_value(self):
        assert extremal_coefficient(0.1).raw == pytest.approx(1.5, abs=1e-12)

    def test_clipping_preserves_raw(self):
        coef = extremal_coefficient(0.3)
        assert coef.theta == 2.0
        assert coef.raw == pytest.approx(1.6 / 0.4)

    def test_domain(self):
        with pytest.raises(ValueError):
            extremal_coefficient(0.5)
        with pytest.raises(ValueError):
            extremal_coefficient(-0.01)


def _ward_objective(points: np.ndarray, groups) -> float:
    total = 0.0
    for group in groups:
        sub = points[list(group)]
        total += ((sub - sub.mean(axis=0)) ** 2).sum()
    return total


class TestWard:
    def test_two_tight_pairs_cut_matches_bruteforce(self):
        pts = np.array([[0.0], [0.1], [10.0], [10.1]])
        feats = _features([(p[0], 0.0, 0.0) for p in pts])
        part = ward_cluster(feats).cut(2)
        got = frozenset(
            frozenset(i for i, lab in enumerate(feats.labels) if part.assignment[lab] == c)
            for c in (1, 2)
        )
        # brute force: minimize total within-group SSE over all 2-partitions
        pts3 = feats.values
        best, best_groups = math.inf, None
        for mask in range(1, 2**4 - 1, 2):  # fix point 0 in group A to halve the search
            a = [i for i in range(4) if (mask >> i) & 1]
            b = [i for i in range(4) if not (mask >> i) & 1]
            if not b:
                continue
            obj = _ward_objective(pts3, [a, b])
            if obj < best:
                best, best_groups = obj, frozenset({frozenset(a), frozenset(b)})
        assert got == best_groups

    def test_cut_n_gives_singletons(self):
        feats = _features([(float(i), 0.0, 0.0) for i in range(5)])
        part = ward_cluster(feats).cut(5)
        assert sorted(part.assignment.values()) == [1, 2, 3, 4, 5]
        assert part.mean_silhouette == 0.0  # singleton convention

    def test_merge_heights_nondecreasing(self):
        rng = np.random.default_rng(12)
        feats = _features([tuple(r) for r in rng.normal(size=(12, 3))])
        heights = [h for _, _, h in ward_cluster(feats).merges]
        assert all(a <= b + 1e-12 for a, b in zip(heights, heights[1:]))

    def test_matches_scipy_linkage(self):
        rng = np.random.default_rng(13)
        rows = rng.normal(size=(9, 3))
        feats = _features([tuple(r) for r in rows])
        dend = ward_cluster(feats)
        ref = linkage(rows, method="ward")
        np.testing.assert_allclose([h for *_, h in dend.merges], ref[:, 2] ** 2, rtol=1e-9)
        for k in (2, 3, 4):
            mine = np.array([dend.cut(k).assignment[lab] for lab in feats.labels])
            theirs = fcluster(ref, k, criterion="maxclust")
            # same partition up to label permutation
            assert len({(a, b) for a, b in zip(mine, theirs)}) == k

    def test_merges_bitwise_equal_to_scalar_loop(self):
        # small integer features tie many distances and merge heights
        rng = np.random.default_rng(15)
        for trial in range(200):
            n = int(rng.integers(2, 30))
            x = rng.integers(0, 2 + trial % 4, size=(n, 1 + trial % 4)).astype(float)
            feats = FeatureMatrix(tuple(f"s{i}" for i in range(n)), x)
            assert ward_cluster(feats).merges == ward_merges(x), trial

    def test_singleton_split_iff_outlier(self):
        rng = np.random.default_rng(14)
        packed = rng.normal(0, 0.5, size=(19, 3))
        outlier_rows = np.vstack([packed, [40.0, 40.0, 40.0]])
        part = ward_cluster(_features([tuple(r) for r in outlier_rows])).cut(2)
        assert len(singleton_stations(part)) == 1
        balanced = np.vstack(
            [rng.normal(0, 0.5, size=(10, 3)), rng.normal(8, 0.5, size=(10, 3))]
        )
        part2 = ward_cluster(_features([tuple(r) for r in balanced])).cut(2)
        assert singleton_stations(part2) == []


def _random_dm(rng, n):
    m = rng.random((n, n)) * 10
    d = (m + m.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(tuple(f"s{i:02d}" for i in range(n)), d)


def _exhaustive_pam_cost(dm, k):
    best = math.inf
    for medoids in itertools.combinations(range(dm.n), k):
        best = min(best, dm.values[:, list(medoids)].min(axis=1).sum())
    return best


class TestPam:
    def test_two_tight_pairs(self):
        feats = _features([(0.0, 0, 0), (0.1, 0, 0), (10.0, 0, 0), (10.1, 0, 0)])
        dm = euclidean_dm(feats)
        part = pam_cluster(dm, 2)
        sides = {part.assignment["s00"], part.assignment["s01"]}, {
            part.assignment["s02"],
            part.assignment["s03"],
        }
        assert len(sides[0]) == 1 and len(sides[1]) == 1 and sides[0] != sides[1]
        assert pam_cost(dm, part) == pytest.approx(_exhaustive_pam_cost(dm, 2))

    def test_k_equals_n_zero_cost(self):
        rng = np.random.default_rng(15)
        dm = _random_dm(rng, 6)
        part = pam_cluster(dm, 6)
        assert pam_cost(dm, part) == 0.0
        assert set(part.medoids) == set(dm.labels)

    def test_k_out_of_range(self):
        dm = _random_dm(np.random.default_rng(16), 5)
        with pytest.raises(ValueError):
            pam_cluster(dm, 6)
        with pytest.raises(ValueError):
            pam_cluster(dm, 0)

    @pytest.mark.parametrize("trial", range(15))
    def test_matches_exhaustive_search_small_instances(self, trial):
        rng = np.random.default_rng(100 + trial)
        n = int(rng.integers(4, 9))
        k = int(rng.integers(2, 4))
        dm = _random_dm(rng, n)
        part = pam_cluster(dm, k)
        assert pam_cost(dm, part) == pytest.approx(_exhaustive_pam_cost(dm, k))

    def test_deterministic(self):
        dm = _random_dm(np.random.default_rng(17), 8)
        a = pam_cluster(dm, 3)
        b = pam_cluster(dm, 3)
        assert a.assignment == b.assignment and a.medoids == b.medoids


def _reference_swap(d, medoids, current, exchanges):
    """One PAM swap pass, one scalar cost per candidate."""
    best = None
    others = [h for h in range(d.shape[0]) if h not in medoids]
    for removed in itertools.combinations(sorted(medoids), exchanges):
        for added in itertools.combinations(others, exchanges):
            trial = sorted(set(medoids).difference(removed).union(added))
            c = float(d[:, trial].min(axis=1).sum())
            if c < current - 1e-12 and (best is None or c < best[0] - 1e-12):
                best = (c, trial)
    return best


def _reference_pam(dm, k):
    """The scalar PAM loop, one BUILD gain or swap cost per candidate: the
    oracle for pam_cluster's gain and cost arrays. Returns the partition
    and the number of accepted double exchanges."""
    n = dm.n
    d = dm.values
    medoids = [int(np.lexsort((np.arange(n), d.sum(axis=1)))[0])]
    while len(medoids) < k:
        nearest = d[:, medoids].min(axis=1)
        best_gain, best_c = -np.inf, -1
        for c in range(n):
            if c in medoids:
                continue
            gain = float(np.maximum(nearest - d[:, c], 0.0).sum())
            if gain > best_gain:
                best_gain, best_c = gain, c
        medoids.append(best_c)

    def cost_of(meds):
        return float(d[:, meds].min(axis=1).sum())

    current = cost_of(medoids)
    doubles = 0
    while True:
        move = _reference_swap(d, medoids, current, 1)
        if move is None and k >= 2 and n - k >= 2:
            move = _reference_swap(d, medoids, current, 2)
            doubles += move is not None
        if move is None:
            break
        current, medoids = move

    medoids = sorted(medoids)
    nearest_idx = d[:, medoids].argmin(axis=1)
    partition = Partition(
        k=k,
        assignment={dm.labels[i]: int(nearest_idx[i]) + 1 for i in range(n)},
        medoids=tuple(dm.labels[m] for m in medoids),
    )
    if k >= 2:
        partition.mean_silhouette = silhouette(dm, partition).mean
    return partition, doubles


def _oracle_instance(seed, n, integer_valued):
    rng = np.random.default_rng(seed)
    m = rng.integers(0, 4, size=(n, n)).astype(float) if integer_valued else rng.random((n, n)) * 10
    d = m + m.T
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(tuple(f"s{i:02d}" for i in range(n)), d)


def _assert_same_partition(got, want):
    assert got.medoids == want.medoids
    assert got.assignment == want.assignment
    assert got.mean_silhouette == want.mean_silhouette


class TestPamAgainstScalarLoop:
    @pytest.mark.parametrize("integer_valued", [False, True], ids=["float", "ties"])
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_reference(self, seed, integer_valued):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(8, 31))
        k = int(rng.integers(2, 8))
        dm = _oracle_instance(400 + seed, n, integer_valued)
        _assert_same_partition(pam_cluster(dm, k), _reference_pam(dm, k)[0])

    def test_matches_reference_through_double_exchange(self):
        dm = _oracle_instance(1, 12, integer_valued=False)
        want, doubles = _reference_pam(dm, 3)
        assert doubles >= 1  # single swaps strand here; a double exchange moves on
        _assert_same_partition(pam_cluster(dm, 3), want)

    @pytest.mark.parametrize("budget", [1, 50, 1 << 20])
    def test_each_swap_pass_matches_reference(self, monkeypatch, budget):
        # one pass from many medoid sets, so a different accepted candidate
        # shows even where descent would reach the same end; small budgets
        # split the candidates into blocks of one to a few
        monkeypatch.setattr(cluster_module, "_PAM_BLOCK_ELEMENTS", budget)
        rng = np.random.default_rng(600)
        for trial in range(40):
            n = int(rng.integers(6, 16))
            dm = _oracle_instance(700 + trial, n, integer_valued=trial % 2 == 1)
            d = dm.values
            k = int(rng.integers(1, n - 1))
            medoids = sorted(rng.choice(n, size=k, replace=False).tolist())
            current = float(d[:, medoids].min(axis=1).sum()) + float(rng.choice([0.0, 1.0, 3.0]))
            columns = np.ascontiguousarray(d.T)
            for exchanges in (1, 2):
                if exchanges > min(k, n - k):
                    continue
                got = cluster_module._best_swap(columns, list(medoids), current, exchanges)
                assert got == _reference_swap(d, medoids, current, exchanges)

    def test_large_instance_spans_several_blocks(self):
        n, k = 130, 3
        dm = _oracle_instance(6, n, integer_valued=False)
        d = dm.values
        double_candidates = math.comb(k, 2) * math.comb(n - k, 2)
        assert double_candidates * 2 * n > 4 * cluster_module._PAM_BLOCK_ELEMENTS
        # a double-exchange pass from a poor start, whose best candidate
        # lies past the first block, then a whole run
        medoids = [0, 1, 2]
        current = float(d[:, medoids].min(axis=1).sum())
        got = cluster_module._best_swap(np.ascontiguousarray(d.T), medoids, current, 2)
        assert got == _reference_swap(d, medoids, current, 2)
        _assert_same_partition(pam_cluster(dm, k), _reference_pam(dm, k)[0])


def _costed_doubles(monkeypatch):
    """Counts the double-exchange candidates given an exact cost, and checks
    that every cost temporary stays within the block budget."""
    counted = [0]
    swap_costs = cluster_module._swap_costs

    def counting(near, added):
        limit = max(cluster_module._PAM_BLOCK_ELEMENTS, added.shape[1] * added.shape[2])
        assert added.size <= limit
        if added.shape[1] == 2:
            counted[0] += added.shape[0]
        return swap_costs(near, added)

    monkeypatch.setattr(cluster_module, "_swap_costs", counting)
    return counted


def _double_costs_and_bounds(d, medoids):
    """Each double exchange's cost, as the scalar loop computes it, and its
    lower bound A(c1) + A(c2) - S in the float operations _best_swap uses,
    in combinations order."""
    columns = np.ascontiguousarray(d.T)
    others = [h for h in range(d.shape[0]) if h not in medoids]
    for removed in itertools.combinations(sorted(medoids), 2):
        kept = sorted(set(medoids).difference(removed))
        near = columns[kept].min(axis=0)
        singles = {c: np.minimum(near, columns[c]).sum() for c in others}
        for added in itertools.combinations(others, 2):
            trial = sorted(set(kept).union(added))
            bound = singles[added[0]] + singles[added[1]] - near.sum()
            yield float(d[:, trial].min(axis=1).sum()), float(bound)


def _current_with_threshold(threshold):
    """A current cost whose threshold, current - 1e-12, is exactly
    ``threshold``, or None."""
    up = down = threshold + 1e-12
    for _ in range(256):
        for current in (up, down):
            if current - 1e-12 == threshold:
                return float(current)
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
    return None


class TestDoubleExchangeBound:
    """The lower bound only skips double exchanges that could not be taken:
    every pass matches the scalar loop, at each block budget."""

    budgets = pytest.mark.parametrize("budget", [1, 50, 1 << 20])

    @budgets
    def test_no_medoid_left_prunes_nothing(self, monkeypatch, budget):
        # k = 2: removing both medoids leaves near = inf, so every bound is -inf
        monkeypatch.setattr(cluster_module, "_PAM_BLOCK_ELEMENTS", budget)
        counted = _costed_doubles(monkeypatch)
        for trial in range(6):
            n = 7 + trial
            d = _oracle_instance(800 + trial, n, integer_valued=trial % 2 == 1).values
            medoids = [trial % n, (trial + 3) % n]
            current = float(d[:, medoids].min(axis=1).sum())
            counted[0] = 0
            got = cluster_module._best_swap(np.ascontiguousarray(d.T), medoids, current, 2)
            assert got == _reference_swap(d, medoids, current, 2)
            assert counted[0] == math.comb(n - 2, 2)

    @budgets
    def test_two_non_medoids(self, monkeypatch, budget):
        monkeypatch.setattr(cluster_module, "_PAM_BLOCK_ELEMENTS", budget)
        rng = np.random.default_rng(810)
        for trial in range(8):
            n = int(rng.integers(5, 10))
            d = _oracle_instance(820 + trial, n, integer_valued=trial % 2 == 1).values
            medoids = sorted(rng.choice(n, size=n - 2, replace=False).tolist())
            current = float(d[:, medoids].min(axis=1).sum()) + float(rng.choice([0.0, 2.0]))
            got = cluster_module._best_swap(np.ascontiguousarray(d.T), medoids, current, 2)
            assert got == _reference_swap(d, medoids, current, 2)

    @budgets
    def test_bound_equal_to_the_threshold(self, monkeypatch, budget):
        # integer distances: bounds and costs are exact, and the threshold is
        # the lowest cost among the candidates whose bound is tight
        monkeypatch.setattr(cluster_module, "_PAM_BLOCK_ELEMENTS", budget)
        rng = np.random.default_rng(830)
        checked = 0
        for trial in range(24):
            n = int(rng.integers(7, 12))
            d = _oracle_instance(840 + trial, n, integer_valued=True).values
            medoids = sorted(rng.choice(n, size=int(rng.integers(3, 6)), replace=False).tolist())
            tight = [cost for cost, bound in _double_costs_and_bounds(d, medoids) if cost == bound]
            if not tight:
                continue
            current = _current_with_threshold(min(tight))
            assert current is not None
            checked += 1
            got = cluster_module._best_swap(np.ascontiguousarray(d.T), medoids, current, 2)
            assert got == _reference_swap(d, medoids, current, 2)
        assert checked >= 12

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_rounding_within_the_margin(self, monkeypatch, scale):
        # instances whose cheapest double exchange has a computed bound above
        # its computed cost, with the threshold between the two: only the
        # bound's float-error margin keeps that candidate from being pruned
        rng = np.random.default_rng(850)
        checked = 0
        for trial in range(120):
            n = int(rng.integers(7, 13))
            d = _oracle_instance(860 + trial, n, integer_valued=False).values * scale
            medoids = sorted(rng.choice(n, size=int(rng.integers(3, 6)), replace=False).tolist())
            pairs = list(_double_costs_and_bounds(d, medoids))
            cheapest = min(cost for cost, _ in pairs)
            if not any(cost == cheapest and bound > cost for cost, bound in pairs):
                continue
            current = _current_with_threshold(float(np.nextafter(cheapest, np.inf)))
            if current is None:
                continue
            checked += 1
            for budget in (1, 50, 1 << 20):
                monkeypatch.setattr(cluster_module, "_PAM_BLOCK_ELEMENTS", budget)
                got = cluster_module._best_swap(np.ascontiguousarray(d.T), medoids, current, 2)
                assert got == _reference_swap(d, medoids, current, 2)
            if checked == 4:
                break
        assert checked == 4

    @budgets
    def test_most_doubles_go_uncosted(self, monkeypatch, budget):
        # 60 stations in 4 groups of 3 features, as the parameter clustering
        # sees them: the bound leaves fewer than a quarter of the double
        # exchanges to be costed, and the partition is the scalar loop's
        monkeypatch.setattr(cluster_module, "_PAM_BLOCK_ELEMENTS", budget)
        counted = _costed_doubles(monkeypatch)
        candidates = [0]
        best_swap = cluster_module._best_swap

        def counting_swap(columns, medoids, current, exchanges):
            if exchanges == 2:
                m = len(medoids)
                candidates[0] += math.comb(m, 2) * math.comb(columns.shape[0] - m, 2)
            return best_swap(columns, medoids, current, exchanges)

        monkeypatch.setattr(cluster_module, "_best_swap", counting_swap)
        rng = np.random.default_rng(870)
        centres = rng.normal(0.0, 3.0, size=(4, 3))
        feats = _features(centres[rng.permutation(np.arange(60) % 4)] + rng.normal(size=(60, 3)))
        dm = euclidean_dm(feats)
        _assert_same_partition(pam_cluster(dm, 7), _reference_pam(dm, 7)[0])
        assert candidates[0] > 0
        assert counted[0] < candidates[0] / 4


def _silhouette_bruteforce(dm, assignment_by_index):
    n = dm.n
    values = []
    for i in range(n):
        mine = assignment_by_index[i]
        own = [j for j in range(n) if assignment_by_index[j] == mine and j != i]
        if not own:
            values.append(0.0)
            continue
        a = np.mean([dm.values[i, j] for j in own])
        b = min(
            np.mean([dm.values[i, j] for j in range(n) if assignment_by_index[j] == other])
            for other in set(assignment_by_index) - {mine}
        )
        values.append(0.0 if max(a, b) == 0 else (b - a) / max(a, b))
    return values


def _silhouette_loop(dm, partition):
    """The per-station loop that silhouette replaced: the bit-for-bit oracle."""
    labels = dm.labels
    member = partition.labels_for(labels)
    d = dm.values
    values = {}
    for i, label in enumerate(labels):
        own = np.flatnonzero(member == member[i])
        if own.size == 1:
            values[label] = 0.0
            continue
        a = float(d[i, own[own != i]].mean())
        b = math.inf
        for other in sorted(set(member.tolist()) - {member[i]}):
            b = min(b, float(d[i, member == other].mean()))
        denom = max(a, b)
        values[label] = 0.0 if denom == 0 else (b - a) / denom
    return values, float(np.mean(list(values.values())))


class TestSilhouette:
    def test_well_separated_tight_clusters(self):
        rows = [(0.0, 0, 0), (0.1, 0, 0), (0.05, 0, 0), (10.0, 0, 0), (10.1, 0, 0), (10.07, 0, 0)]
        dm = euclidean_dm(_features(rows))
        part = pam_cluster(dm, 2)
        assert part.mean_silhouette > 0.9

    def test_singleton_scores_zero(self):
        rows = [(0.0, 0, 0), (0.2, 0, 0), (0.1, 0, 0), (50.0, 0, 0)]
        dm = euclidean_dm(_features(rows))
        part = pam_cluster(dm, 2)
        single = singleton_stations(part)[0]
        assert silhouette(dm, part).per_station[single] == 0.0

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(18)
        for _ in range(5):
            dm = _random_dm(rng, 8)
            part = pam_cluster(dm, 3)
            mine = silhouette(dm, part)
            by_index = [part.assignment[lab] for lab in dm.labels]
            expected = _silhouette_bruteforce(dm, by_index)
            np.testing.assert_allclose(
                [mine.per_station[lab] for lab in dm.labels], expected, atol=1e-12
            )
            assert all(-1.0 <= v <= 1.0 for v in expected)

    @pytest.mark.parametrize("n", [9, 23, 60])
    @pytest.mark.parametrize("k", range(2, 8))
    def test_equals_per_station_loop_bit_for_bit(self, n, k):
        # random partitions (some clusters singletons, labels not 1..k) and
        # PAM partitions, on a random matrix and on one with tied and zero
        # distances
        rng = np.random.default_rng(100 * n + k)
        tied = _random_dm(rng, n).values.round(0)
        for values in (_random_dm(rng, n).values, tied * (tied > 3)):
            dm = DistanceMatrix(tuple(f"s{i:02d}" for i in range(n)), values)
            labels = rng.integers(0, k, size=n) * 3 + 5
            labels[rng.choice(n, size=min(k, n // 3), replace=False)] = 100 + np.arange(min(k, n // 3))
            parts = [Partition(k=k, assignment=dict(zip(dm.labels, labels.tolist()))), pam_cluster(dm, k)]
            for part in parts:
                got = silhouette(dm, part)
                want_values, want_mean = _silhouette_loop(dm, part)
                assert list(got.per_station) == list(want_values)
                for label, v in want_values.items():
                    assert got.per_station[label].hex() == v.hex()
                assert got.mean.hex() == want_mean.hex()
            assert any(v == 0.0 for v in silhouette(dm, parts[0]).per_station.values())

    def test_requires_two_clusters(self):
        dm = _random_dm(np.random.default_rng(19), 5)
        part = pam_cluster(dm, 1)
        with pytest.raises(ValueError):
            silhouette(dm, part)

    def test_structured_beats_random_partition(self):
        rows = [(float(i // 5) * 8 + 0.05 * i, 0, 0) for i in range(10)]
        dm = euclidean_dm(_features(rows))
        structured = pam_cluster(dm, 2)
        shuffled = dict(zip(dm.labels, [1, 2] * 5))
        from rainmax.cluster import Partition

        random_part = Partition(k=2, assignment=shuffled)
        assert structured.mean_silhouette >= silhouette(dm, random_part).mean


class TestPseudoF:
    def test_duplicate_groups_hit_infinity(self):
        rows = [(1.0, 2.0, 3.0)] * 3 + [(5.0, 6.0, 7.0)] * 3
        feats = _features(rows)
        part = pam_cluster(euclidean_dm(feats), 2)
        assert pseudo_f(feats, part) == math.inf

    def test_matches_direct_sums(self):
        rng = np.random.default_rng(20)
        rows = rng.normal(size=(9, 3))
        feats = _features([tuple(r) for r in rows])
        part = pam_cluster(euclidean_dm(feats), 2)
        member = np.array([part.assignment[lab] for lab in feats.labels])
        grand = rows.mean(axis=0)
        sst = ((rows - grand) ** 2).sum()
        ssb = sum(
            (member == c).sum() * ((rows[member == c].mean(axis=0) - grand) ** 2).sum()
            for c in (1, 2)
        )
        r2 = ssb / sst
        expected = (r2 / 1.0) / ((1.0 - r2) / (9 - 2))
        assert pseudo_f(feats, part) == pytest.approx(expected, rel=1e-12)

    def test_cluster_id_relabeling_invariance(self):
        from rainmax.cluster import Partition

        rng = np.random.default_rng(21)
        feats = _features([tuple(r) for r in rng.normal(size=(8, 3))])
        part = pam_cluster(euclidean_dm(feats), 3)
        swapped = Partition(
            k=3,
            assignment={lab: {1: 2, 2: 1, 3: 3}[c] for lab, c in part.assignment.items()},
        )
        assert pseudo_f(feats, part) == pytest.approx(pseudo_f(feats, swapped), rel=1e-12)

    def test_domain_errors(self):
        from rainmax.cluster import Partition

        feats = _features([(float(i), 0, 0) for i in range(4)])
        with pytest.raises(ValueError):
            pseudo_f(feats, Partition(k=4, assignment={f"s{i:02d}": i + 1 for i in range(4)}))
        with pytest.raises(ValueError):
            pseudo_f(feats, Partition(k=1, assignment={f"s{i:02d}": 1 for i in range(4)}))


class TestSelectK:
    def test_recovers_two_planted_clusters(self):
        rng = np.random.default_rng(22)
        rows = np.vstack(
            [rng.normal(0, 0.3, size=(8, 3)), rng.normal(6, 0.3, size=(8, 3))]
        )
        feats = _features([tuple(r) for r in rows])
        result = select_k(euclidean_dm(feats), kmax=5)
        assert result.chosen_k == 2

    def test_kmax_one_rejected(self):
        feats = _features([(float(i), 0, 0) for i in range(6)])
        with pytest.raises(ValueError):
            select_k(euclidean_dm(feats), kmax=1)

    @pytest.mark.parametrize("n", [1, 2])
    def test_fewer_than_three_stations_named(self, n):
        # K = 2..kmax needs kmax <= n - 1, an empty range below 3 stations
        dm = DistanceMatrix(tuple(f"s{i}" for i in range(n)), np.ones((n, n)) - np.eye(n))
        with pytest.raises(ValueError) as err:
            select_k(dm)
        assert str(err.value) == f"choosing K needs at least 3 stations, got {n}"

    def test_equidistant_matrix_flat_scores_tie_to_smallest_k(self):
        n = 6
        d = np.ones((n, n)) - np.eye(n)
        dm = DistanceMatrix(tuple(f"s{i:02d}" for i in range(n)), d)
        result = select_k(dm, kmax=4)
        assert result.chosen_k == 2
        assert all(v == pytest.approx(0.0, abs=1e-12) for v in result.scores.values())
