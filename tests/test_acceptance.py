"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The real station records are not distributable, so every criterion is
property-based (simulation with known truth, exhaustive oracles) plus
pipeline-shape checks on the bundled synthetic dataset.
Run with ``pytest tests/test_acceptance.py -rA`` to see the lines.
"""

import itertools
import math
import shutil
import time

import numpy as np
import pytest
from scipy.stats import chi2

from rainmax.cli import main
from rainmax.cluster import (
    DistanceMatrix,
    euclidean_dm,
    extremal_coefficient,
    fmadogram_dm,
    pam_cluster,
    pam_cost,
    param_features,
    select_k,
)
from rainmax.estimate import FitError, fit_mle, fit_pwm, profile_ci_xi
from rainmax.gev import GevParams, gev_sample
from rainmax.gof import lrt_gumbel_vs_gev, tcvm_test
from rainmax.ingest import AnnualMaximaSeries, synth_dataset
from rainmax.recurrence import independence_test
from rainmax.seeding import derive_rng, derive_seed


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_estimator_recovery():
    start = time.perf_counter()
    truth = GevParams(80.0, 25.0, 0.0)
    mle_mu, mle_sigma, pwm_mu, pwm_sigma = [], [], [], []
    for r in range(200):
        x = gev_sample(truth, 2000, seed=derive_seed(1, "recovery", r))
        mle = fit_mle(x, "free").params
        pwm = fit_pwm(x).params
        mle_mu.append(abs(mle.mu - 80.0))
        mle_sigma.append(abs(mle.sigma - 25.0))
        pwm_mu.append(abs(pwm.mu - 80.0))
        pwm_sigma.append(abs(pwm.sigma - 25.0))
    elapsed = time.perf_counter() - start
    medians = {
        "mle_mu": float(np.median(mle_mu)),
        "mle_sigma": float(np.median(mle_sigma)),
        "pwm_mu": float(np.median(pwm_mu)),
        "pwm_sigma": float(np.median(pwm_sigma)),
    }
    ok = all(v < 1.0 for v in medians.values()) and elapsed < 60.0
    _verdict(1, ok, f"median abs errors {medians}, runtime {elapsed:.1f}s (< 60s)")
    assert all(v < 1.0 for v in medians.values())
    assert elapsed < 60.0


def test_criterion_2_profile_ci_coverage():
    start = time.perf_counter()
    truth = GevParams(0.0, 1.0, 0.1)
    covered = failures = 0
    runs = 500
    for r in range(runs):
        x = gev_sample(truth, 100, seed=derive_seed(2, "coverage", r))
        try:
            ci = profile_ci_xi(x, level=0.95)
        except FitError:
            failures += 1
            continue
        covered += ci.contains(0.1)
    elapsed = time.perf_counter() - start
    rate = covered / runs
    ok = 0.91 <= rate <= 0.98 and elapsed < 300.0
    _verdict(
        2,
        ok,
        f"95% profile CI coverage {rate:.3f} in [0.91, 0.98], "
        f"{failures} interval failures, runtime {elapsed:.0f}s (< 300s)",
    )
    assert 0.91 <= rate <= 0.98
    assert elapsed < 300.0


def test_criterion_3_tcvm_size_at_reference_sample_size():
    start = time.perf_counter()
    truth = GevParams(80.0, 25.0, 0.0)
    runs = 1000
    pvals = np.empty(runs)
    for r in range(runs):
        x = gev_sample(truth, 33, seed=derive_seed(3, "null", r))
        pvals[r] = tcvm_test(
            x, "gumbel", delta=0.05, B=499, seed=derive_seed(3, "boot", r)
        ).p_value
    elapsed = time.perf_counter() - start
    rate = float((pvals <= 0.05).mean())
    uniform = {q: float((pvals <= q).mean()) for q in (0.1, 0.5, 0.9)}
    ok = 0.03 <= rate <= 0.07 and elapsed < 900.0
    _verdict(
        3,
        ok,
        f"rejection rate {rate:.3f} in [0.03, 0.07] at n=33, B=499, delta=0.05; "
        f"null p-value CDF at 0.1/0.5/0.9 = {uniform}, runtime {elapsed:.0f}s (< 900s)",
    )
    assert 0.03 <= rate <= 0.07
    # null p-values approximately uniform (bootstrap-with-re-estimation property)
    for q, frac in uniform.items():
        assert abs(frac - q) <= 0.04
    assert elapsed < 900.0


def _binomial_se(rate: float, runs: int) -> float:
    return math.sqrt(rate * (1.0 - rate) / runs)


def test_criterion_4_power_comparison_vs_lrt():
    """tCvM power against a heavy tail, judged next to the size-calibrated LRT.

    The LRT's chi-square(1) reference is asymptotic, so its size at n = 33
    is measured on criterion 3's null samples and its power is also
    reported at the empirical null critical value. Against this in-family
    shape alternative the LRT is asymptotically most powerful, so the
    omnibus tCvM must detect the heavy tail but is not required to match
    the LRT; exceeding the calibrated LRT points to a broken fit or a
    miscalibrated bootstrap.
    """
    start = time.perf_counter()
    alpha = 0.05
    runs = 1000
    null = []
    for r in range(runs):
        x = gev_sample(GevParams(80.0, 25.0, 0.0), 33, seed=derive_seed(3, "null", r))
        null.append(lrt_gumbel_vs_gev(fit_mle(x, "free"), fit_mle(x, "gumbel")))
    null_dev = np.array([res.statistic for res in null])
    lrt_size = float(np.mean([res.p_value <= alpha for res in null]))
    critical = float(np.quantile(null_dev, 1.0 - alpha))

    truth = GevParams(80.0, 25.0, 0.3)
    cvm_rej = lrt_rej = adj_rej = 0
    for r in range(runs):
        x = gev_sample(truth, 33, seed=derive_seed(4, "alt", r))
        p_cvm = tcvm_test(
            x, "gumbel", delta=0.05, B=499, seed=derive_seed(4, "boot", r)
        ).p_value
        lrt = lrt_gumbel_vs_gev(fit_mle(x, "free"), fit_mle(x, "gumbel"))
        cvm_rej += p_cvm <= alpha
        lrt_rej += lrt.p_value <= alpha
        adj_rej += lrt.statistic > critical
    elapsed = time.perf_counter() - start
    cvm_rate, lrt_rate, adj_rate = cvm_rej / runs, lrt_rej / runs, adj_rej / runs
    se_alpha = _binomial_se(alpha, runs)
    se_cvm, se_lrt, se_adj = (_binomial_se(v, runs) for v in (cvm_rate, lrt_rate, adj_rate))
    se_diff = math.hypot(se_cvm, se_adj)  # SE of a difference of two rates

    print(f"power comparison under GEV(80, 25, 0.3), n=33, alpha={alpha}:")
    print("test,rejections,rate,se")
    print(f"truncated_cvm,{cvm_rej},{cvm_rate:.3f},{se_cvm:.3f}")
    print(f"likelihood_ratio,{lrt_rej},{lrt_rate:.3f},{se_lrt:.3f}")
    print(f"likelihood_ratio_size_adjusted,{adj_rej},{adj_rate:.3f},{se_adj:.3f}")
    print(
        f"LRT null size {lrt_size:.3f} (se {se_alpha:.3f} at alpha) over the {runs} "
        f"criterion-3 Gumbel samples; empirical {1 - alpha:.0%} null deviance quantile "
        f"{critical:.2f} vs chi2(1) {chi2.isf(alpha, df=1):.2f}. The tCvM p-value is "
        "bootstrap-calibrated, so its raw rate is already size-adjusted (criterion 3)."
    )
    if cvm_rate < lrt_rate - 0.02:
        print(
            "DISCREPANCY FLAG: truncated CvM rejection rate is below the "
            f"likelihood-ratio rate by {lrt_rate - cvm_rate:.3f} "
            f"({adj_rate - cvm_rate:.3f} after size adjustment); the abstract's claim "
            "that tCvM improves on the LRT does not reproduce against this in-family "
            "alternative at n=33."
        )
    size_ok = abs(lrt_size - alpha) <= 3 * se_alpha
    adjusted_level = float((null_dev > critical).mean())
    detects = cvm_rate > alpha + 3 * se_alpha
    below_lrt = cvm_rate <= adj_rate + 3 * se_diff
    ok = size_ok and adjusted_level <= alpha and detects and below_lrt
    _verdict(
        4,
        ok,
        f"LRT null size {lrt_size:.3f} within {alpha} +- {3 * se_alpha:.3f}; "
        f"tCvM power {cvm_rate:.3f} > {alpha + 3 * se_alpha:.3f} and <= size-adjusted "
        f"LRT power {adj_rate:.3f} + {3 * se_diff:.3f} (raw LRT {lrt_rate:.3f}), "
        f"runtime {elapsed:.0f}s",
    )
    assert size_ok, f"LRT chi2(1) size {lrt_size:.3f} outside {alpha} +- 3 SE"
    assert adjusted_level <= alpha
    assert detects, "tCvM does not detect the heavy tail"
    assert below_lrt, "tCvM beats the size-adjusted LRT: check the free fit and the bootstrap"


def test_criterion_5_fmadogram_calibration():
    start = time.perf_counter()
    base = synth_dataset([("a", GevParams(90, 20, 0.1))], years=40, seed=1)[0]
    twin = AnnualMaximaSeries("b", base.years, base.values.copy())
    dm, excluded = fmadogram_dm([base, twin], min_overlap=10)
    assert excluded == {} and dm.values[0, 1] == 0.0

    params = GevParams(100.0, 10.0, 0.0)
    distances, thetas = [], []
    for seed in range(20):
        pair = synth_dataset([("x", params), ("y", params)], years=10_000, seed=seed)
        dm, excluded = fmadogram_dm(pair, min_overlap=10)
        assert excluded == {}
        nu = float(dm.values[0, 1])
        distances.append(nu)
        thetas.append(extremal_coefficient(nu).raw)
    elapsed = time.perf_counter() - start
    dist_ok = all(abs(d - 1.0 / 6.0) <= 0.01 for d in distances)
    theta_ok = all(abs(t - 2.0) <= 0.05 for t in thetas)
    ok = dist_ok and theta_ok
    _verdict(
        5,
        ok,
        f"comonotone distance exactly 0; independent pairs: distance in "
        f"[{min(distances):.4f}, {max(distances):.4f}] (1/6 +- 0.01), extremal coefficient in "
        f"[{min(thetas):.3f}, {max(thetas):.3f}] (2 +- 0.05) over 20 seeds, runtime {elapsed:.0f}s",
    )
    assert dist_ok and theta_ok


def test_criterion_6_pam_exhaustive_oracle():
    start = time.perf_counter()
    exact = 0
    near_misses = []
    for trial in range(100):
        rng = derive_rng(6, "pam", trial)
        n = int(rng.integers(4, 9))
        k = int(rng.integers(2, min(n, 4)))
        m = rng.random((n, n)) * 10.0
        d = (m + m.T) / 2.0
        np.fill_diagonal(d, 0.0)
        dm = DistanceMatrix(tuple(f"s{i}" for i in range(n)), d)
        cost = pam_cost(dm, pam_cluster(dm, k))
        best = min(
            float(d[:, list(meds)].min(axis=1).sum())
            for meds in itertools.combinations(range(n), k)
        )
        if cost <= best + 1e-9:
            exact += 1
        else:
            near_misses.append((trial, n, k, cost, best, cost / best - 1.0))
            assert cost <= best * 1.01, f"trial {trial}: PAM worse than optimum by > 1%"
    elapsed = time.perf_counter() - start
    for miss in near_misses:
        print(f"PAM near-miss logged: trial={miss[0]} n={miss[1]} K={miss[2]} excess={miss[5]:.4%}")
    ok = exact >= 95
    _verdict(
        6,
        ok,
        f"PAM matched the exhaustive optimum in {exact}/100 instances "
        f"({len(near_misses)} near-misses, all within 1%), runtime {elapsed:.0f}s",
    )
    assert exact >= 95


def test_criterion_7_model_selection_recovery():
    start = time.perf_counter()
    group_a = GevParams(80.0, 20.0, -0.2)
    group_b = GevParams(170.0, 55.0, 0.3)
    spec = [(f"a{i:02d}", group_a) for i in range(10)] + [
        (f"b{i:02d}", group_b) for i in range(10)
    ]
    planted = {sid: sid[0] for sid, _ in spec}
    recovered = 0
    for s in range(100):
        series = synth_dataset(spec, years=33, seed=derive_seed(7, "planted", s))
        fits = {sr.station_id: fit_mle(sr.values, "free") for sr in series}
        features = param_features(fits, standardize=True)
        result = select_k(euclidean_dm(features), kmax=6)
        if result.chosen_k != 2:
            continue
        assignment = result.partitions[2].assignment
        groups = {g: {assignment[sid] for sid, _ in spec if planted[sid] == g} for g in "ab"}
        if all(len(v) == 1 for v in groups.values()) and groups["a"] != groups["b"]:
            recovered += 1

    single = [(f"s{i:02d}", GevParams(85.0, 25.0, 0.05)) for i in range(20)]
    series = synth_dataset(single, years=33, seed=derive_seed(7, "single-pop"))
    dm, excluded = fmadogram_dm(series, min_overlap=10)
    assert excluded == {}
    silhouettes = {k: float(pam_cluster(dm, k).mean_silhouette) for k in range(2, 8)}
    elapsed = time.perf_counter() - start
    flat = all(v < 0.3 for v in silhouettes.values())
    ok = recovered >= 95 and flat
    _verdict(
        7,
        ok,
        f"planted two-group recovery {recovered}/100 (need >= 95); single-population "
        f"F-madogram silhouettes max {max(silhouettes.values()):.3f} < 0.3 for K=2..7, "
        f"runtime {elapsed:.0f}s",
    )
    assert recovered >= 95
    assert flat


def test_criterion_8_independence_level_and_power():
    start = time.perf_counter()
    level_runs = 500
    rejections = 0
    pvals = np.empty(level_runs)
    for r in range(level_runs):
        rng = derive_rng(8, "level", r)
        x, y = rng.random(33), rng.random(33)
        res = independence_test(x, y, permutations=499, seed=derive_seed(8, "perm", r))
        pvals[r] = res.p_value
        rejections += res.p_value <= 0.05
    level = rejections / level_runs

    power_runs = 200
    power_hits = 0
    for r in range(power_runs):
        rng = derive_rng(8, "power", r)
        x = rng.random(33)
        y = x + 0.1 * x.std() * rng.standard_normal(33)
        res = independence_test(x, y, permutations=499, seed=derive_seed(8, "pperm", r))
        power_hits += res.p_value <= 0.05
    power = power_hits / power_runs
    elapsed = time.perf_counter() - start
    uniform = {q: float((pvals <= q).mean()) for q in (0.1, 0.5, 0.9)}
    ok = 0.02 <= level <= 0.08 and power >= 0.90
    _verdict(
        8,
        ok,
        f"level {level:.3f} in [0.02, 0.08] over 500 reps; power {power:.3f} >= 0.90 "
        f"against y = x + 0.1 sd noise; null p CDF {uniform}, runtime {elapsed:.0f}s",
    )
    assert 0.02 <= level <= 0.08
    assert power >= 0.90
    for q, frac in uniform.items():
        assert abs(frac - q) <= 0.06


def test_criterion_9_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "report"
    args = ["report", "--demo", "--out", str(out), "--seed", "29"]
    assert main(args) == 0
    first = {
        str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
    }
    shutil.rmtree(out)
    assert main(args) == 0
    second = {
        str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
    }
    elapsed = time.perf_counter() - start

    identical = first == second
    # summary tables
    params_table = (out / "station_params.csv").read_text().strip().splitlines()
    table1_ok = params_table[0] == "station,mu,sigma,xi,ci_lo,ci_hi" and len(params_table) == 21
    indep_tables = list((out / "independence").glob("*.csv"))
    table2_ok = (
        len(indep_tables) >= 1
        and len(indep_tables[0].read_text().strip().splitlines()) == 20
    )
    # diagnostic plot data for every station, silhouette score tables for both clusterings
    station_dirs = [p for p in (out / "diagnostics").iterdir() if p.is_dir()]
    fig3_ok = len(station_dirs) == 20 and all(
        {(d / f"{kind}.csv").exists() for kind in ("pp", "qq", "density_empirical", "return_curve")}
        == {True}
        for d in station_dirs
    )
    fig5_ok = all(
        len((out / "cluster" / name).read_text().strip().splitlines()) == 7
        for name in ("params_silhouette.csv", "fmadogram_silhouette.csv")
    )
    ok = identical and table1_ok and table2_ok and fig3_ok and fig5_ok and elapsed < 600.0
    _verdict(
        9,
        ok,
        f"two seeded runs byte-identical over {len(first)} files: {identical}; "
        f"parameter table {table1_ok}, independence table {table2_ok}, "
        f"diagnostics {fig3_ok}, score tables {fig5_ok}, runtime {elapsed:.0f}s (< 600s)",
    )
    assert identical
    assert table1_ok and table2_ok and fig3_ok and fig5_ok
    assert elapsed < 600.0
