"""Output checks for the benchmark workloads.

Every check reads files the CLI wrote and compares them against a
computation made here, apart from the program (numpy/scipy formulas, the
generator's own arrays), or against a property the method must have. A
check raises CheckError on the first violation it finds.
"""

from __future__ import annotations

import csv
import filecmp
import json
import math
from pathlib import Path

import numpy as np
from scipy.cluster.hierarchy import linkage
from scipy.optimize import minimize
from scipy.spatial.distance import squareform
from scipy.stats import chi2, genextreme, gumbel_r

ALPHA = 0.05
BOOTSTRAP = 999
PERMUTATIONS = 999
CI_LEVEL = 0.95
MIN_OVERLAP = 10
SHAPE_RANGE = (-1.0, 2.0)

LOGLIK_RTOL = 1e-9  # program loglik against scipy's logpdf sum
MAX_SLACK = 1e-4  # program loglik may trail the independent maximum by this much
DEVIANCE_TOL = 5e-4  # profile deviance at a CI endpoint against chi2_1(0.95)
LRT_TOL = 1e-6


class CheckError(AssertionError):
    """An output that disagrees with the independent computation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------- readers


def read_series(path: Path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """station -> (years, values), in file order."""
    rows: dict[str, list[tuple[int, float]]] = {}
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for station, year, value in reader:
            rows.setdefault(station, []).append((int(year), float(value)))
    return {s: (np.array([y for y, _ in r]), np.array([v for _, v in r])) for s, r in rows.items()}


def read_json(path: Path) -> object:
    return json.loads(path.read_text(encoding="utf-8"))


def read_distance_tsv(path: Path) -> tuple[list[str], np.ndarray]:
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh, delimiter="\t"))
    labels = rows[0][1:]
    _require([r[0] for r in rows[1:]] == labels, f"{path.name}: row and column labels differ")
    return labels, np.array([[float(v) for v in r[1:]] for r in rows[1:]])


# ------------------------------------------------ independent GEV likelihood


def _gev_loglik(x: np.ndarray, mu: float, sigma: float, xi: float) -> float:
    """GEV log-likelihood written from the density formula; -inf off support."""
    if sigma <= 0:
        return -math.inf
    z = (x - mu) / sigma
    if abs(xi) < 1e-9:
        return float(-x.size * math.log(sigma) - z.sum() - np.exp(-z).sum())
    t = 1.0 + xi * z
    if np.any(t <= 0):
        return -math.inf
    logt = np.log(t)
    return float(-x.size * math.log(sigma) - (1.0 + 1.0 / xi) * logt.sum() - np.exp(-logt / xi).sum())


def _feasible(x: np.ndarray, mu: float, log_sigma: float, xi: float) -> float:
    for _ in range(100):
        if np.isfinite(_gev_loglik(x, mu, math.exp(log_sigma), xi)):
            return log_sigma
        log_sigma += 0.4
    raise CheckError("no feasible start for the independent fit")


def _nelder_mead(fun, start: np.ndarray) -> tuple[np.ndarray, float]:
    opts = {"xatol": 1e-9, "fatol": 1e-11, "maxiter": 20000, "maxfev": 40000}
    res = minimize(fun, start, method="Nelder-Mead", options=opts)
    res = minimize(fun, res.x, method="Nelder-Mead", options=opts)
    return res.x, float(res.fun)


def independent_max(x: np.ndarray) -> tuple[float, float]:
    """Maximum log-likelihood over shapes in (-1, 2), multistart; returns (loglik, xi)."""
    sigma0 = float(x.std()) * math.sqrt(6.0) / math.pi
    mu0 = float(x.mean()) - 0.5772 * sigma0

    def nll(theta: np.ndarray) -> float:
        if not SHAPE_RANGE[0] < theta[2] < SHAPE_RANGE[1]:
            return math.inf
        return -_gev_loglik(x, theta[0], math.exp(theta[1]), theta[2])

    best = (-math.inf, 0.0)
    for xi0 in (-0.5, -0.1, 0.2, 0.8):
        start = np.array([mu0, _feasible(x, mu0, math.log(sigma0), xi0), xi0])
        theta, fun = _nelder_mead(nll, start)
        if -fun > best[0]:
            best = (-fun, float(theta[2]))
    return best


def profile_loglik(x: np.ndarray, xi: float) -> float:
    """Maximum log-likelihood over (mu, sigma) at a fixed shape."""
    sigma0 = float(x.std()) * math.sqrt(6.0) / math.pi
    best = -math.inf
    for mu0 in (float(x.mean()) - 0.5772 * sigma0, float(np.median(x))):
        start = np.array([mu0, _feasible(x, mu0, math.log(sigma0), xi)])
        _, fun = _nelder_mead(lambda t: -_gev_loglik(x, t[0], math.exp(t[1]), xi), start)
        best = max(best, -fun)
    return best


# ------------------------------------------------------------ fit checks


def check_fit_loglik(series_csv: Path, fits_json: Path) -> None:
    """Reported loglik equals scipy's genextreme.logpdf (c = -xi) summed over the series."""
    series = read_series(series_csv)
    fits = read_json(fits_json)
    _require(set(fits) == set(series), "fits.json stations differ from series.csv")
    for station, row in fits.items():
        x = series[station][1]
        ref = float(genextreme.logpdf(x, -row["xi"], loc=row["mu"], scale=row["sigma"]).sum())
        _require(
            math.isclose(row["loglik"], ref, rel_tol=LOGLIK_RTOL, abs_tol=1e-9),
            f"{station}: loglik {row['loglik']!r} != scipy {ref!r}",
        )


def check_fit_is_maximum(series_csv: Path, fits_json: Path) -> None:
    """Reported loglik is not below an independent maximisation over xi in (-1, 2)."""
    series = read_series(series_csv)
    for station, row in read_json(fits_json).items():
        ll, xi = independent_max(series[station][1])
        _require(
            row["loglik"] >= ll - MAX_SLACK,
            f"{station}: loglik {row['loglik']:.6f} below independent maximum {ll:.6f} (xi={xi:.4f})",
        )


def check_profile_ci(series_csv: Path, fits_json: Path) -> None:
    """ci_lo < xi < ci_hi, and the profile deviance at each endpoint is chi2_1(0.95)."""
    series = read_series(series_csv)
    threshold = float(chi2.ppf(CI_LEVEL, df=1))
    for station, row in read_json(fits_json).items():
        _require(
            row["ci_lo"] < row["xi"] < row["ci_hi"],
            f"{station}: xi {row['xi']!r} outside ({row['ci_lo']!r}, {row['ci_hi']!r})",
        )
        for end in ("ci_lo", "ci_hi"):
            deviance = 2.0 * (row["loglik"] - profile_loglik(series[station][1], row[end]))
            _require(
                abs(deviance - threshold) <= DEVIANCE_TOL,
                f"{station}: deviance {deviance:.6f} at {end}={row[end]!r}, expected {threshold:.6f}",
            )


# ------------------------------------------------------------ gof checks


def check_lrt(series_csv: Path, fits_json: Path, gof_json: Path) -> None:
    """lrt_statistic = 2 (free - Gumbel) loglik with scipy's Gumbel fit; lrt_p its chi2_1 tail."""
    series = read_series(series_csv)
    fits = read_json(fits_json)
    for station, row in read_json(gof_json).items():
        x = series[station][1]
        loc, scale = gumbel_r.fit(x)
        ll_gumbel = float(gumbel_r.logpdf(x, loc, scale).sum())
        expected = max(0.0, 2.0 * (fits[station]["loglik"] - ll_gumbel))
        _require(
            abs(row["lrt_statistic"] - expected) <= LRT_TOL,
            f"{station}: lrt_statistic {row['lrt_statistic']!r} != {expected!r}",
        )
        p = float(chi2.sf(row["lrt_statistic"], df=1))
        _require(
            math.isclose(row["lrt_p"], p, rel_tol=1e-10, abs_tol=1e-15),
            f"{station}: lrt_p {row['lrt_p']!r} != chi2 tail {p!r}",
        )


def _require_resampling_p(p: float, reps: int, what: str) -> None:
    k = p * (reps + 1) - 1.0
    _require(
        abs(k - round(k)) < 1e-6 and 0 <= round(k) <= reps,
        f"{what}: p-value {p!r} is not (1 + k)/({reps} + 1)",
    )


def check_gof_pvalues(gof_json: Path) -> None:
    """Every bootstrap p-value has the form (1 + k)/(B + 1)."""
    for station, row in read_json(gof_json).items():
        _require_resampling_p(row["p_gumbel"], BOOTSTRAP, f"{station} p_gumbel")
        if row["p_second"] is not None:
            _require_resampling_p(row["p_second"], BOOTSTRAP, f"{station} p_second")


def check_indep_pvalues(indep_dir: Path) -> None:
    """Every permutation p-value has the form (1 + k)/(P + 1)."""
    reports = sorted(indep_dir.glob("*.json"))
    _require(bool(reports), f"no independence report in {indep_dir}")
    for report in reports:
        for row in read_json(report):
            _require("error" not in row, f"{report.name}: pair {row['other']} failed: {row.get('error')}")
            _require(
                row["permutations"] == PERMUTATIONS,
                f"{report.name}: permutations {row['permutations']}",
            )
            _require_resampling_p(row["p_value"], PERMUTATIONS, f"{report.name} {row['other']}")


def check_family_rule(fits_json: Path, gof_json: Path) -> None:
    """Gumbel iff p_gumbel >= alpha, else Frechet/Weibull by the sign of the free xi."""
    fits = read_json(fits_json)
    for station, row in read_json(gof_json).items():
        if row["p_gumbel"] >= ALPHA:
            expected = "gumbel"
        else:
            expected = "frechet" if fits[station]["xi"] >= 0 else "weibull"
        _require(row["family"] == expected, f"{station}: family {row['family']!r}, rule gives {expected!r}")
        _require(
            (row["p_second"] is None) == (expected == "gumbel"),
            f"{station}: second-stage p-value {row['p_second']!r} inconsistent with {expected!r}",
        )


# -------------------------------------------------------- cluster checks


def _average_ranks(v: np.ndarray) -> np.ndarray:
    return (v[None, :] < v[:, None]).sum(axis=1) + ((v[None, :] == v[:, None]).sum(axis=1) + 1) / 2.0


def check_fmadogram(series_csv: Path, cluster_dir: Path) -> None:
    """The F-madogram matrix equals one computed here from series.csv, and each
    extremal coefficient equals (1 + 2 nu)/(1 - 2 nu)."""
    series = read_series(series_csv)
    labels, d = read_distance_tsv(cluster_dir / "fmadogram_distance.tsv")
    _require(labels == list(series), "fmadogram_distance.tsv stations differ from series.csv")
    ref = np.zeros_like(d)
    for i, a in enumerate(labels):
        for j in range(i + 1, len(labels)):
            ya, va = series[a]
            yb, vb = series[labels[j]]
            common = np.intersect1d(ya, yb)
            _require(common.size >= MIN_OVERLAP, f"{a}/{labels[j]} share {common.size} years")
            xa = va[np.searchsorted(ya, common)]
            xb = vb[np.searchsorted(yb, common)]
            m = common.size
            nu = 0.5 * float(np.abs(_average_ranks(xa) / (m + 1) - _average_ranks(xb) / (m + 1)).mean())
            ref[i, j] = ref[j, i] = nu
    bad = np.argwhere(~np.isclose(d, ref, rtol=1e-9, atol=1e-12))
    _require(bad.size == 0, f"F-madogram entries differ, first at {bad[:1].tolist()}")

    with (cluster_dir / "fmadogram_extremal.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    _require(len(rows) == len(labels) * (len(labels) - 1) // 2, "fmadogram_extremal.csv row count")
    index = {s: k for k, s in enumerate(labels)}
    for row in rows:
        nu = ref[index[row["station_a"]], index[row["station_b"]]]
        raw = (1.0 + 2.0 * nu) / (1.0 - 2.0 * nu)
        pair = f"{row['station_a']}/{row['station_b']}"
        _require(
            math.isclose(float(row["theta_raw"]), raw, rel_tol=1e-9),
            f"{pair}: theta_raw {row['theta_raw']}",
        )
        _require(
            math.isclose(float(row["theta"]), min(max(raw, 1.0), 2.0), rel_tol=1e-9),
            f"{pair}: theta {row['theta']}",
        )


def check_ward_heights(cluster_dir: Path) -> None:
    """Ward merge heights equal the squared heights of scipy's Ward linkage."""
    _, d = read_distance_tsv(cluster_dir / "params_distance.tsv")
    ref = linkage(squareform(d, checks=False), method="ward")[:, 2] ** 2
    merges = read_json(cluster_dir / "params_dendrogram.json")["merges"]
    heights = np.array([h for _, _, h in merges])
    _require(heights.shape == ref.shape, "dendrogram has the wrong number of merges")
    _require(
        np.allclose(heights, ref, rtol=1e-7, atol=1e-9),
        f"Ward heights differ from scipy, max gap {np.abs(heights - ref).max():.3g}",
    )


def check_pam_nearest(cluster_dir: Path, method: str) -> None:
    """Every PAM assignment, at every K, is to the station's nearest medoid."""
    labels, d = read_distance_tsv(cluster_dir / f"{method}_distance.tsv")
    index = {s: k for k, s in enumerate(labels)}
    for k, part in read_json(cluster_dir / f"{method}_pam.json").items():
        medoids = [index[m] for m in part["medoids"]]
        _require(len(medoids) == int(k), f"{method} K={k}: {len(medoids)} medoids")
        for station, cluster in part["assignments"].items():
            i = index[station]
            _require(
                d[i, medoids[cluster - 1]] <= d[i, medoids].min() + 1e-12,
                f"{method} K={k}: {station} is not assigned to its nearest medoid",
            )


def check_pam_regions(cluster_dir: Path, regions: dict[str, int]) -> None:
    """The F-madogram PAM partition at K = 4 is the planted one up to relabelling."""
    assignment = read_json(cluster_dir / "fmadogram_pam.json")["4"]["assignments"]
    _require(set(assignment) == set(regions), "PAM stations differ from the generated network")
    pairs = {(assignment[s], regions[s]) for s in regions}
    _require(
        len(pairs) == len(set(regions.values())) == len({c for c, _ in pairs}),
        f"K=4 partition does not reproduce the planted regions: {sorted(pairs)}",
    )


def check_within_region_dependent(indep_dir: Path, target: str, regions: dict[str, int]) -> None:
    """Every within-region pair in the independence report has p <= 0.05."""
    rows = read_json(next(indep_dir.glob("*.json")))
    seen = set()
    for row in rows:
        _require(row["target"] == target, f"report target {row['target']!r}, expected {target!r}")
        if regions[row["other"]] == regions[target]:
            p = row.get("p_value", 1.0)
            _require(p <= ALPHA, f"{target}/{row['other']}: p {p!r} > {ALPHA}")
            seen.add(row["other"])
    expected = {s for s, r in regions.items() if r == regions[target] and s != target}
    _require(seen == expected, f"within-region pairs missing from the report: {sorted(expected - seen)}")


# ----------------------------------------------------------- ingest checks


def check_series_truth(series_csv: Path, maxima: dict[str, list[tuple[int, float]]]) -> None:
    """series.csv equals the block maxima the generator computed from its arrays."""
    got = {s: list(zip(y.tolist(), v.tolist())) for s, (y, v) in read_series(series_csv).items()}
    _require(list(got) == list(maxima), "series.csv stations differ from the generator's")
    for station, rows in maxima.items():
        _require(got[station] == rows, f"{station}: annual maxima differ from the generator's")


def check_skip_log_truth(skip_jsonl: Path, skipped: list[tuple[str, int, float]]) -> None:
    """skip_log.jsonl lists exactly the station-years the generator dropped."""
    lines = skip_jsonl.read_text(encoding="utf-8").splitlines()
    got = [(e["station"], e["year"], e["coverage"]) for e in map(json.loads, lines)]
    _require(got == skipped, f"skip log has {len(got)} entries, generator dropped {len(skipped)}")


# ------------------------------------------------------------ determinism


def _config_without_out(path: Path) -> dict:
    cfg = read_json(path)
    cfg.pop("out", None)
    return cfg


def check_same_tree(first: Path, second: Path) -> None:
    """Two --out trees hold the same files, byte for byte, apart from the
    ``out`` path recorded in run_config.json."""
    files_a = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    _require(files_a == files_b, f"{second} holds other files than {first}")
    for rel in files_a:
        if rel.name == "run_config.json":
            same = _config_without_out(first / rel) == _config_without_out(second / rel)
        else:
            same = filecmp.cmp(first / rel, second / rel, shallow=False)
        _require(same, f"{rel} differs between {first} and {second}")
