"""Seeded input generators for the benchmark workloads.

Each generator writes the files the CLI reads and returns the ground truth
it built them from (block maxima, dropped station-years, planted regions),
so the output checks compare the program against arrays it never saw.
"""

from __future__ import annotations

import calendar
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr

# daily-fit: 40 stations x 50 years of daily records
DAILY_STATIONS = 40
DAILY_YEARS = 50
DAILY_FIRST_YEAR = 1971
DAILY_RUN_YEARS = 5  # station-years per station holding a missing-day run (a tenth)
DAILY_DROPPED_YEARS = 2  # of those, runs long enough to fail the 0.8 coverage filter
DAILY_LONG_RUN = (90, 200)  # days; coverage at most 275/365 < 0.8
DAILY_SHORT_RUN = (5, 60)  # days; coverage at least 305/365 > 0.8

# network-cluster: 3 networks, each 60 stations x 60 years in 4 planted regions
NETWORKS = 3
NETWORK_STATIONS = 60
NETWORK_YEARS = 60
NETWORK_FIRST_YEAR = 1961
NETWORK_LATENT_RHO = 0.8
# GEV (mu, sigma, xi) per region; stations jitter mu and sigma by up to 5 %
NETWORK_MARGINS = ((60.0, 15.0, -0.10), (80.0, 20.0, 0.0), (100.0, 25.0, 0.10), (120.0, 30.0, 0.20))


@dataclass(frozen=True)
class DailyTruth:
    """Annual maxima and dropped station-years computed from the generated arrays."""

    maxima: dict[str, list[tuple[int, float]]]  # station -> [(year, max_mm)], years ascending
    skipped: list[tuple[str, int, float]]  # (station, year, coverage), station then year order


@dataclass(frozen=True)
class NetworkTruth:
    region: dict[str, int]  # station -> planted region 0..3
    target: str


def write_daily_csv(path: Path, seed: int) -> DailyTruth:
    """Daily ``station,date,precip_mm`` records with missing-day runs.

    Wet days follow a per-station Bernoulli(p) with generalized-Pareto
    amounts (shape 0 to 0.15), rounded to 0.1 mm. In each station, five of
    the fifty years carry one run of missing days (empty precipitation
    field): two runs are long enough to drop the year, three are not, so
    every station keeps 48 years.
    """
    rng = np.random.default_rng([seed, 1])
    days = np.arange(
        np.datetime64(f"{DAILY_FIRST_YEAR}-01-01"),
        np.datetime64(f"{DAILY_FIRST_YEAR + DAILY_YEARS}-01-01"),
    )
    date_text = np.datetime_as_string(days, unit="D").tolist()
    year_of_day = days.astype("datetime64[Y]").astype(int) + 1970
    years = range(DAILY_FIRST_YEAR, DAILY_FIRST_YEAR + DAILY_YEARS)
    year_start = {y: int(np.searchsorted(year_of_day, y)) for y in years}

    maxima: dict[str, list[tuple[int, float]]] = {}
    skipped: list[tuple[str, int, float]] = []
    lines = ["station,date,precip_mm"]
    for s in range(DAILY_STATIONS):
        station = f"D{s + 1:02d}"
        p_wet = rng.uniform(0.25, 0.40)
        shape = rng.uniform(0.0, 0.15)
        scale = rng.uniform(6.0, 12.0)
        wet = rng.random(days.size) < p_wet
        u = rng.random(days.size)
        amount = scale / shape * ((1.0 - u) ** (-shape) - 1.0)
        precip = np.round(np.where(wet, amount, 0.0), 1)
        missing = np.zeros(days.size, dtype=bool)
        run_years = rng.choice(DAILY_YEARS, size=DAILY_RUN_YEARS, replace=False) + DAILY_FIRST_YEAR
        for k, year in enumerate(run_years.tolist()):
            lo, hi = DAILY_LONG_RUN if k < DAILY_DROPPED_YEARS else DAILY_SHORT_RUN
            length = int(rng.integers(lo, hi + 1))
            n_days = 366 if calendar.isleap(year) else 365
            start = year_start[year] + int(rng.integers(0, n_days - length + 1))
            missing[start : start + length] = True

        maxima[station] = []
        for year in years:
            in_year = year_of_day == year
            present = precip[in_year & ~missing]
            coverage = present.size / (366 if calendar.isleap(year) else 365)
            if coverage < 0.8 or present.max(initial=0.0) <= 0.0:
                skipped.append((station, year, coverage))
            else:
                maxima[station].append((year, float(present.max())))

        values = [f"{v:.1f}" for v in precip.tolist()]
        for i in np.flatnonzero(missing).tolist():
            values[i] = ""
        lines.extend(f"{station},{d},{v}" for d, v in zip(date_text, values))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return DailyTruth(maxima=maxima, skipped=skipped)


def write_network_series(path: Path, seed: int, network: int) -> NetworkTruth:
    """Annual maxima ``series.csv`` for 60 stations in 4 planted regions.

    A Gaussian copula with equicorrelation 0.8 inside a region and
    independence across regions, pushed through per-region GEV margins.
    Stations are assigned to regions by a seeded permutation, so station
    order carries no region information. The target of the independence
    report is the first station. ``network`` selects one of several
    independent networks drawn from the same seed.
    """
    rng = np.random.default_rng([seed, 2, network])
    n_regions = len(NETWORK_MARGINS)
    region = rng.permutation(np.arange(NETWORK_STATIONS) % n_regions)
    common = rng.standard_normal((NETWORK_YEARS, n_regions))
    own = rng.standard_normal((NETWORK_YEARS, NETWORK_STATIONS))
    z = np.sqrt(NETWORK_LATENT_RHO) * common[:, region] + np.sqrt(1.0 - NETWORK_LATENT_RHO) * own
    u = ndtr(z)
    margins = np.array(NETWORK_MARGINS)[region]
    jitter = rng.uniform(0.95, 1.05, size=(NETWORK_STATIONS, 2))
    mu = margins[:, 0] * jitter[:, 0]
    sigma = margins[:, 1] * jitter[:, 1]
    xi = margins[:, 2]
    loglog = np.log(-np.log(u))
    safe_xi = np.where(xi == 0.0, 1.0, xi)
    values = np.where(xi == 0.0, mu - sigma * loglog, mu + sigma * np.expm1(-xi * loglog) / safe_xi)
    if not np.all(values > 0):
        raise ValueError("generated maxima must be positive")

    stations = [f"N{s + 1:02d}" for s in range(NETWORK_STATIONS)]
    lines = ["station,year,max_mm"]
    for s, station in enumerate(stations):
        for t in range(NETWORK_YEARS):
            lines.append(f"{station},{NETWORK_FIRST_YEAR + t},{values[t, s]:.2f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return NetworkTruth(region={st: int(r) for st, r in zip(stations, region.tolist())}, target=stations[0])
