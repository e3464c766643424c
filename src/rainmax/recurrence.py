"""Independence testing between two maxima series via recurrence rates.

A pair of time indices "recurs" in a series when the two values fall
within a radius of each other. The test statistic is the largest gap
between joint recurrence rates and the product of the marginal rates over
a grid of quantile-derived radii; the null distribution comes from
permuting one series' time index.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Mapping, Sequence, TextIO

import numpy as np

from .ingest import AnnualMaximaSeries
from .seeding import derive_seed

DEFAULT_QUANTILES = tuple(np.round(np.arange(0.1, 0.91, 0.1), 10).tolist())
DEFAULT_PERMUTATIONS = 999
_MIN_PERMUTATIONS = 99
_MIN_SERIES_LENGTH = 10
_MAX_SERIES_LENGTH = 3000  # all n(n-1)/2 pair distances are held in memory
_PERM_BLOCK_PAIRS = 1 << 18  # permuted pair bins gathered per independence-test block


@dataclass(frozen=True)
class RecurrenceConfig:
    radius_quantiles: tuple[float, ...] = DEFAULT_QUANTILES
    permutations: int = DEFAULT_PERMUTATIONS
    seed: int = 0

    def __post_init__(self) -> None:
        q = np.asarray(self.radius_quantiles, dtype=float)
        if q.size == 0 or np.any((q <= 0) | (q >= 1)) or np.any(np.diff(q) <= 0):
            raise ValueError("radius quantiles must be strictly increasing inside (0, 1)")
        if self.permutations < _MIN_PERMUTATIONS:
            raise ValueError(f"permutations must be at least {_MIN_PERMUTATIONS}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class GridDetail:
    x_radii: np.ndarray
    y_radii: np.ndarray
    deviations: np.ndarray  # |joint - product| per (r, s) pair


@dataclass(frozen=True)
class IndependenceResult:
    statistic: float
    p_value: float
    grid: GridDetail = field(repr=False)
    permutations: int = 0
    seed: int = 0
    n: int = 0


@dataclass(frozen=True)
class PairReportRow:
    target: str
    other: str
    n_common: int
    result: IndependenceResult | None
    error: str | None = None


def _aligned_pair(x: object, y: object) -> tuple[np.ndarray, np.ndarray]:
    ax = _as_series(x, _MIN_SERIES_LENGTH)
    ay = _as_series(y, _MIN_SERIES_LENGTH)
    if ax.size != ay.size:
        raise ValueError(f"series lengths differ: {ax.size} vs {ay.size}")
    if ax.size > _MAX_SERIES_LENGTH:
        raise ValueError(f"independence test supports series up to {_MAX_SERIES_LENGTH} points")
    return ax, ay


def _as_series(x: object, min_length: int = 2) -> np.ndarray:
    arr = np.asarray(x, dtype=float).ravel()
    if arr.size < min_length:
        raise ValueError(f"series must have at least {min_length} points")
    if not np.all(np.isfinite(arr)):
        raise ValueError("series must be finite")
    return arr


def marginal_rr(x: object, r: float) -> float:
    """Fraction of index pairs whose values lie within ``r`` of each other."""
    arr = _as_series(x)
    if r < 0:
        raise ValueError("radius must be nonnegative")
    d = np.abs(arr[:, None] - arr[None, :])
    iu = np.triu_indices(arr.size, k=1)
    return float((d[iu] <= r).mean())


def joint_rr(x: object, y: object, r: float, s: float) -> float:
    """Fraction of index pairs recurrent in both series simultaneously."""
    ax, ay = _as_series(x), _as_series(y)
    if ax.size != ay.size:
        raise ValueError(f"series lengths differ: {ax.size} vs {ay.size}")
    if r < 0 or s < 0:
        raise ValueError("radii must be nonnegative")
    iu = np.triu_indices(ax.size, k=1)
    dx = np.abs(ax[:, None] - ax[None, :])[iu]
    dy = np.abs(ay[:, None] - ay[None, :])[iu]
    return float(((dx <= r) & (dy <= s)).mean())


def _radius_grid(diffs_sample: np.ndarray, quantiles: np.ndarray, label: str) -> np.ndarray:
    nonzero = diffs_sample[diffs_sample > 0]
    if nonzero.size == 0:
        raise ValueError(f"series {label} has fewer than 2 distinct values")
    return np.quantile(nonzero, quantiles)


def _deviation_table(counts: np.ndarray, n_pairs: int, g: int) -> np.ndarray:
    """|joint rate - product of marginals| from (..., g+1, g+1) bin counts.

    Leading axes are independent tables; each is computed with the same
    float operations as a lone (g+1, g+1) table.
    """
    cum = counts.cumsum(axis=-2).cumsum(axis=-1).astype(float) / n_pairs
    rr_x = cum[..., :g, -1]
    rr_y = cum[..., -1, :g]
    joint = cum[..., :g, :g]
    return np.abs(joint - rr_x[..., :, None] * rr_y[..., None, :])


def independence_statistic(
    x: object, y: object, config: RecurrenceConfig | None = None
) -> tuple[float, GridDetail]:
    """Sup-norm statistic T = max |joint rate - product of marginals|.

    Radii are empirical quantiles of each series' nonzero pairwise
    distances, so T depends only on ranks and is invariant under strictly
    increasing transforms of either series.
    """
    config = config or RecurrenceConfig()
    ax, ay = _aligned_pair(x, y)
    n = ax.size
    q = np.asarray(config.radius_quantiles)
    g = q.size
    n_pairs = n * (n - 1) // 2

    iu = np.triu_indices(n, k=1)
    dx = np.abs(ax[:, None] - ax[None, :])[iu]
    dy = np.abs(ay[:, None] - ay[None, :])[iu]
    gx = _radius_grid(dx, q, "x")
    gy = _radius_grid(dy, q, "y")
    gbins = g + 1
    ix = np.searchsorted(gx, dx, side="left")
    iy = np.searchsorted(gy, dy, side="left")
    counts = np.bincount(ix * gbins + iy, minlength=gbins * gbins).reshape(gbins, gbins)
    deviations = _deviation_table(counts, n_pairs, g)
    detail = GridDetail(x_radii=gx, y_radii=gy, deviations=deviations)
    return float(deviations.max()), detail


def independence_test(
    x: object, y: object, config: RecurrenceConfig | None = None
) -> IndependenceResult:
    """Permutation test of independence between two aligned series.

    The second series' time index is permuted; pairwise-distance bins for
    both series are precomputed once and the permutation only reindexes
    the second series' bins, so the marginal rates are exactly preserved.
    """
    config = config or RecurrenceConfig()
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
    ix_bins = (np.searchsorted(gx, dx_full[iu_r, iu_c], side="left") * gbins).astype(np.int32)
    iy_flat = np.searchsorted(gy, dy_full, side="left").astype(np.int32).ravel()
    del dx_full, dy_full
    iu_r, iu_c = iu_r.astype(np.int32), iu_c.astype(np.int32)
    table = gbins * gbins

    def deviation_tables(pi: np.ndarray) -> np.ndarray:
        # one table per row of pi: the permuted bins are gathered through one
        # flat pair index and all tables are counted by one offset bincount
        keys = iy_flat.take(pi[:, iu_r] * n + pi[:, iu_c])
        keys += ix_bins
        keys += (np.arange(pi.shape[0], dtype=np.int32) * table)[:, None]
        counts = np.bincount(keys.ravel(), minlength=pi.shape[0] * table)
        return _deviation_table(counts.reshape(-1, gbins, gbins), n_pairs, g)

    deviations = deviation_tables(np.arange(n, dtype=np.int32)[None, :])[0]
    observed = float(deviations.max())

    rng = np.random.default_rng([derive_seed(config.seed, "recurrence-perm")])
    perms = rng.permuted(np.tile(np.arange(n), (config.permutations, 1)), axis=1).astype(np.int32)
    # blocks are sized by pairs, so their temporaries stay near
    # _PERM_BLOCK_PAIRS elements whatever the series length
    rows = max(1, _PERM_BLOCK_PAIRS // n_pairs)
    exceed = 0
    for start in range(0, config.permutations, rows):
        dev = deviation_tables(perms[start : start + rows])
        exceed += int(np.count_nonzero(dev.max(axis=(1, 2)) >= observed))
    p = (1.0 + exceed) / (config.permutations + 1.0)

    detail = GridDetail(x_radii=gx, y_radii=gy, deviations=deviations)
    return IndependenceResult(
        statistic=observed,
        p_value=p,
        grid=detail,
        permutations=config.permutations,
        seed=config.seed,
        n=n,
    )


def pairwise_independence_report(
    series: Sequence[AnnualMaximaSeries] | Mapping[str, AnnualMaximaSeries],
    target: str,
    config: RecurrenceConfig | None = None,
) -> list[PairReportRow]:
    """Test the target station against every other station on common years.

    A failing pair is recorded with its error message rather than aborting
    the report.
    """
    config = config or RecurrenceConfig()
    if isinstance(series, Mapping):
        by_station = dict(series)
    else:
        by_station = {s.station_id: s for s in series}
    if target not in by_station:
        raise ValueError(f"target station {target!r} not present")
    target_series = by_station[target]
    target_map = target_series.by_year()

    rows: list[PairReportRow] = []
    for station, other in by_station.items():
        if station == target:
            continue
        other_map = other.by_year()
        years = sorted(set(target_map) & set(other_map))
        xv = np.array([target_map[y] for y in years])
        yv = np.array([other_map[y] for y in years])
        pair_seed = derive_seed(config.seed, "indep", target, station)
        pair_config = RecurrenceConfig(
            radius_quantiles=config.radius_quantiles,
            permutations=config.permutations,
            seed=pair_seed,
        )
        try:
            result = independence_test(xv, yv, pair_config)
            rows.append(PairReportRow(target, station, len(years), result))
        except ValueError as exc:
            rows.append(PairReportRow(target, station, len(years), None, error=str(exc)))
    return rows


def write_pair_report_csv(rows: Sequence[PairReportRow], stream: TextIO) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["target", "other", "statistic", "p_value", "n_common_years"])
    for row in rows:
        if row.result is None:
            writer.writerow([row.target, row.other, "", "", row.n_common])
        else:
            writer.writerow(
                [
                    row.target,
                    row.other,
                    format(row.result.statistic, ".10g"),
                    format(row.result.p_value, ".10g"),
                    row.n_common,
                ]
            )


def pair_report_payload(rows: Sequence[PairReportRow]) -> list[dict]:
    payload = []
    for row in rows:
        entry: dict = {"target": row.target, "other": row.other, "n_common_years": row.n_common}
        if row.result is None:
            entry["error"] = row.error
        else:
            entry.update(
                statistic=row.result.statistic,
                p_value=row.result.p_value,
                permutations=row.result.permutations,
                x_radii=row.result.grid.x_radii.tolist(),
                y_radii=row.result.grid.y_radii.tolist(),
                max_deviation_at=[
                    int(v)
                    for v in np.unravel_index(
                        int(np.argmax(row.result.grid.deviations)),
                        row.result.grid.deviations.shape,
                    )
                ],
            )
        payload.append(entry)
    return payload
