"""Independence testing between two maxima series via recurrence rates.

A pair of time indices "recurs" in a series when the two values fall
within a radius of each other. The test statistic is the largest gap
between joint recurrence rates and the product of the marginal rates over
a grid of quantile-derived radii; the null distribution comes from
permuting one series' time index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .ingest import AnnualMaximaSeries, _quantiles, year_matrix
from .seeding import _map_on_cpus, derive_rng, derive_seed

RADIUS_QUANTILES = np.round(np.arange(0.1, 0.91, 0.1), 10)  # the deciles 0.1 ... 0.9
DEFAULT_PERMUTATIONS = 999
_MIN_PERMUTATIONS = 99
_MIN_SERIES_LENGTH = 10
_MAX_SERIES_LENGTH = 3000  # all n(n-1)/2 pair distances are held in memory
_PERM_BLOCK_PAIRS = 1 << 16  # permuted pair bins gathered per independence-test block


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


def _check_run(permutations: int, seed: int) -> None:
    if permutations < _MIN_PERMUTATIONS:
        raise ValueError(f"permutations must be at least {_MIN_PERMUTATIONS}, got {permutations}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")


def _aligned_pair(x: object, y: object) -> tuple[np.ndarray, np.ndarray]:
    ax, ay = (np.asarray(a, dtype=float).ravel() for a in (x, y))
    for arr in (ax, ay):
        if arr.size < _MIN_SERIES_LENGTH:
            raise ValueError(f"series must have at least {_MIN_SERIES_LENGTH} points")
        if not np.all(np.isfinite(arr)):
            raise ValueError("series must be finite")
    if ax.size != ay.size:
        raise ValueError(f"series lengths differ: {ax.size} vs {ay.size}")
    if ax.size > _MAX_SERIES_LENGTH:
        raise ValueError(f"independence test supports series up to {_MAX_SERIES_LENGTH} points")
    return ax, ay


def _cumulative_rates(counts: np.ndarray, n_pairs: int) -> np.ndarray:
    """Cumulative pair rates of (..., rows, g+1) bin counts: entry (r, s)
    is the share of pairs with x bin <= r and y bin <= s. Leading axes are
    independent tables. The cumulative sums are products with
    lower-triangular ones matrices: every partial sum is an integer count,
    exact in float, so the bits are those of integer cumsums, whatever
    tables are stacked together. The sums along each row of all tables
    are one 2-D product, which numpy runs faster than a stacked one."""
    rows, cols = counts.shape[-2:]
    by_col = counts.reshape(-1, cols).astype(float) @ np.tri(cols).T
    cum = np.tri(rows) @ by_col.reshape(counts.shape)
    cum /= n_pairs
    return cum


def _pair_bins(
    ax: np.ndarray, ay: np.ndarray, q: np.ndarray, iu_r: np.ndarray, iu_c: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Radius grids of two aligned series of length n, the int32 x and y
    bins of the upper-triangle pairs (iu_r[k], iu_c[k]), and the y bins as
    a flat n x n lookup by pair (i, j) in either order. A series' radii are
    the ``q`` quantiles of its nonzero pair distances. A pair's bin is the
    index of the first radius not below its distance, g beyond the top
    radius; the lookup's diagonal, which no permuted pair reads, is 0."""

    def bins(a: np.ndarray, label: str) -> tuple[np.ndarray, np.ndarray]:
        d = np.abs(a[iu_r] - a[iu_c])
        nonzero = d[d > 0]
        if nonzero.size == 0:
            raise ValueError(f"series {label} has fewer than 2 distinct values")
        grid = _quantiles(nonzero, q)
        return grid, np.searchsorted(grid, d, side="left").astype(np.int32)

    (gx, ix), (gy, iy) = bins(ax, "x"), bins(ay, "y")
    lookup = np.zeros((ax.size, ax.size), dtype=np.int32)
    lookup[iu_r, iu_c] = iy
    lookup[iu_c, iu_r] = iy
    return gx, gy, ix, iy, lookup.ravel()


def independence_test(
    x: object, y: object, permutations: int = DEFAULT_PERMUTATIONS, seed: int = 0
) -> IndependenceResult:
    """Permutation test of independence between two aligned series.

    The statistic is T = max |joint rate - product of marginal rates| over
    the radius grid. Radii are the ``RADIUS_QUANTILES`` (deciles) of each
    series' nonzero pairwise distances, so T depends only on ranks and is
    invariant under strictly increasing transforms of either series. The
    p-value refers T to the statistics of ``permutations`` permutations of
    the second series' time index, drawn from ``seed``.

    The pair bins are built once; a permutation only reindexes the second
    series' bins, so the marginal rates are exactly preserved. The
    observed pairing counts every pair in a full (g+1, g+1) table. Its
    marginal rates, and so their product, hold for every permutation, and
    a joint rate at radii (r, s) counts only pairs within the top x radius.
    So a permutation gathers and counts only the pairs with x bin < g, into
    a (g, g+1) table, and its deviations keep the bits a full table gives.

    Blocks are sized by all the pairs, so their buffers hold about
    ``_PERM_BLOCK_PAIRS`` elements or fewer whatever the series length.
    The buffers are allocated once, for the rows of the first block, which
    no later block exceeds, and every block is computed in them.
    """
    _check_run(permutations, seed)
    ax, ay = _aligned_pair(x, y)
    n = ax.size
    g = RADIUS_QUANTILES.size
    gbins = g + 1
    n_pairs = n * (n - 1) // 2

    # int32 halves the pair index every concurrent test holds (36 MB at n = 3000)
    iu_r, iu_c = (i.astype(np.int32) for i in np.triu_indices(n, k=1))
    gx, gy, ix, iy, iy_flat = _pair_bins(ax, ay, RADIUS_QUANTILES, iu_r, iu_c)

    counts = np.bincount(ix * gbins + iy, minlength=gbins * gbins)
    cum = _cumulative_rates(counts.reshape(gbins, gbins), n_pairs)
    product = cum[:g, -1][:, None] * cum[-1, :g][None, :]
    deviations = np.abs(cum[:g, :g] - product)
    observed = float(deviations.max())

    inner = np.flatnonzero(ix < g)
    iu_r, iu_c = iu_r[inner], iu_c[inner]
    table = g * gbins
    rows = min(max(1, _PERM_BLOCK_PAIRS // n_pairs), permutations)
    # pair index, keys, and each row's x bins plus that row's table offset
    # in the block's bincount
    index_buf = np.empty((rows, inner.size), dtype=np.int32)
    key_buf = np.empty((rows, inner.size), dtype=np.int32)
    offsets_buf = ix[inner] * gbins + (np.arange(rows, dtype=np.int32) * table)[:, None]

    rng = derive_rng(seed, "recurrence-perm")
    perms = np.tile(np.arange(n, dtype=np.int32), (permutations, 1))
    rng.permuted(perms, axis=1, out=perms)
    exceed = 0
    for start in range(0, permutations, rows):
        # one table per row of pi: the permuted bins are gathered through one
        # flat pair index and all tables are counted by one offset bincount.
        # Every index is in range by construction; mode="wrap" lets take
        # write straight into out, where mode="raise" would buffer it.
        pi = perms[start : start + rows]
        m = pi.shape[0]
        index, key, offsets = index_buf[:m], key_buf[:m], offsets_buf[:m]
        np.take(pi, iu_r, axis=1, out=index, mode="wrap")
        index *= n
        np.take(pi, iu_c, axis=1, out=key, mode="wrap")
        index += key
        np.take(iy_flat, index, out=key, mode="wrap")
        key += offsets
        joint = np.bincount(key.ravel(), minlength=m * table).reshape(m, g, gbins)
        dev = np.abs(_cumulative_rates(joint, n_pairs)[..., :g] - product)
        exceed += int(np.count_nonzero(dev.max(axis=(1, 2)) >= observed))
    p = (1.0 + exceed) / (permutations + 1.0)

    return IndependenceResult(
        statistic=observed,
        p_value=p,
        grid=GridDetail(x_radii=gx, y_radii=gy, deviations=deviations),
        permutations=permutations,
        seed=seed,
        n=n,
    )


def pairwise_independence_report(
    series: Sequence[AnnualMaximaSeries],
    target: str,
    permutations: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
) -> list[PairReportRow]:
    """Test the target station against every other station on common years.

    ``series`` holds one entry per station; the rows follow its order,
    leaving out the target. The stations are aligned once by
    :func:`~rainmax.ingest.year_matrix`; each pair tests the years that
    both the target's row and the other station's row fill.

    A failing pair is recorded with its error message rather than aborting
    the report. The pairs are tested on a thread pool with one thread per
    CPU the process may use; each pair's seed derives from the station
    ids, so the rows do not depend on the number of threads.
    """
    _check_run(permutations, seed)  # in a pair, a ValueError becomes that pair's error row
    stations = [s.station_id for s in series]
    if target not in stations:
        raise ValueError(f"target station {target!r} not present")
    _, values = year_matrix(series)
    present = ~np.isnan(values)
    t = stations.index(target)

    def test_pair(j: int) -> PairReportRow:
        station = stations[j]
        both = present[t] & present[j]
        xv, yv = values[t, both], values[j, both]
        pair_seed = derive_seed(seed, "indep", target, station)
        try:
            result = independence_test(xv, yv, permutations, pair_seed)
            return PairReportRow(target, station, xv.size, result)
        except ValueError as exc:
            return PairReportRow(target, station, xv.size, None, error=str(exc))

    return _map_on_cpus(test_pair, [j for j in range(len(stations)) if j != t])
