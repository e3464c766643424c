"""Data series behind the four standard fit-diagnostic plots.

Everything is emitted as (x, y) pairs so any plotting tool can render the
probability-probability, quantile-quantile, density and return-level
panels. Plotting positions are i/(n+1) throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gev import GevParams, gev_cdf, gev_pdf, gev_quantile, return_level
from .ingest import _quantiles

PLOT_KINDS = (
    "pp",
    "qq",
    "density_empirical",
    "density_model",
    "return_points",
    "return_curve",
    "return_gumbel_line",
)

_GRID_POINTS = 512
_RETURN_GRID = np.geomspace(1.1, 1000.0, 200)


@dataclass(frozen=True)
class PlotSeries:
    kind: str
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in PLOT_KINDS:
            raise ValueError(f"kind must be one of {PLOT_KINDS}, got {self.kind!r}")
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have equal length")


def _plotting_positions(n: int) -> np.ndarray:
    return np.arange(1, n + 1) / (n + 1)


def pp_points(data: object, params: GevParams) -> PlotSeries:
    """Empirical vs fitted cumulative probabilities at the order statistics."""
    x = np.sort(np.asarray(data, dtype=float).ravel())
    if x.size == 0:
        raise ValueError("data must be nonempty")
    return PlotSeries("pp", _plotting_positions(x.size), np.asarray(gev_cdf(x, params)))


def qq_points(data: object, params: GevParams) -> PlotSeries:
    """Fitted quantiles against the order statistics."""
    x = np.sort(np.asarray(data, dtype=float).ravel())
    if x.size == 0:
        raise ValueError("data must be nonempty")
    model_q = np.asarray(gev_quantile(_plotting_positions(x.size), params))
    return PlotSeries("qq", model_q, x)


def silverman_bandwidth(data: object) -> float:
    x = np.asarray(data, dtype=float).ravel()
    sd = float(x.std())
    q1, q3 = _quantiles(x, [0.25, 0.75])
    iqr = float(q3 - q1)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    return 0.9 * spread * x.size ** (-0.2)


def density_series(
    data: object,
    params: GevParams,
    bandwidth: float | None = None,
) -> tuple[PlotSeries, PlotSeries]:
    """Gaussian-kernel density estimate of the sample next to the fitted pdf.

    Both are evaluated on a common 512-point grid spanning the data range
    plus three bandwidths on each side.
    """
    x = np.asarray(data, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("data must be nonempty")
    if bandwidth is None:
        bandwidth = silverman_bandwidth(x)
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth!r}")
    grid = np.linspace(x.min() - 3 * bandwidth, x.max() + 3 * bandwidth, _GRID_POINTS)
    z = (grid[:, None] - x[None, :]) / bandwidth
    kde = np.exp(-0.5 * z * z).sum(axis=1) / (x.size * bandwidth * np.sqrt(2.0 * np.pi))
    model = np.asarray(gev_pdf(grid, params))
    return (
        PlotSeries("density_empirical", grid, kde),
        PlotSeries("density_model", grid, model),
    )


def return_level_series(data: object, params: GevParams) -> list[PlotSeries]:
    """Observed maxima on the return-period scale, with the fitted curve.

    Includes a straight reference line from the same location and scale
    with the shape forced to zero: points bending above it indicate a
    heavy (Frechet) tail, below it a bounded (Weibull) tail.
    """
    x = np.sort(np.asarray(data, dtype=float).ravel())
    if x.size == 0:
        raise ValueError("data must be nonempty")
    pp = _plotting_positions(x.size)
    empirical = PlotSeries("return_points", 1.0 / (1.0 - pp), x)
    curve_y = return_level(_RETURN_GRID, params)
    line_y = return_level(_RETURN_GRID, GevParams(params.mu, params.sigma, 0.0))
    return [
        empirical,
        PlotSeries("return_curve", _RETURN_GRID.copy(), curve_y),
        PlotSeries("return_gumbel_line", _RETURN_GRID.copy(), line_y),
    ]


def station_diagnostics(
    data: object,
    params: GevParams,
    bandwidth: float | None = None,
) -> list[PlotSeries]:
    """All diagnostic series for one station in a fixed order."""
    kde, model = density_series(data, params, bandwidth)
    return [pp_points(data, params), qq_points(data, params), kde, model] + return_level_series(
        data, params
    )
