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


def station_diagnostics(data: object, params: GevParams) -> list[PlotSeries]:
    """The series of one station's sample, one per kind in ``PLOT_KINDS``
    order.

    PP pairs the plotting positions with the fitted cumulative
    probabilities of the order statistics, QQ the fitted quantiles at those
    positions with the order statistics, and the return points put the
    order statistics on the return-period scale. The density panel is a
    Gaussian-kernel estimate at Silverman's bandwidth next to the fitted
    pdf, both on a common 512-point grid spanning the data range plus three
    bandwidths on each side. The return curve comes with a straight
    reference line from the same location and scale with the shape forced
    to zero: points bending above it indicate a heavy (Frechet) tail, below
    it a bounded (Weibull) tail.
    """
    x = np.asarray(data, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("data must be nonempty")
    # the bandwidth and the kernel sums read the sample in input order:
    # sorted, their last bits differ
    q1, q3 = _quantiles(x, [0.25, 0.75])
    sd, iqr = float(x.std()), float(q3 - q1)
    bandwidth = 0.9 * (min(sd, iqr / 1.34) if iqr > 0 else sd) * x.size ** (-0.2)
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth!r}")
    grid = np.linspace(x.min() - 3 * bandwidth, x.max() + 3 * bandwidth, _GRID_POINTS)
    z = (grid[:, None] - x[None, :]) / bandwidth
    kde = np.exp(-0.5 * z * z).sum(axis=1) / (x.size * bandwidth * np.sqrt(2.0 * np.pi))

    order = np.sort(x)
    positions = np.arange(1, x.size + 1) / (x.size + 1)
    gumbel = GevParams(params.mu, params.sigma, 0.0)
    return [
        PlotSeries("pp", positions, np.asarray(gev_cdf(order, params))),
        PlotSeries("qq", np.asarray(gev_quantile(positions, params)), order),
        PlotSeries("density_empirical", grid, kde),
        PlotSeries("density_model", grid, np.asarray(gev_pdf(grid, params))),
        PlotSeries("return_points", 1.0 / (1.0 - positions), order),
        PlotSeries("return_curve", _RETURN_GRID.copy(), return_level(_RETURN_GRID, params)),
        PlotSeries("return_gumbel_line", _RETURN_GRID.copy(), return_level(_RETURN_GRID, gumbel)),
    ]
