"""The generalized extreme value family: CDF, PDF, quantiles, sampling.

All evaluations route |shape| < 1e-8 to the Gumbel branch and use
log1p/expm1 forms elsewhere, so values are continuous through shape -> 0.
The CDF and the log-likelihood are row kernels over a (rows, n) sample
matrix, one parameter set per row, which the fitting and testing kernels
call directly; ``gev_cdf`` and ``log_likelihood`` are their one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# |xi| below this evaluates on the Gumbel branch.
XI_EPS = 1e-8


@dataclass(frozen=True)
class GevParams:
    """Location (mm), scale (mm, > 0) and dimensionless shape."""

    mu: float
    sigma: float
    xi: float

    def __post_init__(self) -> None:
        for name in ("mu", "sigma", "xi"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma!r}")


def _as_output(x: object, out: np.ndarray) -> float | np.ndarray:
    return float(out) if np.ndim(x) == 0 else out


def _gev_rows_cdf(X: np.ndarray, mu: np.ndarray, sigma: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Distribution function of every row of X at its own parameters; 0/1
    beyond the finite support endpoint."""
    z = (X - mu[:, None]) / sigma[:, None]
    k = xi[:, None]
    gumbel = np.abs(k) < XI_EPS
    inside = gumbel | (1.0 + k * z > 0)
    k_safe = np.where(gumbel, 1.0, k)
    logt = np.log1p(k_safe * np.where(inside & ~gumbel, z, 0.0))
    with np.errstate(over="ignore"):
        u = np.where(gumbel, np.exp(-np.exp(-z)), np.exp(-np.exp(-logt / k_safe)))
    return np.where(inside, u, np.where(k > 0, 0.0, 1.0))


def _one_row(params: GevParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return np.array([params.mu]), np.array([params.sigma]), np.array([params.xi])


def gev_cdf(x: object, params: GevParams) -> float | np.ndarray:
    """Distribution function; 0/1 beyond the finite support endpoint."""
    xarr = np.asarray(x, dtype=float)
    out = _gev_rows_cdf(xarr.reshape(1, -1), *_one_row(params)).reshape(xarr.shape)
    return _as_output(x, out)


def gev_pdf(x: object, params: GevParams) -> float | np.ndarray:
    """Density in 1/mm; zero outside the support."""
    z = (np.asarray(x, dtype=float) - params.mu) / params.sigma
    xi = params.xi
    log_sigma = np.log(params.sigma)
    if abs(xi) < XI_EPS:
        with np.errstate(over="ignore"):
            out = np.exp(-log_sigma - z - np.exp(-z))
    else:
        inside = 1.0 + xi * z > 0
        w = np.log1p(xi * np.where(inside, z, 0.0)) / xi
        with np.errstate(over="ignore"):
            vals = np.exp(-log_sigma - (1.0 + xi) * w - np.exp(-w))
        out = np.where(inside, vals, 0.0)
    return _as_output(x, out)


def gev_quantile(p: object, params: GevParams) -> float | np.ndarray:
    """Inverse CDF for probabilities strictly inside (0, 1)."""
    parr = np.asarray(p, dtype=float)
    if np.any((parr <= 0.0) | (parr >= 1.0)):
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    loglog = np.log(-np.log(parr))
    xi = params.xi
    if abs(xi) < XI_EPS:
        out = params.mu - params.sigma * loglog
    else:
        out = params.mu + params.sigma * np.expm1(-xi * loglog) / xi
    return _as_output(p, out)


def return_level(period_years: object, params: GevParams) -> float | np.ndarray:
    """Level exceeded once per ``period_years`` years on average: the
    quantile at 1 - 1/T, for a period T > 1 or an array of them."""
    t = np.asarray(period_years, dtype=float)
    if not np.all(t > 1.0):
        raise ValueError("return periods must exceed 1 year")
    return gev_quantile(1.0 - 1.0 / t, params)


def gev_sample(params: GevParams, n: int, seed: int) -> np.ndarray:
    """``n`` inverse-transform draws, reproducible for a given seed."""
    if n < 1:
        raise ValueError(f"sample size must be at least 1, got {n}")
    return _quantile_sample(np.random.default_rng(seed).random(n), params)


def _quantile_sample(u: np.ndarray, params: GevParams) -> np.ndarray:
    """Inverse-transform draws from uniforms ``u``. ``Generator.random`` can
    emit exactly 0.0, which the quantile rejects: it is raised, in place,
    to the least positive double."""
    u[u == 0.0] = np.nextafter(0.0, 1.0)
    return np.asarray(gev_quantile(u, params))


def _gumbel_rows_loglik(X: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Row log-likelihoods of the Gumbel law (xi = 0) at (mu, sigma)."""
    z = (X - mu[:, None]) / sigma[:, None]
    return -X.shape[1] * np.log(sigma) - z.sum(axis=1) - np.exp(-z).sum(axis=1)


def _gev_rows_loglik(X: np.ndarray, mu: np.ndarray, eta: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Row log-likelihoods at (mu, log sigma, xi != 0); -inf off the support."""
    k = xi[:, None]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        z = (X - mu[:, None]) / np.exp(eta)[:, None]
        y = np.log1p(k * z)
        ll = -X.shape[1] * eta - ((1.0 + 1.0 / k) * y + np.exp(-y / k)).sum(axis=1)
    feasible = np.all(k * z > -1.0, axis=1) & np.isfinite(ll)
    return np.where(feasible, ll, -np.inf)


def log_likelihood(params: GevParams, data: object) -> float:
    """Total log density; -inf when any point falls outside the support.

    The one-row case of ``_gumbel_rows_loglik`` for |xi| < XI_EPS and of
    ``_gev_rows_loglik`` at (mu, log sigma, xi) otherwise, the formulas the
    fitting kernel maximizes. The -inf sentinel (rather than an exception)
    lets optimizers traverse infeasible parameter regions. At xi = -1
    exactly the density exp(-t)/sigma (t = 1 + xi z) stays positive on the
    support edge t = 0, so a point there keeps the log-likelihood finite.
    """
    x = np.asarray(data, dtype=float).reshape(1, -1)
    if x.size == 0:
        raise ValueError("data must be nonempty")
    mu, sigma, xi = _one_row(params)
    if abs(params.xi) < XI_EPS:
        ll = _gumbel_rows_loglik(x, mu, sigma)[0]
    elif params.xi == -1.0:
        t = 1.0 - (x - params.mu) / params.sigma
        if np.any(t < 0.0):
            return -np.inf
        ll = -x.size * np.log(params.sigma) - t.sum()
    else:
        ll = _gev_rows_loglik(x, mu, np.log(sigma), xi)[0]
    ll = float(ll)
    return ll if np.isfinite(ll) else -np.inf
