"""Goodness-of-fit testing for annual maxima.

The workhorse is a Cramer-von Mises statistic integrated over a central
(truncated) band of the fitted distribution, with a parametric bootstrap
that refits the tested family on every replicate. A classical likelihood
ratio test and the sequential family-selection procedure sit alongside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from .estimate import FitError, FitResult, _fit_rows, fit_mle
from .gev import XI_EPS, GevParams, gev_quantile
from .seeding import derive_seed

FAMILIES = ("gumbel", "frechet", "weibull")

DEFAULT_DELTA = 0.05
DEFAULT_BOOTSTRAP = 999
_MIN_BOOTSTRAP = 99
_BLOCK_ROWS = 128  # replicates refitted per kernel call; bounds the kernel's temporaries


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    family: str
    replicates: int
    seed: int | None
    fallbacks: int = 0  # bootstrap rows refitted on the scalar path
    redraws: int = 0  # extra bootstrap draws after a failed scalar refit


@dataclass(frozen=True)
class FamilyDecision:
    chosen: str
    gumbel_p: float
    second_p: float | None
    alpha: float


def fit_family(data: object, family: str) -> FitResult:
    """Constrained MLE for one of the three named families."""
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    return fit_mle(data, constraint=family)


def _tcvm_rows(
    X: np.ndarray, mu: np.ndarray, sigma: np.ndarray, xi: np.ndarray, delta: float
) -> np.ndarray:
    """``tcvm_statistic`` of every row of X against its own GEV parameters."""
    z = (X - mu[:, None]) / sigma[:, None]
    k = xi[:, None]
    gumbel = np.abs(k) < XI_EPS
    inside = gumbel | (1.0 + k * z > 0)
    k_safe = np.where(gumbel, 1.0, k)
    logt = np.log1p(k_safe * np.where(inside & ~gumbel, z, 0.0))
    with np.errstate(over="ignore"):
        u = np.where(gumbel, np.exp(-np.exp(-z)), np.exp(-np.exp(-logt / k_safe)))
    u = np.sort(np.where(inside, u, np.where(k > 0, 0.0, 1.0)), axis=1)
    n = X.shape[1]
    knots = np.concatenate([np.zeros((X.shape[0], 1)), u, np.ones((X.shape[0], 1))], axis=1)
    a = np.clip(knots[:, :-1], delta, 1.0 - delta)
    b = np.clip(knots[:, 1:], delta, 1.0 - delta)
    c = np.arange(n + 1) / n
    # intervals clipped to a point (a == b) add exactly zero
    return n * ((c - a) ** 3 - (c - b) ** 3).sum(axis=1) / 3.0


def tcvm_statistic(data: object, params: GevParams, delta: float = DEFAULT_DELTA) -> float:
    """Truncated Cramer-von Mises distance between sample and fitted law.

    Integrates n * (F_n - F)^2 dF over the band where F lies in
    [delta, 1 - delta], evaluated in closed form over the order
    statistics. delta = 0 recovers the classical statistic.
    """
    if not 0.0 <= delta < 0.5:
        raise ValueError("delta must lie in [0, 0.5)")
    x = np.asarray(data, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("data must be nonempty")
    mu, sigma, xi = (np.array([v]) for v in (params.mu, params.sigma, params.xi))
    return float(_tcvm_rows(x[None, :], mu, sigma, xi, delta)[0])


def _to_sample(u: np.ndarray, params: GevParams) -> np.ndarray:
    u[u == 0.0] = np.nextafter(0.0, 1.0)  # rng.random can emit exactly 0.0
    return np.asarray(gev_quantile(u, params))


def tcvm_test(
    data: object,
    family: str,
    delta: float = DEFAULT_DELTA,
    B: int = DEFAULT_BOOTSTRAP,
    seed: int = 0,
) -> TestResult:
    """Parametric-bootstrap p-value for the truncated CvM statistic.

    Fits the family, simulates B samples from the fitted law, refits the
    family on each replicate and recomputes the statistic, so the null
    distribution accounts for parameter estimation. Replicate b draws
    from its own stream ``derive_seed(seed, "tcvm", family, b)``.
    Replicates are refitted by the row kernel, a block of rows per call; a
    row it cannot settle is refitted by ``fit_family`` (counted in
    ``fallbacks``), and a failed refit consumes a fresh draw from the
    row's stream (counted in ``redraws``), up to 10 draws per replicate.
    """
    if B < _MIN_BOOTSTRAP:
        raise ValueError(f"bootstrap count must be at least {_MIN_BOOTSTRAP}, got {B}")
    x = np.asarray(data, dtype=float).ravel()
    n = x.size
    fitted = fit_family(x, family)
    observed = tcvm_statistic(x, fitted.params, delta)

    boot = np.empty(B)
    fallbacks = redraws = 0
    for start in range(0, B, _BLOCK_ROWS):
        block = range(start, min(start + _BLOCK_ROWS, B))
        rngs = [np.random.default_rng([derive_seed(seed, "tcvm", family, b)]) for b in block]
        samples = _to_sample(np.stack([rng.random(n) for rng in rngs]), fitted.params)
        mu, sigma, xi, ok = _fit_rows(samples, family)
        boot[block.start : block.stop][ok] = _tcvm_rows(
            samples[ok], mu[ok], sigma[ok], xi[ok], delta
        )
        for i in np.flatnonzero(~ok):
            fallbacks += 1
            boot[block[i]], extra = _scalar_refit(
                samples[i], rngs[i], family, fitted.params, delta, block[i]
            )
            redraws += extra
    p = (1.0 + float((boot >= observed).sum())) / (B + 1.0)
    return TestResult(
        statistic=observed,
        p_value=p,
        family=family,
        replicates=B,
        seed=seed,
        fallbacks=fallbacks,
        redraws=redraws,
    )


def _scalar_refit(
    sample: np.ndarray,
    rng: np.random.Generator,
    family: str,
    params: GevParams,
    delta: float,
    replicate: int,
) -> tuple[float, int]:
    """Refit one replicate with ``fit_family``; a failed refit draws again
    from the replicate's stream, up to 10 draws in all. Returns the
    statistic and the number of extra draws."""
    for attempt in range(10):
        if attempt:
            sample = _to_sample(rng.random(sample.size), params)
        try:
            refit = fit_family(sample, family)
        except (FitError, ValueError):
            continue
        return tcvm_statistic(sample, refit.params, delta), attempt
    raise FitError(f"bootstrap replicate {replicate} failed to refit {family} after 10 draws")


def lrt_gumbel_vs_gev(data: object) -> TestResult:
    """Likelihood ratio test of the Gumbel restriction inside the GEV family.

    The deviance 2*(free - Gumbel) log likelihood is referred to its
    asymptotic chi-square(1) distribution, so the level is approximate in
    small samples; acceptance criterion 4 measures the size at n = 33 on
    simulated Gumbel samples.
    """
    free = fit_mle(data, "free")
    gumbel = fit_mle(data, "gumbel")
    deviance = max(0.0, 2.0 * (free.loglik - gumbel.loglik))
    p = float(chdtrc(1, deviance))  # chi-square(1) survival function
    return TestResult(statistic=deviance, p_value=p, family="gumbel", replicates=0, seed=None)


def select_family(
    data: object,
    alpha: float = 0.05,
    delta: float = DEFAULT_DELTA,
    B: int = DEFAULT_BOOTSTRAP,
    seed: int = 0,
) -> FamilyDecision:
    """Sequential family choice: Gumbel first, then the side the free shape picks.

    Keeps Gumbel when its p-value reaches ``alpha``; otherwise tests
    Frechet for a nonnegative free-fit shape and Weibull for a negative
    one, recording both p-values.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    first = tcvm_test(data, "gumbel", delta=delta, B=B, seed=derive_seed(seed, "stage1"))
    if first.p_value >= alpha:
        return FamilyDecision(chosen="gumbel", gumbel_p=first.p_value, second_p=None, alpha=alpha)
    xi_hat = fit_mle(data, "free").params.xi
    second_family = "frechet" if xi_hat >= 0 else "weibull"
    second = tcvm_test(data, second_family, delta=delta, B=B, seed=derive_seed(seed, "stage2"))
    return FamilyDecision(
        chosen=second_family,
        gumbel_p=first.p_value,
        second_p=second.p_value,
        alpha=alpha,
    )
