"""Goodness-of-fit testing for annual maxima.

The workhorse is a Cramer-von Mises statistic integrated over a central
(truncated) band of the fitted distribution, with a parametric bootstrap
that refits the tested family on every replicate. A classical likelihood
ratio test and the sequential family-selection procedure sit alongside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimate import FitError, FitResult, _fit_rows, fit_mle
from .gev import GevParams, _gev_rows_cdf, _one_row, _quantile_sample
from .seeding import derive_rng, derive_seed

FAMILIES = ("gumbel", "frechet", "weibull")

DEFAULT_DELTA = 0.05
DEFAULT_BOOTSTRAP = 999
_MIN_BOOTSTRAP = 99
# Replicates refitted per kernel call: the default B = 999 is one call.
# It bounds the kernel's temporaries: at B = 999 a test's tracemalloc
# peak is 3.4-5.7 MB at n = 33 and 15-24 MB at n = 150.
_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    family: str
    replicates: int
    seed: int | None
    redraws: int = 0  # extra bootstrap draws for rows the row kernel could not settle
    fit: FitResult | None = None  # the tested family's fit of the observed sample


@dataclass(frozen=True)
class FamilyDecision:
    chosen: str
    gumbel_p: float
    second_p: float | None
    alpha: float
    gumbel_fit: FitResult
    fit: FitResult  # the chosen family's fit


def fit_family(data: object, family: str) -> FitResult:
    """Constrained MLE for one of the three named families."""
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    return fit_mle(data, constraint=family)


def _tcvm_rows(
    X: np.ndarray, mu: np.ndarray, sigma: np.ndarray, xi: np.ndarray, delta: float
) -> np.ndarray:
    """``tcvm_statistic`` of every row of X against its own GEV parameters."""
    u = np.sort(_gev_rows_cdf(X, mu, sigma, xi), axis=1)
    n = X.shape[1]
    knots = np.concatenate([np.zeros((X.shape[0], 1)), u, np.ones((X.shape[0], 1))], axis=1)
    a = np.clip(knots[:, :-1], delta, 1.0 - delta)
    b = np.clip(knots[:, 1:], delta, 1.0 - delta)
    c = np.arange(n + 1) / n
    # (c - a)^3 - (c - b)^3 as (b - a)(A^2 + AB + B^2): a cube of a negative
    # base takes numpy's scalar pow path, about 30 times slower than
    # multiplies; an interval clipped to a point (a == b) adds exactly zero
    A = c - a
    B = c - b
    return n * ((b - a) * (A * A + A * B + B * B)).sum(axis=1) / 3.0


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
    return float(_tcvm_rows(x[None, :], *_one_row(params), delta)[0])


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
    distribution accounts for parameter estimation. The test draws from one
    stream, ``derive_rng(seed, "tcvm", family)``: replicate b's sample is
    row b of its ``random((B, n))``, drawn a block at a time, so the first
    B replicates do not depend on B. Replicates are refitted by the row
    kernel and scored by ``_tcvm_rows``, up to ``_BLOCK_ROWS`` rows per
    call, so B <= 1024 is one call of each. The rows of a block that the
    kernel cannot settle draw again together (counted in ``redraws``), the
    t-th redraw of replicate b from a stream of its own,
    ``derive_rng(seed, "tcvm", family, b, t)``, up to 10 draws per
    replicate.
    """
    if B < _MIN_BOOTSTRAP:
        raise ValueError(f"bootstrap count must be at least {_MIN_BOOTSTRAP}, got {B}")
    x = np.asarray(data, dtype=float).ravel()
    n = x.size
    fitted = fit_family(x, family)
    observed = tcvm_statistic(x, fitted.params, delta)

    rng = derive_rng(seed, "tcvm", family)
    boot = np.empty(B)
    redraws = 0
    for start in range(0, B, _BLOCK_ROWS):
        rows = np.arange(start, min(start + _BLOCK_ROWS, B))
        u = rng.random((rows.size, n))
        for draw in range(1, 11):
            samples = _quantile_sample(u, fitted.params)
            mu, sigma, xi, ok, _ = _fit_rows(samples, family)
            boot[rows[ok]] = _tcvm_rows(samples[ok], mu[ok], sigma[ok], xi[ok], delta)
            rows = rows[~ok]
            if not rows.size:
                break
            if draw == 10:
                raise FitError(
                    f"bootstrap replicate {rows[0]} failed to refit {family} after 10 draws"
                )
            redraws += rows.size
            # Python ints: a label's seed hashes its repr, and np.int64(7)'s is not '7'
            u = np.stack(
                [derive_rng(seed, "tcvm", family, b, draw).random(n) for b in rows.tolist()]
            )
    p = (1.0 + float((boot >= observed).sum())) / (B + 1.0)
    return TestResult(
        statistic=observed,
        p_value=p,
        family=family,
        replicates=B,
        seed=seed,
        redraws=redraws,
        fit=fitted,
    )


def lrt_gumbel_vs_gev(free: FitResult, gumbel: FitResult) -> TestResult:
    """Likelihood ratio test of the Gumbel restriction inside the GEV family.

    Takes the free and the Gumbel fit of one sample. The deviance
    2*(free - Gumbel) log likelihood is referred to its asymptotic
    chi-square(1) distribution, so the level is approximate in small
    samples; acceptance criterion 4 measures the size at n = 33 on
    simulated Gumbel samples.
    """
    if (free.constraint, gumbel.constraint) != ("free", "gumbel"):
        raise ValueError(
            f"need a free and a gumbel fit, got {free.constraint!r} and {gumbel.constraint!r}"
        )
    deviance = max(0.0, 2.0 * (free.loglik - gumbel.loglik))
    p = math.erfc(math.sqrt(deviance / 2.0))  # chi-square(1) survival: P(X > d)
    return TestResult(statistic=deviance, p_value=p, family="gumbel", replicates=0, seed=None)


def select_family(
    data: object,
    free: FitResult,
    alpha: float = 0.05,
    delta: float = DEFAULT_DELTA,
    B: int = DEFAULT_BOOTSTRAP,
    seed: int = 0,
) -> FamilyDecision:
    """Sequential family choice: Gumbel first, then the side the free shape picks.

    ``free`` is the free fit of ``data``. Keeps Gumbel when its p-value
    reaches ``alpha``; otherwise tests Frechet for a nonnegative free-fit
    shape and Weibull for a negative one, recording both p-values. The
    decision carries the fits the tests made: the Gumbel fit and the
    chosen family's fit.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    if free.constraint != "free":
        raise ValueError(f"need the free fit, got a {free.constraint!r} fit")
    first = tcvm_test(data, "gumbel", delta=delta, B=B, seed=derive_seed(seed, "stage1"))
    second = None
    if first.p_value < alpha:
        family = "frechet" if free.params.xi >= 0 else "weibull"
        second = tcvm_test(data, family, delta=delta, B=B, seed=derive_seed(seed, "stage2"))
    chosen = first if second is None else second
    return FamilyDecision(
        chosen=chosen.family,
        gumbel_p=first.p_value,
        second_p=None if second is None else second.p_value,
        alpha=alpha,
        gumbel_fit=first.fit,
        fit=chosen.fit,
    )
