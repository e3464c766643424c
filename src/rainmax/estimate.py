"""GEV parameter estimation: maximum likelihood, probability-weighted moments,
and profile-likelihood confidence intervals for the shape.

Every likelihood maximization over (mu, log sigma, xi) runs through one
safeguarded Newton loop on the rows of a sample matrix, ``_newton_rows``,
with the closed-form score and observed information (Prescott & Walden
1980). With a free shape it gives the sign-constrained fits of the row
kernel ``_fit_rows``, from each row's Gumbel solution. The Gumbel fit,
``_gumbel_rows``, profiles mu out in closed form and solves the remaining
scale equation by Newton on the row less its minimum, so that no location
cancels in it. A row whose constrained supremum lies on the boundary
xi = 0 takes its Gumbel solution. A Weibull row that ends on the support
edge xi = -1 takes that edge's closed form, unless its profile on a grid
of fixed shapes, one batched fixed-shape call, leads to an interior
maximum above it. The free fit is the better of the Frechet and Weibull
solves. ``fit_mle_rows`` fits many samples, one ``_fit_rows`` call per
group of equal length, with standard errors from the same closed-form
observed information; ``fit_mle`` is its one-row case for every
constraint. With the shape fixed the loop solves over (mu, log sigma)
alone: ``_profile_rows`` solves, on plain arrays with a status code per
row, the trial shapes of all the endpoint searches of ``_endpoint_rows``
at once, on both sides of the samples of ``profile_ci_xi_rows``;
``profile_ci_xi`` is its one-row case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .gev import XI_EPS, GevParams, _gev_rows_loglik, _gumbel_rows_loglik, log_likelihood
from .ingest import _sorted_distinct

CONSTRAINTS = ("free", "gumbel", "frechet", "weibull")

_XI_SEARCH_RANGE = (-1.0, 2.0)  # profile CI endpoints must fall inside


class FitError(RuntimeError):
    """Estimation failure."""


@dataclass(frozen=True)
class FitResult:
    params: GevParams
    method: str  # "mle" | "pwm"
    constraint: str  # one of CONSTRAINTS
    loglik: float
    std_errors: tuple[float, float, float] | None
    converged: bool
    iterations: int


@dataclass(frozen=True)
class ProfileInterval:
    lower: float
    upper: float
    level: float

    def __post_init__(self) -> None:
        if not self.lower < self.upper:
            raise ValueError("lower endpoint must be below upper endpoint")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0, 1)")

    def contains(self, xi: float) -> bool:
        return self.lower <= xi <= self.upper


def _validate_sample(data: object, min_distinct: int) -> np.ndarray:
    x = np.asarray(data, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("data must be nonempty")
    if not np.all(np.isfinite(x)):
        raise ValueError("data must be finite")
    if _sorted_distinct(x).size < min_distinct:
        raise ValueError(f"data must contain at least {min_distinct} distinct values")
    return x


def sample_pwms(data: object) -> tuple[float, float, float]:
    """Unbiased sample probability-weighted moments b0, b1, b2."""
    x = np.sort(np.asarray(data, dtype=float).ravel())
    n = x.size
    if n < 3:
        raise ValueError("need at least 3 observations for b2")
    i = np.arange(1, n + 1)
    b0 = x.mean()
    b1 = np.sum((i - 1) / (n - 1) * x) / n
    b2 = np.sum((i - 1) * (i - 2) / ((n - 1) * (n - 2)) * x) / n
    return float(b0), float(b1), float(b2)


def fit_pwm(data: object) -> FitResult:
    """Closed-form GEV estimates from sample PWMs.

    Shape comes from the classical rational approximation in
    c = (2 b1 - b0)/(3 b2 - b0) - ln 2 / ln 3; |shape| under 1e-7 routes to
    the Gumbel special case.
    """
    x = _validate_sample(data, min_distinct=3)
    b0, b1, b2 = sample_pwms(x)
    l2 = 2.0 * b1 - b0
    denom = 3.0 * b2 - b0
    if l2 <= 0 or denom == 0:
        raise FitError("degenerate probability-weighted moments")
    c = l2 / denom - math.log(2.0) / math.log(3.0)
    k = 7.8590 * c + 2.9554 * c * c  # Hosking's approximation; xi = -k
    if abs(k) < 1e-7:
        sigma = l2 / math.log(2.0)
        mu = b0 - np.euler_gamma * sigma
        xi = 0.0
    else:
        if k <= -0.99:
            raise FitError(f"PWM shape estimate out of range (k={k:.3f})")
        g = math.gamma(1.0 + k)
        sigma = l2 * k / ((1.0 - 2.0 ** (-k)) * g)
        mu = b0 - sigma * (1.0 - g) / k
        xi = -k
    if sigma <= 0 or not np.isfinite(sigma):
        raise FitError(f"PWM scale estimate invalid (sigma={sigma!r})")
    params = GevParams(float(mu), float(sigma), float(xi))
    return FitResult(
        params=params,
        method="pwm",
        constraint="free",
        loglik=log_likelihood(params, x),
        std_errors=None,
        converged=True,
        iterations=0,
    )


def _chi2_1_quantile(level: float) -> float:
    """Quantile of the chi-square distribution with one degree of freedom.

    P(X <= 2 z^2) = erf(z), so the quantile is 2 z^2 with erf(z) = level;
    z is found by bisection down to adjacent floats. Above level 0.95 the
    bisection solves erfc(z) = 1 - level instead: 1 - level is exact there
    and erfc keeps full precision where erf rounds towards 1. At and below
    0.95 erf is kept; erfc would move the default 0.95 quantile by 1 ulp.
    """
    tail = level > 0.95
    lo, hi = 0.0, 6.0  # erf(6) rounds to 1; erfc(6) lies below 1 - (largest double < 1)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return 2.0 * hi * hi
        if (math.erfc(mid) > 1.0 - level) if tail else (math.erf(mid) < level):
            lo = mid
        else:
            hi = mid


def _std_errors(params: GevParams, x: np.ndarray) -> tuple[float, float, float] | None:
    """Standard errors from the closed-form observed information at an MLE.

    An interior fit inverts the row kernel's 3x3 information in
    (mu, log sigma, xi), and the chain rule gives se(sigma) = sigma *
    se(log sigma). A fit on the xi = 0 boundary inverts the Gumbel 2x2
    information and reports 0 for the shape. Returns None on the support
    edge xi = -1, where the likelihood is not differentiable, and when the
    information is not positive definite.
    """
    if params.xi == -1.0:
        return None
    sigma = params.sigma
    if params.xi == 0.0:
        # the (mu, log sigma) block of _gev_rows_derivatives at xi = 0
        z = (x - params.mu) / sigma
        u = np.exp(-z)
        a = 1.0 - u
        cross = (u * z + a).sum() / sigma
        info = np.array([[u.sum() / sigma**2, cross], [cross, (u * z**2 + a * z).sum()]])
    else:
        theta = (np.array([v]) for v in (params.mu, math.log(sigma), params.xi))
        info = -_gev_rows_derivatives(x[None, :], *theta)[1][0]
    try:
        var = np.diag(np.linalg.inv(info))
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(var) & (var > 0)):
        return None
    se = np.sqrt(var) * [1.0, sigma, 1.0][: var.size]
    return (float(se[0]), float(se[1]), float(se[2]) if se.size == 3 else 0.0)


def fit_mle(data: object, constraint: str = "free") -> FitResult:
    """Maximum-likelihood GEV fit under a family constraint: the one-row
    case of ``fit_mle_rows``. ``iterations`` counts the Newton iterations
    (both sides summed for a free fit). Standard errors come from the
    closed-form observed information (``_std_errors``). Raises ValueError
    for a rejected sample and FitError when the kernel cannot settle it.
    """
    (fit,) = fit_mle_rows([data], constraint)
    if isinstance(fit, Exception):
        raise fit
    return fit


def fit_mle_rows(
    samples: Sequence[object], constraint: str = "free"
) -> list[FitResult | FitError | ValueError]:
    """Maximum-likelihood GEV fits of many samples, one entry per sample:
    its FitResult, or the error ``fit_mle`` would raise for it.

    Every sample is validated first, so a rejected one gets ``fit_mle``'s
    ValueError. The rest are fitted by one ``_fit_rows`` call per group of
    equal length, and each FitResult, with its log-likelihood and standard
    errors, is built from its own row; a row the kernel cannot settle gets
    a FitError. ``constraint`` is one of CONSTRAINTS.
    """
    if constraint not in CONSTRAINTS:
        raise ValueError(f"constraint must be one of {CONSTRAINTS}, got {constraint!r}")
    results: list[FitResult | FitError | ValueError | None] = [None] * len(samples)
    valid: dict[int, np.ndarray] = {}
    for i, data in enumerate(samples):
        try:
            valid[i] = _validate_sample(data, min_distinct=5)
        except ValueError as exc:
            results[i] = exc
    for group in _length_groups(valid):
        X = np.stack([valid[i] for i in group])
        for i, x, mu, sigma, xi, converged, iterations in zip(group, X, *_fit_rows(X, constraint)):
            if converged:
                params = GevParams(float(mu), float(sigma), float(xi))
                results[i] = _mle_result(x, params, constraint, iterations)
            else:
                results[i] = FitError(f"MLE did not converge under constraint {constraint!r}")
    return results


def _mle_result(x: np.ndarray, params: GevParams, constraint: str, iterations: int) -> FitResult:
    return FitResult(
        params=params,
        method="mle",
        constraint=constraint,
        loglik=log_likelihood(params, x),
        std_errors=_std_errors(params, x),
        converged=True,
        iterations=int(iterations),
    )


def _length_groups(samples: Mapping[int, np.ndarray]) -> list[list[int]]:
    """The keys of ``samples`` grouped by sample length, in first-seen
    order; the samples of one group stack into one row matrix."""
    groups: dict[int, list[int]] = {}
    for key, x in samples.items():
        groups.setdefault(x.size, []).append(key)
    return list(groups.values())


_ROW_MAX_ITER = 100
_ROW_DECREMENT_TOL = 1e-12  # Newton decrement, relative to 1 + |loglik|, that ends a row
_ROW_HALVINGS = 40
_XI_BOUNDARY = 1e-6  # a sign-constrained row this close to xi = 0 takes its Gumbel solution
_XI_STEP_CAP = 0.25  # largest change of xi in one Newton step
_EDGE_GRID = np.linspace(-0.95, -0.05, 19)  # shapes at which an edge row's profile is solved
_EDGE_STOP = 1e-12  # a Weibull row this close to xi = -1, at or below the edge's supremum, stops


def _gumbel_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The Gumbel MLE of every row by safeguarded Newton on the profiled
    scale equation, from the moment estimate of sigma.

    With mu profiled out in closed form, the scale s solves
    g(s) = s - mean(y) + sum(y w)/sum(w) = 0 on y = x - min x, with
    w = exp(-y/s); g'(s) = 1 + v/s^2 > 0 (v the w-weighted variance of y),
    so the root is unique. The equation is solved on y rather than x, whose
    mean would cancel against sum(x w)/sum(w) and leave an error of about
    |mean x| eps, above the stop test once the location is thousands of
    scales from 0. Then mu = min x - s log mean(w).

    Why a sweep at mu = 0, sigma = 1 covers every input: y, and so every
    Newton iterate, is free of the location, and each iterate is
    proportional to the scale (bit for bit when the scale is a power of
    two), while the stop test |step| < 1e-12 s is relative. So, up to
    rounding, the iterations a row takes depend only on its standardized
    sample (x - mu)/sigma. Returns mu, sigma, a converged mask and the
    Newton iterations; a row whose iteration does not settle is reported
    as not converged.
    """
    xmin = X.min(axis=1)
    Y = X - xmin[:, None]
    ybar = Y.mean(axis=1)
    s = Y.std(axis=1) * math.sqrt(6.0) / math.pi
    active = np.ones(X.shape[0], dtype=bool)
    iterations = np.zeros(X.shape[0], dtype=int)
    for _ in range(200):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        iterations[idx] += 1
        y, si = Y[idx], s[idx]
        w = np.exp(-y / si[:, None])
        sw = w.sum(axis=1)
        m = (y * w).sum(axis=1) / sw
        v = ((y - m[:, None]) ** 2 * w).sum(axis=1) / sw
        s_new = si - (si - ybar[idx] + m) / (1.0 + v / (si * si))
        s_new = np.where(s_new <= 0, si / 2.0, s_new)
        done = np.abs(s_new - si) < 1e-12 * si
        s[idx] = s_new
        active[idx[done]] = False
    mu = xmin - s * np.log(np.exp(-Y / s[:, None]).mean(axis=1))
    return mu, s, ~active, iterations


def _gev_rows_derivatives(
    X: np.ndarray, mu: np.ndarray, eta: np.ndarray, xi: np.ndarray, shape: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form score and Hessian of the GEV log-likelihood per row.

    Parameters are (mu, eta = log sigma, xi) with xi != 0 and every point
    inside the support. Per point, with z = (x - mu)/sigma, t = 1 + xi z,
    y = log t and u = t^(-1/xi), the log density is
    -eta - (1 + 1/xi) y - u; the derivatives follow Prescott & Walden
    (1980) after the change to log scale. With ``shape`` False only the
    (mu, log sigma) block is computed, for solves at a fixed shape.
    """
    sigma = np.exp(eta)
    z = (X - mu[:, None]) / sigma[:, None]
    k = xi[:, None]
    t = 1.0 + k * z
    y = np.log1p(k * z)
    u = np.exp(-y / k)
    a = (1.0 + k - u) / t  # minus the derivative of the log density in z
    f_zz = k * a / t - u / t**2
    d = 3 if shape else 2
    grad, hess = np.empty((X.shape[0], d)), np.empty((X.shape[0], d, d))
    grad[:, 0] = a.sum(axis=1) / sigma
    grad[:, 1] = (z * a).sum(axis=1) - X.shape[1]
    hess[:, 0, 0] = f_zz.sum(axis=1) / sigma**2
    hess[:, 0, 1] = hess[:, 1, 0] = (f_zz * z - a).sum(axis=1) / sigma
    hess[:, 1, 1] = (f_zz * z**2 - a * z).sum(axis=1)
    if shape:
        u_k = u * (y / k**2 - z / (k * t))
        f_zk = (a * z - (1.0 - u_k)) / t
        f_k = (1.0 - u) * y / k**2 - z * a / k
        f_kk = (
            -u_k * y / k**2
            + (1.0 - u) * (z / (t * k**2) - 2.0 * y / k**3)
            - z * ((1.0 - u_k) * k - a * (t + k * z)) / (k**2 * t)
        )
        grad[:, 2] = f_k.sum(axis=1)
        hess[:, 0, 2] = hess[:, 2, 0] = -f_zk.sum(axis=1) / sigma
        hess[:, 1, 2] = hess[:, 2, 1] = -(z * f_zk).sum(axis=1)
        hess[:, 2, 2] = f_kk.sum(axis=1)
    return grad, hess


def _edge_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Supremum of each row's likelihood at xi = -1.

    It lies on the support edge mu + sigma = max x, at
    sigma = mean(max x - x), with loglik = -n (log sigma + 1). sigma is
    rounded up where needed so that the top point stays inside the support
    in floating point. Returns mu, sigma and the log-likelihood.
    """
    top = X.max(axis=1)
    sigma = (top[:, None] - X).mean(axis=1)
    mu = top - sigma
    sigma = np.maximum(sigma, top - mu)
    return mu, sigma, -X.shape[1] * (np.log(sigma) + 1.0)


def _widen_into_support(
    X: np.ndarray, mu: np.ndarray, eta: np.ndarray, xi: np.ndarray
) -> np.ndarray:
    """Raise each row's log scale ``eta`` in place by log 1.5, up to 80 times,
    until every point lies inside the support. Returns the row
    log-likelihoods, -inf for rows that never get there."""
    ll = _gev_rows_loglik(X, mu, eta, xi)
    for _ in range(80):
        bad = ~np.isfinite(ll)
        if not bad.any():
            break
        eta[bad] += math.log(1.5)
        ll[bad] = _gev_rows_loglik(X[bad], mu[bad], eta[bad], xi[bad])
    return ll


def _newton_rows(
    X: np.ndarray,
    mu: np.ndarray,
    eta: np.ndarray,
    xi: np.ndarray,
    ll: np.ndarray,
    active: np.ndarray,
    sign: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Safeguarded Newton ascent on the ``active`` rows of X, in place on
    (mu, eta = log sigma, xi) and the row log-likelihoods ``ll``.

    The step uses the observed information with its eigenvalues made
    positive, so it always ascends, and is halved until the iterate lies
    inside the support, keeps xi > -1 and does not lower the
    log-likelihood. With ``sign`` None the shape stays fixed. Otherwise
    ``sign`` is +1 (Frechet) or -1 (Weibull) per row, xi moves by at most
    ``_XI_STEP_CAP`` and by at most 90 % of its distance to 0 when it would
    cross, and a row stops within ``_XI_BOUNDARY`` of xi = 0 or, unconverged,
    once 1 + xi is below ``_EDGE_STOP`` with its log-likelihood at or below
    its supremum on the support edge xi = -1 (``_edge_rows``).
    Returns a converged mask and the iterations per row.
    """
    converged = np.zeros(X.shape[0], dtype=bool)
    iterations = np.zeros(X.shape[0], dtype=int)
    edge = None if sign is None else _edge_rows(X)[2]
    for _ in range(_ROW_MAX_ITER):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        iterations[idx] += 1
        x, m0, e0, k0, l0 = X[idx], mu[idx], eta[idx], xi[idx], ll[idx]
        grad, hess = _gev_rows_derivatives(x, m0, e0, k0, shape=sign is not None)
        w, v = np.linalg.eigh(-hess)
        w = np.maximum(np.abs(w), 1e-12 * np.abs(w).max(axis=1, keepdims=True) + 1e-300)
        step = np.einsum("rij,rj->ri", v, np.einsum("rji,rj->ri", v, grad) / w)
        # the decrement g'step estimates twice the log-likelihood still to gain
        settled = (grad * step).sum(axis=1) <= _ROW_DECREMENT_TOL * (1.0 + np.abs(l0))
        alpha = np.ones(idx.size)
        if sign is not None:
            crossing = sign[idx] * (k0 + step[:, 2]) <= 0.0
            reach = np.where(crossing, np.minimum(0.9 * np.abs(k0), _XI_STEP_CAP), _XI_STEP_CAP)
            with np.errstate(divide="ignore"):
                alpha = np.minimum(alpha, reach / np.abs(step[:, 2]))
        pending = np.ones(idx.size, dtype=bool)
        for _ in range(_ROW_HALVINGS):
            p = np.flatnonzero(pending)
            if p.size == 0:
                break
            m1 = m0[p] + alpha[p] * step[p, 0]
            e1 = e0[p] + alpha[p] * step[p, 1]
            k1 = k0[p] if sign is None else k0[p] + alpha[p] * step[p, 2]
            l1 = np.where(k1 > -1.0, _gev_rows_loglik(x[p], m1, e1, k1), -np.inf)
            accept = l1 >= l0[p]
            r = idx[p[accept]]
            mu[r], eta[r], xi[r], ll[r] = m1[accept], e1[accept], k1[accept], l1[accept]
            pending[p[accept]] = False
            alpha[p[~accept]] /= 2.0
        # a settled row stops after this last step, taken if it does not
        # lower the log-likelihood; an unsettled row whose step cannot be
        # taken has stalled and stays unconverged
        converged[idx[settled]] = True
        active[idx[settled | pending]] = False
        if sign is not None:
            active[idx[sign[idx] * xi[idx] < _XI_BOUNDARY]] = False
            active[idx[(1.0 + xi[idx] < _EDGE_STOP) & (ll[idx] <= edge[idx])]] = False
    return converged, iterations


def _signed_rows(
    X: np.ndarray, sign: np.ndarray, mu_g: np.ndarray, sigma_g: np.ndarray, ok_g: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Sign-constrained GEV MLE on every row by ``_newton_rows``, from the
    row's Gumbel solution (mu_g, sigma_g) with xi = 0.1 * sign; ``sign`` is
    +1 (Frechet) or -1 (Weibull) per row. A row that reaches the xi = 0
    boundary, or settles below its Gumbel log-likelihood, takes the Gumbel
    solution. A Weibull row that ends at or below the supremum on the
    support edge xi = -1 (``_edge_rows``) takes that edge, unless its
    profile on ``_EDGE_GRID`` beats the edge and a restart from the best
    grid point converges. Returns per-row mu, sigma, xi, log-likelihood, a
    converged mask and the Newton iterations.
    """
    mu, eta = mu_g.copy(), np.log(sigma_g)
    xi = 0.1 * sign
    ll = _widen_into_support(X, mu, eta, xi)
    started = np.isfinite(ll) & ok_g
    converged, iterations = _newton_rows(X, mu, eta, xi, ll, started.copy(), sign)
    ll_g = _gumbel_rows_loglik(X, mu_g, sigma_g)
    # rows that never started keep xi = 0.1 * sign, away from the boundary
    take_gumbel = (sign * xi < _XI_BOUNDARY) | (converged & (ll_g > ll))
    ll = np.where(take_gumbel, ll_g, ll)
    mu_e, sigma_e, ll_e = _edge_rows(X)
    take_edge = started & (sign < 0) & (ll <= ll_e)
    e = np.flatnonzero(take_edge)
    if e.size and _EDGE_GRID.size:
        # the likelihood is non-regular for xi <= -0.5, and a step can climb
        # from an interior maximum's ridge into the edge basin; a restart
        # never lowers the log-likelihood, so one that converges beats the edge
        g = _EDGE_GRID.size
        rows = np.repeat(e, g)
        X_grid, grid = X[rows], (mu_g[rows], np.log(sigma_g[rows]), np.tile(_EDGE_GRID, e.size))
        ll_grid = _widen_into_support(X_grid, *grid)
        np.add.at(iterations, rows, _newton_rows(X_grid, *grid, ll_grid, np.isfinite(ll_grid))[1])
        best = np.argmax(ll_grid.reshape(e.size, g), axis=1) + g * np.arange(e.size)
        mu[e], eta[e], xi[e], ll[e] = (v[best] for v in (*grid, ll_grid))
        rose, restart_iterations = _newton_rows(X, mu, eta, xi, ll, take_edge & (ll > ll_e), sign)
        iterations += restart_iterations
        converged |= rose
        take_gumbel, take_edge = take_gumbel & ~rose, take_edge & ~rose
    pick = [take_edge, take_gumbel]
    return (
        np.select(pick, [mu_e, mu_g], mu),
        np.select(pick, [sigma_e, sigma_g], np.exp(eta)),
        np.select(pick, [-1.0, 0.0], xi),
        np.where(take_edge, ll_e, ll),
        converged | take_gumbel | take_edge,
        iterations,
    )


def _fit_rows(X: np.ndarray, constraint: str) -> tuple[np.ndarray, ...]:
    """Constrained MLE of every row of a (B, n) sample matrix at once.

    Returns per-row mu, sigma, xi, a converged mask and the Newton
    iterations (the Gumbel start's plus the shape solve's; both sides for a
    free row); no standard errors. ``constraint`` is one of CONSTRAINTS. A
    free row is the better of its Frechet and Weibull solves, and counts as
    converged when both are. Rows that ``fit_mle`` would reject
    (non-finite, fewer than 5 distinct values) and rows the kernel cannot
    settle come back unconverged with NaN parameters.
    """
    if constraint not in CONSTRAINTS:
        raise ValueError(f"constraint must be one of {CONSTRAINTS}, got {constraint!r}")
    X = np.asarray(X, dtype=float)
    rows = X.shape[0]
    valid = np.all(np.isfinite(X), axis=1)
    # at least 5 distinct values, as fit_mle requires
    valid[valid] = (np.diff(np.sort(X[valid], axis=1), axis=1) > 0).sum(axis=1) >= 4
    mu, sigma, xi = (np.full(rows, np.nan) for _ in range(3))
    converged = np.zeros(rows, dtype=bool)
    iterations = np.zeros(rows, dtype=int)
    x = X[valid]
    m = x.shape[0]
    gumbel = _gumbel_rows(x)
    if constraint == "gumbel":
        fit = (gumbel[0], gumbel[1], np.zeros(m), gumbel[2], gumbel[3])
    else:
        # one stacked solve per side; a free row takes the better side,
        # the Frechet one on a tie
        signs = {"free": [1.0, -1.0], "frechet": [1.0], "weibull": [-1.0]}[constraint]
        k = len(signs)
        sides = _signed_rows(
            np.tile(x, (k, 1)), np.repeat(signs, m), *(np.tile(g, k) for g in gumbel[:3])
        )
        f_mu, f_sigma, f_xi, f_ll, f_ok, f_it = (v.reshape(k, m) for v in sides)
        best = np.argmax(f_ll, axis=0), np.arange(m)
        fit = (f_mu[best], f_sigma[best], f_xi[best], f_ok.all(axis=0), gumbel[3] + f_it.sum(axis=0))
    for out, values in zip((mu, sigma, xi, converged, iterations), fit):
        out[valid] = values
    for out in (mu, sigma, xi):
        out[~converged] = np.nan
    return mu, sigma, xi, converged, iterations


def _profile_rows(
    X: np.ndarray, xi: np.ndarray, mu: np.ndarray, eta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Maximize each row's likelihood over (mu, eta = log sigma) at its own
    fixed shape xi[r], from (mu[r], eta[r]): one fixed-shape
    ``_newton_rows`` call. The rows near xi = 0 take their Gumbel fits, one
    ``_gumbel_rows`` call; at xi = -1 the supremum lies on the support edge
    and has the closed form of ``_edge_rows``. Returns per row the
    log-likelihood, mu, eta and a status: 0 solved, 1 no feasible start,
    2 not settled.
    """
    ll, mu, eta = np.empty(xi.size), mu.copy(), eta.copy()
    status = np.zeros(xi.size, dtype=int)
    gumbel, edge = np.abs(xi) < XI_EPS, xi == -1.0
    rows = ~gumbel & ~edge
    x, k, m, e = X[rows], xi[rows], mu[rows], eta[rows]
    ll_rows = _widen_into_support(x, m, e, k)
    feasible = np.isfinite(ll_rows)
    converged = _newton_rows(x, m, e, k, ll_rows, feasible.copy())[0]
    ll[rows], mu[rows], eta[rows] = ll_rows, m, e
    status[rows] = np.where(feasible, 2 * ~converged, 1)
    mu_g, sigma_g, ok_g, _ = _gumbel_rows(X[gumbel])
    ll[gumbel] = _gumbel_rows_loglik(X[gumbel], mu_g, sigma_g)
    mu[gumbel], eta[gumbel], status[gumbel] = mu_g, np.log(sigma_g), 2 * ~ok_g
    mu_e, sigma_e, ll[edge] = _edge_rows(X[edge])
    mu[edge], eta[edge] = mu_e, np.log(sigma_e)
    return ll, mu, eta, status


_XI_TOL = 1e-6  # an endpoint's last bracket is narrower than this
_UNBOUNDED = 3  # the status of an endpoint search that passes the search bound


def _search_error(status: int, xi: float) -> FitError:
    """The FitError of a profile search that stops at shape ``xi``, a float:
    its solve there found no feasible start (status 1) or did not settle
    (2), or the deviance stays below the threshold at the search bound (3)."""
    if status == 1:
        return FitError(f"no feasible (mu, sigma) start for the profile at xi={xi}")
    if status == 2:
        return FitError(f"profile likelihood did not settle at xi={xi}")
    side = "upper" if xi == _XI_SEARCH_RANGE[1] else "lower"
    return FitError(
        f"profile deviance stays below the threshold at xi={xi}; "
        f"{side} endpoint unbounded in {_XI_SEARCH_RANGE}"
    )


def _endpoint_rows(
    X: np.ndarray, side: np.ndarray, lmax: np.ndarray, mle: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """Profile-interval endpoints, one per row of ``X``: the upper one of
    its sample where ``side`` is +1, the lower one where it is -1, at which
    the deviance 2*(lmax[r] - profile loglik(xi)) is ``threshold``. The
    columns of the (3, rows) array ``mle`` hold each row's MLE
    (mu, eta = log sigma, xi), and ``lmax`` its log-likelihood.

    A row marches from its MLE shape in steps of 0.1 until the deviance
    passes the threshold, then refines the last step's bracket by
    Anderson-Bjorck regula falsi until it is narrower than ``_XI_TOL``; a
    trial within ``_XI_TOL/2`` of the bracket's newest end moves to that
    distance towards the other end, so that the bracket closes. The
    deviance is 0 at the MLE and the march's deviances close the bracket,
    so no shape is solved twice. Each round solves all pending rows with
    one ``_profile_rows`` call, each from its own last solve. Returns per
    row the endpoint, or the shape at which its search stopped, and a
    status: 0 found, the ``_profile_rows`` status of a failed solve, or
    ``_UNBOUNDED`` for a deviance still below the threshold at the search
    bound (``_search_error`` gives each its text).
    """
    mu, eta = np.array(mle[:2], dtype=float)
    # the bracket's newest end b and its other end a, each with its deviance
    # less the threshold; while a row marches, b is the last shape passed
    b = np.clip(mle[2], *_XI_SEARCH_RANGE)
    fb = np.full(side.size, -threshold)
    a, fa = b.copy(), fb.copy()
    bound = np.where(side > 0, _XI_SEARCH_RANGE[1], _XI_SEARCH_RANGE[0])
    bracketed = np.zeros(side.size, dtype=bool)
    status = np.zeros(side.size, dtype=int)
    p = np.arange(side.size)
    while p.size:
        trial = np.clip(b[p] + 0.1 * side[p], *_XI_SEARCH_RANGE)
        refine = bracketed[p]
        q = p[refine]
        falsi = b[q] - fb[q] * (b[q] - a[q]) / (fb[q] - fa[q])
        nudge = b[q] + np.copysign(_XI_TOL / 2, a[q] - b[q])
        trial[refine] = np.where(np.abs(falsi - b[q]) < _XI_TOL / 2, nudge, falsi)
        ll, mu[p], eta[p], status[p] = _profile_rows(X[p], trial, mu[p], eta[p])
        fc = 2.0 * (lmax[p] - ll) - threshold
        solved = status[p] == 0
        same = solved & refine & ((fc > 0) == (fb[p] > 0))  # the same end moves again
        scale = 1.0 - fc[same] / fb[p[same]]
        fa[p[same]] *= np.where(scale > 0, scale, 0.5)
        new = p[solved & (refine | (fc > 0)) & ~same]  # the newest end becomes the other
        a[new], fa[new], bracketed[new] = b[new], fb[new], True
        b[p], fb[p] = trial, fc
        # a row that marches on at the search bound stops there
        status[p[solved & ~bracketed[p] & (trial == bound[p])]] = _UNBOUNDED
        done = bracketed[p] & ((fc == 0) | (np.abs(b[p] - a[p]) < _XI_TOL))
        p = p[(status[p] == 0) & ~done]
    return b, status


def profile_ci_xi(
    data: object, level: float = 0.95, free: FitResult | None = None
) -> ProfileInterval:
    """Profile-likelihood confidence interval for the shape parameter: the
    one-row case of ``profile_ci_xi_rows``. ``free`` is the sample's free
    ``fit_mle`` result when the caller already has it. Raises FitError
    when an endpoint does not materialize inside the search range.
    """
    (ci,) = profile_ci_xi_rows([data], level, None if free is None else [free])
    if isinstance(ci, FitError):
        raise ci
    return ci


def profile_ci_xi_rows(
    samples: Sequence[object],
    level: float = 0.95,
    frees: Sequence[FitResult] | None = None,
) -> list[ProfileInterval | FitError]:
    """Profile-likelihood confidence intervals for the shape of many
    samples, one entry per sample: its interval, or the FitError that
    stopped it.

    Endpoints solve 2*(max loglik - profile loglik(xi)) = chi2(1) quantile
    and may be asymmetric. One ``_endpoint_rows`` call per group of
    equal-length samples searches both sides of each; a row's search
    depends only on its own solves, so each interval is bit for bit that
    of the sample alone. A FitError, the upper endpoint's first, stops its
    own sample only. ``frees`` holds each sample's free ``fit_mle`` result
    (or FitError) when the caller already has them; without it the samples
    are fitted here. Raises ValueError for a level outside (0, 1), a
    sample the fit rejects, or ``frees`` not one free fit per sample.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    if frees is not None and len(frees) != len(samples):
        raise ValueError(f"got {len(frees)} free fits for {len(samples)} samples")
    for fit in frees or ():
        if isinstance(fit, FitResult) and fit.constraint != "free":
            raise ValueError(f"need the free fit, got a {fit.constraint!r} fit")
    xs = [_validate_sample(data, min_distinct=5) for data in samples]
    fits = fit_mle_rows(xs) if frees is None else frees
    threshold = _chi2_1_quantile(level)
    results: list = [fit if isinstance(fit, FitError) else None for fit in fits]
    for group in _length_groups({i: xs[i] for i, fit in enumerate(results) if fit is None}):
        params = [fits[i].params for i in group] * 2
        ends, status = _endpoint_rows(
            np.stack([xs[i] for i in group] * 2),
            np.repeat([1.0, -1.0], len(group)),
            np.array([fits[i].loglik for i in group] * 2),
            np.array([(p.mu, math.log(p.sigma), p.xi) for p in params]).T,
            threshold,
        )
        for i, end, stop in zip(group, ends.reshape(2, -1).T, status.reshape(2, -1).T):
            j = 0 if stop[0] else 1  # the upper endpoint's error first
            if stop[j]:
                results[i] = _search_error(int(stop[j]), float(end[j]))
            else:
                results[i] = ProfileInterval(float(end[1]), float(end[0]), level)
    return results
