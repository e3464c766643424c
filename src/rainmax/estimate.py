"""GEV parameter estimation: maximum likelihood, probability-weighted moments,
and profile-likelihood confidence intervals for the shape.

The MLE search runs a derivative-free simplex on (mu, log sigma, xi), with the
log-scale reparameterization enforcing sigma > 0 and sign-constrained fits
mapping xi through +/-exp(eta). The Gumbel-constrained fit profiles mu out in
closed form and solves the remaining scalar score equation directly, which is
orders of magnitude faster inside bootstrap loops.

Bootstrap refits go through ``_fit_rows``, which fits every row of a sample
matrix at once (the Gumbel scale equation, or Newton with the closed-form
score and observed information for the sign-constrained families) and
computes no standard errors; the scalar fits stay its reference.

Profile intervals maximize over (mu, log sigma) at each fixed shape by the
same safeguarded Newton method on the (mu, log sigma) block of those
closed-form derivatives. At the lower search bound xi = -1 the supremum
lies on the support edge and is taken in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize
from scipy.special import gamma as gamma_fn
from scipy.stats import chi2

from .gev import XI_EPS, GevParams, log_likelihood

CONSTRAINTS = ("free", "gumbel", "frechet", "weibull")

_FTOL = 1e-8
_MAX_ITER = 2000
_XI_SEARCH_RANGE = (-1.0, 2.0)  # profile CI endpoints must fall inside
_MULTISTART_XI = (-0.3, 0.0, 0.3)


class FitError(RuntimeError):
    """Estimation failure; ``trace`` records the attempts that were made."""

    def __init__(self, message: str, trace: list[str] | None = None):
        super().__init__(message)
        self.trace = trace or []


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
    if np.unique(x).size < min_distinct:
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
        g = gamma_fn(1.0 + k)
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


def _moment_start(x: np.ndarray) -> tuple[float, float]:
    sigma0 = x.std() * math.sqrt(6.0) / math.pi
    mu0 = x.mean() - np.euler_gamma * sigma0
    return mu0, sigma0


def _fit_gumbel_exact(x: np.ndarray) -> FitResult:
    """Gumbel MLE via the profiled scalar score equation in sigma.

    With mu profiled out in closed form, the remaining equation
    g(s) = s - mean(x) + sum(x w)/sum(w) = 0 (w = exp(-x/s)) has a unique
    root; safeguarded Newton converges in a handful of iterations and a
    bracketing fallback covers the rest.
    """
    xbar = float(x.mean())
    xmin = float(x.min())

    def parts(s: float) -> tuple[float, float]:
        w = np.exp(-(x - xmin) / s)
        m = float((x * w).sum() / w.sum())
        v = float(((x - m) ** 2 * w).sum() / w.sum())
        return m, v

    def g(s: float) -> float:
        m, _ = parts(s)
        return s - xbar + m

    s = float(x.std()) * math.sqrt(6.0) / math.pi
    iterations = 0
    for _ in range(200):
        iterations += 1
        m, v = parts(s)
        gval = s - xbar + m
        gprime = 1.0 + v / (s * s)
        step = gval / gprime
        s_new = s - step
        if s_new <= 0:
            s_new = s / 2.0
        if abs(s_new - s) < 1e-12 * max(1.0, s):
            s = s_new
            break
        s = s_new
    else:
        # Newton stalled; bracket the root and bisect
        lo = hi = float(x.std()) * math.sqrt(6.0) / math.pi
        for _ in range(200):
            if g(lo) < 0:
                break
            lo /= 2.0
        for _ in range(200):
            if g(hi) > 0:
                break
            hi *= 2.0
        if not g(lo) < 0 < g(hi):
            raise FitError("could not bracket the Gumbel scale equation")
        s, info = brentq(g, lo, hi, xtol=1e-12, full_output=True)[0:2]
        iterations += info.iterations

    mu = xmin - s * math.log(float(np.exp(-(x - xmin) / s).mean()))
    params = GevParams(float(mu), float(s), 0.0)
    return FitResult(
        params=params,
        method="mle",
        constraint="gumbel",
        loglik=log_likelihood(params, x),
        std_errors=_observed_info_se(params, x, free=(True, True, False)),
        converged=True,
        iterations=iterations,
    )


def _encode(params: GevParams, constraint: str) -> np.ndarray:
    if constraint == "free":
        return np.array([params.mu, math.log(params.sigma), params.xi])
    if constraint == "frechet":
        return np.array([params.mu, math.log(params.sigma), math.log(max(params.xi, 0.02))])
    if constraint == "weibull":
        return np.array([params.mu, math.log(params.sigma), math.log(max(-params.xi, 0.02))])
    raise ValueError(f"unknown constraint {constraint!r}")


def _decode(theta: np.ndarray, constraint: str) -> GevParams | None:
    sigma = math.exp(theta[1])
    if constraint == "free":
        xi = theta[2]
    elif constraint == "frechet":
        xi = math.exp(theta[2])
    else:
        xi = -math.exp(theta[2])
    if constraint != "free" and xi == 0.0:  # exp underflow would break the sign constraint
        return None
    if constraint == "weibull" and xi <= -1.0:  # the likelihood is unbounded above there
        return None
    if not (np.isfinite(sigma) and sigma > 0 and np.isfinite(xi) and np.isfinite(theta[0])):
        return None
    return GevParams(float(theta[0]), sigma, float(xi))


def _feasible_start(x: np.ndarray, theta: np.ndarray, constraint: str) -> np.ndarray:
    # widen the scale until every data point lies inside the support
    theta = theta.copy()
    for _ in range(80):
        params = _decode(theta, constraint)
        if params is not None and np.isfinite(log_likelihood(params, x)):
            return theta
        theta[1] += math.log(1.5)
    raise FitError("could not find a feasible starting point")


def _observed_info_se(
    params: GevParams,
    x: np.ndarray,
    free: tuple[bool, bool, bool],
) -> tuple[float, float, float] | None:
    """Standard errors from the numerically inverted observed information.

    Returns None when any stencil point is infeasible or the Hessian is not
    positive definite. Entries for constrained-away parameters are 0.
    """
    theta = np.array([params.mu, params.sigma, params.xi])
    idx = [i for i, f in enumerate(free) if f]
    h = 1e-4 * np.maximum(np.abs(theta), 1.0)

    def nll(v: np.ndarray) -> float:
        if v[1] <= 0:
            return np.inf
        return -log_likelihood(GevParams(v[0], v[1], v[2]), x)

    f0 = nll(theta)
    m = len(idx)
    hess = np.empty((m, m))
    for a, i in enumerate(idx):
        ei = np.zeros(3)
        ei[i] = h[i]
        fp, fm = nll(theta + ei), nll(theta - ei)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            return None
        hess[a, a] = (fp - 2.0 * f0 + fm) / h[i] ** 2
        for b, j in enumerate(idx[:a]):
            ej = np.zeros(3)
            ej[j] = h[j]
            fpp, fpm = nll(theta + ei + ej), nll(theta + ei - ej)
            fmp, fmm = nll(theta - ei + ej), nll(theta - ei - ej)
            if not all(np.isfinite(v) for v in (fpp, fpm, fmp, fmm)):
                return None
            hess[a, b] = hess[b, a] = (fpp - fpm - fmp + fmm) / (4.0 * h[i] * h[j])
    try:
        cov = np.linalg.inv(hess)
    except np.linalg.LinAlgError:
        return None
    diag = np.diag(cov)
    if np.any(diag <= 0):
        return None
    se = [0.0, 0.0, 0.0]
    for a, i in enumerate(idx):
        se[i] = float(math.sqrt(diag[a]))
    return (se[0], se[1], se[2])


def _run_simplex(
    x: np.ndarray, start: np.ndarray, constraint: str
) -> tuple[GevParams | None, float, bool, int]:
    def nll(theta: np.ndarray) -> float:
        params = _decode(theta, constraint)
        if params is None:
            return np.inf
        return -log_likelihood(params, x)

    options = {"xatol": 1e-6, "fatol": _FTOL, "maxiter": _MAX_ITER, "maxfev": 2 * _MAX_ITER}
    res = minimize(nll, start, method="Nelder-Mead", options=options)
    nit = int(res.nit)
    if not res.success:
        # restart from the stalled point: a fresh simplex recovers cheaply
        res2 = minimize(nll, res.x, method="Nelder-Mead", options=options)
        nit += int(res2.nit)
        if res2.fun <= res.fun:
            res = res2
    params = _decode(res.x, constraint)
    ok = bool(res.success and params is not None and np.isfinite(res.fun))
    return params, -float(res.fun), ok, nit


def fit_mle(data: object, constraint: str = "free") -> FitResult:
    """Maximum-likelihood GEV fit under a family constraint.

    Starts from the PWM estimate (moment fallback), restarts on a small
    shape grid if the first search fails, and reports standard errors from
    the observed information when it is positive definite.
    """
    if constraint not in CONSTRAINTS:
        raise ValueError(f"constraint must be one of {CONSTRAINTS}, got {constraint!r}")
    x = _validate_sample(data, min_distinct=5)
    if constraint == "gumbel":
        return _fit_gumbel_exact(x)

    try:
        pwm = fit_pwm(x).params
    except (FitError, ValueError):
        mu0, sigma0 = _moment_start(x)
        pwm = GevParams(mu0, sigma0, 0.0)

    if constraint == "free":
        start_shapes = (float(np.clip(pwm.xi, -0.45, 0.45)),)
        grid = _MULTISTART_XI
    elif constraint == "frechet":
        start_shapes = (max(pwm.xi, 0.05),)
        grid = (0.05, 0.15, 0.3)
    else:
        start_shapes = (min(pwm.xi, -0.05),)
        grid = (-0.05, -0.15, -0.3)

    trace: list[str] = []
    attempts: list[tuple[GevParams, float, int]] = []
    for xi0 in start_shapes + grid:
        seed_params = GevParams(pwm.mu, pwm.sigma, xi0 if constraint == "free" else xi0)
        try:
            start = _feasible_start(x, _encode(seed_params, constraint), constraint)
            params, ll, ok, nit = _run_simplex(x, start, constraint)
        except FitError as exc:
            trace.append(f"start xi={xi0:+.3f}: {exc}")
            continue
        if ok and params is not None and np.isfinite(ll):
            attempts.append((params, ll, nit))
            break
        trace.append(f"start xi={xi0:+.3f}: no convergence (loglik={ll!r})")

    if constraint == "free":
        # the free optimum can never score below the nested Gumbel one; when
        # the simplex lands under it, reseed from the exact Gumbel solution
        gum = _fit_gumbel_exact(x)
        if not attempts or max(ll for _, ll, _ in attempts) < gum.loglik:
            start = np.array([gum.params.mu, math.log(gum.params.sigma), 0.0])
            params, ll, ok, nit = _run_simplex(x, start, constraint)
            if params is not None and np.isfinite(ll) and ll >= gum.loglik:
                attempts.append((params, ll, nit))
            else:
                attempts.append((gum.params, gum.loglik, gum.iterations))

    if not attempts:
        raise FitError(f"MLE did not converge under constraint {constraint!r}", trace)
    params, ll, nit = max(attempts, key=lambda t: t[1])
    free_mask = (True, True, True)
    return FitResult(
        params=params,
        method="mle",
        constraint=constraint,
        loglik=log_likelihood(params, x),
        std_errors=_observed_info_se(params, x, free_mask),
        converged=True,
        iterations=nit,
    )


_ROW_MAX_ITER = 100
_ROW_DECREMENT_TOL = 1e-12  # Newton decrement, relative to 1 + |loglik|, that ends a row
_ROW_HALVINGS = 40
_XI_BOUNDARY = 1e-6  # a sign-constrained row this close to xi = 0 takes its Gumbel solution


def _gumbel_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_fit_gumbel_exact`` on every row at once: the same start, Newton
    step and stopping rule. Rows that need its bracketing fallback are
    reported as not converged."""
    xbar = X.mean(axis=1)
    xmin = X.min(axis=1)
    s = X.std(axis=1) * math.sqrt(6.0) / math.pi
    active = np.ones(X.shape[0], dtype=bool)
    for _ in range(200):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        x, si = X[idx], s[idx]
        w = np.exp(-(x - xmin[idx, None]) / si[:, None])
        sw = w.sum(axis=1)
        m = (x * w).sum(axis=1) / sw
        v = ((x - m[:, None]) ** 2 * w).sum(axis=1) / sw
        s_new = si - (si - xbar[idx] + m) / (1.0 + v / (si * si))
        s_new = np.where(s_new <= 0, si / 2.0, s_new)
        done = np.abs(s_new - si) < 1e-12 * np.maximum(1.0, si)
        s[idx] = s_new
        active[idx[done]] = False
    mu = xmin - s * np.log(np.exp(-(X - xmin[:, None]) / s[:, None]).mean(axis=1))
    return mu, s, ~active


def _gumbel_rows_loglik(X: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
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


def _gev_rows_derivatives(
    X: np.ndarray, mu: np.ndarray, eta: np.ndarray, xi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form score and Hessian of the GEV log-likelihood per row.

    Parameters are (mu, eta = log sigma, xi) with xi != 0 and every point
    inside the support. Per point, with z = (x - mu)/sigma, t = 1 + xi z,
    y = log t and u = t^(-1/xi), the log density is
    -eta - (1 + 1/xi) y - u; the derivatives follow Prescott & Walden
    (1980) after the change to log scale.
    """
    sigma = np.exp(eta)
    z = (X - mu[:, None]) / sigma[:, None]
    k = xi[:, None]
    t = 1.0 + k * z
    y = np.log1p(k * z)
    u = np.exp(-y / k)
    a = (1.0 + k - u) / t  # minus the derivative of the log density in z
    f_zz = k * a / t - u / t**2
    u_k = u * (y / k**2 - z / (k * t))
    f_zk = (a * z - (1.0 - u_k)) / t
    f_k = (1.0 - u) * y / k**2 - z * a / k
    f_kk = (
        -u_k * y / k**2
        + (1.0 - u) * (z / (t * k**2) - 2.0 * y / k**3)
        - z * ((1.0 - u_k) * k - a * (t + k * z)) / (k**2 * t)
    )
    n = X.shape[1]
    grad = np.stack([a.sum(axis=1) / sigma, (z * a).sum(axis=1) - n, f_k.sum(axis=1)], axis=1)
    hess = np.empty((X.shape[0], 3, 3))
    hess[:, 0, 0] = f_zz.sum(axis=1) / sigma**2
    hess[:, 0, 1] = hess[:, 1, 0] = (f_zz * z - a).sum(axis=1) / sigma
    hess[:, 1, 1] = (f_zz * z**2 - a * z).sum(axis=1)
    hess[:, 0, 2] = hess[:, 2, 0] = -f_zk.sum(axis=1) / sigma
    hess[:, 1, 2] = hess[:, 2, 1] = -(z * f_zk).sum(axis=1)
    hess[:, 2, 2] = f_kk.sum(axis=1)
    return grad, hess


def _signed_rows(
    X: np.ndarray, sign: float, gumbel: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sign-constrained GEV MLE on every row by safeguarded Newton.

    Iterates on (mu, log sigma, xi) from the row's Gumbel solution with
    xi = 0.1 * sign. The step uses the observed information with its
    eigenvalues made positive, so it always ascends; it is cut to 90 % of
    the distance to xi = 0 when it would cross, then halved until the
    iterate lies inside the support, keeps xi > -1 (beyond which the
    likelihood is unbounded) and does not lower the log-likelihood. A row
    that reaches the xi = 0 boundary, or ends below its Gumbel
    log-likelihood, takes the Gumbel solution: the constrained supremum
    lies there.
    """
    mu_g, sigma_g, ok_g = gumbel
    rows = X.shape[0]
    mu, eta = mu_g.copy(), np.log(sigma_g)
    xi = np.full(rows, 0.1 * sign)
    ll = _gev_rows_loglik(X, mu, eta, xi)
    for _ in range(80):
        bad = ~np.isfinite(ll)
        if not bad.any():
            break
        eta[bad] += math.log(1.5)
        ll[bad] = _gev_rows_loglik(X[bad], mu[bad], eta[bad], xi[bad])

    active = np.isfinite(ll) & ok_g
    converged = np.zeros(rows, dtype=bool)
    boundary = np.zeros(rows, dtype=bool)
    for _ in range(_ROW_MAX_ITER):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        x, m0, e0, k0, l0 = X[idx], mu[idx], eta[idx], xi[idx], ll[idx]
        grad, hess = _gev_rows_derivatives(x, m0, e0, k0)
        w, v = np.linalg.eigh(-hess)
        w = np.maximum(np.abs(w), 1e-12 * np.abs(w).max(axis=1, keepdims=True) + 1e-300)
        step = np.einsum("rij,rj->ri", v, np.einsum("rji,rj->ri", v, grad) / w)
        # the decrement g'step estimates twice the log-likelihood still to gain
        settled = (grad * step).sum(axis=1) <= _ROW_DECREMENT_TOL * (1.0 + np.abs(l0))
        crossing = sign * (k0 + step[:, 2]) <= 0.0
        alpha = np.where(crossing, 0.9 * np.abs(k0) / np.abs(step[:, 2]), 1.0)
        pending = np.ones(idx.size, dtype=bool)
        for _ in range(_ROW_HALVINGS):
            p = np.flatnonzero(pending)
            if p.size == 0:
                break
            m1 = m0[p] + alpha[p] * step[p, 0]
            e1 = e0[p] + alpha[p] * step[p, 1]
            k1 = k0[p] + alpha[p] * step[p, 2]
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
        boundary[idx] = sign * xi[idx] < _XI_BOUNDARY
        active[idx[settled | pending]] = False
        active[boundary] = False

    # only rows with a converged Gumbel solution were ever active
    take_gumbel = boundary | (converged & (_gumbel_rows_loglik(X, mu_g, sigma_g) > ll))
    mu = np.where(take_gumbel, mu_g, mu)
    sigma = np.where(take_gumbel, sigma_g, np.exp(eta))
    xi = np.where(take_gumbel, 0.0, xi)
    return mu, sigma, xi, take_gumbel | converged


def _fit_rows(
    X: np.ndarray, constraint: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Constrained MLE of every row of a (B, n) sample matrix at once.

    Returns per-row mu, sigma, xi and a converged mask; no standard errors.
    ``constraint`` is "gumbel", "frechet" or "weibull". Rows that the
    scalar ``fit_mle`` would reject (non-finite, fewer than 5 distinct
    values) and rows the kernel cannot settle come back unconverged with
    NaN parameters, for the caller to refit on the scalar path.
    """
    if constraint not in ("gumbel", "frechet", "weibull"):
        raise ValueError(f"row kernel constraint must be a family, got {constraint!r}")
    X = np.asarray(X, dtype=float)
    rows = X.shape[0]
    valid = np.all(np.isfinite(X), axis=1)
    # at least 5 distinct values, as fit_mle requires
    valid[valid] = (np.diff(np.sort(X[valid], axis=1), axis=1) > 0).sum(axis=1) >= 4
    mu, sigma, xi = (np.full(rows, np.nan) for _ in range(3))
    converged = np.zeros(rows, dtype=bool)
    x = X[valid]
    gumbel = _gumbel_rows(x)
    if constraint == "gumbel":
        fit = (gumbel[0], gumbel[1], np.zeros(x.shape[0]), gumbel[2])
    else:
        fit = _signed_rows(x, 1.0 if constraint == "frechet" else -1.0, gumbel)
    for out, values in zip((mu, sigma, xi, converged), fit):
        out[valid] = values
    for out in (mu, sigma, xi):
        out[~converged] = np.nan
    return mu, sigma, xi, converged


def _profile_loglik(
    x: np.ndarray,
    xi: float,
    start: tuple[float, float],
) -> tuple[float, tuple[float, float]]:
    """Maximize the likelihood over (mu, sigma) at fixed shape.

    Safeguarded Newton on (mu, log sigma) with the (mu, log sigma) block of
    the row kernel's closed-form score and observed information, under the
    step rules of ``_signed_rows``. At xi = -1 the supremum lies on the
    support edge, mu + sigma = max x, and has the closed form
    sigma = mean(max x - x), loglik = -n (log sigma + 1). Raises FitError
    when no feasible start is found or the iteration does not settle.
    """
    if abs(xi) < XI_EPS:
        fit = _fit_gumbel_exact(x)
        return fit.loglik, (fit.params.mu, fit.params.sigma)
    if xi == -1.0:
        top = float(x.max())
        sigma = float((top - x).mean())
        return -x.size * (math.log(sigma) + 1.0), (top - sigma, sigma)

    X, k = x[None, :], np.array([xi])
    mu, eta = np.array([start[0]]), np.array([math.log(start[1])])
    ll = _gev_rows_loglik(X, mu, eta, k)[0]
    for _ in range(80):
        if np.isfinite(ll):
            break
        eta += math.log(1.5)
        ll = _gev_rows_loglik(X, mu, eta, k)[0]
    else:
        raise FitError(f"no feasible (mu, sigma) start for the profile at xi={xi}")

    for _ in range(_ROW_MAX_ITER):
        grad, hess = _gev_rows_derivatives(X, mu, eta, k)
        g = grad[0, :2]
        w, v = np.linalg.eigh(-hess[0, :2, :2])
        w = np.maximum(np.abs(w), 1e-12 * np.abs(w).max() + 1e-300)
        step = v @ ((v.T @ g) / w)
        # the decrement g'step estimates twice the log-likelihood still to gain
        settled = g @ step <= _ROW_DECREMENT_TOL * (1.0 + abs(ll))
        alpha = 1.0
        for _ in range(_ROW_HALVINGS):
            mu1, eta1 = mu + alpha * step[0], eta + alpha * step[1]
            ll1 = _gev_rows_loglik(X, mu1, eta1, k)[0]
            if ll1 >= ll:
                mu, eta, ll = mu1, eta1, ll1
                break
            alpha /= 2.0
        else:
            if not settled:
                break  # no step keeps the log-likelihood: the solve has stalled
        if settled:
            return float(ll), (float(mu[0]), float(math.exp(eta[0])))
    raise FitError(f"profile likelihood did not settle at xi={xi}")


def profile_ci_xi(
    data: object, level: float = 0.95, free: FitResult | None = None
) -> ProfileInterval:
    """Profile-likelihood confidence interval for the shape parameter.

    Endpoints solve 2*(max loglik - profile loglik(xi)) = chi2(1) quantile;
    they are located by marching outward from the MLE and refined by
    bisection, and may be asymmetric. The profile log-likelihood at each
    shape comes from a safeguarded Newton solve on (mu, log sigma) with
    the closed-form GEV derivatives, warm-started from the nearest shape
    already solved; at the search bound xi = -1 it takes its closed form
    on the support edge. ``free`` is the sample's free ``fit_mle`` result
    when the caller already has it. Raises FitError when an endpoint
    does not materialize inside the search range.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    x = _validate_sample(data, min_distinct=5)
    if free is None:
        free = fit_mle(x, "free")
    lmax = free.loglik
    xi_hat = float(np.clip(free.params.xi, *_XI_SEARCH_RANGE))
    threshold = float(chi2.ppf(level, df=1))

    warm: list[tuple[float, tuple[float, float]]] = [
        (xi_hat, (free.params.mu, free.params.sigma))
    ]

    def deviance(xi: float) -> float:
        start = min(warm, key=lambda item: abs(item[0] - xi))[1]
        ll, opt = _profile_loglik(x, xi, start)
        warm.append((xi, opt))
        return 2.0 * (lmax - ll)

    def find_endpoint(direction: float) -> float:
        bound = _XI_SEARCH_RANGE[1] if direction > 0 else _XI_SEARCH_RANGE[0]
        step = 0.1 * direction
        inner = xi_hat
        while True:
            outer = inner + step
            if (direction > 0 and outer >= bound) or (direction < 0 and outer <= bound):
                outer = bound
            if deviance(outer) > threshold:
                break
            if outer == bound:
                side = "upper" if direction > 0 else "lower"
                raise FitError(
                    f"profile deviance stays below the threshold at xi={bound}; "
                    f"{side} endpoint unbounded in {_XI_SEARCH_RANGE}"
                )
            inner = outer
        return float(brentq(lambda v: deviance(v) - threshold, min(inner, outer), max(inner, outer), xtol=1e-6))

    upper = find_endpoint(+1.0)
    lower = find_endpoint(-1.0)
    return ProfileInterval(lower=lower, upper=upper, level=level)
