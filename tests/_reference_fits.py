"""Reference maximum-likelihood fits for the tests: a derivative-free
Nelder-Mead simplex, scipy's Gumbel fit and finite-difference standard
errors.

This is the estimator that ``rainmax.estimate.fit_mle`` used before every
fit went through the closed-form Newton kernel. It searches on
(mu, log sigma, xi), with the sign-constrained fits mapping xi through
+/-exp(eta), from the PWM start, then a small shape grid, and reseeds the
free fit from the Gumbel solution when it lands below it. The Gumbel
solution is ``scipy.stats.gumbel_r.fit``, a bracketed root of the same
profiled scale equation that the kernel solves by Newton. It also keeps
the profile-interval search that the package ran before its endpoints were
refined by regula falsi: one sample's march outward from the MLE, refined
by Brent's method (scipy's ``brentq`` steps, one loop calling its
function), over ``profile_loglik``, the one-row case of the fixed-shape
solve. The module name starts with an underscore so that pytest does not
collect it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize
from scipy.stats import gumbel_r

from rainmax.estimate import (
    _XI_SEARCH_RANGE,
    CONSTRAINTS,
    FitError,
    FitResult,
    ProfileInterval,
    _chi2_1_quantile,
    _profile_rows,
    _search_error,
    _validate_sample,
    fit_pwm,
)
from rainmax.gev import XI_EPS, GevParams, log_likelihood

_FTOL = 1e-8
_MAX_ITER = 2000
_MULTISTART_XI = (-0.3, 0.0, 0.3)


def _encode(params: GevParams, constraint: str) -> np.ndarray:
    if constraint == "free":
        return np.array([params.mu, math.log(params.sigma), params.xi])
    if constraint == "frechet":
        return np.array([params.mu, math.log(params.sigma), math.log(max(params.xi, 0.02))])
    return np.array([params.mu, math.log(params.sigma), math.log(max(-params.xi, 0.02))])


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


def finite_difference_se(
    params: GevParams,
    x: np.ndarray,
    free: tuple[bool, bool, bool] = (True, True, True),
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


def scipy_gumbel_fit(x: np.ndarray) -> FitResult:
    """The Gumbel fit of ``scipy.stats.gumbel_r.fit``, with finite-difference
    standard errors (0 for the shape) and no iteration count."""
    loc, scale = gumbel_r.fit(x)
    params = GevParams(float(loc), float(scale), 0.0)
    se = finite_difference_se(params, x, free=(True, True, False))
    return FitResult(params, "mle", "gumbel", log_likelihood(params, x), se, True, 0)


def nelder_mead_fit(data: object, constraint: str = "free") -> FitResult:
    """The simplex fit under a family constraint, with finite-difference
    standard errors; the Gumbel fit is ``scipy_gumbel_fit``."""
    if constraint not in CONSTRAINTS:
        raise ValueError(f"constraint must be one of {CONSTRAINTS}, got {constraint!r}")
    x = _validate_sample(data, min_distinct=5)
    if constraint == "gumbel":
        return scipy_gumbel_fit(x)

    try:
        pwm = fit_pwm(x).params
    except (FitError, ValueError):
        sigma0 = x.std() * math.sqrt(6.0) / math.pi
        pwm = GevParams(x.mean() - np.euler_gamma * sigma0, sigma0, 0.0)

    if constraint == "free":
        start_shapes = (float(np.clip(pwm.xi, -0.45, 0.45)),)
        grid = _MULTISTART_XI
    elif constraint == "frechet":
        start_shapes = (max(pwm.xi, 0.05),)
        grid = (0.05, 0.15, 0.3)
    else:
        start_shapes = (min(pwm.xi, -0.05),)
        grid = (-0.05, -0.15, -0.3)

    attempts: list[tuple[GevParams, float, int]] = []
    for xi0 in start_shapes + grid:
        try:
            start = _feasible_start(x, _encode(GevParams(pwm.mu, pwm.sigma, xi0), constraint), constraint)
        except FitError:
            continue
        params, ll, ok, nit = _run_simplex(x, start, constraint)
        if ok and params is not None and np.isfinite(ll):
            attempts.append((params, ll, nit))
            break

    if constraint == "free":
        # the free optimum can never score below the nested Gumbel one; when
        # the simplex lands under it, reseed from the exact Gumbel solution
        gum = scipy_gumbel_fit(x)
        if not attempts or max(ll for _, ll, _ in attempts) < gum.loglik:
            start = np.array([gum.params.mu, math.log(gum.params.sigma), 0.0])
            params, ll, ok, nit = _run_simplex(x, start, constraint)
            if params is not None and np.isfinite(ll) and ll >= gum.loglik:
                attempts.append((params, ll, nit))
            else:
                attempts.append((gum.params, gum.loglik, gum.iterations))

    if not attempts:
        raise FitError(f"MLE did not converge under constraint {constraint!r}")
    params, ll, nit = max(attempts, key=lambda t: t[1])
    return FitResult(
        params=params,
        method="mle",
        constraint=constraint,
        loglik=log_likelihood(params, x),
        std_errors=finite_difference_se(params, x),
        converged=True,
        iterations=nit,
    )


def nelder_mead_profile_loglik(x, xi, start):
    """Reference fixed-shape maximization: a Nelder-Mead simplex on
    (mu, log sigma) from a start widened into the support."""
    if abs(xi) < XI_EPS:
        fit = scipy_gumbel_fit(x)
        return fit.loglik, (fit.params.mu, fit.params.sigma)

    def nll(theta):
        sigma = math.exp(theta[1])
        if not np.isfinite(sigma) or sigma <= 0:
            return np.inf
        return -log_likelihood(GevParams(theta[0], sigma, xi), x)

    theta = np.array([start[0], math.log(start[1])])
    for _ in range(80):
        if np.isfinite(nll(theta)):
            break
        theta[1] += math.log(1.5)
    else:
        return -np.inf, start
    res = minimize(
        nll, theta, method="Nelder-Mead", options={"xatol": 1e-9, "fatol": 1e-10, "maxiter": 2000}
    )
    return -float(res.fun), (float(res.x[0]), float(math.exp(res.x[1])))


def brent_root_loop(f, a, b, xtol):
    """Brent's method as one loop that calls ``f``: scipy's ``brentq``
    steps, from bracket ends ``a`` and ``b`` given with their values.
    Returns the root and the iterations taken."""
    (xpre, fpre), (xcur, fcur) = a, b
    if fpre == 0:
        return xpre, 0
    if fcur == 0:
        return xcur, 0
    xblk = fblk = spre = scur = 0.0
    for iteration in range(1, 101):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + 4.0 * np.finfo(float).eps * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0 or abs(sbis) < delta:
            return xcur, iteration
        short = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            short = 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise FitError(f"root not bracketed within {xtol} after 100 iterations")


def profile_loglik(x, xi, start):
    """The profile log-likelihood of one sample at shape ``xi`` and its
    (mu, sigma), from ``start`` = (mu, sigma): the one-row case of
    ``_profile_rows``. Raises the FitError of a failed solve."""
    mu, eta = np.array([start[0]]), np.array([math.log(start[1])])
    (ll,), (mu,), (eta,), (status,) = _profile_rows(x[None, :], np.array([xi]), mu, eta)
    if status:
        raise _search_error(int(status), float(xi))
    return float(ll), (float(mu), math.exp(eta))


def profile_ci_loop(x, level, free):
    """One sample's profile interval by the march-plus-Brent loop, each
    shape solved by ``profile_loglik`` from the nearest shape solved."""
    lmax, threshold = free.loglik, _chi2_1_quantile(level)
    xi_hat = float(np.clip(free.params.xi, *_XI_SEARCH_RANGE))
    warm = [(xi_hat, (free.params.mu, free.params.sigma))]

    def deviance(xi):
        start = min(warm, key=lambda item: abs(item[0] - xi))[1]
        ll, opt = profile_loglik(x, xi, start)
        warm.append((xi, opt))
        return 2.0 * (lmax - ll)

    def find_endpoint(direction):
        bound = _XI_SEARCH_RANGE[1] if direction > 0 else _XI_SEARCH_RANGE[0]
        inner, f_inner = xi_hat, None
        while True:
            outer = inner + 0.1 * direction
            if (direction > 0 and outer >= bound) or (direction < 0 and outer <= bound):
                outer = bound
            f_outer = deviance(outer) - threshold
            if f_outer > 0:
                break
            if outer == bound:
                side = "upper" if direction > 0 else "lower"
                raise FitError(
                    f"profile deviance stays below the threshold at xi={bound}; "
                    f"{side} endpoint unbounded in {_XI_SEARCH_RANGE}"
                )
            inner, f_inner = outer, f_outer
        if f_inner is None:
            f_inner = deviance(inner) - threshold
        a, b = sorted([(inner, f_inner), (outer, f_outer)])
        return float(brent_root_loop(lambda v: deviance(v) - threshold, a, b, 1e-6)[0])

    upper = find_endpoint(+1.0)
    return ProfileInterval(lower=find_endpoint(-1.0), upper=upper, level=level)
