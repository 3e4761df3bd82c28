"""Seasonal ARIMA benchmark fitted by conditional sum of squares.

Differencing applies seasonal passes first, then ordinary ones. On the
differenced series w the model is

    w_t = c + sum_k a_k w_{t-k} + e_t + sum_k b_k e_{t-k}

where a and b are the expanded products of the nonseasonal and seasonal
AR/MA polynomials. Innovations condition on the first len(a) values of w
and on zero pre-sample innovations; the CSS objective sums the squared
innovations and is minimized by a derivative-free simplex search started
from the zero vector plus four seeded perturbations. The objective is
built once per fit: the lagged design of w depends on the order alone,
so each evaluation only expands the polynomials, multiplies and filters.

The simplex search (Nelder & Mead 1965, Computer Journal 7(4)) is a port
of scipy 1.17.1 `scipy.optimize._optimize._minimize_neldermead` with
adaptive=False, no bounds, no maxfev and no callback. It repeats that code
operation for operation, so a fit is byte-identical to
`minimize(method="Nelder-Mead")` without importing scipy.optimize. The MA
filter is scipy.signal.lfilter, imported only when there is an MA
polynomial to filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class ArimaError(ValueError):
    pass


@dataclass(frozen=True)
class ArimaOrder:
    p: int = 0
    d: int = 0
    q: int = 0
    P: int = 0
    D: int = 0
    Q: int = 0
    s: int = 1

    def __post_init__(self):
        for name in ("p", "d", "q", "P", "D", "Q"):
            if getattr(self, name) < 0:
                raise ArimaError(f"{name} must be >= 0")
        if self.s < 1:
            raise ArimaError("season length must be >= 1")
        if (self.P or self.D or self.Q) and self.s <= 1:
            raise ArimaError("seasonal terms require s > 1")

    @property
    def n_params(self) -> int:
        return 1 + self.p + self.q + self.P + self.Q  # incl. intercept

    def label(self) -> str:
        base = f"({self.p},{self.d},{self.q})"
        if self.s > 1:
            return base + f"({self.P},{self.D},{self.Q})[{self.s}]"
        return base


@dataclass(frozen=True)
class ArimaFit:
    order: ArimaOrder
    intercept: float
    ar: tuple[float, ...]
    ma: tuple[float, ...]
    sar: tuple[float, ...]
    sma: tuple[float, ...]
    sigma2: float
    css: float
    aic: float
    converged: bool
    n_eff: int
    start_css: tuple[float, ...]  # objective at each multistart point
    ar_stationary: bool = True
    ma_invertible: bool = True


def difference(y, d: int, D: int = 0, s: int = 1) -> np.ndarray:
    """Apply D seasonal differences, then d ordinary ones."""
    y = np.asarray(y, dtype=float)
    if len(y) <= d + D * s:
        raise ArimaError(f"series of length {len(y)} too short for "
                         f"d={d}, D={D}, s={s}")
    for _ in range(D):
        y = y[s:] - y[:-s]
    for _ in range(d):
        y = np.diff(y)
    return y


def _stages(y, order: ArimaOrder):
    """All intermediate series along the differencing chain, for inversion."""
    y = np.asarray(y, dtype=float)
    seasonal = [y]
    for _ in range(order.D):
        cur = seasonal[-1]
        if len(cur) <= order.s:
            raise ArimaError("series too short to difference")
        seasonal.append(cur[order.s:] - cur[:-order.s])
    ordinary = [seasonal[-1]]
    for _ in range(order.d):
        cur = ordinary[-1]
        if len(cur) <= 1:
            raise ArimaError("series too short to difference")
        ordinary.append(np.diff(cur))
    return seasonal, ordinary


def _poly_lags(nonseasonal, seasonal, s: int, sign: float) -> np.ndarray:
    """Lag-1.. coefficients of (1 + sign*sum c_k L^k)(1 + sign*sum C_k L^{ks})."""
    a = np.concatenate([[1.0], sign * np.asarray(nonseasonal, dtype=float)])
    b = np.zeros(1 + len(seasonal) * s)
    b[0] = 1.0
    for k, coef in enumerate(seasonal, start=1):
        b[k * s] = sign * coef
    return np.convolve(a, b)[1:]


def _ar_lags(phi, sphi, s: int) -> np.ndarray:
    """a_k such that the AR recursion reads w_t = c + sum a_k w_{t-k} + ..."""
    return -_poly_lags(phi, sphi, s, -1.0)


def _ma_lags(theta, stheta, s: int) -> np.ndarray:
    """b_k such that the MA part reads e_t + sum b_k e_{t-k}."""
    return _poly_lags(theta, stheta, s, 1.0)


def _unpack(theta, order: ArimaOrder):
    c = theta[0]
    i = 1
    phi = theta[i:i + order.p]; i += order.p
    th = theta[i:i + order.q]; i += order.q
    sphi = theta[i:i + order.P]; i += order.P
    sth = theta[i:i + order.Q]
    return c, phi, th, sphi, sth


def _ar_design(w, k_ar: int):
    """(lagged, target) for the AR recursion: row t - k_ar of lagged holds
    w_{t-1}, ..., w_{t-k_ar} and target is w_t, for t >= k_ar."""
    idx = np.arange(k_ar, len(w))[:, None] - np.arange(1, k_ar + 1)[None, :]
    return w[idx], w[k_ar:]


def _innovations(w, c, a, b):
    """Conditional innovations for t >= len(a); pre-sample e = 0."""
    if len(a):
        lagged, target = _ar_design(w, len(a))
        z = target - c - lagged @ a
    else:
        z = w - c
    if len(b):
        from scipy.signal import lfilter

        # e_t = z_t - sum b_k e_{t-k}, zero initial conditions
        z = lfilter([1.0], np.concatenate([[1.0], b]), z)
    return z


def _css_objective(w, order: ArimaOrder):
    """theta -> conditional sum of squared innovations of w under `order`
    (1e300 where theta or the sum is not finite), computed as _innovations
    does. The AR lag design depends on the order alone, so it is built once
    here, not per evaluation, and so is the lfilter lookup."""
    has_ar = bool(order.p or order.P)
    has_ma = bool(order.q or order.Q)
    if has_ar:
        lagged, target = _ar_design(w, order.p + order.s * order.P)
    if has_ma:
        from scipy.signal import lfilter

    def css(theta) -> float:
        if not all(map(math.isfinite, theta.tolist())):
            return 1e300
        c, phi, th, sphi, sth = _unpack(theta, order)
        if has_ar:
            z = target - c - lagged @ _ar_lags(phi, sphi, order.s)
        else:
            z = w - c
        if has_ma:
            b = _ma_lags(th, sth, order.s)
            z = lfilter([1.0], np.concatenate([[1.0], b]), z)
        val = float(z @ z)
        return val if math.isfinite(val) else 1e300

    return css


class _Simplex(NamedTuple):
    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    success: bool


def _nelder_mead(func, x0, maxiter: int, xatol: float,
                 fatol: float) -> _Simplex:
    """scipy 1.17.1 `_minimize_neldermead` with adaptive=False, no bounds,
    maxfev or callback: the same initial simplex (x0, then x0 with entry k
    scaled by 1.05, or set to 0.00025 where it is 0), the same unstable
    argsort/take reorders (twice before the loop, as there), the same
    reflect/expand/contract/shrink arithmetic, and a copy of each vertex
    handed to `func`. Its coefficients rho=1, chi=2, psi=sigma=0.5 are
    folded into the constants 2, 3, 1.5 and 0.5 that scipy forms from them,
    and its exact multiplications by rho=1 are dropped, so every rounding
    step is scipy's."""
    x0 = np.asarray(x0, dtype=float).flatten()
    N = len(x0)
    nfev = 0

    def f(x):
        nonlocal nfev
        nfev += 1
        return func(np.copy(x))

    sim = np.tile(x0, (N + 1, 1))
    for k in range(N):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025

    fsim = np.array([f(vertex) for vertex in sim], dtype=float)
    ind = np.argsort(fsim)
    sim = np.take(sim, ind, 0)
    fsim = np.take(fsim, ind, 0)
    ind = np.argsort(fsim)
    fsim = np.take(fsim, ind, 0)
    sim = np.take(sim, ind, 0)

    iterations = 1
    while iterations < maxiter:
        if (np.abs(sim[1:] - sim[0]).max() <= xatol
                and np.abs(fsim[0] - fsim[1:]).max() <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            if fxe < fxr:
                sim[-1] = xe
                fsim[-1] = fxe
            else:
                sim[-1] = xr
                fsim[-1] = fxr
        elif fxr < fsim[-2]:
            sim[-1] = xr
            fsim[-1] = fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = f(xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1] = xc
                fsim[-1] = fxc
            else:  # shrink every vertex halfway toward the best
                for j in range(1, N + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    return _Simplex(sim[0], np.min(fsim), iterations, nfev,
                    iterations < maxiter)


def _poly_roots_outside_unit(coefs) -> bool:
    """True when 1 - sum coefs[k] z^{k+1} has all roots outside the unit circle."""
    coefs = np.asarray(coefs, dtype=float)
    if not len(coefs) or not coefs.any():
        return True
    poly = np.concatenate([[1.0], -coefs])  # ascending powers
    roots = np.roots(poly[::-1])
    return bool(np.all(np.abs(roots) > 1.0 + 1e-9))


def fit_css(y, order: ArimaOrder, seed: int = 0) -> ArimaFit:
    """Minimize the conditional sum of squares by Nelder-Mead multistart."""
    y = np.asarray(y, dtype=float)
    needed = order.d + order.D * order.s + 3 * (
        order.p + order.q + order.s * (order.P + order.Q)) + 10
    if len(y) < needed:
        raise ArimaError(f"need at least {needed} observations for "
                         f"{order.label()}, got {len(y)}")
    w = difference(y, order.d, order.D, order.s)

    dim = order.n_params
    rng = np.random.default_rng(seed)
    starts = [np.zeros(dim)]
    for _ in range(4):
        starts.append(rng.normal(0.0, 0.1, size=dim))

    css = _css_objective(w, order)
    best = None
    start_css = []
    any_success = False
    for x0 in starts:
        start_css.append(css(x0))
        res = _nelder_mead(css, x0, maxiter=600 * dim, xatol=1e-8,
                           fatol=1e-10)
        any_success = any_success or bool(res.success)
        if best is None or res.fun < best.fun:
            best = res
    improved = best.fun <= min(start_css) + 1e-12
    converged = bool(any_success and improved)

    c, phi, th, sphi, sth = _unpack(best.x, order)
    a = _ar_lags(phi, sphi, order.s) if (order.p or order.P) else np.empty(0)
    n_eff = len(w) - len(a)
    if n_eff < 1:
        raise ArimaError("no effective observations after conditioning")
    css = float(best.fun)
    scale = 1.0 + float(w @ w) / len(w)
    sigma2 = max(css / n_eff, 1e-13 * scale)  # floor absorbs optimizer noise
    aic = n_eff * math.log(sigma2) + 2.0 * (dim + 1)

    seasonal_ar_ok = (_poly_roots_outside_unit(a)
                      if (order.p or order.P) else True)
    seasonal_ma_ok = (_poly_roots_outside_unit(-_ma_lags(th, sth, order.s))
                      if (order.q or order.Q) else True)
    return ArimaFit(order, float(c), tuple(phi), tuple(th), tuple(sphi),
                    tuple(sth), sigma2, css, float(aic), converged, n_eff,
                    tuple(start_css), seasonal_ar_ok, seasonal_ma_ok)


def forecast(fit: ArimaFit, order: ArimaOrder, y, h: int) -> np.ndarray:
    """Recursive expectation h steps ahead, inverted back to the y scale.

    Future innovations are zero; in-sample innovations come from the same
    conditional pass used when fitting.
    """
    if h < 1:
        raise ArimaError(f"horizon must be >= 1, got {h}")
    if order != fit.order:
        raise ArimaError("order does not match the fit")
    y = np.asarray(y, dtype=float)
    seasonal, ordinary = _stages(y, order)
    w = ordinary[-1]

    a = (_ar_lags(fit.ar, fit.sar, order.s)
         if (order.p or order.P) else np.empty(0))
    b = (_ma_lags(fit.ma, fit.sma, order.s)
         if (order.q or order.Q) else np.empty(0))
    k_ar, k_ma = len(a), len(b)
    e_in = _innovations(w, fit.intercept, a, b)
    m = len(w)
    w_ext = list(w)
    e_ext = [0.0] * k_ar + list(e_in) + [0.0] * h  # future innovations zero
    for step in range(h):
        t = m + step
        val = fit.intercept
        for k in range(1, k_ar + 1):
            val += a[k - 1] * w_ext[t - k]
        for k in range(1, k_ma + 1):
            val += b[k - 1] * e_ext[t - k]  # zero beyond the sample
        w_ext.append(val)
    fc = np.asarray(w_ext[m:])

    # invert ordinary differencing, deepest stage first
    for level in range(order.d, 0, -1):
        prev = ordinary[level - 1]
        fc = prev[-1] + np.cumsum(fc)
    # then seasonal
    for level in range(order.D, 0, -1):
        prev = seasonal[level - 1]
        out = np.empty(h)
        for j in range(h):
            past = prev[len(prev) - order.s + j] if j < order.s else out[j - order.s]
            out[j] = fc[j] + past
        fc = out
    return fc


def default_order_candidates(s: int = 12) -> list[ArimaOrder]:
    """p,q in 0..3, d in 0..1, seasonal (P,D,Q) in {0,1}^3 at period s."""
    out = []
    for P in (0, 1):
        for D in (0, 1):
            for Q in (0, 1):
                for p in range(4):
                    for d in (0, 1):
                        for q in range(4):
                            seasonal = P or D or Q
                            out.append(ArimaOrder(
                                p, d, q, P, D, Q, s if seasonal else 1))
    return out


def _common_window_aic(fit: ArimaFit, y, drop_front: int) -> float:
    """AIC over the innovations whose original-series index is >= drop_front,
    so candidates with different conditioning depths stay comparable."""
    order = fit.order
    w = difference(y, order.d, order.D, order.s)
    a = (_ar_lags(fit.ar, fit.sar, order.s)
         if (order.p or order.P) else np.empty(0))
    b = (_ma_lags(fit.ma, fit.sma, order.s)
         if (order.q or order.Q) else np.empty(0))
    e = _innovations(w, fit.intercept, a, b)
    # innovation t sits at original index d + D*s + k_ar + t
    skip = drop_front - (order.d + order.D * order.s + len(a))
    e = e[max(skip, 0):]
    if not len(e):
        return math.inf
    scale = 1.0 + float(w @ w) / len(w)
    sigma2 = max(float(e @ e) / len(e), 1e-13 * scale)
    return len(e) * math.log(sigma2) + 2.0 * (order.n_params + 1)


def select_order(y, candidates, seed: int = 0) -> ArimaFit:
    """Fit of the minimum-AIC converged candidate (its order is `.order`);
    ties prefer fewer parameters, then earlier list position. Candidates
    the series is too short for are skipped. AIC is evaluated over the
    innovation window shared by every candidate, otherwise conditioning
    depth would distort the comparison."""
    candidates = list(candidates)
    if not candidates:
        raise ArimaError("empty candidate list")
    y = np.asarray(y, dtype=float)
    fits = []
    for idx, order in enumerate(candidates):
        try:
            fits.append((idx, order, fit_css(y, order, seed=seed)))
        except ArimaError:
            continue
    fits = [(i, o, f) for i, o, f in fits if f.converged]
    if not fits:
        raise ArimaError("no candidate order produced a converged fit")
    drop_front = max(o.d + o.D * o.s + o.p + o.s * o.P for _, o, _ in fits)
    best = None
    for idx, order, fit in fits:
        key = (_common_window_aic(fit, y, drop_front), order.n_params, idx)
        if best is None or key < best[0]:
            best = (key, fit)
    return best[1]
