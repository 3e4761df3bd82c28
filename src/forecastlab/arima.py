"""Seasonal ARIMA benchmark fitted by conditional sum of squares.

Differencing applies seasonal passes first, then ordinary ones. On the
differenced series w the model is

    w_t = c + sum_k a_k w_{t-k} + e_t + sum_k b_k e_{t-k}

where a and b are the expanded products of the nonseasonal and seasonal
AR/MA polynomials. Innovations condition on the first len(a) values of w
and on zero pre-sample innovations; the CSS objective sums the squared
innovations and is minimized by a derivative-free simplex search started
from the zero vector plus four seeded perturbations. One recursion,
built by `_innovations` once per differenced series and order, computes
the innovations for the CSS objective, `forecast` and the AIC of order
selection: the lagged design of w, the parameter slice bounds and which
polynomials have a seasonal factor depend on the order alone, so each
evaluation only slices, expands the seasonal products, multiplies and
filters.

Innovations are linear in w and the intercept. So when w reaches 2**250,
where its squares would soon overflow, `fit_css` and the selection AIC work
on w divided by a power of two, exactly: `fit_css` scales the intercept and
the CSS back, and the selection AIC adds 2 n log(unit) for its n
innovations; `forecast` needs no scaling.

Each evaluation reads the parameters as the list of Python floats the
simplex holds, and `_expand` expands a lag polynomial from it by
scattering each coefficient and each nonseasonal-by-seasonal product to
its own lag, as `fit_css`'s root checks and `forecast` do from the fitted
parameters. No two terms share a lag, because `ArimaOrder` rejects p >= s
with P >= 1 and q >= s with Q >= 1, as statsmodels' SARIMAX does. So every lag holds
the value that `np.convolve` of the two factors gives, which adds the one
product to exact zeros (only the sign of a zero lag may differ).

No ufunc of an evaluation takes a Python float operand, which numpy
would wrap on every call: the intercept is written into a 0-d float64
array, and the MA lags into the filter's denominator buffer after its
leading 1.0, both made once per order. The AR product is subtracted in
place from a fresh `target - c`, so each call still returns a new array,
which `forecast` and the selection AIC keep.

The simplex search (Nelder & Mead 1965, Computer Journal 7(4)) repeats
scipy 1.17.1 `scipy.optimize._optimize._minimize_neldermead` with
adaptive=False, no bounds, no maxfev and no callback, operation for
operation, on lists of Python floats: every vertex update is the same IEEE
double arithmetic in the same order, and the centroid adds each column in
row order to 0.0 as `np.add.reduce` does. A reorder whose ascending order
is unique (one new value, not NaN and tied with none of the others) moves
the new vertex to its place by bisection; every other reorder stays on
numpy's argsort, whose order of tied values is scipy's. So a fit is
byte-identical to `minimize(method="Nelder-Mead")` without importing
scipy.optimize.

The MA filter is `_linear_filter`, scipy's compiled direct-form II
transposed kernel from the `scipy.signal._sigtools` extension, called with
the arguments `scipy.signal.lfilter` passes it whenever the denominator has
more than one coefficient, as every MA order's does. So each innovation is
lfilter's to the bit, without lfilter's Python-side checks and without
running `scipy/signal/__init__.py`, which imports most of scipy. The
extension is loaded by `evaluation.scipy_extension`, the loader that also
gives the DM test its tails, the first time an order with MA terms is built,
once per process, and registered under its package name, so a later
`import scipy.signal` reuses it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import product, repeat
from operator import add
from typing import NamedTuple

import numpy as np

from .evaluation import pow2_scaled, scipy_extension

# the numerator of every MA filter; the kernel reads it and never writes it
ONE = np.ones(1)
ONE.flags.writeable = False


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
        if (self.P and self.p >= self.s) or (self.Q and self.q >= self.s):
            raise ArimaError(f"{self.label()} puts lag(s) in both the "
                             f"seasonal and non-seasonal components: p must "
                             f"be < s when P > 0, and q < s when Q > 0")

    @property
    def n_params(self) -> int:
        return 1 + self.p + self.q + self.P + self.Q  # incl. intercept

    @property
    def k_ar(self) -> int:  # degree of the expanded AR polynomial
        return self.p + self.s * self.P

    @property
    def bounds(self) -> tuple[int, int, int]:
        """Where phi, theta and Phi end in the parameter list laid out as
        [c, phi_1..p, theta_1..q, Phi_1..P, Theta_1..Q]."""
        i = 1 + self.p
        j = i + self.q
        return i, j, j + self.P

    def split(self, theta) -> tuple:
        """(c, phi, theta, Phi, Theta) of a parameter list laid out as
        `bounds` reads it."""
        i, j, k = self.bounds
        return theta[0], theta[1:i], theta[i:j], theta[j:k], theta[k:]

    def label(self) -> str:
        base = f"({self.p},{self.d},{self.q})"
        if self.s > 1:
            return base + f"({self.P},{self.D},{self.Q})[{self.s}]"
        return base


@dataclass(frozen=True)
class ArimaFit:
    """The coefficients `forecast` reads, in y's units, and the solver's
    status: the CSS and convergence of the best simplex walk, and whether
    the AR and MA roots lie outside the unit circle. The selection AIC is
    computed over the candidates' common innovation window, so no fit
    keeps it."""

    order: ArimaOrder
    intercept: float
    ar: tuple[float, ...]
    ma: tuple[float, ...]
    sar: tuple[float, ...]
    sma: tuple[float, ...]
    css: float
    converged: bool
    ar_stationary: bool
    ma_invertible: bool

    @property
    def theta(self) -> list:
        """The parameters as the list `ArimaOrder.split` reads."""
        return [self.intercept, *self.ar, *self.ma, *self.sar, *self.sma]


def _chain(y, d: int, D: int, s: int) -> list[np.ndarray]:
    """y and each series after it along the differencing chain: D seasonal
    differences, then d ordinary ones. The last is the differenced series."""
    y = np.asarray(y, dtype=float)
    if len(y) <= d + D * s:
        raise ArimaError(f"series of length {len(y)} too short for "
                         f"d={d}, D={D}, s={s}")
    chain = [y]
    for _ in range(D):
        chain.append(chain[-1][s:] - chain[-1][:-s])
    for _ in range(d):
        chain.append(np.diff(chain[-1]))
    return chain


def difference(y, d: int, D: int = 0, s: int = 1) -> np.ndarray:
    """Apply D seasonal differences, then d ordinary ones."""
    return _chain(y, d, D, s)[-1]


def _expand(coefs, scoefs, s: int, cross: float) -> list:
    """Lags 1.. of (1 + sum_i c_i L^i)(1 + sum_k C_k L^{ks}) for n = len(coefs)
    < s (or no scoefs): c_i at lag i, C_k at lag ks, cross * (c_i * C_k) at
    lag i + ks and 0.0 at every other lag up to n + s * len(scoefs).
    cross=-1.0 gives the AR lags a_k of w_t = c + sum a_k w_{t-k} + ... from
    (1 - sum phi_i L^i)(1 - sum Phi_k L^{ks}); cross=1.0 the MA lags b_k of
    e_t + sum b_k e_{t-k}."""
    lags = list(coefs)
    gap = [0.0] * (s - len(lags) - 1)
    for C in scoefs:
        lags += gap
        lags.append(C)
        lags += [cross * (c * C) for c in coefs]
    return lags


def _innovations(w, order: ArimaOrder):
    """theta -> conditional innovations of w under `order`, for t >= order.k_ar,
    with pre-sample innovations zero. theta is a list laid out as
    `ArimaOrder.split` reads it. What depends on the order alone is worked
    out once here, not per call: the AR lag design, the parameter slice
    bounds, the filter kernel lookup and whether a polynomial has a seasonal
    factor to expand (without one, `_expand` returns its coefficients)."""
    k_ar, s = order.k_ar, order.s
    i, j, k = order.bounds
    has_ma = bool(order.q or order.Q)
    if k_ar:  # row t - k_ar of lagged holds w_{t-1}, ..., w_{t-k_ar}
        idx = np.arange(k_ar, len(w))[:, None] - np.arange(1, k_ar + 1)[None, :]
        lagged, target = w[idx], w[k_ar:]
        dot = lagged.dot
    if has_ma:
        linear_filter = scipy_extension("signal", "_sigtools")._linear_filter
        den = np.ones(1 + order.q + s * order.Q)  # [1, b_1, b_2, ...]
    seasonal_ar, seasonal_ma = bool(order.P), bool(order.Q)
    subtract = np.subtract
    c = np.zeros(())  # the intercept as a float64 operand

    def innovations(theta) -> np.ndarray:
        c[()] = theta[0]
        if k_ar:
            a = theta[1:i]
            if seasonal_ar:
                a = _expand(a, theta[j:k], s, -1.0)
            z = subtract(target, c)
            subtract(z, dot(a), z)
        else:
            z = subtract(w, c)
        if has_ma:
            b = theta[i:j]
            if seasonal_ma:
                b = _expand(b, theta[k:], s, 1.0)
            # e_t = z_t - sum b_k e_{t-k}, zero initial conditions; lfilter's
            # own call for a denominator of more than one coefficient
            den[1:] = b
            z = linear_filter(ONE, den, z, -1)
        return z

    return innovations


def _css_objective(w, order: ArimaOrder):
    """theta -> conditional sum of squared innovations of w under `order`
    (1e300 where theta or the sum is not finite); theta is a list of
    Python floats, as `_innovations` reads it."""
    innovations = _innovations(w, order)

    def css(theta) -> float:
        if not all(map(math.isfinite, theta)):
            return 1e300
        z = innovations(theta)
        val = float(z.dot(z))
        return val if math.isfinite(val) else 1e300

    return css


class _Simplex(NamedTuple):
    x: list
    fun: float
    nit: int
    success: bool


def _centroid(vertices) -> list:
    """`np.add.reduce(vertices, 0) / len(vertices)` on lists: each column
    added in row order to 0.0, as numpy does (so -0.0 columns sum to 0.0).
    Not `sum`, which compensates from Python 3.12. The running sums are
    one lazy `map(add, ...)` per row, so no Python frame runs per column."""
    n = len(vertices)
    sums = repeat(0.0)
    for row in vertices:
        sums = map(add, sums, row)
    return [v / n for v in sums]


def _by_value(sim, fsim) -> tuple[list, list]:
    """Vertices and values reordered by numpy's default argsort of fsim,
    whose order of tied values (unstable, and not that of `sorted`) is
    scipy's. `_nelder_mead` falls back to it whenever that order could
    differ from the one ascending order (a shrink, a tie, two NaNs)."""
    ind = np.array(fsim).argsort().tolist()
    return [sim[i] for i in ind], [fsim[i] for i in ind]


def _ascending(values) -> bool:
    """True when each value is < the next: no two compare equal (-0.0 ==
    0.0 counts as a tie) and, but for a lone value, none is NaN."""
    return all(u < v for u, v in zip(values, values[1:]))


def _nelder_mead(func, x0, maxiter: int, xatol: float,
                 fatol: float) -> _Simplex:
    """scipy 1.17.1 `_minimize_neldermead` with adaptive=False, no bounds,
    maxfev or callback, on lists of Python floats: the same initial simplex
    (x0, then x0 with entry k scaled by 1.05, or set to 0.00025 where it is
    0), the same `np.argsort` reorders (twice before the loop, as there),
    the same reflect/expand/contract/shrink arithmetic, and each vertex
    handed to `func` as the list it holds, where scipy hands a fresh float64
    array; `func` must not change it. Its coefficients rho=1, chi=2,
    psi=sigma=0.5 are folded into the constants 2, 3, 1.5 and 0.5 that scipy
    forms from them, and its exact multiplications by rho=1 are dropped, so
    every rounding step is scipy's. The f-spread is tested
    first, because both tests are pure, and from the two end values alone:
    fsim is in argsort's order at the top of each pass (ascending, NaN
    last) and rounding is monotone, so `abs(fsim[0] - fsim[-1])` is the
    largest `abs(fsim[0] - fv)`, and a NaN anywhere makes it NaN, which
    fails the test as scipy's NaN-propagating `max(abs(d)) <= tol` does.
    The x-spread test `all(abs(d) <= tol)` has that truth value too.

    An iteration that is not a shrink replaces only the worst vertex, and
    the other N are in argsort's order. The new value is never NaN: it won
    a `<` or `<=` comparison. When the other N values strictly ascend (one
    of them alone may be NaN, which sorts last) and the new value equals
    none of them, the order of all N + 1 values is unique, so argsort,
    stable or not, gives it: the new vertex is moved to its `bisect_left`
    place instead. Any other reorder (a shrink, a tie, two NaNs) stays on
    `_by_value`."""
    x0 = list(map(float, x0))
    N = len(x0)
    sim = [x0]
    for k in range(N):
        vertex = list(x0)
        vertex[k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
        sim.append(vertex)

    fsim = [func(vertex) for vertex in sim]
    sim, fsim = _by_value(*_by_value(sim, fsim))  # scipy sorts twice here
    ordered = _ascending(fsim[:-1])  # the N values that stay in place

    iterations = 1
    while iterations < maxiter:
        best, worst = sim[0], sim[-1]
        if (abs(fsim[0] - fsim[-1]) <= fatol
                and all(abs(v - b) <= xatol
                        for vertex in sim[1:] for v, b in zip(vertex, best))):
            break
        xbar = _centroid(sim[:-1])
        xr = [2 * u - v for u, v in zip(xbar, worst)]
        fxr = func(xr)
        if fxr < fsim[0]:
            xe = [3 * u - 2 * v for u, v in zip(xbar, worst)]
            fxe = func(xe)
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
                xc = [1.5 * u - 0.5 * v for u, v in zip(xbar, worst)]
                fxc = func(xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = [0.5 * u + 0.5 * v for u, v in zip(xbar, worst)]
                fxc = func(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1] = xc
                fsim[-1] = fxc
            else:  # shrink every vertex halfway toward the best
                for j in range(1, N + 1):
                    sim[j] = [u + 0.5 * (v - u) for u, v in zip(best, sim[j])]
                    fsim[j] = func(sim[j])
                ordered = False
        iterations += 1
        if ordered:  # the other N values still strictly ascend
            fx = fsim[-1]
            k = bisect_left(fsim, fx, 0, N)
            ordered = k == N or fsim[k] != fx  # and none ties the new one
        if ordered:
            sim.insert(k, sim.pop())
            fsim.insert(k, fsim.pop())
        else:
            sim, fsim = _by_value(sim, fsim)
            ordered = _ascending(fsim[:-1])

    return _Simplex(sim[0], float(np.min(fsim)), iterations,
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
    # w / 2**k from 2**250 up, so that squares stay finite (module docstring)
    (w,), unit = pow2_scaled(difference(y, order.d, order.D, order.s))

    dim = order.n_params
    rng = np.random.default_rng(seed)
    starts = [[0.0] * dim]
    for _ in range(4):
        starts.append(rng.normal(0.0, 0.1, size=dim).tolist())

    css = _css_objective(w, order)
    # the first lowest walk; converged only when that walk met its tolerance
    best = min((_nelder_mead(css, x0, maxiter=600 * dim, xatol=1e-8,
                             fatol=1e-10) for x0 in starts),
               key=lambda res: res.fun)

    c, phi, th, sphi, sth = order.split(best.x)
    ar_ok = _poly_roots_outside_unit(_expand(phi, sphi, order.s, -1.0))
    ma_ok = _poly_roots_outside_unit(
        [-b for b in _expand(th, sth, order.s, 1.0)])
    # the sum of squares in y's units (inf beyond the float range)
    return ArimaFit(order, c * unit, tuple(phi), tuple(th), tuple(sphi),
                    tuple(sth), best.fun * unit * unit, best.success, ar_ok,
                    ma_ok)


def forecast(fit: ArimaFit, y, h: int) -> np.ndarray:
    """Recursive expectation h steps ahead under `fit.order`, inverted back
    to the y scale.

    Future innovations are zero; in-sample innovations come from the same
    conditional pass used when fitting.
    """
    if h < 1:
        raise ArimaError(f"horizon must be >= 1, got {h}")
    order = fit.order
    chain = _chain(y, order.d, order.D, order.s)
    w = chain[-1]

    a = _expand(fit.ar, fit.sar, order.s, -1.0)
    b = _expand(fit.ma, fit.sma, order.s, 1.0)
    k_ar, k_ma = len(a), len(b)
    e_in = _innovations(w, order)(fit.theta)
    m = len(w)
    w_ext = w.tolist()
    e_ext = [0.0] * k_ar + e_in.tolist() + [0.0] * h  # future innovations zero
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
    for prev in reversed(chain[order.D:-1]):
        fc = prev[-1] + np.cumsum(fc)
    # then seasonal: each season position accumulates its own steps, from
    # the last observed value at that position
    s = order.s
    for prev in reversed(chain[:order.D]):
        steps = np.concatenate([prev[-s:], fc, np.zeros(-h % s)])
        fc = np.cumsum(steps.reshape(-1, s), axis=0)[1:].ravel()[:h]
    return fc


def default_order_candidates(s: int = 12) -> list[ArimaOrder]:
    """p,q in 0..3, d in 0..1, seasonal (P,D,Q) in {0,1}^3 at period s."""
    return [ArimaOrder(p, d, q, P, D, Q, s if P or D or Q else 1)
            for P, D, Q, p, d, q in product((0, 1), (0, 1), (0, 1),
                                            range(4), (0, 1), range(4))]


def _common_window_aic(fit: ArimaFit, y, drop_front: int) -> float:
    """AIC over the innovations whose original-series index is >= drop_front,
    so candidates with different conditioning depths stay comparable."""
    order = fit.order
    (w,), unit = pow2_scaled(difference(y, order.d, order.D, order.s))
    theta = fit.theta
    theta[0] /= unit  # the intercept in the units fit_css fitted it in
    e = _innovations(w, order)(theta)
    # innovation t sits at original index d + D*s + k_ar + t
    skip = drop_front - (order.d + order.D * order.s + order.k_ar)
    e = e[max(skip, 0):]
    n = len(e)
    if not n:
        return math.inf
    # the floor absorbs optimizer noise; 2n log(unit) puts sigma2 in y's units
    sigma2 = max(float(e @ e) / n, 1e-13 * (1.0 + float(w @ w) / len(w)))
    return n * (math.log(sigma2) + 2.0 * math.log(unit)) + 2.0 * (order.n_params + 1)


def select_order(y, candidates, seed: int = 0) -> ArimaFit:
    """Fit of the minimum-AIC usable candidate (its order is `.order`):
    converged, AR part stationary and MA part invertible, as statsmodels'
    SARIMAX enforces by default (with zero pre-sample innovations, a
    non-invertible MA part's CSS can undercut the invertible minimum). Ties
    prefer fewer parameters, then earlier list position. Candidates the
    series is too short for are skipped; if that is all of them, the error
    names the first one's need. AIC is evaluated over the innovation window
    shared by every usable candidate, otherwise conditioning depth would
    distort the comparison; so it depends on the other candidates, and the
    fit returned does not keep it."""
    candidates = list(candidates)
    if not candidates:
        raise ArimaError("empty candidate list")
    y = np.asarray(y, dtype=float)
    fits, too_short = [], []
    for idx, order in enumerate(candidates):
        try:
            fit = fit_css(y, order, seed=seed)
        except ArimaError as exc:  # too short for this order
            too_short.append(exc)
            continue
        if fit.converged and fit.ar_stationary and fit.ma_invertible:
            fits.append((idx, fit))
    if len(too_short) == len(candidates):
        raise ArimaError(f"series too short for every candidate order: "
                         f"{too_short[0]}")
    if not fits:
        raise ArimaError("no candidate order produced a converged fit with a "
                         "stationary AR part and an invertible MA part")
    drop_front = max(f.order.d + f.order.D * f.order.s + f.order.k_ar
                     for _, f in fits)
    return min(fits, key=lambda t: (_common_window_aic(t[1], y, drop_front),
                                    t[1].order.n_params, t[0]))[1]
