import math

import numpy as np
import pytest
from scipy.optimize import OptimizeResult, minimize
from scipy.signal import lfilter

from forecastlab import arima
from forecastlab.arima import (
    ArimaError,
    ArimaFit,
    ArimaOrder,
    _Simplex,
    _centroid,
    _common_window_aic,
    _css_objective,
    _expand,
    _innovations,
    _nelder_mead,
    _poly_roots_outside_unit,
    default_order_candidates,
    difference,
    fit_css,
    forecast,
    select_order,
)
from forecastlab.evaluation import pow2_scaled


def sim_ar1(phi, c, n, seed, burn=50):
    rng = np.random.default_rng(seed)
    y = np.empty(n)
    x = c / (1 - phi)
    for t in range(n + burn):
        x = c + phi * x + rng.normal()
        if t >= burn:
            y[t - burn] = x
    return y


def sim_ma1(theta, c, n, seed):
    rng = np.random.default_rng(seed)
    e = rng.normal(size=n + 1)
    return c + e[1:] + theta * e[:-1]


def zero_fit(order, intercept=0.0):
    return ArimaFit(order, intercept, (0.0,) * order.p, (0.0,) * order.q,
                    (0.0,) * order.P, (0.0,) * order.Q, css=1.0,
                    converged=True, ar_stationary=True, ma_invertible=True)


def loop_unpack(theta, order):
    """Reference oracle: (c, phi, theta, Phi, Theta) sliced from an array."""
    c = theta[0]
    i = 1
    phi = theta[i:i + order.p]; i += order.p
    th = theta[i:i + order.q]; i += order.q
    sphi = theta[i:i + order.P]; i += order.P
    sth = theta[i:i + order.Q]
    return c, phi, th, sphi, sth


def loop_poly_lags(nonseasonal, seasonal, s, sign):
    """Reference oracle: lag-1.. coefficients of
    (1 + sign*sum c_k L^k)(1 + sign*sum C_k L^{ks}) by np.convolve."""
    a = np.concatenate([[1.0], sign * np.asarray(nonseasonal, dtype=float)])
    b = np.zeros(1 + len(seasonal) * s)
    b[0] = 1.0
    for k, coef in enumerate(seasonal, start=1):
        b[k * s] = sign * coef
    return np.convolve(a, b)[1:]


def loop_ar_lags(phi, sphi, s):
    return -loop_poly_lags(phi, sphi, s, -1.0)


def loop_ma_lags(theta, stheta, s):
    return loop_poly_lags(theta, stheta, s, 1.0)


def loop_css_objective(w, order):
    """Reference oracle: the CSS objective with the AR lag design built once
    and the lag polynomials expanded by np.convolve on every evaluation."""
    k_ar, s = order.k_ar, order.s
    has_ma = bool(order.q or order.Q)
    if k_ar:
        idx = np.arange(k_ar, len(w))[:, None] - np.arange(1, k_ar + 1)[None, :]
        lagged, target = w[idx], w[k_ar:]

    def css(theta):
        if not all(map(math.isfinite, theta.tolist())):
            return 1e300
        c, phi, th, sphi, sth = loop_unpack(theta, order)
        if k_ar:
            z = target - c - lagged @ loop_ar_lags(phi, sphi, s)
        else:
            z = w - c
        if has_ma:
            b = loop_ma_lags(th, sth, s)
            z = lfilter([1.0], np.concatenate([[1.0], b]), z)
        val = float(z @ z)
        return val if math.isfinite(val) else 1e300

    return css


def loop_css(theta, w, order):
    return loop_css_objective(w, order)(theta)


CSS_ORDERS = [ArimaOrder(1, 0, 0), ArimaOrder(3, 1, 0), ArimaOrder(0, 0, 1),
              ArimaOrder(0, 1, 3), ArimaOrder(2, 0, 2), ArimaOrder(1, 1, 1),
              ArimaOrder(1, 0, 0, 1, 0, 0, 4), ArimaOrder(0, 0, 0, 0, 1, 1, 4),
              ArimaOrder(2, 1, 1, 1, 1, 1, 4), ArimaOrder(0, 0, 0)]


class TestCssEquivalence:
    """The per-fit CSS objective equals the original per-call objective bit
    for bit, so Nelder-Mead walks the same simplex."""

    def test_random_evaluations(self):
        rng = np.random.default_rng(2026)
        big = 0
        for case in range(600):
            order = CSS_ORDERS[case % len(CSS_ORDERS)]
            y = np.cumsum(rng.normal(size=int(rng.integers(40, 90))))
            w = difference(y, order.d, order.D, order.s)
            css = _css_objective(w, order)
            scale = (0.05, 0.5, 3.0, 50.0)[case % 4]
            for _ in range(5):
                theta = rng.normal(0.0, scale, size=order.n_params)
                with np.errstate(over="ignore", invalid="ignore"):
                    got = css(theta.tolist())
                    want = loop_css(theta, w, order)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
                big += got == 1e300
        assert big > 0  # explosive thetas overflowed to the 1e300 sentinel

    def test_non_finite_theta(self):
        order = ArimaOrder(1, 0, 1)
        w = np.linspace(-1.0, 1.0, 30)
        css = _css_objective(w, order)
        for bad in (np.nan, np.inf, -np.inf):
            theta = np.array([0.1, bad, 0.2])
            assert css(theta.tolist()) == loop_css(theta, w, order) == 1e300

    @pytest.mark.parametrize("order", CSS_ORDERS[::3])
    def test_nelder_mead_walk(self, order):
        rng = np.random.default_rng(9)
        y = np.cumsum(rng.normal(size=70))
        w = difference(y, order.d, order.D, order.s)
        x0 = rng.normal(0.0, 0.1, size=order.n_params)
        opts = {"maxiter": 200 * order.n_params, "xatol": 1e-8, "fatol": 1e-10}
        css = _css_objective(w, order)
        got = minimize(lambda x: css(x.tolist()), x0, method="Nelder-Mead",
                       options=opts)
        want = minimize(loop_css, x0, args=(w, order), method="Nelder-Mead",
                        options=opts)
        assert got.x.tobytes() == want.x.tobytes()
        assert (got.fun, got.nfev, got.nit) == (want.fun, want.nfev, want.nit)


def planted_thetas(rng, dim, count):
    """Random thetas at three scales; six in eight have -0.0, NaN, +-inf or
    +-1e300 (whose products overflow) planted in some entries."""
    out = []
    for n in range(count):
        theta = rng.normal(0.0, (0.02, 0.15, 0.8)[n % 3], size=dim)
        hit = rng.random(dim) < 0.4
        plant = (None, -0.0, np.nan, np.inf, -np.inf, 1e300, -1e300,
                 None)[n % 8]
        if plant is not None:
            theta[hit] = plant
        out.append(theta)
    return out


def scatter_orders():
    """Every p, q < s at s in {2, 3, 4, 12}, with P, Q in 0..2 in turn."""
    for s in (2, 3, 4, 12):
        for n, (p, q) in enumerate((p, q) for p in range(s)
                                   for q in range(s)):
            P, Q = ((1, 1), (2, 1), (1, 2), (0, 1), (1, 0), (2, 2))[n % 6]
            yield ArimaOrder(p, 0, q, P, 0, Q, s)


class TestLagScatter:
    """The lag polynomials expanded by scattering each coefficient and
    product to its own lag give the CSS objective of the np.convolve
    expansion bit for bit, and equal lag vectors (==, since the sign of a
    zero lag may differ)."""

    def test_css_and_lags_equal_the_convolution(self):
        rng = np.random.default_rng(909)
        seen = []
        for order in scatter_orders():
            w = np.cumsum(rng.normal(size=order.k_ar + 30))
            got_css = _css_objective(w, order)
            want_css = loop_css_objective(w, order)
            for theta in planted_thetas(rng, order.n_params, 30):
                with np.errstate(over="ignore", invalid="ignore"):
                    got, want = got_css(theta.tolist()), want_css(theta)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
                seen.append(got)
                if not np.all(np.isfinite(theta)):
                    continue
                c, phi, th, sphi, sth = loop_unpack(theta, order)
                with np.errstate(over="ignore"):
                    pairs = ((np.array(_expand(phi, sphi, order.s, -1.0)),
                              loop_ar_lags(phi, sphi, order.s)),
                             (np.array(_expand(th, sth, order.s, 1.0)),
                              loop_ma_lags(th, sth, order.s)))
                for lags, loop in pairs:
                    assert lags.dtype == np.float64
                    assert lags.shape == loop.shape
                    assert np.array_equal(lags, loop)
        assert len(seen) >= 5000
        # 3/8 of the thetas are not finite, 2/8 hold +-1e300 entries
        assert seen.count(1e300) > 2000 and len(set(seen)) > 1500


def loop_innovations(w, c, a, b):
    """Reference oracle: innovations from expanded lags a and b, with the AR
    design rebuilt on every call."""
    if len(a):
        k_ar = len(a)
        idx = np.arange(k_ar, len(w))[:, None] - np.arange(1, k_ar + 1)[None, :]
        z = w[k_ar:] - c - w[idx] @ a
    else:
        z = w - c
    if len(b):
        z = lfilter([1.0], np.concatenate([[1.0], b]), z)
    return z


def loop_lags(fit):
    order = fit.order
    a = (loop_ar_lags(fit.ar, fit.sar, order.s)
         if (order.p or order.P) else np.empty(0))
    b = (loop_ma_lags(fit.ma, fit.sma, order.s)
         if (order.q or order.Q) else np.empty(0))
    return a, b


def loop_stages(y, order):
    """Reference oracle: every series along the differencing chain, kept
    as (seasonal stages, ordinary stages)."""
    y = np.asarray(y, dtype=float)
    seasonal = [y]
    for _ in range(order.D):
        cur = seasonal[-1]
        seasonal.append(cur[order.s:] - cur[:-order.s])
    ordinary = [seasonal[-1]]
    for _ in range(order.d):
        ordinary.append(np.diff(ordinary[-1]))
    return seasonal, ordinary


def loop_forecast(fit, order, y, h):
    """Reference oracle: the recursive forecast with its own differencing
    stages, lag expansion and innovations pass."""
    seasonal, ordinary = loop_stages(y, order)
    w = ordinary[-1]
    a, b = loop_lags(fit)
    k_ar, k_ma = len(a), len(b)
    e_in = loop_innovations(w, fit.intercept, a, b)
    m = len(w)
    w_ext = list(w)
    e_ext = [0.0] * k_ar + list(e_in) + [0.0] * h
    for step in range(h):
        t = m + step
        val = fit.intercept
        for k in range(1, k_ar + 1):
            val += a[k - 1] * w_ext[t - k]
        for k in range(1, k_ma + 1):
            val += b[k - 1] * e_ext[t - k]
        w_ext.append(val)
    fc = np.asarray(w_ext[m:])
    for level in range(order.d, 0, -1):
        fc = ordinary[level - 1][-1] + np.cumsum(fc)
    for level in range(order.D, 0, -1):
        prev = seasonal[level - 1]
        out = np.empty(h)
        for j in range(h):
            past = prev[len(prev) - order.s + j] if j < order.s else out[j - order.s]
            out[j] = fc[j] + past
        fc = out
    return fc


def loop_common_window_aic(fit, y, drop_front):
    """Reference oracle for the AIC over the shared innovation window."""
    order = fit.order
    w = difference(y, order.d, order.D, order.s)
    a, b = loop_lags(fit)
    e = loop_innovations(w, fit.intercept, a, b)
    skip = drop_front - (order.d + order.D * order.s + len(a))
    e = e[max(skip, 0):]
    if not len(e):
        return math.inf
    scale = 1.0 + float(w @ w) / len(w)
    sigma2 = max(float(e @ e) / len(e), 1e-13 * scale)
    return len(e) * math.log(sigma2) + 2.0 * (order.n_params + 1)


def fit_bytes(fit):
    """Every number of a fit as float64 bytes, so -0.0 and NaN count."""
    values = [fit.intercept, *fit.ar, *fit.ma, *fit.sar, *fit.sma, fit.css]
    return (fit.order, np.array(values, dtype=float).tobytes(),
            fit.converged, fit.ar_stationary, fit.ma_invertible)


# every CSS order, plus seasonal differencing at the monthly period and a
# chain of two seasonal and two ordinary differences
ONE_PATH_ORDERS = CSS_ORDERS + [ArimaOrder(1, 0, 1, 1, 1, 0, 12),
                                ArimaOrder(0, 1, 1, 0, 1, 1, 12),
                                ArimaOrder(2, 0, 0, 0, 1, 0, 12),
                                ArimaOrder(0, 2, 1, 0, 2, 0, 4)]


def fixture_series(seed, n=96):
    rng = np.random.default_rng(seed)
    season = np.tile(rng.normal(0.0, 2.0, size=12), n // 12 + 1)[:n]
    return np.cumsum(rng.normal(size=n)) + season


class TestOnePath:
    """forecast, the selection AIC and select_order built on the single
    differencing chain and innovations recursion equal the earlier forms
    (separate stages, guarded lag expansion, innovations from expanded
    lags) bit for bit."""

    @pytest.mark.parametrize("order", ONE_PATH_ORDERS, ids=ArimaOrder.label)
    def test_forecast_and_aic(self, order):
        y = fixture_series(31)
        fit = fit_css(y, order, seed=4)
        for h in range(1, 25):
            got = forecast(fit, y, h)
            assert got.tobytes() == loop_forecast(fit, order, y, h).tobytes()
        k = order.d + order.D * order.s + order.k_ar
        for drop_front in sorted({0, k, k + 1, k + 13, 40, len(y) + 5}):
            got = _common_window_aic(fit, y, drop_front)
            want = loop_common_window_aic(fit, y, drop_front)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_select_order(self, seed, monkeypatch):
        y = fixture_series(seed)
        candidates = [ArimaOrder(0, 0, 0), ArimaOrder(1, 0, 0),
                      ArimaOrder(0, 1, 1), ArimaOrder(2, 0, 1),
                      ArimaOrder(1, 1, 0, 1, 0, 0, 4),
                      ArimaOrder(0, 0, 1, 0, 1, 1, 12),
                      ArimaOrder(1, 0, 0, 0, 1, 0, 12)]
        got = select_order(y, candidates, seed=seed)
        monkeypatch.setattr(arima, "_css_objective", lambda w, order: (
            lambda theta: loop_css(np.array(theta), w, order)))
        monkeypatch.setattr(arima, "_common_window_aic",
                            loop_common_window_aic)
        assert fit_bytes(got) == fit_bytes(
            select_order(y, candidates, seed=seed))

    @pytest.mark.parametrize("s", [1, 12])
    def test_lags_of_absent_terms_are_empty(self, s):
        for lags in (_expand((), (), s, -1.0), _expand((), (), s, 1.0)):
            assert type(lags) is list and lags == []
            assert _poly_roots_outside_unit(lags)

    def test_k_ar_counts_the_expanded_ar_lags(self):
        for order in ONE_PATH_ORDERS:
            a = _expand((0.1,) * order.p, (0.1,) * order.P, order.s, -1.0)
            assert order.k_ar == len(a)

MA_EDGE_ORDERS = [ArimaOrder(0, 0, 1), ArimaOrder(0, 0, 3), ArimaOrder(2, 0, 2),
                  ArimaOrder(0, 0, 2, 0, 0, 1, 4),
                  ArimaOrder(1, 0, 1, 1, 0, 2, 4),
                  ArimaOrder(0, 0, 1, 0, 0, 1, 12)]


class TestFreshInnovations:
    """Each call of an `_innovations(w, order)` closure returns a new array
    that shares no memory with w or with another call's result, so a
    second call leaves the first result as it was: `forecast` and
    `_common_window_aic` keep the array they are handed, and the closure
    reuses its intercept and filter-denominator buffers between calls."""

    @pytest.mark.parametrize("order", [
        ArimaOrder(2, 0, 0), ArimaOrder(0, 0, 2), ArimaOrder(1, 0, 1),
        ArimaOrder(1, 0, 1, 1, 0, 1, 4), ArimaOrder(0, 0, 0, 1, 0, 0, 4),
        ArimaOrder(0, 0, 0, 0, 0, 1, 4), ArimaOrder(0, 0, 0)],
        ids=ArimaOrder.label)
    def test_a_second_call_leaves_the_first_result(self, order):
        rng = np.random.default_rng(31)
        w = rng.normal(size=40)
        w_before = w.tobytes()
        innovations = _innovations(w, order)
        thetas = [rng.normal(0.0, 0.3, size=order.n_params).tolist()
                  for _ in range(3)]
        results = [innovations(theta) for theta in thetas]
        for theta, got in zip(thetas, results):
            # each result is still what a fresh closure computes for it
            want = _innovations(w, order)(theta)
            assert got.tobytes() == want.tobytes()
            assert not np.shares_memory(got, w)
        for one in range(3):
            for other in range(one):
                assert not np.shares_memory(results[one], results[other])
        assert w.tobytes() == w_before


def edge_series(rng, n):
    """n draws with -0.0, +-1e300, +-inf or NaN planted in some entries."""
    w = rng.normal(size=n)
    for plant in (0.0, -0.0, 1e300, -1e300, np.inf, -np.inf, np.nan):
        w[rng.random(n) < 0.08] = plant
    return w


class TestMaFilterEdges:
    """The MA filter kernel gives scipy.signal.lfilter's bytes (the
    `loop_innovations` and `loop_css_objective` oracles) on inputs the
    benchmark never reaches: series no longer than the MA polynomial,
    non-finite and signed-zero entries, and seasonal expansions whose
    zero-coefficient lags are explicit zeros of either sign."""

    def check(self, w, order, theta):
        c, phi, th, sphi, sth = order.split(theta)
        a = np.array(_expand(phi, sphi, order.s, -1.0), dtype=float)
        b = np.array(_expand(th, sth, order.s, 1.0), dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            got = _innovations(w, order)(theta)
            want = loop_innovations(w, c, a, b)
            got_css = _css_objective(w, order)(theta)
            want_css = loop_css_objective(w, order)(np.array(theta))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert (np.float64(got_css).tobytes()
                == np.float64(want_css).tobytes())
        return got

    @pytest.mark.parametrize("order", MA_EDGE_ORDERS, ids=ArimaOrder.label)
    def test_series_shorter_than_the_polynomial(self, order):
        rng = np.random.default_rng(77)
        k_ma = order.q + order.s * order.Q
        lengths = sorted({1, 2, order.k_ar + 1, order.k_ar + k_ma,
                          order.k_ar + k_ma + 1})
        for n in lengths:
            if n <= order.k_ar:
                continue
            for _ in range(5):
                theta = rng.normal(0.0, 0.5, size=order.n_params).tolist()
                got = self.check(rng.normal(size=n), order, theta)
                assert len(got) == n - order.k_ar

    @pytest.mark.parametrize("order", MA_EDGE_ORDERS, ids=ArimaOrder.label)
    def test_signed_zero_huge_and_non_finite_entries(self, order):
        rng = np.random.default_rng(78)
        for n in (1, 9, 40):
            if n <= order.k_ar:
                continue
            for _ in range(8):
                theta = rng.normal(0.0, 0.5, size=order.n_params).tolist()
                self.check(edge_series(rng, n), order, theta)
        # a series of zeros of either sign through zero coefficients
        w = np.array([0.0, -0.0] * 10)
        for theta in ([0.0] * order.n_params, [-0.0] * order.n_params):
            self.check(w, order, theta)
            self.check(-w, order, theta)

    def test_seasonal_zero_coefficient_lags(self):
        rng = np.random.default_rng(79)
        order = ArimaOrder(0, 0, 3, 0, 0, 2, 4)
        w = rng.normal(size=50)
        for th in ([0.0, 0.0, 0.0], [0.4, 0.0, -0.0], [-0.0, 0.3, 0.0]):
            for sth in ([0.0, 0.5], [-0.0, -0.0], [0.7, 0.0]):
                theta = [0.2, *th, *sth]
                self.check(w, order, theta)
                self.check(edge_series(rng, 50), order, theta)

    def test_numerator_stays_read_only_one(self):
        y = sim_ma1(0.5, 0.2, 80, seed=3)
        for order in (ArimaOrder(0, 0, 1), ArimaOrder(0, 1, 1, 0, 1, 1, 12)):
            fit = fit_css(y, order, seed=1)
            forecast(fit, y, 6)
        assert not arima.ONE.flags.writeable
        assert arima.ONE.dtype == np.float64 and arima.ONE.shape == (1,)
        assert arima.ONE.tobytes() == np.ones(1).tobytes()
        with pytest.raises(ValueError):
            arima.ONE[0] = 2.0


def scipy_nelder_mead(func, x0, maxiter, xatol, fatol):
    """The oracle: scipy's Nelder-Mead under the options fit_css passes."""
    return minimize(func, x0, method="Nelder-Mead",
                    options={"maxiter": maxiter, "xatol": xatol,
                             "fatol": fatol})


def port_walk(func, x0, maxiter, xatol, fatol):
    """`_nelder_mead` on func of a float64 array, as scipy calls it: each
    vertex list goes to func as a fresh array, and the calls are counted
    as the walk's nfev."""
    nfev = 0

    def counted(vertex):
        nonlocal nfev
        nfev += 1
        return func(np.array(vertex))

    walk = _nelder_mead(counted, x0, maxiter, xatol, fatol)
    return walk, nfev


def scipy_walk(func, x0, maxiter, xatol, fatol):
    """scipy's walk in `_nelder_mead`'s place: func reads lists, as
    `fit_css`'s objective does, and the walk returns a `_Simplex`."""
    res = scipy_nelder_mead(lambda x: func(x.tolist()), x0, maxiter, xatol,
                            fatol)
    return _Simplex(res.x.tolist(), float(res.fun), res.nit, res.success)


def same_walk(func, x0, maxiter, xatol=1e-8, fatol=1e-10):
    """Run the port and the oracle from x0; assert they agree bit for bit."""
    got, nfev = port_walk(func, x0, maxiter, xatol, fatol)
    want = scipy_nelder_mead(func, x0, maxiter, xatol, fatol)
    assert np.array(got.x).tobytes() == want.x.tobytes()
    assert np.float64(got.fun).tobytes() == np.float64(want.fun).tobytes()
    assert (got.nit, nfev, got.success) == (want.nit, want.nfev, want.success)
    return got


def numpy_nelder_mead(func, x0, maxiter, xatol, fatol):
    """Reference oracle: the simplex on numpy arrays, scipy's code with
    rho=1, chi=2, psi=sigma=0.5 folded into its constants."""
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
            if fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = f(xc)
                accept = fxc <= fxr
            else:
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1] = xc
                fsim[-1] = fxc
            else:
                for j in range(1, N + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    return OptimizeResult(x=sim[0], fun=np.min(fsim), nit=iterations,
                          nfev=nfev, success=iterations < maxiter)


def same_as_numpy(func, x0, maxiter, xatol=1e-8, fatol=1e-10):
    """Run the list simplex and the numpy oracle from x0; assert they agree
    bit for bit."""
    got, nfev = port_walk(func, x0, maxiter, xatol, fatol)
    want = numpy_nelder_mead(func, x0, maxiter, xatol, fatol)
    assert all(type(v) is float for v in got.x)
    assert np.array(got.x).tobytes() == want.x.tobytes()
    assert np.float64(got.fun).tobytes() == np.float64(want.fun).tobytes()
    assert (got.nit, nfev, got.success) == (want.nit, want.nfev, want.success)
    return got


def starts(rng, dim):
    """Zero, all-nonzero, mixed zero/nonzero and wide starts."""
    mixed = rng.normal(0.0, 0.3, size=dim)
    mixed[rng.random(dim) < 0.5] = 0.0
    return [np.zeros(dim), rng.normal(0.0, 0.1, size=dim), mixed,
            rng.normal(0.0, 3.0, size=dim)]


def sphere(x):
    return float(((x - 0.7) ** 2).sum())


def terraced(x):
    # integer plateaus: most vertices tie exactly, so argsort order matters
    return float(np.floor(4.0 * ((x - 0.7) ** 2).sum()))


def fenced(x):
    # 1e300 outside the unit ball, which holds the minimizer near its edge
    if float(x @ x) > 1.0:
        return 1e300
    return float(((x - 0.9 / math.sqrt(len(x))) ** 2).sum())


def flat(x):
    return 1e300  # every vertex ties; the simplex can only shrink


def rosenbrock(x):
    if len(x) == 1:
        return float((1.0 - x[0]) ** 2)
    return float((100.0 * (x[1:] - x[:-1] ** 2) ** 2
                  + (1.0 - x[:-1]) ** 2).sum())


def holed(x):
    # NaN on a slab the walks cross: NaN sorts last, and a simplex that
    # holds two NaN values takes the argsort reorder
    if abs(x[0] - 0.6) < 0.05:
        return math.nan
    return sphere(x)


def signed_zero(x):
    # a ring of -0.0 beside 0.0 around the minimizer, lower inside and
    # higher outside: argsort ties -0.0 with 0.0, so their order is its own
    value = sphere(x)
    if 0.05 <= value < 0.2:
        return -0.0 if x[0] < 0.7 else 0.0
    return value - (0.05 if value < 0.05 else 0.2)


def quantised(x):
    # values on a 1/64 grid: a new value often equals a middle vertex's
    return math.floor(64.0 * sphere(x)) / 64.0


class Reorders:
    """The reorders of `_nelder_mead` walks by path. A walk sorts twice
    before its loop and reorders once after each of its nit - 1 passes;
    wrapping the module global `arima._by_value` counts the argsort
    reorders, and the other loop reorders are bisection insertions."""

    def __init__(self, monkeypatch):
        self.walks = self.passes = self.sorts = 0
        by_value = arima._by_value

        def counted(sim, fsim):
            self.sorts += 1
            return by_value(sim, fsim)

        monkeypatch.setattr(arima, "_by_value", counted)

    def add(self, walk):
        self.walks += 1
        self.passes += walk.nit - 1

    @property
    def fallbacks(self):
        return self.sorts - 2 * self.walks

    @property
    def insertions(self):
        return self.passes - self.fallbacks


class TestNelderMead:
    """arima._nelder_mead walks scipy's simplex bit for bit: the same x
    bytes, fun, nit, nfev and success as minimize(method="Nelder-Mead") on
    30 CSS walks, 256 synthetic walks over dimensions 1-8 (NaN, -0.0/0.0
    and quantised objectives among them, so both reorder paths run) and 24
    walks stopped by maxiter. fit_css gives the same ArimaFit with either."""

    @pytest.mark.parametrize("order", CSS_ORDERS, ids=ArimaOrder.label)
    def test_css_walks(self, order):
        rng = np.random.default_rng(17)
        y = np.cumsum(rng.normal(size=48))
        w = difference(y, order.d, order.D, order.s)
        css = _css_objective(w, order)
        for x0 in starts(rng, order.n_params)[:3]:
            with np.errstate(over="ignore", invalid="ignore"):
                same_walk(lambda x: css(x.tolist()), x0, 600 * order.n_params)

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_synthetic_walks(self, dim, monkeypatch):
        rng = np.random.default_rng(dim)
        reorders = Reorders(monkeypatch)
        seen = {}
        for func in (sphere, terraced, fenced, flat, rosenbrock, holed,
                     signed_zero, quantised):
            values = seen[func] = []

            def tallied(x, func=func, values=values):
                values.append(func(x))
                return values[-1]

            for x0 in starts(rng, dim):
                reorders.add(same_walk(tallied, x0, 100 * dim, xatol=1e-4,
                                       fatol=1e-4))
        assert len(set(seen[terraced])) < len(seen[terraced])  # exact ties
        assert 1e300 in seen[fenced] and min(seen[fenced]) < 1e300
        assert any(map(math.isnan, seen[holed]))
        zeros = {math.copysign(1.0, v) for v in seen[signed_zero] if v == 0}
        assert zeros == {-1.0, 1.0}
        assert reorders.insertions >= 50 and reorders.fallbacks >= 50

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_maxiter_cap(self, dim):
        rng = np.random.default_rng(100 + dim)
        capped = 0
        for func, maxiter in ((rosenbrock, 3), (terraced, 10),
                              (rosenbrock, 25)):
            got = same_walk(func, rng.normal(0.0, 1.0, size=dim), maxiter)
            assert got.success == (got.nit < maxiter)
            capped += not got.success
        assert capped >= 2

    def test_fit_css_unchanged_under_scipy(self, monkeypatch):
        rng = np.random.default_rng(5)
        y = (np.cumsum(rng.normal(size=48))
             + np.tile(0.3 * np.arange(12.0), 4))
        ported = {}
        for order in default_order_candidates():
            if order.n_params > 3 or len(ported) == 24:
                continue
            try:
                ported[order] = fit_css(y, order, seed=3)
            except ArimaError:
                pass
        monkeypatch.setattr(arima, "_nelder_mead", scipy_walk)
        assert len(ported) == 24
        for order, fit in ported.items():
            assert fit_css(y, order, seed=3) == fit


def scribbled(x):
    # overwrites its argument, which must be a fresh float64 copy
    assert type(x) is np.ndarray and x.dtype == np.float64
    value = sphere(x)
    x[:] = 123.0
    return value


class TestPythonSimplex:
    """The simplex on Python floats walks the numpy-array simplex bit for
    bit on the CSS and synthetic walks of TestNelderMead, from starts that
    also hold -0.0 entries, and its centroid adds rows as np.add.reduce."""

    @pytest.mark.parametrize("order", CSS_ORDERS, ids=ArimaOrder.label)
    def test_css_walks(self, order):
        rng = np.random.default_rng(17)
        y = np.cumsum(rng.normal(size=48))
        w = difference(y, order.d, order.D, order.s)
        css = _css_objective(w, order)
        for x0 in starts(rng, order.n_params):
            with np.errstate(over="ignore", invalid="ignore"):
                same_as_numpy(lambda x: css(x.tolist()), x0,
                              600 * order.n_params)

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_synthetic_walks(self, dim, monkeypatch):
        rng = np.random.default_rng(dim)
        reorders = Reorders(monkeypatch)
        for func in (sphere, terraced, fenced, flat, rosenbrock, scribbled,
                     holed, signed_zero, quantised):
            for x0 in starts(rng, dim) + [-starts(rng, dim)[2]]:
                reorders.add(same_as_numpy(func, x0, 100 * dim, xatol=1e-4,
                                           fatol=1e-4))
        assert reorders.insertions >= 50 and reorders.fallbacks >= 50

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_maxiter_cap(self, dim):
        rng = np.random.default_rng(100 + dim)
        for func, maxiter in ((rosenbrock, 3), (terraced, 10),
                              (rosenbrock, 25)):
            same_as_numpy(func, rng.normal(0.0, 1.0, size=dim), maxiter)

    def test_centroid_adds_rows_in_order(self):
        # numpy adds to 0.0, so -0.0 columns sum to 0.0, and 1e16 + 1.0 -
        # 1e16 rounds to 0.0 (1.0 when compensated, as sum() is from 3.12)
        rows = [[-0.0, 1e16, 0.1], [-0.0, 1.0, 0.2], [-0.0, -1e16, 0.3]]
        want = np.add.reduce(np.array(rows), 0) / 3
        assert np.array(_centroid(rows)).tobytes() == want.tobytes()
        rng = np.random.default_rng(4)
        for n in range(1, 10):
            for _ in range(20):
                rows = rng.normal(0.0, 10.0 ** rng.integers(-3, 17),
                                  size=(n, n))
                want = np.add.reduce(rows, 0) / n
                got = np.array(_centroid(rows.tolist()))
                assert got.tobytes() == want.tobytes()


class TestDifference:
    def test_first_difference(self):
        np.testing.assert_array_equal(difference([1, 3, 6], 1), [2.0, 3.0])

    def test_seasonal_annihilates_periodic(self):
        y = np.tile(np.arange(12.0), 5)
        np.testing.assert_array_equal(difference(y, 0, 1, 12), np.zeros(48))

    def test_identity(self):
        y = np.array([4.0, 5.0, 6.0])
        np.testing.assert_array_equal(difference(y, 0, 0, 1), y)

    def test_too_short(self):
        with pytest.raises(ArimaError, match="too short"):
            difference([1.0, 2.0], 2)

    def test_inversion_roundtrip_through_forecast(self):
        # forecasting a (1,1,0)(0,1,0)[4] fit and differencing the extended
        # series must agree with the recursion's own w values
        rng = np.random.default_rng(0)
        y = np.cumsum(rng.normal(size=60)) + np.tile([0, 3, 1, -2], 15)
        order = ArimaOrder(1, 1, 0, 0, 1, 0, 4)
        fit = fit_css(y, order, seed=0)
        fc = forecast(fit, y, 8)
        extended = np.concatenate([y, fc])
        w_ext = difference(extended, order.d, order.D, order.s)
        w = difference(y, order.d, order.D, order.s)
        np.testing.assert_allclose(w_ext[:len(w)], w, atol=1e-10)


class TestSeriesRule:
    """A series that is not 1-d and finite is an ArimaError at every entry,
    not a converged fit at the CSS sentinel or numpy's shape error."""

    y = np.cumsum(np.random.default_rng(3).normal(size=60))
    FIT = zero_fit(ArimaOrder(1, 0, 0))
    ENTRIES = {
        "fit_css": lambda y: fit_css(y, ArimaOrder(1, 0, 0)),
        "select_order": lambda y: select_order(
            y, [ArimaOrder(0, 0, 0), ArimaOrder(1, 0, 0)]),
        "forecast": lambda y: forecast(TestSeriesRule.FIT, y, 3),
        "difference": lambda y: difference(y, 1),
        "selection AIC": lambda y: _common_window_aic(TestSeriesRule.FIT, y, 0),
    }

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("plant", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, entry, plant):
        y = self.y.copy()
        y[30] = plant
        with pytest.raises(ArimaError,
                           match="^series holds a non-finite value at index 30$"):
            self.ENTRIES[entry](y)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_two_dimensions_rejected(self, entry):
        with pytest.raises(ArimaError,
                           match=r"^series must be 1-d, got shape \(60, 2\)$"):
            self.ENTRIES[entry](np.column_stack([self.y, self.y]))

    def test_selection_names_the_series_before_its_length(self):
        # too short for both orders, but the NaN is what it reports
        y = self.y[:9].copy()
        y[4] = np.nan
        with pytest.raises(ArimaError, match="non-finite value at index 4"):
            self.ENTRIES["select_order"](y)


class TestFitCss:
    def test_ar1_recovery_twenty_seeds(self):
        errs = []
        for seed in range(20):
            y = sim_ar1(0.8, 1.0, 400, seed + 400)
            fit = fit_css(y, ArimaOrder(1, 0, 0), seed=seed)
            assert fit.converged
            errs.append(abs(fit.ar[0] - 0.8))
        assert max(errs) <= 0.1
        assert float(np.mean(errs)) <= 0.05

    def test_white_noise_phi_small(self):
        for seed in range(10, 15):
            y = np.random.default_rng(seed).normal(size=400)
            fit = fit_css(y, ArimaOrder(1, 0, 0), seed=seed)
            assert abs(fit.ar[0]) <= 0.15

    def test_ma1_recovery(self):
        for seed in range(5):
            y = sim_ma1(0.5, 0.2, 400, seed + 30)
            fit = fit_css(y, ArimaOrder(0, 0, 1), seed=seed)
            assert abs(fit.ma[0] - 0.5) <= 0.15

    def test_css_no_worse_than_any_start(self):
        # the starts fit_css draws: zero, then four N(0, 0.1) perturbations
        y = sim_ar1(0.6, 0.5, 120, 3)
        order = ArimaOrder(2, 0, 1)
        fit = fit_css(y, order, seed=7)
        rng = np.random.default_rng(7)
        starts = [np.zeros(order.n_params)] + [
            rng.normal(0.0, 0.1, size=order.n_params) for _ in range(4)]
        css = _css_objective(difference(y, order.d), order)
        assert fit.css <= min(css(x0.tolist()) for x0 in starts) + 1e-9

    def test_capped_best_walk_not_converged(self, monkeypatch):
        # four of the five walks meet their tolerance near CSS 307, but the
        # fourth stops at the iteration cap near 215 and is the fit returned,
        # so the fit has not converged
        rng = np.random.default_rng(9)
        e = rng.normal(size=140)
        t = np.arange(140)
        y = (0.3 * np.sin(2 * np.pi * t / 12)
             + np.convolve(e, [1.0, 0.5, 0.3])[:140] + np.cumsum(e))
        walks = []

        def recorded(*args, **kwargs):
            walks.append(walk(*args, **kwargs))
            return walks[-1]

        walk = arima._nelder_mead
        monkeypatch.setattr(arima, "_nelder_mead", recorded)
        fit = fit_css(y[:80], ArimaOrder(2, 0, 1), seed=9)
        assert [w.success for w in walks] == [True, True, True, False, True]
        assert fit.css == walks[3].fun < min(w.fun for w in walks if w.success)
        assert not fit.converged

    def test_series_too_short(self):
        with pytest.raises(ArimaError, match="at least"):
            fit_css(np.arange(10.0), ArimaOrder(3, 0, 3))

    def test_explosive_fit_flagged_not_rejected(self):
        fit = ArimaFit(ArimaOrder(1, 0, 0), 0.0, (1.2,), (), (), (), 1.0,
                       True, ar_stationary=False, ma_invertible=True)
        assert not fit.ar_stationary  # report carries the flag

    def test_stationarity_flag_detects_unit_root(self):
        rng = np.random.default_rng(4)
        y = np.cumsum(rng.normal(size=300))  # random walk, phi ~ 1
        fit = fit_css(y, ArimaOrder(1, 0, 0), seed=0)
        assert abs(fit.ar[0]) > 0.95


class TestOverflowScale:
    """A differenced series at or above 2**250 is fitted divided by a power
    of two, so the CSS and AIC stay finite and the simplex leaves its start."""

    ORDERS = [ArimaOrder(1, 0, 0), ArimaOrder(0, 1, 1), ArimaOrder(2, 1, 0),
              ArimaOrder(1, 0, 1, 1, 0, 0, 12)]

    def test_fit_equals_fit_of_divided_series(self):
        y = fixture_series(21) * 2.0 ** 530  # about 3.5e159
        for order in self.ORDERS:
            (_,), unit = pow2_scaled(difference(y, order.d, order.D, order.s))
            assert unit > 2.0 ** 250
            fit = fit_css(y, order, seed=3)
            small = fit_css(y / unit, order, seed=3)
            coefs = lambda f: np.array([*f.ar, *f.ma, *f.sar, *f.sma]).tobytes()
            assert coefs(fit) == coefs(small)
            assert fit.intercept == small.intercept * unit
            assert fit.css == small.css * unit * unit
            assert fit.converged == small.converged
            # the selection AIC of the n innovations, in y's units
            n = len(difference(y, order.d, order.D, order.s)) - order.k_ar
            assert _common_window_aic(fit, y, 0) == pytest.approx(
                _common_window_aic(small, y / unit, 0)
                + 2 * n * math.log(unit), rel=1e-12)
            fc = forecast(fit, y, 12)
            assert np.isfinite(fc).all()
            np.testing.assert_array_equal(fc, forecast(small, y / unit, 12) * unit)

    def test_selection_finite_and_converged(self):
        y = fixture_series(22) * 2.0 ** 530
        best = select_order(y, self.ORDERS, seed=0)
        drop_front = max(o.d + o.D * o.s + o.k_ar for o in self.ORDERS)
        assert best.converged
        assert math.isfinite(_common_window_aic(best, y, drop_front))
        assert np.isfinite(forecast(best, y, 6)).all()


class TestForecast:
    def test_ar1_closed_form(self):
        y = sim_ar1(0.7, 0.5, 200, 9)
        order = ArimaOrder(1, 0, 0)
        fit = fit_css(y, order, seed=1)
        h = 10
        fc = forecast(fit, y, h)
        c, phi = fit.intercept, fit.ar[0]
        closed = np.array([c * (1 - phi ** k) / (1 - phi) + phi ** k * y[-1]
                           for k in range(1, h + 1)])
        np.testing.assert_allclose(fc, closed, atol=1e-6)

    def test_zero_coefficients_forecast_intercept(self):
        fit = zero_fit(ArimaOrder(1, 0, 0), intercept=2.5)
        np.testing.assert_array_equal(
            forecast(fit, [1.0, 2.0, 3.0] * 10, 4),
            np.full(4, 2.5))

    def test_random_walk_flat_forecast(self):
        fit = zero_fit(ArimaOrder(0, 1, 0))
        np.testing.assert_array_equal(
            forecast(fit, [1.0, 2.0, 5.0], 3),
            [5.0, 5.0, 5.0])

    def test_converges_monotonically_to_process_mean(self):
        y = sim_ar1(0.6, 1.0, 300, 11)
        order = ArimaOrder(1, 0, 0)
        fit = fit_css(y, order, seed=2)
        mean = fit.intercept / (1 - fit.ar[0])
        gaps = np.abs(forecast(fit, y, 24) - mean)
        assert np.all(np.diff(gaps) <= 1e-12)

    def test_bad_horizon(self):
        fit = zero_fit(ArimaOrder(0, 0, 0))
        with pytest.raises(ArimaError, match="horizon"):
            forecast(fit, [1.0, 2.0], 0)


class TestSelectOrder:
    def test_singleton(self):
        y = sim_ar1(0.5, 0.0, 100, 1)
        assert select_order(y, [ArimaOrder(1, 0, 0)], seed=0).order == ArimaOrder(1, 0, 0)

    def test_recovers_ar1_in_most_seeds(self):
        cands = [ArimaOrder(0, 0, 0), ArimaOrder(1, 0, 0), ArimaOrder(2, 0, 0)]
        hits = 0
        for seed in range(20):
            y = sim_ar1(0.8, 1.0, 300, seed + 400)
            hits += select_order(y, cands, seed=seed).order == ArimaOrder(1, 0, 0)
        assert hits >= 16

    def test_constant_series_degenerates_to_simplest(self):
        best = select_order(np.full(60, 2.0),
                            [ArimaOrder(0, 0, 0), ArimaOrder(1, 0, 0)], seed=0)
        assert best.order == ArimaOrder(0, 0, 0)

    def test_empty_candidates(self):
        with pytest.raises(ArimaError, match="empty"):
            select_order(np.arange(50.0), [])

    def test_all_too_short(self):
        # no fit was tried, so the error names the first candidate's need
        with pytest.raises(ArimaError, match="too short for every candidate "
                                             "order: need at least 28"):
            select_order(np.arange(12.0), [ArimaOrder(3, 0, 3)])
        with pytest.raises(ArimaError) as info:
            select_order(np.arange(9.0), [ArimaOrder(0, 0, 0), ArimaOrder(1, 0, 0)])
        assert str(info.value) == ("series too short for every candidate order: "
                                   "need at least 10 observations for (0,0,0), got 9")

    @staticmethod
    def quickstart_benchmark_series():
        """The quickstart's primary-split training target at seed 42, and the
        seed `evaluate_split` fits its benchmark with."""
        import os
        from forecastlab.config import derive_seed, load_config
        from forecastlab.dataset import chrono_split
        from forecastlab.pipeline import load_data
        config, _ = load_config(os.path.join(
            os.path.dirname(__file__), os.pardir, "configs", "quickstart.json"))
        train, _ = chrono_split(load_data(config), config.primary_split)
        return (train.column(config.schema.target),
                derive_seed(42, "arima", config.primary_split))

    @pytest.mark.parametrize("order, flag", [
        # the default grid's minimum-AIC converged fit at seed 42, MA -1.324
        (ArimaOrder(2, 1, 1, 1, 1, 0, 12), "ma_invertible"),
        # fourth on that grid, seasonal AR -1.021
        (ArimaOrder(0, 0, 0, 1, 1, 0, 12), "ar_stationary"),
    ], ids=["non-invertible", "non-stationary"])
    def test_unusable_fit_never_selected(self, order, flag):
        y, seed = self.quickstart_benchmark_series()
        fit = fit_css(y, order, seed=seed)
        assert fit.converged and not getattr(fit, flag)
        # by AIC alone this pair selects `order`
        assert select_order(y, [order, ArimaOrder()], seed=seed).order == ArimaOrder()
        # alone, or beside a candidate the series is too short for
        for candidates in ([order], [ArimaOrder(p=len(y)), order]):
            with pytest.raises(ArimaError, match="converged fit with a stationary "
                                                 "AR part and an invertible MA"):
                select_order(y, candidates, seed=seed)

    def test_default_grid_shape(self):
        grid = default_order_candidates()
        assert len(grid) == 256
        assert grid[0] == ArimaOrder(0, 0, 0)
        assert any(o.s == 12 for o in grid)


class TestOrderValidation:
    def test_seasonal_requires_period(self):
        with pytest.raises(ArimaError, match="seasonal"):
            ArimaOrder(1, 0, 0, P=1, s=1)

    def test_negative_rejected(self):
        with pytest.raises(ArimaError):
            ArimaOrder(p=-1)

    @pytest.mark.parametrize("s", [2, 4, 12])
    def test_lags_in_both_components_rejected(self, s):
        for kwargs in ({"p": s, "P": 1}, {"p": s + 1, "P": 2, "d": 1},
                       {"q": s, "Q": 1}, {"q": 2 * s, "Q": 1, "D": 1}):
            with pytest.raises(ArimaError, match="both the seasonal"):
                ArimaOrder(s=s, **kwargs)
        # below the period, or without the seasonal factor, no lags meet
        for kwargs in ({"p": s - 1, "P": 2, "q": s - 1, "Q": 2},
                       {"p": s, "q": 2 * s, "D": 1}):
            order = ArimaOrder(s=s, **kwargs)
            assert len(_expand((0.1,) * order.p, (0.1,) * order.P, s,
                               -1.0)) == order.k_ar
