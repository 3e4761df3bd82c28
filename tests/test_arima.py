import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.signal import lfilter

from forecastlab import arima
from forecastlab.arima import (
    ArimaError,
    ArimaFit,
    ArimaOrder,
    _ar_lags,
    _css_objective,
    _ma_lags,
    _nelder_mead,
    _unpack,
    default_order_candidates,
    difference,
    fit_css,
    forecast,
    select_order,
)


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
                    (0.0,) * order.P, (0.0,) * order.Q, sigma2=1.0, css=1.0,
                    aic=0.0, converged=True, n_eff=10, start_css=(1.0,))


def loop_css(theta, w, order):
    """Reference oracle: the CSS objective rebuilding the AR lag design on
    every evaluation (the solver's original form)."""
    if not np.all(np.isfinite(theta)):
        return 1e300
    c, phi, th, sphi, sth = _unpack(theta, order)
    a = _ar_lags(phi, sphi, order.s) if (order.p or order.P) else np.empty(0)
    b = _ma_lags(th, sth, order.s) if (order.q or order.Q) else np.empty(0)
    k_ar = len(a)
    if k_ar:
        idx = np.arange(k_ar, len(w))[:, None] - np.arange(1, k_ar + 1)[None, :]
        e = w[k_ar:] - c - w[idx] @ a
    else:
        e = w - c
    if len(b):
        e = lfilter([1.0], np.concatenate([[1.0], b]), e)
    val = float(e @ e)
    return val if math.isfinite(val) else 1e300


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
                    got, want = css(theta), loop_css(theta, w, order)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
                big += got == 1e300
        assert big > 0  # explosive thetas overflowed to the 1e300 sentinel

    def test_non_finite_theta(self):
        order = ArimaOrder(1, 0, 1)
        w = np.linspace(-1.0, 1.0, 30)
        css = _css_objective(w, order)
        for bad in (np.nan, np.inf, -np.inf):
            theta = np.array([0.1, bad, 0.2])
            assert css(theta) == loop_css(theta, w, order) == 1e300

    @pytest.mark.parametrize("order", CSS_ORDERS[::3])
    def test_nelder_mead_walk(self, order):
        rng = np.random.default_rng(9)
        y = np.cumsum(rng.normal(size=70))
        w = difference(y, order.d, order.D, order.s)
        x0 = rng.normal(0.0, 0.1, size=order.n_params)
        opts = {"maxiter": 200 * order.n_params, "xatol": 1e-8, "fatol": 1e-10}
        got = minimize(_css_objective(w, order), x0, method="Nelder-Mead",
                       options=opts)
        want = minimize(loop_css, x0, args=(w, order), method="Nelder-Mead",
                        options=opts)
        assert got.x.tobytes() == want.x.tobytes()
        assert (got.fun, got.nfev, got.nit) == (want.fun, want.nfev, want.nit)



def scipy_nelder_mead(func, x0, maxiter, xatol, fatol):
    """The oracle: scipy's Nelder-Mead under the options fit_css passes."""
    return minimize(func, x0, method="Nelder-Mead",
                    options={"maxiter": maxiter, "xatol": xatol,
                             "fatol": fatol})


def same_walk(func, x0, maxiter, xatol=1e-8, fatol=1e-10):
    """Run the port and the oracle from x0; assert they agree bit for bit."""
    got = _nelder_mead(func, x0, maxiter, xatol, fatol)
    want = scipy_nelder_mead(func, x0, maxiter, xatol, fatol)
    assert got.x.tobytes() == want.x.tobytes()
    assert np.float64(got.fun).tobytes() == np.float64(want.fun).tobytes()
    assert (got.nit, got.nfev, got.success) == (want.nit, want.nfev,
                                                 want.success)
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


class TestNelderMead:
    """arima._nelder_mead walks scipy's simplex bit for bit: the same x
    bytes, fun, nit, nfev and success as minimize(method="Nelder-Mead") on
    30 CSS walks, 160 synthetic walks over dimensions 1-8 and 24 walks
    stopped by maxiter. fit_css gives the same ArimaFit with either."""

    @pytest.mark.parametrize("order", CSS_ORDERS, ids=ArimaOrder.label)
    def test_css_walks(self, order):
        rng = np.random.default_rng(17)
        y = np.cumsum(rng.normal(size=48))
        w = difference(y, order.d, order.D, order.s)
        css = _css_objective(w, order)
        for x0 in starts(rng, order.n_params)[:3]:
            with np.errstate(over="ignore", invalid="ignore"):
                same_walk(css, x0, 600 * order.n_params)

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_synthetic_walks(self, dim):
        rng = np.random.default_rng(dim)
        seen = {}
        for func in (sphere, terraced, fenced, flat, rosenbrock):
            values = seen[func] = []

            def tallied(x, func=func, values=values):
                values.append(func(x))
                return values[-1]

            for x0 in starts(rng, dim):
                same_walk(tallied, x0, 100 * dim, xatol=1e-4, fatol=1e-4)
        assert len(set(seen[terraced])) < len(seen[terraced])  # exact ties
        assert 1e300 in seen[fenced] and min(seen[fenced]) < 1e300

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
        monkeypatch.setattr(arima, "_nelder_mead", scipy_nelder_mead)
        assert len(ported) == 24
        for order, fit in ported.items():
            assert fit_css(y, order, seed=3) == fit


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
        fc = forecast(fit, order, y, 8)
        extended = np.concatenate([y, fc])
        w_ext = difference(extended, order.d, order.D, order.s)
        w = difference(y, order.d, order.D, order.s)
        np.testing.assert_allclose(w_ext[:len(w)], w, atol=1e-10)


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
        y = sim_ar1(0.6, 0.5, 120, 3)
        fit = fit_css(y, ArimaOrder(2, 0, 1), seed=7)
        assert fit.css <= min(fit.start_css) + 1e-9

    def test_series_too_short(self):
        with pytest.raises(ArimaError, match="at least"):
            fit_css(np.arange(10.0), ArimaOrder(3, 0, 3))

    def test_explosive_fit_flagged_not_rejected(self):
        fit = ArimaFit(ArimaOrder(1, 0, 0), 0.0, (1.2,), (), (), (), 1.0, 1.0,
                       0.0, True, 10, (1.0,), ar_stationary=False)
        assert not fit.ar_stationary  # report carries the flag

    def test_stationarity_flag_detects_unit_root(self):
        rng = np.random.default_rng(4)
        y = np.cumsum(rng.normal(size=300))  # random walk, phi ~ 1
        fit = fit_css(y, ArimaOrder(1, 0, 0), seed=0)
        assert abs(fit.ar[0]) > 0.95


class TestForecast:
    def test_ar1_closed_form(self):
        y = sim_ar1(0.7, 0.5, 200, 9)
        order = ArimaOrder(1, 0, 0)
        fit = fit_css(y, order, seed=1)
        h = 10
        fc = forecast(fit, order, y, h)
        c, phi = fit.intercept, fit.ar[0]
        closed = np.array([c * (1 - phi ** k) / (1 - phi) + phi ** k * y[-1]
                           for k in range(1, h + 1)])
        np.testing.assert_allclose(fc, closed, atol=1e-6)

    def test_zero_coefficients_forecast_intercept(self):
        fit = zero_fit(ArimaOrder(1, 0, 0), intercept=2.5)
        np.testing.assert_array_equal(
            forecast(fit, ArimaOrder(1, 0, 0), [1.0, 2.0, 3.0] * 10, 4),
            np.full(4, 2.5))

    def test_random_walk_flat_forecast(self):
        fit = zero_fit(ArimaOrder(0, 1, 0))
        np.testing.assert_array_equal(
            forecast(fit, ArimaOrder(0, 1, 0), [1.0, 2.0, 5.0], 3),
            [5.0, 5.0, 5.0])

    def test_converges_monotonically_to_process_mean(self):
        y = sim_ar1(0.6, 1.0, 300, 11)
        order = ArimaOrder(1, 0, 0)
        fit = fit_css(y, order, seed=2)
        mean = fit.intercept / (1 - fit.ar[0])
        gaps = np.abs(forecast(fit, order, y, 24) - mean)
        assert np.all(np.diff(gaps) <= 1e-12)

    def test_bad_horizon(self):
        fit = zero_fit(ArimaOrder(0, 0, 0))
        with pytest.raises(ArimaError, match="horizon"):
            forecast(fit, ArimaOrder(0, 0, 0), [1.0, 2.0], 0)

    def test_order_mismatch(self):
        fit = zero_fit(ArimaOrder(0, 0, 0))
        with pytest.raises(ArimaError, match="order"):
            forecast(fit, ArimaOrder(1, 0, 0), [1.0, 2.0], 1)


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
        with pytest.raises(ArimaError, match="converged"):
            select_order(np.arange(12.0), [ArimaOrder(3, 0, 3)])

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
