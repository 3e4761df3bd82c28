import numpy as np
import pytest
from scipy.optimize import minimize

import forecastlab.svr as svr_mod
from forecastlab.dataset import Standardization
from forecastlab.families import FAMILIES
from forecastlab.svr import (
    KKT_TOL,
    PREDICT_BLOCK_CELLS,
    KernelSpec,
    SvrModel,
    dual_objective,
    fit_svr,
    kernel_matrix,
)


def qp_oracle(X, y, C, eps, spec):
    """Independent solve of the same dual with SLSQP over (alpha, alpha*)."""
    n = len(y)
    K = kernel_matrix(spec, X, X, spec.resolved_gamma(X))

    def obj(t):
        b = t[:n] - t[n:]
        return 0.5 * b @ K @ b + eps * t.sum() - y @ b

    res = minimize(obj, np.zeros(2 * n), bounds=[(0, C)] * (2 * n),
                   constraints=[{"type": "eq",
                                 "fun": lambda t: t[:n].sum() - t[n:].sum()}],
                   method="SLSQP", options={"maxiter": 1000, "ftol": 1e-14})
    assert res.success
    return res.x[:n] - res.x[n:]


def loop_fit_svr(X, y, C, epsilon, kernel, standardization=None,
                 monitor=None, tol=KKT_TOL):
    """Reference oracle: the SMO loop that rebuilds every mask, clips all of
    z and gathers Kd's columns on each update (the solver's original form).
    Reads the update cap and the kernel from the module, so patching them
    changes both."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    gamma = kernel.resolved_gamma(X)
    K = svr_mod.kernel_matrix(kernel, X, X, gamma)
    Kd = np.vstack([K, K])
    z = np.zeros(2 * n)
    s = np.concatenate([np.ones(n), -np.ones(n)])
    grad = np.concatenate([epsilon - y, epsilon + y])
    converged = False
    updates = 0
    m = M = 0.0
    while True:
        neg_sg = -s * grad
        in_up = np.where(s > 0, z < C, z > 0)
        in_low = np.where(s > 0, z > 0, z < C)
        i = int(np.argmax(np.where(in_up, neg_sg, -np.inf)))
        j = int(np.argmin(np.where(in_low, neg_sg, np.inf)))
        m, M = neg_sg[i], neg_sg[j]
        if m - M <= tol:
            converged = True
            break
        if updates >= svr_mod.MAX_PAIR_UPDATES:
            break
        ii, jj = i % n, j % n
        curv = K[ii, ii] + K[jj, jj] - 2.0 * K[ii, jj]
        cap_i = (C - z[i]) if s[i] > 0 else z[i]
        cap_j = z[j] if s[j] > 0 else (C - z[j])
        delta = (m - M) / curv if curv > 1e-12 else np.inf
        delta = min(delta, cap_i, cap_j)
        if delta <= 0:
            break
        z[i] += s[i] * delta
        z[j] -= s[j] * delta
        np.clip(z, 0.0, C, out=z)
        grad += delta * s * (Kd[:, ii] - Kd[:, jj])
        updates += 1
        if monitor is not None:
            monitor(z.copy(), z[:n] - z[n:])
    beta = z[:n] - z[n:]
    neg_sg = -s * grad
    free = (z > 1e-9 * C) & (z < C * (1 - 1e-9))
    if free.any():
        bias = float(neg_sg[free].mean())
    else:
        bias = float((m + M) / 2.0)
    return SvrModel(X, beta, bias, kernel, gamma, C, epsilon, standardization,
                    converged, updates)


def assert_same_svr(got, want):
    assert got.support_rows.tobytes() == want.support_rows.tobytes()
    assert got.dual_coef.tobytes() == want.dual_coef.tobytes()
    assert np.float64(got.bias).tobytes() == np.float64(want.bias).tobytes()
    assert (got.gamma, got.C, got.epsilon) == (want.gamma, want.C, want.epsilon)
    assert (got.converged, got.n_updates) == (want.converged, want.n_updates)


def random_svr_problem(rng):
    """A small SVR fit: kernel, size, box and tube vary; about one problem
    in four repeats rows, so some pairs have zero curvature."""
    n = int(rng.integers(2, 25))
    p = int(rng.integers(1, 4))
    X = rng.normal(size=(n, p))
    if rng.random() < 0.25:
        X = X[rng.integers(0, max(1, n // 2), size=n)]
    y = X @ rng.normal(size=p) + rng.normal(scale=0.3, size=n)
    kind = ("linear", "rbf", "polynomial")[int(rng.integers(3))]
    spec = KernelSpec(kind, degree=int(rng.integers(1, 4)),
                      gamma=None if rng.random() < 0.5 else float(rng.uniform(0.2, 2)),
                      coef0=float(rng.choice([0.0, 1.0])))
    C = float(rng.choice([0.05, 0.3, 1.0, 4.0]))
    eps = float(rng.choice([0.0, 0.01, 0.1, 0.5]))
    return X, y, C, eps, spec


class TestLoopEquivalence:
    """fit_svr equals the original loop bit for bit: every field of the
    model and every monitored iterate."""

    def test_random_problems(self, monkeypatch):
        # a lower cap keeps the few slow (linear, large C) fits short
        monkeypatch.setattr(svr_mod, "MAX_PAIR_UPDATES", 2000)
        rng = np.random.default_rng(2024)
        kinds, zero_curv, capped = set(), 0, 0
        for _ in range(320):
            X, y, C, eps, spec = random_svr_problem(rng)
            got_seen, want_seen = [], []
            got = fit_svr(X, y, C, eps, spec, monitor=lambda z, b: got_seen.append(
                (z.tobytes(), b.tobytes())))
            want = loop_fit_svr(X, y, C, eps, spec, monitor=lambda z, b: want_seen.append(
                (z.tobytes(), b.tobytes())))
            assert_same_svr(got, want)
            assert got_seen == want_seen
            kinds.add(spec.kind)
            zero_curv += len(np.unique(X, axis=0)) < len(X)
            capped += not got.converged
        assert kinds == {"linear", "rbf", "polynomial"}
        assert zero_curv > 30
        assert capped >= 1

    def test_duplicate_rows_zero_curvature(self):
        # every pair of distinct rows is a duplicate pair: curv = 0, so each
        # step moves the full box cap
        X = np.repeat(np.array([[0.0], [1.0]]), 3, axis=0)
        y = np.array([0.0, 0.5, 1.0, 2.0, 2.5, 3.0])
        for kind in ("linear", "rbf", "polynomial"):
            spec = KernelSpec(kind, gamma=1.0)
            got = fit_svr(X, y, 2.0, 0.1, spec)
            assert_same_svr(got, loop_fit_svr(X, y, 2.0, 0.1, spec))
            assert got.n_updates > 0

    def test_boundary_locked_exit(self, monkeypatch):
        # no gap meets tol = -inf, so a fit ends at the update cap or when
        # the pair's step is <= 0 (gap <= 0: the boundary-locked exit)
        monkeypatch.setattr(svr_mod, "MAX_PAIR_UPDATES", 300)
        rng = np.random.default_rng(11)
        locked = 0
        for _ in range(40):
            X, y, C, eps, spec = random_svr_problem(rng)
            got = fit_svr(X, y, C, eps, spec, tol=-np.inf)
            assert_same_svr(got, loop_fit_svr(X, y, C, eps, spec, tol=-np.inf))
            assert not got.converged
            locked += got.n_updates < 300
        assert locked >= 8
        # all rows inside the tube: the first step is already <= 0
        X = np.arange(4.0)[:, None]
        y = np.array([0.0, 0.1, 0.05, 0.0])
        got = fit_svr(X, y, 1.0, 0.5, KernelSpec("rbf"), tol=-np.inf)
        assert_same_svr(got, loop_fit_svr(X, y, 1.0, 0.5, KernelSpec("rbf"),
                                          tol=-np.inf))
        assert (got.converged, got.n_updates) == (False, 0)

    def test_step_rounding_past_the_box_is_clipped(self):
        # one capped step up here lands a rounding error above C
        # (z + (C - z) > C), so the clip changes z
        X = np.array([[-0.28], [0.13], [0.21], [-1.31], [0.8], [0.56], [0.03],
                      [-0.77], [-0.97], [0.36], [2.61]])
        y = np.array([-1.08, 1.2, 0.96, -1.5, -0.26, 0.4, 0.26, 1.17, 1.43,
                      -1.65, 1.63])
        spec = KernelSpec("polynomial", gamma=1.0)
        got_seen, want_seen = [], []
        got = fit_svr(X, y, 0.3, 0.01, spec,
                      monitor=lambda z, b: got_seen.append(z.tobytes()))
        want = loop_fit_svr(X, y, 0.3, 0.01, spec,
                            monitor=lambda z, b: want_seen.append(z.tobytes()))
        assert_same_svr(got, want)
        assert got_seen == want_seen

    def test_asymmetric_kernel_matrix(self, monkeypatch):
        # the solver reads the pair's kernel columns, never rows: a kernel
        # matrix that is not exactly symmetric must give the same fit
        exact = svr_mod.kernel_matrix

        def skewed(spec, A, B, gamma):
            K = exact(spec, A, B, gamma)
            return K + 1e-3 * np.triu(np.ones_like(K), 1)

        monkeypatch.setattr(svr_mod, "kernel_matrix", skewed)
        rng = np.random.default_rng(13)
        for _ in range(20):
            X, y, C, eps, spec = random_svr_problem(rng)
            got = fit_svr(X, y, C, eps, spec)
            assert_same_svr(got, loop_fit_svr(X, y, C, eps, spec))

    def test_update_cap(self, monkeypatch):
        monkeypatch.setattr(svr_mod, "MAX_PAIR_UPDATES", 3)
        rng = np.random.default_rng(12)
        for _ in range(20):
            X, y, C, eps, spec = random_svr_problem(rng)
            got_seen, want_seen = [], []
            got = fit_svr(X, y, C, eps, spec,
                          monitor=lambda z, b: got_seen.append(z.tobytes()))
            want = loop_fit_svr(X, y, C, eps, spec,
                                monitor=lambda z, b: want_seen.append(z.tobytes()))
            assert_same_svr(got, want)
            assert got_seen == want_seen
            assert got.n_updates <= 3

    def test_nan_box_rejected(self):
        with pytest.raises(ValueError, match="C must be > 0"):
            fit_svr(np.zeros((4, 1)), np.zeros(4), C=float("nan"),
                    epsilon=0.1, kernel=KernelSpec("linear"))

    @pytest.mark.parametrize("cell,match", [
        ({"C": 0.0}, "C must be > 0"), ({"C": -1}, "C must be > 0"),
        ({"C": float("nan")}, "C must be > 0"),
        ({"epsilon": -0.1}, "epsilon must be >= 0")])
    def test_grid_cell_rejected_before_fitting(self, cell, match):
        with pytest.raises(ValueError, match=match):
            FAMILIES["svr"].params(cell)
        assert FAMILIES["svr"].params({"C": 0.5, "epsilon": 0.0})[:2] == (
            0.5, 0.0)


class TestDegenerate:
    def test_constant_target_all_inside_tube(self):
        X = np.linspace(0, 1, 8)[:, None]
        model = fit_svr(X, np.full(8, 3.0), C=10.0, epsilon=0.1,
                        kernel=KernelSpec("rbf", gamma=1.0))
        assert np.all(model.dual_coef == 0.0)
        assert model.bias == pytest.approx(3.0)
        np.testing.assert_allclose(model.predict(X), 3.0)

    def test_parameter_validation(self):
        X = np.zeros((4, 1))
        y = np.zeros(4)
        with pytest.raises(ValueError):
            fit_svr(X, y, C=0.0, epsilon=0.1, kernel=KernelSpec("linear"))
        with pytest.raises(ValueError):
            fit_svr(X, y, C=1.0, epsilon=-0.1, kernel=KernelSpec("linear"))
        with pytest.raises(ValueError):
            KernelSpec("sigmoid")


class TestAgainstOracle:
    def test_linear_slope_recovery(self):
        X = np.linspace(-1, 1, 20)[:, None]
        y = X[:, 0].copy()
        spec = KernelSpec("linear")
        model = fit_svr(X, y, C=50.0, epsilon=0.01, kernel=spec)
        w = float((model.dual_coef[:, None] * X).sum())
        assert abs(w - 1.0) <= 0.05
        beta_qp = qp_oracle(X, y, 50.0, 0.01, spec)
        w_qp = float((beta_qp[:, None] * X).sum())
        assert abs(w - w_qp) <= 0.05

    def test_five_point_dual_coefficients(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(5, 2))
        y = rng.normal(size=5)
        spec = KernelSpec("rbf", gamma=0.8)
        beta_qp = qp_oracle(X, y, C=2.0, eps=0.05, spec=spec)
        model = fit_svr(X, y, C=2.0, epsilon=0.05, kernel=spec, tol=1e-6)
        np.testing.assert_allclose(model.dual_coef, beta_qp, atol=1e-4)

    def test_dual_objective_near_oracle_at_default_tol(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(8, 2))
        y = rng.normal(size=8)
        spec = KernelSpec("rbf", gamma=0.5)
        K = kernel_matrix(spec, X, X, 0.5)
        beta_qp = qp_oracle(X, y, C=3.0, eps=0.02, spec=spec)
        model = fit_svr(X, y, C=3.0, epsilon=0.02, kernel=spec)
        assert (dual_objective(model.dual_coef, K, y, 0.02)
                >= dual_objective(beta_qp, K, y, 0.02) - 1e-3)


class TestIterateInvariants:
    def test_box_and_equality_hold_at_every_iterate(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(15, 3))
        y = X @ np.array([1.0, -0.5, 0.2]) + 0.1 * rng.normal(size=15)
        C = 4.0
        seen = []

        def monitor(z, beta):
            seen.append((z.copy(), beta.copy()))

        fit_svr(X, y, C=C, epsilon=0.05, kernel=KernelSpec("rbf", gamma=0.7),
                monitor=monitor)
        assert seen
        for z, beta in seen:
            assert np.all(z >= -1e-12) and np.all(z <= C + 1e-12)
            assert np.all(np.abs(beta) <= C + 1e-12)
            assert abs(beta.sum()) <= 1e-10

    def test_dual_objective_monotone_across_updates(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(12, 2))
        y = rng.normal(size=12)
        eps = 0.01
        spec = KernelSpec("rbf", gamma=1.0)
        K = kernel_matrix(spec, X, X, 1.0)
        values = []
        fit_svr(X, y, C=5.0, epsilon=eps, kernel=spec,
                monitor=lambda z, beta: values.append(
                    dual_objective(beta, K, y, eps)
                    + eps * (np.abs(beta).sum() - z.sum())))
        # values track the true doubled-variable objective, so each SMO
        # step must improve it
        assert np.all(np.diff(values) >= -1e-12)

    def test_iteration_cap_returns_flagged_best_iterate(self):
        import forecastlab.svr as svr_mod
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        old = svr_mod.MAX_PAIR_UPDATES
        try:
            svr_mod.MAX_PAIR_UPDATES = 3
            model = fit_svr(X, y, C=10.0, epsilon=0.001,
                            kernel=KernelSpec("rbf", gamma=1.0))
        finally:
            svr_mod.MAX_PAIR_UPDATES = old
        assert not model.converged
        assert model.n_updates == 3
        assert np.all(np.abs(model.dual_coef) <= 10.0 + 1e-12)


class TestPredict:
    def test_zero_coefficients_constant_bias(self):
        X = np.linspace(0, 1, 5)[:, None]
        model = fit_svr(X, np.full(5, -2.0), C=1.0, epsilon=0.5,
                        kernel=KernelSpec("linear"))
        np.testing.assert_allclose(model.predict(X), -2.0)

    def test_linear_kernel_equals_explicit_weights(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(25, 3))
        y = X @ np.array([0.5, -1.0, 2.0]) + 0.05 * rng.normal(size=25)
        model = fit_svr(X, y, C=10.0, epsilon=0.05, kernel=KernelSpec("linear"))
        w = (model.dual_coef[:, None] * X).sum(axis=0)
        Xq = rng.normal(size=(6, 3))
        np.testing.assert_allclose(model.predict(Xq),
                                   Xq @ w + model.bias, atol=1e-10)

    def test_rbf_large_gamma_interpolates_locally(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0.0, 1.0, -1.0])
        eps = 0.01
        model = fit_svr(X, y, C=100.0, epsilon=eps,
                        kernel=KernelSpec("rbf", gamma=200.0), tol=1e-6)
        np.testing.assert_allclose(model.predict(X), y, atol=eps + 0.01)

    def test_column_mismatch(self):
        X = np.zeros((5, 2))
        model = fit_svr(X, np.zeros(5), C=1.0, epsilon=0.1,
                        kernel=KernelSpec("linear"))
        with pytest.raises(ValueError, match="feature columns"):
            model.predict(np.zeros((2, 3)))

    def test_standardization_applied_on_raw_rows(self):
        rng = np.random.default_rng(9)
        X = rng.normal(50, 10, size=(20, 2))
        stats = Standardization.fit(X)
        Z = stats.transform(X)
        y = Z @ np.array([1.0, 1.0])
        model = fit_svr(Z, y, C=10.0, epsilon=0.01,
                        kernel=KernelSpec("linear"), standardization=stats)
        np.testing.assert_allclose(model.predict(X), y, atol=0.1)

    @pytest.mark.parametrize("kind", ["linear", "polynomial", "rbf"])
    def test_blocked_rows_match_one_kernel_product(self, kind):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(60, 4))
        y = np.sin(X[:, 0]) + X[:, 1]
        model = fit_svr(X, y, C=1.0, epsilon=0.05, kernel=KernelSpec(kind))
        step = PREDICT_BLOCK_CELLS // 60 // 4 * 4
        for rows in (0, 1, step, 3 * step + 5):
            Xq = rng.normal(size=(rows, 4))
            one = (kernel_matrix(model.kernel, Xq, model.support_rows,
                                 model.gamma) @ model.dual_coef + model.bias)
            got = model.predict(Xq)
            assert got.shape == (rows,)
            if rows <= step:  # a single block is the one product itself
                assert got.tobytes() == one.tobytes()
            else:
                np.testing.assert_allclose(got, one, rtol=0, atol=1e-12)
