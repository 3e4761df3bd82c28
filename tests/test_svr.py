import numpy as np
import pytest
from scipy.optimize import minimize

from forecastlab.dataset import Standardization
from forecastlab.svr import (
    PREDICT_BLOCK_CELLS,
    KernelSpec,
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
