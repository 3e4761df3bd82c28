import dataclasses

import numpy as np
import pytest

import forecastlab.linear as linear_mod
from forecastlab.dataset import Standardization, SynthSpec, default_schema, synth_generate
from forecastlab.families import Standardized
from forecastlab.linear import (
    CONVERGENCE_TOL,
    LinearModel,
    PenaltySpec,
    fit_linear,
    fit_linear_lanes,
)


def elastic_net_objective(X, y, intercept, beta, penalty: PenaltySpec) -> float:
    n = len(y)
    r = y - intercept - X @ beta
    loss = 0.5 * float(r @ r) / n
    pen = penalty.lam * (penalty.alpha * float(np.abs(beta).sum())
                         + 0.5 * (1.0 - penalty.alpha) * float(beta @ beta))
    return loss + pen


def lambda_max(X, y) -> float:
    """Smallest lasso lambda annihilating every coefficient: max_j |x_j'(y-ybar)|/n."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.abs(X.T @ (y - y.mean())).max()) / len(y)


def centered_design(rng, n, p, corr=0.3):
    X = rng.normal(size=(n, p))
    if p >= 2:
        X[:, 1] = corr * X[:, 0] + (1 - corr) * X[:, 1]
    return X - X.mean(axis=0)


def ridge_closed_form(X, y, lam):
    """Oracle: beta = (X'X/n + lam I)^-1 (X'(y-ybar)/n) for centered X."""
    n, p = X.shape
    return np.linalg.solve(X.T @ X / n + lam * np.eye(p), X.T @ (y - y.mean()) / n)


def orthonormalized(rng, n, p):
    """Centered design with (1/n) X'X = I."""
    raw = rng.normal(size=(n, p))
    raw -= raw.mean(axis=0)
    q, _ = np.linalg.qr(raw)
    return q * np.sqrt(n)


def loop_fit_linear(X, y, penalty):
    """Reference oracle for lam > 0: the coordinate-descent sweep indexing
    X[:, j] and beta[j] in place on every step (the solver's original form).
    Reads the sweep cap from the module, so patching it caps both."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    lam_l1 = penalty.lam * penalty.alpha
    lam_l2 = penalty.lam * (1.0 - penalty.alpha)
    col_ssq = (X * X).sum(axis=0) / n
    beta = np.zeros(p)
    b = float(y.mean())
    r = y - b
    converged = False
    sweeps = 0
    for sweeps in range(1, linear_mod.MAX_SWEEPS + 1):
        max_delta = 0.0
        for j in range(p):
            bj = beta[j]
            if bj != 0.0:
                r += X[:, j] * bj
            rho = float(X[:, j] @ r) / n
            denom = col_ssq[j] + lam_l2
            soft = (rho - lam_l1 if rho > lam_l1
                    else rho + lam_l1 if rho < -lam_l1 else 0.0)
            new = soft / denom if denom > 0 else 0.0
            if new != 0.0:
                r -= X[:, j] * new
            beta[j] = new
            max_delta = max(max_delta, abs(new - bj))
        new_b = float((r + b).mean())
        r += b - new_b
        max_delta = max(max_delta, abs(new_b - b))
        b = new_b
        if max_delta < CONVERGENCE_TOL:
            converged = True
            break
    return LinearModel(b, beta, converged=converged, n_sweeps=sweeps,
                       jitter_applied=False)


def assert_same_linear(got, want):
    assert np.float64(got.intercept).tobytes() == np.float64(want.intercept).tobytes()
    assert got.coefficients.tobytes() == want.coefficients.tobytes()
    assert (got.converged, got.n_sweeps) == (want.converged, want.n_sweeps)


class TestLoopEquivalence:
    """fit_linear equals the original sweep bit for bit on every field."""

    def test_random_problems(self, monkeypatch):
        monkeypatch.setattr(linear_mod, "MAX_SWEEPS", 1000)
        rng = np.random.default_rng(2025)
        zeros = 0
        for case in range(330):
            n = int(rng.integers(3, 40))
            p = 1 if case % 10 == 0 else int(rng.integers(2, 9))
            X = rng.normal(size=(n, p))
            if p >= 2:
                X[:, 1] = 0.7 * X[:, 0] + 0.3 * X[:, 1]
            if case % 3 == 0:
                X = Standardization.fit(X).transform(X)
            if case % 7 == 0:
                X[:, -1] = 0.0  # denominator from lam_l2 alone
            y = X @ rng.normal(size=p) + rng.normal(size=n)
            alpha = (0.0, 0.5, 1.0, float(rng.uniform()))[case % 4]
            lam = float(np.exp(rng.uniform(np.log(1e-3), np.log(2.0))))
            penalty = PenaltySpec(lam, alpha)
            got = fit_linear(X, y, penalty)
            assert_same_linear(got, loop_fit_linear(X, y, penalty))
            if case % 10 == 0:  # every sweep's iterate, not only the last
                for cap in (1, 2, 3):
                    monkeypatch.setattr(linear_mod, "MAX_SWEEPS", cap)
                    assert_same_linear(fit_linear(X, y, penalty),
                                       loop_fit_linear(X, y, penalty))
                monkeypatch.setattr(linear_mod, "MAX_SWEEPS", 1000)
            zeros += alpha == 1.0 and bool((got.coefficients == 0.0).any())
        assert zeros > 20  # exact lasso zeros were reached and matched

    def test_benchmark_shapes(self, monkeypatch):
        # the benchmark fits n = 54-108 rows on 12 or 16 standardized
        # columns; the dot's length and stride choose its BLAS kernel, so
        # the small random problems above do not cover these shapes
        monkeypatch.setattr(linear_mod, "MAX_SWEEPS", 1000)
        rng = np.random.default_rng(2026)
        sweeps = []
        for case in range(32):
            n = (54, 68, 96, 108)[case % 4]
            p = (12, 16)[case // 4 % 2]
            X = rng.normal(size=(n, p))
            X[:, 1] = X[:, 0] + 0.01 * X[:, 1]  # near-collinear pair
            X = Standardization.fit(X).transform(X)
            y = X @ rng.normal(size=p) + rng.normal(size=n)
            if case % 2:
                # half-units sum exactly: the mean is exactly zero, and the
                # zeros are -0.0
                y = np.round(2.0 * y) / 2.0
                y[:3] = 0.0
                y[-1] = -y[:-1].sum()
                y[y == 0.0] = -0.0
                assert y.mean() == 0.0 and np.signbit(y[:3]).all()
            lam = (1e-3, 1e-2, 0.1, 0.9)[case // 2 % 4]
            alpha = (0.0, 0.05, 0.5, 0.95, 1.0)[case % 5]
            penalty = PenaltySpec(lam, alpha)
            got = fit_linear(X, y, penalty)
            assert_same_linear(got, loop_fit_linear(X, y, penalty))
            sweeps.append(got.n_sweeps)
        assert max(sweeps) >= 200  # some fits ran hundreds of sweeps

    def test_zero_column_pure_lasso(self):
        # denom = 0: the coordinate stays at exactly 0.0
        rng = np.random.default_rng(3)
        X = np.column_stack([rng.normal(size=12), np.zeros(12)])
        y = rng.normal(size=12)
        for alpha in (0.0, 1.0):
            penalty = PenaltySpec(0.1, alpha)
            got = fit_linear(X, y, penalty)
            assert_same_linear(got, loop_fit_linear(X, y, penalty))
            assert got.coefficients[1] == 0.0

    def test_sweep_cap(self, monkeypatch):
        monkeypatch.setattr(linear_mod, "MAX_SWEEPS", 2)
        rng = np.random.default_rng(4)
        X = centered_design(rng, 30, 4, corr=0.9)
        y = rng.normal(size=30)
        got = fit_linear(X, y, PenaltySpec(0.01, 0.5))
        assert_same_linear(got, loop_fit_linear(X, y, PenaltySpec(0.01, 0.5)))
        assert (got.converged, got.n_sweeps) == (False, 2)


def minus_zero_target(rng, X):
    """test_benchmark_shapes' target: half-units that sum exactly to zero,
    with -0.0 zeros."""
    n, p = X.shape
    y = np.round(2.0 * (X @ rng.normal(size=p) + rng.normal(size=n))) / 2.0
    y[:3] = 0.0
    y[-1] = -y[:-1].sum()
    y[y == 0.0] = -0.0
    assert y.mean() == 0.0 and np.signbit(y[:3]).all()
    return y


def lane_set(rng, case):
    """Lanes as a grid search makes them, (cell, design) pairs, over 1-4
    designs of mixed row counts and layouts, with lam = 0 cells, zero
    columns and -0.0 targets; every seventh set adds lanes of other widths."""
    p = int(rng.integers(1, 9))
    designs = []
    for d in range(int(rng.integers(1, 5))):
        n = int(rng.integers(4, 40))
        layout = (case + d) % 3
        if layout == 2:  # a strided view: neither C nor F order
            X = rng.normal(size=(n, 2 * p))[:, ::2]
        else:
            X = rng.normal(size=(n, p))
            X = np.asfortranarray(X) if layout else X
        if p >= 2 and case % 2:
            X[:, 1] = 0.7 * X[:, 0] + 0.3 * X[:, 1]
        if case % 3 == 0:
            X = Standardization.fit(X).transform(X)
        if case % 5 == 0:
            X[:, -1] = 0.0  # denominator 0 under pure lasso
        if case % 4 == 1 and n > 4:
            X = Standardization.fit(X).transform(X)
            y = minus_zero_target(rng, X)
        else:
            y = X @ rng.normal(size=p) + rng.normal(size=n)
        designs.append((X, y))
    if case % 7 == 0:
        X = rng.normal(size=(20, p + 1))
        designs.append((X, X.sum(axis=1) + rng.normal(size=20)))
    cells = []
    for _ in range(int(rng.integers(2, 7))):
        lam = (0.0 if rng.uniform() < 0.1
               else float(np.exp(rng.uniform(np.log(1e-3), np.log(2.0)))))
        alpha = (0.0, 0.5, 1.0, float(rng.uniform()))[int(rng.integers(4))]
        cells.append(PenaltySpec(lam, alpha))
    return [(X, y, penalty) for penalty in cells for X, y in designs]


def assert_same_fit(got, X, y, penalty):
    """got is fit_linear's result, bit for bit, or its ValueError; for
    lam > 0 also the original sweep's."""
    try:
        want = fit_linear(X, y, penalty)
    except ValueError as exc:
        assert type(got) is type(exc) and str(got) == str(exc)
        return
    assert_same_linear(got, want)
    if penalty.lam > 0:
        assert_same_linear(got, loop_fit_linear(X, y, penalty))


class TestLockstepLanes:
    """fit_linear_lanes returns fit_linear's model for every lane."""

    def test_random_lane_sets(self, monkeypatch):
        # 300 lane sets, about 8 s on a 2-core machine
        monkeypatch.setattr(linear_mod, "MAX_SWEEPS", 150)
        resumed = []
        real_descend = linear_mod._descend

        def descend(X, penalty, coef, b, r, sweeps):
            resumed.append(sweeps)
            return real_descend(X, penalty, coef, b, r, sweeps)

        monkeypatch.setattr(linear_mod, "_descend", descend)
        rng = np.random.default_rng(2027)
        lanes_run = 0
        for case in range(300):
            lanes = lane_set(rng, case)
            lanes_run += len(lanes)
            for got, lane in zip(fit_linear_lanes(lanes), lanes):
                assert_same_fit(got, *lane)
            if case % 10 == 0:  # every sweep's iterate, not only the last
                for cap in (1, 2, 3):
                    monkeypatch.setattr(linear_mod, "MAX_SWEEPS", cap)
                    for got, lane in zip(fit_linear_lanes(lanes), lanes):
                        assert_same_fit(got, *lane)
                monkeypatch.setattr(linear_mod, "MAX_SWEEPS", 150)
        # lanes left the lockstep for the scalar loop at many sweeps
        assert len({s for s in resumed if s > 0}) >= 20
        assert lanes_run > 3000

    def test_benchmark_shapes(self, monkeypatch):
        # five folds of n = 86-87 rows on 16 standardized columns, as a
        # grid search hands them over, with -0.0 targets on half the folds
        monkeypatch.setattr(linear_mod, "MAX_SWEEPS", 1000)
        rng = np.random.default_rng(2028)
        designs = []
        for fold in range(5):
            n = 86 + fold % 2
            X = rng.normal(size=(n, 16))
            X[:, 1] = X[:, 0] + 0.01 * X[:, 1]
            X = Standardization.fit(X).transform(X)
            y = (minus_zero_target(rng, X) if fold % 2
                 else X @ rng.normal(size=16) + rng.normal(size=n))
            designs.append((X, y))
        lanes = [(X, y, PenaltySpec(lam, alpha)) for lam in (1e-3, 0.1, 0.9)
                 for alpha in (0.0, 0.05, 0.5, 1.0) for X, y in designs]
        fits = fit_linear_lanes(lanes)
        for got, lane in zip(fits, lanes):
            assert_same_fit(got, *lane)
        assert max(fit.n_sweeps for fit in fits) >= 100

    def test_non_finite_lane_fails_alone(self):
        rng = np.random.default_rng(2029)
        X = Standardization.fit(rng.normal(size=(30, 4))).transform(
            rng.normal(size=(30, 4)))
        y = X @ rng.normal(size=4) + rng.normal(size=30)
        inf_y, nan_y, nan_X = y.copy(), y.copy(), X.copy()
        inf_y[3] = np.inf
        nan_y[-1] = np.nan
        nan_X[5, 2] = np.nan  # column 2 is left out, and the fit succeeds
        lanes = [(X, y, PenaltySpec(lam, 0.5)) for lam in (0.01, 0.1, 0.3)] * 3
        lanes[4] = (X, inf_y, PenaltySpec(0.1, 0.5))
        lanes[6] = (X, nan_y, PenaltySpec(0.3, 0.0))
        lanes[7] = (nan_X, y, PenaltySpec(0.1, 1.0))
        fits = fit_linear_lanes(lanes)
        for k in (4, 6):
            assert isinstance(fits[k], ValueError)
            assert str(fits[k]) == "non-finite linear fit"
        assert fits[7].coefficients[2] == 0.0
        with np.errstate(all="ignore"):
            for got, lane in zip(fits, lanes):
                assert_same_fit(got, *lane)

    def test_invalid_lanes_fail_alone(self):
        rng = np.random.default_rng(2030)
        X, y = rng.normal(size=(12, 3)), rng.normal(size=12)
        lanes = [(X, y, PenaltySpec(0.1, 0.5))] * 8
        lanes[2] = (X, y[:-1], PenaltySpec(0.1, 0.5))
        lanes[5] = (X[:1], y[:1], PenaltySpec(0.1, 0.5))
        fits = fit_linear_lanes(lanes)
        assert str(fits[2]) == "X has 12 rows but y has 11"
        assert str(fits[5]) == "need at least 2 rows to fit"
        for k in (0, 1, 3, 4, 6, 7):
            assert_same_fit(fits[k], *lanes[k])

    def test_stacked_matmul_is_the_loops_dot(self):
        # rho's matmul of (lanes, 1, n) @ (lanes, n, 1) stacks must take
        # each product as X[:, j].dot(r) does for a C-ordered X, on the same
        # stride
        rng = np.random.default_rng(2031)
        for _ in range(300):
            n, p, count = (int(rng.integers(1, 200)), int(rng.integers(1, 17)),
                           int(rng.integers(1, 30)))
            j = int(rng.integers(p))
            block = rng.normal(size=(count, n, p)) * np.exp(
                3 * rng.normal(size=(count, 1, 1)))
            R = rng.normal(size=(count, n + 2))
            got = np.matmul(block[:, None, :, j], R[:, :n, None])[:, 0, 0]
            for k in range(count):
                X = block[k]
                want = X[:, j].dot(R[k, :n].copy())
                assert got[k].tobytes() == want.tobytes()


class TestExactFits:
    def test_unpenalized_exact_line(self):
        x = np.linspace(-2, 2, 9)[:, None]
        y = 2.0 * x[:, 0]
        model = fit_linear(x, y, PenaltySpec(0.0, 1.0))
        np.testing.assert_allclose(model.coefficients, [2.0], atol=1e-10)
        assert abs(model.intercept) < 1e-10

    def test_alpha_irrelevant_at_lambda_zero(self):
        rng = np.random.default_rng(0)
        X = centered_design(rng, 30, 3)
        y = rng.normal(size=30)
        a = fit_linear(X, y, PenaltySpec(0.0, 0.0))
        b = fit_linear(X, y, PenaltySpec(0.0, 1.0))
        np.testing.assert_allclose(a.coefficients, b.coefficients, atol=1e-12)

    def test_collinear_design_jitter_flagged(self):
        rng = np.random.default_rng(1)
        x0 = rng.normal(size=20)
        X = np.column_stack([x0, x0])  # exactly collinear
        y = x0 * 3.0
        model = fit_linear(X, y, PenaltySpec(0.0, 0.0))
        assert model.jitter_applied
        np.testing.assert_allclose(model.predict(X), y, atol=1e-4)


class TestRidgeOracle:
    @pytest.mark.parametrize("lam", [0.01, 0.1, 0.9])
    def test_matches_closed_form(self, lam):
        rng = np.random.default_rng(42)
        X = centered_design(rng, 40, 2)
        y = 1.5 + X @ np.array([2.0, -1.0]) + 0.1 * rng.normal(size=40)
        model = fit_linear(X, y, PenaltySpec(lam, 0.0))
        np.testing.assert_allclose(model.coefficients, ridge_closed_form(X, y, lam),
                                   atol=1e-8)
        np.testing.assert_allclose(model.intercept, y.mean(), atol=1e-8)


class TestLassoOracle:
    @pytest.mark.parametrize("lam", [0.05, 0.2, 0.5])
    def test_soft_threshold_on_orthonormal_design(self, lam):
        rng = np.random.default_rng(7)
        X = orthonormalized(rng, 50, 4)
        y = X @ np.array([1.0, -0.4, 0.15, 0.0]) + 0.05 * rng.normal(size=50)
        beta_ols = X.T @ (y - y.mean()) / 50
        expected = np.sign(beta_ols) * np.maximum(np.abs(beta_ols) - lam, 0.0)
        model = fit_linear(X, y, PenaltySpec(lam, 1.0))
        np.testing.assert_allclose(model.coefficients, expected, atol=1e-6)

    def test_full_shrinkage_at_lambda_max(self):
        rng = np.random.default_rng(8)
        X = centered_design(rng, 30, 3)
        y = 2.0 + X @ np.array([1.0, 0.5, -0.2]) + 0.1 * rng.normal(size=30)
        lam = lambda_max(X, y)
        model = fit_linear(X, y, PenaltySpec(lam * 1.000001, 1.0))
        assert np.all(model.coefficients == 0.0)
        np.testing.assert_allclose(model.intercept, y.mean(), atol=1e-12)

    def test_exact_zeros_not_merely_small(self):
        rng = np.random.default_rng(9)
        X = orthonormalized(rng, 40, 3)
        y = X @ np.array([2.0, 0.01, 0.0]) + 0.01 * rng.normal(size=40)
        model = fit_linear(X, y, PenaltySpec(0.3, 1.0))
        assert model.coefficients[1] == 0.0
        assert model.coefficients[2] == 0.0


class TestObjective:
    def test_non_increasing_per_sweep(self, monkeypatch):
        # the iterate after sweep k is the fit capped at k sweeps
        rng = np.random.default_rng(10)
        X = centered_design(rng, 60, 5, corr=0.8)
        y = X @ rng.normal(size=5) + rng.normal(size=60)
        for lam, alpha in [(0.1, 0.5), (0.5, 1.0), (0.3, 0.0)]:
            penalty = PenaltySpec(lam, alpha)
            n_sweeps = fit_linear(X, y, penalty).n_sweeps
            assert n_sweeps >= 2
            trace = []
            for k in range(1, n_sweeps + 1):
                monkeypatch.setattr(linear_mod, "MAX_SWEEPS", k)
                model = fit_linear(X, y, penalty)
                trace.append(elastic_net_objective(
                    X, y, model.intercept, model.coefficients, penalty))
            monkeypatch.undo()
            assert np.all(np.diff(trace) <= 1e-12)

    def test_converges_within_cap(self):
        rng = np.random.default_rng(11)
        X = centered_design(rng, 50, 4)
        y = rng.normal(size=50)
        model = fit_linear(X, y, PenaltySpec(0.2, 0.5))
        assert model.converged
        assert model.n_sweeps < 10_000


# the solver status of a hand-built model
SOLVED = dict(converged=True, n_sweeps=0, jitter_applied=False)


class TestPredict:
    def test_zero_coefficients_constant(self):
        model = LinearModel(4.5, np.zeros(2), **SOLVED)
        np.testing.assert_array_equal(model.predict(np.ones((3, 2))),
                                      [4.5, 4.5, 4.5])

    def test_single_active_coefficient(self):
        model = LinearModel(1.0, np.array([1.0, 0.0]), **SOLVED)
        np.testing.assert_array_equal(
            model.predict(np.array([[3.0, 99.0]])), [4.0])

    def test_column_mismatch(self):
        model = LinearModel(0.0, np.zeros(2), **SOLVED)
        with pytest.raises(ValueError, match="feature columns"):
            model.predict(np.ones((3, 5)))

    def test_noiseless_linear_dgp_residuals(self):
        schema = default_schema()
        spec = SynthSpec(kind="linear", n=60, noise_scale=0.0)
        frame = synth_generate(3, schema, spec)
        X = frame.matrix(schema.features)
        y = frame.column(schema.target)
        model = fit_linear(X, y, PenaltySpec(0.0, 0.0))
        np.testing.assert_allclose(model.predict(X), y, atol=1e-8)

    def test_standardization_round_trip(self):
        rng = np.random.default_rng(12)
        X = rng.normal(10, 3, size=(40, 2))
        stats = Standardization.fit(X)
        Z = stats.transform(X)
        y = 2.0 + Z @ np.array([1.0, -1.0])
        model = Standardized(stats, fit_linear(Z, y, PenaltySpec(0.0, 0.0)))
        np.testing.assert_allclose(model.predict(X), y, atol=1e-10)


def flip_first_bit(arr):
    """A copy of the float array with the lowest bit of element 0 flipped."""
    out = np.array(arr, dtype=float)
    out.view(np.uint64)[0] ^= 1
    return out


class TestRecordEquality:
    """Fitted records compare field by field, arrays by dtype, shape and
    bytes, so == on two models is a bool and never raises."""

    def test_identical_fits_compare_equal(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(30, 3))
        y = X @ np.array([1.0, -0.5, 0.25]) + rng.normal(size=30)
        penalty = PenaltySpec(0.1, 0.5)
        a, b = fit_linear(X, y, penalty), fit_linear(X, y, penalty)
        assert a == b and not a != b
        stats = Standardization.fit(X)
        assert stats == Standardization.fit(X)
        assert (Standardized(stats, fit_linear(stats.transform(X), y, penalty))
                == Standardized(Standardization.fit(X),
                                fit_linear(stats.transform(X), y, penalty)))

    def test_one_bit_of_one_coefficient_makes_unequal(self):
        model = LinearModel(1.0, np.array([0.5, -2.0]), **SOLVED)
        other = dataclasses.replace(
            model, coefficients=flip_first_bit(model.coefficients))
        assert model != other and not model == other
        stats = Standardization(np.zeros(2), np.ones(2))
        assert (Standardized(stats, model) != Standardized(stats, other))
        assert stats != Standardization(np.zeros(2), flip_first_bit(np.ones(2)))

    def test_arrays_compare_by_dtype_and_shape(self):
        model = LinearModel(1.0, np.array([0.5, -2.0]), **SOLVED)
        wider = LinearModel(1.0, np.array([0.5, -2.0, 0.0]), **SOLVED)
        assert model != wider
        stats = Standardization(np.zeros(2), np.ones(2))
        assert stats != Standardization(np.zeros(2, dtype=np.float32),
                                        np.ones(2))
        assert stats != Standardization(np.zeros((1, 2)), np.ones(2))
        assert model != "model" and model != Standardized(stats, model)

    def test_float_fields_compare_by_bits(self):
        model = LinearModel(0.0, np.array([0.5, -2.0]), **SOLVED)
        assert model != dataclasses.replace(model, intercept=-0.0)
        assert model == dataclasses.replace(model, intercept=np.float64(0.0))
        assert model != dataclasses.replace(model, n_sweeps=0.0)


class TestPenaltySpec:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PenaltySpec(-0.1, 0.5)
        with pytest.raises(ValueError):
            PenaltySpec(0.1, 1.5)

    def test_objective_value_matches_hand_compute(self):
        X = np.array([[1.0], [-1.0]])
        y = np.array([1.0, -1.0])
        # beta=0, b=0: loss = (1/(2*2))*(1+1) = 0.5
        assert elastic_net_objective(X, y, 0.0, np.zeros(1),
                                     PenaltySpec(0.3, 1.0)) == pytest.approx(0.5)
