"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report lines alongside the pytest result.
"""

import filecmp
import functools
import json
import math
import os
import time

import numpy as np
import pytest

from forecastlab.arima import ArimaOrder, fit_css, forecast, select_order
from forecastlab.cli import main as cli_main
from forecastlab.dataset import (
    Standardization,
    SynthSpec,
    chrono_split,
    default_schema,
    synth_generate,
)
from forecastlab.evaluation import dm_test, rmse_reduction
from forecastlab.families import Standardized
from forecastlab.interpretation import (
    filter_outliers,
    fit_functional_form,
    zero_crossings,
)
from forecastlab.linear import PenaltySpec, fit_linear
from forecastlab.shapley import (
    BackgroundSet,
    exact_shapley,
    explain_matrix,
    global_importance,
    tree_shap,
)
from forecastlab.svr import KernelSpec, fit_svr
from forecastlab.trees import (
    BoostParams,
    ForestParams,
    fit_gradient_boosting,
    fit_random_forest,
    fit_regression_tree,
)


def lambda_max(X, y) -> float:
    """Smallest lasso lambda annihilating every coefficient: max_j |x_j'(y-ybar)|/n."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.abs(X.T @ (y - y.mean())).max()) / len(y)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number:2d}: FAIL - {description}")
                raise
            print(f"[acceptance] criterion {number:2d}: PASS - {description}")
        return wrapper
    return decorate


@criterion(1, "tree_shap equals exact enumeration on 50 random boosted models")
def test_criterion_1_shapley_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        p = int(rng.integers(2, 7))
        n = int(rng.integers(20, 40))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        model = fit_gradient_boosting(X, y, BoostParams(
            learning_rate=float(rng.uniform(0.05, 0.5)),
            n_estimators=int(rng.integers(1, 21)),
            max_depth=int(rng.integers(1, 5)),
            subsample=float(rng.uniform(0.5, 1.0)),
            colsample_bytree=float(rng.uniform(0.5, 1.0)),
            reg_lambda=float(rng.uniform(0.0, 2.0)),
            seed=int(rng.integers(0, 2 ** 31))))
        background = BackgroundSet(rng.normal(size=(8, p)))
        queries = rng.normal(size=(10, p))
        predict = lambda Z: model.predict(Z)
        for x in queries:
            gap = np.abs(tree_shap(model, x, background)
                         - exact_shapley(predict, x, background)).max()
            worst = max(worst, float(gap))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-9, f"worst engine disagreement {worst:.3g}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


@criterion(2, "efficiency, dummy, and linearity axioms across all families")
def test_criterion_2_axioms():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(40, 5))
    # column 4 never influences the target
    y = X[:, 0] + 0.5 * X[:, 1] ** 2 - X[:, 2] + 0.1 * rng.normal(size=40)
    background = BackgroundSet(X[:12])
    rows = X[:8]

    models = {
        "boosted": fit_gradient_boosting(
            X, y, BoostParams(n_estimators=15, max_depth=3, seed=3)),
        "forest": fit_random_forest(
            X, y, ForestParams(n_estimators=8, max_depth=3, seed=3)),
        "tree": fit_regression_tree(X, gradients=-y, max_depth=3),
        "linear": fit_linear(X, y, PenaltySpec(0.1, 0.5)),
        "svr": fit_svr(X, y, C=5.0, epsilon=0.05,
                       kernel=KernelSpec("rbf", gamma=0.4)),
    }
    for name, model in models.items():
        matrix = explain_matrix(model, rows, background)
        gap = np.abs(matrix.base_value + matrix.phi.sum(axis=1)
                     - matrix.predictions).max()
        assert gap <= 1e-9, f"{name}: efficiency violated by {gap:.3g}"

    # dummy axiom: a predictor that never reads a feature attributes it 0.0
    f = lambda Z: Z[:, 0] * 2.0 + np.sin(Z[:, 1])
    phi = exact_shapley(f, X[0], background)
    assert phi[2] == 0.0 and phi[3] == 0.0 and phi[4] == 0.0
    tree = fit_regression_tree(X[:, :2], gradients=-y, max_depth=2)
    padded = lambda Z: tree.predict(Z[:, :2])
    phi_tree = tree_shap(tree, X[0, :2], BackgroundSet(X[:12, :2]))
    # features absent from every path in a depth-2 stump stay exactly zero
    read = set()

    def visit(node):
        if tree.feature[node] < 0:
            return
        read.add(int(tree.feature[node]))
        visit(tree.children_left[node])
        visit(tree.children_right[node])

    visit(0)
    for j in range(2):
        if j not in read:
            assert phi_tree[j] == 0.0

    # linearity: attributions of a sum are the sum of attributions
    g = lambda Z: Z[:, 3] ** 2
    x = X[1]
    lhs = exact_shapley(lambda Z: f(Z) + g(Z), x, background)
    rhs = exact_shapley(f, x, background) + exact_shapley(g, x, background)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@criterion(3, "linear models satisfy the closed-form attribution identity")
def test_criterion_3_linear_closed_form():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(60, 5))
    y = 3.0 + X @ np.array([1.5, -2.0, 0.0, 0.7, 0.2]) + 0.05 * rng.normal(size=60)
    background = BackgroundSet(X[:20])
    bg_mean = background.rows.mean(axis=0)

    plain = fit_linear(X, y, PenaltySpec(0.0, 0.0))
    matrix = explain_matrix(plain, X[:10], background)
    expected = plain.coefficients * (X[:10] - bg_mean)
    np.testing.assert_allclose(matrix.phi, expected, atol=1e-10)

    # standardizing model: raw-scale slope is coef / scale
    stats = Standardization.fit(X)
    scaled = Standardized(stats, fit_linear(stats.transform(X), y,
                                            PenaltySpec(0.2, 0.5)))
    matrix = explain_matrix(scaled, X[:10], background)
    raw_beta = scaled.model.coefficients / stats.scales
    np.testing.assert_allclose(matrix.phi, raw_beta * (X[:10] - bg_mean),
                               atol=1e-10)


PUBLISHED_RMSE = {
    "benchmark": 0.670,
    "rows": [
        ("sarima", 0.527, 21.31),
        ("ols", 0.406, 39.39),
        ("ridge", 0.402, 40.01),
        ("lasso", 0.340, 49.30),
        ("elastic_net", 0.364, 45.62),
        ("random_forest", 0.417, 37.76),
        ("xgb", 0.313, 53.22),
        ("svr", 0.368, 45.07),
    ],
}
ML_SIX = ("ridge", "lasso", "elastic_net", "random_forest", "xgb", "svr")


@criterion(4, "published reduction column reproduced within 0.2pp; six-model "
              "mean 45.16")
def test_criterion_4_reduction_arithmetic():
    bench = PUBLISHED_RMSE["benchmark"]
    printed = {}
    for name, model_rmse, stated in PUBLISHED_RMSE["rows"]:
        got = rmse_reduction(bench, model_rmse)
        assert abs(got - stated) <= 0.2, (name, got, stated)
        printed[name] = stated
    mean_six = sum(printed[m] for m in ML_SIX) / len(ML_SIX)
    assert abs(mean_six - 45.16) <= 0.05


@criterion(5, "shrinkage solvers match soft-threshold and ridge closed forms")
def test_criterion_5_shrinkage_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(31)

    # lasso on a design with (1/n) X'X = I: soft-thresholding of OLS
    n, p = 80, 5
    raw = rng.normal(size=(n, p))
    raw -= raw.mean(axis=0)
    q, _ = np.linalg.qr(raw)
    X = q * math.sqrt(n)
    y = X @ np.array([1.2, -0.6, 0.25, 0.05, 0.0]) + 0.05 * rng.normal(size=n)
    beta_ols = X.T @ (y - y.mean()) / n
    for lam in (0.03, 0.2, 0.7):
        model = fit_linear(X, y, PenaltySpec(lam, 1.0))
        expected = np.sign(beta_ols) * np.maximum(np.abs(beta_ols) - lam, 0.0)
        np.testing.assert_allclose(model.coefficients, expected, atol=1e-6)

    # ridge equals its closed form
    Xr = rng.normal(size=(50, 3))
    Xr -= Xr.mean(axis=0)
    yr = Xr @ np.array([2.0, -1.0, 0.4]) + 0.1 * rng.normal(size=50)
    for lam in (0.01, 0.3, 0.9):
        model = fit_linear(Xr, yr, PenaltySpec(lam, 0.0))
        closed = np.linalg.solve(Xr.T @ Xr / 50 + lam * np.eye(3),
                                 Xr.T @ (yr - yr.mean()) / 50)
        np.testing.assert_allclose(model.coefficients, closed, atol=1e-8)

    # full shrinkage beyond lambda_max
    lam_max = lambda_max(Xr, yr)
    model = fit_linear(Xr, yr, PenaltySpec(lam_max * 1.0000001, 1.0))
    assert np.all(model.coefficients == 0.0)
    assert model.intercept == pytest.approx(float(yr.mean()))

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"


@criterion(6, "AR(1) recovery over 20 seeds and closed-form forecasts")
def test_criterion_6_arima_recovery():
    def sim_ar1(phi, c, n, seed, burn=50):
        rng = np.random.default_rng(seed)
        out = np.empty(n)
        x = c / (1 - phi)
        for t in range(n + burn):
            x = c + phi * x + rng.normal()
            if t >= burn:
                out[t - burn] = x
        return out

    errs = []
    for seed in range(20):
        y = sim_ar1(0.8, 1.0, 400, seed + 400)
        fit = fit_css(y, ArimaOrder(1, 0, 0), seed=seed)
        errs.append(abs(fit.ar[0] - 0.8))
    assert float(np.mean(errs)) <= 0.05, f"mean |phi error| {np.mean(errs):.4f}"

    y = sim_ar1(0.7, 0.5, 300, 77)
    order = ArimaOrder(1, 0, 0)
    fit = fit_css(y, order, seed=0)
    fc = forecast(fit, y, 12)
    c, phi = fit.intercept, fit.ar[0]
    closed = np.array([c * (1 - phi ** h) / (1 - phi) + phi ** h * y[-1]
                       for h in range(1, 13)])
    np.testing.assert_allclose(fc, closed, atol=1e-6)


@criterion(7, "DM test: exact null behavior, antisymmetry, size in [2,9]%, "
              "power >= 95%")
def test_criterion_7_dm_calibration():
    started = time.perf_counter()
    e = np.random.default_rng(0).normal(size=40)
    res = dm_test(e, e.copy())
    assert res.statistic == 0.0 and res.pvalue == 1.0

    rng = np.random.default_rng(1)
    a, b = rng.normal(size=60), 1.3 * rng.normal(size=60)
    assert dm_test(a, b).statistic == pytest.approx(-dm_test(b, a).statistic,
                                                    abs=1e-12)

    rng = np.random.default_rng(6)
    rejections = sum(
        dm_test(rng.normal(size=100), rng.normal(size=100)).pvalue < 0.05
        for _ in range(500))
    assert 10 <= rejections <= 45, f"size {rejections / 5:.1f}%"

    rng = np.random.default_rng(7)
    power_hits = 0
    for _ in range(500):
        err = rng.normal(size=200)
        power_hits += dm_test(2.0 * err, err).pvalue < 0.05
    assert power_hits >= 475, f"power {power_hits / 5:.1f}%"

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


ARIMA_CANDIDATES = [ArimaOrder(0, 0, 0), ArimaOrder(1, 0, 0),
                    ArimaOrder(2, 0, 0), ArimaOrder(0, 1, 1),
                    ArimaOrder(1, 1, 0)]


@criterion(8, "synthetic end-to-end: boosting beats the benchmark, drivers "
              "rank top-3, sweep covers all windows")
def test_criterion_8_end_to_end(tmp_path):
    started = time.perf_counter()
    schema = default_schema()
    spec = SynthSpec(n=84)
    beats, top3 = 0, 0
    for seed in range(20):
        frame = synth_generate(1000 + seed, schema, spec)
        train, test = chrono_split(frame, 16)
        y_tr = train.column(schema.target)
        y_te = test.column(schema.target)
        fit = select_order(y_tr, ARIMA_CANDIDATES, seed=seed)
        bench_rmse = float(np.sqrt(((y_te - forecast(fit, y_tr, 16)) ** 2).mean()))

        X_tr = train.matrix(schema.features)
        model = fit_gradient_boosting(X_tr, y_tr, BoostParams(
            learning_rate=0.1, n_estimators=200, max_depth=3,
            subsample=0.8, colsample_bytree=0.8, seed=seed))
        pred = model.predict(test.matrix(schema.features))
        model_rmse = float(np.sqrt(((y_te - pred) ** 2).mean()))
        beats += model_rmse < bench_rmse

        background = BackgroundSet.from_training(X_tr, cap=32, seed=seed)
        matrix = explain_matrix(model, X_tr, background)
        ranked = global_importance(matrix, schema.features)
        top3 += {name for name, _ in ranked[:3]} == set(spec.drivers)

    assert beats >= 18, f"boosting beat the benchmark in only {beats}/20 seeds"
    assert top3 >= 18, f"drivers ranked top-3 in only {top3}/20 seeds"

    # sweep structure over the published window lengths
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 5, "out_dir": str(tmp_path / "out"),
        "data": {"synth": {"kind": "nonlinear", "n": 84}},
        "split_months": [24, 16, 12, 9, 6],
        "primary_split": 16,
        "cv": {"k": 3},
        "roster": {
            "arima": {"candidates": [[0, 0, 0], [1, 0, 0], [2, 0, 0]]},
            "boosting": {"grid": {"learning_rate": [0.1],
                                  "n_estimators": [100], "max_depth": [3],
                                  "subsample": [0.8],
                                  "colsample_bytree": [0.8]}},
        },
    }))
    assert cli_main(["sweep", "--config", str(cfg)]) == 0
    lines = [ln for ln in open(tmp_path / "out" / "split_sweep.csv")
             .read().splitlines() if ln and not ln.startswith("#")]
    rows = [ln.split(",") for ln in lines[1:]]
    months_seen = {row[0]: set() for row in rows}
    for row in rows:
        assert row[2] != "", "missing rmse cell"
        months_seen[row[0]].add(int(row[1]))
    for model, months in months_seen.items():
        assert months == {24, 16, 12, 9, 6}, model

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"


@criterion(9, "quadratic attribution recovers degree 2 and the analytic "
              "crossing after outlier filtering")
def test_criterion_9_interpretation_pipeline():
    # predictor depends only on feature 0 through (x-2)(x-7); under the
    # marginal value function its attribution is that quadratic shifted by
    # the background mean, so the crossing roots are analytic
    rng = np.random.default_rng(91)
    a_root, b_root = 2.0, 7.0
    f = lambda Z: (Z[:, 0] - a_root) * (Z[:, 0] - b_root)

    background_rows = np.column_stack([
        rng.uniform(3.0, 6.0, 16), rng.normal(size=16), rng.normal(size=16)])
    background = BackgroundSet(background_rows)
    base = float(np.mean(f(background_rows)))

    xs = np.concatenate([np.linspace(0.0, 9.0, 28), [45.0, 60.0]])  # extremes
    X = np.column_stack([xs, rng.normal(size=30), rng.normal(size=30)])
    matrix = explain_matrix(f, X, background)

    x, shap = X[:, 0], matrix.phi[:, 0]
    filtered = filter_outliers(x, shap)
    assert set(range(30)) - set(filtered.kept.tolist()) == {28, 29}
    assert sorted(filtered.removed) == [28, 29]

    fit = fit_functional_form(x[filtered.kept], shap[filtered.kept])
    assert fit.degree == 2
    lo = x[filtered.kept].min()
    hi = x[filtered.kept].max()
    report = zero_crossings(fit, (lo, hi))
    # analytic roots of (x-2)(x-7) - base = 0
    mid = (a_root + b_root) / 2.0
    disc = math.sqrt((a_root - b_root) ** 2 / 4.0 + base)
    analytic = sorted([mid - disc, mid + disc])
    assert len(report.roots) == 2
    for got, want in zip(report.roots, analytic):
        assert abs(got - want) <= 0.2, (got, want)

    # idempotence on every tested point set
    test_sets = [
        (x, shap),
        (x[filtered.kept], shap[filtered.kept]),
        (rng.normal(size=25), np.zeros(25)),
        (rng.standard_cauchy(size=25), np.zeros(25)),
        (np.full(8, 3.3), np.arange(8.0)),
    ]
    for xs, ys in test_sets:
        once = filter_outliers(xs, ys)
        twice = filter_outliers(xs[once.kept], ys[once.kept])
        assert (twice.kept.tolist() == list(range(len(once.kept)))
                and twice.removed == ())


@criterion(10, "run, sweep, and explain are byte-identical across reruns")
def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 77, "out_dir": str(tmp_path / "unused"),
        "data": {"synth": {"kind": "nonlinear", "n": 70}},
        "split_months": [16, 6], "primary_split": 16,
        "cv": {"k": 3},
        "roster": {
            "arima": {"candidates": [[0, 0, 0], [1, 0, 0]]},
            "ridge": {"grid": {"lam": [0.01, 0.3]}},
            "boosting": {"grid": {"learning_rate": [0.1],
                                  "n_estimators": [60], "max_depth": [2],
                                  "subsample": [0.8],
                                  "colsample_bytree": [0.8]}},
        },
    }))
    for command, extra in [("run", []), ("sweep", []),
                           ("explain", ["--model", "boosting"])]:
        dir_a = tmp_path / f"{command}_a"
        dir_b = tmp_path / f"{command}_b"
        assert cli_main([command, "--config", str(cfg),
                         "--out", str(dir_a)] + extra) == 0
        assert cli_main([command, "--config", str(cfg),
                         "--out", str(dir_b)] + extra) == 0
        names = sorted(os.listdir(dir_a))
        assert names == sorted(os.listdir(dir_b))
        match, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, names,
                                                   shallow=False)
        assert mismatch == [] and errors == [], (command, mismatch, errors)
