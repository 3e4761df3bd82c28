import math

import numpy as np
import pytest

from forecastlab.families import FAMILIES, fit_family
from forecastlab.linear import LinearModel
from forecastlab.svr import SvrModel
from forecastlab.trees import BoostedModel, ForestModel
from forecastlab.tuning import (
    CvFolds,
    CvPlan,
    ParamGrid,
    TuningError,
    grid_search,
    kfold_indices,
)


class TestKfold:
    def test_contiguous_blocks(self):
        folds = kfold_indices(10, CvPlan(k=5, shuffle=False))
        expect = [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]]
        for fold, want in zip(folds, expect):
            np.testing.assert_array_equal(fold, want)

    def test_partition_law(self):
        for n, k in [(10, 3), (17, 5), (9, 9)]:
            folds = kfold_indices(n, CvPlan(k=k))
            merged = np.concatenate(folds)
            assert len(merged) == n
            np.testing.assert_array_equal(np.sort(merged), np.arange(n))

    def test_sizes_differ_by_at_most_one(self):
        folds = kfold_indices(10, CvPlan(k=3))
        assert sorted(len(f) for f in folds) == [3, 3, 4]

    def test_shuffle_deterministic(self):
        a = kfold_indices(20, CvPlan(k=4, shuffle=True, seed=3))
        b = kfold_indices(20, CvPlan(k=4, shuffle=True, seed=3))
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    def test_k_exceeding_n(self):
        with pytest.raises(TuningError):
            kfold_indices(3, CvPlan(k=5))

    def test_k_below_two(self):
        with pytest.raises(TuningError):
            CvPlan(k=1)


def noisy_collinear(seed, n=60):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=n)
    x1 = x0 + 0.05 * rng.normal(size=n)
    x2 = rng.normal(size=n)
    X = np.column_stack([x0, x1, x2])
    y = x0 + x1 + 0.5 * x2 + 1.5 * rng.normal(size=n)
    return X, y


class TestGridSearch:
    def test_empty_grid_is_one_default_cell(self):
        assert ParamGrid.from_dict({}).cells() == [{}]

    def test_single_cell(self):
        X, y = noisy_collinear(0)
        best, table = grid_search("ridge", ParamGrid.from_dict({"lam": [0.3]}),
                                  X, y, CvPlan(k=4))
        assert best == {"lam": 0.3}
        assert len(table) == 1
        assert table[0].rank == 1

    def test_ridge_regularization_wins_on_collinear_data(self):
        def collinear(seed, n=30, p=8):
            rng = np.random.default_rng(seed)
            f = rng.normal(size=n)
            X = f[:, None] + 0.01 * rng.normal(size=(n, p))
            y = f + 2.5 * rng.normal(size=n)
            return X, y

        grid = ParamGrid.from_dict({"lam": [0.0, 0.5]})
        wins = 0
        for seed in range(20):
            X, y = collinear(seed + 500)
            best, _ = grid_search("ridge", grid, X, y, CvPlan(k=5), seed=seed)
            wins += best == {"lam": 0.5}
        assert wins >= 18

    def test_deterministic_tables(self):
        X, y = noisy_collinear(1)
        grid = ParamGrid.from_dict({"lam": [0.01, 0.1, 1.0]})
        _, t1 = grid_search("lasso", grid, X, y, CvPlan(k=5), seed=9)
        _, t2 = grid_search("lasso", grid, X, y, CvPlan(k=5), seed=9)
        assert t1 == t2

    def test_best_equals_table_minimum(self):
        X, y = noisy_collinear(2)
        grid = ParamGrid.from_dict({"lam": [0.001, 0.05, 0.3, 0.9]})
        best, table = grid_search("ridge", grid, X, y, CvPlan(k=5))
        winner = min(table, key=lambda c: c.mean_mse)
        assert best == winner.params
        assert winner.rank == 1

    def test_every_cell_appears_exactly_once(self):
        X, y = noisy_collinear(3)
        grid = ParamGrid.from_dict({"lam": [0.1, 0.2], "alpha": [0.3, 0.7]})
        _, table = grid_search("elastic_net", grid, X, y, CvPlan(k=3))
        assert len(table) == 4
        seen = {tuple(sorted(c.params.items())) for c in table}
        assert len(seen) == 4

    def test_failed_cell_records_inf(self):
        X, y = noisy_collinear(4)
        # max_features beyond the column count fails per-fold, not fatally
        grid = ParamGrid.from_dict({"max_features": [2, 99],
                                    "n_estimators": [5], "max_depth": [2]})
        best, table = grid_search("random_forest", grid, X, y, CvPlan(k=3))
        assert best["max_features"] == 2
        bad = [c for c in table if c.params["max_features"] == 99]
        assert math.isinf(bad[0].mean_mse)

    def test_diverging_boosting_cell_records_inf(self):
        X, y = noisy_collinear(7)
        grid = ParamGrid.from_dict({"n_estimators": [20], "max_depth": [2],
                                    "learning_rate": [1e308, 0.1]})
        best, table = grid_search("boosting", grid, X, y, CvPlan(k=3))
        assert best["learning_rate"] == 0.1
        assert [(c.params["learning_rate"], c.rank) for c in table] == [
            (1e308, 2), (0.1, 1)]
        assert math.isinf(table[0].mean_mse) and math.isfinite(table[1].mean_mse)

    def test_programming_error_propagates(self, monkeypatch):
        # forest cells fit one by one through tuning's fit_family
        import forecastlab.tuning as tuning

        def broken(*args, **kwargs):
            raise AttributeError("'Tree' object has no attribute 'left'")

        monkeypatch.setattr(tuning, "fit_family", broken)
        X, y = noisy_collinear(6)
        with pytest.raises(AttributeError, match="left"):
            grid_search("random_forest", ParamGrid.from_dict(
                {"n_estimators": [2], "max_depth": [2]}), X, y, CvPlan(k=3))

    def test_programming_error_in_lockstep_propagates(self, monkeypatch):
        # a linear family's cells fit at once through the lockstep solver
        import forecastlab.families as families

        def broken(*args, **kwargs):
            raise AttributeError("'LinearModel' object has no attribute 'beta'")

        monkeypatch.setattr(families, "fit_linear_grid", broken)
        X, y = noisy_collinear(6)
        with pytest.raises(AttributeError, match="beta"):
            grid_search("ridge", ParamGrid.from_dict({"lam": [0.1, 0.2]}), X, y,
                        CvPlan(k=3))

    def test_shared_folds_are_of_the_searched_window(self):
        # given folds, grid_search searches the folds' own X, y and plan,
        # and a mismatch is a programming error, not a failed cell
        X, y = noisy_collinear(11)
        plan = CvPlan(k=3)
        grid = ParamGrid.from_dict({"lam": [0.1, 0.2]})
        cells = grid.cells()
        folds = CvFolds(X, y, plan, {"ridge": cells, "lasso": cells})
        assert (grid_search("ridge", grid, folds.X, folds.y, plan, folds=folds)
                == grid_search("ridge", grid, X, y, plan))
        for args in ((X.copy(), folds.y, plan), (folds.X, y.copy(), plan),
                     (folds.X, folds.y, CvPlan(k=3))):
            with pytest.raises(TypeError, match="folds must be"):
                grid_search("ridge", grid, *args, folds=folds)
        with pytest.raises(KeyError):  # a linear search must be declared
            grid_search("elastic_net", grid, folds.X, folds.y, plan, folds=folds)

    def test_fold_assignment_independent_of_grid(self):
        plan = CvPlan(k=4, shuffle=True, seed=5)
        a = kfold_indices(40, plan)
        b = kfold_indices(40, plan)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    def test_csv_export_layout(self, tmp_path):
        from forecastlab.config import parse_config
        from forecastlab.pipeline import cmd_run

        config = parse_config({
            "out_dir": str(tmp_path), "data": {"synth": {"n": 40}},
            "split_months": [8], "primary_split": 8, "cv": {"k": 3},
            "roster": {"arima": {"candidates": [[0, 0, 0]]},
                       "ridge": {"grid": {"lam": [0.1, 0.9]}}}})
        cmd_run(config, "0" * 12)
        lines = (tmp_path / "cv_ridge.csv").read_text().splitlines()[1:]
        assert lines[0] == "family,lam,mean_mse,sd_mse,rank"
        assert len(lines) == 3
        assert lines[1].startswith("ridge,0.1,")


def default_grid(family, n_features=None):
    return FAMILIES[family].default_grid(n_features)


class TestDefaultGrids:
    def test_every_family_has_a_grid(self):
        for family in FAMILIES:
            grid = default_grid(family)
            assert isinstance(grid, dict)

    def test_boosting_depths_are_explicit_list(self):
        assert default_grid("boosting")["max_depth"] == [2, 4, 6, 8, 10]

    def test_continuous_ranges_ten_points(self):
        assert len(default_grid("ridge")["lam"]) == 10
        lam = default_grid("ridge")["lam"]
        assert lam[0] == pytest.approx(0.001)
        assert lam[-1] == pytest.approx(0.9)

    def test_svr_kernels(self):
        assert default_grid("svr")["kernel"] == ["linear", "polynomial", "rbf"]

    @pytest.mark.parametrize("p,expected", [
        (1, [1]), (3, [2, 3]), (16, [2, 3, 4, 6, 7, 9, 12, 15, 16])])
    def test_forest_max_features_clipped_to_width(self, p, expected):
        shipped = default_grid("random_forest")
        grid = default_grid("random_forest", p)
        assert grid["max_features"] == expected
        assert shipped["max_features"] == [2, 3, 4, 6, 7, 9, 12, 15, 20]
        for name in ("max_depth", "n_estimators"):
            assert grid[name] == shipped[name]
        rng = np.random.default_rng(0)
        X, y = rng.normal(size=(12, p)), rng.normal(size=12)
        for value in grid["max_features"]:  # every cell can be fitted
            fit_family("random_forest", X, y, {
                "max_features": value, "n_estimators": 1, "max_depth": 2})
        for family in FAMILIES.values():  # every shipped value passes the check
            for name, values in family.default_grid(p).items():
                for value in values:
                    family.params({name: value}, n_features=p)

    def test_width_leaves_other_families_alone(self):
        for family in FAMILIES:
            if family != "random_forest":
                assert default_grid(family, 1) == default_grid(family)


class TestFamilies:
    def test_all_families_fit_and_predict(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 4))
        y = X[:, 0] - X[:, 1] + 0.1 * rng.normal(size=40)
        small = {
            "ols": {},
            "ridge": {"lam": 0.1},
            "lasso": {"lam": 0.05},
            "elastic_net": {"lam": 0.05, "alpha": 0.5},
            "random_forest": {"n_estimators": 10, "max_depth": 3},
            "boosting": {"n_estimators": 10, "max_depth": 2},
            "svr": {"C": 5.0, "epsilon": 0.05, "kernel": "rbf"},
        }
        for family, params in small.items():
            model = fit_family(family, X, y, params, seed=1)
            assert isinstance(getattr(model, "model", model),
                              (LinearModel, SvrModel, ForestModel, BoostedModel))
            pred = model.predict(X)
            assert pred.shape == (40,)
            assert np.all(np.isfinite(pred))

    def test_families_leave_inputs_unwritten(self):
        # grid_search shares one slice of each fold across every cell
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 3))
        y = X[:, 0] + 0.1 * rng.normal(size=30)
        X.flags.writeable = False
        y.flags.writeable = False
        params = {"random_forest": {"n_estimators": 3, "max_depth": 2},
                  "boosting": {"n_estimators": 3, "subsample": 0.5,
                               "colsample_bytree": 0.5},
                  "svr": {"C": 1.0, "kernel": "linear"},
                  "ridge": {"lam": 0.1}, "lasso": {"lam": 0.1},
                  "elastic_net": {"lam": 0.1}}
        for family in FAMILIES:
            fitted = fit_family(family, X, y, params.get(family, {}), seed=1)
            fitted.predict(X)

    def test_predictions_on_raw_scale_after_standardization(self):
        rng = np.random.default_rng(7)
        X = rng.normal(100, 20, size=(50, 2))
        y = 0.05 * X[:, 0] + rng.normal(size=50) * 0.01
        fitted = fit_family("ridge", X, y, {"lam": 0.001}, seed=0)
        resid = fitted.predict(X) - y
        assert float(np.sqrt((resid ** 2).mean())) < 0.1

    def test_solvers_looked_up_at_call_time(self, monkeypatch):
        # a wrapper put in place of the module global sees every fit
        import forecastlab.families as families
        calls = []
        for name in ("fit_linear", "fit_svr"):
            real = getattr(families, name)

            def counting(*args, real=real, name=name, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(families, name, counting)
        X, y = noisy_collinear(9)
        fit_family("ridge", X, y, {"lam": 0.1})
        fit_family("svr", X, y, {"C": 1.0, "kernel": "linear"})
        assert calls == ["fit_linear", "fit_svr"]

    def test_name_the_family_does_not_read_rejected(self):
        X, y = noisy_collinear(10)
        with pytest.raises(ValueError, match="ridge reads no grid parameter"):
            fit_family("ridge", X, y, {"alpha": 0.3})

    def test_unknown_family(self):
        from forecastlab.families import FamilyError
        with pytest.raises(FamilyError):
            fit_family("lstm", np.zeros((10, 2)), np.zeros(10), {})


def per_cell_grid_search(family, grid, X, y, plan):
    """Oracle: the cell-by-cell loop through fit_family that grid_search
    ran for every family before linear grids were fitted in lockstep."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    all_idx = np.arange(len(y))
    splits = []
    for val_idx in kfold_indices(len(y), plan):
        train_idx = np.setdiff1d(all_idx, val_idx, assume_unique=True)
        splits.append((X[train_idx], y[train_idx], X[val_idx], y[val_idx]))
    cells, scores, cause = grid.cells(), [], None
    for params in cells:
        fold_mse = []
        for X_train, y_train, X_val, y_val in splits:
            try:
                model = fit_family(family, X_train, y_train, params)
                score = float(((model.predict(X_val) - y_val) ** 2).mean())
                if not math.isfinite(score):
                    score = math.inf
                    cause = cause or "non-finite validation MSE"
            except ValueError as exc:
                score = math.inf
                cause = cause or f"{type(exc).__name__}: {exc}"
            fold_mse.append(score)
        scores.append((float(np.mean(fold_mse)), float(np.std(fold_mse)))
                      if all(map(math.isfinite, fold_mse))
                      else (math.inf, math.inf))
    order = sorted(range(len(cells)), key=lambda i: (scores[i][0], i))
    table = [(cells[i], *scores[i], order.index(i) + 1) for i in range(len(cells))]
    if math.isinf(scores[order[0]][0]):
        return None, table, cause
    return cells[order[0]], table, None


def bits(v):
    return np.float64(v).tobytes()


def assert_grid_parity(family, grid, X, y, plan):
    """grid_search's table, ranks, best cell and all-failed cause equal the
    per-cell oracle's, mean_mse and sd_mse bit for bit."""
    with np.errstate(all="ignore"):
        best, table, cause = per_cell_grid_search(family, grid, X, y, plan)
        if cause is not None:
            with pytest.raises(TuningError) as err:
                grid_search(family, grid, X, y, plan)
            assert str(err.value) == (f"every {family} grid cell failed, "
                                      f"the first with {cause}")
            return
        got_best, got = grid_search(family, grid, X, y, plan)
    assert got_best == best
    assert [(c.params, bits(c.mean_mse), bits(c.sd_mse), c.rank) for c in got] == [
        (params, bits(mean), bits(sd), rank) for params, mean, sd, rank in table]


LINEAR_GRIDS = {"ridge": {"lam": [0.001, 0.01, 0.1, 0.9]},
                "lasso": {"lam": [0.001, 0.01, 0.1, 0.9]},
                "elastic_net": {"lam": [0.001, 0.01, 0.1],
                                "alpha": [0.05, 0.5, 0.95]}}


class TestLockstepGridParity:
    """A linear family's lockstep grid equals the per-cell loop."""

    @pytest.mark.parametrize("family", sorted(LINEAR_GRIDS))
    def test_random_data(self, family):
        rng = np.random.default_rng(44)
        for case in range(6):
            n, p = int(rng.integers(20, 70)), int(rng.integers(1, 9))
            X = rng.normal(size=(n, p))
            y = X @ rng.normal(size=p) + rng.normal(size=n)
            plan = CvPlan(k=int(rng.integers(2, 6)), shuffle=bool(case % 2),
                          seed=case)
            assert_grid_parity(family, ParamGrid.from_dict(LINEAR_GRIDS[family]),
                               X, y, plan)

    @pytest.mark.parametrize("workload", ["run-quickstart", "explain-forest",
                                          "explain-exact", "sweep-arima-linear"])
    def test_workload_training_windows(self, workload):
        # each benchmark workload's seed-42 training window, with the
        # shipped ridge and lasso grids and the quickstart's elastic net
        import os
        import sys
        from forecastlab.config import parse_config
        from forecastlab.dataset import chrono_split
        from forecastlab.pipeline import load_data
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        sys.path.insert(0, os.path.join(root, "perfbench"))
        try:
            from workloads import WORKLOADS
        finally:
            sys.path.pop(0)
        config = parse_config(WORKLOADS[workload].build(42, False))
        train, _ = chrono_split(load_data(config), config.primary_split)
        X = train.matrix(config.schema.features)
        y = train.column(config.schema.target)
        plan = CvPlan(config.cv.k, config.cv.shuffle)
        for family, grid in (("ridge", default_grid("ridge")),
                             ("lasso", default_grid("lasso")),
                             ("elastic_net", LINEAR_GRIDS["elastic_net"])):
            assert_grid_parity(family, ParamGrid.from_dict(grid), X, y, plan)

    def test_failing_cells(self):
        X, y = noisy_collinear(12)
        plan = CvPlan(k=4)
        # an invalid cell scores inf beside valid ones
        grid = ParamGrid.from_dict({"lam": [0.1, -1.0, 0.0, 0.5]})
        assert_grid_parity("ridge", grid, X, y, plan)
        _, table = grid_search("ridge", grid, X, y, plan)
        assert math.isinf(table[1].mean_mse) and table[1].rank == 4
        # every cell fails: the first cause, a bad cell before a bad fold
        assert_grid_parity("lasso", ParamGrid.from_dict({"lam": [-1.0, -2.0]}),
                           X, y, plan)
        inf_y = y.copy()
        inf_y[5] = np.inf  # every fold but the first fails its fit
        assert_grid_parity("elastic_net", ParamGrid.from_dict(
            {"lam": [0.1, 0.2], "alpha": [0.5]}), X, inf_y, plan)
        nan_X = X.copy()
        nan_X[40, 1] = np.nan  # fits succeed; the validation MSE does not
        assert_grid_parity("ridge", ParamGrid.from_dict({"lam": [0.1, 0.2]}),
                           nan_X, y, plan)
        assert_grid_parity("ridge", ParamGrid.from_dict({"lam": [0.1, 0.2]}),
                           np.zeros((len(y), 0)), y, plan)
