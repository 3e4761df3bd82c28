import filecmp
import hashlib
import json
import math
import os
import re
import warnings
from collections import Counter

import numpy as np
import pytest

from forecastlab.cli import main
from forecastlab import families, pipeline
from forecastlab.arima import ArimaOrder, default_order_candidates, fit_css
from forecastlab.config import (
    ConfigError,
    DataSpec,
    DmOptions,
    ExplainOptions,
    derive_seed,
    load_config,
    parse_config,
)
from forecastlab.dataset import ColumnSchema, SynthSpec, chrono_split, default_schema
from forecastlab.families import FAMILIES, fit_family
from forecastlab.tuning import CvFolds, CvPlan, grid_search
from forecastlab.evaluation import pow2_scaled, rmse_reduction


def write_config(path, **overrides):
    doc = {
        "seed": 7,
        "out_dir": str(path / "out"),
        "data": {"synth": {"kind": "nonlinear", "n": 70, "noise_scale": 0.25}},
        "split_months": [16, 6],
        "primary_split": 16,
        "cv": {"k": 3, "shuffle": False},
        "roster": {
            "arima": {"candidates": [[0, 0, 0], [1, 0, 0]]},
            "lasso": {"grid": {"lam": [0.01, 0.1]}},
            "boosting": {"grid": {"learning_rate": [0.1],
                                  "n_estimators": [60], "max_depth": [2],
                                  "subsample": [0.8],
                                  "colsample_bytree": [0.8]}},
        },
        "dm": {"h": 1, "small_sample": "auto"},
    }
    doc.update(overrides)
    cfg = path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    return str(cfg)


def read_csv(path):
    lines = [ln for ln in open(path).read().splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


class TestRun:
    def test_outputs_and_metric_consistency(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["run", "--config", cfg]) == 0
        header, rows = read_csv(tmp_path / "out" / "metrics.csv")
        assert header == ["model", "mae", "rmse", "rmse_reduction_pct",
                          "dm_stat", "dm_pvalue"]
        assert rows[0][0] == "arima"
        assert rows[0][3] == "" and rows[0][4] == ""
        bench_rmse = float(rows[0][2])
        for row in rows[1:]:
            got = float(row[3])
            assert got == pytest.approx(
                rmse_reduction(bench_rmse, float(row[2])), abs=1e-9)
        fh, frows = read_csv(tmp_path / "out" / "forecasts.csv")
        assert fh == ["date", "actual", "arima", "lasso", "boosting"]
        assert len(frows) == 16

    def test_provenance_comment_on_every_file(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["run", "--config", cfg])
        for name in os.listdir(tmp_path / "out"):
            first = open(tmp_path / "out" / name).readline()
            if name.endswith(".json"):
                assert "config_sha256" in open(tmp_path / "out" / name).read()
            else:
                assert first.startswith("# config_sha256="), name
                assert "seed=7" in first

    def test_arima_only_roster(self, tmp_path):
        cfg = write_config(tmp_path, roster={
            "arima": {"candidates": [[0, 0, 0], [1, 0, 0]]}})
        assert main(["run", "--config", cfg]) == 0
        _, rows = read_csv(tmp_path / "out" / "metrics.csv")
        assert len(rows) == 1
        assert rows[0][0] == "arima"
        assert rows[0][3] == ""

    def test_target_near_1e160_forecast_by_arima(self, tmp_path):
        # CSS squares of the series overflow, so arima fits it divided by a
        # power of two: the same coefficients, and forecasts of its level
        # instead of the all-zero start
        cfg = write_config(
            tmp_path, schema={"target": "INF", "features": ["ATMD", "CC", "IR"]},
            data={"synth": {"intercept": 1e160}},
            roster={"arima": {"candidates": [[1, 0, 0]]},
                    "ridge": {"grid": {"lam": [0.1]}}})
        assert main(["run", "--config", cfg]) == 0
        _, rows = read_csv(tmp_path / "out" / "forecasts.csv")
        actual = [float(r[1]) for r in rows]
        assert [float(r[2]) for r in rows] == pytest.approx(actual, rel=1e-12)
        config, _ = load_config(cfg)
        y = chrono_split(pipeline.load_data(config), 16)[0].column("INF")
        (_,), unit = pow2_scaled(y)
        seed = derive_seed(config.seed, "arima", 16)
        fit = fit_css(y, ArimaOrder(1, 0, 0), seed=seed)
        small = fit_css(y / unit, ArimaOrder(1, 0, 0), seed=seed)
        assert unit > 1.0 and fit.ar != (0.0,)
        assert np.array(fit.ar).tobytes() == np.array(small.ar).tobytes()
        assert fit.intercept == small.intercept * unit

    def test_target_near_1e158_scored_by_tree_families(self, tmp_path):
        # the squared gradient sums of the tree gains overflow near 1e154,
        # so trees grow on gradients scaled by a power of two: the forest
        # and boosting rows are filled, with no RuntimeWarning
        doc = dict(
            schema={"target": "INF", "features": ["ATMD", "CC", "IR"]},
            roster={"arima": {"candidates": [[1, 0, 0]]},
                    "random_forest": {"grid": {"n_estimators": [3],
                                               "max_depth": [3]}},
                    "boosting": {"grid": {"n_estimators": [5],
                                          "max_depth": [2]}}})
        rmse = {}
        for coef in (1.0, 1e158):
            cfg = write_config(tmp_path, **doc, data={"synth": {
                "kind": "linear", "n": 70, "drivers": ["CC"],
                "coefficients": [coef], "intercept": 0.0,
                "noise_scale": 0.0}})
            out = str(tmp_path / str(coef))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main(["run", "--config", cfg, "--out", out]) == 0
            _, rows = read_csv(os.path.join(out, "metrics.csv"))
            assert [r[0] for r in rows] == ["arima", "random_forest", "boosting"]
            rmse[coef] = [float(r[2]) for r in rows]
        # boosting's trees split as at unit scale
        assert rmse[1e158][2] == pytest.approx(1e158 * rmse[1.0][2], rel=1e-9)

    def test_overflowing_svr_cell_fails_beside_rbf(self, tmp_path):
        # degree 400 at gamma 10 overflows the polynomial kernel matrix: the
        # cell fails at once, and the rbf cell is fitted
        cfg = write_config(tmp_path, roster={
            "arima": {"candidates": [[0, 0, 0]]},
            "svr": {"grid": {"kernel": ["polynomial", "rbf"], "degree": [400],
                             "gamma": [10]}}})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--config", cfg]) == 0
        _, rows = read_csv(tmp_path / "out" / "metrics.csv")
        assert rows[1][0] == "svr" and all(rows[1][1:4])
        _, cv = read_csv(tmp_path / "out" / "cv_svr.csv")
        assert [(r[1], r[4], r[-1]) for r in cv] == [
            ("polynomial", "inf", "2"), ("rbf", cv[1][4], "1")]

    def test_extreme_svr_and_boosting_cells_run_without_warnings(
            self, tmp_path, capsys):
        # on the quickstart, an rbf gamma of 1e308 overflows the kernel
        # exponent, whose entries are then exact zeros, and a boosting
        # learning rate of 1e308 diverges, so that cell scores inf and the
        # 0.1 cell is refitted
        with open(QUICKSTART, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["roster"] = {
            "arima": doc["roster"]["arima"],
            "boosting": {"grid": {"n_estimators": [20], "max_depth": [2],
                                  "learning_rate": [1e308, 0.1]}},
            "svr": {"grid": {"C": [1.0], "kernel": ["rbf"], "gamma": [1e308]}}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = str(tmp_path / "out")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--config", str(cfg), "--out", out]) == 0
        assert "Traceback" not in capsys.readouterr().err
        _, rows = read_csv(os.path.join(out, "metrics.csv"))
        assert [r[0] for r in rows] == ["arima", "boosting", "svr"]
        assert all(math.isfinite(float(r[2])) for r in rows)
        _, cv = read_csv(os.path.join(out, "cv_boosting.csv"))
        assert [(r[3], r[4], r[-1]) for r in cv] == [
            ("1e+308", "inf", "2"), ("0.1", cv[1][4], "1")]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["run", "--config", cfg, "--out", str(tmp_path / "b")])
        names = sorted(os.listdir(tmp_path / "a"))
        assert names == sorted(os.listdir(tmp_path / "b"))
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "a", tmp_path / "b", names, shallow=False)
        assert mismatch == [] and errors == []

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["run", "--config", cfg, "--out", str(tmp_path / "b"),
              "--seed", "99"])
        a = open(tmp_path / "a" / "metrics.csv").read()
        b = open(tmp_path / "b" / "metrics.csv").read()
        assert a != b

    def test_one_cell_grids_fitted_without_search(self, tmp_path, monkeypatch):
        # pinning lasso to the rank-1 cell of its two-cell grid scores the
        # same forecasts, with no cross-validation and no cv table; boosting's
        # grid has one cell in both configs
        cfg = write_config(tmp_path)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "two")]) == 0
        _, rows = read_csv(tmp_path / "two" / "cv_lasso.csv")
        (winner,) = [r for r in rows if r[-1] == "1"]

        def never_searched(*args, **kwargs):
            raise AssertionError("a one-cell grid was cross-validated")

        monkeypatch.setattr(pipeline, "grid_search", never_searched)
        cfg = write_config(tmp_path, roster={
            **json.loads(open(cfg).read())["roster"],
            "lasso": {"grid": {"lam": [float(winner[1])]}}})
        for command in ("run", "sweep"):
            assert main([command, "--config", cfg,
                         "--out", str(tmp_path / command)]) == 0
        names = sorted(os.listdir(tmp_path / "run"))
        assert names == ["forecasts.csv", "metrics.csv"]
        for name in names:
            a = (tmp_path / "two" / name).read_text().split("\n", 1)
            b = (tmp_path / "run" / name).read_text().split("\n", 1)
            assert a[0] != b[0] and a[1] == b[1], name

    def test_solvers_get_the_pinned_layouts(self, tmp_path, monkeypatch):
        # a grid search's folds are row slices, so they reach the solvers
        # C-ordered; a refit gets the frame's column selection, F-ordered.
        # The bits of the linear and SVR solvers depend on this layout.
        stage, seen = ["refit"], []

        def layout(X):
            return ("C" if X.flags.c_contiguous else
                    "F" if X.flags.f_contiguous else "strided")

        def searching(*args, **kwargs):
            stage.append("fold")
            try:
                return grid_search(*args, **kwargs)
            finally:
                stage.pop()

        def recording(name, real):
            def wrapper(X, *args, **kwargs):
                seen.append((stage[-1], name, layout(X)))
                return real(X, *args, **kwargs)
            return wrapper

        def grid_recording(designs, penalties, real=families.fit_linear_grid):
            seen.extend((stage[-1], "linear grid", layout(X)) for X, _ in designs)
            return real(designs, penalties)

        monkeypatch.setattr(pipeline, "grid_search", searching)
        monkeypatch.setattr(families, "fit_linear_grid", grid_recording)
        for name in ("fit_svr", "fit_linear"):
            monkeypatch.setattr(families, name,
                                recording(name, getattr(families, name)))
        cfg = write_config(tmp_path, roster={
            "arima": {"candidates": [[0, 0, 0]]},
            "ridge": {"grid": {"lam": [0.01, 0.1]}},
            "svr": {"grid": {"C": [0.3, 1.0], "kernel": ["rbf"]}}})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert Counter(seen) == {("fold", "linear grid", "C"): 3,
                                 ("fold", "fit_svr", "C"): 6,
                                 ("refit", "fit_svr", "F"): 1,
                                 ("refit", "fit_linear", "F"): 1}


    def test_one_linear_solve_per_split(self, tmp_path, monkeypatch):
        # the searching linear families of a split share one lockstep solve
        # over all their penalties; forest, boosting and svr cells still fit
        # one by one through tuning.fit_family, and explain searches the
        # one family it explains
        import forecastlab.tuning as tuning
        solves, fits, searched = [], [], []

        def solving(designs, penalties, real=families.fit_linear_grid):
            solves.append(len(penalties))
            return real(designs, penalties)

        def fitting(family, *args, real=tuning.fit_family, **kwargs):
            fits.append(family)
            return real(family, *args, **kwargs)

        def searching(family, *args, real=grid_search, **kwargs):
            searched.append(family)
            return real(family, *args, **kwargs)

        monkeypatch.setattr(families, "fit_linear_grid", solving)
        monkeypatch.setattr(tuning, "fit_family", fitting)
        monkeypatch.setattr(pipeline, "grid_search", searching)
        cfg = write_config(
            tmp_path, schema={"target": "INF", "features": ["ATMD", "CC", "IR"]},
            roster={"arima": {"candidates": [[0, 0, 0]]}, "ols": {},
                    "ridge": {"grid": {"lam": [0.01, 0.1]}},
                    "lasso": {"grid": {"lam": [0.01, 0.1, 0.5]}},
                    "elastic_net": {"grid": {"lam": [0.01],
                                             "alpha": [0.2, 0.8]}},
                    "random_forest": {"grid": {"n_estimators": [3],
                                               "max_depth": [2, 3]}},
                    "boosting": {"grid": {"n_estimators": [5],
                                          "max_depth": [2, 3]}},
                    "svr": {"grid": {"C": [0.3, 1.0], "kernel": ["rbf"]}}})
        searching_families = ["ridge", "lasso", "elastic_net", "random_forest",
                              "boosting", "svr"]
        for command, splits in (("run", 1), ("sweep", 2)):
            solves.clear(), fits.clear(), searched.clear()
            assert main([command, "--config", cfg,
                         "--out", str(tmp_path / command)]) == 0
            assert solves == [2 + 3 + 2] * splits
            # two cells on each of three folds, per split
            assert Counter(fits) == {"random_forest": 6 * splits,
                                     "boosting": 6 * splits, "svr": 6 * splits}
            assert searched == searching_families * splits
        solves.clear(), fits.clear(), searched.clear()
        assert main(["explain", "--config", cfg, "--model", "ridge",
                     "--out", str(tmp_path / "explain")]) == 0
        assert (solves, fits, searched) == ([2], [], ["ridge"])

class TestSweep:
    def test_rows_and_run_consistency(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", cfg,
                     "--out", str(tmp_path / "sw")]) == 0
        header, rows = read_csv(tmp_path / "sw" / "split_sweep.csv")
        assert header == ["model", "test_months", "rmse", "mae"]
        assert len(rows) == 2 * 3  # two splits, three models
        main(["run", "--config", cfg, "--out", str(tmp_path / "run")])
        _, mrows = read_csv(tmp_path / "run" / "metrics.csv")
        run_rmse = {r[0]: float(r[2]) for r in mrows}
        for row in rows:
            if row[1] == "16":
                assert float(row[2]) == pytest.approx(run_rmse[row[0]],
                                                      abs=1e-12)


class TestExplain:
    def test_products_and_efficiency_audit(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["explain", "--config", cfg, "--model", "boosting"]) == 0
        out = tmp_path / "out"

        _, irows = read_csv(out / "importance.csv")
        ranks = [int(r[0]) for r in irows]
        assert ranks == list(range(1, len(irows) + 1))

        base = None
        for line in open(out / "shap_values.csv"):
            if line.startswith("# base_value="):
                base = float(line.split("=", 1)[1])
        assert base is not None
        _, srows = read_csv(out / "shap_values.csv")
        phi_sum: dict[int, float] = {}
        for row in srows:
            phi_sum[int(row[0])] = phi_sum.get(int(row[0]), 0.0) + float(row[3])
        _, prows = read_csv(out / "predictions.csv")
        preds = {int(r[0]): float(r[1]) for r in prows}
        for idx, total in phi_sum.items():
            assert base + total == pytest.approx(preds[idx], abs=1e-9)

        doc = json.loads(open(out / "functional_form.json").read())
        assert doc["model"] == "boosting"
        entry = next(iter(doc["features"].values()))
        assert {"degree", "coefficients", "r2", "adj_r2", "crossings",
                "n_points", "outliers_removed"} <= set(entry)

        dep_files = [n for n in os.listdir(out) if n.startswith("dependence_")]
        assert len(dep_files) == 16

        from forecastlab.shapley import tree_shap, BackgroundSet
        from forecastlab.trees import model_from_json
        clone = model_from_json(open(out / "model.json").read())
        bg = BackgroundSet(np.zeros((1, 16)))
        assert tree_shap(clone, np.zeros(16), bg).shape == (16,)

    def test_importance_ranked_once(self, tmp_path, monkeypatch):
        # importance.csv and summary_plot.csv read one ranking
        import sys
        from forecastlab import shapley
        real, calls = shapley.global_importance, []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        binders = [module for name, module in sys.modules.items()
                   if name.split(".")[0] == "forecastlab"
                   and getattr(module, "global_importance", None) is real]
        assert {shapley, pipeline} <= set(binders)
        for module in binders:
            monkeypatch.setattr(module, "global_importance", counted)
        cfg = write_config(tmp_path)
        assert main(["explain", "--config", cfg, "--model", "boosting"]) == 0
        assert len(calls) == 1

    def test_explaining_benchmark_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["explain", "--config", cfg, "--model", "arima"]) == 2
        assert "arima" in capsys.readouterr().err

    @pytest.mark.parametrize("family",
                             ["ridge", "lasso", "elastic_net", "ols", "svr"])
    def test_wide_schema_exact_family_fails_fast(self, tmp_path, capsys,
                                                 monkeypatch, family):
        import forecastlab.pipeline as pipeline

        def never_fit(*args, **kwargs):
            raise AssertionError("family fitted before the feature cap check")

        monkeypatch.setattr(pipeline, "fit_roster_member", never_fit)
        cfg = write_config(tmp_path, roster={
            "arima": {"candidates": [[0, 0, 0]]}, family: {}})
        assert len(load_config(cfg)[0].schema.features) == 16
        assert main(["explain", "--config", cfg, "--model", family]) == 2
        err = capsys.readouterr().err
        assert "capped at 15 features" in err
        assert "Traceback" not in err

    def test_featureless_schema_fails_before_fitting(self, tmp_path, capsys,
                                                     monkeypatch):
        # no feature leaves nothing to attribute; an arima-only run still
        # needs none
        data = tmp_path / "target_only.csv"
        data.write_text("date,INF\n" + "".join(
            f"{2015 + i // 12}-{i % 12 + 1:02d},{2.0 + math.sin(i / 3)}\n"
            for i in range(70)))
        common = dict(schema={"target": "INF", "features": []},
                      data={"csv": str(data)}, split_months=[16])
        cfg = write_config(tmp_path, **common,
                           roster={"arima": {"candidates": [[0, 0, 0]]}})
        assert main(["run", "--config", cfg]) == 0

        def never_fit(*args, **kwargs):
            raise AssertionError("family fitted before the feature check")

        monkeypatch.setattr(pipeline, "fit_roster_member", never_fit)
        cfg = write_config(tmp_path, **common, roster={
            "arima": {"candidates": [[0, 0, 0]]}, "ridge": {},
            "random_forest": {"grid": {"n_estimators": [5]}}})
        capsys.readouterr()
        for family in ("ridge", "random_forest"):
            assert main(["explain", "--config", cfg, "--model", family]) == 2
            err = capsys.readouterr().err
            assert f"explaining {family} needs at least one feature" in err
            assert "Traceback" not in err

    def featureless_run(self, tmp_path, capsys, roster):
        data = tmp_path / "target_only.csv"
        data.write_text("date,INF\n" + "".join(
            f"{2015 + i // 12}-{i % 12 + 1:02d},{2.0 + math.sin(i / 3)}\n"
            for i in range(70)))
        cfg = write_config(tmp_path, schema={"target": "INF", "features": []},
                           data={"csv": str(data)}, split_months=[16],
                           roster={"arima": {"candidates": [[0, 0, 0]]},
                                   **roster})
        assert main(["run", "--config", cfg]) == 0
        err = capsys.readouterr().err
        _, rows = read_csv(tmp_path / "out" / "metrics.csv")
        assert [r[0] for r in rows] == ["arima", *roster]
        assert all(rows[0][1:3])
        for family, row in zip(roster, rows[1:]):  # no family fits on no column
            assert f"warning: {family} failed on 16-month split" in err
            assert row[1:] == [""] * 5
        return err

    def test_featureless_forest_on_its_default_grid_degrades(self, tmp_path,
                                                             capsys):
        # the shipped grid leaves max_features unset at width 0, so the
        # forest fails at fit, as with an explicit grid, not at config load;
        # ridge fails there too, not on an intercept-only model
        self.featureless_run(tmp_path, capsys,
                             {"random_forest": {}, "ridge": {}})

    def test_featureless_ols_and_svr_degrade_without_warnings(self, tmp_path,
                                                              capsys):
        # each is fitted once, without a search, and fails before its solver
        # sees the empty matrix (the SVR kernel's gamma would take the
        # variance of no values)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            err = self.featureless_run(tmp_path, capsys, {
                "ols": {}, "svr": {"grid": {"kernel": ["rbf"]}}})
        assert err.count("no feature columns to fit on") == 2

    def test_featureless_searched_grids_name_the_cause(self, tmp_path,
                                                       capsys):
        # every cell fails in every fold for one reason, which the warning
        # names as ols's does
        err = self.featureless_run(tmp_path, capsys, {
            "ridge": {"grid": {"lam": [0.1, 0.9]}},
            "svr": {"grid": {"C": [1.0, 10.0], "kernel": ["rbf"]}}})
        for family in ("ridge", "svr"):
            assert (f"every {family} grid cell failed, the first with "
                    f"FamilyError: no feature columns to fit on\n") in err

    def test_unfittable_family_exits_2(self, tmp_path, capsys):
        # ridge's shrinkage leaves residuals near 1e159, whose squares
        # overflow, so every cell of a grid with a choice scores inf and
        # tuning fails
        cfg = write_config(
            tmp_path, schema={"target": "INF", "features": ["ATMD", "CC", "IR"]},
            data={"synth": {"kind": "linear", "n": 70, "drivers": ["CC"],
                            "coefficients": [1e160]}},
            roster={"arima": {"candidates": [[0, 0, 0]]},
                    "ridge": {"grid": {"lam": [0.1, 0.2]}}})
        assert main(["explain", "--config", cfg, "--model", "ridge"]) == 2
        err = capsys.readouterr().err
        assert ("ridge fit failed: every ridge grid cell failed, the first "
                "with non-finite validation MSE\n") in err
        assert "Traceback" not in err

    def test_one_cell_unfittable_family_is_fitted_once(self, tmp_path, capsys,
                                                       monkeypatch):
        # the same data with one cell: there is nothing to choose, so no
        # fold is scored; the refit succeeds and the attributions' efficiency
        # check is what fails
        def never_searched(*args, **kwargs):
            raise AssertionError("a one-cell grid was cross-validated")

        monkeypatch.setattr(pipeline, "grid_search", never_searched)
        cfg = write_config(
            tmp_path, schema={"target": "INF", "features": ["ATMD", "CC", "IR"]},
            data={"synth": {"kind": "linear", "n": 70, "drivers": ["CC"],
                            "coefficients": [1e160]}},
            roster={"arima": {"candidates": [[0, 0, 0]]},
                    "ridge": {"grid": {"lam": [0.1]}}})
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["explain", "--config", cfg, "--model", "ridge"]) == 2
        err = capsys.readouterr().err
        assert "ridge attributions failed: efficiency violated" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("family, grid", [
        ("random_forest", {"n_estimators": [5], "max_depth": [3],
                           "max_features": [2]}),
        ("boosting", {"n_estimators": [8], "max_depth": [2],
                      "subsample": [0.8]}),
        ("ridge", {"lam": [0.1]}),
        ("svr", {"C": [2.0], "kernel": ["rbf"]}),
    ])
    def test_one_cell_grid_explained_as_cross_validated(self, tmp_path,
                                                        monkeypatch, family,
                                                        grid):
        # skipping the search changes no model: the one cell is fitted once,
        # bit for bit the refit of the cell cross-validation would choose
        cfg = write_config(
            tmp_path, schema={"target": "INF", "features": ["ATMD", "CC", "IR"]},
            roster={"arima": {"candidates": [[0, 0, 0]]},
                    family: {"grid": grid}})
        config, _ = load_config(cfg)
        train, _ = chrono_split(pipeline.load_data(config), 16)
        X, y = train.matrix(config.schema.features), train.column("INF")
        seed = derive_seed(config.seed, "fit", family, 16)
        plan = CvPlan(config.cv.k, config.cv.shuffle,
                      derive_seed(config.seed, "cv", 16))
        best, (cell,) = grid_search(family, CvFolds(
            X, y, plan, {family: config.roster_spec(family).param_grid(3).cells()}),
            seed=seed)
        assert math.isfinite(cell.mean_mse)
        searched = fit_family(family, X, y, best, seed=seed)

        fits = []

        def counted(*args, **kwargs):
            fits.append(args[0])
            return fit_family(*args, **kwargs)

        monkeypatch.setattr(pipeline, "fit_family", counted)
        model, table = pipeline.fit_roster_member(config, family, train, 16)
        assert fits == [family] and table is None
        assert model == searched

    def test_pinned_winner_explains_as_unpinned(self, tmp_path, monkeypatch):
        # the paper's order: tune with run, pin run's winning cell, explain
        # it; the model and every attribution equal those of the unpinned
        # explain, which only the config hash tells apart
        roster = {"arima": {"candidates": [[0, 0, 0]]},
                  "random_forest": {"grid": {"max_depth": [2, 4],
                                             "max_features": [2, 3],
                                             "n_estimators": [6]}}}
        features = {"target": "INF", "features": ["ATMD", "CC", "IR"]}
        cfg = write_config(tmp_path, schema=features, roster=roster)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        header, rows = read_csv(tmp_path / "run" / "cv_random_forest.csv")
        (winner,) = [r for r in rows if r[-1] == "1"]
        names = header[1:-3]
        pinned = {name: [int(v)] for name, v in zip(names, winner[1:])}
        assert main(["explain", "--config", cfg, "--model", "random_forest",
                     "--out", str(tmp_path / "unpinned")]) == 0

        def never_searched(*args, **kwargs):
            raise AssertionError("a one-cell grid was cross-validated")

        monkeypatch.setattr(pipeline, "grid_search", never_searched)
        cfg = write_config(tmp_path, schema=features, roster={
            **roster, "random_forest": {"grid": pinned}})
        assert main(["explain", "--config", cfg, "--model", "random_forest",
                     "--out", str(tmp_path / "pinned")]) == 0

        unpinned, pinned_dir = tmp_path / "unpinned", tmp_path / "pinned"
        names = sorted(os.listdir(unpinned))
        assert names == sorted(os.listdir(pinned_dir))
        for name in names:
            a = (unpinned / name).read_text()
            b = (pinned_dir / name).read_text()
            if name.endswith(".csv"):
                assert a.split("\n", 1)[0] != b.split("\n", 1)[0], name
                a, b = a.split("\n", 1)[1], b.split("\n", 1)[1]
            elif name == "functional_form.json":
                a, b = json.loads(a), json.loads(b)
                assert a.pop("config_sha256") != b.pop("config_sha256")
            assert a == b, name
        assert "model.json" in names

    def test_efficiency_violation_exits_2(self, tmp_path, capsys):
        # on a target near 1e160 the ridge fit succeeds, but rounding leaves
        # base value plus attributions far more than 1e-9 off a prediction
        cfg = write_config(
            tmp_path, schema={"target": "INF", "features": ["ATMD", "CC", "IR"]},
            data={"synth": {"intercept": 1e160}},
            roster={"arima": {"candidates": [[1, 0, 0]]},
                    "ridge": {"grid": {"lam": [0.1]}}})
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["explain", "--config", cfg, "--model", "ridge"]) == 2
        err = capsys.readouterr().err
        assert "ridge attributions failed: efficiency violated by" in err
        assert "Traceback" not in err
        assert not os.path.exists(tmp_path / "out")

    def test_unknown_model_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["explain", "--config", cfg, "--model", "mystery"]) == 2

    def test_byte_identical_explains(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["explain", "--config", cfg, "--model", "boosting",
              "--out", str(tmp_path / "a")])
        main(["explain", "--config", cfg, "--model", "boosting",
              "--out", str(tmp_path / "b")])
        names = sorted(os.listdir(tmp_path / "a"))
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "a", tmp_path / "b", names, shallow=False)
        assert mismatch == [] and errors == []


class TestEvaluateSplit:
    def split_with_lasso_raising(self, tmp_path, monkeypatch, exc):
        import forecastlab.pipeline as pipeline
        real = pipeline.fit_roster_member

        def lasso_raises(config, family, train, test_months, folds):
            if family == "lasso":
                raise exc
            return real(config, family, train, test_months, folds)

        monkeypatch.setattr(pipeline, "fit_roster_member", lasso_raises)
        config, _ = load_config(write_config(tmp_path, roster={
            "arima": {"candidates": [[0, 0, 0]]},
            "lasso": {"grid": {"lam": [0.1]}}}))
        return pipeline.evaluate_split(config, pipeline.load_data(config), 16)

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        with pytest.raises(AttributeError, match="coef_"):
            self.split_with_lasso_raising(tmp_path, monkeypatch, AttributeError(
                "'LinearModel' object has no attribute 'coef_'"))

    def test_value_error_degrades_to_none_forecast(self, tmp_path,
                                                   monkeypatch, capsys):
        _, tables, forecasts = self.split_with_lasso_raising(
            tmp_path, monkeypatch, ValueError("singular design"))
        assert forecasts["lasso"] is None
        assert "lasso" not in tables
        assert len(forecasts["arima"]) == 16
        assert capsys.readouterr().err == ("warning: lasso failed on 16-month "
                                           "split: singular design\n")

    def test_k_above_training_rows_fails_only_searching_families(
            self, tmp_path, capsys):
        # folds are sliced inside each family's search: k above the
        # window's 38 rows fails lasso's search alone, and the one-cell
        # boosting grid and arima are still scored; explaining lasso exits 2
        cfg = write_config(
            tmp_path, schema={"target": "INF", "features": ["ATMD", "CC", "IR"]},
            cv={"k": 60, "shuffle": False},
            data={"synth": {"kind": "nonlinear", "n": 54, "noise_scale": 0.25}})
        assert main(["run", "--config", cfg]) == 0
        assert capsys.readouterr().err == ("warning: lasso failed on 16-month "
                                           "split: k=60 exceeds n=38\n")
        _, rows = read_csv(tmp_path / "out" / "metrics.csv")
        assert [(r[0], r[2] != "") for r in rows] == [
            ("arima", True), ("lasso", False), ("boosting", True)]
        assert main(["explain", "--config", cfg, "--model", "lasso",
                     "--out", str(tmp_path / "explain")]) == 2
        err = capsys.readouterr().err
        assert "lasso fit failed: k=60 exceeds n=38" in err
        assert "Traceback" not in err


class TestSynth:
    def test_synth_round_trips_through_loader(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["synth", "--config", cfg]) == 0
        from forecastlab.dataset import default_schema, load_frame
        # provenance comment included: the loader must take the file as-is
        text = open(tmp_path / "out" / "synth.csv").read()
        frame = load_frame(text, default_schema())
        assert frame.n_rows == 70

    # sha256 of synth.csv at seed 42, provenance line included; a None
    # synth section stands for configs/quickstart.json
    @pytest.mark.parametrize("synth, digest", [
        (None,
         "eb4929237bbffe7cf1734b1f1fe626a43b746307a50ef7a0ab377097d9264316"),
        ({"kind": "linear", "n": 120, "noise_ar": 0.6},
         "2715af05194b9526c39788aeec0b54ecafb1d82d1d876030e8b1a0d3be5af73e"),
        ({"kind": "linear", "n": 60, "drivers": ["CC", "IR"],
          "coefficients": [1.5, -0.5], "intercept": 2.0, "noise_scale": 0.5},
         "8bd03897a4810303063ca2c618a8381a07c24779e7fd30dbdc0a4bef12a572fd"),
    ], ids=["quickstart", "linear", "linear-set"])
    def test_synth_csv_bytes_pinned(self, tmp_path, synth, digest):
        cfg = tmp_path / "cfg.json"
        if synth is None:
            cfg = QUICKSTART
        else:
            cfg.write_text(json.dumps({"seed": 42, "data": {"synth": synth},
                                       "roster": {"arima": {}}}))
        out = tmp_path / "out"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        data = (out / "synth.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_synth_requires_synth_data(self, tmp_path):
        cfg = write_config(tmp_path, data={"csv": "whatever.csv"})
        assert main(["synth", "--config", cfg]) == 2


# sha256 of every output file of the config below, as the per-module
# formatters wrote them before pipeline.OutputDir replaced them. The config
# reaches paths no benchmark workload does: a family whose refit fails
# (blank metric, forecast and sweep cells), a null grid value printed as
# None, explained test rows and outliers fenced on the shap axis.
OUTPUT_DIGESTS = {
    "boosting/dependence_ATMD.csv":
        "8fa9ebba010d17be23a9ea66d68c3214bdb5729f8e1dc41affc3084b65bb8548",
    "boosting/dependence_CC.csv":
        "72fd7d1d7b6422af58998c82d126ace712f99dac0d8f6c0dac00cddc3a2ffa9b",
    "boosting/dependence_EM.csv":
        "6aa1b4c580ec5d41bfcbaaee6b100a2e2beec4e9d569e085fd7fdd724c33280b",
    "boosting/dependence_IR.csv":
        "ab4d6741e5732350fa0229f57c273b83292b28742628ff756fcb8460ac363449",
    "boosting/functional_form.json":
        "1689f37a92a88c01bea6fde9f553705ac651e59bfe1214b4be4437080dd64578",
    "boosting/importance.csv":
        "20f83ab858cd608c6043ab968ba03ac4f97f67900b279904fab5201daa0b2d11",
    "boosting/model.json":
        "395d29a2451df88cfeaef0ef606242d7e4cf13540c9060daa00e880279e44837",
    "boosting/predictions.csv":
        "b2aa8938acbdf61ce57a05f1af43426b487c4cacfcc30839d8e396059df82bdb",
    "boosting/shap_values.csv":
        "2a60ecca9b93cf48144df5f56d175ee6a28fda1e165a9e5b7b621aa303afb4e7",
    "boosting/summary_plot.csv":
        "6396291a08e0ce5be06b3b8692e4b32a0117c704556f7ff191b148d50be2e0fb",
    "lasso/dependence_ATMD.csv":
        "ac9bab7f8d6ccf26298336096d9bfe64296261c25d25d1bbe2bbc53557bc9d05",
    "lasso/dependence_CC.csv":
        "0e1c05a89b92dfd8a28151955e30905e746c9061edc3676087fbef2f135ee8bb",
    "lasso/dependence_EM.csv":
        "64b3a9332558b32e88a2e235cb20b8542133ea4589f7047c20dd43e4451e2a5d",
    "lasso/dependence_IR.csv":
        "ffae0a5935c312e8ca72a53eb658bb90fc75de865ca31697bdfcaa8452fde753",
    "lasso/functional_form.json":
        "80e83f752743556f9eae8bcd7a89aac71b34c583ff8c13ee237dfe5e7324298b",
    "lasso/importance.csv":
        "bf51fd5ac14ab6ccda06ee750755d323072b24d41de45ca8edf7bfbd19a6253f",
    "lasso/predictions.csv":
        "375a2f748432c78a9255ceb7c82d2b5441fcafae009db56f8cdf74e508f584ea",
    "lasso/shap_values.csv":
        "40881c262721bc6ad370fd9b61f1f5115e831173c857540ff13586dd97c2cd33",
    "lasso/summary_plot.csv":
        "a14341bec3ff1cc2d7b19f8255bc79e19a7542548d916a68fb97179cfe83a607",
    "run/cv_lasso.csv":
        "d1d162dbdf32baf40298599953a21d05ce05d6ed7e807213a9e402df47203fed",
    "run/cv_random_forest.csv":
        "0ee137eaa850ce0c5a2f5d4c9abcc4207d9d26c8b622d385d397411a44e272d9",
    "run/forecasts.csv":
        "ec9dae5b6ce3b5e588ad0297eca579c1b49f335e941ebfd7b1d79785cac0c135",
    "run/metrics.csv":
        "001b34d526686b68d588859dce128f689ea97806adeaf6bc9e5b4e53341a5743",
    "sweep/split_sweep.csv":
        "9cbe7335428697f9335528d64d4f33d8fc6d05c431bc35983a7b4409818ca54f",
    "synth/synth.csv":
        "2a7ffe9fa5205e231e6f1309fa5443c3b6e89c421f5e282dbc6c17aaa4f97205",
}


# sha256 of every output file of test_linear_searches_pinned's config,
# recorded when each linear family still searched its grid alone
LINEAR_SEARCH_DIGESTS = {
    "run/cv_elastic_net.csv":
        "b112d686bce01f53c1c84be6d33e56c397000aed885384773e6fdee71e66b929",
    "run/cv_lasso.csv":
        "7681648ce4040d2646a77d5e959e1c15bc87ce76c2602fe73a62d5c49eb0aee9",
    "run/cv_ridge.csv":
        "b3ff1d5d766d76c7f51b476aa1124f92546339de6b75bcdeab887e69727783f4",
    "run/forecasts.csv":
        "fecaad97b27ec5288425758f24ae71395540bb642f3d269a2a8e4d2371872a75",
    "run/metrics.csv":
        "effa65aa8daf0a948974ad8f555e9622dd1fafe1cfae108591e175662678f4ff",
    "sweep/split_sweep.csv":
        "f2bc6825d61fe4049164abd6e89d226b7dce5d7f720f13056d4d41826690e224",
}

class TestOutputBytes:
    def test_every_file_pinned(self, tmp_path, monkeypatch):
        import forecastlab.pipeline as pipeline
        real = pipeline.fit_family

        def ridge_refit_fails(family, *args, **kwargs):
            if family == "ridge":
                raise ValueError("refit refused")
            return real(family, *args, **kwargs)

        monkeypatch.setattr(pipeline, "fit_family", ridge_refit_fails)
        cfg = write_config(
            tmp_path,
            data={"synth": {"kind": "nonlinear", "n": 60, "noise_scale": 0.25}},
            schema={"target": "INF", "features": ["ATMD", "CC", "IR", "EM"]},
            split_months=[12, 6], primary_split=12,
            explain={"rows": "test", "outlier_axis": "shap"},
            roster={
                "arima": {"candidates": [[0, 0, 0], [1, 0, 0]]},
                "lasso": {"grid": {"lam": [0.01, 0.1]}},
                "ridge": {"grid": {"lam": [0.1]}},
                "random_forest": {"grid": {"n_estimators": [4],
                                           "max_depth": [2],
                                           "max_features": [None, 2]}},
                "boosting": {"grid": {"learning_rate": [0.1],
                                      "n_estimators": [20], "max_depth": [2],
                                      "subsample": [0.8],
                                      "colsample_bytree": [0.8]}},
            })
        digests = {}
        for argv in (["run"], ["sweep"], ["synth"],
                     ["explain", "--model", "boosting"],
                     ["explain", "--model", "lasso"]):
            out = tmp_path / argv[-1]
            assert main([*argv, "--config", cfg, "--out", str(out)]) == 0
            for name in sorted(os.listdir(out)):
                digests[f"{argv[-1]}/{name}"] = hashlib.sha256(
                    (out / name).read_bytes()).hexdigest()
        assert digests == OUTPUT_DIGESTS


    def test_linear_searches_pinned(self, tmp_path):
        # ridge, lasso and elastic net each search several cells on the same
        # folds: a lam = 0 ridge cell, which fit_linear solves in closed
        # form, and elastic-net cells at alpha 0 and 1 whose penalties equal
        # a ridge and a lasso cell's
        cfg = write_config(
            tmp_path, seed=11,
            data={"synth": {"kind": "linear", "n": 60, "noise_scale": 0.5}},
            schema={"target": "INF", "features": ["ATMD", "CC", "IR", "EM"]},
            split_months=[12, 6], primary_split=12, cv={"k": 4, "shuffle": False},
            roster={"arima": {"candidates": [[0, 0, 0]]},
                    "ridge": {"grid": {"lam": [0.0, 0.01, 0.1, 0.5]}},
                    "lasso": {"grid": {"lam": [0.01, 0.05, 0.2]}},
                    "elastic_net": {"grid": {"lam": [0.01, 0.05],
                                             "alpha": [0.0, 0.5, 1.0]}}})
        digests = {}
        for command in ("run", "sweep"):
            out = tmp_path / command
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
            for name in sorted(os.listdir(out)):
                digests[f"{command}/{name}"] = hashlib.sha256(
                    (out / name).read_bytes()).hexdigest()
        assert digests == LINEAR_SEARCH_DIGESTS

class TestExitCodes:
    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, typo_key=1)
        assert main(["run", "--config", cfg]) == 2

    def test_unknown_nested_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, cv={"k": 3, "folds": 9})
        assert main(["run", "--config", cfg]) == 2

    def test_missing_csv_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, data={"csv": str(tmp_path / "nope.csv")})
        assert main(["run", "--config", cfg]) == 3

    def test_calendar_gap_csv_exits_3(self, tmp_path):
        from forecastlab.dataset import default_schema
        schema = default_schema()
        lines = ["date," + ",".join(schema.all_columns)]
        months = ["2015-01", "2015-02", "2015-04"]  # gap
        for i, mo in enumerate(months):
            lines.append(",".join([mo] + [str(float(i + j))
                                          for j in range(17)]))
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines))
        cfg = write_config(tmp_path, data={"csv": str(bad)})
        assert main(["run", "--config", cfg]) == 3

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 200000],
                             ids=["not-utf8", "nested-past-recursion-limit"])
    def test_unparseable_config_exits_2(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config {str(cfg)!r}")
        assert "Traceback" not in err

    def test_non_utf8_csv_exits_3(self, tmp_path, capsys):
        schema = default_schema()
        lines = ["date," + ",".join(schema.all_columns)]
        lines += [f"2015-{mo:02d}," + ",".join(["1.0"] * 17)
                  for mo in range(1, 4)]
        bad = tmp_path / "bad.csv"
        bad.write_bytes("\n".join(lines).encode().replace(b"1.0", b"\xff", 1))
        cfg = write_config(tmp_path, data={"csv": str(bad)})
        assert main(["run", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {str(bad)!r} is not UTF-8")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["synth", "run"])
    def test_file_as_out_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.write_text("not a directory")
        cfg = write_config(tmp_path)
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"config error: cannot make output directory {str(out)!r}")
        assert "Traceback" not in err
        assert out.read_text() == "not a directory"

    @pytest.mark.parametrize("command", ["run", "sweep", "explain"])
    def test_unusable_out_rejected_before_any_fit(self, tmp_path, capsys,
                                                  monkeypatch, command):
        import forecastlab.arima as arima

        def never_called(*args, **kwargs):
            raise AssertionError("fitted before checking --out")

        for module, name in ((pipeline, "grid_search"), (pipeline, "fit_family"),
                             (arima, "select_order")):
            monkeypatch.setattr(module, name, never_called)
        cfg = write_config(tmp_path)
        model = ["--model", "boosting"] if command == "explain" else []
        out = tmp_path / "taken"
        out.write_text("not a directory")
        assert main([command, "--config", cfg, "--out", str(out)] + model) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"config error: cannot make output directory {str(out)!r}")
        assert out.read_text() == "not a directory"
        # below a file, or below a directory that cannot be written to
        nested = str(out / "sub")
        assert main([command, "--config", cfg, "--out", nested] + model) == 2
        assert f"{str(out)!r} is not a directory" in capsys.readouterr().err
        # root may write anywhere, so the access check is what refuses here
        monkeypatch.setattr(pipeline.os, "access", lambda *args: False)
        fresh = str(tmp_path / "fresh" / "sub")
        assert main([command, "--config", cfg, "--out", fresh] + model) == 2
        err = capsys.readouterr().err
        assert f"{str(tmp_path)!r} is not writable" in err
        assert "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "taken"]

    def test_series_too_short_for_every_arima_order_exits_2(self, tmp_path,
                                                           capsys):
        # 75 of the quickstart's 84 months held out leave 9 training rows
        with open(QUICKSTART, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc.update(out_dir=str(tmp_path / "out"), split_months=[75],
                   primary_split=75)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: benchmark fit failed: series too short "
                       "for every candidate order: need at least 10 "
                       "observations for (0,0,0), got 9\n")

    def test_unwritable_output_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "synth.csv").mkdir(parents=True)  # a directory in its place
        cfg = write_config(tmp_path)
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"config error: cannot write {str(out / 'synth.csv')!r}")
        assert "Traceback" not in err

    def test_split_longer_than_series_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path, split_months=[80, 16], primary_split=16,
            data={"synth": {"kind": "nonlinear", "n": 70}})
        assert main(["run", "--config", cfg]) == 2

    @pytest.mark.parametrize("overrides", [
        {"data": {"synth": {"n": "abc"}}},
        {"dm": {"h": "x"}},
        {"seed": "x"},
        {"split_months": 5},
        {"schema": {"target": "INF", "features": 5}},
        {"roster": {"arima": {"candidates": 5}}},
        {"data": 5},
        {"explain": {"background_cap": "x"}},
        {"cv": []},
        {"cv": {"k": 3, "shuffle": "false"}},
        {"data": {"synth": {"drivers": "ATMD"}}},
        {"data": {"synth": {"coefficients": [1.0]}}},
        {"data": {"synth": {"kind": "linear", "drivers": ["CC", "IR"]}}},
        {"roster": {"arima": {}, "ridge": {"grid": {"lam": 5}}}},
        {"roster": {"arima": {}, "ridge": {"grid": {"lam": [[0.1]]}}}},
        {"roster": {"arima": {}, "ridge": {"grid": {"lamda": [0.9]}}}},
        {"roster": {"arima": {}, "ols": {"grid": {"lam": [0.9]}}}},
        {"roster": {"arima": {}, "boosting": {"grid": {"base_score": [0.0]}}}},
        {"dm": {"h": 0}},
        {"roster": {"arima": {"candidates": []}}},
        {"roster": {"arima": {}, "lasso": {"grid": {"lam": ["x"]}}}},
        {"roster": {"arima": {}, "svr": {"grid": {
            "C": ["big"], "epsilon": [0.1], "kernel": ["linear"]}}}},
        {"roster": {"arima": {}, "random_forest": {"grid": {
            "max_depth": ["deep"]}}}},
        {"roster": {"arima": {}, "boosting": {"grid": {"subsample": [1.5]}}}},
        {"roster": {"arima": {"candidates": [[12, 0, 0, 1, 0, 0, 12]]}}},
        {"roster": {"arima": {"candidates": [[0, 0, 4, 0, 0, 1, 4]]}}},
        {"roster": {"arima": {}, "svr": {"grid": {"C": [-1]}}}},
        {"roster": {"arima": {}, "svr": {"grid": {"epsilon": [-0.1]}}}},
        {"explain": {"background_cap": 0}},
        {"explain": {"background_cap": -1}},
        {"explain": {"outlier_k": -0.5}},
        {"explain": {"outlier_k": float("nan")}},
        {"roster": {"arima": {}, "random_forest": {"grid": {
            "max_features": [99]}}}},
        {"schema": {"target": "INF", "features": ["CC", "IR", "EM"]}},
        {"data": {"synth": {"n": 10}}},
        {"data": {"synth": {"noise_scale": -5}}},
        {"data": {"synth": {"noise_scale": float("nan")}}},
        {"data": {"synth": {"noise_scale": float("inf")}}},
        {"roster": {"arima": {}, "ridge": {"grid": {
            "lam": [0.1, float("nan")]}}}},
        {"roster": {"arima": {}, "elastic_net": {"grid": {
            "lam": [float("inf")]}}}},
        {"roster": {"arima": {}, "boosting": {"grid": {
            "learning_rate": [float("inf")]}}}},
        {"roster": {"arima": {}, "boosting": {"grid": {
            "min_split_gain": [float("nan")]}}}},
        {"roster": {"arima": {}, "svr": {"grid": {"gamma": [float("nan")]}}}},
        {"roster": {"arima": {}, "svr": {"grid": {"C": [float("inf")]}}}},
        {"roster": {"arima": {}, "svr": {"grid": {
            "epsilon": [float("nan")]}}}},
        {"roster": {"arima": {}, "random_forest": {"grid": {
            "max_depth": [float("inf")]}}}},
        {"seed": float("inf")},
        {"data": {"synth": {"noise_ar": float("inf")}}},
        {"data": {"synth": {"coefficients": [1.0, float("inf"), 0.5]}}},
        {"data": {"synth": {"intercept": float("nan")}}},
        {"cv": {"k": 3.5}},
        {"seed": 7.5},
        {"dm": {"h": True}},
        {"roster": {"arima": {"candidates": [[1.9, 0, 0]]}}},
        {"roster": {"arima": {}, "random_forest": {"grid": {
            "max_depth": [2.7]}}}},
        {"roster": {"arima": {}, "random_forest": {"grid": {
            "n_estimators": [True]}}}},
        {"roster": {"arima": {}, "svr": {"grid": {"degree": [2.5]}}}},
        {"seed": "3"},
        {"data": {"synth": {"noise_scale": True}}},
        {"explain": {"outlier_k": True}},
        {"explain": {"outlier_k": "1.5"}},
        {"roster": {"arima": {}, "ridge": {"grid": {"lam": [True]}}}},
        {"roster": {"arima": {}, "svr": {"grid": {"C": ["2"]}}}},
        {"roster": {"arima": {}, "svr": {"grid": {"epsilon": [True]}}}},
        {"roster": {"arima": {}, "random_forest": {"grid": {
            "max_depth": [-1]}}}},
        {"roster": {"arima": {}, "boosting": {"grid": {"max_depth": [-2]}}}},
        {"roster": {"arima": {}, "boosting": {"grid": {
            "n_estimators": [-3]}}}},
    ], ids=["synth.n", "dm.h", "seed", "split_months", "schema.features",
            "arima.candidates", "data", "explain.background_cap", "cv-list",
            "cv.shuffle-string", "synth.drivers-string",
            "synth.coefficients-short", "synth.drivers-without-coefficients",
            "grid-scalar", "grid-nested-list",
            "ridge-lamda", "ols-lam", "boosting-base_score", "dm.h-zero",
            "arima.candidates-empty", "lasso-lam-string", "svr-C-string",
            "random_forest-max_depth-string", "boosting-subsample-range",
            "arima.candidates-overlap-ar", "arima.candidates-overlap-ma",
            "svr-C-negative", "svr-epsilon-negative",
            "explain.background_cap-zero", "explain.background_cap-negative",
            "explain.outlier_k-negative", "explain.outlier_k-nan",
            "random_forest-max_features-over-schema",
            "synth.drivers-not-in-schema", "synth.n-short",
            "synth.noise_scale-negative", "synth.noise_scale-nan",
            "synth.noise_scale-inf", "ridge-lam-nan", "elastic_net-lam-inf",
            "boosting-learning_rate-inf", "boosting-min_split_gain-nan",
            "svr-gamma-nan", "svr-C-inf", "svr-epsilon-nan",
            "random_forest-max_depth-inf", "seed-inf", "synth.noise_ar-inf",
            "synth.coefficients-inf", "synth.intercept-nan", "cv.k-fraction",
            "seed-fraction", "dm.h-bool", "arima.candidates-fraction",
            "random_forest-max_depth-fraction",
            "random_forest-n_estimators-bool", "svr-degree-fraction",
            "seed-numeric-string", "synth.noise_scale-bool",
            "explain.outlier_k-bool", "explain.outlier_k-numeric-string",
            "ridge-lam-bool", "svr-C-numeric-string", "svr-epsilon-bool",
            "random_forest-max_depth-negative", "boosting-max_depth-negative",
            "boosting-n_estimators-negative"])
    def test_malformed_value_exits_2_before_fitting(self, tmp_path, capsys,
                                                    monkeypatch, overrides):
        import forecastlab.pipeline as pipeline

        def never_called(*args, **kwargs):
            raise AssertionError("called before the config was checked")

        monkeypatch.setattr(pipeline, "load_data", never_called)
        monkeypatch.setattr(pipeline, "fit_roster_member", never_called)
        cfg = write_config(tmp_path, **overrides)
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err


QUICKSTART = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                          "quickstart.json")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def orders(*items):
    return tuple(ArimaOrder(*item) for item in items)


class TestConfigFields:
    """Each key lands on its field and each absent key on its documented
    default, with the values the configs have always parsed to."""

    def test_absent_keys_take_documented_defaults(self):
        config = parse_config({"data": {}, "roster": {"arima": {}}})
        assert (config.seed, config.out_dir) == (0, "out")
        assert config.data == DataSpec(csv=None, synth=SynthSpec(
            kind="nonlinear", n=84, drivers=("ATMD", "CC", "IR"),
            coefficients=(), intercept=None, noise_scale=0.25, noise_ar=0.3))
        assert config.schema == default_schema()
        assert config.split_months == (24, 16, 12, 9, 6)
        assert config.primary_split == 16
        assert config.cv == CvPlan(k=5, shuffle=False, seed=0)
        assert config.dm == DmOptions(h=1, small_sample=None)
        assert config.explain == ExplainOptions(
            rows="train", background_cap=100, outlier_k=1.5, outlier_axis="x")
        assert [f.family for f in config.roster] == ["arima"]
        assert config.roster[0].candidates == tuple(default_order_candidates())

    def test_quickstart(self):
        config, _ = load_config(QUICKSTART)
        doc = json.load(open(QUICKSTART))
        assert (config.seed, config.out_dir) == (42, "out")
        assert config.data.csv is None
        assert config.data.synth == SynthSpec(n=84, noise_scale=0.25)
        assert config.schema == default_schema()
        assert config.split_months == (24, 16, 12, 9, 6)
        assert config.primary_split == 16
        assert config.cv == CvPlan(k=5, shuffle=False)
        assert config.dm == DmOptions(h=1, small_sample=None)
        assert config.explain == ExplainOptions()
        assert config.model_ids == list(doc["roster"])
        assert config.roster_spec("arima").candidates == orders(
            (0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 1), (1, 1, 0))
        for spec in config.roster[1:]:
            assert spec.grid == doc["roster"][spec.family]["grid"]

    def test_quickstart_tuned_pins_one_quickstart_cell(self):
        # the tuned config is the quickstart with every tuned family pinned
        # to one cell of its grid (run's rank-1 row, which CI checks), so
        # explain fits it once
        tuned_path = os.path.join(os.path.dirname(QUICKSTART),
                                  "quickstart_tuned.json")
        tuned, quickstart = json.load(open(tuned_path)), json.load(open(QUICKSTART))
        roster = tuned.pop("roster")
        assert tuned == {k: v for k, v in quickstart.items() if k != "roster"}
        assert list(roster) == list(quickstart["roster"])
        assert roster["arima"] == quickstart["roster"]["arima"]
        config, _ = load_config(tuned_path)
        for spec in config.families:
            grid = quickstart["roster"][spec.family]["grid"]
            assert list(spec.grid) == list(grid)
            assert all(len(v) == 1 and v[0] in grid[name]
                       for name, v in spec.grid.items())

    def test_in_test_document(self, tmp_path):
        config, _ = load_config(write_config(tmp_path))
        assert (config.seed, config.out_dir) == (7, str(tmp_path / "out"))
        assert config.data.synth == SynthSpec(
            kind="nonlinear", n=70, noise_scale=0.25)
        assert (config.split_months, config.primary_split) == ((16, 6), 16)
        assert config.cv == CvPlan(k=3, shuffle=False)
        assert config.dm == DmOptions()
        assert config.model_ids == ["arima", "lasso", "boosting"]
        assert config.roster_spec("arima").candidates == orders(
            (0, 0, 0), (1, 0, 0))
        assert config.roster_spec("lasso").grid == {"lam": [0.01, 0.1]}

    def test_every_key_set(self):
        config = parse_config({
            "seed": 3, "out_dir": "o",
            "data": {"synth": {"kind": "linear", "n": 90,
                               "drivers": ["CC", "IR"],
                               "coefficients": [1, 2], "intercept": 2,
                               "noise_scale": 0, "noise_ar": 0.1}},
            "schema": {"target": "INF", "features": ["CC", "IR", "ATMD"],
                       "log_columns": ["CC"]},
            "split_months": [12, 6], "primary_split": 6,
            "cv": {"k": 4, "shuffle": True},
            "dm": {"h": 2, "small_sample": False},
            "explain": {"rows": "test", "background_cap": 50,
                        "outlier_k": 2, "outlier_axis": "shap"},
            "roster": {
                "arima": {"candidates": [[1, 0, 0], [1, 0, 0, 1, 0, 0, 12]]},
                "svr": {"grid": {"C": [1], "epsilon": [0.1], "degree": [2],
                                 "gamma": [0.5], "coef0": [1.0],
                                 "kernel": ["polynomial"]}}},
        })
        assert (config.seed, config.out_dir) == (3, "o")
        assert config.data.synth == SynthSpec(
            "linear", 90, ("CC", "IR"), (1.0, 2.0), 2.0, 0.0, 0.1)
        assert config.schema == ColumnSchema("INF", ("CC", "IR", "ATMD"),
                                             ("CC",))
        assert (config.split_months, config.primary_split) == ((12, 6), 6)
        assert config.cv == CvPlan(k=4, shuffle=True)
        assert config.dm == DmOptions(h=2, small_sample=False)
        assert config.explain == ExplainOptions("test", 50, 2.0, "shap")
        assert config.roster_spec("arima").candidates == orders(
            (1, 0, 0), (1, 0, 0, 1, 0, 0, 12))
        assert config.roster_spec("svr").param_grid().cells() == [
            {"C": 1, "epsilon": 0.1, "degree": 2, "gamma": 0.5, "coef0": 1.0,
             "kernel": "polynomial"}]

    def test_integral_float_reads_as_int(self):
        config = parse_config({"data": {"synth": {"n": 84.0}},
                               "cv": {"k": 3.0},
                               "roster": {"arima": {"candidates": [[1.0, 0, 0]]}}})
        assert (config.data.synth.n, config.cv.k) == (84, 3)
        assert type(config.cv.k) is int
        assert config.roster_spec("arima").candidates == orders((1, 0, 0))

    def test_csv_data(self):
        config = parse_config({"data": {"csv": "in.csv"},
                               "roster": {"arima": {"candidates": "default"}}})
        assert config.data == DataSpec(csv="in.csv")
        assert len(config.roster_spec("arima").candidates) == 256

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_grid_name_is_read(self, family):
        # each accepted name reaches the solver's parameters
        for name in FAMILIES[family].grid_names:
            spec = parse_config({"data": {}, "roster": {
                "arima": {}, family: {"grid": {name: [GRID_VALUES[name]]}}}})
            cell = spec.roster_spec(family).param_grid().cells()[0]
            params = FAMILIES[family].params(cell)
            assert read_back(params, name) == GRID_VALUES[name], name


GRID_VALUES = {"lam": 0.2, "alpha": 0.3, "n_estimators": 2, "max_depth": 2,
               "max_features": 2, "min_samples_leaf": 2, "learning_rate": 0.2,
               "subsample": 0.5, "colsample_bytree": 0.5, "reg_lambda": 0.5,
               "min_split_gain": 0.1, "C": 2.0, "epsilon": 0.2,
               "kernel": "polynomial", "degree": 2, "gamma": 0.5,
               "coef0": 1.0}


def read_back(params, name):
    if isinstance(params, tuple):  # svr: C, epsilon, KernelSpec
        C, epsilon, kernel = params
        return {"C": C, "epsilon": epsilon, "kernel": kernel.kind}.get(
            name, getattr(kernel, name, None))
    return getattr(params, name)  # PenaltySpec, ForestParams or BoostParams


class TestConfigParsing:
    def test_roster_requires_benchmark(self, tmp_path):
        with pytest.raises(ConfigError, match="arima"):
            parse_config({
                "seed": 1, "data": {"synth": {}},
                "roster": {"lasso": {}},
            })

    @pytest.mark.parametrize("roster, message", [
        ({"arima": {"grid": {}}}, "unknown key(s) ['grid'] in roster.arima"),
        ({"arima": {}, "ridge": {"candidates": "default"}},
         "unknown key(s) ['candidates'] in roster.ridge"),
    ], ids=["arima-grid", "ridge-candidates"])
    def test_roster_cross_keys_rejected(self, roster, message):
        with pytest.raises(ConfigError) as info:
            parse_config({"data": {}, "roster": roster})
        assert str(info.value) == message

    def test_readme_json_blocks_parse(self):
        with open(README, encoding="utf-8") as fh:
            blocks = re.findall(r"```json\n(.*?)```", fh.read(), re.S)
        assert blocks
        for block in blocks:
            parse_config(json.loads(block))

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError, match="unknown roster family"):
            parse_config({
                "seed": 1, "data": {"synth": {}},
                "roster": {"arima": {}, "deep_net": {}},
            })

    def test_repeated_split_month_rejected(self, tmp_path, capsys):
        # a repeat would refit that split and write its sweep rows twice
        cfg = write_config(tmp_path, split_months=[16, 16, 6])
        assert main(["sweep", "--config", cfg]) == 2
        assert "split_months repeats 16" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_default_grids_used_when_omitted(self):
        config = parse_config({
            "seed": 1, "data": {"synth": {}},
            "roster": {"arima": {}, "ridge": {}},
        })
        grid = config.roster_spec("ridge").param_grid()
        assert len(grid.cells()) == 10

    def test_default_forest_grid_fits_the_schema(self, monkeypatch):
        import forecastlab.pipeline as pipeline

        config = parse_config({
            "seed": 1, "data": {"synth": {}},
            "schema": {"target": "INF", "features": ["ATMD", "CC", "IR"]},
            "roster": {"arima": {}, "random_forest": {}},
        })
        searched = []

        def first_cell(family, folds, seed=0):
            searched.append(folds.searches[family])
            return folds.searches[family][0], None

        monkeypatch.setattr(pipeline, "grid_search", first_cell)
        frame = pipeline.load_data(config)
        pipeline.fit_roster_member(config, "random_forest", frame, 12)
        (cells,) = searched
        assert list(dict.fromkeys(c["max_features"] for c in cells)) == [2, 3]

    def test_hash_stable_under_out_dir(self, tmp_path):
        cfg = write_config(tmp_path)
        _, h1 = load_config(cfg, out_override=str(tmp_path / "x"))
        _, h2 = load_config(cfg, out_override=str(tmp_path / "y"))
        assert h1 == h2

    def test_hash_reflects_seed_override(self, tmp_path):
        cfg = write_config(tmp_path)
        _, h1 = load_config(cfg)
        _, h2 = load_config(cfg, seed_override=123)
        assert h1 != h2
