import filecmp
import hashlib
import json
import math
import os
import re

import numpy as np
import pytest

from forecastlab.cli import main
from forecastlab import pipeline
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
from forecastlab.tuning import CvPlan
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

    def test_unfittable_family_exits_2(self, tmp_path, capsys):
        # ridge's shrinkage leaves residuals near 1e159, whose squares
        # overflow, so every grid cell scores inf and tuning fails
        cfg = write_config(
            tmp_path, schema={"target": "INF", "features": ["ATMD", "CC", "IR"]},
            data={"synth": {"kind": "linear", "n": 70, "drivers": ["CC"],
                            "coefficients": [1e160]}},
            roster={"arima": {"candidates": [[0, 0, 0]]},
                    "ridge": {"grid": {"lam": [0.1]}}})
        assert main(["explain", "--config", cfg, "--model", "ridge"]) == 2
        err = capsys.readouterr().err
        assert "ridge fit failed: every ridge grid cell failed" in err
        assert "Traceback" not in err

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

        def lasso_raises(config, family, train, test_months):
            if family == "lasso":
                raise exc
            return real(config, family, train, test_months)

        monkeypatch.setattr(pipeline, "fit_roster_member", lasso_raises)
        config, _ = load_config(write_config(tmp_path, roster={
            "arima": {"candidates": [[0, 0, 0]]},
            "lasso": {"grid": {"lam": [0.1]}}}))
        warnings = []
        result = pipeline.evaluate_split(config, pipeline.load_data(config),
                                         16, warn=warnings.append)
        return result, warnings

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        with pytest.raises(AttributeError, match="coef_"):
            self.split_with_lasso_raising(tmp_path, monkeypatch, AttributeError(
                "'LinearModel' object has no attribute 'coef_'"))

    def test_value_error_degrades_to_none_forecast(self, tmp_path,
                                                   monkeypatch):
        (_, _, tables, forecasts), warnings = self.split_with_lasso_raising(
            tmp_path, monkeypatch, ValueError("singular design"))
        assert forecasts["lasso"] is None
        assert "lasso" not in tables
        assert len(forecasts["arima"]) == 16
        assert warnings == ["warning: lasso failed on 16-month split: "
                            "singular design"]


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
    "run/cv_boosting.csv":
        "da02ca1d34041ae5dc21651a23e3fe2a4bc13943d9ddc63cd0d50e4e3d4a2004",
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
            "random_forest-n_estimators-bool", "svr-degree-fraction"])
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
        # each accepted name reaches the fitted model's parameters
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 3))
        y = X[:, 0] + 0.1 * rng.normal(size=30)
        for name in FAMILIES[family].grid_names:
            spec = parse_config({"data": {}, "roster": {
                "arima": {}, family: {"grid": {name: [GRID_VALUES[name]]}}}})
            cell = spec.roster_spec(family).param_grid().cells()[0]
            model = fit_family(family, X, y, cell)
            assert read_back(model, name) == GRID_VALUES[name], name


GRID_VALUES = {"lam": 0.2, "alpha": 0.3, "n_estimators": 2, "max_depth": 2,
               "max_features": 2, "min_samples_leaf": 2, "learning_rate": 0.2,
               "subsample": 0.5, "colsample_bytree": 0.5, "reg_lambda": 0.5,
               "min_split_gain": 0.1, "C": 2.0, "epsilon": 0.2,
               "kernel": "polynomial", "degree": 2, "gamma": 0.5,
               "coef0": 1.0}


def read_back(model, name):
    model = getattr(model, "model", model)  # inside a Standardized
    if name in ("lam", "alpha"):
        return getattr(model.penalty, name)
    if name in ("C", "epsilon"):
        return getattr(model, name)
    if name == "kernel":
        return model.kernel.kind
    if name in ("degree", "gamma", "coef0"):
        return getattr(model.kernel, name)
    return getattr(model.params, name)


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
        grids = []

        def first_cell(family, grid, *args, **kwargs):
            grids.append(grid)
            return grid.cells()[0], None

        monkeypatch.setattr(pipeline, "grid_search", first_cell)
        frame = pipeline.load_data(config)
        pipeline.fit_roster_member(config, "random_forest", frame, 12)
        (grid,) = grids
        assert dict(grid.axes)["max_features"] == (2, 3)

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
