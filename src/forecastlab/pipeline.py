"""End-to-end orchestration: tune, refit, forecast, score, and explain.

`OutputDir` writes every output byte, UTF-8 with "\n" line ends, so reruns
under the same config and seed are byte-identical. A CSV file is a
provenance line (`# config_sha256=<hash> seed=<seed>`), any `# key=value`
lines (shap_values.csv's base_value), a header and the rows. A cell is
empty for None, `repr(float(v))` for a Python or numpy float and `str(v)`
for anything else. So metrics.csv and split_sweep.csv pass a NaN figure as
None, to leave it blank, and cv_<family>.csv passes grid values through
`str`. The JSON files, model.json and functional_form.json, are one
document each."""

from __future__ import annotations

import json
import math
import os
import sys
from operator import attrgetter

import numpy as np

from . import arima as arima_mod
from .config import BENCHMARK_FAMILY, ConfigError, RunConfig, derive_seed
from .dataset import SeriesFrame, chrono_split, log_transform, read_frame, synth_generate
from .evaluation import MetricRow, mae, metric_table, rmse
from .families import FAMILIES, fit_family
from .interpretation import (
    InterpretationError,
    dependence_data,
    filter_outliers,
    fit_functional_form,
    summary_plot_data,
    zero_crossings,
)
from .shapley import (EXACT_MAX_FEATURES, BackgroundSet, ShapMatrix,
                      explain_matrix, global_importance)
from .trees import model_to_json
from .tuning import CvPlan, grid_search


class PipelineError(ValueError):
    pass


def _line(cells) -> str:
    """One CSV line, each cell by the rule in the module docstring."""
    return ",".join([repr(float(v)) if isinstance(v, (float, np.floating))
                     else "" if v is None else str(v) for v in cells])


class OutputDir:
    """The one writer of output files. Making one creates the directory."""

    def __init__(self, path: str, config_hash: str, seed: int):
        os.makedirs(path, exist_ok=True)
        self.path = path
        self.provenance = f"# config_sha256={config_hash} seed={seed}"

    def text(self, name: str, text: str) -> str:
        path = os.path.join(self.path, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
        return path

    def csv(self, name: str, header, rows, comments=()) -> str:
        """`comments` are (key, value) pairs, one `# key=value` line each."""
        lines = [self.provenance]
        lines += [f"# {key}={_line([value])}" for key, value in comments]
        lines.append(",".join(header))
        lines += map(_line, rows)
        return self.text(name, "\n".join(lines))


def _blank_nan(v):
    return None if v is None or math.isnan(v) else v


def write_metrics(out: OutputDir, rows: list[MetricRow]):
    figures = ("mae", "rmse", "rmse_reduction_pct", "dm_stat", "dm_pvalue")
    out.csv("metrics.csv", ("model", *figures),
            [(r.model, *(_blank_nan(getattr(r, f)) for f in figures))
             for r in rows])


def write_shap_values(out: OutputDir, m: ShapMatrix, X, features):
    out.csv("shap_values.csv",
            ("row_index", "feature", "feature_value", "shap_value"),
            [(r, name, X[r, j], m.phi[r, j])
             for r in range(m.n_rows) for j, name in enumerate(features)],
            comments=[("base_value", m.base_value)])


def _synth_frame(config: RunConfig) -> SeriesFrame:
    return synth_generate(derive_seed(config.seed, "synth"), config.schema,
                          config.data.synth)


def load_data(config: RunConfig) -> SeriesFrame:
    if config.data.synth is not None:
        frame = _synth_frame(config)
    else:
        frame = read_frame(config.data.csv, config.schema)
    if config.schema.log_columns:
        frame = log_transform(frame, config.schema.log_columns)
    return frame


def _check_splits(config: RunConfig, frame: SeriesFrame):
    for m in config.split_months:
        if m >= frame.n_rows:
            raise ConfigError(f"split of {m} test months needs more than "
                              f"{frame.n_rows} rows of data")


def fit_roster_member(config: RunConfig, family: str, train: SeriesFrame,
                      test_months: int) -> tuple[object, list | None]:
    """Tune a family on the training window, then refit the winning cell on
    all of it. Returns the model and the cv table (None for an empty grid)."""
    X = train.matrix(config.schema.features)
    y = train.column(config.schema.target)
    seed = derive_seed(config.seed, "fit", family, test_months)
    grid = config.roster_spec(family).param_grid(X.shape[1])
    plan = CvPlan(config.cv.k, config.cv.shuffle,
                  derive_seed(config.seed, "cv", test_months))
    if grid.axes:
        best, table = grid_search(family, grid, X, y, plan, seed=seed)
    else:
        best, table = {}, None
    return fit_family(family, X, y, best, seed=seed), table


def _stderr(msg: str):
    print(msg, file=sys.stderr)


def evaluate_split(config: RunConfig, frame: SeriesFrame, test_months: int,
                   warn=_stderr):
    """Fit the benchmark and every roster family on the split's training
    window and forecast the held-out months; returns (train, test, cv
    tables, forecasts). A failed family fit (ValueError, the base of every
    package error and of LinAlgError) degrades to a None forecast; any other
    exception is a bug and propagates."""
    train, test = chrono_split(frame, test_months)
    y = train.column(config.schema.target)
    try:
        fit = arima_mod.select_order(
            y, config.roster_spec(BENCHMARK_FAMILY).candidates,
            seed=derive_seed(config.seed, "arima", test_months))
        forecasts = {BENCHMARK_FAMILY: arima_mod.forecast(fit, y, test.n_rows)}
    except ValueError as exc:
        raise PipelineError(f"benchmark fit failed: {exc}") from exc
    X_test = test.matrix(config.schema.features)
    tables = {}
    for spec in config.families:
        family = spec.family
        try:
            model, table = fit_roster_member(config, family, train, test_months)
            forecasts[family] = model.predict(X_test)
            tables[family] = table
        except ValueError as exc:  # degrade, sweeps must finish
            warn(f"warning: {family} failed on {test_months}-month split: {exc}")
            forecasts[family] = None
    return train, test, tables, forecasts


def cmd_run(config: RunConfig, config_hash: str, warn=_stderr) -> dict:
    """Primary-split pipeline: tune, refit, forecast, score; writes
    forecasts.csv, metrics.csv, and one cv_<family>.csv per tuned family."""
    frame = load_data(config)
    _check_splits(config, frame)
    train, test, tables, forecasts = evaluate_split(
        config, frame, config.primary_split, warn)
    out = OutputDir(config.out_dir, config_hash, config.seed)

    actual = test.column(config.schema.target)
    rows = metric_table(actual, forecasts, BENCHMARK_FAMILY,
                        h=config.dm.h, small_sample=config.dm.small_sample)
    write_metrics(out, rows)

    ids = config.model_ids
    out.csv("forecasts.csv", ("date", "actual", *ids),
            [(label, actual[i], *(None if forecasts[name] is None
                                  else forecasts[name][i] for name in ids))
             for i, label in enumerate(test.month_labels())])

    for family, table in tables.items():
        if table:  # each cell's params name the grid's axes in order
            out.csv(f"cv_{family}.csv", ("family", *table[0].params,
                                         "mean_mse", "sd_mse", "rank"),
                    [(family, *map(str, c.params.values()), c.mean_mse,
                      c.sd_mse, c.rank) for c in table])
    return {"tables": tables, "forecasts": forecasts, "metrics": rows,
            "train": train, "test": test}


def cmd_sweep(config: RunConfig, config_hash: str,
              warn=_stderr) -> list[tuple]:
    """Re-tune and re-score every roster family across all split windows;
    writes split_sweep.csv with one (model, test_months) row each."""
    frame = load_data(config)
    _check_splits(config, frame)
    records = []
    for months in config.split_months:
        _, test, _, forecasts = evaluate_split(config, frame, months, warn)
        actual = test.column(config.schema.target)
        for name in config.model_ids:
            pred = forecasts[name]
            figures = ((None, None) if pred is None
                       else (rmse(actual, pred), mae(actual, pred)))
            records.append((name, months, *map(_blank_nan, figures)))
    out = OutputDir(config.out_dir, config_hash, config.seed)
    out.csv("split_sweep.csv", ("model", "test_months", "rmse", "mae"),
            records)
    return records


def cmd_synth(config: RunConfig, config_hash: str) -> str:
    """Materialize the configured synthetic dataset as a loadable CSV."""
    if config.data.synth is None:
        raise ConfigError("synth command requires a data.synth section")
    frame = _synth_frame(config)
    out = OutputDir(config.out_dir, config_hash, config.seed)
    return out.csv("synth.csv", ("date", *frame.columns),
                   zip(frame.month_labels(), *frame.data.T))


def cmd_explain(config: RunConfig, config_hash: str, model_id: str) -> dict:
    """Refit one roster model deterministically and emit attribution
    products: importance.csv, shap_values.csv, predictions.csv, per-feature
    dependence CSVs, summary_plot.csv, and functional_form.json."""
    if model_id == BENCHMARK_FAMILY:
        raise ConfigError("the univariate arima benchmark has no feature "
                          "attributions to explain")
    if model_id not in config.model_ids:
        raise ConfigError(f"model {model_id!r} not in roster")
    n_features = len(config.schema.features)
    if not FAMILIES[model_id].trees and n_features > EXACT_MAX_FEATURES:
        raise ConfigError(f"explaining {model_id} needs exact coalition "
                          f"enumeration, capped at {EXACT_MAX_FEATURES} "
                          f"features; the schema has {n_features}")
    frame = load_data(config)
    _check_splits(config, frame)
    train, test = chrono_split(frame, config.primary_split)
    try:
        model, _ = fit_roster_member(config, model_id, train, config.primary_split)
    except ValueError as exc:  # the base of every package error
        raise PipelineError(f"{model_id} fit failed: {exc}") from exc

    features = config.schema.features
    X_train = train.matrix(features)
    X_rows = X_train if config.explain.rows == "train" else test.matrix(features)
    background = BackgroundSet.from_training(
        X_train, cap=config.explain.background_cap,
        seed=derive_seed(config.seed, "background"))
    try:
        matrix = explain_matrix(model, X_rows, background)
    except ValueError as exc:  # ShapMatrix's efficiency check
        raise PipelineError(f"{model_id} attributions failed: {exc}") from exc

    out = OutputDir(config.out_dir, config_hash, config.seed)
    if FAMILIES[model_id].trees:
        out.text("model.json", model_to_json(model))
    ranked = global_importance(matrix, features)
    out.csv("importance.csv", ("rank", "feature", "mean_abs_shap"),
            [(rank, *item) for rank, item in enumerate(ranked, start=1)])
    write_shap_values(out, matrix, X_rows, features)
    out.csv("predictions.csv", ("row_index", "prediction"),
            enumerate(matrix.predictions))
    columns = ("feature", "row_index", "shap_value", "normalized_value")
    out.csv("summary_plot.csv", columns, map(attrgetter(*columns),
            summary_plot_data(matrix, X_rows, features)))

    forms = {}
    for feature in features:
        points = dependence_data(matrix, X_rows, feature, features,
                                 color_by="auto")
        columns = ("row_index", "x_value", "shap_value", "color_value")
        out.csv(f"dependence_{feature}.csv", columns,
                map(attrgetter(*columns), points))
        forms[feature] = _functional_form_entry(points, config)

    doc = {"config_sha256": config_hash, "seed": config.seed,
           "model": model_id, "features": forms}
    out.text("functional_form.json", json.dumps(doc, indent=2, sort_keys=True))
    return {"matrix": matrix, "importance": ranked, "model": model,
            "forms": forms}


def _functional_form_entry(points, config: RunConfig) -> dict:
    filt = filter_outliers(points, k=config.explain.outlier_k,
                           axis=config.explain.outlier_axis)
    counts = {"n_points": len(filt.points),
              "outliers_removed": sorted(filt.removed)}
    try:
        fit = fit_functional_form(filt.points)
    except InterpretationError as exc:
        return {"error": str(exc), **counts}
    xs = [p.x_value for p in filt.points]
    report = zero_crossings(fit, (min(xs), max(xs)))
    return {"degree": fit.degree,
            "coefficients": [float(c) for c in fit.coefficients],
            "r2": fit.r2, "adj_r2": fit.adj_r2,
            "crossings": [float(r) for r in report.roots], **counts}
