"""End-to-end orchestration: tune, refit, forecast, score, and explain.

Every output file starts with a provenance comment (config hash + master
seed) and all floats are written with shortest-roundtrip repr, so reruns
under the same config and seed are byte-identical.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import arima as arima_mod
from .config import ConfigError, RunConfig, derive_seed
from .dataset import DataError, SeriesFrame, chrono_split, load_frame, log_transform, synth_generate
from .evaluation import mae, metric_csv_lines, metric_table, rmse
from .families import BENCHMARK_FAMILY, FAMILIES, fit_family
from .interpretation import (
    InterpretationError,
    dependence_data,
    filter_outliers,
    fit_functional_form,
    summary_plot_data,
    zero_crossings,
)
from .shapley import (
    EXACT_MAX_FEATURES,
    BackgroundSet,
    explain_matrix,
    global_importance,
    shap_csv_lines,
)
from .trees import model_to_json
from .tuning import CvPlan, cv_table_csv_lines, grid_search


class PipelineError(ValueError):
    pass


def _fmt(v) -> str:
    return repr(float(v))


def _synth_frame(config: RunConfig) -> SeriesFrame:
    return synth_generate(derive_seed(config.seed, "synth"), config.schema,
                          config.data.synth)


def load_data(config: RunConfig) -> SeriesFrame:
    if config.data.synth is not None:
        frame = _synth_frame(config)
    else:
        try:
            with open(config.data.csv, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DataError(f"cannot read {config.data.csv!r}: {exc}") from None
        frame = load_frame(text, config.schema)
    if config.schema.log_columns:
        frame = log_transform(frame, config.schema.log_columns)
    return frame


def _check_splits(config: RunConfig, frame: SeriesFrame):
    for m in config.split_months:
        if m >= frame.n_rows:
            raise ConfigError(f"split of {m} test months needs more than "
                              f"{frame.n_rows} rows of data")


@dataclass
class FittedEntry:
    family: str
    model: object  # the fitted family model, or the ArimaFit
    best_params: dict
    cv_table: list | None
    error: str | None = None


def fit_roster_member(config: RunConfig, family: str, train: SeriesFrame,
                      test_months: int) -> FittedEntry:
    """Tune on the training window, then refit the winning cell on all of it."""
    spec = config.roster_spec(family)
    y = train.column(config.schema.target)
    if family == BENCHMARK_FAMILY:
        seed = derive_seed(config.seed, "arima", test_months)
        fit = arima_mod.select_order(y, spec.candidates, seed=seed)
        return FittedEntry(family, fit, {"order": fit.order.label()}, None)
    X = train.matrix(config.schema.features)
    seed = derive_seed(config.seed, "fit", family, test_months)
    grid = spec.param_grid(X.shape[1])
    plan = CvPlan(config.cv.k, config.cv.shuffle,
                  derive_seed(config.seed, "cv", test_months))
    if grid.axes:
        best, table = grid_search(family, grid, X, y, plan, seed=seed)
    else:
        best, table = {}, None
    model = fit_family(family, X, y, best, seed=seed)
    return FittedEntry(family, model, best, table)


def forecast_window(entry: FittedEntry, config: RunConfig, train: SeriesFrame,
                    test: SeriesFrame) -> np.ndarray:
    if entry.family == BENCHMARK_FAMILY:
        return arima_mod.forecast(entry.model,
                                  train.column(config.schema.target),
                                  test.n_rows)
    return entry.model.predict(test.matrix(config.schema.features))


def _stderr(msg: str):
    print(msg, file=sys.stderr)


def evaluate_split(config: RunConfig, frame: SeriesFrame, test_months: int,
                   warn=_stderr):
    """Fit every roster family on the split's training window and forecast
    the held-out months. A failed fit (ValueError, the base of every
    package error and of LinAlgError) degrades to a None forecast; any
    other exception is a bug and propagates."""
    train, test = chrono_split(frame, test_months)
    forecasts: dict[str, np.ndarray | None] = {}
    entries: dict[str, FittedEntry] = {}
    for family in config.model_ids:
        try:
            entry = fit_roster_member(config, family, train, test_months)
            forecasts[family] = forecast_window(entry, config, train, test)
            entries[family] = entry
        except ValueError as exc:  # degrade, sweeps must finish
            if family == BENCHMARK_FAMILY:
                raise PipelineError(f"benchmark fit failed: {exc}") from exc
            warn(f"warning: {family} failed on {test_months}-month split: {exc}")
            forecasts[family] = None
            entries[family] = FittedEntry(family, None, {}, None, error=str(exc))
    return train, test, entries, forecasts


def _write(path: str, lines: list[str], provenance: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(provenance + "\n")
        fh.write("\n".join(lines))
        if lines:
            fh.write("\n")


def _provenance(config: RunConfig, config_hash: str) -> str:
    return f"# config_sha256={config_hash} seed={config.seed}"


def cmd_run(config: RunConfig, config_hash: str, warn=_stderr) -> dict:
    """Primary-split pipeline: tune, refit, forecast, score; writes
    forecasts.csv, metrics.csv, and one cv_<family>.csv per tuned family."""
    frame = load_data(config)
    _check_splits(config, frame)
    train, test, entries, forecasts = evaluate_split(
        config, frame, config.primary_split, warn)
    os.makedirs(config.out_dir, exist_ok=True)
    prov = _provenance(config, config_hash)

    actual = test.column(config.schema.target)
    rows = metric_table(actual, forecasts, BENCHMARK_FAMILY,
                        h=config.dm.h, small_sample=config.dm.small_sample)
    _write(os.path.join(config.out_dir, "metrics.csv"),
           metric_csv_lines(rows), prov)

    ids = config.model_ids
    lines = ["date,actual," + ",".join(ids)]
    for i, label in enumerate(test.month_labels()):
        cells = [label, _fmt(actual[i])]
        for name in ids:
            pred = forecasts[name]
            cells.append("" if pred is None else _fmt(pred[i]))
        lines.append(",".join(cells))
    _write(os.path.join(config.out_dir, "forecasts.csv"), lines, prov)

    for family, entry in entries.items():
        if entry.cv_table:
            grid = config.roster_spec(family).param_grid(len(config.schema.features))
            _write(os.path.join(config.out_dir, f"cv_{family}.csv"),
                   cv_table_csv_lines(family, grid, entry.cv_table), prov)
    return {"entries": entries, "forecasts": forecasts, "metrics": rows,
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
            if pred is None:
                records.append((name, months, math.nan, math.nan))
            else:
                records.append((name, months, rmse(actual, pred),
                                mae(actual, pred)))
    os.makedirs(config.out_dir, exist_ok=True)
    lines = ["model,test_months,rmse,mae"]
    for name, months, rmse_v, mae_v in records:
        bad = math.isnan(rmse_v)
        lines.append(f"{name},{months},{'' if bad else _fmt(rmse_v)},"
                     f"{'' if bad else _fmt(mae_v)}")
    _write(os.path.join(config.out_dir, "split_sweep.csv"), lines,
           _provenance(config, config_hash))
    return records


def cmd_synth(config: RunConfig, config_hash: str) -> str:
    """Materialize the configured synthetic dataset as a loadable CSV."""
    if config.data.synth is None:
        raise ConfigError("synth command requires a data.synth section")
    frame = _synth_frame(config)
    os.makedirs(config.out_dir, exist_ok=True)
    lines = ["date," + ",".join(frame.columns)]
    for i, label in enumerate(frame.month_labels()):
        lines.append(label + "," + ",".join(_fmt(v) for v in frame.data[i]))
    path = os.path.join(config.out_dir, "synth.csv")
    _write(path, lines, _provenance(config, config_hash))
    return path


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
        entry = fit_roster_member(config, model_id, train, config.primary_split)
    except ValueError as exc:  # the base of every package error
        raise PipelineError(f"{model_id} fit failed: {exc}") from exc

    features = config.schema.features
    X_train = train.matrix(features)
    X_rows = X_train if config.explain.rows == "train" else test.matrix(features)
    background = BackgroundSet.from_training(
        X_train, cap=config.explain.background_cap,
        seed=derive_seed(config.seed, "background"))
    model = entry.model
    matrix = explain_matrix(model, X_rows, background)

    os.makedirs(config.out_dir, exist_ok=True)
    prov = _provenance(config, config_hash)

    if FAMILIES[model_id].trees:
        with open(os.path.join(config.out_dir, "model.json"), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write(model_to_json(model))
            fh.write("\n")

    ranked = global_importance(matrix, features)
    lines = ["rank,feature,mean_abs_shap"]
    for rank, (name, value) in enumerate(ranked, start=1):
        lines.append(f"{rank},{name},{_fmt(value)}")
    _write(os.path.join(config.out_dir, "importance.csv"), lines, prov)

    _write(os.path.join(config.out_dir, "shap_values.csv"),
           shap_csv_lines(matrix, X_rows, features), prov)

    lines = ["row_index,prediction"]
    for r, pred in enumerate(matrix.predictions):
        lines.append(f"{r},{_fmt(pred)}")
    _write(os.path.join(config.out_dir, "predictions.csv"), lines, prov)

    lines = ["feature,row_index,shap_value,normalized_value"]
    for rec in summary_plot_data(matrix, X_rows, features):
        lines.append(f"{rec.feature},{rec.row_index},{_fmt(rec.shap_value)},"
                     f"{_fmt(rec.normalized_value)}")
    _write(os.path.join(config.out_dir, "summary_plot.csv"), lines, prov)

    forms = {}
    for feature in features:
        points = dependence_data(matrix, X_rows, feature, features,
                                 color_by="auto")
        lines = ["row_index,x_value,shap_value,color_value"]
        for p in points:
            color = "" if p.color_value is None else _fmt(p.color_value)
            lines.append(f"{p.row_index},{_fmt(p.x_value)},"
                         f"{_fmt(p.shap_value)},{color}")
        _write(os.path.join(config.out_dir, f"dependence_{feature}.csv"),
               lines, prov)
        forms[feature] = _functional_form_entry(points, config)

    doc = {"config_sha256": config_hash, "seed": config.seed,
           "model": model_id, "features": forms}
    with open(os.path.join(config.out_dir, "functional_form.json"), "w",
              encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"matrix": matrix, "importance": ranked, "entry": entry,
            "forms": forms}


def _functional_form_entry(points, config: RunConfig) -> dict:
    if config.explain.outlier_axis == "shap":
        flipped = [type(p)(p.row_index, p.shap_value, p.x_value, p.color_value)
                   for p in points]
        filt = filter_outliers(flipped, k=config.explain.outlier_k)
        keep = {p.row_index for p in filt.points}
        kept = [p for p in points if p.row_index in keep]
        removed = tuple(sorted(p.row_index for p in points
                               if p.row_index not in keep))
    else:
        filt = filter_outliers(points, k=config.explain.outlier_k)
        kept, removed = list(filt.points), filt.removed
    try:
        fit = fit_functional_form(kept)
    except InterpretationError as exc:
        return {"error": str(exc), "n_points": len(kept),
                "outliers_removed": sorted(removed)}
    xs = [p.x_value for p in kept]
    report = zero_crossings(fit, (min(xs), max(xs)))
    return {"degree": fit.degree,
            "coefficients": [float(c) for c in fit.coefficients],
            "r2": fit.r2, "adj_r2": fit.adj_r2, "n_points": fit.n_points,
            "crossings": [float(r) for r in report.roots],
            "outliers_removed": sorted(removed)}
