"""End-to-end orchestration: tune, refit, forecast, score, and explain.

`OutputDir` writes every output byte, UTF-8 with "\n" line ends, so reruns
under the same config and seed are byte-identical. A CSV file is a
provenance line (`# config_sha256=<hash> seed=<seed>`), any `# key=value`
lines (shap_values.csv's base_value), a header and the rows, which writers
pass as equal-length columns. A float64 array's cells are `repr` of its
Python floats, an integer array's `str` of its ints; in any other column a
cell is empty for None, `repr(float(v))` for a Python or numpy float and
`str(v)` for anything else. So metrics.csv and split_sweep.csv pass a NaN
figure as None, to leave it blank, and cv_<family>.csv passes grid values
through `str`. The JSON files, model.json and functional_form.json, are
one document each."""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

from . import arima as arima_mod
from .config import BENCHMARK_FAMILY, ConfigError, RunConfig, derive_seed
from .dataset import SeriesFrame, chrono_split, log_transform, read_frame, synth_generate
from .evaluation import MetricRow, mae, metric_table, rmse
from .families import FAMILIES, fit_family
from .interpretation import (
    InterpretationError,
    column_stats,
    dependence_data,
    filter_outliers,
    fit_functional_form,
    summary_plot_data,
    zero_crossings,
)
from .shapley import (EXACT_MAX_FEATURES, BackgroundSet, ShapMatrix,
                      explain_matrix, global_importance)
from .trees import model_to_json
from .tuning import CvFolds, CvPlan, grid_search


def _cells(column) -> list[str]:
    """A column's CSV cells, by the rule in the module docstring."""
    if isinstance(column, np.ndarray):
        if column.dtype == np.float64:
            return list(map(repr, column.tolist()))
        if column.dtype.kind in "iu":
            return list(map(str, column.tolist()))
    return [v if type(v) is str  # str(v) without the isinstance tests
            else repr(float(v)) if isinstance(v, (float, np.floating))
            else "" if v is None else str(v) for v in column]


class OutputDir:
    """The one writer of output files. Making one creates the directory.
    An out_dir that cannot be made or written to is a ConfigError."""

    def __init__(self, path: str, config_hash: str, seed: int):
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {path!r}: "
                              f"{exc}") from None
        self.path = path
        self.provenance = f"# config_sha256={config_hash} seed={seed}"

    @staticmethod
    def check(path: str):
        """Raise a ConfigError now if `path` cannot become the output
        directory, and make nothing: it exists and is no directory, or its
        nearest existing ancestor is no directory or not writable. The
        commands that fit check before the first fit."""
        target = os.path.abspath(path)
        while not os.path.lexists(target) and os.path.dirname(target) != target:
            target = os.path.dirname(target)
        if target == os.path.abspath(path) and not os.path.isdir(target):
            why = "it exists and is not a directory"
        elif not os.path.isdir(target):
            why = f"{target!r} is not a directory"
        elif not os.access(target, os.W_OK | os.X_OK):
            why = f"{target!r} is not writable"
        else:
            return
        raise ConfigError(f"cannot make output directory {path!r}: {why}")

    def text(self, name: str, text: str) -> str:
        path = os.path.join(self.path, name)
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write {path!r}: {exc}") from None
        return path

    def csv(self, name: str, header, columns, comments=()) -> str:
        """A row per entry of the equal-length `columns`; `comments` are
        (key, value) pairs, one `# key=value` line each."""
        lines = [self.provenance]
        lines += [f"# {key}={_cells([value])[0]}" for key, value in comments]
        lines.append(",".join(header))
        lines += map(",".join, zip(*map(_cells, columns), strict=True))
        return self.text(name, "\n".join(lines))


def _blank_nan(v):
    return None if v is None or math.isnan(v) else v


def write_metrics(out: OutputDir, rows: list[MetricRow]):
    figures = ("mae", "rmse", "rmse_reduction_pct", "dm_stat", "dm_pvalue")
    out.csv("metrics.csv", ("model", *figures), zip(*(
        (r.model, *(_blank_nan(getattr(r, f)) for f in figures)) for r in rows)))


def write_shap_values(out: OutputDir, m: ShapMatrix, X, features):
    out.csv("shap_values.csv",
            ("row_index", "feature", "feature_value", "shap_value"),
            (np.repeat(np.arange(m.n_rows), len(features)),
             list(features) * m.n_rows, np.ravel(X), m.phi.ravel()),
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


def _setup(config: RunConfig) -> SeriesFrame:
    """A fitting command's setup: check out_dir, load the data, check splits."""
    OutputDir.check(config.out_dir)
    frame = load_data(config)
    for m in config.split_months:
        if m >= frame.n_rows:
            raise ConfigError(f"split of {m} test months needs more than "
                              f"{frame.n_rows} rows of data")
    return frame


def cv_folds(config: RunConfig, train: SeriesFrame, test_months: int,
             families) -> CvFolds:
    """The CV folds of a split's training window, with the grid searches of
    those `families` whose grid has more than one cell."""
    X = train.matrix(config.schema.features)
    searches = {}
    for family in families:
        cells = config.roster_spec(family).param_grid(X.shape[1]).cells()
        if len(cells) > 1:
            searches[family] = cells
    plan = CvPlan(config.cv.k, config.cv.shuffle,
                  derive_seed(config.seed, "cv", test_months))
    return CvFolds(X, train.column(config.schema.target), plan, searches)


def fit_roster_member(config: RunConfig, family: str, train: SeriesFrame,
                      test_months: int, folds: CvFolds | None = None
                      ) -> tuple[object, list | None]:
    """Tune a family on the training window, on the window's `cv_folds`
    (by default, folds of this family alone), then refit the winning cell on
    all of it. Returns the model and the cv table (None when no search ran).

    A grid of one cell, the empty grid's all-defaults cell among them,
    leaves cross-validation nothing to choose, so `cv_folds` declares no
    search for it and it is fitted once with the seed a search's refit uses;
    `run`, `sweep` and `explain` alike."""
    if folds is None:
        folds = cv_folds(config, train, test_months, [family])
    X, y = folds.X, folds.y
    seed = derive_seed(config.seed, "fit", family, test_months)
    if family in folds.searches:
        best, table = grid_search(family, folds, seed=seed)
    else:
        (best,) = config.roster_spec(family).param_grid(X.shape[1]).cells()
        table = None
    return fit_family(family, X, y, best, seed=seed), table


def evaluate_split(config: RunConfig, frame: SeriesFrame, test_months: int):
    """Fit the benchmark and every roster family on the split's training
    window and forecast the held-out months; returns (test, cv tables,
    forecasts). A failed family fit (ValueError, the base of every
    package error and of LinAlgError) degrades to a None forecast and a
    stderr warning; any other exception is a bug and propagates."""
    train, test = chrono_split(frame, test_months)
    y = train.column(config.schema.target)
    try:
        fit = arima_mod.select_order(
            y, config.roster_spec(BENCHMARK_FAMILY).candidates,
            seed=derive_seed(config.seed, "arima", test_months))
        forecasts = {BENCHMARK_FAMILY: arima_mod.forecast(fit, y, test.n_rows)}
    except ValueError as exc:
        raise ConfigError(f"benchmark fit failed: {exc}") from exc
    X_test = test.matrix(config.schema.features)
    tables = {}
    families = [spec.family for spec in config.families]
    folds = cv_folds(config, train, test_months, families)
    for family in families:
        try:
            model, table = fit_roster_member(config, family, train,
                                             test_months, folds)
            forecasts[family] = model.predict(X_test)
            tables[family] = table
        except ValueError as exc:  # degrade, sweeps must finish
            print(f"warning: {family} failed on {test_months}-month split: "
                  f"{exc}", file=sys.stderr)
            forecasts[family] = None
    return test, tables, forecasts


def cmd_run(config: RunConfig, config_hash: str) -> dict:
    """Primary-split pipeline: tune, refit, forecast, score; writes
    forecasts.csv, metrics.csv, and one cv_<family>.csv per searched grid.
    Returns the forecasts by model id, None for a failed family."""
    frame = _setup(config)
    test, tables, forecasts = evaluate_split(
        config, frame, config.primary_split)
    out = OutputDir(config.out_dir, config_hash, config.seed)

    actual = test.column(config.schema.target)
    rows = metric_table(actual, forecasts, BENCHMARK_FAMILY,
                        h=config.dm.h, small_sample=config.dm.small_sample)
    write_metrics(out, rows)

    ids = config.model_ids
    out.csv("forecasts.csv", ("date", "actual", *ids),
            (test.month_labels(), actual,
             *((None,) * test.n_rows if forecasts[name] is None
               else forecasts[name] for name in ids)))

    for family, table in tables.items():
        if table:  # each cell's params name the grid's axes in order
            out.csv(f"cv_{family}.csv", ("family", *table[0].params,
                                         "mean_mse", "sd_mse", "rank"),
                    ((family,) * len(table),
                     *zip(*(map(str, c.params.values()) for c in table)),
                     *zip(*((c.mean_mse, c.sd_mse, c.rank) for c in table))))
    return forecasts


def cmd_sweep(config: RunConfig, config_hash: str) -> list[tuple]:
    """Re-tune and re-score every roster family across all split windows;
    writes split_sweep.csv with one (model, test_months) row each."""
    frame = _setup(config)
    records = []
    for months in config.split_months:
        test, _, forecasts = evaluate_split(config, frame, months)
        actual = test.column(config.schema.target)
        for name in config.model_ids:
            pred = forecasts[name]
            figures = ((None, None) if pred is None
                       else (rmse(actual, pred), mae(actual, pred)))
            records.append((name, months, *map(_blank_nan, figures)))
    out = OutputDir(config.out_dir, config_hash, config.seed)
    out.csv("split_sweep.csv", ("model", "test_months", "rmse", "mae"),
            zip(*records))
    return records


def cmd_synth(config: RunConfig, config_hash: str) -> str:
    """Materialize the configured synthetic dataset as a loadable CSV."""
    if config.data.synth is None:
        raise ConfigError("synth command requires a data.synth section")
    frame = _synth_frame(config)
    out = OutputDir(config.out_dir, config_hash, config.seed)
    return out.csv("synth.csv", ("date", *frame.columns),
                   (frame.month_labels(), *frame.data.T))


def cmd_explain(config: RunConfig, config_hash: str, model_id: str) -> dict:
    """Refit one roster model deterministically and emit attribution
    products: importance.csv, shap_values.csv, predictions.csv, per-feature
    dependence CSVs, summary_plot.csv, and functional_form.json (and
    model.json when the model has a JSON document, as tree ensembles do).
    The model is the one `run` scores on the primary split. Returns the
    attribution matrix and the importance ranking."""
    if model_id == BENCHMARK_FAMILY:
        raise ConfigError("the univariate arima benchmark has no feature "
                          "attributions to explain")
    if model_id not in config.model_ids:
        raise ConfigError(f"model {model_id!r} not in roster")
    n_features = len(config.schema.features)
    if not n_features:
        raise ConfigError(f"explaining {model_id} needs at least one feature; "
                          f"the schema has none")
    if not FAMILIES[model_id].trees and n_features > EXACT_MAX_FEATURES:
        raise ConfigError(f"explaining {model_id} needs exact coalition "
                          f"enumeration, capped at {EXACT_MAX_FEATURES} "
                          f"features; the schema has {n_features}")
    frame = _setup(config)
    train, test = chrono_split(frame, config.primary_split)
    try:
        model, _ = fit_roster_member(config, model_id, train,
                                     config.primary_split)
    except ValueError as exc:  # the base of every package error
        raise ConfigError(f"{model_id} fit failed: {exc}") from exc

    features = config.schema.features
    X_train = train.matrix(features)
    X_rows = X_train if config.explain.rows == "train" else test.matrix(features)
    background = BackgroundSet.from_training(
        X_train, cap=config.explain.background_cap,
        seed=derive_seed(config.seed, "background"))
    try:
        matrix = explain_matrix(model, X_rows, background)
    except ValueError as exc:  # ShapMatrix's efficiency check
        raise ConfigError(f"{model_id} attributions failed: {exc}") from exc

    out = OutputDir(config.out_dir, config_hash, config.seed)
    if hasattr(model, "to_doc"):
        out.text("model.json", model_to_json(model))
    ranked = global_importance(matrix, features)
    out.csv("importance.csv", ("rank", "feature", "mean_abs_shap"),
            (range(1, len(ranked) + 1), *zip(*ranked)))
    write_shap_values(out, matrix, X_rows, features)
    out.csv("predictions.csv", ("row_index", "prediction"),
            (np.arange(matrix.n_rows), matrix.predictions))
    out.csv("summary_plot.csv",
            ("feature", "row_index", "shap_value", "normalized_value"),
            summary_plot_data(matrix, X_rows, features, ranked))

    forms = {}
    stats = column_stats(X_rows)
    for feature in features:
        rows, x, shap, color = dependence_data(
            matrix, X_rows, feature, features, stats)
        out.csv(f"dependence_{feature}.csv",
                ("row_index", "x_value", "shap_value", "color_value"),
                (rows, x, shap, (None,) * len(rows) if color is None else color))
        forms[feature] = _functional_form_entry(x, shap, config)

    doc = {"config_sha256": config_hash, "seed": config.seed,
           "model": model_id, "features": forms}
    out.text("functional_form.json", json.dumps(doc, indent=2, sort_keys=True))
    return {"matrix": matrix, "importance": ranked}


def _functional_form_entry(x, shap, config: RunConfig) -> dict:
    filt = filter_outliers(x, shap, k=config.explain.outlier_k,
                           axis=config.explain.outlier_axis)
    counts = {"n_points": len(filt.kept),
              "outliers_removed": sorted(filt.removed)}
    x, shap = x[filt.kept], shap[filt.kept]
    try:
        fit = fit_functional_form(x, shap)
    except InterpretationError as exc:
        return {"error": str(exc), **counts}
    roots = zero_crossings(fit, (x.min(), x.max()))
    return {"degree": fit.degree,
            "coefficients": [float(c) for c in fit.coefficients],
            "r2": fit.r2, "adj_r2": fit.adj_r2,
            "crossings": list(roots), **counts}
