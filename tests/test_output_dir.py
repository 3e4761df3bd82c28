"""OutputDir's column-wise CSV writer against the row-wise writer it
replaced, kept here as the oracle: one property test over mixed columns,
and explain's products on inputs that reach its edge cases."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forecastlab import pipeline
from forecastlab.config import load_config
from forecastlab.dataset import ColumnSchema, SynthSpec, chrono_split, synth_generate
from forecastlab.pipeline import OutputDir
from forecastlab.shapley import global_importance
from test_interpretation import Point, loop_auto_color, loop_filter_outliers


def oracle_line(cells) -> str:
    """One CSV line, cell by cell: empty for None, repr(float(v)) for a
    Python or numpy float, str(v) for anything else."""
    return ",".join([repr(float(v)) if isinstance(v, (float, np.floating))
                     else "" if v is None else str(v) for v in cells])


def oracle_csv(provenance, header, rows, comments=()) -> str:
    lines = [provenance]
    lines += [f"# {key}={oracle_line([value])}" for key, value in comments]
    lines.append(",".join(header))
    lines += map(oracle_line, rows)
    return "\n".join(lines) + "\n"


SPECIAL_FLOATS = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"),
                  5e-324, -5e-324, 1e16, 1e-5, 0.1, 1.0 / 3.0, 123456789.0]
floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(width=64))
floats32 = st.floats(width=32)
cells = st.one_of(
    st.none(), floats, st.integers(-10**20, 10**20), st.text(
        st.characters(blacklist_characters=",\n\r", codec="utf-8"),
        max_size=6),
    st.booleans(), floats.map(np.float64), floats32.map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8))


def column(kind, n):
    """A strategy for one n-entry column of the given kind."""
    if kind == "float64":
        return st.lists(floats, min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.float64))
    if kind == "strided":  # a non-contiguous float64 view
        return st.lists(floats, min_size=2 * n, max_size=2 * n).map(
            lambda v: np.array(v, dtype=np.float64)[::2])
    if kind == "float32":
        return st.lists(floats32, min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.float32))
    if kind in ("int64", "uint16"):
        lo, hi = (-2**63, 2**63 - 1) if kind == "int64" else (0, 2**16 - 1)
        return st.lists(st.integers(lo, hi), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=kind))
    if kind == "tuple":
        return st.tuples(*[cells] * n)
    return st.lists(cells, min_size=n, max_size=n)


@st.composite
def tables(draw):
    n = draw(st.integers(0, 6))
    kinds = draw(st.lists(st.sampled_from(
        ["float64", "strided", "float32", "int64", "uint16", "tuple", "list"]),
        min_size=1, max_size=5))
    columns = [draw(column(kind, n)) for kind in kinds]
    comments = draw(st.lists(st.tuples(st.sampled_from(["base_value", "k"]),
                                       cells), max_size=2))
    return columns, comments


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(derandomize=True, max_examples=200, deadline=None)
@given(table=tables())
def test_csv_bytes_equal_row_oracle(scratch_dir, table):
    columns, comments = table
    out = OutputDir(str(scratch_dir), "0" * 12, 3)
    header = [f"c{i}" for i in range(len(columns))]
    path = out.csv("t.csv", header, columns, comments=comments)
    with open(path, "rb") as fh:
        got = fh.read()
    want = oracle_csv(out.provenance, header, zip(*columns), comments)
    assert got == want.encode("utf-8")


def test_unequal_columns_rejected(tmp_path):
    out = OutputDir(str(tmp_path), "0" * 12, 0)
    with pytest.raises(ValueError):
        out.csv("t.csv", ("a", "b"), (np.arange(3), [1.0, 2.0]))


def oracle_products(matrix, X, features):
    """Expected bytes of each explain CSV but shap_values.csv, row by row as
    the writer first built them."""
    names = list(features)
    ranked = global_importance(matrix, names)
    files = {
        "importance.csv": (("rank", "feature", "mean_abs_shap"),
                           [(rank, *item) for rank, item
                            in enumerate(ranked, start=1)]),
        "predictions.csv": (("row_index", "prediction"),
                            list(enumerate(matrix.predictions))),
    }
    summary = []
    for feature, _ in ranked:
        j = names.index(feature)
        col = X[:, j]
        lo = col.min()
        span = float(col.max() - lo)
        for r in range(matrix.n_rows):
            norm = 0.5 if span == 0.0 else float((col[r] - lo) / span)
            summary.append((feature, r, float(matrix.phi[r, j]), norm))
    files["summary_plot.csv"] = (
        ("feature", "row_index", "shap_value", "normalized_value"), summary)
    for j, feature in enumerate(names):
        x, phi = X[:, j], matrix.phi[:, j]
        c, _ = loop_auto_color(X, x, phi, j)
        files[f"dependence_{feature}.csv"] = (
            ("row_index", "x_value", "shap_value", "color_value"),
            [(r, float(x[r]), float(phi[r]),
              None if c is None else float(X[r, c]))
             for r in range(matrix.n_rows)])
    return files


@pytest.fixture(scope="module")
def edge_config(tmp_path_factory):
    """Explained test rows, outliers fenced on the shap axis, and a constant
    feature K: it normalizes to 0.5, and its attributions are all 0, so no
    column colours its dependence points."""
    root = tmp_path_factory.mktemp("edge")
    frame = synth_generate(3, ColumnSchema("INF", ("ATMD", "CC", "IR", "EM")),
                           SynthSpec(n=60))
    data = frame.data.copy()
    data[:, 4] = 2.5
    rows = [",".join([label, *map(repr, row)])
            for label, row in zip(frame.month_labels(), data.tolist())]
    (root / "data.csv").write_text("\n".join(["date,INF,ATMD,CC,IR,K", *rows]))
    (root / "cfg.json").write_text(json.dumps({
        "seed": 5, "out_dir": str(root / "out"),
        "data": {"csv": str(root / "data.csv")},
        "schema": {"target": "INF", "features": ["ATMD", "CC", "IR", "K"]},
        "split_months": [12], "primary_split": 12, "cv": {"k": 3},
        "explain": {"rows": "test", "outlier_axis": "shap"},
        "roster": {"arima": {"candidates": [[0, 0, 0]]},
                   "ridge": {"grid": {"lam": [0.1]}},
                   "random_forest": {"grid": {"n_estimators": [3],
                                              "max_depth": [3],
                                              "max_features": [2]}}}}))
    return str(root / "cfg.json")


@pytest.mark.parametrize("model_id", ["ridge", "random_forest"])
def test_explain_products_equal_row_oracle(edge_config, model_id, tmp_path):
    config, config_hash = load_config(edge_config, out_override=str(tmp_path))
    result = pipeline.cmd_explain(config, config_hash, model_id)
    features = config.schema.features
    _, test = chrono_split(pipeline.load_data(config), config.primary_split)
    X = test.matrix(features)
    matrix = result["matrix"]
    assert matrix.n_rows == test.n_rows == 12
    provenance = OutputDir(str(tmp_path), config_hash, config.seed).provenance

    files = oracle_products(matrix, X, features)
    for name, (header, rows) in files.items():
        got = (tmp_path / name).read_text()
        assert got == oracle_csv(provenance, header, rows), name
    shap_rows = [(r, name, X[r, j], matrix.phi[r, j])
                 for r in range(matrix.n_rows) for j, name in enumerate(features)]
    assert (tmp_path / "shap_values.csv").read_text() == oracle_csv(
        provenance, ("row_index", "feature", "feature_value", "shap_value"),
        shap_rows, [("base_value", matrix.base_value)])

    # the edge cases were reached
    assert {row[3] for row in files["summary_plot.csv"][1]
            if row[0] == "K"} == {0.5}
    assert all(row[3] is None for row in files["dependence_K.csv"][1])
    assert any(row[3] is not None for row in files["dependence_IR.csv"][1])

    # outliers fenced on the shap axis: the oracle filters the points with
    # their axes swapped
    forms = json.loads((tmp_path / "functional_form.json").read_text())
    for j, feature in enumerate(features):
        swapped = [Point(r, float(matrix.phi[r, j]), float(X[r, j]), None)
                   for r in range(matrix.n_rows)]
        kept, removed, _ = loop_filter_outliers(swapped, k=config.explain.outlier_k)
        entry = forms["features"][feature]
        assert entry["n_points"] == len(kept)
        assert entry["outliers_removed"] == sorted(removed)
    assert "error" in forms["features"]["K"]  # all x values identical
