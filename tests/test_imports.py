"""Which scipy modules each command loads, checked in fresh interpreters.

Start-up, config loading, data loading, `synth` and `explain` (TreeSHAP for
random_forest, exact enumeration for ridge on a 12-feature schema) load no
scipy module. `run` loads what its fits and scores use, when they first use it:
with AR-only benchmark candidates that is scipy.special (the DM tails) and
nothing else from scipy. A candidate order with MA terms adds one extension,
scipy.signal._sigtools (the compiled filter kernel of the MA recursion),
without scipy.signal itself, and a later `import scipy.signal` in the same
interpreter reuses that extension and filters to the same bits.

`explain` loads no numpy.ma either: the outlier filter's quartiles do not go
through `np.percentile`, whose `np.unique` imports it (about 17 ms).
"""

import json
import os
import subprocess
import sys

import pytest

import forecastlab
from forecastlab.dataset import default_schema

SRC = os.path.dirname(os.path.dirname(os.path.abspath(forecastlab.__file__)))
QUICKSTART = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                          "quickstart.json")

LIST_SCIPY = """
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""

START_UP = """
import json, sys
import forecastlab
from forecastlab import cli
from forecastlab.config import load_config
from forecastlab.pipeline import load_data
quickstart, tiny, narrow, out = sys.argv[1:]
config, _ = load_config(quickstart)
load_data(config)
assert cli.main(["synth", "--config", tiny, "--out", out]) == 0
assert cli.main(["explain", "--config", tiny, "--out", out,
                 "--model", "random_forest"]) == 0
assert cli.main(["explain", "--config", narrow, "--out", out + "-ridge",
                 "--model", "ridge"]) == 0
""" + LIST_SCIPY

RUN = """
import json, sys
from forecastlab import cli
tiny, out = sys.argv[1:]
assert cli.main(["run", "--config", tiny, "--out", out]) == 0
""" + LIST_SCIPY

SWEEP = """
import json, sys
from forecastlab import cli
config, out = sys.argv[1:]
assert cli.main(["sweep", "--config", config, "--out", out]) == 0
""" + LIST_SCIPY

SPECIAL = "import json, sys\nimport scipy.special\n" + LIST_SCIPY

EXPLAIN_MA = """
import json, sys
from forecastlab import cli
tiny, narrow, out = sys.argv[1:]
assert cli.main(["explain", "--config", tiny, "--out", out,
                 "--model", "random_forest"]) == 0
forest = "numpy.ma" in sys.modules
assert cli.main(["explain", "--config", narrow, "--out", out + "-ridge",
                 "--model", "ridge"]) == 0
print(json.dumps([forest, "numpy.ma" in sys.modules]))
"""

# one MA filter through the package's innovations and through lfilter, in
# the order given by argv[1]; prints whether the bytes and modules agree
FILTER_ORACLE = """
import json, sys
import numpy as np
from forecastlab.arima import ArimaOrder, _innovations, _linear_filter_kernel
first = sys.argv[1]
if first == "scipy.signal":
    from scipy.signal import lfilter
order = ArimaOrder(0, 0, 1, 0, 0, 1, 4)
w = np.random.default_rng(5).normal(size=40)
theta = [0.1, 0.6, -0.4]
got = _innovations(w, order)(theta)
from scipy.signal import lfilter
import scipy.signal._signaltools as signaltools
b = [0.6, 0.0, 0.0, -0.4, 0.6 * -0.4]  # (1 + 0.6 L)(1 - 0.4 L^4)
want = lfilter([1.0], [1.0, *b], w - 0.1)
sigtools = sys.modules["scipy.signal._sigtools"]
print(json.dumps({"equal": got.tobytes() == want.tobytes(),
                  "one_kernel": signaltools._sigtools is sigtools
                  and _linear_filter_kernel() is sigtools._linear_filter}))
"""


def last_line(script, *args, cwd):
    """The JSON last line that `script` prints in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def scipy_modules(script, *args, cwd):
    return set(last_line(script, *args, cwd=cwd))


def tiny_config(tmp_path, name="tiny", **overrides):
    doc = {
        "seed": 3,
        "data": {"synth": {"kind": "nonlinear", "n": 60}},
        "split_months": [12],
        "primary_split": 12,
        "cv": {"k": 3, "shuffle": False},
        "roster": {
            "arima": {"candidates": [[0, 0, 0], [1, 0, 0], [2, 1, 0]]},
            "lasso": {"grid": {"lam": [0.1]}},
            "random_forest": {"grid": {"n_estimators": [5], "max_depth": [3],
                                       "max_features": [4]}},
        },
    }
    doc.update(overrides)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def narrow_config(tmp_path):
    """12 features (the synthetic drivers among them), within exact
    enumeration's 15-feature cap, with ridge in the roster."""
    features = list(default_schema().features[:12])
    return tiny_config(
        tmp_path, "narrow", schema={"target": "INF", "features": features},
        explain={"rows": "test"},
        roster={"arima": {"candidates": [[0, 0, 0]]},
                "ridge": {"grid": {"lam": [0.1]}}})


def test_start_up_synth_and_explain_load_no_scipy(tmp_path):
    loaded = scipy_modules(START_UP, QUICKSTART, tiny_config(tmp_path),
                           narrow_config(tmp_path), str(tmp_path / "out"),
                           cwd=tmp_path)
    assert loaded == set()
    assert (tmp_path / "out" / "importance.csv").exists()
    assert (tmp_path / "out-ridge" / "shap_values.csv").exists()


def test_explain_loads_no_numpy_ma(tmp_path):
    loaded = last_line(EXPLAIN_MA, tiny_config(tmp_path),
                       narrow_config(tmp_path), str(tmp_path / "out"),
                       cwd=tmp_path)
    assert loaded == [False, False]  # after random_forest, then ridge
    # both explains ran their outlier-filtered functional forms
    assert (tmp_path / "out" / "functional_form.json").exists()
    assert (tmp_path / "out-ridge" / "functional_form.json").exists()


def test_ar_only_run_loads_only_scipy_special(tmp_path):
    loaded = scipy_modules(RUN, tiny_config(tmp_path), str(tmp_path / "out"),
                           cwd=tmp_path)
    assert "scipy.special" in loaded
    assert loaded <= scipy_modules(SPECIAL, cwd=tmp_path)
    assert (tmp_path / "out" / "metrics.csv").exists()


def ma_config(tmp_path, name, **overrides):
    """A 120-row linear series with benchmark candidates that have MA terms,
    one of them seasonal, both long enough to fit on the training rows."""
    return tiny_config(
        tmp_path, name, **{
            "data": {"synth": {"kind": "linear", "n": 120}},
            "roster": {"arima": {"candidates": [[0, 0, 1],
                                                [0, 1, 1, 0, 1, 1, 12]]},
                       "lasso": {"grid": {"lam": [0.1]}}},
            **overrides})


def test_ma_sweep_loads_only_the_filter_kernel(tmp_path):
    loaded = scipy_modules(SWEEP, ma_config(tmp_path, "sweep"),
                           str(tmp_path / "out"), cwd=tmp_path)
    signal = {m for m in loaded if m.startswith("scipy.signal")}
    assert signal == {"scipy.signal._sigtools"}
    assert (tmp_path / "out" / "split_sweep.csv").exists()


def test_ma_run_adds_only_the_filter_kernel(tmp_path):
    loaded = scipy_modules(RUN, ma_config(tmp_path, "run"),
                           str(tmp_path / "out"), cwd=tmp_path)
    assert "scipy.signal._sigtools" in loaded
    assert loaded <= (scipy_modules(SPECIAL, cwd=tmp_path)
                      | {"scipy.signal._sigtools"})
    assert (tmp_path / "out" / "metrics.csv").exists()


@pytest.mark.parametrize("first", ["forecastlab", "scipy.signal"])
def test_lfilter_after_the_kernel_filters_to_the_same_bits(tmp_path, first):
    assert last_line(FILTER_ORACLE, first, cwd=tmp_path) == {
        "equal": True, "one_kernel": True}
