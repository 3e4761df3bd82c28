"""Which scipy modules each command loads, checked in fresh interpreters.

Start-up, config loading, data loading, `synth` and `explain` (TreeSHAP for
random_forest, exact enumeration for ridge on a 12-feature schema) load no
scipy module. `run` loads what its fits and scores use, when they first use it:
with AR-only benchmark candidates that is the `scipy` package itself and the
compiled `scipy.special._ufuncs` extension (the DM tails) with the compiled
siblings its init imports, all loaded by `evaluation.scipy_extension` without
running scipy/special/__init__.py. That package import, whose array-API layer
loads numpy.f2py, numpy.testing and about 250 more modules, takes about 330 ms
and 26 MB of peak memory in a fresh interpreter; an AR-only `run` loads about
280 modules instead of about 540. A candidate order with MA terms adds one more
extension, scipy.signal._sigtools (the compiled filter kernel of the MA
recursion), without scipy.signal itself. A later `import scipy.special` or
`import scipy.signal` in the same interpreter reuses those extensions, so its
ufuncs and kernel are the very objects the package used, and give the same bits.

`explain` loads no numpy.ma either: the outlier filter's quartiles do not go
through `np.percentile`, whose `np.unique` imports it (about 17 ms).

No package module imports a name it never reads (`__init__.py` excepted: its
imports are the package's re-exports). The solvers' modules hold no
training-rows message of their own: `dataset.fit_rows` is the one rule.
"""

import ast
import json
import os
import subprocess
import sys
from importlib.machinery import EXTENSION_SUFFIXES

import pytest
import scipy

import forecastlab
from forecastlab.dataset import default_schema

SRC = os.path.dirname(os.path.dirname(os.path.abspath(forecastlab.__file__)))
QUICKSTART = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                          "quickstart.json")
SPECIAL_DIR = os.path.join(scipy.__path__[0], "special")

# what scipy.special's package import loads and the extension loader must not
PACKAGE_IMPORT = {"scipy.special", "scipy._lib._array_api", "numpy.f2py",
                  "numpy.testing"}

LIST_MODULES = """
print(json.dumps(sorted(sys.modules)))
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
""" + LIST_MODULES

RUN = """
import json, sys
from forecastlab import cli
tiny, out = sys.argv[1:]
assert cli.main(["run", "--config", tiny, "--out", out]) == 0
""" + LIST_MODULES

SWEEP = """
import json, sys
from forecastlab import cli
config, out = sys.argv[1:]
assert cli.main(["sweep", "--config", config, "--out", out]) == 0
""" + LIST_MODULES

SCIPY = "import json, sys\nimport scipy\n" + LIST_MODULES

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
from forecastlab.arima import ArimaOrder, _innovations
from forecastlab.evaluation import scipy_extension
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
                  and scipy_extension("signal", "_sigtools") is sigtools}))
"""


# the p-values of test_evaluation's test_tails_equal_scipy_stats_bitwise
# cases, with scipy.special imported before dm_test when argv[1] says so;
# prints whether they are scipy.stats' bytes and the package's ufuncs are
# the loader's
TAILS_ORACLE = """
import json, sys
import numpy as np
if sys.argv[1] == "scipy.special":
    import scipy.special
from forecastlab.evaluation import EvaluationError, dm_test, scipy_extension
rng = np.random.default_rng(8)
scored = []
for case in range(600):
    n = int(rng.integers(8, 121))
    h = int(rng.integers(1, 5))
    a = rng.normal(size=n) * rng.uniform(0.3, 4.0)
    b = rng.normal(size=n)
    small = (None, True, False)[case % 3]
    try:
        scored.append((n, dm_test(a, b, h=h, small_sample=small)))
    except EvaluationError:  # nonpositive long-run variance at h > 1
        pass
package_first = "scipy.special" in sys.modules
from scipy import stats
import scipy.special
equal = True
for n, res in scored:
    x = abs(res.statistic)
    if res.small_sample:
        want = 2.0 * float(stats.t.sf(x, df=n - 1))
    else:
        want = 2.0 * float(stats.norm.sf(x))
    equal &= np.float64(res.pvalue).tobytes() == np.float64(want).tobytes()
ufuncs = scipy_extension("special", "_ufuncs")
print(json.dumps({
    "equal": equal, "package_first": package_first,
    "small": sum(res.small_sample for _, res in scored),
    "large": sum(not res.small_sample for _, res in scored),
    "one_ufunc": scipy.special._ufuncs is ufuncs
    and scipy.special.stdtr is ufuncs.stdtr
    and scipy.special.ndtr is ufuncs.ndtr}))
"""

# stands in for the _ufuncs extension file in the loader's "raising" mode:
# it imports a compiled sibling through the bare stand-in package, then fails
FAKE_UFUNCS = """
import sys
from . import _ufuncs_cxx
sys.modules["__main__"].seen = (sys.modules[__package__], _ufuncs_cxx)
raise RuntimeError("init failed")
"""

# `run` with the loader's finder replaced: argv[1] "missing" finds no
# extension file, "raising" finds the FAKE_UFUNCS file at argv[2]; prints
# what scipy.special is afterwards and what the fake saw
FALLBACK = """
import json, os, sys, types
import forecastlab.evaluation as evaluation
from forecastlab import cli
mode, fake, config, out = sys.argv[1:]
seen = None

class Finder:
    @staticmethod
    def find_spec(name, path):
        return None if mode == "missing" else types.SimpleNamespace(origin=fake)

evaluation.PathFinder = Finder
assert cli.main(["run", "--config", config, "--out", out]) == 0
special = sys.modules["scipy.special"]
ufuncs = evaluation.scipy_extension("special", "_ufuncs")
print(json.dumps({
    "package": os.path.basename(special.__file__),
    "extension": os.path.dirname(ufuncs.__file__) == special.__path__[0],
    "one_ufunc": special.stdtr is ufuncs.stdtr and special.ndtr is ufuncs.ndtr,
    "stand_in": seen is not None and not hasattr(seen[0], "__file__"),
    "sibling_reused": seen is not None
    and seen[1] is sys.modules["scipy.special._ufuncs_cxx"]}))
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
    return {m for m in last_line(script, *args, cwd=cwd)
            if m == "scipy" or m.startswith("scipy.")}


def is_special_extension(name):
    """Whether `name` is a compiled extension module of scipy.special."""
    package, _, leaf = name.rpartition(".")
    return package == "scipy.special" and any(
        os.path.exists(os.path.join(SPECIAL_DIR, leaf + suffix))
        for suffix in EXTENSION_SUFFIXES)


def assert_only_special_extensions(loaded, cwd):
    """The scipy modules of `loaded` beyond those `import scipy` loads are
    `scipy.special._ufuncs` and other compiled extensions of scipy.special,
    and nothing of scipy.special's package import is among `loaded`."""
    added = {m for m in loaded if m == "scipy" or m.startswith("scipy.")}
    added -= scipy_modules(SCIPY, cwd=cwd)
    assert "scipy.special._ufuncs" in added
    assert all(map(is_special_extension, added)), sorted(added)
    assert not loaded & PACKAGE_IMPORT


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


def test_ar_only_run_loads_only_special_extensions(tmp_path):
    loaded = set(last_line(RUN, tiny_config(tmp_path), str(tmp_path / "out"),
                           cwd=tmp_path))
    assert_only_special_extensions(loaded, tmp_path)
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
    loaded = set(last_line(RUN, ma_config(tmp_path, "run"),
                           str(tmp_path / "out"), cwd=tmp_path))
    assert "scipy.signal._sigtools" in loaded
    assert "scipy.signal" not in loaded
    assert_only_special_extensions(loaded - {"scipy.signal._sigtools"},
                                   tmp_path)
    assert (tmp_path / "out" / "metrics.csv").exists()


@pytest.mark.parametrize("first", ["forecastlab", "scipy.signal"])
def test_lfilter_after_the_kernel_filters_to_the_same_bits(tmp_path, first):
    assert last_line(FILTER_ORACLE, first, cwd=tmp_path) == {
        "equal": True, "one_kernel": True}


@pytest.mark.parametrize("first", ["forecastlab", "scipy.special"])
def test_dm_tails_equal_scipy_stats_in_either_import_order(tmp_path, first):
    got = last_line(TAILS_ORACLE, first, cwd=tmp_path)
    assert min(got.pop("small"), got.pop("large")) >= 150
    assert got == {"equal": True, "package_first": first == "scipy.special",
                   "one_ufunc": True}


def output_bytes(out):
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


@pytest.mark.parametrize("mode", ["missing", "raising"])
def test_loader_falls_back_to_the_package_import(tmp_path, mode):
    fake = tmp_path / "fake_ufuncs.py"
    fake.write_text(FAKE_UFUNCS)
    config = tiny_config(tmp_path)
    got = last_line(FALLBACK, mode, str(fake), config,
                    str(tmp_path / "fallback"), cwd=tmp_path)
    raised = mode == "raising"  # the fake ran under the stand-in, then failed
    assert got == {"package": "__init__.py", "extension": True,
                   "one_ufunc": True, "stand_in": raised,
                   "sibling_reused": raised}
    last_line(RUN, config, str(tmp_path / "loaded"), cwd=tmp_path)
    assert (output_bytes(tmp_path / "fallback")
            == output_bytes(tmp_path / "loaded"))


def unread_imports(source):
    """The names a module's import statements bind and its code never reads
    as a name or an attribute base, `from __future__` imports excepted."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_unread_import_is_found():
    assert unread_imports("from functools import cache\nimport numpy as np\n"
                          "import os.path\nos.path.join(np.pi)\n") == [
        (1, "cache")]


def test_package_modules_read_every_import():
    package = os.path.dirname(forecastlab.__file__)
    modules = sorted(name for name in os.listdir(package)
                     if name.endswith(".py") and name != "__init__.py")
    assert "trees.py" in modules
    unread = {}
    for name in modules:
        with open(os.path.join(package, name), encoding="utf-8") as f:
            if found := unread_imports(f.read()):
                unread[name] = found
    assert unread == {}


# the messages of `dataset.fit_rows`, which no solver module repeats
ROW_RULE = ("rows but y has", "nonempty 2-d", "row count mismatch",
            "no feature columns")
SOLVERS = ("linear.py", "svr.py", "trees.py")


def row_rule_strings(source):
    """(line, phrase) for each ROW_RULE phrase in a string of the module,
    f-string pieces included."""
    return sorted((node.lineno, phrase) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  for phrase in ROW_RULE if phrase in node.value)


def test_row_rule_string_is_found():
    assert row_rule_strings('x = 1\nif x:\n    raise ValueError(\n'
                            '        f"X has {x} rows but y has {x}")\n') == [
        (4, "rows but y has")]


def test_solvers_leave_the_rows_rule_to_dataset():
    package = os.path.dirname(forecastlab.__file__)

    def strings(name):
        with open(os.path.join(package, name), encoding="utf-8") as f:
            return row_rule_strings(f.read())

    assert {name: strings(name) for name in SOLVERS} == dict.fromkeys(SOLVERS, [])
    assert {phrase for _, phrase in strings("dataset.py")} == {
        "rows but y has", "nonempty 2-d", "no feature columns"}
