"""The four benchmark workloads, each built from a seed.

Every workload writes its own config documents, so edits to the shipped
``configs/quickstart.json`` cannot change what is measured. The seed is
the config's master seed, so it determines the synthetic data, the CV
folds and every model's randomness.

Each workload has two sizes:

* ``full`` is the size of the first profile of the package (the numbers
  in NOTES.md): the quickstart grids, 68 explained rows, two sweep splits.
  One command takes 10-70 s on a 2-core machine.
* ``bench`` is what a timed run measures. It keeps each workload's data,
  split, CV plan and the layer mix, but shrinks the ensembles, the
  explained rows or the splits so that one command takes about two
  seconds, and a run can average over several generated inputs: the cost
  of one input moves with its data, by up to 2x on ``run-quickstart``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

# Frozen copy of configs/quickstart.json.
QUICKSTART = {
    "seed": 42,
    "out_dir": "out",
    "data": {"synth": {"kind": "nonlinear", "n": 84, "noise_scale": 0.25}},
    "split_months": [24, 16, 12, 9, 6],
    "primary_split": 16,
    "cv": {"k": 5, "shuffle": False},
    "roster": {
        "arima": {"candidates": [[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 1],
                                 [1, 1, 0]]},
        "ridge": {"grid": {"lam": [0.001, 0.01, 0.1, 0.9]}},
        "lasso": {"grid": {"lam": [0.001, 0.01, 0.1, 0.9]}},
        "elastic_net": {"grid": {"lam": [0.001, 0.01, 0.1],
                                 "alpha": [0.05, 0.5, 0.95]}},
        "random_forest": {"grid": {"max_depth": [3, 9], "max_features": [4, 8],
                                   "n_estimators": [100]}},
        "boosting": {"grid": {"learning_rate": [0.08], "n_estimators": [200],
                              "max_depth": [2, 4], "subsample": [0.7],
                              "colsample_bytree": [0.7]}},
        "svr": {"grid": {"C": [1.0, 10.0, 50.0], "epsilon": [0.01, 0.065],
                         "kernel": ["linear", "rbf"]}},
    },
    "dm": {"h": 1, "small_sample": "auto"},
}

DEFAULT_FEATURES = ("RTGS", "SKNBI", "ATMD", "CC", "EM", "DC", "FT", "KUPVA",
                    "CIC", "ER", "IR", "CSPI", "SMC", "ADT", "PER", "CCI")

SWEEP_ORDERS = [
    [0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0], [0, 0, 1], [1, 0, 1],
    [2, 0, 1], [0, 1, 1], [1, 1, 0], [1, 1, 1], [2, 1, 1],
    [1, 0, 0, 1, 0, 0, 12], [0, 0, 1, 0, 0, 1, 12], [1, 0, 1, 1, 0, 1, 12],
    [0, 1, 1, 0, 1, 1, 12], [1, 1, 0, 1, 1, 0, 12], [1, 0, 0, 0, 1, 1, 12],
    [2, 1, 2, 1, 1, 1, 12],
]

# Input i of a bench run uses master seed seed + INPUT_STRIDE * i.
INPUT_STRIDE = 100_003


def _run_quickstart(seed: int, full: bool) -> dict:
    doc = copy.deepcopy(QUICKSTART)
    doc["seed"] = seed
    if not full:
        roster = doc["roster"]
        roster["random_forest"]["grid"]["n_estimators"] = [5]
        roster["boosting"]["grid"]["n_estimators"] = [10]
        # two epsilon cells a kernel, so kernel reuse and warm starts across
        # (C, epsilon) cells have something to reuse. Linear-kernel SMO
        # updates grow with C and vary ~0.4 (sd/mean) across seeds at any
        # C; at C=1 SVR alone moved a command's time by 2x between seeds,
        # at C=0.3 it still takes 4k-16k updates an input.
        roster["svr"]["grid"] = {"C": [0.3], "epsilon": [0.01, 0.065],
                                 "kernel": ["linear", "rbf"]}
        # (0,1,1) over-differences this stationary series: its Nelder-Mead
        # run takes 0.05 s on most seeds and 0.6 s on some
        roster["arima"]["candidates"] = [[0, 0, 0], [1, 0, 0], [2, 0, 0],
                                         [1, 1, 0]]
    return doc


def _explain_forest(seed: int, full: bool) -> dict:
    doc = copy.deepcopy(QUICKSTART)
    doc["seed"] = seed
    if not full:
        # one cell: with the quickstart's depth axis the CV winner (depth 3
        # or 9) flips with the seed and moves TreeSHAP cost several-fold
        doc["roster"]["random_forest"]["grid"] = {
            "max_depth": [9], "max_features": [8], "n_estimators": [5]}
    return doc


def _explain_exact(seed: int, full: bool) -> dict:
    # 12 features: exact enumeration is capped at 15, and 12 keeps the
    # synthetic drivers ATMD, CC and IR.
    doc = copy.deepcopy(QUICKSTART)
    doc["seed"] = seed
    doc["schema"] = {"target": "INF", "features": list(DEFAULT_FEATURES[:12])}
    doc["roster"] = {"arima": {"candidates": [[0, 0, 0]]},
                     "ridge": QUICKSTART["roster"]["ridge"]}
    if not full:
        doc["explain"] = {"rows": "test"}
    return doc


# Bench-size sweep: eight non-seasonal and three seasonal orders of
# SWEEP_ORDERS. Four are left to the full size because their CSS
# Nelder-Mead cost is bimodal across seeds: (1,1,1), (2,1,1) and
# (2,1,2)(1,1,1,12) over-difference this stationary series and end early
# on some seeds and at the iteration cap on others (0.1-3 s a fit), and
# (2,0,1) takes 0.2-0.3 s on most inputs and ~1 s on about one in six,
# twice when it also wins and is refitted. With (2,0,1) one bench input
# cost 1.7-3.9 s; an input without it costs about 1.5 s.
BENCH_SWEEP_ORDERS = [
    [0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0], [0, 0, 1], [1, 0, 1],
    [0, 1, 1], [1, 1, 0],
    [1, 0, 0, 1, 0, 0, 12], [0, 1, 1, 0, 1, 1, 12], [1, 0, 0, 0, 1, 1, 12],
]


def _sweep_arima_linear(seed: int, full: bool) -> dict:
    linear = {"ols": {}, "ridge": {}, "lasso": {}, "elastic_net": {}}
    if not full:
        # the default elastic-net grid is 10x10 cells; the quickstart's
        # 3x3 keeps both axes
        linear["elastic_net"] = QUICKSTART["roster"]["elastic_net"]
    return {
        "seed": seed,
        "out_dir": "out",
        "data": {"synth": {"kind": "linear", "n": 120, "noise_ar": 0.6}},
        "split_months": [24, 12] if full else [12],
        "primary_split": 12,
        "cv": {"k": 5, "shuffle": False},
        "roster": {"arima": {"candidates": SWEEP_ORDERS if full
                             else BENCH_SWEEP_ORDERS}, **linear},
    }


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # run | sweep | explain
    model: str | None
    build: object  # (seed, full) -> config document
    command_s: float  # seconds a bench-size command takes on a 2-core VM

    def plan(self, seconds: float, traced: bool) -> list[tuple[int, bool]]:
        """The (input, traced) commands of a bench run, in order. The
        count is fixed by the run length alone, so a faster program is
        measured on as many inputs as a slower one. An untraced run runs
        inputs 0..K-1 and then input 0 again, to check it reruns byte for
        byte; a traced run runs every input untraced and then traced."""
        budget = max(2, int(seconds // self.command_s))
        if traced:
            k = max(1, budget // 2)
            return ([(i, False) for i in range(k)]
                    + [(i, True) for i in range(k)])
        return [(i, False) for i in range(budget - 1)] + [(0, False)]

    def configs(self, seed: int, count: int, full: bool) -> list[dict]:
        if full:
            return [self.build(seed, True)]
        return [self.build(seed + INPUT_STRIDE * i, False)
                for i in range(count)]

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        argv = [self.command, "--config", config_path, "--out", out_dir]
        if self.model:
            argv += ["--model", self.model]
        return argv

    def expected_files(self, doc: dict) -> list[str]:
        if self.command == "sweep":
            return ["split_sweep.csv"]
        if self.command == "run":
            tuned = [f for f in doc["roster"]
                     if f not in ("arima", "ols")]
            return (["metrics.csv", "forecasts.csv"]
                    + [f"cv_{f}.csv" for f in tuned])
        features = doc.get("schema", {}).get("features", DEFAULT_FEATURES)
        files = ["importance.csv", "shap_values.csv", "predictions.csv",
                 "summary_plot.csv", "functional_form.json"]
        files += [f"dependence_{f}.csv" for f in features]
        if self.model in ("random_forest", "boosting"):
            files.append("model.json")
        return files


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in [
    Workload("run-quickstart", "run", None, _run_quickstart, 2.8),
    Workload("explain-forest", "explain", "random_forest", _explain_forest,
             1.8),
    Workload("explain-exact", "explain", "ridge", _explain_exact, 3.3),
    Workload("sweep-arima-linear", "sweep", None, _sweep_arima_linear, 2.2),
]}
