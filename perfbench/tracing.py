"""Per-layer spans for a traced benchmark run, recorded from outside the package.

The package binds most names with ``from module import name``, so a wrapper
has to replace the name in the module where it is looked up at call time
(``pipeline.grid_search``, ``tuning.fit_family``, ``families.fit_svr``, ...),
not only where it is defined. Each wrapper records one span (name, parent
span, start, end, tag) and may bump counters from the call's arguments or
result. Spans stay in memory until the traced commands end;
``layer_metrics`` then folds them into the per-layer figures of
BENCHMARK.json.

A hook whose target name no longer exists is skipped and counted in
``trace.missing_hooks``, so a refactor of the package shows up as a
figure instead of a crash.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict

FAMILIES = ("ols", "ridge", "lasso", "elastic_net", "random_forest",
            "boosting", "svr")

# spans whose per-call distribution is reported as p50 and tail
PER_CALL = ("families.fit", "svr.fit", "trees.fit_regression_tree",
            "trees.predict_tree", "shapley.tree_shap", "shapley.exact_shapley",
            "shapley.predict", "arima.fit_css", "linear.fit")
MIN_CALLS_FOR_PERCENTILES = 20
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)


def _count_nodes(tree) -> int:
    # pointer nodes today; a flat-array tree counts the length of its arrays
    if hasattr(tree, "left"):
        stack, n = [tree], 0
        while stack:
            node = stack.pop()
            n += 1
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)
        return n
    return len(getattr(tree, "feature", ()))


def _after_grid_search(counts, args, kwargs, result):
    _, table = result
    counts["tuning.failed_cells"] += sum(1 for cell in table
                                         if math.isinf(cell.mean_mse))


def _after_fit_svr(counts, args, kwargs, model, cap):
    counts["svr.smo_updates"] += model.n_updates
    counts["svr.converged"] += bool(model.converged)
    if cap is not None:
        counts["svr.cap_hits"] += (not model.converged
                                   and model.n_updates >= cap)


def _after_fit_linear(counts, args, kwargs, model):
    counts["linear.cd_sweeps"] += model.n_sweeps
    counts["linear.nonconverged"] += not model.converged


def _after_fit_css(counts, args, kwargs, fit):
    counts["arima.nonconverged"] += not fit.converged


def _after_tree(counts, args, kwargs, tree):
    counts["trees.nodes_grown"] += _count_nodes(tree)


def _after_predict_tree(counts, args, kwargs, out):
    counts["trees.rows_routed"] += len(out)


def _after_exact(counts, args, kwargs, phi):
    counts["shapley.coalitions"] += 1 << len(phi)


def _family_tag(args, kwargs):
    return args[0] if args else kwargs.get("family")


class Tracer:
    """Installs span-recording wrappers into the imported package modules;
    ``uninstall`` puts every original back."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []  # [name, parent index, start, end, tag]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name, tag=None) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = [name, parent, time.perf_counter(), 0.0, tag]
        self.spans.append(span)
        return span

    def _close(self, span):
        span[3] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span of its own (the benchmark's root span)."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def wrap(self, module_name, attr, span_name, after=None, on_error=None,
             tag=None):
        module = getattr(self.package, module_name, None)
        original = getattr(module, attr, None) if module else None
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self._open(span_name, tag(args, kwargs) if tag else None)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self.counts, exc)
                raise
            finally:
                self._close(span)
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        self._patches.append((module, attr, original))
        setattr(module, attr, wrapper)

    # -- hook set ----------------------------------------------------------

    def install(self):
        self.missing = []
        pkg = self.package
        cap = getattr(pkg.svr, "MAX_PAIR_UPDATES", None)
        if cap is None:
            # without the cap a non-converged fit cannot be told from a
            # boundary-locked one, so svr.cap_hits is left out
            self.missing.append("svr.MAX_PAIR_UPDATES")
        arima_error = pkg.arima.ArimaError

        def too_short(counts, exc):
            counts["arima.too_short"] += isinstance(exc, arima_error)

        w = self.wrap
        w("cli", "load_config", "config.load_config")
        for cmd in ("cmd_run", "cmd_sweep", "cmd_explain"):
            w("cli", cmd, "pipeline.cmd")
        w("pipeline", "synth_generate", "dataset.synth_generate")
        w("pipeline", "grid_search", "tuning.grid_search",
          after=_after_grid_search)
        w("tuning", "fit_family", "families.fit", tag=_family_tag)
        w("pipeline", "fit_family", "families.fit", tag=_family_tag)
        w("families", "fit_svr", "svr.fit",
          after=lambda c, a, k, m: _after_fit_svr(c, a, k, m, cap))
        w("families", "predict_svr", "svr.predict")
        w("svr", "kernel_matrix", "svr.kernel_matrix")
        w("trees", "fit_regression_tree", "trees.fit_regression_tree",
          after=_after_tree)
        w("trees", "predict_tree", "trees.predict_tree",
          after=_after_predict_tree)
        w("families", "fit_linear", "linear.fit", after=_after_fit_linear)
        w("arima", "select_order", "arima.select_order")
        w("arima", "fit_css", "arima.fit_css", after=_after_fit_css,
          on_error=too_short)
        w("pipeline", "explain_matrix", "shapley.explain_matrix")
        w("shapley", "tree_shap", "shapley.tree_shap")
        w("shapley", "exact_shapley", "shapley.exact_shapley",
          after=_after_exact)
        for name in ("predict_linear", "predict_svr", "predict_ensemble"):
            w("shapley", name, "shapley.predict")
        for name in ("dependence_data", "filter_outliers",
                     "fit_functional_form", "zero_crossings",
                     "summary_plot_data"):
            w("pipeline", name, "interpretation")
        w("pipeline", "metric_table", "evaluation.metric_table")

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def _percentiles(durations: list[float]) -> tuple[float, float, float]:
    """(p50 ms, tail ms, tail percentile): the tail is the highest of
    TAIL_PERCENTILES that still has at least ten calls beyond it."""
    n = len(durations)
    if n < MIN_CALLS_FOR_PERCENTILES:
        return 0.0, 0.0, 0.0
    ordered = sorted(durations)

    def at(pct):
        return 1e3 * ordered[min(n - 1, int(math.ceil(pct / 100.0 * n)) - 1)]

    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10:
            return at(50.0), at(pct), pct
    return at(50.0), 0.0, 0.0


def layer_metrics(spans: list[list], counts: Counter,
                  missing: list[str]) -> dict:
    """Fold the spans and counters of traced commands into named figures. A
    figure whose hook is missing is left out rather than reported as 0."""
    total = defaultdict(float)
    calls = Counter()
    child_time = defaultdict(float)
    durations = defaultdict(list)
    fam_s = defaultdict(float)
    fam_n = Counter()
    fold_fits = 0
    for name, parent, start, end, tag in spans:
        d = end - start
        total[name] += d
        calls[name] += 1
        durations[name].append(d)
        if parent >= 0:
            child_time[parent] += d
            if name == "families.fit" and spans[parent][0] == "tuning.grid_search":
                fold_fits += 1
        if name == "families.fit":
            fam_s[tag] += d
            fam_n[tag] += 1
    self_time = defaultdict(float)
    for i, (name, _, start, end, _) in enumerate(spans):
        self_time[name] += (end - start) - child_time[i]

    fits = calls["svr.fit"]
    m = {
        "tuning.grid_search_s": total["tuning.grid_search"],
        "tuning.grid_search_self_s": self_time["tuning.grid_search"],
        "tuning.fold_fits": fold_fits,
        "tuning.failed_cells": counts["tuning.failed_cells"],
    }
    for fam in FAMILIES:
        m[f"families.fit_s.{fam}"] = fam_s[fam]
        m[f"families.fit_calls.{fam}"] = fam_n[fam]
    m.update({
        "svr.fit_s": total["svr.fit"],
        "svr.fits": fits,
        "svr.smo_updates": counts["svr.smo_updates"],
        "svr.cap_hits": counts["svr.cap_hits"],
        "svr.converged_ratio": counts["svr.converged"] / fits if fits else 0.0,
        "svr.kernel_matrix_calls": calls["svr.kernel_matrix"],
        "svr.predict_s": total["svr.predict"],
        "trees.fit_regression_tree_s": total["trees.fit_regression_tree"],
        "trees.trees_grown": calls["trees.fit_regression_tree"],
        "trees.nodes_grown": counts["trees.nodes_grown"],
        "trees.predict_tree_s": total["trees.predict_tree"],
        "trees.predict_tree_calls": calls["trees.predict_tree"],
        "trees.rows_routed": counts["trees.rows_routed"],
        "shapley.explain_matrix_s": total["shapley.explain_matrix"],
        "shapley.tree_shap_s": total["shapley.tree_shap"],
        "shapley.tree_shap_calls": calls["shapley.tree_shap"],
        "shapley.exact_shapley_s": total["shapley.exact_shapley"],
        "shapley.exact_shapley_calls": calls["shapley.exact_shapley"],
        "shapley.coalitions": counts["shapley.coalitions"],
        "shapley.predict_calls": calls["shapley.predict"],
        "shapley.predict_s": total["shapley.predict"],
        "arima.select_order_s": total["arima.select_order"],
        "arima.fit_css_s": total["arima.fit_css"],
        "arima.fits": calls["arima.fit_css"] - counts["arima.too_short"],
        "arima.too_short": counts["arima.too_short"],
        "arima.nonconverged": counts["arima.nonconverged"],
        "linear.fit_s": total["linear.fit"],
        "linear.fits": calls["linear.fit"],
        "linear.cd_sweeps": counts["linear.cd_sweeps"],
        "linear.nonconverged": counts["linear.nonconverged"],
        "interpretation.s": total["interpretation"],
        "evaluation.metric_table_s": total["evaluation.metric_table"],
        "dataset.synth_generate_s": total["dataset.synth_generate"],
        "config.load_config_s": total["config.load_config"],
        "pipeline.self_s": self_time["cli.main"] + self_time["pipeline.cmd"],
        "trace.missing_hooks": len(missing),
    })
    if "svr.MAX_PAIR_UPDATES" in missing:
        del m["svr.cap_hits"]
    for name in PER_CALL:
        p50, tail, pct = _percentiles(durations[name])
        m[f"{name}.p50_ms"] = p50
        m[f"{name}.tail_ms"] = tail
        m[f"{name}.tail_pct"] = pct
    return m
