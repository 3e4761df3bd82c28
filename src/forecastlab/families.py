"""Model family registry: `FAMILIES` maps each family's name to its `Family`.

A `Family` owns its grid names, the one check of a grid cell (`params`), the
fit, the shipped grid and whether TreeSHAP explains it (`trees`). Linear and
SVR families fit on rows standardized by their own statistics and return a
`Standardized` model; tree families train on raw values. Each `fit` calls
its solver by this module's global name at call time, never through a stored
function object, so a wrapper put in place of that global sees every fit.
The linear families' grid searches on one window fit their (cell, fold)
fits at once (`fit_linear_grids`), through one call of the lockstep solver
`fit_linear_grid`, which is looked up the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import shapley
from .dataset import FittedRecord, Standardization, capture, number
from .linear import PenaltySpec, fit_linear, fit_linear_grid
from .svr import KernelSpec, fit_svr
from .trees import BoostParams, ForestParams, fit_gradient_boosting, fit_random_forest


class FamilyError(ValueError):
    pass


def _param_fields(cls, *skip) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.name not in skip + ("seed",))


# shipped grids take 10 log-spaced points per continuous range
def _logspace(lo: float, hi: float, num: int = 10) -> list[float]:
    return [float(v) for v in np.exp(np.linspace(math.log(lo), math.log(hi), num))]


def _int_logspace(lo: int, hi: int, num: int = 10) -> list[int]:
    return sorted({int(round(v)) for v in _logspace(lo, hi, num)})


@dataclass(frozen=True, eq=False)
class Standardized(FittedRecord):
    """A linear or SVR model fitted on rows standardized by `stats`, the
    statistics of its training rows; `predict` takes raw rows. It is explained
    in that space: the rows and the background are standardized once, and the
    inner model is explained on them. That is exact: (z - mean_j) / scale_j
    acts on each element of column j alone, so standardizing a composed row
    equals composing standardized rows bit for bit."""

    stats: Standardization
    model: object

    def predict(self, X) -> np.ndarray:
        return self.model.predict(self.stats.transform(X))

    def attributions(self, rows, background) -> np.ndarray:
        back = shapley.BackgroundSet(self.stats.transform(background.rows))
        return shapley.attributions(self.model, self.stats.transform(rows), back)


@dataclass(frozen=True, eq=False)
class Family:  # a subclass builds the solver parameters (`_build`) and fits
    name: str
    grid_names: tuple[str, ...]
    shipped: dict  # parameter name -> values of the shipped grid
    trees: bool = False

    def params(self, cell: dict, seed: int = 0, n_features: int | None = None):
        """The solver parameters of one grid cell, names it leaves out at their
        defaults. A name the family does not read or a bad value (a forest's
        max_features above `n_features`) raises TypeError or ValueError."""
        unknown = sorted(set(cell) - set(self.grid_names))
        if unknown:
            raise ValueError(f"{self.name} reads no grid parameter {unknown}; "
                             f"it reads {list(self.grid_names) or 'none'}")
        return self._build(dict(cell), seed, n_features)

    def default_grid(self, n_features: int | None = None) -> dict:
        return {name: list(values) for name, values in self.shipped.items()}


@dataclass(frozen=True, eq=False)
class LinearFamily(Family):
    alpha: float | None = None  # the fixed L1 share; None reads the cell's

    def _build(self, cell, seed, n_features):
        alpha = cell.get("alpha", 0.5) if self.alpha is None else self.alpha
        return PenaltySpec(cell.get("lam", 0.0), alpha)

    def fit(self, X, y, params):
        stats = Standardization.fit(X)
        return Standardized(stats, fit_linear(stats.transform(X), y, params))


class SvrFamily(Family):
    def _build(self, cell, seed, n_features):
        C = number(cell.pop("C", 1.0))
        epsilon = number(cell.pop("epsilon", 0.1))
        if not 0.0 < C < math.inf:  # NaN too
            raise ValueError(f"C must be > 0 and finite, got {C}")
        if not 0.0 <= epsilon < math.inf:
            raise ValueError(f"epsilon must be >= 0 and finite, got {epsilon}")
        return C, epsilon, KernelSpec(cell.pop("kernel", "rbf"), **cell)

    def fit(self, X, y, params):  # params: C, epsilon, kernel
        stats = Standardization.fit(X)
        return Standardized(stats, fit_svr(stats.transform(X), y, *params))


class ForestFamily(Family):
    def _build(self, cell, seed, n_features):
        params = ForestParams(**cell, seed=seed)
        if n_features is not None and (params.max_features or 0) > n_features:
            raise ValueError(f"max_features={params.max_features} exceeds "
                             f"the {n_features} features")
        return params

    def fit(self, X, y, params):
        return fit_random_forest(X, y, params)

    def default_grid(self, n_features: int | None = None) -> dict:
        grid = super().default_grid()
        if n_features == 0:  # unset is all columns: the fit fails, not the config
            del grid["max_features"]
        elif n_features is not None:  # clip, drop duplicates, keep the order
            grid["max_features"] = list(dict.fromkeys(
                min(v, n_features) for v in grid["max_features"]))
        return grid


class BoostFamily(Family):
    def _build(self, cell, seed, n_features):
        return BoostParams(**cell, seed=seed)

    def fit(self, X, y, params):
        return fit_gradient_boosting(X, y, params)


_LAMBDAS = _logspace(0.001, 0.9)
# "kernel" is KernelSpec.kind
FAMILIES = {family.name: family for family in (
    LinearFamily("ols", (), {}, alpha=0.0),
    LinearFamily("ridge", ("lam",), {"lam": _LAMBDAS}, alpha=0.0),
    LinearFamily("lasso", ("lam",), {"lam": _LAMBDAS}, alpha=1.0),
    LinearFamily("elastic_net", ("lam", "alpha"), {
        "lam": _LAMBDAS, "alpha": _logspace(0.05, 0.95)}),
    ForestFamily("random_forest", _param_fields(ForestParams), {
        "max_depth": _int_logspace(2, 50), "max_features": _int_logspace(2, 20),
        "n_estimators": _int_logspace(10, 1000)}, trees=True),
    BoostFamily("boosting", _param_fields(BoostParams), {
        "learning_rate": _logspace(0.005, 0.5), "n_estimators": _int_logspace(10, 1000),
        "max_depth": [2, 4, 6, 8, 10], "subsample": _logspace(0.1, 0.9),
        "colsample_bytree": _logspace(0.1, 0.9)}, trees=True),
    SvrFamily("svr", ("C", "epsilon", "kernel") + _param_fields(KernelSpec, "kind"), {
        "C": _logspace(0.1, 50), "epsilon": _logspace(0.0005, 1.0),
        "kernel": ["linear", "polynomial", "rbf"]}),
)}


def fit_family(family: str, X, y, params: dict, seed: int = 0):
    """Fit one family with the given hyperparameter cell; returns the model,
    which predicts through `.predict(X)`. X with no columns raises, for
    every family alike."""
    if family not in FAMILIES:
        raise FamilyError(f"unknown model family {family!r}")
    X = np.asarray(X, dtype=float)
    if not X.shape[1]:
        raise _no_columns()
    spec = FAMILIES[family]
    return spec.fit(X, np.asarray(y, dtype=float), spec.params(params, seed))


def fit_linear_grids(searches, folds) -> list:
    """`fit_family` on every (cell, fold) of one or more linear grid searches
    on the same folds, at once: `searches` are (LinearFamily, cells) pairs,
    and the result holds, per search, per cell, per (X, y) training fold, the
    model or the ValueError its fit raises. Each fold is standardized once,
    and every search's penalties go to one `fit_linear_grid` call."""
    if not folds[0][0].shape[1]:
        return [[[_no_columns()] * len(folds) for _ in cells]
                for _, cells in searches]
    stats = [Standardization.fit(X) for X, _ in folds]
    penalties = [[capture(family.params, cell) for cell in cells]
                 for family, cells in searches]
    fits = iter(fit_linear_grid(
        [(s.transform(X), y) for s, (X, y) in zip(stats, folds)],
        [penalty for row in penalties for penalty in row
         if isinstance(penalty, PenaltySpec)]))
    return [[[fit if isinstance(fit, ValueError) else Standardized(s, fit)
              for s, fit in zip(stats, next(fits))]
             if isinstance(penalty, PenaltySpec) else [penalty] * len(folds)
             for penalty in row] for row in penalties]


def _no_columns() -> FamilyError:
    return FamilyError("no feature columns to fit on")
