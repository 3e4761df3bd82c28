"""K-fold cross-validation and exhaustive grid search over hyperparameters.

Folds default to contiguous time blocks (shuffle=false); cells are scored
by mean validation MSE across folds and the full cv table is returned so
the winner can always be audited against it. A fit that fails with a
ValueError (invalid cell, singular system) records +inf for that cell
rather than aborting the sweep; any other exception propagates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import boolean, coerce_fields
from .families import fit_family

# hyperparameter search ranges shipped as defaults, discretized to 10
# log-spaced points per continuous range (explicit value lists kept as-is)
def _logspace(lo: float, hi: float, num: int = 10) -> list[float]:
    return [float(v) for v in np.exp(np.linspace(math.log(lo), math.log(hi), num))]


def _int_logspace(lo: int, hi: int, num: int = 10) -> list[int]:
    vals = np.exp(np.linspace(math.log(lo), math.log(hi), num))
    return sorted({int(round(v)) for v in vals})


def default_grid(family: str, n_features: int | None = None) -> dict:
    """The shipped grid of `family`. Given the design's `n_features`, each
    random_forest max_features value is clipped to it, duplicates dropped
    and the order kept, so no cell asks for more columns than there are."""
    grids = {
        "ols": {},
        "ridge": {"lam": _logspace(0.001, 0.9)},
        "lasso": {"lam": _logspace(0.001, 0.9)},
        "elastic_net": {"lam": _logspace(0.001, 0.9),
                        "alpha": _logspace(0.05, 0.95)},
        "random_forest": {"max_depth": _int_logspace(2, 50),
                          "max_features": _int_logspace(2, 20),
                          "n_estimators": _int_logspace(10, 1000)},
        "boosting": {"learning_rate": _logspace(0.005, 0.5),
                     "n_estimators": _int_logspace(10, 1000),
                     "max_depth": [2, 4, 6, 8, 10],
                     "subsample": _logspace(0.1, 0.9),
                     "colsample_bytree": _logspace(0.1, 0.9)},
        "svr": {"C": _logspace(0.1, 50),
                "epsilon": _logspace(0.0005, 1.0),
                "kernel": ["linear", "polynomial", "rbf"]},
    }
    if family not in grids:
        raise ValueError(f"no default grid for family {family!r}")
    grid = grids[family]
    if n_features is not None and "max_features" in grid:
        grid["max_features"] = list(dict.fromkeys(
            min(v, n_features) for v in grid["max_features"]))
    return grid


class TuningError(ValueError):
    pass


@dataclass(frozen=True)
class CvPlan:
    k: int = 5
    shuffle: bool = False
    seed: int = 0

    def __post_init__(self):
        coerce_fields(self, k=int, shuffle=boolean)
        if self.k < 2:
            raise TuningError(f"k must be >= 2, got {self.k}")


@dataclass(frozen=True)
class ParamGrid:
    """Ordered parameter name -> ordered candidate values."""

    axes: tuple[tuple[str, tuple], ...]

    @classmethod
    def from_dict(cls, mapping: dict) -> "ParamGrid":
        axes = []
        for name, values in mapping.items():
            if (not isinstance(values, (list, tuple)) or not values
                    or any(isinstance(v, (list, tuple, dict)) for v in values)):
                raise TuningError(f"parameter {name!r} needs a non-empty "
                                  f"list of single values, got {values!r}")
            axes.append((name, tuple(values)))
        return cls(tuple(axes))

    def cells(self) -> list[dict]:
        """Cartesian product in declaration order; an empty grid is the
        single all-defaults cell."""
        if not self.axes:
            return [{}]
        names = [a[0] for a in self.axes]
        combos = itertools.product(*[a[1] for a in self.axes])
        return [dict(zip(names, combo)) for combo in combos]

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(a[0] for a in self.axes)


@dataclass(frozen=True)
class CvCell:
    params: dict
    mean_mse: float
    sd_mse: float
    rank: int = 0
    fold_mse: tuple[float, ...] = field(default=(), repr=False)


def kfold_indices(n: int, plan: CvPlan) -> list[np.ndarray]:
    """Partition 0..n-1 into k folds with sizes differing by at most one;
    unshuffled folds are contiguous time blocks."""
    if plan.k > n:
        raise TuningError(f"k={plan.k} exceeds n={n}")
    order = np.arange(n)
    if plan.shuffle:
        order = np.random.default_rng(plan.seed).permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(order, plan.k)]


def grid_search(family: str, grid: ParamGrid, X, y, plan: CvPlan,
                seed: int = 0):
    """Exhaustive search; returns (best params, cv table sorted as declared).

    Fold assignment is computed once, before any cell is evaluated, so it
    cannot depend on the grid's content.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    folds = kfold_indices(len(y), plan)
    all_idx = np.arange(len(y))
    # each fold's rows are sliced once and shared by every cell; no family
    # writes into the arrays it fits on or predicts
    splits = []
    for val_idx in folds:
        train_idx = np.setdiff1d(all_idx, val_idx, assume_unique=True)
        splits.append((X[train_idx], y[train_idx], X[val_idx], y[val_idx]))

    table: list[CvCell] = []
    for params in grid.cells():
        fold_mse = []
        for X_train, y_train, X_val, y_val in splits:
            try:
                model = fit_family(family, X_train, y_train, params,
                                   seed=seed)
                resid = model.predict(X_val) - y_val
                score = float((resid ** 2).mean())
                if not math.isfinite(score):
                    score = math.inf
            except ValueError:  # also LinAlgError and the package's errors
                score = math.inf
            fold_mse.append(score)
        finite = [v for v in fold_mse if math.isfinite(v)]
        if len(finite) == len(fold_mse):
            mean = float(np.mean(fold_mse))
            sd = float(np.std(fold_mse))
        else:
            mean, sd = math.inf, math.inf
        table.append(CvCell(params, mean, sd, fold_mse=tuple(fold_mse)))

    order = sorted(range(len(table)), key=lambda i: (table[i].mean_mse, i))
    ranks = {i: r + 1 for r, i in enumerate(order)}
    table = [CvCell(c.params, c.mean_mse, c.sd_mse, ranks[i], c.fold_mse)
             for i, c in enumerate(table)]
    best = table[order[0]]
    if math.isinf(best.mean_mse):
        raise TuningError(f"every {family} grid cell failed")
    return dict(best.params), table


def cv_table_csv_lines(family: str, grid: ParamGrid,
                       table: list[CvCell]) -> list[str]:
    names = list(grid.param_names)
    lines = ["family," + ",".join(names + ["mean_mse", "sd_mse", "rank"])]
    for cell in table:
        vals = [str(cell.params[n]) for n in names]
        lines.append(",".join([family] + vals
                              + [repr(float(cell.mean_mse)),
                                 repr(float(cell.sd_mse)), str(cell.rank)]))
    return lines
