"""K-fold cross-validation and exhaustive grid search over hyperparameters.

Folds default to contiguous time blocks (shuffle=false); cells are scored
by mean validation MSE across folds and the full cv table is returned so
the winner can always be audited against it. A fit that fails with a
ValueError (invalid cell, singular system) records +inf for that cell
rather than aborting the sweep; any other exception propagates. When every
cell fails, the error names the first failure's cause. The searches on one
training window share its folds (`CvFolds`): each fold is sliced once, and
the linear families' grids, together, are fitted at once in one lockstep
solve; every other family fits cell by cell through `fit_family`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import boolean, capture, coerce_fields, integer
from .families import FAMILIES, LinearFamily, fit_family, fit_linear_grids


class TuningError(ValueError):
    pass


@dataclass(frozen=True)
class CvPlan:
    k: int = 5
    shuffle: bool = False
    seed: int = 0

    def __post_init__(self):
        coerce_fields(self, k=integer, shuffle=boolean)
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
        names = [a[0] for a in self.axes]
        combos = itertools.product(*[a[1] for a in self.axes])
        return [dict(zip(names, combo)) for combo in combos]


@dataclass(frozen=True)
class CvCell:
    params: dict
    mean_mse: float
    sd_mse: float
    rank: int


def kfold_indices(n: int, plan: CvPlan) -> list[np.ndarray]:
    """Partition 0..n-1 into k folds with sizes differing by at most one;
    unshuffled folds are contiguous time blocks."""
    if plan.k > n:
        raise TuningError(f"k={plan.k} exceeds n={n}")
    order = np.arange(n)
    if plan.shuffle:
        order = np.random.default_rng(plan.seed).permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(order, plan.k)]


class CvFolds:
    """The k folds of one training window (X, y) under `plan`, shared by the
    grid searches on that window. `linear` maps each linear family that
    searches it to its cells. Each fold's rows are sliced once, on first
    use, and shared by every cell; no family writes into the arrays it fits
    on or predicts. The first linear search fits the (cell, fold) fits of
    every family in `linear` at once (`fit_linear_grids`); every other
    family fits cell by cell through `fit_family`."""

    def __init__(self, X, y, plan: CvPlan, linear: dict):
        self.X = np.asarray(X, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.plan = plan
        self._linear = linear
        self._splits = None
        self._linear_fits = None  # family -> per cell, per fold

    @property
    def splits(self) -> list[tuple]:
        """(X_train, y_train, X_val, y_val) of each fold. Fold assignment is
        computed before any cell is evaluated, so it cannot depend on a
        grid's content."""
        if self._splits is None:
            X, y = self.X, self.y
            all_idx = np.arange(len(y))
            splits = []
            for val_idx in kfold_indices(len(y), self.plan):
                train_idx = np.setdiff1d(all_idx, val_idx, assume_unique=True)
                splits.append((X[train_idx], y[train_idx], X[val_idx], y[val_idx]))
            self._splits = splits
        return self._splits

    def fold_fits(self, family: str, cells, seed: int):
        """Per cell, per fold: the fitted model or the ValueError its fit
        raised. A linear family's cells are those it was declared with."""
        folds = [split[:2] for split in self.splits]
        if not is_linear(family):
            return ([capture(fit_family, family, X_train, y_train, params,
                             seed=seed) for X_train, y_train in folds]
                    for params in cells)
        if self._linear_fits is None:
            self._linear_fits = dict(zip(self._linear, fit_linear_grids(
                [(FAMILIES[name], cells) for name, cells in self._linear.items()],
                folds)))
        return self._linear_fits[family]


def is_linear(family: str) -> bool:
    """Whether `family`'s grid search fits on `CvFolds` with the other
    linear families' at once."""
    return isinstance(FAMILIES.get(family), LinearFamily)


def grid_search(family: str, grid: ParamGrid, X, y, plan: CvPlan,
                seed: int = 0, folds: CvFolds | None = None):
    """Exhaustive search; returns (best params, cv table sorted as declared).

    `folds` defaults to folds of this search alone. Given, it is the
    `CvFolds` that the window's other searches share, and X, y and plan are
    its own `folds.X`, `folds.y` and `folds.plan`.
    """
    cells = grid.cells()
    if folds is None:
        folds = CvFolds(X, y, plan, {family: cells} if is_linear(family) else {})
    elif folds.X is not X or folds.y is not y or folds.plan is not plan:
        raise TypeError("folds must be the CvFolds of X and y under plan")
    scores = []
    cause = None  # of the first failed fit, for the all-cells-failed error
    for cell_fits in folds.fold_fits(family, cells, seed):
        fold_mse = []
        for fit, (_, _, X_val, y_val) in zip(cell_fits, folds.splits):
            score, why = _fold_score(fit, X_val, y_val)
            cause = cause or why
            fold_mse.append(score)
        if all(math.isfinite(v) for v in fold_mse):
            scores.append((float(np.mean(fold_mse)), float(np.std(fold_mse))))
        else:
            scores.append((math.inf, math.inf))

    order = sorted(range(len(cells)), key=lambda i: (scores[i][0], i))
    ranks = {i: r + 1 for r, i in enumerate(order)}
    table = [CvCell(params, *scores[i], ranks[i])
             for i, params in enumerate(cells)]
    best = table[order[0]]
    if math.isinf(best.mean_mse):
        raise TuningError(f"every {family} grid cell failed, the first "
                          f"with {cause}")
    return dict(best.params), table


def _fold_score(fit, X_val, y_val) -> tuple[float, str | None]:
    """The validation MSE of a fold fit (a model, or the ValueError its fit
    raised), and, when that is inf, its cause."""
    pred = fit if isinstance(fit, ValueError) else capture(fit.predict, X_val)
    if isinstance(pred, ValueError):
        return math.inf, f"{type(pred).__name__}: {pred}"
    with np.errstate(over="ignore"):  # scored inf below
        score = float(((pred - y_val) ** 2).mean())
    if not math.isfinite(score):
        return math.inf, "non-finite validation MSE"
    return score, None
