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
from dataclasses import dataclass

import numpy as np

from .dataset import boolean, coerce_fields, integer
from .families import fit_family


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
        if not self.axes:
            return [{}]
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

    cells = grid.cells()
    scores = []
    for params in cells:
        fold_mse = []
        for X_train, y_train, X_val, y_val in splits:
            try:
                model = fit_family(family, X_train, y_train, params,
                                   seed=seed)
                resid = model.predict(X_val) - y_val
                with np.errstate(over="ignore"):  # scored inf below
                    score = float((resid ** 2).mean())
                if not math.isfinite(score):
                    score = math.inf
            except ValueError:  # also LinAlgError and the package's errors
                score = math.inf
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
        raise TuningError(f"every {family} grid cell failed")
    return dict(best.params), table
