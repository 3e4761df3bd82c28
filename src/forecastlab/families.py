"""Model family registry: one uniform fit/predict surface over the solvers.

Linear and SVR families standardize features on whatever training rows they
receive (statistics travel with the model); tree families train on raw
values since splits are scale-invariant. GRID_PARAMS names the parameters
each family reads from a grid cell.
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np

from .dataset import Standardization
from .linear import PenaltySpec, fit_linear
from .svr import KernelSpec, fit_svr
from .trees import BoostParams, ForestParams, fit_gradient_boosting, fit_random_forest

FAMILIES = ("ols", "ridge", "lasso", "elastic_net", "random_forest",
            "boosting", "svr")
TREE_FAMILIES = ("random_forest", "boosting")
BENCHMARK_FAMILY = "arima"


def _param_fields(cls, *skip) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.name not in skip + ("seed",))


GRID_PARAMS = {
    "ols": (),
    "ridge": ("lam",),
    "lasso": ("lam",),
    "elastic_net": ("lam", "alpha"),
    "random_forest": _param_fields(ForestParams),
    "boosting": _param_fields(BoostParams),
    # "kernel" is KernelSpec.kind
    "svr": ("C", "epsilon", "kernel") + _param_fields(KernelSpec, "kind"),
}


class FamilyError(ValueError):
    pass


def family_params(family: str, cell: dict, seed: int = 0):
    """The solver parameters of one grid cell of `family`; a name the cell
    leaves out takes its default. A value of the wrong type or out of range
    raises TypeError or ValueError."""
    if family == "random_forest":
        return ForestParams(**cell, seed=seed)
    if family == "boosting":
        return BoostParams(**cell, seed=seed)
    if family == "svr":
        cell = dict(cell)
        C = float(cell.pop("C", 1.0))
        epsilon = float(cell.pop("epsilon", 0.1))
        if not 0.0 < C < math.inf:  # NaN too
            raise ValueError(f"C must be > 0 and finite, got {C}")
        if not 0.0 <= epsilon < math.inf:
            raise ValueError(f"epsilon must be >= 0 and finite, got {epsilon}")
        return C, epsilon, KernelSpec(cell.pop("kernel", "rbf"), **cell)
    lam = 0.0 if family == "ols" else float(cell.get("lam", 0.0))
    alpha = {"ols": 0.0, "ridge": 0.0, "lasso": 1.0}.get(
        family, float(cell.get("alpha", 0.5)))
    return PenaltySpec(lam, alpha)


def fit_family(family: str, X, y, params: dict, seed: int = 0):
    """Fit one family with the given hyperparameter cell; returns the model,
    which predicts through `.predict(X)`."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if family not in FAMILIES:
        raise FamilyError(f"unknown model family {family!r}")

    params = family_params(family, params, seed)
    if family == "random_forest":
        return fit_random_forest(X, y, params)
    if family == "boosting":
        return fit_gradient_boosting(X, y, params)

    stats = Standardization.fit(X)
    Z = stats.transform(X)
    if family == "svr":
        C, epsilon, kernel = params
        return fit_svr(Z, y, C=C, epsilon=epsilon, kernel=kernel,
                       standardization=stats)
    return fit_linear(Z, y, params, standardization=stats)
