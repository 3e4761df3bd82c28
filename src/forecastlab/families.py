"""Model family registry: one uniform fit/predict surface over the solvers.

Linear and SVR families standardize features on whatever training rows they
receive (statistics travel with the model); tree families train on raw
values since splits are scale-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Standardization
from .linear import PenaltySpec, fit_linear
from .svr import KernelSpec, fit_svr
from .trees import BoostParams, ForestParams, fit_gradient_boosting, fit_random_forest

FAMILIES = ("ols", "ridge", "lasso", "elastic_net", "random_forest",
            "boosting", "svr")
STANDARDIZED_FAMILIES = ("ols", "ridge", "lasso", "elastic_net", "svr")
TREE_FAMILIES = ("random_forest", "boosting")
BENCHMARK_FAMILY = "arima"


class FamilyError(ValueError):
    pass


@dataclass(frozen=True)
class Fitted:
    family: str
    model: object
    params: dict

    def predict(self, X) -> np.ndarray:
        return self.model.predict(X)


def _as_kernel(params: dict) -> KernelSpec:
    return KernelSpec(kind=params.get("kernel", "rbf"),
                      degree=int(params.get("degree", 3)),
                      gamma=params.get("gamma"),
                      coef0=float(params.get("coef0", 0.0)))


def fit_family(family: str, X, y, params: dict, seed: int = 0) -> Fitted:
    """Fit one family with the given hyperparameter cell."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    params = dict(params)
    if family not in FAMILIES:
        raise FamilyError(f"unknown model family {family!r}")

    if family in STANDARDIZED_FAMILIES:
        stats = Standardization.fit(X)
        Z = stats.transform(X)
        if family == "svr":
            model = fit_svr(Z, y, C=float(params.get("C", 1.0)),
                            epsilon=float(params.get("epsilon", 0.1)),
                            kernel=_as_kernel(params), standardization=stats)
        else:
            lam = float(params.get("lam", 0.0))
            alpha = {"ols": 0.0, "ridge": 0.0, "lasso": 1.0}.get(
                family, float(params.get("alpha", 0.5)))
            if family == "ols":
                lam = 0.0
            model = fit_linear(Z, y, PenaltySpec(lam, alpha),
                               standardization=stats)
        return Fitted(family, model, params)

    if family == "random_forest":
        fp = ForestParams(
            n_estimators=int(params.get("n_estimators", 100)),
            max_depth=int(params.get("max_depth", 6)),
            max_features=(int(params["max_features"])
                          if params.get("max_features") is not None else None),
            min_samples_leaf=int(params.get("min_samples_leaf", 1)),
            seed=seed)
        return Fitted(family, fit_random_forest(X, y, fp), params)

    bp = BoostParams(
        learning_rate=float(params.get("learning_rate", 0.1)),
        n_estimators=int(params.get("n_estimators", 100)),
        max_depth=int(params.get("max_depth", 3)),
        subsample=float(params.get("subsample", 1.0)),
        colsample_bytree=float(params.get("colsample_bytree", 1.0)),
        reg_lambda=float(params.get("reg_lambda", 1.0)),
        min_split_gain=float(params.get("min_split_gain", 0.0)),
        seed=seed)
    return Fitted(family, fit_gradient_boosting(X, y, bp), params)
