"""Linear regression with elastic-net shrinkage via cyclic coordinate descent.

Objective, for an n x p design X and target y:

    (1/(2n)) * ||y - b - X beta||^2 + lam * (alpha * ||beta||_1
                                             + (1 - alpha)/2 * ||beta||_2^2)

alpha mixes the penalties (0 = ridge, 1 = lasso); the intercept b is never
penalized and is refitted as the mean of partial residuals each sweep.
The lam = 0 path is solved by normal equations instead of iterating.

A sweep holds beta as Python floats (an array once, after the last sweep)
and updates the residual r in place. Each coordinate costs one BLAS dot and
at most three in-place ufunc calls, and every step keeps the bits of the
plain sweep (`r += x_j * b_j; rho = x_j @ r / n; ...; r -= x_j * new`):

* rho is the bound `.dot` of the strided view X[:, j]: the same ddot, on
  the same stride and length, as `X[:, j] @ r`, without matmul's dispatch.
  The stride matters, because BLAS sums a contiguous vector in another
  order.
* The add-back of x_j * b_j reuses the product last subtracted for that
  coordinate, kept in a (p, n) buffer: b_j is the value that product was
  made with, and a product rounds the same from any operand layout, so
  the products are taken from contiguous column copies.
* The soft threshold is inlined, with the same comparisons and divisions.
* The intercept is refit as `add.reduce(r + b) / n`, which is what
  `.mean()` computes, less its Python-side overhead.

What is left is numpy's per-call dispatch, so the loop keeps it at its
floor: every ufunc gets its output positionally, a scalar operand (the
new coefficient, the intercept) is written into one 0-d float64 array
instead of passed as a Python float, which numpy would wrap on every
call, and each coordinate's fields are one tuple, unpacked into locals.
At bench shapes (n = 54-86, p = 12-16) a coordinate costs about 2.3 us,
against 2.6 us with keyword outputs and Python-float operands.
Covariance updates (Friedman, Hastie & Tibshirani 2010) or lockstep
sweeps over a fold's grid would cost less, but they round differently,
so they are left out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import FittedRecord, coerce_fields, feature_rows, finite

CONVERGENCE_TOL = 1e-8
MAX_SWEEPS = 10_000


@dataclass(frozen=True)
class PenaltySpec:
    lam: float
    alpha: float

    def __post_init__(self):
        coerce_fields(self, lam=finite, alpha=finite)
        if self.lam < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")


@dataclass(frozen=True, eq=False)
class LinearModel(FittedRecord):
    intercept: float
    coefficients: np.ndarray
    converged: bool
    n_sweeps: int
    jitter_applied: bool

    def __post_init__(self):
        coefs = np.asarray(self.coefficients, dtype=float)
        if not np.all(np.isfinite(coefs)) or not np.isfinite(self.intercept):
            raise ValueError("non-finite linear fit")
        coefs = coefs.copy()
        coefs.flags.writeable = False
        object.__setattr__(self, "coefficients", coefs)

    @property
    def n_features(self) -> int:
        return self.coefficients.shape[0]

    def predict(self, X) -> np.ndarray:
        """b + X beta."""
        return self.intercept + feature_rows(X, self.n_features) @ self.coefficients


def _fit_unpenalized(X, y):
    """Normal equations; near-singular designs get a 1e-10 ridge jitter."""
    n = X.shape[0]
    A = np.column_stack([np.ones(n), X])
    gram = A.T @ A
    rhs = A.T @ y
    jitter = False
    try:
        sol = np.linalg.solve(gram, rhs)
        if not np.all(np.isfinite(sol)):
            raise np.linalg.LinAlgError
        # reject wildly inaccurate solutions from ill-conditioned grams
        if not np.allclose(gram @ sol, rhs, rtol=1e-6, atol=1e-6 * (1 + np.abs(rhs).max())):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        jitter = True
        sol = np.linalg.solve(gram + 1e-10 * n * np.eye(gram.shape[0]), rhs)
    return float(sol[0]), sol[1:], jitter


def fit_linear(X, y, penalty: PenaltySpec) -> LinearModel:
    """Fit the elastic-net objective by cyclic coordinate descent.

    X is used as given (standardize upstream). Converged when the largest
    coordinate update in a sweep drops below 1e-8, capped at 10,000 sweeps.
    Lasso zeros are exact.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if n != len(y):
        raise ValueError(f"X has {n} rows but y has {len(y)}")
    if n < 2:
        raise ValueError("need at least 2 rows to fit")

    if penalty.lam == 0.0:
        b, beta, jitter = _fit_unpenalized(X, y)
        return LinearModel(b, beta, converged=True, n_sweeps=0,
                           jitter_applied=jitter)

    lam_l1 = penalty.lam * penalty.alpha
    neg_l1 = -lam_l1
    lam_l2 = penalty.lam * (1.0 - penalty.alpha)
    col_ssq = (X * X).sum(axis=0) / n
    # products[j] is x_j * beta_j as last subtracted from r (see the module
    # docstring). A coordinate whose denominator is not > 0 stays 0.0 on
    # every sweep, so it is left out.
    products = np.empty((p, n))
    coords = [(j, X[:, j].dot, col, products[j], denom)
              for j, (col, denom) in enumerate(zip(
                  np.ascontiguousarray(X.T), (col_ssq + lam_l2).tolist()))
              if denom > 0]
    add, subtract, multiply = np.add, np.subtract, np.multiply
    scalar = np.zeros(())  # the ufuncs' float64 operand (module docstring)
    tmp = np.empty(n)

    nf = float(n)
    coef = [0.0] * p  # beta, as Python floats
    b = float(y.mean())
    r = y - b  # residual excluding nothing: y - b - X beta, beta = 0
    converged = False
    sweeps = 0
    for sweeps in range(1, MAX_SWEEPS + 1):
        max_delta = 0.0
        for j, dot, col, product, denom in coords:
            bj = coef[j]
            if bj:  # != 0.0
                add(r, product, r)
            rho = float(dot(r)) / nf
            if rho > lam_l1:  # soft threshold
                new = (rho - lam_l1) / denom
            elif rho < neg_l1:
                new = (rho + lam_l1) / denom
            else:
                new = 0.0
            if new:  # != 0.0
                scalar[()] = new
                subtract(r, multiply(col, scalar, product), r)
            coef[j] = new
            delta = abs(new - bj)
            if delta > max_delta:
                max_delta = delta
        # refit intercept as the mean of partial residuals
        scalar[()] = b
        new_b = float(add.reduce(add(r, scalar, tmp))) / nf
        scalar[()] = b - new_b
        add(r, scalar, r)
        delta = abs(new_b - b)
        if delta > max_delta:
            max_delta = delta
        b = new_b
        if max_delta < CONVERGENCE_TOL:
            converged = True
            break

    return LinearModel(b, np.array(coef, dtype=float), converged=converged,
                       n_sweeps=sweeps, jitter_applied=False)
