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

* rho is the bound `.dot` of the strided view X[:, j]: for a non-negative
  row stride the same ddot, on the same stride and length, as
  `X[:, j] @ r`, without matmul's dispatch. The stride matters, because
  BLAS sums a contiguous vector in another order. On a negative row stride
  (X[::-1]) the two differ by an ulp; no caller builds such a design.
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

`fit_linear_grid` fits a grid search's (design, penalty) pairs at once and
keeps every bit of `fit_linear`. Each pair with lam > 0 is a lane, and the
lanes sweep in lockstep on a (lanes, rows) block R of residuals, so a
coordinate step is about a dozen numpy calls however many lanes there are.
A lane of fewer rows than the block's width is padded, and only its first
n entries are ever read:

* The add-back, the product and the subtract are one ufunc each over the
  block. Where some lanes skip a step (b_j or the new b_j is 0.0), the
  ufunc is masked with `where=`, so a -0.0 residual keeps its sign.
* Each lane's rho is one `np.matmul` of (lanes, 1, n) @ (lanes, n, 1)
  stacks per row count. A stack of vector products is not a gemv: numpy
  takes each product with the same BLAS ddot call as `X[:, j].dot(r)`, on
  the same stride, since the block D holds each lane's rows of p values as
  a C-ordered X does. A test holds matmul to the loop's dot bit for bit.
  `fit_linear` fits a lane whose X is not C-ordered (a grid search's folds
  are). The products x_j * b_j, which round the same from any layout, are
  taken from a second, column-contiguous copy C of the designs: on D's
  strided columns a product took 1.4x the time at 100 lanes of 87 rows
  and p = 16, and 6.7x at 500 lanes.
* The soft threshold is `where(|rho| > thr, rho - copysign(thr, rho), 0)`
  over the lanes: rho - (-thr) rounds as rho + thr does, and an excluded
  coordinate (denominator not > 0) gets thr = inf, so it stays 0.0.
* Each row-count group's intercepts are one `add.reduce` over the rows'
  first n columns, which sums a row in the order of the 1-d reduce. A
  lane's divisions are by its own n.

A lane leaves at the sweep where it converges or reaches MAX_SWEEPS. The
block drops its finished lanes once half of it has finished (they sweep on
meanwhile, which costs less than a copy at every exit), and once no more
than SCALAR_FINISH_LANES are left they finish on `_descend`, the loop that
`fit_linear` runs from sweep 0, from their current state. Covariance
updates (Friedman, Hastie & Tibshirani 2010) would cost less, but they
round differently, so they are left out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import FittedRecord, capture, coerce_fields, feature_rows, finite

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


def _rows(X, y):
    """X and y as float arrays, checked as every fit checks them."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, _ = X.shape
    if n != len(y):
        raise ValueError(f"X has {n} rows but y has {len(y)}")
    if n < 2:
        raise ValueError("need at least 2 rows to fit")
    return X, y


def fit_linear(X, y, penalty: PenaltySpec) -> LinearModel:
    """Fit the elastic-net objective by cyclic coordinate descent.

    X is used as given (standardize upstream). Converged when the largest
    coordinate update in a sweep drops below 1e-8, capped at 10,000 sweeps.
    Lasso zeros are exact.
    """
    X, y = _rows(X, y)
    if penalty.lam == 0.0:
        b, beta, jitter = _fit_unpenalized(X, y)
        return LinearModel(b, beta, converged=True, n_sweeps=0,
                           jitter_applied=jitter)
    b = float(y.mean())
    return _descend(X, penalty, [0.0] * X.shape[1], b, y - b, 0)


def _descend(X, penalty: PenaltySpec, coef: list, b: float, r, sweeps: int):
    """Run sweeps from the state after `sweeps` of them: beta as the Python
    floats `coef`, the intercept b and the residual r = y - b - X beta,
    which is updated in place. Returns the fitted model."""
    n, p = X.shape
    lam_l1 = penalty.lam * penalty.alpha
    neg_l1 = -lam_l1
    lam_l2 = penalty.lam * (1.0 - penalty.alpha)
    col_ssq = (X * X).sum(axis=0) / n
    add, subtract, multiply = np.add, np.subtract, np.multiply
    scalar = np.zeros(())  # the ufuncs' float64 operand (module docstring)
    # products[j] is x_j * beta_j as last subtracted from r (see the module
    # docstring). A coordinate whose denominator is not > 0 stays 0.0 on
    # every sweep, so it is left out.
    products = np.empty((p, n))
    coords = []
    for j, (col, denom) in enumerate(zip(np.ascontiguousarray(X.T),
                                         (col_ssq + lam_l2).tolist())):
        if denom > 0:
            coords.append((j, X[:, j].dot, col, products[j], denom))
            if coef[j]:  # a resumed state's product
                scalar[()] = coef[j]
                multiply(col, scalar, products[j])
    tmp = np.empty(n)

    nf = float(n)
    converged = False
    for sweeps in range(sweeps + 1, MAX_SWEEPS + 1):
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

    return _model(b, np.array(coef, dtype=float), converged, sweeps)


def _model(b, coef, converged, sweeps) -> LinearModel:
    return LinearModel(b, coef, converged=converged, n_sweeps=sweeps,
                       jitter_applied=False)


# A lockstep solve hands its lanes to `_descend` once no more than this many
# are left. A lockstep coordinate costs about 9.5 us plus 0.3 us a lane at
# bench shapes, the per-lane loop about 1.9 us a lane, so they break even
# near six lanes.
SCALAR_FINISH_LANES = 6


def fit_linear_grid(designs, penalties) -> list:
    """`fit_linear` on every (design, penalty) pair of a grid search: designs
    are its (X, y) folds, which share one width. Returns results[penalty]
    [design]: the LinearModel that `fit_linear` returns for the pair, bit for
    bit, or the ValueError it raises. The pairs with lam > 0 on a C-ordered
    X sweep in lockstep (see the module docstring); `fit_linear` fits any
    other."""
    results = [[None] * len(designs) for _ in penalties]
    block = []  # (index, X, y) of the designs that sweep in lockstep
    for d, (X, y) in enumerate(designs):
        try:
            X, y = _rows(X, y)
        except ValueError as exc:
            for row in results:
                row[d] = exc
            continue
        in_block = X.shape[1] and X.flags.c_contiguous
        if in_block:
            block.append((d, X, y))
        for row, penalty in zip(results, penalties):
            if penalty.lam == 0.0 or not in_block:
                row[d] = capture(fit_linear, X, y, penalty)
    swept = [(c, penalty) for c, penalty in enumerate(penalties) if penalty.lam > 0]
    if block and swept:
        with np.errstate(all="ignore"):  # a non-finite lane fails alone
            _lockstep(block, swept, results)
    return results


def _lockstep(designs, penalties, results):
    """Sweep every pair of `designs`, (index, X, y) with a C-ordered X of one
    width, and `penalties`, (index, PenaltySpec) with lam > 0, in lockstep;
    write each pair's model or error into results[penalty][design]."""
    # lanes by row count, then design, then penalty
    designs = sorted(designs, key=lambda design: design[1].shape[0])
    lanes = [(c, d, X, penalty) for d, X, _ in designs for c, penalty in penalties]
    ns = [X.shape[0] for _, _, X, _ in lanes]
    count, width, p = len(lanes), ns[-1], designs[0][1].shape[1]

    # a (p, lanes, 1) array holds one lane column per coordinate
    R = np.zeros((count, width))  # residual rows, read up to each lane's n
    D = np.zeros((count, width, p))  # each lane's X, C-ordered, for rho
    C = np.zeros((p, count, width))  # each lane's columns, for the products
    b = np.empty((count, 1))
    col_ssq = np.empty((p, count, 1))
    for k, (_, X, y) in enumerate(designs):
        ks = slice(k * len(penalties), (k + 1) * len(penalties))
        n = X.shape[0]
        b[ks] = b0 = float(y.mean())
        R[ks, :n] = y - b0
        D[ks, :n] = X
        C[:, ks, :n] = X.T[:, None]
        col_ssq[:, ks] = ((X * X).sum(axis=0) / n)[:, None, None]
    lam_l1 = np.array([pen.lam * pen.alpha for *_, pen in lanes])[:, None]
    lam_l2 = np.array([pen.lam * (1.0 - pen.alpha) for *_, pen in lanes])[:, None]
    denom = col_ssq + lam_l2
    live = denom > 0  # a coordinate that is not stays 0.0, as in `_descend`
    thr = np.where(live, lam_l1, np.inf)  # lam_l1, inf where out
    scale = np.where(live, denom, 1.0)  # the denominator, 1.0 where out
    B = np.zeros((p, count, 1))  # beta
    nonzero = np.zeros((p, count, 1), dtype=bool)  # B != 0
    P = np.empty((p, count, width))  # x_j * b_j as last subtracted from r
    nvec = np.array(ns, dtype=float)[:, None]

    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    greater, where, not_equal, copysign = (np.greater, np.where, np.not_equal,
                                           np.copysign)
    matmul, absolute, fmax, count_nonzero = (np.matmul, np.abs, np.fmax,
                                             np.count_nonzero)
    sweeps = 0
    done = np.zeros(count, dtype=bool)  # lanes whose model is taken
    while count > SCALAR_FINISH_LANES:
        groups = []  # [first lane, end, n] of each row count
        for k, n in enumerate(ns):
            if groups and groups[-1][2] == n:
                groups[-1][1] = k + 1
            else:
                groups.append([k, k + 1, n])
        rho = np.empty((count, 1))
        # per coordinate and row count: (x_j rows, r columns, rho out), for
        # one matmul of (lanes, 1, n) @ (lanes, n, 1) stacks
        dots = [[(D[first:end, None, :n, j], R[first:end, :n, None],
                  rho[first:end, :, None])
                 for first, end, n in groups] for j in range(p)]
        coords = list(zip(range(p), dots, C, P, B, nonzero, thr, scale))
        active = [count_nonzero(Bj) for Bj in B]  # lanes with b_j != 0
        T = np.empty((count, width))
        sums = np.empty((count, 1))
        taken = 0
        while 2 * taken < count and count - taken > SCALAR_FINISH_LANES:
            sweeps += 1
            B_prev = B.copy()
            for j, dotj, Cj, Pj, Bj, nzj, thrj, scalej in coords:
                m = active[j]
                if m == count:  # add back x_j * b_j
                    add(R, Pj, R)
                elif m:
                    add(R, Pj, R, where=nzj)
                for x, r, out in dotj:
                    matmul(x, r, out)
                divide(rho, nvec, rho)
                # soft threshold: rho - (-thr) is rho + thr, bit for bit
                divide(where(greater(absolute(rho), thrj),
                             rho - copysign(thrj, rho), 0.0), scalej, Bj)
                active[j] = m = count_nonzero(Bj)
                if m == count:
                    subtract(R, multiply(Cj, Bj, Pj), R)
                elif m:  # nzj is read only while m is neither 0 nor count
                    not_equal(Bj, 0.0, nzj)
                    multiply(Cj, Bj, Pj, where=nzj)
                    subtract(R, Pj, R, where=nzj)
            # refit intercepts as the means of partial residuals
            add(R, b, T)
            for first, end, n in groups:
                add.reduce(T[first:end, :n], axis=1, out=sums[first:end, 0])
            new_b = sums / nvec
            max_delta = fmax.reduce(absolute(B - B_prev), axis=0)
            fmax(max_delta, absolute(new_b - b), max_delta)
            fmax(max_delta, 0.0, max_delta)  # a NaN delta is no update
            add(R, b - new_b, R)
            b = new_b
            converged = (max_delta < CONVERGENCE_TOL)[:, 0]
            leave = ~done if sweeps >= MAX_SWEEPS else converged & ~done
            if leave.any():
                for k in np.flatnonzero(leave).tolist():
                    c, d = lanes[k][:2]
                    results[c][d] = capture(_model, float(b[k, 0]), B[:, k, 0],
                                            bool(converged[k]), sweeps)
                done |= leave
                taken = count_nonzero(done)
        keep = ~done  # drop the finished lanes
        lanes = [lane for lane, kept in zip(lanes, keep.tolist()) if kept]
        ns = [n for n, kept in zip(ns, keep.tolist()) if kept]
        count = len(lanes)
        R, D, C, P = R[keep], D[keep], C[:, keep], P[:, keep]
        B = B[:, keep]
        nonzero, thr, scale = nonzero[:, keep], thr[:, keep], scale[:, keep]
        b, nvec, done = b[keep], nvec[keep], done[keep]

    for k, (c, d, X, penalty) in enumerate(lanes):  # the scalar finish
        results[c][d] = capture(_descend, X, penalty, B[:, k, 0].tolist(),
                                float(b[k, 0]), R[k, :ns[k]].copy(), sweeps)
