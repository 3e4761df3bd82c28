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

`fit_linear_grid` fits the (design, penalty) pairs of one or more grid
searches on the same folds at once and keeps every bit of `fit_linear`.
Each pair with lam > 0 is a lane. The lanes are a (design, penalty) grid,
designs ordered by row count, and sweep in lockstep on a (designs,
penalties, rows) block R of residuals, so a coordinate step is about a
dozen numpy calls however many lanes there are. Each design's X is held
once and broadcast over its lanes, so beyond R a lane costs one row of a
buffer of R's shape. A design of fewer rows than the block's width is
padded, and only its first n entries are ever read:

* The add-back recomputes x_j * b_j into the buffer before it adds it: b_j
  is the value the product last subtracted was made with, and a product
  rounds the same from any operand layout, so the recomputed product is
  the subtracted one, bit for bit, and no (p, lanes, rows) block of
  products is kept. The add-back, each product and the subtract are one
  ufunc each over the block, lanes that skip the step (b_j or the new b_j
  is 0.0) among them. For a finite x_j that changes no bit a fit returns:
  r + x_j * 0.0 and r - x_j * 0.0 are r but for the sign of a zero in r;
  such a sign changes rho only where rho is zero, which thresholds to 0.0
  all the same; and it is gone after the first intercept refit, because a
  -0.0 in y - mean needs mean = +0.0, and r + 0.0 holds no -0.0. So only
  finite designs sweep in lockstep; `fit_linear` fits any other.
* Each lane's rho comes from one `np.matmul` of (designs, 1, 1, n) @
  (designs, penalties, n, 1) stacks per row count, a design's rows
  broadcast over its lanes. A stack of vector products is not a gemv:
  numpy takes each product with the same BLAS ddot call as
  `X[:, j].dot(r)`, on the same stride, since the block D holds each
  design's rows of p values as a C-ordered X does. Tests hold matmul to the
  loop's dot bit for bit, and `fit_linear` fits a design whose X is not
  C-ordered (a grid search's folds are). The products are taken from a
  second, column-contiguous copy C of the designs: on D's strided columns
  a product took 1.4x the time at 100 lanes of 87 rows and p = 16, and
  6.7x at 500 lanes.
* The soft threshold is `where(|rho| > thr, rho - copysign(thr, rho), 0)`
  over the lanes: rho - (-thr) rounds as rho + thr does, and an excluded
  coordinate (denominator not > 0) gets thr = inf, so it stays 0.0.
* Each row-count group's intercepts are one `add.reduce` over the rows'
  first n columns, which sums a row in the order of the 1-d reduce. A
  lane's divisions are by its own n.

A lane leaves at the sweep where it converges or reaches MAX_SWEEPS, and
sweeps on until its penalty leaves: the block drops the penalties that
every design has finished once they are 1/DROP_SHARE of its penalties
(a copy at every exit would cost more). Once no more than
SCALAR_FINISH_LANES lanes are left unfinished they finish on `_descend`,
the loop that `fit_linear` runs from sweep 0, from their current state.
Covariance updates (Friedman, Hastie & Tibshirani 2010) would cost less,
but they round differently, so they are left out.
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
# are left unfinished. At bench shapes (5 designs of 86-87 rows, p = 16) a
# lockstep coordinate costs about 10 us plus 0.3 us a lane, the per-lane
# loop about 2 us a lane, so they break even near six lanes.
SCALAR_FINISH_LANES = 6
# A lockstep solve drops the penalties that every design has finished once
# they are 1/DROP_SHARE of its penalties. On the run and sweep benchmarks'
# merged blocks (85 to 600 lanes) shares of 1, 4, 8 and any-penalty were
# no faster than 2.
DROP_SHARE = 2


def fit_linear_grid(designs, penalties) -> list:
    """`fit_linear` on every (design, penalty) pair of one or more grid
    searches on the same folds: designs are the (X, y) folds, which share one
    width, and penalties every search's cells. Returns results[penalty]
    [design]: the LinearModel that `fit_linear` returns for the pair, bit for
    bit, or the ValueError it raises. The pairs with lam > 0 on a finite,
    C-ordered X sweep in lockstep (see the module docstring); `fit_linear`
    fits any other."""
    results = [[None] * len(designs) for _ in penalties]
    block = []  # (index, X, y) of the designs that sweep in lockstep
    for d, (X, y) in enumerate(designs):
        try:
            X, y = _rows(X, y)
        except ValueError as exc:
            for row in results:
                row[d] = exc
            continue
        in_block = X.shape[1] and X.flags.c_contiguous and np.isfinite(X).all()
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
    """Sweep every pair of `designs`, (index, X, y) with a finite, C-ordered
    X of one width, and `penalties`, (index, PenaltySpec) with lam > 0, in
    lockstep; write each pair's model or error into results[penalty][design]."""
    # the lanes are a (design, penalty) grid, designs by row count; a
    # design's X is held once and broadcast over its lanes
    designs = sorted(designs, key=lambda design: design[1].shape[0])
    ns = [X.shape[0] for _, X, _ in designs]
    g, width, p = len(designs), ns[-1], designs[0][1].shape[1]
    groups = []  # [first design, end, n] of each row count
    for k, n in enumerate(ns):
        if groups and groups[-1][2] == n:
            groups[-1][1] = k + 1
        else:
            groups.append([k, k + 1, n])

    D = np.zeros((g, width, p))  # each design's X, C-ordered, for rho
    C = np.zeros((p, g, 1, width))  # each design's columns, for the products
    R0 = np.zeros((g, 1, width))  # residual rows, read up to each design's n
    b0 = np.empty((g, 1, 1))
    col_ssq = np.empty((p, g, 1, 1))
    for k, (_, X, y) in enumerate(designs):
        n = X.shape[0]
        b0[k] = mean = float(y.mean())
        R0[k, 0, :n] = y - mean
        D[k, :n] = X
        C[:, k, 0, :n] = X.T
        col_ssq[:, k] = ((X * X).sum(axis=0) / n)[:, None, None]
    nvec = np.array(ns, dtype=float)[:, None, None]  # each design's n
    lam_l1 = np.array([pen.lam * pen.alpha for _, pen in penalties])[:, None]
    lam_l2 = np.array([pen.lam * (1.0 - pen.alpha) for _, pen in penalties])[:, None]
    denom = col_ssq + lam_l2  # (p, designs, penalties, 1), as are the next
    live = denom > 0  # a coordinate that is not stays 0.0, as in `_descend`
    thr = np.where(live, lam_l1, np.inf)  # lam_l1, inf where out
    scale = np.where(live, denom, 1.0)  # the denominator, 1.0 where out
    B = np.zeros(denom.shape)  # beta
    R = np.repeat(R0, len(penalties), axis=1)
    b = np.repeat(b0, len(penalties), axis=1)

    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    greater, where, copysign = np.greater, np.where, np.copysign
    matmul, absolute, fmax, count_nonzero = (np.matmul, np.abs, np.fmax,
                                             np.count_nonzero)
    sweeps = 0
    done = np.zeros((g, len(penalties)), dtype=bool)  # lanes whose model is taken
    coords = None
    while done.size - count_nonzero(done) > SCALAR_FINISH_LANES:
        if coords is None:  # the block's views, made again after each drop
            count, lanes = done.size, len(penalties)
            rho = np.empty((g, lanes, 1))
            nlanes = np.repeat(nvec, lanes, axis=1)  # each lane's n
            # per coordinate and row count: (x_j rows, r columns, rho out),
            # for one matmul of (designs, 1, 1, n) @ (designs, lanes, n, 1)
            dots = [[(D[first:end, None, None, :n, j], R[first:end, :, :n, None],
                      rho[first:end, :, :, None])
                     for first, end, n in groups] for j in range(p)]
            coords = list(zip(range(p), dots, C, B, thr, scale))
            active = [count_nonzero(Bj) for Bj in B]  # lanes with b_j != 0
            T = np.empty((g, lanes, width))  # x_j * b_j, then r + b
            sums = np.empty(count)
            rows = T.reshape(count, width)
            totals = [(rows[first * lanes:end * lanes, :n],
                       sums[first * lanes:end * lanes]) for first, end, n in groups]
        sweeps += 1
        B_prev = B.copy()
        for j, dotj, Cj, Bj, thrj, scalej in coords:
            if active[j]:  # add back x_j * b_j
                add(R, multiply(Cj, Bj, T), R)
            for x, r, out in dotj:
                matmul(x, r, out)
            divide(rho, nlanes, rho)
            # soft threshold: rho - (-thr) is rho + thr, bit for bit
            divide(where(greater(absolute(rho), thrj),
                         rho - copysign(thrj, rho), 0.0), scalej, Bj)
            active[j] = count_nonzero(Bj)
            if active[j]:
                subtract(R, multiply(Cj, Bj, T), R)
        # refit intercepts as the means of partial residuals
        add(R, b, T)
        for total, out in totals:
            add.reduce(total, axis=1, out=out)
        new_b = sums.reshape(g, lanes, 1) / nlanes
        max_delta = fmax.reduce(absolute(B - B_prev), axis=0)
        fmax(max_delta, absolute(new_b - b), max_delta)
        fmax(max_delta, 0.0, max_delta)  # a NaN delta is no update
        add(R, b - new_b, R)
        b = new_b
        converged = (max_delta < CONVERGENCE_TOL)[:, :, 0]
        leave = ~done if sweeps >= MAX_SWEEPS else converged & ~done
        if not leave.any():
            continue
        for k, lane in np.argwhere(leave).tolist():
            results[penalties[lane][0]][designs[k][0]] = capture(
                _model, float(b[k, lane, 0]), B[:, k, lane, 0],
                bool(converged[k, lane]), sweeps)
        done |= leave
        finished = done.all(axis=0)
        if DROP_SHARE * count_nonzero(finished) >= lanes:
            keep = ~finished  # drop the penalties every design has finished
            penalties = [pen for pen, kept in zip(penalties, keep.tolist()) if kept]
            R, b, done = R[:, keep], b[:, keep], done[:, keep]
            B = B[:, :, keep]
            thr, scale = thr[:, :, keep], scale[:, :, keep]
            coords = None

    for k, (d, X, _) in enumerate(designs):  # the scalar finish
        for lane, (c, penalty) in enumerate(penalties):
            if not done[k, lane]:
                results[c][d] = capture(_descend, X, penalty, B[:, k, lane, 0].tolist(),
                                        float(b[k, lane, 0]), R[k, lane, :ns[k]].copy(),
                                        sweeps)
