"""Epsilon-insensitive support vector regression via pairwise SMO.

The dual is solved in the doubled variable z = [alpha; alpha*] with signs
s = [+1...; -1...], minimizing

    0.5 z'Qz + p'z,   Q = [[K, -K], [-K, K]],  p = [eps - y; eps + y]

subject to s'z = 0 and 0 <= z <= C. Each step picks the maximal
KKT-violating pair (largest gap between the I_up and I_low gradient
bounds), solves the two-variable subproblem analytically, and clips to
the box: the dual objective improves monotonically and sum(alpha -
alpha*) stays exactly zero. The prediction bias comes from free support
vectors, or the midpoint of the KKT interval when none are free.

An update touches two entries of z, so the loop keeps z as Python
floats, clips and re-classifies (I_up / I_low) only those two, and reads
the pair's kernel columns from a contiguous copy made once per fit; the
gradient update over all 2n entries is the only full-length arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import coerce_fields, finite, integer, optional

KKT_TOL = 1e-3
MAX_PAIR_UPDATES = 100_000
PREDICT_BLOCK_CELLS = 1 << 15  # kernel entries per predict block (256 KiB)


@dataclass(frozen=True)
class KernelSpec:
    kind: str  # linear | polynomial | rbf
    degree: int = 3
    gamma: float | None = None  # None: 1 / (p * var(X)) at fit time
    coef0: float = 0.0

    def __post_init__(self):
        coerce_fields(self, degree=integer, gamma=optional(finite), coef0=finite)
        if self.kind not in ("linear", "polynomial", "rbf"):
            raise ValueError(f"unknown kernel {self.kind!r}")
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be > 0")

    def resolved_gamma(self, X: np.ndarray) -> float:
        if self.gamma is not None:
            return self.gamma
        var = float(np.asarray(X).var())
        return 1.0 / (X.shape[1] * var) if var > 0 else 1.0


def kernel_matrix(spec: KernelSpec, A, B, gamma: float) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if spec.kind == "linear":
        return A @ B.T
    if spec.kind == "polynomial":
        return (gamma * (A @ B.T) + spec.coef0) ** spec.degree
    sq = (np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :]
          - 2.0 * A @ B.T)
    return np.exp(-gamma * np.maximum(sq, 0.0))


@dataclass(frozen=True)
class SvrModel:
    support_rows: np.ndarray  # all training rows; zero-coef rows are non-SVs
    dual_coef: np.ndarray  # alpha_i - alpha*_i per row
    bias: float
    kernel: KernelSpec
    gamma: float
    C: float
    epsilon: float
    converged: bool = True
    n_updates: int = 0

    @property
    def n_features(self) -> int:
        return self.support_rows.shape[1]

    def predict(self, X) -> np.ndarray:
        """sum_i (alpha_i - alpha*_i) K(x_i, x) + b.

        Rows go through the kernel in blocks of about PREDICT_BLOCK_CELLS
        kernel entries, so a large X keeps its kernel temporaries
        cache-sized instead of rows x support rows at once."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} feature columns, "
                             f"got {X.shape}")
        # whole groups of 4 rows: BLAS matrix-vector kernels round rows in
        # groups of 4, so aligned blocks keep a row's bits in most cases
        step = max(4, PREDICT_BLOCK_CELLS // self.support_rows.shape[0] // 4 * 4)
        out = np.empty(X.shape[0])
        for lo in range(0, X.shape[0], step):
            K = kernel_matrix(self.kernel, X[lo:lo + step], self.support_rows,
                              self.gamma)
            out[lo:lo + step] = K @ self.dual_coef + self.bias
        return out


def fit_svr(X, y, C: float, epsilon: float, kernel: KernelSpec,
            monitor=None, tol: float = KKT_TOL) -> SvrModel:
    """SMO fit; terminates when the worst KKT violation is <= tol (1e-3
    default), or returns the best iterate with converged=False after
    100,000 pair updates. `monitor(z, beta)`, when given, observes every
    iterate."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least 2 rows")
    if not C > 0:  # NaN too
        raise ValueError(f"C must be > 0, got {C}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")

    gamma = kernel.resolved_gamma(X)
    K = kernel_matrix(kernel, X, X, gamma)
    # row t of the doubled problem maps to row t mod n of K; row ii of
    # cols is column ii of that doubled matrix, stored contiguously
    cols = np.ascontiguousarray(np.vstack([K, K]).T)
    diag = K.diagonal().tolist()
    cap = MAX_PAIR_UPDATES
    Cf = float(C)

    z = [0.0] * (2 * n)
    s = np.concatenate([np.ones(n), -np.ones(n)])
    grad = np.concatenate([epsilon - y, epsilon + y])
    # row 0 of sides is -s*grad; row 1 is its negation s*grad, so one
    # argmax per row finds the I_up maximum and the I_low minimum (same
    # first-index ties and NaN handling as argmin on row 0)
    signs = np.vstack([-s, s])
    sides = np.empty((2, 2 * n))
    # I_up and I_low membership, rows 0 and 1 (all of alpha and all of
    # alpha* at z = 0); an update can change only the two entries it moves
    member = np.vstack([s > 0, s < 0])
    diff = np.empty(2 * n)
    step = np.empty(2 * n)

    converged = False
    updates = 0
    m = M = 0.0
    while True:
        np.multiply(signs, grad, out=sides)
        i, j = np.where(member, sides, -np.inf).argmax(1).tolist()
        m, M = sides.item(0, i), sides.item(0, j)
        if m - M <= tol:
            converged = True
            break
        if updates >= cap:
            break

        ii, jj = i % n, j % n
        curv = diag[ii] + diag[jj] - 2.0 * K.item(ii, jj)
        cap_i = (Cf - z[i]) if i < n else z[i]
        cap_j = z[j] if j < n else (Cf - z[j])
        delta = (m - M) / curv if curv > 1e-12 else np.inf
        delta = min(delta, cap_i, cap_j)
        if delta <= 0:
            break  # boundary-locked; KKT gap cannot be reduced further
        z[i] = z[i] + delta if i < n else z[i] - delta
        z[j] = z[j] - delta if j < n else z[j] + delta
        for t in (i, j):
            # only these two entries moved. A step down is capped by the
            # entry itself, so it stays >= 0; a step up to the cap can
            # round past C and is clipped back, as np.clip over z would
            zt = z[t]
            if zt > Cf:
                z[t] = zt = Cf
            up, low = zt < Cf, zt > 0.0
            member[0, t], member[1, t] = (up, low) if t < n else (low, up)
        np.subtract(cols[ii], cols[jj], out=diff)
        np.multiply(s, delta, out=step)
        np.multiply(step, diff, out=step)
        np.add(grad, step, out=grad)
        updates += 1
        if monitor is not None:
            za = np.array(z)
            monitor(za, za[:n] - za[n:])

    z = np.array(z)
    beta = z[:n] - z[n:]
    neg_sg = -s * grad
    free = (z > 1e-9 * C) & (z < C * (1 - 1e-9))
    if free.any():
        bias = float(neg_sg[free].mean())
    else:
        bias = float((m + M) / 2.0)
    return SvrModel(X, beta, bias, kernel, gamma, C, epsilon, converged, updates)
