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
floats, clips and re-classifies only those two, and reads the pair's
kernel columns from a contiguous copy made once per fit; the gradient
update over all 2n entries is the only full-length arithmetic.

The pair is chosen from two rows, which are the loop's whole gradient
state: row 0 holds -s*grad on I_up and -inf off it, row 1 holds s*grad
on I_low and -inf off it. One argmax per row gives i (the I_up maximum
of -s*grad) and j (the I_low minimum of -s*grad, with argmin's
first-index ties), and M is row 1's entry at j, negated. The gradient
itself is never formed: at z = 0 the rows start as -(eps - y) on alpha
and -(eps + y) on alpha*, the bits of (-s)*grad and s*grad, and an
update subtracts step = delta * (Kd[:, i] - Kd[:, j]) from row 0 and
adds it to row 1, in place; -inf stays -inf. That is the plain update
`grad += (s * delta) * (Kd[:, i] - Kd[:, j])` to the bit, because s is
+-1 and negation is exact: s * delta * d rounds to s times the rounding
of delta * d, and -s * (grad + u) rounds as (-s * grad) - s * u.

So row 1 equals row 0 negated wherever both hold an entry, except for
the sign of an exact zero: x - x is +0.0 in both rows. When an update
moves entry t into a set, its value is copied, negated, from the row
that still holds it, and when t leaves a set its entry becomes -inf.
C > 0 keeps every entry in I_up (z < C on alpha, z > 0 on alpha*) or
I_low (the reverse), so one row always holds it; two lists of Python
bools say which. The -inf marks equal the plain masked search only while
every value is finite, so a kernel matrix with a non-finite entry is
rejected before the loop. A free entry lies in both sets, so the bias
reads row 0; a zero bias is returned as +0.0, since its sign depends on
which row a zero came from.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import FittedRecord, coerce_fields, feature_rows, finite, integer, optional

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

    def resolve(self, X: np.ndarray) -> KernelSpec:
        """This spec with gamma set: as given, else 1 / (p * var(X))."""
        if self.gamma is not None:
            return self
        var = float(np.asarray(X).var())
        return replace(self, gamma=1.0 / (X.shape[1] * var) if var > 0 else 1.0)


def kernel_matrix(spec: KernelSpec, A, B) -> np.ndarray:
    """K(a, b) for the rows of A and B under a resolved spec. An rbf exponent
    that overflows gives an exact 0; a non-finite entry (a high polynomial
    degree, say) is a ValueError, in a prediction as in a fit."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "linear":
            K = A @ B.T
        elif spec.kind == "polynomial":
            K = (spec.gamma * (A @ B.T) + spec.coef0) ** spec.degree
        else:
            sq = (np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :]
                  - 2.0 * A @ B.T)
            K = np.exp(-spec.gamma * np.maximum(sq, 0.0))
    if not np.isfinite(K).all():
        raise ValueError(f"the {spec.kind} kernel matrix has non-finite "
                         f"entries (gamma {spec.gamma:g})")
    return K


@dataclass(frozen=True, eq=False)
class SvrModel(FittedRecord):
    support_rows: np.ndarray  # all training rows; zero-coef rows are non-SVs
    dual_coef: np.ndarray  # alpha_i - alpha*_i per row
    bias: float
    kernel: KernelSpec  # resolved at fit time: its gamma is set
    converged: bool
    n_updates: int

    @property
    def n_features(self) -> int:
        return self.support_rows.shape[1]

    def predict(self, X) -> np.ndarray:
        """sum_i (alpha_i - alpha*_i) K(x_i, x) + b.

        Rows go through the kernel in blocks of about PREDICT_BLOCK_CELLS
        kernel entries, so a large X keeps its kernel temporaries
        cache-sized instead of rows x support rows at once."""
        X = feature_rows(X, self.n_features)
        # whole groups of 4 rows: BLAS matrix-vector kernels round rows in
        # groups of 4, so aligned blocks keep a row's bits in most cases
        step = max(4, PREDICT_BLOCK_CELLS // self.support_rows.shape[0] // 4 * 4)
        out = np.empty(X.shape[0])
        for lo in range(0, X.shape[0], step):
            K = kernel_matrix(self.kernel, X[lo:lo + step], self.support_rows)
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

    kernel = kernel.resolve(X)
    K = kernel_matrix(kernel, X, X)
    # row t of the doubled problem maps to row t mod n of K; cols[ii] is
    # column ii of that doubled matrix, stored contiguously
    cols = list(np.ascontiguousarray(np.vstack([K, K]).T))
    diag = K.diagonal().tolist()
    cap = MAX_PAIR_UPDATES
    Cf = float(C)
    subtract, multiply, add = np.subtract, np.multiply, np.add

    z = [0.0] * (2 * n)
    # row 0: -s*grad on I_up (alpha at z = 0), row 1: s*grad on I_low
    # (alpha*), -inf off each set; up and low say which rows hold entry t
    sides = np.full((2, 2 * n), -np.inf)
    sides[0, :n] = -(epsilon - y)
    sides[1, n:] = -(epsilon + y)
    up_row, low_row = sides
    up, low = [True] * n + [False] * n, [False] * n + [True] * n
    step = np.empty(2 * n)
    scalar = np.zeros(())  # delta as a float64 operand

    converged = False
    updates = 0
    m = M = 0.0
    while True:
        i, j = sides.argmax(1).tolist()
        m, M = up_row.item(i), -low_row.item(j)
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
            u, lo = (zt < Cf, zt > 0.0) if t < n else (zt > 0.0, zt < Cf)
            if u != up[t] or lo != low[t]:
                # t changed sets: its value, from a row that held it
                v = up_row.item(t) if up[t] else -low_row.item(t)
                up_row[t] = v if u else -np.inf
                low_row[t] = -v if lo else -np.inf
                up[t], low[t] = u, lo
        scalar[()] = delta
        multiply(subtract(cols[ii], cols[jj], step), scalar, step)
        subtract(up_row, step, up_row)
        add(low_row, step, low_row)
        updates += 1
        if monitor is not None:
            za = np.array(z)
            monitor(za, za[:n] - za[n:])

    z = np.array(z)
    beta = z[:n] - z[n:]
    free = (z > 1e-9 * C) & (z < C * (1 - 1e-9))
    if free.any():  # free entries lie in I_up
        bias = float(up_row[free].mean())
    else:
        bias = (m + M) / 2.0
    # + 0.0: a zero bias is +0.0, whichever row its zero came from
    return SvrModel(X, beta, bias + 0.0, kernel, converged, updates)
