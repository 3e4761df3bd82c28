"""Shapley attributions under the interventional (marginal) value function.

The coalition value of a feature subset S for a query row x is

    v(S) = (1/B) * sum_b f(compose(x, b, S))

where compose takes x's values on S and background row b's values
elsewhere. Two engines compute the same quantity:

  * exact_shapley - enumerates all 2^p coalitions; valid for any
    row-wise predictor; guarded at p <= 15. Coalitions are evaluated in
    chunks: each chunk's composed rows (about CHUNK_ROWS of them) go
    through one predict call, so `predict` must score every row
    independently of the others in its batch.
  * tree_shap - per-background-row path decomposition over the flat node
    arrays of each (tree, scale) pair a tree model's `tree_terms()`
    yields; exact, so it must agree with the enumeration engine to float
    precision rather than approximately.

explain_matrix predicts through the model's `.predict(X)`, or calls the
model itself when it is a bare prediction function.

Attributions plus the base value (mean model output over the background)
always sum to the model's prediction for the explained row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .trees import Tree

EXACT_MAX_FEATURES = 15
EFFICIENCY_TOL = 1e-9
CHUNK_ROWS = 2048  # composed rows per exact_shapley predict call


@dataclass(frozen=True)
class BackgroundSet:
    """Reference rows whose values stand in for absent features."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise ValueError("background must be a nonempty 2-d array")
        rows = rows.copy()
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return self.rows.shape[0]

    @property
    def n_features(self) -> int:
        return self.rows.shape[1]

    @classmethod
    def from_training(cls, X, cap: int = 100, seed: int = 0) -> "BackgroundSet":
        """Full training set, uniformly subsampled (seeded) above `cap` rows."""
        X = np.asarray(X, dtype=float)
        if cap is not None and X.shape[0] > cap:
            rng = np.random.default_rng(seed)
            idx = np.sort(rng.choice(X.shape[0], size=cap, replace=False))
            X = X[idx]
        return cls(X)


@dataclass(frozen=True)
class ShapMatrix:
    base_value: float
    phi: np.ndarray  # (rows, features)
    predictions: np.ndarray  # model output per explained row

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        pred = np.asarray(self.predictions, dtype=float)
        gap = np.abs(self.base_value + phi.sum(axis=1) - pred)
        if gap.size and gap.max() > EFFICIENCY_TOL:
            raise ValueError(f"efficiency violated by {gap.max():.3g}")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "predictions", pred)

    @property
    def n_rows(self) -> int:
        return self.phi.shape[0]

    @property
    def n_features(self) -> int:
        return self.phi.shape[1]


def _coalition_weights(p: int) -> np.ndarray:
    """w[s] = s! (p-s-1)! / p! for coalition size s."""
    fact = [math.factorial(k) for k in range(p + 1)]
    return np.array([fact[s] * fact[p - s - 1] / fact[p] for s in range(p)])


@lru_cache(maxsize=None)
def _coalition_table(p: int) -> tuple[np.ndarray, np.ndarray]:
    """inside[mask, j] is True when feature j is in coalition `mask`;
    sizes[mask] is the coalition's feature count. Both read-only."""
    inside = (np.arange(1 << p)[:, None] >> np.arange(p)) & 1 == 1
    sizes = inside.sum(axis=1)
    inside.flags.writeable = False
    sizes.flags.writeable = False
    return inside, sizes


def exact_shapley(predict, x, background: BackgroundSet) -> np.ndarray:
    """Brute-force Shapley values by full coalition enumeration.

    `predict` must be row-wise: each output depends only on its own input
    row, not on the other rows in the call. The 2^p coalitions are
    evaluated in chunks of max(1, CHUNK_ROWS // B), each chunk's composed
    rows in one predict call, and v(S) is each coalition's mean over its B
    rows. phi_i adds its terms in ascending coalition order, one at a
    time, so the result matches a per-coalition loop bit for bit whenever
    `predict`'s per-row output does not depend on the batch size.
    """
    x = np.asarray(x, dtype=float).ravel()
    p = x.shape[0]
    if p > EXACT_MAX_FEATURES:
        raise ValueError(f"exact enumeration capped at {EXACT_MAX_FEATURES} "
                         f"features, got {p}")
    if background.n_features != p:
        raise ValueError("background feature count mismatch")
    B = background.size
    w = _coalition_weights(p)
    inside, sizes = _coalition_table(p)

    n = 1 << p
    v = np.empty(n)
    step = max(1, CHUNK_ROWS // B)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        composed = np.where(inside[lo:hi, None, :], x, background.rows)
        preds = np.asarray(predict(composed.reshape((hi - lo) * B, p)))
        v[lo:hi] = preds.reshape(hi - lo, B).mean(axis=1)

    phi = np.empty(p)
    for i in range(p):
        masks = np.flatnonzero(~inside[:, i])
        terms = w[sizes[masks]] * (v[masks | (1 << i)] - v[masks])
        # sequential sum from 0.0, the order of a per-coalition loop
        phi[i] = np.cumsum(np.concatenate(([0.0], terms)))[-1]
    return phi


# --- interventional tree traversal ------------------------------------------

@lru_cache(maxsize=None)
def _uv_tables(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form coalition sums for a path forcing u features to the query
    row and v features to the background row.

    pos[u][v] weights a leaf's value in phi_i for i forced to the query side,
    neg[u][v] for i forced to the background side; both sum the Shapley
    kernel over every coalition consistent with the path.
    """
    w = _coalition_weights(p)
    pos = np.zeros((p + 1, p + 1))
    neg = np.zeros((p + 1, p + 1))
    for u in range(p + 1):
        for v in range(p + 1 - u):
            free = p - u - v
            for k in range(free + 1):
                c = math.comb(free, k)
                if u >= 1:
                    pos[u][v] += c * w[u - 1 + k]
                if u + k < p:
                    neg[u][v] += c * w[u + k]
    return pos, neg


def _tree_phi(tree: Tree, x: np.ndarray, background: np.ndarray,
              phi: np.ndarray, scale: float):
    """Accumulate one tree's attributions for query row x over all background
    rows, batched by shared divergence pattern."""
    p = x.shape[0]
    B = background.shape[0]
    pos, neg = _uv_tables(p)
    # list copies: scalar reads from lists are cheaper than from ndarrays
    feature = tree.feature.tolist()
    threshold = tree.threshold.tolist()
    left = tree.children_left.tolist()
    right = tree.children_right.tolist()
    value = tree.value.tolist()

    def recurse(node: int, rows: np.ndarray, u_feats: list, v_feats: list):
        f = feature[node]
        if f < 0:
            if u_feats or v_feats:
                weight = scale * value[node] * len(rows) / B
                u, v = len(u_feats), len(v_feats)
                for i in u_feats:
                    phi[i] += weight * pos[u][v]
                for i in v_feats:
                    phi[i] -= weight * neg[u][v]
            return
        thr = threshold[node]
        x_left = x[f] <= thr
        z_left = background[rows, f] <= thr
        same = rows[z_left == x_left]
        diff = rows[z_left != x_left]
        x_child, z_child = ((left[node], right[node]) if x_left
                            else (right[node], left[node]))
        if same.size:
            recurse(x_child, same, u_feats, v_feats)
        if diff.size:
            if f in u_feats:
                recurse(x_child, diff, u_feats, v_feats)
            elif f in v_feats:
                recurse(z_child, diff, u_feats, v_feats)
            else:
                recurse(x_child, diff, u_feats + [f], v_feats)
                recurse(z_child, diff, u_feats, v_feats + [f])

    recurse(0, np.arange(B), [], [])


def tree_shap(model, x, background: BackgroundSet) -> np.ndarray:
    """Exact interventional Shapley values for a tree, forest, or boosted
    ensemble; per-tree attributions combine linearly, each tree weighted by
    the scale the model's `tree_terms()` pairs it with."""
    x = np.asarray(x, dtype=float).ravel()
    p = x.shape[0]
    if background.n_features != p:
        raise ValueError("background feature count mismatch")
    if not is_tree_model(model):
        raise TypeError(f"not a tree model: {type(model).__name__}")
    phi = np.zeros(p)
    for tree, scale in model.tree_terms():
        _tree_phi(tree, x, background.rows, phi, scale)
    return phi


def is_tree_model(model) -> bool:
    return hasattr(model, "tree_terms")


def explain_matrix(model, rows, background: BackgroundSet) -> ShapMatrix:
    """Per-row attributions: tree models use the traversal engine, everything
    else the exact enumeration engine. `model` is any object with
    `.predict(X)` or a bare prediction function."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError("rows must be a nonempty 2-d array")
    predict = getattr(model, "predict", model)
    base = float(np.mean(predict(np.array(background.rows))))
    if is_tree_model(model):
        phi = np.stack([tree_shap(model, r, background) for r in rows])
    else:
        phi = np.stack([exact_shapley(predict, r, background) for r in rows])
    return ShapMatrix(base, phi, predict(rows))


def global_importance(m: ShapMatrix, feature_names=None) -> list[tuple[str, float]]:
    """Mean |phi| per feature, ranked descending; ties keep declaration order."""
    if m.n_rows == 0:
        raise ValueError("empty matrix")
    names = (tuple(feature_names) if feature_names is not None
             else tuple(f"x{j}" for j in range(m.n_features)))
    if len(names) != m.n_features:
        raise ValueError("feature name count mismatch")
    imp = np.abs(m.phi).mean(axis=0)
    order = sorted(range(len(names)), key=lambda j: (-imp[j], j))
    return [(names[j], float(imp[j])) for j in order]


def shap_csv_lines(m: ShapMatrix, X, feature_names) -> list[str]:
    """Rows of the export table: row_index,feature,feature_value,shap_value,
    preceded by a base-value header record."""
    X = np.asarray(X, dtype=float)
    names = tuple(feature_names)
    lines = [f"# base_value={float(m.base_value)!r}",
             "row_index,feature,feature_value,shap_value"]
    for r in range(m.n_rows):
        for j, name in enumerate(names):
            lines.append(f"{r},{name},{float(X[r, j])!r},{float(m.phi[r, j])!r}")
    return lines
