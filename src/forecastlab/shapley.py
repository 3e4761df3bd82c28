"""Shapley attributions under the interventional (marginal) value function.

The coalition value of a feature subset S for a query row x is

    v(S) = (1/B) * sum_b f(compose(x, b, S))

where compose takes x's values on S and background row b's values
elsewhere. Two engines compute the same quantity:

  * exact_shapley - enumerates all 2^p coalitions; valid for any
    row-wise predictor; guarded at p <= 15. Its predict calls walk blocks
    of coalitions in Gray-code order, each rewriting one column, so
    `predict` must score every row independently of its batch.
  * tree_shap - leaf-wise interventional TreeSHAP (Lundberg et al. 2020;
    Laberge & Pequignot 2022) over the leaf-path tables of the trees a
    tree model's `tree_terms()` yields. Background rows that leave a leaf's
    path at the same steps give the same terms, so one array pass scores
    every (query row, leaf, background group) triple, weighted by the
    group's row count; one bincount adds each phi entry's terms to +0.0 in
    the recursion's order, and such a sum is never -0.0. tree_shap_matrix
    explains all rows at once and tree_shap is the one-row case. Exact, so
    it must agree with the enumeration engine to float precision.

explain_matrix predicts through the model's `.predict(X)`, or calls a bare
prediction function. A model with an `attributions(rows, background)` method
picks its own engine (tree models run TreeSHAP); any other is enumerated.

Attributions plus the base value (mean model output over the background)
always sum to the model's prediction for the explained row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

EXACT_MAX_FEATURES = 15
EFFICIENCY_TOL = 1e-9
CHUNK_ROWS = 4096  # cap on composed rows per exact_shapley predict call
TREE_CHUNK_TRIPLES = 1 << 15  # (query row, leaf, background group) triples a chunk holds
_KEY_DIGITS = 31  # base-4 path digits per int64 group key word


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
    row, not on the other rows in the call. Each call scores B composed
    rows for each of `slots` coalitions (the largest power of two <=
    max(1, CHUNK_ROWS // B), at most 2^p), one per pattern of the top
    log2(slots) features; the calls walk the rest in reflected Gray-code
    order, rewriting one column each. v(S) sums S's B outputs in background
    order and divides by B, and phi_i adds its terms in ascending coalition
    order one at a time, so phi matches a per-coalition loop bit for bit
    whenever `predict`'s per-row output does not depend on the batch."""
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

    v = np.empty(1 << p)
    H = min(max(1, CHUNK_ROWS // B).bit_length() - 1, p)
    high = np.arange(1 << H) << (p - H)
    buf = np.empty((1 << H, B, p))  # C order: the reshape below is a view
    np.copyto(buf, np.where(inside[high][:, None, :], x, background.rows))
    low = 0
    for g in range(1 << (p - H)):
        if g:  # step g flips feature ctz(g)
            j = (g & -g).bit_length() - 1
            low ^= 1 << j
            buf[:, :, j] = x[j] if low >> j & 1 else background.rows[:, j]
        preds = np.asarray(predict(buf.reshape(-1, p)))
        v[high | low] = np.add.reduce(preds.reshape(len(high), B), axis=1) / B

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


class _PathSide:
    """How a set of rows (query or background) meets every leaf path.

    A row is off a path at step k when it goes the other way there.
    by_feature[r, l, k] is set on the first step of each feature of leaf l's
    path (`repeats`: _repeated_steps(paths)) when row r is off at any step
    on that feature. keys pack the per-step off flags, and feature_keys the
    by_feature flags, as base-4 digits into int64 words, _KEY_DIGITS steps a
    word, earlier steps more significant, so any depth fits. inside[r, l]:
    row r reaches leaf l."""

    def __init__(self, Z, paths, repeats):
        off = (Z[:, paths.feature] <= paths.threshold) != paths.go_left
        by_feature = off.copy() if repeats else off
        for k, leaves, first in repeats:
            by_feature[:, leaves, first] |= off[:, leaves, k]
            by_feature[:, leaves, k] = False
        self.by_feature = by_feature
        self.keys = _key_words(off)
        self.feature_keys = _key_words(by_feature)
        self.inside = ~off.any(axis=2)


def _repeated_steps(paths) -> list[tuple]:
    """(k, leaves, their first step on k's feature) per step k that retests."""
    leaves, steps = np.nonzero(paths.first != np.arange(paths.first.shape[1]))
    return [(k, ls, paths.first[ls, k])
            for k in np.unique(steps).tolist() for ls in [leaves[steps == k]]]


def _key_words(bits: np.ndarray) -> list[np.ndarray]:
    """(rows, leaves, depth) flags -> one (rows, leaves) int64 word per
    _KEY_DIGITS steps, each flag a base-4 digit, earlier steps higher; one
    step at a time, so the block is never copied to int64 as a whole."""
    depth = bits.shape[2]
    words = []
    for lo in range(0, depth, _KEY_DIGITS):
        word = np.zeros(bits.shape[:2], dtype=np.int64)
        for k in range(lo, min(lo + _KEY_DIGITS, depth)):
            word |= np.left_shift(bits[:, :, k], 2 * (lo + _KEY_DIGITS - 1 - k),
                                  dtype=np.int64)
        words.append(word)
    return words


def _background_groups(back: _PathSide):
    """Each leaf's background rows (`back`) grouped by their keys words, with
    one lexsort over leaf and key words: per group its leaf, row count, and
    keys, feature_keys, inside and by_feature, the same for all its rows."""
    B, n_leaves = back.inside.shape
    keys = [w.T.ravel() for w in back.keys]  # (leaf, row) pairs, leaf-major
    leaf = np.repeat(np.arange(n_leaves), B)
    order = np.lexsort(keys[::-1] + [leaf])
    changed = np.diff([key[order] for key in [leaf] + keys], axis=1).any(axis=0)
    starts = np.flatnonzero(np.r_[True, changed])  # where the leaf or a word changes
    leaf, row = np.divmod(order[starts], B)
    return (leaf, np.diff(np.append(starts, order.size)),
            [w[row, leaf] for w in back.keys],
            [w[row, leaf] for w in back.feature_keys],
            back.inside[row, leaf], back.by_feature[row, leaf])


def tree_shap_matrix(model, X: np.ndarray, background: BackgroundSet) -> np.ndarray:
    """Interventional TreeSHAP for every row of X at once.

    At each step of a leaf's path a (query row, background row) pair has a
    digit: 0 when both rows follow the step, 1 when only the query row does
    (the step's feature joins U), 2 when only the background row does (it
    joins V). The pair reaches the leaf when every step has a digit and U
    and V are disjoint, and it adds to phi when U and V are not both empty.
    A digit string is twice the query row's off-pattern plus the background
    row's, so the pairs of one query row and tree with one digit string
    (hence one leaf) are that row and a group of `count` background rows of
    one leaf and off-pattern; the groups are found once a call. With
    w = scale * value * count / B, the group adds w * pos[u][v] to phi_i for
    i in U and subtracts w * neg[u][v] for i in V. bincount adds each
    phi[row, i]'s terms strictly in order to 0.0 (a sum from +0.0 is never
    -0.0, so +0.0 terms change nothing): trees in tree_terms order, then
    groups in lexicographic digit-string order. That is the visit order of
    a depth-first recursion that takes the query row's side first, so the
    result equals that recursion bit for bit. Query rows go through in
    chunks of about TREE_CHUNK_TRIPLES triples, at least one row a chunk."""
    n_rows, p = X.shape
    if background.n_features != p:
        raise ValueError("background feature count mismatch")
    B = background.size
    phi = np.zeros((n_rows, p))
    ensemble = model._leaf_paths
    if ensemble is None or ensemble[0].feature.shape[1] == 0:
        return phi  # no trees, or only single-leaf trees: no path to split
    paths, tree_of, weight = ensemble
    pos, neg = _uv_tables(p)
    repeats = _repeated_steps(paths)
    g_leaf, count, g_keys, g_feature_keys, g_inside, g_in_u = \
        _background_groups(_PathSide(background.rows, paths, repeats))
    g_u = g_in_u.sum(axis=1)

    def chunk_phi(rows):
        # (query row, group) pairs, row-major; a chunk's arrays die with the call
        query = _PathSide(rows, paths, repeats)
        ok = ~(query.inside[:, g_leaf] & g_inside)
        for qw, gw in zip(query.feature_keys, g_feature_keys):
            ok &= (qw[:, g_leaf] & gw) == 0
        q, g = np.divmod(np.flatnonzero(ok), len(count))
        leaf = g_leaf[g]
        keys = [2 * qw[q, leaf] + gw[g] for qw, gw in zip(query.keys, g_keys)]
        order = np.lexsort(keys[::-1] + [tree_of[leaf], q])
        q, g, leaf = q[order], g[order], leaf[order]
        in_u, in_v = g_in_u[g], query.by_feature[q, leaf]
        u, v = g_u[g], query.by_feature.sum(axis=2)[q, leaf]
        w = weight[leaf] * count[g] / B
        plus, minus = w * pos[u, v], -(w * neg[u, v])
        e, k = np.nonzero(in_u | in_v)
        term = np.where(in_u[e, k], plus[e], minus[e])
        seg = q[e] * p + paths.feature[leaf[e], k]
        return np.bincount(seg, weights=term, minlength=len(rows) * p)

    step = max(1, TREE_CHUNK_TRIPLES // len(count))
    for lo in range(0, n_rows, step):
        phi[lo:lo + step] = chunk_phi(X[lo:lo + step]).reshape(-1, p)
    return phi


def tree_shap(model, x, background: BackgroundSet) -> np.ndarray:
    """Exact interventional Shapley values for a tree, forest, or boosted
    ensemble; per-tree attributions combine linearly, each tree weighted by
    the scale the model's `tree_terms()` pairs it with."""
    if not hasattr(model, "tree_terms"):
        raise TypeError(f"not a tree model: {type(model).__name__}")
    x = np.asarray(x, dtype=float).ravel()
    return tree_shap_matrix(model, x[None], background)[0]


def attributions(model, rows: np.ndarray, background: BackgroundSet) -> np.ndarray:
    """phi per row from the model's own `attributions(rows, background)`, or
    else by exact enumeration of its `.predict(X)` or bare function."""
    own = getattr(model, "attributions", None)
    if own is not None:
        return own(rows, background)
    predict = getattr(model, "predict", model)
    return np.stack([exact_shapley(predict, r, background) for r in rows])


def explain_matrix(model, rows, background: BackgroundSet) -> ShapMatrix:
    """Per-row attributions from the engine the model picks (`attributions`).
    `model` is any object with `.predict(X)` or a bare prediction function."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError("rows must be a nonempty 2-d array")
    predict = getattr(model, "predict", model)
    base = float(np.mean(predict(np.array(background.rows))))
    return ShapMatrix(base, attributions(model, rows, background), predict(rows))


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
