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
  * tree_shap - leaf-wise interventional TreeSHAP (Lundberg et al. 2020;
    Laberge & Pequignot 2022) over the leaf-path tables of the trees a
    tree model's `tree_terms()` yields: one array pass scores every
    (query row, background row, leaf) triple of every tree, so
    explain_matrix explains all rows at once and tree_shap is the one-row
    case. Exact, so it must agree with the enumeration engine to float
    precision rather than approximately.

explain_matrix predicts through the model's `.predict(X)`, or calls the
model itself when it is a bare prediction function. A model that carries a
`standardization` (linear and SVR families) is enumerated in its
standardized space: the explained rows and the background are standardized
once, and exact_shapley scores composed rows on the model's copy without
that step. This is exact, not approximate: (z - mean_j) / scale_j acts on
each element of column j alone, so standardizing a composed row equals
composing standardized rows bit for bit, and the two paths feed predict
the same values. The base value and predictions still come from the model
on raw rows.

Attributions plus the base value (mean model output over the background)
always sum to the model's prediction for the explained row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .trees import TreeModel

EXACT_MAX_FEATURES = 15
EFFICIENCY_TOL = 1e-9
CHUNK_ROWS = 2048  # composed rows per exact_shapley predict call
TREE_CHUNK_TRIPLES = 1 << 15  # (query, background, leaf) triples a TreeSHAP pass holds
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
    step = min(max(1, CHUNK_ROWS // B), n)
    # contiguous operands for a full chunk: x on every row and the
    # background once per coalition; np.where on them runs about twice as
    # fast as on broadcast views
    x_rows = np.tile(x, (step * B, 1))
    back_rows = np.tile(background.rows, (step, 1))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        size = (hi - lo) * B
        mask = np.repeat(inside[lo:hi], B, axis=0)
        composed = np.where(mask, x_rows[:size], back_rows[:size])
        preds = np.asarray(predict(composed))
        # .mean(axis=1) is this sum divided by B, less its Python overhead
        v[lo:hi] = np.add.reduce(preds.reshape(hi - lo, B), axis=1) / B

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
    by_feature[r, l, k] is set on the first step of each feature of leaf
    l's path when row r is off at any step on that feature. keys pack the
    per-step off flags, and feature_keys the by_feature flags, as base-4
    digits into int64 words, _KEY_DIGITS steps a word, earlier steps more
    significant, so any depth fits. inside[r, l]: row r reaches leaf l."""

    def __init__(self, Z, paths):
        depth = paths.feature.shape[1]
        off = (Z[:, paths.feature] <= paths.threshold) != paths.go_left
        by_feature = off
        first = paths.first
        repeats = np.nonzero(first != np.arange(depth))
        if repeats[0].size:
            by_feature = off.copy()
            leaves, steps = repeats
            for k in np.unique(steps):
                ls = leaves[steps == k]
                by_feature[:, ls, first[ls, k]] |= off[:, ls, k]
                by_feature[:, ls, k] = False
        self.by_feature = by_feature
        self.keys = _key_words(off)
        self.feature_keys = _key_words(by_feature)
        self.inside = ~off.any(axis=2)


def _key_words(bits: np.ndarray) -> list[np.ndarray]:
    """(rows, leaves, depth) flags -> one (rows, leaves) int64 word per
    _KEY_DIGITS steps, each flag a base-4 digit, earlier steps higher."""
    depth = bits.shape[2]
    words = []
    for lo in range(0, depth, _KEY_DIGITS):
        hi = min(lo + _KEY_DIGITS, depth)
        place = 4 ** np.arange(_KEY_DIGITS - 1, _KEY_DIGITS - 1 - (hi - lo), -1,
                               dtype=np.int64)
        words.append(bits[:, :, lo:hi] @ place)
    return words


def _tree_shap_matrix(model, X: np.ndarray,
                      background: BackgroundSet) -> np.ndarray:
    """Interventional TreeSHAP for every row of X at once.

    At each step of a leaf's path a (query row, background row) pair has a
    digit: 0 when both rows follow the step, 1 when only the query row does
    (the step's feature joins U), 2 when only the background row does (it
    joins V). The pair reaches the leaf when every step has a digit and U
    and V are disjoint, and it adds to phi when U and V are not both empty.
    Pairs of one query row and tree with the same digit string (hence the
    same leaf) form a group of `count` background rows. With
    w = scale * value * count / B, the group adds w * pos[u][v] to phi_i for
    i in U and subtracts w * neg[u][v] for i in V. Each phi[row, i] sums its
    terms strictly in order from 0.0: trees in tree_terms order, then groups
    in lexicographic digit-string order. That is the visit order of a
    depth-first recursion that takes the query row's side first, so the
    result equals that recursion bit for bit.

    Background rows meet the paths once; query rows go through in chunks of
    about TREE_CHUNK_TRIPLES (query, background, leaf) triples, at least one
    row a chunk."""
    n_rows, p = X.shape
    if background.n_features != p:
        raise ValueError("background feature count mismatch")
    B = background.size
    phi = np.zeros((n_rows, p))
    ensemble = model._leaf_paths
    if ensemble is None or ensemble[0].feature.shape[1] == 0:
        return phi  # no trees, or only single-leaf trees: no path to split
    paths, tree_of, weight = ensemble
    n_leaves = len(weight)
    pos, neg = _uv_tables(p)
    back = _PathSide(background.rows, paths)
    back_keys = [w.T for w in back.keys]  # (leaves, B)
    back_feature_keys = [w.T[None] for w in back.feature_keys]
    back_inside = back.inside.T[None]
    step = max(1, TREE_CHUNK_TRIPLES // (B * n_leaves))
    for lo in range(0, n_rows, step):
        hi = min(lo + step, n_rows)
        query = _PathSide(X[lo:hi], paths)
        # triples in (row, leaf, background row) order
        ok = ~(query.inside[:, :, None] & back_inside)
        for qw, bw in zip(query.feature_keys, back_feature_keys):
            ok &= (qw[:, :, None] & bw) == 0
        triples = np.flatnonzero(ok)
        if triples.size == 0:
            continue
        q, rest = np.divmod(triples, n_leaves * B)
        leaf, b = np.divmod(rest, B)
        keys = [2 * qw[q, leaf] + bw[leaf, b]
                for qw, bw in zip(query.keys, back_keys)]
        tree = tree_of[leaf]
        order = np.lexsort(keys[::-1] + [tree, q])
        new = np.zeros(order.size, dtype=bool)
        new[0] = True
        for key in [q, tree] + keys:
            new[1:] |= key[order[1:]] != key[order[:-1]]
        starts = np.flatnonzero(new)
        count = np.diff(np.append(starts, order.size))
        first = order[starts]
        gq, gleaf = q[first], leaf[first]
        in_u = back.by_feature[b[first], gleaf]
        in_v = query.by_feature[gq, gleaf]
        u = in_u.sum(axis=1)
        v = in_v.sum(axis=1)
        w = weight[gleaf] * count / B
        plus = w * pos[u, v]
        minus = -(w * neg[u, v])
        g, k = np.nonzero(in_u | in_v)
        term = np.where(in_u[g, k], plus[g], minus[g])
        seg = gq[g] * p + paths.feature[gleaf[g], k]
        by_seg = np.argsort(seg, kind="stable")
        seg = seg[by_seg]
        seg_start = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
        rank = np.arange(seg.size) - np.repeat(
            seg_start, np.diff(np.append(seg_start, seg.size)))
        acc = np.zeros((int(rank.max()) + 2, (hi - lo) * p))
        acc[rank + 1, seg] = term[by_seg]
        phi[lo:hi] = np.cumsum(acc, axis=0)[-1].reshape(hi - lo, p)
    return phi


def tree_shap(model, x, background: BackgroundSet) -> np.ndarray:
    """Exact interventional Shapley values for a tree, forest, or boosted
    ensemble; per-tree attributions combine linearly, each tree weighted by
    the scale the model's `tree_terms()` pairs it with."""
    if not isinstance(model, TreeModel):
        raise TypeError(f"not a tree model: {type(model).__name__}")
    x = np.asarray(x, dtype=float).ravel()
    return _tree_shap_matrix(model, x[None], background)[0]


def explain_matrix(model, rows, background: BackgroundSet) -> ShapMatrix:
    """Per-row attributions: tree models use the traversal engine, everything
    else the exact enumeration engine. `model` is any object with
    `.predict(X)` or a bare prediction function."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError("rows must be a nonempty 2-d array")
    predict = getattr(model, "predict", model)
    base = float(np.mean(predict(np.array(background.rows))))
    if isinstance(model, TreeModel):
        phi = _tree_shap_matrix(model, rows, background)
    else:
        inner, space, back = predict, rows, background
        stats = getattr(model, "standardization", None)
        if stats is not None:
            # enumerate in the model's standardized space: transform works
            # per element, so it commutes with composing rows bit for bit
            inner = replace(model, standardization=None).predict
            space = stats.transform(rows)
            back = BackgroundSet(stats.transform(background.rows))
        phi = np.stack([exact_shapley(inner, r, back) for r in space])
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
