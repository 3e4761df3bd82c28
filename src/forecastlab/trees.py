"""Regression trees, bagged forests, and second-order gradient boosting.

One split kernel serves both families. Boosting mode scores a split by

    gain = 0.5 * (GL^2/(HL + lam) + GR^2/(HR + lam) - G^2/(H + lam))

with leaf weight -G/(H + lam). Squared loss makes every hessian 1, so H
is a node's row count. Plain mode is the same kernel run on g = -y,
lam = 0, which makes the gain variance reduction (up to the constant 1/2)
and the leaf the sample mean. Thresholds sit at the midpoint of adjacent
sorted values; ties go to the lowest feature index, then the lowest
threshold, so refits are bit-reproducible.

Split search reads presorted column blocks, the exact greedy layout of
Chen & Guestrin (2016, KDD, sec. 4.1): each tree stable-sorts its columns
once, at the root, and a child's block is its parent's, filtered by the
split, so no node sorts.

A tree is a set of parallel node arrays in preorder (the layout model.json
stores; cover is the row count), and every model here predicts through
`.predict(X)`. TreeSHAP reads one leaf-path table per explained model,
built in one walk of its trees; no tree keeps a table of its own.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import shapley
from .dataset import coerce_fields, finite, integer, optional

_NODE_ARRAYS = (("feature", np.intp), ("threshold", float),
                ("children_left", np.intp), ("children_right", np.intp),
                ("value", float), ("cover", float))


class LeafPaths(NamedTuple):
    """The root-to-leaf paths of a tree model, one row per leaf (trees in
    tree_terms order, each tree's leaves in preorder), padded to the
    deepest path. Step k of leaf l tests `x[feature[l, k]] <= threshold[l, k]`,
    and a row follows the path there when the outcome equals go_left[l, k].
    Padding steps (feature 0, threshold NaN, go_left False) are followed by
    every row, NaN included. first[l, k] is the first step of the path that
    tests the same feature (k itself on first use and on padding)."""

    feature: np.ndarray
    threshold: np.ndarray
    go_left: np.ndarray
    first: np.ndarray


class TreeModel:
    """Base of the tree models: each yields its (tree, scale) pairs through
    `tree_terms()`, and `attributions` runs TreeSHAP on their one leaf-path
    table, `_leaf_paths`."""

    def attributions(self, rows, background) -> np.ndarray:
        return shapley.tree_shap_matrix(self, rows, background)

    @cached_property
    def _leaf_paths(self) -> tuple[LeafPaths, np.ndarray, np.ndarray] | None:
        """Every leaf path of tree_terms(), with each leaf's term index and
        scale * value; None without trees. Built in one walk of each tree on
        first use, so only explained models pay for it."""
        terms = list(self.tree_terms())
        if not terms:
            return None
        tree_of, weight = [], []
        leaf, step, feature, threshold, go_left, first = [], [], [], [], [], []
        for t, (tree, scale) in enumerate(terms):
            feat = tree.feature.tolist()
            thresh = tree.threshold.tolist()
            left = tree.children_left.tolist()
            right = tree.children_right.tolist()
            value = tree.value.tolist()
            stack = [(0, ())]
            while stack:
                node, path = stack.pop()
                f = feat[node]
                if f >= 0:  # right pushed first: leaves come out in preorder
                    thr = thresh[node]
                    stack.append((right[node], path + ((f, thr, False),)))
                    stack.append((left[node], path + ((f, thr, True),)))
                    continue
                seen = {}
                for k, (f, thr, go) in enumerate(path):
                    leaf.append(len(weight))
                    step.append(k)
                    feature.append(f)
                    threshold.append(thr)
                    go_left.append(go)
                    first.append(seen.setdefault(f, k))
                tree_of.append(t)
                weight.append(scale * value[node])
        shape = (len(weight), max(step, default=-1) + 1)
        paths = LeafPaths(np.zeros(shape, dtype=np.intp),
                          np.full(shape, math.nan),
                          np.zeros(shape, dtype=bool),
                          np.tile(np.arange(shape[1], dtype=np.intp),
                                  (shape[0], 1)))
        at = (np.array(leaf, dtype=np.intp), np.array(step, dtype=np.intp))
        for arr, values in zip(paths, (feature, threshold, go_left, first)):
            arr[at] = values
        tree_of = np.array(tree_of, dtype=np.intp)
        weight = np.array(weight)
        for arr in (*paths, tree_of, weight):
            arr.flags.writeable = False
        return paths, tree_of, weight


@dataclass(frozen=True, eq=False)
class Tree(TreeModel):
    """Node i splits on feature[i] (rows with x <= threshold[i] go to
    children_left[i]) or is a leaf (feature == -1, children -1) predicting
    value[i]. cover is the number of rows that reached the node (its
    hessian sum); node 0 is the root and every node precedes its children."""

    feature: np.ndarray
    threshold: np.ndarray
    children_left: np.ndarray
    children_right: np.ndarray
    value: np.ndarray
    cover: np.ndarray

    def __post_init__(self):
        for name, dtype in _NODE_ARRAYS:
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @cached_property
    def _routing(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(left, right, depth) for predict_tree: the child arrays with each
        leaf pointing at itself, so every row can take `depth` steps."""
        left = self.children_left.tolist()
        right = self.children_right.tolist()
        depth, level = 0, [0]
        while level := [c for i in level for c in (left[i], right[i]) if c >= 0]:
            depth += 1
        leaf = self.feature < 0
        index = np.arange(len(leaf))
        return (np.where(leaf, index, self.children_left),
                np.where(leaf, index, self.children_right), depth)

    def predict(self, X) -> np.ndarray:
        return predict_tree(self, _as_rows(X, 0))

    def tree_terms(self):
        return ((self, 1.0),)

    def to_doc(self) -> dict:
        return {"kind": "tree", "tree": _tree_arrays(self)}


@dataclass(frozen=True)
class ForestParams:
    n_estimators: int = 100
    max_depth: int = 6
    max_features: int | None = None  # None: use all columns
    min_samples_leaf: int = 1
    seed: int = 0

    def __post_init__(self):
        coerce_fields(self, n_estimators=integer, max_depth=integer,
                      max_features=optional(integer), min_samples_leaf=integer)
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if self.max_features is not None and self.max_features < 1:
            raise ValueError("max_features must be >= 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")


@dataclass(frozen=True)
class BoostParams:
    learning_rate: float = 0.1
    n_estimators: int = 100
    max_depth: int = 3
    subsample: float = 1.0
    colsample_bytree: float = 1.0
    reg_lambda: float = 1.0
    min_split_gain: float = 0.0
    seed: int = 0

    def __post_init__(self):
        coerce_fields(self, learning_rate=finite, n_estimators=integer,
                      max_depth=integer, subsample=finite, colsample_bytree=finite,
                      reg_lambda=finite, min_split_gain=finite)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        if not 0.0 < self.colsample_bytree <= 1.0:
            raise ValueError("colsample_bytree must be in (0, 1]")
        if self.reg_lambda < 0:
            raise ValueError("reg_lambda must be >= 0")
        if self.min_split_gain < 0:
            raise ValueError("min_split_gain must be >= 0")


@dataclass(frozen=True)
class ForestModel(TreeModel):
    trees: tuple[Tree, ...]
    params: ForestParams
    n_features: int

    def predict(self, X) -> np.ndarray:
        X = _as_rows(X, self.n_features)
        per_tree = np.stack([predict_tree(t, X) for t in self.trees])
        return per_tree.mean(axis=0)

    def tree_terms(self):
        scale = 1.0 / len(self.trees)
        return [(tree, scale) for tree in self.trees]

    def to_doc(self) -> dict:
        return {"kind": "forest", "n_features": self.n_features,
                "trees": [_tree_arrays(t) for t in self.trees]}


@dataclass(frozen=True)
class BoostedModel(TreeModel):
    base_score: float
    learning_rate: float
    trees: tuple[Tree, ...]
    params: BoostParams = field(repr=False, default=None)
    n_features: int = 0

    def predict(self, X) -> np.ndarray:
        X = _as_rows(X, self.n_features)
        out = np.full(X.shape[0], self.base_score)
        for tree in self.trees:
            out += self.learning_rate * predict_tree(tree, X)
        return out

    def tree_terms(self):
        return [(tree, self.learning_rate) for tree in self.trees]

    def to_doc(self) -> dict:
        return {"kind": "boosted", "n_features": self.n_features,
                "base_score": self.base_score,
                "learning_rate": self.learning_rate,
                "trees": [_tree_arrays(t) for t in self.trees]}


def _as_rows(X, n_features: int) -> np.ndarray:
    """2-d float rows; the column count is checked when n_features is set."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-d")
    if n_features and X.shape[1] != n_features:
        raise ValueError(f"expected {n_features} feature columns, got {X.shape[1]}")
    return X


def _tree_rng(seed: int, index: int) -> np.random.Generator:
    # independent per-tree stream: building order never affects the result
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


@lru_cache(maxsize=1024)
def _side_counts(n: int, reg_lambda: float) -> tuple[np.ndarray, np.ndarray]:
    """(hl + lam, n - hl + lam) for the row counts hl = 1..n-1 left of each
    threshold of an n-row node; read-only, as every such node shares them."""
    hl = np.arange(1.0, n)
    out = (hl + reg_lambda, n - hl + reg_lambda)
    for arr in out:
        arr.flags.writeable = False
    return out


def _best_split(xs, gs, G, reg_lambda, min_samples_leaf):
    """Exact greedy search over midpoints of presorted columns; returns
    (column position, threshold, gain) or None.

    Row j of xs is one candidate column's values in stable sorted order,
    row j of gs the node's gradients in that order, and G their sum in
    row-index order. Hessians are 1, so the hessian sum left of a threshold
    is its row count. Row j's gains are its cumulative sums, so it equals
    a search over that column alone. The first maximum in row-major order
    wins: the first row holding the overall maximum, at its lowest
    threshold. A gain is NaN only when gs holds NaN or the parent score
    overflows; then the first NaN is that maximum, and there is no split."""
    n = xs.shape[1]
    gl = gs[:, :-1].cumsum(axis=1)
    left, right = _side_counts(n, reg_lambda)
    invalid = xs[:, 1:] == xs[:, :-1]
    if min_samples_leaf > 1:  # a side would hold fewer rows
        invalid[:, :min_samples_leaf - 1] = True
        invalid[:, n - min_samples_leaf:] = True
    gains = 0.5 * (gl * gl / left + (G - gl) ** 2 / right
                   - G * G / (n + reg_lambda))
    np.putmask(gains, invalid, -math.inf)
    j, k = divmod(int(gains.argmax()), n - 1)
    best = gains[j, k]
    if not best > -math.inf:
        return None
    return j, float((xs[j, k] + xs[j, k + 1]) / 2.0), float(best)


def fit_regression_tree(X, y=None, gradients=None, *, max_depth=6,
                        min_samples_leaf=1, reg_lambda=0.0,
                        min_split_gain=0.0, max_features=None,
                        rng=None) -> Tree:
    """Grow one tree. Pass y for plain mode (mean leaves, variance gain) or
    gradients for boosting mode (leaf weight -G/(n+lam)); squared loss
    makes every hessian 1.

    Each column is stable-sorted once, at the root. A node's rows are
    ascending, and row c of its (p, rows) block holds the same rows in
    column c's sorted order. A child's block is its parent's, each row
    filtered by the split mask: a stable partition, so it is what a stable
    sort of the child's rows would give. Nodes pop from one preorder stack
    of (rows, parent block, split mask, depth, the node whose right child
    this is), so only a node that may split filters its block; the root's
    entry holds its own block and the mask slice(None). Nodes push their
    right child first, so they are numbered, and draw max_features
    columns, in preorder: a split node's left child is the next node."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("X must be a nonempty 2-d array")
    if y is not None:
        g = -np.asarray(y, dtype=float)
        reg_lambda = 0.0
    elif gradients is None:
        raise ValueError("provide y or gradients")
    else:
        g = np.asarray(gradients, dtype=float)
    if len(g) != X.shape[0]:
        raise ValueError("row count mismatch")
    if rng is None:
        rng = np.random.default_rng(0)
    p = X.shape[1]
    draw = max_features is not None and max_features < p
    feats = np.arange(p)
    XT = X.T.copy()
    min_rows = max(2, 2 * min_samples_leaf)
    nodes = []  # [feature, threshold, left, right, value, cover] rows
    stack = [(np.arange(len(g)), XT.argsort(axis=1, kind="stable"),
              slice(None), 0, None)]
    while stack:
        rows, blk, keep, depth, right_of = stack.pop()
        if right_of is not None:
            right_of[3] = len(nodes)
        n = len(rows)
        G = np.add.reduce(g[rows])  # in row order: a sorted sum has other bits
        node = [-1, 0.0, -1, -1, float(-G / (n + reg_lambda)), float(n)]
        nodes.append(node)
        if depth >= max_depth or n < min_rows:
            continue
        blk = blk[keep].reshape(p, n)
        if draw:
            feats = rng.choice(p, size=max_features, replace=False)
            feats.sort()
            cand = blk[feats]
        else:
            cand = blk
        found = _best_split(XT[feats[:, None], cand], g[cand], G, reg_lambda,
                            min_samples_leaf)
        # relative epsilon keeps float noise on constant targets from splitting
        floor = min_split_gain + 1e-12 * (1.0 + abs(G * G / (n + reg_lambda)))
        if found is None or found[2] <= floor:
            continue
        j, threshold, _ = found
        node[:3] = feats[j], threshold, len(nodes)
        x = XT[feats[j]]
        left = x[rows] <= threshold
        go = x[blk] <= threshold
        stack.append((rows[~left], blk, ~go, depth + 1, node))
        stack.append((rows[left], blk, go, depth + 1, None))
    return Tree(*zip(*nodes))


def predict_tree(tree: Tree, X) -> np.ndarray:
    """Route all rows at once, one vectorised step per tree level; a row
    goes left when x <= threshold. Rows already at a leaf compare against
    the leaf's placeholder split (the last column, threshold 0) and stay."""
    X = np.asarray(X, dtype=float)
    left, right, depth = tree._routing
    rows = np.arange(X.shape[0])
    node = np.zeros(X.shape[0], dtype=np.intp)
    for _ in range(depth):
        node = np.where(X[rows, tree.feature[node]] <= tree.threshold[node],
                        left[node], right[node])
    return tree.value[node]


def fit_random_forest(X, y, params: ForestParams) -> ForestModel:
    """Bagged plain trees: size-n bootstrap per tree, features sampled per split."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if params.max_features is not None and params.max_features > p:
        raise ValueError(f"max_features {params.max_features} > {p} columns")
    trees = []
    for t in range(params.n_estimators):
        rng = _tree_rng(params.seed, t)
        idx = rng.integers(0, n, size=n)
        trees.append(fit_regression_tree(
            X[idx], y[idx], max_depth=params.max_depth,
            min_samples_leaf=params.min_samples_leaf,
            max_features=params.max_features, rng=rng))
    return ForestModel(tuple(trees), params, p)


def fit_gradient_boosting(X, y, params: BoostParams) -> BoostedModel:
    """Squared-loss boosting: g = yhat - y, h = 1, sequential rounds. A
    column-subsampled round grows on its column slice and then maps the
    slice's feature ids back to global column ids."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    base = float(y.mean())
    yhat = np.full(n, base)
    trees = []
    for t in range(params.n_estimators):
        rng = _tree_rng(params.seed, t)
        rows = np.arange(n)
        if params.subsample < 1.0:
            k = max(1, int(round(params.subsample * n)))
            rows = np.sort(rng.choice(n, size=k, replace=False))
        cols = np.arange(p)
        if params.colsample_bytree < 1.0:
            k = max(1, int(round(params.colsample_bytree * p)))
            cols = np.sort(rng.choice(p, size=k, replace=False))
        tree = fit_regression_tree(
            X[np.ix_(rows, cols)], gradients=yhat[rows] - y[rows],
            max_depth=params.max_depth, reg_lambda=params.reg_lambda,
            min_split_gain=params.min_split_gain, rng=rng)
        tree = replace(tree, feature=np.where(tree.feature >= 0,
                                              cols[tree.feature], -1))
        trees.append(tree)
        yhat += params.learning_rate * predict_tree(tree, X)
    return BoostedModel(base, params.learning_rate, tuple(trees), params, p)


# --- JSON serialization: flat node arrays per tree --------------------------

def _tree_arrays(tree: Tree) -> dict:
    return {name: getattr(tree, name).tolist() for name, _ in _NODE_ARRAYS}


def model_to_json(model) -> str:
    return json.dumps(model.to_doc())


def model_from_json(text: str):
    doc = json.loads(text)
    kind = doc.get("kind")
    if kind == "tree":
        return Tree(**doc["tree"])
    trees = tuple(Tree(**t) for t in doc.get("trees", ()))
    if kind == "forest":
        return ForestModel(trees, ForestParams(n_estimators=len(trees)),
                           doc.get("n_features", 0))
    if kind == "boosted":
        return BoostedModel(doc["base_score"], doc["learning_rate"], trees,
                            None, doc.get("n_features", 0))
    raise ValueError(f"unknown model document kind {kind!r}")
