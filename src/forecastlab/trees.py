"""Regression trees, bagged forests, and second-order gradient boosting.

One split kernel serves both families. Boosting mode scores a split by

    gain = 0.5 * (GL^2/(HL + lam) + GR^2/(HR + lam) - G^2/(H + lam))

with leaf weight -G/(H + lam). Squared loss makes every hessian 1, so H
is a node's row count. Plain mode is the same kernel run on g = -y,
lam = 0, which makes the gain variance reduction (up to the constant 1/2)
and the leaf the sample mean. Thresholds sit at the midpoint of adjacent
sorted values; ties go to the lowest feature index, then the lowest
threshold, so refits are bit-reproducible.

A tree is a set of parallel node arrays in preorder (the layout model.json
stores; cover is the row count), and every model here predicts through
`.predict(X)`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .dataset import coerce_fields, finite, optional

_NODE_ARRAYS = (("feature", np.intp), ("threshold", float),
                ("children_left", np.intp), ("children_right", np.intp),
                ("value", float), ("cover", float))


class LeafPaths(NamedTuple):
    """A tree's root-to-leaf paths, one row per leaf (in preorder), padded
    to the tree's depth. Step k of leaf l tests
    `x[feature[l, k]] <= threshold[l, k]`, and a row follows the path there
    when the outcome equals go_left[l, k]. Padding steps (feature 0,
    threshold NaN, go_left False) are followed by every row, NaN included.
    first[l, k] is the first step of the path that tests the same feature
    (k itself on first use and on padding)."""

    leaf: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    go_left: np.ndarray
    first: np.ndarray

    @classmethod
    def padding(cls, n_leaves: int, depth: int) -> "LeafPaths":
        """A table of n_leaves paths made of padding steps only."""
        shape = (n_leaves, depth)
        return cls(np.zeros(n_leaves, dtype=np.intp),
                   np.zeros(shape, dtype=np.intp), np.full(shape, math.nan),
                   np.zeros(shape, dtype=bool),
                   np.tile(np.arange(depth, dtype=np.intp), (n_leaves, 1)))

    @classmethod
    def stack(cls, tables) -> "LeafPaths":
        """The tables' leaves in order, every path padded to the deepest."""
        out = cls.padding(sum(len(t.leaf) for t in tables),
                          max(t.feature.shape[1] for t in tables))
        lo = 0
        for t in tables:
            hi, depth = lo + len(t.leaf), t.feature.shape[1]
            out.leaf[lo:hi] = t.leaf
            for dst, src in zip(out[1:], t[1:]):
                dst[lo:hi, :depth] = src
            lo = hi
        return out


class TreeModel:
    """Base of the tree models: each yields its (tree, scale) pairs through
    `tree_terms()`, and TreeSHAP reads them stacked from `_leaf_paths`."""

    @cached_property
    def _leaf_paths(self) -> tuple[LeafPaths, np.ndarray, np.ndarray] | None:
        """Every leaf path of tree_terms(), padded to the deepest tree, with
        each leaf's term index and scale * value; None without trees. Built
        on first use, so only explained models pay for it."""
        terms = list(self.tree_terms())
        if not terms:
            return None
        tables = [tree._paths for tree, _ in terms]
        paths = LeafPaths.stack(tables)
        tree_of = np.repeat(np.arange(len(terms)),
                            [len(t.leaf) for t in tables])
        weight = np.concatenate([scale * tree.value[t.leaf]
                                 for (tree, scale), t in zip(terms, tables)])
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
    def _paths(self) -> LeafPaths:
        """Every leaf's root-to-leaf path, from one walk of the tree."""
        feature = self.feature.tolist()
        threshold = self.threshold.tolist()
        left = self.children_left.tolist()
        right = self.children_right.tolist()
        leaves, paths = [], []
        stack = [(0, ())]
        while stack:
            node, path = stack.pop()
            if feature[node] < 0:
                leaves.append(node)
                paths.append(path)
            else:
                stack.append((right[node], path + ((node, False),)))
                stack.append((left[node], path + ((node, True),)))
        depth = max(map(len, paths))
        at, nodes, go_left, first = [], [], [], []
        for l, path in enumerate(paths):
            seen = {}
            for k, (node, go) in enumerate(path):
                at.append(l * depth + k)
                nodes.append(node)
                go_left.append(go)
                first.append(seen.setdefault(feature[node], k))
        at = np.array(at, dtype=np.intp)
        nodes = np.array(nodes, dtype=np.intp)
        table = LeafPaths.padding(len(leaves), depth)
        table.leaf[:] = leaves
        table.feature.flat[at] = self.feature[nodes]
        table.threshold.flat[at] = self.threshold[nodes]
        table.go_left.flat[at] = go_left
        table.first.flat[at] = first
        for arr in table:
            arr.flags.writeable = False
        return table

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
        coerce_fields(self, n_estimators=int, max_depth=int,
                      max_features=optional(int), min_samples_leaf=int)
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
        coerce_fields(self, learning_rate=finite, n_estimators=int,
                      max_depth=int, subsample=finite, colsample_bytree=finite,
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


def _best_split(cols, g, reg_lambda, min_samples_leaf):
    """Exact greedy search over midpoints of every column of `cols` at once;
    returns (column position, threshold, gain) or None.

    Hessians are 1, so the hessian sum left of a threshold is its row count.
    Each column's gains are its cumulative sums in stable sorted order, so
    column j equals a search over that column alone. Its best threshold is
    its first maximum (the lowest), and the first column holding the overall
    maximum wins. A gain is NaN only when g holds NaN or the parent score
    overflows; then no gain exceeds -inf, and there is no split."""
    n = len(g)
    G = g.sum()
    order = np.argsort(cols, axis=0, kind="stable")
    xs = np.take_along_axis(cols, order, axis=0)
    gl = np.cumsum(g[order], axis=0)[:-1]
    hl = np.arange(1.0, n)[:, None]
    valid = xs[1:] != xs[:-1]
    if min_samples_leaf > 1:
        valid &= (hl >= min_samples_leaf) & (n - hl >= min_samples_leaf)
    gains = 0.5 * (gl * gl / (hl + reg_lambda)
                   + (G - gl) ** 2 / (n - hl + reg_lambda)
                   - G * G / (n + reg_lambda))
    gains[~valid] = -math.inf
    column_best = gains.max(axis=0)
    j = int(np.argmax(column_best))
    if not column_best[j] > -math.inf:
        return None
    k = int(np.argmax(gains[:, j]))  # first max = lowest threshold
    return j, float((xs[k, j] + xs[k + 1, j]) / 2.0), float(column_best[j])


def fit_regression_tree(X, y=None, gradients=None, *, max_depth=6,
                        min_samples_leaf=1, reg_lambda=0.0,
                        min_split_gain=0.0, max_features=None,
                        rng=None) -> Tree:
    """Grow one tree. Pass y for plain mode (mean leaves, variance gain) or
    gradients for boosting mode (leaf weight -G/(n+lam)); squared loss
    makes every hessian 1. Nodes pop from one preorder stack of (rows,
    depth, the node whose right child this is) and push their right child
    first, so they are numbered, and draw max_features columns, in
    preorder: a split node's left child is the next node."""
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
    nodes = []  # [feature, threshold, left, right, value, cover] rows
    stack = [(np.arange(len(g)), 0, None)]
    while stack:
        rows, depth, right_of = stack.pop()
        if right_of is not None:
            right_of[3] = len(nodes)
        n = len(rows)
        node_g = g[rows]
        G = node_g.sum()
        node = [-1, 0.0, -1, -1, float(-G / (n + reg_lambda)), float(n)]
        nodes.append(node)
        if depth >= max_depth or n < 2 * min_samples_leaf or n < 2:
            continue
        if draw:
            feats = np.sort(rng.choice(p, size=max_features, replace=False))
        cols = X[np.ix_(rows, feats)]
        found = _best_split(cols, node_g, reg_lambda, min_samples_leaf)
        # relative epsilon keeps float noise on constant targets from splitting
        floor = min_split_gain + 1e-12 * (1.0 + abs(G * G / (n + reg_lambda)))
        if found is None or found[2] <= floor:
            continue
        j, threshold, _ = found
        node[:3] = feats[j], threshold, len(nodes)
        left = cols[:, j] <= threshold
        stack.append((rows[~left], depth + 1, node))
        stack.append((rows[left], depth + 1, None))
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
