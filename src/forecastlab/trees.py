"""Regression trees, bagged forests, and second-order gradient boosting.

One split kernel serves both families. Boosting mode scores a split by

    gain = 0.5 * (GL^2/(HL + lam) + GR^2/(HR + lam) - G^2/(H + lam))

with leaf weight -G/(H + lam). Squared loss makes every hessian 1, so H
is a node's row count. A forest's plain trees run the same kernel on
g = -y, lam = 0, which makes the gain variance reduction (up to the
constant 1/2) and the leaf the sample mean, so `fit_regression_tree`
takes gradients only. Thresholds sit at the midpoint of adjacent sorted
values; ties go to the lowest feature index, then the lowest threshold,
so refits are bit-reproducible.

Split search reads presorted column blocks, the exact greedy layout of
Chen & Guestrin (2016, KDD, sec. 4.1): each tree stable-sorts its columns
once, at the root, and a child's block is its parent's, filtered by the
split, so no node sorts. A node of at most SMALL_NODE_ROWS rows, and its
subtree, grows on Python floats instead (`_small_split`), with the same
IEEE operations in the same order, so both paths grow the same tree. A
node that searches max_features columns gets exactly the columns, and
leaves the generator in the state, of a per-node rng.choice draw; within
numpy's Floyd range one rng.integers call draws a block of nodes' columns
(`_ColumnDraw`).

A tree is a set of parallel node arrays in preorder (the layout model.json
stores; cover is the row count), and every model here predicts through
`.predict(X)`. An explained model caches the TreeSHAP leaf-path table of
its trees, which `shapley` lays out and builds; no tree keeps a table of
its own.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from . import shapley
from .dataset import coerce_fields, finite, integer, optional

_NODE_ARRAYS = (("feature", np.intp), ("threshold", float),
                ("children_left", np.intp), ("children_right", np.intp),
                ("value", float), ("cover", float))


class TreeModel:
    """Base of the tree models: each yields its (tree, scale) pairs through
    `tree_terms()`, and `attributions` runs `shapley.tree_shap` on them."""

    def attributions(self, rows, background) -> np.ndarray:
        return shapley.tree_shap(self, rows, background)

    @cached_property
    def _leaf_paths(self) -> tuple[shapley.LeafPaths, np.ndarray, np.ndarray] | None:
        """TreeSHAP's leaf-path table of tree_terms() (`shapley.leaf_paths`),
        built on first use, so only explained models pay for it."""
        return shapley.leaf_paths(self.tree_terms())


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
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
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
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
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
    params: ForestParams | None  # None: reloaded from model.json
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
    params: BoostParams | None  # None: reloaded from model.json
    n_features: int

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


DRAW_BLOCK = 64  # nodes whose column draws one rng.integers call makes
# above this many columns a node, the vectorised Floyd steps cost more
# than per-node rng.choice calls
DRAW_MAX_COLUMNS = 128
# nodes of at most this many rows grow on Python floats (fit_regression_tree)
SMALL_NODE_ROWS = 7


class _ColumnDraw:
    """Each call returns the next node's k < p columns, ascending: the
    values np.sort(rng.choice(p, k, replace=False)) gives node by node,
    with the same generator state after settle().

    Where numpy's choice runs Floyd's algorithm (p <= 10,000 or
    k <= p // 50), a node's draw is one bounded integer in [0, j] for each
    j = p-k..p-1, whose Floyd set is the node's columns, then k-1 in
    [0, j] for j = k-1..1, which only shuffle that set. One
    rng.integers(0, highs, endpoint=True) call over a block of nodes'
    bounds consumes the stream as the per-node calls do, so a block's sets
    come from one call and k vectorised Floyd steps. A block of `block`
    nodes is drawn when the last runs out; settle() restores the state
    saved before the first and redraws the used nodes' integers at once.
    Outside Floyd's range, or above DRAW_MAX_COLUMNS, each node calls
    rng.choice."""

    def __init__(self, rng: np.random.Generator, p: int, k: int,
                 block: int = DRAW_BLOCK):
        self.rng, self.p, self.k, self.block = rng, p, k, block
        self.bulk = k <= DRAW_MAX_COLUMNS and (p <= 10_000 or k <= p // 50)
        self.highs = np.concatenate([np.arange(p - k, p), np.arange(k - 1, 0, -1)])
        self.used = self.drawn = 0
        self.start = None  # generator state before the first block
        self.sets = None  # the current block's column sets

    def __call__(self) -> np.ndarray:
        if not self.bulk:
            cols = self.rng.choice(self.p, size=self.k, replace=False)
            cols.sort()
            return cols
        if self.used == self.drawn:
            if self.start is None:
                self.start = self.rng.bit_generator.state
            draws = self.rng.integers(0, np.tile(self.highs, self.block),
                                      endpoint=True)
            self.sets = _floyd_sets(draws.reshape(self.block, -1)[:, :self.k], self.p)
            self.drawn += self.block
        self.used += 1
        return self.sets[(self.used - 1) % self.block]

    def settle(self) -> None:
        """Leave the generator where the per-node calls would have."""
        if self.used < self.drawn:
            self.rng.bit_generator.state = self.start
            self.rng.integers(0, np.tile(self.highs, self.used), endpoint=True)


def _floyd_sets(draws: np.ndarray, p: int) -> np.ndarray:
    """Row r: the ascending Floyd set of draws[r], whose i-th value lies in
    [0, p-k+i]; it joins the set unless already there, when p-k+i joins.
    A flat (rows, p) membership array tests every row's step i at once."""
    n, k = draws.shape
    base = np.arange(0, n * p, p)
    at = draws.T + base  # row i: each set's step-i value, flat
    member = np.zeros(n * p, dtype=bool)
    for i, step in enumerate(at):
        taken = member[step]
        step[taken] = base[taken] + (p - k + i)
        member[step] = True
    at -= base
    return np.sort(at.T, axis=1)


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
    gl = np.add.accumulate(gs[:, :-1], axis=1)  # cumsum's loop, less overhead
    left, right = _side_counts(n, reg_lambda)
    invalid = xs[:, 1:] == xs[:, :-1]
    if min_samples_leaf > 1:  # a side would hold fewer rows
        invalid[:, :min_samples_leaf - 1] = True
        invalid[:, n - min_samples_leaf:] = True
    # 0.5 * (gl*gl/left + (G-gl)**2/right - G*G/(n+lam)), each operation
    # in that order, written into the cumsum buffer
    t = G - gl
    t *= t
    t /= right
    gl *= gl
    gl /= left
    gl += t
    gl -= G * G / (n + reg_lambda)
    gl *= 0.5
    gains = gl
    np.putmask(gains, invalid, -math.inf)
    j, k = divmod(int(gains.argmax()), n - 1)
    best = gains[j, k]
    if not best > -math.inf:
        return None
    return j, float((xs[j, k] + xs[j, k + 1]) / 2.0), float(best)


def _row_sum(values, rows) -> float:
    """np.add.reduce of values[rows] for fewer than 8 rows, bit for bit:
    numpy adds them in a plain loop from +0.0. Never builtin sum(), which
    compensates from Python 3.12 on."""
    total = 0.0
    for r in rows:
        total += values[r]
    return total


def _small_split(rows, feats, cols, g, G, reg_lambda, min_samples_leaf):
    """_best_split on Python floats, for a node of at most SMALL_NODE_ROWS
    rows; returns (column, threshold, gain) or None.

    rows ascend, and cols[c] (column c) and g are lists. A column's stable
    order is sorted() over the rows, its running sums add in that order
    from the first value, as np.add.accumulate does, and each gain takes
    _best_split's operations in its order, so every value has the same
    bits. The first maximum wins, by column then threshold, and a NaN gain
    means no split, as there."""
    n = len(rows)
    parent = G * G / (n + reg_lambda)
    best, found = -math.inf, None
    lo, hi = min_samples_leaf, n - min_samples_leaf  # rows a side may hold
    for f in feats:
        x = cols[f]
        order = iter(sorted(rows, key=x.__getitem__))
        r = next(order)
        xl, gl = x[r], g[r]
        for hl, r in enumerate(order, 1):  # hl rows lie left of x[r]
            xr = x[r]
            if xr != xl and lo <= hl <= hi:
                d = G - gl
                gain = (gl * gl / (hl + reg_lambda)
                        + d * d / (n - hl + reg_lambda) - parent) * 0.5
                if gain > best:
                    best, found = gain, (f, (xl + xr) / 2.0, gain)
                elif gain != gain:
                    return None
            xl = xr
            gl += g[r]
    return found


def fit_regression_tree(X, *, gradients, max_depth=6, min_samples_leaf=1,
                        reg_lambda=0.0, min_split_gain=0.0, max_features=None,
                        rng=None) -> Tree:
    """Grow one tree on squared-loss gradients, so every hessian is 1: leaf
    weight -G/(n + reg_lambda). Plain mode (mean leaves, variance gain) is
    gradients=-y with reg_lambda=0, the default.

    Nodes pop from one preorder stack of (rows, parent block, split mask,
    depth, the node whose right child this is). Nodes push their right
    child first, so they are numbered, and draw max_features columns, in
    preorder: a split node's left child is the next node. The draws come
    from `_ColumnDraw`, which leaves rng as the per-node rng.choice calls
    would; a tree with no drawing node leaves it untouched. No block
    exceeds the 2**max_depth - 1 nodes.

    A node of more than SMALL_NODE_ROWS rows searches arrays. Each column
    is stable-sorted once, at the root; row c of a node's (p, n) block
    holds its ascending rows in column c's sorted order, and a child's
    block is its parent's, each row filtered by the split mask: a stable
    partition, so it is what a stable sort of the child's rows would give.
    A split computes the mask only when a child of more than
    SMALL_NODE_ROWS rows may split (its depth is below max_depth and it
    holds at least max(2, 2 * min_samples_leaf) rows).

    A node of at most SMALL_NODE_ROWS rows, and its subtree, grows on
    Python lists and floats, where about 20 numpy calls a node cost more
    than the arithmetic: sorted() orders each drawn column's rows and
    `_small_split` searches them. Its G is `_row_sum`, a plain loop from
    +0.0, which is np.add.reduce below 8 elements; from 8 on numpy sums
    pairwise, with 8 accumulators, hence the cutoff of 7. Both paths take
    the same IEEE operations in the same order, so they grow the same
    tree. sorted() orders NaN otherwise than a stable argsort, so a tree
    whose X holds NaN grows every node on arrays."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("X must be a nonempty 2-d array")
    if X.shape[1] == 0:
        raise ValueError("X has no feature columns to split on")
    g = np.asarray(gradients, dtype=float)
    if len(g) != X.shape[0]:
        raise ValueError("row count mismatch")
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    if min_samples_leaf < 1:
        raise ValueError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
    if max_features is not None and max_features < 1:
        raise ValueError(f"max_features must be >= 1, got {max_features}")
    if reg_lambda < 0:
        raise ValueError(f"reg_lambda must be >= 0, got {reg_lambda}")
    if rng is None:
        rng = np.random.default_rng(0)
    N, p = X.shape
    draw = (_ColumnDraw(rng, p, max_features,
                        block=min(DRAW_BLOCK, 2 ** max_depth - 1))
            if max_features is not None and max_features < p else None)
    XT = X.T.copy()
    cols, gv = None, g.tolist()  # cols: XT as lists, made at the first small split
    small = 0 if np.isnan(XT).any() else SMALL_NODE_ROWS
    every, every_at = range(p), np.arange(p)[:, None]
    min_rows = max(2, 2 * min_samples_leaf)
    nodes = []  # [feature, threshold, left, right, value, cover] rows
    stack = [(list(range(N)), None, None, 0, None) if N <= small else
             (np.arange(N), XT.argsort(axis=1, kind="stable"), None, 0, None)]
    while stack:
        rows, blk, keep, depth, right_of = stack.pop()
        if right_of is not None:
            right_of[3] = len(nodes)
        n = len(rows)
        # in row order: a sorted sum has other bits
        G = (_row_sum(gv, rows) if n <= small
             else float(np.add.reduce(g[rows])))
        hess = n + reg_lambda  # 0 only on the empty side of an overflowed midpoint
        node = [-1, 0.0, -1, -1,
                -G / hess if hess else float(np.divide(-G, hess)), float(n)]
        nodes.append(node)
        if depth >= max_depth or n < min_rows:
            continue
        feats = every if draw is None else draw()
        # relative epsilon keeps float noise on constant targets from splitting
        floor = min_split_gain + 1e-12 * (1.0 + abs(G * G / hess))
        if n <= small:
            if cols is None:
                cols = XT.tolist()
            found = _small_split(rows, every if draw is None else feats.tolist(),
                                 cols, gv, G, reg_lambda, min_samples_leaf)
            if found is None or found[2] <= floor:
                continue
            f, threshold, _ = found
            node[:3] = f, threshold, len(nodes)
            x = cols[f]
            rows_left, rows_right = [], []
            for r in rows:
                (rows_left if x[r] <= threshold else rows_right).append(r)
            stack.append((rows_right, None, None, depth + 1, node))
            stack.append((rows_left, None, None, depth + 1, None))
            continue
        if keep is not None:  # the root's block is its own
            blk = blk.compress(keep.ravel()).reshape(p, n)
        if draw is None:
            cand, at = blk, every_at
        else:
            cand, at = blk.take(feats, axis=0), feats[:, None]
        found = _best_split(XT[at, cand], g[cand], G, reg_lambda,
                            min_samples_leaf)
        if found is None or found[2] <= floor:
            continue
        j, threshold, _ = found
        f = int(feats[j])
        node[:3] = f, threshold, len(nodes)
        x = XT[f]
        left = x[rows] <= threshold
        rows_left, rows_right = rows[left], rows[~left]
        # only a child of more than `small` rows that may split reads a block
        need = max(small + 1, min_rows) if depth + 1 < max_depth else N + 1
        if max(len(rows_left), len(rows_right)) >= need:
            go = x[blk] <= threshold
            reads = (blk, ~go), (blk, go)
        else:
            reads = (None, None), (None, None)
        for sub, (sub_blk, keep), of in zip((rows_right, rows_left), reads,
                                            (node, None)):
            if len(sub) <= small:
                stack.append((sub.tolist(), None, None, depth + 1, of))
            else:
                stack.append((sub, sub_blk, keep, depth + 1, of))
    if draw is not None:
        draw.settle()
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
            X[idx], gradients=-y[idx], max_depth=params.max_depth,
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
        return ForestModel(trees, None, doc["n_features"])
    if kind == "boosted":
        return BoostedModel(doc["base_score"], doc["learning_rate"], trees,
                            None, doc["n_features"])
    raise ValueError(f"unknown model document kind {kind!r}")
