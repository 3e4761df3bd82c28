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
    Laberge & Pequignot 2022) over one leaf-path table (`LeafPaths`) of
    the trees an ensemble's `tree_terms()` yields, which `leaf_paths`
    builds in one walk on each call. Background rows that leave a
    leaf's path at the same steps give the same terms, so one array pass
    scores every (query row, leaf, background group) triple, weighted by
    the group's row count; one bincount adds each phi entry's terms to
    +0.0 in the recursion's order, and such a sum is never -0.0. It
    explains a 2-d block of rows or one 1-d row. Exact, so it must agree
    with the enumeration engine to float precision.

explain_matrix predicts through the model's `.predict(X)`, or calls a bare
prediction function. A model with an `attributions(rows, background)` method
picks its own engine (forests and boosted ensembles run TreeSHAP); any
other is enumerated. A bare `Tree` is a node record, not a model.

Attributions plus the base value (mean model output over the background)
always sum to the model's prediction for the explained row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

EXACT_MAX_FEATURES = 15
EFFICIENCY_TOL = 1e-9
CHUNK_ROWS = 8192  # cap on composed rows per exact_shapley predict call
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
        with np.errstate(invalid="ignore"):  # inf - inf: a NaN gap
            gap = np.abs(self.base_value + phi.sum(axis=1) - pred)
        if not (gap <= EFFICIENCY_TOL).all():  # NaN fails the test too
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


@lru_cache(maxsize=None)
def _phi_weights(p: int) -> np.ndarray:
    """Row i: the weight w[|S|] of each coalition S without feature i, in
    ascending order of S; (p, 2^(p-1)), read-only."""
    inside, sizes = _coalition_table(p)
    weights = _coalition_weights(p)[np.stack([sizes[~inside[:, i]] for i in range(p)])]
    weights.flags.writeable = False
    return weights


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
    inside, _ = _coalition_table(p)

    v = np.empty(1 << p)
    H = min(max(1, CHUNK_ROWS // B).bit_length() - 1, p)
    high = np.arange(1 << H) << (p - H)
    v_steps = v.reshape(1 << H, -1)  # v_steps[s, low] is v[high[s] | low]
    buf = np.empty((1 << H, B, p))  # C order: the reshape below is a view
    buf[:] = background.rows
    np.copyto(buf, x, where=inside[high][:, None, :])
    low = 0
    for g in range(1 << (p - H)):
        if g:  # step g flips feature ctz(g)
            j = (g & -g).bit_length() - 1
            low ^= 1 << j
            buf[:, :, j] = x[j] if low >> j & 1 else background.rows[:, j]
        preds = np.asarray(predict(buf.reshape(-1, p)))
        np.add.reduce(preds.reshape(len(high), B), axis=1, out=v_steps[:, low])
    v /= B

    # row i: v(S | i) - v(S) for each S without i, ascending, then weighted
    # and summed from 0.0 one term at a time, a per-coalition loop's order
    terms = np.zeros((p, 1 + (1 << (p - 1))))
    for i in range(p):
        pairs = v.reshape(-1, 2, 1 << i)  # [:, 1] holds S | i, [:, 0] holds S
        np.subtract(pairs[:, 1], pairs[:, 0], out=terms[i, 1:].reshape(-1, 1 << i))
    terms[:, 1:] *= _phi_weights(p)
    return np.add.accumulate(terms, axis=1, out=terms)[:, -1].copy()


# --- interventional tree traversal ------------------------------------------

@lru_cache(maxsize=None)
def _uv_tables(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form coalition sums for a path forcing u features to the query
    row and v features to the background row; both read-only.

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
    pos.flags.writeable = False
    neg.flags.writeable = False
    return pos, neg


class LeafPaths(NamedTuple):
    """The root-to-leaf paths of a tree model, one row per leaf (trees in
    tree_terms order, each tree's leaves in preorder), padded to the
    deepest path. Step k of leaf l tests `x[feature[l, k]] <= threshold[l, k]`,
    and a row follows the path there when the outcome equals go_left[l, k].
    Padding steps (feature 0, threshold NaN, go_left False) are followed by
    every row, NaN included. fold lists the steps that retest a feature of
    their path, in rounds: the r-th retest of each (leaf, feature) is in
    round r, which holds (firsts, retests), flat indices l * depth + k of
    the feature's first step and of the retesting step, by leaf and then
    step. No first step appears twice in a round."""

    feature: np.ndarray
    threshold: np.ndarray
    go_left: np.ndarray
    fold: tuple[tuple[np.ndarray, np.ndarray], ...]


def leaf_paths(terms) -> tuple[LeafPaths, np.ndarray, np.ndarray] | None:
    """The LeafPaths of the (tree, scale) pairs `terms`, with each leaf's
    term index and scale * value, all arrays read-only; None without trees.
    One walk of each tree (a preorder stack whose entries carry their path's
    steps), then one fancy-index scatter into each padded table array."""
    tree_of, weight = [], []
    leaf, step, feature, threshold, go_left = [], [], [], [], []
    rounds = []  # round r: [(leaf, first step on the feature, step)]
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
            seen = {}  # feature -> [its first step, its retests so far]
            for k, (f, thr, go) in enumerate(path):
                leaf.append(len(weight))
                step.append(k)
                feature.append(f)
                threshold.append(thr)
                go_left.append(go)
                first = seen.setdefault(f, [k, 0])
                if first[0] != k:
                    if first[1] == len(rounds):
                        rounds.append([])
                    rounds[first[1]].append((len(weight), first[0], k))
                    first[1] += 1
            tree_of.append(t)
            weight.append(scale * value[node])
    if not weight:  # no trees: every tree has a leaf
        return None
    shape = (len(weight), max(step, default=-1) + 1)
    table = (np.zeros(shape, dtype=np.intp), np.full(shape, math.nan),
             np.zeros(shape, dtype=bool))
    at = (np.array(leaf, dtype=np.intp), np.array(step, dtype=np.intp))
    for arr, values in zip(table, (feature, threshold, go_left)):
        arr[at] = values
    fold = []
    for r in rounds:
        l, first, k = np.array(r, dtype=np.intp).T
        fold.append((l * shape[1] + first, l * shape[1] + k))
    fold = tuple(fold)
    tree_of = np.array(tree_of, dtype=np.intp)
    weight = np.array(weight)
    for arr in (*table, *(a for pair in fold for a in pair), tree_of, weight):
        arr.flags.writeable = False
    return LeafPaths(*table, fold), tree_of, weight


class _PathSide:
    """How a set of rows (query or background) meets every leaf path.

    A row is off a path at step k when it goes the other way there.
    by_feature[r, l, k] is set on the first step of each feature of leaf l's
    path when row r is off at any step on that feature (paths.fold), and
    clear on the steps that retest it. keys pack the per-step off flags,
    and feature_keys the by_feature flags, as base-4 digits into int64
    words, _KEY_DIGITS steps a word, earlier steps more significant, so
    any depth fits. inside[r, l]: row r reaches leaf l, that is, its keys
    words are all 0. The off flags are compared a step at a time, so only
    one (rows, leaves) block of feature values is gathered at once. Both
    flag blocks sit in one array, so one `_key_words` pass packs both."""

    def __init__(self, Z, paths: LeafPaths):
        R = Z.shape[0]
        flags = np.empty((2, R) + paths.feature.shape, dtype=bool)
        off, by_feature = flags
        for k, (f, t, go) in enumerate(zip(paths.feature.T, paths.threshold.T,
                                           paths.go_left.T)):
            np.not_equal(Z.take(f, axis=1) <= t, go, out=off[:, :, k])
        by_feature[...] = off
        flat, off_flat = by_feature.reshape(R, -1), off.reshape(R, -1)
        for firsts, retests in paths.fold:
            flat[:, firsts] |= off_flat[:, retests]
            flat[:, retests] = False
        words = _key_words(flags.reshape((2 * R,) + paths.feature.shape))
        self.by_feature = by_feature.copy()  # not a view: off dies here
        self.keys = [w[:R] for w in words]
        self.feature_keys = [w[R:] for w in words]
        self.inside = np.logical_and.reduce([w == 0 for w in self.keys])


def _key_words(bits: np.ndarray) -> list[np.ndarray]:
    """(rows, leaves, depth) flags -> one (rows, leaves) int64 word per
    _KEY_DIGITS steps, each flag a base-4 digit, earlier steps higher. A
    word shifts and takes each step's flags in place, so the block is never
    copied to int64 as a whole."""
    depth = bits.shape[2]
    words = []
    for lo in range(0, depth, _KEY_DIGITS):
        hi = min(lo + _KEY_DIGITS, depth)
        word = np.zeros(bits.shape[:2], dtype=np.int64)
        for k in range(lo, hi):
            word <<= 2
            word |= bits[:, :, k]
        word <<= 2 * (lo + _KEY_DIGITS - hi)  # a short last word's digits on top
        words.append(word)
    return words


def _pair_order(words: list[np.ndarray], major, n_major: int, depth: int):
    """(order, keys): the stable order of pairs by major (below n_major,
    broadcast against each word), then by their `_key_words` words, and
    the keys that set it. A path of at most _KEY_DIGITS steps has one word,
    whose digits fill its top 2*depth bits; when the majors fit above
    them, the word, which must be a fresh array, becomes
    major << 2*depth | word >> (62 - 2*depth) in place, which sorts as the
    (major, word) pairs do, and one stable argsort gives the order. Else a
    lexsort over the major and the words does."""
    if depth <= _KEY_DIGITS and n_major <= 1 << (63 - 2 * depth):
        word = words[0]
        word >>= 2 * (_KEY_DIGITS - depth)
        word |= major << 2 * depth
        keys = [word.ravel()]
        return np.argsort(keys[0], kind="stable"), keys
    keys = [np.broadcast_to(major, words[0].shape).ravel()] + [w.ravel() for w in words]
    return np.lexsort(keys[::-1]), keys


def _background_groups(back: _PathSide, depth: int):
    """Each leaf's background rows (`back`) grouped by their keys words:
    per group its leaf, row count, and keys, feature_keys, inside and
    by_feature, the same for all its rows. The (leaf, row) pairs, leaf-major,
    are sorted once (`_pair_order`, leaf major)."""
    B, n_leaves = back.inside.shape
    # leaf-major copies, so ravel() is a view
    order, keys = _pair_order([w.T.copy() for w in back.keys],
                              np.arange(n_leaves)[:, None], n_leaves, depth)
    changed = np.zeros(order.size - 1, dtype=bool)
    for key in keys:
        ordered = key[order]
        changed |= ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(np.r_[True, changed])  # where the leaf or a word changes
    leaf, row = np.divmod(order[starts], B)
    return (leaf, np.diff(np.append(starts, order.size)),
            [w[row, leaf] for w in back.keys],
            [w[row, leaf] for w in back.feature_keys],
            back.inside[row, leaf], back.by_feature[row, leaf])


def tree_shap(model, X, background: BackgroundSet) -> np.ndarray:
    """Exact interventional Shapley values of a forest or boosted
    ensemble: (rows, p) for a 2-d X, (p,) for one 1-d row. Per-tree
    attributions combine linearly, each tree weighted by the scale the
    model's `tree_terms()` pairs it with.

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
    result equals that recursion bit for bit. A chunk's pairs take that
    order from `_pair_order`, with the major row * n_trees + tree.
    Query rows go through in chunks of about TREE_CHUNK_TRIPLES triples, at
    least one row a chunk."""
    if not hasattr(model, "tree_terms"):
        raise TypeError(f"not a tree model: {type(model).__name__}")
    X = np.asarray(X, dtype=float)
    rows = X[None] if X.ndim == 1 else X
    n_rows, p = rows.shape
    if background.n_features != p:
        raise ValueError("background feature count mismatch")
    B = background.size
    phi = np.zeros((n_rows, p))
    ensemble = leaf_paths(model.tree_terms())
    if ensemble is None or ensemble[0].feature.shape[1] == 0:
        return phi.reshape(X.shape)  # no trees, or only single leaves: no split
    paths, tree_of, weight = ensemble
    n_leaves, depth = paths.feature.shape
    n_trees = int(tree_of[-1]) + 1
    pos, neg = _uv_tables(p)
    g_leaf, count, g_keys, g_feature_keys, g_inside, g_in_u = \
        _background_groups(_PathSide(background.rows, paths), depth)
    g_u = g_in_u.sum(axis=1)

    def chunk_phi(block):
        # (query row, group) pairs, row-major; a chunk's arrays die with the call
        query = _PathSide(block, paths)
        # take() and flat indices read the entries that [:, g_leaf],
        # [q, leaf] and np.nonzero would, with less work per element
        ok = ~(query.inside.take(g_leaf, axis=1) & g_inside)
        for qw, gw in zip(query.feature_keys, g_feature_keys):
            ok &= (qw.take(g_leaf, axis=1) & gw) == 0
        q, g = np.divmod(np.flatnonzero(ok), len(count))
        leaf = g_leaf[g]
        ql = q * n_leaves + leaf
        order = _pair_order([2 * qw.ravel().take(ql) + gw[g]
                             for qw, gw in zip(query.keys, g_keys)],
                            q * n_trees + tree_of[leaf], len(block) * n_trees,
                            depth)[0]
        q, g, leaf, ql = q[order], g[order], leaf[order], ql[order]
        w = weight[leaf] * count[g] / B
        uv = (p + 1) * g_u[g] + query.by_feature.sum(axis=2).ravel().take(ql)
        plus, minus = w * pos.ravel().take(uv), -(w * neg.ravel().take(uv))
        in_u = g_in_u.take(g, axis=0).ravel()
        in_v = query.by_feature.reshape(-1, depth).take(ql, axis=0).ravel()
        on = np.flatnonzero(in_u | in_v)  # (pair, step) flags of U or V, row-major
        # the term stage sets the call's peak: drop what it does not read
        del order, g, ql, w, uv, in_v
        e, k = np.divmod(on, depth)
        term = np.where(in_u.take(on), plus.take(e), minus.take(e))
        del in_u, on, plus, minus
        seg = q.take(e) * p + paths.feature.ravel().take(leaf.take(e) * depth + k)
        return np.bincount(seg, weights=term, minlength=len(block) * p)

    step = max(1, TREE_CHUNK_TRIPLES // len(count))
    for lo in range(0, n_rows, step):
        phi[lo:lo + step] = chunk_phi(rows[lo:lo + step]).reshape(-1, p)
    return phi.reshape(X.shape)


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
    if not callable(predict):
        raise TypeError(f"explain_matrix needs a fitted model with .predict(X) "
                        f"or a prediction function, got {type(model).__name__}")
    base = float(np.mean(predict(np.array(background.rows))))
    return ShapMatrix(base, attributions(model, rows, background), predict(rows))


def global_importance(m: ShapMatrix, feature_names) -> list[tuple[str, float]]:
    """Mean |phi| per feature, ranked descending; ties keep declaration order."""
    if m.n_rows == 0:
        raise ValueError("empty matrix")
    names = tuple(feature_names)
    if len(names) != m.n_features:
        raise ValueError("feature name count mismatch")
    imp = np.abs(m.phi).mean(axis=0)
    order = sorted(range(len(names)), key=lambda j: (-imp[j], j))
    return [(names[j], float(imp[j])) for j in order]
