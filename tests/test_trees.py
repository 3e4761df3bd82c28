import dataclasses
import json
import math
import signal
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forecastlab.evaluation import pow2_scaled
from forecastlab.shapley import leaf_paths
from forecastlab.trees import (
    DRAW_BLOCK,
    DRAW_MAX_COLUMNS,
    SMALL_NODE_ROWS,
    BoostedModel,
    BoostParams,
    ForestModel,
    ForestParams,
    Tree,
    _best_split,
    _ColumnDraw,
    _floyd_sets,
    _row_sum,
    _small_split,
    _tree_rng,
    fit_gradient_boosting,
    fit_random_forest,
    fit_regression_tree,
    model_from_json,
    model_to_json,
    predict_tree,
)


def stump(feature, threshold, left_value, right_value):
    """Root split on `feature` with two leaves, in preorder node arrays."""
    return Tree(feature=[feature, -1, -1], threshold=[threshold, 0.0, 0.0],
                children_left=[1, -1, -1], children_right=[2, -1, -1],
                value=[0.0, left_value, right_value], cover=[0.0, 0.0, 0.0])


def random_tree(rng, p, depth):
    """Random preorder node arrays: every node above `depth` splits."""
    nodes = []

    def grow(d):
        i = len(nodes)
        nodes.append([-1, 0.0, -1, -1, float(rng.normal()), 1.0])
        if d < depth and rng.uniform() < 0.8:
            nodes[i][0] = int(rng.integers(0, p))
            nodes[i][1] = float(rng.choice([-0.5, 0.0, 0.5]))
            nodes[i][2] = grow(d + 1)
            nodes[i][3] = grow(d + 1)
        return i

    grow(0)
    return Tree(*zip(*nodes))


def walk_tree(tree, X):
    """Per-row reference: follow the arrays from the root, <= goes left."""
    out = []
    for row in X:
        node = 0
        while tree.feature[node] >= 0:
            if row[tree.feature[node]] <= tree.threshold[node]:
                node = tree.children_left[node]
            else:
                node = tree.children_right[node]
        out.append(tree.value[node])
    return np.array(out)


def loop_best_split(X, g, h, feature_ids, reg_lambda, min_samples_leaf):
    """Reference oracle: the split search one candidate column at a time
    (the kernel's original loop); returns (feature, threshold, gain)."""
    best_gain = -math.inf
    best = None
    G = g.sum()
    H = h.sum()
    parent_score = G * G / (H + reg_lambda)
    n = len(g)
    for f in feature_ids:
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        if xs[0] == xs[-1]:
            continue
        gl = np.cumsum(g[order])[:-1]
        hl = np.cumsum(h[order])[:-1]
        counts = np.arange(1, n)
        valid = xs[1:] != xs[:-1]
        if min_samples_leaf > 1:
            valid &= (counts >= min_samples_leaf) & (n - counts >= min_samples_leaf)
        if not valid.any():
            continue
        gains = 0.5 * (gl * gl / (hl + reg_lambda)
                       + (G - gl) ** 2 / (H - hl + reg_lambda)
                       - parent_score)
        gains[~valid] = -math.inf
        k = int(np.argmax(gains))  # first max = lowest threshold
        if gains[k] > best_gain:
            best_gain = float(gains[k])
            best = (f, float((xs[k] + xs[k + 1]) / 2.0))
    if best is None:
        return None
    return best[0], best[1], best_gain


def brute_force_best_split(X, y):
    """Oracle: enumerate every midpoint of adjacent sorted values per feature."""
    best = (-np.inf, None, None)
    n = len(y)
    sse = lambda v: float(((v - v.mean()) ** 2).sum()) if len(v) else 0.0
    for f in range(X.shape[1]):
        xs = np.unique(X[:, f])
        for a, b in zip(xs[:-1], xs[1:]):
            thr = (a + b) / 2.0
            mask = X[:, f] <= thr
            gain = sse(y) - sse(y[mask]) - sse(y[~mask])
            if gain > best[0]:
                best = (gain, f, thr)
    return best


def split_at(X, g, feature_ids, reg_lambda, min_samples_leaf):
    """_best_split on the candidate columns, stable-sorted as a node's
    block holds them, with the winning position mapped back to its
    feature id, as loop_best_split reports it."""
    cols = X[:, feature_ids].T
    order = np.argsort(cols, axis=1, kind="stable")
    found = _best_split(np.take_along_axis(cols, order, axis=1), g[order],
                        g.sum(), reg_lambda, min_samples_leaf)
    if found is None:
        return None
    j, threshold, gain = found
    return feature_ids[j], threshold, gain


def random_node(rng):
    """One split-search input; many nodes tie, hold constant columns, have
    reg_lambda 0, or carry overflow-scale gradients."""
    n = int(rng.integers(2, 40))
    p = int(rng.integers(1, 9))
    kind = int(rng.integers(0, 3))
    if kind == 0:  # coarse grid: ties across thresholds and features
        X = rng.choice([0.0, 1.0, 2.0], size=(n, p))
    elif kind == 1:
        X = np.round(rng.normal(size=(n, p)), 1)
    else:
        X = rng.normal(size=(n, p))
    if p > 1 and rng.uniform() < 0.3:  # duplicated column: a tie across features
        X[:, int(rng.integers(1, p))] = X[:, 0]
    if rng.uniform() < 0.3:
        X[:, int(rng.integers(0, p))] = 1.5  # constant column
    g = rng.normal(size=n)
    if rng.uniform() < 0.4:
        g = np.round(g)  # integer gradients: equal gains at several thresholds
    if rng.uniform() < 0.15:  # the parent score overflows: gains go NaN
        g = g * 1e200
    reg_lambda = float(rng.choice([0.0, 1.0]))
    feats = np.sort(rng.choice(p, size=int(rng.integers(1, p + 1)),
                               replace=False))
    return X, g, feats, reg_lambda, int(rng.integers(1, 4))


def special_values(rng, n):
    """n floats mixing normals with -0.0, 1e200-scale values, inf and NaN."""
    pool = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 1e200,
                     -3e200, 1.5e154, 1.0, -2.5])
    scale = 10.0 ** rng.integers(-300, 300, size=n)
    return np.where(rng.uniform(size=n) < 0.4, rng.choice(pool, size=n),
                    rng.normal(size=n) * scale)


def small_split_at(X, g, feature_ids, reg_lambda, min_samples_leaf):
    """_small_split on the node's rows as lists, G their plain sum."""
    rows = list(range(len(g)))
    return _small_split(rows, [int(f) for f in feature_ids], X.T.tolist(),
                        g.tolist(), _row_sum(g.tolist(), rows), reg_lambda,
                        min_samples_leaf)


def same_split(a, b):
    """Equal (feature, threshold, gain) results, each float bit for bit."""
    if a is None or b is None:
        return a is None and b is None
    return a[0] == b[0] and all(np.float64(u).tobytes() == np.float64(v).tobytes()
                                for u, v in zip(a[1:], b[1:]))


@st.composite
def small_nodes(draw):
    """A split search of at most SMALL_NODE_ROWS rows: ties across
    thresholds and columns, duplicate rows, min_samples_leaf 1-3,
    reg_lambda, and gradients with -0.0, NaN and 1e200-scale values."""
    n = draw(st.integers(2, SMALL_NODE_ROWS))
    p = draw(st.integers(1, 4))
    value = (st.sampled_from([0.0, 1.0, 2.0]) if draw(st.booleans())
             else st.floats(-5, 5, allow_nan=False))
    X = np.array(draw(st.lists(st.lists(value, min_size=p, max_size=p),
                               min_size=n, max_size=n)))
    if n > 2 and draw(st.booleans()):  # a duplicated row
        X[draw(st.integers(1, n - 1))] = X[0]
    g = np.array(draw(st.lists(st.one_of(
        st.floats(-3, 3), st.sampled_from([-0.0, math.nan, 1e200, -2e200])),
        min_size=n, max_size=n)))
    feats = np.array(sorted(draw(st.sets(st.integers(0, p - 1), min_size=1))))
    return (X, g, feats, draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])),
            draw(st.integers(1, 3)))


class TestSplitSearch:
    def test_matches_loop_on_random_nodes(self):
        rng = np.random.default_rng(30)
        found = nan_nodes = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(1500):
                X, g, feats, reg_lambda, msl = random_node(rng)
                expected = loop_best_split(X, g, np.ones(len(g)), feats,
                                           reg_lambda, msl)
                assert split_at(X, g, feats, reg_lambda, msl) == expected
                found += expected is not None
                nan_nodes += not math.isfinite(g.sum() ** 2)
        # the mix reaches both outcomes and the overflow branch
        assert 500 < found < 1500
        assert nan_nodes > 50

    def test_tie_across_features_takes_lowest_feature(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        g = np.array([-1.0, -1.0, 1.0, 1.0])
        split = split_at(X, g, np.arange(2), 0.0, 1)
        assert split == loop_best_split(X, g, np.ones(4), np.arange(2), 0.0, 1)
        assert split[:2] == (0, 1.5)

    def test_tie_across_thresholds_takes_lowest_threshold(self):
        # splits after row 1 and after row 3 score the same
        X = np.arange(6, dtype=float)[:, None]
        g = np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0])
        split = split_at(X, g, np.arange(1), 0.0, 1)
        assert split == loop_best_split(X, g, np.ones(6), np.arange(1), 0.0, 1)
        assert split[1] == 1.5

    def test_nan_column_max_is_skipped(self):
        # G*G overflows, so column 0's first gain is inf - inf = NaN and
        # ranks first in argmax; every other gain is NaN or -inf
        X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0], [3.0, 1.0]])
        g = np.array([0.0, 1.0, -1.0, 2.0]) * 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            split = split_at(X, g, np.arange(2), 0.0, 1)
            assert split == loop_best_split(X, g, np.ones(4), np.arange(2),
                                            0.0, 1)
        assert split is None

    def test_all_constant_columns_no_split(self):
        X = np.full((5, 3), 2.0)
        g = np.arange(5, dtype=float)
        assert split_at(X, g, np.arange(3), 0.0, 1) is None

    def test_min_samples_leaf_excludes_every_split(self):
        X = np.arange(5, dtype=float)[:, None]
        g = np.arange(5, dtype=float)
        assert split_at(X, g, np.arange(1), 0.0, 3) is None

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(node=small_nodes())
    def test_small_split_equals_best_split(self, node):
        X, g, feats, reg_lambda, msl = node
        with np.errstate(over="ignore", invalid="ignore"):  # numpy's side only
            want = split_at(X, g, feats, reg_lambda, msl)
        assert same_split(small_split_at(X, g, feats, reg_lambda, msl), want)

    def test_running_sums_equal_accumulate(self):
        # ties leave one valid threshold, after hl rows, so the gain there
        # is a function of the running sum at hl alone; _best_split takes
        # it from np.add.accumulate
        rng = np.random.default_rng(35)
        for n in range(2, SMALL_NODE_ROWS + 1):
            for hl in range(1, n):
                X = np.repeat([0.0, 1.0], [hl, n - hl])[:, None]
                for _ in range(150):
                    g = special_values(rng, n)
                    lam = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
                    with np.errstate(over="ignore", invalid="ignore"):
                        want = split_at(X, g, np.arange(1), lam, 1)
                    assert same_split(small_split_at(X, g, [0], lam, 1), want)


NODE_ARRAYS = ("feature", "threshold", "children_left", "children_right",
               "value", "cover")


def recursive_grow(nodes, X, g, h, depth, max_depth, reg_lambda,
                   min_split_gain, min_samples_leaf, max_features, rng, unit):
    """Reference oracle: the recursive grower the preorder stack replaced.
    It copies X, g and the all-ones hessians h into both children and
    appends [feature, threshold, left, right, value, cover] rows to
    `nodes`; returns the node's index. g is the gradients divided by
    `unit`, a power of two: leaves are multiplied back, gains and
    min_split_gain are in units of unit**2, and the floor's 1.0 is not
    scaled."""
    G = g.sum()
    H = h.sum()
    node = [-1, 0.0, -1, -1, float(-G / (H + reg_lambda)) * unit, float(H)]
    nodes.append(node)
    index = len(nodes) - 1
    if depth >= max_depth or len(g) < 2 * min_samples_leaf or len(g) < 2:
        return index
    p = X.shape[1]
    if max_features is not None and max_features < p:
        feats = np.sort(rng.choice(p, size=max_features, replace=False))
    else:
        feats = np.arange(p)
    found = loop_best_split(X, g, h, feats, reg_lambda, min_samples_leaf)
    gain_floor = (min_split_gain / unit / unit
                  + 1e-12 * (1.0 + abs(G * G / (H + reg_lambda))))
    if found is None or found[2] <= gain_floor:
        return index
    f, thr, _ = found
    mask = X[:, f] <= thr
    node[0] = f
    node[1] = thr
    node[2] = recursive_grow(nodes, X[mask], g[mask], h[mask], depth + 1,
                             max_depth, reg_lambda, min_split_gain,
                             min_samples_leaf, max_features, rng, unit)
    node[3] = recursive_grow(nodes, X[~mask], g[~mask], h[~mask], depth + 1,
                             max_depth, reg_lambda, min_split_gain,
                             min_samples_leaf, max_features, rng, unit)
    return index


def recursive_fit_tree(X, *, gradients, max_depth=6, min_samples_leaf=1,
                       reg_lambda=0.0, min_split_gain=0.0, max_features=None,
                       rng=None) -> Tree:
    """fit_regression_tree as the recursive oracle grows it, on gradients
    scaled by evaluation.pow2_scaled's power of two."""
    X = np.asarray(X, dtype=float)
    (g,), unit = pow2_scaled(np.asarray(gradients, dtype=float))
    nodes = []
    recursive_grow(nodes, X, g, np.ones(len(g)), 0, max_depth, reg_lambda,
                   min_split_gain, min_samples_leaf, max_features, rng, unit)
    return Tree(*zip(*nodes))


def random_problem(rng):
    """fit_regression_tree arguments over plain mode (gradients=-y,
    reg_lambda=0, as a forest grows) and boosting mode, max_features
    draws, min_samples_leaf 1-3, reg_lambda, min_split_gain, ties,
    constant targets, overflow-scale gradients and bootstrap samples
    (repeated rows, as a forest draws them); returns (X, kwargs, seed,
    whether the rows were resampled, the mode)."""
    boot = rng.uniform() < 0.3
    n = int(rng.integers(1, 120 if boot else 40))  # bootstraps forest-sized
    p = int(rng.integers(1, 6))
    kind = int(rng.integers(0, 3))
    if kind == 0:  # coarse grid: ties across thresholds and features
        X = rng.choice([0.0, 1.0, 2.0], size=(n, p))
    elif kind == 1:
        X = np.round(rng.normal(size=(n, p)), 1)
    else:
        X = rng.normal(size=(n, p))
    if p > 1 and rng.uniform() < 0.3:  # duplicated column: a tie across features
        X[:, int(rng.integers(1, p))] = X[:, 0]
    target = rng.normal(size=n)
    if rng.uniform() < 0.4:
        target = np.round(target)  # equal gains at several thresholds
    elif rng.uniform() < 0.2:  # constant: only float noise could split it
        target = np.full(n, rng.normal())
    if boot:  # repeated rows: equal rows at different indices
        idx = rng.integers(0, n, size=n)
        X, target = X[idx], target[idx]
    kwargs = dict(
        max_depth=int(rng.integers(0, 7)),
        min_samples_leaf=int(rng.integers(1, 4)),
        reg_lambda=float(rng.choice([0.0, 0.5, 1.0, 2.0])),
        min_split_gain=float(rng.choice([0.0, 0.0, 0.05, 0.5])),
        # p + 1 asks for more columns than there are: all are searched
        max_features=(None if rng.uniform() < 0.4
                      else int(rng.integers(1, p + 2))))
    if rng.uniform() < 0.5:
        mode = "plain"
        kwargs.update(gradients=-target, reg_lambda=0.0)
    else:
        mode = "boosting"
        if rng.uniform() < 0.1:  # the parent score overflows: no split
            target = target * 1e200
        kwargs["gradients"] = target
    return X, kwargs, int(rng.integers(0, 2 ** 31)), boot, mode


class TestPreorderGrowth:
    def test_node_arrays_equal_recursive_oracle(self):
        rng = np.random.default_rng(31)
        reached = dict(plain=0, boosting=0, drawn=0, min_leaf=0, overflow=0,
                       bootstrap=0, small_splits=0, array_splits=0)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(600):
                X, kwargs, seed, boot, mode = random_problem(rng)
                tree_rng = np.random.default_rng(seed)
                oracle_rng = np.random.default_rng(seed)
                tree = fit_regression_tree(X, rng=tree_rng, **kwargs)
                oracle = recursive_fit_tree(X, rng=oracle_rng, **kwargs)
                for name in NODE_ARRAYS:
                    a, b = getattr(tree, name), getattr(oracle, name)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
                # the same draws, in the same order
                assert (tree_rng.bit_generator.state
                        == oracle_rng.bit_generator.state)
                split = len(tree.feature) > 1
                reached[mode] += split
                reached["drawn"] += split and (kwargs["max_features"] or 9) < X.shape[1]
                reached["min_leaf"] += split and kwargs["min_samples_leaf"] > 1
                reached["bootstrap"] += split and boot
                reached["overflow"] += split and not np.isfinite(
                    kwargs["gradients"].sum() ** 2)
                # the splits made on Python floats and on arrays
                small = tree.cover[tree.feature >= 0] <= SMALL_NODE_ROWS
                reached["small_splits"] += int(small.sum())
                reached["array_splits"] += int((~small).sum())
        # every axis is reached by trees that split, overflow-scale
        # gradients too: a tree grows on them scaled by a power of two
        assert min(reached.values()) >= 20, reached

    def test_forest_trees_equal_recursive_oracle(self):
        # bootstrap rows repeat, and a coarse grid ties distinct rows in
        # every column: ties a stable sort keeps in row-index order, and
        # columns that induce one partition with sums of different bits
        rng = np.random.default_rng(32)
        X = rng.choice([0.0, 1.0, 2.0], size=(68, 6))
        y = rng.normal(size=68)
        params = ForestParams(n_estimators=40, max_depth=6, max_features=4,
                              seed=5)
        forest = fit_random_forest(X, y, params)
        for t, tree in enumerate(forest.trees):
            tree_rng = _tree_rng(params.seed, t)
            idx = tree_rng.integers(0, 68, size=68)
            oracle = recursive_fit_tree(X[idx], gradients=-y[idx], max_depth=6,
                                        max_features=4, rng=tree_rng)
            for name in NODE_ARRAYS:
                a, b = getattr(tree, name), getattr(oracle, name)
                assert a.tobytes() == b.tobytes(), (t, name)


def leaf_partition(tree, rows):
    """{row indices that reach a leaf: that leaf's value}"""
    ids = predict_tree(dataclasses.replace(tree, value=np.arange(len(tree.value))),
                       rows)
    return {tuple(np.flatnonzero(ids == leaf)): float(tree.value[int(leaf)])
            for leaf in np.unique(ids)}


class TestGradientScale:
    def test_1e158_targets_grow_the_unit_scale_trees(self):
        # squared gradient sums overflow near 1e154; on gradients scaled by
        # a power of two the gains keep their argmax, so the trees split as
        # on y = x1 (unscaled, each was a single leaf). Bootstrap repeats
        # leave small nodes where two columns induce one partition: rounding
        # decides that tie at either scale, so such a node may split on
        # another column (its children swapped), and its rows go the same way
        rng = np.random.default_rng(41)
        X = rng.normal(size=(54, 3))
        params = ForestParams(n_estimators=5, max_depth=3, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            unit = fit_random_forest(X, X[:, 0], params)
            big = fit_random_forest(X, 1e158 * X[:, 0], params)
        identical = 0
        for t, (a, b) in enumerate(zip(unit.trees, big.trees)):
            assert len(a.feature) == len(b.feature) == 15
            boot = X[_tree_rng(params.seed, t).integers(0, 54, size=54)]
            leaves = [leaf_partition(tree, boot) for tree in (a, b)]
            assert sorted(leaves[0]) == sorted(leaves[1])
            np.testing.assert_allclose([1e158 * v for v in leaves[0].values()],
                                       [leaves[1][rows] for rows in leaves[0]],
                                       rtol=1e-12)
            identical += all(getattr(a, name).tobytes() == getattr(b, name).tobytes()
                             for name in NODE_ARRAYS[:4] + ("cover",))
        assert identical >= 2

    def test_power_of_two_scale_keeps_every_bit(self):
        # a power-of-two multiple of the gradients grows the same tree with
        # exactly scaled leaves, whether it stays below 2**250 (unscaled)
        # or is scaled back into [1, 2)
        rng = np.random.default_rng(42)
        X = rng.normal(size=(40, 3))
        g = rng.normal(size=40)
        tree = fit_regression_tree(X, gradients=g, max_depth=4)
        for k in (100, 300, 900):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                scaled = fit_regression_tree(X, gradients=g * 2.0 ** k,
                                             max_depth=4)
            for name in NODE_ARRAYS[:4] + ("cover",):
                assert getattr(tree, name).tobytes() == getattr(scaled, name).tobytes()
            assert (tree.value * 2.0 ** k).tobytes() == scaled.value.tobytes()


class TestSmallNodes:
    def test_row_sum_equals_reduce(self):
        # below 8 elements np.add.reduce is a plain loop from +0.0
        rng = np.random.default_rng(36)
        for n in range(1, SMALL_NODE_ROWS + 1):
            for _ in range(2000):
                a = special_values(rng, n)
                with np.errstate(over="ignore", invalid="ignore"):
                    want = np.add.reduce(a)
                got = _row_sum(a.tolist(), range(n))
                assert np.float64(got).tobytes() == want.tobytes(), a

    def test_small_path_equals_array_path(self, monkeypatch):
        # the same trees and generator states with every node grown on
        # arrays, over the oracle's problems and inputs it does not reach:
        # NaN and infinite X, midpoints that overflow to inf and leave a
        # side empty, and overflow-scale gradients
        import forecastlab.trees as trees_mod

        rng = np.random.default_rng(37)
        problems = []
        for _ in range(300):
            X, kwargs, seed, _, _ = random_problem(rng)
            X = X.copy()
            if rng.uniform() < 0.3:
                X.flat[rng.integers(0, X.size, size=2)] = rng.choice(
                    [math.nan, math.inf, -math.inf, 1e308, 1.7e308], size=2)
            problems.append((X, kwargs, seed))
        grown = {}
        for rows_cutoff in (SMALL_NODE_ROWS, 0):
            monkeypatch.setattr(trees_mod, "SMALL_NODE_ROWS", rows_cutoff)
            grown[rows_cutoff] = []
            for X, kwargs, seed in problems:
                tree_rng = np.random.default_rng(seed)
                with np.errstate(over="ignore", invalid="ignore"):
                    tree = fit_regression_tree(X, rng=tree_rng, **kwargs)
                grown[rows_cutoff].append((tree, tree_rng.bit_generator.state))
        small_splits = 0
        for (tree, state), (ref, ref_state) in zip(grown[SMALL_NODE_ROWS], grown[0]):
            for name in NODE_ARRAYS:
                assert getattr(tree, name).tobytes() == getattr(ref, name).tobytes()
            assert state == ref_state
            small_splits += int((tree.cover[tree.feature >= 0] <= SMALL_NODE_ROWS).sum())
        assert small_splits > 100

    def test_overflowed_midpoint_leaves_empty_side(self):
        # (1e308 + 1.7e308) / 2 is inf: every row goes left, and the empty
        # right leaf's value is 0/0, NaN with numpy's bits, as the recursive
        # grower makes it
        X = np.array([[1e308], [1.7e308], [1e308]])
        y = np.array([1.0, 2.0, 4.0])
        with np.errstate(over="ignore", invalid="ignore"):
            tree = fit_regression_tree(X, gradients=-y, max_depth=2)
            oracle = recursive_fit_tree(X, gradients=-y, max_depth=2)
        assert math.isinf(tree.threshold[0])
        assert np.isnan(tree.value[tree.cover == 0]).all() and (tree.cover == 0).any()
        for name in NODE_ARRAYS:
            assert getattr(tree, name).tobytes() == getattr(oracle, name).tobytes()


# (p, k) where numpy's choice runs Floyd's algorithm (p <= 10,000 or
# k <= p // 50), on both sides of p = 10,000, and two pairs where it runs
# its tail shuffle instead
FLOYD_PAIRS = [(16, 8), (16, 1), (16, 15), (2, 1), (5, 4), (10000, 5000),
               (10001, 100), (20000, 300), (70000, 2)]
TAIL_SHUFFLE_PAIRS = [(10001, 300), (20000, 1000)]


def bulk_draw(rng, p, k, nodes):
    """The column sets of `nodes` nodes from one rng.integers call and
    _floyd_sets."""
    highs = np.concatenate([np.arange(p - k, p), np.arange(k - 1, 0, -1)])
    draws = rng.integers(0, np.tile(highs, nodes), endpoint=True)
    return _floyd_sets(draws.reshape(nodes, -1)[:, :k], p)


def depth_of_nodes(tree):
    depth = np.zeros(len(tree.feature), dtype=int)
    for i in np.flatnonzero(tree.feature >= 0):  # preorder: parents first
        depth[[tree.children_left[i], tree.children_right[i]]] = depth[i] + 1
    return depth


class TestColumnDraw:
    @pytest.mark.parametrize("p, k", FLOYD_PAIRS)
    def test_one_call_equals_choice_in_floyd_range(self, p, k):
        nodes = 3 if p > 100 else DRAW_BLOCK + 3
        for seed in range(30):
            per_node = np.random.default_rng(seed)
            want = [np.sort(per_node.choice(p, k, replace=False))
                    for _ in range(nodes)]
            one_call = np.random.default_rng(seed)
            got = bulk_draw(one_call, p, k, nodes)
            assert np.array_equal(got, want), seed
            assert one_call.bit_generator.state == per_node.bit_generator.state

    @pytest.mark.parametrize("p, k", TAIL_SHUFFLE_PAIRS)
    def test_one_call_differs_outside_floyd_range(self, p, k):
        # the reason _ColumnDraw keeps per-node calls there
        for seed in range(30):
            per_node = np.random.default_rng(seed)
            want = [np.sort(per_node.choice(p, k, replace=False)) for _ in range(2)]
            one_call = np.random.default_rng(seed)
            got = bulk_draw(one_call, p, k, 2)
            assert (not np.array_equal(got, want)
                    or one_call.bit_generator.state != per_node.bit_generator.state)

    @pytest.mark.parametrize("p, k", FLOYD_PAIRS + TAIL_SHUFFLE_PAIRS)
    def test_draws_and_state_equal_per_node_choice(self, p, k):
        # several blocks for narrow p, and every count of used nodes in a
        # block: settle() must leave the per-node calls' state
        counts = [1, 5] if p > 100 else [1, DRAW_BLOCK - 1, DRAW_BLOCK,
                                         DRAW_BLOCK + 1, 2 * DRAW_BLOCK + 7]
        for seed in range(30):
            nodes = counts[seed % len(counts)]
            per_node = np.random.default_rng(seed)
            want = [np.sort(per_node.choice(p, k, replace=False))
                    for _ in range(nodes)]
            rng = np.random.default_rng(seed)
            draw = _ColumnDraw(rng, p, k)
            got = [draw() for _ in range(nodes)]
            draw.settle()
            for a, b in zip(got, want, strict=True):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), seed
            assert rng.bit_generator.state == per_node.bit_generator.state
        # the pairs where one call serves a block
        bulk = k <= DRAW_MAX_COLUMNS and (p <= 10_000 or k <= p // 50)
        assert _ColumnDraw(np.random.default_rng(0), p, k).bulk == bulk

    def test_tree_refills_its_block(self):
        # more drawing nodes than one block: the grower draws a second
        # block and settles after it, as the per-node oracle draws
        rng = np.random.default_rng(33)
        X = rng.normal(size=(400, 6))
        y = X[:, 0] + rng.normal(size=400)
        tree_rng, oracle_rng = (np.random.default_rng(9) for _ in range(2))
        tree = fit_regression_tree(X, gradients=-y, max_depth=12,
                                   min_samples_leaf=2, max_features=3,
                                   rng=tree_rng)
        oracle = recursive_fit_tree(X, gradients=-y, max_depth=12,
                                    min_samples_leaf=2, max_features=3,
                                    rng=oracle_rng)
        for name in NODE_ARRAYS:
            assert getattr(tree, name).tobytes() == getattr(oracle, name).tobytes()
        assert tree_rng.bit_generator.state == oracle_rng.bit_generator.state
        drawing = (depth_of_nodes(tree) < 12) & (tree.cover >= 4)
        assert drawing.sum() > DRAW_BLOCK

    @pytest.mark.parametrize("p, k", [(16, 8), (16, 1), (5, 4), (2, 1)])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_block_of_a_shallow_tree_equals_choice(self, p, k, depth):
        # a depth-d tree draws for at most 2**d - 1 nodes, its block size
        block = 2 ** depth - 1
        for nodes in range(1, block + 1):
            per_node = np.random.default_rng(nodes)
            want = [np.sort(per_node.choice(p, k, replace=False))
                    for _ in range(nodes)]
            rng = np.random.default_rng(nodes)
            draw = _ColumnDraw(rng, p, k, block=block)
            got = [draw() for _ in range(nodes)]
            draw.settle()
            for a, b in zip(got, want, strict=True):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert rng.bit_generator.state == per_node.bit_generator.state

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_shallow_tree_sizes_its_block(self, depth, monkeypatch):
        import forecastlab.trees as trees_mod
        blocks = []

        class Recording(_ColumnDraw):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                blocks.append(self.block)

        monkeypatch.setattr(trees_mod, "_ColumnDraw", Recording)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(60, 8))
            y = X[:, 0] * X[:, 1] + rng.normal(size=60)
            tree_rng, oracle_rng = (np.random.default_rng(seed) for _ in range(2))
            tree = fit_regression_tree(X, gradients=-y, max_depth=depth,
                                       max_features=3, rng=tree_rng)
            oracle = recursive_fit_tree(X, gradients=-y, max_depth=depth,
                                        max_features=3, rng=oracle_rng)
            for name in NODE_ARRAYS:
                assert getattr(tree, name).tobytes() == getattr(oracle, name).tobytes()
            assert tree_rng.bit_generator.state == oracle_rng.bit_generator.state
        assert blocks == [2 ** depth - 1] * 10

    def test_no_drawing_node_leaves_generator_untouched(self):
        rng = np.random.default_rng(34)
        X = rng.normal(size=(20, 5))
        y = rng.normal(size=20)
        # a 20-row root draws only with depth left and min_samples_leaf <= 10
        for kwargs, draws in [(dict(max_depth=0), False),
                              (dict(max_depth=4, min_samples_leaf=11), False),
                              (dict(max_depth=4, min_samples_leaf=10), True)]:
            tree_rng = np.random.default_rng(5)
            before = tree_rng.bit_generator.state
            tree = fit_regression_tree(X, gradients=-y, max_features=2,
                                       rng=tree_rng, **kwargs)
            assert (tree_rng.bit_generator.state != before) == draws
            assert draws or tree.feature.tolist() == [-1]


class TestTreeArguments:
    @pytest.mark.parametrize("kwargs, name", [
        (dict(max_depth=-1), "max_depth"),
        (dict(min_samples_leaf=0), "min_samples_leaf"),
        (dict(min_samples_leaf=-3), "min_samples_leaf"),
        (dict(max_features=0), "max_features"),
        (dict(max_features=-1), "max_features"),
    ])
    def test_invalid_argument_named(self, kwargs, name):
        X = np.arange(12, dtype=float).reshape(6, 2)
        with pytest.raises(ValueError, match=name):
            fit_regression_tree(X, gradients=np.arange(6.0), **kwargs)

    @pytest.mark.parametrize("n", [1, 2, SMALL_NODE_ROWS, SMALL_NODE_ROWS + 1, 20])
    def test_no_columns_rejected(self, n):
        with pytest.raises(ValueError, match="no feature columns"):
            fit_regression_tree(np.empty((n, 0)), gradients=np.arange(float(n)))

    def test_targets_rejected(self):
        # gradients only: an old positional or y= target fails loudly
        # instead of growing a negated tree
        X = np.arange(12, dtype=float).reshape(6, 2)
        with pytest.raises(TypeError):
            fit_regression_tree(X, np.arange(6.0))
        with pytest.raises(TypeError):
            fit_regression_tree(X, y=np.arange(6.0))

    def test_negative_reg_lambda_rejected(self):
        X = np.arange(12, dtype=float).reshape(6, 2)
        with pytest.raises(ValueError, match="reg_lambda"):
            fit_regression_tree(X, gradients=np.arange(6.0), reg_lambda=-1.0)

    def test_negative_depth_params_rejected(self):
        with pytest.raises(ValueError, match="max_depth"):
            ForestParams(max_depth=-1)
        with pytest.raises(ValueError, match="max_depth"):
            BoostParams(max_depth=-2)
        # depth 0 stays valid: a mean leaf
        assert ForestParams(max_depth=0).max_depth == 0
        assert BoostParams(max_depth=0).max_depth == 0


class TestSingleTree:
    def test_constant_target_single_leaf(self):
        X = np.arange(10, dtype=float)[:, None]
        tree = fit_regression_tree(X, gradients=np.full(10, -3.7))
        assert tree.feature.tolist() == [-1]
        assert tree.value[0] == pytest.approx(3.7)

    def test_step_target_threshold_matches_enumeration_oracle(self):
        rng = np.random.default_rng(0)
        X = np.sort(rng.uniform(0, 1, size=20))[:, None]
        y = (X[:, 0] >= 0.5).astype(float)
        _, f_star, thr_star = brute_force_best_split(X, y)
        tree = fit_regression_tree(X, gradients=-y, max_depth=1)
        assert tree.feature[0] == f_star
        assert tree.threshold[0] == pytest.approx(thr_star)
        # midpoint of the pair straddling the step
        lo = X[X[:, 0] < 0.5, 0].max()
        hi = X[X[:, 0] >= 0.5, 0].min()
        assert tree.threshold[0] == pytest.approx((lo + hi) / 2.0)

    def test_max_depth_zero_returns_mean_leaf(self):
        X = np.arange(6, dtype=float)[:, None]
        y = np.array([1.0, 2, 3, 4, 5, 6])
        tree = fit_regression_tree(X, gradients=-y, max_depth=0)
        assert tree.feature.tolist() == [-1]
        assert tree.value[0] == pytest.approx(3.5)

    def test_each_row_reaches_one_leaf_and_regions_constant(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        tree = fit_regression_tree(X, gradients=-y, max_depth=3)
        preds = predict_tree(tree, X)
        leaves = set()

        def collect(node):
            if tree.feature[node] < 0:
                leaves.add(tree.value[node])
                return
            collect(tree.children_left[node])
            collect(tree.children_right[node])

        collect(0)
        assert set(np.round(preds, 12)).issubset({round(v, 12) for v in leaves})

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fit_regression_tree(np.empty((0, 2)), gradients=np.empty(0))


class TestRandomForest:
    def test_constant_target_constant_prediction(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 4))
        model = fit_random_forest(X, np.full(30, 1.25),
                                  ForestParams(n_estimators=5, max_depth=4, seed=0))
        np.testing.assert_allclose(model.predict(X), 1.25, atol=1e-12)

    def test_same_seed_identical_forests(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        params = ForestParams(n_estimators=7, max_depth=3, max_features=2, seed=11)
        a = fit_random_forest(X, y, params)
        b = fit_random_forest(X, y, params)
        np.testing.assert_array_equal(a.predict(X), b.predict(X))
        assert model_to_json(a) == model_to_json(b)

    def test_deeper_forest_fits_training_data_no_worse(self):
        from forecastlab.dataset import SynthSpec, default_schema, synth_generate
        schema = default_schema()
        frame = synth_generate(21, schema, SynthSpec(n=80))
        X = frame.matrix(schema.features)
        y = frame.column(schema.target)
        rmse = {}
        for depth in (2, 9):
            model = fit_random_forest(X, y, ForestParams(
                n_estimators=50, max_depth=depth, max_features=8, seed=5))
            err = model.predict(X) - y
            rmse[depth] = float(np.sqrt((err ** 2).mean()))
        assert rmse[9] <= rmse[2]

    def test_max_features_bound(self):
        X = np.zeros((10, 3))
        with pytest.raises(ValueError):
            fit_random_forest(X, np.zeros(10),
                              ForestParams(n_estimators=1, max_features=5))

    def test_prediction_within_tree_envelope(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        model = fit_random_forest(X, y, ForestParams(n_estimators=9, max_depth=4,
                                                     seed=1))
        per_tree = np.stack([predict_tree(t, X) for t in model.trees])
        pred = model.predict(X)
        assert np.all(pred >= per_tree.min(axis=0) - 1e-12)
        assert np.all(pred <= per_tree.max(axis=0) + 1e-12)


class TestGradientBoosting:
    def test_zero_rounds_predicts_base_score(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        model = fit_gradient_boosting(X, y, BoostParams(n_estimators=0))
        np.testing.assert_allclose(model.predict(X), y.mean(), atol=1e-12)

    def test_single_full_round_interpolates(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(16, 2))  # distinct rows a.s.
        y = rng.normal(size=16)
        # depth must also cover unbalanced greedy splits, not just log2(n)
        model = fit_gradient_boosting(X, y, BoostParams(
            learning_rate=1.0, n_estimators=1, max_depth=16,
            subsample=1.0, colsample_bytree=1.0, reg_lambda=0.0))
        np.testing.assert_allclose(model.predict(X), y, atol=1e-9)

    def test_training_loss_non_increasing(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 4))
        y = X[:, 0] ** 2 + rng.normal(size=60)
        params = BoostParams(learning_rate=0.3, n_estimators=25, max_depth=2,
                             reg_lambda=1.0)
        model = fit_gradient_boosting(X, y, params)
        yhat = np.full(60, model.base_score)
        losses = [float(((yhat - y) ** 2).mean())]
        for tree in model.trees:
            yhat = yhat + model.learning_rate * predict_tree(tree, X)
            losses.append(float(((yhat - y) ** 2).mean()))
        assert np.all(np.diff(losses) <= 1e-12)

    def test_additivity_of_tree_contributions(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        model = fit_gradient_boosting(X, y, BoostParams(
            n_estimators=12, max_depth=3, subsample=0.7, colsample_bytree=0.8,
            seed=3))
        manual = np.full(10, model.base_score)
        for tree in model.trees:
            manual += model.learning_rate * predict_tree(tree, X[:10])
        np.testing.assert_allclose(model.predict(X[:10]), manual,
                                   atol=1e-12)

    def test_same_seed_identical_models(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 5))
        y = rng.normal(size=40)
        params = BoostParams(n_estimators=10, max_depth=3, subsample=0.5,
                             colsample_bytree=0.6, seed=21)
        a = fit_gradient_boosting(X, y, params)
        b = fit_gradient_boosting(X, y, params)
        assert model_to_json(a) == model_to_json(b)

    def test_empty_X_empty_output(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(20, 2))
        model = fit_gradient_boosting(X, rng.normal(size=20),
                                      BoostParams(n_estimators=3))
        assert model.predict(np.empty((0, 2))).shape == (0,)

    def test_column_mismatch_rejected(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(20, 3))
        model = fit_gradient_boosting(X, rng.normal(size=20),
                                      BoostParams(n_estimators=2))
        with pytest.raises(ValueError, match="feature columns"):
            model.predict(np.zeros((4, 5)))

    def test_divergence_raises_before_any_warning(self):
        # a learning rate of 1e308 overflows the training predictions: the
        # fit stops at that round, before a tree grows on inf gradients
        rng = np.random.default_rng(12)
        X = rng.normal(size=(30, 3))
        y = 10.0 * rng.normal(size=30)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="^boosting diverged: its "
                               "training predictions are not finite after 1 "
                               "trees$"):
                fit_gradient_boosting(X, y, BoostParams(
                    learning_rate=1e308, n_estimators=20, max_depth=2))
        assert [str(w.message) for w in seen] == []


class TestSerialization:
    def test_stump_piecewise_constant(self):
        forest = ForestModel((stump(0, 0.0, -1.0, 2.0),), 2)
        X = np.array([[-1.0, 9.0], [0.0, 9.0], [0.5, 9.0]])
        np.testing.assert_array_equal(forest.predict(X), [-1.0, -1.0, 2.0])

    def test_every_ensemble_checks_its_width(self):
        # n_features has no default: rows of another width raise, fitted,
        # hand-built or reloaded
        tree = stump(0, 0.0, -1.0, 2.0)
        with pytest.raises(TypeError):
            BoostedModel(0.0, 0.5, (tree,))
        for model in (ForestModel((tree,), 2),
                      BoostedModel(0.0, 0.5, (tree,), 2)):
            for m in (model, model_from_json(model_to_json(model))):
                assert m.predict(np.zeros((3, 2))).shape == (3,)
                with pytest.raises(ValueError, match="feature columns"):
                    m.predict(np.zeros((3, 3)))

    def test_round_trip_all_kinds(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        tree = ForestModel((fit_regression_tree(X, gradients=-y, max_depth=3),), 3)
        forest = fit_random_forest(X, y, ForestParams(n_estimators=4, max_depth=2))
        boost = fit_gradient_boosting(X, y, BoostParams(n_estimators=4, max_depth=2))
        for model in (tree, forest, boost):
            clone = model_from_json(model_to_json(model))
            np.testing.assert_allclose(clone.predict(X),
                                       model.predict(X), atol=1e-15)

    def test_tree_is_a_node_record_not_a_model(self):
        # a bare tree predicts through predict_tree and is stored inside a
        # forest or boosted document; there is no document of its own
        tree = stump(0, 0.0, -1.0, 2.0)
        for name in ("predict", "tree_terms", "to_doc", "attributions"):
            assert not hasattr(tree, name)
        doc = {"kind": "tree", "tree": {"feature": [-1], "threshold": [0.0],
                                        "children_left": [-1],
                                        "children_right": [-1],
                                        "value": [1.0], "cover": [1.0]}}
        with pytest.raises(ValueError, match="'tree'"):
            model_from_json(json.dumps(doc))

    def test_reloaded_models_claim_no_training_params(self):
        # a model holds only what predict reads, none of its training
        # parameters, so the reloaded forest or booster is the fitted record
        # field for field, tree arrays to the bit, and writes the same bytes
        rng = np.random.default_rng(16)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        for model in (fit_random_forest(X, y, ForestParams(
                          n_estimators=3, max_depth=2, max_features=2, seed=5)),
                      fit_gradient_boosting(X, y, BoostParams(
                          n_estimators=3, subsample=0.5, seed=5))):
            text = model_to_json(model)
            clone = model_from_json(text)
            assert type(clone) is type(model)
            for field in dataclasses.fields(model):
                got, want = getattr(clone, field.name), getattr(model, field.name)
                if field.name != "trees":
                    assert type(got) is type(want) and got == want, field.name
                    continue
                assert len(got) == len(want) == 3
                for got_tree, want_tree in zip(got, want):
                    for node in dataclasses.fields(Tree):
                        a = getattr(got_tree, node.name)
                        b = getattr(want_tree, node.name)
                        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert model_to_json(clone) == text

    def test_reloaded_models_compare_equal(self):
        # == compares the records field by field and the node arrays by
        # dtype, shape and bytes, so a reload equals the fitted model and one
        # flipped bit of one leaf value does not
        rng = np.random.default_rng(17)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        for model in (fit_random_forest(X, y, ForestParams(n_estimators=3,
                                                           max_depth=2)),
                      fit_gradient_boosting(X, y, BoostParams(n_estimators=3))):
            assert model == model_from_json(model_to_json(model))
            first = model.trees[0]
            value = first.value.copy()
            value.view(np.uint64)[-1] ^= 1
            flipped = dataclasses.replace(model, trees=(
                dataclasses.replace(first, value=value), *model.trees[1:]))
            assert flipped != model and not flipped == model
            assert dataclasses.replace(model, trees=model.trees[1:]) != model

    def test_boosted_params_validated(self):
        with pytest.raises(ValueError):
            BoostParams(learning_rate=0.0)
        with pytest.raises(ValueError):
            BoostParams(subsample=0.0)
        with pytest.raises(ValueError):
            BoostParams(colsample_bytree=1.5)

    def test_boosted_rounds_not_negative(self):
        # a negative count grew no trees without a word; zero stays the
        # empty booster, which predicts its base score
        for n in (-1, -5):
            with pytest.raises(ValueError, match="n_estimators must be >= 0"):
                BoostParams(n_estimators=n)
        assert BoostParams(n_estimators=0).n_estimators == 0



def stored_stump(**changes):
    """A stump's model.json fields, with the given node arrays replaced."""
    return {"feature": [0, -1, -1], "threshold": [0.0, 0.0, 0.0],
            "children_left": [1, -1, -1], "children_right": [2, -1, -1],
            "value": [0.0, -1.0, 2.0], "cover": [2.0, 1.0, 1.0], **changes}


def forest_doc(*trees, **fields):
    return json.dumps({"kind": "forest", "n_features": 2,
                       "trees": list(trees) or [stored_stump()], **fields})


class TestModelDocumentChecks:
    """model.json is outside input: anything no fitted model writes raises
    ValueError in model_from_json, before a row is routed."""

    @pytest.mark.parametrize("text, match", [
        ('{"kind": "forest"}', r"misses \['n_features', 'trees'\]"),
        ("[]", "JSON object"),
        ('{"kind": "tree", "trees": [{"feature": [0]}]}', "kind 'tree'"),
        (forest_doc(trees=[]), "nonempty"),
        (forest_doc(n_features="2"), "n_features"),
        (json.dumps({"kind": "boosted", "n_features": 2, "trees": [],
                     "learning_rate": 0.1}), r"misses \['base_score'\]"),
        (json.dumps({"kind": "boosted", "n_features": 2, "trees": [],
                     "base_score": "0", "learning_rate": 0.1}), "number"),
        (forest_doc({k: v for k, v in stored_stump().items() if k != "cover"}),
         "stored tree: .*'cover'"),
        (forest_doc([1, 2]), "stored tree: .*mapping"),
        (forest_doc(stored_stump(value=[0.0, 1.0])), "one length"),
        (forest_doc(stored_stump(value=1.0)), "one length"),
        (forest_doc(stored_stump(feature=["a", -1, -1])), "stored tree"),
        (forest_doc(stored_stump(children_left=[99, -1, -1])), "later nodes"),
        (forest_doc(stored_stump(children_right=[2, -1, 0])), "leaf has children"),
        (forest_doc(stored_stump(feature=[2, -1, -1])), r"outside \[0, 2\)"),
        (forest_doc(stored_stump(feature=[-2, -1, -1])), "outside"),
        (forest_doc(stored_stump(children_right=[1, -1, -1])), "exactly one"),
    ], ids=["no-fields", "not-an-object", "unknown-kind-bad-tree", "no-trees",
            "n_features-string", "boosted-no-base", "boosted-string-base",
            "tree-no-cover", "tree-not-an-object", "unequal-arrays",
            "scalar-array", "string-feature", "child-99",
            "leaf-with-child", "feature-too-wide", "feature-below-leaf",
            "two-parents"])
    def test_malformed_document_raises_value_error(self, text, match):
        with pytest.raises(ValueError, match=match):
            model_from_json(text)

    def test_self_loop_is_refused_before_predict(self):
        # a split whose left child is itself would route rows forever
        def hung(signum, frame):
            raise TimeoutError("a self-looping tree was loaded and routed")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(10)
        try:
            with pytest.raises(ValueError, match="later nodes"):
                model = model_from_json(
                    forest_doc(stored_stump(children_left=[0, -1, -1])))
                model.predict(np.zeros((1, 2)))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_fitted_documents_load(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        for model in (fit_random_forest(X, y, ForestParams(n_estimators=3)),
                      fit_gradient_boosting(X, y, BoostParams(
                          n_estimators=3, colsample_bytree=0.5))):
            text = model_to_json(model)
            assert model_to_json(model_from_json(text)) == text
        assert model_from_json(forest_doc()).predict(
            np.array([[-1.0, 0.0], [1.0, 0.0]])).tolist() == [-1.0, 2.0]


class TestFlatArrays:
    def test_vectorised_predict_matches_row_walk(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p = int(rng.integers(1, 5))
            tree = random_tree(rng, p, depth=int(rng.integers(0, 6)))
            # half the rows sit on the threshold grid {-0.5, 0, 0.5}, so
            # many comparisons are exact ties
            X = np.vstack([rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(20, p)),
                           rng.normal(size=(20, p))])
            np.testing.assert_array_equal(predict_tree(tree, X),
                                          walk_tree(tree, X))

    def test_fitted_forest_trees_match_row_walk(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(50, 4))
        model = fit_random_forest(X, rng.normal(size=50), ForestParams(
            n_estimators=6, max_depth=5, max_features=2, seed=2))
        for tree in model.trees:
            np.testing.assert_array_equal(predict_tree(tree, X), walk_tree(tree, X))

    def test_routing_depth_equals_leaf_path_depth(self):
        # predicting takes its depth from the child arrays, leaves nothing on
        # the model, and agrees with TreeSHAP's leaf-path table on the depth
        rng = np.random.default_rng(17)
        X = rng.normal(size=(40, 3))
        trees = [random_tree(rng, 3, depth=int(rng.integers(0, 7)))
                 for _ in range(30)]
        trees += fit_random_forest(X, rng.normal(size=40), ForestParams(
            n_estimators=4, max_depth=8, seed=3)).trees
        trees.append(stump(1, 0.0, 1.0, 2.0))
        for tree in trees:
            model = ForestModel((tree,), 3)
            model.predict(X)
            assert set(vars(model)) == {f.name for f in dataclasses.fields(model)}
            paths = leaf_paths(model.tree_terms())[0]
            assert tree._routing[2] == paths.feature.shape[1]

    def test_row_equal_to_threshold_goes_left(self):
        tree = stump(0, 0.25, -1.0, 2.0)
        X = np.array([[0.25], [np.nextafter(0.25, 1.0)], [np.nextafter(0.25, 0.0)]])
        np.testing.assert_array_equal(predict_tree(tree, X), [-1.0, 2.0, -1.0])

    def test_zero_rows_empty_output(self):
        tree = random_tree(np.random.default_rng(15), 3, depth=3)
        assert predict_tree(tree, np.empty((0, 3))).shape == (0,)
        assert ForestModel((tree,), 3).predict(np.empty((0, 3))).shape == (0,)

    def test_colsample_rounds_split_on_global_sampled_columns(self):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(40, 8))
        y = X[:, 6] - X[:, 7] + 0.1 * rng.normal(size=40)
        params = BoostParams(n_estimators=15, max_depth=3,
                             colsample_bytree=0.4, seed=4)
        model = fit_gradient_boosting(X, y, params)
        k = int(round(0.4 * 8))
        seen = set()
        for t, tree in enumerate(model.trees):
            # with subsample=1 the column draw is the round's first draw
            cols = _tree_rng(params.seed, t).choice(8, size=k, replace=False)
            used = set(tree.feature[tree.feature >= 0].tolist())
            assert used <= set(cols.tolist())
            seen |= used
        # slice-local ids are all < k; a global id at or above k proves the map
        assert max(seen) >= k
