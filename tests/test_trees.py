import math

import numpy as np
import pytest

from forecastlab.trees import (
    BoostedModel,
    BoostParams,
    ForestModel,
    ForestParams,
    Tree,
    _best_split,
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
    """_best_split on the candidate columns, with the winning position
    mapped back to its feature id, as loop_best_split reports it."""
    found = _best_split(X[:, feature_ids], g, reg_lambda, min_samples_leaf)
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


NODE_ARRAYS = ("feature", "threshold", "children_left", "children_right",
               "value", "cover")


def recursive_grow(nodes, X, g, h, depth, max_depth, reg_lambda,
                   min_split_gain, min_samples_leaf, max_features, rng):
    """Reference oracle: the recursive grower the preorder stack replaced.
    It copies X, g and the all-ones hessians h into both children and
    appends [feature, threshold, left, right, value, cover] rows to
    `nodes`; returns the node's index."""
    G = g.sum()
    H = h.sum()
    node = [-1, 0.0, -1, -1, float(-G / (H + reg_lambda)), float(H)]
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
    gain_floor = min_split_gain + 1e-12 * (1.0 + abs(G * G / (H + reg_lambda)))
    if found is None or found[2] <= gain_floor:
        return index
    f, thr, _ = found
    mask = X[:, f] <= thr
    node[0] = f
    node[1] = thr
    node[2] = recursive_grow(nodes, X[mask], g[mask], h[mask], depth + 1,
                             max_depth, reg_lambda, min_split_gain,
                             min_samples_leaf, max_features, rng)
    node[3] = recursive_grow(nodes, X[~mask], g[~mask], h[~mask], depth + 1,
                             max_depth, reg_lambda, min_split_gain,
                             min_samples_leaf, max_features, rng)
    return index


def recursive_fit_tree(X, y=None, gradients=None, *, max_depth=6,
                       min_samples_leaf=1, reg_lambda=0.0, min_split_gain=0.0,
                       max_features=None, rng=None) -> Tree:
    """fit_regression_tree as the recursive oracle grows it."""
    X = np.asarray(X, dtype=float)
    if y is not None:
        g = -np.asarray(y, dtype=float)
        reg_lambda = 0.0
    else:
        g = np.asarray(gradients, dtype=float)
    nodes = []
    recursive_grow(nodes, X, g, np.ones(len(g)), 0, max_depth, reg_lambda,
                   min_split_gain, min_samples_leaf, max_features, rng)
    return Tree(*zip(*nodes))


def random_problem(rng):
    """fit_regression_tree arguments over plain and boosting mode,
    max_features draws, min_samples_leaf 1-3, reg_lambda, min_split_gain,
    ties, constant targets and overflow-scale gradients; returns
    (X, kwargs, seed)."""
    n = int(rng.integers(1, 40))
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
    kwargs = dict(
        max_depth=int(rng.integers(0, 7)),
        min_samples_leaf=int(rng.integers(1, 4)),
        reg_lambda=float(rng.choice([0.0, 0.5, 1.0, 2.0])),
        min_split_gain=float(rng.choice([0.0, 0.0, 0.05, 0.5])),
        # p + 1 asks for more columns than there are: all are searched
        max_features=(None if rng.uniform() < 0.4
                      else int(rng.integers(1, p + 2))))
    if rng.uniform() < 0.5:
        kwargs["y"] = target
    else:
        if rng.uniform() < 0.1:  # the parent score overflows: no split
            target = target * 1e200
        kwargs["gradients"] = target
    return X, kwargs, int(rng.integers(0, 2 ** 31))


class TestPreorderGrowth:
    def test_node_arrays_equal_recursive_oracle(self):
        rng = np.random.default_rng(31)
        reached = dict(plain=0, boosting=0, drawn=0, min_leaf=0, overflow=0)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(600):
                X, kwargs, seed = random_problem(rng)
                tree = fit_regression_tree(
                    X, rng=np.random.default_rng(seed), **kwargs)
                oracle = recursive_fit_tree(
                    X, rng=np.random.default_rng(seed), **kwargs)
                for name in NODE_ARRAYS:
                    a, b = getattr(tree, name), getattr(oracle, name)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
                split = len(tree.feature) > 1
                mode = "plain" if "y" in kwargs else "boosting"
                reached[mode] += split
                reached["drawn"] += split and (kwargs["max_features"] or 9) < X.shape[1]
                reached["min_leaf"] += split and kwargs["min_samples_leaf"] > 1
                reached["overflow"] += mode == "boosting" and not np.isfinite(
                    kwargs["gradients"].sum() ** 2)
        # every axis is reached by trees that split (overflow never splits)
        assert min(reached.values()) >= 20, reached


class TestSingleTree:
    def test_constant_target_single_leaf(self):
        X = np.arange(10, dtype=float)[:, None]
        tree = fit_regression_tree(X, np.full(10, 3.7))
        assert tree.feature.tolist() == [-1]
        assert tree.value[0] == pytest.approx(3.7)

    def test_step_target_threshold_matches_enumeration_oracle(self):
        rng = np.random.default_rng(0)
        X = np.sort(rng.uniform(0, 1, size=20))[:, None]
        y = (X[:, 0] >= 0.5).astype(float)
        _, f_star, thr_star = brute_force_best_split(X, y)
        tree = fit_regression_tree(X, y, max_depth=1)
        assert tree.feature[0] == f_star
        assert tree.threshold[0] == pytest.approx(thr_star)
        # midpoint of the pair straddling the step
        lo = X[X[:, 0] < 0.5, 0].max()
        hi = X[X[:, 0] >= 0.5, 0].min()
        assert tree.threshold[0] == pytest.approx((lo + hi) / 2.0)

    def test_max_depth_zero_returns_mean_leaf(self):
        X = np.arange(6, dtype=float)[:, None]
        y = np.array([1.0, 2, 3, 4, 5, 6])
        tree = fit_regression_tree(X, y, max_depth=0)
        assert tree.feature.tolist() == [-1]
        assert tree.value[0] == pytest.approx(3.5)

    def test_each_row_reaches_one_leaf_and_regions_constant(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        tree = fit_regression_tree(X, y, max_depth=3)
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
            fit_regression_tree(np.empty((0, 2)), np.empty(0))


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


class TestSerialization:
    def test_stump_piecewise_constant(self):
        forest = ForestModel((stump(0, 0.0, -1.0, 2.0),),
                             ForestParams(n_estimators=1), 2)
        X = np.array([[-1.0, 9.0], [0.0, 9.0], [0.5, 9.0]])
        np.testing.assert_array_equal(forest.predict(X), [-1.0, -1.0, 2.0])

    def test_round_trip_all_kinds(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        tree = fit_regression_tree(X, y, max_depth=3)
        forest = fit_random_forest(X, y, ForestParams(n_estimators=4, max_depth=2))
        boost = fit_gradient_boosting(X, y, BoostParams(n_estimators=4, max_depth=2))
        for model in (tree, forest, boost):
            clone = model_from_json(model_to_json(model))
            np.testing.assert_allclose(clone.predict(X),
                                       model.predict(X), atol=1e-15)

    def test_boosted_params_validated(self):
        with pytest.raises(ValueError):
            BoostParams(learning_rate=0.0)
        with pytest.raises(ValueError):
            BoostParams(subsample=0.0)
        with pytest.raises(ValueError):
            BoostParams(colsample_bytree=1.5)


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

    def test_routing_depth_leaves_leaf_paths_unbuilt(self):
        # predicting takes its depth from the child arrays; the leaf-path
        # table is left for TreeSHAP, and agrees with it on the depth
        rng = np.random.default_rng(17)
        X = rng.normal(size=(40, 3))
        trees = [random_tree(rng, 3, depth=int(rng.integers(0, 7)))
                 for _ in range(30)]
        trees += fit_random_forest(X, rng.normal(size=40), ForestParams(
            n_estimators=4, max_depth=8, seed=3)).trees
        trees.append(stump(1, 0.0, 1.0, 2.0))
        for tree in trees:
            tree.predict(X)
            assert "_paths" not in tree.__dict__
            assert tree._routing[2] == tree._paths.feature.shape[1]

    def test_row_equal_to_threshold_goes_left(self):
        tree = stump(0, 0.25, -1.0, 2.0)
        X = np.array([[0.25], [np.nextafter(0.25, 1.0)], [np.nextafter(0.25, 0.0)]])
        np.testing.assert_array_equal(predict_tree(tree, X), [-1.0, 2.0, -1.0])

    def test_zero_rows_empty_output(self):
        tree = random_tree(np.random.default_rng(15), 3, depth=3)
        assert predict_tree(tree, np.empty((0, 3))).shape == (0,)
        assert tree.predict(np.empty((0, 3))).shape == (0,)

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
