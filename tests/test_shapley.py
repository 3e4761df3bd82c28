import math
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest

from forecastlab import shapley
from forecastlab.families import Standardized, fit_family
from forecastlab.linear import LinearModel, PenaltySpec
from forecastlab.shapley import (
    CHUNK_ROWS,
    TREE_CHUNK_TRIPLES,
    BackgroundSet,
    ShapMatrix,
    _coalition_table,
    _coalition_weights,
    _PathSide,
    _phi_weights,
    _uv_tables,
    exact_shapley,
    explain_matrix,
    global_importance,
    leaf_paths,
    tree_shap,
)
from forecastlab.trees import (
    BoostedModel,
    BoostParams,
    ForestModel,
    ForestParams,
    Tree,
    fit_gradient_boosting,
    fit_random_forest,
    fit_regression_tree,
    model_from_json,
    model_to_json,
)


def random_boosted_model(rng, n=30, p=6, depth=4, trees=20):
    # subsample and colsample_bytree are drawn from [0.5, 1.0), so every fit
    # takes the row and column subsampling branches
    X = rng.normal(size=(n, p))
    y = rng.normal(size=n)
    return fit_gradient_boosting(X, y, BoostParams(
        learning_rate=float(rng.uniform(0.05, 0.5)),
        n_estimators=int(rng.integers(1, trees + 1)),
        max_depth=int(rng.integers(1, depth + 1)),
        subsample=float(rng.uniform(0.5, 1.0)),
        colsample_bytree=float(rng.uniform(0.5, 1.0)),
        reg_lambda=float(rng.uniform(0.0, 2.0)),
        seed=int(rng.integers(0, 2**31)))), X


class TestExactShapley:
    def test_constant_predictor_zero_phi(self):
        bg = BackgroundSet(np.random.default_rng(0).normal(size=(5, 3)))
        phi = exact_shapley(lambda X: np.full(X.shape[0], 2.0),
                            np.array([1.0, 2.0, 3.0]), bg)
        np.testing.assert_array_equal(phi, np.zeros(3))

    def test_linear_predictor_closed_form(self):
        rng = np.random.default_rng(1)
        beta = np.array([1.5, -2.0, 0.3, 0.0])
        b0 = 4.0
        bg = BackgroundSet(rng.normal(size=(12, 4)))
        x = rng.normal(size=4)
        phi = exact_shapley(lambda X: b0 + X @ beta, x, bg)
        expected = beta * (x - bg.rows.mean(axis=0))
        np.testing.assert_allclose(phi, expected, atol=1e-10)

    def test_product_hand_enumeration(self):
        # f = x1*x2, x = (2,3), background = single row (0,1):
        # v() = 0, v({1}) = 2, v({2}) = 0, v({1,2}) = 6 -> phi = (4, 2)
        bg = BackgroundSet(np.array([[0.0, 1.0]]))
        f = lambda X: X[:, 0] * X[:, 1]
        phi = exact_shapley(f, np.array([2.0, 3.0]), bg)
        np.testing.assert_allclose(phi, [4.0, 2.0], atol=1e-12)
        assert 0.0 + phi.sum() == pytest.approx(6.0)

    def test_feature_cap(self):
        bg = BackgroundSet(np.zeros((1, 16)))
        with pytest.raises(ValueError, match="capped"):
            exact_shapley(lambda X: X.sum(axis=1), np.zeros(16), bg)

    def test_symmetry_on_additive_predictor(self):
        bg = BackgroundSet(np.array([[0.5, 0.5]]))
        f = lambda X: X[:, 0] + X[:, 1]
        phi = exact_shapley(f, np.array([2.0, 2.0]), bg)
        assert phi[0] == phi[1]


def loop_exact_shapley(predict, x, background):
    """Reference oracle: one predict call per coalition, phi accumulated
    mask by mask (the engine's original per-coalition loop)."""
    x = np.asarray(x, dtype=float).ravel()
    p = x.shape[0]
    w = _coalition_weights(p)
    v = np.empty(1 << p)
    members = [np.nonzero([(mask >> j) & 1 for j in range(p)])[0]
               for mask in range(1 << p)]
    for mask in range(1 << p):
        composed = np.array(background.rows)
        composed[:, members[mask]] = x[members[mask]]
        v[mask] = float(np.mean(predict(composed)))
    phi = np.zeros(p)
    for mask in range(1 << p):
        s = len(members[mask])
        for i in range(p):
            if not (mask >> i) & 1:
                phi[i] += w[s] * (v[mask | (1 << i)] - v[mask])
    return phi


def chunked_exact_shapley(predict, x, background, chunk_rows=2048):
    """Reference oracle: the enumeration engine before the Gray-code walk.
    Coalitions go in ascending order, max(1, chunk_rows // B) a predict call,
    each chunk composed by one np.where over a repeated membership mask."""
    x = np.asarray(x, dtype=float).ravel()
    p = x.shape[0]
    B = background.size
    w = _coalition_weights(p)
    inside = (np.arange(1 << p)[:, None] >> np.arange(p)) & 1 == 1
    sizes = inside.sum(axis=1)
    n = 1 << p
    v = np.empty(n)
    step = min(max(1, chunk_rows // B), n)
    x_rows = np.tile(x, (step * B, 1))
    back_rows = np.tile(background.rows, (step, 1))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        size = (hi - lo) * B
        mask = np.repeat(inside[lo:hi], B, axis=0)
        composed = np.where(mask, x_rows[:size], back_rows[:size])
        preds = np.asarray(predict(composed))
        v[lo:hi] = np.add.reduce(preds.reshape(hi - lo, B), axis=1) / B
    phi = np.empty(p)
    for i in range(p):
        masks = np.flatnonzero(~inside[:, i])
        terms = w[sizes[masks]] * (v[masks | (1 << i)] - v[masks])
        phi[i] = np.cumsum(np.concatenate(([0.0], terms)))[-1]
    return phi


def rowwise(Z):
    return np.sin(Z[:, 0]) * Z[:, -1] + (Z ** 2).sum(axis=1) - Z[:, 0] * 0.5


class CountingPredict:
    """Records each call's row count and which columns changed since the
    previous call (None for the first call)."""

    def __init__(self, predict):
        self.predict = predict
        self.rows = []
        self.changed = []
        self.last = None

    def __call__(self, Z):
        self.rows.append(Z.shape[0])
        if self.last is not None and self.last.shape == Z.shape:
            self.changed.append(np.flatnonzero((self.last != Z).any(axis=0)).tolist())
        elif self.last is not None:
            self.changed.append(None)
        self.last = np.array(Z)
        return self.predict(Z)


def four_row_aligned(predict):
    """predict on the call padded with zero rows to a multiple of 4 rows.
    BLAS matrix-vector kernels score rows in groups of 4 and a call's last
    len % 4 rows by another kernel, which may round a row's sum differently
    in the last bit. Padded, every row gets the 4-row kernel's bits
    whatever the call's size, so two call layouts can be compared bytewise."""
    def aligned(Z):
        pad = np.zeros((-len(Z) % 4, Z.shape[1]))
        return np.asarray(predict(np.vstack([Z, pad])))[:len(Z)]
    return aligned


def slot_count(p, B):
    """The largest power of two <= max(1, CHUNK_ROWS // B), at most 2**p."""
    slots = 1
    while slots * 2 <= min(max(1, CHUNK_ROWS // B), 2 ** p):
        slots *= 2
    return slots


LINEAR = [("ridge", {"lam": 0.1}), ("lasso", {"lam": 0.05}),
          ("elastic_net", {"lam": 0.05, "alpha": 0.5}), ("ols", {})]
SVR = [("svr", {"C": 2.0, "epsilon": 0.05, "kernel": "linear"}),
       ("svr", {"C": 2.0, "epsilon": 0.05, "kernel": "rbf"}),
       ("svr", {"C": 1.0, "epsilon": 0.05, "kernel": "polynomial", "degree": 2,
                "coef0": 1.0})]


def enumeration_cases(rng, families, n_cases):
    """(fitted inner model, x, background) with p in 1..12 and B in 1..130;
    the first cases pin B = 1 and a B that 4 does not divide."""
    for case in range(n_cases):
        family, params = families[case % len(families)]
        p = int(rng.integers(1, 13))
        B = [1, 67][case] if case < 2 else int(rng.integers(1, 131))
        X = rng.normal(size=(60, p))
        y = X @ rng.normal(size=p) + 0.1 * rng.normal(size=60)
        model = fit_family(family, X, y, params).model
        yield model, rng.normal(size=p), BackgroundSet(rng.normal(size=(B, p)))


def assert_close_relative(phi, want, rel):
    assert np.abs(phi - want).max() <= rel * np.abs(want).max()


class TestBatchedEnumeration:
    def test_tree_models_bit_identical_to_loop(self):
        rng = np.random.default_rng(20)
        X = rng.normal(size=(80, 6))
        y = X[:, 0] * X[:, 1] + rng.normal(size=80)
        forest = fit_random_forest(X, y, ForestParams(
            n_estimators=6, max_depth=4, max_features=3, seed=3))
        boosted, Xb = random_boosted_model(rng, n=80, p=6)
        for model, data in ((forest, X), (boosted, Xb)):
            for B in (1, 5, 67):
                bg = BackgroundSet(data[:B])
                for x in data[70:73]:
                    assert (exact_shapley(model.predict, x, bg).tobytes()
                            == loop_exact_shapley(model.predict, x, bg).tobytes())

    @pytest.mark.parametrize("p", [1, 5, 12, 15])
    def test_tree_models_bit_identical_to_loop_across_p(self, p):
        # small models, so the per-coalition oracle stays cheap at p = 15
        rng = np.random.default_rng(26 + p)
        X = rng.normal(size=(80, p))
        y = X[:, 0] * X[:, -1] + rng.normal(size=80)
        forest = fit_random_forest(X, y, ForestParams(
            n_estimators=2, max_depth=4, max_features=max(1, p // 2), seed=3))
        boosted, Xb = random_boosted_model(rng, n=80, p=p, depth=3, trees=4)
        sizes = (1, 5, 67) if p < 12 else (5,) if p == 15 else (1, 67)
        for model, data in ((forest, X), (boosted, Xb)):
            for B in sizes:
                bg = BackgroundSet(data[:B])
                assert (exact_shapley(model.predict, data[75], bg).tobytes()
                        == loop_exact_shapley(model.predict, data[75], bg).tobytes())

    @pytest.mark.parametrize("p", [1, 5, 12, 15])
    def test_rowwise_function_bit_identical_to_loop(self, p):
        rng = np.random.default_rng(21)
        for B in (1, 5, 67, 68) if p < 15 else (1, 68):
            bg = BackgroundSet(rng.normal(size=(B, p)))
            x = rng.normal(size=p)
            assert (exact_shapley(rowwise, x, bg).tobytes()
                    == loop_exact_shapley(rowwise, x, bg).tobytes())

    @pytest.mark.parametrize("family,params", [
        ("ridge", {"lam": 0.1}),
        ("svr", {"C": 2.0, "epsilon": 0.05, "kernel": "rbf"}),
    ])
    @pytest.mark.parametrize("p", [1, 5, 12])
    def test_blas_models_match_loop(self, family, params, p):
        # gemv/gemm remainder paths may round the last bit differently
        # when the batch grows, so agreement is to 1e-12, not bitwise
        rng = np.random.default_rng(22 + p)
        X = rng.normal(size=(100, p))
        y = X @ rng.normal(size=p) + np.sin(X[:, 0]) + 0.1 * rng.normal(size=100)
        model = fit_family(family, X, y, params)
        assert isinstance(model, Standardized)
        for B in (1, 5, 67, 68, 100):
            bg = BackgroundSet(X[:B])
            x = X[75]
            np.testing.assert_allclose(
                exact_shapley(model.predict, x, bg),
                loop_exact_shapley(model.predict, x, bg), rtol=0, atol=1e-12)

    def test_linear_families_bytes_equal_chunked(self):
        # every case is bytewise equal once each call is 4-row aligned; a
        # case whose calls already are (both engines) is equal as it stands,
        # and a ragged one only in the last bits of a few rows' sums
        cases = list(enumeration_cases(np.random.default_rng(60), LINEAR, 160))
        sizes = [bg.size for _, _, bg in cases]
        assert 1 in sizes and any(B % 4 for B in sizes)
        unpadded = 0
        for model, x, bg in cases:
            new, old = CountingPredict(model.predict), CountingPredict(model.predict)
            phi, want = exact_shapley(new, x, bg), chunked_exact_shapley(old, x, bg)
            if not any(n % 4 for n in new.rows + old.rows):
                assert phi.tobytes() == want.tobytes()
                unpadded += 1
            else:
                assert_close_relative(phi, want, 1e-15)
            aligned = four_row_aligned(model.predict)
            assert (exact_shapley(aligned, x, bg).tobytes()
                    == chunked_exact_shapley(aligned, x, bg).tobytes())
        assert unpadded >= 100 and len(cases) - unpadded >= 20

    def test_svr_kernels_match_chunked(self):
        # SvrModel.predict scores rows in blocks of whole 4-row groups, so
        # where a row falls in a block moves with the call's size; aligned
        # calls are bytewise equal, raw ones agree to 1e-15 of max |phi|
        for model, x, bg in enumeration_cases(np.random.default_rng(61), SVR, 45):
            assert_close_relative(exact_shapley(model.predict, x, bg),
                                  chunked_exact_shapley(model.predict, x, bg), 1e-15)
            aligned = four_row_aligned(model.predict)
            assert (exact_shapley(aligned, x, bg).tobytes()
                    == chunked_exact_shapley(aligned, x, bg).tobytes())

    def test_background_larger_than_chunk(self):
        rng = np.random.default_rng(23)
        bg = BackgroundSet(rng.normal(size=(CHUNK_ROWS + 3, 3)))
        x = rng.normal(size=3)
        counting = CountingPredict(rowwise)
        phi = exact_shapley(counting, x, bg)
        assert counting.rows == [CHUNK_ROWS + 3] * 8
        assert phi.tobytes() == loop_exact_shapley(rowwise, x, bg).tobytes()

    def test_background_not_dividing_chunk(self):
        # B = 100: 81 coalitions would fit a call, 64 slots are used, and
        # the 2**2 steps of the low 2 features make 4 calls of 6400 rows
        rng = np.random.default_rng(24)
        B = 100
        assert CHUNK_ROWS % B and slot_count(8, B) == 64
        bg = BackgroundSet(rng.normal(size=(B, 8)))
        x = rng.normal(size=8)
        counting = CountingPredict(rowwise)
        phi = exact_shapley(counting, x, bg)
        assert counting.rows == [64 * B] * 4
        assert phi.tobytes() == loop_exact_shapley(rowwise, x, bg).tobytes()

    @pytest.mark.parametrize("p,B", [(1, 1), (5, 67), (12, 68), (12, 1),
                                     (3, 2049), (3, 4097), (3, CHUNK_ROWS + 1),
                                     (6, 100)])
    def test_predict_calls_per_chunk(self, p, B):
        rng = np.random.default_rng(25)
        bg = BackgroundSet(rng.normal(size=(B, p)))
        counting = CountingPredict(rowwise)
        exact_shapley(counting, rng.normal(size=p), bg)
        slots = slot_count(p, B)
        low = p - slots.bit_length() + 1
        # 2**low calls of slots * B rows: each coalition's B rows once
        assert counting.rows == [slots * B] * 2 ** low
        assert sum(counting.rows) == 2 ** p * B
        assert max(counting.rows) <= max(B, CHUNK_ROWS)
        # reflected Gray order over the low features: call g rewrites only
        # the column of feature ctz(g)
        assert counting.changed == [[(g & -g).bit_length() - 1]
                                    for g in range(1, 2 ** low)]


class TestPhiWeightCache:
    def test_read_only_and_built_once_per_p(self):
        _phi_weights.cache_clear()
        for p in (3, 7, 3, 7, 3):
            exact_shapley(rowwise, np.arange(p, dtype=float),
                          BackgroundSet(np.ones((2, p))))
        info = _phi_weights.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 3, 2)
        for p in (3, 7):
            inside, sizes = _coalition_table(p)
            w = _coalition_weights(p)
            weights = _phi_weights(p)
            assert weights.shape == (p, 2 ** (p - 1))
            with pytest.raises(ValueError, match="read-only"):
                weights[0, 0] = 1.0
            for i in range(p):
                masks = np.flatnonzero(~inside[:, i])
                assert weights[i].tobytes() == w[sizes[masks]].tobytes()


def raw_space_phi(model, rows, background):
    """Reference oracle: enumeration through the model's own predict on raw
    composed rows, one exact_shapley call per row."""
    return np.stack([exact_shapley(model.predict, r, background) for r in rows])


STANDARDIZING = [
    ("ridge", {"lam": 0.1}),
    ("lasso", {"lam": 0.05}),
    ("elastic_net", {"lam": 0.05, "alpha": 0.5}),
    ("ols", {}),
    ("svr", {"C": 2.0, "epsilon": 0.05, "kernel": "linear"}),
    ("svr", {"C": 2.0, "epsilon": 0.05, "kernel": "rbf"}),
    ("svr", {"C": 1.0, "epsilon": 0.05, "kernel": "polynomial", "degree": 2,
             "coef0": 1.0}),
]
STANDARDIZING_IDS = [f"{f}-{p['kernel']}" if "kernel" in p else f
                     for f, p in STANDARDIZING]


class TestStandardizedEnumeration:
    """explain_matrix enumerates a `Standardized` model's inner model over
    standardized rows; its attributions must equal raw-space enumeration
    byte for byte."""

    @staticmethod
    def fitted(family, params, p, rng, n=40, constant=None):
        X = rng.normal(loc=3.0, scale=2.0, size=(n, p))
        if constant is not None:
            X[:, constant] = 7.5
        y = X @ rng.normal(size=p) + np.sin(X[:, 0]) + 0.1 * rng.normal(size=n)
        return fit_family(family, X, y, params), X

    def assert_bytes_equal(self, model, rows, bg):
        m = explain_matrix(model, rows, bg)
        assert m.phi.tobytes() == raw_space_phi(model, rows, bg).tobytes()
        assert m.base_value == float(np.mean(model.predict(bg.rows)))
        assert m.predictions.tobytes() == model.predict(rows).tobytes()

    @pytest.mark.parametrize("family,params", STANDARDIZING,
                             ids=STANDARDIZING_IDS)
    @pytest.mark.parametrize("p", [1, 5, 12])
    def test_phi_bytes_equal_raw_space(self, family, params, p):
        rng = np.random.default_rng(30 + p)
        model, X = self.fitted(family, params, p, rng)
        assert isinstance(model, Standardized)
        n_rows = 2 if p == 12 else 4
        for B in (1, 5, 67, 68):
            bg = BackgroundSet(rng.normal(loc=3.0, scale=2.0, size=(B, p)))
            self.assert_bytes_equal(model, X[:n_rows], bg)

    @pytest.mark.parametrize("family,params", STANDARDIZING,
                             ids=STANDARDIZING_IDS)
    def test_constant_training_column(self, family, params):
        # the zero-variance column keeps scale 1 and its mean as center
        rng = np.random.default_rng(40)
        model, X = self.fitted(family, params, 5, rng, constant=2)
        assert model.stats.scales[2] == 1.0
        rows = X[:4].copy()
        rows[1:, 2] = [-1.0, 7.5, 30.0]
        self.assert_bytes_equal(model, rows, BackgroundSet(X[10:17]))

    @pytest.mark.parametrize("family,params", STANDARDIZING,
                             ids=STANDARDIZING_IDS)
    def test_rows_outside_training_range(self, family, params):
        rng = np.random.default_rng(41)
        model, X = self.fitted(family, params, 6, rng)
        rows = np.vstack([X.max(axis=0) * 10 + 50, X.min(axis=0) * 10 - 50,
                          -X[0] * 1e6, np.full(6, 1e-300)])
        self.assert_bytes_equal(model, rows, BackgroundSet(X[:9]))

    @pytest.mark.parametrize("family,params", STANDARDIZING,
                             ids=STANDARDIZING_IDS)
    def test_fortran_ordered_rows(self, family, params):
        # the standardization keeps Fortran-ordered rows Fortran-ordered (a
        # BackgroundSet copies to C order); the composed rows still reach
        # predict C-ordered, and the bytes equal those of C-ordered inputs
        rng = np.random.default_rng(43)
        model, X = self.fitted(family, params, 6, rng)
        rows, bg = np.asfortranarray(X[:4]), BackgroundSet(np.asfortranarray(X[10:19]))
        assert model.stats.transform(rows).flags.f_contiguous
        assert not rows.flags.c_contiguous
        self.assert_bytes_equal(model, rows, bg)
        want = explain_matrix(model, X[:4].copy(), BackgroundSet(X[10:19].copy()))
        assert explain_matrix(model, rows, bg).phi.tobytes() == want.phi.tobytes()

        def c_ordered(Z):
            assert Z.flags.c_contiguous
            return model.predict(Z)
        exact_shapley(c_ordered, rows[0], bg)

    def test_model_without_standardization_unchanged(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(30, 4))
        model = LinearModel(0.5, rng.normal(size=4), converged=True,
                            n_sweeps=0, jitter_applied=False)
        self.assert_bytes_equal(model, X[:3], BackgroundSet(X[5:12]))


def recursive_tree_shap(model, x, background):
    """Reference oracle: the engine's original recursion, once per query row
    and tree, splitting the background rows at every node they part from
    the query row; phi accumulated leaf by leaf in visit order."""
    x = np.asarray(x, dtype=float).ravel()
    p = x.shape[0]
    rows_b = background.rows
    B = rows_b.shape[0]
    pos, neg = _uv_tables(p)
    phi = np.zeros(p)
    for tree, scale in model.tree_terms():
        feature = tree.feature.tolist()
        threshold = tree.threshold.tolist()
        left = tree.children_left.tolist()
        right = tree.children_right.tolist()
        value = tree.value.tolist()

        def recurse(node, rows, u_feats, v_feats):
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
            z_left = rows_b[rows, f] <= thr
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
    return phi


def triple_tree_shap_matrix(model, X, background):
    """Reference oracle: the array kernel before background grouping. It
    scores every (query row, leaf, background row) triple, regroups the
    surviving triples of one query row and tree by digit string with a
    lexsort, and sums each phi[row, i] with a stable argsort and a padded
    cumsum from 0.0."""
    n_rows, p = X.shape
    B = background.size
    phi = np.zeros((n_rows, p))
    ensemble = leaf_paths(model.tree_terms())
    if ensemble is None or ensemble[0].feature.shape[1] == 0:
        return phi
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


def assert_matches_recursion(model, rows, background):
    """explain_matrix (a block of rows) and tree_shap of each one row both
    equal the recursion byte for byte, row by row."""
    m = explain_matrix(model, rows, background)
    assert m.phi.shape == rows.shape
    for r, x in enumerate(rows):
        expected = recursive_tree_shap(model, x, background).tobytes()
        assert m.phi[r].tobytes() == expected, r
        phi = tree_shap(model, x, background)
        assert phi.shape == x.shape and phi.tobytes() == expected, r
    return m


def chain_tree(depth, p, rng):
    """Every left child a leaf, the right child the next split; step k
    tests feature k % p at a threshold rising with k, so features repeat
    along the path at different thresholds."""
    nodes = []
    for k in range(depth):
        nodes.append([k % p, -1.0 + 2.0 * k / depth, len(nodes) + 1,
                      len(nodes) + 2, 0.0, 1.0])
        nodes.append([-1, 0.0, -1, -1, float(rng.normal()), 1.0])
    nodes.append([-1, 0.0, -1, -1, float(rng.normal()), 1.0])
    # preorder: node 2k splits, 2k+1 is its left leaf, 2k+2 its right child
    return Tree(*zip(*nodes))


class TestTreeShap:
    def test_depth_one_tree_only_split_feature_attributed(self):
        tree = Tree(feature=[1, -1, -1], threshold=[0.0, 0.0, 0.0],
                    children_left=[1, -1, -1], children_right=[2, -1, -1],
                    value=[0.0, -1.0, 3.0], cover=[0.0, 0.0, 0.0])
        bg = BackgroundSet(np.random.default_rng(2).normal(size=(6, 4)))
        phi = tree_shap(ForestModel((tree,), 4),
                        np.array([0.0, 2.0, 0.0, 0.0]), bg)
        assert phi[0] == 0.0 and phi[2] == 0.0 and phi[3] == 0.0

    def test_matches_exact_on_single_tree(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 5))
        y = rng.normal(size=40)
        model = ForestModel((fit_regression_tree(X, gradients=-y, max_depth=4),), 5)
        bg = BackgroundSet(X[:7])
        predict = lambda Z: model.predict(Z)
        for r in range(5):
            np.testing.assert_allclose(tree_shap(model, X[r], bg),
                                       exact_shapley(predict, X[r], bg),
                                       atol=1e-11)

    def test_matches_exact_on_random_boosted_models(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(10):
            model, X = random_boosted_model(rng)
            bg = BackgroundSet(X[rng.choice(len(X), size=8, replace=False)])
            rows = X[rng.choice(len(X), size=5, replace=False)]
            predict = lambda Z: model.predict(Z)
            for x in rows:
                diff = np.abs(tree_shap(model, x, bg)
                              - exact_shapley(predict, x, bg)).max()
                worst = max(worst, diff)
        assert worst <= 1e-9

    def test_matches_exact_on_forest(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(35, 4))
        y = X[:, 0] * X[:, 1] + rng.normal(size=35)
        model = fit_random_forest(X, y, ForestParams(
            n_estimators=10, max_depth=3, max_features=2, seed=9))
        bg = BackgroundSet(X[:6])
        predict = lambda Z: model.predict(Z)
        for x in X[:4]:
            np.testing.assert_allclose(tree_shap(model, x, bg),
                                       exact_shapley(predict, x, bg), atol=1e-10)

    def test_ensemble_linearity_over_trees(self):
        rng = np.random.default_rng(6)
        model, X = random_boosted_model(rng, trees=8)
        bg = BackgroundSet(X[:5])
        x = X[0]
        total = np.zeros(X.shape[1])
        for tree in model.trees:
            total += model.learning_rate * tree_shap(
                ForestModel((tree,), X.shape[1]), x, bg)
        np.testing.assert_allclose(tree_shap(model, x, bg), total, atol=1e-12)

    def test_non_tree_model_rejected(self):
        bg = BackgroundSet(np.zeros((1, 2)))
        for X in (np.zeros(2), np.zeros((3, 2))):
            with pytest.raises(TypeError, match="tree"):
                tree_shap(lambda X: X.sum(axis=1), X, bg)

    def test_bare_tree_rejected(self):
        # a Tree is a node record: TreeSHAP explains it as a one-tree forest
        tree = Tree(feature=[0, -1, -1], threshold=[0.0, 0.0, 0.0],
                    children_left=[1, -1, -1], children_right=[2, -1, -1],
                    value=[0.0, -1.0, 3.0], cover=[0.0, 0.0, 0.0])
        bg = BackgroundSet(np.zeros((1, 2)))
        with pytest.raises(TypeError, match="not a tree model: Tree"):
            tree_shap(tree, np.ones(2), bg)
        with pytest.raises(TypeError):
            explain_matrix(tree, np.ones((1, 2)), bg)

    def test_uv_tables_read_only(self):
        # every caller shares the cached tables
        pos, neg = _uv_tables(4)
        assert _uv_tables(4)[0] is pos and _uv_tables(4)[1] is neg
        for table in (pos, neg):
            with pytest.raises(ValueError, match="read-only"):
                table[1, 0] = 1.0

    def test_attributions_survive_json_round_trip(self):
        rng = np.random.default_rng(14)
        model, X = random_boosted_model(rng, trees=6)
        clone = model_from_json(model_to_json(model))
        bg = BackgroundSet(X[:6])
        np.testing.assert_array_equal(tree_shap(model, X[0], bg),
                                      tree_shap(clone, X[0], bg))


def padded_paths(n_leaves, depth):
    """[leaf, feature, threshold, go_left, first] of n_leaves paths made of
    padding steps only."""
    shape = (n_leaves, depth)
    return [np.zeros(n_leaves, dtype=np.intp), np.zeros(shape, dtype=np.intp),
            np.full(shape, math.nan), np.zeros(shape, dtype=bool),
            np.tile(np.arange(depth, dtype=np.intp), (n_leaves, 1))]


def tree_path_table(tree):
    """One tree's table, padded to its own depth: its leaves in preorder and
    their paths, from one walk of the tree."""
    feature = tree.feature.tolist()
    left = tree.children_left.tolist()
    right = tree.children_right.tolist()
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
    table = padded_paths(len(leaves), depth)
    table[0][:] = leaves
    table[1].flat[at] = tree.feature[nodes]
    table[2].flat[at] = tree.threshold[nodes]
    table[3].flat[at] = go_left
    table[4].flat[at] = first
    return table


def stacked_path_table(model):
    """Reference oracle: the table built in two stages. Each tree's table is
    padded to the deepest tree and copied into one stacked table, whose leaf
    column looks up the weights. Returns (feature, threshold, go_left,
    first, tree_of, weight), or None without trees; first[l, k] is the first
    step of leaf l's path on step k's feature (k itself on first use and on
    padding)."""
    terms = list(model.tree_terms())
    if not terms:
        return None
    tables = [tree_path_table(tree) for tree, _ in terms]
    out = padded_paths(sum(len(t[0]) for t in tables),
                       max(t[1].shape[1] for t in tables))
    lo = 0
    for t in tables:
        hi, depth = lo + len(t[0]), t[1].shape[1]
        out[0][lo:hi] = t[0]
        for dst, src in zip(out[1:], t[1:]):
            dst[lo:hi, :depth] = src
        lo = hi
    tree_of = np.repeat(np.arange(len(terms)), [len(t[0]) for t in tables])
    weight = np.concatenate([scale * tree.value[t[0]]
                             for (tree, scale), t in zip(terms, tables)])
    return (*out[1:], tree_of, weight)


def leaf_path_models(rng):
    """Tree models of every kind that TreeSHAP explains, each with rows of
    its width."""
    for _ in range(60):
        n, p = int(rng.integers(8, 60)), int(rng.integers(1, 8))
        X = rng.normal(size=(n, p))
        if rng.random() < 0.5:
            X = np.round(X, 1)  # repeated values
        draw = int(rng.integers(1, p + 1)) if rng.random() < 0.7 else None
        yield fit_random_forest(X, X[:, 0] + rng.normal(size=n), ForestParams(
            n_estimators=int(rng.integers(1, 7)),
            max_depth=int(rng.integers(0, 10)), max_features=draw,
            min_samples_leaf=int(rng.integers(1, 4)),
            seed=int(rng.integers(0, 2**31)))), X
    for _ in range(60):
        yield random_boosted_model(rng, n=int(rng.integers(10, 50)),
                                   p=int(rng.integers(2, 8)), depth=6, trees=12)
    for _ in range(40):
        n, p = int(rng.integers(4, 30)), int(rng.integers(1, 5))
        X = rng.normal(size=(n, p))
        trees = tuple(fit_regression_tree(X, gradients=-rng.normal(size=n),
                                          max_depth=int(rng.integers(0, 2)))
                      for _ in range(int(rng.integers(1, 6))))
        yield ForestModel(trees, p), X
        yield ForestModel(trees[-1:], p), X
    chain = chain_tree(40, 3, rng)
    # rows part from the path at many depths; the first ones part beyond
    # step 31 or reach the bottom
    grid = np.linspace(-1.0, 1.1, 8)
    X = np.stack(np.meshgrid(grid, grid[1::2], grid[::-3]),
                 axis=-1).reshape(-1, 3)[::-1]
    yield ForestModel((chain,), 3), X
    yield BoostedModel(0.0, 0.3, (chain, Tree([-1], [0.0], [-1], [-1], [1.5],
                                              [1.0])), 3), X
    yield BoostedModel(0.5, 0.1, (), 2), X[:, :2]


def fold_from_first(first):
    """LeafPaths.fold from the first-step table: round r holds the r-th
    retest of each (leaf, feature), as (first step, retest) flat indices,
    by leaf and then step."""
    depth = first.shape[1]
    leaves, steps = np.nonzero(first != np.arange(depth))  # by leaf, then step
    targets = leaves * depth + first[leaves, steps]
    rounds = np.array([np.count_nonzero(targets[:i][leaves[:i] == leaves[i]]
                                        == targets[i])
                       for i in range(len(targets))], dtype=np.intp)
    return [(targets[rounds == r], (leaves * depth + steps)[rounds == r])
            for r in range(rounds.max(initial=-1) + 1)]


class TestLeafPathTable:
    def test_equals_two_stage_oracle(self):
        models = [m for m, _ in leaf_path_models(np.random.default_rng(49))]
        models += [model_from_json(model_to_json(m)) for m in models[::4]]
        assert len(models) >= 200
        widths, retests = set(), 0
        for model in models:
            want = stacked_path_table(model)
            table = leaf_paths(model.tree_terms())
            if want is None:
                assert table is None
                continue
            paths, tree_of, weight = table
            widths.add(paths.feature.shape[1])
            feature, threshold, go_left, first, *rest = want
            got = [*paths[:3], tree_of, weight]
            ref = [feature, threshold, go_left, *rest]
            fold = fold_from_first(first)
            assert len(paths.fold) == len(fold)
            for pair, ref_pair in zip(paths.fold, fold):
                got += pair
                ref += ref_pair
            for a, b in zip(got, ref, strict=True):
                assert a.dtype == b.dtype
                assert a.shape == b.shape
                assert a.tobytes() == b.tobytes()
            retests += sum(len(r) for _, r in fold)
        assert 0 in widths and 40 in widths
        assert retests

    def test_read_only_and_kept_off_the_model(self):
        # the table's arrays are read-only, and explaining a model leaves
        # nothing on it: tree_shap builds the table on each call
        rng = np.random.default_rng(48)
        boosted, X = random_boosted_model(rng, trees=6)
        forest = fit_random_forest(X, rng.normal(size=len(X)), ForestParams(
            n_estimators=3, max_depth=4, seed=1))
        bg = BackgroundSet(X[:8])
        for model in (boosted, forest,
                      ForestModel(forest.trees[:1], X.shape[1])):
            first = tree_shap(model, X[0], bg)
            paths, tree_of, weight = leaf_paths(model.tree_terms())
            arrays = [*paths[:3], tree_of, weight]
            arrays += [a for pair in paths.fold for a in pair]
            assert not any(a.flags.writeable for a in arrays)
            m = explain_matrix(model, X[:3], bg)
            assert set(vars(model)) == {f.name for f in fields(model)}
            assert m.phi[0].tobytes() == first.tobytes()

    def test_reads_only_tree_terms(self):
        rng = np.random.default_rng(52)
        boosted, X = random_boosted_model(rng, trees=6)
        forest = fit_random_forest(X, rng.normal(size=len(X)), ForestParams(
            n_estimators=3, max_depth=4, max_features=2, seed=3))
        bg = BackgroundSet(X[:8])

        class Terms:
            """An ensemble with no method but `tree_terms()`."""

            def __init__(self, terms):
                self.terms = terms

            def tree_terms(self):
                return self.terms

        for model in (forest, boosted):
            want = tree_shap(model, X, bg)
            got = tree_shap(Terms(model.tree_terms()), X, bg)
            assert got.tobytes() == want.tobytes()

    def test_empty_booster_has_no_table(self):
        model = BoostedModel(0.5, 0.1, (), 2)
        assert leaf_paths(model.tree_terms()) is None
        assert not tree_shap(model, np.zeros(2),
                             BackgroundSet(np.ones((3, 2)))).any()


class TestArrayTreeShap:
    def test_forests_bit_identical_to_recursion(self):
        rng = np.random.default_rng(40)
        for seed in range(6):
            p = int(rng.integers(2, 9))
            X = np.round(rng.normal(size=(50, p)), 1)  # repeated values
            y = X[:, 0] * (X[:, -1] > 0) + rng.normal(size=50)
            model = fit_random_forest(X, y, ForestParams(
                n_estimators=int(rng.integers(1, 8)),
                max_depth=int(rng.integers(1, 10)),
                max_features=int(rng.integers(1, p + 1)), seed=seed))
            bg = BackgroundSet(X[rng.choice(50, size=int(rng.integers(2, 20)))])
            assert_matches_recursion(model, X[:8], bg)

    def test_colsampled_boosted_models_bit_identical_to_recursion(self):
        rng = np.random.default_rng(41)
        for _ in range(6):
            model, X = random_boosted_model(rng, n=40, p=7, depth=5, trees=25)
            bg = BackgroundSet(X[rng.choice(40, size=9, replace=False)])
            assert_matches_recursion(model, X[:6], bg)

    def test_feature_split_twice_along_a_path(self):
        # root x0 <= 0; its left child x0 <= -1; its right child x1 <= 0.5,
        # whose left child splits x0 again at 1
        tree = Tree(
            feature=[0, 0, -1, -1, 1, 0, -1, -1, -1],
            threshold=[0.0, -1.0, 0.0, 0.0, 0.5, 1.0, 0.0, 0.0, 0.0],
            children_left=[1, 2, -1, -1, 5, 6, -1, -1, -1],
            children_right=[4, 3, -1, -1, 8, 7, -1, -1, -1],
            value=[0.0, 0.0, -2.0, 1.0, 0.0, 0.5, 3.0, -1.5, 4.0],
            cover=[1.0] * 9)
        model = ForestModel((tree,), 2)
        grid = np.array([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5])
        rows = np.array([[a, b] for a in grid for b in grid[::2]])
        assert_matches_recursion(model, rows, BackgroundSet(rows[::3]))
        x = np.array([1.5, 0.0])
        np.testing.assert_allclose(tree_shap(model, x, BackgroundSet(rows)),
                                   exact_shapley(model.predict, x,
                                                 BackgroundSet(rows)),
                                   atol=1e-12)

    def test_single_leaf_tree_and_empty_ensemble_all_zero(self):
        leaf = Tree(feature=[-1], threshold=[0.0], children_left=[-1],
                    children_right=[-1], value=[2.5], cover=[1.0])
        X = np.random.default_rng(42).normal(size=(5, 3))
        bg = BackgroundSet(X[:3])
        m = assert_matches_recursion(ForestModel((leaf,), 3), X, bg)
        assert not m.phi.any() and m.base_value == 2.5
        no_trees = BoostedModel(1.0, 0.1, (), 3)
        assert not explain_matrix(no_trees, X, bg).phi.any()
        # a stump next to a single-leaf tree: only the stump attributes
        stump = Tree(feature=[1, -1, -1], threshold=[0.0, 0.0, 0.0],
                     children_left=[1, -1, -1], children_right=[2, -1, -1],
                     value=[0.0, -1.0, 3.0], cover=[0.0, 0.0, 0.0])
        mixed = ForestModel((leaf, stump), 3)
        assert_matches_recursion(mixed, X, bg)

    def test_single_background_row(self):
        rng = np.random.default_rng(43)
        model, X = random_boosted_model(rng, n=40, p=5, depth=4, trees=12)
        for b in range(3):
            assert_matches_recursion(model, X[:10], BackgroundSet(X[b:b + 1]))

    def test_queries_on_thresholds(self):
        rng = np.random.default_rng(44)
        X = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(60, 4))
        y = X.sum(axis=1) + rng.normal(size=60)
        model = fit_random_forest(X, y, ForestParams(
            n_estimators=4, max_depth=6, max_features=2, seed=1))
        # each query is a training row moved onto one split's threshold
        rows = []
        for tree in model.trees:
            for node in np.flatnonzero(tree.feature >= 0)[:4]:
                row = X[len(rows)].copy()
                row[tree.feature[node]] = tree.threshold[node]
                rows.append(row)
        rows = np.array(rows)
        bg = BackgroundSet(np.vstack([X[:6], rows[::4]]))
        assert_matches_recursion(model, rows, bg)

    def test_chain_deeper_than_one_key_word(self):
        rng = np.random.default_rng(45)
        p, depth = 3, 40
        tree = ForestModel((chain_tree(depth, p, rng),), p)
        assert leaf_paths(tree.tree_terms())[0].feature.shape[1] == depth
        # rows survive to different depths; the all-1.05 rows reach the
        # bottom, so pairs part beyond step 31
        rows = np.vstack([rng.uniform(-1.0, 1.1, size=(8, p)),
                          rng.uniform(0.5, 1.1, size=(8, p)),
                          np.full((2, p), 1.05)])
        assert_matches_recursion(tree, rows, BackgroundSet(rows[::2]))

    def test_seventy_features(self):
        rng = np.random.default_rng(46)
        X = rng.normal(size=(40, 70))
        y = X[:, 3] - X[:, 60] + rng.normal(size=40)
        model = fit_random_forest(X, y, ForestParams(
            n_estimators=3, max_depth=6, max_features=20, seed=2))
        assert_matches_recursion(model, X[:4], BackgroundSet(X[10:22]))

    def test_rows_across_chunks_equal_per_row_tree_shap(self):
        rng = np.random.default_rng(47)
        model, X = random_boosted_model(rng, n=80, p=6, depth=4, trees=20)
        bg = BackgroundSet(X[:40])
        # a chunk holds TREE_CHUNK_TRIPLES // groups rows, a group being the
        # background rows that meet one leaf's path the same way
        paths = leaf_paths(model.tree_terms())[0]
        back = _PathSide(bg.rows, paths)
        words = np.stack([w.T for w in back.keys], axis=-1)  # (leaves, B, words)
        groups = sum(len(np.unique(leaf, axis=0)) for leaf in words)
        assert groups < 40 * len(words)
        # more rows than one chunk holds: at least two chunks
        assert 80 > TREE_CHUNK_TRIPLES // groups
        m = explain_matrix(model, X, bg)
        for r, x in enumerate(X):
            assert m.phi[r].tobytes() == tree_shap(model, x, bg).tobytes()


def oracle_cases(rng):
    """(model, rows, background) for every model of leaf_path_models and a
    70-feature forest. Backgrounds hold one row, distinct rows, or rows
    drawn with repeats; queries are training rows, background rows, and
    training rows moved onto split thresholds."""
    models = list(leaf_path_models(np.random.default_rng(49)))
    X = rng.normal(size=(40, 70))
    models.append((fit_random_forest(X, X[:, 3] - X[:, 60] + rng.normal(size=40),
                                     ForestParams(n_estimators=3, max_depth=6,
                                                  max_features=20, seed=2)), X))
    for model, X in models:
        n = len(X)
        kind = int(rng.integers(3))
        if kind == 0:
            bg = X[[int(rng.integers(n))]]
        elif kind == 1:
            bg = X[rng.choice(n, size=min(n, int(rng.integers(2, 20))),
                              replace=False)]
        else:
            bg = X[rng.integers(0, max(1, n // 4), size=int(rng.integers(2, 40)))]
        rows = [X[:6], bg[:2]]
        table = leaf_paths(model.tree_terms())
        if table is not None:
            paths = table[0]
            steps = np.flatnonzero(~np.isnan(paths.threshold))
            if steps.size:
                at = rng.choice(steps, size=min(3, steps.size), replace=False)
                moved = X[rng.integers(0, n, size=at.size)].copy()
                moved[np.arange(at.size), paths.feature.flat[at]] = \
                    paths.threshold.flat[at]
                rows.append(moved)
        yield model, np.vstack(rows), BackgroundSet(bg)


class TestGroupedTreeShap:
    """tree_shap, which pairs query rows with groups of background rows,
    equals the triple kernel byte for byte."""

    @pytest.mark.parametrize("budget", [TREE_CHUNK_TRIPLES, 1, 97])
    def test_bytes_equal_triple_oracle(self, budget, monkeypatch):
        monkeypatch.setattr(shapley, "TREE_CHUNK_TRIPLES", budget)
        cases = list(oracle_cases(np.random.default_rng(51)))
        assert len(cases) >= 200
        sizes = [bg.size for _, _, bg in cases]
        assert 1 in sizes and 70 in {rows.shape[1] for _, rows, _ in cases}
        assert any(len(np.unique(bg.rows, axis=0)) < bg.size
                   for _, _, bg in cases)
        for model, rows, bg in cases:
            want = triple_tree_shap_matrix(model, rows, bg)
            assert tree_shap(model, rows, bg).tobytes() == want.tobytes()

    @staticmethod
    def bench_forest(n_trees):
        """The bench shape of explain-forest: 68 rows of 16 features, which
        a forest of depth-9 trees explains against themselves."""
        rng = np.random.default_rng(50)
        X = rng.normal(size=(68, 16))
        y = X[:, 0] * X[:, 1] + X[:, 2] + rng.normal(size=68)
        model = fit_random_forest(X, y, ForestParams(
            n_estimators=n_trees, max_depth=9, max_features=8, seed=42))
        return model, X, BackgroundSet(X)

    @staticmethod
    def counting_lexsort(monkeypatch):
        """The key count of each np.lexsort call, appended as it is made."""
        calls, lexsort = [], np.lexsort

        def counting(keys):
            calls.append(len(keys))
            return lexsort(keys)

        monkeypatch.setattr(np, "lexsort", counting)
        return calls

    def test_bench_shape_sorts_packed_keys(self, monkeypatch):
        # depth 9 and 5 trees: every pair sort is one argsort of one int64
        # key a pair, not a lexsort
        model, X, bg = self.bench_forest(5)
        assert leaf_paths(model.tree_terms())[0].feature.shape[1] == 9
        want = triple_tree_shap_matrix(model, X, bg)
        calls = self.counting_lexsort(monkeypatch)
        assert tree_shap(model, X, bg).tobytes() == want.tobytes()
        assert calls == []

    def test_lexsort_and_packed_sorts_equal_recursion(self, monkeypatch):
        # chains keep every key in one word, but only 2**(63 - 2 * depth)
        # majors fit above it: 8 at depth 30, 128 at depth 28. A lexsort
        # has 2 keys, the word and the major: the leaf over the background,
        # row * n_trees + tree over a chunk's pairs
        rng = np.random.default_rng(52)
        p = 3
        two_chains = BoostedModel(0.0, 0.5, (chain_tree(30, p, rng),
                                             chain_tree(30, p, rng)), p)
        one_chain = ForestModel((chain_tree(28, p, rng),), p)
        # (model, rows, lexsorts of the block, lexsorts of one row): 62
        # leaves > 8, so the background of two_chains takes the lexsort, and
        # so do its 12-row chunks (24 majors); one_chain's 29 leaves do
        # not, but a 150-row chunk of it does
        cases = [(two_chains, 12, 2, 1), (one_chain, 150, 1, 0)]
        calls = self.counting_lexsort(monkeypatch)
        for model, n_rows, block_sorts, row_sorts in cases:
            rows = rng.uniform(-1.0, 1.1, size=(n_rows, p))
            rows[:2] = 1.05  # these reach the bottom of the chains
            bg = BackgroundSet(rows[:5])
            calls.clear()
            phi = explain_matrix(model, rows, bg).phi
            assert calls == [2] * block_sorts
            for r, x in enumerate(rows):
                calls.clear()
                one = tree_shap(model, x, bg)
                assert calls == [2] * row_sorts
                expected = recursive_tree_shap(model, x, bg).tobytes()
                assert phi[r].tobytes() == expected and one.tobytes() == expected, r

    @classmethod
    def one_call_peak(cls, n_trees):
        """tracemalloc peak of one tree_shap call at the bench shape."""
        model, X, bg = cls.bench_forest(n_trees)
        first = tree_shap(model, X, bg)  # builds the cached tables
        tracemalloc.start()
        try:
            again = tree_shap(model, X, bg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert again.tobytes() == first.tobytes()
        return peak

    def test_one_call_memory_peak(self):
        # 5 trees: the (query row, group) term arrays set the peak, 1.38 MB
        assert self.one_call_peak(5) <= 1.87e6

    def test_many_trees_memory_peak(self):
        # 30 trees: grouping the background sets the peak, 5.92 MB; a whole
        # (rows, leaves, depth) float gather or one stacked block of key
        # differences would push it past the bound
        assert self.one_call_peak(30) <= 6.5e6


class TestExplainMatrix:
    def test_names_what_it_accepts(self):
        # a bare Tree has no .predict and is not callable
        tree = Tree(feature=[0, -1, -1], threshold=[0.0, 0.0, 0.0],
                    children_left=[1, -1, -1], children_right=[2, -1, -1],
                    value=[0.0, -1.0, 3.0], cover=[1.0, 1.0, 1.0])
        bg = BackgroundSet(np.zeros((1, 2)))
        with pytest.raises(TypeError, match=r"a fitted model with \.predict\(X\) "
                                            r"or a prediction function, got Tree"):
            explain_matrix(tree, np.ones((1, 2)), bg)
        m = explain_matrix(lambda X: X @ np.array([2.0, -1.0]),
                           np.ones((1, 2)), bg)
        np.testing.assert_allclose(m.phi, [[2.0, -1.0]], atol=1e-12)

    def test_forest_explained_by_one_tree_shap_call(self, monkeypatch):
        # tree models reach the engine through the shapley module global, so
        # a wrapper installed there sees the one call of a whole explanation
        rng = np.random.default_rng(13)
        X = rng.normal(size=(30, 4))
        model = fit_random_forest(X, X[:, 0] + rng.normal(size=30), ForestParams(
            n_estimators=4, max_depth=4, seed=1))
        bg = BackgroundSet(X[:10])
        want = explain_matrix(model, X[:6], bg).phi
        engine, calls = shapley.tree_shap, []

        def counted(*args):
            calls.append(args)
            return engine(*args)

        monkeypatch.setattr(shapley, "tree_shap", counted)
        phi = explain_matrix(model, X[:6], bg).phi
        assert len(calls) == 1
        assert phi.tobytes() == want.tobytes()

    def test_single_row_matches_engine(self):
        rng = np.random.default_rng(7)
        model, X = random_boosted_model(rng, trees=5)
        bg = BackgroundSet(X[:6])
        m = explain_matrix(model, X[:1], bg)
        np.testing.assert_allclose(m.phi[0], tree_shap(model, X[0], bg),
                                   atol=1e-12)

    def test_efficiency_every_row_every_family(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 4))
        y = X[:, 0] + 0.5 * X[:, 1] ** 2 + rng.normal(size=30) * 0.1
        bg = BackgroundSet(X[:10])
        rows = X[:6]

        from forecastlab.linear import fit_linear
        from forecastlab.svr import KernelSpec, fit_svr

        models = [
            fit_gradient_boosting(X, y, BoostParams(n_estimators=10, max_depth=3)),
            fit_random_forest(X, y, ForestParams(n_estimators=5, max_depth=3)),
            ForestModel((fit_regression_tree(X, gradients=-y, max_depth=3),), 4),
            fit_linear(X, y, PenaltySpec(0.1, 0.5)),
            fit_svr(X, y, C=5.0, epsilon=0.05, kernel=KernelSpec("rbf", gamma=0.5)),
        ]
        for model in models:
            m = explain_matrix(model, rows, bg)
            np.testing.assert_allclose(m.base_value + m.phi.sum(axis=1),
                                       m.predictions, atol=1e-9)

    def test_model_supplies_its_own_attributions(self):
        # efficient but not Shapley: all credit goes to feature 0, where
        # enumeration of X.sum(1) would give each feature its own share
        class OwnEngine:
            def predict(self, X):
                return X.sum(axis=1)

            def attributions(self, rows, background):
                phi = np.zeros_like(rows)
                phi[:, 0] = self.predict(rows) - self.predict(background.rows).mean()
                return phi

        X = np.random.default_rng(12).normal(size=(7, 3))
        m = explain_matrix(OwnEngine(), X[:4], BackgroundSet(X[4:]))
        np.testing.assert_array_equal(m.phi[:, 1:], np.zeros((4, 2)))
        np.testing.assert_allclose(m.phi[:, 0],
                                   X[:4].sum(axis=1) - X[4:].sum(axis=1).mean(),
                                   rtol=0, atol=1e-12)

    def test_constant_model_rows_equal_background_zero(self):
        X = np.random.default_rng(9).normal(size=(8, 3))
        bg = BackgroundSet(X)
        m = explain_matrix(lambda Z: np.full(Z.shape[0], 5.0), X, bg)
        np.testing.assert_array_equal(m.phi, np.zeros((8, 3)))
        assert m.base_value == pytest.approx(5.0)

    def test_row_order_preserved(self):
        rng = np.random.default_rng(10)
        model, X = random_boosted_model(rng, trees=4)
        bg = BackgroundSet(X[:5])
        m_all = explain_matrix(model, X[:4], bg)
        m_rev = explain_matrix(model, X[:4][::-1], bg)
        np.testing.assert_allclose(m_all.phi, m_rev.phi[::-1], atol=1e-12)

    def test_efficiency_violation_detected(self):
        with pytest.raises(ValueError, match="efficiency"):
            ShapMatrix(0.0, np.ones((1, 2)), np.array([0.0]))

    @pytest.mark.parametrize("base, phi, pred", [
        (0.0, [[np.nan, 1.0]], [1.0]),
        (np.nan, [[0.0, 1.0]], [1.0]),
        (0.0, [[np.inf, -np.inf]], [0.0]),
    ], ids=["nan-phi", "nan-base", "inf-minus-inf"])
    def test_non_finite_gap_rejected(self, base, phi, pred):
        # a NaN gap is not > the tolerance, yet breaks efficiency; inf - inf
        # makes one without a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="efficiency violated by nan"):
                ShapMatrix(base, np.array(phi), np.array(pred))

    def test_linearity_over_predictors(self):
        rng = np.random.default_rng(11)
        bg = BackgroundSet(rng.normal(size=(6, 3)))
        x = rng.normal(size=3)
        f = lambda Z: Z[:, 0] * Z[:, 1]
        g = lambda Z: np.sin(Z[:, 2])
        fg = lambda Z: f(Z) + g(Z)
        np.testing.assert_allclose(
            exact_shapley(fg, x, bg),
            exact_shapley(f, x, bg) + exact_shapley(g, x, bg), atol=1e-12)


class TestGlobalImportance:
    def test_all_zero_matrix_keeps_declaration_order(self):
        m = ShapMatrix(0.0, np.zeros((3, 3)), np.zeros(3))
        ranked = global_importance(m, ["a", "b", "c"])
        assert [r[0] for r in ranked] == ["a", "b", "c"]
        assert all(r[1] == 0.0 for r in ranked)

    def test_single_row_absolute_values(self):
        m = ShapMatrix(0.0, np.array([[-2.0, 1.0]]), np.array([-1.0]))
        ranked = global_importance(m, ["a", "b"])
        assert ranked[0] == ("a", 2.0)
        assert ranked[1] == ("b", 1.0)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(12)
        phi = rng.normal(size=(10, 4))
        preds = phi.sum(axis=1) + 1.0
        m1 = ShapMatrix(1.0, phi, preds)
        perm = rng.permutation(10)
        m2 = ShapMatrix(1.0, phi[perm], preds[perm])
        names = ["a", "b", "c", "d"]
        r1, r2 = global_importance(m1, names), global_importance(m2, names)
        assert [n for n, _ in r1] == [n for n, _ in r2]
        np.testing.assert_allclose([v for _, v in r1], [v for _, v in r2],
                                   atol=1e-12)


class TestBackgroundSet:
    def test_subsample_cap_deterministic(self):
        X = np.random.default_rng(13).normal(size=(300, 4))
        a = BackgroundSet.from_training(X, cap=50, seed=7)
        b = BackgroundSet.from_training(X, cap=50, seed=7)
        assert a.size == 50
        np.testing.assert_array_equal(a.rows, b.rows)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BackgroundSet(np.empty((0, 3)))

    def test_csv_lines_layout(self, tmp_path):
        from forecastlab.pipeline import OutputDir, write_shap_values

        m = ShapMatrix(1.5, np.array([[0.25, -0.75]]), np.array([1.0]))
        write_shap_values(OutputDir(str(tmp_path), "0" * 12, 0), m,
                          np.array([[10.0, 20.0]]), ["u", "v"])
        lines = (tmp_path / "shap_values.csv").read_text().splitlines()[1:]
        assert lines[0] == "# base_value=1.5"
        assert lines[1] == "row_index,feature,feature_value,shap_value"
        assert lines[2] == "0,u,10.0,0.25"
        assert lines[3] == "0,v,20.0,-0.75"
