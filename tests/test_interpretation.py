from collections import namedtuple

import numpy as np
import pytest

from forecastlab.interpretation import (
    InterpretationError,
    PolyFit,
    _auto_color,
    _quartiles,
    column_stats,
    dependence_data,
    filter_outliers,
    fit_functional_form,
    summary_plot_data,
    zero_crossings,
)
from forecastlab.shapley import (BackgroundSet, ShapMatrix, explain_matrix,
                                 global_importance)


def pts(xs, ys):
    return np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)


class TestDependenceData:
    def make_matrix(self, n=12, p=3, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p))
        phi = rng.normal(size=(n, p))
        preds = 1.0 + phi.sum(axis=1)
        return ShapMatrix(1.0, phi, preds), X

    def test_one_point_per_row_order_preserved(self):
        m, X = self.make_matrix()
        rows, x, shap, _ = dependence_data(m, X, "b", ["a", "b", "c"],
                                           column_stats(X))
        assert len(rows) == len(x) == len(shap) == m.n_rows
        assert rows.tolist() == list(range(m.n_rows))
        np.testing.assert_allclose(x, X[:, 1])
        np.testing.assert_allclose(shap, m.phi[:, 1])

    def test_auto_color_finds_interaction_partner(self):
        # f = x0 * x1 with query rows offset from the background in x0, so
        # the residuals of the linear shap-vs-x0 trend move with x1
        rng = np.random.default_rng(1)
        n = 40
        X = np.column_stack([rng.uniform(2, 4, n), rng.uniform(-1, 1, n),
                             rng.uniform(-1, 1, n)])
        bg = BackgroundSet(np.column_stack([rng.uniform(0, 1, 8),
                                            rng.uniform(-1, 1, 8),
                                            rng.uniform(-1, 1, 8)]))
        f = lambda Z: Z[:, 0] * Z[:, 1]
        m = explain_matrix(f, X, bg)
        *_, color = dependence_data(m, X, "x0", ["x0", "x1", "x2"],
                                    column_stats(X))
        assert color.tobytes() == X[:, 1].tobytes()

    def test_unknown_feature(self):
        m, X = self.make_matrix()
        with pytest.raises(InterpretationError, match="unknown feature"):
            dependence_data(m, X, "zzz", ["a", "b", "c"], column_stats(X))


def loop_auto_color(X, x, phi, skip):
    """Reference oracle: the per-column loop, which makes separate std and
    mean calls on each strided column of X."""
    A = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(A, phi, rcond=None)
    resid = phi - A @ coef
    if np.std(resid) < 1e-15:
        resid = phi - phi.mean()
    sr = np.std(resid)
    if sr < 1e-15:
        return None, 0.0
    centered = resid - resid.mean()
    best, best_corr = None, 0.0
    for c in range(X.shape[1]):
        if c == skip:
            continue
        col = X[:, c]
        sc = np.std(col)
        if sc < 1e-15:
            continue
        corr = abs(float(np.mean((col - col.mean()) * centered)) / (sc * sr))
        if corr > best_corr + 1e-15:
            best, best_corr = c, corr
    return best, best_corr


def random_color_case(rng):
    """(X, x, phi, skip) with 3-130 rows and 2-16 columns at scales 1e-3 to
    1e3, C or Fortran order; columns may be constant, rounded, or copies of
    another column (scaled by 1, -3 or 0.1, so their scores tie or nearly
    tie), and phi may be zero, exactly linear in x, or depend on another
    column."""
    n, p = int(rng.integers(3, 131)), int(rng.integers(2, 17))
    scales = 10.0 ** rng.uniform(-3, 3, size=p)
    X = rng.normal(size=(n, p)) * scales + rng.normal(size=p) * scales
    if rng.random() < 0.3:
        X = np.round(X, int(rng.integers(0, 3)))
    for c in np.flatnonzero(rng.random(p) < 0.15):
        X[:, c] = rng.choice([0.0, 0.1, 7.5, -1e3])
    for c in np.flatnonzero(rng.random(p) < 0.2):  # ties and near-ties
        X[:, c] = X[:, int(rng.integers(p))] * rng.choice([1.0, -3.0, 0.1])
    if rng.random() < 0.5:
        X = np.asfortranarray(X)
    skip = int(rng.integers(p))
    x = X[:, skip]
    kind = int(rng.integers(5))
    if kind == 0:
        phi = np.zeros(n)
    elif kind == 1:
        phi = float(rng.normal()) * x + float(rng.normal())
    elif kind == 2:
        phi = np.round(rng.normal(size=n), 1)
    else:
        other = X[:, int(rng.integers(p))]
        phi = x * other / (scales.max() ** 2) + 0.1 * rng.normal(size=n)
    return X, x, phi, skip


class TestAutoColorMatchesLoop:
    def test_random_matrices(self):
        rng = np.random.default_rng(70)
        chosen, uncolored, fortran = 0, 0, 0
        for _ in range(2400):
            X, x, phi, skip = random_color_case(rng)
            got = _auto_color(column_stats(X), x, phi, skip)
            want = loop_auto_color(X, x, phi, skip)
            assert got[0] == want[0]
            assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
            chosen += got[0] is not None
            uncolored += got[0] is None
            fortran += not X.flags.c_contiguous
        assert chosen > 1000 and uncolored > 200 and fortran > 1000


def quartile_cases(rng):
    """Finite arrays of 1-200 values: continuous draws, few-valued draws
    with ties, +-0.0 mixes, +-1e300 beside ordinary values or +-1.7e308
    alone (whose neighbour difference overflows) and constants, in turn."""
    for case in range(600):
        n = 1 + case % 200 if case < 400 else int(rng.integers(1, 201))
        kind = case % 5
        if kind == 0:
            xs = rng.normal(0.0, 10.0 ** rng.integers(-3, 4), size=n)
        elif kind == 1:
            xs = rng.choice([-2.0, -0.5, 0.0, 1.0, 3.25], size=n)
        elif kind == 2:
            xs = rng.choice([0.0, -0.0, 0.0, -0.0, 1.5], size=n)
        elif kind == 3 and case % 10 == 3:
            xs = rng.choice([1.7e308, -1.7e308], size=n)
        elif kind == 3:
            xs = rng.choice([1e300, -1e300, 0.5, -0.0, 7.0], size=n)
        else:
            xs = np.full(n, rng.choice([0.0, -0.0, 1e300, -3.5]))
        yield xs


class TestQuartiles:
    def test_equal_to_np_percentile_bits(self):
        rng = np.random.default_rng(29)
        remainders, negative_zero, overflowed = set(), 0, 0
        for xs in quartile_cases(rng):
            before = xs.tobytes()
            with np.errstate(over="ignore", invalid="ignore"):
                want = np.percentile(xs, [25, 75])
            got = np.array(_quartiles(xs))
            assert got.tobytes() == want.tobytes(), xs
            assert xs.tobytes() == before  # the input is not reordered
            remainders.add((len(xs) - 1) % 4)
            negative_zero += bool((np.signbit(want) & (want == 0)).any())
            overflowed += not np.isfinite(want).all()
        # every (n - 1) % 4 remainder, -0.0 quartiles and overflowed blends
        # (inf, or NaN from inf * 0) were among the cases
        assert remainders == {0, 1, 2, 3}
        assert negative_zero >= 20 and overflowed >= 3

    def test_non_finite_values_as_np_percentile(self):
        for xs in ([np.inf], [np.nan, 1.0, 2.0], [1.0, -np.inf, 3.0, 4.0],
                   [np.inf, 1.0, 2.0, np.inf, 5.0]):
            xs = np.array(xs)
            with np.errstate(invalid="ignore"):
                want = np.percentile(xs, [25, 75])
            assert np.array(_quartiles(xs)).tobytes() == want.tobytes()


class TestFilterOutliers:
    def test_no_extremes_identity(self):
        res = filter_outliers(*pts(np.linspace(0, 1, 10), np.zeros(10)))
        assert res.kept.tolist() == list(range(10))
        assert res.removed == ()

    def test_single_extreme_removed(self):
        xs = list(np.linspace(1.0, 2.0, 15)) + [150.0]
        res = filter_outliers(*pts(xs, np.zeros(16)))
        assert res.removed == (15,)
        assert len(res.kept) == 15

    def test_identical_values_identity(self):
        res = filter_outliers(*pts(np.full(8, 3.3), np.arange(8.0)))
        assert res.kept.tolist() == list(range(8))

    def test_never_below_four_points(self):
        res = filter_outliers(*pts([0.0, 0.0001, 100.0, 10000.0, 1000000.0],
                                   np.zeros(5)))
        if not res.removed:
            assert res.kept.tolist() == list(range(5))
        assert len(res.kept) >= 4

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        cases = [
            pts(rng.normal(size=30), rng.normal(size=30)),
            pts(np.concatenate([rng.normal(size=20), [50.0, -40.0]]),
                np.zeros(22)),
            pts(rng.standard_cauchy(size=25), rng.normal(size=25)),
            pts(np.linspace(0, 1, 6), np.ones(6)),
        ]
        for x, y in cases:
            once = filter_outliers(x, y)
            twice = filter_outliers(x[once.kept], y[once.kept])
            assert twice.kept.tolist() == list(range(len(once.kept)))
            assert twice.removed == ()


Point = namedtuple("Point", "row_index x_value shap_value color_value")


def loop_filter_outliers(points, k=1.5):
    """Reference oracle: the original filter over point objects, which finds
    the dropped points by a membership test against the kept list. Returns
    (kept points, removed row indices, applied)."""
    points = list(points)
    kept = points
    removed = []
    applied = False
    while True:
        xs = np.array([p.x_value for p in kept])
        q1, q3 = np.percentile(xs, [25, 75])
        fence_lo = q1 - k * (q3 - q1)
        fence_hi = q3 + k * (q3 - q1)
        inside = [p for p in kept if fence_lo <= p.x_value <= fence_hi]
        if len(inside) == len(kept):
            break
        if len(inside) < 4:
            if not applied:
                return tuple(points), (), False
            break
        removed.extend(p.row_index for p in kept if p not in inside)
        kept = inside
        applied = True
    return tuple(kept), tuple(removed), applied


def flipped(points):
    """The points with their axes swapped: filtering them on x is filtering
    the originals on shap."""
    return [Point(p.row_index, p.shap_value, p.x_value, p.color_value)
            for p in points]


def positions(kept, points):
    """Where each kept object sits in `points`, by identity."""
    at = {id(p): i for i, p in enumerate(points)}
    return [at[id(p)] for p in kept]


def random_point_set(rng):
    """Small integers, so values repeat and often sit exactly on a fence,
    plus far outliers, NaNs and duplicated points."""
    n = int(rng.integers(1, 40))
    xs = rng.integers(-5, 6, size=n).astype(float)
    ys = rng.integers(-3, 4, size=n).astype(float)
    for arr in (xs, ys):
        far = rng.random(n) < 0.1
        arr[far] = rng.choice([-1e3, -40.0, 25.0, 1e6], size=far.sum())
        if rng.random() < 0.3:
            arr[rng.integers(n)] = np.nan
    points = [Point(i, float(x), float(y), None if i % 3 else float(i))
              for i, (x, y) in enumerate(zip(xs, ys))]
    for _ in range(int(rng.integers(0, 4))):  # equal points, distinct objects
        p = points[int(rng.integers(n))]
        points.insert(int(rng.integers(len(points) + 1)),
                      Point(p.row_index, p.x_value, p.shap_value,
                            p.color_value))
    return points


class TestFilterMatchesMembershipOracle:
    def test_random_point_sets(self):
        rng = np.random.default_rng(50)
        applied = 0
        for _ in range(600):
            points = random_point_set(rng)
            k = float(rng.choice([0.0, 0.5, 1.0, 1.5, 2.0]))
            rows = [p.row_index for p in points]
            x = np.array([p.x_value for p in points])
            shap = np.array([p.shap_value for p in points])
            swapped = flipped(points)
            for given, axis, oracle in (((x, shap), "x", points),
                                        ((shap, x), "x", swapped),
                                        ((x, shap), "shap", swapped)):
                res = filter_outliers(*given, k=k, axis=axis)
                kept, removed, ref_applied = loop_filter_outliers(oracle, k=k)
                # the oracle's kept objects sit at the kept positions, and
                # the dropped positions hold its removed row indices
                assert res.kept.tolist() == positions(kept, oracle)
                assert tuple(rows[i] for i in res.removed) == removed
                # the invariant that lets FilterResult carry no applied flag
                assert ref_applied is bool(removed)
                applied += ref_applied
        assert applied > 750  # 250 per input


class TestFunctionalForm:
    def test_exact_line(self):
        xs = np.linspace(-2, 2, 9)
        fit = fit_functional_form(*pts(xs, 2 * xs - 1))
        assert fit.degree == 1
        np.testing.assert_allclose(fit.coefficients, [-1.0, 2.0], atol=1e-10)
        assert fit.r2 == pytest.approx(1.0)

    def test_exact_parabola(self):
        xs = np.linspace(-2, 2, 9)
        fit = fit_functional_form(*pts(xs, xs ** 2))
        assert fit.degree == 2
        np.testing.assert_allclose(fit.coefficients, [0.0, 0.0, 1.0], atol=1e-10)

    def test_noisy_line_mostly_prefers_degree_one(self):
        # under a true line, adjusted R^2 picks degree 2 whenever the
        # quadratic t-stat exceeds 1 (probability ~0.32 at any noise
        # scale), so the majority-but-not-all outcome is the honest bound
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed + 40)
            xs = np.linspace(0, 5, 30)
            ys = 1.5 * xs - 2 + 0.01 * 5 * rng.normal(size=30)
            if fit_functional_form(*pts(xs, ys)).degree == 1:
                hits += 1
        assert hits >= 11

    def test_degree2_r2_at_least_degree1(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            xs = rng.normal(size=12)
            ys = rng.normal(size=12)
            f1 = fit_functional_form(*pts(xs, ys))  # any fit
            # nested models: compare r2 directly
            x = xs
            A1 = np.column_stack([np.ones(12), x])
            A2 = np.column_stack([np.ones(12), x, x ** 2])
            r = lambda A: float(((ys - A @ np.linalg.lstsq(A, ys, rcond=None)[0]) ** 2).sum())
            assert r(A2) <= r(A1) + 1e-9
            assert f1.degree in (1, 2)

    def test_too_few_points(self):
        with pytest.raises(InterpretationError, match="at least 4"):
            fit_functional_form(*pts([1, 2, 3], [1, 2, 3]))

    def test_degenerate_x(self):
        with pytest.raises(InterpretationError, match="degenerate"):
            fit_functional_form(*pts([2, 2, 2, 2], [1, 2, 3, 4]))


class TestZeroCrossings:
    def test_line_root(self):
        fit = PolyFit(1, (6.6, -1.0), 1.0, 1.0)
        np.testing.assert_allclose(zero_crossings(fit, (3.0, 9.0)), [6.6])

    def test_no_real_roots(self):
        fit = PolyFit(2, (1.0, 0.0, 1.0), 1.0, 1.0)  # x^2 + 1
        assert zero_crossings(fit, (-5.0, 5.0)) == ()

    def test_quadratic_two_roots(self):
        # (x-1)(x-3) = x^2 - 4x + 3
        fit = PolyFit(2, (3.0, -4.0, 1.0), 1.0, 1.0)
        np.testing.assert_allclose(zero_crossings(fit, (0.0, 4.0)), [1.0, 3.0],
                                   atol=1e-12)

    def test_roots_outside_range_clipped(self):
        fit = PolyFit(2, (3.0, -4.0, 1.0), 1.0, 1.0)
        np.testing.assert_allclose(zero_crossings(fit, (2.0, 4.0)), [3.0])

    def test_residual_small_at_reported_roots(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            coefs = rng.normal(size=3)
            fit = PolyFit(2, tuple(coefs), 1.0, 1.0)
            for root in zero_crossings(fit, (-10.0, 10.0)):
                bound = 1e-8 * (1.0 + max(abs(c) for c in coefs))
                assert abs(fit(root)) <= bound


def loop_summary_records(m, X, names):
    """Reference oracle: the original per-(feature, row) records."""
    from forecastlab.shapley import global_importance
    records = []
    for feature, _ in global_importance(m, names):
        j = names.index(feature)
        col = X[:, j]
        lo = col.min()
        span = float(col.max() - lo)
        for r in range(m.n_rows):
            norm = 0.5 if span == 0.0 else float((col[r] - lo) / span)
            records.append((feature, r, float(m.phi[r, j]), norm))
    return records


class TestSummaryPlot:
    def test_constant_feature_normalizes_to_half(self):
        phi = np.array([[1.0, 0.2], [0.5, -0.2]])
        m = ShapMatrix(0.0, phi, phi.sum(axis=1))
        X = np.array([[7.0, 1.0], [7.0, 2.0]])
        names = ["const", "varying"]
        features, _, _, normalized = summary_plot_data(
            m, X, names, global_importance(m, names))
        const = [v for f, v in zip(features, normalized) if f == "const"]
        assert const == [0.5, 0.5]

    def test_record_count(self):
        rng = np.random.default_rng(5)
        phi = rng.normal(size=(6, 4))
        m = ShapMatrix(0.0, phi, phi.sum(axis=1))
        names = ["a", "b", "c", "d"]
        columns = summary_plot_data(m, rng.normal(size=(6, 4)), names,
                                    global_importance(m, names))
        assert [len(c) for c in columns] == [24] * 4

    def test_feature_order_matches_global_importance(self):
        rng = np.random.default_rng(6)
        phi = rng.normal(size=(8, 3)) * np.array([0.1, 5.0, 1.0])
        m = ShapMatrix(0.0, phi, phi.sum(axis=1))
        ranked = global_importance(m, ["a", "b", "c"])
        features, *_ = summary_plot_data(m, rng.normal(size=(8, 3)),
                                         ["a", "b", "c"], ranked)
        seen = []
        for f in features:
            if f not in seen:
                seen.append(f)
        assert seen == [n for n, _ in ranked]

    def test_columns_equal_record_oracle_bits(self):
        rng = np.random.default_rng(7)
        names = ["a", "b", "c", "d", "e"]
        for n in (1, 2, 9, 40):
            X = rng.normal(size=(n, 5)) * 10.0 ** rng.uniform(-3, 3, size=5)
            X[:, 1] = 3.25  # constant
            X[:, 3] = np.round(X[:, 3])
            phi = rng.normal(size=(n, 5))
            m = ShapMatrix(0.0, phi, phi.sum(axis=1))
            columns = summary_plot_data(m, X, names,
                                        global_importance(m, names))
            want = list(zip(*loop_summary_records(m, X, names)))
            assert columns[0] == list(want[0])
            assert columns[1].tolist() == list(want[1])
            for got, ref in zip(columns[2:], want[2:]):
                assert got.dtype == np.float64
                assert got.tobytes() == np.array(ref).tobytes()
