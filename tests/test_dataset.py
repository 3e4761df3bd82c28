import math

import numpy as np
import pytest

from forecastlab.dataset import (
    ColumnSchema,
    DataError,
    SeriesFrame,
    Standardization,
    SynthSpec,
    chrono_split,
    default_schema,
    fit_rows,
    load_frame,
    log_transform,
    read_frame,
    synth_generate,
)
from forecastlab.families import fit_family
from forecastlab.linear import PenaltySpec, fit_linear, fit_linear_grid
from forecastlab.svr import KernelSpec, fit_svr
from forecastlab.trees import (
    BoostParams,
    ForestParams,
    fit_gradient_boosting,
    fit_random_forest,
    fit_regression_tree,
)


def make_frame(values, columns=("y", "a"), start=(2015, 1)):
    return SeriesFrame(start[0], start[1], columns, np.asarray(values, dtype=float))


SMALL_CSV = """date,y,a
2015-01,1.0,10
2015-02,2.0,20
2015-03,3.0,30
"""

SCHEMA_YA = ColumnSchema(target="y", features=("a",))


class TestLoadFrame:
    def test_identity_parse(self):
        frame = load_frame(SMALL_CSV, SCHEMA_YA)
        assert frame.n_rows == 3
        assert frame.columns == ("y", "a")
        assert frame.start_year == 2015 and frame.start_month == 1
        np.testing.assert_array_equal(frame.column("a"), [10, 20, 30])

    def test_calendar_gap(self):
        text = "date,y,a\n2015-01,1,1\n2015-03,2,2\n"
        with pytest.raises(DataError, match="gap"):
            load_frame(text, SCHEMA_YA)

    def test_duplicate_month(self):
        text = "date,y,a\n2015-01,1,1\n2015-01,2,2\n"
        with pytest.raises(DataError, match="duplicate month"):
            load_frame(text, SCHEMA_YA)

    def test_non_numeric_cell_located(self):
        text = "date,y,a\n2015-01,1,1\n2015-02,oops,2\n"
        with pytest.raises(DataError, match="row 2.*'y'"):
            load_frame(text, SCHEMA_YA)

    def test_missing_column(self):
        with pytest.raises(DataError, match="missing column 'b'"):
            load_frame(SMALL_CSV, ColumnSchema(target="y", features=("b",)))

    def test_default_sixteen_column_header_accepted(self):
        schema = default_schema()
        cols = ["date", schema.target, *schema.features]
        lines = [",".join(cols)]
        for i in range(3):
            lines.append(",".join([f"2015-{i+1:02d}"] + [str(float(j + i))
                                                         for j in range(17)]))
        frame = load_frame("\n".join(lines), schema)
        assert frame.columns == schema.all_columns
        assert frame.n_rows == 3

    def test_byte_order_mark_dropped(self, tmp_path):
        # a spreadsheet's "CSV UTF-8" starts with a byte-order mark
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(SMALL_CSV.encode("utf-8"))
        marked.write_bytes(SMALL_CSV.encode("utf-8-sig"))
        want = read_frame(str(plain), SCHEMA_YA)
        got = read_frame(str(marked), SCHEMA_YA)
        assert ((got.start_year, got.start_month, got.columns)
                == (want.start_year, want.start_month, want.columns))
        np.testing.assert_array_equal(got.data, want.data)

    def test_year_rollover_is_contiguous(self):
        text = "date,y,a\n2015-12,1,1\n2016-01,2,2\n"
        frame = load_frame(text, SCHEMA_YA)
        assert frame.month_labels() == ["2015-12", "2016-01"]


class TestLogTransform:
    def test_log_identities(self):
        frame = make_frame([[1.0, math.e], [1.0, 1.0]])
        out = log_transform(frame, ["a"])
        np.testing.assert_allclose(out.column("a"), [1.0, 0.0], atol=1e-15)
        np.testing.assert_array_equal(out.column("y"), frame.column("y"))

    def test_non_positive_rejected(self):
        frame = make_frame([[1.0, -3.0]])
        with pytest.raises(DataError, match="row 0.*'a'") as info:
            log_transform(frame, ["a"])
        assert "non-positive value -3.0 in column" in str(info.value)
        assert "np.float64" not in str(info.value)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        frame = make_frame(np.abs(rng.normal(5, 1, size=(10, 2))) + 0.1)
        logged = log_transform(frame, ["y", "a"])
        back = logged.with_data(np.exp(logged.data))
        np.testing.assert_allclose(back.data, frame.data, atol=1e-12)


class TestChronoSplit:
    def test_84_16(self):
        frame = make_frame(np.arange(168).reshape(84, 2))
        train, test = chrono_split(frame, 16)
        assert train.n_rows == 68 and test.n_rows == 16
        np.testing.assert_array_equal(train.data, frame.data[:68])
        np.testing.assert_array_equal(test.data, frame.data[68:])
        # 2015-01 start, 68 train rows => test starts 2020-09
        assert test.month_labels()[0] == "2020-09"
        assert test.month_labels()[-1] == "2021-12"

    def test_small_split(self):
        frame = make_frame(np.arange(20).reshape(10, 2))
        train, test = chrono_split(frame, 2)
        assert train.n_rows == 8 and test.n_rows == 2

    def test_degenerate_split_rejected(self):
        frame = make_frame(np.arange(20).reshape(10, 2))
        with pytest.raises(DataError):
            chrono_split(frame, 10)

    def test_concat_recovers_frame(self):
        frame = make_frame(np.random.default_rng(1).normal(size=(30, 2)))
        train, test = chrono_split(frame, 7)
        np.testing.assert_array_equal(
            np.vstack([train.data, test.data]), frame.data)


class TestStandardize:
    def test_hand_computed_population_sd(self):
        train = np.array([[1.0], [2.0], [3.0]])
        stats = Standardization.fit(train)
        np.testing.assert_allclose(stats.means, [2.0])
        np.testing.assert_allclose(stats.scales, [math.sqrt(2.0 / 3.0)], atol=1e-12)
        z = stats.transform(train)[:, 0]
        np.testing.assert_allclose(z, [-1.2247448, 0.0, 1.2247448], atol=1e-6)
        np.testing.assert_allclose(stats.transform([[2.0]]), [[0.0]], atol=1e-12)
        assert abs(z.mean()) < 1e-10
        assert abs(z.std() - 1.0) < 1e-10

    def test_constant_column_scale_one(self):
        train = np.array([[7.0], [7.0], [7.0]])
        stats = Standardization.fit(train)
        assert stats.scales[0] == 1.0
        np.testing.assert_allclose(stats.transform(train)[:, 0], [0, 0, 0])

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        X = rng.normal(3, 4, size=(20, 3))
        stats = Standardization.fit(X)
        np.testing.assert_allclose(stats.transform(X) * stats.scales + stats.means,
                                   X, atol=1e-12)

    def test_train_stats_independent_of_test(self):
        train = np.random.default_rng(4).normal(size=(12, 2))
        stats = Standardization.fit(train)
        means, scales = stats.means.copy(), stats.scales.copy()
        for test in (np.zeros((3, 2)), np.full((5, 2), 99.0)):
            np.testing.assert_array_equal(
                stats.transform(test),
                (test - train.mean(axis=0)) / train.std(axis=0))
        np.testing.assert_array_equal(stats.means, means)
        np.testing.assert_array_equal(stats.scales, scales)


def scalar_synth_generate(seed, schema, spec):
    """Reference oracle: the generator as first written, one rng.normal call
    per draw and the recursions on numpy scalars."""
    didx = spec.driver_columns(schema)
    n = spec.n
    rng = np.random.default_rng(seed)
    p = len(schema.features)
    rhos = 0.5 + 0.4 * ((np.arange(p) * 7) % 10) / 9.0
    X = np.empty((n, p))
    for j in range(p):
        rho = rhos[j]
        innov_sd = math.sqrt(1.0 - rho * rho)
        x = rng.normal(0.0, 1.0)
        for t in range(n):
            X[t, j] = x
            x = rho * x + innov_sd * rng.normal()
    X += 5.0
    y = spec.signal(X[:, didx])
    if spec.noise_scale > 0:
        u = 0.0
        noise = np.empty(n)
        for t in range(n):
            u = spec.noise_ar * u + spec.noise_scale * rng.normal()
            noise[t] = u
        y = y + noise
    return np.column_stack([y, X])


class TestFeatureRows:
    FITS = {
        "forest": lambda X, y: fit_random_forest(X, y, ForestParams(n_estimators=2)),
        "boosted": lambda X, y: fit_gradient_boosting(X, y, BoostParams(n_estimators=2)),
        "linear": lambda X, y: fit_linear(X, y, PenaltySpec(0.1, 0.5)),
        "svr": lambda X, y: fit_svr(X, y, C=1.0, epsilon=0.1,
                                    kernel=KernelSpec("linear")),
        # Standardized models: rows are checked before they are standardized
        "standardized-ridge": lambda X, y: fit_family("ridge", X, y, {}),
        "standardized-svr": lambda X, y: fit_family("svr", X, y, {}),
    }

    @pytest.mark.parametrize("kind", sorted(FITS))
    def test_every_model_rejects_other_rows(self, kind):
        rng = np.random.default_rng(62)
        X = rng.normal(size=(12, 3))
        model = self.FITS[kind](X, X[:, 0] + rng.normal(size=12))
        assert model.predict(X).shape == (12,)
        for rows in (X[0], X[:, :1], X[:, :2], np.zeros((2, 4)), X[None]):
            with pytest.raises(ValueError, match="expected 3 feature columns"):
                model.predict(rows)


def raised(result):
    """A grid's captured error, raised; any other result returned."""
    if isinstance(result, Exception):
        raise result
    return result


class TestFitRows:
    """Every solver checks its training rows by `fit_rows`: a malformed X or
    y is a ValueError, never a TypeError, an IndexError or a fitted model."""

    FITS = {
        "fit_linear": lambda X, y: fit_linear(X, y, PenaltySpec(0.1, 0.5)),
        "fit_linear_grid": lambda X, y: [
            raised(fit) for row in fit_linear_grid(
                [(X, y)], [PenaltySpec(0.0, 0.5), PenaltySpec(0.1, 0.5)])
            for fit in row],
        "fit_svr": lambda X, y: fit_svr(X, y, C=1.0, epsilon=0.1,
                                        kernel=KernelSpec("rbf")),
        "fit_random_forest": lambda X, y: fit_random_forest(
            X, y, ForestParams(n_estimators=2)),
        "fit_gradient_boosting": lambda X, y: fit_gradient_boosting(
            X, y, BoostParams(n_estimators=2)),
        "fit_regression_tree": lambda X, y: fit_regression_tree(X, gradients=y),
    }
    X = np.random.default_rng(63).normal(size=(12, 3))
    y = X[:, 0] + 0.5
    MALFORMED = {
        "1-d X": (X[:, 0], y),
        "0-row X": (X[:0], y[:0]),
        "0-column X": (X[:, :0], y),
        "2-d y": (X, y[:, None]),
        "y one row short": (X, y[:-1]),
        "one-element y": (X, y[:1]),
    }

    @pytest.mark.parametrize("case", MALFORMED)
    @pytest.mark.parametrize("solver", FITS)
    def test_malformed_rows_are_value_errors(self, solver, case):
        with pytest.raises(ValueError):
            self.FITS[solver](*self.MALFORMED[case])

    @pytest.mark.parametrize("solver", ["fit_linear", "fit_linear_grid", "fit_svr"])
    def test_one_row_is_too_few(self, solver):
        with pytest.raises(ValueError, match="^need at least 2 rows to fit$"):
            self.FITS[solver](self.X[:1], self.y[:1])

    def test_messages(self):
        for (X, y), message in [
                (self.MALFORMED["0-row X"], r"nonempty 2-d array, got shape \(0, 3\)"),
                (self.MALFORMED["0-column X"], "no feature columns"),
                (self.MALFORMED["2-d y"], r"y must be 1-d, got shape \(12, 1\)"),
                (self.MALFORMED["one-element y"], "^X has 12 rows but y has 1$")]:
            with pytest.raises(ValueError, match=message):
                fit_rows(X, y)

    def test_float_rows_pass_through(self):
        # valid float rows come back as the very arrays, layout and all
        F = np.asfortranarray(self.X)
        got_X, got_y = fit_rows(F, self.y)
        assert got_X is F and got_y is self.y
        got_X, got_y = fit_rows([[1, 2]], [3])
        assert got_X.dtype == got_y.dtype == np.float64


class TestSynthGenerate:
    @pytest.mark.parametrize("kind", ["linear", "nonlinear"])
    @pytest.mark.parametrize("n", [40, 120])
    @pytest.mark.parametrize("noise", [dict(), dict(noise_scale=0.0),
                                       dict(noise_ar=0.6)])
    def test_block_draws_equal_scalar_draws(self, kind, n, noise):
        schema = default_schema()
        spec = SynthSpec(kind=kind, n=n, **noise)
        for seed in (0, 7, 42, 123457):
            frame = synth_generate(seed, schema, spec)
            want = scalar_synth_generate(seed, schema, spec)
            assert frame.data.tobytes() == want.tobytes(), seed

    def test_same_seed_bit_identical(self):
        schema = default_schema()
        a = synth_generate(7, schema, SynthSpec(n=60))
        b = synth_generate(7, schema, SynthSpec(n=60))
        np.testing.assert_array_equal(a.data, b.data)

    def test_zero_noise_target_is_declared_function(self):
        schema = default_schema()
        spec = SynthSpec(n=50, noise_scale=0.0)
        frame = synth_generate(11, schema, spec)
        drivers = frame.matrix(spec.drivers)
        np.testing.assert_allclose(frame.column(schema.target), spec.signal(drivers),
                                   atol=1e-12)

    def test_linear_dgp_ols_recovery(self):
        # oracle: normal equations on the generated design
        schema = default_schema()
        spec = SynthSpec(kind="linear", n=80, coefficients=(2.0, -3.0, 0.5),
                         intercept=1.0, noise_scale=0.0)
        frame = synth_generate(5, schema, spec)
        X = frame.matrix(spec.drivers)
        y = frame.column(schema.target)
        A = np.column_stack([np.ones(len(y)), X])
        beta = np.linalg.lstsq(A, y, rcond=None)[0]
        np.testing.assert_allclose(beta, [1.0, 2.0, -3.0, 0.5], atol=1e-6)

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            SynthSpec(kind="linear", n=10)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DataError, match="unknown synth kind"):
            SynthSpec(kind="mystery", drivers=("ATMD",), coefficients=(1.0,))


class TestSchema:
    def test_target_not_feature(self):
        with pytest.raises(DataError):
            ColumnSchema(target="y", features=("y", "a"))

    def test_log_columns_subset(self):
        with pytest.raises(DataError):
            ColumnSchema(target="y", features=("a",), log_columns=("zzz",))
