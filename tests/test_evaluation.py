import math

import numpy as np
import pytest

from forecastlab.evaluation import (
    EvaluationError,
    MetricRow,
    dm_test,
    mae,
    metric_table,
    rmse,
    rmse_reduction,
)
from forecastlab.pipeline import OutputDir, write_metrics

# published benchmark comparison this workbench reproduces arithmetically:
# (mae, rmse, printed reduction %) with the first row as the benchmark
REFERENCE_TABLE = [
    ("arima", 0.630, 0.670, None),
    ("sarima", 0.503, 0.527, 21.31),
    ("ols", 0.350, 0.406, 39.39),
    ("ridge", 0.346, 0.402, 40.01),
    ("lasso", 0.298, 0.340, 49.30),
    ("elastic_net", 0.317, 0.364, 45.62),
    ("random_forest", 0.351, 0.417, 37.76),
    ("xgb", 0.264, 0.313, 53.22),
    ("svr", 0.315, 0.368, 45.07),
]
ML_ROWS = ("ridge", "lasso", "elastic_net", "random_forest", "xgb", "svr")


def metric_lines(tmp_path, rows):
    """metrics.csv as the writer leaves it, below its provenance line."""
    write_metrics(OutputDir(str(tmp_path), "0" * 12, 0), rows)
    return (tmp_path / "metrics.csv").read_text().splitlines()[1:]


class TestPointMetrics:
    def test_symmetric_unit_errors(self):
        actual = np.array([1.0, -1.0])
        pred = np.zeros(2)
        assert mae(actual, pred) == 1.0
        assert rmse(actual, pred) == 1.0

    def test_three_four(self):
        actual = np.array([3.0, 4.0])
        pred = np.zeros(2)
        assert mae(actual, pred) == pytest.approx(3.5)
        assert rmse(actual, pred) == pytest.approx(math.sqrt(12.5))

    def test_perfect_forecast(self):
        y = np.arange(5.0)
        assert mae(y, y) == 0.0
        assert rmse(y, y) == 0.0

    def test_mae_never_exceeds_rmse(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            a = rng.normal(size=rng.integers(2, 40))
            p = rng.normal(size=len(a))
            assert mae(a, p) <= rmse(a, p) + 1e-12

    def test_empty_and_mismatched_rejected(self):
        with pytest.raises(EvaluationError):
            mae([], [])
        with pytest.raises(EvaluationError):
            rmse([1.0], [1.0, 2.0])

    def test_rmse_finite_at_1e160(self):
        # each squared error overflows, the RMSE does not
        assert rmse(np.zeros(2), [3e160, 4e160]) == pytest.approx(
            math.sqrt(12.5) * 1e160, rel=1e-15)
        assert rmse([-1e160, 1e160], np.zeros(2)) == pytest.approx(1e160,
                                                                   rel=1e-15)

    def test_rmse_finite_near_float_max(self):
        # 2**1024 is not a float, so the scaling stops at 2**1023
        assert rmse([1.5e308, -1.5e308], np.zeros(2)) == 1.5e308


class TestRmseReduction:
    def test_published_rows_within_rounding(self):
        bench = REFERENCE_TABLE[0][2]
        for name, _, model_rmse, printed in REFERENCE_TABLE[1:]:
            got = rmse_reduction(bench, model_rmse)
            assert abs(got - printed) <= 0.2, name

    def test_leading_case_value(self):
        assert rmse_reduction(0.670, 0.313) == pytest.approx(53.2836, abs=1e-3)
        assert rmse_reduction(0.670, 0.527) == pytest.approx(21.3433, abs=1e-3)

    def test_mean_of_ml_reductions(self):
        printed = {name: red for name, _, _, red in REFERENCE_TABLE[1:]}
        mean = sum(printed[m] for m in ML_ROWS) / len(ML_ROWS)
        assert mean == pytest.approx(45.16, abs=0.05)

    def test_identity_and_monotonicity(self):
        assert rmse_reduction(0.5, 0.5) == 0.0
        assert rmse_reduction(0.5, 0.4) > rmse_reduction(0.5, 0.45)

    def test_nonpositive_benchmark(self):
        with pytest.raises(EvaluationError):
            rmse_reduction(0.0, 0.1)


class TestDmTest:
    def test_identical_errors(self):
        e = np.random.default_rng(1).normal(size=30)
        res = dm_test(e, e.copy())
        assert res.statistic == 0.0
        assert res.pvalue == 1.0

    def test_equal_squared_losses(self):
        # e and -e differ at every step but lose the same: d is all zeros
        e = np.random.default_rng(1).normal(size=30)
        for h in (1, 3):
            res = dm_test(e, -e, h=h)
            assert (res.statistic, res.pvalue) == (0.0, 1.0)

    def test_antisymmetry(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=40)
        b = rng.normal(size=40) * 1.4
        r1 = dm_test(a, b)
        r2 = dm_test(b, a)
        assert r1.statistic == pytest.approx(-r2.statistic, abs=1e-12)
        assert r1.pvalue == pytest.approx(r2.pvalue, abs=1e-12)

    def test_sign_convention_candidate_better_is_positive(self):
        rng = np.random.default_rng(3)
        e = rng.normal(size=100)
        res = dm_test(2.0 * e, e)
        assert res.statistic > 0

    def test_small_sample_auto_switch(self):
        rng = np.random.default_rng(4)
        small = dm_test(rng.normal(size=16) * 2, rng.normal(size=16))
        large = dm_test(rng.normal(size=200) * 2, rng.normal(size=200))
        assert small.small_sample and not large.small_sample

    def test_hln_correction_shrinks_statistic(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=30) * 1.5
        b = rng.normal(size=30)
        plain = dm_test(a, b, small_sample=False)
        corrected = dm_test(a, b, small_sample=True)
        # h=1: factor sqrt((n+1-2)/n) < 1
        assert abs(corrected.statistic) < abs(plain.statistic)
        assert corrected.statistic == pytest.approx(
            plain.statistic * math.sqrt((30 - 1) / 30), abs=1e-12)

    def test_size_under_null(self):
        rng = np.random.default_rng(6)
        rejections = 0
        reps = 500
        for _ in range(reps):
            a = rng.normal(size=100)
            b = rng.normal(size=100)
            if dm_test(a, b).pvalue < 0.05:
                rejections += 1
        assert 0.02 * reps <= rejections <= 0.09 * reps

    def test_power_under_double_error_alternative(self):
        rng = np.random.default_rng(7)
        hits = 0
        reps = 500
        for _ in range(reps):
            e = rng.normal(size=200)
            if dm_test(2.0 * e, e).pvalue < 0.05:
                hits += 1
        assert hits >= 0.95 * reps

    def test_degenerate_constant_differential(self):
        a = np.full(20, 2.0)
        b = np.full(20, 1.0)
        with pytest.raises(EvaluationError, match="degenerate"):
            dm_test(a, b)

    def test_too_short(self):
        with pytest.raises(EvaluationError, match="at least 8"):
            dm_test(np.ones(4), np.zeros(4))

    def test_horizon_must_leave_a_lag_inside_the_sample(self):
        # at h >= n the HLN factor reaches 0 (h = n, n + 1) or the lag
        # loop reads past the sample (h = 40), and a huge h would loop for
        # ever; h = n - 1 keeps its bits
        rng = np.random.default_rng(60)
        a, b = rng.normal(size=16) * 1.5, rng.normal(size=16)
        res = dm_test(a, b, h=15)
        assert (res.statistic, res.pvalue) == (0.41674736796844686,
                                               0.6827657868598336)
        for h in (16, 17, 40, 10 ** 18):
            with pytest.raises(EvaluationError, match=r"horizon must be in \[1, 15\]"):
                dm_test(a, b, h=h)
        with pytest.raises(EvaluationError, match="horizon"):
            dm_test(a, a, h=16)  # equal losses too

    def test_tails_equal_scipy_stats_bitwise(self):
        from scipy import stats  # the oracle; dm_test uses scipy.special

        rng = np.random.default_rng(8)
        scored = {True: 0, False: 0}
        for case in range(600):
            n = int(rng.integers(8, 121))
            h = int(rng.integers(1, 5))
            a = rng.normal(size=n) * rng.uniform(0.3, 4.0)
            b = rng.normal(size=n)
            small = (None, True, False)[case % 3]
            try:
                res = dm_test(a, b, h=h, small_sample=small)
            except EvaluationError:  # nonpositive long-run variance at h > 1
                continue
            x = abs(res.statistic)
            if res.small_sample:
                want = 2.0 * float(stats.t.sf(x, df=n - 1))
            else:
                want = 2.0 * float(stats.norm.sf(x))
            assert (np.float64(res.pvalue).tobytes()
                    == np.float64(want).tobytes())
            scored[res.small_sample] += 1
        assert min(scored.values()) >= 150


class TestOverflowScale:
    SCALE = 2.0 ** 532  # about 1.4e160; a power of two, so scaling is exact

    def test_dm_test_invariant_at_1e160(self):
        # at 2**340 (about 2e102) the squares are finite but the variance's
        # fourth powers are not
        rng = np.random.default_rng(10)
        for n in (12, 60):
            a = rng.normal(size=n) * 1.5
            b = rng.normal(size=n)
            for h, scale in ((1, self.SCALE), (3, self.SCALE), (1, 2.0 ** 340)):
                assert dm_test(a * scale, b * scale, h=h) == dm_test(a, b, h=h)

    def test_metric_table_finite_at_1e160(self):
        rng = np.random.default_rng(11)
        actual = np.zeros(20)
        errors = {"arima": rng.normal(size=20), "ridge": 0.5 * rng.normal(size=20)}
        plain = metric_table(actual, errors, benchmark="arima")
        big = metric_table(actual, {k: v * self.SCALE for k, v in errors.items()},
                           benchmark="arima")
        for p, b in zip(plain, big):
            assert b.mae == p.mae * self.SCALE
            assert b.rmse == p.rmse * self.SCALE
            assert (b.rmse_reduction_pct, b.dm_stat, b.dm_pvalue) == (
                p.rmse_reduction_pct, p.dm_stat, p.dm_pvalue)
            assert b.note == p.note == ""
        assert math.isfinite(big[1].rmse_reduction_pct)


class TestMetricTable:
    def test_exact_benchmark_leaves_reduction_blank(self):
        actual = np.arange(16.0)
        rows = metric_table(actual, {"arima": actual.copy(),
                                     "ridge": actual + 0.5}, benchmark="arima")
        assert (rows[0].rmse, rows[1].rmse) == (0.0, 0.5)
        assert rows[1].rmse_reduction_pct is None

    def test_layout_benchmark_first_blank_cells(self):
        rng = np.random.default_rng(8)
        actual = rng.normal(size=16)
        rows = metric_table(actual, {
            "arima": actual + rng.normal(size=16),
            "boosting": actual + 0.3 * rng.normal(size=16),
        }, benchmark="arima")
        assert rows[0].model == "arima"
        assert rows[0].rmse_reduction_pct is None
        assert rows[0].dm_stat is None
        assert rows[1].rmse_reduction_pct is not None

    def test_failed_family_degrades(self):
        actual = np.arange(10.0)
        rows = metric_table(actual, {"arima": actual + 1.0, "svr": None},
                            benchmark="arima")
        assert rows[1].note == "fit failed"
        assert math.isnan(rows[1].mae) and math.isnan(rows[1].rmse)
        assert rows[1].rmse_reduction_pct is rows[1].dm_stat is None
        assert rows[1].dm_pvalue is None

    def test_dm_skip_reason_kept_in_note(self, tmp_path):
        actual = np.arange(5.0)
        rows = metric_table(actual, {"arima": actual + 1.0,
                                     "ridge": actual + 0.5},
                            benchmark="arima")
        assert rows[1].dm_stat is None and rows[1].dm_pvalue is None
        assert rows[1].note == "dm skipped: need at least 8 forecasts, got 5"
        assert rows[1].rmse_reduction_pct == 50.0
        assert metric_lines(tmp_path, rows)[2] == "ridge,0.5,0.5,50.0,,"

    def test_horizon_past_the_sample_skips_dm(self):
        rng = np.random.default_rng(61)
        actual = rng.normal(size=12)
        rows = metric_table(actual, {"arima": actual + rng.normal(size=12),
                                     "ridge": actual + 0.5 * rng.normal(size=12)},
                            benchmark="arima", h=10 ** 9)
        assert rows[1].dm_stat is None and rows[1].dm_pvalue is None
        assert rows[1].note == "dm skipped: horizon must be in [1, 11], got 1000000000"

    def test_csv_lines_reparse_consistency(self, tmp_path):
        rng = np.random.default_rng(9)
        actual = rng.normal(size=20)
        rows = metric_table(actual, {
            "arima": actual + rng.normal(size=20),
            "ridge": actual + 0.5 * rng.normal(size=20),
            "lasso": actual + 0.4 * rng.normal(size=20),
        }, benchmark="arima")
        lines = metric_lines(tmp_path, rows)
        header = lines[0].split(",")
        bench_rmse = None
        for line in lines[1:]:
            cells = dict(zip(header, line.split(",")))
            if cells["rmse_reduction_pct"] == "":
                bench_rmse = float(cells["rmse"])
                continue
            got = float(cells["rmse_reduction_pct"])
            expect = rmse_reduction(bench_rmse, float(cells["rmse"]))
            assert got == pytest.approx(expect, abs=1e-9)

    def test_missing_benchmark_rejected(self):
        with pytest.raises(EvaluationError):
            metric_table(np.ones(9), {"ridge": np.ones(9)}, benchmark="arima")
