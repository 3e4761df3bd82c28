"""Forecast accuracy metrics and the Diebold-Mariano equal-accuracy test.

The DM loss differential uses squared errors, d_t = e_a^2 - e_b^2 with the
benchmark first, so a positive statistic means the candidate forecast b is
the more accurate one. The long-run variance of d is the Bartlett-kernel
estimate truncated at lag h-1. Small samples (n < 50 by default) switch to
the Harvey-Leybourne-Newbold corrected statistic against t_{n-1}.

The two-sided p-value is 2*stdtr(n-1, -|stat|) or 2*ndtr(-|stat|), the
values scipy.stats.t.sf and norm.sf return. dm_test imports scipy.special
for them when it first runs, so nothing else in this module loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SMALL_SAMPLE_N = 50


class EvaluationError(ValueError):
    pass


def _check_pair(actual, pred):
    a = np.asarray(actual, dtype=float)
    p = np.asarray(pred, dtype=float)
    if a.ndim != 1 or p.ndim != 1 or len(a) != len(p):
        raise EvaluationError(f"mismatched vectors: {a.shape} vs {p.shape}")
    if len(a) == 0:
        raise EvaluationError("empty vectors")
    return a, p


def mae(actual, pred) -> float:
    a, p = _check_pair(actual, pred)
    return float(np.abs(a - p).mean())


def _scaled(*errors):
    """(errors / 2**k, 2**k): k is 0 while the largest magnitude is below
    2**250 (fourth powers summed over 2**20 rows stay finite) or not
    finite, else the exponent that brings it below 1. The division is
    exact, and the DM statistic and p-value do not depend on k."""
    big = max(float(np.abs(e).max()) for e in errors)
    k = math.frexp(big)[1] if 2.0 ** 250 <= big < math.inf else 0
    return [e / 2.0 ** k for e in errors], 2.0 ** k


def rmse(actual, pred) -> float:
    a, p = _check_pair(actual, pred)
    (e,), scale = _scaled(a - p)
    return float(np.sqrt((e ** 2).mean()) * scale)


def rmse_reduction(benchmark_rmse: float, model_rmse: float) -> float:
    """Percent improvement over the benchmark: 100 (bench - model) / bench."""
    if benchmark_rmse <= 0:
        raise EvaluationError(f"benchmark rmse must be > 0, got {benchmark_rmse}")
    return 100.0 * (benchmark_rmse - model_rmse) / benchmark_rmse


@dataclass(frozen=True)
class DmResult:
    statistic: float
    pvalue: float
    n: int
    truncation_lag: int
    small_sample: bool


def dm_test(errors_a, errors_b, h: int = 1,
            small_sample: bool | None = None) -> DmResult:
    """Diebold-Mariano test on squared-loss differentials.

    errors_a are the benchmark's forecast errors, errors_b the candidate's.
    small_sample None applies the HLN correction automatically for n < 50.
    Identical error vectors are reported as (0, 1); any other loss series
    with a nonpositive long-run variance is degenerate and raises.
    """
    a = np.asarray(errors_a, dtype=float)
    b = np.asarray(errors_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise EvaluationError(f"mismatched error vectors: {a.shape} vs {b.shape}")
    n = len(a)
    if n < 8:
        raise EvaluationError(f"need at least 8 forecasts, got {n}")
    if h < 1:
        raise EvaluationError(f"horizon must be >= 1, got {h}")
    if small_sample is None:
        small_sample = n < SMALL_SAMPLE_N

    (a, b), _ = _scaled(a, b)
    d = a * a - b * b
    if not d.any():
        return DmResult(0.0, 1.0, n, h - 1, small_sample)
    dbar = d.mean()
    dc = d - dbar
    lrv = float(dc @ dc) / n
    for lag in range(1, h):
        cov = float(dc[lag:] @ dc[:-lag]) / n
        lrv += 2.0 * (1.0 - lag / h) * cov
    if lrv <= 0:
        raise EvaluationError("nonpositive long-run variance: loss "
                              "differential series is degenerate")
    from scipy.special import ndtr, stdtr

    stat = dbar / math.sqrt(lrv / n)
    if small_sample:
        correction = math.sqrt((n + 1 - 2 * h + h * (h - 1) / n) / n)
        stat *= correction
        pvalue = 2.0 * float(stdtr(n - 1, -abs(stat)))
    else:
        pvalue = 2.0 * float(ndtr(-abs(stat)))
    return DmResult(float(stat), pvalue, n, h - 1, small_sample)


@dataclass(frozen=True)
class MetricRow:
    model: str
    mae: float
    rmse: float
    rmse_reduction_pct: float | None = None  # None on the benchmark row
    dm_stat: float | None = None
    dm_pvalue: float | None = None
    failed: bool = False
    note: str = ""


def metric_table(actual, forecasts: dict, benchmark: str,
                 h: int = 1, small_sample: bool | None = None) -> list[MetricRow]:
    """One MetricRow per model, benchmark first with blank comparison cells.

    `forecasts` maps model id -> forecast vector (or None for a failed
    family, which degrades to a flagged row instead of aborting).
    """
    if benchmark not in forecasts:
        raise EvaluationError(f"benchmark {benchmark!r} missing from forecasts")
    actual = np.asarray(actual, dtype=float)
    rows: list[MetricRow] = []
    bench_pred = forecasts[benchmark]
    if bench_pred is None:
        raise EvaluationError("benchmark forecast failed; nothing to compare")
    bench_err = actual - np.asarray(bench_pred, dtype=float)
    bench_rmse = rmse(actual, bench_pred)
    rows.append(MetricRow(benchmark, mae(actual, bench_pred), bench_rmse))
    for name, pred in forecasts.items():
        if name == benchmark:
            continue
        if pred is None:
            rows.append(MetricRow(name, math.nan, math.nan, failed=True,
                                  note="fit failed"))
            continue
        model_rmse = rmse(actual, pred)
        try:
            dm = dm_test(bench_err, actual - np.asarray(pred, dtype=float),
                         h=h, small_sample=small_sample)
            dm_stat, dm_p, note = dm.statistic, dm.pvalue, ""
        except EvaluationError as exc:
            dm_stat = dm_p = None
            note = f"dm skipped: {exc}"
        rows.append(MetricRow(name, mae(actual, pred), model_rmse,
                              rmse_reduction(bench_rmse, model_rmse),
                              dm_stat, dm_p, note=note))
    return rows
