"""Forecast accuracy metrics and the Diebold-Mariano equal-accuracy test.

The DM loss differential uses squared errors, d_t = e_a^2 - e_b^2 with the
benchmark first, so a positive statistic means the candidate forecast b is
the more accurate one. The long-run variance of d is the Bartlett-kernel
estimate truncated at lag h-1. Small samples (n < 50 by default) switch to
the Harvey-Leybourne-Newbold corrected statistic against t_{n-1}.

The two-sided p-value is 2*stdtr(n-1, -|stat|) or 2*ndtr(-|stat|), the
values scipy.stats.t.sf and norm.sf return. dm_test takes both ufuncs from
scipy.special's compiled `_ufuncs` extension when it first runs, loaded by
`scipy_extension` without scipy/special/__init__.py, whose array-API layer
imports about 250 more modules, numpy.f2py and numpy.testing among them
(about 330 ms and 26 MB of peak memory in a fresh interpreter, against about
25 ms and 4.5 MB for the extension). A later `import scipy.special` reuses the
extension, so the ufuncs are scipy's own objects and each p-value is scipy's.
Nothing else in this module loads scipy.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import cache
from importlib import import_module
from importlib.machinery import PathFinder
from importlib.util import module_from_spec, spec_from_file_location
from types import ModuleType

import numpy as np

SMALL_SAMPLE_N = 50


class EvaluationError(ValueError):
    pass


@cache
def scipy_extension(subpackage: str, name: str) -> ModuleType:
    """The compiled extension scipy.<subpackage>.<name>: the module already in
    sys.modules, else loaded from its file without running the subpackage's
    __init__.py. While it loads, a bare stand-in with the subpackage's
    __path__ takes the package's place if it is not imported yet, so the
    compiled siblings the extension's init imports resolve to their files.
    If the file is missing or its init raises, the plain package import."""
    package, qualname = f"scipy.{subpackage}", f"scipy.{subpackage}.{name}"
    module = sys.modules.get(qualname)
    if module is not None:
        return module
    import scipy
    path = [os.path.join(scipy.__path__[0], subpackage)]
    stand_in = None
    try:
        found = PathFinder.find_spec(name, path)
        if found is None or found.origin is None:
            raise ImportError(f"no {qualname} extension in {path[0]}")
        if package not in sys.modules:
            stand_in = sys.modules[package] = ModuleType(package)
            stand_in.__path__ = path
        spec = spec_from_file_location(qualname, found.origin)
        # registered before exec, as the import system does
        module = sys.modules[qualname] = module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    except Exception:
        sys.modules.pop(qualname, None)
    finally:
        if stand_in is not None:
            del sys.modules[package]
    return import_module(qualname)


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


def pow2_scaled(*errors):
    """(errors / 2**k, 2**k): k is 0 while the largest magnitude is below
    2**250 (fourth powers summed over 2**20 rows stay finite) or not
    finite, else the exponent that brings it into [1, 2), so 2**k is at
    most 2**1023. The division is exact, and the DM statistic and p-value
    do not depend on k."""
    big = max(float(np.abs(e).max()) for e in errors)
    k = math.frexp(big)[1] - 1 if 2.0 ** 250 <= big < math.inf else 0
    return [e / 2.0 ** k for e in errors], 2.0 ** k


def rmse(actual, pred) -> float:
    a, p = _check_pair(actual, pred)
    (e,), scale = pow2_scaled(a - p)
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
    small_sample: bool  # resolved: n < SMALL_SAMPLE_N when given None


def dm_test(errors_a, errors_b, h: int = 1,
            small_sample: bool | None = None) -> DmResult:
    """Diebold-Mariano test on squared-loss differentials.

    errors_a are the benchmark's forecast errors, errors_b the candidate's.
    small_sample None applies the HLN correction automatically for n < 50.
    Error vectors with equal squared losses at every step (identical ones,
    or e and -e) are reported as (0, 1); any other loss series with a
    nonpositive long-run variance is degenerate and raises.
    """
    a = np.asarray(errors_a, dtype=float)
    b = np.asarray(errors_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise EvaluationError(f"mismatched error vectors: {a.shape} vs {b.shape}")
    n = len(a)
    if n < 8:
        raise EvaluationError(f"need at least 8 forecasts, got {n}")
    if not 1 <= h < n:  # lags reach past the sample at h >= n
        raise EvaluationError(f"horizon must be in [1, {n - 1}], got {h}")
    if small_sample is None:
        small_sample = n < SMALL_SAMPLE_N

    (a, b), _ = pow2_scaled(a, b)
    d = a * a - b * b
    if not d.any():
        return DmResult(0.0, 1.0, small_sample)
    dbar = d.mean()
    dc = d - dbar
    lrv = float(dc @ dc) / n
    for lag in range(1, h):
        cov = float(dc[lag:] @ dc[:-lag]) / n
        lrv += 2.0 * (1.0 - lag / h) * cov
    if lrv <= 0:
        raise EvaluationError("nonpositive long-run variance: loss "
                              "differential series is degenerate")
    ufuncs = scipy_extension("special", "_ufuncs")

    stat = dbar / math.sqrt(lrv / n)
    if small_sample:
        correction = math.sqrt((n + 1 - 2 * h + h * (h - 1) / n) / n)
        stat *= correction
        pvalue = 2.0 * float(ufuncs.stdtr(n - 1, -abs(stat)))
    else:
        pvalue = 2.0 * float(ufuncs.ndtr(-abs(stat)))
    return DmResult(float(stat), pvalue, small_sample)


@dataclass(frozen=True)
class MetricRow:
    model: str
    mae: float
    rmse: float
    rmse_reduction_pct: float | None = None  # None on the benchmark row
    dm_stat: float | None = None
    dm_pvalue: float | None = None
    note: str = ""


def metric_table(actual, forecasts: dict, benchmark: str,
                 h: int = 1, small_sample: bool | None = None) -> list[MetricRow]:
    """One MetricRow per model, benchmark first with blank comparison cells.

    `forecasts` maps model id -> forecast vector (or None for a failed
    family, which degrades to a row of blank figures noted "fit failed"
    instead of aborting).
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
            rows.append(MetricRow(name, math.nan, math.nan, note="fit failed"))
            continue
        model_rmse = rmse(actual, pred)
        try:
            dm = dm_test(bench_err, actual - np.asarray(pred, dtype=float),
                         h=h, small_sample=small_sample)
            dm_stat, dm_p, note = dm.statistic, dm.pvalue, ""
        except EvaluationError as exc:
            dm_stat = dm_p = None
            note = f"dm skipped: {exc}"
        # a benchmark that forecast every month exactly leaves no reduction
        reduction = (rmse_reduction(bench_rmse, model_rmse)
                     if bench_rmse > 0 else None)
        rows.append(MetricRow(name, mae(actual, pred), model_rmse, reduction,
                              dm_stat, dm_p, note=note))
    return rows
