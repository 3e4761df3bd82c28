"""Interpretation products built from a ShapMatrix: dependence-plot records,
outlier-filtered polynomial functional forms, zero crossings, and
summary-plot data.

Outlier filtering fences the feature value or the attribution (its `axis`)
with Tukey's k*IQR rule and iterates to a fixed point, so filtering an
already-filtered point set changes nothing; a pass that would leave fewer
than four points is not applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .shapley import ShapMatrix, global_importance


class InterpretationError(ValueError):
    pass


@dataclass(frozen=True)
class DependencePoint:
    row_index: int
    x_value: float
    shap_value: float
    color_value: float | None = None


@dataclass(frozen=True)
class PolyFit:
    degree: int
    coefficients: tuple[float, ...]  # ascending: c0, c1[, c2]
    r2: float
    adj_r2: float
    n_points: int

    def __post_init__(self):
        if self.degree not in (1, 2):
            raise InterpretationError("degree must be 1 or 2")
        if len(self.coefficients) != self.degree + 1:
            raise InterpretationError("coefficient count does not match degree")

    def __call__(self, x):
        return sum(c * np.asarray(x, dtype=float) ** k
                   for k, c in enumerate(self.coefficients))


@dataclass(frozen=True)
class CrossingReport:
    roots: tuple[float, ...]  # ascending, inside the observed feature range
    x_range: tuple[float, float]


@dataclass(frozen=True)
class FilterResult:
    points: tuple[DependencePoint, ...]
    removed: tuple[int, ...]  # row_index of each dropped point
    applied: bool  # False when filtering would leave < 4 points


def dependence_data(m: ShapMatrix, X, feature: str, feature_names,
                    color_by: str | None = "auto") -> list[DependencePoint]:
    """One point per explained row: raw feature value vs its attribution.

    color_by: explicit feature name, "auto" (pick the feature whose raw
    values correlate most with the residuals of a linear shap-vs-x fit),
    or None for uncolored points.
    """
    X = np.asarray(X, dtype=float)
    names = list(feature_names)
    if X.shape[0] != m.n_rows:
        raise InterpretationError("row count mismatch between X and matrix")
    if feature not in names:
        raise InterpretationError(f"unknown feature {feature!r}")
    j = names.index(feature)
    x = X[:, j]
    phi = m.phi[:, j]

    color_idx = None
    if color_by == "auto":
        color_idx, _ = _auto_color(X, x, phi, j)
    elif color_by is not None:
        if color_by not in names:
            raise InterpretationError(f"unknown feature {color_by!r}")
        color_idx = names.index(color_by)

    points = []
    for r in range(m.n_rows):
        color = float(X[r, color_idx]) if color_idx is not None else None
        points.append(DependencePoint(r, float(x[r]), float(phi[r]), color))
    return points


def _auto_color(X, x, phi, skip: int) -> tuple[int | None, float]:
    """Candidate whose raw values best explain what the linear trend misses,
    and its |correlation| with the residuals; (None, 0.0) when none does.
    Every column is scored in one pass over the rows of a C-ordered X.T, with
    the same pairwise sums as a per-column loop; the scan then takes the
    first column that beats the best by more than 1e-15."""
    A = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(A, phi, rcond=None)
    resid = phi - A @ coef
    if np.std(resid) < 1e-15:
        resid = phi - phi.mean()  # fall back to raw attribution spread
    sr = np.std(resid)
    if sr < 1e-15:
        return None, 0.0
    centered = resid - resid.mean()
    XT = np.ascontiguousarray(X.T)
    sc = np.std(XT, axis=1).tolist()
    cov = np.mean((XT - XT.mean(axis=1, keepdims=True)) * centered, axis=1).tolist()
    sr = float(sr)
    best, best_corr = None, 0.0
    for c in range(len(sc)):
        if c == skip or sc[c] < 1e-15:
            continue
        corr = abs(cov[c] / (sc[c] * sr))
        if corr > best_corr + 1e-15:
            best, best_corr = c, corr
    return best, best_corr


def filter_outliers(points, k: float = 1.5, axis: str = "x") -> FilterResult:
    """Drop points whose x_value (axis "x") or shap_value (axis "shap") is
    outside [Q1 - k*IQR, Q3 + k*IQR], re-fencing until no point is outside;
    see the module docstring for idempotence and the minimum size."""
    points = list(points)
    if not points:
        raise InterpretationError("no points to filter")
    field = {"x": "x_value", "shap": "shap_value"}[axis]
    kept = points
    removed: list[int] = []
    applied = False
    while True:
        xs = np.array([getattr(p, field) for p in kept])
        q1, q3 = np.percentile(xs, [25, 75])
        fence_lo = q1 - k * (q3 - q1)
        fence_hi = q3 + k * (q3 - q1)
        fenced = ((fence_lo <= xs) & (xs <= fence_hi)).tolist()
        inside = [p for p, ok in zip(kept, fenced) if ok]
        if len(inside) == len(kept):
            break
        if len(inside) < 4:
            if not applied:
                return FilterResult(tuple(points), (), applied=False)
            break
        removed.extend(p.row_index for p, ok in zip(kept, fenced) if not ok)
        kept = inside
        applied = True
    return FilterResult(tuple(kept), tuple(removed), applied)


def fit_functional_form(points) -> PolyFit:
    """Least-squares polynomials at degrees 1 and 2; adjusted R^2 picks the
    winner, with ties (within 1e-9) going to the line."""
    points = list(points)
    if len(points) < 4:
        raise InterpretationError(f"need at least 4 points, got {len(points)}")
    x = np.array([p.x_value for p in points])
    yv = np.array([p.shap_value for p in points])
    if np.ptp(x) == 0.0:
        raise InterpretationError("degenerate x values: all identical")

    fits = {}
    for degree in (1, 2):
        A = np.column_stack([x ** d for d in range(degree + 1)])
        coef, *_ = np.linalg.lstsq(A, yv, rcond=None)
        resid = yv - A @ coef
        ss_res = float(resid @ resid)
        ss_tot = float(((yv - yv.mean()) ** 2).sum())
        if ss_tot > 0:
            r2 = 1.0 - ss_res / ss_tot
        else:
            r2 = 1.0 if ss_res < 1e-24 else 0.0
        n = len(points)
        adj = 1.0 - (1.0 - r2) * (n - 1) / (n - 1 - degree)
        fits[degree] = PolyFit(degree, tuple(float(c) for c in coef), r2, adj, n)

    if fits[2].adj_r2 > fits[1].adj_r2 + 1e-9:
        return fits[2]
    return fits[1]


def zero_crossings(fit: PolyFit, x_range) -> CrossingReport:
    """Real roots of the fitted polynomial clipped to the observed range."""
    lo, hi = float(x_range[0]), float(x_range[1])
    if lo > hi:
        raise InterpretationError("empty x range")
    roots: list[float] = []
    if fit.degree == 1:
        c0, c1 = fit.coefficients
        if c1 != 0.0:
            roots.append(-c0 / c1)
    else:
        c0, c1, c2 = fit.coefficients
        if c2 == 0.0:
            if c1 != 0.0:
                roots.append(-c0 / c1)
        else:
            disc = c1 * c1 - 4.0 * c2 * c0
            if disc == 0.0:
                roots.append(-c1 / (2.0 * c2))
            elif disc > 0.0:
                # numerically stable form: avoid cancellation in -b +/- sqrt
                sq = math.sqrt(disc)
                q = -0.5 * (c1 + math.copysign(sq, c1))
                roots.extend([q / c2, c0 / q] if q != 0.0 else
                             [sq / (2 * c2), -sq / (2 * c2)])
    tol = 1e-12 * (1.0 + max(abs(lo), abs(hi)))
    inside = sorted(r for r in roots if lo - tol <= r <= hi + tol)
    return CrossingReport(tuple(float(r) for r in inside), (lo, hi))


@dataclass(frozen=True)
class SummaryRecord:
    feature: str
    row_index: int
    shap_value: float
    normalized_value: float  # feature raw value min-max scaled into [0, 1]


def summary_plot_data(m: ShapMatrix, X, feature_names) -> list[SummaryRecord]:
    """Per-(feature, row) records with min-max normalized raw values for
    color mapping; features ordered by global importance. Constant columns
    normalize to 0.5."""
    X = np.asarray(X, dtype=float)
    names = list(feature_names)
    if X.shape != (m.n_rows, m.n_features):
        raise InterpretationError("shape mismatch between X and matrix")
    ranked = global_importance(m, names)
    records = []
    for feature, _ in ranked:
        j = names.index(feature)
        col = X[:, j]
        lo = col.min()
        span = float(col.max() - lo)
        for r in range(m.n_rows):
            norm = 0.5 if span == 0.0 else float((col[r] - lo) / span)
            records.append(SummaryRecord(feature, r, float(m.phi[r, j]), norm))
    return records
