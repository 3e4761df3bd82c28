"""Interpretation products built from a ShapMatrix, as arrays: dependence
and summary-plot columns (equal-length, for the pipeline's CSV writer),
outlier-filtered polynomial functional forms, and zero crossings.

Outlier filtering fences the feature value or the attribution (its `axis`)
with Tukey's k*IQR rule and iterates to a fixed point, so filtering an
already-filtered point set changes nothing; a pass that would leave fewer
than four points is not applied. A point is named by its position in the
given columns, for the dependence columns its explained row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .shapley import ShapMatrix, global_importance


class InterpretationError(ValueError):
    pass


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
    kept: np.ndarray  # positions of the kept points, ascending
    removed: tuple[int, ...]  # position of each dropped point, as dropped
    applied: bool  # False when filtering would leave < 4 points


def column_stats(X) -> tuple[list[float], np.ndarray]:
    """Each column's std and its centred values as rows of a C-ordered X.T:
    what `auto` colouring reads of X for any feature, so computed once."""
    XT = np.ascontiguousarray(np.asarray(X, dtype=float).T)
    return np.std(XT, axis=1).tolist(), XT - XT.mean(axis=1, keepdims=True)


def dependence_data(m: ShapMatrix, X, feature: str, feature_names,
                    color_by: str | None = "auto", stats=None):
    """The columns (row_index, x_value, shap_value, color_value), one point
    per explained row; color_value is None when no column colours them.

    color_by: explicit feature name, "auto" (pick the feature whose raw
    values correlate most with the residuals of a linear shap-vs-x fit),
    or None for uncolored points. `stats`, column_stats(X), saves "auto"
    recomputing it.
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
        color_idx, _ = _auto_color(column_stats(X) if stats is None else stats,
                                   x, phi, j)
    elif color_by is not None:
        if color_by not in names:
            raise InterpretationError(f"unknown feature {color_by!r}")
        color_idx = names.index(color_by)
    return (np.arange(m.n_rows), x, phi,
            None if color_idx is None else X[:, color_idx])


def _auto_color(stats, x, phi, skip: int) -> tuple[int | None, float]:
    """Candidate whose raw values best explain what the linear trend misses,
    and its |correlation| with the residuals; (None, 0.0) when none does.
    Every column is scored in one pass over the centred rows of `stats`
    (column_stats of X), with the same pairwise sums as a per-column loop;
    the scan then takes the first column that beats the best by more than
    1e-15."""
    A = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(A, phi, rcond=None)
    resid = phi - A @ coef
    sr = np.std(resid)
    if sr < 1e-15:
        resid = phi - phi.mean()  # fall back to raw attribution spread
        sr = np.std(resid)
    if sr < 1e-15:
        return None, 0.0
    sc, centred_cols = stats
    cov = np.mean(centred_cols * (resid - resid.mean()), axis=1).tolist()
    sr = float(sr)
    best, best_corr = None, 0.0
    for c in range(len(sc)):
        if c == skip or sc[c] < 1e-15:
            continue
        corr = abs(cov[c] / (sc[c] * sr))
        if corr > best_corr + 1e-15:
            best, best_corr = c, corr
    return best, best_corr


def _quartiles(xs) -> tuple[float, float]:
    """`np.percentile(xs, [25, 75])` to the bit, without the `np.unique`
    call that imports numpy.ma. As numpy does for the linear method: the
    virtual index is (n - 1) * q, the neighbours are its floor and the next
    position (both the last where it reaches n - 1), one `partition` of a
    copy at numpy's own sorted kth list places them (so a zero quartile
    keeps the sign numpy's gives it, which a full sort can change), a NaN
    last makes both quartiles NaN, and `_lerp` blends the neighbours, from
    the upper one when the weight is >= 0.5."""
    n = len(xs)
    picks = []
    for q in (0.25, 0.75):
        v = (n - 1) * q
        lo = hi = -1
        if v < n - 1:
            lo = math.floor(v)
            hi = lo + 1
        picks.append((v - lo, lo, hi))
    part = np.array(xs, dtype=float)
    part.partition(sorted({0, -1, *(i for _, *ends in picks for i in ends)}))
    last = part.item(-1)
    if last != last:
        return last, last
    quartiles = []
    for t, lo, hi in picks:
        a, b = part.item(lo), part.item(hi)
        d = b - a
        quartiles.append(b - d * (1 - t) if t >= 0.5 else a + d * t)
    return quartiles[0], quartiles[1]


def filter_outliers(x, shap, k: float = 1.5, axis: str = "x") -> FilterResult:
    """Drop points whose x (axis "x") or shap (axis "shap") value is outside
    [Q1 - k*IQR, Q3 + k*IQR], re-fencing until no point is outside; see the
    module docstring for idempotence and the minimum size."""
    values = np.asarray({"x": x, "shap": shap}[axis], dtype=float)
    if not len(values):
        raise InterpretationError("no points to filter")
    kept = np.arange(len(values))
    removed: list[int] = []
    applied = False
    while True:
        xs = values[kept]
        q1, q3 = _quartiles(xs)
        fence_lo = q1 - k * (q3 - q1)
        fence_hi = q3 + k * (q3 - q1)
        fenced = (fence_lo <= xs) & (xs <= fence_hi)
        inside = int(np.count_nonzero(fenced))
        if inside == len(kept):
            break
        if inside < 4:
            if not applied:
                return FilterResult(np.arange(len(values)), (), applied=False)
            break
        removed.extend(kept[~fenced].tolist())
        kept = kept[fenced]
        applied = True
    return FilterResult(kept, tuple(removed), applied)


def fit_functional_form(x, y) -> PolyFit:
    """Least-squares polynomials of y on x at degrees 1 and 2; adjusted R^2
    picks the winner, with ties (within 1e-9) going to the line."""
    x = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    n = len(x)
    if n < 4:
        raise InterpretationError(f"need at least 4 points, got {n}")
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
    c0, c1, c2 = (*fit.coefficients, 0.0)[:3]  # a line has c2 = 0
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


def summary_plot_data(m: ShapMatrix, X, feature_names):
    """The columns (feature, row_index, shap_value, normalized_value), by
    feature in global-importance order, then by row; raw values min-max
    scaled into [0, 1] for color mapping, constant columns to 0.5."""
    X = np.asarray(X, dtype=float)
    names = list(feature_names)
    if X.shape != (m.n_rows, m.n_features):
        raise InterpretationError("shape mismatch between X and matrix")
    order = [names.index(feature) for feature, _ in global_importance(m, names)]
    n = m.n_rows
    normalized = [np.empty(0)]  # so that no features gives empty columns
    for j in order:
        col = X[:, j]
        lo = col.min()
        span = float(col.max() - lo)
        normalized.append(np.full(n, 0.5) if span == 0.0 else (col - lo) / span)
    return ([names[j] for j in order for _ in range(n)],
            np.tile(np.arange(n), len(order)), m.phi[:, order].T.ravel(),
            np.concatenate(normalized))
