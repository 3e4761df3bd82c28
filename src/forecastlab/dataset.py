"""Monthly multivariate series: ingestion, transforms, splitting, synthesis.

A SeriesFrame is an immutable panel of contiguous monthly observations.
All operations here but read_frame are pure: they validate, then return
new frames.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, fields
from itertools import accumulate

import numpy as np

DEFAULT_FEATURES = (
    "RTGS", "SKNBI", "ATMD", "CC", "EM", "DC", "FT", "KUPVA",
    "CIC", "ER", "IR", "CSPI", "SMC", "ADT", "PER", "CCI",
)
DEFAULT_TARGET = "INF"


class DataError(ValueError):
    """Raised for any ingestion or validation failure, with row/column context."""


def coerce_fields(obj, **conversions):
    """For a frozen dataclass's __post_init__: replace each named field by
    its conversion. A failed conversion is a ValueError naming the field."""
    for name, convert in conversions.items():
        try:
            value = convert(getattr(obj, name))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{name}: {exc}") from None
        object.__setattr__(obj, name, value)


def capture(fit, *args, **kwargs):
    """fit(*args, **kwargs), or the ValueError it raises: a grid search
    scores a failed fit as inf instead of stopping."""
    try:
        return fit(*args, **kwargs)
    except ValueError as exc:  # also LinAlgError, the package's errors
        return exc


def listed(convert=None):
    """Conversion of a JSON list to a tuple, item by item when `convert` is
    given. A string or a scalar is an error, never split."""
    def to_tuple(value):
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {value!r}")
        return tuple(value if convert is None else map(convert, value))
    return to_tuple


def optional(convert):
    """Conversion that passes None through."""
    return lambda value: None if value is None else convert(value)


def number(value) -> float:
    """Conversion to a float that rejects booleans and strings, which
    `float` would read as 1.0 or parse."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def finite(value) -> float:
    """Conversion to a float (as `number`) that rejects NaN and infinities."""
    value = number(value)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return value


def integer(value) -> int:
    """Conversion to an int that rejects booleans, strings and non-integral
    floats."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def boolean(value) -> bool:
    """Conversion that accepts only true or false, not a truthy value."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


@dataclass(frozen=True)
class ColumnSchema:
    """Names the target column, the ordered feature columns, and which to log."""

    target: str
    features: tuple[str, ...]
    log_columns: tuple[str, ...] = ()

    def __post_init__(self):
        coerce_fields(self, features=listed(), log_columns=listed())
        if self.target in self.features:
            raise DataError(f"target {self.target!r} also listed as a feature")
        names = (self.target,) + self.features
        if len(set(names)) != len(names):
            raise DataError("column names must be unique")
        allowed = set(names)
        for name in self.log_columns:
            if name not in allowed:
                raise DataError(f"log column {name!r} not in schema")

    @property
    def all_columns(self) -> tuple[str, ...]:
        return (self.target,) + self.features


def default_schema() -> ColumnSchema:
    """The 16-regressor monthly layout used throughout the bundled configs."""
    return ColumnSchema(target=DEFAULT_TARGET, features=DEFAULT_FEATURES)


@dataclass(frozen=True)
class SeriesFrame:
    """Contiguous monthly panel: a start month plus named numeric columns.

    Invariants enforced at construction: every column has the same length
    n_rows >= 1 and every cell is finite.
    """

    start_year: int
    start_month: int
    columns: tuple[str, ...]
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 2:
            raise DataError("data must be a 2-d array (rows x columns)")
        if arr.shape[0] < 1:
            raise DataError("frame must contain at least one row")
        if arr.shape[1] != len(self.columns):
            raise DataError(
                f"{len(self.columns)} column names but data has {arr.shape[1]} columns")
        if not (1 <= self.start_month <= 12):
            raise DataError(f"start_month must be 1..12, got {self.start_month}")
        if not np.all(np.isfinite(arr)):
            r, c = np.argwhere(~np.isfinite(arr))[0]
            raise DataError(f"non-finite value at row {r}, column {self.columns[c]!r}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise DataError(f"unknown column {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.column_index(name)]

    def matrix(self, names) -> np.ndarray:
        idx = [self.column_index(n) for n in names]
        return self.data[:, idx]

    def month_labels(self) -> list[str]:
        """Row stamps as YYYY-MM strings."""
        base = self.start_year * 12 + (self.start_month - 1)
        return [f"{(base + i) // 12:04d}-{(base + i) % 12 + 1:02d}"
                for i in range(self.n_rows)]

    def with_data(self, data: np.ndarray) -> "SeriesFrame":
        return SeriesFrame(self.start_year, self.start_month, self.columns, data)


def _parse_month(stamp: str, row: int) -> tuple[int, int]:
    parts = stamp.strip().split("-")
    if len(parts) != 2:
        raise DataError(f"row {row}: bad month stamp {stamp!r} (expected YYYY-MM)")
    try:
        year, month = int(parts[0]), int(parts[1])
    except ValueError:
        raise DataError(f"row {row}: bad month stamp {stamp!r}") from None
    if not (1 <= month <= 12):
        raise DataError(f"row {row}: month out of range in {stamp!r}")
    return year, month


def load_frame(source: str, schema: ColumnSchema) -> SeriesFrame:
    """Parse delimited text (header + `date` column) into a validated SeriesFrame.

    The first column must be YYYY-MM stamps, consecutive with no gaps or
    duplicates; every schema column must be present and numeric.
    """
    reader = csv.reader(io.StringIO(source))
    rows = [r for r in reader if r and any(cell.strip() for cell in r)
            and not r[0].lstrip().startswith("#")]
    if not rows:
        raise DataError("empty input")
    header = [h.strip() for h in rows[0]]
    if not header or header[0].lower() != "date":
        raise DataError("first header column must be 'date'")
    names = header[1:]
    seen = set()
    for n in names:
        if n in seen:
            raise DataError(f"duplicate column {n!r} in header")
        seen.add(n)
    for required in schema.all_columns:
        if required not in names:
            raise DataError(f"missing column {required!r}")

    stamps = []
    values = []
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise DataError(f"row {i}: expected {len(header)} cells, got {len(row)}")
        stamps.append(_parse_month(row[0], i))
        parsed = []
        for name, cell in zip(names, row[1:]):
            try:
                v = float(cell)
            except ValueError:
                raise DataError(f"row {i}: non-numeric cell in column {name!r}: "
                                f"{cell!r}") from None
            if not math.isfinite(v):
                raise DataError(f"row {i}: non-finite cell in column {name!r}")
            parsed.append(v)
        values.append(parsed)
    if not values:
        raise DataError("no data rows")

    year0, month0 = stamps[0]
    base = year0 * 12 + (month0 - 1)
    for i, (yr, mo) in enumerate(stamps):
        got = yr * 12 + (mo - 1)
        if got == base + i:
            continue
        if i > 0 and got == base + i - 1:
            raise DataError(f"row {i + 1}: duplicate month {yr:04d}-{mo:02d}")
        raise DataError(
            f"row {i + 1}: calendar gap, expected "
            f"{(base + i) // 12:04d}-{(base + i) % 12 + 1:02d} got {yr:04d}-{mo:02d}")

    # reorder to schema layout: target first, then features, then any extras
    extras = [n for n in names if n not in schema.all_columns]
    ordered = list(schema.all_columns) + extras
    raw = np.asarray(values, dtype=float)
    idx = [names.index(n) for n in ordered]
    return SeriesFrame(year0, month0, tuple(ordered), raw[:, idx])


def read_frame(path: str, schema: ColumnSchema) -> SeriesFrame:
    """load_frame on the file at `path`; an unreadable or non-UTF-8 file is
    a DataError. A leading byte-order mark, which spreadsheets write in
    "CSV UTF-8", is dropped."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path!r} is not UTF-8: {exc}") from None
    return load_frame(text, schema)


def log_transform(frame: SeriesFrame, columns) -> SeriesFrame:
    """Replace the named columns with their natural logs; all cells must be > 0."""
    data = frame.data.copy()
    for name in columns:
        j = frame.column_index(name)
        col = data[:, j]
        bad = np.nonzero(col <= 0)[0]
        if bad.size:
            raise DataError(
                f"row {bad[0]}: non-positive value {float(col[bad[0]])!r} in column "
                f"{name!r} cannot be log-transformed")
        data[:, j] = np.log(col)
    return frame.with_data(data)


def chrono_split(frame: SeriesFrame, test_months: int) -> tuple[SeriesFrame, SeriesFrame]:
    """First n-m rows for training, last m for testing; order preserved."""
    m = test_months
    if not 1 <= m < frame.n_rows:
        raise DataError(f"test_months must be in 1..{frame.n_rows - 1}, got {m}")
    train = SeriesFrame(frame.start_year, frame.start_month, frame.columns,
                        frame.data[:-m])
    base = frame.start_year * 12 + (frame.start_month - 1) + (frame.n_rows - m)
    test = SeriesFrame(base // 12, base % 12 + 1, frame.columns, frame.data[-m:])
    return train, test


def feature_rows(X, n_features: int) -> np.ndarray:
    """X as 2-d float rows of exactly n_features columns: the row check of
    every fitted model's predict and of Standardization.transform."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ValueError(f"expected {n_features} feature columns, got shape {X.shape}")
    return X


def fit_rows(X, y):
    """X and y as float arrays: the training-rows check of every fit. X must
    be 2-d with at least one row and one column, y 1-d with X's row count."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or not X.shape[0]:
        raise ValueError(f"X must be a nonempty 2-d array, got shape {X.shape}")
    if not X.shape[1]:
        raise ValueError("X has no feature columns")
    if y.ndim != 1:
        raise ValueError(f"y must be 1-d, got shape {y.shape}")
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    return X, y


class FittedRecord:
    """Base of the fitted records, frozen dataclasses declared eq=False: two
    are equal when they are of one type and equal field by field. An array
    field compares by dtype, shape and bytes and a float field by its bytes
    (a Python float as float64), so -0.0 and 0.0 differ and a NaN equals
    its own bits;
    any other field (an int, a bool, a kernel spec, a nested record or a
    tuple of trees) by its own ==. So a model reloaded from model.json
    equals the fitted one only when their bits agree, and == never asks an
    array for its truth value. Equal records need not be one object, so
    none hashes."""

    __hash__ = None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(_same_field(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


_BITS = (np.ndarray, float, np.floating)  # compared by their bytes


def _same_field(a, b) -> bool:
    if isinstance(a, _BITS) or isinstance(b, _BITS):
        if not (isinstance(a, _BITS) and isinstance(b, _BITS)):
            return False
        a, b = np.asarray(a), np.asarray(b)
        return (a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    return a == b


@dataclass(frozen=True, eq=False)
class Standardization(FittedRecord):
    """Per-feature center/scale computed on training data (population sd)."""

    means: np.ndarray
    scales: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Standardization":
        X = np.asarray(X, dtype=float)
        means = X.mean(axis=0)
        scales = X.std(axis=0)  # population (1/n) sd
        scales = np.where(scales == 0.0, 1.0, scales)  # zero-variance guard
        return cls(means, scales)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (feature_rows(X, len(self.means)) - self.means) / self.scales


# per synth kind: (coefficients, intercept) unless the spec sets them
_SYNTH_KINDS = {"linear": ((2.0, -3.0, 0.5), 1.0),
                "nonlinear": ((2.0, 1.5, -2.0), 3.0)}


@dataclass(frozen=True)
class SynthSpec:
    """Synthetic data generating process; the fields are the data.synth keys.

    `kind` selects the functional form, `drivers` records the true signal
    columns so downstream checks can verify recovered importance rankings.
    Empty `coefficients` and a None `intercept` take the kind's. Target
    noise is AR(1) with coefficient `noise_ar` and innovation scale
    `noise_scale` (finite, >= 0); scale 0 makes the target exactly the
    declared function.
    """

    kind: str = "nonlinear"  # linear | nonlinear
    n: int = 84
    drivers: tuple[str, ...] = ("ATMD", "CC", "IR")
    coefficients: tuple[float, ...] = ()  # empty: the kind's
    intercept: float | None = None  # None: the kind's
    noise_scale: float = 0.25
    noise_ar: float = 0.3

    def __post_init__(self):
        coerce_fields(self, n=integer, drivers=listed(),
                      coefficients=listed(finite), intercept=optional(finite),
                      noise_scale=finite, noise_ar=finite)
        if self.kind not in _SYNTH_KINDS:
            raise DataError(f"unknown synth kind {self.kind!r}")
        if self.n < 40:
            raise DataError(f"synthetic frames need n >= 40, got {self.n}")
        if self.noise_scale < 0:
            raise DataError(f"noise_scale must be >= 0, got {self.noise_scale}")
        n_coefs = len(self.coefficients or _SYNTH_KINDS[self.kind][0])
        if n_coefs != len(self.drivers) or (self.kind == "nonlinear"
                                            and n_coefs != 3):
            raise DataError(f"{self.kind} synth takes one coefficient per "
                            f"driver (nonlinear: 3); got {n_coefs} for "
                            f"{len(self.drivers)} drivers")

    def driver_columns(self, schema: ColumnSchema) -> list[int]:
        """Positions of the drivers among the schema's features."""
        for d in self.drivers:
            if d not in schema.features:
                raise DataError(f"synth driver {d!r} not among schema features")
        return [schema.features.index(d) for d in self.drivers]

    def signal(self, driver_values: np.ndarray) -> np.ndarray:
        """Noiseless target as a function of the driver columns (in order)."""
        D = np.asarray(driver_values, dtype=float)
        coefs, intercept = _SYNTH_KINDS[self.kind]
        c = self.coefficients or coefs
        if self.intercept is not None:
            intercept = self.intercept
        if self.kind == "linear":
            return intercept + D @ np.asarray(c, dtype=float)
        # additive smooth nonlinearity: sine, centered quadratic, linear
        return (intercept
                + c[0] * np.sin(1.2 * (D[:, 0] - 5.0))
                + c[1] * (D[:, 1] - 5.0) ** 2
                + c[2] * (D[:, 2] - 5.0))


def synth_generate(seed: int, schema: ColumnSchema, spec: SynthSpec) -> SeriesFrame:
    """Deterministic synthetic monthly panel with a declared target process.

    Features are independent stationary AR(1) processes around level 5 with
    unit stationary variance; the target is spec.signal over the driver
    columns plus AR(1) noise. Each feature's n + 1 normals (the last one
    unused) and the noise's n are drawn in one call each, the stream of
    per-draw calls; the recursions run on Python floats.
    """
    didx = spec.driver_columns(schema)
    n = spec.n
    rng = np.random.default_rng(seed)
    p = len(schema.features)
    rhos = 0.5 + 0.4 * ((np.arange(p) * 7) % 10) / 9.0  # fixed spread in [0.5, 0.9]
    X = np.empty((n, p))
    for j, rho in enumerate(rhos.tolist()):
        innov_sd = math.sqrt(1.0 - rho * rho)
        draws = rng.normal(0.0, 1.0, n + 1).tolist()
        X[:, j] = list(accumulate(draws[1:n], initial=draws[0],
                                  func=lambda x, z: rho * x + innov_sd * z))
    X += 5.0

    y = spec.signal(X[:, didx])
    if spec.noise_scale > 0:
        ar, scale = spec.noise_ar, spec.noise_scale
        y = y + np.array(list(accumulate(
            rng.normal(0.0, 1.0, n).tolist(), initial=0.0,
            func=lambda u, z: ar * u + scale * z))[1:])

    data = np.column_stack([y, X])
    return SeriesFrame(2015, 1, (schema.target,) + schema.features, data)
