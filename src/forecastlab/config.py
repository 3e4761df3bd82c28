"""Run configuration: a single JSON document, read through dataclasses.

Each section is one dataclass, read by `read_section`: its field names are
the keys, its field defaults are the defaults, and its __post_init__
converts and checks the values. The roster's benchmark reads only
`candidates` (`BenchmarkSpec`), every other family only `grid` (`FamilySpec`).
Every value of a family's grid, its shipped default included, must pass the
family's one cell check
(`families.FAMILIES[name].params`) on its own, against the schema's width.

One master seed determines every downstream RNG through
`derive_seed(master, *tags)`: sha256 over "master|tag|tag|..." truncated
to 63 bits. Purpose tags used by the pipeline:

    ("synth",)                      synthetic data generation
    ("cv", test_months)             fold shuffling
    ("fit", family, test_months)    model-fit randomness per family/split
    ("arima", test_months)          CSS multistart perturbations
    ("background",)                 background subsampling for attribution
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, field, fields

from .arima import ArimaOrder, default_order_candidates
from .dataset import ColumnSchema, DataError, SynthSpec, boolean, coerce_fields, default_schema, integer, listed, number, optional
from .families import FAMILIES
from .tuning import CvPlan, ParamGrid

BENCHMARK_FAMILY = "arima"  # the univariate benchmark, chosen by order selection


class ConfigError(ValueError):
    pass


def derive_seed(master: int, *tags) -> int:
    text = "|".join([str(int(master))] + [str(t) for t in tags])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def read_section(cls, doc, where: str, skip=(), **given):
    """Build dataclass `cls` from the JSON mapping `doc`, whose keys are the
    field names less `skip` and less the fields `given` here. A TypeError or
    ValueError from the construction becomes a ConfigError naming `where`."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a mapping, got {doc!r}")
    keys = {f.name for f in fields(cls)} - set(skip) - set(given)
    unknown = set(doc) - keys
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    absent = keys - set(doc)
    missing = [f.name for f in fields(cls)
               if f.name in absent and f.default is f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{where} requires key(s) {missing}")
    try:
        return cls(**doc, **given)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class DataSpec:
    csv: str | None = None  # path of the input CSV
    synth: SynthSpec | None = None  # the default data when csv is None

    def __post_init__(self):
        coerce_fields(self, csv=optional(str))
        if self.csv is not None and self.synth is not None:
            raise ValueError("give csv or synth, not both")
        if self.csv is None and not isinstance(self.synth, SynthSpec):
            synth = {} if self.synth is None else self.synth
            object.__setattr__(self, "synth",
                               read_section(SynthSpec, synth, "data.synth"))


def _order(item) -> ArimaOrder:
    if not isinstance(item, list) or len(item) not in (3, 7):
        raise ValueError(f"a candidate must be [p,d,q] or [p,d,q,P,D,Q,s], "
                         f"got {item!r}")
    return ArimaOrder(*map(integer, item))


def _orders(value) -> tuple[ArimaOrder, ...]:
    if value == "default":
        return tuple(default_order_candidates())
    return tuple(map(_order, listed()(value)))


@dataclass(frozen=True)
class BenchmarkSpec:
    family: str
    candidates: tuple[ArimaOrder, ...] | str = "default"  # "default": the shipped order grid

    def __post_init__(self):
        coerce_fields(self, candidates=_orders)
        if not self.candidates:
            raise ValueError("candidates must not be empty")


@dataclass(frozen=True)
class FamilySpec:
    family: str
    grid: dict = field(default_factory=dict)  # empty: shipped default grid

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown roster family {self.family!r}")
        if not isinstance(self.grid, dict):
            raise TypeError(f"grid must be a mapping, got {self.grid!r}")
        ParamGrid.from_dict(self.grid)  # checks each list; RunConfig each value

    def param_grid(self, n_features: int | None = None) -> ParamGrid:
        """The cell grid; an empty `grid` takes Family.default_grid(n_features)."""
        mapping = self.grid or FAMILIES[self.family].default_grid(n_features)
        return ParamGrid.from_dict(mapping)


def _small_sample(value) -> bool | None:
    return None if value is None or value == "auto" else boolean(value)


@dataclass(frozen=True)
class DmOptions:
    h: int = 1
    small_sample: bool | None = None  # None ("auto"): below 50 forecasts

    def __post_init__(self):
        coerce_fields(self, h=integer, small_sample=_small_sample)
        if self.h < 1:
            raise ValueError(f"h must be >= 1, got {self.h}")


@dataclass(frozen=True)
class ExplainOptions:
    rows: str = "train"  # train | test
    background_cap: int = 100
    outlier_k: float = 1.5
    outlier_axis: str = "x"  # x | shap

    def __post_init__(self):
        coerce_fields(self, background_cap=integer, outlier_k=number)
        if self.background_cap < 1:
            raise ValueError(f"background_cap must be >= 1, "
                             f"got {self.background_cap}")
        if not self.outlier_k >= 0:  # NaN too
            raise ValueError(f"outlier_k must be >= 0, got {self.outlier_k}")
        if self.rows not in ("train", "test"):
            raise ValueError(f"rows must be train or test, got {self.rows!r}")
        if self.outlier_axis not in ("x", "shap"):
            raise ValueError(f"outlier_axis must be x or shap, "
                             f"got {self.outlier_axis!r}")


def _read_roster(doc) -> tuple[BenchmarkSpec | FamilySpec, ...]:
    if not isinstance(doc, dict):
        raise ConfigError(f"roster must be a mapping, got {doc!r}")
    return tuple(
        read_section({BENCHMARK_FAMILY: BenchmarkSpec}.get(family, FamilySpec),
                     {} if body is None else body, f"roster.{family}", family=family)
        for family, body in doc.items())


# no section takes a seed: every stream derives from the master seed
_SECTIONS = {"data": DataSpec, "schema": ColumnSchema, "cv": CvPlan,
             "dm": DmOptions, "explain": ExplainOptions}


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    seed: int = 0
    out_dir: str = "out"
    data: DataSpec
    schema: ColumnSchema = field(default_factory=default_schema)
    roster: tuple[BenchmarkSpec | FamilySpec, ...]  # in document order
    split_months: tuple[int, ...] = (24, 16, 12, 9, 6)
    primary_split: int = 16
    cv: CvPlan = CvPlan()
    dm: DmOptions = DmOptions()
    explain: ExplainOptions = ExplainOptions()

    def __post_init__(self):
        coerce_fields(self, seed=integer, out_dir=str,
                      split_months=listed(integer), primary_split=integer)
        for name, cls in _SECTIONS.items():
            value = getattr(self, name)
            if not isinstance(value, cls):
                object.__setattr__(self, name, read_section(
                    cls, value, name, skip=("seed",)))
        if not isinstance(self.roster, tuple):
            object.__setattr__(self, "roster", _read_roster(self.roster))
        if not self.roster:
            raise ConfigError("roster must not be empty")
        names = [f.family for f in self.roster]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate roster families")
        if BENCHMARK_FAMILY not in names:
            raise ConfigError("roster must include the arima benchmark")
        if self.primary_split not in self.split_months:
            raise ConfigError(f"primary split {self.primary_split} missing "
                              f"from split_months {list(self.split_months)}")
        for m in self.split_months:
            if m < 1:
                raise ConfigError(f"split months must be >= 1, got {m}")
            if self.split_months.count(m) > 1:
                raise ConfigError(f"split_months repeats {m}")
        if self.data.synth is not None:
            try:
                self.data.synth.driver_columns(self.schema)
            except DataError as exc:
                raise ConfigError(f"data.synth: {exc}") from None
        n_features = len(self.schema.features)
        for spec in self.families:
            for name, values in spec.param_grid(n_features).axes:
                for value in values:
                    try:
                        FAMILIES[spec.family].params({name: value},
                                                     n_features=n_features)
                    except (TypeError, ValueError) as exc:
                        raise ConfigError(f"roster.{spec.family}: grid value "
                                          f"{name}={value!r}: {exc}") from None

    def roster_spec(self, family: str) -> BenchmarkSpec | FamilySpec:
        for spec in self.roster:
            if spec.family == family:
                return spec
        raise ConfigError(f"family {family!r} not in roster")

    @property
    def families(self) -> tuple[FamilySpec, ...]:
        """The roster without the benchmark, in document order."""
        return tuple(s for s in self.roster if isinstance(s, FamilySpec))

    @property
    def model_ids(self) -> list[str]:
        return [BENCHMARK_FAMILY] + [s.family for s in self.families]


def parse_config(doc: dict, seed_override: int | None = None,
                 out_override: str | None = None) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    if seed_override is not None:
        doc = {**doc, "seed": seed_override}
    if out_override is not None:
        doc = {**doc, "out_dir": out_override}
    return read_section(RunConfig, doc, "config")


def load_config(path: str, seed_override: int | None = None,
                out_override: str | None = None) -> tuple[RunConfig, str]:
    """Parse the file and return (config, provenance hash of its effective
    contents including any overrides)."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path!r} is not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"config {path!r} nests too deeply to parse") from None
    config = parse_config(doc, seed_override, out_override)
    effective = dict(doc)
    effective["seed"] = config.seed
    effective.pop("out_dir", None)  # hash the experiment, not its destination
    digest = hashlib.sha256(json.dumps(effective, sort_keys=True,
                                       separators=(",", ":")).encode())
    return config, digest.hexdigest()[:12]
