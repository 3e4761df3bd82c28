"""Run configuration: a single JSON document with a fixed key schema.

Unknown keys anywhere in the document are errors. One master seed
determines every downstream RNG through `derive_seed(master, *tags)`:
sha256 over "master|tag|tag|..." truncated to 63 bits. Purpose tags used
by the pipeline:

    ("synth",)                      synthetic data generation
    ("cv", test_months)             fold shuffling
    ("fit", family, test_months)    model-fit randomness per family/split
    ("arima", test_months)          CSS multistart perturbations
    ("background",)                 background subsampling for attribution
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .arima import ArimaOrder, default_order_candidates
from .dataset import ColumnSchema, DgpSpec, default_schema
from .families import BENCHMARK_FAMILY, FAMILIES
from .tuning import CvPlan, ParamGrid, default_grid

DEFAULT_SPLIT_MONTHS = (24, 16, 12, 9, 6)
DEFAULT_PRIMARY_SPLIT = 16


class ConfigError(ValueError):
    pass


def derive_seed(master: int, *tags) -> int:
    text = "|".join([str(int(master))] + [str(t) for t in tags])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _require_keys(mapping: dict, allowed: set, where: str):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


@dataclass(frozen=True)
class SynthSpec:
    kind: str = "nonlinear"
    n: int = 84
    drivers: tuple[str, ...] = ("ATMD", "CC", "IR")
    coefficients: tuple[float, ...] = ()
    intercept: float | None = None
    noise_scale: float = 0.25
    noise_ar: float = 0.3

    def to_dgp(self) -> DgpSpec:
        defaults = {"linear": ((2.0, -3.0, 0.5), 1.0),
                    "nonlinear": ((2.0, 1.5, -2.0), 3.0)}
        if self.kind not in defaults:
            raise ConfigError(f"unknown synth kind {self.kind!r}")
        coefs, intercept = defaults[self.kind]
        if self.coefficients:
            coefs = self.coefficients
        if self.intercept is not None:
            intercept = self.intercept
        return DgpSpec(self.kind, self.drivers, tuple(coefs), intercept,
                       self.noise_scale, self.noise_ar)


@dataclass(frozen=True)
class DataSpec:
    csv_path: str | None = None
    synth: SynthSpec | None = None

    def __post_init__(self):
        if (self.csv_path is None) == (self.synth is None):
            raise ConfigError("data must specify exactly one of csv | synth")


@dataclass(frozen=True)
class FamilySpec:
    family: str
    grid: dict = field(default_factory=dict)  # empty: shipped default grid
    candidates: tuple[ArimaOrder, ...] = ()  # benchmark only

    def param_grid(self) -> ParamGrid:
        mapping = self.grid if self.grid else default_grid(self.family)
        return ParamGrid.from_dict(mapping)


@dataclass(frozen=True)
class DmOptions:
    h: int = 1
    small_sample: bool | None = None  # None: automatic below 50 forecasts


@dataclass(frozen=True)
class ExplainOptions:
    rows: str = "train"  # train | test
    background_cap: int = 100
    outlier_k: float = 1.5
    outlier_axis: str = "x"  # x | shap


@dataclass(frozen=True)
class RunConfig:
    seed: int
    out_dir: str
    data: DataSpec
    schema: ColumnSchema
    roster: tuple[FamilySpec, ...]
    split_months: tuple[int, ...] = DEFAULT_SPLIT_MONTHS
    primary_split: int = DEFAULT_PRIMARY_SPLIT
    cv: CvPlan = CvPlan(k=5, shuffle=False)
    dm: DmOptions = DmOptions()
    explain: ExplainOptions = ExplainOptions()

    def __post_init__(self):
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

    def roster_spec(self, family: str) -> FamilySpec:
        for spec in self.roster:
            if spec.family == family:
                return spec
        raise ConfigError(f"family {family!r} not in roster")

    @property
    def model_ids(self) -> list[str]:
        ordered = [BENCHMARK_FAMILY]
        ordered += [f.family for f in self.roster if f.family != BENCHMARK_FAMILY]
        return ordered


def _parse_order(item) -> ArimaOrder:
    if not isinstance(item, list) or len(item) not in (3, 7):
        raise ConfigError(f"arima candidate must be [p,d,q] or "
                          f"[p,d,q,P,D,Q,s], got {item!r}")
    try:
        return ArimaOrder(*[int(v) for v in item])
    except ValueError as exc:
        raise ConfigError(f"bad arima candidate {item!r}: {exc}") from None


def _parse_roster(doc: dict) -> tuple[FamilySpec, ...]:
    if not isinstance(doc, dict):
        raise ConfigError("roster must be a mapping")
    specs = []
    for family, body in doc.items():
        if family != BENCHMARK_FAMILY and family not in FAMILIES:
            raise ConfigError(f"unknown roster family {family!r}")
        body = body or {}
        if family == BENCHMARK_FAMILY:
            _require_keys(body, {"candidates"}, f"roster.{family}")
            raw = body.get("candidates", "default")
            if raw == "default":
                candidates = tuple(default_order_candidates())
            else:
                candidates = tuple(_parse_order(item) for item in raw)
            specs.append(FamilySpec(family, candidates=candidates))
        else:
            _require_keys(body, {"grid"}, f"roster.{family}")
            grid = body.get("grid", {})
            if not isinstance(grid, dict):
                raise ConfigError(f"roster.{family}.grid must be a mapping")
            specs.append(FamilySpec(family, grid=grid))
    return tuple(specs)


def parse_config(doc: dict, seed_override: int | None = None,
                 out_override: str | None = None) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(doc, {"seed", "out_dir", "data", "schema", "roster",
                        "split_months", "primary_split", "cv", "dm",
                        "explain"}, "config")
    if "data" not in doc:
        raise ConfigError("config requires a data section")
    if "roster" not in doc:
        raise ConfigError("config requires a roster section")

    data_doc = doc["data"]
    _require_keys(data_doc, {"csv", "synth"}, "data")
    if "csv" in data_doc and "synth" in data_doc:
        raise ConfigError("data must specify exactly one of csv | synth")
    if "csv" in data_doc:
        data = DataSpec(csv_path=str(data_doc["csv"]))
    else:
        synth_doc = data_doc.get("synth", {})
        _require_keys(synth_doc, {"kind", "n", "drivers", "coefficients",
                                  "intercept", "noise_scale", "noise_ar"},
                      "data.synth")
        data = DataSpec(synth=SynthSpec(
            kind=synth_doc.get("kind", "nonlinear"),
            n=int(synth_doc.get("n", 84)),
            drivers=tuple(synth_doc.get("drivers", ("ATMD", "CC", "IR"))),
            coefficients=tuple(synth_doc.get("coefficients", ())),
            intercept=synth_doc.get("intercept"),
            noise_scale=float(synth_doc.get("noise_scale", 0.25)),
            noise_ar=float(synth_doc.get("noise_ar", 0.3))))

    if "schema" in doc:
        schema_doc = doc["schema"]
        _require_keys(schema_doc, {"target", "features", "log_columns"}, "schema")
        try:
            schema = ColumnSchema(
                target=schema_doc["target"],
                features=tuple(schema_doc["features"]),
                log_columns=tuple(schema_doc.get("log_columns", ())))
        except KeyError as exc:
            raise ConfigError(f"schema requires {exc.args[0]!r}") from None
        except ValueError as exc:
            raise ConfigError(f"bad schema: {exc}") from None
    else:
        schema = default_schema()

    cv_doc = doc.get("cv", {})
    _require_keys(cv_doc, {"k", "shuffle"}, "cv")
    master = int(doc.get("seed", 0) if seed_override is None else seed_override)
    try:
        cv = CvPlan(k=int(cv_doc.get("k", 5)),
                    shuffle=bool(cv_doc.get("shuffle", False)))
    except ValueError as exc:
        raise ConfigError(f"bad cv plan: {exc}") from None

    dm_doc = doc.get("dm", {})
    _require_keys(dm_doc, {"h", "small_sample"}, "dm")
    small = dm_doc.get("small_sample", "auto")
    if small == "auto":
        small = None
    elif not isinstance(small, bool):
        raise ConfigError("dm.small_sample must be true, false, or \"auto\"")
    dm = DmOptions(h=int(dm_doc.get("h", 1)), small_sample=small)

    ex_doc = doc.get("explain", {})
    _require_keys(ex_doc, {"rows", "background_cap", "outlier_k",
                           "outlier_axis"}, "explain")
    rows = ex_doc.get("rows", "train")
    if rows not in ("train", "test"):
        raise ConfigError("explain.rows must be train or test")
    axis = ex_doc.get("outlier_axis", "x")
    if axis not in ("x", "shap"):
        raise ConfigError("explain.outlier_axis must be x or shap")
    explain = ExplainOptions(rows=rows,
                             background_cap=int(ex_doc.get("background_cap", 100)),
                             outlier_k=float(ex_doc.get("outlier_k", 1.5)),
                             outlier_axis=axis)

    split_months = tuple(int(v) for v in doc.get("split_months",
                                                 DEFAULT_SPLIT_MONTHS))
    try:
        return RunConfig(
            seed=master,
            out_dir=str(doc.get("out_dir", "out") if out_override is None
                        else out_override),
            data=data,
            schema=schema,
            roster=_parse_roster(doc["roster"]),
            split_months=split_months,
            primary_split=int(doc.get("primary_split", DEFAULT_PRIMARY_SPLIT)),
            cv=cv, dm=dm, explain=explain)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path: str, seed_override: int | None = None,
                out_override: str | None = None) -> tuple[RunConfig, str]:
    """Parse the file and return (config, provenance hash of its effective
    contents including any overrides)."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from None
    config = parse_config(doc, seed_override, out_override)
    effective = dict(doc)
    effective["seed"] = config.seed
    effective.pop("out_dir", None)  # hash the experiment, not its destination
    digest = hashlib.sha256(json.dumps(effective, sort_keys=True,
                                       separators=(",", ":")).encode())
    return config, digest.hexdigest()[:12]
