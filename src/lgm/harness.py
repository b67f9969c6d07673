"""Experiment orchestration: configs, datasets, benchmark runs, reports.

A benchmark run is described by a strict JSON config, read against one
field table per section: unknown keys, wrong types, non-finite numbers and
values below a bound are errors, and messages carry field paths.  Datasets
are either simulated from a spec or loaded from CSV, and every prior
covariance comes from one kernel resolver.  The covariance is decomposed
once per benchmark and shared read-only across all (sampler, seed) runs,
and by the draw of a simulated dataset whose chains run on its generating
covariance.  Runs execute one after another with per-run failure isolation.  Reports land
in ``runs.csv`` (one row per run), ``summary.csv`` (one row per method, the
fixed benchmark table), and ``summary.json`` (schema-versioned aggregate).
Identical (config, seeds) reproduce identical outputs except for timing;
the determinism digest hashes every non-timing field.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .adaptation import tune_and_freeze
from .diagnostics import REPORT_SCHEMA_VERSION, TABLE_COLUMNS, RunReport, aggregate_reports, ess_geyer, summarize_run
from .hyper import DEFAULT_LATENT_STEPS_PER_MOVE, HyperChain, HyperModel
from .samplers import DISPLAY_NAMES, Chain, SamplerKind
from .spectral import DensePrior, OpCounter, SpectralPrior, TorusPrior, eigendecompose_covariance
from .targets import (
    BernoulliLogit,
    CategoricalSoftmax,
    GaussianRegression,
    GridKernel,
    PoissonCounts,
    TargetModel,
    squared_exponential_kernel,
)

logger = logging.getLogger(__name__)

MODELS = ("regression", "cox", "binary", "multiclass")
HYPER_MODES = ("fixed", "gibbs", "joint")

DEFAULT_BURN_IN = 2000
DEFAULT_COLLECT = 2000
COX_DEFAULT_COLLECT = 5000
MIN_COLLECT = 100
DEFAULT_THETA_PRIOR_VARIANCE = 100.0

DEFAULT_SIMULATE_SEED = 2026
DEFAULT_INPUT_RANGE = (0.0, 10.0)
DEFAULT_COX_BETA = 1.0 / 33.0
DEFAULT_COX_AMPLITUDE = 1.91
DEFAULT_COX_MEAN_COUNT = 126.0

# Stable per-kernel stream index so a seed never feeds two kernels the same
# random numbers, independent of the order samplers appear in a config.
KIND_STREAM_INDEX = {kind: i for i, kind in enumerate(SamplerKind)}

RUNS_CSV_COLUMNS = (
    "method",
    "seed",
    "delta",
    "kappa",
    "burn_in_seconds",
    "collect_seconds",
    "ess_min",
    "ess_median",
    "ess_max",
    "min_ess_per_second",
    "acceptance_rate",
    "matvecs",
    "factorizations",
    "n_samples",
    "dimension",
    "degenerate_coords",
    "warning",
    "error",
)

# Wall-clock dependent report fields, excluded from the determinism digest.
TIMING_FIELDS = frozenset(
    {"collect_seconds", "burn_in_seconds", "min_ess_per_second", "min_ess_per_second_total"}
)


class ConfigError(ValueError):
    """A config or dataset spec violates the schema; message names the field path."""


REQUIRED = object()  # the default of a key its section must give


class Field(NamedTuple):
    """One key of a config section: its JSON type, default and lower bound."""

    kind: type  # int, float, str, dict or list
    default: object = None  # None: the key stays None when left out
    low: float | None = None  # lower bound of the value, or of each list entry
    above: bool = False  # the value must exceed ``low``, not just reach it
    item: type | None = None  # the entry type of a list the walker checks
    choices: tuple = ()


def _positive(default: float | None = None) -> Field:
    return Field(float, default, 0.0, above=True)


_JSON_TYPES = {int: "an integer", float: "a finite number", str: "a string", dict: "an object", list: "a list"}

CONFIG_TABLE = {
    "model": Field(str, REQUIRED, choices=MODELS),
    "dataset": Field(dict),
    "simulate": Field(dict),
    "kernel": Field(dict),
    "likelihood": Field(dict, {}),
    "samplers": Field(list, REQUIRED, item=str, choices=tuple(kind.value for kind in SamplerKind)),
    "seeds": Field(list, REQUIRED, 0, item=int),
    "burn_in": Field(int, DEFAULT_BURN_IN, 100),
    "collect": Field(int, None, MIN_COLLECT),  # None: the model's default
    "thin": Field(int, 1, 1),
    "R": Field(int, DEFAULT_LATENT_STEPS_PER_MOVE, 1),
    "hyper": Field(dict, {}),
    "out": Field(str),
}

DATASET_TABLE = {"path": Field(str, REQUIRED)}

HYPER_TABLE = {
    "mode": Field(str, "fixed", choices=HYPER_MODES),
    "kappa": Field(float, 0.25, 0.0),
    "theta0": Field(list, (0.0,), item=float),
    "prior_variance": _positive(DEFAULT_THETA_PRIOR_VARIANCE),
}

_SEED = Field(int, DEFAULT_SIMULATE_SEED, 0)
_INPUT_MODEL_FIELDS = {
    "seed": _SEED,
    "n": Field(int, 200, 2),
    "input_range": Field(list, DEFAULT_INPUT_RANGE, item=float),
    "lengthscale2": _positive(1.0),
    "amplitude": _positive(1.0),
}

# The simulate defaults of the kernel parameters are the defaults a kernel
# section falls back to when neither it nor the dataset's manifest has them.
SIMULATE_TABLES = {
    "regression": {**_INPUT_MODEL_FIELDS, "sigma2": _positive(1.0)},
    "binary": _INPUT_MODEL_FIELDS,
    "multiclass": {**_INPUT_MODEL_FIELDS, "classes": Field(int, 3, 2)},
    "cox": {
        "seed": _SEED,
        "side": Field(int, 16, 2),
        "beta": _positive(DEFAULT_COX_BETA),
        "amplitude": _positive(DEFAULT_COX_AMPLITUDE),
        "mean_count": _positive(DEFAULT_COX_MEAN_COUNT),
        "scale_divisor": _positive(),  # None: the side
    },
}

_KERNEL_COMMON = {"type": Field(str, REQUIRED, choices=("grid_exponential", "squared_exponential")),
                 "jitter": Field(float, 0.0, 0.0)}

# Kernel parameters a section leaves out stay None: _kernel_covariance resolves them.
KERNEL_TABLES = {
    "squared_exponential": {**_KERNEL_COMMON, "lengthscale2": _positive(), "amplitude": _positive()},
    "grid_exponential": {**_KERNEL_COMMON, "side": Field(int, None, 2), "beta": _positive(),
                         "amplitude": _positive(), "scale_divisor": _positive()},
}

LIKELIHOOD_TABLES = {
    "regression": {"sigma2": _positive()},
    "cox": {"offset": Field(float), "exposure": _positive()},
    "binary": {},
    "multiclass": {"classes": Field(int, None, 2)},
}


def _walk(section, table: dict, path: str) -> dict:
    """Read a config section against its field table: every key of the table, checked or defaulted."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path} must be an object")
    for key in section:
        if key not in table:
            raise ConfigError(f"unknown key {path}.{key}; allowed keys: {sorted(table)}")
    return {key: _field_value(section.get(key), field, f"{path}.{key}") for key, field in table.items()}


def _field_value(value, field: Field, path: str):
    if value is None:
        if field.default is REQUIRED:
            raise ConfigError(f"missing required key {path}")
        if field.default is None:
            return None
        value = field.default
    if field.item is None:
        return _checked(value, field.kind, field, path)
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path} must be a list, got {type(value).__name__}")
    return [_checked(v, field.item, field, f"{path}[{i}]") for i, v in enumerate(value)]


def _checked(value, kind: type, field: Field, path: str):
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) or kind is float and not math.isfinite(value):
        raise ConfigError(f"{path} must be {_JSON_TYPES[kind]}, got {value!r}")
    if field.choices and value not in field.choices:
        raise ConfigError(f"{path} must be one of {list(field.choices)}, got {value!r}")
    if field.low is not None and (value <= field.low if field.above else value < field.low):
        raise ConfigError(f"{path} must be {'above' if field.above else 'at least'} {field.low!r}, got {value!r}")
    return value


def check_seed(seed, path: str) -> int:
    """A chain seed, checked by the rule of ``config.seeds``."""
    return _checked(seed, int, CONFIG_TABLE["seeds"], path)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated benchmark description; the field tables above are its JSON schema."""

    model: str
    dataset_path: Path | None
    simulate: dict | None
    kernel: dict | None
    likelihood: dict
    samplers: tuple[SamplerKind, ...]
    seeds: tuple[int, ...]
    burn_in: int
    collect: int
    thin: int
    r_steps: int
    hyper_mode: str
    hyper: dict
    out: Path | None


def parse_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    path = Path(path)
    return validate_config(_read_json(path, "config"), base_dir=path.parent)


def _read_json(path: Path, what: str):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def validate_config(raw: dict, base_dir: Path | None = None) -> ExperimentConfig:
    """Validate a config dict against the field tables; unknown keys anywhere are errors."""
    base_dir = base_dir or Path.cwd()
    config = _walk(raw, CONFIG_TABLE, "config")
    model = config["model"]
    if (config["dataset"] is None) == (config["simulate"] is None):
        raise ConfigError("config must provide exactly one of 'dataset' and 'simulate'")
    dataset_path = simulate = kernel = None
    if config["dataset"] is not None:
        dataset_path = _resolve_path(base_dir, _walk(config["dataset"], DATASET_TABLE, "config.dataset")["path"])
    else:
        simulate = validate_simulate_spec(model, config["simulate"], path="config.simulate")
    if config["kernel"] is not None:
        kernel = validate_kernel_spec(config["kernel"], path="config.kernel")
    likelihood = _walk(config["likelihood"], LIKELIHOOD_TABLES[model], "config.likelihood")
    if simulate is not None and config["likelihood"]:
        raise ConfigError("config.likelihood is derived from 'simulate'; remove one of them")

    for key in ("samplers", "seeds"):
        if not config[key]:
            raise ConfigError(f"config.{key} must be a nonempty list")
    samplers = tuple(SamplerKind(token) for token in config["samplers"])
    if len(set(samplers)) < len(samplers):
        raise ConfigError(f"config.samplers repeats a sampler: {config['samplers']}")
    if len(set(config["seeds"])) < len(config["seeds"]):
        raise ConfigError(f"config.seeds repeats a seed, which would run the same chain twice: {config['seeds']}")

    hyper = _walk(config["hyper"], HYPER_TABLE, "config.hyper")
    if hyper["mode"] != "fixed" and samplers != (SamplerKind.AGRAD_Z,):
        raise ConfigError(
            "hyperparameter learning updates the latent field with the agrad-z kernel; "
            "set config.samplers to ['agrad-z']"
        )
    if hyper["mode"] != "fixed" and config["thin"] != 1:
        raise ConfigError(
            f"hyperparameter learning records one (theta, x) sample per sweep; config.thin must be 1, "
            f"got {config['thin']}"
        )
    if len(hyper["theta0"]) != 1:
        raise ConfigError(
            f"config.hyper.theta0 must hold exactly one number, the log-amplitude; got {len(hyper['theta0'])}"
        )
    collect = config["collect"] or (COX_DEFAULT_COLLECT if model == "cox" else DEFAULT_COLLECT)

    return ExperimentConfig(
        model=model,
        dataset_path=dataset_path,
        simulate=simulate,
        kernel=kernel,
        likelihood=likelihood,
        samplers=samplers,
        seeds=tuple(config["seeds"]),
        burn_in=config["burn_in"],
        collect=collect,
        thin=config["thin"],
        r_steps=config["R"],
        hyper_mode=hyper["mode"],
        hyper=hyper,
        out=None if config["out"] is None else _resolve_path(base_dir, config["out"]),
    )


def _resolve_path(base_dir: Path, path: str) -> Path:
    return Path(path) if Path(path).is_absolute() else (base_dir / path).resolve()


def validate_simulate_spec(model: str, spec: dict, path: str = "simulate") -> dict:
    """Validate a simulation spec and fill its defaults."""
    if model not in SIMULATE_TABLES:
        raise ConfigError(f"{path}: unknown model {model!r}")
    out = _walk(spec, SIMULATE_TABLES[model], path)
    if model == "cox":
        if out["side"] % 2:
            raise ConfigError(f"{path}.side must be an even integer >= 2, got {out['side']!r}")
        if out["scale_divisor"] is None:
            out["scale_divisor"] = float(out["side"])
    elif len(out["input_range"]) != 2 or not out["input_range"][0] < out["input_range"][1]:
        raise ConfigError(f"{path}.input_range must be [lo, hi] with lo < hi")
    return out


# The keys of an ``lgm simulate`` spec file besides the model's simulate table.
SPEC_FILE_TABLE = {"model": Field(str, REQUIRED, choices=MODELS), "out": Field(str, ".")}


def read_spec_file(path: Path) -> tuple[str, str, dict]:
    """An ``lgm simulate`` spec file's checked model and output directory, and its simulate keys."""
    raw = _read_json(path, "spec")
    if not isinstance(raw, dict):
        raise ConfigError("spec must be an object")
    head = _walk({key: raw[key] for key in SPEC_FILE_TABLE if key in raw}, SPEC_FILE_TABLE, "spec")
    return head["model"], head["out"], {key: value for key, value in raw.items() if key not in SPEC_FILE_TABLE}


def validate_kernel_spec(spec: dict, path: str = "kernel") -> dict:
    """Validate a kernel section; the kernel parameters it leaves out stay None."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{path} must be an object")
    ktype = _field_value(spec.get("type"), _KERNEL_COMMON["type"], f"{path}.type")
    return _walk(spec, KERNEL_TABLES[ktype], path)


@dataclass
class DatasetBundle:
    """A resolved dataset: target model, prior covariance, provenance manifest.

    A grid Cox dataset also carries its kernel as a ``GridKernel`` (``grid``),
    from which ``covariance`` was built.
    """

    model: str
    target: TargetModel
    covariance: np.ndarray
    manifest: dict
    inputs: np.ndarray | None = None
    observations: np.ndarray | None = None
    grid: GridKernel | None = None


class SimulationPrior(NamedTuple):
    """A simulated dataset's generating covariance, its GridKernel (Cox) or input
    locations (the other models), and the decomposition each latent field is
    drawn with: of the covariance, or of one class's block for multiclass."""

    covariance: np.ndarray
    grid: GridKernel | None
    inputs: np.ndarray | None
    prior: DensePrior


def _simulation_prior(model: str, spec: dict, counter: OpCounter | None = None) -> SimulationPrior:
    """Build and decompose the generating covariance of a validated simulate spec."""
    if model == "cox":
        cov, grid, _ = _kernel_covariance(None, spec, model, spec["side"] ** 2, None)
        return SimulationPrior(cov, grid, None, eigendecompose_covariance(cov, counter=counter))
    n = spec["n"]
    inputs = np.linspace(*spec["input_range"], n)
    cov, _, _ = _kernel_covariance(None, spec, model, n * spec.get("classes", 1), inputs)
    return SimulationPrior(cov, None, inputs, eigendecompose_covariance(cov[:n, :n], counter=counter))


def simulate_dataset(model: str, spec: dict, source: SimulationPrior | None = None) -> DatasetBundle:
    """Draw a synthetic dataset: latent field from the prior, then observations.

    The returned bundle carries the exact covariance used for generation, so
    benchmarks on simulated data are well-specified by construction.  The
    covariance is built and decomposed here, unless ``source`` brings it
    (``_simulation_prior`` of the same spec), so that a caller whose chains
    run on that decomposition pays for it once.
    """
    spec = validate_simulate_spec(model, dict(spec), path="simulate")
    rng = np.random.default_rng(spec["seed"])
    manifest = {"model": model, **spec}
    cov, grid, inputs, prior = source or _simulation_prior(model, spec)

    def draw() -> np.ndarray:
        return prior.basis @ (prior.sqrt_eigenvalues * rng.standard_normal(prior.dimension)[: prior.rank])

    if model == "cox":
        side = spec["side"]
        offset = math.log(spec["mean_count"]) - 0.5 * spec["amplitude"]
        exposure = 1.0 / side**2
        counts = rng.poisson(exposure * np.exp(draw() + offset)).reshape(side, side)
        manifest.update(offset=offset, cell_area=exposure)
        target = PoissonCounts(counts, exposure=exposure, offset=offset)
        return DatasetBundle(model, target, cov, manifest, observations=counts, grid=grid)

    n = spec["n"]
    if model == "regression":
        y = draw() + math.sqrt(spec["sigma2"]) * rng.standard_normal(n)
        target = GaussianRegression(y, noise_variance=spec["sigma2"])
        return DatasetBundle(model, target, cov, manifest, inputs=inputs, observations=y)

    if model == "binary":
        probs = 1.0 / (1.0 + np.exp(-draw()))
        labels = (rng.random(n) < probs).astype(int)
        target = BernoulliLogit(labels)
        return DatasetBundle(model, target, cov, manifest, inputs=inputs, observations=labels)

    # multiclass: one independent latent field per class, class-major stacking
    k = spec["classes"]
    fields = np.stack([draw() for _ in range(k)])
    logits = fields - fields.max(axis=0, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=0, keepdims=True)
    labels = np.array([rng.choice(k, p=probs[:, i]) for i in range(n)])
    target = CategoricalSoftmax(labels, n_classes=k)
    return DatasetBundle(model, target, cov, manifest, inputs=inputs, observations=labels)


def down_sample_cox(counts: np.ndarray) -> np.ndarray:
    """Merge each 2x2 block of grid counts into one cell by summation."""
    counts = np.asarray(counts)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise ValueError(f"counts must be a square matrix, got shape {counts.shape}")
    g = counts.shape[0]
    if g % 2:
        raise ValueError(f"grid side must be even to down-sample, got {g}")
    if g < 4:
        raise ValueError(f"grid side must be at least 4 to down-sample, got {g}: the merged side {g // 2} is below 2")
    half = g // 2
    return counts.reshape(half, 2, half, 2).sum(axis=(1, 3))


def write_dataset(bundle: DatasetBundle, out_dir: str | Path, stem: str = "data") -> dict[str, Path]:
    """Persist a dataset as CSV plus a JSON manifest; returns the paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{stem}.csv"
    manifest_path = out_dir / f"{stem}.manifest.json"

    if bundle.model == "cox":
        np.savetxt(csv_path, bundle.observations, fmt="%d", delimiter=",")
    else:
        label = "y" if bundle.model == "regression" else "label"
        fmt = "%.17g,%.17g" if bundle.model == "regression" else "%.17g,%d"
        rows = np.column_stack([bundle.inputs, bundle.observations])
        np.savetxt(csv_path, rows, fmt=fmt, delimiter=",", header=f"input,{label}", comments="")
    manifest_path.write_text(json.dumps(bundle.manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return {"data": csv_path, "manifest": manifest_path}


def load_dataset(model: str, path: str | Path, kernel: dict | None, likelihood: dict | None = None) -> DatasetBundle:
    """Load a dataset file written by ``write_dataset`` (or hand-made CSV).

    A ``<stem>.manifest.json`` sidecar, when present, supplies generation
    hyperparameters; explicit ``kernel``/``likelihood`` entries win over it.
    Without a kernel spec the covariance is the model's own kernel, its
    parameters from the manifest (see ``_kernel_covariance``).  Every entry
    is checked: inputs and regression targets must be finite, Cox counts
    nonnegative integers, binary labels 0 or 1, and multiclass labels
    integers in [0, classes).  A bad entry is a ConfigError naming the file,
    the column and the entry's data row; so are a counts file holding a
    non-number and a header with no data rows.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"dataset file {path} does not exist")
    likelihood = likelihood or {}
    manifest: dict = {}
    sidecar = path.with_suffix(".manifest.json") if path.suffix == ".csv" else None
    if sidecar is not None and sidecar.exists():
        manifest = _read_manifest(sidecar, model)

    inputs = None
    if model == "cox":
        observations = _read_counts(path)
        cells = observations.size
    else:
        rows = np.genfromtxt(path, delimiter=",", names=True)
        if rows.dtype.names is None or "input" not in rows.dtype.names:
            raise ConfigError(f"dataset file {path} must have a header with an 'input' column")
        column = "y" if model == "regression" else "label"
        if column not in rows.dtype.names:
            raise ConfigError(f"{model} dataset {path} must have a '{column}' column")
        inputs = np.atleast_1d(rows["input"])
        observations = np.atleast_1d(rows[column])
        if inputs.size == 0:
            raise ConfigError(f"dataset file {path} has a header but no data rows")
        _refuse_entries(path, "column 'input'", inputs, np.isfinite(inputs), "finite numbers")
        what = f"column '{column}'"
        if model == "regression":
            _refuse_entries(path, what, observations, np.isfinite(observations), "finite numbers")
        elif model == "binary":
            _refuse_entries(path, what, observations, (observations == 0) | (observations == 1), "0 or 1")
        else:
            _refuse_entries(path, what, observations, _is_count(observations), "nonnegative integers")
            classes = int(_first(observations.max() + 1, likelihood.get("classes"), manifest.get("classes")))
            _refuse_entries(path, what, observations, observations < classes, f"class indices below {classes}")
        if model != "regression":
            observations = observations.astype(int)
        cells = inputs.size
        if model == "multiclass":
            cells *= classes
    cov, grid, kernel = _kernel_covariance(kernel, manifest, model, cells, inputs)
    meta = {"model": model, "kernel": kernel, "source": str(path)}

    if model == "cox":
        exposure = _first(1.0 / cells, likelihood.get("exposure"), manifest.get("cell_area"))
        default_offset = math.log(DEFAULT_COX_MEAN_COUNT) - 0.5 * kernel["amplitude"]
        offset = _first(default_offset, likelihood.get("offset"), manifest.get("offset"))
        meta.update(cell_area=exposure, offset=offset)
        target = PoissonCounts(observations, exposure=exposure, offset=offset)
    elif model == "regression":
        sigma2 = _first(None, likelihood.get("sigma2"), manifest.get("sigma2"))
        if sigma2 is None:
            raise ConfigError("regression noise variance sigma2 not found in likelihood config or manifest")
        target = GaussianRegression(observations, float(sigma2))
    elif model == "binary":
        target = BernoulliLogit(observations)
    else:
        target = CategoricalSoftmax(observations, n_classes=classes)
    return DatasetBundle(model, target, cov, meta, inputs=inputs, observations=observations, grid=grid)


def _read_counts(path: Path) -> np.ndarray:
    """A Cox counts file: a square grid of nonnegative integers, or a ConfigError naming the file."""
    try:
        counts = np.atleast_2d(np.loadtxt(path, delimiter=","))
    except ValueError as exc:
        raise ConfigError(f"dataset file {path}: the counts grid must hold numbers; {exc}") from exc
    if counts.shape[0] != counts.shape[1]:
        raise ConfigError(f"dataset file {path}: the counts grid must be square, got shape {counts.shape}")
    _refuse_entries(path, "the counts grid", counts, _is_count(counts), "nonnegative integers")
    return counts


def _is_count(values: np.ndarray) -> np.ndarray:
    """Which entries are finite nonnegative integers."""
    return np.isfinite(values) & (values >= 0) & (values == np.floor(values))


def _refuse_entries(path: Path, what: str, values: np.ndarray, ok: np.ndarray, rule: str) -> None:
    """Raise a ConfigError naming the file, ``what`` and the first entry of ``values`` that is not ``ok``."""
    if not ok.all():
        at = tuple(int(i) for i in np.argwhere(~ok)[0])
        where = f"data row {at[0] + 1}" + (f", column {at[1] + 1}" if len(at) > 1 else "")
        raise ConfigError(f"dataset file {path}: {what} must hold {rule}; {where} holds {values[at]:g}")


def _read_manifest(sidecar: Path, model: str) -> dict:
    """A dataset's manifest sidecar, its values checked by the model's simulate table."""
    raw = _read_json(sidecar, "manifest")
    table = {**SIMULATE_TABLES[model], "model": Field(str, choices=(model,))}
    if model == "cox":
        table.update(offset=Field(float), cell_area=_positive())
    checked = _walk(raw, table, f"{sidecar}: manifest")
    return {key: checked[key] for key in raw}


def resolve_dataset(config: ExperimentConfig) -> DatasetBundle:
    if config.simulate is None:
        return load_dataset(config.model, config.dataset_path, config.kernel, config.likelihood)
    bundle = simulate_dataset(config.model, config.simulate)
    if config.kernel is None:
        return bundle
    # the inference kernel may deviate from the generating one
    covariance, grid, kernel = _kernel_covariance(
        config.kernel, bundle.manifest, config.model, bundle.target.dimension, bundle.inputs
    )
    return replace(bundle, covariance=covariance, grid=grid, manifest={**bundle.manifest, "kernel": kernel})


def _kernel_covariance(
    kernel: dict | None, manifest: dict, model: str, cells: int, inputs: np.ndarray | None
) -> tuple[np.ndarray, GridKernel | None, dict]:
    """The prior covariance of a dataset's ``cells`` latent values, its GridKernel, and the resolved kernel spec.

    Each kernel parameter comes from the kernel spec if written there, else
    from the dataset's manifest, else from the simulate default (the side,
    for ``scale_divisor``).  Without a
    spec the kernel is the model's own: grid_exponential for Cox, else
    squared_exponential.  A squared-exponential multiclass covariance holds
    one block per class; the GridKernel is None for a squared-exponential kernel.
    """
    kernel = kernel or {"type": "grid_exponential" if model == "cox" else "squared_exponential"}
    defaults = SIMULATE_TABLES["cox" if kernel["type"] == "grid_exponential" else "regression"]

    def parameter(key: str) -> float | None:
        return _first(defaults[key].default, kernel.get(key), manifest.get(key))

    if kernel["type"] == "grid_exponential":
        side = kernel.get("side") or math.isqrt(cells)
        if side * side != cells:
            raise ConfigError(f"config.kernel: a {side}x{side} grid does not fit the dataset's {cells} cells")
        resolved = {"side": side, "amplitude": parameter("amplitude"), "beta": parameter("beta"),
                    "scale_divisor": parameter("scale_divisor") or float(side)}
        grid = GridKernel(side, resolved["amplitude"], resolved["beta"], resolved["scale_divisor"])
        return grid.matrix(), grid, {**kernel, **resolved}
    if inputs is None:
        raise ConfigError("squared_exponential kernel requires input locations")
    resolved = {"lengthscale2": parameter("lengthscale2"), "amplitude": parameter("amplitude")}
    cov = squared_exponential_kernel(inputs, variance=resolved["amplitude"], lengthscale2=resolved["lengthscale2"])
    if model == "multiclass":
        cov = np.kron(np.eye(cells // inputs.size), cov)
    return cov, None, {**kernel, **resolved}


def _first(default, *values):
    """The first of ``values`` that is not None, else ``default``."""
    return next((value for value in values if value is not None), default)


@dataclass
class SingleRunResult:
    report: RunReport
    samples: np.ndarray | None = None
    theta_samples: np.ndarray | None = None


def _run_job(
    chain: Chain, method: str, seed: int, burn_in: int, collect: int, thin: int, keep_samples: bool
) -> SingleRunResult:
    """Tune, reset the counters, collect and summarize one chain: the body of every job.

    Operation counters and the acceptance rate cover the collection phase
    only; factorizations stay at zero because the decomposition is shared
    and precomputed.
    """
    t0 = time.perf_counter()
    tune = tune_and_freeze(chain, burn_in)
    burn_seconds = time.perf_counter() - t0

    chain.reset_counters()
    t0 = time.perf_counter()
    samples = chain.sample(collect, thin=thin)
    collect_seconds = time.perf_counter() - t0

    report = summarize_run(
        samples,
        method=method,
        seed=seed,
        delta=chain.delta,
        collect_seconds=collect_seconds,
        burn_in_seconds=burn_seconds,
        acceptance_rate=chain.state.acceptance_rate,
        matvecs=chain.counter.matvecs,
        factorizations=chain.counter.factorizations,
        warning=tune.warning,
    )
    return SingleRunResult(report=report, samples=samples if keep_samples else None)


def benchmark_single(
    kind: SamplerKind,
    prior: SpectralPrior,
    target: TargetModel,
    seed: int,
    burn_in: int,
    collect: int,
    thin: int = 1,
    keep_samples: bool = True,
) -> SingleRunResult:
    """Tune, collect, and summarize one (sampler, seed) run at fixed hyperparameters.

    The chain's RNG stream is keyed by (seed, kernel index), so different
    kernels at the same seed never share draws.
    """
    chain = Chain(kind, prior, target, np.random.default_rng([seed, KIND_STREAM_INDEX[kind]]))
    return _run_job(chain, DISPLAY_NAMES[kind], seed, burn_in, collect, thin, keep_samples)


def run_hyper_chain(
    config: ExperimentConfig, target: TargetModel, prior: SpectralPrior, seed: int, keep_samples: bool
) -> SingleRunResult:
    """One hyperparameter-learning run: theta is the log-amplitude of the shared prior.

    The family is C(theta) = e^theta (C0 + jitter I), built on the
    decomposition ``prior`` that every job of the benchmark shares.  The
    job body is the fixed runs' own; this adds kappa, the theta samples and
    the theta report fields.
    """
    hyper_cfg = config.hyper
    model = HyperModel(base=prior, prior_variance=hyper_cfg["prior_variance"])
    rng = np.random.default_rng([seed, len(SamplerKind)])  # distinct from all fixed-kernel streams
    chain = HyperChain(
        model,
        target,
        np.asarray(hyper_cfg["theta0"], dtype=float),
        rng,
        mode=config.hyper_mode,
        kappa=hyper_cfg["kappa"],
        latent_steps_per_move=config.r_steps,
    )
    method = f"{DISPLAY_NAMES[SamplerKind.AGRAD_Z]} ({config.hyper_mode} θ)"
    single = _run_job(chain, method, seed, config.burn_in, config.collect, config.thin, keep_samples)
    theta = chain.theta_samples
    extra = {
        "theta_mean": [float(v) for v in theta.mean(axis=0)],
        "theta_sd": [float(v) for v in theta.std(axis=0, ddof=1)],
        "theta_ess": ess_geyer(theta[:, 0]),
        "theta_acceptance_rate": chain.theta_acceptance_rate,
    }
    report = replace(single.report, kappa=chain.kappa, extra=extra)
    return replace(single, report=report, theta_samples=theta if keep_samples else None)


@dataclass
class BenchmarkResult:
    """Everything a benchmark produced, before and after writing to disk."""

    reports: list[RunReport]
    summary_rows: list[dict]
    digest: str
    meta: dict
    runs: dict = field(default_factory=dict)  # (method, seed) -> SingleRunResult


def determinism_digest(reports: list[RunReport]) -> str:
    """SHA-256 over every report field that must reproduce across runs."""
    payload = []
    for report in sorted(reports, key=lambda r: (r.method, r.seed)):
        entry = {k: v for k, v in report.to_json_dict().items() if k not in TIMING_FIELDS}
        payload.append(entry)
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def run_benchmark(
    config: ExperimentConfig,
    threads: int = 1,
    keep_samples: bool = False,
    write: bool = True,
) -> BenchmarkResult:
    """Execute every (sampler, seed) cell of a benchmark config, in config order.

    The covariance is decomposed once (``dataset_and_prior``) and shared
    read-only; each run owns its chain, RNG and counters, and failures are
    captured in that run's report row without disturbing the others.  Runs
    go one after another in the calling thread, so each run's timings count
    only its own work.  ``threads`` accepts only 1: it stays because the
    perfbench harness passes it, and a change to that benchmark can drop it.
    """
    if threads != 1:
        raise ValueError(f"run_benchmark runs its jobs one after another; threads must be 1, got {threads!r}")
    setup_counter = OpCounter()
    bundle, prior = dataset_and_prior(config, setup_counter)

    reports = []
    runs = {}
    # hyperparameter configs hold the one sampler they run, agrad-z
    for kind in config.samplers:
        for seed in config.seeds:
            try:
                if config.hyper_mode == "fixed":
                    single = benchmark_single(
                        kind, prior, bundle.target, seed, config.burn_in, config.collect, config.thin, keep_samples
                    )
                else:
                    single = run_hyper_chain(config, bundle.target, prior, seed, keep_samples)
            except Exception as exc:  # isolate run failures
                logger.exception("run (%s, seed %s) failed", kind.value, seed)
                error = f"{type(exc).__name__}: {exc}"
                single = SingleRunResult(report=RunReport(method=DISPLAY_NAMES[kind], seed=seed, error=error))
            reports.append(single.report)
            runs[DISPLAY_NAMES[kind], seed] = single

    summary_rows = aggregate_reports(reports)
    digest = determinism_digest(reports)
    meta = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "model": config.model,
        "dimension": bundle.target.dimension,
        "prior": "torus {}x{}".format(*prior.torus_shape) if isinstance(prior, TorusPrior) else "dense",
        "torus_eigenvalue_ratio": _torus_eigenvalue_ratio(config, bundle),
        "setup_factorizations": setup_counter.factorizations,
        "hyper": config.hyper if config.hyper_mode != "fixed" else None,
        "manifest": bundle.manifest,
    }
    result = BenchmarkResult(reports=reports, summary_rows=summary_rows, digest=digest, meta=meta, runs=runs)
    if write and config.out is not None:
        write_benchmark_outputs(result, config.out, traces=keep_samples)
    return result


def dataset_and_prior(
    config: ExperimentConfig, counter: OpCounter | None = None
) -> tuple[DatasetBundle, SpectralPrior]:
    """A config's dataset, and the decomposition every job of the config shares.

    A simulated dataset with no ``kernel`` section whose chains run on a
    dense prior (regression, binary, and Cox in hyper mode) draws its field
    from the chains' own decomposition, made here once: with no kernel
    section the jitter is 0, so it is the decomposition the draw needs.
    Elsewhere the draw decomposes on its own: a ``kernel`` section gives
    inference another covariance, multiclass chains run on the block
    diagonal of all classes, and fixed grid Cox runs on the torus.

    Fixed-hyperparameter grid Cox configs hand the grid kernel to
    ``eigendecompose_covariance``, which embeds it in a torus of twice the
    side when that embedding is PSD.  Chains run on the dataset's own
    target either way: they hand it the observed cells of the torus field
    (``prior.observed``), so the posterior of those cells is unchanged, and
    the padding cells follow the prior alone.  Hyperparameter mode stays
    dense: the padding cells' prior terms would enter theta's conditional
    given x and slow theta's mixing.
    """
    shared = config.simulate is not None and config.kernel is None and config.model != "multiclass"
    if shared and not _on_torus(config):
        source = _simulation_prior(config.model, config.simulate, counter)
        return simulate_dataset(config.model, config.simulate, source=source), source.prior
    bundle = resolve_dataset(config)
    jitter = (config.kernel or {}).get("jitter", 0.0)
    cov = bundle.grid if _on_torus(config) else bundle.covariance
    return bundle, eigendecompose_covariance(cov, jitter=jitter, counter=counter)


def _on_torus(config: ExperimentConfig) -> bool:
    """Whether the config's chains try the torus: fixed-hyperparameter grid Cox."""
    return config.model == "cox" and config.hyper_mode == "fixed"


def _torus_eigenvalue_ratio(config: ExperimentConfig, bundle: DatasetBundle) -> float | None:
    """Smallest over largest torus eigenvalue of C + jitter I, where the torus was tried."""
    if not _on_torus(config):
        return None
    eigenvalues = bundle.grid.torus_eigenvalues + (config.kernel or {}).get("jitter", 0.0)
    return float(eigenvalues.min() / eigenvalues.max())


def write_benchmark_outputs(result: BenchmarkResult, out_dir: str | Path, traces: bool = False) -> dict[str, Path]:
    """Write runs.csv, summary.csv, summary.json (and optional trace CSVs)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    runs_path = out_dir / "runs.csv"
    with runs_path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(RUNS_CSV_COLUMNS)
        for report in result.reports:
            row = report.to_json_dict()
            writer.writerow([_csv_cell(row.get(col)) for col in RUNS_CSV_COLUMNS])
    paths["runs"] = runs_path

    summary_path = out_dir / "summary.csv"
    with summary_path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(TABLE_COLUMNS)
        for row in result.summary_rows:
            writer.writerow([_csv_cell(row.get(col)) for col in TABLE_COLUMNS])
    paths["summary"] = summary_path

    json_path = out_dir / "summary.json"
    payload = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "digest": result.digest,
        "meta": result.meta,
        "table": result.summary_rows,
        "reports": [r.to_json_dict() for r in result.reports],
    }
    json_path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    paths["json"] = json_path

    if traces:
        for (method, seed), single in sorted(result.runs.items()):
            if single.samples is None:
                continue
            token = method.replace(" ", "_").replace("(", "").replace(")", "")
            trace_path = out_dir / f"trace_{token}_{seed}.csv"
            np.savetxt(trace_path, single.samples, delimiter=",", fmt="%.17g")
            paths[f"trace_{token}_{seed}"] = trace_path
            if single.theta_samples is not None:
                theta_path = out_dir / f"trace_theta_{token}_{seed}.csv"
                np.savetxt(theta_path, single.theta_samples, delimiter=",", fmt="%.17g")
                paths[f"trace_theta_{token}_{seed}"] = theta_path
    return paths


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


def format_summary_table(rows: list[dict]) -> str:
    """Fixed-width text rendering of the benchmark table."""
    if not rows:
        return "(no successful runs)"
    widths = {col: len(col) for col in TABLE_COLUMNS}
    rendered: list[dict[str, str]] = []
    for row in rows:
        cells = {}
        for col in TABLE_COLUMNS:
            value = row.get(col)
            if isinstance(value, float):
                cells[col] = f"{value:.4g}"
            else:
                cells[col] = "" if value is None else str(value)
            widths[col] = max(widths[col], len(cells[col]))
        rendered.append(cells)
    header = "  ".join(col.ljust(widths[col]) for col in TABLE_COLUMNS)
    lines = [header, "  ".join("-" * widths[col] for col in TABLE_COLUMNS)]
    for cells in rendered:
        lines.append("  ".join(cells[col].ljust(widths[col]) for col in TABLE_COLUMNS))
    return "\n".join(lines)
