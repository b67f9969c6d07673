"""Experiment orchestration: configs, datasets, benchmark runs, reports.

A benchmark run is described by a strict JSON config (unknown keys are
errors, messages carry field paths).  Datasets are either simulated from a
spec or loaded from CSV; the prior covariance is decomposed once per
benchmark and shared read-only across all (sampler, seed) runs, which
execute on a thread pool with per-run failure isolation.  Reports land in
``runs.csv`` (one row per run), ``summary.csv`` (one row per method, the
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
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .adaptation import tune_and_freeze
from .diagnostics import REPORT_SCHEMA_VERSION, TABLE_COLUMNS, RunReport, aggregate_reports, ess_geyer, summarize_run
from .hyper import (
    DEFAULT_LATENT_STEPS_PER_MOVE,
    DEFAULT_THETA_PRIOR_VARIANCE,
    GaussianHyperPrior,
    HyperModel,
    run_hyper_chain,
)
from .samplers import DISPLAY_NAMES, Chain, SamplerKind
from .spectral import OpCounter, SpectralPrior, TorusPrior, eigendecompose_covariance
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


def _check_keys(section: dict, allowed: dict, path: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' at {path}; allowed keys: {sorted(allowed)}")


def _typed(section: dict, key: str, types, path: str, default=None, required: bool = False):
    if key not in section or section[key] is None:
        if required:
            raise ConfigError(f"missing required key '{key}' at {path}")
        return default
    value = section[key]
    if types is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, types) or isinstance(value, bool) and types is not bool:
        raise ConfigError(f"{path}.{key} must be {types}, got {type(value).__name__}")
    return value


SIMULATE_FIELDS = {
    "regression": {"n", "sigma2", "seed", "input_range", "lengthscale2", "amplitude"},
    "binary": {"n", "seed", "input_range", "lengthscale2", "amplitude"},
    "multiclass": {"n", "classes", "seed", "input_range", "lengthscale2", "amplitude"},
    "cox": {"side", "beta", "amplitude", "mean_count", "seed", "scale_divisor"},
}

KERNEL_FIELDS = {
    "squared_exponential": {"type", "lengthscale2", "amplitude", "jitter"},
    "grid_exponential": {"type", "side", "beta", "amplitude", "scale_divisor", "jitter"},
}

LIKELIHOOD_FIELDS = {
    "regression": {"sigma2"},
    "cox": {"offset", "exposure"},
    "binary": set(),
    "multiclass": {"classes"},
}

HYPER_SECTION_FIELDS = {"mode", "kappa", "theta0", "prior_variance"}

CONFIG_FIELDS = {
    "model",
    "dataset",
    "simulate",
    "kernel",
    "likelihood",
    "samplers",
    "seeds",
    "burn_in",
    "collect",
    "thin",
    "R",
    "hyper",
    "out",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated benchmark description; see parse_config for the JSON schema."""

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
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return validate_config(raw, base_dir=path.parent)


def validate_config(raw: dict, base_dir: Path | None = None) -> ExperimentConfig:
    """Validate a config dict; unknown keys anywhere are errors."""
    base_dir = base_dir or Path.cwd()
    _check_keys(raw, {k: None for k in CONFIG_FIELDS}, "config")

    model = _typed(raw, "model", str, "config", required=True)
    if model not in MODELS:
        raise ConfigError(f"config.model must be one of {MODELS}, got {model!r}")

    dataset = raw.get("dataset")
    simulate = raw.get("simulate")
    if (dataset is None) == (simulate is None):
        raise ConfigError("config must provide exactly one of 'dataset' and 'simulate'")

    dataset_path: Path | None = None
    if dataset is not None:
        if not isinstance(dataset, dict):
            raise ConfigError("config.dataset must be an object with a 'path' key")
        _check_keys(dataset, {"path": None}, "config.dataset")
        path_str = _typed(dataset, "path", str, "config.dataset", required=True)
        dataset_path = (base_dir / path_str).resolve() if not Path(path_str).is_absolute() else Path(path_str)

    if simulate is not None:
        if not isinstance(simulate, dict):
            raise ConfigError("config.simulate must be an object")
        simulate = validate_simulate_spec(model, simulate, path="config.simulate")

    kernel = raw.get("kernel")
    if kernel is not None:
        kernel = validate_kernel_spec(kernel, path="config.kernel")
    if kernel is None and dataset_path is not None and model != "cox":
        raise ConfigError(f"config.kernel is required when loading a {model} dataset from a file")

    likelihood = raw.get("likelihood") or {}
    if not isinstance(likelihood, dict):
        raise ConfigError("config.likelihood must be an object")
    _check_keys(likelihood, {k: None for k in LIKELIHOOD_FIELDS[model]}, "config.likelihood")
    if simulate is not None and likelihood:
        raise ConfigError("config.likelihood is derived from 'simulate'; remove one of them")

    samplers_raw = raw.get("samplers")
    if not isinstance(samplers_raw, list) or not samplers_raw:
        raise ConfigError("config.samplers must be a nonempty list of sampler names")
    valid_tokens = [k.value for k in SamplerKind]
    samplers: list[SamplerKind] = []
    for i, token in enumerate(samplers_raw):
        if not isinstance(token, str) or token not in valid_tokens:
            raise ConfigError(
                f"config.samplers[{i}] must be one of {valid_tokens}, got {token!r}"
            )
        kind = SamplerKind(token)
        if kind in samplers:
            raise ConfigError(f"config.samplers[{i}] repeats {token!r}")
        samplers.append(kind)

    seeds_raw = raw.get("seeds")
    if not isinstance(seeds_raw, list) or not seeds_raw:
        raise ConfigError("config.seeds must be a nonempty list of integers")
    seeds: list[int] = []
    for i, seed in enumerate(seeds_raw):
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError(f"config.seeds[{i}] must be a nonnegative integer, got {seed!r}")
        seeds.append(seed)

    burn_in = _typed(raw, "burn_in", int, "config", default=DEFAULT_BURN_IN)
    if burn_in < 100:
        raise ConfigError(f"config.burn_in must be at least 100, got {burn_in!r}")
    default_collect = COX_DEFAULT_COLLECT if model == "cox" else DEFAULT_COLLECT
    collect = _typed(raw, "collect", int, "config", default=default_collect)
    if collect < MIN_COLLECT:
        raise ConfigError(f"config.collect must be at least {MIN_COLLECT}, got {collect!r}")
    thin = _typed(raw, "thin", int, "config", default=1)
    if thin < 1:
        raise ConfigError(f"config.thin must be at least 1, got {thin!r}")
    r_steps = _typed(raw, "R", int, "config", default=DEFAULT_LATENT_STEPS_PER_MOVE)
    if r_steps < 1:
        raise ConfigError(f"config.R must be at least 1, got {r_steps!r}")

    hyper = raw.get("hyper") or {}
    if not isinstance(hyper, dict):
        raise ConfigError("config.hyper must be an object")
    _check_keys(hyper, {k: None for k in HYPER_SECTION_FIELDS}, "config.hyper")
    hyper_mode = _typed(hyper, "mode", str, "config.hyper", default="fixed")
    if hyper_mode not in HYPER_MODES:
        raise ConfigError(f"config.hyper.mode must be one of {HYPER_MODES}, got {hyper_mode!r}")
    if hyper_mode != "fixed" and samplers != [SamplerKind.AGRAD_Z]:
        raise ConfigError(
            "hyperparameter learning updates the latent field with the agrad-z kernel; "
            "set config.samplers to ['agrad-z']"
        )
    kappa = _typed(hyper, "kappa", float, "config.hyper", default=0.25)
    if kappa < 0:
        raise ConfigError(f"config.hyper.kappa must be nonnegative, got {kappa!r}")
    theta0 = hyper.get("theta0", [0.0])
    if not isinstance(theta0, list) or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in theta0):
        raise ConfigError("config.hyper.theta0 must be a list of numbers")
    if len(theta0) != 1:
        raise ConfigError(
            f"config.hyper.theta0 must hold exactly one number, the log-amplitude; got {len(theta0)}"
        )
    prior_variance = _typed(hyper, "prior_variance", float, "config.hyper", default=DEFAULT_THETA_PRIOR_VARIANCE)
    if prior_variance <= 0:
        raise ConfigError(f"config.hyper.prior_variance must be positive, got {prior_variance!r}")
    hyper_clean = {"mode": hyper_mode, "kappa": kappa, "theta0": [float(v) for v in theta0], "prior_variance": prior_variance}

    out = raw.get("out")
    if out is not None:
        out = _typed(raw, "out", str, "config")
        out = (base_dir / out).resolve() if not Path(out).is_absolute() else Path(out)

    return ExperimentConfig(
        model=model,
        dataset_path=dataset_path,
        simulate=simulate,
        kernel=kernel,
        likelihood=dict(likelihood),
        samplers=tuple(samplers),
        seeds=tuple(seeds),
        burn_in=burn_in,
        collect=collect,
        thin=thin,
        r_steps=r_steps,
        hyper_mode=hyper_mode,
        hyper=hyper_clean,
        out=out,
    )


def validate_simulate_spec(model: str, spec: dict, path: str = "simulate") -> dict:
    """Validate a simulation spec and fill its defaults."""
    if model not in MODELS:
        raise ConfigError(f"{path}: unknown model {model!r}")
    _check_keys(spec, {k: None for k in SIMULATE_FIELDS[model]}, path)
    out = {"seed": _typed(spec, "seed", int, path, default=DEFAULT_SIMULATE_SEED)}
    if model == "cox":
        out["side"] = _typed(spec, "side", int, path, default=16)
        if out["side"] < 2 or out["side"] % 2:
            raise ConfigError(f"{path}.side must be an even integer >= 2, got {out['side']!r}")
        out["beta"] = _typed(spec, "beta", float, path, default=DEFAULT_COX_BETA)
        out["amplitude"] = _typed(spec, "amplitude", float, path, default=DEFAULT_COX_AMPLITUDE)
        out["mean_count"] = _typed(spec, "mean_count", float, path, default=DEFAULT_COX_MEAN_COUNT)
        out["scale_divisor"] = _typed(spec, "scale_divisor", float, path, default=float(out["side"]))
        for key in ("beta", "amplitude", "mean_count", "scale_divisor"):
            if out[key] <= 0:
                raise ConfigError(f"{path}.{key} must be positive, got {out[key]!r}")
        return out
    out["n"] = _typed(spec, "n", int, path, default=200)
    if out["n"] < 2:
        raise ConfigError(f"{path}.n must be at least 2, got {out['n']!r}")
    rng_range = spec.get("input_range", list(DEFAULT_INPUT_RANGE))
    if (
        not isinstance(rng_range, list)
        or len(rng_range) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in rng_range)
        or not rng_range[0] < rng_range[1]
    ):
        raise ConfigError(f"{path}.input_range must be [lo, hi] with lo < hi")
    out["input_range"] = [float(rng_range[0]), float(rng_range[1])]
    out["lengthscale2"] = _typed(spec, "lengthscale2", float, path, default=1.0)
    out["amplitude"] = _typed(spec, "amplitude", float, path, default=1.0)
    for key in ("lengthscale2", "amplitude"):
        if out[key] <= 0:
            raise ConfigError(f"{path}.{key} must be positive, got {out[key]!r}")
    if model == "regression":
        out["sigma2"] = _typed(spec, "sigma2", float, path, default=1.0)
        if out["sigma2"] <= 0:
            raise ConfigError(f"{path}.sigma2 must be positive, got {out['sigma2']!r}")
    if model == "multiclass":
        out["classes"] = _typed(spec, "classes", int, path, default=3)
        if out["classes"] < 2:
            raise ConfigError(f"{path}.classes must be at least 2, got {out['classes']!r}")
    return out


def validate_kernel_spec(spec: dict, path: str = "kernel") -> dict:
    if not isinstance(spec, dict):
        raise ConfigError(f"{path} must be an object")
    ktype = _typed(spec, "type", str, path, required=True)
    if ktype not in KERNEL_FIELDS:
        raise ConfigError(f"{path}.type must be one of {sorted(KERNEL_FIELDS)}, got {ktype!r}")
    _check_keys(spec, {k: None for k in KERNEL_FIELDS[ktype]}, path)
    out = {"type": ktype, "jitter": _typed(spec, "jitter", float, path, default=0.0)}
    if out["jitter"] < 0:
        raise ConfigError(f"{path}.jitter must be nonnegative, got {out['jitter']!r}")
    # Unwritten kernel parameters stay None: see _kernel_parameter.
    if ktype == "squared_exponential":
        keys = ("lengthscale2", "amplitude")
    else:
        keys = ("beta", "amplitude", "scale_divisor")
        out["side"] = _typed(spec, "side", int, path)
        if out["side"] is not None and out["side"] < 2:
            raise ConfigError(f"{path}.side must be at least 2, got {out['side']!r}")
    for key in keys:
        value = out[key] = _typed(spec, key, float, path)
        if value is not None and value <= 0:
            raise ConfigError(f"{path}.{key} must be positive, got {value!r}")
    return out


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


def simulate_dataset(model: str, spec: dict, rng: np.random.Generator | None = None) -> DatasetBundle:
    """Draw a synthetic dataset: latent field from the prior, then observations.

    The returned bundle carries the exact covariance used for generation, so
    benchmarks on simulated data are well-specified by construction.
    """
    spec = validate_simulate_spec(model, dict(spec), path="simulate")
    rng = rng if rng is not None else np.random.default_rng(spec["seed"])

    if model == "cox":
        side = spec["side"]
        grid = GridKernel(side, spec["amplitude"], spec["beta"], spec["scale_divisor"])
        cov = grid.matrix()
        offset = math.log(spec["mean_count"]) - 0.5 * spec["amplitude"]
        exposure = 1.0 / side**2
        latent = _draw_from_prior(cov, rng)
        counts = rng.poisson(exposure * np.exp(latent + offset)).reshape(side, side)
        manifest = {
            "model": model,
            **spec,
            "offset": offset,
            "cell_area": exposure,
        }
        target = PoissonCounts(counts, exposure=exposure, offset=offset)
        return DatasetBundle(model, target, cov, manifest, observations=counts, grid=grid)

    lo, hi = spec["input_range"]
    inputs = np.linspace(lo, hi, spec["n"])
    base_cov = squared_exponential_kernel(inputs, variance=spec["amplitude"], lengthscale2=spec["lengthscale2"])
    manifest = {"model": model, **spec}

    if model == "regression":
        latent = _draw_from_prior(base_cov, rng)
        y = latent + math.sqrt(spec["sigma2"]) * rng.standard_normal(spec["n"])
        target = GaussianRegression(y, noise_variance=spec["sigma2"])
        return DatasetBundle(model, target, base_cov, manifest, inputs=inputs, observations=y)

    if model == "binary":
        latent = _draw_from_prior(base_cov, rng)
        probs = 1.0 / (1.0 + np.exp(-latent))
        labels = (rng.random(spec["n"]) < probs).astype(int)
        target = BernoulliLogit(labels)
        return DatasetBundle(model, target, base_cov, manifest, inputs=inputs, observations=labels)

    # multiclass: one independent latent field per class, class-major stacking
    k = spec["classes"]
    fields = np.stack([_draw_from_prior(base_cov, rng) for _ in range(k)])
    logits = fields - fields.max(axis=0, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=0, keepdims=True)
    labels = np.array([rng.choice(k, p=probs[:, i]) for i in range(spec["n"])])
    cov = np.kron(np.eye(k), base_cov)
    target = CategoricalSoftmax(labels, n_classes=k)
    return DatasetBundle(model, target, cov, manifest, inputs=inputs, observations=labels)


def _draw_from_prior(cov: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    prior = eigendecompose_covariance(cov)
    return prior.basis @ (prior.sqrt_eigenvalues * rng.standard_normal(prior.dimension)[: prior.rank])


def down_sample_cox(counts: np.ndarray) -> np.ndarray:
    """Merge each 2x2 block of grid counts into one cell by summation."""
    counts = np.asarray(counts)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise ValueError(f"counts must be a square matrix, got shape {counts.shape}")
    g = counts.shape[0]
    if g % 2:
        raise ValueError(f"grid side must be even to down-sample, got {g}")
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
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"dataset file {path} does not exist")
    likelihood = dict(likelihood or {})
    manifest: dict = {}
    sidecar = path.with_suffix(".manifest.json") if path.suffix == ".csv" else None
    if sidecar is not None and sidecar.exists():
        manifest = json.loads(sidecar.read_text(encoding="utf-8"))

    if model == "cox":
        counts = np.loadtxt(path, delimiter=",")
        counts = np.atleast_2d(counts)
        if counts.shape[0] != counts.shape[1]:
            raise ConfigError(f"cox counts file must be a square grid, got shape {counts.shape}")
        side = counts.shape[0]
        beta = _kernel_parameter(kernel, manifest, "beta", DEFAULT_COX_BETA)
        amplitude = _kernel_parameter(kernel, manifest, "amplitude", DEFAULT_COX_AMPLITUDE)
        scale = _kernel_parameter(kernel, manifest, "scale_divisor", float(side))
        exposure = likelihood.get("exposure", manifest.get("cell_area", 1.0 / side**2))
        default_offset = math.log(DEFAULT_COX_MEAN_COUNT) - 0.5 * amplitude
        offset = likelihood.get("offset", manifest.get("offset", default_offset))
        grid = GridKernel(side, amplitude, beta, scale)
        target = PoissonCounts(counts, exposure=exposure, offset=offset)
        meta = {"model": model, "side": side, "beta": beta, "amplitude": amplitude,
                "scale_divisor": scale, "cell_area": exposure, "offset": offset, "source": str(path)}
        return DatasetBundle(model, target, grid.matrix(), meta, observations=counts, grid=grid)

    rows = np.genfromtxt(path, delimiter=",", names=True)
    if rows.dtype.names is None or "input" not in rows.dtype.names:
        raise ConfigError(f"dataset file {path} must have a header with an 'input' column")
    inputs = np.atleast_1d(rows["input"])
    if kernel is None:
        raise ConfigError(f"a kernel spec is required to load a {model} dataset")
    cov, kernel = _squared_exponential(kernel, manifest, inputs)
    meta = {"model": model, "kernel": kernel, "source": str(path)}

    if model == "regression":
        if "y" not in rows.dtype.names:
            raise ConfigError(f"regression dataset {path} must have a 'y' column")
        y = np.atleast_1d(rows["y"])
        sigma2 = likelihood.get("sigma2", manifest.get("sigma2"))
        if sigma2 is None:
            raise ConfigError("regression noise variance sigma2 not found in likelihood config or manifest")
        return DatasetBundle(model, GaussianRegression(y, float(sigma2)), cov, meta, inputs=inputs, observations=y)

    if "label" not in rows.dtype.names:
        raise ConfigError(f"{model} dataset {path} must have a 'label' column")
    labels = np.atleast_1d(rows["label"]).astype(int)
    if model == "binary":
        return DatasetBundle(model, BernoulliLogit(labels), cov, meta, inputs=inputs, observations=labels)
    k = int(likelihood.get("classes", manifest.get("classes", labels.max() + 1)))
    cov_full = np.kron(np.eye(k), cov)
    return DatasetBundle(model, CategoricalSoftmax(labels, n_classes=k), cov_full, meta, inputs=inputs, observations=labels)


def resolve_dataset(config: ExperimentConfig) -> DatasetBundle:
    if config.simulate is not None:
        bundle = simulate_dataset(config.model, config.simulate)
        if config.kernel is not None:
            # inference kernel may deviate from the generative one
            covariance, grid, kernel = _kernel_covariance(config.kernel, bundle)
            bundle = DatasetBundle(
                model=bundle.model,
                target=bundle.target,
                covariance=covariance,
                manifest={**bundle.manifest, "kernel": kernel},
                inputs=bundle.inputs,
                observations=bundle.observations,
                grid=grid,
            )
        return bundle
    return load_dataset(config.model, config.dataset_path, config.kernel, config.likelihood)


def _kernel_covariance(kernel: dict, bundle: DatasetBundle) -> tuple[np.ndarray, GridKernel | None, dict]:
    """The covariance of a kernel spec, its GridKernel for a grid kernel, and the spec with its resolved parameters."""
    if kernel["type"] == "squared_exponential":
        if bundle.inputs is None:
            raise ConfigError("squared_exponential kernel requires input locations")
        cov, kernel = _squared_exponential(kernel, bundle.manifest, bundle.inputs)
        if bundle.model == "multiclass":
            cov = np.kron(np.eye(bundle.target.dimension // cov.shape[0]), cov)
        return cov, None, kernel
    side = kernel.get("side") or int(math.isqrt(bundle.target.dimension))
    if side * side != bundle.target.dimension:
        raise ConfigError(f"config.kernel: a {side}x{side} grid does not fit the dataset's {bundle.target.dimension} cells")
    amplitude = _kernel_parameter(kernel, bundle.manifest, "amplitude", DEFAULT_COX_AMPLITUDE)
    beta = _kernel_parameter(kernel, bundle.manifest, "beta", DEFAULT_COX_BETA)
    scale = _kernel_parameter(kernel, bundle.manifest, "scale_divisor", float(side))
    grid = GridKernel(side, amplitude, beta, scale)
    return grid.matrix(), grid, {**kernel, "side": side, "amplitude": amplitude, "beta": beta, "scale_divisor": scale}


def _squared_exponential(kernel: dict, manifest: dict, inputs: np.ndarray) -> tuple[np.ndarray, dict]:
    """The squared-exponential covariance at the inputs, and the kernel spec with its resolved parameters."""
    lengthscale2 = _kernel_parameter(kernel, manifest, "lengthscale2", 1.0)
    amplitude = _kernel_parameter(kernel, manifest, "amplitude", 1.0)
    cov = squared_exponential_kernel(inputs, variance=amplitude, lengthscale2=lengthscale2)
    return cov, {**kernel, "lengthscale2": lengthscale2, "amplitude": amplitude}


def _kernel_parameter(kernel: dict | None, manifest: dict, key: str, default: float) -> float:
    """A kernel parameter: the kernel spec's if written there, else the dataset manifest's, else the default."""
    for source in (kernel or {}, manifest):
        if source.get(key) is not None:
            return source[key]
    return default


def resolve_threads(cli_value: int | None = None) -> int:
    if cli_value is not None:
        if cli_value < 1:
            raise ConfigError(f"--threads must be at least 1, got {cli_value!r}")
        return cli_value
    env = os.environ.get("LGM_THREADS")
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise ConfigError(f"LGM_THREADS must be an integer, got {env!r}") from exc
        if value < 1:
            raise ConfigError(f"LGM_THREADS must be at least 1, got {value!r}")
        return value
    return min(8, os.cpu_count() or 1)


@dataclass
class SingleRunResult:
    report: RunReport
    samples: np.ndarray | None = None
    theta_samples: np.ndarray | None = None
    tuned_delta: float | None = None


def benchmark_single(
    kind: SamplerKind,
    prior: SpectralPrior,
    target: TargetModel,
    seed: int,
    burn_in: int,
    collect: int,
    thin: int = 1,
    keep_samples: bool = True,
    x0: np.ndarray | None = None,
) -> SingleRunResult:
    """Tune, collect, and summarize one (sampler, seed) run.

    The RNG stream is keyed by (seed, kernel index) so different kernels at
    the same seed never share draws.  Operation counters cover the collection
    phase only; factorizations stay at zero because the decomposition is
    shared and precomputed.
    """
    rng = np.random.default_rng([seed, KIND_STREAM_INDEX[kind]])
    counter = OpCounter()
    chain = Chain(kind, prior, target, rng, counter=counter, x0=x0)

    t0 = time.perf_counter()
    tune = tune_and_freeze(chain, burn_in)
    burn_seconds = time.perf_counter() - t0

    counter.reset()
    accept_before = chain.state.accept_count
    steps_before = chain.state.step_count
    t0 = time.perf_counter()
    samples = chain.sample(collect, thin=thin)
    collect_seconds = time.perf_counter() - t0
    steps = chain.state.step_count - steps_before
    acceptance = (chain.state.accept_count - accept_before) / steps if steps else 0.0

    report = summarize_run(
        samples,
        method=DISPLAY_NAMES[kind],
        seed=seed,
        delta=chain.delta,
        collect_seconds=collect_seconds,
        burn_in_seconds=burn_seconds,
        acceptance_rate=acceptance,
        matvecs=counter.matvecs,
        factorizations=counter.factorizations,
        warning=tune.warning,
    )
    return SingleRunResult(report=report, samples=samples if keep_samples else None, tuned_delta=chain.delta)


def _hyper_single(
    config: ExperimentConfig,
    target: TargetModel,
    prior: SpectralPrior,
    seed: int,
    keep_samples: bool,
) -> SingleRunResult:
    """One hyperparameter-learning run: theta is the log-amplitude of the shared prior.

    The family is C(theta) = e^theta (C0 + jitter I), built on the
    decomposition ``prior`` that every job of the benchmark shares.
    """
    hyper_cfg = config.hyper
    theta0 = np.asarray(hyper_cfg["theta0"], dtype=float)
    model = HyperModel(base=prior, prior=GaussianHyperPrior.diffuse(1, variance=hyper_cfg["prior_variance"]))
    rng = np.random.default_rng([seed, len(SamplerKind)])  # distinct from all fixed-kernel streams
    result = run_hyper_chain(
        model,
        target,
        theta0,
        rng,
        mode=config.hyper_mode,
        burn_in=config.burn_in,
        collect=config.collect,
        latent_steps_per_move=config.r_steps,
        kappa=hyper_cfg["kappa"],
    )
    report = summarize_run(
        result.x_samples,
        method=f"{DISPLAY_NAMES[SamplerKind.AGRAD_Z]} ({config.hyper_mode} θ)",
        seed=seed,
        delta=result.delta,
        collect_seconds=result.collect_seconds,
        burn_in_seconds=result.burn_in_seconds,
        acceptance_rate=result.latent_acceptance_rate,
        matvecs=result.counter.matvecs,
        factorizations=result.counter.factorizations,
        kappa=result.kappa,
        warning="; ".join(result.warnings) or None,
        extra={
            "theta_mean": [float(v) for v in result.theta_samples.mean(axis=0)],
            "theta_sd": [float(v) for v in result.theta_samples.std(axis=0, ddof=1)],
            "theta_ess": ess_geyer(result.theta_samples[:, 0]),
            "theta_acceptance_rate": result.theta_acceptance_rate,
        },
    )
    return SingleRunResult(
        report=report,
        samples=result.x_samples if keep_samples else None,
        theta_samples=result.theta_samples if keep_samples else None,
        tuned_delta=result.delta,
    )


@dataclass
class BenchmarkResult:
    """Everything a benchmark produced, before and after writing to disk."""

    config: ExperimentConfig
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
    threads: int | None = None,
    keep_samples: bool = False,
    write: bool = True,
) -> BenchmarkResult:
    """Execute every (sampler, seed) cell of a benchmark config.

    The covariance is decomposed once (``shared_prior``) and shared
    read-only; each run owns its chain, RNG and counters, and failures are
    captured in that run's report row without disturbing the others.
    """
    bundle = resolve_dataset(config)
    setup_counter = OpCounter()
    prior = shared_prior(config, bundle, setup_counter)

    if config.hyper_mode == "fixed":
        jobs = [(kind, seed) for kind in config.samplers for seed in config.seeds]

        def work(job):
            kind, seed = job
            try:
                return job, benchmark_single(
                    kind, prior, bundle.target, seed, config.burn_in, config.collect, config.thin, keep_samples
                )
            except Exception as exc:  # isolate run failures
                logger.exception("run (%s, seed %s) failed", kind.value, seed)
                return job, SingleRunResult(report=_failure_report(DISPLAY_NAMES[kind], seed, exc))
    else:
        jobs = [(SamplerKind.AGRAD_Z, seed) for seed in config.seeds]

        def work(job):
            kind, seed = job
            try:
                return job, _hyper_single(config, bundle.target, prior, seed, keep_samples)
            except Exception as exc:
                logger.exception("hyper run (seed %s) failed", seed)
                return job, SingleRunResult(report=_failure_report(DISPLAY_NAMES[kind], seed, exc))

    n_threads = resolve_threads(threads)
    results: dict = {}
    if n_threads == 1 or len(jobs) == 1:
        for job in jobs:
            job, single = work(job)
            results[job] = single
    else:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            for job, single in pool.map(work, jobs):
                results[job] = single

    reports = [results[job].report for job in jobs]
    summary_rows = aggregate_reports(reports)
    digest = determinism_digest(reports)
    meta = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "model": config.model,
        "dimension": bundle.target.dimension,
        "prior": "torus {}x{}".format(*prior.torus_shape) if isinstance(prior, TorusPrior) else "dense",
        "torus_eigenvalue_ratio": _torus_eigenvalue_ratio(config, bundle),
        "setup_factorizations": setup_counter.factorizations,
        "threads": n_threads,
        "hyper": config.hyper if config.hyper_mode != "fixed" else None,
        "manifest": _json_safe(bundle.manifest),
    }
    result = BenchmarkResult(
        config=config,
        reports=reports,
        summary_rows=summary_rows,
        digest=digest,
        meta=meta,
        runs={(DISPLAY_NAMES[job[0]], job[1]): single for job, single in results.items()},
    )
    if write and config.out is not None:
        write_benchmark_outputs(result, config.out, traces=keep_samples)
    return result


def shared_prior(config: ExperimentConfig, bundle: DatasetBundle, counter: OpCounter | None = None) -> SpectralPrior:
    """The decomposition every job of a config shares.

    Fixed-hyperparameter grid Cox configs hand the grid kernel to
    ``eigendecompose_covariance``, which embeds it in a torus of twice the
    side when that embedding is PSD.  Chains run on the dataset's own
    target either way: they hand it the observed cells of the torus field
    (``prior.observed``), so the posterior of those cells is unchanged, and
    the padding cells follow the prior alone.  Hyperparameter mode stays
    dense: the padding cells' prior terms would enter theta's conditional
    given x and slow theta's mixing.
    """
    jitter = (config.kernel or {}).get("jitter", 0.0)
    grid = _torus_candidate(config, bundle)
    return eigendecompose_covariance(grid or bundle.covariance, jitter=jitter, counter=counter)


def _torus_candidate(config: ExperimentConfig, bundle: DatasetBundle) -> GridKernel | None:
    return bundle.grid if config.model == "cox" and config.hyper_mode == "fixed" else None


def _torus_eigenvalue_ratio(config: ExperimentConfig, bundle: DatasetBundle) -> float | None:
    """Smallest over largest torus eigenvalue of C + jitter I, where the torus was tried."""
    grid = _torus_candidate(config, bundle)
    if grid is None:
        return None
    eigenvalues = grid.torus_eigenvalues + (config.kernel or {}).get("jitter", 0.0)
    return float(eigenvalues.min() / eigenvalues.max())


def _failure_report(method: str, seed: int, exc: Exception) -> RunReport:
    return RunReport(
        method=method,
        seed=seed,
        delta=None,
        kappa=None,
        collect_seconds=0.0,
        burn_in_seconds=0.0,
        ess_min=float("nan"),
        ess_median=float("nan"),
        ess_max=float("nan"),
        acceptance_rate=float("nan"),
        matvecs=0,
        factorizations=0,
        n_samples=0,
        dimension=0,
        error=f"{type(exc).__name__}: {exc}",
    )


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, Path):
        return str(obj)
    return obj


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
    json_path.write_text(json.dumps(_json_safe(payload), sort_keys=True, indent=2) + "\n", encoding="utf-8")
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
