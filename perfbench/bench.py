"""Workloads and measurement of the lgm benchmark; see README.md.

A run repeats whole rounds until its seconds are spent.  A round is two
``harness.run_benchmark`` calls on validated configs: every kernel at fixed
hyperparameters, then aGrad-z learning the log-amplitude theta jointly with
the field.  Datasets and chain seeds are fixed per workload, so every round
repeats the same chains bit for bit and each timing is the only thing that
varies; the benchmark seed orders the kernels and draws one check direction.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from lgm import harness
from lgm.diagnostics import ess_geyer
from lgm.samplers import DISPLAY_NAMES, SamplerKind
from tracing import JobClock, SetupDone, Tracer, patched

KERNELS = tuple(kind.value for kind in SamplerKind)
SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
HARNESS_THREADS = 1
THETA_PRIOR_VARIANCE = 100.0
LATENT_STEPS_PER_MOVE = 10
# Set-ups timed on their own before the first round, at least SETUP_REPEATS
# of them and for at least SETUP_SECONDS.  With the rounds' own set-ups they
# make the sample whose median is setup_s; the first is the process's cold
# start.  A regression-n200 set-up takes about 20 ms, so it gets many more.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0


@dataclass(frozen=True)
class Workload:
    model: str
    data: dict  # simulate spec of the fixed-hyperparameter runs
    chain_seeds: tuple[int, ...]
    burn_in: int
    collect: int
    hyper_data: dict  # simulate spec of the theta-learning run
    hyper_seeds: tuple[int, ...]
    hyper_burn_in: int  # sweeps of LATENT_STEPS_PER_MOVE latent steps and one theta move
    hyper_collect: int


WORKLOADS = {
    "regression-n200": Workload(
        model="regression",
        data={"n": 200, "sigma2": 0.1, "seed": 2026},
        chain_seeds=(0, 1),
        burn_in=2000,
        collect=5000,
        hyper_data={"n": 200, "sigma2": 0.1, "seed": 2026},
        hyper_seeds=(0,),
        hyper_burn_in=100,
        hyper_collect=400,
    ),
    "cox-side32": Workload(
        model="cox",
        data={"side": 32, "seed": 2026},
        chain_seeds=(0,),
        burn_in=500,
        collect=1000,
        hyper_data={"side": 16, "seed": 2026},
        hyper_seeds=(0,),
        hyper_burn_in=100,
        hyper_collect=200,
    ),
}


def make_configs(w: Workload, order: list[str]) -> tuple:
    fixed = harness.validate_config({
        "model": w.model,
        "simulate": dict(w.data),
        "samplers": list(order),
        "seeds": list(w.chain_seeds),
        "burn_in": w.burn_in,
        "collect": w.collect,
    })
    learn = harness.validate_config({
        "model": w.model,
        "simulate": dict(w.hyper_data),
        "samplers": ["agrad-z"],
        "seeds": list(w.hyper_seeds),
        "burn_in": w.hyper_burn_in,
        "collect": w.hyper_collect,
        "R": LATENT_STEPS_PER_MOVE,
        "hyper": {"mode": "joint", "prior_variance": THETA_PRIOR_VARIANCE},
    })
    return fixed, learn


class References:
    """The workload's check references, built from the simulated inputs."""

    def __init__(self, w: Workload, rng: np.random.Generator):
        data = harness.simulate_dataset(w.model, w.data)
        learn = harness.simulate_dataset(w.model, w.hyper_data)
        if w.model == "regression":
            cov = regression_covariance(data.manifest)
            self.field = checks.GaussianPosterior(cov, data.observations, data.manifest["sigma2"], rng)
            base = regression_covariance(learn.manifest)
            mean, sd = checks.theta_posterior_moments(
                learn.observations, base, learn.manifest["sigma2"], THETA_PRIOR_VARIANCE)
            self.theta = lambda theta, x: checks.theta_mean_z(theta, mean, sd)
        else:
            m = data.manifest
            cov = checks.grid_exponential(m["side"], m["amplitude"], m["beta"], m["scale_divisor"])
            self.field = checks.CoxStein(cov, data.observations, m["cell_area"], m["offset"], rng)
            m = learn.manifest
            base = checks.grid_exponential(m["side"], m["amplitude"], m["beta"], m["scale_divisor"])
            self.theta = lambda theta, x: checks.theta_score_z(theta, x, base, THETA_PRIOR_VARIANCE)


def regression_covariance(manifest: dict) -> np.ndarray:
    lo, hi = manifest["input_range"]
    inputs = np.linspace(lo, hi, manifest["n"])
    return checks.squared_exponential(inputs, manifest["amplitude"], manifest["lengthscale2"])


@dataclass
class Round:
    traced: bool
    seconds: float = 0.0  # the round's whole wall time, checks included
    run_s: float = 0.0
    setup_s: float = 0.0
    ess_per_s: dict = field(default_factory=dict)
    theta_ess_per_s: float = math.nan
    digests: tuple = ()
    attempted: int = 0
    failed: int = 0
    worst_z: float = 0.0
    layers: dict = field(default_factory=dict)


def _call(config, clock: JobClock):
    """One run_benchmark call: (result, wall seconds, set-up seconds)."""
    clock.reset()
    t0 = time.perf_counter()
    result = harness.run_benchmark(config, threads=HARNESS_THREADS, keep_samples=True, write=False)
    wall = time.perf_counter() - t0
    return result, wall, clock.first_job - t0


def _setup_only(configs, clock: JobClock) -> float:
    seconds = 0.0
    for config in configs:
        clock.reset(stop_at_first_job=True)
        t0 = time.perf_counter()
        try:
            harness.run_benchmark(config, threads=HARNESS_THREADS, write=False)
        except SetupDone:
            pass
        seconds += clock.first_job - t0
    return seconds


def _run_round(configs, refs: References, clock: JobClock, tracer: Tracer | None) -> Round:
    t0 = time.perf_counter()
    out = Round(traced=tracer is not None)
    with patched(tracer.replacements() if tracer else []):
        fixed, fixed_wall, fixed_setup = _call(configs[0], clock)
        learn, learn_wall, learn_setup = _call(configs[1], clock)
    out.run_s = fixed_wall + learn_wall
    out.setup_s = fixed_setup + learn_setup
    out.digests = (fixed.digest, learn.digest)
    reports = fixed.reports + learn.reports
    out.attempted = len(reports)
    out.failed = sum(r.error is not None for r in reports)
    rows = {row["Method"]: row["Min ESS/s"] for row in fixed.summary_rows}
    out.ess_per_s = {k: rows.get(DISPLAY_NAMES[SamplerKind(k)], math.nan) for k in KERNELS}

    worst = []
    for single in fixed.runs.values():
        if single.report.error is None:
            worst.append(float(np.abs(refs.field.z(single.samples, single.report.ess_min)).max()))
    theta_rates = []
    for single in learn.runs.values():
        if single.report.error is None:
            theta = single.theta_samples[:, 0]
            theta_rates.append(ess_geyer(theta) / (single.report.collect_seconds + single.report.burn_in_seconds))
            worst.append(abs(refs.theta(theta, single.samples)))
    out.theta_ess_per_s = float(np.mean(theta_rates)) if theta_rates else math.nan
    out.worst_z = max(worst, default=0.0)
    if tracer is not None:
        out.layers = layer_metrics(tracer)
    out.seconds = time.perf_counter() - t0
    return out


def layer_metrics(t: Tracer) -> dict:
    """Per-layer figures of one traced round."""
    out = {}
    for k in KERNELS:
        steps, step_s, self_s = t.total("samplers.step", k, "collect")
        transforms, transform_s, _ = t.total("spectral.transform", k, "collect")
        evals = [t.total(layer, k, "collect") for layer in ("targets.evaluate", "targets.log_likelihood")]
        burn_steps = t.total("samplers.step", k, "burn")[0]
        out[f"samplers.step_us.{k}"] = 1e6 * step_s / steps
        out[f"samplers.self_us.{k}"] = 1e6 * self_s / steps
        out[f"adaptation.burn_in_step_us.{k}"] = 1e6 * t.total("adaptation.tune_and_freeze", k)[1] / burn_steps
        out[f"spectral.transform_us.{k}"] = 1e6 * transform_s / steps
        out[f"spectral.matvecs_per_step.{k}"] = transforms / steps
        out[f"targets.eval_us.{k}"] = 1e6 * sum(e[1] for e in evals) / steps
        out[f"targets.evals_per_step.{k}"] = sum(e[0] for e in evals) / steps
    factorizations, factorize_s, _ = t.total("spectral.eigendecompose")
    out["spectral.eigendecompose_s"] = factorize_s
    out["spectral.factorizations"] = factorizations
    out["spectral.setup_factorizations"] = t.total("spectral.eigendecompose", phase="setup")[0]
    moves, move_s, _ = t.total("hyper.theta_move")
    latent, latent_s, _ = t.total("hyper.latent_step")
    out["hyper.theta_move_ms"] = 1e3 * move_s / moves
    out["hyper.latent_step_us"] = 1e6 * latent_s / latent
    out["hyper.factorizations_per_move"] = t.total("spectral.eigendecompose", parent="hyper.theta_move")[0] / moves
    out["diagnostics.summarize_s"] = t.total("diagnostics.summarize_run")[1]
    out["harness.job_concurrency"] = t.job_concurrency()
    return out


def _median(values) -> float:
    return float(statistics.median(values))


def measure(workload: str, seed: int, seconds: float, trace: bool, span_dir: Path | None = None) -> dict:
    """Run whole rounds of one workload for about ``seconds``; return the result line."""
    start = time.perf_counter()
    w = WORKLOADS[workload]
    rng = np.random.default_rng(seed)
    order = [KERNELS[i] for i in rng.permutation(len(KERNELS))]
    configs = make_configs(w, order)
    clock = JobClock()
    rounds: list[Round] = []
    tracers: list[Tracer] = []
    with patched(clock.replacements()):
        setups = []
        while len(setups) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
            setups.append(_setup_only(configs, clock))
        refs = References(w, rng)
        while True:
            tracer = Tracer(len(rounds), start) if trace and len(rounds) % 2 == 1 else None
            rounds.append(_run_round(configs, refs, clock, tracer))
            if tracer is not None:
                tracers.append(tracer)
            elapsed = time.perf_counter() - start
            if (tracers or not trace) and elapsed + max(r.seconds for r in rounds) > seconds:
                break

    plain = [r for r in rounds if not r.traced]
    failures = []
    if len({r.digests for r in rounds}) != 1:
        failures.append("rounds of the same configs gave different determinism digests")
    worst_z = max(r.worst_z for r in rounds)
    if not worst_z <= checks.Z_BOUND:
        failures.append(f"worst |z| {worst_z:.2f} exceeds {checks.Z_BOUND}")
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"{workload}: {len(rounds)} rounds, worst |z| {worst_z:.2f}", file=sys.stderr)

    if trace:
        traced = [r for r in rounds if r.traced]
        values = {name: _median([r.layers[name] for r in traced]) for name in traced[0].layers}
        values["harness.cold_setup_s"] = setups[0]
        values["trace.overhead"] = _median([r.run_s for r in traced]) / _median([r.run_s for r in plain])
        if span_dir is not None:
            _write_spans(span_dir / f"spans-{workload}-seed{seed}.jsonl", tracers)
    else:
        values = {
            "setup_s": _median(setups + [r.setup_s for r in plain]),
            "run_s": _median([r.run_s for r in plain]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "theta_ess_per_s": _median([r.theta_ess_per_s for r in plain]),
            **{f"ess_per_s.{k}": _median([r.ess_per_s[k] for r in plain]) for k in KERNELS},
        }
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {
        "correct": not failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def _write_spans(path: Path, tracers: list[Tracer]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for tracer in tracers:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
            for (layer, kind, phase, parent), (calls, secs, own) in sorted(tracer.calls.items(), key=str):
                handle.write(json.dumps({"trace": tracer.trace_id, "layer": layer, "kind": kind, "phase": phase,
                                         "parent": parent, "calls": calls, "seconds": secs,
                                         "self_seconds": own}) + "\n")
