"""Tests of the benchmark itself: its tracer, its result line and its checks.

Run with ``python -m pytest perfbench``.  They use small problems, so they
say nothing about speed.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
import checks  # noqa: E402
from lgm import harness, samplers  # noqa: E402
from lgm.samplers import DISPLAY_NAMES, Chain, SamplerKind  # noqa: E402
from lgm.spectral import eigendecompose_covariance  # noqa: E402
from lgm.targets import GaussianRegression  # noqa: E402
from tracing import Tracer, patched  # noqa: E402

TINY = {
    "regression-n200": bench.Workload(
        model="regression", data={"n": 30, "sigma2": 0.1, "seed": 5}, chain_seeds=(0, 1), burn_in=200,
        collect=300, hyper_data={"n": 30, "sigma2": 0.1, "seed": 5}, hyper_seeds=(0,), hyper_burn_in=100,
        hyper_collect=150),
    "cox-side32": bench.Workload(
        model="cox", data={"side": 6, "seed": 5}, chain_seeds=(0,), burn_in=200, collect=300,
        hyper_data={"side": 4, "seed": 5}, hyper_seeds=(0,), hyper_burn_in=100, hyper_collect=150),
}


def traced_round(workload: str, tracer: Tracer | None):
    configs = bench.make_configs(TINY[workload], list(bench.KERNELS))
    with patched(tracer.replacements() if tracer else []):
        return [harness.run_benchmark(c, threads=1, keep_samples=True, write=False) for c in configs]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_counts_equal_the_programs_counters(workload):
    tracer = Tracer(0, 0.0)
    fixed, learn = traced_round(workload, tracer)
    for kind in bench.KERNELS:
        matvecs = sum(r.matvecs for r in fixed.reports if r.method == DISPLAY_NAMES[SamplerKind(kind)])
        assert tracer.total("spectral.transform", kind, "collect")[0] == matvecs
    in_jobs = sum(tracer.total("spectral.eigendecompose", kind)[0] for kind in bench.KERNELS)
    assert in_jobs == sum(r.factorizations for r in fixed.reports) == 0
    (hyper_report,) = learn.reports
    assert tracer.total("spectral.eigendecompose", "hyper")[0] == hyper_report.factorizations
    for result in (fixed, learn):
        assert result.meta["setup_factorizations"] == 1
    # run_benchmark's own set-up factorizations, without the ones simulate_dataset makes.
    own = tracer.total("spectral.eigendecompose", phase="setup", parent="harness.run_benchmark")[0]
    assert own == sum(r.meta["setup_factorizations"] for r in (fixed, learn))


@pytest.mark.parametrize("kind", bench.KERNELS)
def test_traced_evaluations_equal_likelihood_evals(kind):
    bundle = harness.simulate_dataset("regression", {"n": 20, "sigma2": 0.1, "seed": 1})
    prior = eigendecompose_covariance(bundle.covariance)
    chain = Chain(kind, prior, bundle.target, np.random.default_rng(3))
    before = (chain.state.likelihood_evals, chain.state.accept_count, chain.counter.matvecs)
    tracer = Tracer(0, 0.0)
    with patched(tracer.replacements()):
        chain.run(300)
    evals = tracer.total("targets.evaluate")[0] + tracer.total("targets.log_likelihood")[0]
    # pCN and Ellipt evaluate f alone at proposals (counted) and then the
    # gradient of the state they accept (not counted).
    gradient_passes = chain.state.accept_count - before[1] if kind in ("pcn", "ellipt") else 0
    assert evals == chain.state.likelihood_evals - before[0] + gradient_passes
    assert tracer.total("spectral.transform")[0] == chain.counter.matvecs - before[2]
    assert tracer.total("samplers.step")[0] == 300


def test_tracing_leaves_the_chains_and_the_library_unchanged():
    originals = (harness.run_benchmark, harness.benchmark_single, samplers.to_spectral,
                 dict(samplers._STEP_FUNCS), GaussianRegression.__dict__["evaluate"])
    plain = traced_round("regression-n200", None)
    traced = traced_round("regression-n200", Tracer(0, 0.0))
    assert [r.digest for r in plain] == [r.digest for r in traced]
    assert originals == (harness.run_benchmark, harness.benchmark_single, samplers.to_spectral,
                         dict(samplers._STEP_FUNCS), GaussianRegression.__dict__["evaluate"])


@pytest.mark.parametrize("trace", [False, True])
def test_result_line_names_every_metric_of_benchmark_json(monkeypatch, tmp_path, trace):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    monkeypatch.setattr(bench, "WORKLOADS", TINY)
    for workload in TINY:
        result = bench.measure(workload, seed=0, seconds=0.0, trace=trace, span_dir=tmp_path)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
        rounds = 2 if trace else 1
        assert result["attempted"] == rounds * (7 * len(TINY[workload].chain_seeds) + 1)
        assert result["failed"] == 0
    assert len(list(tmp_path.iterdir())) == (2 if trace else 0)


def run_one(config: dict):
    result = harness.run_benchmark(harness.validate_config(config), threads=1, keep_samples=True, write=False)
    (single,) = result.runs.values()
    return single


def test_gaussian_posterior_check_fails_on_a_wrong_reference():
    spec = {"n": 30, "sigma2": 0.1, "seed": 4}
    single = run_one({"model": "regression", "simulate": spec, "samplers": ["mgrad"], "seeds": [0],
                      "burn_in": 1000, "collect": 3000})
    bundle = harness.simulate_dataset("regression", spec)
    cov = bench.regression_covariance(bundle.manifest)
    y, ess = bundle.observations, single.report.ess_min

    def worst(sigma2, shift=0.0):
        ref = checks.GaussianPosterior(cov, y, sigma2, np.random.default_rng(0))
        ref.mean = ref.mean + shift * np.sqrt(np.diag(ref.cov))
        return np.abs(ref.z(single.samples, ess)).max()

    assert worst(0.1) <= checks.Z_BOUND
    assert worst(0.3) > checks.Z_BOUND
    assert worst(0.1, shift=0.5) > checks.Z_BOUND


def test_cox_stein_check_fails_on_a_wrong_reference():
    spec = {"side": 6, "seed": 4}
    single = run_one({"model": "cox", "simulate": spec, "samplers": ["mgrad"], "seeds": [0],
                      "burn_in": 1000, "collect": 3000})
    bundle = harness.simulate_dataset("cox", spec)
    other = harness.simulate_dataset("cox", {**spec, "seed": 5})
    m = bundle.manifest
    cov = checks.grid_exponential(m["side"], m["amplitude"], m["beta"], m["scale_divisor"])

    def worst(counts, offset):
        ref = checks.CoxStein(cov, counts, m["cell_area"], offset, np.random.default_rng(0))
        return np.abs(ref.z(single.samples, single.report.ess_min)).max()

    assert worst(bundle.observations, m["offset"]) <= checks.Z_BOUND
    assert worst(bundle.observations, m["offset"] + 0.5) > checks.Z_BOUND
    assert worst(other.observations, m["offset"]) > checks.Z_BOUND


def hyper_run(model: str, spec: dict):
    return run_one({"model": model, "simulate": spec, "samplers": ["agrad-z"], "seeds": [0], "burn_in": 200,
                    "collect": 600, "hyper": {"mode": "joint", "prior_variance": bench.THETA_PRIOR_VARIANCE}})


def test_theta_quadrature_check_fails_on_a_wrong_reference():
    spec = {"n": 30, "sigma2": 0.1, "seed": 4}
    theta = hyper_run("regression", spec).theta_samples[:, 0]
    bundle = harness.simulate_dataset("regression", spec)
    cov = bench.regression_covariance(bundle.manifest)

    def z(sigma2):
        mean, sd = checks.theta_posterior_moments(bundle.observations, cov, sigma2, bench.THETA_PRIOR_VARIANCE)
        return abs(checks.theta_mean_z(theta, mean, sd))

    assert z(0.1) <= checks.Z_BOUND
    assert z(1.0) > checks.Z_BOUND


def test_theta_score_check_fails_on_a_wrong_reference():
    spec = {"side": 4, "seed": 4}
    single = hyper_run("cox", spec)
    m = harness.simulate_dataset("cox", spec).manifest
    base = checks.grid_exponential(m["side"], m["amplitude"], m["beta"], m["scale_divisor"])

    def z(cov):
        return abs(checks.theta_score_z(single.theta_samples[:, 0], single.samples, cov, bench.THETA_PRIOR_VARIANCE))

    assert z(base) <= checks.Z_BOUND
    assert z(3.0 * base) > checks.Z_BOUND
