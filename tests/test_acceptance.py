"""Acceptance suite: twelve behavioural criteria with stated tolerances.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
live) and enforces its own wall-clock budget.  The heavy Monte Carlo checks
use fixed seeds and warm starts so the whole file is deterministic.
"""

import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from lgm.adaptation import tune_and_freeze
from lgm.diagnostics import ess_geyer
from lgm.harness import KIND_STREAM_INDEX, benchmark_single, down_sample_cox, simulate_dataset
from lgm.hyper import HyperChain, HyperModel
from lgm.oracle import (
    asymptotic_variance,
    battery_functions,
    build_kernel_matrix,
    gaussian_likelihood_target,
    generalized_marginal_proposal,
    logistic_target,
    make_oracle_grid,
    posterior_coordinate_moments,
    reversibility_residual,
    symmetric_conjugation_residual,
)
from lgm.samplers import GRADIENT_KINDS, MATVEC_BUDGET, Chain, OpCounter, SamplerKind
from lgm.spectral import eigendecompose_covariance, shrinkage_maps
from lgm.targets import BernoulliLogit, CategoricalSoftmax, GaussianRegression, PoissonCounts

from conftest import finite_difference_gradient, make_spd

SIGMA2_GRID = (1.0, 0.1, 0.01)


def finish(name: str, budget_seconds: float, t0: float, failures: list[str]) -> None:
    """Print the one-line verdict and raise if anything (or the clock) failed."""
    elapsed = time.perf_counter() - t0
    if elapsed >= budget_seconds:
        failures.append(f"runtime {elapsed:.1f} s exceeds the {budget_seconds:.0f} s budget")
    status = "FAIL" if failures else "PASS"
    detail = f" | {'; '.join(failures)}" if failures else ""
    print(f"\n{status} {name} ({elapsed:.1f} s){detail}")
    assert not failures, "; ".join(failures)


@pytest.fixture(scope="module")
def regression_data():
    """n=200 conjugate datasets, one per noise level, decomposed once."""
    out = {}
    for sigma2 in SIGMA2_GRID:
        bundle = simulate_dataset("regression", {"n": 200, "sigma2": sigma2, "seed": 0})
        prior = eigendecompose_covariance(bundle.covariance)
        out[sigma2] = (prior, bundle.target, np.asarray(bundle.observations, dtype=float))
    return out


def test_01_shrinkage_maps_unit_slope_saturation_and_peak_ratio():
    t0 = time.perf_counter()
    failures = []

    delta = 1.0
    h = 1e-6
    slope = shrinkage_maps(np.array([h]), delta, 1.0).marginal[0] / h
    if abs(slope - 1.0) > 1e-4:
        failures.append(f"slope at the origin is {slope!r}, expected 1 within 1e-4")

    tail = shrinkage_maps(np.array([1e6 * delta]), delta, 1.0).marginal[0]
    if abs(tail - delta) > 1e-4 * delta:
        failures.append(f"large-eigenvalue limit {tail!r} misses delta={delta} at 1e-4 relative")

    grid = np.geomspace(1e-6, 1e6, 10_000)
    for sigma2 in (1.0, 0.01):
        maps = shrinkage_maps(grid, sigma2, sigma2)
        peak = float(np.max(maps.marginal / maps.posterior))
        if abs(peak - 1.125) > 1e-6:
            failures.append(f"peak marginal/posterior ratio {peak!r} at delta=sigma2={sigma2}, expected 1.125")

    finish("criterion 1 shrinkage-map identities", 1.0, t0, failures)


def test_02_prior_reversibility_of_gradient_free_proposals():
    t0 = time.perf_counter()
    failures = []
    gen = np.random.default_rng(3)
    n = 5
    cov = make_spd(n, gen, spread=4.0)
    delta = 0.8

    rho = 2.0 / (2.0 + delta)
    res_pcn = reversibility_residual(
        cov, lambda v: rho * v, (delta * (delta + 4.0) / (2.0 + delta) ** 2) * cov, gen, n_pairs=100
    )
    if res_pcn > 1e-8:
        failures.append(f"pCN detailed-balance residual {res_pcn:.3e} > 1e-8")

    a = np.linalg.inv(np.linalg.inv(cov) + (2.0 / delta) * np.eye(n))
    res_marg = reversibility_residual(
        cov, lambda v: (2.0 / delta) * a @ v, (2.0 / delta) * a @ a + a, gen, n_pairs=100
    )
    if res_marg > 1e-8:
        failures.append(f"gradient-free marginal residual {res_marg:.3e} > 1e-8")

    for i in range(5):
        small = make_spd(2, gen, spread=3.0)
        raw = gen.standard_normal((2, 2))
        sym = raw + raw.T
        f_matrix = 0.8 * sym / np.abs(np.linalg.eigvalsh(sym)).max()
        res = symmetric_conjugation_residual(small, f_matrix, gen, n_pairs=100)
        if res > 1e-10:
            failures.append(f"conjugation kernel instance {i}: residual {res:.3e} > 1e-10")

    finish("criterion 2 prior-reversibility scans", 1.0, t0, failures)


def test_03_marginal_kernel_dominates_auxiliary_kernels():
    t0 = time.perf_counter()
    failures = []
    targets = {
        "gaussian": gaussian_likelihood_target(gamma=1.0, y=1.0, sigma2=0.5),
        "logistic": logistic_target(gamma=1.0, label=1),
    }
    for tname, target in targets.items():
        grid = make_oracle_grid(target)
        battery = battery_functions(grid)
        for delta in (0.5, 1.0, 2.0):
            p_marg = build_kernel_matrix(SamplerKind.MGRAD, delta, target, grid)
            for aux_kind in (SamplerKind.AGRAD_Z, SamplerKind.AGRAD_U):
                p_aux = build_kernel_matrix(aux_kind, delta, target, grid)
                for fname, f_values in battery.items():
                    v_marg = asymptotic_variance(p_marg, grid.pi, f_values)
                    v_aux = asymptotic_variance(p_aux, grid.pi, f_values)
                    if v_marg > v_aux + 1e-4 * max(1.0, abs(v_aux)):
                        failures.append(
                            f"{tname}/{aux_kind.value}/delta={delta}/{fname}: "
                            f"marginal variance {v_marg:.6f} > auxiliary {v_aux:.6f}"
                        )
    finish("criterion 3 marginal-beats-auxiliary variance ordering", 30.0, t0, failures)


def test_04_preconditioned_proposal_reduces_to_crank_nicolson_langevin():
    t0 = time.perf_counter()
    failures = []
    gen = np.random.default_rng(4)
    for i in range(20):
        cov = make_spd(3, gen, spread=5.0)
        delta = float(np.exp(gen.uniform(math.log(0.2), math.log(3.0))))
        x = gen.standard_normal(3)
        grad = gen.standard_normal(3)
        mean_gen, cov_gen = generalized_marginal_proposal(cov, cov, delta, x, grad)
        mean_ref = (2.0 / (2.0 + delta)) * x + (delta / (2.0 + delta)) * cov @ grad
        cov_ref = delta * (delta + 4.0) / (2.0 + delta) ** 2 * cov
        err = max(float(np.abs(mean_gen - mean_ref).max()), float(np.abs(cov_gen - cov_ref).max()))
        if err > 1e-10:
            failures.append(f"instance {i}: max deviation {err:.3e} > 1e-10")
    finish("criterion 4 preconditioned-proposal equivalence", 1.0, t0, failures)


def _moment_budget(kind: SamplerKind, sigma2: float) -> tuple[int, int, int]:
    """(burn_in, collect, thin) per run, sized so every moment lands within 4 se.

    The slow-mixing baselines at sigma2=0.01 need millions of transitions for a
    few hundred effective samples; the gradient kernels decorrelate in a handful
    of steps, so light thinning already gives thousands.  Run one after
    another on a 2-core x86 VM, the 21 jobs of test_05 take 450-500 s in all
    with the samplers as first imported and 370-380 s once pCN and Ellipt
    stopped computing unused gradients; test_05 therefore spreads the jobs
    over worker processes, one per core, to stay inside its 300 s budget.
    """
    if kind in (SamplerKind.AGRAD_Z, SamplerKind.AGRAD_U):
        return 20_000, 20_000, 4
    if kind is SamplerKind.MGRAD:
        return 20_000, 20_000, 3
    if kind is SamplerKind.PMALA:
        return (25_000, 20_000, 5) if sigma2 == 1.0 else (50_000, 20_000, 10)
    if kind is SamplerKind.PCN:
        if sigma2 == 0.01:
            return 150_000, 50_000, 50
        return (20_000, 20_000, 4) if sigma2 == 1.0 else (20_000, 20_000, 10)
    if kind is SamplerKind.PCNL:
        return (150_000, 20_000, 50) if sigma2 == 0.01 else (20_000, 20_000, 4)
    if sigma2 == 0.01:
        return 40_000, 20_000, 30
    return (20_000, 20_000, 4) if sigma2 == 1.0 else (20_000, 20_000, 10)


def _worst_moment_z(kind, sigma2, prior, target, y) -> float:
    post_mean, post_var = posterior_coordinate_moments(prior, sigma2, y)
    burn_in, collect, thin = _moment_budget(kind, sigma2)
    # benchmark_single's chain at seed 0, without its run summary
    chain = Chain(kind, prior, target, np.random.default_rng([0, KIND_STREAM_INDEX[kind]]), x0=post_mean)
    tune_and_freeze(chain, burn_in)
    samples = chain.sample(collect, thin)
    worst = 0.0
    for j in range(samples.shape[1]):
        col = samples[:, j]
        ess_mean = ess_geyer(col)
        z_mean = abs(col.mean() - post_mean[j]) / math.sqrt(post_var[j] / ess_mean)
        ess_var = ess_geyer((col - col.mean()) ** 2)
        z_var = abs(col.var() - post_var[j]) / (post_var[j] * math.sqrt(2.0 / ess_var))
        worst = max(worst, z_mean, z_var)
    return worst


def test_05_every_sampler_recovers_the_exact_posterior(regression_data):
    t0 = time.perf_counter()
    failures = []
    def total_steps(job):
        burn_in, collect, thin = _moment_budget(*job)
        return burn_in + collect * thin

    jobs = [(kind, sigma2) for sigma2 in SIGMA2_GRID for kind in SamplerKind]
    jobs.sort(key=total_steps, reverse=True)
    # Each job holds the GIL for nearly its whole run, so a thread pool runs
    # them one at a time; worker processes run them in parallel.  Spawned
    # rather than forked, so no child inherits the parent's BLAS threads.
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=min(8, os.cpu_count() or 1), mp_context=spawn) as pool:
        futures = {
            pool.submit(_worst_moment_z, kind, sigma2, *regression_data[sigma2]): (kind, sigma2)
            for kind, sigma2 in jobs
        }
        for future, (kind, sigma2) in futures.items():
            worst = future.result()
            if worst > 4.0:
                failures.append(f"{kind.value} at sigma2={sigma2}: worst moment z-score {worst:.2f} > 4")
    finish("criterion 5 exact-posterior recovery", 300.0, t0, failures)


TUNE_BURN = {1.0: 3000, 0.1: 5000, 0.01: 10_000}


def test_06_tuned_step_sizes_track_noise_scale(regression_data):
    t0 = time.perf_counter()
    failures = []
    passed_seeds = 0
    for seed in range(10):
        seed_ok = True
        for sigma2 in SIGMA2_GRID:
            prior, target, _ = regression_data[sigma2]
            burn_in = TUNE_BURN[sigma2]
            for kind in (SamplerKind.MGRAD, SamplerKind.PCN, SamplerKind.PCNL):
                rng = np.random.default_rng([seed, KIND_STREAM_INDEX[kind]])
                tune = tune_and_freeze(Chain(kind, prior, target, rng), burn_in)
                if kind is SamplerKind.MGRAD:
                    seed_ok &= sigma2 <= tune.delta <= 2.7 * sigma2
                else:
                    seed_ok &= tune.delta < 0.1 * sigma2
        passed_seeds += seed_ok
    if passed_seeds < 8:
        failures.append(f"step-size pattern held in only {passed_seeds}/10 seeds, need 8")
    finish("criterion 6 tuned step-size pattern", 600.0, t0, failures)


def test_07_marginal_sampler_efficiency_margins(regression_data):
    t0 = time.perf_counter()
    failures = []
    prior, target, _ = regression_data[0.1]
    baselines = (SamplerKind.PCN, SamplerKind.PCNL, SamplerKind.PMALA, SamplerKind.ELLIPT)
    passed_seeds = 0
    for seed in range(10):
        reports = {}
        for kind in SamplerKind:
            result = benchmark_single(
                kind, prior, target, seed=seed, burn_in=5000, collect=20_000, keep_samples=False
            )
            reports[kind] = result.report
        speed = reports[SamplerKind.MGRAD].min_ess_per_second
        margin_ok = all(speed >= 5.0 * reports[kind].min_ess_per_second for kind in baselines)
        order_ok = (
            reports[SamplerKind.MGRAD].ess_min
            >= reports[SamplerKind.AGRAD_U].ess_min
            >= reports[SamplerKind.AGRAD_Z].ess_min
        )
        passed_seeds += margin_ok and order_ok
    if passed_seeds < 8:
        failures.append(f"efficiency margin and ESS ordering held in only {passed_seeds}/10 seeds, need 8")
    finish("criterion 7 relative-efficiency margins", 600.0, t0, failures)


def test_08_per_iteration_operation_budgets():
    t0 = time.perf_counter()
    failures = []
    gen = np.random.default_rng(8)
    cov = make_spd(12, gen, spread=4.0)
    setup_counter = OpCounter()
    prior = eigendecompose_covariance(cov, counter=setup_counter)
    if setup_counter.factorizations != 1:
        failures.append(f"setup cost {setup_counter.factorizations} factorizations, expected exactly 1")
    target = GaussianRegression(gen.standard_normal(12), 0.5)

    expected = {
        SamplerKind.PCN: 1,
        SamplerKind.AGRAD_Z: 2,
        SamplerKind.PCNL: 2,
        SamplerKind.AGRAD_U: 3,
        SamplerKind.MGRAD: 2,
        SamplerKind.PMALA: 2,
        SamplerKind.ELLIPT: 1,
    }
    steps = 60
    for kind, per_step in expected.items():
        if MATVEC_BUDGET[kind] != per_step:
            failures.append(f"{kind.value}: declared budget {MATVEC_BUDGET[kind]} != {per_step}")
        chain = Chain(kind, prior, target, np.random.default_rng(KIND_STREAM_INDEX[kind]))
        counter = chain.counter
        counter.reset()
        chain.run(steps)
        if counter.matvecs != steps * per_step:
            failures.append(f"{kind.value}: {counter.matvecs} matvecs over {steps} steps, expected {steps * per_step}")
        if counter.factorizations != 0:
            failures.append(f"{kind.value}: {counter.factorizations} factorizations after initialization")
    finish("criterion 8 operation-count budgets", 10.0, t0, failures)


def test_09_grid_poisson_tuning_band_and_downsampling():
    t0 = time.perf_counter()
    failures = []

    bundle16 = simulate_dataset("cox", {"side": 16, "seed": 0})
    prior16 = eigendecompose_covariance(bundle16.covariance)
    for kind in sorted(GRADIENT_KINDS, key=lambda k: k.value):
        rng = np.random.default_rng([0, KIND_STREAM_INDEX[kind]])
        chain = Chain(kind, prior16, bundle16.target, rng)
        tune_and_freeze(chain, 15_000)
        rate = chain.run(5000) / 5000
        if not 0.50 <= rate <= 0.60:
            failures.append(f"{kind.value}: post-tuning acceptance {rate:.3f} outside [0.50, 0.60]")

    bundle32 = simulate_dataset("cox", {"side": 32, "seed": 0})
    prior32 = eigendecompose_covariance(bundle32.covariance)
    counts32 = np.asarray(bundle32.observations)
    merged = down_sample_cox(counts32)
    if merged.sum() != counts32.sum():
        failures.append(f"down-sampling lost counts: {merged.sum()} != {counts32.sum()}")

    coarse_exposure = 4.0 * bundle32.target.exposure
    direction_hits = 0
    for seed in range(10):
        fine = simulate_dataset("cox", {"side": 32, "seed": seed})
        coarse_counts = down_sample_cox(np.asarray(fine.observations))
        target16 = PoissonCounts(coarse_counts, exposure=coarse_exposure, offset=fine.target.offset)
        deltas = {}
        for prior, target, label in ((prior32, fine.target, 32), (prior16, target16, 16)):
            rng = np.random.default_rng([seed, KIND_STREAM_INDEX[SamplerKind.MGRAD]])
            chain = Chain(SamplerKind.MGRAD, prior, target, rng)
            deltas[label] = tune_and_freeze(chain, 5000).delta
        direction_hits += deltas[16] < deltas[32]
    if direction_hits < 8:
        failures.append(f"coarser-grid-smaller-delta direction held in only {direction_hits}/10 seeds, need 8")
    finish("criterion 9 grid-Poisson workflow", 300.0, t0, failures)


def test_10_hyperparameter_posterior_recovery():
    t0 = time.perf_counter()
    failures = []

    y_obs, noise = 0.7, 0.5
    theta_grid = np.linspace(-9.0, 7.0, 1601)
    x_grid = np.linspace(-6.0, 6.0, 1201)
    tt, xx = np.meshgrid(theta_grid, x_grid, indexing="ij")
    log_joint = -0.5 * tt**2 - 0.5 * xx**2 / np.exp(tt) - 0.5 * tt - 0.5 * (y_obs - xx) ** 2 / noise
    weights = np.exp(log_joint - log_joint.max())
    quad_mean = float((weights * tt).sum() / weights.sum())
    if abs(quad_mean - (-0.201920)) > 2e-4:
        failures.append(f"quadrature oracle drifted: E[theta|y] = {quad_mean:.6f}, expected -0.201920")

    model = HyperModel.from_covariance(np.eye(1), 1.0)
    target = GaussianRegression(np.array([y_obs]), noise)
    for mode_index, mode in enumerate(("joint", "gibbs")):
        means, variances = [], []
        for rep in range(2):
            chain = HyperChain(
                model, target, np.zeros(1), np.random.default_rng([2026, mode_index, rep]), mode=mode, kappa=0.5
            )
            tune_and_freeze(chain, 4000)
            chain.sample(40_000)
            series = chain.theta_samples[:, 0]
            means.append(series.mean())
            variances.append(series.var() / ess_geyer(series))
        pooled = float(np.mean(means))
        se = 0.5 * math.sqrt(sum(variances))
        z = abs(pooled - quad_mean) / se
        if z > 4.0:
            failures.append(f"{mode} chain: E[theta|y] estimate {pooled:.4f} is {z:.2f} se from {quad_mean:.4f}")

    gen = np.random.default_rng(6)
    base = make_spd(8, gen, spread=4.0)
    scaled_model = HyperModel.from_covariance(base, 100.0)
    small_target = GaussianRegression(gen.standard_normal(8), 0.5)
    plain = Chain(
        SamplerKind.AGRAD_Z,
        eigendecompose_covariance(base),
        small_target,
        np.random.default_rng(77),
        delta=0.8,
    )
    frozen = HyperChain(
        scaled_model, small_target, np.zeros(1), np.random.default_rng(77), mode="joint", delta=0.8, kappa=0.0
    )
    for step in range(400):
        plain_result = plain.step()
        frozen_result = frozen.theta_step()
        if frozen_result.accepted != plain_result.accepted or not np.array_equal(frozen.state.x, plain.state.x):
            failures.append(f"kappa=0 joint chain diverged from the plain auxiliary chain at step {step}")
            break
    if not np.array_equal(frozen.theta, np.zeros(1)):
        failures.append("kappa=0 joint chain moved theta")

    finish("criterion 10 hyperparameter recovery", 120.0, t0, failures)


def test_11_effective_sample_size_calibration():
    t0 = time.perf_counter()
    failures = []
    size = 100_000
    gen = np.random.default_rng(11)

    iid_ratio = ess_geyer(gen.standard_normal(size)) / size
    if not 0.9 <= iid_ratio <= 1.1:
        failures.append(f"iid ESS/T = {iid_ratio:.3f} outside [0.9, 1.1]")

    rho = 0.5
    noise = gen.standard_normal(size)
    ar = np.empty(size)
    ar[0] = noise[0]
    for i in range(1, size):
        ar[i] = rho * ar[i - 1] + noise[i]
    ess_ar = ess_geyer(ar)
    expected = size * (1.0 - rho) / (1.0 + rho)
    if abs(ess_ar - expected) > 0.1 * expected:
        failures.append(f"AR(1) ESS {ess_ar:.0f} misses {expected:.0f} by more than 10%")

    finish("criterion 11 effective-sample-size estimator", 10.0, t0, failures)


def test_12_likelihood_gradients_match_finite_differences():
    t0 = time.perf_counter()
    failures = []
    gen = np.random.default_rng(12)
    targets = {
        "regression": GaussianRegression(gen.standard_normal(6), 0.37),
        "binary": BernoulliLogit(gen.integers(0, 2, 6)),
        "cox": PoissonCounts(gen.poisson(4.0, 6), exposure=0.2, offset=0.3),
        "multiclass": CategoricalSoftmax(gen.integers(0, 3, 4), n_classes=3),
    }
    for name, target in targets.items():
        for point in range(20):
            x = gen.standard_normal(target.dimension)
            _, grad = target.evaluate(x)
            approx = finite_difference_gradient(lambda v: target.evaluate(v)[0], x)
            bad = np.abs(grad - approx) > 1e-4 * np.abs(approx) + 1e-8
            if bad.any():
                failures.append(f"{name} point {point}: {int(bad.sum())} gradient coordinates off")
    finish("criterion 12 gradient correctness", 5.0, t0, failures)
