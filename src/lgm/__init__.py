"""Samplers and benchmarks for latent Gaussian models.

The target family is pi(x) proportional to exp{f(x)} N(x | 0, C): a Gaussian
prior over a latent field with an arbitrary smooth log-likelihood.  The
package provides seven transition kernels built on one shared spectral
decomposition of C (auxiliary/marginal gradient kernels, preconditioned
Crank-Nicolson with and without gradients, preconditioned MALA, elliptical
slice sampling), step-size adaptation, effective-sample-size diagnostics,
hyperparameter learning over C(theta), a brute-force validation oracle, and
a CLI benchmark harness (``lgm --help``).
"""

from .adaptation import AdaptState, TuneResult, adapt_step, default_target_rate, tune_and_freeze
from .diagnostics import (
    TABLE_COLUMNS,
    RunReport,
    aggregate_reports,
    autocovariance,
    ess_geyer,
    summarize_run,
)
from .harness import (
    BenchmarkResult,
    ConfigError,
    DatasetBundle,
    ExperimentConfig,
    benchmark_single,
    down_sample_cox,
    load_dataset,
    parse_config,
    run_benchmark,
    simulate_dataset,
    validate_config,
    write_dataset,
)
from .hyper import (
    GaussianHyperPrior,
    HyperChain,
    HyperModel,
    log_evidence,
    run_hyper_chain,
    step_gibbs_theta,
    step_joint_x_theta,
)
from .oracle import (
    Grid1D,
    OracleTarget1D,
    asymptotic_variance,
    build_kernel_matrix,
    check_peskun,
    discretize_target,
    exact_gaussian_posterior,
    generalized_marginal_proposal,
    run_validation_suite,
)
from .samplers import (
    DISPLAY_NAMES,
    MATVEC_BUDGET,
    Chain,
    ChainState,
    SamplerKind,
    StepResult,
    mh_accept,
)
from .spectral import (
    DeltaOperators,
    DensePrior,
    OpCounter,
    SpectralPrior,
    TorusPrior,
    build_delta_operators,
    eigendecompose_covariance,
    shrinkage_maps,
)
from .targets import (
    BernoulliLogit,
    CategoricalSoftmax,
    ConstantTarget,
    GaussianRegression,
    GridKernel,
    PoissonCounts,
    TargetModel,
    grid_exponential_kernel,
    squared_exponential_kernel,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptState",
    "BenchmarkResult",
    "BernoulliLogit",
    "CategoricalSoftmax",
    "Chain",
    "ChainState",
    "ConfigError",
    "ConstantTarget",
    "DatasetBundle",
    "DeltaOperators",
    "DensePrior",
    "DISPLAY_NAMES",
    "ExperimentConfig",
    "GaussianHyperPrior",
    "GaussianRegression",
    "Grid1D",
    "GridKernel",
    "HyperChain",
    "HyperModel",
    "MATVEC_BUDGET",
    "OpCounter",
    "OracleTarget1D",
    "PoissonCounts",
    "RunReport",
    "SamplerKind",
    "SpectralPrior",
    "StepResult",
    "TABLE_COLUMNS",
    "TargetModel",
    "TorusPrior",
    "TuneResult",
    "adapt_step",
    "aggregate_reports",
    "asymptotic_variance",
    "autocovariance",
    "benchmark_single",
    "build_delta_operators",
    "build_kernel_matrix",
    "check_peskun",
    "default_target_rate",
    "discretize_target",
    "down_sample_cox",
    "eigendecompose_covariance",
    "ess_geyer",
    "exact_gaussian_posterior",
    "generalized_marginal_proposal",
    "grid_exponential_kernel",
    "load_dataset",
    "log_evidence",
    "mh_accept",
    "parse_config",
    "run_benchmark",
    "run_hyper_chain",
    "run_validation_suite",
    "shrinkage_maps",
    "simulate_dataset",
    "squared_exponential_kernel",
    "step_gibbs_theta",
    "step_joint_x_theta",
    "summarize_run",
    "tune_and_freeze",
    "validate_config",
    "write_dataset",
]
