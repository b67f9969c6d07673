"""Brute-force numerical verification of the samplers' theoretical claims.

Works on 1-D targets discretized onto a midpoint grid, where every kernel
becomes an explicit row-stochastic matrix whose stationarity, reversibility,
and asymptotic variances can be checked by dense linear algebra.  Also hosts
small dense-matrix oracles: exact Gaussian posteriors, the generalized
preconditioned marginal proposal, and reversibility density scans.

The discretized kernels for the two auxiliary-variable samplers integrate
the auxiliary variable out over its own quadrature grid, reproducing the
exact x-marginal transition kernel the algorithm induces.  The per-cell
integrals are available in closed form (a Gaussian against a clipped
exponential acceptance factor), so the auxiliary cell count controls only
the truncation span of the integral.  The elliptical slice kernel is not
representable here: its angle-shrinkage recursion has no closed-form
transition density, so requesting it raises; its invariance is checked by
Monte Carlo moment tests instead.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .samplers import SamplerKind
from .spectral import SpectralPrior, eigendecompose_covariance, shrinkage_maps, to_spectral

DEFAULT_GRID_POINTS = 201
DEFAULT_AUX_POINTS = 401
TRUNCATION_REL_TOL = 1e-8
STATIONARITY_TOL = 1e-6
DETAILED_BALANCE_TOL = 1e-6
PESKUN_TOL = 1e-4

@dataclass(frozen=True)
class Grid1D:
    """Midpoint discretization of a 1-D density."""

    points: np.ndarray
    width: float
    pi: np.ndarray

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def mean(self) -> float:
        return float(self.pi @ self.points)

    def variance(self) -> float:
        mu = self.mean()
        return float(self.pi @ (self.points - mu) ** 2)

    def quantile(self, q: float) -> float:
        cdf = np.cumsum(self.pi)
        return float(self.points[np.searchsorted(cdf, q)])


@dataclass(frozen=True)
class OracleTarget1D:
    """A 1-D latent Gaussian target: prior N(0, gamma) times exp{loglik}."""

    gamma: float
    loglik: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]

    def log_density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.loglik(x) - 0.5 * x**2 / self.gamma - 0.5 * math.log(2.0 * math.pi * self.gamma)


def gaussian_likelihood_target(gamma: float = 1.0, y: float = 1.0, sigma2: float = 1.0) -> OracleTarget1D:
    """Conjugate 1-D target: one observation y ~ N(x, sigma2)."""
    return OracleTarget1D(
        gamma=gamma,
        loglik=lambda x: -0.5 * (y - x) ** 2 / sigma2,
        grad=lambda x: (y - x) / sigma2,
    )


def logistic_target(gamma: float = 1.0, label: int = 1) -> OracleTarget1D:
    """1-D target with a single Bernoulli(sigmoid(x)) observation."""
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label!r}")
    sign = 1.0 if label == 1 else -1.0
    return OracleTarget1D(
        gamma=gamma,
        loglik=lambda x: -np.logaddexp(0.0, -sign * x),
        grad=lambda x: sign / (1.0 + np.exp(sign * x)),
    )


def discretize_target(
    log_density: Callable[[np.ndarray], np.ndarray],
    bounds: tuple[float, float],
    m: int = DEFAULT_GRID_POINTS,
    max_expansions: int = 60,
) -> Grid1D:
    """Midpoint-rule discretization with automatic bound expansion.

    Bounds widen until the density mass falling outside them is below 1e-8
    of the interior mass, so a too-narrow initial window cannot silently
    truncate the target.
    """
    if m < 51:
        raise ValueError(f"need at least 51 grid points, got {m!r}")
    lo, hi = float(bounds[0]), float(bounds[1])
    if not lo < hi:
        raise ValueError(f"invalid bounds {bounds!r}")
    for _ in range(max_expansions):
        width = (hi - lo) / m
        points = lo + (np.arange(m) + 0.5) * width
        logd = np.asarray(log_density(points), dtype=float)
        if np.isnan(logd).any() or (logd == np.inf).any():
            raise ValueError("log-density returned NaN or +inf on the grid")
        peak = logd.max()
        inner_mass = np.exp(logd - peak).sum()

        n_ext = max(m // 4, 16)
        left = lo - (np.arange(n_ext) + 0.5) * width
        right = hi + (np.arange(n_ext) + 0.5) * width
        outer = np.concatenate([left, right])
        outer_logd = np.asarray(log_density(outer), dtype=float)
        if np.isnan(outer_logd).any() or (outer_logd == np.inf).any():
            raise ValueError("log-density returned NaN or +inf outside the grid")
        outer_mass = np.exp(outer_logd - peak).sum()
        if outer_mass <= TRUNCATION_REL_TOL * inner_mass:
            masses = np.exp(logd - peak)
            return Grid1D(points=points, width=width, pi=masses / masses.sum())
        lo -= n_ext * width
        hi += n_ext * width
    raise ValueError("failed to find bounds capturing the target mass; density may not be integrable")


def _clipped_accept(log_ratio: np.ndarray) -> np.ndarray:
    # min(1, exp(r)) without overflow warnings
    return np.exp(np.minimum(log_ratio, 0.0))


def _normal_density(x: np.ndarray, mean: np.ndarray, var: float) -> np.ndarray:
    return np.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def _assemble(q_alpha_offdiag: np.ndarray) -> np.ndarray:
    """Fill the diagonal so rows sum to one; rejection mass stays put."""
    p = q_alpha_offdiag.copy()
    np.fill_diagonal(p, 0.0)
    diag = 1.0 - p.sum(axis=1)
    if diag.min() < -1e-8:
        raise ValueError(
            f"quadrature inadequate: assembled diagonal would be {diag.min():.3e}; "
            "refine the grid"
        )
    np.fill_diagonal(p, np.maximum(diag, 0.0))
    return p


def build_kernel_matrix(
    kind: SamplerKind | str,
    delta: float,
    target: OracleTarget1D,
    grid: Grid1D,
    aux_points: int = DEFAULT_AUX_POINTS,
) -> np.ndarray:
    """Exact transition matrix of a sampler on the discretized 1-D target.

    For the auxiliary-variable kernels the auxiliary coordinate is
    integrated over its own grid of ``aux_points`` cells; each cell is
    integrated in closed form, so the count matters only through the
    truncation span.
    """
    kind = SamplerKind(kind)
    if kind is SamplerKind.ELLIPT:
        raise NotImplementedError(
            "the elliptical slice angle-shrinkage recursion has no closed-form "
            "transition density; validate it by Monte Carlo instead"
        )
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta!r}")

    if kind in (SamplerKind.AGRAD_Z, SamplerKind.AGRAD_U):
        return _aux_kernel(kind, delta, target, grid, aux_points)
    return _direct_kernel(kind, delta, target, grid)


def _direct_kernel(kind: SamplerKind, delta: float, target: OracleTarget1D, grid: Grid1D) -> np.ndarray:
    x = grid.points
    f = target.loglik(x)
    fp = target.grad(x)
    gamma = target.gamma

    if kind is SamplerKind.MGRAD:
        a = gamma * delta / (delta + 2.0 * gamma)
        lam3 = (delta + 2.0 * gamma) / (delta + 4.0 * gamma)
        mean = (2.0 / delta) * a * (x + 0.5 * delta * fp)
        var = (2.0 / delta) * a * a + a
        # h(x_i, x_j) = (x_i - (2/delta) a (x_j + (delta/4) f'(x_j))) lam3 f'(x_j)
        anchor = (2.0 / delta) * a * (x + 0.25 * delta * fp)
        h = (x[:, None] - anchor[None, :]) * (lam3 * fp)[None, :]
        log_ratio = f[None, :] - f[:, None] + h - h.T
    elif kind is SamplerKind.PCN:
        mean = (2.0 / (2.0 + delta)) * x
        var = delta * (delta + 4.0) / (2.0 + delta) ** 2 * gamma
        log_ratio = f[None, :] - f[:, None]
    elif kind is SamplerKind.PCNL:
        rho = 2.0 / (2.0 + delta)
        mean = rho * x + (delta / (2.0 + delta)) * gamma * fp
        var = delta * (delta + 4.0) / (2.0 + delta) ** 2 * gamma
        c_lin = (2.0 + delta) / (4.0 + delta)
        c_quad = delta / (2.0 * (delta + 4.0))
        k = c_lin * (x[:, None] - rho * x[None, :]) * fp[None, :] - (c_quad * gamma * fp**2)[None, :]
        log_ratio = f[None, :] - f[:, None] + k - k.T
    elif kind is SamplerKind.PMALA:
        a = 1.0 - 0.5 * delta
        mean = a * x + 0.5 * delta * gamma * fp
        var = delta * gamma
        prior_term = -0.5 * (x[None, :] ** 2 - x[:, None] ** 2) / gamma
        fwd = (x[None, :] - mean[:, None]) ** 2
        bwd = (x[:, None] - mean[None, :]) ** 2
        log_ratio = f[None, :] - f[:, None] + prior_term - (bwd - fwd) / (2.0 * var)
    else:
        raise ValueError(f"no direct kernel for {kind}")

    q = _normal_density(x[None, :], mean[:, None], var) * grid.width
    return _assemble(q * _clipped_accept(log_ratio))


def _phi_diff(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Phi(upper) - Phi(lower), reflected into the lower tail for precision."""
    flip = upper + lower > 0.0
    hi = np.where(flip, -lower, upper)
    lo = np.where(flip, -upper, lower)
    return np.maximum(special.ndtr(hi) - special.ndtr(lo), 0.0)


def _log_phi_diff(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """log(Phi(upper) - Phi(lower)) for upper >= lower, stable in both tails."""
    flip = upper + lower > 0.0
    hi = np.where(flip, -lower, upper)
    lo = np.where(flip, -upper, lower)
    log_hi = special.log_ndtr(hi)
    log_lo = special.log_ndtr(lo)
    with np.errstate(divide="ignore"):
        return log_hi + np.log1p(-np.exp(np.minimum(log_lo - log_hi, 0.0)))


def _gauss_clipped_exp_mass(
    mean: np.ndarray,
    var: float,
    beta: np.ndarray,
    kappa: np.ndarray,
    lo: float,
    hi: float,
) -> np.ndarray:
    """Integral of N(z | mean, var) * min(1, exp(beta z + kappa)) over [lo, hi].

    The clip point z0 = -kappa/beta splits the interval into a plain Gaussian
    mass on the accepting side and a tilted Gaussian mass exp(kappa + beta mean
    + beta^2 var / 2) N(z | mean + beta var, var) on the other.  The tilted
    branch never exceeds the untilted mass of its interval, so it is evaluated
    in log space and capped at 1.
    """
    sd = math.sqrt(var)
    beta_safe = np.where(beta == 0.0, 1.0, beta)
    z0 = np.clip(-kappa / beta_safe, lo, hi)

    positive = beta >= 0.0
    unit_lo = np.where(positive, z0, lo)
    unit_hi = np.where(positive, hi, z0)
    unit_mass = _phi_diff((unit_hi - mean) / sd, (unit_lo - mean) / sd)

    exp_lo = np.where(positive, lo, z0)
    exp_hi = np.where(positive, z0, hi)
    shifted = mean + beta * var
    log_gain = kappa + beta * mean + 0.5 * beta * beta * var
    log_exp_mass = log_gain + _log_phi_diff((exp_hi - shifted) / sd, (exp_lo - shifted) / sd)
    exp_mass = np.exp(np.minimum(log_exp_mass, 0.0))

    flat = np.exp(np.minimum(kappa, 0.0)) * _phi_diff((hi - mean) / sd, (lo - mean) / sd)
    return np.where(beta == 0.0, flat, unit_mass + exp_mass)


def _aux_kernel(
    kind: SamplerKind, delta: float, target: OracleTarget1D, grid: Grid1D, aux_points: int
) -> np.ndarray:
    """x-marginal transition matrix with the auxiliary variable integrated out.

    The draw density and the proposal density are both Gaussian in the
    auxiliary variable and the acceptance exponent is linear in it, so each
    quadrature cell's contribution is a closed-form Gaussian-cdf expression.
    Exactness per cell makes the rule independent of the cell count; what the
    count buys is truncation span, ten draw standard deviations beyond the
    extreme conditional means at the default ``aux_points`` and proportionally
    wider with more cells.
    """
    x = grid.points
    m = grid.size
    f = target.loglik(x)
    fp = target.grad(x)
    gamma = target.gamma
    a = gamma * delta / (delta + 2.0 * gamma)
    half_delta = 0.5 * delta
    scale = (2.0 / delta) * a
    var_draw = half_delta
    var_prop = a / (scale * scale)

    f_diff = f[None, :] - f[:, None]
    if kind is SamplerKind.AGRAD_Z:
        # draw z ~ N(x + (delta/2) f'(x), delta/2); propose y ~ N(scale z, a);
        # ratio exponent g(z, x_j) - g(z, x_i) with g(z, v) = (z - v - (delta/4) f'(v)) f'(v)
        centers = x + half_delta * fp
        mu = np.broadcast_to(x / scale, (m, m))
        beta = fp[None, :] - fp[:, None]
        anchor = (x + 0.25 * delta * fp) * fp
        kappa = f_diff - anchor[None, :] + anchor[:, None]
    else:
        # draw u ~ N(x, delta/2); propose y ~ N(scale (u + (delta/2) f'(x)), a);
        # ratio exponent j(x_i, x_j, u) - j(x_j, x_i, u) with
        # j(x, y, u) = (x - scale (u + (delta/4) f'(y))) f'(y)
        centers = x
        mu = x[None, :] / scale - half_delta * fp[:, None]
        beta = -scale * (fp[None, :] - fp[:, None])
        kappa = (
            f_diff
            + x[:, None] * fp[None, :]
            - x[None, :] * fp[:, None]
            - 0.25 * delta * scale * (fp[None, :] ** 2 - fp[:, None] ** 2)
        )

    span = 10.0 * math.sqrt(var_draw) * (aux_points / DEFAULT_AUX_POINTS)
    lo = float(centers.min()) - span
    hi = float(centers.max()) + span

    # N(z|c_i, var_draw) N(z|mu_ij, var_prop) = overlap_ij N(z|m_post, v_post)
    var_tot = var_draw + var_prop
    overlap = _normal_density(mu, centers[:, None], var_tot)
    post_mean = (centers[:, None] * var_prop + mu * var_draw) / var_tot
    post_var = var_draw * var_prop / var_tot
    mass = _gauss_clipped_exp_mass(post_mean, post_var, beta, kappa, lo, hi)
    return _assemble((grid.width / scale) * overlap * mass)


def stationarity_residual(grid: Grid1D, p: np.ndarray) -> float:
    return float(np.abs(grid.pi @ p - grid.pi).max())


def detailed_balance_residual(grid: Grid1D, p: np.ndarray) -> float:
    flow = grid.pi[:, None] * p
    return float(np.abs(flow - flow.T).max())


def asymptotic_variance(p: np.ndarray, pi: np.ndarray, f_values: np.ndarray) -> float:
    """Asymptotic variance of ergodic averages of f under kernel p.

    Solves the Poisson equation (I - P) g = f - pi(f) on the complement of
    constants and returns 2 <fbar, g>_pi - Var_pi(f).  Requires an ergodic
    kernel: a unit spectral gap smaller than 1e-12 is an error, smaller than
    1e-8 earns an ill-conditioning warning.
    """
    p = np.asarray(p, dtype=float)
    pi = np.asarray(pi, dtype=float)
    f_values = np.asarray(f_values, dtype=float)
    m = p.shape[0]
    eigmod = np.sort(np.abs(np.linalg.eigvals(p)))
    gap = 1.0 - eigmod[-2] if m > 1 else 1.0
    if gap < 1e-12:
        raise ValueError(f"kernel is not ergodic: unit spectral gap {gap:.3e}")
    if gap < 1e-8:
        warnings.warn(f"kernel is nearly non-ergodic (spectral gap {gap:.3e}); variance may be inaccurate")

    fbar = f_values - pi @ f_values
    bordered = np.zeros((m + 1, m + 1))
    bordered[:m, :m] = np.eye(m) - p
    bordered[:m, m] = 1.0
    bordered[m, :m] = pi
    rhs = np.concatenate([fbar, [0.0]])
    g = np.linalg.solve(bordered, rhs)[:m]
    var = float(pi @ fbar**2)
    return 2.0 * float(pi @ (fbar * g)) - var


def battery_functions(grid: Grid1D) -> dict[str, np.ndarray]:
    """The fixed test-function battery evaluated on the grid."""
    x = grid.points
    return {
        "identity": x,
        "square": x**2,
        "tail_indicator_q90": (x > grid.quantile(0.9)).astype(float),
    }


def check_peskun(
    marginal_kind: SamplerKind | str,
    auxiliary_kind: SamplerKind | str,
    delta: float,
    target: OracleTarget1D,
    grid: Grid1D,
    f_values: np.ndarray,
) -> tuple[float, float]:
    """Asymptotic variances (marginal, auxiliary) at a common step size."""
    p_marginal = build_kernel_matrix(marginal_kind, delta, target, grid)
    p_auxiliary = build_kernel_matrix(auxiliary_kind, delta, target, grid)
    return (
        asymptotic_variance(p_marginal, grid.pi, f_values),
        asymptotic_variance(p_auxiliary, grid.pi, f_values),
    )


def make_oracle_grid(target: OracleTarget1D, m: int = DEFAULT_GRID_POINTS) -> Grid1D:
    """Two-pass grid construction: locate the posterior, then cover +-8 sd."""
    span = 12.0 * max(1.0, math.sqrt(target.gamma))
    rough = discretize_target(target.log_density, (-span, span), m=m)
    mu, sd = rough.mean(), math.sqrt(rough.variance())
    return discretize_target(target.log_density, (mu - 8.0 * sd, mu + 8.0 * sd), m=m)


def exact_gaussian_posterior(
    prior: SpectralPrior, sigma2: float, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact posterior for y ~ N(x, sigma2 I), x ~ N(0, C).

    Returns (mean, posterior eigenvalues in the prior's basis): eigenvalue
    gamma maps to gamma sigma2 / (gamma + sigma2) and the mean is
    U diag(gamma/(gamma+sigma2)) U^T y.  Valid for singular C.
    """
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2!r}")
    gamma = prior.eigenvalues
    shrink = gamma / (gamma + sigma2)
    mean = prior.basis @ (shrink * (prior.basis.T @ y))
    return mean, gamma * sigma2 / (gamma + sigma2)


def posterior_coordinate_moments(
    prior: SpectralPrior, sigma2: float, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and per-coordinate marginal variances in the original basis."""
    mean, post_eigs = exact_gaussian_posterior(prior, sigma2, y)
    coord_var = (prior.basis**2) @ post_eigs
    return mean, coord_var


def generalized_marginal_proposal(
    s_matrix: np.ndarray,
    c_matrix: np.ndarray,
    delta: float,
    x: np.ndarray,
    grad: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Dense preconditioned marginal proposal moments.

    With B = ((2/delta) S^{-1} + C^{-1})^{-1}:
      mean = (2/delta) B S^{-1} (x + (delta/2) S grad)
      cov  = (2/delta) B S^{-1} B + B
    S = I reproduces the marginal gradient kernel, S = C the pCNL kernel.
    Dense small-n oracle only; S and C must be invertible.
    """
    s_matrix = np.asarray(s_matrix, dtype=float)
    c_matrix = np.asarray(c_matrix, dtype=float)
    try:
        s_inv = np.linalg.inv(s_matrix)
        c_inv = np.linalg.inv(c_matrix)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"preconditioner or covariance is singular: {exc}") from exc
    b = np.linalg.inv((2.0 / delta) * s_inv + c_inv)
    mean = (2.0 / delta) * b @ s_inv @ (x + 0.5 * delta * s_matrix @ grad)
    cov = (2.0 / delta) * b @ s_inv @ b + b
    return mean, cov


def dense_gaussian_logpdf(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    """Dense multivariate normal log-density (oracle helper)."""
    diff = x - mean
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise ValueError("covariance is not positive definite")
    return -0.5 * (len(x) * math.log(2.0 * math.pi) + logdet + diff @ np.linalg.solve(cov, diff))


def reversibility_residual(
    c_matrix: np.ndarray,
    proposal_mean: Callable[[np.ndarray], np.ndarray],
    proposal_cov: np.ndarray,
    rng: np.random.Generator,
    n_pairs: int = 100,
) -> float:
    """Max over random pairs of |log pi(x) q(y|x) - log pi(y) q(x|y)|.

    pi here is the prior N(0, C); a zero residual certifies the proposal is
    reversible with respect to the prior.
    """
    n = c_matrix.shape[0]
    chol_scale = np.linalg.cholesky(c_matrix + 1e-12 * np.eye(n))
    worst = 0.0
    for _ in range(n_pairs):
        x = chol_scale @ rng.standard_normal(n)
        y = chol_scale @ rng.standard_normal(n)
        fwd = dense_gaussian_logpdf(x, np.zeros(n), c_matrix) + dense_gaussian_logpdf(
            y, proposal_mean(x), proposal_cov
        )
        bwd = dense_gaussian_logpdf(y, np.zeros(n), c_matrix) + dense_gaussian_logpdf(
            x, proposal_mean(y), proposal_cov
        )
        worst = max(worst, abs(fwd - bwd))
    return worst


@dataclass(frozen=True)
class ValidationCheck:
    """One pass/fail line of the validation suite."""

    name: str
    passed: bool
    residual: float
    tolerance: float

    def describe(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: residual {self.residual:.3e} (tol {self.tolerance:.1e})"


def run_validation_suite(
    grid_points: int = DEFAULT_GRID_POINTS,
    aux_points: int = DEFAULT_AUX_POINTS,
    rng: np.random.Generator | None = None,
) -> list[ValidationCheck]:
    """Full battery of discretized-kernel and dense-oracle checks.

    Covers, for a conjugate Gaussian target and a logistic target:
    stationarity and detailed balance of all six kernel matrices, the
    marginal-beats-auxiliary variance ordering over the standard battery,
    auxiliary-quadrature convergence, the shrinkage identities, the exact
    posterior oracle, the preconditioned-proposal reductions, and the
    symmetric-conjugation reversibility scan.
    """
    rng = rng or np.random.default_rng(20260819)
    checks: list[ValidationCheck] = []
    targets = {
        "gaussian": gaussian_likelihood_target(gamma=1.0, y=1.0, sigma2=0.5),
        "logistic": logistic_target(gamma=1.0, label=1),
    }
    kernel_kinds = (
        SamplerKind.AGRAD_Z,
        SamplerKind.AGRAD_U,
        SamplerKind.MGRAD,
        SamplerKind.PCN,
        SamplerKind.PCNL,
        SamplerKind.PMALA,
    )

    for tname, target in targets.items():
        grid = make_oracle_grid(target, m=grid_points)
        kernels: dict[SamplerKind, np.ndarray] = {}
        for kind in kernel_kinds:
            p = build_kernel_matrix(kind, 1.0, target, grid, aux_points=aux_points)
            kernels[kind] = p
            r_stat = stationarity_residual(grid, p)
            checks.append(
                ValidationCheck(f"stationarity[{tname},{kind.value}]", r_stat <= STATIONARITY_TOL, r_stat, STATIONARITY_TOL)
            )
            r_db = detailed_balance_residual(grid, p)
            checks.append(
                ValidationCheck(f"detailed-balance[{tname},{kind.value}]", r_db <= DETAILED_BALANCE_TOL, r_db, DETAILED_BALANCE_TOL)
            )

        battery = battery_functions(grid)
        for delta in (0.5, 1.0, 2.0):
            if delta == 1.0:
                p_marg = kernels[SamplerKind.MGRAD]
            else:
                p_marg = build_kernel_matrix(SamplerKind.MGRAD, delta, target, grid, aux_points=aux_points)
            for aux_kind in (SamplerKind.AGRAD_Z, SamplerKind.AGRAD_U):
                if delta == 1.0:
                    p_aux = kernels[aux_kind]
                else:
                    p_aux = build_kernel_matrix(aux_kind, delta, target, grid, aux_points=aux_points)
                for fname, f_values in battery.items():
                    v_marg = asymptotic_variance(p_marg, grid.pi, f_values)
                    v_aux = asymptotic_variance(p_aux, grid.pi, f_values)
                    margin = v_aux - v_marg
                    checks.append(
                        ValidationCheck(
                            f"variance-ordering[{tname},mgrad<={aux_kind.value},delta={delta},{fname}]",
                            margin >= -PESKUN_TOL * max(1.0, abs(v_aux)),
                            float(min(margin, 0.0)),
                            PESKUN_TOL,
                        )
                    )

        p_fine = build_kernel_matrix(SamplerKind.AGRAD_U, 1.0, target, grid, aux_points=2 * aux_points)
        drift = float(np.abs(kernels[SamplerKind.AGRAD_U] - p_fine).max())
        checks.append(ValidationCheck(f"aux-quadrature-convergence[{tname}]", drift <= 1e-6, drift, 1e-6))

    # shrinkage identities on a log-spaced step grid: the closed forms agree
    # with the operator diagonals and the marginal map obeys its min bound
    gamma = np.array([2.0, 1.0, 0.25, 0.0])
    worst = 0.0
    for delta in np.geomspace(1e-4, 1e4, 41):
        maps = shrinkage_maps(gamma, delta, sigma2=1.0)
        a = gamma * delta / (delta + 2.0 * gamma)
        worst = max(worst, float(np.abs(maps.marginal - ((2.0 / delta) * a * a + a)).max()))
        worst = max(
            worst,
            float(np.abs(maps.pcnl - delta * (delta + 4.0) / (delta + 2.0) ** 2 * gamma).max()),
        )
        worst = max(worst, float(np.maximum(maps.marginal - np.minimum(gamma, delta), 0.0).max()))
    checks.append(ValidationCheck("shrinkage-identities", worst <= 1e-10, worst, 1e-10))

    # exact posterior oracle against a dense solve
    n = 6
    raw = rng.standard_normal((n, n))
    cov = raw @ raw.T + 0.5 * np.eye(n)
    prior = eigendecompose_covariance(cov)
    y = rng.standard_normal(n)
    sigma2 = 0.7
    mean, coord_var = posterior_coordinate_moments(prior, sigma2, y)
    dense_cov = np.linalg.inv(np.linalg.inv(cov) + np.eye(n) / sigma2)
    dense_mean = dense_cov @ y / sigma2
    r_post = max(
        float(np.abs(mean - dense_mean).max()),
        float(np.abs(coord_var - np.diag(dense_cov)).max()),
    )
    checks.append(ValidationCheck("exact-posterior", r_post <= 1e-8, r_post, 1e-8))

    # preconditioned proposal: S = I reduces to the marginal kernel moments
    delta = 0.8
    x = rng.standard_normal(n)
    grad = rng.standard_normal(n)
    mean_gen, cov_gen = generalized_marginal_proposal(np.eye(n), cov, delta, x, grad)
    a_dense = np.linalg.inv(np.linalg.inv(cov) + (2.0 / delta) * np.eye(n))
    mean_marg = (2.0 / delta) * a_dense @ (x + 0.5 * delta * grad)
    cov_marg = (2.0 / delta) * a_dense @ a_dense + a_dense
    r_marg = max(float(np.abs(mean_gen - mean_marg).max()), float(np.abs(cov_gen - cov_marg).max()))
    checks.append(ValidationCheck("preconditioner-identity-reduction", r_marg <= 1e-8, r_marg, 1e-8))

    # preconditioned proposal: S = C reduces to the pCNL proposal moments
    mean_gen, cov_gen = generalized_marginal_proposal(cov, cov, delta, x, grad)
    rho = 2.0 / (2.0 + delta)
    mean_pcnl = rho * x + (delta / (2.0 + delta)) * cov @ grad
    cov_pcnl = (delta * (delta + 4.0) / (2.0 + delta) ** 2) * cov
    r_pcnl = max(float(np.abs(mean_gen - mean_pcnl).max()), float(np.abs(cov_gen - cov_pcnl).max()))
    checks.append(ValidationCheck("preconditioner-covariance-reduction", r_pcnl <= 1e-8, r_pcnl, 1e-8))

    # symmetric-conjugation reversibility scan
    f_raw = rng.standard_normal((n, n))
    f_sym = 0.45 * (f_raw + f_raw.T) / np.abs(np.linalg.eigvalsh(f_raw + f_raw.T)).max()
    r_rev = symmetric_conjugation_residual(cov, f_sym, rng, n_pairs=50)
    checks.append(ValidationCheck("conjugation-reversibility", r_rev <= 1e-8, r_rev, 1e-8))

    # spectral-map round trip keeps the import exercised and guards the basis
    vec = rng.standard_normal(n)
    r_round = float(np.abs(prior.basis @ to_spectral(prior, vec) - vec).max())
    checks.append(ValidationCheck("spectral-round-trip", r_round <= 1e-10, r_round, 1e-10))

    return checks


def symmetric_conjugation_residual(
    c_matrix: np.ndarray, f_matrix: np.ndarray, rng: np.random.Generator, n_pairs: int = 100
) -> float:
    """Reversibility residual for the kernel N(y | G F G^{-1} x, G (I - F^2) G).

    G is the symmetric square root of C and F any symmetric matrix with
    spectral radius below one.  Reversibility with respect to N(0, C) holds
    for every such F, which this scan certifies numerically.
    """
    f_matrix = np.asarray(f_matrix, dtype=float)
    if np.abs(f_matrix - f_matrix.T).max() > 1e-12:
        raise ValueError("F must be symmetric")
    if np.abs(np.linalg.eigvalsh(f_matrix)).max() >= 1.0:
        raise ValueError("F must have spectral radius below 1")
    eigvals, eigvecs = np.linalg.eigh(np.asarray(c_matrix, dtype=float))
    if eigvals.min() <= 0:
        raise ValueError("C must be positive definite")
    g = (eigvecs * np.sqrt(eigvals)) @ eigvecs.T
    g_inv = (eigvecs / np.sqrt(eigvals)) @ eigvecs.T
    n = c_matrix.shape[0]
    transport = g @ f_matrix @ g_inv
    cov = g @ (np.eye(n) - f_matrix @ f_matrix) @ g
    cov = 0.5 * (cov + cov.T)
    return reversibility_residual(c_matrix, lambda v: transport @ v, cov, rng, n_pairs)
