"""Hyperparameter learning for latent Gaussian models.

Extends the latent samplers to posteriors over (x, theta) where the prior
covariance C(theta) depends on hyperparameters with density p(theta):

    pi(x, theta) proportional to exp{f(x)} N(x | 0, C(theta)) p(theta).

The family is the log-amplitude one, C(theta) = e^theta C0.  Every C(theta)
shares the eigenbasis of C0, so C0 is decomposed once and a proposed theta
only rescales its eigenvalues: O(n) arithmetic and no factorization.

Two moves are provided.  The joint move updates (x, theta) together: it
draws the noised-gradient auxiliary variable z at the current state, walks
theta, rescales the eigenvalues under the proposed theta, and proposes the
latent state from the auxiliary-gradient kernel under the new covariance.
Its acceptance ratio factorizes into the usual latent ratio times an
evidence ratio N(z | 0, C' + (delta/2) I) / N(z | 0, C + (delta/2) I) and
the hyperparameter prior ratio.  The Gibbs move updates theta alone by
Metropolis-Hastings against N(x | 0, C(theta)) p(theta).

With kappa = 0 the joint move skips the theta walk, the rescaling, and the
evidence terms entirely, reproducing the fixed-covariance auxiliary
gradient step bit for bit on a shared random stream.

A proposed theta costs no eigendecomposition: a joint move costs three
matvecs and a Gibbs move one, plus one for its support check when the
prior has null directions.

A ``HyperChain`` runs through the fixed chains' loops: its sweep is R latent
steps followed by one theta move, ``adaptation.tune_and_freeze`` burns it
in (delta on the latent acceptances, kappa on the theta ones) and
``Chain.sample`` records one (theta, x) sample per sweep.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .adaptation import BASELINE_TARGET_RATE, AdaptState, adapt_step
from .samplers import (
    Chain,
    SamplerKind,
    _guarded_ratio,
    draw_noised_gradient_aux,
    metropolis_step,
    mh_accept,
    propose_given_noised_gradient_aux,
    step_agrad_z,
)
from .spectral import (
    DeltaOperators,
    OpCounter,
    SpectralPrior,
    build_delta_operators,
    eigendecompose_covariance,
    prior_logdet,
    prior_quad_form,
    to_spectral,
)
from .targets import TargetModel

logger = logging.getLogger(__name__)

DEFAULT_THETA_PRIOR_VARIANCE = 100.0
DEFAULT_LATENT_STEPS_PER_MOVE = 10


@dataclass(frozen=True)
class GaussianHyperPrior:
    """Independent Gaussian prior on the hyperparameter vector."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.atleast_1d(np.asarray(self.mean, dtype=float)))
        object.__setattr__(self, "variance", np.atleast_1d(np.asarray(self.variance, dtype=float)))
        if self.mean.shape != self.variance.shape:
            raise ValueError(
                f"prior mean shape {self.mean.shape} does not match variance shape {self.variance.shape}"
            )
        if (self.variance <= 0).any():
            raise ValueError("prior variances must be positive")

    @classmethod
    def diffuse(cls, dim: int, variance: float = DEFAULT_THETA_PRIOR_VARIANCE) -> "GaussianHyperPrior":
        return cls(mean=np.zeros(dim), variance=np.full(dim, float(variance)))

    def logpdf(self, theta: np.ndarray) -> float:
        diff = np.atleast_1d(theta) - self.mean
        return float(-0.5 * np.sum(np.log(2.0 * math.pi * self.variance) + diff**2 / self.variance))


@dataclass(frozen=True)
class HyperModel:
    """The family C(theta) = e^theta[0] C0 plus the hyperparameter prior.

    ``base`` is the decomposition of C0.  Every C(theta) is built on its
    basis with rescaled eigenvalues, so no theta needs a factorization.
    """

    base: SpectralPrior
    prior: GaussianHyperPrior

    def __post_init__(self):
        if self.prior.mean.shape != (1,):
            raise ValueError(
                f"the log-amplitude family has one hyperparameter, got a prior of shape {self.prior.mean.shape}"
            )

    @classmethod
    def from_covariance(cls, cov: np.ndarray, prior: GaussianHyperPrior) -> "HyperModel":
        """Decompose the base covariance C0 once; see eigendecompose_covariance."""
        return cls(base=eigendecompose_covariance(cov), prior=prior)

    def covariance(self, theta: np.ndarray) -> SpectralPrior:
        """Decomposition of C(theta): the base basis with eigenvalues scaled by e^theta[0].

        At theta = 0 the scale is exactly 1.0, so the eigenvalues equal the
        base ones bit for bit.  A theta whose scale, or any scaled
        eigenvalue, is not finite and positive is a ValueError.
        """
        try:
            scale = math.exp(theta[0])
        except OverflowError:
            scale = math.inf
        with np.errstate(over="ignore"):  # an overflow is rejected just below
            eigenvalues = scale * self.base.eigenvalues
        if not scale > 0.0 or not np.isfinite(eigenvalues).all():
            raise ValueError(f"covariance scale e^theta = {scale:g} leaves the finite positive range")
        return dataclasses.replace(self.base, eigenvalues=eigenvalues)


def log_evidence(z: np.ndarray, prior: SpectralPrior, delta: float, counter: OpCounter | None = None) -> float:
    """log N(z | 0, C + (delta/2) I) in the prior's eigenbasis.

    This is the marginal density of the noised-gradient auxiliary variable
    under the prior, the quantity whose ratio carries all theta dependence
    of the joint move beyond the latent factor.  Costs one matvec.
    """
    return spectral_log_evidence(to_spectral(prior, z, counter), prior, delta, float(z @ z))


def spectral_log_evidence(uz: np.ndarray, prior: SpectralPrior, delta: float, z_sq: float) -> float:
    """log N(z | 0, C + (delta/2) I) from uz = U^T z and z_sq = |z|^2.

    The dimension - rank directions a range basis leaves out have variance
    delta/2, and z's squared mass on them is |z|^2 - |uz|^2.
    """
    var = prior.eigenvalues + 0.5 * delta
    total = float(np.sum(np.log(2.0 * math.pi * var) + uz**2 / var))
    dropped = prior.dimension - prior.rank
    if dropped:
        half = 0.5 * delta
        total += dropped * math.log(2.0 * math.pi * half) + (z_sq - float(uz @ uz)) / half
    return -0.5 * total


def prior_state_logpdf(
    prior: SpectralPrior, x: np.ndarray, ux: np.ndarray, counter: OpCounter | None = None
) -> float:
    """log N(x | 0, C) from the field x and ux = U^T x, -inf when x leaves the support.

    Degenerate covariances use the pseudo-density on their range; a state
    with non-negligible mass off the range (``prior_quad_form``'s support
    check) has zero density, which a Metropolis move treats as a rejection
    rather than an error.
    """
    try:
        quad = prior_quad_form(prior, x, ux, counter)
    except ValueError:
        return -math.inf
    return _range_logpdf(prior, quad)


def _range_logpdf(prior: SpectralPrior, quad: float) -> float:
    """log N(x | 0, C) on the prior's range, given quad = x^T C^+ x."""
    return -0.5 * (prior.range_eigenvalues.size * math.log(2.0 * math.pi) + prior_logdet(prior) + quad)


@dataclass(frozen=True)
class ThetaStepResult:
    """Outcome of one hyperparameter move.

    ``theta_log_ratio`` is the theta part of the log acceptance ratio: for
    the joint move the log z-evidence and hyperparameter prior ratios, added
    to the latent log-ratio; for the Gibbs move the whole log-ratio.
    """

    accepted: bool
    theta_proposal: np.ndarray
    theta_log_ratio: float


class HyperChain(Chain):
    """An agrad-z ``Chain`` over (x, theta): fixed-theta latent steps plus theta moves.

    ``mode`` selects how theta moves: "joint" proposes (x, theta) together,
    "gibbs" updates theta alone between latent steps.  ``kappa`` is the
    theta random-walk variance; zero disables theta moves (the chain then
    matches a fixed-covariance latent chain exactly).  A theta move that is
    accepted swaps ``prior`` and ``ops`` for those of the new covariance.
    One sweep is ``latent_steps_per_move`` (R) latent steps and one theta move.
    """

    def __init__(
        self,
        model: HyperModel,
        target: TargetModel,
        theta0: np.ndarray,
        rng: np.random.Generator,
        mode: str = "joint",
        delta: float = 1.0,
        kappa: float = 0.25,
        latent_steps_per_move: int = DEFAULT_LATENT_STEPS_PER_MOVE,
    ):
        if mode not in ("joint", "gibbs"):
            raise ValueError(f"mode must be 'joint' or 'gibbs', got {mode!r}")
        if kappa < 0 or not np.isfinite(kappa):
            raise ValueError(f"kappa must be finite and nonnegative, got {kappa!r}")
        if latent_steps_per_move < 1:
            raise ValueError(f"latent_steps_per_move must be at least 1, got {latent_steps_per_move!r}")
        self.model = model
        self.mode = mode
        self.kappa = float(kappa)
        self.latent_steps_per_move = latent_steps_per_move
        # kappa's burn-in controller; kappa = 0 keeps theta fixed and adapts nothing
        self.kappa_adapt = (
            AdaptState(log_delta=math.log(self.kappa), target_rate=BASELINE_TARGET_RATE) if self.kappa > 0.0 else None
        )
        self.theta = np.atleast_1d(np.array(theta0, dtype=float, copy=True))
        if self.theta.shape != self.model.prior.mean.shape:
            raise ValueError(
                f"theta0 shape {self.theta.shape} does not match prior shape {self.model.prior.mean.shape}"
            )
        super().__init__(SamplerKind.AGRAD_Z, model.covariance(self.theta), target, rng, delta)
        self.theta_accept_count = 0
        self.theta_step_count = 0
        self.theta_samples = np.empty((0, self.theta.shape[0]))

    @property
    def theta_acceptance_rate(self) -> float:
        return self.theta_accept_count / self.theta_step_count if self.theta_step_count else 0.0

    def sweep(self, tune: Callable[[bool], None] | None = None) -> float:
        """R latent steps, then one theta move; returns the share of latent steps accepted.

        ``tune``, passed during burn-in, receives each latent acceptance, and
        the theta move's acceptance then adapts kappa toward 0.25.
        """
        accepted = 0
        for _ in range(self.latent_steps_per_move):
            latent = self.latent_step()
            accepted += latent
            if tune is not None:
                tune(latent)
        theta_accepted = self.theta_step().accepted
        if tune is not None and self.kappa_adapt is not None:
            adapt_step(self.kappa_adapt, theta_accepted)
            self.kappa = self.kappa_adapt.delta
        return accepted / self.latent_steps_per_move

    def reset_counters(self) -> None:
        super().reset_counters()
        self.theta_accept_count = self.theta_step_count = 0

    def sample(self, n_samples: int, thin: int = 1) -> np.ndarray:
        """``Chain.sample``'s x samples; the theta of the same sweeps goes to ``theta_samples``."""
        self.theta_samples = np.empty((n_samples, self.theta.shape[0]))
        return super().sample(n_samples, thin)

    def record(self, out: np.ndarray, i: int) -> None:
        super().record(out, i)
        self.theta_samples[i] = self.theta

    def latent_step(self) -> bool:
        """One fixed-theta auxiliary gradient transition.

        Calls this module's ``step_agrad_z`` rather than ``Chain.step``, so
        perfbench's tracer, which wraps ``hyper.step_agrad_z``, times latent
        steps apart from theta moves.
        """
        return step_agrad_z(self.state, self.prior, self.ops, self.target, self.rng).accepted

    def theta_step(self) -> ThetaStepResult:
        """One theta move of the chain's mode, counted in ``theta_acceptance_rate``."""
        result = step_joint_x_theta(self) if self.mode == "joint" else step_gibbs_theta(self)
        self.theta_step_count += 1
        self.theta_accept_count += result.accepted
        return result


def _propose_theta(chain: HyperChain) -> tuple[np.ndarray, SpectralPrior | None, DeltaOperators | None]:
    """Random-walk theta and rescale the eigenvalues; None prior means reject.

    With kappa = 0 theta stays: no draw, and the current prior and operators.
    """
    if chain.kappa == 0.0:
        return chain.theta, chain.prior, chain.ops
    theta_prop = chain.theta + math.sqrt(chain.kappa) * chain.rng.standard_normal(chain.theta.shape[0])
    try:
        new_prior = chain.model.covariance(theta_prop)
    except ValueError as exc:
        logger.warning("rejecting hyperparameter proposal %s: %s", theta_prop, exc)
        return theta_prop, None, None
    return theta_prop, new_prior, build_delta_operators(new_prior, chain.ops.delta)


def step_joint_x_theta(chain: HyperChain) -> ThetaStepResult:
    """Propose (x, theta) together through the auxiliary variable z.

    Draw z at the current state, walk theta, rescale the eigenvalues for
    the proposed covariance (no factorization), propose the latent state
    from the auxiliary-gradient kernel under the new covariance, and accept
    both with the product of the latent ratio, the z-evidence ratio, and the
    hyperparameter prior ratio.  Costs three matvecs: two for the proposal
    and one U^T z that both evidence terms share.  With kappa = 0 the theta
    leg is skipped and the move reduces to the plain latent step on an
    identical random stream.
    """
    state = chain.state
    rng = chain.rng
    z = draw_noised_gradient_aux(state, chain.ops.delta, rng)
    theta_prop, new_prior, new_ops = _propose_theta(chain)
    if new_prior is None:
        state.step_count += 1
        return ThetaStepResult(False, theta_prop, -math.inf)
    y, f_y, grad_y, latent_ratio = propose_given_noised_gradient_aux(state, new_prior, new_ops, chain.target, rng, z)
    theta_ratio = 0.0
    if chain.kappa > 0.0:
        uz = to_spectral(chain.prior, z, chain.counter)
        z_sq = float(z @ z)
        theta_ratio = (
            spectral_log_evidence(uz, new_prior, new_ops.delta, z_sq)
            - spectral_log_evidence(uz, chain.prior, chain.ops.delta, z_sq)
            + chain.model.prior.logpdf(theta_prop)
            - chain.model.prior.logpdf(chain.theta)
        )
    log_ratio = _guarded_ratio(latent_ratio, None, theta_ratio)
    result = metropolis_step(state, new_prior, chain.target, rng, y, f_y, grad_y, log_ratio)
    if result.accepted:
        chain.theta, chain.prior, chain.ops = theta_prop, new_prior, new_ops
    return ThetaStepResult(result.accepted, theta_prop, theta_ratio)


def step_gibbs_theta(chain: HyperChain) -> ThetaStepResult:
    """Metropolis update of theta alone against N(x | 0, C(theta)) p(theta).

    The latent state never moves here.  Every C(theta) shares the basis and
    the null directions, so both densities read one U^T x and one support
    check; a state off the support gets a -inf density rather than an
    error.  Costs one matvec per proposal, and a second for the support
    check when the prior has null directions.
    """
    theta_prop, new_prior, new_ops = _propose_theta(chain)
    if new_prior is None:
        return ThetaStepResult(False, theta_prop, -math.inf)
    theta_ratio = 0.0
    if chain.kappa > 0.0:
        x = chain.state.x
        ux = to_spectral(chain.prior, x, chain.counter)
        lp_old = prior_state_logpdf(chain.prior, x, ux, chain.counter)
        lp_new = lp_old if lp_old == -math.inf else _range_logpdf(new_prior, float(ux**2 @ new_prior.pinv_eigenvalues))
        theta_ratio = (
            lp_new - lp_old + chain.model.prior.logpdf(theta_prop) - chain.model.prior.logpdf(chain.theta)
        )
    accepted = mh_accept(theta_ratio, chain.rng)
    if accepted:
        chain.theta, chain.prior, chain.ops = theta_prop, new_prior, new_ops
    return ThetaStepResult(accepted, theta_prop, theta_ratio)
