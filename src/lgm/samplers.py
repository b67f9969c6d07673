"""One-step transition kernels for latent Gaussian model posteriors.

Seven kernels share the target pi(x) proportional to exp{f(x)} N(x | 0, C)
and the spectral machinery of :mod:`lgm.spectral`:

  agrad-z   auxiliary gradient sampler, noised-gradient auxiliary variable
  agrad-u   auxiliary gradient sampler, noised-state auxiliary variable
  mgrad     marginal gradient sampler (auxiliary variable integrated out)
  pcn       preconditioned Crank-Nicolson
  pcnl      preconditioned Crank-Nicolson Langevin
  pmala     preconditioned MALA (prior does not cancel in the ratio)
  ellipt    elliptical slice sampling

Each step costs a fixed number of basis matvecs, counted on the chain's
OpCounter: pcn and ellipt 1, agrad-z, mgrad, pcnl and pmala 2, agrad-u 3.
States carry exactly the caches their kernel promotes between steps, so
nothing is recomputed on acceptance, and no kernel transforms a vector whose
spectral coordinates it already holds: mGrad's proposal is the transform of
a spectral vector, and pMALA's is a x plus one, so U^T y is known without a
transform.  A spectral draw takes the leading ``prior.rank`` entries of
``rng.standard_normal(prior.dimension)``, so a range basis and a full basis
with zero eigenvalues consume the same random stream.  The gradient-free
kernels (pcn, ellipt) evaluate only f at their proposals and compute grad f
once, for the state they accept, so ``grad_x`` stays coherent for every
kernel.  On a Gaussian likelihood Ellipt scores its shrinks in O(1) with
the target's closed form on the slice ellipse (``TargetModel.on_ellipse``),
which agrees with f to rounding and is used only for slice comparisons.

The six Metropolis-Hastings kernels share one skeleton: a kernel draws y,
evaluates f there once and guards its log-ratio with ``_guarded_ratio``;
``metropolis_step`` accepts or rejects, counts the step, and promotes y with
the caches the kernel names through ``_promote``, which Ellipt's slice point
also takes.  Each cache has one definition, shared by ``init_chain_state``
and the accept path.  Every kernel is looked up in ``_STEP_FUNCS``.

The target reads the prior's observed cells of a state, ``prior.observed(x)``,
and its gradient is lifted back to the latent field with ``prior.embed``.  On
a dense prior both are the identity; on a torus the likelihood sees the s^2
grid cells and never the 3 s^2 padding cells.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .spectral import (
    DeltaOperators,
    OpCounter,
    SpectralPrior,
    build_delta_operators,
    from_spectral,
    prior_quad_form,
    to_spectral,
)
from .targets import TargetModel

logger = logging.getLogger(__name__)

MAX_SLICE_SHRINKS = 100


class SamplerKind(str, Enum):
    AGRAD_Z = "agrad-z"
    AGRAD_U = "agrad-u"
    MGRAD = "mgrad"
    PCN = "pcn"
    PCNL = "pcnl"
    PMALA = "pmala"
    ELLIPT = "ellipt"


DISPLAY_NAMES = {
    SamplerKind.AGRAD_Z: "aGrad-z",
    SamplerKind.AGRAD_U: "aGrad-u",
    SamplerKind.MGRAD: "mGrad",
    SamplerKind.PCN: "pCN",
    SamplerKind.PCNL: "pCNL",
    SamplerKind.PMALA: "pMALA",
    SamplerKind.ELLIPT: "Ellipt",
}

# Kernels whose proposals use grad f; they share the 0.55 acceptance target.
GRADIENT_KINDS = frozenset(
    {SamplerKind.AGRAD_Z, SamplerKind.AGRAD_U, SamplerKind.MGRAD, SamplerKind.PCNL, SamplerKind.PMALA}
)

# Basis matvecs consumed by one transition, per kernel.
MATVEC_BUDGET = {
    SamplerKind.AGRAD_Z: 2,
    SamplerKind.AGRAD_U: 3,
    SamplerKind.MGRAD: 2,
    SamplerKind.PCN: 1,
    SamplerKind.PCNL: 2,
    SamplerKind.PMALA: 2,
    SamplerKind.ELLIPT: 1,
}


@dataclass
class ChainState:
    """Current position plus the caches its kernel keeps coherent.

    ``ux`` and ``ugrad_x`` are spectral coordinates of x and grad f(x);
    ``prop_mean_spec`` and ``ratio_anchor_spec`` are the two precomputed
    spectral vectors of the marginal kernel (its proposal mean and the
    anchor appearing in its acceptance ratio).  ``gamma_ugrad_x`` is
    diag(gamma) U^T grad f(x) and ``grad_quad_x`` is grad f(x)^T C grad f(x)
    (pCNL); ``prior_quad_x`` is x^T C^+ x (pMALA).  Spectral vectors have
    ``prior.rank`` entries.  Only the caches a kernel needs are populated;
    the rest stay None.  ``likelihood_evals`` counts evaluations of f at
    proposed points (one per MH step, one per slice shrink that calls
    ``log_likelihood``); neither the gradient pass for a state accepted by
    pCN or Ellipt nor a slice shrink scored by the target's O(1)
    ``on_ellipse`` form is counted.  ``grad_x`` is the lifted gradient: zero
    on cells the target does not observe.
    """

    x: np.ndarray
    f_x: float
    grad_x: np.ndarray
    ux: np.ndarray | None = None
    ugrad_x: np.ndarray | None = None
    prop_mean_spec: np.ndarray | None = None
    ratio_anchor_spec: np.ndarray | None = None
    gamma_ugrad_x: np.ndarray | None = None
    grad_quad_x: float | None = None
    prior_quad_x: float | None = None
    accept_count: int = 0
    step_count: int = 0
    likelihood_evals: int = 0
    counter: OpCounter = field(default_factory=OpCounter)

    @property
    def acceptance_rate(self) -> float:
        return self.accept_count / self.step_count if self.step_count else 0.0


@dataclass(frozen=True)
class StepResult:
    accepted: bool
    proposal: np.ndarray
    log_ratio: float


def mh_accept(log_ratio: float, rng: np.random.Generator) -> bool:
    """Accept with probability min(1, exp(log_ratio)).

    Compares against a log-uniform draw (one Exp(1) variate), so ratios far
    below underflow still behave correctly.  NaN and +inf ratios signal a
    broken proposal and are rejected with a diagnostic; they must never be
    silently accepted.
    """
    if math.isnan(log_ratio) or log_ratio == math.inf:
        logger.warning("rejecting proposal with non-finite MH log-ratio %r", log_ratio)
        return False
    return -rng.exponential() < log_ratio


def _spectral_noise(prior: SpectralPrior, rng: np.random.Generator) -> np.ndarray:
    """prior.rank standard normals: the leading entries of a prior.dimension-long draw."""
    return rng.standard_normal(prior.dimension)[: prior.rank]


def _lifted_evaluate(prior: SpectralPrior, target: TargetModel, x: np.ndarray) -> tuple[float, np.ndarray]:
    """(f, grad f) of the field x: the target reads x's observed cells, and grad f is lifted back to the field."""
    f, grad = target.evaluate(prior.observed(x))
    return f, prior.embed(grad)


def init_chain_state(
    kind: SamplerKind,
    x0: np.ndarray,
    prior: SpectralPrior,
    ops: DeltaOperators | None,
    target: TargetModel,
) -> ChainState:
    """Evaluate the target at x0 and populate the caches ``kind`` maintains."""
    kind = SamplerKind(kind)
    x0 = np.array(x0, dtype=float, copy=True)
    if x0.shape != (prior.dimension,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({prior.dimension},)")
    f0, g0 = _lifted_evaluate(prior, target, x0)
    if not np.isfinite(f0):
        raise ValueError(f"initial state has non-finite log-likelihood {f0!r}")
    state = ChainState(x=x0, f_x=f0, grad_x=g0, likelihood_evals=1)
    if kind in (SamplerKind.AGRAD_U, SamplerKind.PCNL):
        state.ugrad_x = to_spectral(prior, g0, state.counter)
        if kind is SamplerKind.PCNL:
            state.gamma_ugrad_x, state.grad_quad_x = _pcnl_gradient_terms(prior, state.ugrad_x)
    elif kind in (SamplerKind.MGRAD, SamplerKind.PMALA):
        state.ux = to_spectral(prior, x0, state.counter)
        state.ugrad_x = to_spectral(prior, g0, state.counter)
        if kind is SamplerKind.MGRAD:
            state.prop_mean_spec = _mgrad_proposal_mean(ops, state.ux, state.ugrad_x)
            state.ratio_anchor_spec = _mgrad_ratio_anchor(ops, state.ux, state.ugrad_x)
        else:
            state.prior_quad_x = prior_quad_form(prior, x0, state.ux, state.counter)
    return state


# Kernel caches, each written once for init_chain_state and the accept path;
# Chain.set_delta also rebuilds mGrad's two from the new operators.
def _mgrad_proposal_mean(ops: DeltaOperators, u: np.ndarray, ugrad: np.ndarray) -> np.ndarray:
    return ops.aux_var * ((2.0 / ops.delta) * u + ugrad)


def _mgrad_ratio_anchor(ops: DeltaOperators, u: np.ndarray, ugrad: np.ndarray) -> np.ndarray:
    return ops.aux_var * ((2.0 / ops.delta) * u + 0.5 * ugrad)


def _pcnl_gradient_terms(prior: SpectralPrior, ugrad: np.ndarray) -> tuple[np.ndarray, float]:
    """(diag(gamma) U^T grad f, grad f^T C grad f) from the spectral gradient."""
    gamma_ugrad = prior.eigenvalues * ugrad
    return gamma_ugrad, float(ugrad @ gamma_ugrad)


def _guarded_ratio(f_y: float, grad_y: np.ndarray | None, extra: float) -> float:
    """Assemble a log-ratio, mapping any non-finite ingredient to -inf."""
    if not math.isfinite(f_y) or not math.isfinite(extra) or (grad_y is not None and not np.isfinite(grad_y).all()):
        return -math.inf
    return f_y + extra


def metropolis_step(
    state: ChainState, prior: SpectralPrior, target: TargetModel, rng: np.random.Generator,
    y: np.ndarray, f_y: float, grad_y: np.ndarray | None, log_ratio: float, caches: dict | None = None,
) -> StepResult:
    """Accept or reject the proposal y, whose f the kernel evaluated once; every MH kernel ends here.

    ``log_ratio`` is the guarded log acceptance ratio.  A value-only proposal
    passes ``grad_y=None``: grad f is evaluated for an accepted y alone, which
    is still rejected if that gradient is not finite.  On acceptance the state
    moves to y with the kernel's ``caches``: ChainState fields by name.
    """
    state.likelihood_evals += 1
    accepted = mh_accept(log_ratio, rng)
    if accepted and grad_y is None:
        grad_y = _lifted_evaluate(prior, target, y)[1]
        accepted = bool(np.isfinite(grad_y).all())
    if accepted:
        _promote(state, y, f_y, grad_y, caches)
    state.step_count += 1
    return StepResult(accepted, y, log_ratio)


def _promote(state: ChainState, y: np.ndarray, f_y: float, grad_y: np.ndarray, caches: dict | None) -> None:
    """Move the state to an accepted y: its f, grad f and the kernel's caches."""
    state.x, state.f_x, state.grad_x = y, f_y, grad_y
    if caches:
        vars(state).update(caches)
    state.accept_count += 1


def _aux_grad_g_term(z: np.ndarray, v: np.ndarray, grad_v: np.ndarray, delta: float) -> float:
    # g(z, v) = (z - v - (delta/4) grad f(v))^T grad f(v)
    return float((z - v - 0.25 * delta * grad_v) @ grad_v)


def draw_noised_gradient_aux(state: ChainState, delta: float, rng: np.random.Generator) -> np.ndarray:
    """Draw z ~ N(x + (delta/2) grad f(x), (delta/2) I)."""
    noise = rng.standard_normal(state.x.shape[0])
    return state.x + 0.5 * delta * state.grad_x + math.sqrt(0.5 * delta) * noise


def propose_given_noised_gradient_aux(
    state: ChainState,
    prior: SpectralPrior,
    ops: DeltaOperators,
    target: TargetModel,
    rng: np.random.Generator,
    z: np.ndarray,
) -> tuple[np.ndarray, float, np.ndarray, float]:
    """Propose y | z and return (y, f_y, grad_y, latent log-ratio).

    The proposal is N((2/delta) A z, A) realized spectrally; the log-ratio
    term is f(y) - f(x) + g(z,y) - g(z,x), which is the complete acceptance
    ratio when the prior covariance is held fixed.  Costs 2 matvecs.
    """
    delta = ops.delta
    uz = to_spectral(prior, (2.0 / delta) * z, state.counter)
    eta = _spectral_noise(prior, rng)
    sq = ops.sqrt_aux_var
    y = from_spectral(prior, sq * (sq * uz + eta), state.counter)
    f_y, grad_y = _lifted_evaluate(prior, target, y)
    extra = -state.f_x + _aux_grad_g_term(z, y, grad_y, delta) - _aux_grad_g_term(z, state.x, state.grad_x, delta)
    return y, f_y, grad_y, _guarded_ratio(f_y, grad_y, extra)


def step_agrad_z(
    state: ChainState,
    prior: SpectralPrior,
    ops: DeltaOperators,
    target: TargetModel,
    rng: np.random.Generator,
) -> StepResult:
    """Auxiliary gradient step with the auxiliary variable z = x + (delta/2) grad + noise.

    Draw z, propose y ~ N((2/delta) A z, A), accept with
    exp{f(y) - f(x) + g(z,y) - g(z,x)}.  2 matvecs; promotes x, f, grad.
    """
    z = draw_noised_gradient_aux(state, ops.delta, rng)
    y, f_y, grad_y, log_ratio = propose_given_noised_gradient_aux(state, prior, ops, target, rng, z)
    return metropolis_step(state, prior, target, rng, y, f_y, grad_y, log_ratio)


def step_agrad_u(
    state: ChainState,
    prior: SpectralPrior,
    ops: DeltaOperators,
    target: TargetModel,
    rng: np.random.Generator,
) -> StepResult:
    """Auxiliary gradient step with the noised-state auxiliary u = x + noise.

    Propose y ~ N((2/delta) A (u + (delta/2) grad f(x)), A); accept with
    exp{f(y) - f(x) + j(x,y,u) - j(y,x,u)} where
    j(x,y,u) = (x - (2/delta) A (u + (delta/4) grad f(y)))^T grad f(y).
    3 matvecs; promotes x, f, grad and the spectral gradient.
    """
    delta = ops.delta
    noise = rng.standard_normal(prior.dimension)
    u = state.x + math.sqrt(0.5 * delta) * noise
    uu = to_spectral(prior, (2.0 / delta) * u, state.counter)

    eta = _spectral_noise(prior, rng)
    y = from_spectral(prior, ops.aux_var * (uu + state.ugrad_x) + ops.sqrt_aux_var * eta, state.counter)
    f_y, grad_y = _lifted_evaluate(prior, target, y)
    ugrad_y = to_spectral(prior, grad_y, state.counter)

    j_fwd = float(state.x @ grad_y) - float((ops.aux_var * (uu + 0.5 * ugrad_y)) @ ugrad_y)
    j_bwd = float(y @ state.grad_x) - float((ops.aux_var * (uu + 0.5 * state.ugrad_x)) @ state.ugrad_x)
    log_ratio = _guarded_ratio(f_y, grad_y, -state.f_x + j_fwd - j_bwd)
    return metropolis_step(state, prior, target, rng, y, f_y, grad_y, log_ratio, {"ugrad_x": ugrad_y})


def step_mgrad(
    state: ChainState,
    prior: SpectralPrior,
    ops: DeltaOperators,
    target: TargetModel,
    rng: np.random.Generator,
) -> StepResult:
    """Marginal gradient step: the auxiliary variable is integrated out.

    Propose y ~ N((2/delta) A (x + (delta/2) grad f(x)), (2/delta) A^2 + A)
    from the cached spectral mean; accept with
    exp{f(y) - f(x) + h(x,y) - h(y,x)} where, spectrally,
    h(x,y) = (ux - anchor(y))^T (ratio_weight * ugrad_y).  The spectral
    proposal uy is drawn first and y = U uy, so U^T y is uy itself.
    2 matvecs; promotes everything including the two cached vectors, the
    proposal mean only once y is accepted.
    """
    uy = state.prop_mean_spec + ops.sqrt_marginal_var * _spectral_noise(prior, rng)
    y = from_spectral(prior, uy, state.counter)
    f_y, grad_y = _lifted_evaluate(prior, target, y)
    ugrad_y = to_spectral(prior, grad_y, state.counter)

    anchor_y = _mgrad_ratio_anchor(ops, uy, ugrad_y)
    h_fwd = float((state.ux - anchor_y) @ (ops.ratio_weight * ugrad_y))
    h_bwd = float((uy - state.ratio_anchor_spec) @ (ops.ratio_weight * state.ugrad_x))
    log_ratio = _guarded_ratio(f_y, grad_y, -state.f_x + h_fwd - h_bwd)
    caches = {"ux": uy, "ugrad_x": ugrad_y, "ratio_anchor_spec": anchor_y}
    result = metropolis_step(state, prior, target, rng, y, f_y, grad_y, log_ratio, caches)
    if result.accepted:
        state.prop_mean_spec = _mgrad_proposal_mean(ops, uy, ugrad_y)
    return result


def step_pcn(
    state: ChainState,
    prior: SpectralPrior,
    ops: DeltaOperators,
    target: TargetModel,
    rng: np.random.Generator,
) -> StepResult:
    """Preconditioned Crank-Nicolson step.

    y = (2/(2+delta)) x + (sqrt(delta(delta+4))/(2+delta)) N(0, C); the
    proposal is reversible with respect to the prior, so the acceptance
    ratio is exp{f(y) - f(x)}.  Only f is evaluated at the proposal; grad f
    is computed for an accepted y alone, which is then still rejected if
    that gradient is non-finite.  1 matvec.
    """
    delta = ops.delta
    eta = _spectral_noise(prior, rng)
    shift = from_spectral(prior, prior.sqrt_eigenvalues * eta, state.counter)
    y = (2.0 / (2.0 + delta)) * state.x + (math.sqrt(delta * (delta + 4.0)) / (2.0 + delta)) * shift
    f_y = target.log_likelihood(prior.observed(y))
    return metropolis_step(state, prior, target, rng, y, f_y, None, _guarded_ratio(f_y, None, -state.f_x))


def step_pcnl(
    state: ChainState,
    prior: SpectralPrior,
    ops: DeltaOperators,
    target: TargetModel,
    rng: np.random.Generator,
) -> StepResult:
    """Preconditioned Crank-Nicolson Langevin step.

    Proposal N((2/(2+delta)) x + (delta/(2+delta)) C grad f(x),
    delta(delta+4)/(2+delta)^2 C); acceptance ratio
    exp{f(y) - f(x) + k(x,y) - k(y,x)} with

      k(x,y) = (2+delta)/(4+delta) (x - (2/(2+delta)) y)^T grad f(y)
               - delta/(2(delta+4)) grad f(y)^T C grad f(y).

    2 matvecs; promotes x, f, grad, the spectral gradient and the two
    gamma-weighted gradient terms.
    """
    delta = ops.delta
    rho = 2.0 / (2.0 + delta)
    eta = _spectral_noise(prior, rng)
    drift_and_noise = (delta / (2.0 + delta)) * state.gamma_ugrad_x + (
        math.sqrt(delta * (delta + 4.0)) / (2.0 + delta)
    ) * (prior.sqrt_eigenvalues * eta)
    y = rho * state.x + from_spectral(prior, drift_and_noise, state.counter)
    f_y, grad_y = _lifted_evaluate(prior, target, y)
    ugrad_y = to_spectral(prior, grad_y, state.counter)
    gamma_ugrad_y, grad_quad_y = _pcnl_gradient_terms(prior, ugrad_y)

    c_lin = (2.0 + delta) / (4.0 + delta)
    c_quad = delta / (2.0 * (delta + 4.0))
    k_fwd = c_lin * float((state.x - rho * y) @ grad_y) - c_quad * grad_quad_y
    k_bwd = c_lin * float((y - rho * state.x) @ state.grad_x) - c_quad * state.grad_quad_x
    log_ratio = _guarded_ratio(f_y, grad_y, -state.f_x + k_fwd - k_bwd)
    caches = {"ugrad_x": ugrad_y, "gamma_ugrad_x": gamma_ugrad_y, "grad_quad_x": grad_quad_y}
    return metropolis_step(state, prior, target, rng, y, f_y, grad_y, log_ratio, caches)


def step_pmala(
    state: ChainState,
    prior: SpectralPrior,
    ops: DeltaOperators,
    target: TargetModel,
    rng: np.random.Generator,
) -> StepResult:
    """Preconditioned MALA step.

    Proposal N((1 - delta/2) x + (delta/2) C grad f(x), delta C).  The prior
    does not cancel here, so the full ratio carries the prior quadratic
    forms, computed with the pseudo-inverse eigenvalues, which skip null
    directions.  Any delta > 0 is accepted; the drift is a contraction only
    for delta < 2, which covers every tuned value seen in practice.  The
    proposal is y = a x + U w with a spectral w, so U^T y = a U^T x + w
    needs no transform, and y stays on the prior's range.  A state with
    mass off the range is an error, checked once, when the chain starts,
    with one counted matvec if the prior has null directions; the current
    state's prior quadratic form is carried on the state.
    2 matvecs.
    """
    delta = ops.delta
    gamma = prior.eigenvalues
    pinv = prior.pinv_eigenvalues
    a = 1.0 - 0.5 * delta
    noise = math.sqrt(delta) * (prior.sqrt_eigenvalues * _spectral_noise(prior, rng))
    drift_and_noise = 0.5 * delta * (gamma * state.ugrad_x) + noise
    uy = a * state.ux + drift_and_noise
    y = a * state.x + from_spectral(prior, drift_and_noise, state.counter)
    f_y, grad_y = _lifted_evaluate(prior, target, y)
    ugrad_y = to_spectral(prior, grad_y, state.counter)

    prior_quad_y = float((uy * uy) @ pinv)
    prior_term = -0.5 * (prior_quad_y - state.prior_quad_x)
    # The forward residual y - E[y | x] is the noise itself.
    bwd = state.ux - a * uy - 0.5 * delta * (gamma * ugrad_y)
    proposal_term = -(float((bwd * bwd) @ pinv) - float((noise * noise) @ pinv)) / (2.0 * delta)
    log_ratio = _guarded_ratio(f_y, grad_y, -state.f_x + prior_term + proposal_term)
    caches = {"ux": uy, "ugrad_x": ugrad_y, "prior_quad_x": prior_quad_y}
    return metropolis_step(state, prior, target, rng, y, f_y, grad_y, log_ratio, caches)


def step_ellipt(
    state: ChainState,
    prior: SpectralPrior,
    ops: DeltaOperators | None,
    target: TargetModel,
    rng: np.random.Generator,
) -> StepResult:
    """Elliptical slice sampling step.

    Draw nu ~ N(0, C) (1 matvec) and a log-height below f(x), then shrink an
    angle bracket [theta - 2pi, theta] toward zero until
    f(x cos theta + nu sin theta) exceeds the height.  Never rejects.

    Where the target has a closed form on the ellipse
    (``target.on_ellipse``), each angle is scored by it in O(1), with no
    candidate vector and no likelihood pass.  That form agrees with
    ``log_likelihood`` to rounding and decides slice membership only.
    Otherwise each angle builds a candidate on the observed cells alone,
    since f reads nothing else, and evaluates f alone; these evaluations
    are variable in number and counted on the state.  Either way a point on
    the slice is built once and takes f and grad f from one ``evaluate``;
    it counts as off the slice and the bracket shrinks on if that gradient
    is not finite, as pCN rejects such a point.  The full field is built
    once, for the accepted point.  A step that fails to terminate within
    100 shrinks keeps the current state and logs a warning (unreachable for
    continuous f).  Has no step size: ``ops`` is unused.
    """
    eta = _spectral_noise(prior, rng)
    nu = from_spectral(prior, prior.sqrt_eigenvalues * eta, state.counter)
    log_height = state.f_x - rng.exponential()
    x_obs = prior.observed(state.x)
    nu_obs = prior.observed(nu)
    on_ellipse = target.on_ellipse(x_obs, nu_obs)

    # Angles are drawn as lo + (hi - lo) * U: the exact arithmetic of
    # rng.uniform(lo, hi), without its call overhead.
    theta = 2.0 * math.pi * rng.random()
    lo, hi = theta - 2.0 * math.pi, theta
    for _ in range(MAX_SLICE_SHRINKS):
        cos, sin = math.cos(theta), math.sin(theta)
        if on_ellipse is None:
            candidate = x_obs * cos + nu_obs * sin
            f_c = target.log_likelihood(candidate)
            state.likelihood_evals += 1
        else:
            candidate, f_c = None, on_ellipse(cos, sin)
        if math.isfinite(f_c) and f_c > log_height:
            if candidate is None:
                candidate = x_obs * cos + nu_obs * sin
            f_c, grad_c = target.evaluate(candidate)
            if np.isfinite(grad_c).all():
                # A dense prior observes every cell: the candidate is the field.
                x_new = candidate if x_obs is state.x else state.x * cos + nu * sin
                _promote(state, x_new, f_c, prior.embed(grad_c), None)
                state.step_count += 1
                return StepResult(True, x_new, 0.0)
        if theta < 0.0:
            lo = theta
        else:
            hi = theta
        theta = lo + (hi - lo) * rng.random()
    logger.warning("elliptical slice bracket failed to shrink within %d evaluations; keeping state", MAX_SLICE_SHRINKS)
    state.step_count += 1
    return StepResult(False, state.x.copy(), 0.0)


_STEP_FUNCS = {
    SamplerKind.AGRAD_Z: step_agrad_z,
    SamplerKind.AGRAD_U: step_agrad_u,
    SamplerKind.MGRAD: step_mgrad,
    SamplerKind.PCN: step_pcn,
    SamplerKind.PCNL: step_pcnl,
    SamplerKind.PMALA: step_pmala,
    SamplerKind.ELLIPT: step_ellipt,
}

DEFAULT_INITIAL_DELTA = {
    SamplerKind.AGRAD_Z: 1.0,
    SamplerKind.AGRAD_U: 1.0,
    SamplerKind.MGRAD: 1.0,
    SamplerKind.PCN: 0.01,
    SamplerKind.PCNL: 0.01,
    SamplerKind.PMALA: 0.01,
}


class Chain:
    """A single chain: one kernel, one target, one RNG, mutable state.

    ``delta`` defaults per kernel (1.0 for the auxiliary/marginal gradient
    kernels, 0.01 for the small-step baselines); the elliptical slice kernel
    has no step size.  ``set_delta`` rebuilds the O(n) diagonal operators and
    mGrad's two cached vectors without touching the basis.  A run advances
    by ``sweep``: ``adaptation.tune_and_freeze`` burns it in and ``sample``
    collects, for this chain and for ``hyper.HyperChain`` alike.
    """

    def __init__(
        self,
        kind: SamplerKind | str,
        prior: SpectralPrior,
        target: TargetModel,
        rng: np.random.Generator,
        delta: float | None = None,
        x0: np.ndarray | None = None,
    ):
        self.kind = SamplerKind(kind)
        if target.dimension != prior.observed_dimension:
            raise ValueError(
                f"target dimension {target.dimension} does not match the prior's "
                f"{prior.observed_dimension} observed cells"
            )
        self.prior = prior
        self.target = target
        self.rng = rng
        if x0 is None:
            x0 = np.zeros(prior.dimension)
        if self.kind is SamplerKind.ELLIPT:
            self.ops = None
        else:
            if delta is None:
                delta = DEFAULT_INITIAL_DELTA[self.kind]
            self.ops = build_delta_operators(prior, delta)
        self.state = init_chain_state(self.kind, x0, prior, self.ops, target)

    @property
    def delta(self) -> float | None:
        return self.ops.delta if self.ops is not None else None

    @property
    def counter(self) -> OpCounter:
        return self.state.counter

    def set_delta(self, delta: float) -> None:
        if self.kind is SamplerKind.ELLIPT:
            return
        self.ops = build_delta_operators(self.prior, delta)
        if self.kind is SamplerKind.MGRAD:
            state = self.state
            state.prop_mean_spec = _mgrad_proposal_mean(self.ops, state.ux, state.ugrad_x)
            state.ratio_anchor_spec = _mgrad_ratio_anchor(self.ops, state.ux, state.ugrad_x)

    def step(self) -> StepResult:
        return _STEP_FUNCS[self.kind](self.state, self.prior, self.ops, self.target, self.rng)

    def sweep(self, tune: Callable[[bool], None] | None = None) -> float:
        """One transition, its acceptance passed to ``tune`` during burn-in; returns it as 0 or 1."""
        accepted = self.step().accepted
        if tune is not None:
            tune(accepted)
        return accepted

    def run(self, n_steps: int) -> int:
        """Advance n_steps transitions; return the number accepted."""
        accepted = 0
        for _ in range(n_steps):
            accepted += self.step().accepted
        return accepted

    def reset_counters(self) -> None:
        """Zero the acceptance and step counts and the operation counter, as a collect phase starts."""
        self.state.accept_count = self.state.step_count = 0
        self.counter.reset()

    def sample(self, n_samples: int, thin: int = 1) -> np.ndarray:
        """Collect n_samples states, one after every ``thin`` sweeps, each stored by ``record``."""
        if thin < 1:
            raise ValueError(f"thin must be at least 1, got {thin!r}")
        out = np.empty((n_samples, self.prior.observed_dimension))
        for i in range(n_samples):
            for _ in range(thin):
                self.sweep()
            self.record(out, i)
        return out

    def record(self, out: np.ndarray, i: int) -> None:
        """Row i of ``out`` gets the prior's observed cells of x, so a padded field never fills a buffer."""
        out[i] = self.prior.observed(self.state.x)
