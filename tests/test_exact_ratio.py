"""Every MH kernel's log-ratio against a dense n-dimensional density calculation.

For a move x -> y the exact Metropolis-Hastings log-ratio is

    log pi(y) q(x | y) - log pi(x) q(y | x),   pi(x) proportional to exp{f(x)} N(x | 0, C),

with each proposal density q written out from its documented mean and
covariance as dense matrices, independently of the spectral algebra the
kernels use.  The auxiliary kernels are checked on the joint (x, aux, y)
balance with the auxiliary variable fixed: aGrad-u's u is rebuilt by
replaying the kernel's first standard-normal draw from a copy of the
generator, and aGrad-z's z is handed to ``propose_given_noised_gradient_aux``.
Singular priors use pseudo-densities on the prior's range.
"""

import copy
import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from lgm.samplers import (
    Chain,
    SamplerKind,
    draw_noised_gradient_aux,
    init_chain_state,
    propose_given_noised_gradient_aux,
)
from lgm.spectral import build_delta_operators, eigendecompose_covariance, from_spectral
from lgm.targets import GridKernel, PoissonCounts

from conftest import make_singular_psd, make_spd

STEPS = 25
DELTA = 0.5
RTOL = 1e-10


def spd_prior():
    return eigendecompose_covariance(make_spd(5, np.random.default_rng(31)))


def singular_prior():
    return eigendecompose_covariance(make_singular_psd(6, 4, np.random.default_rng(32)))


def torus_prior():
    return eigendecompose_covariance(GridKernel(2, 1.0, 0.5, 1.0))


PRIORS = {"spd-5": spd_prior, "singular-4-of-6": singular_prior, "torus-side-2": torus_prior}


class DenseModel:
    """The target's density, gradient and the kernels' proposal densities as dense matrices."""

    def __init__(self, prior, target, delta):
        n = prior.dimension
        self.target = target
        self.cells = prior.observed(np.arange(n))
        basis = np.column_stack([from_spectral(prior, e) for e in np.eye(prior.rank)])
        self.C = (basis * prior.eigenvalues) @ basis.T
        self.delta = delta
        half = 0.5 * delta
        self.A = half * np.linalg.solve(self.C + half * np.eye(n), self.C)
        self.A = 0.5 * (self.A + self.A.T)

    def f(self, x):
        return self.target.log_likelihood(x[self.cells])

    def grad(self, x):
        g = np.zeros_like(x)
        g[self.cells] = self.target.evaluate(x[self.cells])[1]
        return g

    def log_pi(self, x):
        return self.f(x) + gauss(x, np.zeros_like(x), self.C)

    def log_q(self, kind, y, x, aux=None):
        """log q(y | x) of a kernel; for the auxiliary kernels, log q(aux | x) + log q(y | x, aux)."""
        d, C, A = self.delta, self.C, self.A
        gx = self.grad(x)
        rho = 2.0 / (2.0 + d)
        if kind is SamplerKind.PCN:
            return gauss(y, rho * x, (1.0 - rho**2) * C)
        if kind is SamplerKind.PCNL:
            return gauss(y, rho * x + (d / (2.0 + d)) * C @ gx, (1.0 - rho**2) * C)
        if kind is SamplerKind.PMALA:
            return gauss(y, (1.0 - 0.5 * d) * x + 0.5 * d * C @ gx, d * C)
        if kind is SamplerKind.MGRAD:
            return gauss(y, (2.0 / d) * A @ (x + 0.5 * d * gx), (2.0 / d) * A @ A + A)
        eye = 0.5 * d * np.eye(x.shape[0])
        if kind is SamplerKind.AGRAD_Z:
            return gauss(aux, x + 0.5 * d * gx, eye) + gauss(y, (2.0 / d) * A @ aux, A)
        if kind is SamplerKind.AGRAD_U:
            return gauss(aux, x, eye) + gauss(y, (2.0 / d) * A @ (aux + 0.5 * d * gx), A)
        raise ValueError(kind)

    def log_ratio(self, kind, x, y, aux=None):
        return self.log_pi(y) + self.log_q(kind, x, y, aux) - self.log_pi(x) - self.log_q(kind, y, x, aux)


def gauss(v, mean, cov):
    return float(multivariate_normal.logpdf(v, mean, 0.5 * (cov + cov.T), allow_singular=True))


def replayed_aux(kind, chain):
    """The auxiliary variable the next step will draw: its first standard-normal draw, replayed."""
    state, delta = chain.state, chain.delta
    noise = copy.deepcopy(chain.rng).standard_normal(state.x.shape[0])
    if kind is SamplerKind.AGRAD_Z:
        return state.x + 0.5 * delta * state.grad_x + math.sqrt(0.5 * delta) * noise
    return state.x + math.sqrt(0.5 * delta) * noise


def assert_exact(log_ratio, ref):
    assert math.isfinite(ref)
    assert abs(log_ratio - ref) <= RTOL * max(1.0, abs(ref)), (log_ratio, ref)


def make_target(prior):
    # Counts far from the prior's mean intensity: a strong, non-quadratic likelihood
    return PoissonCounts(3.0 * (np.arange(prior.observed_dimension) % 3), exposure=1.0, offset=0.5)


MH_KINDS = [k for k in SamplerKind if k is not SamplerKind.ELLIPT]


@pytest.mark.parametrize("prior_name", sorted(PRIORS))
@pytest.mark.parametrize("kind", MH_KINDS, ids=lambda k: k.value)
def test_kernel_log_ratio_equals_the_dense_density_ratio(kind, prior_name):
    prior = PRIORS[prior_name]()
    target = make_target(prior)
    x0 = from_spectral(prior, prior.sqrt_eigenvalues * np.random.default_rng(33).standard_normal(prior.dimension)[: prior.rank])
    chain = Chain(kind, prior, target, np.random.default_rng(34), delta=DELTA, x0=x0)
    dense = DenseModel(prior, target, DELTA)
    accepted = 0
    for _ in range(STEPS):
        x = chain.state.x.copy()
        aux = replayed_aux(kind, chain) if kind in (SamplerKind.AGRAD_Z, SamplerKind.AGRAD_U) else None
        result = chain.step()
        accepted += result.accepted
        assert_exact(result.log_ratio, dense.log_ratio(kind, x, result.proposal, aux))
    assert 0 < accepted < STEPS, "the chain must both move and stay for the check to cover both paths"


@pytest.mark.parametrize("prior_name", sorted(PRIORS))
def test_noised_gradient_proposal_given_z_balances_the_joint_density(prior_name):
    prior = PRIORS[prior_name]()
    target = make_target(prior)
    ops = build_delta_operators(prior, DELTA)
    dense = DenseModel(prior, target, DELTA)
    rng = np.random.default_rng(35)
    x0 = from_spectral(prior, prior.sqrt_eigenvalues * rng.standard_normal(prior.dimension)[: prior.rank])
    state = init_chain_state(SamplerKind.AGRAD_Z, x0, prior, ops, target)
    for _ in range(STEPS):
        z = draw_noised_gradient_aux(state, DELTA, rng)
        y, f_y, grad_y, log_ratio = propose_given_noised_gradient_aux(state, prior, ops, target, rng, z)
        assert_exact(log_ratio, dense.log_ratio(SamplerKind.AGRAD_Z, state.x, y, z))
        state.x, state.f_x, state.grad_x = y, f_y, grad_y
