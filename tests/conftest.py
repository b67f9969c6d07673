"""Shared fixtures and numerical helpers for the test suite."""

import numpy as np
import pytest
import scipy.linalg

from lgm.samplers import Chain
from lgm.spectral import DensePrior, from_spectral, to_spectral
from lgm.targets import TargetModel


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class ConstantTarget(TargetModel):
    """f identically zero; the posterior is the prior."""

    def __init__(self, dimension: int):
        self.dimension = int(dimension)

    def evaluate(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        return 0.0, np.zeros_like(x)

    def log_likelihood(self, x: np.ndarray) -> float:
        return 0.0


def make_spd(n: int, rng: np.random.Generator, spread: float = 10.0) -> np.ndarray:
    """Random symmetric positive definite matrix with eigenvalues in [1/spread, spread]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.exp(rng.uniform(-np.log(spread), np.log(spread), n))
    return (q * eigs) @ q.T


def make_singular_psd(n: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Random PSD matrix of the given rank (exactly n - rank zero eigenvalues)."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.zeros(n)
    eigs[:rank] = np.exp(rng.uniform(-1.0, 1.0, rank))
    return (q * eigs) @ q.T


def null_directions(prior: DensePrior) -> np.ndarray:
    """An orthonormal basis of the directions a DensePrior's basis leaves out, one per column."""
    return scipy.linalg.null_space(prior.basis.T)


def full_basis_prior(prior: DensePrior) -> DensePrior:
    """The same covariance with a square basis: the range basis, then its null directions at eigenvalue 0."""
    null = null_directions(prior)
    return DensePrior(
        eigenvalues=np.concatenate([prior.eigenvalues, np.zeros(null.shape[1])]),
        basis=np.hstack([prior.basis, null]),
    )


def finite_difference_gradient(func, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    g = np.zeros_like(x, dtype=float)
    for i in range(x.size):
        step = np.zeros_like(x, dtype=float)
        step[i] = h
        g[i] = (func(x + step) - func(x - step)) / (2.0 * h)
    return g


def check_state_coherence(chain_or_state, prior=None, target=None, ops=None, atol: float = 1e-9) -> None:
    """Recompute every populated cache of a chain state from x and compare.

    Raises AssertionError on drift.  The formulas are written out here rather
    than taken from the samplers, so the check stays independent of them.  The
    spectral caches are recomputed through ``to_spectral`` and
    ``from_spectral``, so any prior's transforms are checked the same way.
    """
    if isinstance(chain_or_state, Chain):
        state = chain_or_state.state
        prior, target, ops = chain_or_state.prior, chain_or_state.target, chain_or_state.ops
    else:
        state = chain_or_state
    f, g = target.evaluate(prior.observed(state.x))
    g = prior.embed(g)
    scale = max(1.0, abs(state.f_x))
    assert abs(f - state.f_x) <= atol * scale, "cached f(x) is stale"
    assert np.allclose(g, state.grad_x, atol=atol), "cached grad f(x) is stale"
    ux = to_spectral(prior, state.x)
    ugrad = to_spectral(prior, state.grad_x)
    if state.ux is not None:
        assert np.allclose(ux, state.ux, atol=atol), "cached U^T x is stale"
    if state.ugrad_x is not None:
        assert np.allclose(ugrad, state.ugrad_x, atol=atol), "cached U^T grad is stale"
    if state.prop_mean_spec is not None:
        expect = ops.aux_var * ((2.0 / ops.delta) * state.ux + state.ugrad_x)
        assert np.allclose(expect, state.prop_mean_spec, atol=atol), "cached proposal mean is stale"
    if state.ratio_anchor_spec is not None:
        expect = ops.aux_var * ((2.0 / ops.delta) * state.ux + 0.5 * state.ugrad_x)
        assert np.allclose(expect, state.ratio_anchor_spec, atol=atol), "cached ratio anchor is stale"
    if state.gamma_ugrad_x is not None:
        expect = prior.eigenvalues * ugrad
        assert np.allclose(expect, state.gamma_ugrad_x, atol=atol), "cached C-weighted gradient is stale"
    if state.grad_quad_x is not None:
        expect = float(state.grad_x @ from_spectral(prior, prior.eigenvalues * ugrad))
        assert abs(expect - state.grad_quad_x) <= atol * max(1.0, abs(expect)), "cached grad^T C grad is stale"
    if state.prior_quad_x is not None:
        expect = float(np.sum(ux[~prior.null_mask] ** 2 / prior.range_eigenvalues))
        assert abs(expect - state.prior_quad_x) <= atol * max(1.0, abs(expect)), "cached prior quadratic form is stale"
