"""Circulant torus embedding of grid covariances: basis, covariance, posterior."""

import numpy as np
import pytest

from lgm.adaptation import tune_and_freeze
from lgm.diagnostics import ess_geyer
from lgm.samplers import Chain, SamplerKind
from lgm.spectral import DensePrior, OpCounter, TorusPrior, eigendecompose_covariance, from_spectral, to_spectral
from lgm.targets import GaussianRegression, GridKernel, PoissonCounts, TargetModel

from conftest import check_state_coherence

SIDES = [6, 8]


def grid_kernel(side, scale_divisor=66.0):
    # correlation length scale_divisor / 33 = 2 cells: PSD on the torus at these sides
    return GridKernel(side, 1.91, 1.0 / 33.0, scale_divisor)


def unit(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


class RecordingTarget(TargetModel):
    """Wraps a likelihood and records the shape of every vector handed to it."""

    def __init__(self, inner: TargetModel):
        self.inner = inner
        self.dimension = inner.dimension
        self.evaluate_shapes = []
        self.log_likelihood_shapes = []

    def evaluate(self, x):
        self.evaluate_shapes.append(x.shape)
        return self.inner.evaluate(x)

    def log_likelihood(self, x):
        self.log_likelihood_shapes.append(x.shape)
        return self.inner.log_likelihood(x)


def grid_counts(side):
    counts = np.random.default_rng(side).poisson(2.0, side * side)
    return PoissonCounts(counts, exposure=1.0, offset=0.5)


@pytest.mark.parametrize("side", SIDES)
def test_hartley_basis_is_orthonormal_and_its_own_inverse(side):
    prior = eigendecompose_covariance(grid_kernel(side))
    assert isinstance(prior, TorusPrior)
    n = prior.dimension
    assert n == 4 * side * side
    basis = np.stack([to_spectral(prior, unit(n, i)) for i in range(n)], axis=1)
    np.testing.assert_allclose(basis.T @ basis, np.eye(n), atol=1e-12)
    np.testing.assert_allclose(basis, basis.T, atol=1e-12)
    np.testing.assert_allclose(basis @ basis, np.eye(n), atol=1e-12)
    v = np.random.default_rng(side).standard_normal(n)
    np.testing.assert_allclose(from_spectral(prior, to_spectral(prior, v)), v, atol=1e-12)


@pytest.mark.parametrize("side", SIDES)
def test_restricted_torus_covariance_is_the_grid_kernel(side):
    kernel = grid_kernel(side)
    prior = eigendecompose_covariance(kernel)
    columns = [
        prior.observed(from_spectral(prior, prior.eigenvalues * to_spectral(prior, prior.embed(unit(side * side, i)))))
        for i in range(side * side)
    ]
    np.testing.assert_allclose(np.stack(columns, axis=1), kernel.matrix(), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("side", SIDES)
def test_mgrad_on_the_torus_recovers_the_exact_posterior_mean(side):
    kernel = grid_kernel(side)
    prior = eigendecompose_covariance(kernel)
    cov = kernel.matrix()
    sigma2 = 0.5
    y = np.random.default_rng(side).multivariate_normal(np.zeros(side * side), cov + sigma2 * np.eye(side * side))
    exact = cov @ np.linalg.solve(cov + sigma2 * np.eye(side * side), y)

    chain = Chain(SamplerKind.MGRAD, prior, GaussianRegression(y, sigma2), np.random.default_rng(1), delta=sigma2)
    tune_and_freeze(chain, 1000)
    samples = chain.sample(10000)
    assert samples.shape == (10000, side * side)
    ess = np.array([ess_geyer(column) for column in samples.T])
    se = samples.std(axis=0, ddof=1) / np.sqrt(ess)
    z = (samples.mean(axis=0) - exact) / se
    assert np.abs(z).max() <= 4.0, f"worst |z| {np.abs(z).max():.2f}"


def test_eigendecompose_counts_one_factorization_per_route():
    counter = OpCounter()
    torus = eigendecompose_covariance(grid_kernel(6), counter=counter)
    dense = eigendecompose_covariance(GridKernel(8, 1.91, 1.0 / 33.0, 330.0), counter=counter)
    assert isinstance(torus, TorusPrior) and isinstance(dense, DensePrior)
    assert counter.factorizations == 2 and counter.matvecs == 0
    assert dense.dimension == 64


def test_non_psd_embedding_falls_back_to_the_dense_decomposition():
    kernel = GridKernel(8, 1.91, 1.0 / 33.0, 330.0)
    ratio = kernel.torus_eigenvalues.min() / kernel.torus_eigenvalues.max()
    assert ratio == pytest.approx(-4.7e-3, rel=0.01)
    prior = eigendecompose_covariance(kernel)
    assert isinstance(prior, DensePrior)
    np.testing.assert_array_equal(prior.eigenvalues, eigendecompose_covariance(kernel.matrix()).eigenvalues)


def test_jitter_shifts_the_torus_spectrum():
    kernel = grid_kernel(6)
    plain = eigendecompose_covariance(kernel)
    jittered = eigendecompose_covariance(kernel, jitter=0.25)
    np.testing.assert_allclose(jittered.eigenvalues, plain.eigenvalues + 0.25, rtol=1e-12)


def test_null_mask_reads_the_largest_eigenvalue_in_any_order():
    # torus eigenvalues come in FFT order, not sorted
    prior = TorusPrior(eigenvalues=np.array([1e-12, 1.0, 0.5, 0.0]), side=1)
    np.testing.assert_array_equal(prior.null_mask, [True, False, False, True])
    np.testing.assert_array_equal(prior.range_eigenvalues, [1.0, 0.5])


def test_observed_and_embed_are_inverse_on_the_observed_cells():
    prior = eigendecompose_covariance(grid_kernel(6))
    v = np.arange(36.0)
    padded = prior.embed(v)
    assert padded.shape == (144,)
    np.testing.assert_array_equal(prior.observed(padded), v)
    assert padded.reshape(12, 12)[:6, :6].reshape(-1).tolist() == v.tolist()
    assert np.count_nonzero(padded) == 35


@pytest.mark.parametrize("kind", list(SamplerKind))
def test_every_kernel_hands_the_likelihood_the_observed_cells(kind):
    prior = eigendecompose_covariance(grid_kernel(6))
    target = RecordingTarget(grid_counts(6))
    chain = Chain(kind, prior, target, np.random.default_rng(2))
    chain.run(100)
    shapes = target.evaluate_shapes + target.log_likelihood_shapes
    assert shapes and set(shapes) == {(36,)}
    state = chain.state
    assert state.x.shape == state.grad_x.shape == (144,)
    np.testing.assert_array_equal(state.grad_x, prior.embed(prior.observed(state.grad_x)))
    if kind in (SamplerKind.PCN, SamplerKind.ELLIPT):
        # f alone at proposals, then one gradient pass per accepted state (and one at x0)
        assert len(target.log_likelihood_shapes) == state.likelihood_evals - 1
        assert len(target.evaluate_shapes) == 1 + state.accept_count
    else:
        assert len(target.evaluate_shapes) == state.likelihood_evals
    check_state_coherence(chain)


def test_chain_rejects_a_target_that_is_not_the_observed_cells():
    prior = eigendecompose_covariance(grid_kernel(6))
    for cells in (35, 144):
        with pytest.raises(ValueError, match="36 observed cells"):
            Chain(SamplerKind.ELLIPT, prior, PoissonCounts(np.zeros(cells), exposure=1.0, offset=0.0),
                  np.random.default_rng(0))


@pytest.mark.parametrize("kind", list(SamplerKind))
def test_a_large_padding_cell_leaves_f_and_its_gradient_alone(kind):
    # exp(800) overflows: a likelihood that read the padding cells would not be finite
    prior = eigendecompose_covariance(grid_kernel(6))
    target = grid_counts(6)
    x0 = prior.embed(np.random.default_rng(0).standard_normal(36))
    x0[9 * 12 + 9] = 800.0  # torus cell (9, 9), off the 6 x 6 grid
    chain = Chain(kind, prior, target, np.random.default_rng(1), x0=x0)
    f, grad = target.evaluate(prior.observed(x0))
    assert chain.state.f_x == f
    np.testing.assert_array_equal(chain.state.grad_x, prior.embed(grad))
    chain.run(20)
    assert np.isfinite(chain.state.f_x) and np.isfinite(chain.state.grad_x).all()
