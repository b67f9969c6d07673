"""Circulant torus embedding of grid covariances: basis, covariance, posterior."""

import numpy as np
import pytest

from lgm.adaptation import tune_and_freeze
from lgm.diagnostics import ess_geyer
from lgm.samplers import Chain, SamplerKind
from lgm.spectral import DensePrior, OpCounter, TorusPrior, eigendecompose_covariance, from_spectral, to_spectral
from lgm.targets import GridKernel, TargetModel

SIDES = [6, 8]


def grid_kernel(side, scale_divisor=66.0):
    # correlation length scale_divisor / 33 = 2 cells: PSD on the torus at these sides
    return GridKernel(side, 1.91, 1.0 / 33.0, scale_divisor)


def unit(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


class ObservedGaussian(TargetModel):
    """y ~ N(x_obs, sigma2 I) on the observed cells of a torus field; the padding is unseen."""

    def __init__(self, prior: TorusPrior, y: np.ndarray, sigma2: float):
        self.prior = prior
        self.y = y
        self.sigma2 = sigma2
        self.dimension = prior.dimension

    def evaluate(self, x):
        resid = self.y - self.prior.observed(x)
        return -0.5 * float(resid @ resid) / self.sigma2, self.prior.embed(resid / self.sigma2)


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

    chain = Chain(SamplerKind.MGRAD, prior, ObservedGaussian(prior, y, sigma2), np.random.default_rng(1), delta=sigma2)
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
