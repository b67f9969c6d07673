"""Likelihood model and covariance kernel tests."""

import math

import numpy as np
import pytest
from scipy.special import expit

from lgm.targets import (
    BernoulliLogit,
    CategoricalSoftmax,
    GaussianRegression,
    PoissonCounts,
    grid_exponential_kernel,
    squared_exponential_kernel,
)

from conftest import ConstantTarget, finite_difference_gradient


def make_targets(rng):
    return {
        "regression": GaussianRegression(rng.standard_normal(8), noise_variance=0.3),
        "binary": BernoulliLogit(rng.integers(0, 2, 8)),
        "cox": PoissonCounts(rng.poisson(3.0, 9), exposure=0.25, offset=1.1),
        "multiclass": CategoricalSoftmax(rng.integers(0, 3, 5), n_classes=3),
        "constant": ConstantTarget(4),
    }


class TestGradients:
    @pytest.mark.parametrize("name", ["regression", "binary", "cox", "multiclass", "constant"])
    def test_gradient_matches_finite_differences(self, rng, name):
        target = make_targets(rng)[name]
        for _ in range(5):
            x = rng.standard_normal(target.dimension)
            f, grad = target.evaluate(x)
            fd = finite_difference_gradient(lambda v: target.evaluate(v)[0], x)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)
            assert target.log_likelihood(x) == f


class TestGaussianRegression:
    def test_value_matches_dense_formula(self, rng):
        y = rng.standard_normal(5)
        x = rng.standard_normal(5)
        sigma2 = 0.7
        target = GaussianRegression(y, sigma2)
        expected = -0.5 * np.sum((y - x) ** 2) / sigma2 - 2.5 * np.log(2 * np.pi * sigma2)
        assert target.evaluate(x)[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n, sigma2, scale", [(200, 0.1, 1.0), (5, 1e-6, 100.0)])
    def test_closed_form_on_the_ellipse_matches_the_likelihood(self, rng, n, sigma2, scale):
        # The second case is a stress case: tiny noise and |y| near 100, so
        # an expansion not anchored at x loses ~1e-7 of f near angle zero.
        # Errors are relative to the terms f sums, |const| + |f - const|,
        # since f itself crosses zero on this ellipse.
        y = scale * rng.standard_normal(n)
        x = y + np.sqrt(sigma2) * rng.standard_normal(n)
        nu = rng.standard_normal(n)
        target = GaussianRegression(y, sigma2)
        on_ellipse = target.on_ellipse(x, nu)
        angles = np.concatenate([[0.0, 1e-12, -1e-12, np.pi / 2, np.pi], rng.uniform(-2 * np.pi, 2 * np.pi, 300)])
        closed = np.array([on_ellipse(np.cos(t), np.sin(t)) for t in angles])
        direct = np.array([target.log_likelihood(x * np.cos(t) + nu * np.sin(t)) for t in angles])
        const = -0.5 * n * np.log(2 * np.pi * sigma2)
        assert np.all(np.abs(closed - direct) <= 1e-10 * (abs(const) + np.abs(direct - const)))
        assert closed[0] == target.log_likelihood(x)

    def test_validation(self):
        with pytest.raises(ValueError, match="noise_variance"):
            GaussianRegression(np.zeros(3), 0.0)
        with pytest.raises(ValueError, match="vector"):
            GaussianRegression(np.zeros((2, 2)), 1.0)


class TestBernoulliLogit:
    def test_value_matches_direct_computation(self, rng):
        labels = np.array([1, 0, 1, 1, 0])
        x = rng.standard_normal(5)
        target = BernoulliLogit(labels)
        p = expit(x)
        expected = np.sum(labels * np.log(p) + (1 - labels) * np.log1p(-p))
        assert target.evaluate(x)[0] == pytest.approx(expected, rel=1e-10)

    def test_extreme_inputs_stay_finite(self):
        target = BernoulliLogit(np.array([1, 0]))
        f, grad = target.evaluate(np.array([1000.0, -1000.0]))
        assert np.isfinite(f)
        assert f == pytest.approx(0.0, abs=1e-12)
        f2, _ = target.evaluate(np.array([-1000.0, 1000.0]))
        assert f2 == pytest.approx(-2000.0, rel=1e-12)

    def test_label_validation(self):
        with pytest.raises(ValueError, match="0/1"):
            BernoulliLogit(np.array([0, 2]))


class TestPoissonCounts:
    def test_value_matches_direct_sum(self, rng):
        counts = np.array([0.0, 3.0, 1.0])
        x = rng.standard_normal(3)
        target = PoissonCounts(counts, exposure=0.5, offset=-0.2)
        rate = 0.5 * np.exp(x - 0.2)
        expected = np.sum(counts * (x - 0.2)) - rate.sum()
        assert target.evaluate(x)[0] == pytest.approx(expected, rel=1e-12)

    def test_value_and_gradient_match_the_two_pass_formula_bit_for_bit(self, rng):
        counts = rng.poisson(3.0, 64).astype(float)
        target = PoissonCounts(counts, exposure=0.25, offset=1.1)
        for _ in range(200):
            x = 2.0 * rng.standard_normal(64)
            rate = 0.25 * np.exp(x + 1.1)
            f, grad = target.evaluate(x)
            assert f == float(counts @ (x + 1.1) - rate.sum())
            assert target.log_likelihood(x) == f
            np.testing.assert_array_equal(grad, counts - rate)

    def test_matrix_counts_flatten_row_major(self):
        grid = np.array([[1, 2], [3, 4]])
        target = PoissonCounts(grid, exposure=1.0, offset=0.0)
        np.testing.assert_array_equal(target.counts, [1, 2, 3, 4])
        assert target.dimension == 4

    def test_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PoissonCounts(np.array([-1.0]), exposure=1.0, offset=0.0)
        with pytest.raises(ValueError, match="exposure"):
            PoissonCounts(np.array([1.0]), exposure=0.0, offset=0.0)

    @pytest.mark.parametrize("exposure", [0.0, -1.0, math.nan])
    def test_exposure_must_be_positive(self, exposure):
        with pytest.raises(ValueError, match="exposure must be positive"):
            PoissonCounts(np.array([1.0, 0.0]), exposure=exposure, offset=0.0)


class TestCategoricalSoftmax:
    def test_value_matches_direct_computation(self, rng):
        labels = np.array([0, 2, 1])
        target = CategoricalSoftmax(labels, n_classes=3)
        x = rng.standard_normal(9)
        scores = x.reshape(3, 3)
        probs = np.exp(scores) / np.exp(scores).sum(axis=0)
        expected = np.sum(np.log(probs[labels, np.arange(3)]))
        assert target.evaluate(x)[0] == pytest.approx(expected, rel=1e-10)

    def test_per_site_shift_invariance(self, rng):
        # adding a constant to every class score at one site leaves the density unchanged
        target = CategoricalSoftmax(np.array([1, 0]), n_classes=3)
        x = rng.standard_normal(6)
        shifted = x.copy().reshape(3, 2)
        shifted[:, 0] += 4.2
        assert target.evaluate(shifted.reshape(-1))[0] == pytest.approx(target.evaluate(x)[0], rel=1e-10)

    def test_gradient_sums_to_zero_per_site(self, rng):
        target = CategoricalSoftmax(np.array([2, 1, 0, 2]), n_classes=3)
        _, grad = target.evaluate(rng.standard_normal(12))
        np.testing.assert_allclose(grad.reshape(3, 4).sum(axis=0), 0.0, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="n_classes"):
            CategoricalSoftmax(np.array([0, 1]), n_classes=1)
        with pytest.raises(ValueError, match="lie in"):
            CategoricalSoftmax(np.array([0, 3]), n_classes=3)


@pytest.mark.parametrize("name", ["binary", "cox", "multiclass", "constant"])
def test_other_models_have_no_closed_form_on_the_ellipse(rng, name):
    target = make_targets(rng)[name]
    assert target.on_ellipse(np.zeros(target.dimension), np.ones(target.dimension)) is None


class TestConstantTarget:
    def test_zero_everywhere(self, rng):
        target = ConstantTarget(4)
        f, grad = target.evaluate(rng.standard_normal(4))
        assert f == 0.0
        np.testing.assert_array_equal(grad, np.zeros(4))


class TestSquaredExponentialKernel:
    def test_known_entries(self):
        pts = np.array([0.0, 2.0])
        cov = squared_exponential_kernel(pts, variance=3.0, lengthscale2=4.0)
        assert cov[0, 0] == pytest.approx(3.0)
        assert cov[0, 1] == pytest.approx(3.0 * np.exp(-4.0 / 8.0), rel=1e-12)
        np.testing.assert_allclose(cov, cov.T)

    def test_positive_semidefinite(self, rng):
        cov = squared_exponential_kernel(np.linspace(0, 10, 40))
        assert np.linalg.eigvalsh(cov).min() > -1e-10

    def test_multidimensional_inputs(self, rng):
        pts = rng.standard_normal((6, 2))
        cov = squared_exponential_kernel(pts, variance=1.0, lengthscale2=2.0)
        d2 = np.sum((pts[1] - pts[4]) ** 2)
        assert cov[1, 4] == pytest.approx(np.exp(-0.5 * d2 / 2.0), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            squared_exponential_kernel(np.array([0.0]), variance=-1.0)


def pairwise_grid_exponential(side, variance, beta, scale=None):
    """The grid kernel from the coordinate difference of every pair of cells."""
    scale = float(side) if scale is None else scale
    idx = np.arange(side)
    ii, jj = np.meshgrid(idx, idx, indexing="ij")
    coords = np.column_stack([ii.reshape(-1), jj.reshape(-1)]).astype(float)
    diff = coords[:, None, :] - coords[None, :, :]
    return variance * np.exp(-np.sqrt(np.sum(diff**2, axis=-1)) / (scale * beta))


class TestGridExponentialKernel:
    def test_known_entries_row_major(self):
        side = 4
        cov = grid_exponential_kernel(side, variance=2.0, beta=0.5)
        assert cov.shape == (16, 16)
        np.testing.assert_allclose(np.diag(cov), 2.0)
        # cells (0,0) and (0,1) sit one index unit apart; default scale is the side
        assert cov[0, 1] == pytest.approx(2.0 * np.exp(-1.0 / (side * 0.5)), rel=1e-12)
        # cells (0,0) and (1,0) are a full row apart in row-major order
        assert cov[0, side] == pytest.approx(cov[0, 1], rel=1e-12)

    def test_explicit_scale_overrides_side(self):
        cov = grid_exponential_kernel(2, variance=1.0, beta=1.0, scale=10.0)
        assert cov[0, 1] == pytest.approx(np.exp(-0.1), rel=1e-12)

    def test_refining_grid_preserves_relative_correlation(self):
        # the cell at the opposite corner keeps its correlation as the grid refines
        c_coarse = grid_exponential_kernel(4, 1.0, 1.0)
        c_fine = grid_exponential_kernel(8, 1.0, 1.0)
        corner_coarse = c_coarse[0, -1]
        corner_fine = c_fine[0, -1]
        assert corner_fine == pytest.approx(corner_coarse, rel=0.25)

    @pytest.mark.parametrize("variance, beta, scale", [(1.91, 1.0 / 33.0, None), (2.0, 0.5, 3.0), (0.3, 7.0, None)])
    def test_equals_the_pairwise_difference_formula_bit_for_bit(self, variance, beta, scale):
        for side in range(1, 41):
            expected = pairwise_grid_exponential(side, variance, beta, scale)
            np.testing.assert_array_equal(grid_exponential_kernel(side, variance, beta, scale), expected)

    def test_validation(self):
        with pytest.raises(ValueError, match="side"):
            grid_exponential_kernel(0, 1.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            grid_exponential_kernel(2, 1.0, -1.0)
