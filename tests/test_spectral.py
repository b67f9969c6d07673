"""Eigendecomposition, diagonal operators, and shrinkage map tests."""

import tracemalloc

import numpy as np
import pytest

from lgm.samplers import Chain
from lgm.spectral import (
    NULL_REL_TOL,
    DeltaOperators,
    OpCounter,
    SpectralPrior,
    TorusPrior,
    build_delta_operators,
    eigendecompose_covariance,
    from_spectral,
    prior_logdet,
    prior_quad_form,
    shrinkage_maps,
    to_spectral,
)
from lgm.targets import GaussianRegression, GridKernel, grid_exponential_kernel, squared_exponential_kernel

from conftest import full_basis_prior, make_singular_psd, make_spd, null_directions


class TestEigendecomposition:
    def test_reconstructs_covariance(self, rng):
        cov = make_spd(12, rng)
        prior = eigendecompose_covariance(cov)
        recon = (prior.basis * prior.eigenvalues) @ prior.basis.T
        np.testing.assert_allclose(recon, cov, atol=1e-10 * np.abs(cov).max())

    def test_basis_is_orthonormal(self, rng):
        prior = eigendecompose_covariance(make_spd(9, rng))
        gram = prior.basis.T @ prior.basis
        np.testing.assert_allclose(gram, np.eye(9), atol=1e-12)

    def test_eigenvalues_descending_and_nonnegative(self, rng):
        prior = eigendecompose_covariance(make_spd(15, rng))
        assert (np.diff(prior.eigenvalues) <= 0).all()
        assert (prior.eigenvalues >= 0).all()

    def test_singular_covariance_gets_exact_zeros(self, rng):
        # the 3 null directions leave the basis: the prior has exactly zero
        # variance along them, and a positive eigenvalue on each of the 5 it keeps
        cov = make_singular_psd(8, 5, rng)
        prior = eigendecompose_covariance(cov)
        assert (prior.dimension, prior.rank) == (8, 5)
        assert prior.basis.shape == (8, 5) and prior.basis.flags.c_contiguous
        assert prior.eigenvalues.shape == (5,)
        assert (prior.eigenvalues > 0).all()
        null = null_directions(prior)
        assert null.shape == (8, 3)
        np.testing.assert_allclose(cov @ null, 0.0, atol=1e-12)
        recon = (prior.basis * prior.eigenvalues) @ prior.basis.T
        np.testing.assert_allclose(recon, cov, atol=1e-12)

    def test_tiny_relative_eigenvalues_zeroed(self):
        # one direction 1e-12 below the dominant scale falls under the null
        # cutoff: it leaves the basis, so no draw or transform reaches it
        cov = np.diag([1.0, 1e-12])
        prior = eigendecompose_covariance(cov)
        assert (prior.dimension, prior.rank) == (2, 1)
        assert prior.eigenvalues[0] == pytest.approx(1.0)
        assert to_spectral(prior, np.array([0.0, 1.0]))[0] == 0.0
        np.testing.assert_array_equal(from_spectral(prior, np.array([3.0]))[1], 0.0)

    def test_jitter_shifts_spectrum(self, rng):
        cov = make_spd(6, rng)
        plain = eigendecompose_covariance(cov)
        jittered = eigendecompose_covariance(cov, jitter=0.5)
        np.testing.assert_allclose(jittered.eigenvalues, plain.eigenvalues + 0.5, rtol=1e-10)

    def test_counter_tracks_factorization(self, rng):
        counter = OpCounter()
        eigendecompose_covariance(make_spd(4, rng), counter=counter)
        assert counter.factorizations == 1
        assert counter.matvecs == 0
        counter.reset()
        assert counter.factorizations == 0

    def test_rejects_asymmetric_matrix(self):
        cov = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            eigendecompose_covariance(cov)

    def test_rejects_indefinite_matrix(self):
        cov = np.diag([1.0, -0.5])
        with pytest.raises(ValueError, match="not positive semidefinite"):
            eigendecompose_covariance(cov)

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError, match="square"):
            eigendecompose_covariance(np.ones((2, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            eigendecompose_covariance(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_dimension_property(self, rng):
        prior = eigendecompose_covariance(make_spd(7, rng))
        assert prior.dimension == 7 and prior.rank == 7
        np.testing.assert_allclose(prior.sqrt_eigenvalues**2, prior.eigenvalues)


def reference_decomposition(cov, jitter=0.0):
    """The dense decomposition in its first form: eigenvalues and basis.

    Every matrix is symmetrized as 0.5 (C + C^T), the eigenpairs are put in
    descending order by a fancy index with argsort's order, and the basis is
    cut to the eigenvalues above the null tolerance.
    """
    cov = np.asarray(cov, dtype=float)
    sym = 0.5 * (cov + cov.T)
    if jitter:
        sym = sym + jitter * np.eye(sym.shape[0])
    eigvals, eigvecs = np.linalg.eigh(sym)
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    gamma_max = max(eigvals[0], 0.0)
    eigvals = np.where(eigvals > NULL_REL_TOL * gamma_max, eigvals, 0.0)
    rank = int(np.count_nonzero(eigvals))
    return eigvals[:rank], eigvecs[:, :rank]


def tie_reversing_argsort(a, *args, **kwargs):
    """An ascending argsort that puts tied entries in descending index order."""
    return np.lexsort((-np.arange(len(a)), a))


def asymmetric_at_1e12(rng):
    cov = make_spd(30, rng)
    cov = 0.5 * (cov + cov.T)
    cov[3, 7] *= 1.0 + 1e-12
    return cov


# Each case: covariance, jitter, and whether tied eigenvalues must come back
# in an order other than the plain reversal of eigh's.
SET_UP_CASES = {
    "symmetric grid kernel": (lambda rng: grid_exponential_kernel(12, 1.91, 1.0 / 33.0), 0.0, False),
    "rank-deficient squared exponential": (
        lambda rng: squared_exponential_kernel(np.linspace(0.0, 1.0, 60), 1.0, 0.05), 0.0, False
    ),
    "asymmetric at 1e-12": (asymmetric_at_1e12, 0.0, False),
    "tied eigenvalues": (
        lambda rng: np.kron(np.eye(12), [[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 0.7]]), 0.0, True
    ),
    "jitter": (lambda rng: grid_exponential_kernel(8, 1.0, 0.5), 1e-3, False),
}


class TestDenseSetUp:
    """The dense set-up returns the reference decomposition bit for bit."""

    @pytest.mark.parametrize("case", list(SET_UP_CASES))
    def test_matches_reference_bit_for_bit(self, case, rng, monkeypatch):
        build, jitter, permute_ties = SET_UP_CASES[case]
        cov = build(rng)
        if permute_ties:
            # an argsort that permutes ties: the reorder must follow its order
            monkeypatch.setattr(np, "argsort", tie_reversing_argsort)
            order = np.argsort(np.linalg.eigvalsh(cov))
            assert not np.array_equal(order, np.arange(cov.shape[0]))
        prior = eigendecompose_covariance(cov, jitter=jitter)
        eigvals, basis = reference_decomposition(cov, jitter)
        for got, want in ((prior.eigenvalues, eigvals), (prior.basis, basis)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert prior.basis.flags.c_contiguous

    def test_cases_cover_rank_deficiency_and_asymmetry(self, rng):
        cov = SET_UP_CASES["rank-deficient squared exponential"][0](rng)
        assert np.array_equal(cov, cov.T) and eigendecompose_covariance(cov).rank < cov.shape[0]
        cov = SET_UP_CASES["asymmetric at 1e-12"][0](rng)
        assert not np.array_equal(cov, cov.T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_entry(self, bad):
        cov = np.eye(3)
        cov[0, 2] = cov[2, 0] = bad
        with pytest.raises(ValueError, match="covariance contains non-finite entries"):
            eigendecompose_covariance(cov)

    def test_rejects_asymmetry_above_tolerance(self):
        cov = np.eye(4)
        cov[0, 1] = 1e-7
        with pytest.raises(ValueError, match=r"not symmetric: max \|C - C.T\| = 1.000e-07"):
            eigendecompose_covariance(cov)

    def test_traced_peak_is_three_n_by_n_arrays(self):
        # numpy reports its arrays to tracemalloc; LAPACK's workspace is
        # outside it.  The set-up holds at most the basis, U sqrt(gamma) and
        # one BLAS product at once; one more n x n copy, such as a
        # symmetrized C or a second reorder, would cross the bound.
        cov = grid_exponential_kernel(20, 1.91, 1.0 / 33.0)
        n = cov.shape[0]
        assert n == 400 and np.array_equal(cov, cov.T)
        tracemalloc.start()
        try:
            eigendecompose_covariance(cov)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * n * 8


class TestSpectralTransforms:
    def test_round_trip(self, rng):
        prior = eigendecompose_covariance(make_spd(10, rng))
        v = rng.standard_normal(10)
        np.testing.assert_allclose(from_spectral(prior, to_spectral(prior, v)), v, atol=1e-12)

    def test_counter_counts_matvecs(self, rng):
        prior = eigendecompose_covariance(make_spd(5, rng))
        counter = OpCounter()
        w = to_spectral(prior, rng.standard_normal(5), counter)
        from_spectral(prior, w, counter)
        assert counter.matvecs == 2
        assert counter.factorizations == 0


class TestDeltaOperators:
    @pytest.mark.parametrize("delta", [0.1, 1.0, 7.3])
    def test_aux_var_matches_dense_inverse(self, rng, delta):
        cov = make_spd(8, rng)
        prior = eigendecompose_covariance(cov)
        ops = build_delta_operators(prior, delta)
        dense_a = np.linalg.inv(np.linalg.inv(cov) + (2.0 / delta) * np.eye(8))
        spectral_a = (prior.basis * ops.aux_var) @ prior.basis.T
        np.testing.assert_allclose(spectral_a, dense_a, atol=1e-10)

    def test_marginal_var_identity(self, rng):
        prior = eigendecompose_covariance(make_spd(6, rng))
        delta = 0.7
        ops = build_delta_operators(prior, delta)
        a = ops.aux_var
        np.testing.assert_allclose(ops.marginal_var, (2.0 / delta) * a**2 + a, rtol=1e-12)

    def test_ratio_weight_identity(self, rng):
        prior = eigendecompose_covariance(make_spd(6, rng))
        delta = 2.5
        ops = build_delta_operators(prior, delta)
        gamma = prior.eigenvalues
        np.testing.assert_allclose(ops.ratio_weight, (delta + 2 * gamma) / (delta + 4 * gamma), rtol=1e-12)

    def test_null_directions_stay_pinned(self, rng):
        # a basis that keeps its null directions gets zero proposal variance on them
        prior = full_basis_prior(eigendecompose_covariance(make_singular_psd(7, 4, rng)))
        assert prior.rank == 7
        ops = build_delta_operators(prior, 1.3)
        assert (ops.aux_var[4:] == 0).all()
        assert (ops.marginal_var[4:] == 0).all()
        np.testing.assert_allclose(ops.ratio_weight[4:], 1.0)
        assert (ops.aux_var[:4] > 0).all() and (ops.marginal_var[:4] > 0).all()

    def test_sqrt_properties(self, rng):
        ops = build_delta_operators(eigendecompose_covariance(make_spd(5, rng)), 0.4)
        np.testing.assert_allclose(ops.sqrt_aux_var**2, ops.aux_var)
        np.testing.assert_allclose(ops.sqrt_marginal_var**2, ops.marginal_var)

    @staticmethod
    def dense_or_torus(kind, rng):
        if kind == "dense":
            return eigendecompose_covariance(make_spd(9, rng))
        prior = eigendecompose_covariance(GridKernel(6, 1.91, 1.0 / 33.0, 6.0))
        assert isinstance(prior, TorusPrior)
        return prior

    @pytest.mark.parametrize("kind", ["dense", "torus"])
    @pytest.mark.parametrize("delta", [0.07, 1.0, 3.3])
    def test_diagonals_and_roots_equal_the_closed_forms_bit_for_bit(self, rng, kind, delta):
        prior = self.dense_or_torus(kind, rng)
        gamma = prior.eigenvalues
        ops = build_delta_operators(prior, delta)
        aux = gamma * delta / (delta + 2.0 * gamma)
        marginal = aux * (delta + 4.0 * gamma) / (delta + 2.0 * gamma)
        np.testing.assert_array_equal(ops.aux_var, aux)
        np.testing.assert_array_equal(ops.marginal_var, marginal)
        np.testing.assert_array_equal(ops.ratio_weight, (delta + 2.0 * gamma) / (delta + 4.0 * gamma))
        np.testing.assert_array_equal(ops.sqrt_aux_var, np.sqrt(aux))
        np.testing.assert_array_equal(ops.sqrt_marginal_var, np.sqrt(marginal))

    @pytest.mark.parametrize("kind", ["dense", "torus"])
    def test_set_delta_rebuilds_the_mgrad_caches_bit_for_bit(self, rng, kind):
        prior = self.dense_or_torus(kind, rng)
        target = GaussianRegression(rng.standard_normal(prior.observed_dimension), 0.5)
        chain = Chain("mgrad", prior, target, np.random.default_rng(3), delta=0.5)
        chain.run(20)
        for delta in (0.3, 2.0):
            chain.set_delta(delta)
            state, aux = chain.state, chain.ops.aux_var
            np.testing.assert_array_equal(state.prop_mean_spec, aux * ((2.0 / delta) * state.ux + state.ugrad_x))
            np.testing.assert_array_equal(
                state.ratio_anchor_spec, aux * ((2.0 / delta) * state.ux + 0.5 * state.ugrad_x)
            )

    @pytest.mark.parametrize("kind, computed", [
        ("pcn", set()), ("pcnl", set()), ("pmala", set()), ("agrad-z", {"aux_var", "sqrt_aux_var"}),
        ("agrad-u", {"aux_var", "sqrt_aux_var"}),
        ("mgrad", {"aux_var", "marginal_var", "ratio_weight", "sqrt_marginal_var"}),
    ])
    def test_a_kernel_computes_only_the_diagonals_it_reads(self, rng, kind, computed):
        prior = eigendecompose_covariance(make_spd(6, rng))
        chain = Chain(kind, prior, GaussianRegression(rng.standard_normal(6), 0.5), np.random.default_rng(4))
        chain.set_delta(0.4)
        chain.run(3)
        diagonals = {"aux_var", "marginal_var", "ratio_weight", "sqrt_aux_var", "sqrt_marginal_var"}
        assert diagonals & set(vars(chain.ops)) == computed

    @pytest.mark.parametrize("delta", [0.0, -1.0, np.inf, np.nan])
    def test_invalid_delta_rejected(self, rng, delta):
        prior = eigendecompose_covariance(make_spd(3, rng))
        with pytest.raises(ValueError, match="delta"):
            build_delta_operators(prior, delta)


class TestShrinkageMaps:
    def test_pcnl_map_formula(self):
        gamma = np.array([0.5, 1.0, 20.0])
        delta = 0.8
        maps = shrinkage_maps(gamma, delta, sigma2=1.0)
        expected = delta * (delta + 4.0) / (delta + 2.0) ** 2 * gamma
        np.testing.assert_allclose(maps.pcnl, expected, rtol=1e-12)

    def test_marginal_map_bounded_by_gamma_and_delta(self):
        gamma = np.logspace(-4, 6, 200)
        delta = 0.3
        maps = shrinkage_maps(gamma, delta, sigma2=1.0)
        assert (maps.marginal <= np.minimum(gamma, delta) + 1e-12).all()

    def test_marginal_map_saturates_at_delta(self):
        delta = 0.05
        maps = shrinkage_maps(np.array([1e9 * delta]), delta, sigma2=1.0)
        assert maps.marginal[0] == pytest.approx(delta, rel=1e-6)

    def test_marginal_map_unit_slope_at_origin(self):
        delta = 1.7
        h = 1e-7
        maps = shrinkage_maps(np.array([h]), delta, sigma2=1.0)
        assert maps.marginal[0] / h == pytest.approx(1.0, abs=1e-5)

    def test_posterior_map(self):
        gamma = np.array([2.0, 8.0])
        maps = shrinkage_maps(gamma, delta=1.0, sigma2=0.5)
        np.testing.assert_allclose(maps.posterior, gamma * 0.5 / (gamma + 0.5), rtol=1e-12)

    def test_marginal_to_posterior_ratio_band_at_matched_delta(self):
        # with delta = sigma2 the two maps agree within a factor of 9/8
        sigma2 = 0.25
        gamma = np.logspace(-6, 8, 500)
        maps = shrinkage_maps(gamma, delta=sigma2, sigma2=sigma2)
        ratio = maps.marginal / maps.posterior
        assert ratio.min() >= 1.0 - 1e-9
        assert ratio.max() <= 1.125 + 1e-9

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="delta"):
            shrinkage_maps(np.array([1.0]), delta=0.0, sigma2=1.0)
        with pytest.raises(ValueError, match="sigma2"):
            shrinkage_maps(np.array([1.0]), delta=1.0, sigma2=-1.0)


class TestPriorDensityPieces:
    def test_quad_form_matches_dense_solve(self, rng):
        cov = make_spd(9, rng)
        prior = eigendecompose_covariance(cov)
        x = rng.standard_normal(9)
        expected = x @ np.linalg.solve(cov, x)
        assert prior_quad_form(prior, x, to_spectral(prior, x)) == pytest.approx(expected, rel=1e-10)

    def test_quad_form_on_singular_prior_range_vector(self, rng):
        cov = make_singular_psd(6, 3, rng)
        prior = eigendecompose_covariance(cov)
        # a vector supported on the range of C
        w = rng.standard_normal(3)
        x = from_spectral(prior, w)
        expected = np.sum(w**2 / prior.eigenvalues)
        assert prior_quad_form(prior, x, to_spectral(prior, x)) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(x @ np.linalg.pinv(cov) @ x, rel=1e-8)

    def test_quad_form_rejects_null_mass(self, rng):
        # on the range basis and on a square basis that holds the null directions
        prior = eigendecompose_covariance(make_singular_psd(5, 2, rng))
        x = from_spectral(prior, rng.standard_normal(2)) + 0.5 * null_directions(prior)[:, -1]
        for p in (prior, full_basis_prior(prior)):
            with pytest.raises(ValueError, match="null direction"):
                prior_quad_form(p, x, to_spectral(p, x))

    def test_logdet_full_rank(self, rng):
        cov = make_spd(7, rng)
        prior = eigendecompose_covariance(cov)
        assert prior_logdet(prior) == pytest.approx(np.linalg.slogdet(cov)[1], rel=1e-10)

    def test_logdet_skips_null_directions(self, rng):
        prior = eigendecompose_covariance(make_singular_psd(6, 4, rng))
        expected = np.sum(np.log(prior.eigenvalues[:4]))
        assert prior_logdet(prior) == pytest.approx(expected, rel=1e-12)

    def test_null_mask(self, rng):
        # the range basis holds no null direction; a square basis marks its two
        prior = eigendecompose_covariance(make_singular_psd(6, 4, rng))
        np.testing.assert_array_equal(prior.null_mask, [False] * 4)
        square = full_basis_prior(prior)
        np.testing.assert_array_equal(square.null_mask, [False] * 4 + [True] * 2)
        np.testing.assert_array_equal(square.pinv_eigenvalues[4:], 0.0)
        np.testing.assert_allclose(square.pinv_eigenvalues[:4], 1.0 / prior.eigenvalues, rtol=1e-15)
