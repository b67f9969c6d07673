"""Hyperparameter learning tests: evidence terms, joint and Gibbs moves."""

import logging
import math

import numpy as np
import pytest
from scipy import stats

from lgm.hyper import (
    GaussianHyperPrior,
    HyperChain,
    HyperModel,
    log_evidence,
    prior_state_logpdf,
    run_hyper_chain,
)
from lgm.oracle import dense_gaussian_logpdf
from lgm.samplers import Chain, SamplerKind
from lgm.spectral import DensePrior, OpCounter, eigendecompose_covariance, from_spectral, to_spectral
from lgm.targets import ConstantTarget, GaussianRegression

from conftest import full_basis_prior, make_singular_psd, make_spd, null_directions


def scaled_covariance_model(base_cov, prior_variance=100.0):
    """theta[0] is the log-amplitude of a fixed base covariance."""
    return HyperModel.from_covariance(base_cov, GaussianHyperPrior.diffuse(1, variance=prior_variance))


class TestGaussianHyperPrior:
    def test_logpdf_matches_scipy(self, rng):
        prior = GaussianHyperPrior(mean=np.array([1.0, -2.0]), variance=np.array([0.5, 3.0]))
        theta = rng.standard_normal(2)
        expected = stats.norm(1.0, math.sqrt(0.5)).logpdf(theta[0]) + stats.norm(-2.0, math.sqrt(3.0)).logpdf(theta[1])
        assert prior.logpdf(theta) == pytest.approx(expected, rel=1e-12)

    def test_diffuse_constructor(self):
        prior = GaussianHyperPrior.diffuse(3)
        np.testing.assert_array_equal(prior.mean, np.zeros(3))
        np.testing.assert_array_equal(prior.variance, np.full(3, 100.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianHyperPrior(mean=np.zeros(2), variance=np.array([1.0, -1.0]))


class TestEvidenceAndPriorDensity:
    def test_log_evidence_matches_dense(self, rng):
        cov = make_spd(6, rng)
        prior = eigendecompose_covariance(cov)
        delta = 0.7
        z = rng.standard_normal(6)
        expected = dense_gaussian_logpdf(z, np.zeros(6), cov + 0.5 * delta * np.eye(6))
        assert log_evidence(z, prior, delta) == pytest.approx(expected, rel=1e-10)

    def test_log_evidence_counts_one_matvec(self, rng):
        prior = eigendecompose_covariance(make_spd(4, rng))
        counter = OpCounter()
        log_evidence(rng.standard_normal(4), prior, 1.0, counter)
        assert counter.matvecs == 1

    def test_prior_state_logpdf_matches_dense(self, rng):
        cov = make_spd(5, rng)
        prior = eigendecompose_covariance(cov)
        x = rng.standard_normal(5)
        expected = dense_gaussian_logpdf(x, np.zeros(5), cov)
        assert prior_state_logpdf(prior, x, to_spectral(prior, x)) == pytest.approx(expected, rel=1e-10)

    def test_prior_state_logpdf_rejects_off_support_states(self, rng):
        prior = eigendecompose_covariance(make_singular_psd(4, 2, rng))
        on_range = from_spectral(prior, np.array([1.0, 1.0]))
        off_range = on_range + 0.5 * null_directions(prior)[:, 0]
        for p in (prior, full_basis_prior(prior)):
            assert prior_state_logpdf(p, off_range, to_spectral(p, off_range)) == -math.inf
            assert math.isfinite(prior_state_logpdf(p, on_range, to_spectral(p, on_range)))

    def test_log_evidence_on_a_singular_prior_matches_scipy(self, rng):
        # the two directions the range basis leaves out still carry variance delta/2
        cov = make_singular_psd(6, 4, rng)
        prior = eigendecompose_covariance(cov)
        assert prior.rank == 4
        delta = 0.7
        z = rng.standard_normal(6)
        expected = stats.multivariate_normal(np.zeros(6), cov + 0.5 * delta * np.eye(6)).logpdf(z)
        assert log_evidence(z, prior, delta) == pytest.approx(expected, rel=1e-10)
        assert log_evidence(z, full_basis_prior(prior), delta) == pytest.approx(expected, rel=1e-10)


class TestHyperChain:
    def make_setup(self, n=6, seed=21):
        gen = np.random.default_rng(seed)
        self.base_cov = make_spd(n, gen, spread=3.0)
        target = GaussianRegression(gen.standard_normal(n), 0.5)
        return scaled_covariance_model(self.base_cov), target

    def test_validation(self, rng):
        model, target = self.make_setup()
        with pytest.raises(ValueError, match="mode"):
            HyperChain(model, target, np.zeros(1), rng, mode="blocked")
        with pytest.raises(ValueError, match="kappa"):
            HyperChain(model, target, np.zeros(1), rng, kappa=-1.0)
        with pytest.raises(ValueError, match="shape"):
            HyperChain(model, target, np.zeros(2), rng)

    def test_target_dimension_must_match_the_prior(self, rng):
        model, _ = self.make_setup(n=5)
        with pytest.raises(ValueError, match="target dimension 1 does not match"):
            HyperChain(model, GaussianRegression(np.array([0.3]), 0.5), np.zeros(1), rng)

    @pytest.mark.parametrize("mode", ["joint", "gibbs"])
    def test_theta_moves_and_counts(self, mode):
        model, target = self.make_setup()
        chain = HyperChain(model, target, np.zeros(1), np.random.default_rng(5), mode=mode, kappa=0.25)
        for _ in range(60):
            chain.latent_step()
            chain.theta_step()
        assert chain.theta_step_count == 60
        assert 0 < chain.theta_acceptance_rate < 1
        # every theta proposal rescales the shared decomposition: no factorization
        assert chain.counter.factorizations == 0

    def test_covariance_rescales_the_shared_decomposition(self):
        model, _ = self.make_setup()
        at_zero = model.covariance(np.zeros(1))
        assert at_zero.basis is model.base.basis
        assert np.array_equal(at_zero.eigenvalues, model.base.eigenvalues)
        # e^theta overflows, underflows to zero, or is NaN; or e^theta is finite and
        # e^theta * gamma_max is not (gamma_max > 1 here)
        finite_scale_overflowing_eigenvalue = math.log(np.finfo(float).max) - 0.5 * math.log(model.base.eigenvalues[0])
        for theta in (800.0, -800.0, math.nan, finite_scale_overflowing_eigenvalue):
            with pytest.raises(ValueError, match="scale"):
                model.covariance(np.array([theta]))
        with pytest.raises(ValueError, match="one hyperparameter"):
            HyperModel(base=model.base, prior=GaussianHyperPrior.diffuse(2))

    @pytest.mark.parametrize("mode, matvecs", [("joint", 3), ("gibbs", 1)])
    def test_theta_move_matvecs(self, mode, matvecs):
        model, target = self.make_setup()
        chain = HyperChain(model, target, np.zeros(1), np.random.default_rng(5), mode=mode, kappa=0.25)
        for _ in range(20):
            before = chain.counter.matvecs
            chain.theta_step()
            assert chain.counter.matvecs - before == matvecs

    @pytest.mark.parametrize("mode, matvecs", [("joint", 2), ("gibbs", 0)])
    def test_theta_move_without_a_walk_skips_the_evidence_transform(self, mode, matvecs):
        model, target = self.make_setup()
        chain = HyperChain(model, target, np.zeros(1), np.random.default_rng(5), mode=mode, kappa=0.0)
        for _ in range(20):
            before = chain.counter.matvecs
            chain.theta_step()
            assert chain.counter.matvecs - before == matvecs

    @pytest.mark.parametrize("mode", ["joint", "gibbs"])
    def test_unrepresentable_scale_is_rejected(self, mode, caplog):
        """A theta whose e^theta overflows or underflows to zero is a rejected
        proposal, not an error, and leaves the chain where it was."""
        model, target = self.make_setup()
        chain = HyperChain(model, target, np.zeros(1), np.random.default_rng(3), mode=mode, kappa=1e6)
        overflows = underflows = 0
        with caplog.at_level(logging.WARNING, logger="lgm.hyper"):
            for _ in range(20):
                before = (chain.theta, chain.prior, chain.ops, chain.state.x, chain.state.f_x, chain.state.grad_x)
                caplog.clear()
                result = chain.theta_step()
                proposal = float(result.theta_proposal[0])
                if -745.2 < proposal < 709.8:
                    continue
                overflows += proposal > 0
                underflows += proposal < 0
                assert not result.accepted and result.theta_log_ratio == -math.inf
                after = (chain.theta, chain.prior, chain.ops, chain.state.x, chain.state.f_x, chain.state.grad_x)
                assert all(a is b for a, b in zip(after, before))
                assert "rejecting hyperparameter proposal" in caplog.text
        assert overflows and underflows

    def test_degenerate_theta_move_matches_plain_latent_kernel(self):
        """With the theta leg disabled the joint move must reproduce the
        latent kernel's decisions bitwise on a shared random stream."""
        model, target = self.make_setup()
        delta = 0.8

        plain = Chain(
            SamplerKind.AGRAD_Z,
            eigendecompose_covariance(self.base_cov),
            target,
            np.random.default_rng(77),
            delta=delta,
        )
        hyper = HyperChain(model, target, np.zeros(1), np.random.default_rng(77), mode="joint", delta=delta, kappa=0.0)

        for _ in range(300):
            plain_result = plain.step()
            hyper_result = hyper.theta_step()
            assert hyper_result.accepted == plain_result.accepted
            assert np.array_equal(hyper.state.x, plain.state.x)
        np.testing.assert_array_equal(hyper.theta, np.zeros(1))

    def test_joint_move_promotes_covariance_on_accept(self):
        model, target = self.make_setup()
        chain = HyperChain(model, target, np.zeros(1), np.random.default_rng(9), mode="joint", kappa=0.5)
        moved = False
        for _ in range(100):
            result = chain.theta_step()
            if result.accepted and not np.array_equal(result.theta_proposal, np.zeros(1)):
                moved = True
                expected = math.exp(chain.theta[0]) * self.base_cov
                recon = (chain.prior.basis * chain.prior.eigenvalues) @ chain.prior.basis.T
                np.testing.assert_allclose(recon, expected, atol=1e-8)
                break
        assert moved

    def test_gibbs_move_keeps_latent_state(self):
        model, target = self.make_setup()
        chain = HyperChain(model, target, np.zeros(1), np.random.default_rng(11), mode="gibbs", kappa=0.5)
        x_before = chain.state.x.copy()
        for _ in range(20):
            chain.theta_step()
        np.testing.assert_array_equal(chain.state.x, x_before)

    def test_gibbs_move_on_a_singular_prior_counts_its_one_support_check(self, monkeypatch):
        # one U^T x and one rebuilt range component serve both densities; every transform is counted
        gen = np.random.default_rng(23)
        model = scaled_covariance_model(make_singular_psd(6, 4, gen))
        target = GaussianRegression(gen.standard_normal(6), 0.5)
        chain = HyperChain(model, target, np.zeros(1), np.random.default_rng(5), mode="gibbs", kappa=0.25)
        calls = []
        for name in ("transform", "inverse_transform"):
            method = getattr(DensePrior, name)
            monkeypatch.setattr(DensePrior, name, lambda self, v, method=method: calls.append(v) or method(self, v))
        for _ in range(20):
            old_prior, old_theta = chain.prior, chain.theta
            before, calls_before = chain.counter.matvecs, len(calls)
            result = chain.theta_step()
            assert chain.counter.matvecs - before == len(calls) - calls_before == 2
            x = chain.state.x
            new_prior = model.covariance(result.theta_proposal)
            expected = (
                prior_state_logpdf(new_prior, x, to_spectral(new_prior, x))
                - prior_state_logpdf(old_prior, x, to_spectral(old_prior, x))
                + model.prior.logpdf(result.theta_proposal)
                - model.prior.logpdf(old_theta)
            )
            assert result.theta_log_ratio == pytest.approx(expected, rel=1e-12)
        assert 0 < chain.theta_acceptance_rate < 1


class TestRunHyperChain:
    def make_args(self, seed=31):
        gen = np.random.default_rng(seed)
        base_cov = make_spd(5, gen, spread=2.0)
        target = GaussianRegression(gen.standard_normal(5), 0.4)
        return scaled_covariance_model(base_cov), target

    @pytest.mark.parametrize("mode", ["joint", "gibbs"])
    def test_output_shapes(self, mode):
        model, target = self.make_args()
        result = run_hyper_chain(
            model, target, np.zeros(1), np.random.default_rng(0),
            mode=mode, burn_in=300, collect=200, latent_steps_per_move=3,
        )
        assert result.theta_samples.shape == (200, 1)
        assert result.x_samples.shape == (200, 5)
        assert result.delta > 0
        assert 0 <= result.theta_acceptance_rate <= 1
        assert result.theta_samples.std() > 0

    def test_adaptation_freezes_after_burn_in(self):
        model, target = self.make_args()
        result = run_hyper_chain(
            model, target, np.zeros(1), np.random.default_rng(1),
            mode="joint", burn_in=500, collect=100,
        )
        assert 0.2 < result.latent_acceptance_rate < 0.9

    def test_fixed_theta_mode(self):
        model, target = self.make_args()
        result = run_hyper_chain(
            model, target, np.array([0.3]), np.random.default_rng(2),
            mode="joint", burn_in=200, collect=50, latent_steps_per_move=None,
        )
        np.testing.assert_array_equal(result.theta_samples, np.full((50, 1), 0.3))

    def test_validation(self):
        model, target = self.make_args()
        with pytest.raises(ValueError, match="burn_in"):
            run_hyper_chain(model, target, np.zeros(1), np.random.default_rng(0), burn_in=10, collect=10)
        with pytest.raises(ValueError, match="collect"):
            run_hyper_chain(model, target, np.zeros(1), np.random.default_rng(0), burn_in=200, collect=0)
