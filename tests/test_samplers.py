"""Transition kernel tests: acceptance law, cache coherence, invariances."""

import math

import numpy as np
import pytest

from lgm.harness import simulate_dataset
from lgm.samplers import (
    Chain,
    DEFAULT_INITIAL_DELTA,
    GRADIENT_KINDS,
    MATVEC_BUDGET,
    SamplerKind,
    draw_noised_gradient_aux,
    init_chain_state,
    mh_accept,
    propose_given_noised_gradient_aux,
)
from lgm.spectral import OpCounter, TorusPrior, build_delta_operators, eigendecompose_covariance, from_spectral
from lgm.targets import BernoulliLogit, ConstantTarget, GaussianRegression, GridKernel, TargetModel

from conftest import check_state_coherence, full_basis_prior, make_singular_psd, make_spd, null_directions

ALL_KINDS = list(SamplerKind)
MH_KINDS = [k for k in ALL_KINDS if k is not SamplerKind.ELLIPT]


def make_chain(kind, rng, n=6, target=None, cov=None, **kwargs):
    cov = cov if cov is not None else make_spd(n, np.random.default_rng(7))
    prior = eigendecompose_covariance(cov)
    if target is None:
        target = BernoulliLogit(np.arange(n) % 2)
    return Chain(kind, prior, target, rng, **kwargs)


class TestMhAccept:
    def test_always_accepts_nonnegative_ratio(self, rng):
        assert all(mh_accept(0.0, rng) for _ in range(100))
        assert all(mh_accept(5.0, rng) for _ in range(100))

    def test_rejects_hopeless_ratio(self, rng):
        assert not any(mh_accept(-800.0, rng) for _ in range(100))

    def test_acceptance_frequency_matches_ratio(self, rng):
        log_ratio = math.log(0.3)
        n = 40_000
        hits = sum(mh_accept(log_ratio, rng) for _ in range(n))
        se = math.sqrt(0.3 * 0.7 / n)
        assert abs(hits / n - 0.3) < 4 * se

    def test_nonfinite_ratios_rejected(self, rng):
        assert not mh_accept(float("nan"), rng)
        assert not mh_accept(float("inf"), rng)
        # -inf is a legitimate "certain reject"
        assert not mh_accept(float("-inf"), rng)


class TestInitChainState:
    def test_caches_populated_per_kind(self, rng):
        prior = eigendecompose_covariance(make_spd(5, rng))
        target = BernoulliLogit(np.array([1, 0, 1, 0, 1]))
        ops = build_delta_operators(prior, 1.0)
        x0 = rng.standard_normal(5)

        state = init_chain_state(SamplerKind.PCN, x0, prior, ops, target)
        assert state.ux is None and state.ugrad_x is None

        state = init_chain_state(SamplerKind.PCNL, x0, prior, ops, target)
        assert state.ux is None and state.ugrad_x is not None

        state = init_chain_state(SamplerKind.MGRAD, x0, prior, ops, target)
        assert state.ux is not None and state.prop_mean_spec is not None

        state = init_chain_state(SamplerKind.PMALA, x0, prior, ops, target)
        assert state.ux is not None and state.prop_mean_spec is None

    def test_shape_mismatch_rejected(self, rng):
        prior = eigendecompose_covariance(make_spd(4, rng))
        target = ConstantTarget(4)
        with pytest.raises(ValueError, match="shape"):
            init_chain_state(SamplerKind.PCN, np.zeros(3), prior, None, target)

    def test_nonfinite_start_rejected(self, rng):
        prior = eigendecompose_covariance(make_spd(2, rng))
        target = GaussianRegression(np.zeros(2), 1.0)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            init_chain_state(SamplerKind.PCN, np.array([1e300, 0.0]), prior, None, target)


class TestStateCoherence:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_caches_stay_coherent_through_many_steps(self, kind):
        rng = np.random.default_rng(3)
        chain = make_chain(kind, rng)
        chain.run(300)
        check_state_coherence(chain)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_caches_coherent_after_step_size_change(self, kind):
        rng = np.random.default_rng(4)
        chain = make_chain(kind, rng)
        chain.run(50)
        chain.set_delta(0.2)
        chain.run(50)
        check_state_coherence(chain)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_torus_caches_stay_coherent(self, kind):
        # a 4 x 4 grid embedded in an 8 x 8 torus: FFT transforms, eigenvalues in FFT order
        prior = eigendecompose_covariance(GridKernel(4, 1.91, 1.0 / 33.0, 66.0))
        assert isinstance(prior, TorusPrior)
        target = BernoulliLogit(np.arange(prior.observed_dimension) % 2)
        chain = Chain(kind, prior, target, np.random.default_rng(3))
        chain.run(150)
        chain.set_delta(0.2)
        chain.run(150)
        check_state_coherence(chain)

    def test_detects_corrupted_cache(self):
        rng = np.random.default_rng(5)
        chain = make_chain(SamplerKind.MGRAD, rng)
        chain.run(10)
        chain.state.ugrad_x = chain.state.ugrad_x + 0.1
        with pytest.raises(AssertionError, match="stale"):
            check_state_coherence(chain)


class HalfSpaceTarget(TargetModel):
    """f(x) = -|x|^2 / 2, broken on the half-space x[0] > 0.

    ``broken="value"`` makes f = -inf there; ``broken="gradient"`` keeps f
    finite but makes the gradient NaN.  Counts ``evaluate`` calls only;
    ``log_likelihood`` bypasses ``evaluate``, as in the library's models.
    """

    def __init__(self, dimension, broken):
        self.dimension = dimension
        self.broken = broken
        self.evaluate_calls = 0

    def _value_and_gradient(self, x):
        f, g = -0.5 * float(x @ x), -x
        if self.broken is not None and x[0] > 0.0:
            if self.broken == "value":
                f = -math.inf
            else:
                g = np.full_like(x, np.nan)
        return f, g

    def evaluate(self, x):
        self.evaluate_calls += 1
        return self._value_and_gradient(x)

    def log_likelihood(self, x):
        return self._value_and_gradient(x)[0]


def check_nonfinite_gradient_rejected_like_nonfinite_value(kind):
    """Run ``kind`` on the HalfSpaceTarget broken in value and in gradient, from one seed.

    The two chains must agree step for step, never hold a non-finite
    gradient, reach the broken half-space with some proposal, and move.
    """
    runs = {}
    for broken in ("value", "gradient"):
        target = HalfSpaceTarget(6, broken)
        chain = make_chain(kind, np.random.default_rng(22), target=target, x0=-np.ones(6), delta=0.5)
        results = []
        for _ in range(300):
            results.append(chain.step())
            assert np.isfinite(chain.state.grad_x).all()
        runs[broken] = (chain.state.x, [r.accepted for r in results], [r.proposal[0] > 0.0 for r in results])
    np.testing.assert_array_equal(runs["value"][0], runs["gradient"][0])
    assert runs["value"][1] == runs["gradient"][1]
    assert any(runs["gradient"][2]), "no proposal reached the broken half-space"
    assert any(runs["gradient"][1]), "chain never moved"


@pytest.mark.parametrize("kind", sorted(GRADIENT_KINDS, key=lambda k: k.value))
def test_gradient_kernel_rejects_nonfinite_gradient_like_nonfinite_value(kind):
    # A gradient kernel reads grad f at its proposal for the acceptance
    # ratio: a NaN there must reject, after the same accept draw, as f = -inf.
    check_nonfinite_gradient_rejected_like_nonfinite_value(kind)


class TestValueOnlyKernels:
    """pCN and Ellipt evaluate f alone at proposals; grad f only where they move."""

    @pytest.mark.parametrize("kind", [SamplerKind.PCN, SamplerKind.ELLIPT])
    def test_gradient_computed_once_per_accepted_state(self, kind):
        target = HalfSpaceTarget(6, broken=None)
        chain = make_chain(kind, np.random.default_rng(21), target=target, x0=-np.ones(6))
        chain.run(200)
        # one call at initialization, then one per accepted state
        assert target.evaluate_calls == 1 + chain.state.accept_count
        check_state_coherence(chain)

    def test_pcn_rejects_nonfinite_gradient_like_nonfinite_value(self):
        # A finite f with a NaN gradient must be rejected after the same
        # accept draw as a proposal whose f is -inf, so both chains coincide.
        check_nonfinite_gradient_rejected_like_nonfinite_value(SamplerKind.PCN)

    def test_ellipt_shrinks_past_a_nonfinite_gradient(self):
        # a slice point whose gradient is NaN counts as off the slice, as pCN
        # rejects it: the step shrinks on and never ends on a NaN gradient
        target = HalfSpaceTarget(6, "gradient")
        chain = make_chain(SamplerKind.ELLIPT, np.random.default_rng(23), target=target, x0=-np.ones(6))
        reached = 0
        for _ in range(300):
            calls = target.evaluate_calls
            chain.step()
            assert np.isfinite(chain.state.grad_x).all()
            assert chain.state.x[0] <= 0.0
            # more gradient passes than the accepted point's: a slice point on
            # the broken half-space was seen and passed over
            reached += target.evaluate_calls - calls > 1
        assert reached > 0, "no slice point reached the broken half-space"
        check_state_coherence(chain)


class ShrinkByShrinkRegression(GaussianRegression):
    """GaussianRegression without its closed form: Ellipt makes one likelihood pass per shrink."""

    def on_ellipse(self, x, nu):
        return None


def test_ellipt_closed_form_shrinks_decide_as_likelihood_passes_do():
    # On the benchmark's n = 200 regression data every slice comparison of
    # the O(1) closed form agrees with the likelihood pass: the chains are
    # bit-identical, and only the pass-per-shrink chain counts its shrinks.
    bundle = simulate_dataset("regression", {"n": 200, "sigma2": 0.1, "seed": 2026})
    prior = eigendecompose_covariance(bundle.covariance)
    runs = []
    for target in (bundle.target, ShrinkByShrinkRegression(bundle.target.y, bundle.target.noise_variance)):
        chain = Chain(SamplerKind.ELLIPT, prior, target, np.random.default_rng(31))
        xs, fs = [], []
        for _ in range(2000):
            chain.step()
            xs.append(chain.state.x)
            fs.append(chain.state.f_x)
        runs.append((np.array(xs), np.array(fs), chain.state.likelihood_evals))
        check_state_coherence(chain)
    (closed_x, closed_f, closed_evals), (pass_x, pass_f, pass_evals) = runs
    np.testing.assert_array_equal(closed_x, pass_x)
    np.testing.assert_array_equal(closed_f, pass_f)
    assert closed_evals == 1  # the evaluation at x0
    assert pass_evals > 1 + 2000


class TestPriorExactness:
    """With a flat likelihood the prior must be invariant for every kernel."""

    PRIOR_REVERSIBLE = [
        SamplerKind.AGRAD_Z,
        SamplerKind.AGRAD_U,
        SamplerKind.MGRAD,
        SamplerKind.PCN,
        SamplerKind.PCNL,
    ]

    @pytest.mark.parametrize("kind", PRIOR_REVERSIBLE)
    def test_flat_likelihood_always_accepts(self, kind):
        # these proposals are reversible with respect to the prior, so the
        # ratio is identically zero when f vanishes
        rng = np.random.default_rng(6)
        chain = make_chain(kind, rng, target=ConstantTarget(6))
        accepted = chain.run(200)
        assert accepted == 200
        result = chain.step()
        assert result.log_ratio == pytest.approx(0.0, abs=1e-10)

    def test_flat_likelihood_pmala_still_rejects_sometimes(self):
        # the preconditioned Langevin discretization is not prior-reversible
        # at finite step size, so its ratio is genuinely negative at times
        rng = np.random.default_rng(7)
        chain = make_chain(SamplerKind.PMALA, rng, target=ConstantTarget(6), delta=1.0)
        accepted = chain.run(400)
        assert 0 < accepted < 400

    def test_elliptical_slice_never_rejects(self):
        rng = np.random.default_rng(8)
        chain = make_chain(SamplerKind.ELLIPT, rng)
        assert chain.run(200) == 200


class TestNullDirectionInvariance:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_null_prior_directions_never_excited(self, kind):
        rng = np.random.default_rng(9)
        cov = make_singular_psd(6, 4, np.random.default_rng(11))
        prior = eigendecompose_covariance(cov)
        target = BernoulliLogit(np.arange(6) % 2)
        chain = Chain(kind, prior, target, rng)
        chain.run(150)
        null = null_directions(prior)
        assert null.shape == (6, 2)
        assert np.abs(chain.state.x).max() > 0.1, "the chain must move for the check to mean anything"
        np.testing.assert_allclose(null.T @ chain.state.x, 0.0, atol=1e-13)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_range_basis_matches_a_square_basis_with_zero_eigenvalues(self, kind):
        # the rank-4 basis and the 6 x 6 basis that adds the two null directions
        # at eigenvalue 0 consume one random stream and make the same moves
        prior = eigendecompose_covariance(make_singular_psd(6, 4, np.random.default_rng(11)))
        square = full_basis_prior(prior)
        target = BernoulliLogit(np.arange(6) % 2)
        chains = [Chain(kind, p, target, np.random.default_rng(9), delta=0.3) for p in (prior, square)]
        for _ in range(200):
            steps = [chain.step() for chain in chains]
            assert steps[0].accepted == steps[1].accepted
            np.testing.assert_allclose(chains[0].state.x, chains[1].state.x, rtol=0, atol=1e-12)
        assert 0 < chains[0].state.accept_count
        if kind is not SamplerKind.ELLIPT:
            assert chains[0].state.accept_count < 200

    def test_pmala_refuses_a_start_off_the_range(self):
        prior = eigendecompose_covariance(make_singular_psd(6, 4, np.random.default_rng(11)))
        x0 = from_spectral(prior, np.ones(4)) + 0.5 * null_directions(prior)[:, 0]
        for p in (prior, full_basis_prior(prior)):
            with pytest.raises(ValueError, match="null direction"):
                Chain(SamplerKind.PMALA, p, BernoulliLogit(np.arange(6) % 2), np.random.default_rng(0), x0=x0)


class TestChainMechanics:
    def test_default_step_sizes(self, rng):
        for kind in MH_KINDS:
            chain = make_chain(kind, rng)
            assert chain.delta == DEFAULT_INITIAL_DELTA[kind]
        assert make_chain(SamplerKind.ELLIPT, rng).delta is None

    def test_dimension_mismatch_rejected(self, rng):
        prior = eigendecompose_covariance(make_spd(4, rng))
        with pytest.raises(ValueError, match="dimension"):
            Chain(SamplerKind.PCN, prior, ConstantTarget(5), rng)

    def test_sample_shape_and_thinning(self):
        rng = np.random.default_rng(10)
        chain = make_chain(SamplerKind.PCN, rng)
        before = chain.state.step_count
        samples = chain.sample(20, thin=3)
        assert samples.shape == (20, 6)
        assert chain.state.step_count - before == 60

    def test_sample_rejects_bad_thin(self, rng):
        with pytest.raises(ValueError, match="thin"):
            make_chain(SamplerKind.PCN, rng).sample(5, thin=0)

    def test_seeded_runs_reproduce(self):
        runs = []
        for _ in range(2):
            chain = make_chain(SamplerKind.MGRAD, np.random.default_rng(123))
            runs.append(chain.sample(30))
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_string_kind_accepted(self, rng):
        chain = make_chain("agrad-z", rng)
        assert chain.kind is SamplerKind.AGRAD_Z

    def test_likelihood_evals_one_per_mh_step(self):
        rng = np.random.default_rng(12)
        for kind in MH_KINDS:
            chain = make_chain(kind, rng)
            start = chain.state.likelihood_evals
            chain.run(25)
            assert chain.state.likelihood_evals - start == 25

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matvec_budget_exact(self, kind):
        rng = np.random.default_rng(13)
        counter = OpCounter()
        chain = make_chain(kind, rng, counter=counter)
        counter.reset()
        chain.run(40)
        assert counter.matvecs == 40 * MATVEC_BUDGET[kind]
        assert counter.factorizations == 0

    def test_gradient_kind_set(self):
        assert SamplerKind.MGRAD in GRADIENT_KINDS
        assert SamplerKind.PCN not in GRADIENT_KINDS
        assert SamplerKind.ELLIPT not in GRADIENT_KINDS


class TestAuxiliaryVariableDraw:
    def test_draw_centered_on_gradient_step(self):
        rng = np.random.default_rng(14)
        prior = eigendecompose_covariance(make_spd(4, rng))
        target = GaussianRegression(np.ones(4), 0.5)
        ops = build_delta_operators(prior, 0.8)
        state = init_chain_state(SamplerKind.AGRAD_Z, np.zeros(4), prior, ops, target)
        draws = np.array([draw_noised_gradient_aux(state, 0.8, rng) for _ in range(4000)])
        expected_mean = state.x + 0.4 * state.grad_x
        np.testing.assert_allclose(draws.mean(axis=0), expected_mean, atol=0.05)
        np.testing.assert_allclose(draws.var(axis=0), 0.4, atol=0.05)

    def test_proposal_given_aux_matches_spectral_moments(self):
        rng = np.random.default_rng(15)
        cov = make_spd(3, rng)
        prior = eigendecompose_covariance(cov)
        target = ConstantTarget(3)
        delta = 1.2
        ops = build_delta_operators(prior, delta)
        state = init_chain_state(SamplerKind.AGRAD_Z, np.zeros(3), prior, ops, target)
        z = np.array([0.3, -0.8, 0.5])
        ys = np.array(
            [propose_given_noised_gradient_aux(state, prior, ops, target, rng, z)[0] for _ in range(20000)]
        )
        a_dense = (prior.basis * ops.aux_var) @ prior.basis.T
        np.testing.assert_allclose(ys.mean(axis=0), (2.0 / delta) * a_dense @ z, atol=0.02)
        np.testing.assert_allclose(np.cov(ys.T), a_dense, atol=0.02)


class TestPosteriorMoments:
    @pytest.mark.parametrize("kind", [SamplerKind.MGRAD, SamplerKind.AGRAD_Z])
    def test_conjugate_posterior_recovered(self, kind):
        # small conjugate sanity run; the full grid of samplers and noise
        # levels lives in the acceptance suite
        rng = np.random.default_rng(16)
        cov = make_spd(4, np.random.default_rng(17), spread=3.0)
        prior = eigendecompose_covariance(cov)
        y = np.array([1.0, -0.5, 0.3, 0.8])
        sigma2 = 0.5
        target = GaussianRegression(y, sigma2)
        post_cov = np.linalg.inv(np.linalg.inv(cov) + np.eye(4) / sigma2)
        post_mean = post_cov @ y / sigma2

        chain = Chain(kind, prior, target, rng, delta=sigma2)
        chain.run(500)
        samples = chain.sample(20000)
        se = np.sqrt(np.diag(post_cov) / 2000)  # generous ESS floor of T/10
        np.testing.assert_array_less(np.abs(samples.mean(axis=0) - post_mean), 5 * se)
        np.testing.assert_allclose(samples.var(axis=0), np.diag(post_cov), rtol=0.15)
