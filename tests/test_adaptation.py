"""Step size controller tests: update rule, batching, freezing, tuning."""

import math

import numpy as np
import pytest

from lgm.adaptation import (
    AdaptState,
    BASELINE_TARGET_RATE,
    GRADIENT_TARGET_RATE,
    adapt_step,
    default_target_rate,
    tune_and_freeze,
)
from lgm.samplers import Chain, SamplerKind
from lgm.spectral import eigendecompose_covariance
from lgm.targets import ConstantTarget, GaussianRegression

from conftest import make_spd


class TestAdaptState:
    def test_delta_is_exp_of_log_delta(self):
        adapt = AdaptState(log_delta=math.log(0.4), target_rate=0.55)
        assert adapt.delta == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ValueError, match="target_rate"):
            AdaptState(log_delta=0.0, target_rate=1.5)
        with pytest.raises(ValueError, match="window"):
            AdaptState(log_delta=0.0, target_rate=0.5, window=0)

    def test_single_update_arithmetic(self):
        adapt = AdaptState(log_delta=0.0, target_rate=0.55, gain=2.0)
        adapt_step(adapt, True)
        assert adapt.log_delta == pytest.approx(2.0 * (1.0 - 0.55))
        adapt_step(adapt, False)
        assert adapt.log_delta == pytest.approx(2.0 * 0.45 + 2.0 * 2 ** (-0.6) * (0.0 - 0.55))

    def test_acceptance_raises_step_size_rejection_lowers_it(self):
        up = AdaptState(log_delta=0.0, target_rate=0.5)
        adapt_step(up, True)
        assert up.log_delta > 0
        down = AdaptState(log_delta=0.0, target_rate=0.5)
        adapt_step(down, False)
        assert down.log_delta < 0

    def test_window_batches_observations(self):
        adapt = AdaptState(log_delta=0.0, target_rate=0.5, window=4, gain=1.0)
        for accepted in (True, True, False):
            adapt_step(adapt, accepted)
            assert adapt.log_delta == 0.0  # no update until the window fills
        adapt_step(adapt, True)
        assert adapt.log_delta == pytest.approx(0.75 - 0.5)
        assert adapt.iteration == 1

    def test_frozen_controller_rejects_updates(self):
        adapt = AdaptState(log_delta=0.0, target_rate=0.5, frozen=True)
        with pytest.raises(ValueError, match="frozen"):
            adapt_step(adapt, True)

    def test_converges_on_synthetic_acceptance_curve(self):
        # accept with probability 1/(1+delta); the 0.25 target sits at delta=3
        rng = np.random.default_rng(0)
        adapt = AdaptState(log_delta=0.0, target_rate=0.25)
        for _ in range(6000):
            accepted = rng.random() < 1.0 / (1.0 + adapt.delta)
            adapt_step(adapt, accepted)
        assert 2.2 < adapt.delta < 4.0


class TestTargetRates:
    def test_gradient_kernels_target_the_high_band(self):
        for kind in (SamplerKind.AGRAD_Z, SamplerKind.AGRAD_U, SamplerKind.MGRAD,
                     SamplerKind.PCNL, SamplerKind.PMALA):
            assert default_target_rate(kind) == GRADIENT_TARGET_RATE

    def test_baselines_target_the_low_band(self):
        assert default_target_rate(SamplerKind.PCN) == BASELINE_TARGET_RATE
        assert default_target_rate("ellipt") == BASELINE_TARGET_RATE


class TestTuneAndFreeze:
    def make_conjugate_chain(self, kind, seed=0, n=20, sigma2=0.5):
        gen = np.random.default_rng(99)
        cov = make_spd(n, gen, spread=5.0)
        prior = eigendecompose_covariance(cov)
        target = GaussianRegression(gen.standard_normal(n), sigma2)
        return Chain(kind, prior, target, np.random.default_rng(seed))

    def test_reaches_target_band(self):
        chain = self.make_conjugate_chain(SamplerKind.MGRAD)
        result = tune_and_freeze(chain, burn_in=3000)
        assert result.delta == chain.delta
        tail_rate = result.acceptance_trace[-1000:].mean()
        assert 0.40 < tail_rate < 0.70
        assert result.warning is None

    def test_step_size_frozen_after_tuning(self):
        chain = self.make_conjugate_chain(SamplerKind.AGRAD_Z)
        result = tune_and_freeze(chain, burn_in=500)
        frozen = chain.delta
        chain.run(100)
        assert chain.delta == frozen
        assert result.acceptance_trace.shape == (500,)

    def test_elliptical_slice_has_no_step_size(self):
        chain = self.make_conjugate_chain(SamplerKind.ELLIPT)
        result = tune_and_freeze(chain, burn_in=200)
        assert result.delta is None
        assert result.acceptance_trace.mean() == 1.0
        assert result.warning is None  # all-accepted is normal for slice moves

    def test_short_burn_in_rejected(self):
        chain = self.make_conjugate_chain(SamplerKind.PCN)
        with pytest.raises(ValueError, match="burn_in"):
            tune_and_freeze(chain, burn_in=50)

    def test_untunable_chain_flagged(self, rng):
        # a flat likelihood accepts every reversible proposal, so the rate
        # pins at 1 no matter how large the controller pushes delta
        prior = eigendecompose_covariance(make_spd(4, rng))
        chain = Chain(SamplerKind.PCN, prior, ConstantTarget(4), np.random.default_rng(1))
        result = tune_and_freeze(chain, burn_in=200)
        assert result.warning is not None
        assert "untunable" in result.warning

    def test_custom_controller_honored(self):
        chain = self.make_conjugate_chain(SamplerKind.MGRAD, seed=3)
        adapt = AdaptState(log_delta=math.log(chain.delta), target_rate=0.55, window=25)
        result = tune_and_freeze(chain, burn_in=2000, adapt=adapt)
        assert adapt.frozen
        assert adapt.iteration == 2000 // 25
        assert result.delta == pytest.approx(adapt.delta)
