"""Step size tuning: Robbins-Monro on log(delta) during burn-in, then freeze.

The controller drives the empirical acceptance rate toward a fixed target
(0.55 for gradient-informed kernels, 0.25 for pCN and for hyperparameter
proposals) with diminishing updates c * t^{-0.6} * (accept - target).  After
burn-in the step size never changes, so the collection phase is a fixed
Markov kernel.

``tune_and_freeze`` burns in every chain, fixed or theta, sweep by sweep
(``Chain.sweep``), and one stuck rule covers both.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .samplers import Chain, GRADIENT_KINDS, SamplerKind

logger = logging.getLogger(__name__)

GRADIENT_TARGET_RATE = 0.55
BASELINE_TARGET_RATE = 0.25
ADAPT_DECAY = 0.6
MIN_BURN_IN = 100


@dataclass
class AdaptState:
    """Robbins-Monro controller state for one chain's step size."""

    log_delta: float
    target_rate: float
    window: int = 1
    iteration: int = 0
    gain: float = 1.0
    frozen: bool = False
    _pending_accepts: int = 0
    _pending_count: int = 0

    def __post_init__(self):
        if not 0.0 < self.target_rate < 1.0:
            raise ValueError(f"target_rate must be in (0,1), got {self.target_rate!r}")
        if self.window < 1:
            raise ValueError(f"window must be at least 1, got {self.window!r}")

    @property
    def delta(self) -> float:
        return math.exp(self.log_delta)


def default_target_rate(kind: SamplerKind) -> float:
    return GRADIENT_TARGET_RATE if SamplerKind(kind) in GRADIENT_KINDS else BASELINE_TARGET_RATE


def adapt_step(adapt: AdaptState, accepted: bool) -> AdaptState:
    """Fold one acceptance indicator into the controller.

    Every ``window`` observations, moves log_delta by
    gain * t^{-ADAPT_DECAY} * (batch acceptance - target), where t counts
    updates.  A frozen controller takes no more updates: calling this on
    one raises ValueError.
    """
    if adapt.frozen:
        raise ValueError("adapt_step called on a frozen controller")
    adapt._pending_accepts += bool(accepted)
    adapt._pending_count += 1
    if adapt._pending_count < adapt.window:
        return adapt
    rate = adapt._pending_accepts / adapt._pending_count
    adapt._pending_accepts = 0
    adapt._pending_count = 0
    adapt.iteration += 1
    adapt.log_delta += adapt.gain * adapt.iteration ** (-ADAPT_DECAY) * (rate - adapt.target_rate)
    return adapt


@dataclass(frozen=True)
class TuneResult:
    """Outcome of a burn-in tuning run: delta and each sweep's share of accepted latent steps."""

    delta: float | None
    acceptance_trace: np.ndarray
    warning: str | None = None


def tune_and_freeze(chain: Chain, burn_in: int, adapt: AdaptState | None = None) -> TuneResult:
    """Run ``burn_in`` adapted sweeps, freeze delta, return the history.

    delta adapts after every latent acceptance; a HyperChain also adapts its
    kappa after every theta acceptance (``HyperChain.sweep``).  The
    elliptical slice kernel has no step size: its burn-in runs without
    adaptation and the returned delta is None.  A chain whose latent
    acceptance is stuck at 0 or 1 through the second half of burn-in is
    flagged with an "untunable" warning; the run still proceeds.
    """
    if burn_in < MIN_BURN_IN:
        raise ValueError(f"burn_in must be at least {MIN_BURN_IN}, got {burn_in!r}")

    tune = None
    if chain.kind is not SamplerKind.ELLIPT:
        if adapt is None:
            adapt = AdaptState(log_delta=math.log(chain.delta), target_rate=default_target_rate(chain.kind))

        def tune(accepted: bool) -> None:
            adapt_step(adapt, accepted)
            if adapt.delta != chain.delta:
                chain.set_delta(adapt.delta)

    trace = np.array([chain.sweep(tune) for _ in range(burn_in)], dtype=float)
    if tune is not None:
        adapt.frozen = True
    return TuneResult(delta=chain.delta, acceptance_trace=trace, warning=_stuck_warning(chain, trace))


def _stuck_warning(chain: Chain, trace: np.ndarray) -> str | None:
    tail = trace[trace.size // 2 :]
    if tail.size == 0 or (0 < tail.mean() < 1):
        return None
    if chain.kind is SamplerKind.ELLIPT and tail.mean() == 1:
        return None  # slice sampling always moves; all-accepted is its normal state
    warning = (
        f"untunable: {chain.kind.value} acceptance stuck at {tail.mean():.0f} "
        f"through the second half of burn-in"
    )
    logger.warning("%s", warning)
    return warning
