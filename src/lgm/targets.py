"""Likelihood models and prior covariance kernels.

A target model exposes the log-likelihood term f(x) of the latent Gaussian
model pi(x) proportional to exp{f(x)} N(x | 0, C) together with its gradient.
Both are returned by a single ``evaluate`` call since every model here shares
intermediate quantities between the two.  ``log_likelihood`` is the
value-only path used by the gradient-free kernels; every model overrides it
with exactly the arithmetic of ``evaluate``, so the two agree bit for bit.

``on_ellipse(x, nu)`` lets elliptical slice sampling score the angles of
one ellipse x cos + nu sin without building a vector per angle.  It is None
by default.  ``GaussianRegression`` returns a closed form from six inner
products, which agrees with ``log_likelihood`` to rounding (not bit for
bit), so the sampler uses it only to decide whether an angle is on the
slice; the point it accepts is still scored by ``evaluate``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft
from scipy.special import expit, logsumexp


class TargetModel(ABC):
    """Log-likelihood f and gradient for a latent Gaussian model."""

    dimension: int

    @abstractmethod
    def evaluate(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Return (f(x), grad f(x))."""

    def log_likelihood(self, x: np.ndarray) -> float:
        """Return f(x) alone; must equal ``evaluate(x)[0]`` exactly."""
        return self.evaluate(x)[0]

    def on_ellipse(self, x: np.ndarray, nu: np.ndarray) -> Callable[[float, float], float] | None:
        """A function g with g(cos t, sin t) = f(x cos t + nu sin t) to rounding, or None.

        g must cost O(1) per call; a model with no such form returns None.
        """
        return None


class GaussianRegression(TargetModel):
    """Gaussian observations y_i ~ N(x_i, noise_variance)."""

    def __init__(self, y: np.ndarray, noise_variance: float):
        y = np.asarray(y, dtype=float)
        if y.ndim != 1:
            raise ValueError(f"y must be a vector, got shape {y.shape}")
        if noise_variance <= 0.0:
            raise ValueError(f"noise_variance must be positive, got {noise_variance!r}")
        self.y = y
        self.noise_variance = float(noise_variance)
        self.dimension = y.shape[0]
        self._const = -0.5 * self.dimension * np.log(2.0 * np.pi * self.noise_variance)

    def evaluate(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        resid = self.y - x
        f = self._const - 0.5 * float(resid @ resid) / self.noise_variance
        return f, resid / self.noise_variance

    def log_likelihood(self, x: np.ndarray) -> float:
        resid = self.y - x
        return self._const - 0.5 * float(resid @ resid) / self.noise_variance

    def on_ellipse(self, x: np.ndarray, nu: np.ndarray) -> Callable[[float, float], float]:
        # Anchored at x: y - (x cos + nu sin) = r + a x - sin nu with r = y - x
        # and a = 1 - cos, so angles near zero, where slice decisions are
        # closest, suffer no cancellation, and g(1, 0) equals f(x) exactly.
        r = self.y - x
        rr, rx, rnu = float(r @ r), float(r @ x), float(r @ nu)
        xx, xnu, nunu = float(x @ x), float(x @ nu), float(nu @ nu)
        const, noise_variance = self._const, self.noise_variance

        def g(cos: float, sin: float) -> float:
            a = 1.0 - cos
            quad = rr + 2.0 * a * rx - 2.0 * sin * rnu + a * a * xx - 2.0 * a * sin * xnu + sin * sin * nunu
            return const - 0.5 * quad / noise_variance

        return g


class BernoulliLogit(TargetModel):
    """Binary labels y_i ~ Bernoulli(sigmoid(x_i)).

    Log terms are computed through log(sigmoid(.)) = -log(1 + exp(-.)) so
    that large |x_i| never overflows.
    """

    def __init__(self, labels: np.ndarray):
        labels = np.asarray(labels, dtype=float)
        if labels.ndim != 1:
            raise ValueError(f"labels must be a vector, got shape {labels.shape}")
        if not np.isin(labels, (0.0, 1.0)).all():
            raise ValueError("labels must be 0/1")
        self.labels = labels
        self.dimension = labels.shape[0]

    def evaluate(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        # log sigmoid(x) = -logaddexp(0, -x); log(1 - sigmoid(x)) = -logaddexp(0, x)
        f = self.log_likelihood(x)
        return f, self.labels - expit(x)

    def log_likelihood(self, x: np.ndarray) -> float:
        return float(-(self.labels @ np.logaddexp(0.0, -x)) - ((1.0 - self.labels) @ np.logaddexp(0.0, x)))


class PoissonCounts(TargetModel):
    """Grid counts y_j ~ Poisson(exposure * exp(x_j + offset)).

    Models a log Gaussian Cox process on a regular grid: ``exposure`` is the
    cell area and ``offset`` the constant log-intensity shift.  Counts are
    stored flattened in row-major order.  The Poisson y! normalizer is
    dropped; it does not depend on x.
    """

    def __init__(self, counts: np.ndarray, exposure: float, offset: float):
        counts = np.asarray(counts, dtype=float)
        if counts.ndim == 2:
            counts = counts.reshape(-1)
        if counts.ndim != 1:
            raise ValueError(f"counts must be a vector or matrix, got shape {counts.shape}")
        if (counts < 0).any():
            raise ValueError("counts must be nonnegative")
        if not exposure > 0.0:
            raise ValueError(f"exposure must be positive, got {exposure!r}")
        self.counts = counts
        self.exposure = float(exposure)
        self.offset = float(offset)
        self.dimension = counts.shape[0]

    def evaluate(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        log_intensity = x + self.offset
        rate = self.exposure * np.exp(log_intensity)
        f = float(self.counts @ log_intensity - rate.sum())
        return f, self.counts - rate

    def log_likelihood(self, x: np.ndarray) -> float:
        log_intensity = x + self.offset
        return float(self.counts @ log_intensity - (self.exposure * np.exp(log_intensity)).sum())


class CategoricalSoftmax(TargetModel):
    """Multiclass labels y_i ~ Categorical(softmax over classes).

    The latent vector stacks one length-n block per class (class-major), so
    ``dimension`` is n_classes * n_points.  Entry (k, i) of the gradient is
    1{y_i = k} - softmax_k(x_:,i), flattened class-major to match.
    """

    def __init__(self, labels: np.ndarray, n_classes: int):
        labels = np.asarray(labels)
        if labels.ndim != 1:
            raise ValueError(f"labels must be a vector, got shape {labels.shape}")
        labels = labels.astype(int)
        if n_classes < 2:
            raise ValueError(f"n_classes must be at least 2, got {n_classes!r}")
        if labels.min() < 0 or labels.max() >= n_classes:
            raise ValueError("labels must lie in [0, n_classes)")
        self.labels = labels
        self.n_classes = int(n_classes)
        self.n_points = labels.shape[0]
        self.dimension = self.n_classes * self.n_points
        self._onehot = np.zeros((self.n_classes, self.n_points))
        self._onehot[labels, np.arange(self.n_points)] = 1.0

    def evaluate(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        scores = x.reshape(self.n_classes, self.n_points)
        lse = logsumexp(scores, axis=0)
        f = float(scores[self.labels, np.arange(self.n_points)].sum() - lse.sum())
        probs = np.exp(scores - lse)
        return f, (self._onehot - probs).reshape(-1)

    def log_likelihood(self, x: np.ndarray) -> float:
        scores = x.reshape(self.n_classes, self.n_points)
        return float(scores[self.labels, np.arange(self.n_points)].sum() - logsumexp(scores, axis=0).sum())


def squared_exponential_kernel(
    points: np.ndarray, variance: float = 1.0, lengthscale2: float = 1.0
) -> np.ndarray:
    """Squared-exponential covariance on input locations.

    c(s_i, s_j) = variance * exp(-||s_i - s_j||^2 / (2 * lengthscale2)).
    ``points`` is (n,) or (n, d).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if variance <= 0.0 or lengthscale2 <= 0.0:
        raise ValueError("variance and lengthscale2 must be positive")
    sq = np.sum(points**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * points @ points.T
    np.maximum(d2, 0.0, out=d2)
    return variance * np.exp(-0.5 * d2 / lengthscale2)


def grid_exponential_kernel(
    side: int, variance: float, beta: float, scale: float | None = None
) -> np.ndarray:
    """Exponential-decay covariance between cells of a side x side grid.

    k((i,j), (i',j')) = variance * exp(-dist((i,j),(i',j')) / (scale * beta))
    where dist is Euclidean in grid index units and ``scale`` defaults to the
    grid side, so that refining the grid keeps the physical correlation
    length fixed.  Cells are ordered row-major to match PoissonCounts.
    """
    if side < 1:
        raise ValueError(f"side must be at least 1, got {side!r}")
    if variance <= 0.0 or beta <= 0.0:
        raise ValueError("variance and beta must be positive")
    if scale is None:
        scale = float(side)
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    # C takes only side^2 values, one per offset (di, dj): build that table,
    # then gather C from it with one n^2 temporary.
    idx = np.arange(side)
    table = _exponential_decay(idx.astype(float), variance, scale * beta)
    gap = np.abs(idx[:, None] - idx[None, :])  # gap[i, i'] = |i - i'|
    rows = table[:, gap]  # rows[di, j, j'] = table[di, |j - j'|]
    n = side * side
    return rows[gap].transpose(0, 2, 1, 3).reshape(n, n)


def _exponential_decay(offsets: np.ndarray, variance: float, length: float) -> np.ndarray:
    """variance * exp(-sqrt(a^2 + b^2) / length) for every pair (a, b) of ``offsets``.

    The offsets are whole numbers, so their squares and sums are exact and
    every entry is the value the pairwise formula gives.
    """
    dist = np.sqrt(offsets[:, None] ** 2 + offsets[None, :] ** 2)
    return variance * np.exp(-dist / length)


@dataclass(frozen=True)
class GridKernel:
    """``grid_exponential_kernel(side, variance, beta, scale)`` as a description.

    ``matrix()`` builds the dense (side^2, side^2) covariance.
    ``torus_eigenvalues`` embeds the grid in a (2 side, 2 side) torus whose
    distances wrap around; the leading side x side block of the torus
    covariance is exactly ``matrix()``, because no two grid cells are more
    than side - 1 apart along an axis.
    """

    side: int
    variance: float
    beta: float
    scale: float

    def matrix(self) -> np.ndarray:
        return grid_exponential_kernel(self.side, self.variance, self.beta, self.scale)

    @cached_property
    def torus_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the circulant torus covariance, in ``fft2`` frequency order, flattened.

        They are the 2-D Fourier transform of the covariance of torus cell
        (0, 0) with every cell.  That row is symmetric under
        (i, j) -> (-i, -j), so its transform is real.  Some eigenvalues may
        be negative: the embedding is then not a covariance, and the caller
        must use the dense one.
        """
        t = 2 * self.side
        wrapped = np.minimum(np.arange(t), t - np.arange(t)).astype(float)
        row = _exponential_decay(wrapped, self.variance, self.scale * self.beta)
        eigenvalues = scipy.fft.fft2(row).real.reshape(-1).copy()
        eigenvalues.flags.writeable = False
        return eigenvalues
