"""Correctness checks of the benchmark, computed apart from the library.

Every reference here is built from the workload's inputs (the observations
the harness simulated, and the model's constants) with dense linear algebra
of its own: the covariance kernels, the exact Gaussian posterior, the
likelihood gradient and the theta marginal likelihood are not taken from
``lgm``.

A check reduces samples to z-scores along a few projections: the mean of
the field, its middle coordinate, the leading eigenvector of the relevant
covariance, and one random unit direction drawn from the benchmark seed.
It passes when every |z| is at most Z_BOUND.  Standard errors rest on ESS
estimated by ``ess_geyer`` (see ``chain_ess``).
"""

from __future__ import annotations

import math

import numpy as np

from lgm.diagnostics import ess_geyer

# A z bound for 4 projections of up to 14 chains whose standard errors rest
# on estimated ESS, itself noisy for the slow kernels (worst |z| seen on the
# workloads: see README.md).
Z_BOUND = 5.0


def squared_exponential(inputs: np.ndarray, amplitude: float, lengthscale2: float) -> np.ndarray:
    diff = inputs[:, None] - inputs[None, :]
    return amplitude * np.exp(-0.5 * diff**2 / lengthscale2)


def grid_exponential(side: int, amplitude: float, beta: float, scale: float) -> np.ndarray:
    """amplitude * exp(-distance / (scale * beta)) between the cells of a row-major grid."""
    row, col = np.divmod(np.arange(side * side), side)
    dist = np.hypot(row[:, None] - row[None, :], col[:, None] - col[None, :])
    return amplitude * np.exp(-dist / (scale * beta))


def directions(cov: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Unit projections (k, n): field mean, middle coordinate, top eigenvector, random."""
    n = cov.shape[0]
    middle = np.zeros(n)
    middle[n // 2] = 1.0
    top = np.linalg.eigh(cov)[1][:, -1]
    random = rng.standard_normal(n)
    return np.stack([np.full(n, 1.0 / math.sqrt(n)), middle, top, random / np.linalg.norm(random)])


def _ess(series: np.ndarray) -> float:
    return ess_geyer(series) if series.max() > series.min() else float(series.shape[0])


def chain_ess(series: np.ndarray, ess_min: float) -> float:
    """The ESS every projection of one chain is scored with.

    It is the smallest of the projections' own ESS and the chain's ESS
    over all coordinates (``RunReport.ess_min``).  A projection of a slow
    chain can carry a drift that its own autocorrelations do not show: an
    elliptical slice chain of min ESS 13 gave ESS 127 on one coordinate
    whose ten batch means all lay below the exact mean.
    """
    return min(ess_min, *(_ess(column) for column in series.T))


def mean_zero_z(series: np.ndarray, ess_min: float) -> np.ndarray:
    """z of each column's mean against zero."""
    sd = series.std(axis=0, ddof=1)
    z = np.zeros(series.shape[1])
    z[sd > 0] = series.mean(axis=0)[sd > 0] / (sd[sd > 0] / math.sqrt(chain_ess(series, ess_min)))
    return z


class GaussianPosterior:
    """Exact posterior of GP regression: mean C(C+s2 I)^-1 y, covariance C - C(C+s2 I)^-1 C."""

    def __init__(self, cov: np.ndarray, y: np.ndarray, sigma2: float, rng: np.random.Generator):
        gain = np.linalg.solve(cov + sigma2 * np.eye(cov.shape[0]), cov).T  # C (C + s2 I)^-1
        self.mean = gain @ y
        self.cov = cov - gain @ cov
        self.dirs = directions(self.cov, rng)

    def z(self, samples: np.ndarray, ess_min: float) -> np.ndarray:
        proj = samples @ self.dirs.T
        var = np.einsum("kn,nm,km->k", self.dirs, self.cov, self.dirs)
        return (proj.mean(axis=0) - self.dirs @ self.mean) / np.sqrt(var / chain_ess(proj, ess_min))


class CoxStein:
    """Stein identity of the grid Cox posterior: E[x] = C E[grad f(x)].

    grad f(x) = counts - exposure * exp(x + offset), so along a direction a
    the series a.x - (C a).grad f(x) has mean zero under the posterior.
    """

    def __init__(self, cov, counts, exposure: float, offset: float, rng: np.random.Generator):
        self.counts = np.asarray(counts, dtype=float).reshape(-1)
        self.exposure = exposure
        self.offset = offset
        self.dirs = directions(cov, rng)
        self.cov_dirs = self.dirs @ cov

    def z(self, samples: np.ndarray, ess_min: float) -> np.ndarray:
        grad = self.counts - self.exposure * np.exp(samples + self.offset)
        return mean_zero_z(samples @ self.dirs.T - grad @ self.cov_dirs.T, ess_min)


def theta_posterior_moments(y, base_cov, sigma2: float, prior_variance: float) -> tuple[float, float]:
    """Mean and s.d. of theta under log N(y | 0, e^theta C0 + s2 I) + log N(theta | 0, v), by quadrature."""
    lam, basis = np.linalg.eigh(base_cov)
    proj2 = (basis.T @ y) ** 2
    grid = np.linspace(-12.0, 12.0, 24001)
    var = np.exp(grid)[:, None] * lam[None, :] + sigma2
    logp = -0.5 * (np.log(var) + proj2 / var).sum(axis=1) - 0.5 * grid**2 / prior_variance
    w = np.exp(logp - logp.max())
    w /= w.sum()
    mean = float(w @ grid)
    return mean, math.sqrt(float(w @ (grid - mean) ** 2))


def theta_mean_z(theta: np.ndarray, mean: float, sd: float) -> float:
    return (float(theta.mean()) - mean) / (sd / math.sqrt(_ess(theta)))


def theta_score_z(theta: np.ndarray, x: np.ndarray, base_cov, prior_variance: float) -> float:
    """z of E[d/dtheta log pi(x, theta)] = 0 for C(theta) = e^theta C0 and a N(0, v) prior on theta.

    The score is -n/2 + e^-theta x' C0^-1 x / 2 - theta / v.
    """
    chol = np.linalg.cholesky(base_cov)
    whitened = np.linalg.solve(chol, x.T)
    quad = np.einsum("nt,nt->t", whitened, whitened)
    score = -0.5 * x.shape[1] + 0.5 * np.exp(-theta) * quad - theta / prior_variance
    return float(mean_zero_z(score[:, None], math.inf)[0])
