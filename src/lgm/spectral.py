"""Shared spectral machinery for latent Gaussian model samplers.

Every sampler in this package targets a density of the form

    pi(x) proportional to exp{f(x)} N(x | 0, C)

and works in an orthonormal eigenbasis of the prior covariance
C = U diag(gamma) U^T.  A prior is its eigenvalues plus the two basis
transforms U^T v and U w; each transition costs a fixed number of them plus
O(n) diagonal arithmetic.  Changing the step size delta never touches the
basis: it builds new ``DeltaOperators``, whose diagonal vectors are
``cached_property``s, computed only once a kernel reads them.

Spectral vectors have the prior's ``rank`` r entries, one per basis column,
and the field has ``dimension`` n.  Two priors implement the transforms.
``DensePrior`` keeps the r eigenvectors of one O(n^3) eigendecomposition
that span the prior's range, so each transform is an O(n r) matvec and
every diagonal has r entries; the n - r null directions carry no prior
mass and no kernel moves along them.  ``TorusPrior`` embeds a grid
covariance in a circulant one on a torus of twice the side, whose
eigenbasis is the 2-D Hartley transform: no factorization, r = n, and each
transform is an O(n log n) FFT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.fft

from .targets import GridKernel

# Eigenvalues of a PSD covariance may come out of LAPACK slightly negative.
# Values in [EIG_CLAMP_FLOOR * gamma_max, 0) are clamped to zero; anything
# below -EIG_NEGATIVE_TOL * gamma_max means the input was not PSD.
EIG_CLAMP_FLOOR = 1e-10
EIG_NEGATIVE_TOL = 1e-6

RECONSTRUCTION_RTOL = 1e-8
ORTHONORMALITY_ATOL = 1e-10

# Eigenvalues at or below NULL_REL_TOL * gamma_max are treated as exact
# zeros by the pseudo-inverse prior density.
NULL_REL_TOL = 1e-10


@dataclass
class OpCounter:
    """Running totals of the expensive linear algebra a chain performs.

    ``matvecs`` counts basis transforms (``to_spectral``/``from_spectral``
    calls), ``factorizations`` counts prior decompositions.
    Fixed-hyperparameter runs must show zero factorizations after
    initialization.
    """

    matvecs: int = 0
    factorizations: int = 0

    def reset(self) -> None:
        self.matvecs = 0
        self.factorizations = 0


@dataclass(frozen=True)
class SpectralPrior:
    """A prior covariance C = U diag(eigenvalues) U^T with orthonormal columns U.

    Subclasses give the basis transforms: ``transform(v)`` is U^T v and
    ``inverse_transform(w)`` is U w.  U has ``rank`` columns, one per
    eigenvalue, and ``dimension`` rows, one per cell of the field; the
    directions U leaves out are prior null directions.  ``eigenvalues`` is
    nonnegative; exact zeros mark null directions the basis keeps.  The
    latent field may hold cells the data never see: ``observed(x)`` returns
    the ones the likelihood reads and a chain records, and ``embed(v)``
    lifts a vector on those cells to the field, zero elsewhere.  Both
    return their argument itself when every cell is observed.  The derived
    vectors below are computed on first use and cached read-only, since
    every transition reads them.
    """

    eigenvalues: np.ndarray

    @property
    def dimension(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def rank(self) -> int:
        """Length of every spectral vector: the number of basis columns."""
        return self.eigenvalues.shape[0]

    @property
    def observed_dimension(self) -> int:
        return self.dimension

    def observed(self, x: np.ndarray) -> np.ndarray:
        return x

    def embed(self, v: np.ndarray) -> np.ndarray:
        return v

    def transform(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def inverse_transform(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @cached_property
    def sqrt_eigenvalues(self) -> np.ndarray:
        return _read_only(np.sqrt(self.eigenvalues))

    @cached_property
    def null_mask(self) -> np.ndarray:
        """Basis directions at or below NULL_REL_TOL * gamma_max (prior null space)."""
        gamma = self.eigenvalues
        tol = NULL_REL_TOL * max(gamma.max(), 0.0) if gamma.size else 0.0
        return _read_only(gamma <= tol)

    @cached_property
    def range_eigenvalues(self) -> np.ndarray:
        return _read_only(self.eigenvalues[~self.null_mask])

    @cached_property
    def pinv_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the pseudo-inverse C^+: 1/gamma on the range, 0 on null directions."""
        gamma = self.eigenvalues
        return _read_only(np.divide(1.0, gamma, out=np.zeros_like(gamma), where=~self.null_mask))


@dataclass(frozen=True)
class DensePrior(SpectralPrior):
    """Eigendecomposition C = basis @ diag(eigenvalues) @ basis.T.

    ``basis`` is n x r with orthonormal columns; ``eigenvalues`` is sorted
    in descending order.  ``eigendecompose_covariance`` keeps the r columns
    that span the range of C, so a singular C transforms in O(n r).
    """

    basis: np.ndarray

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]

    def transform(self, v: np.ndarray) -> np.ndarray:
        return self.basis.T @ v

    def inverse_transform(self, w: np.ndarray) -> np.ndarray:
        return self.basis @ w


@dataclass(frozen=True)
class TorusPrior(SpectralPrior):
    """Circulant covariance of a field on a (2 side, 2 side) torus.

    The field is flattened row-major; its leading side x side block holds
    the observed grid, and the other 3 side^2 cells pad it.  The basis is
    the orthonormal 2-D Hartley transform H v = Re F v - Im F v, with F the
    unitary 2-D DFT.  H is symmetric and its own inverse, so both transforms
    are the same function.  ``eigenvalues`` are in ``fft2`` frequency order.
    """

    side: int

    @property
    def torus_shape(self) -> tuple[int, int]:
        return (2 * self.side, 2 * self.side)

    @property
    def observed_dimension(self) -> int:
        return self.side * self.side

    def observed(self, x: np.ndarray) -> np.ndarray:
        """The observed cells of a torus field, flattened row-major."""
        return x.reshape(self.torus_shape)[: self.side, : self.side].reshape(-1)

    def embed(self, v: np.ndarray) -> np.ndarray:
        """A torus field holding v on the observed cells and zero on the padding."""
        out = np.zeros(self.torus_shape)
        out[: self.side, : self.side] = np.reshape(v, (self.side, self.side))
        return out.reshape(-1)

    def transform(self, v: np.ndarray) -> np.ndarray:
        f = scipy.fft.fft2(v.reshape(self.torus_shape), norm="ortho")
        return (f.real - f.imag).reshape(-1)

    inverse_transform = transform


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def eigendecompose_covariance(
    cov: np.ndarray | GridKernel,
    jitter: float = 0.0,
    counter: OpCounter | None = None,
) -> SpectralPrior:
    """Decompose a symmetric PSD covariance into a SpectralPrior.

    A matrix gives a DensePrior.  A C that is not bit for bit equal to C^T
    is factorized as 0.5 (C + C^T); an asymmetry larger than 1e-8 relative
    to the largest entry is an error, as is any eigenvalue below
    -1e-6 * gamma_max.  An exactly symmetric C, such as the grid kernel or
    the squared-exponential kernel on 1-D inputs, is factorized as it is,
    with the same result.  Slightly negative eigenvalues (down to
    -1e-10 * gamma_max) are clamped to zero so that degenerate priors are
    representable.  ``jitter`` adds jitter * I before decomposing.

    A GridKernel gives a TorusPrior when its torus embedding, plus jitter,
    is PSD: no eigenvalue below -1e-10 * gamma_max, so that clamping cannot
    change the covariance of the observed cells by more than roundoff.
    Otherwise its dense matrix is decomposed.  Either way the counter
    records one factorization.

    A DensePrior keeps only the eigenvectors whose eigenvalue is above
    NULL_REL_TOL * gamma_max, as a C-contiguous n x r basis; the
    reconstruction and orthonormality checks run on the full decomposition
    before it is cut down.  The checks cost two O(n^3) BLAS products, U^T U
    and (U sqrt(gamma)) (U sqrt(gamma))^T, against one ``eigh``; outside
    ``eigh`` at most three n x n arrays are alive: the descending basis,
    U sqrt(gamma) and one product.  On the benchmark's side-32 grid kernel
    (n = 1024, one BLAS thread, 2-core x86 VM) a decomposition takes 0.33 s
    and 34 MB of peak RSS above its input; at side 64 (n = 4096), 17 s and
    518 MB.  A TorusPrior keeps every direction, with exact zeros on its
    null ones.
    """
    if isinstance(cov, GridKernel):
        eigvals = cov.torus_eigenvalues + jitter
        gamma_max = max(eigvals.max(), 0.0)
        if eigvals.min() >= -EIG_CLAMP_FLOOR * gamma_max:
            if counter is not None:
                counter.factorizations += 1
            return TorusPrior(eigenvalues=_zero_null(eigvals, gamma_max), side=cov.side)
        cov = cov.matrix()

    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"covariance must be square, got shape {cov.shape}")
    # NaN propagates through both max and min, so two passes check finiteness
    # and give max |C| without an n x n temporary.
    top, bottom = cov.max(), cov.min()
    if not (np.isfinite(top) and np.isfinite(bottom)):
        raise ValueError("covariance contains non-finite entries")
    scale = max(top, -bottom)
    sym = cov
    # 0.5 (C + C^T) is C itself when C^T holds the same bits (compared as
    # integers, so that -0.0 against 0.0 still takes the symmetrizing path).
    if not np.array_equal(cov.view(np.int64), cov.T.view(np.int64)):
        asym = np.abs(cov - cov.T).max()
        if asym > 1e-8 * scale:
            raise ValueError(
                f"covariance is not symmetric: max |C - C.T| = {asym:.3e} "
                f"exceeds 1e-8 relative to max |C| = {scale:.3e}"
            )
        sym = 0.5 * (cov + cov.T)
    if jitter:
        sym = sym + jitter * np.eye(sym.shape[0])
    if sym is not cov:
        scale = _abs_max(sym)

    eigvals, eigvecs = np.linalg.eigh(sym)
    if counter is not None:
        counter.factorizations += 1

    # eigh returns ascending order; all consumers expect descending.  The
    # order is argsort's, ties included, and ``take`` gathers the columns
    # into one C-contiguous copy.
    order = np.argsort(eigvals)[::-1]
    eigvals, basis = eigvals[order], eigvecs.take(order, axis=1)
    del eigvecs  # only the reordered copy stays alive through the checks

    gamma_max = max(eigvals[0], 0.0)
    floor = -EIG_NEGATIVE_TOL * max(gamma_max, 1.0)
    if eigvals[-1] < floor:
        raise ValueError(
            f"covariance is not positive semidefinite: smallest eigenvalue "
            f"{eigvals[-1]:.3e} is below {floor:.3e}"
        )
    eigvals = _zero_null(eigvals, gamma_max)
    _check_decomposition(sym, eigvals, basis, scale)
    rank = int(np.count_nonzero(eigvals))
    return DensePrior(eigenvalues=eigvals[:rank].copy(), basis=np.ascontiguousarray(basis[:, :rank]))


def _abs_max(a: np.ndarray) -> float:
    """max |a| in two passes and no temporary."""
    return max(a.max(), -a.min())


def _zero_null(eigvals: np.ndarray, gamma_max: float) -> np.ndarray:
    # Everything at or below the null tolerance becomes an exact zero: the
    # pseudo-inverse density already ignores those directions, so the
    # proposals must not inject noise into them either.
    return np.where(eigvals > NULL_REL_TOL * gamma_max, eigvals, 0.0)


def _check_decomposition(cov: np.ndarray, eigvals: np.ndarray, basis: np.ndarray, scale: float) -> None:
    """Check U^T U = I and U diag(gamma) U^T = C in place of the two products; ``scale`` is max |C|."""
    gram = basis.T @ basis
    gram.flat[:: gram.shape[0] + 1] -= 1.0
    ortho_err = _abs_max(gram)
    del gram  # freed before the reconstruction's two n x n arrays
    if ortho_err > ORTHONORMALITY_ATOL:
        raise ValueError(f"basis is not orthonormal: max |U^T U - I| = {ortho_err:.3e}")
    half = basis * np.sqrt(eigvals)
    recon = half @ half.T
    recon -= cov
    recon_err = _abs_max(recon)
    if recon_err > RECONSTRUCTION_RTOL * max(scale, 1.0):
        raise ValueError(
            f"reconstruction U diag(gamma) U^T differs from C by {recon_err:.3e} "
            f"(relative tolerance {RECONSTRUCTION_RTOL:g})"
        )


def to_spectral(prior: SpectralPrior, v: np.ndarray, counter: OpCounter | None = None) -> np.ndarray:
    """Return U^T v and count one matvec."""
    if counter is not None:
        counter.matvecs += 1
    return prior.transform(v)


def from_spectral(prior: SpectralPrior, w: np.ndarray, counter: OpCounter | None = None) -> np.ndarray:
    """Return U w and count one matvec."""
    if counter is not None:
        counter.matvecs += 1
    return prior.inverse_transform(w)


@dataclass(frozen=True, eq=False)
class DeltaOperators:
    """Step-size dependent diagonal operators shared by the gradient samplers.

    With A = (C^{-1} + (2/delta) I)^{-1}, equivalently
    A = (delta/2) (C + (delta/2) I)^{-1} C (the form that stays valid for
    singular C), the three diagonals are, per eigenvalue gamma:

      aux_var      = gamma * delta / (delta + 2 gamma)           (diag of A)
      marginal_var = aux_var * (delta + 4 gamma) / (delta + 2 gamma)
                                                  (diag of (2/delta) A^2 + A)
      ratio_weight = (delta + 2 gamma) / (delta + 4 gamma)
                                                  (diag of ((2/delta) A + I)^{-1})

    ``aux_var`` is the conditional covariance of the auxiliary-variable
    proposals, ``marginal_var`` the marginal proposal covariance, and
    ``ratio_weight`` the weighting inside the marginal acceptance ratio.
    All three are O(n) functions of the prior eigenvalues; the basis is
    shared with the SpectralPrior and never recomputed.  Each diagonal, each
    square root and the two denominators are ``cached_property``s, computed
    on first use: pCN, pCNL and pMALA read only ``delta``, so rebuilding the
    operators on every burn-in step costs them nothing, and agrad-z computes
    only ``aux_var`` and its square root.
    """

    delta: float
    eigenvalues: np.ndarray

    @cached_property
    def _narrow(self) -> np.ndarray:
        return self.delta + 2.0 * self.eigenvalues

    @cached_property
    def _wide(self) -> np.ndarray:
        return self.delta + 4.0 * self.eigenvalues

    @cached_property
    def aux_var(self) -> np.ndarray:
        return self.eigenvalues * self.delta / self._narrow

    @cached_property
    def marginal_var(self) -> np.ndarray:
        return self.aux_var * self._wide / self._narrow

    @cached_property
    def ratio_weight(self) -> np.ndarray:
        return self._narrow / self._wide

    @cached_property
    def sqrt_aux_var(self) -> np.ndarray:
        return np.sqrt(self.aux_var)

    @cached_property
    def sqrt_marginal_var(self) -> np.ndarray:
        return np.sqrt(self.marginal_var)


def build_delta_operators(prior: SpectralPrior, delta: float) -> DeltaOperators:
    """Build the three diagonal operators for step size delta.

    Uses only prior.eigenvalues and performs no matvecs or factorizations;
    the O(n) diagonals are computed when a kernel first reads them.
    gamma = 0 maps to aux_var = marginal_var = 0 and ratio_weight = 1, so
    null prior directions stay pinned at zero.
    """
    if not math.isfinite(delta) or delta <= 0.0:
        raise ValueError(f"step size delta must be positive and finite, got {delta!r}")
    return DeltaOperators(delta=float(delta), eigenvalues=prior.eigenvalues)


class ShrinkageMaps(NamedTuple):
    """Eigenvalue maps of the three covariances compared in the step-size analysis."""

    pcnl: np.ndarray
    marginal: np.ndarray
    posterior: np.ndarray


def shrinkage_maps(gamma: np.ndarray, delta: float, sigma2: float) -> ShrinkageMaps:
    """Per-eigenvalue variances of three proposal/posterior covariances.

      pcnl(gamma)      = (1 - 4/(delta+2)^2) gamma      pCNL proposal variance
      marginal(gamma)  = delta (delta + 4 gamma) gamma / (delta + 2 gamma)^2
                                                        marginal proposal variance
      posterior(gamma) = gamma sigma2 / (gamma + sigma2)
                                      exact Gaussian posterior variance at
                                      unit-variance-per-coordinate likelihoods

    marginal is bounded by min(gamma, delta) and approaches the posterior map
    when delta is matched to the likelihood noise sigma2, which is why the
    marginal sampler tolerates step sizes on the scale of sigma2 rather than
    sigma2 / gamma_max.
    """
    gamma = np.asarray(gamma, dtype=float)
    if delta <= 0.0:
        raise ValueError(f"step size delta must be positive, got {delta!r}")
    if sigma2 <= 0.0:
        raise ValueError(f"noise variance sigma2 must be positive, got {sigma2!r}")
    pcnl = (1.0 - 4.0 / (delta + 2.0) ** 2) * gamma
    marginal = delta * (delta + 4.0 * gamma) * gamma / (delta + 2.0 * gamma) ** 2
    posterior = gamma * sigma2 / (gamma + sigma2)
    return ShrinkageMaps(pcnl=pcnl, marginal=marginal, posterior=posterior)


def prior_quad_form(
    prior: SpectralPrior, x: np.ndarray, ux: np.ndarray, counter: OpCounter | None = None
) -> float:
    """Return x^T C^+ x from the field x and its spectral coordinates ux = U^T x.

    Null directions (eigenvalues at or below 1e-10 * gamma_max, and those
    the basis leaves out) are skipped.  A state with non-negligible mass off
    the prior's range is an error, since the prior cannot support it.  The
    check rebuilds x's range component with one counted matvec; a prior
    without null directions supports every state and costs none.
    """
    if prior.rank < prior.dimension or prior.null_mask.any():
        stray = x - from_spectral(prior, np.where(prior.null_mask, 0.0, ux), counter)
        size = float(np.abs(stray).max())
        if size > 1e-8 * max(1.0, float(np.abs(x).max())):
            raise ValueError(
                "prior-singular state: component of size "
                f"{size:.3e} lies in a null direction of the prior"
            )
    return float(ux**2 @ prior.pinv_eigenvalues)


def prior_logdet(prior: SpectralPrior) -> float:
    """Log pseudo-determinant of the prior covariance (null directions skipped)."""
    return float(np.sum(np.log(prior.range_eigenvalues)))
