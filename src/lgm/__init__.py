"""Samplers and benchmarks for latent Gaussian models.

The target family is pi(x) proportional to exp{f(x)} N(x | 0, C): a Gaussian
prior over a latent field with an arbitrary smooth log-likelihood.  The
package provides seven transition kernels built on one shared spectral
decomposition of C (auxiliary/marginal gradient kernels, preconditioned
Crank-Nicolson with and without gradients, preconditioned MALA, elliptical
slice sampling), step-size adaptation, effective-sample-size diagnostics,
hyperparameter learning over C(theta), a brute-force validation oracle, and
a CLI benchmark harness (``lgm --help``).
"""
