"""The tests' independent route to a kernel transform: SciPy's adaptive quadrature.

The package computes every transform in closed form; these helpers integrate
the pointwise density instead (QUADPACK: R. Piessens et al., Springer 1983).
"""

import numpy as np
from scipy import integrate

import wavefront as wf


def kinks(kernel):
    """Points inside the support where the density has a kink: a tabulated kernel's nodes."""
    return list(kernel.grid[1:-1]) if isinstance(kernel, wf.TabulatedKernel) else []


def laplace_by_quad(kernel, zs):
    """integral K(s) e^{-z s} ds at every z of the 1-d array zs.

    A comb is its exact sum and a lazy product the product of its factors'
    integrals (Fubini); any other density is one ``quad_vec`` over its
    support, vectorised over z and split at its kinks.
    """
    zs = np.asarray(zs, dtype=complex)
    if isinstance(kernel, wf.DiracComb):
        return kernel.laplace(zs)
    if isinstance(kernel, wf.ConvolvedKernel):
        return laplace_by_quad(kernel.a, zs) * laplace_by_quad(kernel.b, zs)

    def integrand(s):
        k = float(kernel.value(s))
        # where K is 0, e^{-z s} may overflow: 0 * inf would be nan
        return k * np.exp(-zs * s) if k else np.zeros_like(zs)

    lo, hi = kernel.support()
    return integrate.quad_vec(integrand, lo, hi, epsabs=1e-13, epsrel=1e-13,
                              points=kinks(kernel) or None)[0]


def convolve_by_quad(kernel, field_fn, t):
    """integral K(s) F(t - s) ds by SciPy's ``quad`` over the support.

    A comb sums shifted copies of F, and a lazy product a * b applies a to
    the field b * F, each value of which is a quadrature in turn.
    """
    if isinstance(kernel, wf.DiracComb):
        return sum(w * field_fn(t - a) for a, w in zip(kernel.offsets, kernel.weights))
    if isinstance(kernel, wf.ConvolvedKernel):
        return convolve_by_quad(kernel.a, lambda x: convolve_by_quad(kernel.b, field_fn, x), t)
    lo, hi = kernel.support()
    return integrate.quad(lambda s: float(kernel.value(s)) * field_fn(t - s), lo, hi,
                          limit=400, points=kinks(kernel) or None)[0]
