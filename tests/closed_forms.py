"""Each family's characteristic function in closed form: the tests' oracle for the reduction.

A family reduced to phi = sum_tau K_tau * g_tau(phi) has the assembled
chi(z) = 1 - sum_tau g_tau'(0) K_tau(z) (transforms), which equals
``tilde_chi(m, z, c) / denominator(m, z, c, beta)``: the numerator is free
of the slope shift beta, and the denominator carries it.  Both are written
here from the family's parameters (a kernel parameter enters through its
own transform), not read from the package, which keeps only the
Lipschitz-weighted numerators its closed-form minimal speed reads.
"""

import numpy as np


def tilde_chi(m, z, c):
    """Numerator of model m's assembled chi at speed c, with the derivative weights g'(0)."""
    z = np.asarray(z)
    if m.family == "nonlocal_kpp":
        return 1.0 - m.g.gprime0 + c * z - m.J.laplace(z)
    if m.family == "nonlocal_lattice":
        comb = sum(w * np.exp(-z * k) for k, w in sorted(m.beta_weights.items()))
        return (m.d + 2.0 * m.D + c * z - m.D * (np.exp(z) + np.exp(-z))
                - m.g.gprime0 * np.exp(-c * m.delay * z) * comb)
    if m.family == "nonlocal_delayed_rd":
        return (c * z - z * z + m.f.gprime0
                - m.g.gprime0 * np.exp(-z * c * m.delay) * m.k.laplace(z))
    assert m.family == "local_delayed_rd", m.family
    return 1.0 + c * z - z * z - m.g.gprime0 * np.exp(-z * c * m.delay)


def denominator(m, z, c, beta):
    """Denominator of model m's assembled chi at speed c and slope shift beta."""
    z = np.asarray(z)
    if m.family == "nonlocal_kpp":
        return 1.0 + beta + c * z
    if m.family == "nonlocal_lattice":
        return 2.0 * m.D + m.d + c * z
    if m.family == "nonlocal_delayed_rd":
        return beta + c * z - z * z
    assert m.family == "local_delayed_rd", m.family
    return 1.0 + c * z - z * z


def slope_shift(m, prob):
    """The slope shift beta of ``prob``, model m's reduction, read from its assembled kernels.

    A KPP reduction's exponential atom has scale 1 / (1 + beta) and a
    nonlocal delayed one's Green atom damping beta; the lattice and local
    reductions shift no slope.
    """
    if m.family == "nonlocal_kpp":
        return 1.0 / prob.atoms[1].kernel.scale - 1.0
    if m.family == "nonlocal_delayed_rd":
        return prob.atoms[1].kernel.damping
    return 0.0
