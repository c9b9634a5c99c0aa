"""Manufactured exact waves: fix the profile phi(t) = sigma(a t), then solve the wave equation for g.

sigma is the logistic sigmoid, so kappa = 1, and the exact wave decays at
rate a on the left (Roache, J. Fluids Eng. 124, 2002, on the method).
``Nonlinearity`` takes any callable, so no model kind is added.  If
sigma(a t) = u, then sigma(a (t + s)) = :func:`moved` (u, a, s), and every
term of the equation at a delay or a lattice neighbour is closed form in u.
Each builder returns (spec, c, a) with g >= 0 on [0, 1].
"""

import math

import numpy as np

import wavefront as wf


def moved(u, a, s):
    """sigma(a (t + s)) where sigma(a t) = u: u e^{as} / (1 - u + u e^{as})."""
    u = np.asarray(u, dtype=float)
    w = u * math.exp(a * s)
    return w / (1.0 - u + w)


def local_delayed(a, c, h):
    """The local model u_t = u_xx - u + g(u(t - h)), with v = moved(u, a, c h) in
    g(u) = v + c a v (1 - v) - a^2 v (1 - v)(1 - 2 v).

    Its slope at 0 is e^{a c h} (1 + c a - a^2), and L is the larger of
    that and the sampled Lipschitz constant on [0, 1].
    """
    def fn(u):
        v = moved(u, a, c * h)
        return v + c * a * v * (1.0 - v) - a * a * v * (1.0 - v) * (1.0 - 2.0 * v)

    gprime0 = math.exp(a * c * h) * (1.0 + c * a - a * a)
    g = wf.Nonlinearity(fn=fn, gprime0=gprime0, name="manufactured")
    return wf.LocalDelayedRD(g=g, L=max(gprime0, g.lipschitz_on(1.0)), delay=h), c, a


def lattice(a, c, h, D, d, k0):
    """The lattice with one birth site k0 of weight 1 and s = k0 + c h.

    g(u) = c a v (1 - v) + (2 D + d) v - D (v_{s+1} + v_{s-1}), with v_r =
    moved(u, a, r) and v = v_s, and its slope at 0 is e^{a s} (c a + 2 D +
    d - D (e^a + e^{-a})).
    """
    s = k0 + c * h

    def fn(u):
        v = moved(u, a, s)
        return (c * a * v * (1.0 - v) + (2.0 * D + d) * v
                - D * (moved(u, a, s + 1.0) + moved(u, a, s - 1.0)))

    gprime0 = math.exp(a * s) * (c * a + 2.0 * D + d - D * (math.exp(a) + math.exp(-a)))
    g = wf.Nonlinearity(fn=fn, gprime0=gprime0, name="manufactured")
    return wf.NonlocalLattice(D=D, d=d, beta_weights={k0: 1.0}, g=g, delay=h), c, a
