"""Independent checks for benchmark outputs, written without qpscat.

`stack_scattering` is a 1-D transfer matrix for the excited order (0, 0)
through piecewise-constant layers; `energy_balance` recomputes the flux
identity from the Rayleigh coefficients alone.  Conventions follow the
solver: the plane wave comes in from above, u = e^{-i b0 x3} + u+ e^{i b0 (x3 - h)}
above the layer and u = u- e^{-i b0 (x3 + h)} below it.
"""
from __future__ import annotations

import numpy as np


def stack_scattering(k, alpha, layers, h):
    """(u+, u-) of order (0, 0) for layers [(z0, z1, q), ...] tiling [-h, h].

    Propagates (u, u') from the bottom face to the top face through each
    layer with the exact 2x2 transfer matrix of u'' + (k^2 q - |alpha|^2) u = 0.
    """
    a2 = float(np.dot(alpha, alpha))
    b0 = np.sqrt(k * k - a2)
    state = np.array([1.0, -1j * b0])          # transmitted wave of unit amplitude
    for z0, z1, q in sorted(layers, key=lambda t: t[0]):
        g = np.sqrt(complex(k * k * q - a2))
        d = z1 - z0
        c, s_over_g = np.cos(g * d), d * np.sinc(g * d / np.pi)
        state = np.array([[c, s_over_g], [-g * g * s_over_g, c]]) @ state
    e0 = np.exp(-1j * b0 * h)
    t = -2j * b0 * e0 / (state[1] - 1j * b0 * state[0])
    return complex(t * state[0] - e0), complex(t)


def propagating_orders(k, alpha, N):
    """Orders |n|_inf <= N with |n + alpha| < k, and their vertical wavenumbers."""
    out = {}
    for n1 in range(-N, N + 1):
        for n2 in range(-N, N + 1):
            r2 = (n1 + alpha[0]) ** 2 + (n2 + alpha[1]) ** 2
            if r2 < k * k:
                out[(n1, n2)] = np.sqrt(k * k - r2)
    return out


def energy_balance(k, alpha, N, u_plus, u_minus):
    """|sum of propagating efficiencies - 1| for a lossless real-k solution."""
    orders = propagating_orders(k, alpha, N)
    b0 = orders[(0, 0)]
    total = sum(b / b0 * (abs(u_plus[n]) ** 2 + abs(u_minus[n]) ** 2)
                for n, b in orders.items())
    return abs(total - 1.0)


def near_cutoff(k, alpha, N, margin):
    """True when some order |n|_inf <= N has ||n + alpha| - k| < margin."""
    for n1 in range(-N, N + 1):
        for n2 in range(-N, N + 1):
            if abs(np.hypot(n1 + alpha[0], n2 + alpha[1]) - k) < margin:
                return True
    return False
