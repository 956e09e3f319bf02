"""Shared quadrature helpers: cached Gauss rules."""

from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi


@lru_cache(maxsize=None)
def leggauss(n):
    """Gauss-Legendre nodes/weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


@lru_cache(maxsize=None)
def jacgauss(n, alpha, beta):
    """Gauss-Jacobi nodes/weights on [-1, 1] for weight (1-x)^alpha (1+x)^beta."""
    x, w = roots_jacobi(n, alpha, beta)
    return x, w


def gl_nodes(a, b, n):
    """Gauss-Legendre nodes/weights mapped to [a, b] (a, b may be complex)."""
    x, w = leggauss(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid + half * x, half * w


def panel_nodes(breaks, n):
    """Gauss-Legendre nodes on every panel [breaks[k], breaks[k+1]], as a
    (panels, n) array, and the half-width of each panel."""
    breaks = np.asarray(breaks)
    a, b = breaks[:-1], breaks[1:]
    half = 0.5 * (b - a)
    return (0.5 * (a + b))[:, None] + half[:, None] * leggauss(n)[0], half
