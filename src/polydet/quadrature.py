"""Shared quadrature helpers: cached Gauss rules and the graded panel rule."""

from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

_GRADE_RATIO = 2.0      # width ratio of neighbouring panels of the graded rule


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


def panel_nodes(breaks, n):
    """Gauss-Legendre nodes on every panel [breaks[k], breaks[k+1]], as a
    (panels, n) array, and the half-width of each panel."""
    breaks = np.asarray(breaks)
    a, b = breaks[:-1], breaks[1:]
    half = 0.5 * (b - a)
    return (0.5 * (a + b))[:, None] + half[:, None] * leggauss(n)[0], half


def graded_breaks(a, b, h0a, h0b):
    """Breakpoints on [a, b] with panels growing geometrically from both ends:
    the first panel is h0a wide at a and h0b wide at b, and each next one
    _GRADE_RATIO times wider, up to the midpoint."""
    if b <= a:
        return np.array([a, b])
    mid = 0.5 * (a + b)
    chains = []
    for pts, h, sign in (([a], h0a, 1.0), ([b], h0b, -1.0)):
        while sign * (pts[-1] + sign * h) < sign * mid:
            pts.append(pts[-1] + sign * h)
            h *= _GRADE_RATIO
        # a remainder at the midpoint narrower than half the last panel joins it
        if len(pts) > 1 and abs(mid - pts[-1]) < 0.5 * h / _GRADE_RATIO:
            pts.pop()
        chains.append(pts)
    return np.array(chains[0] + [mid] + chains[1][::-1])
