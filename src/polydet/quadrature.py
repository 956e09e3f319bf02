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
    left = [a]
    h = h0a
    while left[-1] + h < 0.5 * (a + b):
        left.append(left[-1] + h)
        h *= _GRADE_RATIO
    right = [b]
    h = h0b
    while right[-1] - h > 0.5 * (a + b):
        right.append(right[-1] - h)
        h *= _GRADE_RATIO
    return np.unique(np.concatenate([left, [0.5 * (a + b)], right[::-1]]))
