"""Reference values for the benchmark's correctness checks.

Nothing here imports polydet: every reference is computed from the vertex
lists and closed forms alone, so a fault in the layer under test cannot
also move its reference.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import exp1, gamma

# ---------------------------------------------------------------------------
# polygon data from the vertex list
# ---------------------------------------------------------------------------


def area(vertices):
    v = np.asarray(vertices, dtype=complex)
    w = np.roll(v, -1)
    return 0.5 * float(np.sum(v.real * w.imag - w.real * v.imag))


def perimeter(vertices):
    v = np.asarray(vertices, dtype=complex)
    return float(np.sum(np.abs(np.roll(v, -1) - v)))


def interior_angles(vertices):
    """Interior angles of a counterclockwise convex polygon."""
    v = np.asarray(vertices, dtype=complex)
    prev, nxt = np.roll(v, 1), np.roll(v, -1)
    return np.abs(np.angle((prev - v) / (nxt - v)))


def corner_b1(vertices):
    """Heat-trace constant b1 = sum over corners of (pi^2 - a^2) / (24 pi a)."""
    a = interior_angles(vertices)
    return float(np.sum((math.pi**2 - a**2) / (24 * math.pi * a)))


# ---------------------------------------------------------------------------
# closed-form Dirichlet spectra
# ---------------------------------------------------------------------------


def _lattice(form, lam_max, keep=lambda m, n: True):
    out = []
    m = 1
    while form(m, 1) < lam_max:
        n = 1
        while form(m, n) < lam_max:
            if keep(m, n):
                out.append(form(m, n))
            n += 1
        m += 1
    return np.sort(np.asarray(out))


def square_spectrum(lam_max):
    """Unit square: pi^2 (m^2 + n^2), m, n >= 1, with multiplicity."""
    return _lattice(lambda m, n: math.pi**2 * (m * m + n * n), lam_max)


def equilateral_spectrum(lam_max):
    """Equilateral triangle of side 1: 16 pi^2 (m^2 + m n + n^2) / 9, m, n >= 1."""
    return _lattice(lambda m, n: 16 * math.pi**2 * (m * m + m * n + n * n) / 9, lam_max)


def right_isosceles_spectrum(lam_max):
    """Right isosceles triangle with legs 1: pi^2 (m^2 + n^2), m > n >= 1."""
    return _lattice(lambda m, n: math.pi**2 * (m * m + n * n), lam_max,
                    keep=lambda m, n: m > n)


# ---------------------------------------------------------------------------
# log det references
# ---------------------------------------------------------------------------


def log_eta_i():
    """log eta(i) from the q-product, q = exp(-2 pi)."""
    q = math.exp(-2 * math.pi)
    total = -math.pi / 12
    k = 1
    while q**k > 1e-300:
        total += math.log1p(-q**k)
        k += 1
    return total


def log_eta_i_gamma():
    """log eta(i) from the closed form eta(i) = Gamma(1/4) / (2 pi^(3/4))."""
    return math.log(gamma(0.25)) - math.log(2.0) - 0.75 * math.log(math.pi)


def unit_square_logdet():
    """log det of the Dirichlet Laplacian on the unit square: log eta(i) - log(2)/2."""
    return log_eta_i() - 0.5 * math.log(2.0)


def split_completion_logdet(eigs, vertices, tau0, lam_max):
    """log det = -zeta'(0) from a spectrum below lam_max, split at tau0.

    With K(t) = sum exp(-lam t) and its short-time form
    P(t) = a1/t + a2/sqrt(pi t) + b1, zeta(s) Gamma(s) is the Mellin
    integral of P on (0, tau0) plus that of K on (tau0, inf).  The first
    is a1 tau0^(s-1)/(s-1) + a2 tau0^(s-1/2)/(sqrt(pi)(s-1/2)) + b1 tau0^s/s;
    with 1/Gamma(s) = s + gamma_E s^2 + ... its s-derivative at 0 gives

        log det = a1/tau0 + 2 a2/sqrt(pi tau0) - b1 (log tau0 + gamma_E)
                  - sum_k E1(lam_k tau0) - tail,

    where the tail integrates E1(lam tau0) against the two-term Weyl
    density A/(4 pi) - P/(8 pi sqrt(lam)) above lam_max (by quadrature).
    """
    A, P, b1 = area(vertices), perimeter(vertices), corner_b1(vertices)
    a1, a2 = A / (4 * math.pi), -P / 8.0
    short = (a1 / tau0 + 2 * a2 / math.sqrt(math.pi * tau0)
             - b1 * (math.log(tau0) + np.euler_gamma))
    body = float(np.sum(exp1(np.asarray(eigs, dtype=float) * tau0)))

    def density(x):     # x = lam * tau0
        return exp1(x) * (A / (4 * math.pi) - P / (8 * math.pi * math.sqrt(x / tau0))) / tau0

    tail, _ = quad(density, lam_max * tau0, np.inf, epsabs=1e-15, epsrel=1e-12, limit=200)
    return short - body - tail


# ---------------------------------------------------------------------------
# min-max comparison of two affinely related polygons
# ---------------------------------------------------------------------------


def affine_singular_values(src, dst):
    """Singular values (largest first) of the real-linear map L with L(src) = dst.

    src and dst are triangles whose first vertex is the origin; L is fixed
    by the other two vertices.
    """
    s = np.asarray(src, dtype=complex)
    d = np.asarray(dst, dtype=complex)
    if abs(s[0]) > 0 or abs(d[0]) > 0:
        raise ValueError("both triangles must have their first vertex at 0")
    S = np.array([[s[1].real, s[2].real], [s[1].imag, s[2].imag]])
    D = np.array([[d[1].real, d[2].real], [d[1].imag, d[2].imag]])
    return np.linalg.svd(D @ np.linalg.inv(S), compute_uv=False)


def minmax_shortfall(eigs_x, eigs_y, upper, lam_max):
    """First 1-based index k at which spectrum x falls short of what y allows.

    Min-max under a map with singular values s1 >= s2 gives
    lambda_k(x) <= upper * lambda_k(y) for every k (upper = 1/s2^2 when x is
    the image of y, s1^2 the other way).  So wherever upper * lambda_k(y) is
    below lam_max, x must hold at least k eigenvalues up to that value.
    Returns None when x satisfies every such bound.
    """
    x = np.sort(np.asarray(eigs_x, dtype=float))
    y = np.sort(np.asarray(eigs_y, dtype=float))
    for k, lam_y in enumerate(y, start=1):
        bound = upper * lam_y
        if bound >= lam_max:
            break
        if len(x) < k or x[k - 1] > bound * (1 + 1e-12):
            return k
    return None
