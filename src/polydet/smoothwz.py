"""Smooth-boundary determinant variations on analytic simply connected domains.

The domain is the image of the unit disk under z(w) = sum a_k w^k, analytic
and univalent slightly beyond the closed disk.  Two operations:

* ``alvarez_logdet``: the boundary-integral comparison value
  -(1/12 pi) [ int phi d_r phi dt + 2 int phi dt ] with phi = log|z'(e^{it})|,
  defined up to a domain-independent additive constant (only differences
  between domains are meaningful);

* ``wz_variation``: the first variation of log det under z -> z + eps V for
  a holomorphic V, as a boundary integral of the Schwarzian of the inverse
  map and the squared curvature.

Both are evaluated by uniform trapezoid sums on the circle, which are
spectrally accurate for the analytic data assumed here.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarse, MapDegenerate, ValidationFailure

_FD_EPS = 1e-4          # step of the central difference in wz_vs_alvarez_fd
_GRID_MIN = 512         # points of the first trapezoid grid on the circle
_GRID_MAX = 1 << 15     # points of the largest grid the doubling reaches


@dataclass(frozen=True)
class SmoothDomain:
    """Domain given by a finite Taylor series z(w), valid past |w| = 1."""

    coefficients: tuple   # a_0, a_1, ... of z(w) = sum a_k w^k

    def __post_init__(self):
        if len(self.coefficients) < 2:
            raise ValidationFailure("need at least a linear coefficient")
        _finite(self.coefficients, "Taylor coefficient")
        # univalence margin: z' must not vanish near the closed disk
        for r in (0.5, 0.8, 1.0, 1.05):
            w = r * np.exp(2j * np.pi * np.arange(512) / 512)
            if np.min(np.abs(self.derivative(w, 1))) < 1e-12:
                raise MapDegenerate(f"z'(w) vanishes near |w| = {r}")

    def derivative(self, w, k):
        """The k-th derivative of z(w)."""
        c = np.asarray(self.coefficients, dtype=complex)
        return np.polynomial.polynomial.polyval(w, np.polynomial.polynomial.polyder(c, k))

    def perturbed(self, V, eps):
        """Domain with map z + eps V (V a Taylor series, possibly shorter)."""
        a = list(self.coefficients)
        v = list(np.asarray(V, dtype=complex))
        n = max(len(a), len(v))
        a += [0.0] * (n - len(a))
        v += [0.0] * (n - len(v))
        return SmoothDomain(tuple(ai + eps * vi for ai, vi in zip(a, v)))


def _finite(coefficients, what):
    """coefficients as a complex array; ValidationFailure naming the first
    that is not finite."""
    c = np.asarray(coefficients, dtype=complex)
    if not np.all(np.isfinite(c)):
        raise ValidationFailure(f"{what} {int(np.argmin(np.isfinite(c)))} is not finite")
    return c


def disk(radius=1.0):
    return SmoothDomain((0.0, complex(radius)))


def _circle(n_grid):
    t = 2 * np.pi * np.arange(n_grid) / n_grid
    return t, np.exp(1j * t)


def _grid_checked(value, what):
    """value(2 n) for the first n = _GRID_MIN, 2 _GRID_MIN, ... whose
    doubling moves value(n) by at most 1e-10 (1 + |v|); GridTooCoarse naming
    what moved once the doubled grid would pass _GRID_MAX points."""
    n, v = _GRID_MIN, value(_GRID_MIN)
    while 2 * n <= _GRID_MAX:
        n, v_prev, v = 2 * n, v, value(2 * n)
        if abs(v - v_prev) <= 1e-10 * (1 + abs(v_prev)):
            return float(v)
    raise GridTooCoarse(f"doubling the grid to {n} points moves {what} "
                        f"by {abs(v - v_prev):.2e}")


def _alvarez_sum(d, n):
    """The trapezoid sum of alvarez_logdet on n points of the circle."""
    t, w = _circle(n)
    zp = d.derivative(w, 1)
    phi = np.log(np.abs(zp))
    dr_phi = (w * d.derivative(w, 2) / zp).real
    dt = 2 * np.pi / n
    return (-1.0 / (12 * np.pi)) * (np.sum(phi * dr_phi) + 2 * np.sum(phi)) * dt


def alvarez_logdet(d):
    """Boundary comparison value of log det (additive constant omitted).

    phi = log |z'| on the unit circle and its radial derivative
    d_r phi = Re(w z''/z') enter the two circle integrals; the trapezoid rule
    on the periodic analytic integrand converges spectrally, and the grid
    is doubled from _GRID_MIN points until a doubling moves the value by at
    most 1e-10 (1 + |v|).
    """
    return _grid_checked(lambda n: _alvarez_sum(d, n), "the Alvarez value")


def _wz_sum(d, V, n):
    """The trapezoid sum of wz_variation on n points of the circle."""
    V = np.asarray(V, dtype=complex)
    t, w = _circle(n)
    zp, zpp, zppp = (d.derivative(w, k) for k in (1, 2, 3))
    s_zw = zppp / zp - 1.5 * (zpp / zp) ** 2        # {z, w}
    s_wz = -s_zw / zp**2                             # {w, z}
    nu = w * zp / np.abs(zp)                         # = |w'| w / w'
    curv = (1.0 + (w * zpp / zp)).real / np.abs(zp)  # k = |w'| Re(1 + w z''/z')
    v_vals = np.polynomial.polynomial.polyval(w, V)
    integrand = v_vals * np.conj(nu) * ((nu**2 * s_wz).real - curv**2)
    # |dz| = |z'| dt
    dt = 2 * np.pi / n
    return (1.0 / (6 * np.pi)) * np.sum(integrand * np.abs(zp)).real * dt


def wz_variation(d, V):
    """d(log det)/d eps at eps = 0 for the deformation z -> z + eps V.

    Evaluates (1/6 pi) Re int_Gamma V(w(z)) conj(nu) (Re(nu^2 {w,z}) - k^2) |dz|
    on the circle, with nu = |w'| w / w', k = |w'| Re(1 + w z''/z'), and
    {w,z} = -{z,w} / z'^2 from the Schwarzian chain rule (no inverse map is
    ever constructed).  The grid is checked by doubling as in alvarez_logdet;
    a field coefficient that is not finite is refused before it.
    """
    V = _finite(V, "field coefficient")
    return _grid_checked(lambda n: _wz_sum(d, V, n), "the variation")


def wz_vs_alvarez_fd(d, V):
    """(formula, finite difference) pair for the same deformation.

    The finite difference is the central difference of alvarez_logdet between
    the maps z +/- _FD_EPS V; the caller asserts agreement.
    """
    fd = (alvarez_logdet(d.perturbed(V, _FD_EPS))
          - alvarez_logdet(d.perturbed(V, -_FD_EPS))) / (2 * _FD_EPS)
    return wz_variation(d, V), fd
