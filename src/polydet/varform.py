"""First variation of the polygon log-determinant.

Two independent routes are implemented:

* ``main_formula`` evaluates the Hadamard-regularized Schwarzian boundary
  integral plus the corner-angle sum,

      d(log det) = (1/6 pi) Im H-int {z,x} (A.nu) nuhat dx + sum_i e(a_i) da_i,

  with the corner coefficient e(a) of ``corner_functional`` (derived below);

* ``contour_shift_integral`` evaluates pure side shifts by trading the
  divergent near-vertex boundary pieces for interior contour integrals of
  {z,x}, which is finite without any regularization and must agree with the
  first route.

Near a vertex with interior angle a, pulled back to the half-plane variable
w = z - z_i, the boundary integrand has the exact structure

    g(w) = w^{-1-a/pi} A(w) + w^{-1} B(w),        A, B analytic,

because the normal velocity is affine in arclength and the arclength off a
vertex is |C_i| w^{a/pi} times an analytic function.  For convex corners the
only growing terms of int_{w(eps)}^delta g dw are therefore eps^{-1} and
log(eps) (eps measured as a length in the polygon plane), and the finite
part is computable from two one-dimensional integrals with analytic
integrands per (side, vertex) pair.  The epsilon-removal route with
extrapolation is kept as the contract value and cross-checked against the
closed-form finite part; a mismatch raises CountertermMismatch.

The corner coefficient.  Hadamard's formula d lambda_k = -oint (A.nu)
(d_nu u_k)^2 ds for L2-normalized eigenfunctions gives

    d(log det) = FP_{s=0} sum_k lambda_k^{-s-1} d lambda_k
               = FP_{s=0} [ -oint (A.nu) D_s ds ],
    D_s(x) = sum_k lambda_k^{-s-1} (d_nu u_k(x))^2
           = (1/Gamma(s+1)) int_0^inf t^s k_t(x) dt,

with k_t(x) the normal-normal derivative of the heat kernel on the diagonal
at the boundary point x.  Away from the vertices k_t = 1/(4 pi t^2) up to
terms exponentially small as t -> 0; that scale-free part has no Mellin
transform and drops out, so D_0 is the point-split value
lim_{y->x} [d_nu d_nu G(x, y) - 1/(pi |x - y|^2)] = (1/6 pi) Re(tau^2 {z,x})
(tau the unit tangent of the side), which makes -oint (A.nu) D_0 ds the
Schwarzian integral above.  Within sqrt(t) of a vertex of angle a the heat
kernel is that of the infinite wedge, and by scaling, at arclength r from
the vertex along either side,

    k_t = 1/(4 pi t^2) + t^{-2} F_a(r / sqrt(t)),
    F_a(rho) = e^{-x} sum_{n>=1} nu_n^2 I_{nu_n}(x) / (2 a x) - 1/(4 pi),
    x = rho^2 / 2,  nu_n = n q,  q = pi / a,

from the wedge kernel (1/(a t)) e^{-(r^2+r'^2)/4t} sum_n I_{nu_n}(r r'/2t)
sin(nu_n th) sin(nu_n th').  The corner layer adds r^{2s-2} Phi_a(s) to D_s,

    Phi_a(s) = (2/Gamma(s+1)) int_0^inf rho^{1-2s} F_a(rho) d rho.

With (A.nu) = c0 + c1 r near the vertex, the s = 0 finite part of
int_0^delta (c0 + c1 r) r^{2s-2} Phi_a(s) dr is -c0 Phi_a(0)/delta +
c1 (Phi_a(0) log delta + Phi_a'(0)/2), while the Hadamard finite part in the
arclength cut-off keeps -c0 Phi_a(0)/delta + c1 Phi_a(0) log delta.  The
slopes c1 of the two sides, measured away from the vertex, add up to the
angle variation da, so the zeta-regularized variation is the Hadamard one
plus sum_i e(a_i) da_i with

    e(a) = -Phi_a'(0) / 2.

Evaluation.  From int_0^inf x^{-s-1} e^{-x} I_nu(x) dx =
2^s Gamma(1/2+s) Gamma(nu-s) / (sqrt(pi) Gamma(1+nu+s)), valid for
1 < Re s < nu_1 where the constant 1/(4 pi) contributes nothing,

    Phi_a(s) = Gamma(1/2+s) / (a sqrt(pi) Gamma(1+s)) Z_q(s),
    Z_q(s) = sum_{n>=1} nu_n^2 Gamma(nu_n - s) / Gamma(nu_n + 1 + s).

Z_q is continued to s = 0 by subtracting the large-nu expansion
nu^{1-2s} (1 + s(s+1)(2s+1)/(6 nu^2) + O(nu^-3)) (Stirling's series) and
summing it with Riemann zeta functions.  At s = 0 each term is nu_n exactly
and d/ds of a term is -2 nu psi(nu) - 1, which gives

    Z_q(0)  = -(q^2 - 1) / (12 q),
    Z_q'(0) = S(q) + (q/6) log q + 2 q zeta'(-1) + (gamma/6 + 1/4 - (log q)/6) / q,
    S(q)    = sum_{n>=1} [2 nu_n (log nu_n - psi(nu_n)) - 1 - 1/(6 nu_n)],
    e(a)    = -(q / 2 pi) (Z_q'(0) - 2 log 2 Z_q(0)).

Two checks are built into the derivation.  Phi_a(0) = -(q^2 - 1)/(12 pi) is
the coefficient of the r^{-2} singularity of D_0 that the Schwarzian gives,
and the pole of the Mellin integral, (Phi_a(0)/2) da, is the variation of
the heat invariant b1 up to a multiple of da, which sums to zero.  For
a = pi/q with integer q the wedge kernel is a finite image sum,

    F_a(rho) = (1/4 pi) sum_{k=1}^{q-1} (c_k - x s_k^2) e^{-x (1 - c_k)},
    c_k + i s_k = e^{2 pi i k / q},

so e(a) has a closed form, for example e(pi) = 0, e(pi/2) = gamma/(4 pi)
and e(pi/4) = (5 gamma - 2 log 2 - 2)/(4 pi); the tests compare the series
with these.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AngleSumViolation,
    ContourThroughVertex,
    CountertermMismatch,
    RegularizationResidual,
    ValidationFailure,
)
from scipy.special import psi
from scipy.special import zeta as hurwitz_zeta

from .quadrature import graded_breaks, jacgauss, leggauss, panel_nodes
from .scmap import (
    _local_regular_factor,
    _prevertex_sums,
    cumulative_images,
    map_forward,
    sc_derivative,
    schwarzian_xz,
    schwarzian_xz_inverted,
)
from .zetadet import EULER_GAMMA

LOG2 = 0.6931471805599453094
ZETA_PRIME_M1 = -0.1654211437004509292   # zeta'(-1) = 1/12 - log(Glaisher's A)


_MATCH_FRAC = 0.25      # near-zone radius, fraction of the prevertex gap
_MATCH_CAP = 0.35       # ... and at most this fraction of the side's interval
_EPS_FRAC = 1e-3        # Hadamard eps, fraction of the min side length
_ARC_FRAC = 0.1         # contour-shift arc radius, fraction of the gap
_ARC_CAP = 0.3          # ... and at most this fraction of the side's interval
_GL_ORDER = 20          # Gauss-Legendre panels of the far parts and eps values
_FP_ORDER = 48          # closed-form finite part rules
_COUNTERTERM_TOL = 1e-5
_ANGLE_SUM_TOL = 1e-8
_FIELD_TOL = 1e-14      # a side whose normal velocity is below this is skipped


@dataclass(frozen=True)
class DeterminantVariation:
    boundary_term: float
    corner_term: float
    total: float
    route: str
    residual_diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# corner constant
# ---------------------------------------------------------------------------

def corner_constant(beta):
    """Closed-form cone-angle constant (1/(6 beta)) (beta/(2 pi) - 2 pi/beta)."""
    if not 0 < beta < 4 * np.pi:
        raise ValidationFailure(f"beta = {beta} outside (0, 4 pi)")
    return (beta / (2 * np.pi) - 2 * np.pi / beta) / (6 * beta)


def corner_constant_by_contour(beta):
    """Contour-integral evaluation of the cone-angle constant.

    Integrates cot(theta/2) / sin^2(pi theta / beta) along two contours that
    run from -/+ pi - i*inf to -/+ pi + i*inf.  Near the real axis each
    contour swings inward and crosses at +/- xc with xc = min(beta, pi)/2,
    which keeps every pole of the integrand except theta = 0 outside the
    enclosed strip, and at least xc from the contour, for all beta in
    (0, 4 pi).  The result is (int_L - int_R) / (4 i beta^2), real up to
    quadrature noise; each leg of a path is cut into panels of at most
    min(beta, pi)/2 with 20 Gauss-Legendre nodes each.

    Off the axis the integrand decays like e^{-2 pi |Im theta| / beta}, so
    the heights scale with beta: the knee at min(2, 20 beta) and the ends at
    most 7 beta above it.  pi |Im theta| / beta then stays below 27 pi, and
    sin^2(pi theta / beta) within the double range, for every beta.
    """
    if not 0 < beta < 4 * np.pi:
        raise ValidationFailure(f"beta = {beta} outside (0, 4 pi)")
    xc = min(beta, np.pi) / 2

    def f(th):
        return (np.cos(th / 2) / np.sin(th / 2)) / np.sin(np.pi * th / beta) ** 2

    y_knee = min(2.0, 20.0 * beta)
    y_max = min(6.2 * beta + 8.0, y_knee + 7.0 * beta)

    def integrate_path(points):
        total = 0.0 + 0.0j
        for a, b in zip(points[:-1], points[1:]):
            n = max(2, int(np.ceil(abs(b - a) / (0.5 * min(beta, np.pi)))))
            th, half = panel_nodes(a + (b - a) * np.arange(n + 1) / n, 20)
            total += np.sum(half[:, None] * leggauss(20)[1] * f(th))
        return total

    def contour(sign):
        # sign=+1: the right contour at Re = +pi, crossing at +xc
        return [sign * np.pi - 1j * y_max, sign * np.pi - 1j * y_knee,
                sign * xc - 1j * y_knee, sign * xc + 1j * y_knee,
                sign * np.pi + 1j * y_knee, sign * np.pi + 1j * y_max]

    int_r = integrate_path(contour(+1))
    int_l = integrate_path(contour(-1))
    val = (int_l - int_r) / (4j * beta**2)
    return float(val.real)


def corner_functional(alpha):
    """Corner coefficient e(alpha) of the variational formula.

    e(a) = -(q/2 pi) (Z_q'(0) - 2 log 2 Z_q(0)) with q = pi/a, as derived in
    the module docstring; it depends on the angle alone and vanishes at
    a = pi.  The summand of S(q) decays like -1/(60 nu^3): the first 32 terms
    are summed directly and the rest from the asymptotic series of psi,
    sum_k B_2k / (k nu^{2k-1}), with Hurwitz zeta tails.  Accepts arrays.
    """
    n_terms = 32
    q = np.pi / np.asarray(alpha, dtype=float)
    nu = q[..., None] * np.arange(1, n_terms + 1)
    s = np.sum(2 * nu * (np.log(nu) - psi(nu)) - 1 - 1 / (6 * nu), axis=-1)
    for b_over_k, power in ((-1 / 60, 3), (1 / 126, 5), (-1 / 120, 7)):
        s = s + b_over_k * q**-power * hurwitz_zeta(power, n_terms + 1)
    logq = np.log(q)
    z0 = -(q**2 - 1) / (12 * q)
    z1 = (s + q * logq / 6 + 2 * q * ZETA_PRIME_M1
          + (EULER_GAMMA / 6 + 0.25 - logq / 6) / q)
    return -(q / (2 * np.pi)) * (z1 - 2 * LOG2 * z0)


def corner_term(p, delta_angles):
    """sum_i e(a_i) da_i with e = corner_functional; the angle variations
    must sum to zero."""
    da = np.asarray(delta_angles, dtype=float)
    if len(da) != p.n:
        raise ValidationFailure(f"expected {p.n} angle variations")
    scale = max(1.0, float(np.max(np.abs(da))))
    if abs(da.sum()) > _ANGLE_SUM_TOL * scale:
        raise AngleSumViolation(f"sum of delta angles {da.sum():.2e} is not zero")
    return float(np.sum(corner_functional(p.angles) * da))


# ---------------------------------------------------------------------------
# near-vertex data in the half-plane variable
# ---------------------------------------------------------------------------

def _local_regular_factor_left(m, i, w):
    """x'(z_i - w) w^{1 - alpha_i/pi}, analytic near w = 0 (approach from the
    left): the mirror image of the right factor, since
    (z - z_i)^{g_i} = e^{i pi g_i} w^{g_i} for z = z_i - w."""
    return np.exp(1j * np.pi * m.exponents[i]) * _local_regular_factor(
        m, i, -np.asarray(w, dtype=complex))


class _NearVertex:
    """Everything needed to integrate the boundary integrand near one vertex,
    approached along one of its two sides: from the right of its prevertex,
    z = z_i + w (sign +1), or from the left, z = z_i - w (sign -1).  The side
    picks the sign and the regular factor; every method is the same for
    both."""

    def __init__(self, m, i, from_right):
        self.m = m
        self.i = i
        self.sign = 1.0 if from_right else -1.0
        self._factor = _local_regular_factor if from_right else _local_regular_factor_left
        self.alpha = m.polygon.angles[i]
        self.apio = self.alpha / np.pi
        self.zi = m.prevertices[i]
        self.D = complex(self._factor(m, i, np.array(0.0 + 0.0j)))
        self.C_abs = abs(self.D) * np.pi / self.alpha
        self.m0 = (np.pi**2 - self.alpha**2) / (2 * np.pi**2)
        self._rho_rule = jacgauss(24, 0.0, self.apio - 1.0)

    def regular_factor(self, w):
        return (self._factor(self.m, self.i, w + 0j) / self.D).real

    def schwarz_w2(self, w):
        """w^2 {x,z}(z_i +/- w) for real w > 0, cancellation-free.

        With gp_i = (pi - alpha_i)/pi and T, U the sums over the other
        prevertices of gp_k/(d_k +/- w) and gp_k/(d_k +/- w)^2,

            w^2 {x,z} = gp_i (1 - gp_i/2) -/+ gp_i T w + w^2 (U - T^2/2),

        which stays accurate down to w at the double-precision floor (needed
        because sharp corners compress eps-neighborhoods like eps^{pi/alpha}).
        """
        w = np.asarray(w, dtype=float)
        others = np.arange(self.m.n) != self.i
        gp = -np.asarray(self.m.exponents)
        gpi = gp[self.i]
        T, U = _prevertex_sums(gp[others], self.zi - self.m.prevertex_array()[others]
                               + self.sign * w[..., None])
        return gpi * (1 - gpi / 2) - self.sign * gpi * T * w + w**2 * (U - T**2 / 2)

    def rho(self, w):
        """s(w) / (|C| w^{a/pi}): analytic, real, rho(0) = 1.

        From s(w) = |D| int_0^w u^{a/pi - 1} R(u) du and |C| = |D| pi/a, the
        Gauss-Jacobi rule on (0, w) gives rho = (a/pi) 2^{-a/pi} sum wt R.
        """
        w = np.atleast_1d(np.asarray(w, dtype=float))
        x, wt = self._rho_rule
        u = 0.5 * w[..., None] * (1.0 + x)
        return self.apio * 2.0 ** (-self.apio) * np.sum(wt * self.regular_factor(u), axis=-1)

    def h0(self, w):
        return (self.schwarz_w2(w).real) / self.regular_factor(w)

    def h1(self, w):
        return self.h0(w) * self.rho(w)

    def w_of_eps(self, eps):
        """w with arclength |x(w) - x_i| = eps (fixed point on rho).

        At a thin corner (eps/|C|)^(pi/alpha) can underflow to 0, and no
        panel grading starts from there (RegularizationResidual).
        """
        w = (eps / self.C_abs) ** (1.0 / self.apio)
        for _ in range(3):
            w = (eps / (self.C_abs * float(self.rho(w)[0]))) ** (1.0 / self.apio)
        if not (np.isfinite(w) and w > 0):
            raise RegularizationResidual(
                f"eps {eps:.3e} at the vertex of angle {self.alpha:.4g} gives w = {w}, "
                "outside the double range")
        return w


def _near_contributions(near, nu_hat, delta, eps_seq):
    """Finite part and finite-eps values of the near-vertex piece.

    The piece is linear in the normal velocity c0 + c1 s (s the arclength
    from the vertex), so each value is returned as its (c0, c1) pair of
    coefficients.  Returns (fp, vals) with fp of shape (2,) and vals
    of shape (len(eps_seq), 2); the finite-eps values have the growing terms
    already subtracted.
    """
    apio = near.apio
    m0 = near.m0
    pref = -nu_hat / near.D
    # closed-form finite part
    xj, wj = jacgauss(_FP_ORDER, 0.0, -apio)
    wq = 0.5 * delta * (1.0 + xj)
    I0 = (0.5 * delta) ** (1.0 - apio) * np.sum(wj * (near.h0(wq) - m0) / wq)
    xg, wg = leggauss(_FP_ORDER)
    wq1 = 0.5 * delta * (1.0 + xg)
    I1 = 0.5 * delta * np.sum(wg * (near.h1(wq1) - m0) / wq1)
    fp = pref * np.array([
        I0 - m0 * (np.pi / near.alpha) * delta ** (-apio),
        near.C_abs * (I1 + m0 * (np.log(delta) + (np.pi / near.alpha) * np.log(near.C_abs)))])

    # finite-eps values: numerical integral over [w(eps), delta] minus growing
    # terms.  One set of panels serves every eps: they double from the
    # smallest w(eps) up to delta, restarting at each larger w(eps), so the
    # integral from w(eps) is a tail sum of the panel integrals.
    w_eps = [near.w_of_eps(eps) for eps in eps_seq]
    if max(w_eps) >= delta:
        raise ValidationFailure("eps removal region exceeds the near zone")
    breaks = [min(w_eps)]
    for stop in sorted(w_eps)[1:] + [delta]:
        while breaks[-1] < stop:
            breaks.append(min(breaks[-1] * 2.0, stop))
    wn, half = panel_nodes(breaks, _GL_ORDER)
    h0 = near.h0(wn)
    g = np.stack([h0 * wn ** (-1.0 - apio), near.C_abs * h0 * near.rho(wn) / wn])
    panels = half * np.sum(leggauss(_GL_ORDER)[1] * g, axis=-1)
    tails = np.cumsum(panels[:, ::-1], axis=-1)[:, ::-1]
    vals = np.empty((len(eps_seq), 2), dtype=complex)
    for k, (eps, w) in enumerate(zip(eps_seq, w_eps)):
        growing = m0 * (np.pi / near.alpha) * near.C_abs * np.array([1.0 / eps, -np.log(eps)])
        vals[k] = pref * (tails[:, breaks.index(w)] - growing)
    return fp, vals


def _aitken_limit(v1, v2, v3):
    """Aitken Delta^2 limit of a halving sequence v(eps), v(eps/2), v(eps/4).

    Returns (limit, diverging, d2) where ``diverging`` flags a sequence whose
    corrections grow while still being significant against roundoff, the
    signature of a missed growing term.
    """
    d1, d2 = v2 - v1, v3 - v2
    noise = 1e-10 * (1.0 + abs(v3))
    if abs(d2) > 1.1 * abs(d1) + noise and abs(d2) > noise:
        return v3, True, abs(d2)
    denom = d2 - d1
    if abs(denom) <= max(1e-15 * (abs(d1) + abs(d2)), 0.2 * noise):
        return v3, False, abs(d2)
    return v3 - d2 * d2 / denom, False, abs(d2)


# ---------------------------------------------------------------------------
# per-side integration
# ---------------------------------------------------------------------------

def _far_part(m, j, breaks, z_of, jac, sxz_of, nu_hat, x_anchor):
    """Integral of the dz integrand -{x,z}(z) (A.nu)(s) nuhat / x'(z) of
    side j over the parameter panels ``breaks``, with z = z_of(t),
    dz = jac(t) dt and {x,z} = sxz_of(t), as its (c0, c1) pair for the
    normal velocity (A.nu)(s) = c0 + c1 s.

    The arclength s from vertex j is tracked by integrating x' cumulatively
    along the ordered nodes, starting from the image x_anchor of breaks[0].
    """
    tn, half = panel_nodes(breaks, _GL_ORDER)
    wg = leggauss(_GL_ORDER)[1]
    xs = cumulative_images(m, tn.ravel(), breaks[0], x_anchor, z_of, jac)
    s_vals = np.abs(xs.reshape(tn.shape) - m.polygon.vertices[j])
    gz = -sxz_of(tn) * nu_hat / sc_derivative(m, z_of(tn)) * jac(tn)
    return np.sum(half * np.sum(wg * np.stack([gz, gz * s_vals]), axis=-1), axis=-1)


def _far_part_finite_side(m, j, zl, zr, nu_hat, x_left_anchor):
    """Far part over [zl, zr] inside side j's prevertex interval."""
    breaks = graded_breaks(zl, zr, 0.5 * (zl - m.prevertices[j]),
                           0.5 * (m.prevertices[j + 1] - zr))
    return _far_part(m, j, breaks, lambda t: t, lambda t: 1.0,
                     lambda t: schwarzian_xz(m, t), nu_hat, x_left_anchor)


def _far_part_infinite_side(m, zl_w, zr_w, nu_hat, x_anchor_right):
    """Far part of the side through infinity, pulled back by z = 1/t.

    zl_w, zr_w: near-zone radii at the start vertex (z_{n-1} = 1, from the
    right) and the end vertex (z_0 = -1, from the left).  The traversal runs
    t from 1/(1+zl_w) down to -1/(1+zr_w); dz = -dt/t^2.  {x,z} is
    evaluated in t, where it has no cancellation near z = infinity.
    """
    t_hi = 1.0 / (1.0 + zl_w)
    t_lo = -1.0 / (1.0 + zr_w)
    breaks = graded_breaks(t_lo, t_hi, 0.3 * zr_w, 0.3 * zl_w)[::-1]  # t decreasing
    return _far_part(m, m.n - 1, breaks, lambda t: 1.0 / t, lambda t: -1.0 / t**2,
                     lambda t: schwarzian_xz_inverted(m, t), nu_hat, x_anchor_right)


@dataclass(frozen=True)
class _SideIntegrals:
    """The field-independent integrals of one side.

    The side's integrand is linear in its normal velocity c0 + c1 s, so each
    integral is kept as its (c0, c1) pair; the end vertex's pairs are
    coefficients of c0 + c1 L and -c1, the velocity in the arclength from
    that vertex.
    """

    fp_start: np.ndarray        # closed-form finite parts, shape (2,)
    fp_end: np.ndarray
    eps_start: np.ndarray       # finite-eps values over the eps triplet, (3, 2)
    eps_end: np.ndarray
    far: np.ndarray             # (2,)


def _eps_triplet(p):
    eps0 = _EPS_FRAC * min(p.side_lengths)
    return (eps0, 0.5 * eps0, 0.25 * eps0)


def _near_radii(m, j, gap_frac, interval_frac):
    """Near-zone radii at the start and end prevertex of side j: gap_frac of
    each prevertex's gap (a gap counts as at most 1), and, on a side with a
    finite prevertex interval, at most interval_frac of that interval."""
    radii = [gap_frac * min(m.gap(i), 1.0) for i in (j, (j + 1) % m.n)]
    if j < m.n - 1:
        zk = m.prevertex_array()
        radii = [min(r, interval_frac * (zk[j + 1] - zk[j])) for r in radii]
    return radii


def _integrate_side(m, j):
    """Near-vertex and far-part integrals of side j, both parts at once."""
    p = m.polygon
    n = p.n
    zk = m.prevertex_array()
    nu_hat = p.side_normal(j)

    # the start vertex is approached from the right of its prevertex and
    # the end vertex from the left, also for the side through infinity
    near_s = _NearVertex(m, j, from_right=True)
    near_e = _NearVertex(m, (j + 1) % n, from_right=False)
    delta_s, delta_e = _near_radii(m, j, _MATCH_FRAC, _MATCH_CAP)

    eps_triplet = _eps_triplet(p)
    fp_s, eps_s = _near_contributions(near_s, nu_hat, delta_s, eps_triplet)
    fp_e, eps_e = _near_contributions(near_e, nu_hat, delta_e, eps_triplet)

    x_anchor = map_forward(m, zk[j] + delta_s)
    if j < n - 1:
        far = _far_part_finite_side(m, j, zk[j] + delta_s, zk[j + 1] - delta_e,
                                    nu_hat, x_anchor)
    else:
        far = _far_part_infinite_side(m, delta_s, delta_e, nu_hat, x_anchor)
    return _SideIntegrals(fp_s, fp_e, eps_s, eps_e, far)


def _side_integrals(m, j):
    """_integrate_side(m, j), computed the first time a field moves side j
    and kept in the map's side_integrals."""
    if j not in m.side_integrals:
        m.side_integrals[j] = _integrate_side(m, j)
    return m.side_integrals[j]


def hadamard_boundary_integral(m, f):
    """Hadamard-regularized boundary integral H-int {z,x} (A.nu) nuhat dx.

    Returns the eps -> 0 extrapolated value (complex); the closed-form finite
    part and the per-vertex extrapolation residuals are exposed through the
    ``diagnostics`` attribute of the result (a _HadamardResult).

    Each side's integrals are computed once per map (_side_integrals); a
    field then costs one combination of their (c0, c1) pairs per side, and
    the eps extrapolation and its checks.
    """
    p = m.polygon
    eps_triplet = _eps_triplet(p)

    total_extrap = 0.0 + 0.0j
    total_fp = 0.0 + 0.0j
    per_vertex_resid = []
    worst_d2 = 0.0

    for j, c0, c1, L in _moved_sides(p, f):
        side = _side_integrals(m, j)
        start, end = np.array([c0, c1]), np.array([c0 + c1 * L, -c1])
        far = side.far @ start
        fp_s, fp_e = side.fp_start @ start, side.fp_end @ end

        total_extrap += far
        total_fp += far + fp_s + fp_e
        for fp_v, seq in ((fp_s, side.eps_start @ start), (fp_e, side.eps_end @ end)):
            limit, diverging, d2 = _aitken_limit(*seq)
            if diverging:
                raise CountertermMismatch(
                    f"eps-halving values diverge near a vertex (last step {d2:.2e}); "
                    "a growing term appears to be missing")
            total_extrap += limit
            per_vertex_resid.append(abs(limit - fp_v))
            worst_d2 = max(worst_d2, d2)

    mismatch = abs(total_extrap - total_fp)
    scale = max(1.0, abs(total_fp))
    if mismatch > max(_COUNTERTERM_TOL * scale, 4.0 * worst_d2):
        raise CountertermMismatch(
            f"eps-extrapolation disagrees with the closed-form finite part by {mismatch:.2e}")
    return _HadamardResult(
        value=complex(total_extrap),
        finite_part=complex(total_fp),
        diagnostics={
            "eps": eps_triplet,
            "per_vertex_extrapolation_residual": per_vertex_resid,
            "mismatch": mismatch,
            "last_halving_step": worst_d2,
        },
    )


@dataclass(frozen=True)
class _HadamardResult:
    value: complex
    finite_part: complex
    diagnostics: dict


# ---------------------------------------------------------------------------
# the two routes
# ---------------------------------------------------------------------------

def main_formula(p, m, f):
    """Variational formula for log det: boundary term + corner term."""
    res = hadamard_boundary_integral(m, f)
    boundary = float(res.value.imag) / (6 * np.pi)
    corner = corner_term(p, f.delta_angles)
    diag = dict(res.diagnostics)
    diag["finite_part_boundary_term"] = res.finite_part.imag / (6 * np.pi)
    return DeterminantVariation(
        boundary_term=boundary,
        corner_term=corner,
        total=boundary + corner,
        route="hadamard",
        residual_diagnostics=diag,
    )


def _moved_sides(p, f):
    """(j, c0, c1, L) of every side j of length L whose normal velocity
    c0 + c1 s the field does not leave below _FIELD_TOL."""
    for j, ((c0, c1), L) in enumerate(zip(f.side_normal_velocity, p.side_lengths)):
        if not abs(c0) + abs(c1) * L < _FIELD_TOL:
            yield j, c0, c1, L


def contour_route_applies(p, f):
    """Whether contour_shift_integral takes field f: every side that f moves
    is shifted in parallel ((A.nu) = c0, c1 = 0) and has a finite prevertex
    interval, so it is not the last side."""
    return all(abs(c1) * L <= 1e-10 * max(1.0, abs(c0)) and j < p.n - 1
               for j, c0, c1, L in _moved_sides(p, f))


def contour_shift_integral(m, f):
    """Shift-route value of d(log det) for a field that
    contour_route_applies to.

    Near each vertex of a moved side the boundary integral is cut at the
    image of an arc of radius eps around the prevertex and the divergent
    piece is replaced by the interior contour integral of {z,x} along that
    arc.
    """
    p = m.polygon
    if not contour_route_applies(p, f):
        raise ValidationFailure("the contour route takes parallel shifts of sides with a finite "
                                "prevertex interval; relabel the polygon if the last side moves")
    zk = m.prevertex_array()
    total = 0.0
    for j, c0, _, _ in _moved_sides(p, f):
        nu_hat = p.side_normal(j)
        tau = p.side_tangent(j)
        theta_s = np.angle(tau)
        eps_s, eps_e = _near_radii(m, j, _ARC_FRAC, _ARC_CAP)

        # straight piece between the arc feet
        straight = c0 * _far_part_finite_side(m, j, zk[j] + eps_s, zk[j + 1] - eps_e, nu_hat,
                                              map_forward(m, zk[j] + eps_s))[0]
        total += straight.imag / (6 * np.pi)

        # interior arc corrections at both ends; the start vertex carries the
        # phase e^{+i alpha} with a minus sign, the end vertex the conjugate
        # phase with a plus sign (calibrated against the Hadamard route and
        # the exact rectangle derivative; epsilon-independence pins both)
        arc_s = _arc_integral(m, j, eps_s)
        arc_e = _arc_integral(m, j + 1, eps_e)
        a_s = p.angles[j]
        a_e = p.angles[j + 1]
        total -= c0 * (np.exp(1j * a_s) * np.exp(1j * theta_s) * arc_s).imag / (
            6 * np.pi * np.sin(a_s))
        total += c0 * (np.exp(-1j * a_e) * np.exp(1j * theta_s) * arc_e).imag / (
            6 * np.pi * np.sin(a_e))
    return float(total)


def _arc_integral(m, i, eps):
    """int over the half-plane arc around prevertex i of {z,x} dx, traversed
    from angle pi to 0 (earlier boundary point to later)."""
    i = i % m.n
    if eps >= m.gap(i):
        raise ContourThroughVertex(f"arc radius {eps} reaches a neighboring prevertex")
    (th,), (half,) = panel_nodes([np.pi, 0.0], 64)
    w = half * leggauss(64)[1]
    z = m.prevertices[i] + eps * np.exp(1j * th)
    integrand = -schwarzian_xz(m, z) / sc_derivative(m, z) * (1j * eps * np.exp(1j * th))
    return np.sum(w * integrand)
