"""Schwarz-Christoffel maps from the upper half-plane onto convex polygons.

The map is x(z) = base + C * int_{z_1}^{z} prod_k (zeta - z_k)^(alpha_k/pi - 1) dzeta
with all n prevertices finite and the Moebius gauge fixed by
z_1 = -1, z_2 = 0, z_n = +1.  Pinning the first and last prevertices keeps
the n-3 unknowns inside the bounded cell 0 < z_3 < ... < z_{n-1} < 1, so no
prevertex can escape to infinity (pinning the first *three* does not have
this property: for the unit square it forces z_4 = infinity exactly).  The
side from vertex n back to vertex 1 is the one mapped through z = infinity.

Powers use the principal branch evaluated from the closed upper half-plane,
so on the real axis arg(z - z_k) is 0 to the right of z_k and pi to the
left.  The parameter problem (side-length ratios) is solved in log-gap
variables, which keeps the ordering built in and is robust against mild
crowding.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

from .errors import NoConvergence, PoleQuery, PrevertexCrowding, ValidationFailure
from .geometry import Polygon
from .quadrature import jacgauss, leggauss, panel_nodes

_QUAD_ORDER = 24        # Gauss order of every SC segment quadrature
_VERTEX_TOL = 1e-8      # mapped vertices against the polygon, relative to its size
_RESIDUAL_TOL = 1e-9    # side-ratio residual of an accepted map
_SOLVER_MAX_ITER = 200  # least-squares evaluations per unknown prevertex
_MIN_GAP = 1e-12        # smallest prevertex gap the map resolves
_PANEL_FRAC = 0.45      # panel length over its distance to a singular point
_PANEL_MAX_DEPTH = 48   # bisections of a segment into panels


@dataclass(frozen=True)
class SCMap:
    """Solved Schwarz-Christoffel map, built by checked_map, residual included.

    vertex_images are the prevertex images checked against the polygon;
    side_integrals keeps varform's per-side integrals as fields need them."""

    prevertices: tuple
    exponents: tuple          # alpha_k/pi - 1, in (-1, 0) for convex targets
    prefactor: complex
    base_point: complex       # image of prevertices[0], i.e. the first vertex
    polygon: Polygon
    residual: float
    vertex_images: np.ndarray = field(default=None, compare=False, repr=False)
    side_integrals: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def n(self):
        return len(self.prevertices)

    def prevertex_array(self):
        return np.asarray(self.prevertices, dtype=float)

    def gap(self, i):
        """Distance from prevertex i to its nearest neighbour."""
        zk = self.prevertex_array()
        d = np.abs(zk - zk[i])
        d[i] = np.inf
        return float(d.min())

    def to_json_dict(self):
        return {
            "prevertices": list(self.prevertices),
            "C": [self.prefactor.real, self.prefactor.imag],
            "base": [self.base_point.real, self.base_point.imag],
            "residual": self.residual,
        }


# ---------------------------------------------------------------------------
# derivative evaluation with the closed-UHP branch
# ---------------------------------------------------------------------------

def _log_uhp(w):
    """log with arg in (-pi, pi], forcing arg = +pi on the negative real axis.

    Points with tiny negative imaginary part (roundoff below the axis) are
    treated as boundary points approached from above.
    """
    w = np.asarray(w, dtype=complex)
    out = np.log(np.abs(w)) + 1j * np.angle(w)
    fix = (w.imag < 0) & (np.abs(w.imag) < 1e-13 * np.abs(w.real)) & (w.real < 0)
    if np.any(fix):
        out = np.where(fix, np.log(np.abs(w)) + 1j * np.pi, out)
    return out


def sc_derivative(m, z):
    """x'(z) = C * prod (z - z_k)^{gamma_k}, valid on the closed half-plane."""
    return m.prefactor * _unnormalized_derivative(m.prevertex_array(), m.exponents, z)


def _unnormalized_derivative(zk, g, z):
    """prod (z - z_k)^{g_k}: one _log_uhp call on the (points, n) array of
    differences, whose columns are summed with their exponents in k order."""
    z = np.asarray(z, dtype=complex)
    logs = _log_uhp(z[..., None] - np.asarray(zk, dtype=float))
    s = np.zeros(z.shape, dtype=complex)
    for k in range(len(zk)):
        s = s + g[k] * logs[..., k]
    return np.exp(s)


# ---------------------------------------------------------------------------
# compound quadrature of x' along a straight segment
# ---------------------------------------------------------------------------

def _panel_breaks(a, b, sing_pts, anchored):
    """Breakpoints 0 = t0 < ... < tM = |b-a| for panels along [a, b].

    Each panel must be shorter than _PANEL_FRAC times its distance to the
    nearest singular point, unless _PANEL_MAX_DEPTH bisections made it.  The
    panel touching t = 0 ignores the anchored singularity there, since a
    Gauss-Jacobi weight absorbs it exactly.
    """
    T = abs(b - a)
    u = (b - a) / T
    stack = [(0.0, T, 0)]
    accepted = []
    while stack:
        t0, t1, depth = stack.pop()
        mid = a + u * (0.5 * (t0 + t1))
        d = np.abs(np.asarray(sing_pts, dtype=complex) - mid)
        if anchored is not None and t0 == 0.0:
            d[anchored] = np.inf
        dist = max(float(d.min()) - 0.5 * (t1 - t0), 0.0)
        if ((t1 - t0) <= _PANEL_FRAC * dist or depth >= _PANEL_MAX_DEPTH
                or (t1 - t0) < 1e-15 * T):
            accepted.append((t0, t1))
        else:
            mid_t = 0.5 * (t0 + t1)
            stack.append((t0, mid_t, depth + 1))
            stack.append((mid_t, t1, depth + 1))
    accepted.sort()
    return accepted, u


def integrate_sc_segment(zk, g, a, b, sing_index=None):
    """Integral of prod (zeta - z_k)^{g_k} along the segment [a, b], with
    _QUAD_ORDER Gauss nodes per panel.

    ``sing_index``: index k such that a == z_k; the (zeta - z_k)^{g_k} factor
    is then absorbed into a Gauss-Jacobi weight on the panel touching a.
    """
    if a == b:
        return 0.0 + 0.0j
    zk = np.asarray(zk, dtype=float)
    g = np.asarray(g, dtype=float)
    panels, u = _panel_breaks(a, b, zk, sing_index)
    total = 0.0 + 0.0j
    if sing_index is not None:
        # the first panel touches a = z_k
        (t0, t1), panels = panels[0], panels[1:]
        h = t1 - t0
        gamma = g[sing_index]
        x, w = jacgauss(_QUAD_ORDER, 0.0, gamma)
        t = 0.5 * h * (1.0 + x)
        zeta = a + u * t
        others = np.concatenate([zk[:sing_index], zk[sing_index + 1:]])
        gothers = np.concatenate([g[:sing_index], g[sing_index + 1:]])
        val = _unnormalized_derivative(others, gothers, zeta)
        scale = np.exp((gamma + 1) * (np.log(0.5 * h) + _log_uhp(np.array(u))[()]))
        total += scale * np.sum(w * val)
    if panels:
        # the panels are contiguous: each ends where the next one starts
        ends = np.append([t0 for t0, _ in panels], panels[-1][1])
        zeta, half = panel_nodes(a + u * ends, _QUAD_ORDER)
        w = leggauss(_QUAD_ORDER)[1]
        for s in np.sum(half[:, None] * w * _unnormalized_derivative(zk, g, zeta), axis=-1):
            total += s
    return total


def _interval_integrals(zk, g):
    """Integral of prod (zeta - z_k)^{g_k} over each finite prevertex
    interval [z_k, z_{k+1}], split at the midpoint so each half is anchored
    at its own endpoint singularity."""
    out = np.empty(len(zk) - 1, dtype=complex)
    for k in range(len(zk) - 1):
        mid = 0.5 * (zk[k] + zk[k + 1])
        out[k] = (integrate_sc_segment(zk, g, zk[k], mid, sing_index=k)
                  - integrate_sc_segment(zk, g, zk[k + 1], mid, sing_index=k + 1))
    return out


def _vertex_chain(base, C, segs):
    """Vertex images base, base + C segs[0], ...: running sums in order."""
    xs = [base]
    for seg in segs:
        xs.append(xs[-1] + C * seg)
    return np.asarray(xs)


def _mapped_side_lengths(zk, g):
    """|integral of the SC derivative| over each finite prevertex interval."""
    segs = _interval_integrals(zk, g)
    # abs() of each element; np.abs of a complex array rounds differently
    return np.hypot(segs.real, segs.imag)


# ---------------------------------------------------------------------------
# parameter problem
# ---------------------------------------------------------------------------

def _initial_gap_logs(L):
    """Crude prevertex initialization: disk prevertices at arc lengths
    proportional to the side lengths, sent to the half-plane by the Moebius
    matching the (-1, 0, 1) pins.  Returns log-gap variables."""
    n = len(L)
    phi = np.concatenate([[0.0], 2 * np.pi * np.cumsum(L) / np.sum(L)])[:n]
    om = np.exp(1j * phi)

    def f(w):
        return (w - om[0]) * (om[1] - om[n - 1]) / ((w - om[n - 1]) * (om[1] - om[0]))

    z = ((f(om[2:n - 1]) - 1) / (f(om[2:n - 1]) + 1)).real
    inner = np.clip(np.sort(z), 1e-8, 1 - 1e-8)
    gaps = np.diff(np.concatenate([[0.0], inner, [1.0]]))
    gaps = np.maximum(gaps, 1e-10)
    return np.log(gaps[:-1] / gaps[-1])


def solve_parameter_problem(p):
    """Solve the SC parameter problem for polygon p.

    Prevertices are normalized to z_1 = -1, z_2 = 0, z_n = 1; the n-3
    interior prevertices in (0, 1) are solved in log-gap variables so that
    the mapped side-length ratios match the polygon.  The map is then built
    and checked by checked_map.
    """
    n = p.n
    if n == 3:
        return checked_map(p, [-1.0, 0.0, 1.0])
    g = np.asarray(p.angles) / np.pi - 1.0
    L = np.asarray(p.side_lengths)
    target = np.log(L[1:n - 1] / L[0])

    def assemble(u):
        # gaps of (0, z_3, ..., z_{n-1}, 1): softmax of (u_1..u_{n-3}, 0)
        e = np.exp(np.concatenate([u, [0.0]]))
        gaps = e / e.sum()
        return np.concatenate([[-1.0, 0.0], np.cumsum(gaps)])

    def residuals(u):
        ell = _mapped_side_lengths(assemble(u), g)
        return np.log(ell[1:] / ell[0]) - target

    sol = least_squares(residuals, _initial_gap_logs(L), method="lm", xtol=1e-15,
                        ftol=1e-15, gtol=1e-15, max_nfev=_SOLVER_MAX_ITER * (n - 3))
    return checked_map(p, assemble(sol.x))


def checked_map(p, prevertices):
    """The SC map of polygon p with the given prevertices, checked.

    Adjacent prevertices closer than _MIN_GAP crowd the map beyond what it
    resolves (PrevertexCrowding).  One pass over the prevertex intervals gives
    the side lengths l, whose residual max_k |log(l_k/l_1) - log(L_k/L_1)|
    against the polygon's sides L (0 for a triangle) must be <= _RESIDUAL_TOL,
    fixes the prefactor and base point from the first side [x_1, x_2] and
    gives every vertex image; these must match the polygon's vertices and are
    kept as the map's vertex_images.  Either check failing raises NoConvergence.
    """
    zk = np.asarray(prevertices, dtype=float)
    if zk.shape != (p.n,):
        raise ValidationFailure(f"{zk.size} prevertices for a {p.n}-gon")
    gap = float(np.min(np.diff(zk)))
    if not gap >= _MIN_GAP:
        raise PrevertexCrowding(f"prevertex gap {gap:.3e} below {_MIN_GAP:g}")
    g = np.asarray(p.angles) / np.pi - 1.0
    segs = _interval_integrals(zk, g)
    ell, L = np.hypot(segs.real, segs.imag), np.asarray(p.side_lengths)
    misfit = np.abs(np.log(ell[1:] / ell[0]) - np.log(L[1:-1] / L[0]))
    residual = float(np.max(misfit)) if p.n > 3 else 0.0
    if not residual <= _RESIDUAL_TOL:
        raise NoConvergence(f"parameter problem residual {residual:.3e} above tolerance")
    verts = p.vertex_array()
    C, base = complex((verts[1] - verts[0]) / segs[0]), complex(verts[0])
    xk = _vertex_chain(base, C, segs)
    err = np.max(np.abs(xk - verts)) / max(1.0, float(np.max(np.abs(verts))))
    if not err <= _VERTEX_TOL:
        raise NoConvergence(f"mapped vertices off by {err:.3e}")
    return SCMap(
        prevertices=tuple(float(z) for z in zk),
        exponents=tuple(float(x) for x in g),
        prefactor=C,
        base_point=base,
        polygon=p,
        residual=residual,
        vertex_images=xk,
    )


# ---------------------------------------------------------------------------
# forward evaluation
# ---------------------------------------------------------------------------

def map_forward(m, z):
    """Evaluate x(z) for z in the closed upper half-plane.

    Integrates x' along the straight segment from the nearest prevertex to z
    with compound Gauss-Jacobi/Legendre panels.
    """
    z = complex(z)
    if z.imag < -1e-12:
        raise ValidationFailure(f"z = {z} not in the closed upper half-plane")
    z = complex(z.real, max(z.imag, 0.0))
    zk = m.prevertex_array()
    g = np.asarray(m.exponents)
    start = int(np.argmin(np.abs(zk - z)))
    xk = m.vertex_images
    if z == zk[start]:
        return complex(xk[start])
    seg = integrate_sc_segment(zk, g, zk[start], z, sing_index=start)
    return complex(xk[start] + m.prefactor * seg)


# ---------------------------------------------------------------------------
# Schwarzians
# ---------------------------------------------------------------------------

def _prevertex_sums(gp, d):
    """sum_k gp_k/d_k and sum_k gp_k/d_k^2 over the last axis of d, the
    distances z - z_k to the prevertices, gp_k = (pi - alpha_k)/pi."""
    return np.sum(gp / d, axis=-1), np.sum(gp / d**2, axis=-1)


def schwarzian_xz(m, z):
    """Schwarzian {x, z}: closed-form rational function of the prevertices."""
    z = np.asarray(z, dtype=complex)
    zk = m.prevertex_array()
    gp = -np.asarray(m.exponents)        # (pi - alpha_k)/pi
    if np.min(np.abs(z[..., None] - zk)) < 1e-13 * max(1.0, float(np.max(np.abs(zk)))):
        raise PoleQuery("z coincides with a prevertex")
    s1, s2 = _prevertex_sums(gp, z[..., None] - zk)
    out = s2 - 0.5 * s1**2
    return complex(out) if out.ndim == 0 else out


def schwarzian_xz_inverted(m, t):
    """Schwarzian {x, z} at z = 1/t, for the side through z = infinity.

    z = 1/t is a Moebius map, so {x, z} = t^4 {x, t}.  The turning exponents
    sum to 2, so dx/dt is a constant times prod_k (1 - z_k t)^(-gp_k) and
    {x, t} = sum gp_k z_k^2/(1 - z_k t)^2 - (sum gp_k z_k/(1 - z_k t))^2/2.
    Unlike the z form, whose two sums both approach 2/z^2 and cancel to
    O(1/z^4), this keeps its digits as t -> 0.
    """
    t = np.asarray(t, dtype=complex)
    zk = m.prevertex_array()
    gp = -np.asarray(m.exponents)
    w = zk / (1.0 - t[..., None] * zk)
    out = t**4 * (np.sum(gp * w**2, axis=-1) - 0.5 * np.sum(gp * w, axis=-1) ** 2)
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# the regular factor at a vertex
# ---------------------------------------------------------------------------

def _local_regular_factor(m, i, w):
    """F(w) = x'(z_i + w) * w^{1 - alpha_i/pi}, analytic near w = 0.

    Branch-safe product: factors anchored at prevertices right of z_i are
    rewritten with positive real part so the principal branch is analytic in
    the full disk (the upper-half-plane limit is matched on the real axis).
    """
    zk = m.prevertex_array()
    g = np.asarray(m.exponents)
    w = np.asarray(w, dtype=complex)
    s = np.zeros(w.shape, dtype=complex)
    for k in range(m.n):
        if k == i:
            continue
        if zk[k] < zk[i]:
            s = s + g[k] * np.log(zk[i] - zk[k] + w)
        else:
            # (z - z_k)^g = e^{i pi g} (z_k - z)^g on the UHP side of the cut
            s = s + g[k] * np.log(zk[k] - zk[i] - w) + 1j * np.pi * g[k]
    return m.prefactor * np.exp(s)


# ---------------------------------------------------------------------------
# side utilities shared with the variational formula
# ---------------------------------------------------------------------------

def cumulative_images(m, t_nodes, t_start, x_start, z_of, jac):
    """Images x(z_of(t)) at the ordered nodes t_nodes, with x_start the image
    at t_start and dz = jac(t) dt.

    The increment from each node to the next is a 12-point Gauss-Legendre
    rule, evaluated for all nodes in one call; the increments are summed in
    order, so each image is the running sum of the ones before it.
    """
    tq, half = panel_nodes(np.concatenate([[t_start], t_nodes]), 12)
    wq = leggauss(12)[1]
    inc = half * np.sum(wq * (sc_derivative(m, z_of(tq)) * jac(tq)), axis=-1)
    return np.cumsum(np.concatenate([[x_start], inc]))[1:]
