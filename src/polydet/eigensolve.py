"""Dirichlet eigenvalues on polygons.

Two sources: the exact separable spectrum for rectangles, and a method of
particular solutions (MPS) solver for general convex polygons.  The MPS
variant is the subspace-angle one (Betcke and Trefethen, SIAM Review 47,
2005): corner-adapted Fourier-Bessel fans, boundary plus interior
collocation, smallest singular value sigma(lambda) of the boundary block of
the orthonormalized basis swept over lambda.

The solver holds the eigenvalues it has located (MPSSolver.located), and
each stage of a sweep only picks where to sample: the grid; the windows
where the heat trace names a missing eigenvalue and the quarter points of
the low grid intervals that reach above what it vouches for (cover; see
heat_reading); the gaps that the Weyl law says are too wide and that reach
above what the heat trace vouches for (audit) and a 4x finer grid (rescan,
repeated while the count is off and the last rescan admitted something).
All of them go through one scan, MPSSolver._scan, which divides the located
V-shapes out of the samples and refines every minimum below a threshold by
fitting sigma^2 as a parabola in lambda (MPSSolver._refine_checked).  A
sibling too close for the samples to separate is probed in one place,
MPSSolver._find_siblings, which the sweep runs after the grid, after each
named window, after the cover, after the audit and after each rescan; one
rule, MPSSolver._may_shadow, picks the located eigenvalues it probes.  MPSSolver.find_in(lo, hi, n) searches one
window for the cover and the audit.  Only MPSSolver._admit adds _Located
records (one per eigenvalue, with its multiplicity, error and admitting
stage) to MPSSolver.located.  The sigma evaluations of a sweep are counted
per stage into Spectrum.meta["sigma_evals"], and the copies each stage
admitted into Spectrum.meta["admitted"].

sigma comes at two grades.  Scans (the grid, rescans, cover probes, find_in
windows and sibling brackets) only ask whether sigma is below
a threshold, and take the k smallest eigenvalues of the Gram matrix
Q_B^T Q_B as sigma_k^2: good to about 1e-16 absolute, so sigma is good to
about 1e-8 near a dip, at about a third of the cost of an SVD.  Refinement,
the multiplicity count, the sibling probe's slope and the eigenfunctions
need sigma down to its noise floor (about 1e-14) and take the SVD of Q_B.

The heat trace both names and vouches, from one reading (heat_reading):
the residual of its short-time expansion, taken once on a grid of t.  On
the located eigenvalues it is minus the sum of exp(-lam t) over the missing
lam, so its decay between two t of the grid names where a miss lies, and
the cover searches there first.  Its floor, which one missing or doubled
eigenvalue below certified_lambda would clear by 10x, certifies the count:
the cover scans no low interval, and the audit no gap, that ends below it.
Counting is validated against the two-term Weyl law plus the heat-trace
constant b1; a failed check raises MissedEigenvalue, naming the polygon and
the first eigenvalue the count lacks, rather than silently returning a
thinned spectrum.
"""

import functools
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
from scipy.special import gammaln, jv

from .errors import (
    BasisIllConditioned,
    DegenerateEigenvalue,
    MissedEigenvalue,
    ValidationFailure,
)
from .geometry import build_polygon
from .quadrature import graded_breaks, leggauss, panel_nodes
from .zetadet import heat_coefficients, heat_trace_residual

# basis and collocation sizes
_POINTS_PER_WAVELENGTH = 8.0
_BASIS_SAFETY = 1.3
_BASIS_MIN = 14
_BASIS_EXTRA = 4                # added on top of the wavenumber estimate
_INTERIOR_FACTOR = 0.8
_INTERIOR_SEED = 1234           # of the interior collocation points
_INTERIOR_MIN = 60
_MAX_BASIS_ENTRIES = 1 << 20    # columns x collocation points; refused above
# sweep, refinement and counting
_GRID_PER_GAP = 3.0             # sweep points per mean eigenvalue gap
_REFINE_XTOL = 1e-11            # relative bracket tolerance
_MULT_TOL = 1e-3                # sigma threshold for multiplicity count
_RTOL = 1e-12                   # QR column drop tolerance (1e-14 makes the
                                # numerical rank jitter with lambda and
                                # puts noise on the sigma dips)
_GAP_TOL = 1e-6                 # simplicity gap for Hadamard variations
_WEYL_CW = 3.0                  # alarm band is +-(C_W + 3)
_DIP_THRESHOLD = 0.35           # grid values below this may hide a dip
_SIGMA_NOISE = 1e-14            # absolute noise of a computed sigma
_MAX_REFINE_STEPS = 40
_BLOCK_ENTRIES = 1 << 16        # basis entries a scan assembles at once
_BESSEL_PANEL = 1.2             # width in u of a Bessel-table panel
_BESSEL_DEGREE = 14             # Chebyshev degree on each panel
_SIDE_FIRST_PANEL = 2.0**-15    # first panel of the side rule, fraction of the side
_SIDE_ORDER = 12                # Gauss-Legendre nodes per panel of the side rule
# heat-trace reading: certificate and naming of a miss
_HEAT_T = np.arange(8.0, 49.0)  # t lambda_max at which the residual is taken
_HEAT_WINDOW = 3                # consecutive t whose largest |R| is a floor candidate
_HEAT_FLOOR_MAX = 1e-6          # a floor above this certifies nothing
_NAME_PAIR = slice(4, 6)        # _HEAT_T[4:6], t lambda_max = 12 and 13, names lambda*
_NAME_BELOW = 0.85              # lambda* is named only below this fraction of lambda_max
_NAME_STEPS = (3.0, 1.0)        # grid steps a named window reaches below and above lambda*
_NAME_POINTS = 17               # points find_in scans in a named window


@dataclass(frozen=True)
class Spectrum:
    """Sorted Dirichlet eigenvalues below a cutoff, with diagnostics."""

    eigenvalues: tuple
    errors: tuple
    lambda_max: float
    count_check: dict
    polygon_hash: str = ""
    meta: dict = field(default_factory=dict)

    def eigenvalue_array(self):
        return np.asarray(self.eigenvalues)


@dataclass
class _Located:
    """A located eigenvalue, made by MPSSolver._admit, with what _may_shadow
    reads (V slope, next singular value and whether it was probed) and the
    stage that admitted it."""

    lam: float
    err: float
    mult: int
    slope: float
    s_next: float
    stage: str
    probed: bool = False


def polygon_hash(p):
    h = hashlib.sha256()
    for v in p.vertices:
        h.update(np.float64(v.real).tobytes())
        h.update(np.float64(v.imag).tobytes())
    return h.hexdigest()[:16]


def weyl_two_term(p, lam):
    """Two-term Weyl counting estimate |P| lam/(4 pi) - |dP| sqrt(lam)/(4 pi)."""
    lam = np.asarray(lam, dtype=float)
    return (p.area * lam - p.perimeter * np.sqrt(np.maximum(lam, 0.0))) / (4 * np.pi)


def faber_krahn_bound(p):
    """Rigorous lower bound on lambda_1 of p: pi j_01^2 / area."""
    return np.pi * 5.783185962946785 / p.area


def weyl_count_check(p, eigs, lambda_max):
    """Deviation of the counting function from the two-term Weyl law plus
    its constant term, W(lam) + b1 (b1 the corner sum of the heat trace).

    Checked just below and above every eigenvalue and at the cutoff; the
    allowed band is +-(C_W + 3), C_W = _WEYL_CW.  Returns the largest
    deviation and the lambda where it falls, and k, the 1-based index of the
    eigenvalue at which the count first leaves the band: N + 1 where N falls
    below it (the first eigenvalue lacking), N where N rises above it, and
    None within the band.
    """
    b1 = heat_coefficients(p).b1
    eigs = np.sort(np.asarray(eigs, dtype=float))
    n = len(eigs)
    # N(lam - 0) and N(lam + 0) at every eigenvalue, and N at the cutoff,
    # in the order of lam
    lams = np.append(np.repeat(eigs, 2), lambda_max)
    counts = (np.arange(2 * n + 1) + 1) // 2
    devs = np.append(counts[:-1] - np.repeat(weyl_two_term(p, eigs) + b1, 2),
                     n - weyl_two_term(p, lambda_max) - b1)
    band = _WEYL_CW + 3.0
    i = int(np.argmax(np.abs(devs)))
    worst = float(abs(devs[i]))
    out = np.flatnonzero(np.abs(devs) > band)
    k = None if len(out) == 0 else int(counts[out[0]] + (devs[out[0]] < 0))
    return {"max_abs_dev": worst, "band": band, "ok": bool(worst <= band),
            "worst_lambda": float(lams[i]), "k": k}


def heat_reading(p, eigs, lambda_max):
    """One reading of the heat trace on eigs: (certificate, lambda*).

    The residual R of zetadet.heat_trace_residual is taken once, at t
    lambda_max = 8, 9, ..., 48 (_HEAT_T), and both results come from it.

    The certificate is the lambda below which R vouches for the count of
    eigs.  Its floor F is the smallest largest |R| over _HEAT_WINDOW
    consecutive t, so that a zero crossing of R does not pose as a floor.
    One eigenvalue lam missing or doubled moves R by exp(-lam t), more than
    10 F below certified_lambda = ln(1/(10 F))/t, with t the centre of the
    floor's window.  Two kinds of floor certify nothing (certified_lambda
    0).  One above _HEAT_FLOOR_MAX: the small sweeps of short spectra sit
    there, and a single defect can hide below such a floor.  And one in the
    last window: on a complete spectrum |R| falls with t only while the
    Weyl tail's error, of order exp(-lambda_max t), leads it, so an |R|
    still falling at t lambda_max = 48 is the decay of a defect below
    lambda_max (the house pentagon's pair at 159.06, reported as one
    eigenvalue twice, leaves R falling from -3.5e-6 to 0 across t
    lambda_max 16 to 48).  It holds floor, t_lambda_max (of that centre)
    and certified_lambda.

    lambda* names an eigenvalue missing from eigs, or is None.  R is minus
    the sum of exp(-lam t) over the missing lam, plus the tail's error.
    Where R < 0 at both t lambda_max = 12 and 13 (_NAME_PAIR), lambda* =
    -d ln(-R)/dt between them is the mean of the missing lam weighted by
    exp(-lam t): a single miss's own lam, and with several an upper bound on
    the lowest.  lambda* is named only above the Faber-Krahn bound, below
    which no eigenvalue lies, and below 0.85 lambda_max, where a miss
    outweighs the tail's error about 6 times.
    """
    ts = _HEAT_T / lambda_max
    h = heat_coefficients(p)
    r = heat_trace_residual(eigs, h, lambda_max, ts)
    # |R| is no smaller than the rounding of its largest term, a1/t
    peaks = np.lib.stride_tricks.sliding_window_view(
        np.maximum(np.abs(r), np.finfo(float).eps * h.a1 / ts), _HEAT_WINDOW).max(axis=1)
    i = int(np.argmin(peaks))
    floor, centre = float(peaks[i]), i + _HEAT_WINDOW // 2
    lam_c = 0.0
    if floor <= _HEAT_FLOOR_MAX and i < len(peaks) - 1:
        lam_c = float(np.log(0.1 / floor) / ts[centre])
    cert = {"floor": floor, "t_lambda_max": float(_HEAT_T[centre]), "certified_lambda": lam_c}
    (r0, r1), (t0, t1) = r[_NAME_PAIR], ts[_NAME_PAIR]
    lam = float(np.log(r0 / r1) / (t1 - t0)) if r0 < 0 and r1 < 0 else np.nan
    return cert, lam if faber_krahn_bound(p) < lam < _NAME_BELOW * lambda_max else None


def checked_spectrum(p, eigs, errs, lambda_max, meta):
    """The Spectrum of polygon p below lambda_max: eigenvalues sorted with
    their errors, keyed by polygon_hash(p), with their Weyl count check.

    Sweeps, exact rectangle spectra and cache entries are all built here;
    one failing the check has count_check["ok"] false, and zeta_logdet
    refuses it.  An eigenvalue that is not finite and positive, or an error
    that is not finite and >= 0, raises ValidationFailure."""
    eigs = np.asarray(eigs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if eigs.ndim != 1 or errs.shape != eigs.shape:
        raise ValidationFailure(f"{eigs.size} eigenvalues with {errs.size} error estimates")
    bad = np.flatnonzero(~(np.isfinite(eigs) & np.isfinite(errs) & (eigs > 0) & (errs >= 0)))
    if len(bad):
        raise ValidationFailure(f"eigenvalue {float(eigs[bad[0]])!r} with error "
                                f"{float(errs[bad[0]])!r}: eigenvalues must be finite and > 0, "
                                "errors finite and >= 0")
    order = np.argsort(eigs, kind="stable")
    eigs, errs = eigs[order], errs[order]
    return Spectrum(
        eigenvalues=tuple(float(x) for x in eigs),
        errors=tuple(float(e) for e in errs),
        lambda_max=float(lambda_max),
        count_check=weyl_count_check(p, eigs, lambda_max),
        polygon_hash=polygon_hash(p),
        meta=meta,
    )


def rectangle_spectrum(a, b, lambda_max):
    """Exact Dirichlet spectrum of the a x b rectangle below lambda_max."""
    if a <= 0 or b <= 0 or lambda_max <= 0:
        raise ValidationFailure("rectangle sides and lambda_max must be positive")
    m_max = int(np.floor(a * np.sqrt(lambda_max) / np.pi))
    lams = []
    for m in range(1, m_max + 1):
        rem = lambda_max - (np.pi * m / a) ** 2
        if rem <= 0:
            break
        n_max = int(np.floor(b * np.sqrt(rem) / np.pi))
        for n in range(1, n_max + 1):
            lams.append((np.pi * m / a) ** 2 + (np.pi * n / b) ** 2)
    p = build_polygon([0, a, a + 1j * b, 1j * b])
    return checked_spectrum(p, lams, np.zeros(len(lams)), lambda_max,
                            {"source": "rectangle_exact", "a": a, "b": b})


# ---------------------------------------------------------------------------
# Fourier-Bessel corner fans
# ---------------------------------------------------------------------------

class _BesselTable:
    """Piecewise-Chebyshev surrogate for J_nu(u) on [0, u_max] for a fixed
    family of orders.  Cuts the cost of a basis-matrix assembly from one jv
    call per (point, order) to one matrix product per panel: the Chebyshev
    values T_k(t) of the panel's points times its (degree, order) block of
    coefficients.

    J_nu(u) = u^nu H(u) with H analytic and even, so the panel containing
    u = 0 stores Chebyshev data for H and multiplies the branch factor u^nu
    back at evaluation time (for fractional nu the raw function is not
    analytic at 0 and plain interpolation there loses ~8 digits)."""

    def __init__(self, nus, u_max):
        self.nus = np.asarray(nus, dtype=float)
        n_panels = max(4, int(np.ceil(u_max / _BESSEL_PANEL)))
        self.edges = np.linspace(0.0, u_max * 1.02, n_panels + 1)
        degree = _BESSEL_DEGREE
        xc = np.cos(np.pi * (np.arange(degree + 1) + 0.5) / (degree + 1))
        # (panel, Chebyshev degree, order)
        coef = np.empty((n_panels, degree + 1, len(self.nus)))
        V = np.polynomial.chebyshev.chebvander(xc, degree)
        Vinv = np.linalg.inv(V)
        for pnl in range(n_panels):
            a, b = self.edges[pnl], self.edges[pnl + 1]
            u = 0.5 * (a + b) + 0.5 * (b - a) * xc
            if pnl == 0:
                vals = self._h_series(u)
            else:
                vals = jv(self.nus[None, :], u[:, None])
            coef[pnl] = Vinv @ vals
        self.coef = coef

    def _h_series(self, u):
        """H(u) = J_nu(u)/u^nu via the power series (stable for any nu)."""
        nus = self.nus
        out = np.zeros((len(u), len(nus)))
        u2 = (np.asarray(u) ** 2 / 4.0)[:, None]
        for m in range(24):
            lg = -nus * np.log(2.0) - gammaln(m + 1.0) - gammaln(nus + m + 1.0)
            term = (-1.0) ** m * u2**m * np.exp(lg)[None, :]
            out += term
            if np.max(np.abs(term)) < 1e-18:
                break
        return out

    @functools.cached_property
    def _dcoef(self):
        """Chebyshev coefficients of dJ/du on every panel (of dH/du on the
        first), made on first use so that a sweep never pays for them."""
        d = np.polynomial.chebyshev.chebder(self.coef, axis=1)
        return d * (2.0 / np.diff(self.edges))[:, None, None]

    def evaluate(self, u, derivative=False):
        """J_nu(u) for all orders, (len(u), len(nus)); with ``derivative``
        the pair (J_nu(u), J_nu'(u))."""
        u = np.asarray(u, dtype=float)
        n_panels = len(self.edges) - 1
        idx = np.clip(np.searchsorted(self.edges, u) - 1, 0, n_panels - 1)
        # sorted by panel, the points of each panel are one run of rows
        order = np.argsort(idx, kind="stable")
        us, idx = u[order], idx[order]
        starts = np.searchsorted(idx, np.arange(n_panels + 1))
        a, b = self.edges[idx], self.edges[idx + 1]
        t = (2.0 * us - (a + b)) / (b - a)
        T = np.empty((_BESSEL_DEGREE + 1, len(u)))      # T_k(t), row k
        T[0], T[1] = 1.0, t
        t2 = 2.0 * t
        for k in range(2, _BESSEL_DEGREE + 1):
            np.multiply(t2, T[k - 1], out=T[k])
            T[k] -= T[k - 2]
        out = np.empty((len(u), len(self.nus)))
        dout = np.empty_like(out) if derivative else None
        for pnl in np.flatnonzero(np.diff(starts)):
            s, e = starts[pnl], starts[pnl + 1]
            np.dot(T[:, s:e].T, self.coef[pnl], out=out[s:e])
            if derivative:
                np.dot(T[:-1, s:e].T, self._dcoef[pnl], out=dout[s:e])
        n0 = starts[1]
        u0 = us[:n0, None]
        if derivative:
            # (u^nu H)' = u^(nu - 1) (nu H + u H')
            dout[:n0] = np.power(u0, self.nus - 1.0) * (self.nus * out[:n0] + u0 * dout[:n0])
        with np.errstate(divide="ignore"):
            out[:n0] *= np.exp(self.nus * np.log(u0))
        J = np.empty_like(out)
        J[order] = out
        if not derivative:
            return J
        dJ = np.empty_like(dout)
        dJ[order] = dout
        return J, dJ


class _CornerBasis:
    """Union of Fourier-Bessel fans J_{k pi/alpha}(sqrt(lam) r) sin(k pi theta/alpha),
    one fan per corner, with theta measured from the corner's outgoing side."""

    def __init__(self, p, orders, u_max):
        self.p = p
        self.orders = orders
        self.vertices = p.vertex_array()
        self.tau = np.array([p.side_tangent(j) for j in range(p.n)])
        self.alphas = np.asarray(p.angles)
        self.tables = [
            _BesselTable(np.arange(1, orders[i] + 1) * np.pi / self.alphas[i], u_max)
            for i in range(p.n)
        ]

    def _local(self, pts):
        """Polar coordinates of pts about every corner; returns (r, theta)."""
        rel = (np.asarray(pts)[None, :] - self.vertices[:, None]) / self.tau[:, None]
        r = np.abs(rel)
        th = np.angle(rel)
        # boundary points on the incoming side can round to theta slightly
        # above alpha or below 0; clamp into the wedge
        th = np.where(th < -1e-9, th + 2 * np.pi, th)
        return r, th

    def sines(self, th):
        """Angular factors sin(k nu theta), one (points, orders) block per
        corner; they do not depend on lambda."""
        return [np.sin(np.arange(1, n_i + 1)[None, :] * (np.pi / a_i) * th_i[:, None])
                for n_i, a_i, th_i in zip(self.orders, self.alphas, th)]

    def matrix(self, lam, pts, local=None, sines=None):
        """Basis values at pts, one column per (corner, order).  ``local`` and
        ``sines`` are the cached _local(pts) and sines(theta), if any."""
        r, th = self._local(pts) if local is None else local
        sines = self.sines(th) if sines is None else sines
        return self.matrices([lam], (r, th), sines)[0]

    def matrices(self, lams, local, sines):
        """matrix(lam, pts) for every lam, (len(lams), points, columns), from
        one table evaluation per corner; ``local`` and ``sines`` as there."""
        r = local[0]
        rts = np.sqrt(np.asarray(lams, dtype=float))
        out = np.empty((len(rts), r.shape[1], sum(self.orders)))
        col = 0
        for i in range(self.p.n):
            J = self.tables[i].evaluate((rts[:, None] * r[i][None, :]).ravel())
            np.multiply(J.reshape(len(rts), r.shape[1], -1), sines[i],
                        out=out[:, :, col:col + self.orders[i]])
            col += self.orders[i]
        return out

    def gradient(self, lam, pts):
        """du/dx and du/dy for every basis column at pts."""
        r, th = self._local(pts)
        rt = np.sqrt(lam)
        gx, gy = [], []
        for i, s in enumerate(self.sines(th)):
            nu = np.pi / self.alphas[i]
            ks = np.arange(1, self.orders[i] + 1)
            ri = np.maximum(r[i][:, None], 1e-300)
            J, dJ = self.tables[i].evaluate(rt * r[i], derivative=True)
            dJ *= rt
            c = np.cos(ks[None, :] * nu * th[i][:, None])
            du_dr = dJ * s
            du_dth = J * c * (ks[None, :] * nu)
            # gradient in the global frame: e^{i phi} (u_r + i u_theta / r),
            # phi = theta + arg(tau_i)
            phase = self.tau[i] * np.exp(1j * th[i][:, None])
            grad = phase * (du_dr + 1j * du_dth / ri)
            gx.append(grad.real)
            gy.append(grad.imag)
        return np.concatenate(gx, axis=1), np.concatenate(gy, axis=1)


def _boundary_points(p, n_per_side):
    """Gauss-Legendre-distributed collocation points per side (open, no vertices)."""
    pts = []
    for j in range(p.n):
        a = p.vertices[j]
        b = p.vertices[(j + 1) % p.n]
        x, _ = leggauss(n_per_side[j])
        pts.append(a + (b - a) * 0.5 * (1.0 + x))
    return np.concatenate(pts)


def _interior_points(p, count):
    """Seeded points from the centroid fan triangulation.

    Sampling is affine-equivariant: a rigid motion of the polygon moves the
    points with it, keeping MPS output invariant under rigid motions.
    """
    rng = np.random.default_rng(_INTERIOR_SEED)
    v = p.vertex_array()
    c = v.mean()
    tri_areas = np.array([abs(((v[(j + 1) % p.n] - c).conjugate() * (v[j] - c)).imag) / 2
                          for j in range(p.n)])
    probs = tri_areas / tri_areas.sum()
    idx = rng.choice(p.n, size=count, p=probs)
    u = rng.random(count)
    w = rng.random(count)
    flip = u + w > 1
    u = np.where(flip, 1 - u, u)
    w = np.where(flip, 1 - w, w)
    a = v[idx]
    b = v[(idx + 1) % p.n]
    return c + u * (a - c) + w * (b - c)


# stages of a sweep; a sigma evaluation is counted under the innermost one
_STAGES = ("grid", "refine", "cover", "siblings", "audit", "rescan")


def _stage(name):
    """Count the sigma evaluations made inside the decorated method under
    the stage ``name`` in MPSSolver.sigma_evals, and add its wall time, less
    that of the stages it calls, to MPSSolver.stage_s[name]."""
    def decorate(method):
        @functools.wraps(method)
        def run(self, *args, **kwargs):
            outer, self._stage = self._stage, name
            outer_claimed, self._claimed = self._claimed, 0.0
            t0 = time.perf_counter()
            try:
                return method(self, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self.stage_s[name] += elapsed - self._claimed
                self._stage = outer
                self._claimed = outer_claimed + elapsed
        return run
    return decorate


class MPSSolver:
    """Sweepable MPS eigenproblem for a fixed polygon and lambda range."""

    def __init__(self, p, lambda_max):
        self.p = p
        self.lambda_max = float(lambda_max)
        rt = np.sqrt(self.lambda_max)
        diam = max(abs(a - b) for a in p.vertices for b in p.vertices)
        orders = []
        for i in range(p.n):
            reach = max(abs(p.vertices[i] - q) for q in p.vertices)
            # the fan must reach angular wavenumber ~ sqrt(lam) * reach
            n_i = int(np.ceil(_BASIS_SAFETY * p.angles[i] * rt * reach / np.pi))
            orders.append(max(_BASIS_MIN, n_i + _BASIS_EXTRA))
        self.orders = orders
        wavelength = 2 * np.pi / rt
        n_side = [max(12, int(np.ceil(_POINTS_PER_WAVELENGTH * L / wavelength)),
                      int(np.ceil(1.2 * max(orders))))
                  for L in p.side_lengths]
        n_int = max(_INTERIOR_MIN, int(_INTERIOR_FACTOR * sum(orders)))
        n_pts = sum(n_side) + n_int
        if sum(orders) * n_pts > _MAX_BASIS_ENTRIES:
            raise ValidationFailure(
                f"lambda_max {self.lambda_max:.6g} needs a basis of {sum(orders):.4g} columns "
                f"at {n_pts:.4g} collocation points, more than the {_MAX_BASIS_ENTRIES} entries "
                "a sweep builds; lower lambda_max or raise zeta.tau0")
        self.basis = _CornerBasis(p, orders, u_max=rt * diam)
        self.bpts = _boundary_points(p, n_side)
        self.ipts = _interior_points(p, n_int)
        self.pts = np.concatenate([self.bpts, self.ipts])
        self.m_b = len(self.bpts)
        self._local_pts = self.basis._local(self.pts)
        self._sines = self.basis.sines(self._local_pts[1])
        # below the Faber-Krahn bound the basis degenerates numerically and
        # produces spurious sigma ~ 0 plateaus; never sweep there
        self._lam_lo = 0.95 * faber_krahn_bound(p)
        # grid step: the mean eigenvalue gap 4 pi / area over _GRID_PER_GAP
        self.step = 4 * np.pi / p.area / _GRID_PER_GAP
        self.located = []       # _Located records, in the order _admit made them
        self._stage = "grid"
        self.sigma_evals = dict.fromkeys(_STAGES, 0)
        # wall time per stage; a stage owns the time that no stage it calls claims
        self.stage_s = dict.fromkeys(_STAGES, 0.0)
        self._claimed = 0.0     # wall time of the stages run inside the current one
        self.heat_certificate = {}      # set by solve before the audit

    # -- subspace angles ----------------------------------------------------
    def _boundary_svd(self, lam, vectors=False, A=None, scan=None):
        """SVD of the boundary rows Q_B of the orthonormalized basis at lam.

        The columns are normalized, orthonormalized by pivoted QR and
        truncated at the numerical rank (_RTOL).  Returns the singular
        values in ascending order, and with ``vectors`` also
        (Vh, R, piv, cutoff, norms, good), which map right singular vectors
        back to basis coefficients.  ``A`` is the basis matrix at lam, if
        already assembled.

        With ``scan`` = k, only the k smallest, at scan grade: the square
        roots of the k smallest eigenvalues of Q_B^T Q_B.  Q has orthonormal
        columns, so their absolute error is about 1e-16 and sigma is good to
        about 1e-8 near a dip, enough to say whether one is there but not to
        refine it.
        """
        if A is None:
            A = self.basis.matrix(lam, self.pts, local=self._local_pts, sines=self._sines)
        norms = np.linalg.norm(A, axis=0)
        good = norms > 1e-280
        if not np.any(good):
            raise BasisIllConditioned("basis matrix vanished")
        A = A[:, good] / norms[good]
        Q, R, piv = la.qr(A, mode="economic", pivoting=True)
        r = np.abs(np.diag(R))
        cutoff = int((r > r[0] * _RTOL).sum())
        QB = Q[: self.m_b, :cutoff]
        if scan:
            # the Gram matrix is a temporary, and finite since Q is
            w = la.eigvalsh(QB.T @ QB, subset_by_index=[0, min(scan, cutoff) - 1],
                            overwrite_a=True, check_finite=False)
            return np.sqrt(np.maximum(w, 0.0))
        if not vectors:
            return la.svd(QB, compute_uv=False)[::-1]
        _, s, Vh = la.svd(QB)
        return s[::-1], (Vh, R, piv, cutoff, norms, good)

    def sigmas(self, lam, count=2, A=None, scan=False):
        """The ``count`` smallest singular values at lam, at scan grade with
        ``scan``; ``A`` as in _boundary_svd."""
        self.sigma_evals[self._stage] += 1
        return self._boundary_svd(lam, A=A, scan=count if scan else None)[:count]

    def _sigmas_at(self, lams):
        """The smallest singular value at scan grade at every lam of a scan.
        The basis matrices are assembled a block of lambdas at a time, a
        block holding at most _BLOCK_ENTRIES entries (or one lambda)."""
        size = max(1, _BLOCK_ENTRIES // (len(self.pts) * sum(self.orders)))
        out = []
        for s in range(0, len(lams), size):
            block = lams[s:s + size]
            mats = self.basis.matrices(block, self._local_pts, self._sines)
            out.extend(self.sigmas(lam, 1, A, scan=True)[0] for lam, A in zip(block, mats))
        return np.array(out)

    def _sigma_batch(self, lams):
        """sigma at every lambda of a grid pass."""
        return self._sigmas_at(lams)

    # -- sweep --------------------------------------------------------------
    def solve(self):
        if self.lambda_max < faber_krahn_bound(self.p):
            return self._spectrum()             # no eigenvalue lies below it
        t0, claimed = time.perf_counter(), self._claimed
        grid = np.arange(self._lam_lo, self.lambda_max + self.step, self.step)
        vals = self._sigma_batch(grid)
        self._scan(grid, vals)
        # a located dip can shadow a second one closer than the grid step
        self._find_siblings()

        # the heat trace names where a miss lies, and low grid values not
        # explained by a located dip can hide one between samples (clusters
        # tighter than the grid); search and scan there, and certify the count
        cover = self._cover_low_intervals(grid, vals)
        self._find_siblings()
        # local Weyl audit: scan every gap wider than about half a mean gap
        # that reaches above what the heat trace vouches for, for a miss that
        # the global band cannot see
        cert = heat_reading(self.p, self._copies(), self.lambda_max)[0]
        cert["audit_gaps_skipped"] = self._audit_gaps(cert["certified_lambda"])
        self.heat_certificate = dict(cert, **cover)
        self._find_siblings()

        rescans = 0
        while not (check := weyl_count_check(self.p, self._copies(), self.lambda_max))["ok"]:
            rescans += 1
            # a rescan that admits nothing would repeat itself exactly
            if not self._rescan(grid):
                k = check["k"]
                raise MissedEigenvalue(
                    f"polygon {[complex(v) for v in self.p.vertices]}: Weyl count deviates by "
                    f"{check['max_abs_dev']:.2f} (band {check['band']}) at lambda "
                    f"{check['worst_lambda']:.6f}; it leaves the band at eigenvalue {k}, "
                    f"predicted lambda_{k} {_weyl_kth(self.p, k):.6f}; stage rescan gave up "
                    f"when rescan {rescans} admitted nothing")
            self._find_siblings()

        # the grid owns the time no decorated stage claimed
        self.stage_s["grid"] += time.perf_counter() - t0 - (self._claimed - claimed)
        return self._spectrum()

    def _copies(self, field="lam"):
        """That field of every located eigenvalue, once per multiplicity, in
        the order _admit made them."""
        return [getattr(r, field) for r in self.located for _ in range(r.mult)]

    def _spectrum(self):
        """The checked Spectrum of the located eigenvalues, with the sweep's
        sizes and counters: admitted counts the copies each stage admitted."""
        return checked_spectrum(
            self.p, self._copies(), self._copies("err"), self.lambda_max,
            {"source": "mps", "orders": list(self.orders),
             "n_boundary": int(self.m_b), "n_interior": int(len(self.ipts)),
             "sigma_evals": dict(self.sigma_evals), "stage_s": dict(self.stage_s),
             "admitted": {s: sum(r.mult for r in self.located if r.stage == s)
                          for s in _STAGES},
             "heat_certificate": dict(self.heat_certificate)})

    @_stage("refine")
    def _refine_checked(self, a, b, c, fa, fb, fc):
        """Locate the dip of sigma inside (a, c), sampled at a < b < c.

        Near a simple eigenvalue lam*, sigma^2 = s^2 (lam - lam*)^2 +
        sigma_min^2 is a parabola in lam (Betcke and Trefethen, SIAM Review
        47, 2005).  Each step fits it through the best sample and its two
        bracketing neighbours and samples the vertex.  A golden bracket step
        (_refine_golden) replaces that when the best sample is an end, the fit
        is not convex, the vertex leaves the bracket or the last sample missed
        the model by over 10 % of the best sigma^2.  A sample within 10 % of
        its predicted sigma^2 (or the noise) confirms the model; the refiner
        stops when the next vertex is within _REFINE_XTOL (relative) of a
        confirmed sample, or within what the noise in sigma resolves.

        Returns (lambda*, error estimate, V slope s, the four smallest
        singular values there), or None when (a, c) holds no eigenvalue: a
        confirmed minimum of at least 10 _MULT_TOL, or one beyond an end.
        """
        xs, fs = [a, b, c], [fa, fb, fc]
        sig = {}                # sampled point -> its smallest singular values
        confirmed, slope = None, None   # last confirmed sample, s of its fit
        agreed, lam = True, None
        for _ in range(_MAX_REFINE_STEPS):
            k = int(np.argmin(fs))
            x_b, f_b = xs[k], fs[k]
            j = min(max(k, 1), len(xs) - 2)         # middle of the fitted three
            A, vertex, q_vertex = _parabola(xs[j - 1:j + 2], fs[j - 1:j + 2])
            tol = _REFINE_XTOL * max(abs(x_b), 1.0)
            if A > 0:           # sigma^2 noise hides the vertex within this
                tol = max(tol, np.sqrt(2 * _SIGMA_NOISE * f_b / A))
            if k in (0, len(xs) - 1):               # the best sample is an end
                lo, hi = (x_b, xs[1]) if k == 0 else (xs[-2], x_b)
                if hi - lo <= tol or (A > 0 and not lo < vertex < hi
                                      and abs(vertex - x_b) < abs(vertex - xs[j])):
                    return None                     # the minimum lies beyond
                model = False
            else:
                lo, hi = xs[k - 1], xs[k + 1]
                if abs(vertex - x_b) <= tol and (x_b == confirmed or vertex == x_b):
                    lam = vertex
                    break
                if hi - lo <= tol:
                    break
                model = agreed and A > 0 and lo < vertex < hi
            x = vertex if model else self._refine_golden(lo, x_b, hi)
            s_x = self.sigmas(x, count=4)
            f_x = float(s_x[0])
            sig[x] = s_x
            agreed = True
            if model:
                # less the noise in sigma and the rounding of the fit
                miss = abs(f_x * f_x - q_vertex) - _SIGMA_NOISE * (2 * f_x + _SIGMA_NOISE) \
                    - 1e-15 * max(fs[j - 1:j + 2]) ** 2
                agreed = miss <= 0.1 * f_b * f_b
                if miss <= 0.1 * max(q_vertex, 0.0):
                    if f_x >= 10 * _MULT_TOL:
                        return None
                    confirmed, slope = x, float(np.sqrt(A))
            i = int(np.searchsorted(xs, x))
            xs.insert(i, x)
            fs.insert(i, f_x)
        k = int(np.argmin(fs))
        if k in (0, len(xs) - 1):
            return None
        # the singular values of the best sample stand for those at the
        # vertex, which lies within tol of it
        s_b = sig[xs[k]] if xs[k] in sig else self.sigmas(xs[k], count=4)
        lam = xs[k] if lam is None else lam
        if slope is None:                   # the V through the bracket
            slope = (fs[k - 1] + fs[k + 1]) / (xs[k + 1] - xs[k - 1])
        err = max(_REFINE_XTOL * abs(lam), s_b[0] / slope)
        return float(lam), float(err), float(slope), s_b

    def _refine_golden(self, a, b, c):
        """The bracket step: the golden-section point in the larger of the
        intervals (a, b) and (b, c)."""
        phi = 0.5 * (3 - np.sqrt(5.0))
        return b - phi * (b - a) if b - a > c - b else b + phi * (c - b)

    @_stage("cover")
    def _cover_low_intervals(self, grid, vals):
        """Search where the heat trace names a miss, and scan the low grid
        intervals that its certificate cannot vouch for again.

        The strict local-minimum pattern on the grid can miss a dip near an
        interval edge when clusters are tighter than the grid.  Each pass
        takes one heat_reading of the located eigenvalues; while it names a
        lambda*, the window from _NAME_STEPS grid steps below it to above it
        is searched with find_in (_NAME_POINTS points) and _find_siblings.
        The loop ends at a reading that names nothing or a window that
        admits nothing, so its last reading is of the eigenvalues as they
        stand, and its certificate is the cover's: every grid interval with
        a low end, no located dip and a top above certified_lambda is
        scanned at its quarter points.  The probes are scanned together with
        the grid samples on either side, so that a dip in the first or last
        quarter is still an interior minimum.

        Returns the record solve adds to the sweep's heat_certificate: the
        named windows (lambda*, lo, hi and the copies admitted), the
        certified_lambda taken here and the low intervals skipped below it.
        """
        named, (below, above) = [], _NAME_STEPS
        while True:
            cert, lam = heat_reading(self.p, self._copies(), self.lambda_max)
            if lam is None:
                break
            lo = max(lam - below * self.step, self._lam_lo)
            hi = min(lam + above * self.step, self.lambda_max)
            before = len(self._copies())
            self.find_in(lo, hi, _NAME_POINTS)
            self._find_siblings()
            added = len(self._copies()) - before
            named.append({"lambda": lam, "lo": lo, "hi": hi, "admitted": added})
            if not added:
                break
        skipped = 0
        for k in range(len(grid) - 1):
            if min(vals[k], vals[k + 1]) >= _DIP_THRESHOLD:
                continue
            if any(grid[k] <= r.lam <= grid[k + 1] for r in self.located):
                continue
            if grid[k + 1] <= cert["certified_lambda"]:
                skipped += 1
                continue
            probes = grid[k] + (grid[k + 1] - grid[k]) * np.array([0.25, 0.5, 0.75])
            lo, hi = max(k - 1, 0), min(k + 3, len(grid))
            self._scan(np.concatenate([grid[lo:k + 1], probes, grid[k + 1:hi]]),
                       np.concatenate([vals[lo:k + 1], self._sigmas_at(probes),
                                       vals[k + 1:hi]]))
        return {"named": named, "cover_certified_lambda": cert["certified_lambda"],
                "cover_intervals_skipped": skipped}

    def _admit(self, found):
        """Add a dip found by _refine_checked, with the singular values it
        sampled there, to the located eigenvalues: one record, whose
        multiplicity counts those below _MULT_TOL, made in the current stage.
        Returns the copies added.

        None, a point outside [lam_lo, lambda_max], a point with no singular
        value below _MULT_TOL and a dip within 1e-6 lam or 20 times either
        refinement error of a record are rejected (a cover-pass refinement
        that walks to a neighboring dip lands near it, not exactly on it).
        """
        if found is None:
            return 0
        lam, err, slope, sig = found
        mult = int((sig < _MULT_TOL).sum())
        if not mult or not self._lam_lo <= lam <= self.lambda_max or any(
                abs(lam - r.lam) < max(1e-6 * max(1.0, abs(r.lam)), 20 * err, 20 * r.err)
                for r in self.located):
            return 0
        self.located.append(_Located(lam, err, mult, slope,
                                     float(sig[mult]) if mult < len(sig) else np.inf,
                                     self._stage))
        return mult

    def _may_shadow(self, rec):
        """Whether the located eigenvalue rec may shadow an unlocated one
        closer than the grid step: the one rule for probing a sibling.

        At a simple eigenvalue lam the second singular value is about
        s2 * d, where d is the distance to the nearest other eigenvalue and
        s2 ~ slope is that eigenvalue's V slope (over the spectrum of the
        criterion-7 triangle at t = -2e-3 the ratio (sigma_next / slope) / d
        stays in 0.4-0.9).  An estimate sigma_next / slope below the step
        and far below the distance to the nearest *located* eigenvalue means
        a shadowed sibling.  An eigenvalue probed before is not probed
        again.
        """
        if rec.probed:
            return False
        dist = min((abs(r.lam - rec.lam) for r in self.located if r is not rec), default=np.inf)
        d_est = rec.s_next / rec.slope
        return d_est < self.step and d_est < 0.3 * dist

    @_stage("siblings")
    def _find_siblings(self):
        """Probe every located eigenvalue, in ascending order, that may
        shadow a sibling (_may_shadow), until a round of probes finds none.

        The only caller of _probe_sibling: a scan refines the minima it
        sees, and the sweep runs this after each stage that can admit."""
        while sum(self._probe_sibling(r) for r in sorted(self.located, key=lambda r: r.lam)
                  if self._may_shadow(r)):
            pass

    @_stage("siblings")
    def _probe_sibling(self, rec):
        """Look for an unlocated eigenvalue next to the located one rec.

        Near two close eigenvalues lam and lam2 the two smallest singular
        values are about s1 |x - lam| and s2 |x - lam2|.  With k the
        multiplicity at lam, the k-th singular value recorded at lam when it
        was admitted and the one sampled at lam +- delta therefore give the
        side of lam2 (where it decreases), the slope s2 and the distance
        d = sigma_k(lam) / s2.  The dip at lam + d is then bracketed away
        from lam and refined.  The sibling admitted is marked probed, unless
        _may_shadow says it may shadow a third eigenvalue.  Returns the
        copies added.
        """
        rec.probed = True
        lam, k, slope, s0 = rec.lam, rec.mult, rec.slope, rec.s_next
        # delta small enough that lam's own V stays below the sibling's
        delta = min(0.02 * self.step, 0.25 * s0 / slope)
        # full grade: the slope is a difference of two nearby values
        lo, hi = (self.sigmas(x, count=k + 1)[k] for x in (lam - delta, lam + delta))
        s2 = abs(hi - lo) / (2 * delta)
        if s2 <= 0:
            return 0
        d = s0 / s2
        if not delta < d < self.step:
            return 0
        side = 1.0 if hi < lo else -1.0
        a, b, c = (lam + side * 0.5 * d, lam + side * d, lam + side * 1.5 * d)
        fa, fb, fc = self._sigmas_at([a, b, c])
        if not (fb <= fa and fb <= fc):
            return 0
        if side < 0:
            a, fa, c, fc = c, fc, a, fa
        added = self._admit(self._refine_checked(a, b, c, fa, fb, fc))
        if added and not self._may_shadow(self.located[-1]):
            # probing the sibling would refine back onto lam; one that may
            # shadow a third eigenvalue (on the house pentagon 391.4876,
            # found next to 389.1484, shadows 391.5464) is left to be probed
            self.located[-1].probed = True
        return added

    def _scan(self, xs, vals):
        """Refine the local minima of the sigma values ``vals`` sampled at the
        sorted points ``xs`` that fall below _DIP_THRESHOLD.

        The V-shapes of the eigenvalues located within one scan width of the
        samples are divided out first, so a dip next to a located eigenvalue
        is not shadowed by its slope.  Every minimum of the divided values is
        refined by _refine_checked and admitted by _admit; a sibling closer
        than the samples is left to _find_siblings.  Returns the copies
        added.
        """
        lo, hi = xs[0], xs[-1]
        width = hi - lo
        # each factor is scaled by the width so a full-range scan past many
        # located eigenvalues neither overflows nor underflows
        defl = np.ones_like(vals)
        for e in self._copies():
            if lo - width < e < hi + width:
                defl *= np.maximum(np.abs(xs - e), 1e-3 * width) / width
        dvals = vals / defl
        added = 0
        for k in range(1, len(xs) - 1):
            if (dvals[k] <= dvals[k - 1] and dvals[k] <= dvals[k + 1]
                    and vals[k] < _DIP_THRESHOLD):
                added += self._admit(self._refine_checked(
                    xs[k - 1], xs[k], xs[k + 1], vals[k - 1], vals[k], vals[k + 1]))
        return added

    def find_in(self, lo, hi, n):
        """Locate the eigenvalues in [lo, hi] that are still missing, and
        return the copies added: n points, inset 0.3 % from each end, are
        scanned with the located V-shapes divided out (_scan).  The cover
        searches its named windows with it, the audit its gaps."""
        inset = 0.003 * (hi - lo)
        xs = np.linspace(lo + inset, hi - inset, n)
        return self._scan(xs, self._sigmas_at(xs))

    @_stage("audit")
    def _audit_gaps(self, lam_c):
        """Search every gap between consecutive located eigenvalues that the
        two-term Weyl count puts at least 0.55 eigenvalues in, unless its top
        is at or below lam_c, the certified_lambda of a heat_reading.

        W(b) - W(a) is the gap measured in mean gaps, so every such gap
        wider than 0.55 mean gaps gets find_in with 26 points, not only one
        short by about one eigenvalue.  The first gap starts at _lam_lo and
        the last ends at lambda_max.  A pass that finds an eigenvalue is
        followed by one more.  Returns the wide gaps skipped, summed over
        the passes.
        """
        skipped = 0
        for _ in range(2):
            bounds = [self._lam_lo] + sorted(r.lam for r in self.located) + [self.lambda_max]
            found_new = False
            for a, b in zip(bounds[:-1], bounds[1:]):
                if weyl_two_term(self.p, b) - weyl_two_term(self.p, a) < 0.55:
                    continue
                if b <= lam_c:
                    skipped += 1
                else:
                    found_new = self.find_in(a, b, 26) > 0 or found_new
            if not found_new:
                break
        return skipped

    @_stage("rescan")
    def _rescan(self, grid):
        """Second pass on a 4x finer grid over the full sweep range; returns
        the copies added."""
        step = (grid[1] - grid[0]) / 4
        fine = np.arange(grid[0], self.lambda_max + step, step)
        return self._scan(fine, self._sigma_batch(fine))

    # -- eigenfunction data ---------------------------------------------------
    def eigenfunction(self, lam):
        """Basis coefficients of the (un-normalized) eigenfunction(s) at lam,
        one column per singular value below _MULT_TOL, from the
        (near-)null space of Q_B: u = basis.matrix(lam, pts) @ C."""
        s, (Vh, R, piv, cutoff, norms, good) = self._boundary_svd(lam, vectors=True)
        mult = int((s < _MULT_TOL).sum())
        if mult == 0:
            raise DegenerateEigenvalue(
                f"lambda={lam:.8e} is not an eigenvalue to tolerance (sigma={s[0]:.2e})")
        y = la.solve_triangular(R[:cutoff, :cutoff], Vh[-mult:].T)
        C = np.zeros((int(good.sum()), mult))
        C[piv[:cutoff]] = y
        full = np.zeros((len(norms), mult))
        full[good] = C / norms[good][:, None]
        return full

    def normal_derivative_moments(self, lam, c):
        """(m0_j, m1_j) for every side j, shape (sides, 2): the integrals of
        (d_nu u)^2 and of s (d_nu u)^2 over side j, s the arclength from its
        start vertex, for u = basis.matrix(lam, pts) @ c.  One gradient
        evaluation per side, on the graded panel rule.  Both weights of the
        Hadamard formula are affine in s on a side, so they integrate
        through these two moments."""
        p = self.p
        out = np.empty((p.n, 2))
        wg = leggauss(_SIDE_ORDER)[1]
        for j in range(p.n):
            L = p.side_lengths[j]
            h = L * _SIDE_FIRST_PANEL
            s_nodes, half = panel_nodes(graded_breaks(0.0, L, h, h), _SIDE_ORDER)
            s_nodes, w_nodes = s_nodes.ravel(), (half[:, None] * wg).ravel()
            gx, gy = self.basis.gradient(lam, p.vertices[j] + p.side_tangent(j) * s_nodes)
            nu = p.side_normal(j)
            dn2 = w_nodes * ((gx @ c) * nu.real + (gy @ c) * nu.imag) ** 2
            out[j] = dn2.sum(), dn2 @ s_nodes
        return out


def _parabola(x, f):
    """(A, vertex, value) of the parabola A (lam - vertex)^2 + value through
    three samples (x, f) of sigma^2 = f^2; vertex and value are nan unless
    A > 0."""
    (a, b, c), (qa, qb, qc) = x, np.square(f)
    d0, d1 = (qb - qa) / (b - a), (qc - qb) / (c - b)
    A = (d1 - d0) / (c - a)
    B = d0 + A * (b - a)            # slope at b
    if not A > 0:
        return A, np.nan, np.nan
    return A, b - 0.5 * B / A, qb - 0.25 * B * B / A


def dirichlet_eigenvalues(p, lambda_max):
    """All Dirichlet eigenvalues of p below lambda_max via the MPS sweep."""
    solver = MPSSolver(p, lambda_max)
    return solver.solve()


def hadamard_eigenvalue_variation(p, f, j):
    """First variation of the j-th (1-based) Dirichlet eigenvalue:
    -(boundary integral of (d_nu u_j)^2 (A.nu)) for an L2-normalized u_j.

    With (A.nu)(s) = c0_i + c1_i s on side i (f.side_normal_velocity) and
    the moments m0_i, m1_i of normal_derivative_moments, that is
    -2 lam_j sum_i (c0_i m0_i + c1_i m1_i) / sum_i h_i m0_i.  The
    denominator is 2 lam_j int u_j^2 by the Rellich identity
    2 lam int u^2 = oint ((x - o).nu) (d_nu u)^2, o the vertex mean, whose
    weight (x - o).nu is constant on side i: its support number h_i about o.

    Requires lambda_j simple within _GAP_TOL; for clusters the caller
    should sum the variation over the cluster (DegenerateEigenvalue is
    raised here).  A sweep that holds fewer than j + 1 eigenvalues, so that
    lambda_{j+1} cannot be checked, raises MissedEigenvalue.  A j that is not
    an integer >= 1 raises ValidationFailure before any sweep.
    """
    if not isinstance(j, (int, np.integer)) or j < 1:
        raise ValidationFailure(f"eigenvalue index j = {j!r} is not an integer >= 1")
    # sweep a bit beyond the Weyl estimate for lambda_{j+1}, then 1.6x that
    weyl = _weyl_kth(p, j + 2) * 1.25
    for lam_max in (weyl, weyl * 1.6):
        solver = MPSSolver(p, lam_max)
        eigs = solver.solve().eigenvalue_array()
        if len(eigs) >= j + 1:
            break
    else:
        # the simplicity check needs lambda_{j+1}
        raise MissedEigenvalue(
            f"polygon {[complex(v) for v in p.vertices]}: {len(eigs)} eigenvalue(s) below "
            f"lambda_max {lam_max:.6g}, but lambda_{j} and lambda_{j + 1} are needed")
    lam = eigs[j - 1]
    gap = min(lam - eigs[j - 2] if j >= 2 else np.inf, eigs[j] - lam)
    if gap < _GAP_TOL:
        raise DegenerateEigenvalue(
            f"lambda_{j} = {lam:.6f} has neighbor gap {gap:.2e} < {_GAP_TOL}; "
            "sum the variation over the cluster instead")
    C = solver.eigenfunction(lam)
    if C.shape[1] != 1:
        raise DegenerateEigenvalue(f"lambda_{j} carries multiplicity {C.shape[1]}")
    m = solver.normal_derivative_moments(lam, C[:, 0])
    v = p.vertex_array()
    h = ((v - v.mean()) * np.conj([p.side_normal(i) for i in range(p.n)])).real
    return float(-2 * lam * np.sum(np.asarray(f.side_normal_velocity) * m) / (h @ m[:, 0]))


def _weyl_kth(p, k):
    A, P = p.area, p.perimeter
    return float(((P + np.sqrt(P**2 + 16 * np.pi * A * k)) / (2 * A)) ** 2)
