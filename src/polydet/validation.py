"""Validation suites: every acceptance check as a callable record producer.

Each check returns a dict with the measured discrepancy, its tolerance and a
pass flag; the CLI renders them as a table and the test suite asserts them.
Suites: geometry, scmap, eigs, det, var, wz, all.
"""

import itertools
import time

import numpy as np

from . import varform
from .eigensolve import dirichlet_eigenvalues, hadamard_eigenvalue_variation, rectangle_spectrum
from .errors import MissedEigenvalue, ValidationFailure
from .geometry import (build_polygon, eigenvalue_ratio_bound, field_from_vertex_velocities,
                       move_polygon)
from .scmap import map_forward, solve_parameter_problem
from .smoothwz import SmoothDomain, disk, wz_variation, wz_vs_alvarez_fd
from .varform import (
    contour_shift_integral,
    corner_constant,
    corner_constant_by_contour,
    main_formula,
)
from .zetadet import (
    ZetaConfig,
    heat_coefficients,
    rectangle_logdet_exact,
    scaling_variation,
    zeta_logdet,
)


_FD_STEP = 4e-3     # t of the determinant's Richardson difference (crit 7, `var --route fd`)


def richardson_derivative(fn, h):
    """Richardson-extrapolated central difference of fn at 0 from the steps
    h and h/2: (4 D(h/2) - D(h)) / 3, with D(h) = (fn(h) - fn(-h)) / (2 h)."""
    d1 = (fn(h) - fn(-h)) / (2 * h)
    d2 = (fn(h / 2) - fn(-h / 2)) / h
    return (4 * d2 - d1) / 3


def _record(name, value, tol, detail=""):
    return {
        "criterion": name,
        "measured": float(value),
        "tolerance": float(tol),
        "passed": bool(value <= tol),
        "detail": detail,
    }


# ---------------------------------------------------------------------------
# geometry helpers shared by suites
# ---------------------------------------------------------------------------

def _random_convex(rng, n_min=3, n_max=8):
    """Random strictly convex polygon with n_min..n_max vertices, O(1) size,
    with comfortably non-degenerate angles and sides."""
    while True:
        n = rng.integers(n_min, n_max + 1)
        th = np.sort(rng.uniform(0, 2 * np.pi, n))
        if np.min(np.diff(np.concatenate([th, [th[0] + 2 * np.pi]]))) < 0.3:
            continue
        v = rng.uniform(0.75, 1.25, n) * np.exp(1j * th)
        try:
            p = build_polygon(v)
        except ValidationFailure:
            continue
        if min(p.angles) < 0.35 or max(p.angles) > np.pi - 0.25:
            continue
        if min(p.side_lengths) < 0.3:
            continue
        return p


def _side_shift(p, j):
    """Unit outward parallel shift of side j; its endpoints slide along the
    adjacent sides, so every angle is kept."""
    n = p.n
    vel = [0j] * n
    nu = p.side_normal(j)
    for vtx, other in ((j, (j - 1) % n), ((j + 1) % n, (j + 1) % n)):
        tau_o = p.side_tangent(other)
        vel[vtx] = tau_o / (np.conj(nu) * tau_o).real
    return field_from_vertex_velocities(p, vel)


def _dilation(p):
    return field_from_vertex_velocities(p, list(p.vertices))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def check_disk_law():
    """Criterion 1: wz_variation(disk, V=w) = -1/3 within 1e-8."""
    v = wz_variation(disk(1.0), [0.0, 1.0])
    return [_record("1 disk law wz(disk, V=w) = -1/3", abs(v + 1.0 / 3.0), 1e-8,
                    f"value {v:.12f}")]


def check_wz_alvarez():
    """Criterion 2: |wz_variation - d/deps alvarez| < 1e-6 on 15 cases."""
    domains = [
        disk(1.0),
        SmoothDomain((0.1, 1.0, 0.08)),
        SmoothDomain((0.0, 1.0, 0.05 + 0.04j, 0.03)),
        SmoothDomain((0.0, 0.9, 0.0, 0.12)),
        SmoothDomain((0.2j, 1.1, 0.06, -0.02j, 0.02)),
    ]
    perturbations = [[0.0, 1.0], [0.0, 0.3, 0.5], [0.1, 0.0, 0.0, 0.4j]]
    worst = 0.0
    for d in domains:
        for V in perturbations:
            f, fd = wz_vs_alvarez_fd(d, V)
            worst = max(worst, abs(f - fd))
    return [_record("2 WZ vs Alvarez finite difference (15 cases)", worst, 1e-6)]


def check_corner_constant():
    """Criterion 3: contour evaluation matches the closed form."""
    worst = 0.0
    for beta in (0.01, 0.05, 0.1, np.pi / 2, np.pi, 3.0, 2 * np.pi, 3 * np.pi):
        worst = max(worst, abs(corner_constant_by_contour(beta) - corner_constant(beta)))
    return [_record("3 corner constant contour vs closed form", worst, 1e-8)]


def check_rectangle_oracle():
    """Criterion 4: MPS + zeta pipeline vs the exact rectangle formula."""
    recs = []
    cases = [((1.0, 1.0), 560.0, 0.05), ((2.0, 1.0), 520.0, 0.048)]
    for (a, b), lam_max, tau0 in cases:
        p = build_polygon([0, a, a + 1j * b, 1j * b])
        spec = dirichlet_eigenvalues(p, lam_max)
        ld = zeta_logdet(spec, heat_coefficients(p), ZetaConfig(tau0=tau0))
        exact = rectangle_logdet_exact(a, b)
        recs.append(_record(f"4 rectangle oracle ({a:g},{b:g})",
                            abs(ld.value - exact), 1e-5,
                            f"pipeline {ld.value:.8f} exact {exact:.8f} "
                            f"n_eigs {ld.n_eigs_used}"))
    return recs


def check_main_vs_rectangle_derivative():
    """Criterion 5: side shift of the unit square vs d/da of the exact formula."""
    p = build_polygon([0, 1, 1 + 1j, 1j])
    m = solve_parameter_problem(p)
    f = _side_shift(p, 1)
    dv = main_formula(p, m, f)
    deriv = richardson_derivative(lambda h: rectangle_logdet_exact(1 + h, 1), 1e-4)
    return [_record("5 main formula vs exact rectangle derivative",
                    abs(dv.total - deriv), 1e-5,
                    f"formula {dv.total:.10f} exact {deriv:.10f} "
                    f"corner term {dv.corner_term:.1e}")]


def check_scaling_law():
    """Criterion 6: main_formula(dilation) = -2 b1 for three benchmark shapes."""
    recs = []
    shapes = [
        ("square", [0, 1, 1 + 1j, 1j]),
        ("right isoceles", [0, 1, 1j]),
        ("regular hexagon", np.exp(1j * np.pi * np.arange(6) / 3)),
    ]
    for name, verts in shapes:
        p = build_polygon(verts)
        m = solve_parameter_problem(p)
        dv = main_formula(p, m, _dilation(p))
        target = scaling_variation(p)
        recs.append(_record(f"6 scaling law ({name})", abs(dv.total - target), 1e-5,
                            f"formula {dv.total:.9f} exact {target:.9f}"))
    return recs


def _aligned_spectra(p, f, ts, lam_max):
    """{t: (moved polygon, its spectrum)} for each t in ts, with every
    ordered pair (x, y) of the spectra checked against min-max.

    A single missed or spurious eigenvalue in one sweep corrupts a finite
    difference far below any counting alarm's resolution.  With U the
    eigenvalue_ratio_bound from x's polygon to y's, lambda_k(y) <= U
    lambda_k(x) for every k, so wherever U (lambda_k(x) + err_k) is below
    lam_max, y must hold k + 1 eigenvalues up to it.  The 1e-12 relative
    slack is for rounding: under a dilation U is exact and MPS output scales
    exactly with it.  The first pair that fails raises MissedEigenvalue
    naming both t values, the 0-based index and the bound.
    """
    out = {}
    for t in ts:
        pt = move_polygon(p, f, t)
        out[t] = pt, dirichlet_eigenvalues(pt, lam_max)
    for tx, ty in itertools.permutations(ts, 2):
        (px, sx), (py, sy) = out[tx], out[ty]
        ey = sy.eigenvalue_array()
        bound = (eigenvalue_ratio_bound(px, py) * (1 + 1e-12)
                 * (sx.eigenvalue_array() + np.asarray(sx.errors)))
        for k, b in enumerate(bound):
            if b < lam_max and (k >= len(ey) or ey[k] > b):
                raise MissedEigenvalue(
                    f"sweep at t = {ty:+.3e} holds no eigenvalue index {k} (0-based) "
                    f"up to {b:.6f}, the min-max bound from the sweep at t = {tx:+.3e}; "
                    "one sweep lacks an eigenvalue or the other holds a spurious one")
    return out


def fd_logdet_derivative(p, f, lam_max, zcfg):
    """Richardson central difference of the determinant pipeline along f,
    with step _FD_STEP, over the moved polygons and min-max-checked spectra
    of _aligned_spectra.  ``zcfg`` sets the zeta completion of every moved
    polygon."""
    t = _FD_STEP
    moved = _aligned_spectra(p, f, (t, -t, t / 2, -t / 2), lam_max)

    def ld(tt):
        pt, spec = moved[tt]
        return zeta_logdet(spec, heat_coefficients(pt), zcfg).value

    return richardson_derivative(ld, t)


def check_corner_term_activation():
    """Criterion 7: sliding-vertex triangle, formula vs determinant FD.

    The apex of the triangle (0, 1, 0.3+0.8i) moves horizontally; the angles
    change, so the corner sum is active.  The reference is a Richardson
    central difference of the MPS + zeta determinant with min-max-checked
    spectra.
    """
    verts = [0.0, 1.0, 0.3 + 0.8j]
    p = build_polygon(verts)
    vel = [0.0, 0.0, 1.0 + 0.0j]
    f = field_from_vertex_velocities(p, vel)
    m = solve_parameter_problem(p)
    dv = main_formula(p, m, f)
    fd = fd_logdet_derivative(p, f, 1500.0, ZetaConfig(tau0=0.018, tail_tol=1.0))
    rel = abs(dv.total - fd) / abs(fd)
    return [_record("7 corner-term activation (triangle family)", rel, 1e-2,
                    f"formula {dv.total:.7f} fd {fd:.7f} "
                    f"corner term {dv.corner_term:.2e}")]


def check_two_routes():
    """Criterion 8: hadamard vs contour-shift routes on random polygons."""
    rng = np.random.default_rng(20837)
    worst = 0.0
    for _ in range(10):
        p = _random_convex(rng, n_min=4, n_max=7)
        m = solve_parameter_problem(p)
        j = int(rng.integers(0, p.n - 1))
        f = _side_shift(p, j)
        v1 = main_formula(p, m, f).total
        v2 = contour_shift_integral(m, f)
        worst = max(worst, abs(v1 - v2))
    return [_record("8 two-route agreement (10 random polygons)", worst, 1e-6)]


def check_hadamard_eigenvalue():
    """Criterion 9: square stretch, d lambda_1 = -2 pi^2 within 1e-4 relative."""
    p = build_polygon([0, 1, 1 + 1j, 1j])
    f = field_from_vertex_velocities(p, [0, 1, 1, 0])
    dl = hadamard_eigenvalue_variation(p, f, 1)
    rel = abs(dl + 2 * np.pi**2) / (2 * np.pi**2)
    return [_record("9 Hadamard eigenvalue variation (square stretch)", rel, 1e-4,
                    f"formula {dl:.8f} exact {-2 * np.pi**2:.8f}")]


def check_rigid_and_linear():
    """Criterion 10: rigid-motion nullity and field linearity."""
    rng = np.random.default_rng(11)
    worst_rigid = 0.0
    worst_lin = 0.0
    for _ in range(20):
        p = _random_convex(rng, n_min=4, n_max=7)
        m = solve_parameter_problem(p)
        f_tr = field_from_vertex_velocities(p, [0.6 - 0.3j] * p.n)
        f_rot = field_from_vertex_velocities(p, [1j * v for v in p.vertices])
        for fr in (f_tr, f_rot):
            worst_rigid = max(worst_rigid, abs(main_formula(p, m, fr).total))
        v1 = rng.normal(size=p.n) + 1j * rng.normal(size=p.n)
        v2 = rng.normal(size=p.n) + 1j * rng.normal(size=p.n)
        f1 = field_from_vertex_velocities(p, v1)
        f2 = field_from_vertex_velocities(p, v2)
        f12 = field_from_vertex_velocities(p, v1 + v2)
        lin = abs(main_formula(p, m, f12).total - main_formula(p, m, f1).total
                  - main_formula(p, m, f2).total)
        worst_lin = max(worst_lin, lin)
    return [
        _record("10a rigid-motion nullity (20 polygons)", worst_rigid, 1e-8),
        _record("10b field linearity (20 polygons)", worst_lin, 1e-9),
    ]


# fast structural checks for the cheap suites ------------------------------

def check_geometry_invariants():
    rng = np.random.default_rng(5)
    worst_sum = worst_fd = 0.0
    for _ in range(20):
        p = _random_convex(rng)
        vel = rng.normal(size=p.n) + 1j * rng.normal(size=p.n)
        f = field_from_vertex_velocities(p, vel)
        worst_sum = max(worst_sum, abs(sum(f.delta_angles)))
        t = 1e-4
        ap = np.asarray(move_polygon(p, f, t).angles)
        am = np.asarray(move_polygon(p, f, -t).angles)
        worst_fd = max(worst_fd, np.max(np.abs((ap - am) / (2 * t) - f.delta_angles)))
    return [
        _record("geometry: sum of delta angles", worst_sum, 1e-12),
        _record("geometry: delta angles vs finite differences", worst_fd, 1e-6),
    ]


def check_scmap_invariants():
    rng = np.random.default_rng(6)
    worst_side = worst_bc = 0.0
    for _ in range(20):
        p = _random_convex(rng)
        m = solve_parameter_problem(p)
        xk = m.vertex_images
        L = np.asarray(p.side_lengths)[: p.n - 1]
        worst_side = max(worst_side, np.max(np.abs(np.abs(np.diff(xk)) - L) / L))
        j = int(rng.integers(0, p.n - 1))
        z = m.prevertices[j] + rng.uniform(0.2, 0.8) * (
            m.prevertices[j + 1] - m.prevertices[j])
        x = map_forward(m, z)
        tau = p.side_tangent(j)
        off = abs(((x - p.vertices[j]) * np.conj(tau)).imag)
        worst_bc = max(worst_bc, off)
    return [
        _record("scmap: side-length residual (20 random polygons)", worst_side, 1e-10),
        _record("scmap: boundary correspondence", worst_bc, 1e-9),
    ]


def check_mps_rectangle():
    lam_max = 450.0
    p = build_polygon([0, 1, 1 + 1j, 1j])
    spec = dirichlet_eigenvalues(p, lam_max)
    exact = rectangle_spectrum(1, 1, lam_max).eigenvalue_array()
    got = spec.eigenvalue_array()
    k = min(30, len(exact), len(got))
    if len(got) != len(exact):
        return [_record("eigs: rectangle spectrum count", abs(len(got) - len(exact)), 0)]
    rel = np.max(np.abs(got[:k] - exact[:k]) / exact[:k])
    return [_record(f"eigs: first {k} square eigenvalues vs exact", rel, 1e-8)]


SUITES = {
    "geometry": [check_geometry_invariants],
    "scmap": [check_scmap_invariants],
    "eigs": [check_mps_rectangle, check_hadamard_eigenvalue],
    "det": [check_rectangle_oracle],
    "var": [check_corner_constant, check_main_vs_rectangle_derivative,
            check_scaling_law, check_two_routes, check_corner_term_activation,
            check_rigid_and_linear],
    "wz": [check_disk_law, check_wz_alvarez],
}
SUITES["all"] = (SUITES["geometry"] + SUITES["scmap"] + SUITES["eigs"]
                 + SUITES["det"] + SUITES["var"] + SUITES["wz"])


def run_suite(name):
    """The records of every check of suite ``name``, and each check's wall
    time in seconds keyed by its name.  The records hold no time, so the
    same tree gives the same records on every run."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    records, seconds = [], {}
    for fn in SUITES[name]:
        t0 = time.perf_counter()
        records.extend(fn())
        seconds[fn.__name__] = round(time.perf_counter() - t0, 6)
    return records, seconds
