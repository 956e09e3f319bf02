"""The benchmark's three workloads: inputs, one round of operations, checks.

A workload is built once from the seed (``build``) and then run in whole
rounds (``run_round``); every round repeats the same operations on the same
inputs.  Each public polydet call is one operation, timed by ``Ops.call``.
Checks compare outputs with ``oracles`` or with a property the method must
have; a failed check sets ``correct`` to false, except the triangle-pair
shortfall, which is a known fault and counts as a failed operation.
"""

import json
import math
import time

import numpy as np

import oracles

# --- det-exact ---------------------------------------------------------------
# (name, vertices, lambda_max, tau0, closed-form spectrum).  lambda_max and
# tau0 keep the zeta completion's own doubling diagnostics below its 1e-4
# budget while keeping the round short enough for the run budget.
DET_CASES = (
    ("square", (0, 1, 1 + 1j, 1j), 350.0, 0.05, oracles.square_spectrum),
    ("equilateral", (0, 1, 0.5 + 0.5j * math.sqrt(3)), 600.0, 0.03,
     oracles.equilateral_spectrum),
    ("right-isosceles", (0, 1, 1j), 650.0, 0.03, oracles.right_isosceles_spectrum),
)
DET_TOL = 1e-8          # |logdet - reference|; measured gaps are below 1e-9

# --- triangle-pair -----------------------------------------------------------
# Apex of (0, 1, 0.3+0.8i) moved by t = +-2e-3 along the field (0, 0, 1).  At
# lambda_max 1100 the t = -2e-3 sweep returns the close pair near 625 as one
# eigenvalue; below about 1100 both sweeps drop a member of the pair and
# min-max cannot tell, so the cutoff is not lowered.
PAIR_T = 2e-3
PAIR_LAMBDA_MAX = 1100.0
PAIR_APEX = 0.3 + 0.8j

# --- variation -----------------------------------------------------------------
VAR_SIDES = (4, 6, 8)
VAR_JITTER = 0.05       # vertex angle (in units of 2 pi/n) and radius jitter
VAR_TOL = 1e-7          # identities of the variational formula (hold to ~3e-9)
HADAMARD_RTOL = 1e-4    # relative, dlambda_1 = -2 lambda_1 (holds to ~2e-5)
WZ_TOL = 1e-7           # WZ formula vs central difference of the Alvarez value
DISK_TOL = 1e-9
WZ_EPS = 1e-4
GENERIC_QUAD = (0, 1.1, 0.9 + 0.8j, 0.1 + 0.9j)
GENERIC_LAMBDA_MAX = 60.0
WZ_DOMAINS = (
    (0.0, 1.0),
    (0.1, 1.0, 0.08),
    (0.0, 1.0, 0.05 + 0.04j, 0.03),
    (0.0, 0.9, 0.0, 0.12),
    (0.2j, 1.1, 0.06, -0.02j, 0.02),
)
WZ_FIELDS = ((0.0, 1.0), (0.0, 0.3, 0.5), (0.1, 0.0, 0.0, 0.4j))


class Ops:
    """Times operations and collects check outcomes for one run."""

    def __init__(self):
        self.tracer = None
        self.attempted = 0
        self.failed = []          # messages of failed operations
        self.bad_checks = []      # messages of failed checks
        self.times = []           # (kind, seconds) of the current round

    def call(self, kind, fn, *args):
        self.attempted += 1
        t0 = time.perf_counter()
        if self.tracer is None:
            out = fn(*args)
        else:
            out = self.tracer.call("bench." + kind, fn, *args)
        self.times.append((kind, time.perf_counter() - t0))
        return out

    def check(self, ok, message):
        if not ok:
            self.bad_checks.append(message)

    def fail(self, message):
        self.failed.append(message)


def _polygon(vertices):
    from polydet.geometry import build_polygon

    return build_polygon(list(vertices))


def _field(p, velocities):
    from polydet.geometry import field_from_vertex_velocities

    return field_from_vertex_velocities(p, list(velocities))


# ---------------------------------------------------------------------------
# det-exact
# ---------------------------------------------------------------------------

def build_det_exact(seed, workdir):
    """Polygon and config files for `polydet det`; fixed, seed-independent."""
    cases = []
    for name, verts, lam_max, tau0, spectrum in DET_CASES:
        poly = workdir / f"{name}.json"
        cfg = workdir / f"{name}.cfg.json"
        out = workdir / f"{name}.report.json"
        poly.write_text(json.dumps({"vertices": [[v.real, v.imag] for v in map(complex, verts)]}))
        cfg.write_text(json.dumps({"lambda_max": lam_max, "zeta": {"tau0": tau0}}))
        eigs = spectrum(lam_max)
        cases.append({
            "name": name, "vertices": verts, "lambda_max": lam_max, "tau0": tau0,
            "argv": ["--cfg", str(cfg), "--out", str(out), "det", str(poly)],
            "out": out, "n_exact": len(eigs),
            "reference": oracles.split_completion_logdet(eigs, verts, tau0, lam_max),
        })
    return {"cases": cases, "describe": [
        {k: c[k] for k in ("name", "lambda_max", "tau0", "n_exact")} for c in cases]}


def check_det(case, payload, ops):
    """n_eigs against the closed-form count, log det against the references."""
    name = case["name"]
    ops.check(payload["n_eigs"] == case["n_exact"],
              f"det {name}: n_eigs {payload['n_eigs']} != closed form {case['n_exact']}")
    gap = abs(payload["logdet"] - case["reference"])
    ops.check(gap <= DET_TOL, f"det {name}: |logdet - split completion of the closed-form "
                              f"spectrum| = {gap:.2e} > {DET_TOL:g}")
    if name == "square":
        gap = abs(payload["logdet"] - oracles.unit_square_logdet())
        ops.check(gap <= DET_TOL, f"det square: |logdet - (log eta(i) - log(2)/2)| = "
                                  f"{gap:.2e} > {DET_TOL:g}")


def _polydet_main(argv):
    import polydet.cli

    return polydet.cli.main(argv)     # looked up per call, so a traced run sees its wrapper


def run_det_exact(inputs, ops):
    for case in inputs["cases"]:
        case["out"].unlink(missing_ok=True)
        code = ops.call("det", _polydet_main, case["argv"])
        if code != 0:
            ops.fail(f"det {case['name']}: polydet det exited with code {code}")
            continue
        check_det(case, json.loads(case["out"].read_text())["payload"], ops)


# ---------------------------------------------------------------------------
# triangle-pair
# ---------------------------------------------------------------------------

def build_triangle_pair(seed, workdir):
    """The two moved triangles; fixed, seed-independent (the fault must repeat)."""
    sweeps = []
    for t in (PAIR_T, -PAIR_T):
        verts = (0.0, 1.0, PAIR_APEX + t)
        sweeps.append({"t": t, "vertices": verts, "polygon": _polygon(verts)})
    s1, s2 = oracles.affine_singular_values(sweeps[0]["vertices"], sweeps[1]["vertices"])
    # minus = L(plus): lambda_k(minus) <= lambda_k(plus) / s2^2, and conversely
    sweeps[0]["upper"] = s1**2
    sweeps[1]["upper"] = 1.0 / s2**2
    return {"sweeps": sweeps, "describe": [
        {"t": s["t"], "vertices": [[complex(v).real, complex(v).imag] for v in s["vertices"]],
         "lambda_max": PAIR_LAMBDA_MAX} for s in sweeps]
        + [{"ratio_bounds": [1.0 / s1**2, 1.0 / s2**2]}]}


def check_pair(sweeps, spectra, ops):
    """Min-max under the shear between the two triangles; a shortfall fails."""
    for i, sw in enumerate(sweeps):
        other = spectra[1 - i]
        k = oracles.minmax_shortfall(spectra[i], other, sw["upper"], PAIR_LAMBDA_MAX)
        if k is not None:
            got = spectra[i][k - 1] if len(spectra[i]) >= k else None
            ops.fail(f"triangle-pair sweep t={sw['t']:+g} polygon {sw['vertices']}: "
                     f"{len(spectra[i])} eigenvalues against {len(other)}; first bad index "
                     f"{k} (lambda_{k} = {got} above the min-max bound "
                     f"{sw['upper'] * other[k - 1]:.4f})")


def run_triangle_pair(inputs, ops):
    import polydet.eigensolve as E

    spectra = []
    for sw in inputs["sweeps"]:
        spec = ops.call("eigensolve", E.dirichlet_eigenvalues, sw["polygon"], PAIR_LAMBDA_MAX)
        spectra.append(np.asarray(spec.eigenvalues))
    check_pair(inputs["sweeps"], spectra, ops)


# ---------------------------------------------------------------------------
# variation
# ---------------------------------------------------------------------------

def _near_regular(rng, n):
    """Seeded convex n-gon: a regular one with jittered angles and radii.

    The cost of the variational formula depends on the corner angles and the
    shortest side, so the jitter is kept small: over eight seeds the time of
    main_formula on the three polygons varied by 0.9% (coefficient of
    variation) at a jitter of 0.04, and by 7% at 0.12.
    """
    from polydet.errors import ValidationFailure

    while True:
        th = 2 * np.pi * (np.arange(n) + rng.uniform(-VAR_JITTER, VAR_JITTER, n)) / n
        radii = rng.uniform(1 - VAR_JITTER, 1 + VAR_JITTER, n)
        verts = radii * np.exp(1j * (th + rng.uniform(0, 2 * np.pi)))
        try:
            p = _polygon(verts)
        except ValidationFailure:
            continue
        if max(p.angles) < np.pi - 0.25:
            return tuple(complex(v) for v in verts), p


def side_shift_velocities(verts, j):
    """Vertex velocities of a unit outward parallel shift of side j.

    Both endpoints slide along their other sides, so every side stays straight
    and every angle is kept.
    """
    v = np.asarray(verts, dtype=complex)
    n = len(v)
    edge = np.roll(v, -1) - v
    tau = edge / np.abs(edge)
    nu = -1j * tau[j]
    vel = np.zeros(n, dtype=complex)
    for vtx, other in ((j, (j - 1) % n), ((j + 1) % n, (j + 1) % n)):
        vel[vtx] = tau[other] / (np.conj(nu) * tau[other]).real
    return vel


def build_variation(seed, workdir):
    from polydet.smoothwz import SmoothDomain

    rng = np.random.default_rng(seed)
    polys = []
    for n in VAR_SIDES:
        verts, p = _near_regular(rng, n)
        v = np.asarray(verts)
        v1 = rng.normal(size=n) + 1j * rng.normal(size=n)
        v2 = rng.normal(size=n) + 1j * rng.normal(size=n)
        shift_side = int(rng.integers(0, n - 1))     # a side with a finite prevertex interval
        relabel = int(rng.integers(1, n))
        c = complex(rng.normal(), rng.normal())
        p_rel = _polygon(np.roll(v, -relabel))
        polys.append({
            "n": n, "vertices": verts, "polygon": p, "relabel": relabel,
            "shift_side": shift_side, "b1": oracles.corner_b1(verts),
            "dilation": _field(p, v), "translation": _field(p, [c] * n),
            "rotation": _field(p, 1j * v), "f1": _field(p, v1), "f2": _field(p, v2),
            "f12": _field(p, v1 + v2),
            "shift": _field(p, side_shift_velocities(verts, shift_side)),
            "relabeled": p_rel, "f1_relabeled": _field(p_rel, np.roll(v1, -relabel)),
        })
    hadamard = []
    for name, verts, lam1 in (
            ("square", (0, 1, 1 + 1j, 1j), 2 * math.pi**2),
            ("equilateral", (0, 1, 0.5 + 0.5j * math.sqrt(3)), 16 * math.pi**2 / 3),
            ("generic quadrilateral", GENERIC_QUAD, None)):
        p = _polygon(verts)
        hadamard.append({"name": name, "polygon": p, "lam1": lam1,
                         "dilation": _field(p, verts)})
    domains = [SmoothDomain(c) for c in WZ_DOMAINS]
    return {"polys": polys, "hadamard": hadamard, "domains": domains, "describe": [
        {"n": q["n"], "vertices": [[z.real, z.imag] for z in q["vertices"]],
         "shift_side": q["shift_side"], "relabel": q["relabel"]} for q in polys]}


def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_polygon_identities(q, val, contour, relabeled, ops):
    """Exact identities of the variational formula on one polygon.

    val maps field names to main_formula totals; contour is the contour-shift
    value of the side shift and relabeled the total for the relabeled f1.
    """
    tag = f"variation {q['n']}-gon"
    ops.check(_close(val["dilation"], -2 * q["b1"], VAR_TOL),
              f"{tag}: dilation {val['dilation']!r} != -2 b1 = {-2 * q['b1']!r}")
    for key in ("translation", "rotation"):
        ops.check(abs(val[key]) <= VAR_TOL, f"{tag}: {key} gives {val[key]!r}, not 0")
    ops.check(_close(val["f12"], val["f1"] + val["f2"], VAR_TOL),
              f"{tag}: not linear, {val['f12']!r} != {val['f1'] + val['f2']!r}")
    ops.check(_close(val["shift"], contour, VAR_TOL),
              f"{tag}: side {q['shift_side']} shift {val['shift']!r} != contour route {contour!r}")
    ops.check(_close(relabeled, val["f1"], VAR_TOL),
              f"{tag}: relabeling by {q['relabel']} moves {val['f1']!r} to {relabeled!r}")


def check_hadamard(name, dlam, lam1, ops):
    ops.check(abs(dlam + 2 * lam1) <= HADAMARD_RTOL * 2 * lam1,
              f"Hadamard {name}: dlambda_1 {dlam!r} != -2 lambda_1 = {-2 * lam1!r}")


def check_wz(label, wz, fd, ops):
    ops.check(abs(wz - fd) <= WZ_TOL, f"WZ {label}: {wz!r} vs finite difference {fd!r}")


def check_disk(value, ops):
    ops.check(abs(value + 1.0 / 3.0) <= DISK_TOL, f"disk law: {value!r} != -1/3")


def run_variation(inputs, ops):
    import polydet.eigensolve as E
    import polydet.scmap as S
    import polydet.smoothwz as W
    import polydet.varform as V

    for q in inputs["polys"]:
        p = q["polygon"]
        m = ops.call("scmap", S.solve_parameter_problem, p)
        val = {key: ops.call("var_formula", V.main_formula, p, m, q[key]).total
               for key in ("dilation", "translation", "rotation", "f1", "f2", "f12", "shift")}
        contour = ops.call("contour", V.contour_shift_integral, m, q["shift"])
        m_rel = ops.call("scmap", S.solve_parameter_problem, q["relabeled"])
        relabeled = ops.call("var_formula", V.main_formula, q["relabeled"], m_rel,
                             q["f1_relabeled"]).total
        check_polygon_identities(q, val, contour, relabeled, ops)

    for h in inputs["hadamard"]:
        lam1 = h["lam1"]
        if lam1 is None:
            spec = ops.call("eigensolve", E.dirichlet_eigenvalues, h["polygon"],
                            GENERIC_LAMBDA_MAX)
            lam1 = spec.eigenvalues[0]
        dlam = ops.call("eigvar", E.hadamard_eigenvalue_variation, h["polygon"],
                        h["dilation"], 1)
        check_hadamard(h["name"], dlam, lam1, ops)

    for d in inputs["domains"]:
        for field in WZ_FIELDS:
            wz = ops.call("wz", W.wz_variation, d, list(field))
            plus = ops.call("wz", W.alvarez_logdet, d.perturbed(list(field), WZ_EPS))
            minus = ops.call("wz", W.alvarez_logdet, d.perturbed(list(field), -WZ_EPS))
            check_wz(f"{d.coefficients} V={field}", wz, (plus - minus) / (2 * WZ_EPS), ops)
    check_disk(ops.call("wz", W.wz_variation, W.disk(1.0), [0.0, 1.0]), ops)


WORKLOADS = {
    "det-exact": (build_det_exact, run_det_exact),
    "triangle-pair": (build_triangle_pair, run_triangle_pair),
    "variation": (build_variation, run_variation),
}
