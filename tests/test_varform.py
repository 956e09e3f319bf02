import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from polydet.eigensolve import checked_spectrum
from polydet.errors import (
    AngleSumViolation,
    NonConvex,
    PrevertexCrowding,
    RegularizationResidual,
    ValidationFailure,
)
from polydet.geometry import build_polygon, field_from_vertex_velocities
from polydet.quadrature import graded_breaks
from polydet import varform
from polydet.scmap import (
    _local_regular_factor,
    map_forward,
    solve_parameter_problem,
    sc_derivative,
    schwarzian_xz,
)
from polydet.varform import (
    _aitken_limit,
    _local_regular_factor_left,
    _NearVertex,
    _near_contributions,
    _far_part_finite_side,
    contour_shift_integral,
    corner_constant,
    corner_constant_by_contour,
    corner_functional,
    corner_term,
    hadamard_boundary_integral,
    main_formula,
)
from polydet.validation import richardson_derivative
from polydet.zetadet import (
    EULER_GAMMA,
    ZetaConfig,
    heat_coefficients,
    rectangle_logdet_exact,
    scaling_variation,
    zeta_logdet,
)
from conftest import (
    dilation_field,
    jittered_initialization,
    random_convex_polygon,
    rotation_field,
    side_shift_field,
    translation_field,
)

LOG2 = np.log(2.0)


@pytest.fixture(scope="module")
def square():
    p = build_polygon([0, 1, 1 + 1j, 1j])
    return p, solve_parameter_problem(p)


@pytest.fixture(scope="module")
def rect21():
    p = build_polygon([0, 2, 2 + 1j, 1j])
    return p, solve_parameter_problem(p)


def exact_rect_derivative(a0=1.0):
    """d/da of the exact rectangle log-determinant at (a0, 1), Richardson."""
    return richardson_derivative(lambda h: rectangle_logdet_exact(a0 + h, 1), 1e-4)


class TestCornerConstant:
    def test_closed_form_values(self):
        assert corner_constant(2 * np.pi) == pytest.approx(0.0, abs=1e-15)
        assert corner_constant(np.pi) == pytest.approx(-1 / (4 * np.pi), rel=1e-14)
        assert corner_constant(2 * np.pi / 3) == pytest.approx(-2 / (3 * np.pi), rel=1e-14)

    def test_contour_matches_closed_form(self):
        for beta in (0.01, 0.05, 0.1, np.pi / 2, np.pi, 3.0, 2 * np.pi, 3 * np.pi):
            assert abs(corner_constant_by_contour(beta) - corner_constant(beta)) < 1e-10

    def test_contour_flat_corner_zero(self):
        assert abs(corner_constant_by_contour(2 * np.pi)) < 1e-10

    def test_domain_checked(self):
        with pytest.raises(ValidationFailure):
            corner_constant(-1.0)
        with pytest.raises(ValidationFailure):
            corner_constant(13.0)


class TestCornerTerm:
    def test_zero_field(self, square):
        p, _ = square
        assert corner_term(p, [0, 0, 0, 0]) == 0.0

    def test_square_equal_angles_cancel(self, square):
        p, _ = square
        eps = 1e-3
        assert corner_term(p, [eps, -eps, 0, 0]) == pytest.approx(0.0, abs=1e-18)

    def test_right_isoceles_value(self):
        # e(pi/4) - e(pi/2) = (5 gamma - 2 log 2 - 2)/(4 pi) - gamma/(4 pi)
        # from the image-sum closed form of the varform docstring
        p = build_polygon([0, 1, 1j])
        eps = 1e-3
        val = corner_term(p, [-eps, eps, 0])
        assert val == pytest.approx((2 * EULER_GAMMA - LOG2 - 1) * eps / (2 * np.pi),
                                    rel=1e-12)

    def test_angle_sum_violation(self, square):
        p, _ = square
        with pytest.raises(AngleSumViolation):
            corner_term(p, [1e-3, 0, 0, 0])


def _corner_functional_by_images(q):
    """-Phi'(0)/2 for the wedge of angle pi/q (integer q), whose heat kernel
    is a finite image sum: with b_k = 2 sin^2(k pi/q) the Mellin integral of
    F(x) = (1/4 pi) sum_k (1 - b_k - x b_k (2 - b_k)) e^{-x b_k} is elementary."""
    k = np.arange(1, q)
    b = 2 * np.sin(k * np.pi / q) ** 2
    dphi = ((2 - (2 * EULER_GAMMA - LOG2)) * (q * q - 1) / 6
            - np.sum(np.log(b) / b) - (q - 1)) / (2 * np.pi)
    return -dphi / 2


class TestCornerFunctional:
    def test_closed_forms(self):
        assert corner_functional(np.pi) == pytest.approx(0.0, abs=1e-13)
        assert corner_functional(np.pi / 2) == pytest.approx(EULER_GAMMA / (4 * np.pi),
                                                             rel=1e-12)
        assert corner_functional(np.pi / 4) == pytest.approx(
            (5 * EULER_GAMMA - 2 * LOG2 - 2) / (4 * np.pi), rel=1e-12)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 6, 9])
    def test_image_sum_angles(self, q):
        assert corner_functional(np.pi / q) == pytest.approx(
            _corner_functional_by_images(q), rel=1e-10, abs=1e-12)

    def test_vectorized(self):
        alphas = np.array([0.4, 1.0, 2.5])
        assert np.allclose(corner_functional(alphas),
                           [corner_functional(a) for a in alphas], rtol=0, atol=1e-15)


# d(log det) along the field from the spectrum alone: Hadamard eigenvalue
# variations of the unmoved polygon inserted into the tau0-derivative of the
# heat-trace completion (no finite difference, no corner formula)
SPECTRAL_REFERENCE = [
    ([0, 1, 0.3 + 0.8j], [0, 0, 1], 0.0074590),
    ([0, 1, 0.3 + 0.8j], [0, 0, 0.7j], -0.2963626),
    ([0, 1, 0.3 + 0.8j], [0, 0.5, 0], -0.1732203),
    ([0, 1.2, 0.7 + 0.6j], [0, 0, 1], 0.0024599),
    ([0, 1, 1.2 + 0.9j, -0.1 + 0.8j], [0, 0, 0.5, 0], -0.0935360),
    ([0, 2, 1.25 + 0.75j, 0.75 + 0.75j], [0, 0, 1, 0], -0.0868904),
    ([0, 1.4, 0.9 + 0.5j, 0.5 + 0.5j], [0, 0, 1, 0], -0.2849992),
    ([0, 1, 0.15 + 0.65j], [0, 0, 1], -0.0295192),
    ([0, 1, 0.6j], [0, 1, 0], -0.3588342),
    ([0, 1, 0.5 + 0.35j], [0, 1, 0], -0.1540605),
]


@pytest.mark.parametrize("verts, vel, ref", SPECTRAL_REFERENCE)
def test_main_formula_matches_spectral_reference(verts, vel, ref):
    p = build_polygon(verts)
    f = field_from_vertex_velocities(p, vel)
    dv = main_formula(p, solve_parameter_problem(p), f)
    assert abs(dv.total - ref) < 5e-5


def _lattice_logdet(verts, form, keep):
    """log det of a lattice triangle from its closed-form spectrum
    form(m, n), m, n >= 1 with keep(m, n), below 4000 (tau0 0.007)."""
    lam_max = 4000.0
    r = range(1, int(np.sqrt(lam_max)) + 1)
    eigs = [form(m, n) for m in r for n in r if keep(m, n) and form(m, n) < lam_max]
    p = build_polygon(verts)
    spec = checked_spectrum(p, eigs, np.zeros(len(eigs)), lam_max, {})
    return zeta_logdet(spec, heat_coefficients(p), ZetaConfig(tau0=0.007)).value


def test_apex_path_integral_matches_the_lattice_log_dets():
    # the apex of the right isosceles triangle (0, 1, i) moves straight to
    # the equilateral apex; the formula integrated along the path is the
    # difference of the two log dets.  Measured: 2.5e-13 off at 6 and 12
    # Gauss-Legendre nodes, which differ by 5.1e-13; the tolerance is 20
    # times that doubling difference
    a0, a1 = 1j, 0.5 + 0.5j * np.sqrt(3)
    ref = (_lattice_logdet([0, 1, a1], lambda m, n: 16 * np.pi**2 * (m * m + m * n + n * n) / 9,
                           lambda m, n: True)
           - _lattice_logdet([0, 1, a0], lambda m, n: np.pi**2 * (m * m + n * n),
                             lambda m, n: m > n))

    def path_integral(nodes):
        x, w = np.polynomial.legendre.leggauss(nodes)
        total = 0.0
        for xi, wi in zip(x, w):
            p = build_polygon([0, 1, a0 + 0.5 * (1 + xi) * (a1 - a0)])
            f = field_from_vertex_velocities(p, [0, 0, a1 - a0])
            total += 0.5 * wi * main_formula(p, solve_parameter_problem(p), f).total
        return total

    v6, v12 = path_integral(6), path_integral(12)
    assert abs(v12 - v6) < 1e-11
    assert abs(v6 - ref) < 1e-11
    assert abs(v12 - ref) < 1e-11


def test_vertex_insertion_path_matches_square_minus_triangle():
    # a vertex inserted at the midpoint of the hypotenuse of (0, 1, i), at
    # a straight angle, moves straight to 1 + i; the formula integrated
    # along the path is log det(square) - log det(triangle).  Measured: off
    # by 9.579e-9 at 10 to 32 Gauss-Legendre nodes, which differ by at most
    # 1.2e-13 (8 nodes are 2.1e-11 away).  The 9.6e-9 is the bias of the
    # eps-halving route of the near-vertex finite part (ROADMAP item 5), not
    # of the quadrature in s
    mid, vel = 0.5 + 0.5j, 0.5 + 0.5j
    ref = rectangle_logdet_exact(1, 1) - _lattice_logdet(
        [0, 1, 1j], lambda m, n: np.pi**2 * (m * m + n * n), lambda m, n: m > n)

    def path_integral(nodes):
        x, w = np.polynomial.legendre.leggauss(nodes)
        total = 0.0
        for xi, wi in zip(x, w):
            p = build_polygon([0, 1, mid + 0.5 * (1 + xi) * vel, 1j])
            f = field_from_vertex_velocities(p, [0, 0, vel, 0])
            total += 0.5 * wi * main_formula(p, solve_parameter_problem(p), f).total
        return total

    v12, v24 = path_integral(12), path_integral(24)
    assert abs(v24 - v12) < 1e-11
    assert abs(v12 - ref) < 2e-8
    assert abs(v24 - ref) < 2e-8


@pytest.mark.parametrize("seed", range(5))
def test_closed_loop_integral_vanishes(seed):
    # log det is a function of the vertices, so the formula integrated round
    # the loop v + r (cos theta V1 + sin theta V2) is 0; the trapezoid rule
    # in theta converges geometrically on the periodic integrand.  Measured
    # with 16 nodes: 1.6e-12 to 4.3e-11 (at 8 nodes 7e-9 to 5e-7).  A draw
    # whose loop leaves convexity at a node is replaced by the next draw, as
    # the first draw of seed 4 is
    rng = np.random.default_rng(seed)
    r, nodes = 0.05, 16
    theta = 2 * np.pi * np.arange(nodes) / nodes
    while True:
        p = random_convex_polygon(rng, n_min=4, n_max=6)
        v = p.vertex_array()
        v1, v2 = (rng.normal(size=p.n) + 1j * rng.normal(size=p.n) for _ in range(2))
        try:
            loop = [build_polygon(v + r * (np.cos(t) * v1 + np.sin(t) * v2)) for t in theta]
            break
        except NonConvex:
            pass
    total = sum(main_formula(q, solve_parameter_problem(q),
                             field_from_vertex_velocities(q, r * (np.cos(t) * v2
                                                                  - np.sin(t) * v1))).total
                for q, t in zip(loop, theta))
    assert abs(total * 2 * np.pi / nodes) <= 1e-9


def test_regular_factors_match_the_derivative(rng):
    # F(w) = x'(z_i + w) w^{1 - a_i/pi} from the right, x'(z_i - w) w^{1 - a_i/pi}
    # from the left, on the real axis next to the prevertex and off it
    p = random_convex_polygon(rng, n_min=5, n_max=6)
    m = solve_parameter_problem(p)
    for i in range(p.n):
        r = 0.3 * m.gap(i) * np.array([0.05, 0.4, 0.4, 1.0])
        w = r * np.exp(1j * np.array([0.0, 0.0, 1.1, 2.5]))
        power = w ** (1 - p.angles[i] / np.pi)
        zi = m.prevertices[i]
        right = sc_derivative(m, zi + w) * power
        assert np.allclose(_local_regular_factor(m, i, w), right, rtol=1e-12, atol=0)
        left = sc_derivative(m, zi - w.conj()) * w.conj() ** (1 - p.angles[i] / np.pi)
        assert np.allclose(_local_regular_factor_left(m, i, w.conj()), left,
                           rtol=1e-12, atol=0)


def test_rho_on_panel_arrays_equals_pointwise(rng):
    # the eps loop of _near_contributions evaluates rho on (panels x nodes)
    p = random_convex_polygon(rng, n_min=5, n_max=5)
    m = solve_parameter_problem(p)
    for i, from_right in ((1, True), (3, False)):
        near = _NearVertex(m, i, from_right)
        w = 0.25 * m.gap(i) * rng.uniform(1e-6, 1.0, (3, 7))
        assert np.array_equal(near.rho(w), [[near.rho(x)[0] for x in row] for row in w])


def test_schwarz_w2_matches_the_loop_over_prevertices(rng):
    # the sums of scmap._prevertex_sums against the loop over the other
    # prevertices that they replaced, which adds the terms in another order
    p = random_convex_polygon(rng, n_min=8, n_max=8)
    m = solve_parameter_problem(p)
    zk, gp = m.prevertex_array(), -np.asarray(m.exponents)
    for i, from_right in ((1, True), (3, False), (4, True), (0, False)):
        near = _NearVertex(m, i, from_right)
        w = 0.25 * m.gap(i) * np.array([1e-300, 1e-8, 0.01, 0.3, 1.0])
        T = U = 0.0
        for k in range(m.n):
            if k != i:
                d = near.zi - zk[k] + near.sign * w
                T, U = T + gp[k] / d, U + gp[k] / d**2
        ref = gp[i] * (1 - gp[i] / 2) - near.sign * gp[i] * T * w + w**2 * (U - T**2 / 2)
        assert np.allclose(near.schwarz_w2(w), ref, rtol=1e-13, atol=1e-14)


def test_local_structure_matches_map_forward(rng):
    # x(z_i +/- w) = x_i +/- D (pi/a) w^{a/pi} rho(w); right and left
    # approaches, including both ends of the side through infinity
    p = random_convex_polygon(rng, n_min=5, n_max=5)
    m = solve_parameter_problem(p)
    for i, from_right in ((1, True), (3, False), (4, True), (0, False)):
        near = _NearVertex(m, i, from_right)
        w = 0.25 * m.gap(i) * np.array([1e-4, 0.01, 0.3, 1.0])
        z = m.prevertices[i] + (w if from_right else -w)
        ref = np.array([map_forward(m, zz) for zz in z])
        arc = near.D * (np.pi / near.alpha) * w**near.apio * near.rho(w)
        assert np.max(np.abs(m.vertex_images[i] + near.sign * arc - ref)) < 1e-11


def test_graded_breaks_leave_no_sliver_at_the_midpoint():
    # the eigenfunction side rule: panels h, 2h, ... from both ends, and the
    # remainder at the midpoint (h wide) merged into the panel before it
    h = 2.0**-15
    w = np.diff(graded_breaks(0.0, 1.0, h, h))
    assert len(w) == 28 and w[0] == w[-1] == h
    assert np.max(np.maximum(w[1:] / w[:-1], w[:-1] / w[1:])) < 2.001


def _random_field(p, rng):
    return field_from_vertex_velocities(p, rng.normal(size=p.n) + 1j * rng.normal(size=p.n))


class TestSideIntegralsPerMap:
    """Each side is integrated once per map; a field only combines the pairs."""

    def test_second_field_does_no_quadrature(self, rng, monkeypatch):
        p = random_convex_polygon(rng, n_min=6, n_max=6)
        m = solve_parameter_problem(p)
        main_formula(p, m, _random_field(p, rng))
        calls = []

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(varform, "_local_regular_factor",
                            spy("regular_factor", varform._local_regular_factor))
        monkeypatch.setattr(varform._NearVertex, "rho", spy("rho", varform._NearVertex.rho))
        monkeypatch.setattr(varform, "sc_derivative", spy("sc_derivative", sc_derivative))
        for f in (dilation_field(p), rotation_field(p), _random_field(p, rng)):
            main_formula(p, m, f)
        assert calls == []

    @pytest.mark.parametrize("n", [5, 8])
    def test_cached_equals_fresh_map(self, n, rng):
        p = random_convex_polygon(rng, n_min=n, n_max=n)
        m = solve_parameter_problem(p)
        fields = [dilation_field(p), rotation_field(p), _random_field(p, rng)]
        cached = [main_formula(p, m, f) for f in fields]
        for f, dv in zip(fields, cached):
            fresh = main_formula(p, solve_parameter_problem(p), f)
            for a, b in ((dv.total, fresh.total), (dv.boundary_term, fresh.boundary_term)):
                assert abs(a - b) <= 1e-13 * max(1.0, abs(b))

    def test_only_moved_sides_are_integrated(self, rng, monkeypatch):
        p = random_convex_polygon(rng, n_min=5, n_max=5)
        m = solve_parameter_problem(p)
        integrated = []
        real = varform._integrate_side

        def spy(m_, j):
            integrated.append(j)
            return real(m_, j)

        monkeypatch.setattr(varform, "_integrate_side", spy)
        main_formula(p, m, side_shift_field(p, 2))
        assert integrated == [2]
        half_speed = 0.5 * side_shift_field(p, 2).velocity_array()
        main_formula(p, m, field_from_vertex_velocities(p, half_speed))
        main_formula(p, m, side_shift_field(p, 4))
        assert integrated == [2, 4]

    def test_finite_part_is_linear(self, square, rng):
        p, m = square
        v1 = rng.normal(size=4) + 1j * rng.normal(size=4)
        v2 = rng.normal(size=4) + 1j * rng.normal(size=4)
        fp1, fp2, fp12 = (hadamard_boundary_integral(
            m, field_from_vertex_velocities(p, v)).finite_part for v in (v1, v2, v1 + v2))
        assert abs(fp12 - fp1 - fp2) < 1e-12 * max(1.0, abs(fp12))


class TestHadamardBoundaryIntegral:
    def test_eps_extrapolation_matches_finite_part(self, square):
        p, m = square
        res = hadamard_boundary_integral(m, side_shift_field(p, 1))
        assert res.diagnostics["mismatch"] < 1e-8

    def test_linear_in_field(self, square, rng):
        p, m = square
        v1 = rng.normal(size=4) + 1j * rng.normal(size=4)
        v2 = rng.normal(size=4) + 1j * rng.normal(size=4)
        r1 = hadamard_boundary_integral(m, field_from_vertex_velocities(p, v1)).value
        r2 = hadamard_boundary_integral(m, field_from_vertex_velocities(p, v2)).value
        r12 = hadamard_boundary_integral(m, field_from_vertex_velocities(p, v1 + v2)).value
        assert abs(r12 - r1 - r2) < 1e-9 * max(1.0, abs(r12))

    def test_far_part_matches_adaptive_quadrature(self, rect21):
        # untruncated interior piece of a side integral vs scipy adaptive
        p, m = rect21
        j, c0, c1 = 0, 0.7, 0.3
        nu = p.side_normal(j)
        zl = m.prevertices[j] + 0.3
        zr = m.prevertices[j + 1] - 0.004
        got = _far_part_finite_side(m, j, zl, zr, nu, map_forward(m, zl)) @ [c0, c1]

        x_vertex = p.vertices[j]

        def integrand(z, part):
            s = abs(complex(_map_ref(m, j, z)) - x_vertex)
            val = -schwarzian_xz(m, complex(z)) * (c0 + c1 * s) * nu / sc_derivative(m, complex(z))
            return val.real if part == 0 else val.imag

        re = quad(integrand, zl, zr, args=(0,), limit=400, epsabs=1e-12, epsrel=1e-12)[0]
        im = quad(integrand, zl, zr, args=(1,), limit=400, epsabs=1e-12, epsrel=1e-12)[0]
        assert abs(got - (re + 1j * im)) < 1e-9 * max(1.0, abs(got))

    def test_eps_residual_slope(self, square):
        # residual of the finite-eps values vs the closed-form finite part.
        # The generic envelope is eps^{min(1, pi/alpha - 1)}; measuring the
        # removal radius in true arclength cancels that leading term
        # identically, leaving the next vertex-expansion order
        # eps^{2 pi/alpha - 1} (slope 2 on a hexagon corner, 3 on a square).
        eps_list = (4e-3, 2e-3, 1e-3, 5e-4)

        hexa = build_polygon(np.exp(1j * np.pi * np.arange(6) / 3))
        mh = solve_parameter_problem(hexa)
        near = _NearVertex(mh, 1, from_right=True)
        fp, vals = _near_contributions(near, hexa.side_normal(1), 0.25 * mh.gap(1), eps_list)
        resid = np.abs(vals @ [1.0, 0.4] - fp @ [1.0, 0.4])
        slope = np.polyfit(np.log(eps_list), np.log(resid), 1)[0]
        assert abs(slope - 2.0) < 0.1           # sharp rate 2 pi/alpha - 1

        p, m = square
        near_sq = _NearVertex(m, 1, from_right=True)
        fp_sq, vals_sq = _near_contributions(near_sq, -1j, 0.25 * m.gap(1), eps_list)
        resid_sq = np.abs(vals_sq @ [1.0, 0.4] - fp_sq @ [1.0, 0.4])
        slope_sq = np.polyfit(np.log(eps_list), np.log(resid_sq), 1)[0]
        assert abs(slope_sq - 3.0) < 0.1

    def test_aitken_divergence_flag(self):
        _, diverging, _ = _aitken_limit(1.0, 2.0, 4.0)
        assert diverging
        _, ok, _ = _aitken_limit(1.0, 1.5, 1.75)
        assert not ok


class TestMainFormula:
    def test_rigid_translation_zero(self, square):
        p, m = square
        dv = main_formula(p, m, translation_field(p))
        assert abs(dv.total) < 1e-8
        assert dv.corner_term == 0.0

    def test_rigid_rotation_zero(self, square):
        p, m = square
        assert abs(main_formula(p, m, rotation_field(p)).total) < 1e-8

    def test_dilation_square(self, square):
        p, m = square
        dv = main_formula(p, m, dilation_field(p))
        assert dv.total == pytest.approx(-0.5, abs=1e-6)

    def test_dilation_triangle_and_hexagon(self):
        for verts in ([0, 1, 1j], np.exp(1j * np.pi * np.arange(6) / 3)):
            p = build_polygon(verts)
            m = solve_parameter_problem(p)
            dv = main_formula(p, m, dilation_field(p))
            assert dv.total == pytest.approx(scaling_variation(p), abs=1e-5)

    def test_side_shift_vs_exact_rectangle(self, square):
        p, m = square
        dv = main_formula(p, m, side_shift_field(p, 1))
        assert dv.corner_term == 0.0
        assert dv.total == pytest.approx(exact_rect_derivative(), abs=1e-5)

    def test_total_is_sum(self, square, rng):
        p, m = square
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        dv = main_formula(p, m, field_from_vertex_velocities(p, v))
        assert dv.total == dv.boundary_term + dv.corner_term

    def test_elongated_rectangles(self):
        # at aspect 8 the smallest prevertex gap is 9.7e-11 and the side shift
        # still matches the rectangle oracle; at aspect 10 it is 1.8e-13,
        # below what the map resolves
        p = build_polygon([0, 8, 8 + 1j, 1j])
        dv = main_formula(p, solve_parameter_problem(p), side_shift_field(p, 1))
        assert abs(dv.total - exact_rect_derivative(8.0)) < 1e-9
        with pytest.raises(PrevertexCrowding, match="gap 1.8"):
            solve_parameter_problem(build_polygon([0, 10, 10 + 1j, 1j]))

    def test_thin_corner_raises_fast(self):
        # at base angles 0.025, pi/alpha is about 126 and the near-zone radius
        # (eps/|C|)^(pi/alpha) underflows to 0, where no panel grading starts
        p = build_polygon([0, 1, 0.5 + 0.5j * np.tan(0.025)])
        m = solve_parameter_problem(p)
        with pytest.raises(RegularizationResidual, match="angle 0.025"):
            _NearVertex(m, 0, from_right=True).w_of_eps(varform._eps_triplet(p)[0])
        t0 = time.perf_counter()
        with pytest.raises(RegularizationResidual):
            main_formula(p, m, dilation_field(p))
        assert time.perf_counter() - t0 < 10.0

    def test_gauge_invariance_under_solver_jitter(self, monkeypatch):
        p = build_polygon([0, 1.4, 1.9 + 1.1j, 0.4 + 1.7j, -0.5 + 0.9j])
        f = side_shift_field(p, 1)
        m0 = solve_parameter_problem(p)
        jittered_initialization(monkeypatch, 0.4, 3)
        m1 = solve_parameter_problem(p)
        v0 = main_formula(p, m0, f).total
        v1 = main_formula(p, m1, f).total
        assert abs(v0 - v1) < 1e-8


class TestContourShift:
    def test_square_side_shift(self, square):
        p, m = square
        v = contour_shift_integral(m, side_shift_field(p, 1))
        assert v == pytest.approx(exact_rect_derivative(), abs=1e-5)

    def test_contour_independence(self, square, monkeypatch):
        p, m = square
        f = side_shift_field(p, 1)
        monkeypatch.setattr(varform, "_ARC_FRAC", 0.1)
        v1 = contour_shift_integral(m, f)
        monkeypatch.setattr(varform, "_ARC_FRAC", 0.05)
        v2 = contour_shift_integral(m, f)
        assert abs(v1 - v2) < 1e-8

    def test_rect_top_side(self, rect21):
        p, m = rect21
        f = side_shift_field(p, 2)
        h = 1e-4
        d = (rectangle_logdet_exact(2, 1 + h) - rectangle_logdet_exact(2, 1 - h)) / (2 * h)
        assert contour_shift_integral(m, f) == pytest.approx(d, abs=1e-5)

    def test_route_agreement_random(self, rng):
        worst = 0.0
        for _ in range(4):
            p = random_convex_polygon(rng, n_min=4, n_max=6)
            m = solve_parameter_problem(p)
            f = side_shift_field(p, 1)
            worst = max(worst, abs(main_formula(p, m, f).total
                                   - contour_shift_integral(m, f)))
        assert worst < 1e-6

    def test_rejects_rotational_field(self, square):
        p, m = square
        f = field_from_vertex_velocities(p, [0, -0.5, 0.5, 0])
        with pytest.raises(ValidationFailure):
            contour_shift_integral(m, f)


def _formula_total(verts, vel):
    p = build_polygon(list(verts))
    f = field_from_vertex_velocities(p, list(vel))
    return main_formula(p, solve_parameter_problem(p), f).total


def _random_polygon_and_velocities(seed):
    rng = np.random.default_rng(seed)
    p = random_convex_polygon(rng, n_min=3, n_max=6)
    return p, rng.normal(size=p.n) + 1j * rng.normal(size=p.n)


def _close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TestExactIdentities:
    """Identities main_formula must satisfy on every polygon and field.

    They hold to about 1e-11 on most draws.  The side through z = infinity
    evaluates {x,z} in t = 1/z, where it has no cancellation; in the z form,
    the scaling draw seed = 4108, c = 1.5 (a Gauss node at t = -1.4e-5) was
    off by 1.1e-9.
    """

    @settings(max_examples=5, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), shift=st.integers(1, 5))
    def test_cyclic_relabeling(self, seed, shift):
        # relabeling sends another side through the SC path through infinity
        p, vel = _random_polygon_and_velocities(seed)
        v = p.vertex_array()
        k = 1 + shift % (p.n - 1)
        assert _close(_formula_total(np.roll(v, -k), np.roll(vel, -k)),
                      _formula_total(v, vel))

    @settings(max_examples=5, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_reflection(self, seed):
        # conjugation reverses the orientation, reversing the labels restores it
        p, vel = _random_polygon_and_velocities(seed)
        v = p.vertex_array()
        assert _close(_formula_total(np.conj(v)[::-1], np.conj(vel)[::-1]),
                      _formula_total(v, vel))

    @settings(max_examples=5, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), c=st.floats(0.3, 3.0))
    def test_scaling_covariance(self, seed, c):
        # log det(cP) = log det(P) - 2 log c b1(P), so
        # c dlogdet(cP)[V] = dlogdet(P)[V] - 2 log c db1[V]
        p, vel = _random_polygon_and_velocities(seed)
        a = np.asarray(p.angles)
        da = np.asarray(field_from_vertex_velocities(p, list(vel)).delta_angles)
        db1 = -np.sum((np.pi**2 / a**2 + 1) * da) / (24 * np.pi)
        v = p.vertex_array()
        assert _close(c * _formula_total(c * v, vel),
                      _formula_total(v, vel) - 2 * np.log(c) * db1)


def _map_ref(m, j, z):
    from polydet.scmap import map_forward
    return map_forward(m, z)
