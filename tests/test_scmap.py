import numpy as np
import pytest

from polydet.errors import NonConvex, PoleQuery, PrevertexCrowding, ValidationFailure
from polydet.geometry import build_polygon
from polydet.scmap import (
    SCMap,
    map_forward,
    sc_derivative,
    schwarzian_xz,
    solve_parameter_problem,
    _QUAD_ORDER,
    _log_uhp,
    _panel_breaks,
    _unnormalized_derivative,
    integrate_sc_segment,
)
from polydet.quadrature import jacgauss, leggauss, panel_nodes
from polydet.varform import _NearVertex
from conftest import jittered_initialization, random_convex_polygon


@pytest.fixture(scope="module")
def square_map():
    return solve_parameter_problem(build_polygon([0, 1, 1 + 1j, 1j]))


@pytest.fixture(scope="module")
def rect_map():
    return solve_parameter_problem(build_polygon([0, 2, 2 + 1j, 1j]))


@pytest.fixture(scope="module")
def tri_map():
    return solve_parameter_problem(build_polygon([0, 1, 1j]))


class TestParameterProblem:
    def test_triangle_has_no_unknowns(self, tri_map):
        assert tri_map.prevertices == (-1.0, 0.0, 1.0)
        assert tri_map.residual == 0.0

    def test_square_side_lengths(self, square_map):
        xk = square_map.vertex_images
        sides = np.abs(np.diff(xk))
        assert np.all(np.abs(sides - 1.0) < 1e-10)
        # exact gauge value for the square: interior prevertex at 1/3
        assert square_map.prevertices[2] == pytest.approx(1 / 3, abs=1e-12)

    def test_rectangle_ratio(self, rect_map):
        xk = rect_map.vertex_images
        sides = np.abs(np.diff(xk))
        assert sides[0] / sides[1] == pytest.approx(2.0, rel=1e-10)
        assert sides[2] / sides[1] == pytest.approx(2.0, rel=1e-10)

    def test_vertex_check_uses_quad_order(self, monkeypatch):
        # the solve, the vertex check and map_forward all use the one SC
        # quadrature order, on the Gauss-Jacobi and the Gauss-Legendre panels
        from polydet import scmap

        orders = {}
        for name in ("jacgauss", "leggauss"):
            def spy(n, *args, real=getattr(scmap, name), name=name):
                orders.setdefault(name, set()).add(n)
                return real(n, *args)

            monkeypatch.setattr(scmap, name, spy)
        m = solve_parameter_problem(build_polygon([0, 1, 1 + 1j, 1j]))
        map_forward(m, 0.3 + 0.4j)
        assert orders == {"jacgauss": {24}, "leggauss": {24}} and scmap._QUAD_ORDER == 24

    def test_checked_map_rejects_wrong_prevertices(self, square_map):
        from polydet.errors import NoConvergence
        from polydet.scmap import checked_map

        p = square_map.polygon
        # the residual is recomputed from the prevertices, equal to the solve's
        m = checked_map(p, square_map.prevertices)
        assert m == square_map
        assert np.array_equal(m.vertex_images, square_map.vertex_images)
        with pytest.raises(NoConvergence):
            checked_map(p, (-1.0, 0.0, 0.4, 1.0))
        # within the 1e-8 vertex check, but a side-ratio residual above 1e-9
        moved = (-1.0, 0.0, square_map.prevertices[2] + 3e-9, 1.0)
        with pytest.raises(NoConvergence, match="residual 3.084e-09"):
            checked_map(p, moved)
        with pytest.raises(ValidationFailure):
            checked_map(p, (-1.0, 0.0, 1.0))

    def test_crowded_prevertices_are_rejected(self, square_map):
        # the check a solved map passes holds for prevertices read from a cache
        from polydet.scmap import checked_map

        with pytest.raises(PrevertexCrowding, match="gap 1.000e-13"):
            checked_map(square_map.polygon, (-1.0, 0.0, 1.0 - 1e-13, 1.0))

    def test_checked_vertex_images_are_reused(self, monkeypatch):
        # the images checked after the solve are kept on the map for
        # map_forward, so no second pass over the intervals is made
        from polydet import scmap

        calls = []
        real = scmap._interval_integrals

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(scmap, "_interval_integrals", spy)
        m = solve_parameter_problem(build_polygon([0, 1, 0.3 + 0.8j]))
        assert len(calls) == 1
        segs = real(m.prevertex_array(), np.asarray(m.exponents))
        assert np.array_equal(m.vertex_images,
                              scmap._vertex_chain(m.base_point, m.prefactor, segs))

    def test_exponent_range(self, square_map):
        for e in square_map.exponents:
            assert -1 < e < 0

    def test_random_polygon_regression(self, rng):
        for _ in range(20):
            p = random_convex_polygon(rng)
            m = solve_parameter_problem(p)
            xk = m.vertex_images
            L = np.asarray(p.side_lengths)[: p.n - 1]
            rel = np.abs(np.abs(np.diff(xk)) - L) / L
            assert rel.max() < 1e-10


class TestMapForward:
    def test_prevertex_images(self, square_map):
        verts = square_map.polygon.vertex_array()
        for k, zk in enumerate(square_map.prevertices):
            assert abs(map_forward(square_map, zk) - verts[k]) < 1e-10

    def test_path_independence(self, square_map):
        # x(z) integrated from each prevertex in turn
        zk, g = square_map.prevertex_array(), np.asarray(square_map.exponents)
        pts = [0.3 + 0.7j, -0.5 + 1.2j, 0.9 + 0.1j]
        for z in pts:
            vals = [square_map.vertex_images[k] + square_map.prefactor
                    * integrate_sc_segment(zk, g, zk[k], z, sing_index=k) for k in range(4)]
            assert max(abs(v - vals[0]) for v in vals) < 1e-10

    def test_square_conformal_center(self, square_map):
        # under this gauge the square's symmetry point is (1+2j)/5 exactly
        # (Moebius image of the symmetric-gauge fixed point)
        x = map_forward(square_map, (1 + 2j) / 5)
        assert abs(x - (0.5 + 0.5j)) < 1e-8

    def test_boundary_correspondence(self, square_map, rng):
        zk = square_map.prevertex_array()
        verts = square_map.polygon.vertex_array()
        for j in range(3):
            for t in rng.uniform(0.05, 0.95, 4):
                z = zk[j] + t * (zk[j + 1] - zk[j])
                x = map_forward(square_map, z)
                a, b = verts[j], verts[(j + 1) % 4]
                tau = (b - a) / abs(b - a)
                off = ((x - a) * np.conj(tau)).imag
                assert abs(off) < 1e-9


def _segment_per_panel(zk, g, a, b, sing_index, order):
    """integrate_sc_segment evaluated one panel at a time (the reference)."""
    panels, u = _panel_breaks(a, b, zk, sing_index)
    total = 0.0 + 0.0j
    for (t0, t1) in panels:
        h = t1 - t0
        if t0 == 0.0 and sing_index is not None:
            x, w = jacgauss(order, 0.0, g[sing_index])
            zeta = a + u * (0.5 * h * (1.0 + x))
            keep = np.arange(len(zk)) != sing_index
            val = _unnormalized_derivative(zk[keep], g[keep], zeta)
            scale = np.exp((g[sing_index] + 1) * (np.log(0.5 * h) + _log_uhp(np.array(u))[()]))
            total += scale * np.sum(w * val)
        else:
            (zeta,), (half,) = panel_nodes([a + u * t0, a + u * t1], order)
            total += np.sum(half * leggauss(order)[1] * _unnormalized_derivative(zk, g, zeta))
    return total


class TestSegmentQuadrature:
    def test_batched_panels_equal_the_per_panel_sum(self, rng):
        m = solve_parameter_problem(random_convex_polygon(rng, n_min=5, n_max=5))
        zk, g = m.prevertex_array(), np.asarray(m.exponents)
        for k in range(m.n - 1):
            mid = 0.5 * (zk[k] + zk[k + 1])
            for a, b, sing in ((zk[k], mid, k), (zk[k + 1], mid, k + 1),
                               (zk[k], mid + 0.7j, k), (mid + 0.01j, zk[k + 1] + 0.02j, None),
                               (zk[0] - 0.5, zk[-1] + 0.3 + 0.001j, None)):
                got = integrate_sc_segment(zk, g, a, b, sing_index=sing)
                assert got == _segment_per_panel(zk, g, a, b, sing, _QUAD_ORDER)
        # the free segments along the axis need many panels
        assert len(_panel_breaks(zk[0] - 0.5, zk[-1] + 0.3 + 0.001j, zk, None)[0]) > 20

    def test_product_equals_the_per_prevertex_loop(self, rng):
        # one _log_uhp call on all differences against one call per prevertex
        m = solve_parameter_problem(random_convex_polygon(rng, n_min=6, n_max=6))
        zk, g = m.prevertex_array(), np.asarray(m.exponents)
        d = 0.1 * np.min(np.diff(zk))
        interior = zk[:-1] + 0.37 * np.diff(zk) + 1j * np.array([1e-3, 0.2, 1.0, 3.0, 40.0])
        axis = np.concatenate([zk - d, zk + d, zk - 1e-9, zk + 1e-9, [zk[0] - 5.0, zk[-1] + 5.0]])
        # roundoff below the axis is read as a boundary point approached from above
        below = axis - 1e-17j * np.abs(axis)
        for z in (interior, axis, below, below.reshape(2, -1)):
            ref = np.zeros(z.shape, dtype=complex)
            for k in range(len(zk)):
                ref = ref + g[k] * _log_uhp(z - zk[k])
            assert np.array_equal(_unnormalized_derivative(zk, g, z), np.exp(ref))
        # the branch fix is exercised: left of a prevertex the roundoff points read arg = pi
        assert np.array_equal(_unnormalized_derivative(zk, g, below[:m.n]),
                              _unnormalized_derivative(zk, g, axis[:m.n]))


class TestSchwarzian:
    def test_flat_data_is_moebius(self):
        poly = build_polygon([0, 1, 1j])
        flat = SCMap(prevertices=(-1.0, 0.0, 1.0), exponents=(0.0, 0.0, 0.0),
                     prefactor=1.0 + 0j, base_point=0j, polygon=poly, residual=0.0)
        zs = np.array([0.5 + 0.5j, -1.2 + 2j, 3 + 0.1j])
        assert np.max(np.abs(schwarzian_xz(flat, zs))) == 0.0

    def test_leading_coefficient_at_prevertex(self, rect_map):
        # eps must sit well below the smallest prevertex gap (~0.015 here)
        for i in range(3):
            zi = rect_map.prevertices[i]
            a = rect_map.polygon.angles[i]
            expect = (np.pi**2 - a**2) / (2 * np.pi**2)
            v1 = (1e-5 * 1j) ** 2 * schwarzian_xz(rect_map, zi + 1e-5 * 1j)
            v2 = (5e-6 * 1j) ** 2 * schwarzian_xz(rect_map, zi + 5e-6 * 1j)
            rich = 2 * v2 - v1
            assert abs(rich - expect) < 1e-6

    def test_finite_difference_schwarzian(self, square_map):
        # five-point finite differences of log x' at z = 2i
        z0, h = 2j, 1e-2
        f = lambda z: np.log(sc_derivative(square_map, z))
        d1 = (-f(z0 + 2 * h) + 8 * f(z0 + h) - 8 * f(z0 - h) + f(z0 - 2 * h)) / (12 * h)
        d2 = (-f(z0 + 2 * h) + 16 * f(z0 + h) - 30 * f(z0) + 16 * f(z0 - h) - f(z0 - 2 * h)) / (12 * h**2)
        fd = d2 - 0.5 * d1**2  # {x,z} = (log x')'' + ... using log-derivative form
        assert abs(fd - schwarzian_xz(square_map, z0)) < 1e-6

    def test_pole_query(self, square_map):
        with pytest.raises(PoleQuery):
            schwarzian_xz(square_map, square_map.prevertices[1])

    def test_near_vertex_limit(self, square_map):
        # (x-a)^2 {z,x} -> (1 - pi^2/alpha^2)/2 with {z,x} = -{x,z}/x'(z)^2,
        # at points z_1 + w whose images lie at |x - a| of 1e-3 and 1e-4
        a = square_map.polygon.vertices[1]
        alpha = square_map.polygon.angles[1]
        expect = (1 - np.pi**2 / alpha**2) / 2
        near = _NearVertex(square_map, 1, from_right=True)
        vals = []
        for eps in [1e-3, 1e-4]:
            z = square_map.prevertices[1] + near.w_of_eps(eps) * np.exp(0.5j * np.pi)
            x = map_forward(square_map, z)
            szx = -schwarzian_xz(square_map, z) / sc_derivative(square_map, z) ** 2
            vals.append((x - a) ** 2 * szx)
        # leading correction is O(eps^{pi/alpha}) = O(eps^2) here
        assert abs(vals[1] - expect) < 1e-6
        assert abs(vals[1] - expect) < abs(vals[0] - expect)


class TestVertexExpansion:
    def test_leading_coefficient_closed_form(self, rect_map):
        # D_i of x'(z) ~ D_i w^(alpha_i/pi - 1): from the right of z_i,
        # D_i = C prod_{k != i} (z_i - z_k)^{g_k} on the UHP branch, and from
        # the left e^{i pi g_i} times that
        zk = rect_map.prevertex_array()
        g = np.asarray(rect_map.exponents)
        for i in range(rect_map.n):
            s = 0j
            for k in range(rect_map.n):
                if k == i:
                    continue
                d = zk[i] - zk[k]
                s += g[k] * (np.log(abs(d)) + 1j * np.pi * (d < 0))
            closed = rect_map.prefactor * np.exp(s)
            right = _NearVertex(rect_map, i, from_right=True).D
            left = _NearVertex(rect_map, i, from_right=False).D
            assert abs(right - closed) < 1e-10 * abs(closed)
            assert abs(left - np.exp(1j * np.pi * g[i]) * closed) < 1e-10 * abs(closed)

    def test_order0_truncation_slope(self, square_map):
        # x(z_i + w) - x_i = (pi/alpha) D_i w^(alpha/pi) (1 + O(w)), off the axis
        i = 2
        near = _NearVertex(square_map, i, from_right=True)
        rs = np.array([1e-2, 5e-3, 2.5e-3, 1.25e-3])
        errs = []
        for r in rs:
            w = r * np.exp(0.9j)
            lead = (np.pi / near.alpha) * near.D * np.exp(near.apio * np.log(w))
            fw = map_forward(square_map, near.zi + w) - square_map.polygon.vertices[i]
            errs.append(abs(lead - fw))
        slope = np.polyfit(np.log(rs), np.log(errs), 1)[0]
        assert abs(slope - (near.apio + 1)) < 0.05


class TestGaugeRobustness:
    def test_jittered_initialization_same_map(self, monkeypatch):
        p = build_polygon([0, 1.4, 1.9 + 1.1j, 0.4 + 1.7j, -0.5 + 0.9j])
        m0 = solve_parameter_problem(p)
        jittered_initialization(monkeypatch, 0.4, 11)
        m1 = solve_parameter_problem(p)
        assert np.allclose(m0.prevertices, m1.prevertices, atol=1e-11)

    def test_nonconvex_rejected_upstream(self):
        with pytest.raises(NonConvex):
            build_polygon([0, 2, 2 + 2j, 1 + 0.5j, 2j])
