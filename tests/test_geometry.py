import numpy as np
import pytest

from polydet.eigensolve import rectangle_spectrum
from polydet.errors import ClockwiseInput, DegenerateVertex, NonConvex, ValidationFailure
from polydet.geometry import (
    build_polygon,
    complexified_normal,
    eigenvalue_ratio_bound,
    field_from_vertex_velocities,
    move_polygon,
)
from conftest import (
    dilation_field,
    random_convex_polygon,
    rotation_field,
    side_shift_field,
    translation_field,
)


class TestBuildPolygon:
    def test_unit_square(self):
        p = build_polygon([0, 1, 1 + 1j, 1j])
        assert np.allclose(p.angles, np.pi / 2, atol=1e-14)
        assert p.area == pytest.approx(1.0, abs=1e-14)
        assert p.perimeter == pytest.approx(4.0, abs=1e-14)

    def test_right_isoceles_triangle(self):
        p = build_polygon([0, 1, 1j])
        assert p.angles[0] == pytest.approx(np.pi / 2, abs=1e-14)
        assert p.angles[1] == pytest.approx(np.pi / 4, abs=1e-14)
        assert p.angles[2] == pytest.approx(np.pi / 4, abs=1e-14)
        assert p.area == pytest.approx(0.5, abs=1e-14)

    def test_regular_hexagon(self):
        v = np.exp(1j * np.pi * (np.arange(6) / 3.0))
        p = build_polygon(v)
        assert np.allclose(p.angles, 2 * np.pi / 3, atol=1e-13)
        assert np.allclose(p.side_lengths, 1.0, atol=1e-13)
        assert p.area == pytest.approx(3 * np.sqrt(3) / 2, abs=1e-12)

    def test_angle_sum_invariant(self, rng):
        for _ in range(20):
            p = random_convex_polygon(rng)
            assert abs(sum(p.angles) - (p.n - 2) * np.pi) < 1e-12

    def test_area_perimeter_recompute(self, rng):
        for _ in range(10):
            p = random_convex_polygon(rng)
            v = p.vertex_array()
            x, y = v.real, v.imag
            shoelace = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
            assert abs(p.area - shoelace) < 1e-12 * abs(shoelace)
            assert abs(p.perimeter - np.abs(np.roll(v, -1) - v).sum()) < 1e-12 * p.perimeter

    def test_clockwise_rejected(self):
        with pytest.raises(ClockwiseInput):
            build_polygon([0, 1j, 1 + 1j, 1])

    def test_nonconvex_rejected(self):
        verts = [0, 2, 2 + 2j, 1 + 0.5j, 2j]
        with pytest.raises(NonConvex):
            build_polygon(verts)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateVertex):
            build_polygon([0, 1, 1, 1j])
        with pytest.raises(DegenerateVertex):
            build_polygon([0, 1, 2, 2j])  # collinear triple

    def test_boundary_that_winds_twice_rejected(self):
        # every angle lies in (0, pi) and the area is positive, but the turns
        # add up to 4 pi: the square listed twice and a pentagram
        with pytest.raises(DegenerateVertex, match="winds 2 times"):
            build_polygon([0, 1, 1 + 1j, 1j] * 2)
        with pytest.raises(DegenerateVertex, match="winds 2 times"):
            build_polygon(np.exp(2j * np.pi * 2 * np.arange(5) / 5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_vertex_rejected(self, bad):
        with pytest.raises(ValidationFailure, match="vertex 2 is not finite"):
            build_polygon([0, 1, bad, 1j])


class TestDeformationField:
    def test_rigid_translation(self, unit_square):
        f = translation_field(unit_square, 0.3 - 0.7j)
        assert np.allclose(f.delta_angles, 0, atol=1e-14)
        assert f.delta_area == pytest.approx(0, abs=1e-14)
        assert f.delta_perimeter == pytest.approx(0, abs=1e-14)

    def test_uniform_dilation(self, rng):
        for _ in range(5):
            p = random_convex_polygon(rng)
            f = dilation_field(p)
            assert np.allclose(f.delta_angles, 0, atol=1e-12)
            assert f.delta_area == pytest.approx(2 * p.area, rel=1e-12)
            assert f.delta_perimeter == pytest.approx(p.perimeter, rel=1e-12)

    def test_square_bottom_shift(self, unit_square):
        f = side_shift_field(unit_square, 0)
        assert f.delta_area == pytest.approx(1.0, abs=1e-13)
        # one (1+cos a)/sin a = 1 contribution at each pi/2 end
        assert f.delta_perimeter == pytest.approx(2.0, abs=1e-13)

    def test_endpoint_normal_components(self, rng):
        p = random_convex_polygon(rng)
        vel = rng.normal(size=p.n) + 1j * rng.normal(size=p.n)
        f = field_from_vertex_velocities(p, vel)
        for j, (c0, c1) in enumerate(f.side_normal_velocity):
            nu = p.side_normal(j)
            L = p.side_lengths[j]
            assert abs(c0 - (np.conj(nu) * vel[j]).real) < 1e-12
            assert abs(c0 + c1 * L - (np.conj(nu) * vel[(j + 1) % p.n]).real) < 1e-12

    def test_delta_angle_sum_zero(self, rng):
        for _ in range(20):
            p = random_convex_polygon(rng)
            vel = rng.normal(size=p.n) + 1j * rng.normal(size=p.n)
            f = field_from_vertex_velocities(p, vel)
            assert abs(sum(f.delta_angles)) < 1e-12

    def test_wrong_length_rejected(self, unit_square):
        with pytest.raises(ValidationFailure):
            field_from_vertex_velocities(unit_square, [0, 0, 0])

    @pytest.mark.parametrize("bad", [np.nan, complex(1, np.inf)])
    def test_non_finite_velocity_rejected(self, unit_square, bad):
        with pytest.raises(ValidationFailure, match="velocity 1 is not finite"):
            field_from_vertex_velocities(unit_square, [0, bad, 0, 0])


class TestVariations:
    def test_area_variation_square_shift(self, unit_square):
        f = side_shift_field(unit_square, 0)
        assert f.delta_area == pytest.approx(1.0, abs=1e-13)

    def test_area_variation_affine_integral(self, unit_square):
        # (A.nu)(s) = s on the bottom side only: integral L^2/2
        f0 = field_from_vertex_velocities(unit_square, [0, -1j, 0, 0])
        (c0, c1) = f0.side_normal_velocity[0]
        assert (c0, c1) == pytest.approx((0.0, 1.0))
        # restrict attention to the bottom side's contribution
        contrib = c0 * 1.0 + 0.5 * c1 * 1.0**2
        assert contrib == pytest.approx(0.5, abs=1e-14)

    def test_rigid_motion_zero(self, rng):
        for _ in range(5):
            p = random_convex_polygon(rng)
            for f in (translation_field(p), rotation_field(p)):
                assert f.delta_area == pytest.approx(0, abs=1e-12)
                assert f.delta_perimeter == pytest.approx(0, abs=1e-12)

    def test_perimeter_variation_square_shift(self, unit_square):
        f = side_shift_field(unit_square, 0)
        assert f.delta_perimeter == pytest.approx(2.0, abs=1e-13)

    def test_dilation_perimeter(self, rng):
        p = random_convex_polygon(rng)
        f = dilation_field(p)
        assert f.delta_perimeter == pytest.approx(p.perimeter, rel=1e-12)

    def test_area_variation_matches_finite_difference(self, rng):
        t = 1e-3
        for _ in range(8):
            p = random_convex_polygon(rng)
            vel = rng.normal(size=p.n) + 1j * rng.normal(size=p.n)
            f = field_from_vertex_velocities(p, vel)
            fd = (move_polygon(p, f, t).area - move_polygon(p, f, -t).area) / (2 * t)
            assert f.delta_area == pytest.approx(fd, abs=1e-5)

    def test_delta_angles_match_finite_difference(self, rng):
        t = 1e-4
        for _ in range(8):
            p = random_convex_polygon(rng)
            vel = rng.normal(size=p.n) + 1j * rng.normal(size=p.n)
            f = field_from_vertex_velocities(p, vel)
            ap = np.asarray(move_polygon(p, f, t).angles)
            am = np.asarray(move_polygon(p, f, -t).angles)
            fd = (ap - am) / (2 * t)
            assert np.allclose(f.delta_angles, fd, atol=1e-6)

    def test_perimeter_variation_matches_finite_difference(self, rng):
        t = 1e-4
        p = random_convex_polygon(rng)
        vel = rng.normal(size=p.n) + 1j * rng.normal(size=p.n)
        f = field_from_vertex_velocities(p, vel)
        fd = (move_polygon(p, f, t).perimeter - move_polygon(p, f, -t).perimeter) / (2 * t)
        assert f.delta_perimeter == pytest.approx(fd, abs=1e-6)


class TestEigenvalueRatioBound:
    @pytest.mark.parametrize("a, a2", [(1.3, 1.298), (1.298, 1.3), (1.0, 1.001), (2.0, 1.0)])
    def test_stretch_is_the_affine_bound(self, a, a2):
        # one affine map diag(a2 / a, 1) on every fan triangle: U = 1 / s2^2
        u = eigenvalue_ratio_bound(build_polygon([0, a, a + 1j, 1j]),
                                   build_polygon([0, a2, a2 + 1j, 1j]))
        assert u == pytest.approx(max(1.0, (a / a2) ** 2), rel=1e-14)

    @pytest.mark.parametrize("t", [4e-3, -2e-3, 0.25])
    def test_dilation_is_exact(self, unit_square, t):
        q = move_polygon(unit_square, dilation_field(unit_square), t)
        u = eigenvalue_ratio_bound(unit_square, q)
        lam_max = 600.0
        got = u * rectangle_spectrum(1, 1, lam_max).eigenvalue_array()
        exact = rectangle_spectrum(1 + t, 1 + t, lam_max / (1 + t) ** 2).eigenvalue_array()
        assert len(got) == len(exact)
        assert np.allclose(got, exact, rtol=1e-14, atol=0)

    def test_there_and_back_is_at_least_one(self, rng):
        # lambda_1(q) <= U(p, q) lambda_1(p) <= U(p, q) U(q, p) lambda_1(q)
        for _ in range(20):
            p = random_convex_polygon(rng)
            vel = rng.normal(size=p.n) + 1j * rng.normal(size=p.n)
            q = move_polygon(p, field_from_vertex_velocities(p, vel), 0.02)
            assert eigenvalue_ratio_bound(p, q) * eigenvalue_ratio_bound(q, p) >= 1.0


class TestComplexifiedNormal:
    def test_axis_aligned_square(self, unit_square):
        assert complexified_normal(unit_square, 0, 0.5) == pytest.approx(-1j)
        assert complexified_normal(unit_square, 3, 0.5) == pytest.approx(-1.0)

    def test_orthogonal_to_tangent(self, rng):
        p = random_convex_polygon(rng)
        for j in range(p.n):
            nu = complexified_normal(p, j, 0.0)
            tau = p.side_tangent(j)
            assert abs(nu) == pytest.approx(1.0, abs=1e-14)
            assert (np.conj(nu) * tau).real == pytest.approx(0, abs=1e-14)

    def test_outward_direction(self, rng):
        p = random_convex_polygon(rng)
        centroid = p.vertex_array().mean()
        for j in range(p.n):
            mid = 0.5 * (p.vertices[j] + p.vertices[(j + 1) % p.n])
            nu = complexified_normal(p, j, 0.5 * p.side_lengths[j])
            assert (np.conj(nu) * (mid - centroid)).real > 0

    def test_range_validated(self, unit_square):
        with pytest.raises(ValidationFailure):
            complexified_normal(unit_square, 0, 2.0)
