import dataclasses
import functools
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import jv, jvp

from polydet import eigensolve
from polydet.errors import DegenerateEigenvalue, MissedEigenvalue, ValidationFailure
from polydet.eigensolve import (
    MPSSolver,
    checked_spectrum,
    dirichlet_eigenvalues,
    hadamard_eigenvalue_variation,
    heat_reading,
    polygon_hash,
    rectangle_spectrum,
    weyl_count_check,
)
from polydet.geometry import build_polygon, field_from_vertex_velocities, move_polygon
from conftest import CRIT7_TRIANGLE, dilation_field, side_shift_field


@pytest.fixture(scope="module")
def square_spec(unit_square):
    return dirichlet_eigenvalues(unit_square, 450.0)


class TestRectangleSpectrum:
    def test_first_three_unit_square(self):
        s = rectangle_spectrum(1, 1, 50.0 * np.pi**2 / 9)
        eigs = s.eigenvalue_array()
        assert eigs[0] == pytest.approx(2 * np.pi**2, rel=1e-14)
        assert eigs[1] == pytest.approx(5 * np.pi**2, rel=1e-14)
        assert eigs[2] == pytest.approx(5 * np.pi**2, rel=1e-14)

    def test_rect21_lambda1(self):
        s = rectangle_spectrum(2, 1, 50.0)
        assert s.eigenvalues[0] == pytest.approx(5 * np.pi**2 / 4, rel=1e-14)

    def test_counting_matches_lattice(self):
        lam_max = 300.0
        s = rectangle_spectrum(1.3, 0.8, lam_max)
        count = sum(1 for m in range(1, 40) for n in range(1, 40)
                    if (np.pi * m / 1.3) ** 2 + (np.pi * n / 0.8) ** 2 <= lam_max)
        assert len(s.eigenvalues) == count

    def test_weyl_check_passes(self):
        s = rectangle_spectrum(1, 1, 800.0)
        assert s.count_check["ok"]

    def test_invalid_input(self):
        with pytest.raises(ValidationFailure):
            rectangle_spectrum(-1, 1, 10)


class TestMPS:
    def test_square_first_30_vs_exact(self, square_spec):
        exact = rectangle_spectrum(1, 1, 450.0).eigenvalue_array()
        got = square_spec.eigenvalue_array()
        assert len(got) == len(exact)
        k = min(30, len(got))
        assert np.max(np.abs(got[:k] - exact[:k]) / exact[:k]) < 1e-8

    def test_lambda1_value(self, square_spec):
        assert square_spec.eigenvalues[0] == pytest.approx(19.7392088021787, abs=1e-8)

    def test_error_estimates_cover_truth(self, square_spec):
        exact = rectangle_spectrum(1, 1, 450.0).eigenvalue_array()
        got = square_spec.eigenvalue_array()
        errs = np.asarray(square_spec.errors)
        # estimates are heuristic; require them within two orders of the truth
        assert np.all(np.abs(got - exact) < np.maximum(100 * errs, 1e-7))

    def test_equilateral_lambda1(self):
        tri = build_polygon([0, 1, 0.5 + 1j * np.sqrt(3) / 2])
        spec = dirichlet_eigenvalues(tri, 80.0)
        assert spec.eigenvalues[0] == pytest.approx(16 * np.pi**2 / 3, rel=1e-10)

    def test_rigid_motion_invariance(self):
        p1 = build_polygon([0, 1, 1 + 1j, 1j])
        rot = np.exp(0.37j)
        p2 = build_polygon([rot * v + (0.4 - 0.2j) for v in p1.vertices])
        s1 = dirichlet_eigenvalues(p1, 120.0).eigenvalue_array()
        s2 = dirichlet_eigenvalues(p2, 120.0).eigenvalue_array()
        assert len(s1) == len(s2)
        assert np.max(np.abs(s1 - s2) / s1) < 1e-10

    def test_polygon_hash_stable(self, unit_square):
        assert polygon_hash(unit_square) == polygon_hash(build_polygon([0, 1, 1 + 1j, 1j]))


class TestBesselTable:
    """The gathered Clenshaw evaluation of the piecewise-Chebyshev tables
    against scipy's jv: every panel, its edges and u = 0, for the integer
    orders of the square and the fractional orders of a generic triangle."""

    @pytest.mark.parametrize("verts, lam_max, integer", [
        ([0, 1, 1 + 1j, 1j], 350.0, True),
        (CRIT7_TRIANGLE, 1100.0, False),
    ])
    def test_matches_jv_on_every_panel(self, verts, lam_max, integer):
        solver = MPSSolver(build_polygon(verts), lam_max)
        for table in solver.basis.tables:
            assert np.allclose(table.nus, np.round(table.nus), rtol=0, atol=1e-12) == integer
            e = table.edges
            u = (e[:-1, None] + np.diff(e)[:, None] * np.linspace(0, 1, 9)[None, :]).ravel()
            u = np.concatenate([[0.0, 1e-3], u])
            got = table.evaluate(u)
            assert np.all(got[0] == 0.0)
            assert np.max(np.abs(got - jv(table.nus[None, :], u[:, None]))) < 1e-13

    @pytest.mark.parametrize("verts, lam_max", [
        ([0, 1, 1 + 1j, 1j], 350.0),
        (CRIT7_TRIANGLE, 1100.0),
    ])
    def test_derivative_matches_jvp_on_every_panel(self, verts, lam_max):
        solver = MPSSolver(build_polygon(verts), lam_max)
        for table in solver.basis.tables:
            e = table.edges
            u = (e[:-1, None] + np.diff(e)[:, None] * np.linspace(0, 1, 9)[None, :]).ravel()
            u = np.concatenate([[1e-3], u])
            J, dJ = table.evaluate(u, derivative=True)
            assert np.array_equal(J, table.evaluate(u))
            assert np.max(np.abs(dJ - jvp(table.nus[None, :], u[:, None]))) < 1e-11

    def test_cached_sines_equal_uncached_matrix(self, crit7_triangle):
        solver = MPSSolver(crit7_triangle, 600.0)
        for lam in (40.0, 321.5, 600.0):
            cached = solver.basis.matrix(lam, solver.pts, local=solver._local_pts,
                                         sines=solver._sines)
            plain = solver.basis.matrix(lam, solver.pts)
            assert np.max(np.abs(cached - plain)) <= 1e-15


class TestBatchedAssembly:
    """Basis matrices assembled for several lambdas by one table evaluation
    per corner, and the gradient taken from the same tables."""

    @pytest.fixture(scope="class")
    def solver(self, crit7_triangle):
        return MPSSolver(crit7_triangle, 600.0)

    @pytest.mark.parametrize("n", [3, 8, 26])
    def test_batched_equals_one_at_a_time(self, solver, n):
        lams = np.linspace(solver._lam_lo, 600.0, n)
        block = solver.basis.matrices(lams, solver._local_pts, solver._sines)
        assert block.shape == (n, len(solver.pts), sum(solver.orders))
        for lam, A in zip(lams, block):
            single = solver.basis.matrix(lam, solver.pts, local=solver._local_pts,
                                         sines=solver._sines)
            assert np.max(np.abs(A - single)) <= 1e-15

    def test_gradient_is_the_derivative_of_the_matrix(self, solver, monkeypatch):
        def no_direct_bessel(*args):
            raise AssertionError("gradient called scipy's Bessel functions")

        monkeypatch.setattr(eigensolve, "jv", no_direct_bessel)
        # interior points, some of them on the tables' first panels; a step
        # off a boundary point can cross the angular cut of a corner
        v = solver.basis.vertices
        near = (v[:, None] + (v.mean() - v)[:, None] * np.array([1e-3, 0.02])).ravel()
        lam, h = 450.0, 1e-6
        pts = np.concatenate([solver.ipts[::5], near])
        gx, gy = solver.basis.gradient(lam, pts)
        for g, step in ((gx, h), (gy, 1j * h)):
            fd = (solver.basis.matrix(lam, pts + step)
                  - solver.basis.matrix(lam, pts - step)) / (2 * h)
            assert np.max(np.abs(fd - g)) <= 1e-7 * np.max(np.abs(g))


def test_scans_assemble_within_the_entry_budget(monkeypatch):
    # every batched scan stays within the entry budget, and its sigma
    # evaluations count under the stage that made the scan
    blocks, stages = [], []
    matrices, sigmas_at = eigensolve._CornerBasis.matrices, MPSSolver._sigmas_at

    def spy_matrices(self, lams, local, sines):
        out = matrices(self, lams, local, sines)
        blocks.append(out.shape)
        return out

    def spy_sigmas_at(self, lams):
        before = dict(self.sigma_evals)
        out = sigmas_at(self, lams)
        moved = {k: self.sigma_evals[k] - before[k] for k in before}
        assert moved == {k: len(lams) if k == self._stage else 0 for k in before}
        stages.append(self._stage)
        return out

    monkeypatch.setattr(eigensolve._CornerBasis, "matrices", spy_matrices)
    monkeypatch.setattr(MPSSolver, "_sigmas_at", spy_sigmas_at)
    solver = MPSSolver(_moved_triangle(), 1100.0)
    spec = solver.solve()
    grid = np.arange(solver._lam_lo, 1100.0 + solver.step, solver.step)
    assert spec.meta["sigma_evals"]["grid"] == len(grid)
    assert {"grid", "siblings", "audit"} <= set(stages)
    assert max(n * m * k for n, m, k in blocks) <= eigensolve._BLOCK_ENTRIES
    assert max(n for n, _, _ in blocks) > 1


def _moved_triangle():
    """The criterion-7 triangle with its apex moved along (0, 0, 1) by -2e-3."""
    tri = build_polygon(CRIT7_TRIANGLE)
    return move_polygon(tri, field_from_vertex_velocities(tri, [0, 0, 1]), -2e-3)


class TestScanGrade:
    """Scans take sigma from the Gram eigenvalues of Q_B, everything that
    needs it near its noise floor from the SVD."""

    @pytest.mark.parametrize("shape, lam_max", [("square", 350.0), ("triangle", 1100.0)])
    def test_gram_eigenvalues_agree_with_the_svd(self, shape, lam_max):
        p = build_polygon([0, 1, 1 + 1j, 1j]) if shape == "square" else _moved_triangle()
        solver = MPSSolver(p, lam_max)
        for lam in np.linspace(solver._lam_lo, lam_max, 40):
            scan = solver.sigmas(lam, count=4, scan=True)
            full = solver.sigmas(lam, count=4)
            assert scan.shape == full.shape == (4,)
            assert np.max(np.abs(scan**2 - full**2)) <= 1e-14

    def test_scans_use_the_gram_and_refinements_the_svd(self, monkeypatch):
        solver = MPSSolver(build_polygon([0, 1, 1 + 1j, 1j]), 350.0)
        calls = []              # (routine, stage, made by _sigmas_at)
        scanning = [False]
        real_la, sigmas_at = eigensolve.la, MPSSolver._sigmas_at

        class CountingLinalg:
            def __getattr__(self, name):
                fn = getattr(real_la, name)
                if name not in ("svd", "eigvalsh"):
                    return fn

                def counted(*args, **kwargs):
                    calls.append((name, solver._stage, scanning[0]))
                    return fn(*args, **kwargs)
                return counted

        def flagged_sigmas_at(self, lams):
            scanning[0] = True
            try:
                return sigmas_at(self, lams)
            finally:
                scanning[0] = False

        monkeypatch.setattr(eigensolve, "la", CountingLinalg())
        monkeypatch.setattr(MPSSolver, "_sigmas_at", flagged_sigmas_at)
        spec = solver.solve()
        assert len(spec.eigenvalues) == 22
        assert len(calls) == sum(spec.meta["sigma_evals"].values())
        refine = [name for name, stage, _ in calls if stage == "refine"]
        scans = [name for name, _, scan in calls if scan]
        assert len(refine) == spec.meta["sigma_evals"]["refine"] > 0
        assert set(refine) == {"svd"}
        assert len(scans) >= spec.meta["sigma_evals"]["grid"] > 0
        assert set(scans) == {"eigvalsh"}


def test_no_sweep_below_the_faber_krahn_bound(unit_square):
    # lambda_1 of the unit square is 2 pi^2 ~ 19.74, above pi j_01^2 ~ 18.17;
    # at lambda_max 10 the sweep's grid would be empty
    for lam_max in (10.0, 15.0):
        spec = dirichlet_eigenvalues(unit_square, lam_max)
        assert spec.eigenvalues == ()
        assert spec.count_check["ok"]
        assert sum(spec.meta["sigma_evals"].values()) == 0


def test_stage_wall_times_add_up_to_the_solve():
    t0 = time.perf_counter()
    spec = dirichlet_eigenvalues(build_polygon([0, 1, 1 + 1j, 1j]), 350.0)
    wall = time.perf_counter() - t0
    stage_s = spec.meta["stage_s"]
    assert tuple(stage_s) == eigensolve._STAGES
    assert all(v >= 0 for v in stage_s.values())
    assert 0 < sum(stage_s.values()) <= wall


@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(x=st.floats(0.15, 0.85), y=st.floats(0.45, 1.0), c=st.floats(0.5, 2.0))
def test_scaling_law(x, y, c):
    # lambda_k(cP) = lambda_k(P) / c^2, with the cutoff scaled alike
    p = build_polygon([0, 1, complex(x, y)])
    lam_max = 150.0 / p.area
    small = dirichlet_eigenvalues(p, lam_max).eigenvalue_array()
    scaled = dirichlet_eigenvalues(build_polygon([0, c, c * complex(x, y)]),
                                   lam_max / c**2).eigenvalue_array()
    assert len(scaled) == len(small) >= 5
    assert np.max(np.abs(scaled * c**2 - small) / small) < 1e-9


class TestCloseEigenvalues:
    """The triangle (0, 1, 0.3+0.8i) moved along (0, 0, 1) by t = -2e-3 has
    the pair 625.3744/626.0076, closer than the sweep's grid step (10.47);
    both lie in one grid interval whose ends are not grid minima."""

    @pytest.fixture(scope="class")
    def moved(self):
        return _moved_triangle()

    @pytest.fixture(scope="class")
    def spec(self, moved):
        return dirichlet_eigenvalues(moved, 1100.0)

    def test_sweep_finds_both_members_of_the_pair(self, spec):
        eigs = spec.eigenvalue_array()
        assert len(eigs) == 27          # as many as the t = +2e-3 twin
        pair = eigs[(eigs >= 625) & (eigs <= 626.5)]
        assert len(pair) == 2
        assert pair[1] - pair[0] == pytest.approx(0.6332, abs=1e-3)

    def test_sibling_pass_admits_the_member_the_grid_missed(self, moved, spec):
        # the grid locates 625.3744 but not its sibling, which no scan can
        # separate from it; the sibling pass probes 625.3744 and admits the
        # sweep's own second member
        eigs = spec.eigenvalue_array()
        sibling = eigs[(eigs > 625.7) & (eigs < 626.5)][0]
        solver = MPSSolver(moved, 1100.0)
        grid = np.arange(solver._lam_lo, 1100.0 + solver.step, solver.step)
        solver._scan(grid, solver._sigma_batch(grid))
        assert [(r.lam, r.mult) for r in solver.located if 625 <= r.lam <= 626.5] == [
            (pytest.approx(625.3744, abs=1e-4), 1)]
        solver._find_siblings()
        pair = [r for r in solver.located if 625 <= r.lam <= 626.5]
        assert [r.mult for r in pair] == [1, 1] and all(r.probed for r in pair)
        assert pair[1].lam == pytest.approx(sibling, rel=1e-8)


def test_a_sibling_that_may_shadow_a_third_eigenvalue_is_probed():
    # on the house pentagon below 420 the sibling pass probes 389.1484 and
    # admits one member of the pair 391.4876/391.5464, which shadows the
    # other; marked probed as a sibling, it was never probed itself, and the
    # sweep returned 31 eigenvalues
    house = build_polygon([0, 1, 1 + 1j, 0.5 + 1.3j, 1j])
    solver = MPSSolver(house, 420.0)
    spec = solver.solve()
    assert len(spec.eigenvalues) == 32
    eigs = spec.eigenvalue_array()
    cluster = eigs[(eigs > 385) & (eigs < 395)]
    np.testing.assert_allclose(cluster, [389.1484, 391.4876, 391.5464], atol=1e-4)
    assert all(r.probed for r in solver.located if 391 < r.lam < 392)


def test_cover_leaves_the_audit_nothing_to_admit():
    # the cover scans a low grid interval with the grid samples on either
    # side and the located V-shapes divided out, so it finds 1131.8977 on
    # the moved criterion-7 triangle; the audit used to, and then ran twice.
    # Each located eigenvalue records the stage that admitted it, and
    # meta["admitted"] counts the copies per stage
    solver = MPSSolver(_moved_triangle(), 1500.0)
    spec = solver.solve()
    assert len(spec.eigenvalues) == 40
    assert spec.meta["admitted"]["audit"] == 0
    assert sum(spec.meta["admitted"].values()) == 40
    assert [r.stage for r in solver.located if abs(r.lam - 1131.8977) < 1e-4] == ["cover"]


class TestAdmit:
    """MPSSolver._admit, the one writer of MPSSolver.located, on the unit
    square below 60: 2 pi^2 and the double 5 pi^2."""

    @staticmethod
    def _dip(lam, err):
        # a simple dip: (lambda, error, V slope, the four smallest singular values)
        return lam, err, 3.0, np.array([1e-9, 0.5, 0.6, 0.7])

    def test_a_dip_near_a_record_is_not_admitted(self, unit_square):
        solver = MPSSolver(unit_square, 60.0)
        assert solver._admit(self._dip(20.0, 1e-5)) == 1
        before = [dataclasses.astuple(r) for r in solver.located]
        # within 1e-6 lam, within 20 times the record's error, and within 20
        # times the dip's own error
        for lam, err in ((20.0 + 1.9e-5, 1e-12), (20.0 - 1.9e-4, 1e-12),
                         (20.0 + 1.9e-3, 1e-4)):
            assert solver._admit(self._dip(lam, err)) == 0
            assert [dataclasses.astuple(r) for r in solver.located] == before
        assert solver._admit(self._dip(20.0 + 2.1e-3, 1e-4)) == 1
        assert [r.lam for r in solver.located] == [20.0, 20.0 + 2.1e-3]

    def test_a_double_is_one_record_listed_twice(self, unit_square):
        solver = MPSSolver(unit_square, 60.0)
        spec = solver.solve()
        assert [(r.lam, r.mult) for r in solver.located] == [
            (pytest.approx(2 * np.pi**2, rel=1e-12), 1),
            (pytest.approx(5 * np.pi**2, rel=1e-12), 2)]
        double = solver.located[1]
        assert spec.eigenvalues[1:] == (double.lam, double.lam)
        assert spec.errors[1:] == (double.err, double.err)


class _SyntheticSigma(MPSSolver):
    """An MPSSolver whose smallest singular value is the given curve of
    lambda (the next three stay far from zero), for testing the refiner."""

    def __init__(self, curve):
        self._stage = "grid"
        self.stage_s = dict.fromkeys(eigensolve._STAGES, 0.0)
        self._claimed = 0.0
        self.curve = curve
        self.evals = []
        self.golden_at = []     # evaluations made before each bracket step

    def sigmas(self, lam, count=2):
        self.evals.append(lam)
        return np.array([self.curve(lam), 0.5, 0.6, 0.7])[:count]

    def _refine_golden(self, a, b, c):
        self.golden_at.append(len(self.evals))
        return super()._refine_golden(a, b, c)

    def refine(self, a, b, c):
        return self._refine_checked(a, b, c, *(self.curve(x) for x in (a, b, c)))


class TestRefiner:
    """_refine_checked on synthetic sigma curves about LAM, bracketed like a
    grid triple (best sample in the middle) unless stated otherwise."""

    LAM = 123.456789

    def test_hyperbola_converges_in_few_evaluations(self):
        s = _SyntheticSigma(lambda x: np.hypot(0.03 * (x - self.LAM), 1e-8))
        lam, err, slope, sig = s.refine(self.LAM - 3.1, self.LAM + 0.7, self.LAM + 4.2)
        assert abs(lam - self.LAM) <= 1e-11 * self.LAM
        assert len(s.evals) <= 8
        assert slope == pytest.approx(0.03, rel=1e-6)
        assert sig[0] < 1e-7
        assert err == pytest.approx(1e-8 / 0.03, rel=1e-6)   # sigma_min / s

    def test_v_without_a_dip_returns_none(self):
        s = _SyntheticSigma(lambda x: np.hypot(0.03 * (x - self.LAM), 0.1))
        assert s.refine(self.LAM - 3.1, self.LAM + 0.7, self.LAM + 4.2) is None
        assert len(s.evals) <= 5

    @pytest.mark.parametrize("left, right", [(0.01, 0.04), (0.04, 0.01)])
    def test_asymmetric_valley_converges(self, left, right):
        def curve(x):
            return np.hypot(np.where(x < self.LAM, left, right) * (x - self.LAM), 1e-8)

        lam, err, _, _ = _SyntheticSigma(curve).refine(
            self.LAM - 3.1, self.LAM + 0.7, self.LAM + 4.2)
        assert abs(lam - self.LAM) <= min(err, 1e-8 * self.LAM)

    def test_best_sample_at_an_end_takes_the_bracket_step(self):
        s = _SyntheticSigma(lambda x: np.hypot(0.03 * (x - self.LAM), 1e-8))
        a, b, c = self.LAM - 0.2, self.LAM + 2.0, self.LAM + 4.0
        assert s.curve(a) < s.curve(b) < s.curve(c)
        lam = s.refine(a, b, c)[0]
        assert s.golden_at[0] == 0
        assert abs(lam - self.LAM) <= 1e-11 * self.LAM


def test_square_sweep_evaluation_budget():
    # sigma evaluations per stage; the sweep made 1226 before sigma^2 was
    # refined as a parabola, and 435 before the cover scanned only above the
    # heat-trace certificate; it makes 260, and 10 % more is allowed
    spec = dirichlet_eigenvalues(build_polygon([0, 1, 1 + 1j, 1j]), 350.0)
    counts = spec.meta["sigma_evals"]
    assert set(counts) == {"grid", "refine", "cover", "siblings", "audit", "rescan"}
    assert sum(counts.values()) <= 286
    exact = np.sort([np.pi**2 * (m * m + n * n) for m in range(1, 7) for n in range(1, 7)
                     if np.pi**2 * (m * m + n * n) < 350.0])
    got = spec.eigenvalue_array()
    assert len(exact) == len(got) == 22
    assert np.max(np.abs(got - exact) / exact) < 1e-10


def test_right_isosceles_closed_form():
    # pi^2 (m^2 + n^2), m > n >= 1; 17 lie below 600 and the next is 602.05
    exact = np.sort([np.pi**2 * (m * m + n * n) for m in range(2, 9) for n in range(1, m)
                     if np.pi**2 * (m * m + n * n) < 600.0])
    got = dirichlet_eigenvalues(build_polygon([0, 1, 1j]), 600.0).eigenvalue_array()
    assert len(exact) == 17
    assert len(got) == 17
    assert np.max(np.abs(got - exact) / exact) < 1e-8


class TestNormalization:
    def test_l2_norm_against_interior_quadrature(self, unit_square):
        # Rellich-based norm vs direct interior quadrature of u^2 for the
        # square's ground state
        solver = MPSSolver(unit_square, 60.0)
        spec = solver.solve()
        lam = spec.eigenvalues[0]
        C = solver.eigenfunction(lam)
        # the Rellich norm sum_j h_j m0_j / (2 lam): every side of the unit
        # square has support number h_j = 1/2 about its centre
        m = solver.normal_derivative_moments(lam, C[:, 0])
        norm_rellich = 0.5 * m[:, 0].sum() / (2 * lam)

        from polydet.quadrature import leggauss
        x, w = leggauss(40)
        xs = 0.5 * (1 + x)
        ws = 0.5 * w
        X, Y = np.meshgrid(xs, xs)
        pts = (X + 1j * Y).ravel()
        vals = (solver.basis.matrix(lam, pts) @ C)[:, 0]
        norm_grid = float(np.sum((ws[:, None] * ws[None, :]).ravel() * vals**2))
        assert norm_rellich == pytest.approx(norm_grid, rel=1e-8)


class TestHadamardVariation:
    def test_square_stretch(self, unit_square):
        f = field_from_vertex_velocities(unit_square, [0, 1, 1, 0])
        dl = hadamard_eigenvalue_variation(unit_square, f, 1)
        assert dl == pytest.approx(-2 * np.pi**2, rel=1e-6)

    def test_dilation(self, unit_square):
        f = dilation_field(unit_square)
        dl = hadamard_eigenvalue_variation(unit_square, f, 1)
        assert dl == pytest.approx(-4 * np.pi**2, rel=1e-6)

    def test_rectangle_family_exact_derivative(self):
        # a x 1 family: d lambda_1 / da = -2 pi^2 / a^3 at a = 1.2
        a = 1.2
        p = build_polygon([0, a, a + 1j, 1j])
        f = field_from_vertex_velocities(p, [0, 1, 1, 0])
        dl = hadamard_eigenvalue_variation(p, f, 1)
        assert dl == pytest.approx(-2 * np.pi**2 / a**3, rel=1e-6)

    def test_side_rotation_matches_finite_difference(self, unit_square):
        # tilt the right side about its midpoint
        p = unit_square
        f = field_from_vertex_velocities(p, [0, -0.5, 0.5, 0])
        dl = hadamard_eigenvalue_variation(p, f, 1)
        t = 1e-4
        lp = dirichlet_eigenvalues(move_polygon(p, f, t), 30.0).eigenvalues[0]
        lm = dirichlet_eigenvalues(move_polygon(p, f, -t), 30.0).eigenvalues[0]
        fd = (lp - lm) / (2 * t)
        assert dl == pytest.approx(fd, rel=1e-4, abs=1e-4)

    @pytest.mark.parametrize("motion, factor", [
        ("translation", 0.0), ("rotation", 0.0), ("dilation", -2.0)])
    def test_rigid_motions_and_dilation(self, motion, factor):
        # lambda_1 is invariant under translation and rotation and scales as
        # (1 + t)^-2 under x -> (1 + t) x.  The rotation moves every side
        # with c1 = -1, so it checks the moment m1 as well as m0
        p = build_polygon([0, 1.1, 0.9 + 0.8j, 0.1 + 0.9j])
        v = np.asarray(p.vertices)
        f = field_from_vertex_velocities(
            p, {"translation": [0.6 - 0.3j] * p.n, "rotation": 1j * v, "dilation": v}[motion])
        lam1 = dirichlet_eigenvalues(p, 60.0).eigenvalues[0]
        dl = hadamard_eigenvalue_variation(p, f, 1)
        assert abs(dl - factor * lam1) <= 1e-7 * lam1

    def test_one_gradient_pass_per_side(self, unit_square, monkeypatch):
        # the Rellich norm and the field integral share the side gradients
        calls = []
        gradient = eigensolve._CornerBasis.gradient

        def spy(self, lam, pts):
            calls.append(lam)
            return gradient(self, lam, pts)

        monkeypatch.setattr(eigensolve._CornerBasis, "gradient", spy)
        f = field_from_vertex_velocities(unit_square, [0, 1, 1, 0])
        assert hadamard_eigenvalue_variation(unit_square, f, 1) == pytest.approx(
            -2 * np.pi**2, rel=1e-6)
        assert len(calls) == unit_square.n

    @pytest.mark.parametrize("factor, j, held", [(0.1, 1, 0), (0.3, 2, 1), (0.2, 1, 1)])
    def test_too_short_a_sweep_is_a_missed_eigenvalue(self, unit_square, monkeypatch,
                                                      factor, j, held):
        # the sweep and its 1.6x re-sweep hold fewer than j + 1 eigenvalues,
        # so lambda_j or the simplicity check's lambda_{j+1} is missing
        w3 = factor * eigensolve._weyl_kth(unit_square, 3)
        lam_max = 1.6 * 1.25 * w3           # the re-sweep's cutoff
        assert len(rectangle_spectrum(1, 1, lam_max).eigenvalues) == held
        monkeypatch.setattr(eigensolve, "_weyl_kth", lambda p, k: w3)
        f = field_from_vertex_velocities(unit_square, [0, 1, 1, 0])
        with pytest.raises(MissedEigenvalue,
                           match=rf"polygon \[0j, \(1\+0j\), \(1\+1j\), 1j\]: {held} "
                                 rf"eigenvalue\(s\) below lambda_max {lam_max:.6g}, "
                                 rf"but lambda_{j} and lambda_{j + 1} are needed"):
            hadamard_eigenvalue_variation(unit_square, f, j)

    @pytest.mark.parametrize("j", [0, -1, 1.5])
    def test_an_index_that_is_not_a_positive_integer_is_refused(self, unit_square,
                                                                 monkeypatch, j):
        # refused before any sweep: j = 0 used to sweep and then report
        # lambda_0 as degenerate, and j = -1 to end in an IndexError
        def no_sweep(*args):
            raise AssertionError("MPSSolver was built")

        monkeypatch.setattr(eigensolve, "MPSSolver", no_sweep)
        with pytest.raises(ValidationFailure, match=rf"j = {j} is not an integer >= 1"):
            hadamard_eigenvalue_variation(unit_square, dilation_field(unit_square), j)

    def test_degenerate_rejected(self, unit_square):
        f = dilation_field(unit_square)
        with pytest.raises(DegenerateEigenvalue):
            hadamard_eigenvalue_variation(unit_square, f, 2)  # 5 pi^2 is double


@pytest.mark.parametrize("eigs, errs", [
    ([-1.0, 20.0], [0.0, 0.0]), ([0.0, 20.0], [0.0, 0.0]), ([np.nan, 20.0], [0.0, 0.0]),
    ([20.0, np.inf], [0.0, 0.0]), ([20.0, 50.0], [0.0, -1e-12]), ([20.0, 50.0], [np.nan, 0.0])])
def test_checked_spectrum_refuses_a_bad_eigenvalue_or_error(unit_square, eigs, errs):
    # the Weyl term takes sqrt(max(lam, 0)), so the count check alone lets
    # a non-positive eigenvalue through
    with pytest.raises(ValidationFailure, match="finite and > 0, errors finite and >= 0"):
        checked_spectrum(unit_square, eigs, errs, 60.0, {})


class TestWeylCheck:
    def test_thinned_spectrum_flagged(self, unit_square):
        full = rectangle_spectrum(1, 1, 800.0).eigenvalue_array()
        thinned = np.delete(full, np.arange(3, len(full), 4))
        check = weyl_count_check(unit_square, thinned, 800.0)
        assert not check["ok"]

    def test_full_spectrum_ok(self, unit_square):
        full = rectangle_spectrum(1, 1, 800.0).eigenvalue_array()
        check = weyl_count_check(unit_square, full, 800.0)
        assert check["ok"] and check["k"] is None

    def test_band_exit_index(self, unit_square):
        # without the 7 eigenvalues in (100, 200) N stays 6 from 10 pi^2 on;
        # at 25 pi^2 - 0 it is 8.88 below W + b1 = 14.88, first out of the
        # band +-6 and worst, so the first eigenvalue lacking is lambda_7
        exact = rectangle_spectrum(1, 1, 300.0).eigenvalue_array()
        held = exact[(exact < 100) | (exact > 200)]
        assert len(exact) - len(held) == 7
        check = weyl_count_check(unit_square, held, 300.0)
        assert not check["ok"]
        assert check["k"] == 7
        assert check["worst_lambda"] == held[6] == pytest.approx(25 * np.pi**2)
        assert check["max_abs_dev"] == pytest.approx(8.88, abs=5e-3)

    def test_rescan_restores_removed_eigenvalues(self, unit_square):
        # a simple eigenvalue (8 pi^2) and both members of the pair at
        # 10 pi^2 are removed from a full sweep below 450
        exact = rectangle_spectrum(1, 1, 450.0).eigenvalue_array()
        solver = MPSSolver(unit_square, 450.0)
        solver.solve()
        removed = [r for r in solver.located
                   if np.isclose(r.lam, 8 * np.pi**2) or np.isclose(r.lam, 10 * np.pi**2)]
        assert [r.mult for r in removed] == [1, 2]
        solver.located = [r for r in solver.located if r not in removed]
        grid = np.arange(solver._lam_lo, 450.0 + solver.step, solver.step)
        solver._rescan(grid)
        eigs = np.sort(solver._copies())
        assert len(eigs) == len(exact)
        assert np.max(np.abs(eigs - exact) / exact) < 1e-8

    def test_unrestorable_miss_names_polygon_k_and_stage(self, unit_square, monkeypatch):
        # the sweep cannot admit the 7 eigenvalues in (100, 200), so its
        # count leaves the band as in test_band_exit_index; the first rescan
        # admits nothing, and a second would repeat it exactly
        admit, rescan, rescans = MPSSolver._admit, MPSSolver._rescan, []

        def blind(self, found):
            return 0 if found is not None and 100 < found[0] < 200 else admit(self, found)

        def counted(self, grid):
            rescans.append(grid)
            return rescan(self, grid)

        monkeypatch.setattr(MPSSolver, "_admit", blind)
        monkeypatch.setattr(MPSSolver, "_rescan", counted)
        with pytest.raises(MissedEigenvalue) as err:
            dirichlet_eigenvalues(unit_square, 300.0)
        assert len(rescans) == 1
        msg = str(err.value)
        assert msg.startswith("polygon [0j, (1+0j), (1+1j), 1j]: ")
        assert "Weyl count deviates by 8.88 (band 6.0)" in msg
        assert f"at lambda {25 * np.pi**2:.6f};" in msg
        assert "it leaves the band at eigenvalue 7," in msg
        assert f"predicted lambda_7 {eigensolve._weyl_kth(unit_square, 7):.6f};" in msg
        assert msg.endswith("stage rescan gave up when rescan 1 admitted nothing")


def _exact_spectra():
    """(polygon, eigenvalues, lambda_max) of closed-form spectra: three
    rectangles and the equilateral triangle of side 1, whose eigenvalues are
    16 pi^2 (m^2 + m n + n^2) / 9, m, n >= 1."""
    out = [pytest.param(build_polygon([0, a, a + 1j * b, 1j * b]),
                        rectangle_spectrum(a, b, lam_max).eigenvalue_array(), lam_max,
                        id=f"{a}x{b}-{lam_max:g}")
           for a, b, lam_max in ((1, 1, 350.0), (2, 1, 520.0), (4, 1, 600.0))]
    lams = [16 * np.pi**2 * (m * m + m * n + n * n) / 9
            for m in range(1, 30) for n in range(1, 30)]
    out.append(pytest.param(build_polygon([0, 1, 0.5 + 0.5j * np.sqrt(3)]),
                            np.sort([lam for lam in lams if lam < 600.0]), 600.0,
                            id="equilateral-600"))
    return out


class TestHeatCertificate:
    @pytest.mark.parametrize("p, eigs, lam_max", _exact_spectra())
    def test_no_single_defect_is_certified(self, p, eigs, lam_max):
        # the audit skips a gap whose top is at or below certified_lambda, so
        # a dropped eigenvalue's gap must reach above it, and a doubled
        # eigenvalue must lie above it
        full = heat_reading(p, eigs, lam_max)[0]
        assert 0.8 * lam_max < full["certified_lambda"] < lam_max
        for k, lam in enumerate(eigs):
            dropped = np.delete(eigs, k)
            above = dropped[dropped >= lam]
            top = above[0] if len(above) else lam_max
            assert heat_reading(p, dropped, lam_max)[0]["certified_lambda"] < top, k
            doubled = np.sort(np.append(eigs, lam))
            assert heat_reading(p, doubled, lam_max)[0]["certified_lambda"] < lam, k

    def test_one_reading_takes_the_residual_once(self, unit_square, monkeypatch):
        # the certificate and lambda* come from one residual on _HEAT_T
        calls, residual = [], eigensolve.heat_trace_residual

        def spy(eigs, h, lambda_max, t):
            calls.append(np.array(t))
            return residual(eigs, h, lambda_max, t)

        monkeypatch.setattr(eigensolve, "heat_trace_residual", spy)
        eigs = rectangle_spectrum(1, 1, 350.0).eigenvalue_array()
        cert, lam = heat_reading(unit_square, np.delete(eigs, 5), 350.0)
        assert lam is not None and cert["certified_lambda"] < eigs[6]
        (t,) = calls
        np.testing.assert_array_equal(t, eigensolve._HEAT_T / 350.0)

    def test_a_short_spectrum_is_refused(self, unit_square):
        # below 89.4 the exact square spectrum has 8 eigenvalues; its floor
        # lies above _HEAT_FLOOR_MAX, where a single miss can hide
        eigs = rectangle_spectrum(1, 1, 89.4).eigenvalue_array()
        cert = heat_reading(unit_square, eigs, 89.4)[0]
        assert cert["floor"] > eigensolve._HEAT_FLOOR_MAX
        assert cert["certified_lambda"] == 0.0

    def test_a_residual_still_falling_at_the_last_t_is_refused(self, unit_square):
        # one member of the double 17 pi^2 moved by 2.1e-3, as the house
        # pentagon reports its pair at 159.06: R decays as the defect does,
        # and its smallest window, below _HEAT_FLOOR_MAX, is the last one
        eigs = rectangle_spectrum(1, 1, 1568.0).eigenvalue_array()
        k = int(np.flatnonzero(np.isclose(eigs, 17 * np.pi**2))[0])
        eigs[k] += 2.1e-3
        cert = heat_reading(unit_square, eigs, 1568.0)[0]
        assert cert["floor"] < eigensolve._HEAT_FLOOR_MAX
        assert cert["t_lambda_max"] == eigensolve._HEAT_T[-2]
        assert cert["certified_lambda"] == 0.0

    def test_a_floor_at_rounding_still_certifies(self, unit_square):
        # at 1568 (the default det cutoff) R of the exact spectrum falls to
        # its rounding, even to 0 on three consecutive t; the floor is
        # never below the rounding of a1/t, so it is not refused as 0
        eigs = rectangle_spectrum(1, 1, 1568.0).eigenvalue_array()
        cert = heat_reading(unit_square, eigs, 1568.0)[0]
        assert 0 < cert["floor"] < 1e-15
        assert cert["certified_lambda"] > 0.75 * 1568.0

    @pytest.mark.parametrize("a, lam_max, keep, dropped, certified", [
        (1, 1568.0, 0.8, 23, 1091.0), (2, 882.0, 0.95, 8, 697.0)], ids=["1x1", "2x1"])
    def test_the_weyl_band_refuses_a_top_cut_off_that_the_heat_reading_passes(
            self, a, lam_max, keep, dropped, certified):
        # an exact spectrum without its eigenvalues above keep * lambda_max:
        # the reading names no miss and vouches only below the misses, so it
        # cannot see them; the two-term band counts to lambda_max and refuses
        # the spectrum at its first missing eigenvalue
        p = build_polygon([0, a, a + 1j, 1j])
        eigs = rectangle_spectrum(a, 1, lam_max).eigenvalue_array()
        kept = eigs[eigs <= keep * lam_max]
        assert len(eigs) - len(kept) == dropped
        cert, named = heat_reading(p, kept, lam_max)
        assert named is None and 0 < cert["certified_lambda"] < certified
        check = weyl_count_check(p, kept, lam_max)
        assert not check["ok"] and check["k"] == len(kept) + 1
        # the whole spectrum passes both
        assert heat_reading(p, eigs, lam_max)[1] is None
        assert weyl_count_check(p, eigs, lam_max)["ok"]

    def test_audit_searches_no_window_below_the_certificate(self, unit_square, monkeypatch):
        find_in, windows = MPSSolver.find_in, []

        def spy(self, lo, hi, n):
            windows.append((lo, hi))
            return find_in(self, lo, hi, n)

        monkeypatch.setattr(MPSSolver, "find_in", spy)
        spec = dirichlet_eigenvalues(unit_square, 350.0)
        cert = spec.meta["heat_certificate"]
        assert cert["certified_lambda"] > 300.0 and cert["audit_gaps_skipped"] > 0
        assert windows and all(hi > cert["certified_lambda"] for _, hi in windows)
        # with a floor gate of 0 every certificate is refused, and the audit
        # searches every wide gap
        gated, windows[:] = windows[:], []
        monkeypatch.setattr(eigensolve, "_HEAT_FLOOR_MAX", 0.0)
        ungated = dirichlet_eigenvalues(unit_square, 350.0)
        assert ungated.meta["heat_certificate"]["certified_lambda"] == 0.0
        # the gated audit searches exactly the ungated windows that end above
        # certified_lambda, the one across it among them
        assert gated == [w for w in windows if w[1] > cert["certified_lambda"]]
        assert any(lo < cert["certified_lambda"] for lo, _ in gated)
        assert len(windows) - len(gated) == cert["audit_gaps_skipped"]
        assert (ungated.eigenvalues, ungated.errors) == (spec.eigenvalues, spec.errors)


class TestNamedWindow:
    """The lambda* of heat_reading on closed-form spectra, and the cover that
    searches where it names a miss and scans only above the certificate."""

    @pytest.mark.parametrize("p, eigs, lam_max", [
        c for c in _exact_spectra() if c.id in ("1x1-350", "2x1-520", "equilateral-600")])
    def test_the_window_holds_the_lowest_eigenvalue_dropped(self, p, eigs, lam_max):
        step = MPSSolver(p, lam_max).step

        def near(frac):
            return int(np.argmin(np.abs(eigs - frac * lam_max)))

        doubles = np.flatnonzero(np.diff(eigs) <= 1e-12 * eigs[1:])
        d = int(doubles[np.argmin(np.abs(eigs[doubles] - 0.5 * lam_max))])
        # one at about 0.25 and 0.5 lambda_max, both copies of a double, and
        # two, whose lambda* is a mean weighted towards the lower; the window
        # is the one the cover searches (checked in the equilateral test)
        for drop in ([near(0.25)], [near(0.5)], [d, d + 1], [near(0.25), near(0.5)]):
            lam = heat_reading(p, np.delete(eigs, drop), lam_max)[1]
            lo, hi = lam - 3 * step, lam + step
            assert lo <= eigs[min(drop)] <= hi, (drop, lam)

    @pytest.mark.parametrize("p, eigs, lam_max", _exact_spectra())
    def test_a_complete_spectrum_names_nothing(self, p, eigs, lam_max):
        assert heat_reading(p, eigs, lam_max)[1] is None
        # nor does one with an eigenvalue doubled: R is then positive
        doubled = np.sort(np.append(eigs, eigs[len(eigs) // 2]))
        assert heat_reading(p, doubled, lam_max)[1] is None

    @pytest.mark.parametrize("verts, lam_max", [
        ((0, 1.1, 0.9 + 0.8j, 0.1 + 0.9j), 60.0),
        ((0, 1, 1 + 1j, 1j), None),
        ((0, 1, 0.5 + 0.5j * np.sqrt(3)), None),
        ((0, 1.1, 0.9 + 0.8j, 0.1 + 0.9j), None)],
        ids=["quad-60", "square-j1", "equilateral-j1", "quad-j1"])
    def test_short_sweeps_name_nothing_and_scan_every_low_interval(self, verts, lam_max):
        # the generic quadrilateral below 60 and the sweeps of
        # hadamard_eigenvalue_variation(p, f, 1); their certificates are
        # refused.  After the equilateral's grid scan R is negative, but its
        # lambda* lies below the Faber-Krahn bound, where find_in would
        # sample a degenerate basis
        p = build_polygon(verts)
        lam_max = lam_max or eigensolve._weyl_kth(p, 3) * 1.25
        cert = dirichlet_eigenvalues(p, lam_max).meta["heat_certificate"]
        assert cert["named"] == []
        assert cert["cover_certified_lambda"] == 0.0 and cert["cover_intervals_skipped"] == 0

    def test_the_cover_scans_no_interval_below_the_certificate(self, unit_square,
                                                               monkeypatch):
        scan, cover_scans = MPSSolver._scan, []

        def spy(self, xs, vals):
            if self._stage == "cover" and len(xs) != eigensolve._NAME_POINTS:
                cover_scans.append(np.array(xs))
            return scan(self, xs, vals)

        monkeypatch.setattr(MPSSolver, "_scan", spy)
        solver = MPSSolver(unit_square, 350.0)
        spec = solver.solve()
        cert = spec.meta["heat_certificate"]
        assert cert["named"] == [] and cert["cover_intervals_skipped"] > 0
        assert cert["cover_certified_lambda"] == cert["certified_lambda"] > 300.0
        grid = np.arange(solver._lam_lo, 350.0 + solver.step, solver.step)
        assert cover_scans
        for xs in cover_scans:
            # the quarter points are the samples off the grid; the interval
            # they probe ends at the next grid point
            probes = [x for x in xs if not np.isclose(x, grid, rtol=0, atol=1e-9).any()]
            assert len(probes) == 3
            top = grid[np.searchsorted(grid, probes[-1])]
            assert top > cert["certified_lambda"]
        assert len(spec.eigenvalues) == 22

    def test_the_equilateral_double_is_admitted_by_a_named_window(self):
        lam = 16 * np.pi**2 * 13 / 9                    # 228.0975, (m, n) = (1, 3), (3, 1)
        solver = MPSSolver(build_polygon([0, 1, 0.5 + 0.5j * np.sqrt(3)]), 600.0)
        spec = solver.solve()
        (window,) = [w for w in spec.meta["heat_certificate"]["named"]
                     if w["lo"] <= lam <= w["hi"]]
        assert window["admitted"] == 2
        # it runs from 3 grid steps below lambda* to one above
        assert (window["lo"], window["hi"]) == (window["lambda"] - 3 * solver.step,
                                                window["lambda"] + solver.step)
        (rec,) = [r for r in solver.located if abs(r.lam - lam) < 1e-6 * lam]
        assert rec.mult == 2
        assert len(spec.eigenvalues) == 15


def _rectangle_sweep(p, lam_max, defect=None):
    """The exact spectrum of the a x 1 rectangle p, which is simple at the
    bottom; defect (a, k, kind) drops (kind "drop") or doubles eigenvalue
    index k of the one with side a."""
    from polydet.eigensolve import Spectrum

    spec = rectangle_spectrum(p.side_lengths[0], 1.0, lam_max)
    if defect is not None and abs(p.side_lengths[0] - defect[0]) < 1e-9:
        _, k, kind = defect
        eigs = spec.eigenvalue_array()
        eigs = np.delete(eigs, k) if kind == "drop" else np.insert(eigs, k, eigs[k])
        spec = Spectrum(tuple(eigs), tuple(0.0 for _ in eigs), lam_max, spec.count_check)
    return spec


_STRETCH_TS = (4e-3, -4e-3, 2e-3, -2e-3)


def test_alignment_failure_names_the_defect(monkeypatch):
    # the error must say where the miss is
    from polydet import validation

    # the t = -2e-3 sweep loses index 2
    monkeypatch.setattr(validation, "dirichlet_eigenvalues",
                        functools.partial(_rectangle_sweep, defect=(1.3 - 2e-3, 2, "drop")))
    rect = build_polygon([0, 1.3, 1.3 + 1j, 1j])
    f = field_from_vertex_velocities(rect, [0, 1, 1, 0])
    with pytest.raises(MissedEigenvalue, match=r"t = -2\.000e-03 holds no eigenvalue index 2 "
                                               r"\(0-based\) up to 45\.[0-9]+, the min-max "
                                               r"bound from the sweep at t = \+4\.000e-03"):
        validation._aligned_spectra(rect, f, _STRETCH_TS, 150.0)


def test_alignment_refuses_every_single_drop_and_double(monkeypatch):
    # the 1.3 x 1 rectangle has 11 simple eigenvalues below 150 and every
    # stretch keeps them so; min-max between the four stretched copies must
    # pass the exact spectra and refuse each eigenvalue dropped from or
    # doubled in any one of them
    from polydet import validation

    rect = build_polygon([0, 1.3, 1.3 + 1j, 1j])
    f = field_from_vertex_velocities(rect, [0, 1, 1, 0])
    monkeypatch.setattr(validation, "dirichlet_eigenvalues", _rectangle_sweep)
    moved = validation._aligned_spectra(rect, f, _STRETCH_TS, 150.0)
    n = len(moved[_STRETCH_TS[0]][1].eigenvalues)
    assert n == 11
    for _, spec in moved.values():
        assert len(spec.eigenvalues) == n
        assert np.all(np.diff(spec.eigenvalue_array()) > 0)
    accepted = []
    for t in _STRETCH_TS:
        for k in range(n):
            for kind in ("drop", "double"):
                monkeypatch.setattr(validation, "dirichlet_eigenvalues", functools.partial(
                    _rectangle_sweep, defect=(1.3 + t, k, kind)))
                try:
                    validation._aligned_spectra(rect, f, _STRETCH_TS, 150.0)
                except MissedEigenvalue:
                    continue
                accepted.append((t, k, kind))
    assert accepted == []
