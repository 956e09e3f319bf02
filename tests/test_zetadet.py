import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import exp1

from polydet.errors import TailNotConverged, ValidationFailure
from polydet.eigensolve import rectangle_spectrum
from polydet.geometry import build_polygon
from polydet.zetadet import (
    ZetaConfig,
    heat_coefficients,
    heat_trace_residual,
    rectangle_logdet_exact,
    scaling_variation,
    zeta_logdet,
)


def rectangle_logdet_bruteforce(a, b, tau0=0.01, decay=36.0):
    """Brute-force check value: raw double-sum spectrum, no tail model.

    Truncates at lambda_max = decay/tau0 and Richardson-extrapolates the
    truncation by doubling lambda_max.  Used as an independent oracle for
    rectangle_logdet_exact in tests.
    """
    a1, a2, b1 = a * b / (4 * np.pi), -2 * (a + b) / 8.0, 0.25
    lam_max = decay / tau0
    vals = []
    for lm in (lam_max, 2 * lam_max):
        eigs = rectangle_spectrum(a, b, lm).eigenvalue_array()
        val = a1 / tau0 + 2 * a2 / np.sqrt(np.pi * tau0) - b1 * (np.log(tau0) + np.euler_gamma)
        val -= float(np.sum(exp1(eigs * tau0)))
        vals.append(val)
    return 2 * vals[1] - vals[0]


def test_heat_trace_residual_of_the_exact_square_spectrum():
    # the heat-trace expansion of a polygon has an exponentially small
    # remainder, so on a complete spectrum R sits far below one eigenvalue's
    # exp(-lambda t); dropping lambda_1 moves R by exactly that
    lam_max = 1568.0
    eigs = rectangle_spectrum(1, 1, lam_max).eigenvalue_array()
    h = heat_coefficients(build_polygon([0, 1, 1 + 1j, 1j]))
    t = np.array([24.0 / lam_max])
    r = heat_trace_residual(eigs, h, lam_max, t)
    assert abs(r[0]) < 1e-11
    dropped = heat_trace_residual(eigs[1:], h, lam_max, t)
    assert dropped[0] - r[0] == pytest.approx(-np.exp(-eigs[0] * t[0]), rel=1e-12)


@pytest.mark.parametrize("x", [1.0, 8.0])
def test_heat_trace_residual_tail_is_the_weyl_density_above_lambda_max(x):
    # R + expansion - truncated trace is the Laplace transform of the
    # two-term Weyl density A/(4 pi) - P/(8 pi sqrt(lam)) above lambda_max
    p = build_polygon([0, 1.3, 0.9 + 0.8j, 0.1 + 0.7j])
    h = heat_coefficients(p)
    lam_max, eigs = 300.0, np.array([40.0, 90.0])
    t = x / lam_max
    tail = heat_trace_residual(eigs, h, lam_max, np.array([t]))[0] \
        + h.a1 / t + h.a2 / np.sqrt(np.pi * t) + h.b1 - np.exp(-eigs * t).sum()
    density = quad(lambda lam: np.exp(-lam * t) * (p.area / (4 * np.pi)
                                                   - p.perimeter / (8 * np.pi * np.sqrt(lam))),
                   lam_max, np.inf, epsabs=0, epsrel=1e-12)[0]
    assert tail == pytest.approx(density, rel=1e-9)


class TestHeatCoefficients:
    def test_unit_square(self):
        h = heat_coefficients(build_polygon([0, 1, 1 + 1j, 1j]))
        assert h.a1 == pytest.approx(1 / (4 * np.pi), rel=1e-14)
        assert h.a2 == pytest.approx(-0.5, rel=1e-14)
        assert h.b1 == pytest.approx(0.25, rel=1e-13)

    def test_equilateral_triangle(self):
        p = build_polygon([0, 1, 0.5 + 1j * np.sqrt(3) / 2])
        assert heat_coefficients(p).b1 == pytest.approx(1 / 3, rel=1e-12)

    def test_right_isoceles(self):
        p = build_polygon([0, 1, 1j])
        assert heat_coefficients(p).b1 == pytest.approx(3 / 8, rel=1e-12)

    def test_any_rectangle_b1_quarter(self, rng):
        for _ in range(5):
            a, b = rng.uniform(0.5, 3, 2)
            p = build_polygon([0, a, a + 1j * b, 1j * b])
            assert heat_coefficients(p).b1 == pytest.approx(0.25, rel=1e-12)

    def test_hexagon(self):
        p = build_polygon(np.exp(1j * np.pi * np.arange(6) / 3))
        assert heat_coefficients(p).b1 == pytest.approx(5 / 24, rel=1e-12)


class TestScalingVariation:
    def test_values(self):
        assert scaling_variation(build_polygon([0, 1, 1 + 1j, 1j])) == pytest.approx(-0.5)
        tri = build_polygon([0, 1, 0.5 + 1j * np.sqrt(3) / 2])
        assert scaling_variation(tri) == pytest.approx(-2 / 3)
        hexa = build_polygon(np.exp(1j * np.pi * np.arange(6) / 3))
        assert scaling_variation(hexa) == pytest.approx(-5 / 12)


class TestRectangleExact:
    def test_symmetry(self):
        assert rectangle_logdet_exact(2, 1) == pytest.approx(
            rectangle_logdet_exact(1, 2), abs=1e-12)
        assert rectangle_logdet_exact(1.7, 0.4) == pytest.approx(
            rectangle_logdet_exact(0.4, 1.7), abs=1e-12)

    def test_scaling_identity(self):
        c = 2.0
        diff = rectangle_logdet_exact(c, c) - rectangle_logdet_exact(1, 1)
        assert diff == pytest.approx(-0.5 * np.log(c), abs=1e-12)

    def test_brute_force_agreement(self):
        for a, b in [(1, 1), (2, 1)]:
            assert abs(rectangle_logdet_exact(a, b)
                       - rectangle_logdet_bruteforce(a, b)) < 1e-8

    def test_invalid(self):
        with pytest.raises(ValidationFailure):
            rectangle_logdet_exact(0, 1)


class TestZetaLogdet:
    def test_unit_square_vs_exact(self):
        spec = rectangle_spectrum(1, 1, 600.0)
        h = heat_coefficients(build_polygon([0, 1, 1 + 1j, 1j]))
        ld = zeta_logdet(spec, h, ZetaConfig(tau0=0.05))
        assert abs(ld.value - rectangle_logdet_exact(1, 1)) < 1e-6

    def test_rect21_vs_exact(self):
        spec = rectangle_spectrum(2, 1, 600.0)
        h = heat_coefficients(build_polygon([0, 2, 2 + 1j, 1j]))
        ld = zeta_logdet(spec, h, ZetaConfig(tau0=0.05))
        assert abs(ld.value - rectangle_logdet_exact(2, 1)) < 1e-6

    def test_scaled_square(self):
        # logdet(c P) - logdet(P) = -2 b1 log c = -log(c)/2
        c = 2.0
        h1 = heat_coefficients(build_polygon([0, 1, 1 + 1j, 1j]))
        hc = heat_coefficients(build_polygon([0, c, c + 1j * c, 1j * c]))
        ld1 = zeta_logdet(rectangle_spectrum(1, 1, 800.0), h1, ZetaConfig(tau0=0.04))
        ldc = zeta_logdet(rectangle_spectrum(c, c, 800.0 / c**2), hc,
                          ZetaConfig(tau0=0.04 * c**2))
        assert ldc.value - ld1.value == pytest.approx(-0.5 * np.log(c), abs=1e-6)

    def test_error_estimate_bounds_doubling(self):
        h = heat_coefficients(build_polygon([0, 1, 1 + 1j, 1j]))
        ld_small = zeta_logdet(rectangle_spectrum(1, 1, 400.0), h, ZetaConfig(tau0=0.06))
        ld_big = zeta_logdet(rectangle_spectrum(1, 1, 800.0), h, ZetaConfig(tau0=0.06))
        observed = abs(ld_big.value - ld_small.value)
        assert observed <= ld_small.error_estimate + 1e-9

    def test_diagnostic_shrinks_with_lambda_max(self):
        h = heat_coefficients(build_polygon([0, 1, 1 + 1j, 1j]))
        prev = None
        for lam_max in (300.0, 600.0, 1200.0):
            ld = zeta_logdet(rectangle_spectrum(1, 1, lam_max), h,
                             ZetaConfig(tau0=25.0 / lam_max, tail_tol=1.0))
            if prev is not None:
                assert ld.error_estimate < prev
            prev = ld.error_estimate

    def test_tail_not_converged(self):
        h = heat_coefficients(build_polygon([0, 1, 1 + 1j, 1j]))
        spec = rectangle_spectrum(1, 1, 60.0)
        with pytest.raises(TailNotConverged):
            zeta_logdet(spec, h, ZetaConfig(tau0=0.002, tail_tol=1e-8))

    def test_weyl_gate(self):
        import dataclasses
        h = heat_coefficients(build_polygon([0, 1, 1 + 1j, 1j]))
        spec = rectangle_spectrum(1, 1, 600.0)
        bad = dataclasses.replace(spec, count_check={"ok": False})
        with pytest.raises(ValidationFailure):
            zeta_logdet(bad, h, ZetaConfig(tau0=0.05))

    def test_tau0_is_required(self):
        # tau0 is chosen in one place, RunConfig.pipeline_zeta
        h = heat_coefficients(build_polygon([0, 1, 1 + 1j, 1j]))
        with pytest.raises(ValidationFailure, match="tau0"):
            zeta_logdet(rectangle_spectrum(1, 1, 600.0), h, ZetaConfig())

    @pytest.mark.parametrize("tau0", [-0.05, 0.0, float("nan"), float("inf")])
    def test_tau0_must_be_finite_and_positive(self, tau0):
        h = heat_coefficients(build_polygon([0, 1, 1 + 1j, 1j]))
        with pytest.raises(ValidationFailure, match="finite and positive"):
            zeta_logdet(rectangle_spectrum(1, 1, 600.0), h, ZetaConfig(tau0=tau0))

    def test_nan_error_estimate_does_not_pass(self):
        # the estimate must be at most tail_tol; no comparison with NaN is
        h = heat_coefficients(build_polygon([0, 1, 1 + 1j, 1j]))
        with pytest.raises(TailNotConverged):
            zeta_logdet(rectangle_spectrum(1, 1, 600.0), h,
                        ZetaConfig(tau0=0.05, tail_tol=float("nan")))

    def test_report_payload(self):
        h = heat_coefficients(build_polygon([0, 1, 1 + 1j, 1j]))
        ld = zeta_logdet(rectangle_spectrum(1, 1, 600.0), h, ZetaConfig(tau0=0.05))
        d = ld.to_json_dict()
        assert set(d) == {"logdet", "error", "n_eigs", "diagnostics"}
        assert d["n_eigs"] == ld.n_eigs_used
