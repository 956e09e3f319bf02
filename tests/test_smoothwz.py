import numpy as np
import pytest

from polydet.errors import GridTooCoarse, MapDegenerate, ValidationFailure
from polydet.geometry import points_from_json
from polydet.smoothwz import (
    SmoothDomain,
    _alvarez_sum,
    _wz_sum,
    alvarez_logdet,
    disk,
    wz_variation,
    wz_vs_alvarez_fd,
)


class TestSmoothDomain:
    def test_disk(self):
        d = disk(2.0)
        assert d.coefficients == (0.0, 2.0)
        assert d.derivative(0.5, 1) == pytest.approx(2.0)

    def test_degenerate_rejected(self):
        with pytest.raises(MapDegenerate):
            SmoothDomain((0.0, 1.0, 0.0, -1.0 / 3.0))  # z' = (1 - w^2) vanishes at 1

    def test_too_short(self):
        with pytest.raises(ValidationFailure):
            SmoothDomain((1.0,))

    def test_non_finite_coefficient_rejected(self):
        with pytest.raises(ValidationFailure, match="coefficient 2 is not finite"):
            SmoothDomain((0.0, 1.0, complex(np.nan, 0.0)))

    def test_json_round_trip(self, tmp_path):
        f = tmp_path / "domain.json"
        f.write_text('{"taylor": [[0.1, 0.2], [1.0, 0.0], [0.0, 0.05]]}')
        d = SmoothDomain(tuple(points_from_json(f, "taylor")))
        assert d.coefficients == (0.1 + 0.2j, 1.0, 0.05j)


class TestAlvarez:
    def test_disk_scaling_law(self):
        # log det differs by -(log r)/3 between disks of radius r and 1
        v1 = alvarez_logdet(disk(1.0))
        v2 = alvarez_logdet(disk(2.0))
        assert v2 - v1 == pytest.approx(-np.log(2.0) / 3.0, abs=1e-12)

    def test_disk_value_formula(self):
        # phi = log r constant gives -(1/12pi)(2 * 2pi log r) = -(log r)/3 + const
        r = 1.7
        assert alvarez_logdet(disk(r)) == pytest.approx(-np.log(r) / 3.0, abs=1e-12)

    def test_rotation_invariance(self):
        base = SmoothDomain((0.0, 1.0, 0.1))
        th = 0.9
        rot = SmoothDomain((0.0, np.exp(1j * th), 0.1 * np.exp(2j * th)))
        assert abs(alvarez_logdet(base) - alvarez_logdet(rot)) < 1e-12

    def test_spectral_convergence(self):
        d = SmoothDomain((0.0, 1.0, 0.15, 0.05j, 0.02))
        v256 = _alvarez_sum(d, 256)
        v512 = _alvarez_sum(d, 512)
        v1024 = _alvarez_sum(d, 1024)
        e1, e2 = abs(v256 - v1024), abs(v512 - v1024)
        assert e2 < e1 / 1e4 or e2 < 1e-15


class TestGridDoubling:
    def test_checked_value_is_the_doubled_grid_value(self):
        # a domain that the first doubling, 512 -> 1024 points, settles
        d = SmoothDomain((0.0, 1.0, 0.15, 0.05j, 0.02))
        V = [0.0, 0.3, 0.5]
        assert alvarez_logdet(d) == _alvarez_sum(d, 1024)
        assert wz_variation(d, V) == _wz_sum(d, V, 1024)

    def test_grid_doubles_until_two_grids_agree(self):
        # z' = 1 + 0.96 w vanishes just outside the circle: 512 and 1024
        # points differ by more than 1e-10, 1024 and 2048 do not
        d = SmoothDomain((0.0, 1.0, 0.48))
        V = [0.0, 1.0]
        assert abs(_alvarez_sum(d, 1024) - _alvarez_sum(d, 512)) > 1e-10
        assert alvarez_logdet(d) == _alvarez_sum(d, 2048)
        assert abs(_wz_sum(d, V, 1024) - _wz_sum(d, V, 512)) > 1e-10
        assert wz_variation(d, V) == _wz_sum(d, V, 2048)

    def test_coarse_grid_names_the_quantity(self):
        # z' = 1 + 0.999 w vanishes too close to the circle for 2^15 points
        d = SmoothDomain((0.0, 1.0, 0.4995))
        with pytest.raises(GridTooCoarse, match="the Alvarez value"):
            alvarez_logdet(d)
        with pytest.raises(GridTooCoarse, match="the variation"):
            wz_variation(d, [0.0, 1.0])


class TestWZVariation:
    def test_disk_dilation(self):
        assert wz_variation(disk(1.0), [0.0, 1.0]) == pytest.approx(-1 / 3, abs=1e-10)

    def test_disk_radius_r(self):
        r = 1.5
        assert wz_variation(disk(r), [0.0, 1.0]) == pytest.approx(-1 / (3 * r), abs=1e-10)

    def test_translation_zero(self):
        assert abs(wz_variation(disk(1.0), [0.3 - 0.2j])) < 1e-10

    def test_rotation_zero(self):
        assert abs(wz_variation(disk(1.0), [0.0, 1j])) < 1e-10

    @pytest.mark.parametrize("V, k", [([0.0, np.nan], 1), ([np.inf, 1.0, 0.2], 0),
                                      ([0.0, 1.0, complex(0, -np.inf)], 2)])
    def test_non_finite_field_rejected(self, V, k):
        # bad input, not a grid that fails to converge
        with pytest.raises(ValidationFailure, match=f"field coefficient {k} is not finite"):
            wz_variation(disk(1.0), V)

    def test_real_linearity(self, rng):
        d = SmoothDomain((0.0, 1.0, 0.1, 0.05))
        v1 = [0.1, 0.3, 0.0, 0.2j]
        v2 = [0.0, -0.2j, 0.4]
        a, b = 0.7, -1.3
        v_sum = [a * x + b * y for x, y in
                 zip(v1 + [0.0], v2 + [0.0, 0.0])]
        lhs = wz_variation(d, v_sum)
        rhs = a * wz_variation(d, v1) + b * wz_variation(d, v2)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_moebius_field_nullity(self):
        # first-order disk automorphism: V = a - conj(a) w^2 keeps the domain
        a = 0.3 + 0.4j
        assert abs(wz_variation(disk(1.0), [a, 0.0, -np.conj(a)])) < 1e-9


class TestWZvsAlvarez:
    CASES = [
        (disk(1.0), [0.0, 0.0, 1.0]),
        (SmoothDomain((0.0, 1.0, 0.0, 0.2)), [0.0, 0.0, 1.0]),
        (disk(1.0), [0.0, 1.0]),
        (SmoothDomain((0.1, 1.0, 0.08)), [0.0, 0.3, 0.5]),
        (SmoothDomain((0.0, 1.1, 0.06, -0.02j)), [0.1, 0.0, 0.0, 0.4j]),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_formula_vs_fd(self, case):
        d, V = self.CASES[case]
        formula, fd = wz_vs_alvarez_fd(d, V)
        assert abs(formula - fd) < 1e-6

    def test_disk_dilation_values(self):
        formula, fd = wz_vs_alvarez_fd(disk(1.0), [0.0, 1.0])
        assert formula == pytest.approx(-1 / 3, abs=1e-6)
        assert fd == pytest.approx(-1 / 3, abs=1e-6)
