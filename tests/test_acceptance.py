"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` for the live
table, or use ``polydet validate all`` for the same checks via the CLI).
"""

import time

import pytest

from polydet import validation


def _run(fn, budget_s, *args, **kwargs):
    t0 = time.perf_counter()
    records = fn(*args, **kwargs)
    elapsed = time.perf_counter() - t0
    for r in records:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"{status}  {r['criterion']}: measured {r['measured']:.3e} "
              f"tol {r['tolerance']:.1e}  [{elapsed:.1f}s]")
    return records, elapsed


def _assert_all(records, elapsed, budget_s):
    for r in records:
        assert r["passed"], (
            f"{r['criterion']}: measured {r['measured']:.3e} "
            f"exceeds tolerance {r['tolerance']:.1e} ({r.get('detail', '')})")
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds budget {budget_s}s"


def test_criterion_01_disk_law():
    records, dt = _run(validation.check_disk_law, 1.0)
    _assert_all(records, dt, 1.0)


def test_criterion_02_wz_vs_alvarez():
    records, dt = _run(validation.check_wz_alvarez, 10.0)
    _assert_all(records, dt, 10.0)


def test_criterion_03_corner_constant():
    records, dt = _run(validation.check_corner_constant, 5.0)
    _assert_all(records, dt, 5.0)


def test_criterion_04_rectangle_oracle():
    # budget: under 2 minutes per rectangle
    records, dt = _run(validation.check_rectangle_oracle, 240.0)
    _assert_all(records, dt, 240.0)


def test_criterion_05_main_formula_vs_exact_rectangle():
    records, dt = _run(validation.check_main_vs_rectangle_derivative, 60.0)
    _assert_all(records, dt, 60.0)


def test_criterion_06_scaling_law():
    records, dt = _run(validation.check_scaling_law, 60.0)
    _assert_all(records, dt, 60.0)


def test_criterion_07_corner_term_activation():
    records, dt = _run(validation.check_corner_term_activation, 600.0)
    _assert_all(records, dt, 600.0)


def test_criterion_08_two_route_agreement():
    records, dt = _run(validation.check_two_routes, 300.0)
    _assert_all(records, dt, 300.0)


def test_criterion_09_hadamard_eigenvalue():
    records, dt = _run(validation.check_hadamard_eigenvalue, 60.0)
    _assert_all(records, dt, 60.0)


def test_criterion_10_rigid_motion_and_linearity():
    records, dt = _run(validation.check_rigid_and_linear, 600.0)
    _assert_all(records, dt, 600.0)


@pytest.mark.parametrize("check", [validation.check_geometry_invariants,
                                   validation.check_scmap_invariants,
                                   validation.check_mps_rectangle])
def test_structural_checks(check):
    # the geometry, scmap and eigs checks of `polydet validate`
    records, dt = _run(check, 60.0)
    _assert_all(records, dt, 60.0)
