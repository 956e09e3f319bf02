"""Acceptance suite: every check of `polydet validate all` at its stated
tolerance and within its time budget.

Each test prints one PASS/FAIL line per record (run with ``pytest -s`` for
the live table, or use ``polydet validate all`` for the same checks via the
CLI).
"""

import time

import pytest

from polydet import validation


# wall-time budget in seconds of each check
_BUDGET_S = {
    validation.check_geometry_invariants: 60.0,
    validation.check_scmap_invariants: 60.0,
    validation.check_mps_rectangle: 60.0,
    validation.check_hadamard_eigenvalue: 60.0,
    validation.check_rectangle_oracle: 240.0,       # under 2 minutes per rectangle
    validation.check_corner_constant: 5.0,
    validation.check_main_vs_rectangle_derivative: 60.0,
    validation.check_scaling_law: 60.0,
    validation.check_two_routes: 300.0,
    validation.check_corner_term_activation: 600.0,
    validation.check_rigid_and_linear: 600.0,
    validation.check_disk_law: 1.0,
    validation.check_wz_alvarez: 10.0,
}


def test_every_check_has_a_budget():
    assert set(validation.SUITES["all"]) == set(_BUDGET_S)


@pytest.mark.parametrize("check", validation.SUITES["all"], ids=lambda fn: fn.__name__)
def test_check(check):
    budget_s = _BUDGET_S[check]
    t0 = time.perf_counter()
    records = check()
    elapsed = time.perf_counter() - t0
    for r in records:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"{status}  {r['criterion']}: measured {r['measured']:.3e} "
              f"tol {r['tolerance']:.1e}  [{elapsed:.1f}s]")
    for r in records:
        assert r["passed"], (
            f"{r['criterion']}: measured {r['measured']:.3e} "
            f"exceeds tolerance {r['tolerance']:.1e} ({r['detail']})")
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds budget {budget_s}s"
