"""Tests that the benchmark's checks catch the errors they target.

    python3 -m pytest perfbench/test_checks.py

Each check is fed a correct output, which must pass, and outputs carrying
one planted error, which must fail.  One test runs the two triangle-pair
sweeps (about 45 s on one core); deselect it with ``-k "not one_failed"``.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from polydet.eigensolve import Spectrum  # noqa: E402
from polydet.zetadet import ZetaConfig, heat_coefficients, zeta_logdet  # noqa: E402


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def test_eta_product_matches_gamma_closed_form():
    assert abs(oracles.log_eta_i() - oracles.log_eta_i_gamma()) < 1e-14


def test_split_completion_reproduces_square_closed_form():
    # at a small tau0 the split completion of the exact spectrum is exact
    verts = (0, 1, 1 + 1j, 1j)
    lam_max, tau0 = 1200.0, 28 / 1200
    got = oracles.split_completion_logdet(oracles.square_spectrum(lam_max), verts, tau0, lam_max)
    assert abs(got - oracles.unit_square_logdet()) < 1e-12


def test_closed_form_spectra():
    eq = oracles.equilateral_spectrum(200.0)
    assert eq[0] == pytest.approx(16 * math.pi**2 / 3)
    assert eq[1] == pytest.approx(eq[2])                  # (1, 2) and (2, 1)
    ri = oracles.right_isosceles_spectrum(200.0)
    assert ri[0] == pytest.approx(5 * math.pi**2)
    assert len(set(np.round(ri, 9))) == len(ri)           # m > n: no doubles below 200
    sq = oracles.square_spectrum(90.0)
    assert list(np.round(sq / math.pi**2, 9)) == [2, 5, 5, 8]


def test_b1_and_shear_bounds():
    assert oracles.corner_b1((0, 1, 1 + 1j, 1j)) == pytest.approx(0.25)
    inputs = W.build_triangle_pair(0, None)
    lo, hi = inputs["describe"][-1]["ratio_bounds"]
    assert lo == pytest.approx(0.99501, abs=1e-5)
    assert hi == pytest.approx(1.00501, abs=1e-5)


# ---------------------------------------------------------------------------
# det-exact
# ---------------------------------------------------------------------------

def _det_payload(case, eigs):
    """What `polydet det` reports when its sweep returns eigs.

    The determinant's tail alarm is off, so that a payload built from a
    corrupted spectrum reaches the check instead of raising.
    """
    from polydet.geometry import build_polygon

    p = build_polygon(list(case["vertices"]))
    spec = Spectrum(eigenvalues=tuple(eigs), errors=tuple(0.0 for _ in eigs),
                    lambda_max=case["lambda_max"], count_check={"ok": True})
    ld = zeta_logdet(spec, heat_coefficients(p), ZetaConfig(tau0=case["tau0"], tail_tol=math.inf))
    return ld.to_json_dict()


@pytest.fixture(scope="module")
def det_cases(tmp_path_factory):
    return W.build_det_exact(0, tmp_path_factory.mktemp("det"))["cases"]


def _det_failures(case, payload):
    ops = W.Ops()
    W.check_det(case, payload, ops)
    return ops.bad_checks


@pytest.mark.parametrize("index", [0, 1, 2])
def test_det_checks_pass_on_closed_form_spectrum(det_cases, index):
    case = det_cases[index]
    eigs = W.DET_CASES[index][4](case["lambda_max"])
    assert _det_failures(case, _det_payload(case, eigs)) == []


@pytest.mark.parametrize("index", [0, 1, 2])
@pytest.mark.parametrize("where", [0, "middle", -1])
@pytest.mark.parametrize("how", ["drop", "duplicate"])
def test_det_checks_catch_one_eigenvalue_dropped_or_duplicated(det_cases, index, where, how):
    case = det_cases[index]
    eigs = list(W.DET_CASES[index][4](case["lambda_max"]))
    k = len(eigs) // 2 if where == "middle" else where
    if how == "drop":
        del eigs[k]
    else:
        eigs.insert(k, eigs[k])
    failures = _det_failures(case, _det_payload(case, eigs))
    assert any("n_eigs" in f for f in failures)
    if where != -1:       # the top eigenvalue weighs E1(lambda_max tau0) ~ 1e-9 only
        assert any("split completion" in f for f in failures)


@pytest.mark.parametrize("index", [0, 1, 2])
@pytest.mark.parametrize("shift", [1e-6, -1e-6])
def test_det_checks_catch_shifted_logdet(det_cases, index, shift):
    case = det_cases[index]
    payload = _det_payload(case, W.DET_CASES[index][4](case["lambda_max"]))
    payload["logdet"] += shift
    failures = _det_failures(case, payload)
    assert any("split completion" in f for f in failures)
    if case["name"] == "square":
        assert any("eta" in f for f in failures)


# ---------------------------------------------------------------------------
# triangle-pair (checked on a rectangle pair, whose spectra are known)
# ---------------------------------------------------------------------------

LAM_MAX = 1100.0
STRETCH = 1.004


def _rect(a, b):
    lams = [math.pi**2 * ((m / a) ** 2 + (n / b) ** 2) for m in range(1, 40) for n in range(1, 40)]
    return np.sort([x for x in lams if x < LAM_MAX])


def _pair_failures(plus, minus):
    # minus = L(plus) with L = diag(1, STRETCH): singular values STRETCH and 1
    sweeps = [{"t": 1.0, "vertices": "plus", "upper": STRETCH**2},
              {"t": -1.0, "vertices": "minus", "upper": 1.0}]
    ops = W.Ops()
    W.check_pair(sweeps, [plus, minus], ops)
    return ops.failed


def test_pair_check_passes_clean_pair():
    assert _pair_failures(_rect(1, 1), _rect(1, STRETCH)) == []


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("k", [0, 7, 20])
@pytest.mark.parametrize("how", ["drop", "duplicate"])
def test_pair_check_catches_one_eigenvalue_dropped_or_duplicated(side, k, how):
    spectra = [list(_rect(1, 1)), list(_rect(1, STRETCH))]
    if how == "drop":
        del spectra[side][k]
    else:
        spectra[side].insert(k, spectra[side][k])
    failures = _pair_failures(*spectra)
    assert len(failures) == 1
    # a dropped eigenvalue fails its own sweep; a duplicate makes the other fall short
    bad = side if how == "drop" else 1 - side
    assert failures[0].startswith(f"triangle-pair sweep t={1.0 if bad == 0 else -1.0:+g}")


def test_triangle_pair_reports_exactly_one_failed_of_two():
    inputs = W.build_triangle_pair(0, None)
    ops = W.Ops()
    W.run_triangle_pair(inputs, ops)
    assert ops.attempted == 2
    assert len(ops.failed) == 1 and "t=-0.002" in ops.failed[0]
    assert ops.bad_checks == []


# ---------------------------------------------------------------------------
# variation
# ---------------------------------------------------------------------------

def _consistent_values(q):
    f1, f2 = 0.123456, -0.0456
    val = {"dilation": -2 * q["b1"], "translation": 0.0, "rotation": 0.0,
           "f1": f1, "f2": f2, "f12": f1 + f2, "shift": 0.31}
    return val, 0.31, f1


@pytest.fixture(scope="module")
def polygon_inputs():
    return W.build_variation(3, None)["polys"][0]


def _identity_failures(q, val, contour, relabeled):
    ops = W.Ops()
    W.check_polygon_identities(q, val, contour, relabeled, ops)
    return ops.bad_checks


def test_identities_pass_when_consistent(polygon_inputs):
    assert _identity_failures(polygon_inputs, *_consistent_values(polygon_inputs)) == []


@pytest.mark.parametrize("key, word", [
    ("dilation", "dilation"), ("translation", "translation"), ("rotation", "rotation"),
    ("f12", "linear"), ("f1", "linear"), ("shift", "contour"), ("contour", "contour"),
    ("relabeled", "relabeling")])
def test_identity_checks_catch_1e_6(polygon_inputs, key, word):
    val, contour, relabeled = _consistent_values(polygon_inputs)
    if key == "contour":
        contour += 1e-6
    elif key == "relabeled":
        relabeled += 1e-6
    else:
        val[key] += 1e-6
    failures = _identity_failures(polygon_inputs, val, contour, relabeled)
    assert failures and all(any(w in f for w in (word, "relabeling")) for f in failures)
    assert any(word in f for f in failures)


def test_hadamard_check():
    ops = W.Ops()
    W.check_hadamard("square", -4 * math.pi**2 * (1 + 1e-5), 2 * math.pi**2, ops)
    assert ops.bad_checks == []
    W.check_hadamard("square", -4 * math.pi**2 * (1 + 1e-3), 2 * math.pi**2, ops)
    assert len(ops.bad_checks) == 1


def test_wz_and_disk_checks_catch_1e_6():
    ops = W.Ops()
    W.check_wz("case", 0.25, 0.25 + 1e-9, ops)
    W.check_disk(-1.0 / 3.0, ops)
    assert ops.bad_checks == []
    W.check_wz("case", 0.25, 0.25 + 1e-6, ops)
    W.check_disk(-1.0 / 3.0 + 1e-6, ops)
    assert len(ops.bad_checks) == 2


def test_variation_inputs_follow_the_seed():
    a, b, c = (W.build_variation(s, None)["describe"] for s in (5, 5, 6))
    assert a == b and a != c
    assert [q["n"] for q in a] == list(W.VAR_SIDES)


# ---------------------------------------------------------------------------
# tracer and the benchmark description
# ---------------------------------------------------------------------------

def test_tracer_patches_every_binding_and_self_times_add_up():
    import polydet.scmap as S
    import polydet.varform as V
    from polydet.geometry import build_polygon, field_from_vertex_velocities

    from tracer import Tracer

    originals = (S.sc_derivative, V.sc_derivative, V._local_regular_factor)
    tr = Tracer()
    tr.install()
    try:
        assert V.sc_derivative is S.sc_derivative is not originals[0]
        assert V._local_regular_factor is not originals[2]
        p = build_polygon([0, 1, 0.3 + 0.8j])
        tr.call("bench.var_formula", V.main_formula, p, S.solve_parameter_problem(p),
                field_from_vertex_velocities(p, [0, 0, 1]))
    finally:
        tr.uninstall()
    assert (S.sc_derivative, V.sc_derivative, V._local_regular_factor) == originals
    summary = tr.summary()
    assert summary["by_name"]["scmap.sc_derivative"]["calls"] > 0
    assert summary["by_name"]["scmap.regular_factor"]["calls"] > 0
    assert abs(summary["self_sum_s"] - summary["root_s"]) < 1e-9 * summary["spans"] + 1e-9


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
