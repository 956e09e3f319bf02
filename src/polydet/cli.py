"""polydet command line: scmap / det / var / wz / validate.

Exit codes: 0 success, 2 input validation, 3 numerical non-convergence
(or a validate suite with a failed check), 4 internal error.  Each cmd_*
handler returns its command, payload and diagnostics, and main alone builds
the Report around them, with the config hash and the handler's timings.
Identical inputs and config reproduce the payload bit-identically.
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from . import validation
from .config import RunConfig, Report, Timer, config_from_file
from .eigensolve import checked_spectrum, dirichlet_eigenvalues, polygon_hash
from .errors import NumericalFailure, ValidationFailure
from .geometry import build_polygon, field_from_vertex_velocities, json_float, points_from_json
from .scmap import checked_map, solve_parameter_problem
from .smoothwz import SmoothDomain, alvarez_logdet, wz_variation
from .varform import contour_route_applies, contour_shift_integral, main_formula
from .zetadet import heat_coefficients, zeta_logdet


def _cache_dir(args):
    d = args.cache_dir or os.environ.get("POLYDET_CACHE")
    if d:
        Path(d).mkdir(parents=True, exist_ok=True)
    return d


def _emit(report, args):
    text = report.to_csv() if args.format == "csv" else report.to_json()
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text.rstrip("\n"))      # a CSV report's last row ends in its own \n


def _cached(path, load, compute, dump):
    """A value and whether it came from the JSON cache entry at path.

    dump keeps only the inputs that load cannot recompute; load rebuilds the
    value from them through the check a computed value passes, and raises if
    the entry is unreadable, incomplete or fails it; the value is then
    computed and the entry rewritten whole.  A None path caches nothing."""
    if path is not None and path.exists():
        try:
            return load(json.loads(path.read_text())), True
        except (ValueError, KeyError, TypeError, NumericalFailure):
            pass
    value = compute()
    if path is not None:
        _write_replacing(path, json.dumps(dump(value)))
    return value, False


def _write_replacing(path, text):
    """Write text to a temporary file beside path and rename it into place,
    so a reader finds either the old file or the whole new one."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _solve_map_cached(p, cache):
    """The SC map of p and whether it came from the cache.  The entry is
    keyed by the polygon alone, since no config value enters the SC solve,
    and holds only the prevertices; it is used only if they are finite
    numbers and checked_map accepts them for p, recomputing C, base and the
    residual as it does for a solved map."""
    path = Path(cache) / f"scmap_{polygon_hash(p)}.json" if cache else None

    def load(d):
        return checked_map(p, [json_float(x, "prevertices") for x in d["prevertices"]])

    return _cached(path, load, lambda: solve_parameter_problem(p),
                   lambda m: {"prevertices": list(m.prevertices)})


def _spectrum_cached(p, lam_max, cache):
    """The spectrum of p below lam_max and whether it came from the cache.
    The entry is keyed by the polygon and lam_max, the only inputs of the
    sweep, and holds no sweep telemetry, so a hit's meta is empty; one
    stored for another polygon or cutoff, holding anything but finite
    numbers in its eigenvalues, errors or lambda_max, or failing the Weyl
    count check that checked_spectrum recomputes, is a miss."""
    path = Path(cache) / f"spectrum_{polygon_hash(p)}_{lam_max!r}.json" if cache else None

    def load(d):
        eigs, errs = ([json_float(x, key) for x in d[key]] for key in ("eigenvalues", "errors"))
        spec = checked_spectrum(p, eigs, errs, json_float(d["lambda_max"], "lambda_max"), {})
        if (d["polygon_hash"] != spec.polygon_hash or spec.lambda_max != lam_max
                or not spec.count_check["ok"]):
            raise ValueError("cached spectrum is another polygon's or cutoff's, "
                             "or fails its Weyl check")
        return spec

    def dump(spec):
        return {"polygon_hash": spec.polygon_hash, "lambda_max": spec.lambda_max,
                "eigenvalues": spec.eigenvalues, "errors": spec.errors}

    return _cached(path, load, lambda: dirichlet_eigenvalues(p, lam_max), dump)


def cmd_scmap(args, cfg, timer):
    p = build_polygon(points_from_json(args.polygon, "vertices"))
    m, hit = _solve_map_cached(p, _cache_dir(args))
    timer.mark("solve")
    return ["scmap", args.polygon], m.to_json_dict(), {"cache_hit": hit}


def cmd_det(args, cfg, timer):
    p = build_polygon(points_from_json(args.polygon, "vertices"))
    lam_max, zcfg = cfg.pipeline_zeta(p)
    spec, hit = _spectrum_cached(p, lam_max, _cache_dir(args))
    timer.mark("eigensolve")
    ld = zeta_logdet(spec, heat_coefficients(p), zcfg)
    timer.mark("zeta")
    return ["det", args.polygon], ld.to_json_dict(), {
        "cache_hit": hit, "weyl": spec.count_check, "lambda_max": lam_max,
        "sigma_evals": spec.meta.get("sigma_evals", {}),
        "heat_certificate": spec.meta.get("heat_certificate", {}),
        "admitted": spec.meta.get("admitted", {}),
        "stage_s": spec.meta.get("stage_s", {})}


def cmd_var(args, cfg, timer):
    p = build_polygon(points_from_json(args.polygon, "vertices"))
    f = field_from_vertex_velocities(p, points_from_json(args.field, "vertex_velocities"))
    payload = {}
    diagnostics = {}
    if args.route in ("formula", "both"):
        m, _ = _solve_map_cached(p, _cache_dir(args))
        dv = main_formula(p, m, f)
        payload["formula"] = {
            "boundary_term": dv.boundary_term,
            "corner_term": dv.corner_term,
            "total": dv.total,
            "route": dv.route,
        }
        diagnostics["formula"] = dv.residual_diagnostics
        if contour_route_applies(p, f):
            payload["formula"]["contour_route"] = contour_shift_integral(m, f)
        timer.mark("formula")
    if args.route in ("fd", "both"):
        lam_max, zcfg = cfg.pipeline_zeta(p)
        payload["fd"] = validation.fd_logdet_derivative(p, f, lam_max, zcfg)
        timer.mark("fd")
    if args.route == "both":
        payload["discrepancy"] = abs(payload["formula"]["total"] - payload["fd"])
    return ["var", args.polygon, args.field, "--route", args.route], payload, diagnostics


def cmd_wz(args, cfg, timer):
    d = SmoothDomain(tuple(points_from_json(args.domain, "taylor")))
    payload = {"alvarez_logdet_upto_constant": alvarez_logdet(d)}
    if args.field:
        payload["wz_variation"] = wz_variation(d, points_from_json(args.field, "taylor"))
    timer.mark("wz")
    return ["wz", args.domain] + (["--field", args.field] if args.field else []), payload, {}


def cmd_validate(args, cfg, timer):
    records, seconds = validation.run_suite(args.suite)
    timer.marks.update(seconds)
    width = max(len(r["criterion"]) for r in records)
    lines = []
    for r in records:
        status = "PASS" if r["passed"] else "FAIL"
        lines.append(f"{status}  {r['criterion']:<{width}}  "
                     f"measured {r['measured']:9.3e}  tol {r['tolerance']:7.1e}")
    print("\n".join(lines), file=sys.stderr)    # stdout holds the report alone
    payload = {"records": records, "failures": sum(not r["passed"] for r in records)}
    return ["validate", args.suite], payload, {}


def build_parser():
    ap = argparse.ArgumentParser(prog="polydet",
                                 description="zeta-determinants of polygon Laplacians "
                                             "and their variations")
    ap.add_argument("--cfg", help="JSON config file")
    ap.add_argument("--out", help="write the report to this file")
    ap.add_argument("--format", choices=["json", "csv"], default="json")
    ap.add_argument("--cache-dir", help="cache directory (env POLYDET_CACHE)")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("scmap", help="solve the Schwarz-Christoffel parameter problem")
    sp.add_argument("polygon")
    sp = sub.add_parser("det", help="zeta-regularized log-determinant")
    sp.add_argument("polygon")
    sp = sub.add_parser("var", help="variation of log det under a deformation field")
    sp.add_argument("polygon")
    sp.add_argument("field")
    sp.add_argument("--route", choices=["formula", "fd", "both"], default="formula")
    sp = sub.add_parser("wz", help="smooth-domain (Taylor map) determinant tools")
    sp.add_argument("domain")
    sp.add_argument("--field", help="holomorphic perturbation V as Taylor JSON")
    sp = sub.add_parser("validate", help="run a validation suite")
    sp.add_argument("suite", choices=sorted(validation.SUITES))
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_file(args.cfg) if args.cfg else RunConfig()
        handler = {"scmap": cmd_scmap, "det": cmd_det, "var": cmd_var,
                   "wz": cmd_wz, "validate": cmd_validate}[args.command]
        timer = Timer()
        command, payload, diagnostics = handler(args, cfg, timer)
        _emit(Report(command=command, config_hash=cfg.hash(), payload=payload,
                     diagnostics=diagnostics, timings=timer.marks), args)
        # a payload that counts failed checks (validate's) exits 3 once written
        return 3 if payload.get("failures") else 0
    except ValidationFailure as e:
        print(f"error ({type(e).__name__}): {e}", file=sys.stderr)
        return 2
    except NumericalFailure as e:
        print(f"numerical failure ({type(e).__name__}): {e}", file=sys.stderr)
        return 3
    except Exception as e:  # noqa: BLE001 - internal assertion surface
        print(f"internal error ({type(e).__name__}): {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
