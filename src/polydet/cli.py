"""polydet command line: scmap / det / var / wz / validate.

Exit codes: 0 success, 2 input validation, 3 numerical non-convergence,
4 internal error.  Reports carry the config hash; identical inputs and
config reproduce the payload bit-identically.
"""

import argparse
import dataclasses
import json
import os
import sys
import tempfile
from pathlib import Path

from . import validation
from .config import RunConfig, Report, Timer, config_from_file
from .eigensolve import Spectrum, dirichlet_eigenvalues, polygon_hash, weyl_count_check
from .errors import NumericalFailure, ValidationFailure
from .geometry import field_from_json_dict, polygon_from_json_dict
from .scmap import checked_map, solve_parameter_problem
from .smoothwz import alvarez_logdet, domain_from_json_dict, wz_variation
from .varform import contour_shift_integral, main_formula
from .zetadet import heat_coefficients, zeta_logdet

_FD_STEP = 5e-3     # t of the `var --route fd` Richardson difference


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


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
        print(text)


def _load_polygon(path):
    return polygon_from_json_dict(_load_json(path))


def _solve_map_cached(p, cache):
    """The SC map of p and whether it came from the cache.  The entry is
    keyed by the polygon alone, since no config value enters the SC solve.
    It holds prevertices and is used only if checked_map accepts them for
    p; otherwise (or when it cannot be read) the map is solved again and the
    entry rewritten."""
    f = Path(cache) / f"scmap_{polygon_hash(p)}.json" if cache else None
    if f is not None and f.exists():
        try:
            d = json.loads(f.read_text())
            return checked_map(p, d["prevertices"], float(d["residual"])), True
        except (ValueError, KeyError, TypeError, NumericalFailure):
            pass
    m = solve_parameter_problem(p)
    if f is not None:
        d = m.to_json_dict()
        d["residual"] = m.residual
        _write_replacing(f, json.dumps(d))
    return m, False


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


def _load_spectrum(csv_f, side_f, p):
    """The cached spectrum, or None unless both files exist and parse, the
    CSV is complete (ends in a newline, two fields a row), its row count and
    polygon hash match the sidecar and its eigenvalues pass the Weyl count
    check (the sidecar's stored check is not trusted)."""
    if not (csv_f.exists() and side_f.exists()):
        return None
    text = csv_f.read_text()
    rows = [line.split(",") for line in text.splitlines()[1:] if line]
    try:
        side = json.loads(side_f.read_text())
        if (not text.endswith("\n") or any(len(r) != 2 for r in rows)
                or side["n_eigs"] != len(rows) or side["polygon_hash"] != polygon_hash(p)):
            return None
        lam_max = float(side["lambda_max"])
        eigs = [float(r[0]) for r in rows]
        errs = [float(r[1]) for r in rows]
    except (ValueError, KeyError, TypeError):
        return None
    check = weyl_count_check(p, eigs, lam_max)
    if not check["ok"]:
        return None
    return Spectrum(eigenvalues=tuple(eigs),
                    errors=tuple(errs),
                    lambda_max=lam_max,
                    count_check=check,
                    polygon_hash=side["polygon_hash"],
                    meta=side.get("meta", {}))


def _spectrum_cached(p, lam_max, cfg, cache):
    key = f"spectrum_{polygon_hash(p)}_{cfg.hash()}"
    if cache:
        csv_f = Path(cache) / (key + ".csv")
        side_f = Path(cache) / (key + ".json")
        spec = _load_spectrum(csv_f, side_f, p)
        if spec is not None:
            return spec, True
    spec = dirichlet_eigenvalues(p, lam_max, cfg.eig)
    if cache:
        lines = ["lambda,error_estimate"]
        lines += [f"{l!r},{e!r}" for l, e in zip(spec.eigenvalues, spec.errors)]
        _write_replacing(csv_f, "\n".join(lines) + "\n")
        _write_replacing(side_f, json.dumps({
            "polygon_hash": spec.polygon_hash,
            "n_eigs": len(spec.eigenvalues),
            "lambda_max": spec.lambda_max,
            "count_check": spec.count_check,
            "meta": spec.meta,
            "config_hash": cfg.hash(),
        }))
    return spec, False


def cmd_scmap(args, cfg):
    timer = Timer()
    p = _load_polygon(args.polygon)
    m, hit = _solve_map_cached(p, _cache_dir(args))
    timer.mark("solve")
    return Report(
        command=["scmap", args.polygon],
        config_hash=cfg.hash(),
        payload={
            "prevertices": list(m.prevertices),
            "C": [m.prefactor.real, m.prefactor.imag],
            "base": [m.base_point.real, m.base_point.imag],
            "residual": m.residual,
        },
        diagnostics={"cache_hit": hit},
        timings=timer.marks,
    )


def cmd_det(args, cfg):
    timer = Timer()
    p = _load_polygon(args.polygon)
    lam_max, zcfg = cfg.pipeline_zeta(p)
    spec, hit = _spectrum_cached(p, lam_max, cfg, _cache_dir(args))
    timer.mark("eigensolve")
    ld = zeta_logdet(spec, heat_coefficients(p), zcfg)
    timer.mark("zeta")
    return Report(
        command=["det", args.polygon],
        config_hash=cfg.hash(),
        payload=ld.to_json_dict(),
        diagnostics={"cache_hit": hit, "weyl": spec.count_check,
                     "lambda_max": lam_max,
                     "sigma_evals": spec.meta.get("sigma_evals", {}),
                     "stage_s": spec.meta.get("stage_s", {})},
        timings=timer.marks,
    )


def cmd_var(args, cfg):
    timer = Timer()
    p = _load_polygon(args.polygon)
    f = field_from_json_dict(p, _load_json(args.field))
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
        # the interior-contour route applies to pure parallel shifts
        if all(abs(c1) * L < 1e-12 for (c0, c1), L in
               zip(f.side_normal_velocity, p.side_lengths)):
            active = [j for j, (c0, c1) in enumerate(f.side_normal_velocity)
                      if abs(c0) > 1e-12]
            if active and all(j < p.n - 1 for j in active):
                payload["formula"]["contour_route"] = contour_shift_integral(m, f)
        timer.mark("formula")
    if args.route in ("fd", "both"):
        lam_max, zcfg = cfg.pipeline_zeta(p)
        payload["fd"] = validation.fd_logdet_derivative(p, f, lam_max, zcfg,
                                                        t=_FD_STEP, cfg=cfg.eig)
        timer.mark("fd")
    if args.route == "both":
        payload["discrepancy"] = abs(payload["formula"]["total"] - payload["fd"])
    return Report(
        command=["var", args.polygon, args.field, "--route", args.route],
        config_hash=cfg.hash(),
        payload=payload,
        diagnostics=diagnostics,
        timings=timer.marks,
    )


def cmd_wz(args, cfg):
    timer = Timer()
    d = domain_from_json_dict(_load_json(args.domain))
    payload = {"alvarez_logdet_upto_constant": alvarez_logdet(d, args.n_grid)}
    if args.field:
        V = [complex(x, y) for x, y in _load_json(args.field)["taylor"]]
        payload["wz_variation"] = wz_variation(d, V, args.n_grid)
    timer.mark("wz")
    return Report(
        command=["wz", args.domain] + (["--field", args.field] if args.field else []),
        config_hash=cfg.hash(),
        payload=payload,
        timings=timer.marks,
    )


def cmd_validate(args, cfg):
    timer = Timer()
    records = validation.run_suite(args.suite)
    timer.mark("suite")
    n_fail = sum(not r["passed"] for r in records)
    width = max(len(r["criterion"]) for r in records)
    lines = []
    for r in records:
        status = "PASS" if r["passed"] else "FAIL"
        lines.append(f"{status}  {r['criterion']:<{width}}  "
                     f"measured {r['measured']:9.3e}  tol {r['tolerance']:7.1e}")
    print("\n".join(lines))
    report = Report(
        command=["validate", args.suite],
        config_hash=cfg.hash(),
        payload={"records": records, "failures": n_fail},
        timings=timer.marks,
    )
    return report, (0 if n_fail == 0 else 3)


def build_parser():
    ap = argparse.ArgumentParser(prog="polydet",
                                 description="zeta-determinants of polygon Laplacians "
                                             "and their variations")
    ap.add_argument("--cfg", help="JSON config file")
    ap.add_argument("--out", help="write the report to this file")
    ap.add_argument("--format", choices=["json", "csv"], default="json")
    ap.add_argument("--cache-dir", help="cache directory (env POLYDET_CACHE)")
    ap.add_argument("--seed", type=int,
                    help="seed for randomized collocation points (overrides eig.seed)")
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
    sp.add_argument("--n-grid", type=int, default=512)
    sp = sub.add_parser("validate", help="run a validation suite")
    sp.add_argument("suite", choices=sorted(validation.SUITES))
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_file(args.cfg) if args.cfg else RunConfig()
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, eig=dataclasses.replace(cfg.eig, seed=args.seed))
        if args.command == "validate":
            report, code = cmd_validate(args, cfg)
            _emit(report, args)
            return code
        handler = {"scmap": cmd_scmap, "det": cmd_det,
                   "var": cmd_var, "wz": cmd_wz}[args.command]
        report = handler(args, cfg)
        _emit(report, args)
        return 0
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
