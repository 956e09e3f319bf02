"""polydet benchmark: one workload per run, timed, checked and optionally traced.

    python3 perfbench/run.py --workload det-exact --seed 1 --seconds 10 --trace 0

Run from the repository root; polydet is imported from ``src``.  The run
repeats whole rounds of the workload's operations until ``--seconds`` have
passed (at least one round) and prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
same number of rounds is run again with spans recorded around polydet's
functions, and the metrics are the per-layer ones.  Lines before the last
describe the environment, the inputs, every failure and the span table.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# BLAS must be pinned before numpy loads: the sigma problems are small enough
# that a second OpenBLAS thread costs more than it gains.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("POLYDET_CACHE", None)       # a spectrum cache would skip the work

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

LAYERS = ("bench", "cli", "eigensolve", "zetadet", "scmap", "varform", "smoothwz")
STAGES = ("grid", "refine", "cover", "audit", "rescan")
PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("eigensolve.solve_s", "s"), ("eigensolve.init_s", "s"),
       ("eigensolve.sigma_evals", "count"), ("eigensolve.sigma_s", "s"),
       ("eigensolve.bessel_eval_calls", "count"), ("eigensolve.bessel_eval_s", "s"),
       ("eigensolve.basis_matrix_s", "s"), ("eigensolve.basis_entries", "count"),
       ("eigensolve.qr_calls", "count"), ("eigensolve.qr_s", "s"),
       ("eigensolve.svd_calls", "count"), ("eigensolve.svd_s", "s")]
    + [(f"eigensolve.{st}_{kind}", unit) for st in STAGES
       for kind, unit in (("s", "s"), ("evals", "count"))]
    + [("eigensolve.other_evals", "count"), ("eigensolve.golden_calls", "count"),
       ("eigensolve.rescan_calls", "count"), ("eigensolve.evals_per_eig", "evals/eig"),
       ("eigensolve.eigfunc_s", "s"), ("eigensolve.gradient_s", "s"),
       ("zetadet.logdet_s", "s"), ("zetadet.logdet_calls", "count"),
       ("scmap.solve_s", "s"), ("scmap.side_length_evals", "count"),
       ("scmap.segment_calls", "count"), ("scmap.segment_s", "s"),
       ("scmap.sc_derivative_calls", "count"), ("scmap.sc_derivative_s", "s"),
       ("scmap.schwarzian_calls", "count"), ("scmap.regular_factor_calls", "count"),
       ("varform.hadamard_s", "s"), ("varform.near_s", "s"),
       ("varform.rho_calls", "count"), ("varform.rho_points", "count"),
       ("varform.rho_s", "s"), ("varform.far_s", "s"), ("varform.contour_s", "s"),
       ("smoothwz.wz_s", "s"), ("smoothwz.alvarez_s", "s"),
       ("trace.overhead_s", "s"), ("trace.est_overhead_s", "s"), ("trace.spans", "count")]
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("det-exact", "triangle-pair", "variation"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up only, print the monotonic time when ready and exit")
    return ap.parse_args(argv)


def setup(workload, seed, workdir):
    """Everything before the first timed operation: imports and inputs."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import polydet.cli  # noqa: F401  (imports every module the workloads use)
    import workloads

    build, run_round = workloads.WORKLOADS[workload]
    return run_round, build(seed, Path(workdir))


def measure_setup(args):
    """Median of fresh-interpreter set-ups, from spawn to inputs ready."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up probe exited with code {proc.returncode}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(samples), samples


def blas_threads():
    """OpenBLAS thread count of every loaded OpenBLAS library."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {"env OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line and ".so" in line})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unavailable (not a git checkout)"
    return lines[1]


def environment(args, describe):
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": blas_threads(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "git_sha": git_sha(),
        "inputs": describe,
    }


def run_rounds(run_round, inputs, ops, seconds=None, count=None):
    """Whole rounds until `seconds` have passed (or exactly `count` rounds)."""
    walls, kinds = [], {}
    t0 = time.monotonic()
    while True:
        ops.times = []
        run_round(inputs, ops)
        walls.append(sum(dt for _, dt in ops.times))
        for kind, dt in ops.times:
            kinds.setdefault(kind, []).append(dt)
        done = len(walls) >= count if count is not None else time.monotonic() - t0 >= seconds
        if done:
            return walls, kinds


def span_cost(tracer_cls, calls=20000):
    """Seconds a span adds to a call: wrapped against bare calls of a no-op."""
    def noop():
        return None

    wrapped = tracer_cls().wrap("calibration", noop)
    costs = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append(((time.perf_counter() - t1) - (t1 - t0)) / calls)
    return max(statistics.median(costs), 0.0)


def layer_metrics(summary, rounds, untraced_wall, cost_per_span):
    by = summary["by_name"]

    def total(name):
        return by.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return by.get(name, {}).get("calls", 0)

    def value(name):
        return by.get(name, {}).get("value", 0.0)

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, rec in by.items():
        layer_self[name.split(".")[0]] += rec["self_s"]
    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    m.update({
        "eigensolve.solve_s": total("eigensolve.solve"),
        "eigensolve.init_s": total("eigensolve.init"),
        "eigensolve.sigma_evals": calls("eigensolve.sigmas"),
        "eigensolve.sigma_s": total("eigensolve.sigmas"),
        "eigensolve.bessel_eval_calls": calls("eigensolve.bessel_eval"),
        "eigensolve.bessel_eval_s": total("eigensolve.bessel_eval"),
        "eigensolve.basis_matrix_s": by.get("eigensolve.basis_matrix", {}).get("self_s", 0.0),
        "eigensolve.basis_entries": value("eigensolve.basis_matrix"),
        "eigensolve.qr_calls": calls("eigensolve.qr"), "eigensolve.qr_s": total("eigensolve.qr"),
        "eigensolve.svd_calls": calls("eigensolve.svd"),
        "eigensolve.svd_s": total("eigensolve.svd"),
        "eigensolve.other_evals": summary["stage_evals"]["other"],
        "eigensolve.golden_calls": calls("eigensolve.golden"),
        "eigensolve.rescan_calls": calls("eigensolve.rescan"),
        "eigensolve.eigfunc_s": total("eigensolve.eigfunc"),
        "eigensolve.gradient_s": total("eigensolve.gradient"),
        "zetadet.logdet_s": total("zetadet.logdet"),
        "zetadet.logdet_calls": calls("zetadet.logdet"),
        "scmap.solve_s": total("scmap.solve"),
        "scmap.side_length_evals": calls("scmap.side_lengths"),
        "scmap.segment_calls": calls("scmap.segment"), "scmap.segment_s": total("scmap.segment"),
        "scmap.sc_derivative_calls": calls("scmap.sc_derivative"),
        "scmap.sc_derivative_s": total("scmap.sc_derivative"),
        "scmap.schwarzian_calls": calls("scmap.schwarzian"),
        "scmap.regular_factor_calls": (calls("scmap.regular_factor")
                                       + calls("varform.regular_factor_left")),
        "varform.hadamard_s": total("varform.hadamard"), "varform.near_s": total("varform.near"),
        "varform.rho_calls": calls("varform.rho"), "varform.rho_points": value("varform.rho"),
        "varform.rho_s": total("varform.rho"), "varform.far_s": total("varform.far"),
        "varform.contour_s": total("varform.contour"),
        "smoothwz.wz_s": total("smoothwz.wz"), "smoothwz.alvarez_s": total("smoothwz.alvarez"),
        "trace.overhead_s": summary["root_s"] - untraced_wall,
        "trace.est_overhead_s": summary["spans"] * cost_per_span,
        "trace.spans": summary["spans"],
    })
    for st in STAGES:
        m[f"eigensolve.{st}_s"] = summary["stage_s"][st]
        m[f"eigensolve.{st}_evals"] = summary["stage_evals"][st]
    n_eigs = value("eigensolve.solve")
    m["eigensolve.evals_per_eig"] = calls("eigensolve.sigmas") / n_eigs if n_eigs else 0.0
    return {name: m[name] if name == "eigensolve.evals_per_eig" else m[name] / rounds
            for name, _ in PER_LAYER}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "polydet" / "__init__.py").is_file():
        sys.stderr.write(f"polydet sources not found under {SRC}; run from a full checkout\n")
        return 2
    if args.setup_probe:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as wd:
            setup(args.workload, args.seed, wd)
            print(time.monotonic())
        return 0

    setup_s, setup_samples = measure_setup(args)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as wd:
        t0 = time.monotonic()
        run_round, inputs = setup(args.workload, args.seed, wd)
        own_setup = time.monotonic() - t0
        from tracer import Tracer
        from workloads import Ops

        print("env", json.dumps(environment(args, inputs["describe"])))
        print(f"setup: probes {[round(s, 4) for s in setup_samples]} s, "
              f"this process {own_setup:.4f} s (imports and inputs only)")
        ops = Ops()
        walls, kinds = run_rounds(run_round, inputs, ops, seconds=args.seconds)
        print(f"rounds {len(walls)}, wall per round {[round(w, 4) for w in walls]} s, "
              f"{ops.attempted // len(walls)} operations each")
        for kind, dts in sorted(kinds.items()):
            print(f"  {kind}_s per round {sum(dts) / len(walls):.4f} over "
                  f"{len(dts) // len(walls)} calls, median call {statistics.median(dts):.4f}")
        if args.trace:
            tracer = Tracer()
            tracer.install()
            ops.tracer = tracer
            try:
                traced_walls, _ = run_rounds(run_round, inputs, ops, count=len(walls))
            finally:
                tracer.uninstall()
            summary = tracer.summary()
            out_dir = ROOT / ".perfbench-out"
            out_dir.mkdir(exist_ok=True)
            tracer.save(out_dir / f"trace-{args.workload}-seed{args.seed}.npz")
            traced = sum(traced_walls)
            gap = abs(summary["self_sum_s"] - traced)
            print(f"trace: {summary['spans']} spans; self times add to {summary['self_sum_s']:.6f} s "
                  f"of {traced:.6f} s traced wall (gap {gap:.2e} s); untraced {sum(walls):.6f} s")
            ops.check(gap <= 1e-3 * traced, f"trace: self times miss the traced wall by {gap:.2e} s")
            for name, rec in sorted(summary["by_name"].items()):
                print(f"  span {name:32s} calls {rec['calls']:8d} total {rec['total_s']:10.4f} s "
                      f"self {rec['self_s']:10.4f} s")
            cost = span_cost(Tracer)
            print(f"trace: one span costs {cost * 1e6:.2f} us, about "
                  f"{summary['spans'] * cost:.4f} s over the traced rounds")
            metrics = layer_metrics(summary, len(walls), sum(walls), cost)
            units = dict(PER_LAYER)
        else:
            metrics = {"setup_s": setup_s, "wall_s": statistics.median(walls),
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            units = dict(END_TO_END)
    for msg in ops.failed:
        print("FAILED", msg)
    for msg in ops.bad_checks:
        print("CHECK FAILED", msg)
    print(json.dumps({
        "correct": not ops.bad_checks, "attempted": ops.attempted, "failed": len(ops.failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
