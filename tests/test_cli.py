import ast
import csv
import dataclasses
import io
import json
import re
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import polydet
from polydet.cli import main
from polydet.config import RunConfig, config_from_file
from polydet.errors import ValidationFailure
from polydet.zetadet import ZetaConfig, rectangle_logdet_exact


_SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]
_DET_CFG = {"zeta": {"tau0": 0.06}, "lambda_max": 420.0}
_CFG_350 = {"lambda_max": 350.0, "zeta": {"tau0": 0.05}}


@pytest.fixture
def square_file(tmp_path):
    f = tmp_path / "square.json"
    f.write_text(json.dumps({"vertices": _SQUARE}))
    return str(f)


@pytest.fixture
def dilation_file(tmp_path):
    f = tmp_path / "dilation.json"
    f.write_text(json.dumps({"vertex_velocities": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    return str(f)


@pytest.fixture
def det_cfg_file(tmp_path):
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(_DET_CFG))
    return str(f)


@pytest.fixture(scope="module")
def square_det_miss(tmp_path_factory):
    """miss(raw): the report of `det` on the unit square under the config
    raw, run on a cold cache once per config in the module, and the spectrum
    cache entry that run wrote.  A test copies the entry into a cache of its
    own, so that it sweeps only where it recomputes a spoiled entry."""
    root = tmp_path_factory.mktemp("square_det_miss")
    square = root / "square.json"
    square.write_text(json.dumps({"vertices": _SQUARE}))
    runs = {}

    def miss(raw):
        key = json.dumps(raw, sort_keys=True)
        if key not in runs:
            d = root / f"run{len(runs)}"
            d.mkdir()
            (d / "cfg.json").write_text(key)
            assert main(["--cfg", str(d / "cfg.json"), "--cache-dir", str(d / "cache"),
                         "--out", str(d / "report.json"), "det", str(square)]) == 0
            report = json.loads((d / "report.json").read_text())
            assert report["diagnostics"]["cache_hit"] is False
            (entry,) = (d / "cache").glob("spectrum_*.json")
            runs[key] = report, entry
        return runs[key]

    return miss


def _det_from_entry(raw, entry_text, entry_name, square_file, tmp_path, capsys):
    """Report and cache entry of `det` on the unit square under the config
    raw, which must exit 0, with entry_text stored under entry_name in a new
    cache; the report must be strict JSON."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    cache = tmp_path / "cache"
    cache.mkdir(exist_ok=True)
    f = cache / entry_name
    f.write_text(entry_text)
    code, out = run_cli(["--cfg", str(cfg), "--cache-dir", str(cache), "det", square_file],
                        capsys)
    assert code == 0
    return json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} in the report")), f


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_write_replacing_removes_its_temporary_file_when_the_rename_fails(tmp_path,
                                                                           monkeypatch):
    from polydet import cli

    target = tmp_path / "entry.json"
    target.write_text("old")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(cli.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        cli._write_replacing(target, "new")
    assert [f.name for f in tmp_path.iterdir()] == ["entry.json"]
    assert target.read_text() == "old"


class TestRunConfig:
    def test_hash_stable(self):
        assert RunConfig().hash() == RunConfig().hash()
        assert RunConfig().hash() != RunConfig(lambda_max=420.0).hash()

    def test_from_file(self, det_cfg_file):
        cfg = config_from_file(det_cfg_file)
        assert cfg.zeta.tau0 == 0.06
        assert cfg.lambda_max == 420.0

    @pytest.mark.parametrize("raw, key", [({"lambda_mx": 100}, "lambda_mx"),
                                          ({"eig": {"seed": 3}}, "eig"),
                                          ({"threads": 2}, "threads"),
                                          ({"eig": {"threads": 2}}, "eig"),
                                          ({"eig": {"dip_threshold": 0.3}}, "eig"),
                                          ({"zeta": {"require_weyl": True}},
                                           "zeta.require_weyl"),
                                          ({"var": {"gl_order": "20"}}, "var"),
                                          ({"sc": {"quad_order": 24.0}}, "sc"),
                                          ({"lambda_max_factor": 28}, "lambda_max_factor"),
                                          ({"fd_step": None}, "fd_step")])
    def test_unknown_key_exits_2(self, raw, key, square_file, tmp_path, capsys):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(raw))
        assert main(["--cfg", str(f), "scmap", square_file]) == 2
        assert f"unknown config key {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("raw, message", [
        ({"lambda_max": "abc"}, 'lambda_max must be a number, not "abc"'),
        ({"lambda_max": 350, "zeta": {"tau0": -0.05}},
         "zeta.tau0 must be finite and positive, not -0.05"),
        ({"lambda_max": 350, "zeta": {"tau0": float("nan")}},
         "zeta.tau0 must be finite and positive, not NaN"),
        ({"zeta": {"tail_tol": True}}, "zeta.tail_tol must be a number, not true"),
        ({"lambda_max": float("nan")}, "lambda_max must be finite and positive, not NaN"),
        ({"lambda_max": 350, "zeta": {"tau0": 0}},
         "zeta.tau0 must be finite and positive, not 0.0"),
        # integers beyond the largest float
        ({"lambda_max": 10**400}, "lambda_max must be finite and positive, not Infinity"),
        ({"lambda_max": 350, "zeta": {"tau0": -10**400}},
         "zeta.tau0 must be finite and positive, not -Infinity")])
    def test_wrong_value_type_exits_2(self, raw, message, square_file, tmp_path, capsys):
        # NaN is not JSON, but Python's json module reads and writes it
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(raw))
        assert main(["--cfg", str(f), "det", square_file]) == 2
        assert f"config key {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [None, '{"lambda_max": 350, "zeta": {"ta', "",
                                      '{"lambda_max": 350}}'],
                             ids=["missing", "cut-short", "empty", "trailing-brace"])
    def test_unreadable_file_exits_2_naming_the_path(self, text, square_file, tmp_path,
                                                     capsys):
        f = tmp_path / "cfg.json"
        if text is not None:
            f.write_text(text)
        assert main(["--cfg", str(f), "scmap", square_file]) == 2
        err = capsys.readouterr().err
        assert "ValidationFailure" in err and f"{f} must be" in err

    def test_null_defaults_and_integers_in_float_fields(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"lambda_max": None, "zeta": {"tau0": None, "tail_tol": 1e-4}}))
        cfg = config_from_file(str(f))
        assert cfg.lambda_max is None and cfg.zeta.tau0 is None
        assert cfg.hash() == RunConfig().hash()
        f.write_text(json.dumps({"lambda_max": 420}))
        assert config_from_file(str(f)).hash() == RunConfig(lambda_max=420.0).hash()

    def test_settable_keys(self, tmp_path):
        def keys(d, prefix=""):
            return {k for name, v in d.items()
                    for k in (keys(v, f"{prefix}{name}.") if isinstance(v, dict)
                              else {prefix + name})}

        assert keys(RunConfig().to_dict()) == {"zeta.tau0", "zeta.tail_tol", "lambda_max"}
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"zeta": {"tau0": 0.05, "tail_tol": 1.0}, "lambda_max": 350}))
        cfg = config_from_file(str(f))
        assert cfg == RunConfig(lambda_max=350.0, zeta=ZetaConfig(tau0=0.05, tail_tol=1.0))

    def test_seed_overrides_eig(self, square_file):
        # the collocation seed is the solver's own constant: neither --seed
        # nor the removed --threads is an option
        for flag in (["--seed", "7"], ["--threads", "2"]):
            with pytest.raises(SystemExit) as exc:
                main(flag + ["scmap", square_file])
            assert exc.value.code == 2

    def test_every_config_field_is_read(self):
        # a field that no code reads is a setting without effect
        src = "".join(f.read_text() for f in Path(polydet.__file__).parent.glob("*.py"))
        for cls in (RunConfig, ZetaConfig):
            for f in dataclasses.fields(cls):
                assert re.search(rf"\.{f.name}\b", src), f"{cls.__name__}.{f.name}"

    def test_every_definition_is_referenced(self):
        # a function or class that nothing in the package names is dead code;
        # dunder methods are called implicitly, a name in __all__ counts
        files = sorted(Path(polydet.__file__).parent.glob("*.py"))
        src = "".join(f.read_text() for f in files)
        dead = []
        for f in files:
            for node in ast.walk(ast.parse(f.read_text())):
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    continue
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                uses = len(re.findall(rf"\b{name}\b", src))
                defs = len(re.findall(rf"\b(?:def|class) {name}\b", src))
                if uses <= defs:
                    dead.append(f"{f.stem}.{name}")
        assert not dead, f"defined but never referenced: {dead}"

    def test_every_private_default_is_set_by_a_call(self):
        # a defaulted parameter of a function or method that no call in the
        # package sets is a setting without effect; a module constant says
        # the same in one place
        trees = {f.stem: ast.parse(f.read_text())
                 for f in sorted(Path(polydet.__file__).parent.glob("*.py"))}
        calls = {}
        for node in (n for t in trees.values() for n in ast.walk(t)
                     if isinstance(n, ast.Call)):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            calls.setdefault(name, []).append(node)
        methods = {fn: cls for t in trees.values() for cls in ast.walk(t)
                   if isinstance(cls, ast.ClassDef)
                   for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        unset = []
        for stem, fn in ((stem, n) for stem, t in trees.items() for n in ast.walk(t)
                         if isinstance(n, ast.FunctionDef)):
            if (stem, fn.name) == ("cli", "main"):
                continue        # argv defaults to the process command line
            cls = methods.get(fn)
            called_as = cls.name if fn.name == "__init__" else fn.name
            bound = cls is not None and not any(
                getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            pos = [a.arg for a in fn.args.args][int(bound):]
            defaulted = pos[len(pos) - len(fn.args.defaults):] if fn.args.defaults else []
            defaulted += [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                          if d is not None]
            for arg in defaulted:
                index = pos.index(arg) if arg in pos else None
                if not any(any(k.arg in (arg, None) for k in call.keywords)
                           or any(isinstance(a, ast.Starred) for a in call.args)
                           or index is not None and len(call.args) > index
                           for call in calls.get(called_as, [])):
                    unset.append(f"{cls.name + '.' if cls else ''}{fn.name}({arg})")
        assert not unset, f"defaults no call in the package sets: {unset}"

    def test_lambda_max_guard(self):
        from polydet.geometry import build_polygon
        p = build_polygon([0, 1, 1 + 1j, 1j])
        with pytest.raises(ValidationFailure):
            RunConfig(lambda_max=50.0).pipeline_zeta(p)


class TestScmapCommand:
    def test_square_report(self, square_file, capsys):
        code, out = run_cli(["scmap", square_file], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["payload"]["residual"] < 1e-10
        assert rep["payload"]["prevertices"][:2] == [-1.0, 0.0]
        assert rep["payload"]["prevertices"][2] == pytest.approx(1 / 3, abs=1e-10)

    def test_triangle_instant(self, tmp_path, capsys):
        f = tmp_path / "tri.json"
        f.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [0, 1]]}))
        code, out = run_cli(["scmap", str(f)], capsys)
        assert code == 0
        assert json.loads(out)["payload"]["prevertices"] == [-1.0, 0.0, 1.0]

    def test_csv_joins_the_prevertices_with_semicolons(self, square_file, capsys):
        code, out = run_cli(["--format", "csv", "scmap", square_file], capsys)
        assert code == 0
        rows = dict(list(csv.reader(io.StringIO(out)))[1:])
        prevertices = [float(x) for x in rows["prevertices"].split(";")]
        assert len(prevertices) == 4 and prevertices[:2] == [-1.0, 0.0]
        assert prevertices[2] == pytest.approx(1 / 3, abs=1e-10)

    def test_nonconvex_exit_2(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(
            {"vertices": [[0, 0], [2, 0], [2, 2], [1, 0.5], [0, 2]]}))
        assert main(["scmap", str(f)]) == 2

    def test_cache_round_trip(self, square_file, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = ["--cache-dir", str(cache), "scmap", square_file]
        code1, out1 = run_cli(args, capsys)
        code2, out2 = run_cli(args, capsys)
        r1, r2 = json.loads(out1), json.loads(out2)
        assert r1["payload"] == r2["payload"]
        assert not r1["diagnostics"]["cache_hit"]
        assert r2["diagnostics"]["cache_hit"]
        # the entry holds only the prevertices; a load recomputes the rest
        (f,) = cache.glob("scmap_*.json")
        text = f.read_text()
        assert json.loads(text) == {"prevertices": r1["payload"]["prevertices"]}
        # an entry that is not whole JSON is a miss, recomputed and rewritten
        f.write_text(text[:40])
        code3, out3 = run_cli(args, capsys)
        assert code3 == 0
        r3 = json.loads(out3)
        assert not r3["diagnostics"]["cache_hit"]
        assert r3["payload"] == r1["payload"]
        assert f.read_text() == text

    def test_cache_failing_the_vertex_check_is_recomputed(self, square_file, tmp_path,
                                                          capsys):
        cache = tmp_path / "cache"
        args = ["--cache-dir", str(cache), "scmap", square_file]
        code, out = run_cli(args, capsys)
        assert code == 0
        first = json.loads(out)["payload"]
        (f,) = cache.glob("scmap_*.json")
        text = f.read_text()
        # prevertices off the polygon; moved by 3e-9, which the 1e-8 vertex
        # check passes but leaves a side-ratio residual of 3.1e-9, above the
        # 1e-9 a solve must reach; and crowded below 1e-12
        for bad in (0.4, first["prevertices"][2] + 3e-9, 1.0 - 1e-13):
            d = json.loads(text)
            d["prevertices"][2] = bad
            f.write_text(json.dumps(d))
            code, out = run_cli(args, capsys)
            assert code == 0
            rep = json.loads(out)
            assert not rep["diagnostics"]["cache_hit"]
            assert rep["payload"] == first
            assert f.read_text() == text

    @pytest.mark.parametrize("key, bad, hit", [
        ("residual", "nan", True), ("residual", True, True), ("residual", float("nan"), True),
        ("residual", -1e-12, True),
        ("prevertices", ["-1.0", 0.0, "0.3333333333333333", 1.0], False)],
        ids=["residual-string", "residual-true", "residual-nan", "residual-negative",
             "prevertex-strings"])
    def test_cache_with_a_residual_or_prevertex_not_a_number_is_recomputed(
            self, key, bad, hit, square_file, tmp_path, capsys):
        # a stored residual, as older entries hold, is never read: checked_map
        # recomputes it, so the entry is a hit.  float() reads "-1.0" as a
        # number; prevertices that are not JSON numbers make the entry a miss.
        # Either way the report is strict JSON, with the miss's payload.
        cache = tmp_path / "cache"
        args = ["--cache-dir", str(cache), "scmap", square_file]
        code, out = run_cli(args, capsys)
        assert code == 0
        payload = json.loads(out)["payload"]
        (f,) = cache.glob("scmap_*.json")
        text = f.read_text()
        f.write_text(json.dumps(dict(json.loads(text), **{key: bad})))
        code, out = run_cli(args, capsys)
        assert code == 0
        rep = json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} in the report"))
        assert rep["diagnostics"]["cache_hit"] is hit
        assert rep["payload"] == payload
        if not hit:
            assert f.read_text() == text

    def test_crowded_map_exit_3(self, tmp_path, capsys):
        # a 10 x 1 rectangle crowds two prevertices to a gap of 1.8e-13
        f = tmp_path / "rect10.json"
        f.write_text(json.dumps({"vertices": [[0, 0], [10, 0], [10, 1], [0, 1]]}))
        assert main(["scmap", str(f)]) == 3
        assert "PrevertexCrowding" in capsys.readouterr().err

    def test_cache_is_keyed_by_the_polygon_alone(self, square_file, tmp_path, capsys):
        # no config value enters the SC solve, so none may change the cache key
        cache = tmp_path / "cache"
        code, out = run_cli(["--cache-dir", str(cache), "scmap", square_file], capsys)
        assert code == 0
        assert not json.loads(out)["diagnostics"]["cache_hit"]
        for name, raw in (("lam.json", {"lambda_max": 500.0}),
                          ("tau.json", {"zeta": {"tau0": 0.07}})):
            cfg_file = tmp_path / name
            cfg_file.write_text(json.dumps(raw))
            code, out = run_cli(["--cache-dir", str(cache), "--cfg", str(cfg_file),
                                 "scmap", square_file], capsys)
            assert code == 0
            assert json.loads(out)["diagnostics"]["cache_hit"], raw
            assert len(list(cache.glob("scmap_*.json"))) == 1


def _json_edit(edit):
    return lambda text: json.dumps(edit(json.loads(text)))


def _another_polygons(entry):
    from polydet.eigensolve import rectangle_spectrum

    other = rectangle_spectrum(1.0, 1.1, entry["lambda_max"])
    assert other.count_check["ok"]
    return dict(entry, polygon_hash=other.polygon_hash, eigenvalues=other.eigenvalues,
                errors=other.errors)


class TestDetCommand:
    def test_det_square(self, square_det_miss, square_file, det_cfg_file, tmp_path, capsys):
        rep, entry = square_det_miss(_DET_CFG)
        assert abs(rep["payload"]["logdet"] - rectangle_logdet_exact(1, 1)) < 1e-5
        assert set(json.loads(entry.read_text())) == {"polygon_hash", "lambda_max",
                                                      "eigenvalues", "errors"}
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / entry.name).write_text(entry.read_text())
        code2, out2 = run_cli(["--cfg", det_cfg_file, "--cache-dir", str(cache),
                               "det", square_file], capsys)
        assert code2 == 0
        rep2 = json.loads(out2)
        assert rep2["diagnostics"]["cache_hit"]
        assert json.dumps(rep["payload"], sort_keys=True) == \
            json.dumps(rep2["payload"], sort_keys=True)
        assert rep2["timings"]["eigensolve"] < 0.5
        # the sweep's stage counters and times are reported
        counts = rep["diagnostics"]["sigma_evals"]
        assert counts["grid"] > 0 and counts["refine"] > 0
        stage_s = rep["diagnostics"]["stage_s"]
        assert set(stage_s) == set(counts) and min(stage_s.values()) >= 0
        # so is its heat-trace certificate
        cert = rep["diagnostics"]["heat_certificate"]
        assert set(cert) == {"floor", "t_lambda_max", "certified_lambda", "audit_gaps_skipped",
                             "named", "cover_certified_lambda", "cover_intervals_skipped"}
        assert 0 < cert["certified_lambda"] < 420.0 and cert["audit_gaps_skipped"] > 0
        assert 0 < cert["cover_certified_lambda"] and cert["cover_intervals_skipped"] > 0
        assert all(set(w) == {"lambda", "lo", "hi", "admitted"} for w in cert["named"])
        # and the copies each stage admitted
        admitted = rep["diagnostics"]["admitted"]
        assert set(admitted) == set(rep["diagnostics"]["sigma_evals"])
        assert sum(admitted.values()) == rep["payload"]["n_eigs"] and admitted["grid"] > 0
        # the cache keeps no sweep telemetry: a hit reports none
        for key in ("sigma_evals", "stage_s", "admitted", "heat_certificate"):
            assert rep2["diagnostics"][key] == {}, key

    @pytest.mark.parametrize("raw, spoil", [
        pytest.param(_DET_CFG, lambda text: text[:-40], id="truncated"),
        pytest.param(_DET_CFG, _json_edit(_another_polygons), id="another-polygons"),
        pytest.param(_DET_CFG, _json_edit(lambda e: {k: v for k, v in e.items()
                                                     if k != "lambda_max"}),
                     id="lacking-lambda_max"),
        # doubled eigenvalues keep the entry's polygon hash, but their
        # counting function is far off the Weyl law
        pytest.param(_DET_CFG, _json_edit(lambda e: dict(
            e, eigenvalues=[2 * lam for lam in e["eigenvalues"]])), id="failing-the-weyl-check"),
        # the Weyl term takes sqrt(max(lam, 0)), so -1.0 passes the count
        # check; the entry used to reach the zeta completion and exit 3
        pytest.param(_CFG_350, _json_edit(lambda e: dict(
            e, eigenvalues=[-1.0] + e["eigenvalues"], errors=[0.0] + e["errors"])),
            id="non-positive-eigenvalue"),
        # eigenvalues that float() reads as numbers but JSON does not hold as such
        pytest.param(_CFG_350, _json_edit(lambda e: dict(
            e, eigenvalues=[repr(lam) for lam in e["eigenvalues"]])), id="strings"),
        pytest.param(_CFG_350, _json_edit(lambda e: dict(
            e, eigenvalues=[True] + e["eigenvalues"][1:])), id="true-for-lambda1")])
    def test_spoiled_cache_entry_is_recomputed(self, raw, spoil, square_det_miss, square_file,
                                               tmp_path, capsys):
        # the entry is a miss: recomputed, reported as the first miss was, and
        # rewritten whole, leaving no temporary file
        rep, entry = square_det_miss(raw)
        text = entry.read_text()
        rep2, f = _det_from_entry(raw, spoil(text), entry.name, square_file, tmp_path, capsys)
        assert not rep2["diagnostics"]["cache_hit"]
        assert rep2["payload"] == rep["payload"]
        assert f.read_text() == text
        assert not list(f.parent.glob("*.tmp"))

    @pytest.mark.parametrize("meta", [
        {"source": "mps", "stage_s": {"grid": float("nan")}, "heat_certificate": "x"},
        [1, 2], None], ids=["nan-stage-time", "list", "null"])
    def test_cache_entry_with_an_old_meta_reports_no_sweep_telemetry(
            self, meta, square_det_miss, square_file, tmp_path, capsys):
        # entries once stored the sweep's meta, and a hit reported it as it
        # was: a NaN stage time printed as NaN, which is not JSON.  A load
        # now ignores meta, whatever it holds, so the hit reports no sweep
        # telemetry at all
        rep, entry = square_det_miss(_CFG_350)
        old = json.dumps(dict(json.loads(entry.read_text()), meta=meta))
        rep2, _ = _det_from_entry(_CFG_350, old, entry.name, square_file, tmp_path, capsys)
        assert rep2["diagnostics"]["cache_hit"]
        assert rep2["payload"]["logdet"] == rep["payload"]["logdet"]
        for key in ("sigma_evals", "stage_s", "admitted", "heat_certificate"):
            assert rep2["diagnostics"][key] == {}, key

    def test_spectrum_cache_is_keyed_by_the_polygon_and_lambda_max(
            self, square_det_miss, square_file, tmp_path, capsys):
        # the sweep reads only the polygon and lambda_max, so the zeta
        # settings share one entry (the module's first run of base was a
        # miss); another cutoff is another entry, and an entry storing
        # another cutoff than its key is a miss
        base = _CFG_350
        _, entry = square_det_miss(base)
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / entry.name).write_text(entry.read_text())
        hits = []
        for i, raw in enumerate((base, dict(base, zeta={"tau0": 0.05, "tail_tol": 1e-3}),
                                 dict(base, zeta={"tau0": 0.06}),
                                 dict(base, lambda_max=360))):
            cfg_file = tmp_path / f"cfg{i}.json"
            cfg_file.write_text(json.dumps(raw))
            code, out = run_cli(["--cfg", str(cfg_file), "--cache-dir", str(cache),
                                 "det", square_file], capsys)
            assert code == 0
            hits.append(json.loads(out)["diagnostics"]["cache_hit"])
        assert hits == [True, True, True, False]
        entries = sorted(cache.glob("spectrum_*.json"))
        assert len(entries) == 2
        stored = [json.loads(e.read_text()) for e in entries]
        assert sorted(d["lambda_max"] for d in stored) == [350.0, 360.0]
        assert all("config_hash" not in d for d in stored)
        # the lambda_max 360 entry made to store 350, read with the 360 config
        (f,) = [e for e, d in zip(entries, stored) if d["lambda_max"] == 360.0]
        d = json.loads(f.read_text())
        f.write_text(json.dumps(dict(d, lambda_max=350.0)))
        code, out = run_cli(["--cfg", str(cfg_file), "--cache-dir", str(cache),
                             "det", square_file], capsys)
        assert code == 0
        assert not json.loads(out)["diagnostics"]["cache_hit"]
        assert json.loads(f.read_text())["lambda_max"] == 360.0

    def test_tail_not_converged_exit_3(self, square_file, tmp_path, capsys):
        f = tmp_path / "badcfg.json"
        f.write_text(json.dumps({"zeta": {"tau0": 0.004, "tail_tol": 1e-9},
                                 "lambda_max": 250.0}))
        assert main(["--cfg", str(f), "det", square_file]) == 3

    @pytest.mark.parametrize("vertices, raw", [
        (_SQUARE, {"zeta": {"tau0": 1e-300}}),
        (_SQUARE, {"lambda_max": 1e300}),
        (_SQUARE, {"zeta": {"tau0": 1e-5}}),
        # the default cutoff of an isosceles triangle with base angles 0.05
        ([[0, 0], [1, 0], [0.5, 0.5 * np.tan(0.05)]], {})],
        ids=["tau0-1e-300", "lambda_max-1e300", "tau0-1e-5", "thin-triangle-default"])
    def test_a_cutoff_too_large_for_the_basis_exits_2_before_building_it(
            self, vertices, raw, tmp_path, capsys):
        poly, cfg = tmp_path / "polygon.json", tmp_path / "cfg.json"
        poly.write_text(json.dumps({"vertices": vertices}))
        cfg.write_text(json.dumps(raw))
        t0 = time.perf_counter()
        assert main(["--cfg", str(cfg), "det", str(poly)]) == 2
        assert time.perf_counter() - t0 < 2.0
        err = capsys.readouterr().err
        assert "ValidationFailure" in err and "lambda_max" in err and "columns" in err


class TestVarCommand:
    def test_dilation_formula(self, square_file, dilation_file, capsys):
        code, out = run_cli(["var", square_file, dilation_file,
                             "--route", "formula"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["payload"]["formula"]["total"] == pytest.approx(-0.5, abs=1e-6)
        assert rep["payload"]["formula"]["corner_term"] == 0.0
        # the dilation of the square is a sum of two pure side shifts, so the
        # contour route applies and is reported alongside
        assert rep["payload"]["formula"]["contour_route"] == pytest.approx(-0.5, abs=1e-6)

    def test_translation_zero(self, square_file, tmp_path, capsys):
        f = tmp_path / "tr.json"
        f.write_text(json.dumps({"vertex_velocities": [[1, 1]] * 4}))
        code, out = run_cli(["var", square_file, str(f)], capsys)
        rep = json.loads(out)
        assert abs(rep["payload"]["formula"]["total"]) < 1e-8

    @pytest.mark.parametrize("vx, applies", [
        ((-1e-13, 1, 1, -1e-13), False),    # the last side moves, by 1e-13
        ((0, 1, 1 + 5e-11, 0), True),       # a tilt within the parallel-shift tolerance
        ((0, 1, 1, 0), True),               # a pure shift of side 1
    ])
    def test_contour_route_reported_exactly_when_it_applies(self, vx, applies, square_file,
                                                           tmp_path, capsys):
        from polydet.geometry import build_polygon, field_from_vertex_velocities, points_from_json
        from polydet.scmap import solve_parameter_problem
        from polydet.varform import contour_shift_integral

        d = {"vertex_velocities": [[x, 0] for x in vx]}
        field_file = tmp_path / "field.json"
        field_file.write_text(json.dumps(d))
        code, out = run_cli(["var", square_file, str(field_file)], capsys)
        assert code == 0
        formula = json.loads(out)["payload"]["formula"]
        p = build_polygon(points_from_json(square_file, "vertices"))
        f = field_from_vertex_velocities(p, points_from_json(field_file, "vertex_velocities"))
        if applies:
            assert formula["contour_route"] == contour_shift_integral(
                solve_parameter_problem(p), f)
            assert formula["contour_route"] == pytest.approx(formula["total"], abs=1e-6)
        else:
            assert "contour_route" not in formula
            with pytest.raises(ValidationFailure):
                contour_shift_integral(solve_parameter_problem(p), f)

    def test_fd_route_reports_a_missed_eigenvalue(self, square_file, dilation_file,
                                                  monkeypatch, capsys):
        # the fd route goes through the aligned, defect-checked spectra
        from polydet import validation
        from polydet.errors import MissedEigenvalue

        def misaligned(*args, **kwargs):
            raise MissedEigenvalue("t = -5.000e-03 lacks eigenvalue index 7")

        monkeypatch.setattr(validation, "_aligned_spectra", misaligned)
        code = main(["var", square_file, dilation_file, "--route", "fd"])
        assert code == 3
        assert "MissedEigenvalue" in capsys.readouterr().err

    def test_both_routes_on_the_square(self, square_file, dilation_file, tmp_path, capsys):
        # the dilation of the unit square moves log det by -2 b1 = -1/2;
        # |fd + 1/2| measures 4.6e-8 at this cutoff
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"lambda_max": 350, "zeta": {"tau0": 0.05}}))
        code, out = run_cli(["--cfg", str(cfg_file), "var", square_file, dilation_file,
                             "--route", "both"], capsys)
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["discrepancy"] == abs(payload["formula"]["total"] - payload["fd"])
        assert payload["fd"] == pytest.approx(-0.5, abs=1e-6)

    def test_csv_format(self, square_file, dilation_file, tmp_path, capsys):
        out_file = tmp_path / "report.csv"
        code, _ = run_cli(["--format", "csv", "--out", str(out_file),
                           "var", square_file, dilation_file], capsys)
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("key,value")
        assert "formula.total" in text
        assert "\r" not in text


class TestWzCommand:
    def test_disk(self, tmp_path, capsys):
        dom = tmp_path / "disk.json"
        dom.write_text(json.dumps({"taylor": [[0, 0], [1, 0]]}))
        fld = tmp_path / "v.json"
        fld.write_text(json.dumps({"taylor": [[0, 0], [1, 0]]}))
        code, out = run_cli(["wz", str(dom), "--field", str(fld)], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["payload"]["wz_variation"] == pytest.approx(-1 / 3, abs=1e-8)


class TestValidateCommand:
    @staticmethod
    def _stub_suite(monkeypatch, ticks, capsys):
        """The report of `validate` on a two-check suite, with the checks'
        clock reading ``ticks``."""
        from polydet import validation

        def two_records():
            return [validation._record("a", 0.0, 1.0), validation._record("b", 0.0, 1.0)]

        def one_record():
            return [validation._record("c", 0.0, 1.0)]

        clock = iter(ticks)
        monkeypatch.setattr(validation, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
        monkeypatch.setitem(validation.SUITES, "stub", [two_records, one_record])
        code, out = run_cli(["validate", "stub"], capsys)
        assert code == 0
        return json.loads(out)

    def test_timings_carry_each_checks_runtime(self, monkeypatch, capsys):
        report = self._stub_suite(monkeypatch, [0.0, 2.0, 10.0, 10.5], capsys)
        assert report["timings"] == {"two_records": 2.0, "one_record": 0.5}
        assert all("runtime_s" not in r for r in report["payload"]["records"])

    def test_payload_does_not_depend_on_the_clock(self, monkeypatch, capsys):
        # the records used to carry their check's wall time, so two runs on
        # the same tree gave different payloads
        first = self._stub_suite(monkeypatch, [0.0, 2.0, 10.0, 10.5], capsys)
        second = self._stub_suite(monkeypatch, [0.0, 0.25, 1.0, 4.0], capsys)
        assert first["timings"] != second["timings"]
        assert first["payload"] == second["payload"]

    def test_geometry_suite(self, capsys):
        # the PASS/FAIL table goes to stderr; stdout holds the JSON report
        # alone, and a second run on the same tree gives the same payload
        reports = []
        for _ in range(2):
            code = main(["validate", "geometry"])
            captured = capsys.readouterr()
            assert code == 0
            assert "PASS" in captured.err
            assert "FAIL" not in captured.err
            reports.append(json.loads(captured.out))
        report = reports[0]
        assert report["payload"]["failures"] == 0
        assert [r["passed"] for r in report["payload"]["records"]] == [True, True]
        assert list(report["timings"]) == ["check_geometry_invariants"]
        assert reports[1]["payload"] == report["payload"]

    def test_csv_report_has_two_fields_a_row(self, monkeypatch, capsys):
        # a list of records is flattened by index, and a field holding a
        # comma or a quote is quoted
        from polydet import validation

        def records():
            return [validation._record("4 rectangle oracle (1,1)", 0.0, 1.0, 'a "b", c'),
                    validation._record("geometry", 2.0, 1.0)]

        monkeypatch.setitem(validation.SUITES, "stub", [records])
        code, out = run_cli(["--format", "csv", "validate", "stub"], capsys)
        assert code == 3
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["key", "value"]
        assert all(len(row) == 2 for row in rows), rows
        table = dict(rows[1:])
        assert table["records.0.criterion"] == "4 rectangle oracle (1,1)"
        assert table["records.0.detail"] == 'a "b", c'
        assert table["records.1.passed"] == "False"
        assert table["failures"] == "1"


@pytest.mark.parametrize("argv, files, key", [
    (["scmap", "{0}"], [{}], "vertices"),
    (["scmap", "{0}"], [{"vertices": "square"}], "vertices"),
    (["scmap", "{0}"], [{"vertices": [[0, 0], [1, 0, 5], [1, 1], [0, 1]]}], "vertices[1]"),
    (["scmap", "{0}"], [{"vertices": [["a", 0], [1, 0], [1, 1], [0, 1]]}], "vertices[0]"),
    (["scmap", "{0}"], [{"vertices": [[0, 0], [1, 0], [1, float("nan")], [0, 1]]}],
     "vertices[2]"),
    (["scmap", "{0}"], [{"vertices": [[0, 0], [1, 0], [1, 1], [0, float("inf")]]}],
     "vertices[3]"),
    (["scmap", "{0}"], [{"vertices": [[0, 0], [1, 0], [True, 1], [0, 1]]}], "vertices[2]"),
    (["scmap", "{0}"], [{"vertices": [[0, 0], [10**400, 0], [1, 1], [0, 1]]}], "vertices[1]"),
    (["var", "{0}", "{1}"], [{"vertices": _SQUARE}, {}], "vertex_velocities"),
    (["var", "{0}", "{1}"],
     [{"vertices": _SQUARE}, {"vertex_velocities": [[0, 0], [float("nan"), 0], [1, 1], [0, 1]]}],
     "vertex_velocities[1]"),
    (["wz", "{0}"], [{"taylor": [[0, 0], [1]]}], "taylor[1]"),
    (["wz", "{0}"], [{"taylor": [[0, 0], [1, 0], [float("nan"), 0]]}], "taylor[2]"),
    (["wz", "{0}"], [{"coefficients": [[0, 0], [1, 0]]}], "taylor"),
    (["wz", "{0}", "--field", "{1}"],
     [{"taylor": [[0, 0], [1, 0]]}, {"taylor": [[0, 0], [1, None]]}], "taylor[1]"),
    # a file that is missing (None) or cut short is named by its path
    (["scmap", "{0}"], [None], "{0}"),
    (["det", "{0}"], ['{"vertices": [[0, 0], [1, 0], [1,'], "{0}"),
    (["var", "{0}", "{1}"], [None, {"vertex_velocities": _SQUARE}], "{0}"),
    (["var", "{0}", "{1}"], [{"vertices": _SQUARE}, None], "{1}"),
    (["var", "{0}", "{1}"], [{"vertices": _SQUARE}, '{"vertex_velocities": [[0, 0]'], "{1}"),
    (["wz", "{0}"], [None], "{0}"),
    (["wz", "{0}"], ['{"taylor": [[0, 0], [1, 0]]'], "{0}"),
    (["wz", "{0}", "--field", "{1}"], [{"taylor": [[0, 0], [1, 0]]}, None], "{1}"),
    (["wz", "{0}", "--field", "{1}"], [{"taylor": [[0, 0], [1, 0]]}, '{"taylor": '], "{1}")])
def test_malformed_input_file_exits_2_naming_the_key(argv, files, key, tmp_path, capsys):
    # NaN and Infinity are not JSON, but Python's json module reads and writes them
    paths = [tmp_path / f"input{k}.json" for k in range(len(files))]
    for f, d in zip(paths, files):
        if d is not None:
            f.write_text(d if isinstance(d, str) else json.dumps(d))
    assert main([a.format(*paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "ValidationFailure" in err and f"{key.format(*paths)} must be" in err
