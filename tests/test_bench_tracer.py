"""The benchmark's span tracer patches polydet functions and methods by name.

A renamed or folded function makes its install raise, which only the
benchmark's own checks would otherwise show; this test installs it and
checks that uninstall puts every patched name back.  The test session also
runs with BLAS pinned as the benchmark pins it, read the way the benchmark
reads it.
"""

import importlib
import inspect
import os
import sys
from pathlib import Path

import polydet.cli  # noqa: F401  (loads every module the tracer patches)

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _namespaces():
    """Every loaded polydet module and every class defined in one."""
    mods = [m for name, m in sys.modules.items() if name.split(".")[0] == "polydet"]
    classes = [obj for m in mods for obj in vars(m).values()
               if inspect.isclass(obj) and obj.__module__.startswith("polydet")]
    return mods + classes


def test_tracer_installs_and_uninstall_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")

    owners = _namespaces()
    before = [dict(vars(o)) for o in owners]
    t = tracer.Tracer()
    try:
        t.install()
        patched = list(t._undo)
        assert patched
        for owner, attr, old in patched:
            assert vars(owner)[attr] is not old
    finally:
        t.uninstall()
    for owner, attr, old in patched:
        assert vars(owner)[attr] is old, f"{owner.__name__}.{attr}"
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert now.keys() == saved.keys()
        assert all(now[k] is v for k, v in saved.items()), owner.__name__


def test_session_runs_with_blas_pinned(monkeypatch):
    # importing the benchmark's runner sets these; monkeypatch restores them
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "POLYDET_CACHE"):
        if name in os.environ:
            monkeypatch.setenv(name, os.environ[name])
        else:
            monkeypatch.delenv(name, raising=False)
    monkeypatch.syspath_prepend(str(BENCH))
    want = int(os.environ["OPENBLAS_NUM_THREADS"])
    threads = importlib.import_module("run").blas_threads()
    assert all(int(n) == want for n in threads.values()), threads
