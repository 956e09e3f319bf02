"""In-memory span tracer installed around polydet's module functions.

Each wrapped call records one span: a name, start and end times, the span
that was open when it started, and one number taken from its arguments or
result (eigenvalues found, basis entries, quadrature points).  Spans are
kept in flat arrays and summarised, and optionally saved, once the run ends.

A name is patched in every polydet module that binds it, because a
``from .scmap import sc_derivative`` copy in varform would otherwise
bypass the wrapper.  eigensolve reaches QR and SVD through its ``la``
module alias, which is replaced by a proxy for the duration of the trace.
"""

import functools
import sys
import time
from array import array

import numpy as np

# stages of an MPS sweep; a sigma evaluation belongs to the innermost one
STAGES = ("grid", "refine", "cover", "audit", "rescan")
_STAGE_OF_SPAN = {
    "eigensolve.sigma_batch": "grid",   # unless inside a rescan, see summary()
    "eigensolve.refine": "refine",
    "eigensolve.cover": "cover",
    "eigensolve.audit": "audit",
    "eigensolve.rescan": "rescan",
}


def _n_eigs(args, out):
    return len(out.eigenvalues)


def _entries(args, out):
    return out.shape[0] * out.shape[1]


def _points(args, out):
    return np.size(args[1])


class _LinalgProxy:
    """Stands in for scipy.linalg inside eigensolve with qr and svd wrapped."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._stack = [-1]
        self._undo = []

    # -- recording ------------------------------------------------------------
    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, value=None):
        nid = self._id(name)
        name_id, parent, start, end, val = (self.name_id, self.parent, self.start,
                                            self.end, self.value)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            val.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if value is not None:
                val[idx] = value(args, out)
            return out

        traced.__wrapped_by_tracer__ = fn
        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span of its own (the benchmark's operation spans)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- patching -------------------------------------------------------------
    def _set(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch_function(self, module, attr, name, value=None):
        """Wrap module.attr in every loaded polydet module that binds it."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, value)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "polydet" and mod.__dict__.get(attr) is original:
                self._set(mod, attr, wrapped)

    def patch_method(self, cls, attr, name, value=None):
        self._set(cls, attr, self.wrap(name, cls.__dict__[attr], value))

    def install(self):
        from polydet import cli, eigensolve, scmap, smoothwz, varform, zetadet

        E = eigensolve
        self.patch_function(cli, "main", "cli.main")
        self.patch_function(zetadet, "zeta_logdet", "zetadet.logdet")

        self.patch_function(E, "dirichlet_eigenvalues", "eigensolve.dirichlet")
        self.patch_function(E, "hadamard_eigenvalue_variation", "eigensolve.hadamard_eigvar")
        self.patch_method(E.MPSSolver, "__init__", "eigensolve.init")
        self.patch_method(E.MPSSolver, "solve", "eigensolve.solve", _n_eigs)
        self.patch_method(E.MPSSolver, "sigmas", "eigensolve.sigmas")
        self.patch_method(E.MPSSolver, "_sigma_batch", "eigensolve.sigma_batch")
        self.patch_method(E.MPSSolver, "_refine_checked", "eigensolve.refine")
        self.patch_method(E.MPSSolver, "_refine_golden", "eigensolve.golden")
        self.patch_method(E.MPSSolver, "_cover_low_intervals", "eigensolve.cover")
        self.patch_method(E.MPSSolver, "_audit_gaps", "eigensolve.audit")
        self.patch_method(E.MPSSolver, "_rescan", "eigensolve.rescan")
        self.patch_method(E.MPSSolver, "eigenfunction", "eigensolve.eigfunc")
        self.patch_method(E._CornerBasis, "matrix", "eigensolve.basis_matrix", _entries)
        self.patch_method(E._CornerBasis, "gradient", "eigensolve.gradient")
        self.patch_method(E._BesselTable, "evaluate", "eigensolve.bessel_eval")
        la = E.la
        self._set(E, "la", _LinalgProxy(la, qr=self.wrap("eigensolve.qr", la.qr),
                                        svd=self.wrap("eigensolve.svd", la.svd)))

        self.patch_function(scmap, "solve_parameter_problem", "scmap.solve")
        self.patch_function(scmap, "_mapped_side_lengths", "scmap.side_lengths")
        self.patch_function(scmap, "integrate_sc_segment", "scmap.segment")
        self.patch_function(scmap, "sc_derivative", "scmap.sc_derivative")
        self.patch_function(scmap, "schwarzian_xz", "scmap.schwarzian")
        self.patch_function(scmap, "_local_regular_factor", "scmap.regular_factor")

        self.patch_function(varform, "main_formula", "varform.main_formula")
        self.patch_function(varform, "hadamard_boundary_integral", "varform.hadamard")
        self.patch_function(varform, "_near_contributions", "varform.near")
        self.patch_method(varform._NearVertex, "rho", "varform.rho", _points)
        self.patch_function(varform, "_local_regular_factor_left",
                            "varform.regular_factor_left")
        self.patch_function(varform, "_far_part_finite_side", "varform.far")
        self.patch_function(varform, "_far_part_infinite_side", "varform.far")
        self.patch_function(varform, "contour_shift_integral", "varform.contour")

        self.patch_function(smoothwz, "wz_variation", "smoothwz.wz")
        self.patch_function(smoothwz, "alvarez_logdet", "smoothwz.alvarez")

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results --------------------------------------------------------------
    def arrays(self):
        names = np.asarray(self.names, dtype=object)
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        return {
            "name": names[nid] if len(nid) else np.empty(0, dtype=object),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
            "value": np.frombuffer(self.value, dtype=float),
        }

    def save(self, path):
        a = self.arrays()
        np.savez_compressed(path, name=a["name"].astype(str), parent=a["parent"],
                            start=a["start"], end=a["end"], value=a["value"])

    def summary(self):
        """Per-span-name calls, inclusive and self time, and per-stage figures.

        Self time is a span's duration minus that of its direct children, so
        the self times of all spans add up to the duration of the root spans.
        """
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        by_name = {}
        for nm in set(name):
            sel = name == nm
            by_name[nm] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()),
                           "self_s": float(self_time[sel].sum()),
                           "value": float(a["value"][sel].sum())}

        # innermost stage of every span; parents precede children
        stage = [None] * len(dur)
        stage_self = dict.fromkeys(STAGES, 0.0)
        stage_evals = dict.fromkeys(STAGES + ("other",), 0)
        for i in range(len(dur)):
            p = parent[i]
            inherited = stage[p] if p >= 0 else None
            own = _STAGE_OF_SPAN.get(name[i])
            if own == "grid" and inherited == "rescan":
                own = None              # the rescan's fine grid belongs to the rescan
            if own is not None:
                stage[i] = own
                stage_self[own] += dur[i]
                if inherited is not None:
                    stage_self[inherited] -= dur[i]
            else:
                stage[i] = inherited
            if name[i] == "eigensolve.sigmas":
                stage_evals[stage[i] or "other"] += 1
        return {"by_name": by_name, "stage_s": stage_self, "stage_evals": stage_evals,
                "root_s": float(dur[~has_parent].sum()), "self_sum_s": float(self_time.sum()),
                "spans": int(len(dur))}
