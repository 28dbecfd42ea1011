"""Span recorder for the traced benchmark run.

Wrappers are installed where each name is looked up at call time: solver
and pipeline functions as module attributes of their stimcf module (and of
any stimcf module that imported the same function object by name), the
RadialDomain operators on the class, and the scipy solve entries on the
scipy.sparse.linalg / scipy.linalg module objects.  Every wrapper returns the
wrapped call's result unchanged.

A span is (id, name, start, end, parent id, op).  Self time is a span's
duration minus the time its child spans cover; calls run on one thread, so
children never overlap and that is the sum of the direct children.
"""

import functools
import json
import sys
import time


def _rows_first_shape(args, kwargs):
    return int(args[0].shape[0])


def _rows_banded(args, kwargs):
    b = args[2] if len(args) > 2 else kwargs["b"]
    return int(len(b))


def _count_newton(st, args, kwargs, sol):
    st["iters"] += sol.iterations
    st["unconverged"] += 0 if sol.converged else 1


def _count_continuation(st, args, kwargs, out):
    rows = out[1]
    st["rungs"] += len(rows)
    st["failed_rungs"] += sum(1 for row in rows if not row[3])


def _count_cells(st, args, kwargs, out):
    problem = args[0] if args else kwargs["problem"]
    st["cells"] += int(problem.n_cells)


# (layer name, module, attribute, hook); hook(stats, args, kwargs, result)
# adds the layer's own counters after a call returns
PIPELINE = [
    ("solver.newton_solve", "stimcf.solver", "newton_solve", _count_newton),
    ("solver.continuation_solve", "stimcf.solver", "continuation_solve",
     _count_continuation),
    ("solver.imcf_reference_solve", "stimcf.solver", "imcf_reference_solve",
     None),
    ("solver.apriori_matrix", "stimcf.solver", "apriori_matrix", None),
    ("solver.apriori_monitor", "stimcf.solver", "apriori_monitor", None),
    ("weak_flow.epsilon_sweep", "stimcf.weak_flow", "epsilon_sweep", None),
    ("weak_flow.detect_jumps", "stimcf.weak_flow", "detect_jumps", None),
    ("weak_flow.reconstruct_normal_field", "stimcf.weak_flow",
     "reconstruct_normal_field", None),
    ("weak_flow.verify_horizon", "stimcf.weak_flow", "verify_horizon", None),
    ("variational.mincut_hull", "stimcf.variational", "mincut_hull",
     _count_cells),
    ("variational.exhaustive_minimizers", "stimcf.variational",
     "exhaustive_minimizers", None),
    ("variational.monotone_quantity", "stimcf.variational",
     "monotone_quantity", None),
    ("variational.minimality_test", "stimcf.variational", "minimality_test",
     None),
    ("asymptotics.blowdown_compare", "stimcf.asymptotics", "blowdown_compare",
     None),
    ("radial_oracle.smooth_flow_ode", "stimcf.radial_oracle",
     "smooth_flow_ode", None),
    ("radial_oracle.level_set_quadrature", "stimcf.radial_oracle",
     "level_set_quadrature", None),
    ("radial_oracle.horizon_root", "stimcf.radial_oracle", "horizon_root",
     None),
    ("records.save_record", "stimcf.records", "save_record", None),
    ("records.load_record", "stimcf.records", "load_record", None),
    ("cli.flow", "stimcf.cli", "cmd_flow", None),
    ("cli.verify", "stimcf.cli", "cmd_verify", None),
]

# every scipy solve entry the package can reach counts as one linear solve
LINEAR_SOLVES = [
    ("scipy.sparse.linalg", "spsolve", _rows_first_shape),
    ("scipy.sparse.linalg", "splu", _rows_first_shape),
    ("scipy.sparse.linalg", "factorized", _rows_first_shape),
    ("scipy.sparse.linalg", "bicgstab", _rows_first_shape),
    ("scipy.linalg", "solve_banded", _rows_banded),
]

LAYERS = (["domain.residual", "domain.jacobian", "solver.linear_solve"]
          + [name for name, _, _, _ in PIPELINE])

EXTRA_COUNTERS = {
    "solver.linear_solve": ("rows",),
    "solver.newton_solve": ("iters", "unconverged"),
    "solver.continuation_solve": ("rungs", "failed_rungs"),
    "variational.mincut_hull": ("cells",),
}


class _TracedLU:
    """SuperLU factor whose solve() calls count as linear solves."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class Tracer:
    def __init__(self):
        self.spans = []
        self.reset_counts()
        self.op = None
        self._stack = []
        self._next_id = 0
        self._installed = []

    def reset_counts(self):
        """Zero the per-layer counters; spans are kept."""
        self.stats = {}
        for name in LAYERS:
            self.stats[name] = {"calls": 0, "s": 0.0, "failed": 0}
            for key in EXTRA_COUNTERS.get(name, ()):
                self.stats[name][key] = 0

    def wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1][1] == name:
                # an entry that calls another entry of the same layer
                return fn(*args, **kwargs)
            st = tracer.stats[name]
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, name, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                st["failed"] += 1
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                st["calls"] += 1
                st["s"] += (t1 - t0) - frame[2]
                if parent is not None:
                    parent[2] += t1 - t0
                tracer.spans.append((frame[0], name, t0, t1,
                                     None if parent is None else parent[0],
                                     tracer.op))
            if hook is not None:
                hook(st, args, kwargs, out)
            return out

        return wrapper

    def _patch(self, owner, attr, new):
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        import importlib
        import stimcf.domain
        pkg_modules = [m for key, m in sys.modules.items()
                       if m is not None
                       and (key == "stimcf" or key.startswith("stimcf."))]
        cls = stimcf.domain.RadialDomain
        self._patch(cls, "residual", self.wrap("domain.residual", cls.residual))
        self._patch(cls, "jacobian", self.wrap("domain.jacobian", cls.jacobian))
        targets = []
        for name, modname, attr, hook in PIPELINE:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            targets.append((mod, attr, orig, self.wrap(name, orig, hook)))
        for modname, attr, rows in LINEAR_SOLVES:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            targets.append((mod, attr, orig,
                            self._wrap_linear(orig, attr, rows)))
        for mod, attr, orig, new in targets:
            self._patch(mod, attr, new)
            # the same function imported by name into another module
            for other in pkg_modules:
                for key, val in list(vars(other).items()):
                    if val is orig:
                        self._patch(other, key, new)

    def _wrap_linear(self, fn, attr, rows):
        def hook(st, args, kwargs, out):
            st["rows"] += rows(args, kwargs)

        traced = self.wrap("solver.linear_solve", fn, hook)
        if attr not in ("splu", "factorized"):
            return traced

        # factorizations: also count each solve with the returned factor
        @functools.wraps(fn)
        def factor(*args, **kwargs):
            out = traced(*args, **kwargs)
            n = rows(args, kwargs)

            def solve_hook(st, a, kw, res):
                st["rows"] += n

            if attr == "factorized":
                return self.wrap("solver.linear_solve", out, solve_hook)
            return _TracedLU(out, self.wrap("solver.linear_solve", out.solve,
                                            solve_hook))

        return factor

    def uninstall(self):
        while self._installed:
            owner, attr, orig = self._installed.pop()
            setattr(owner, attr, orig)

    def metrics(self):
        """Per-layer metrics of the counted calls, name -> (value, unit)."""
        out = {}
        for name in LAYERS:
            st = self.stats[name]
            out[f"{name}.calls"] = (st["calls"], "count")
            out[f"{name}.s"] = (st["s"], "s")
            out[f"{name}.failed"] = (st["failed"], "count")
            for key in EXTRA_COUNTERS.get(name, ()):
                out[f"{name}.{key}"] = (st[key], "count")
        ls = self.stats["solver.linear_solve"]
        out["solver.linear_solve.us_per_row"] = (
            1e6 * ls["s"] / ls["rows"] if ls["rows"] else 0.0, "us")
        nw = self.stats["solver.newton_solve"]
        out["solver.newton_solve.useful_ratio"] = (
            (nw["calls"] - nw["unconverged"]) / nw["calls"]
            if nw["calls"] else 0.0, "ratio")
        out["solver.extra_jacobians"] = (
            self.stats["domain.jacobian"]["calls"]
            - (nw["iters"] + nw["calls"]), "count")
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent, "op": op})
                         + "\n")
