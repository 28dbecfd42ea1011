"""The lane protocol shared by RadialDomain and GridDomain."""

import ast
import collections
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from stimcf import build_preset, build_domain
from stimcf import solver as sv
from stimcf import weak_flow as wf
from stimcf.domain import RadialDomain, _gtsv, outer_radius
from stimcf.grid import GridDomain

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "stimcf"
# the modules that define the lane classes
LANE_MODULES = ("domain.py", "grid.py")


def test_no_lane_branches_outside_the_protocol():
    # lane decisions live in the domain classes; a comparison against a
    # `.kind` attribute anywhere in the package is a branch on the lane
    hits = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and any(
                    isinstance(x, ast.Attribute) and x.attr == "kind"
                    for x in [node.left, *node.comparators]):
                hits.append(f"{path.name}:{node.lineno}")
    assert not hits, f"lane branches on .kind: {', '.join(hits)}"


def test_solver_leaves_linear_algebra_to_the_domain():
    # every linear solve goes through dom.solve, so a lane can change how
    # it factorizes without touching the solver
    tree = ast.parse((SRC / "solver.py").read_text())
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        hits += [f"solver.py:{node.lineno} {name}" for name in names
                 if name.split(".")[0] == "scipy"]
    assert not hits, f"scipy imported by the solver: {', '.join(hits)}"


def _import_time_nodes(node):
    # the statements that run when the module is imported: everything but
    # the bodies of functions
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
            yield from _import_time_nodes(child)


def test_no_module_imports_scipy_at_import_time():
    # scipy loads inside the functions that call it, so importing the
    # package, building set-ups and reading records load none of it
    hits = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _import_time_nodes(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            hits += [f"{path.name}:{node.lineno} {name}" for name in names
                     if name.split(".")[0] == "scipy"]
    assert not hits, f"scipy imported at import time: {', '.join(hits)}"


def test_radial_lane_stays_banded():
    # the radial unknowns form a chain: its Jacobian, solve and norm work on
    # the tridiagonal band array and never build a scipy.sparse matrix
    tree = ast.parse((SRC / "domain.py").read_text())
    radial = next(node for node in tree.body if isinstance(node, ast.ClassDef)
                  and node.name == "RadialDomain")
    hits = [f"domain.py:{node.lineno} {node.value.id}.{node.attr}"
            for node in ast.walk(radial) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("sp", "spla")]
    assert not hits, f"sparse calls on the radial lane: {', '.join(hits)}"


def test_enumeration_stays_independent_of_the_hull_routes():
    # exhaustive_minimizers is the reference that the chain scan and Dinic
    # are checked against; a call into either would make the check circular
    tree = ast.parse((SRC / "variational.py").read_text())
    enum = next(node for node in tree.body if isinstance(
        node, ast.FunctionDef) and node.name == "exhaustive_minimizers")
    names = {getattr(node, "id", None) or getattr(node, "attr", None)
             for node in ast.walk(enum)
             if isinstance(node, (ast.Name, ast.Attribute))}
    hits = sorted(names & {"mincut_hull", "_chain_cut", "_dinic_cut",
                           "MaxFlow"})
    assert not hits, f"exhaustive_minimizers uses {', '.join(hits)}"


def test_no_module_changes_the_recursion_limit():
    # the limit is process-wide, and a raise is not undone when the code
    # that raised it fails; deep searches in the package are iterative
    hits = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr == "setrecursionlimit") or (
                    isinstance(node, ast.alias)
                    and node.name == "setrecursionlimit"):
                hits.append(f"{path.name}:{node.lineno}")
    assert not hits, f"recursion limit changed at {', '.join(hits)}"


def test_newton_solve_has_one_recovery_home():
    # after a failed solve the next start is chosen by continuation_solve,
    # from one call site and no loop that walks in eps; no other function
    # calls newton_solve itself, and the sweep retries nothing in a loop of
    # its own
    allowed = {"continuation_solve", "imcf_reference_solve"}
    hits, driver_sites = [], []
    for name in ("solver.py", "weak_flow.py"):
        tree = ast.parse((SRC / name).read_text(), filename=name)
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if owner == "continuation_solve" and isinstance(
                        node, ast.While):
                    hits.append(f"{name}:{node.lineno} walks in a loop")
                if isinstance(node, ast.Call) and "newton_solve" in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    if owner == "continuation_solve":
                        driver_sites.append(node.lineno)
                    elif owner not in allowed:
                        hits.append(f"{name}:{node.lineno} in {owner}")
    assert len(driver_sites) == 1, f"driver solves at lines {driver_sites}"
    for loop in ast.walk(ast.parse((SRC / "weak_flow.py").read_text())):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        for node in ast.walk(loop):
            if isinstance(node, ast.ExceptHandler) and node.type and (
                    "SolverError" in ast.dump(node.type)):
                hits.append(f"weak_flow.py:{node.lineno} retries in a loop")
    assert not hits, f"recovery outside the driver: {', '.join(hits)}"


def test_build_domain_has_one_caller():
    # a run is built from its config in one place, so `stimcf flow` and a
    # reloaded record cannot disagree on the domain
    callers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "build_domain" in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    callers.append(f"{path.stem}."
                                   f"{getattr(top, 'name', '<module>')}")
    assert callers == ["records.build_from_config"]


def test_only_the_continuity_method_starts_a_sweep_chain_cold():
    # one driver solves the (eps, s) family, every rung eagerly: the sweep
    # and the a-priori matrix each call it once, and the solver module
    # hands out no lazy chain
    calls = collections.defaultdict(list)
    for name in ("solver.py", "weak_flow.py"):
        tree = ast.parse((SRC / name).read_text(), filename=name)
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    callee = (getattr(node.func, "id", None)
                              or getattr(node.func, "attr", None))
                    calls[callee].append(getattr(top, "name", "<module>"))
    assert sorted(calls["continuation_solve"]) == [
        "apriori_matrix", "epsilon_sweep"]
    solver = ast.parse((SRC / "solver.py").read_text())
    assert not [node.lineno for node in ast.walk(solver)
                if isinstance(node, (ast.Yield, ast.YieldFrom))]


# public functions that no run calls yet, each with the reason it stays
NO_CALLER_YET = {
    "constraint_densities": "the vacuum test of the maximal Schwarzschild "
                            "slices will read its densities",
    "save_grid_data": "it writes the format that the grid_file key reads",
}
PERFBENCH = SRC.parents[1] / "perfbench"


def _name_counts(tree, strings=False):
    """How often each name or attribute is read in a tree, and with
    `strings` each string constant."""
    counts = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            counts[node.value] += 1
    return counts


def test_every_public_function_has_a_caller():
    # a public top-level function must be referenced outside its own
    # definition: from the package or from the benchmark (spans.py names
    # its targets by string), or be listed in NO_CALLER_YET; a name in
    # stimcf.__all__ is declared, not called.  A private function or method
    # (one leading underscore, at any depth) must be referenced by the
    # package itself outside every definition of that name.
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))]
    package = sum((_name_counts(tree) for tree in trees),
                  collections.Counter())
    outside = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        outside |= set(_name_counts(ast.parse(path.read_text()), strings=True))
    uncalled = [node.name for tree in trees for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and not node.name.startswith("_")
                and node.name not in outside
                and package[node.name] == _name_counts(node)[node.name]]
    assert sorted(set(uncalled) - set(NO_CALLER_YET)) == []
    # an entry that has found a caller leaves the list
    assert sorted(set(NO_CALLER_YET) - set(uncalled)) == []
    own = collections.Counter()
    for tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_")
                    and not node.name.startswith("__")):
                own[node.name] += _name_counts(node)[node.name]
    unused = sorted(name for name in own if package[name] == own[name])
    assert unused == [], f"private functions without a caller: {unused}"


# attributes stored on self that nothing reads yet, each with the reason
NO_READER_YET = {
    "NormalField.vectors": "the outward hull on the grid lane will take its "
                           "gains from the normal directions",
}


def _self_targets(node, owner="self"):
    """Names of the attributes of `owner` that an assignment statement
    stores into, directly or through a subscript."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return []
    return [sub.attr for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name) and sub.value.id == owner]


def _attribute_reads(paths):
    """How often each attribute name is read (loaded) in the files."""
    reads = collections.Counter()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                reads[node.attr] += 1
    return reads


def test_every_stored_attribute_has_a_reader():
    # an attribute that a package class stores on self is read as an
    # attribute somewhere in the package or the benchmark, or is listed in
    # NO_READER_YET; a value that nothing reads is work without a reader
    reads = _attribute_reads(sorted(SRC.glob("*.py"))
                             + sorted(PERFBENCH.glob("*.py")))
    stored = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                stored |= {f"{cls.name}.{attr}" for node in ast.walk(cls)
                           for attr in _self_targets(node)}
    unread = {key for key in stored if not reads[key.split(".")[1]]}
    assert sorted(unread - set(NO_READER_YET)) == []
    # an entry that has found a reader leaves the list
    assert sorted(set(NO_READER_YET) - unread) == []


def test_every_lane_method_has_a_reader():
    # a public method of either lane is read as an attribute by a module of
    # the package other than the lane modules, or by the benchmark; a
    # protocol method that only the lanes or the tests read has no caller
    # in a run
    reads = _attribute_reads(
        [path for path in sorted(SRC.glob("*.py"))
         if path.name not in LANE_MODULES]
        + sorted(PERFBENCH.glob("*.py")))
    assert [pathlib.Path(sys.modules[cls.__module__].__file__).name
            for cls in (RadialDomain, GridDomain)] == list(LANE_MODULES)
    unread = sorted(f"{cls.__name__}.{name}"
                    for cls in (RadialDomain, GridDomain)
                    for name, value in vars(cls).items()
                    if not name.startswith("_")
                    and (callable(value) or isinstance(value, property))
                    and not reads[name])
    assert unread == [], f"lane methods without a reader: {unread}"


def test_a_record_is_built_in_one_place():
    # FlowRecord.__init__ builds every record, the sweep's and the reload's,
    # and detect_jumps, which it calls, stores the jumps; no other code of
    # the package assigns an attribute on a record
    hits = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in ast.walk(tree):
            if isinstance(top, ast.ClassDef) and top.name == "FlowRecord":
                hits += [f"FlowRecord.{fn.name} self.{attr}"
                         for fn in top.body if isinstance(fn, ast.FunctionDef)
                         and fn.name != "__init__"
                         for node in ast.walk(fn)
                         for attr in _self_targets(node)]
            elif (isinstance(top, ast.FunctionDef)
                  and top.name != "detect_jumps"):
                hits += [f"{path.name}:{node.lineno} rec.{attr}"
                         for node in ast.walk(top)
                         for attr in _self_targets(node, "rec")]
    assert not hits, f"records assembled outside the constructor: {hits}"


def test_lane_operators_keep_no_state():
    # the linearization travels from residual to jacobian as a value, so a
    # domain shared by two solves holds nothing from either
    lanes = [cls for name in LANE_MODULES
             for cls in ast.parse((SRC / name).read_text()).body]
    assert {cls.name for cls in lanes if isinstance(cls, ast.ClassDef)} \
        >= {"RadialDomain", "GridDomain"}
    hits = []
    for cls in lanes:
        if not (isinstance(cls, ast.ClassDef)
                and cls.name in ("RadialDomain", "GridDomain")):
            continue
        for fn in cls.body:
            if (isinstance(fn, ast.FunctionDef)
                    and fn.name in ("residual", "jacobian", "_stencil")):
                hits += [f"{cls.name}.{fn.name}:{node.lineno} self.{attr}"
                         for node in ast.walk(fn)
                         for attr in _self_targets(node)]
    assert not hits, f"per-call state on the domain: {', '.join(hits)}"


def test_jacobian_takes_only_the_linearization():
    for cls in (RadialDomain, GridDomain):
        code = cls.jacobian.__code__
        assert code.co_varnames[:code.co_argcount] == ("self", "lin")


# public names of one lane only: the radial lane's level radius, the grid
# lane's cut-fraction floor
LANE_ONLY = {"level_radius", "THETA_MIN"}


def test_lanes_define_the_same_public_names():
    def public(cls):
        return {name for name in vars(cls) if not name.startswith("_")}
    one_sided = public(RadialDomain) ^ public(GridDomain)
    assert sorted(one_sided - LANE_ONLY) == []
    assert sorted(LANE_ONLY - one_sided) == []


@pytest.fixture(scope="module", params=["radial", "grid", "grid_offcentre"])
def lane(request):
    if request.param == "radial":
        return build_domain(build_preset("flat", n=2), {"radius": 1.0},
                            L=4.0, alpha=1.9, h=1 / 64.)
    center = (0.25, 0.0) if request.param == "grid_offcentre" else (0.0, 0.0)
    return build_domain(build_preset("flat", n=1),
                        {"radius": 1.0, "center": center},
                        L=2.2, alpha=0.9, h=1 / 4., mode="grid")


def test_outer_boundary_sits_at_r_out(lane):
    assert lane.r_out == outer_radius(lane.L, lane.alpha, lane.R0)
    assert np.max(lane.radii) <= lane.r_out


def test_fields_cover_the_same_points(lane):
    bc = lane.L - 2.0
    interior = lane.initial_guess(1.0, bc, 0.05)
    assert len(interior) == lane.n_unknowns
    n = len(lane.radii)
    assert len(lane.full_field(interior, bc)) == n
    assert len(lane.metric_gradient(interior, bc)) == n
    assert len(lane.volumes()) == n


def test_volumes_add_up_to_the_domain_volume(lane):
    assert lane.volumes().sum() == pytest.approx(
        lane.feasibility()["volume"], rel=1e-12)


def test_k_is_zero_on_flat_data(lane):
    assert lane.k_is_zero()


def test_k_is_zero_fails_for_anisotropic_data():
    dom = build_domain(build_preset("paper_anisotropic"), {"radius": 1.0},
                       L=4.0, alpha=1.9, h=1 / 64.)
    assert not dom.k_is_zero()


def test_components_split_two_runs(lane):
    r = lane.radii
    lo, hi = r.min(), r.max()
    mask = (r < lo + 0.3 * (hi - lo)) | (r > lo + 0.6 * (hi - lo))
    comps = lane.components(mask)
    assert len(comps) == 2
    assert np.array_equal(np.sort(np.concatenate(comps)), np.where(mask)[0])


def test_boundary_curvatures_on_flat_data(lane):
    # flat data: P = 0 on every boundary; the radial lane reads the exact
    # H = n/r of the centred sphere, a grid lane's contours curve less
    # outside than inside
    bc = lane.L - 2.0
    eps = 0.02
    sol = sv.ScalarSolution(lane, lane.initial_guess(1.0, bc, eps), eps,
                            1.0, bc, 0.0, 0, True, 0.0)
    lo, hi = lane.radii.min(), lane.radii.max()
    jump = wf.JumpRegion(np.arange(3), 0.5 * bc, 0.4 * bc, 0.6 * bc, 1.0,
                         inner_radius=lo + 0.3 * (hi - lo),
                         outer_radius=lo + 0.6 * (hi - lo),
                         truncation_artifact=False)
    H = {}
    for side, radius in (("inner", jump.inner_radius),
                         ("outer", jump.outer_radius)):
        H[side], P = lane.boundary_curvatures(sol, jump, side)
        assert len(H[side]) == len(P) and np.all(P == 0.0)
        if isinstance(lane, RadialDomain):
            assert H[side].tolist() == [lane.n / radius]
    assert np.median(H["inner"]) > np.median(H["outer"])


def test_grid_sweep_matches_the_radial_lane():
    # the same flat n = 1 data on both lanes: a grid sweep at h = 1/4
    # against a radial sweep at h = 1/16
    ids = build_preset("flat", n=1)
    recs = {}
    for mode, h in (("grid", 1 / 4.), ("radial", 1 / 16.)):
        dom = build_domain(ids, {"radius": 1.0}, L=2.2, alpha=0.9, h=h,
                           mode=mode)
        recs[mode] = wf.epsilon_sweep(dom, eps_last=1e-2)
        wf.detect_jumps(recs[mode])
    grid, radial = recs["grid"], recs["radial"]
    assert grid.cauchy_ok
    assert all(not rep.violations for rep in grid.apriori)
    assert wf.interior_extrema(grid)["ok"]
    r = grid.domain.radii
    band = (r >= 1.1) & (r <= 0.6 * grid.domain.r_out)
    u_radial = np.interp(r[band], radial.domain.radii, radial.u)
    # measured 4.8e-2, in the cells next to the cut cells of E0
    assert np.max(np.abs(grid.u[band] - u_radial)) < 0.06


def _spans():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    return spans


def test_benchmark_spans_see_the_radial_newton_layers():
    # the traced benchmark times the operator, the assembly and the linear
    # solve by wrapping them where they are looked up at call time; a solve
    # that bypassed those names would leave its layers reading zero.  An
    # untraced solve runs first, as in the benchmark, so a solve entry that
    # a lane looked up once and kept would be caught here
    from stimcf import solver as sv
    dom = build_domain(build_preset("flat", n=2), {"radius": 1.0}, L=4.0,
                       alpha=1.9, h=1 / 32.)
    assert sv.newton_solve(dom, 0.02, 1.0, bc=dom.L - 2.0).converged
    tracer = _spans().Tracer()
    tracer.install()
    try:
        sol = sv.newton_solve(dom, 0.02, 1.0, bc=dom.L - 2.0)
    finally:
        tracer.uninstall()
    assert sol.converged
    for layer in ("domain.residual", "domain.jacobian",
                  "solver.linear_solve"):
        assert tracer.stats[layer]["calls"] >= 1, layer
    assert tracer.stats["solver.newton_solve"]["calls"] == 1


def test_benchmark_spans_count_every_continuation_rung():
    # the driver returns the trace rows of every rung of both sweep chains,
    # so the traced benchmark counts one rung per Newton solve
    dom = build_domain(build_preset("paper_anisotropic"), {"radius": 1.0},
                       L=4.0, alpha=1.9, h=1 / 32.)
    tracer = _spans().Tracer()
    tracer.install()
    try:
        rec = wf.epsilon_sweep(dom, eps_last=1 / 128.)
    finally:
        tracer.uninstall()
    stats = tracer.stats
    assert len(rec.epsilons) > 1
    assert stats["solver.continuation_solve"]["calls"] == 1
    assert stats["solver.continuation_solve"]["rungs"] \
        == stats["solver.newton_solve"]["calls"] >= 2 * len(rec.epsilons)
    assert stats["solver.continuation_solve"]["failed_rungs"] \
        == stats["solver.newton_solve"]["unconverged"]


SCIPY_LOADED = ("sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy')")
# and the grid lane's modules, which a radial run never loads either
GRID_LOADED = ("[m for m in ('stimcf.grid', 'stimcf.surface_geometry') "
               "if m in sys.modules]")


def test_import_and_set_up_leave_scipy_unloaded():
    # scipy loads where a run calls it: the grid lane, and the radial
    # solve's solve_banded fallback where numpy bundles no dgtsv.  Importing
    # the package and building a radial domain, its radial profile and a set
    # problem in it load no scipy module, no grid lane (nor its mesh code),
    # and no argparse, which only a parsed command line needs
    code = "\n".join([
        "import sys, stimcf, stimcf.cli",
        "from stimcf import build_domain, build_preset",
        "from stimcf import radial_oracle as orc, variational as vr",
        "ids = build_preset('paper_anisotropic')",
        "dom = build_domain(ids, {'radius': 1.0}, L=4.0, alpha=1.9,",
        "                   h=1 / 32.)",
        "orc.RadialProfile.from_initial_data(ids)",
        "vr.radial_set_problem(dom, 1.5, 3.0)",
        f"print({SCIPY_LOADED}, {GRID_LOADED}, 'argparse' in sys.modules)"])
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[] [] False"


def test_record_readers_load_no_scipy(tmp_path):
    # stimcf verify and plotdata read a radial record without solving, so
    # a fresh process running either loads no scipy module and no grid lane
    # or mesh code
    from stimcf import cli
    cfg = tmp_path / "flat.cfg"
    cfg.write_text("preset = flat\nn = 2\ne0_radius_chart = 1.0\n"
                   "level_L_flowtime = 5.0\nalpha_exponent = 1.9\n"
                   "grid_h_chart = 0.03125\neps_last_per_length = 1e-3\n")
    rec = tmp_path / "rec"
    assert cli.main(["flow", "--config", str(cfg), "--out", str(rec)]) == 0
    code = ("import sys; from stimcf import cli; "
            "status = cli.main(sys.argv[1:]); "
            f"print({SCIPY_LOADED}, {GRID_LOADED}); sys.exit(status)")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    for args in (["verify", str(rec)],
                 ["plotdata", str(rec), "--kind", "Q-trace",
                  "--out", str(tmp_path / "plots")]):
        out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, (args[0], out.stdout, out.stderr)
        assert out.stdout.strip().splitlines()[-1] == "[] []", args[0]


# one paper_anisotropic sweep (a K != 0 s-ladder), run the same way in this
# process and in fresh ones; each call builds its own domain, so it solves
# the s = 0 chain too rather than reuse the memo of an earlier call
ANISO_SWEEP = "\n".join([
    "import hashlib, sys",
    "from stimcf import build_domain, build_preset, weak_flow as wf",
    "def u_digest():",
    "    dom = build_domain(build_preset('paper_anisotropic'),",
    "                       {'radius': 1.0}, L=4.0, alpha=1.9, h=1 / 32.)",
    "    rec = wf.epsilon_sweep(dom, eps_last=1 / 128.)",
    "    return hashlib.sha256(rec.solution.interior.tobytes()).hexdigest()"])


def _run_fresh(code, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=120)
    return out.stdout.splitlines()


def test_oracle_loads_no_scipy(tmp_path):
    # the oracle's integrators are numpy alone: a fresh process that flows
    # forward and back to the horizon, sums the arrival time, checks the
    # evolution identities and runs stimcf oracle trajectory loads no scipy
    code = "\n".join([
        "import sys",
        "from stimcf import build_preset, cli, radial_oracle as orc",
        "ids = build_preset('paper_anisotropic')",
        "prof = orc.RadialProfile.from_initial_data(ids)",
        "traj = orc.smooth_flow_ode(prof, 1.5, 1.5)",
        "assert orc.smooth_flow_ode(prof, 1.3, -3.0)['blowup']",
        "orc.level_set_quadrature(prof, 1.5, float(traj['r'][-1]))",
        "orc.evolution_equation_check(prof, traj)",
        "status = cli.main(['oracle', 'trajectory', '--preset', 'flat',",
        "                   '--n', '2', '--out', sys.argv[1]])",
        f"print(status, {SCIPY_LOADED})"])
    assert _run_fresh(code, str(tmp_path / "traj.csv"))[-1] == "0 []"


needs_gtsv = pytest.mark.skipif(_gtsv() is None,
                                reason="numpy bundles no OpenBLAS dgtsv")


@needs_gtsv
def test_radial_run_loads_no_scipy(tmp_path):
    # a radial solve calls numpy's dgtsv, so a fresh process that sweeps or
    # runs stimcf flow on a radial config loads no scipy module and no grid
    # lane or mesh code; this process has scipy.linalg loaded and so solves
    # with solve_banded, and both routes give the same u
    import scipy.linalg  # noqa: F401
    ns = {}
    exec(ANISO_SWEEP, ns)
    cfg = tmp_path / "aniso.cfg"
    cfg.write_text("preset = paper_anisotropic\ne0_radius_chart = 1.0\n"
                   "level_L_flowtime = 4.0\nalpha_exponent = 1.9\n"
                   "grid_h_chart = 0.03125\n"
                   "eps_last_per_length = 0.0078125\n")
    code = "\n".join([
        ANISO_SWEEP, "print(u_digest())",
        f"print({SCIPY_LOADED}, {GRID_LOADED})",
        "from stimcf import cli",
        "status = cli.main(['flow', '--config', sys.argv[1],",
        "                   '--out', sys.argv[2]])",
        f"print(status, {SCIPY_LOADED}, {GRID_LOADED})"])
    lines = _run_fresh(code, str(cfg), str(tmp_path / "rec"))
    assert lines[:2] == [ns["u_digest"](), "[] []"]
    assert lines[-1] == "0 [] []"


@needs_gtsv
def test_missing_gtsv_falls_back_with_the_same_bits():
    # with the dgtsv lookup patched to find nothing, as with a numpy that
    # bundles no OpenBLAS, the sweep loads scipy.linalg and gives the same u
    code = "\n".join([
        ANISO_SWEEP,
        "print(u_digest(), 'scipy.linalg' in sys.modules)",
        "from stimcf import domain",
        "domain._gtsv = lambda: None",
        "print(u_digest(), 'scipy.linalg' in sys.modules)"])
    binding, fallback = _run_fresh(code)
    assert binding.split()[1] == "False" and fallback.split()[1] == "True"
    assert binding.split()[0] == fallback.split()[0]


def test_radial_run_leaves_scipy_sparse_unloaded():
    # scipy.sparse loads with the grid lane: a radial sweep never imports
    # it, and a grid domain built afterwards still solves, and finds its
    # plateaus without scipy.ndimage
    code = "\n".join([
        "import sys, stimcf, stimcf.cli",
        "from stimcf import build_domain, build_preset, weak_flow as wf",
        "dom = build_domain(build_preset('flat', n=2), {'radius': 1.0},",
        "                   L=6.0, alpha=1.9, h=1 / 32.)",
        "wf.epsilon_sweep(dom, eps_last=1e-3)",
        "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))",
        "grid = build_domain(build_preset('flat', n=1), {'radius': 1.0},",
        "                    L=2.2, alpha=0.9, h=0.5, mode='grid')",
        "print(wf.epsilon_sweep(grid, eps_last=1e-2).solution.converged,",
        "      'scipy.ndimage' in sys.modules)"])
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.split("\n")[:2] == ["[]", "True False"]
