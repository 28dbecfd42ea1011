"""The benchmark workloads: inputs, operations and the tier-1 gates.

Each workload has a setup(seed, scratch) that builds its inputs (presets,
domains, set problems, config files) and a list of operations.  An
operation returns (ok, values, detail): ok is the conjunction of the tier-1
gates it applies, values are the acceptance numbers and output digests that
must repeat bit for bit between passes.  An operation that raises counts as
failed.  Gates, grids, eps lists, resolutions and tolerances are those of
tests/test_acceptance.py, tests/test_variational.py and tests/test_cli.py.
"""

import contextlib
import hashlib
import io
import os

import numpy as np

from stimcf import build_domain, build_preset
from stimcf import asymptotics as asym
from stimcf import cli
from stimcf import radial_oracle as orc
from stimcf import records
from stimcf import solver as sv
from stimcf import surface_geometry as sg
from stimcf import variational as vr
from stimcf import weak_flow as wf


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


# -- sweeps: the six records of the acceptance fixture ------------------------

QUAD_TOL = 5e-3          # criterion 6 quadrature tolerance


def sweeps_setup(seed, scratch):
    ids_flat = build_preset("flat", n=2)
    ids_a = build_preset("paper_anisotropic")
    ids_s = build_preset("schwarzschild_isotropic", m=1.0)
    ids_s25 = build_preset("schwarzschild_isotropic", m=0.25)
    aniso = build_domain(ids_a, {"radius": 1.0}, L=8.4, alpha=1.9, h=1 / 128.)
    return {
        "ids_a": ids_a,
        "profile_a": orc.RadialProfile.from_initial_data(ids_a),
        "flat64": build_domain(ids_flat, {"radius": 1.0}, L=6.0, alpha=1.9,
                               h=1 / 64.),
        "flat128": build_domain(ids_flat, {"radius": 1.0}, L=6.0, alpha=1.9,
                                h=1 / 128.),
        "aniso": aniso,
        "aniso_fr": aniso,
        "schw_jump": build_domain(ids_s, {"radius": 0.4}, L=4.0, alpha=1.5,
                                  h=1 / 256.),
        "schw_deep": build_domain(ids_s25, {"radius": 1.0}, L=8.2, alpha=1.7,
                                  h=1 / 64.),
        "records": {},
    }


SWEEP_EPS_LAST = {"flat64": 1e-3, "flat128": 1e-3, "aniso": 1e-4,
                  "aniso_fr": 1e-4, "schw_jump": 3e-5, "schw_deep": 1e-4}


def _flat_sup_err(rec):
    r = rec.domain.r
    band = (r >= 1.2) & (r <= 3.0)
    return float(np.max(np.abs(rec.u[band] - 2 * np.log(r[band]))))


def _criterion_3(rec):
    gap = rec.u - rec.imcf.full_field() - 1e-6 * (1 + np.abs(rec.u))
    worst = float(np.max(gap))
    return worst <= 0, worst


def _criterion_6(rec):
    tr = vr.monotone_quantity(rec)
    dq = np.diff(tr["Q"])
    drop = min(0.0, float(np.min(dq / np.maximum(tr["Q"][:-1], 1e-12))))
    t_start = (rec.jumps[0].t_hi + 0.3) if rec.jumps else 0.2
    sm = tr["t"] > t_start
    sm[:2] = sm[-2:] = False      # one-sided gradient ends excluded
    ratio = tr["dQ_dt"][sm] / tr["predicted"][sm]
    match = float(np.max(np.abs(ratio - 1)))
    lower = float(np.min(tr["dQ_dt"][sm] / tr["area"][sm]))
    ok = drop >= -2 * QUAD_TOL and match < 0.05 and lower >= 0.95
    return ok, match, (f"crit6 min dQ/Q {drop:.2e} mismatch {match:.3%} "
                       f"dQ/dt/|Sigma| {lower:.3f}")


def _blowdown(rec):
    bt = asym.blowdown_compare(rec, [1.0, 0.5, 0.25, 0.125])
    return bt.nonincreasing() and bt.errors[-1] < 0.1, list(bt.errors)


def _sweep_op(key):
    def op(inp):
        dom = inp[key]
        if key == "aniso_fr":
            rec = wf.frauendiener_solve(dom, eps_last=SWEEP_EPS_LAST[key])
        else:
            rec = wf.epsilon_sweep(dom, eps_last=SWEEP_EPS_LAST[key])
        wf.detect_jumps(rec)
        wf.reconstruct_normal_field(rec)
        inp["records"][key] = rec
        ok3, dom_margin = _criterion_3(rec)
        gates = {"crit3": ok3}
        values = {"u": _digest(rec.u), "crit3_margin": dom_margin}
        notes = [f"crit3 margin {dom_margin:.2e}"]
        if key in ("flat64", "aniso", "schw_jump", "schw_deep"):
            gates["crit6"], values["q_deriv_mismatch"], note = _criterion_6(rec)
            notes.append(note)
        if key == "flat64":
            rel = _flat_sup_err(rec) / (2 * np.log(3.0))
            gates["crit1"] = rel < 0.02
            values["flat_rel_err"] = rel
            notes.append(f"crit1 rel err {rel:.2e}")
        if key == "flat128":
            factor = (_flat_sup_err(inp["records"]["flat64"])
                      / _flat_sup_err(rec))
            gates["crit1"] = factor >= 3.0
            values["refinement_factor"] = factor
            notes.append(f"crit1 refinement factor {factor:.2f}")
        if key == "aniso":
            mesh = sg.icosphere(radius=1.0, subdivisions=4)
            sg.populate_diagnostics(inp["ids_a"], mesh,
                                    level_set=sg.sphere_level_set([0, 0, 0]))
            H_med = float(np.median(mesh.H))
            P_med = float(np.median(mesh.P))
            r_star = orc.horizon_root(inp["profile_a"])
            jumps = rec.jumps
            hr = wf.verify_horizon(rec, jumps[0])
            rad_err = abs(jumps[0].outer_radius - r_star) / r_star
            gates["crit2"] = (abs(H_med - 2.0) / 2.0 < 0.01
                              and abs(-P_med - 3.0) / 3.0 < 0.01
                              and len(jumps) == 1
                              and abs(jumps[0].value) < 20 * rec.eps_last
                              and rad_err < 0.02
                              and hr.max_rel_residual < 0.03)
            values["horizon_rel_err"] = rad_err
            values["horizon_residual"] = hr.max_rel_residual
            notes.append(f"crit2 radius err {rad_err:.3%} residual "
                         f"{hr.max_rel_residual:.3%}")
        if key in ("aniso", "schw_deep", "aniso_fr"):
            gates["crit7" if key != "aniso_fr" else "crit9_blowdown"], errs = \
                _blowdown(rec)
            values["blowdown"] = errs
            notes.append(f"blowdown {np.round(errs, 5).tolist()}")
        if key == "aniso_fr":
            ja, jf = inp["records"]["aniso"].jumps[0], rec.jumps[0]
            h = dom.h
            gap_out = abs(ja.outer_radius - jf.outer_radius)
            gap_in = abs(ja.inner_radius - jf.inner_radius)
            gates["crit9"] = gap_out <= h and gap_in <= h
            values["jump_gaps"] = [gap_in, gap_out]
            notes.append(f"crit9 gaps ({gap_in:.2e}, {gap_out:.2e})")
        missed = [g for g, passed in gates.items() if not passed]
        if missed:
            notes.insert(0, "missed " + ",".join(missed))
        return not missed, values, "; ".join(notes)
    return key, op


SWEEPS = [_sweep_op(key) for key in
          ("flat64", "flat128", "aniso", "aniso_fr", "schw_jump", "schw_deep")]


# -- apriori: the criterion-4 matrix -----------------------------------------

APRIORI_CASES = [
    ("flat", {"n": 2}, 1.0, 4.0, 1.9),
    ("schwarzschild_isotropic", {"m": 0.5}, 0.3, 4.0, 1.5),
    ("schwarzschild_isotropic", {"m": 1.0}, 0.6, 4.0, 1.5),
    ("paper_anisotropic", {}, 1.0, 4.0, 1.9),
]
APRIORI_EPS = list(np.geomspace(3e-2, 3e-5, 7))   # three decades
APRIORI_S = [0.25, 0.5, 0.75, 1.0]


def _case_key(name, kw):
    return name + "".join(f"_{k}{v}" for k, v in kw.items())


def apriori_setup(seed, scratch):
    out = {}
    for name, kw, e0, L, alpha in APRIORI_CASES:
        ids = build_preset(name, **kw)
        out[_case_key(name, kw)] = build_domain(ids, {"radius": e0}, L=L,
                                                alpha=alpha, h=1 / 128.)
    return out


def _apriori_op(key):
    def op(inp):
        dom = inp[key]
        reports = sv.apriori_matrix(dom, APRIORI_S, APRIORI_EPS)
        violations = []
        for (eps, s), rep in reports.items():
            hard = [v for v in rep.violations
                    if v.startswith(("(i)", "(ii)"))]
            if rep.measured["min_u"] < -eps - 1e-8 * (1 + rep.solution.bc):
                hard.append("min_u")
            if rep.measured["max_u"] > rep.solution.bc + 1e-8 * (
                    1 + rep.solution.bc):
                hard.append("max_u")
            if hard:
                violations.append((eps, s, hard))
        total = len(reports)
        ok = not violations and total == len(APRIORI_EPS) * len(APRIORI_S)
        digest = _digest(*[reports[k].solution.interior
                           for k in sorted(reports)])
        return ok, {"solves": total, "violations": len(violations),
                    "u": digest}, (f"{total} solves, {len(violations)} "
                                   "violations of u >= -eps / u <= s(L-2)")
    return key, op


APRIORI = [_apriori_op(_case_key(name, kw))
           for name, kw, _, _, _ in APRIORI_CASES]


# -- hull_verify: hull, set problems, oracle and the command line -------------

N_RANDOM_PROBLEMS = 50

ANISO_CFG = """\
preset = paper_anisotropic
e0_radius_chart = 1.0
level_L_flowtime = 6.0
alpha_exponent = 1.9
grid_h_chart = 0.0078125
eps_last_per_length = 1e-4
"""


def random_problem(rng, n_free):
    """Small random cell complex: a path-ish graph with random extra edges,
    random positive weights and gains; cells: [core, free..., excluded]."""
    n = n_free + 2
    core = np.zeros(n, bool)
    core[0] = True
    free = np.zeros(n, bool)
    free[1:-1] = True
    pairs = [(i, i + 1) for i in range(n - 1)]
    extra = rng.integers(0, n, size=(n_free, 2))
    pairs += [tuple(p) for p in extra if p[0] != p[1]]
    weights = rng.uniform(0.2, 2.0, size=len(pairs))
    boundary = rng.uniform(0.0, 0.5, size=n) * free
    gains = rng.uniform(0.0, 1.6, size=n) * free
    return vr.SetProblem(n, np.array(pairs), weights, boundary, gains,
                         core, free)


def hull_setup(seed, scratch):
    rng = np.random.default_rng(seed)
    # sizes cycle over the tier-1 range 4..20 so that the enumeration cost,
    # which doubles per free cell, does not depend on the seed
    problems = [random_problem(rng, 4 + k % 17)
                for k in range(N_RANDOM_PROBLEMS)]
    ids_a = build_preset("paper_anisotropic")
    cfg = os.path.join(scratch, "aniso.cfg")
    with open(cfg, "w") as fh:
        fh.write(ANISO_CFG)
    return {
        "seed": seed,
        "aniso": build_domain(ids_a, {"radius": 1.0}, L=8.4, alpha=1.9,
                              h=1 / 128.),
        "profile_a": orc.RadialProfile.from_initial_data(ids_a),
        "profiles": {
            "flat": orc.RadialProfile.from_initial_data(
                build_preset("flat", n=2)),
            "paper_anisotropic": orc.RadialProfile.from_initial_data(ids_a),
        },
        "problems": problems,
        "config": cfg,
        "record": os.path.join(scratch, "record"),
    }


def _radial_hull(inp):
    dom = inp["aniso"]
    prob = vr.radial_set_problem(dom, core_radius=1.0 + dom.h,
                                 omega_radius=3.0)
    mask, val = vr.mincut_hull(prob)
    sel = np.where(mask)[0]
    r_hull = prob.shell_centers[sel[-1]] + dom.h / 2
    r_star = orc.horizon_root(inp["profile_a"])
    gap = abs(r_hull - r_star)
    cells = gap / dom.h
    return gap <= dom.h, {"hull_gap_cells": cells, "value": val,
                          "mask": _digest(mask)}, (
        f"hull radius {r_hull:.5f} vs oracle {r_star:.5f}: gap {cells:.3f} "
        "cells (gate 1)")


def _random_op(k):
    def op(inp):
        prob = inp["problems"][k]
        best, masks, minimal = vr.exhaustive_minimizers(prob)
        mask, val = vr.mincut_hull(prob)
        ok = abs(val - best) < 1e-9 and np.array_equal(mask, minimal)
        return ok, {"best": best, "value": val, "mask": _digest(mask)}, (
            f"{int(prob.free.sum())} free cells, value gap {val - best:.1e}")
    return f"random{k:02d}", op


def _oracle_op(name, r0):
    def op(inp):
        prof = inp["profiles"][name]
        traj = orc.smooth_flow_ode(prof, r0, 1.5)
        worst_inverse = 0.0
        for t in np.linspace(0.15, traj["t"][-1], 6):
            r_t = traj["sol"].sol(t)[0]
            u = orc.level_set_quadrature(prof, r0, r_t)
            worst_inverse = max(worst_inverse, abs(u - t) / max(t, 1e-12))
        worst_res = max(orc.evolution_equation_check(prof, traj).values())
        ok = worst_inverse < 1e-6 and worst_res < 1e-3
        return ok, {"inverse": worst_inverse, "residual": worst_res}, (
            f"u(r(t))=t rel err {worst_inverse:.1e}; evolution residual "
            f"{worst_res:.1e}")
    return f"oracle_{name}", op


def _cli_op(inp):
    out = inp["record"]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        flow = cli.main(["flow", "--config", inp["config"], "--out", out])
        verify = cli.main(["verify", out])
    rec = records.load_record(out)
    wf.detect_jumps(rec)
    wf.reconstruct_normal_field(rec)
    rep = vr.minimality_test(rec, n_random=60, seed=inp["seed"])
    with open(os.path.join(out, "manifest.txt")) as fh:
        manifest = hashlib.sha256(fh.read().encode()).hexdigest()[:16]
    ok = flow == 0 and verify == 0 and rep.ok
    return ok, {"flow": flow, "verify": verify, "manifest": manifest,
                "minimality_failures": len(rep.failures)}, (
        f"flow status {flow}, verify status {verify}, seeded minimality "
        f"{len(rep.rows)} competitors, {len(rep.failures)} failures")


HULL_VERIFY = ([("radial_hull", _radial_hull)]
               + [_random_op(k) for k in range(N_RANDOM_PROBLEMS)]
               + [_oracle_op("flat", 1.0),
                  _oracle_op("paper_anisotropic", 1.5),
                  ("cli_flow_verify", _cli_op)])


WORKLOADS = {
    "sweeps": (sweeps_setup, SWEEPS),
    "apriori": (apriori_setup, APRIORI),
    "hull_verify": (hull_setup, HULL_VERIFY),
}
