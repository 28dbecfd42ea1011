"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Quantitative gates (all radial-lane records; the grid lane is exercised in
the module tests):
  1. flat expanding spheres at h = 1/64 within 2 percent, >= 3x under h/2
  2. trapped-example values H = 2, |P| = 3, jump at t = 0, horizon radius
     within 2 percent of the root of 2/r = 6/(1 + r^6), residual < 3 percent
  3. pointwise domination by the K-free reference on every converged run
  4. a-priori window clean over (data, eps over 3 decades, s-grid)
  5. min-cut hull == exhaustive enumeration on 50 random instances; hull of
     the unit ball == flow horizon within one cell
  6. Q(t) nondecreasing; smooth-stretch derivative matches within 5 percent
  7. blowdown errors strictly decreasing (above the declared floor) and
     below 0.1 at lambda = 1/8
  8. oracle arrival/flow inverse identity to 1e-6; evolution residuals 1e-3
  9. projected-flow variant: same jump set within one cell; blowdown as in 7
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from stimcf import build_preset, build_domain
from stimcf import weak_flow as wf
from stimcf import variational as vr
from stimcf import asymptotics as asym
from stimcf import radial_oracle as orc
from stimcf import solver as sv
from stimcf import surface_geometry as sg
from stimcf.radial_oracle import sphere_area


def report(criterion, passed, detail=""):
    print(f"[acceptance] criterion {criterion}: "
          f"{'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def oracle_rstar():
    prof = orc.RadialProfile.from_initial_data(build_preset("paper_anisotropic"))
    return orc.horizon_root(prof)


@pytest.fixture(scope="module")
def records():
    """The shared run matrix; every record also feeds criteria 3 and 6."""
    out = {}
    ids_flat = build_preset("flat", n=2)
    dom = build_domain(ids_flat, {"radius": 1.0}, L=6.0, alpha=1.9, h=1 / 64.)
    out["flat64"] = wf.epsilon_sweep(dom, eps_last=1e-3)
    dom = build_domain(ids_flat, {"radius": 1.0}, L=6.0, alpha=1.9, h=1 / 128.)
    out["flat128"] = wf.epsilon_sweep(dom, eps_last=1e-3)
    ids_a = build_preset("paper_anisotropic")
    dom = build_domain(ids_a, {"radius": 1.0}, L=8.4, alpha=1.9, h=1 / 128.)
    out["aniso"] = wf.epsilon_sweep(dom, eps_last=1e-4)
    out["aniso_fr"] = wf.frauendiener_solve(dom, eps_last=1e-4)
    ids_s = build_preset("schwarzschild_isotropic", m=1.0)
    dom = build_domain(ids_s, {"radius": 0.4}, L=4.0, alpha=1.5, h=1 / 256.)
    out["schw_jump"] = wf.epsilon_sweep(dom, eps_last=3e-5)
    # blowdown mass: the 0.1 gate at lambda = 1/8 needs (4/3) m/8 < 0.1,
    # i.e. m < 0.6; m = 1/4 keeps the domain (anchor radius scales with m)
    # in the feasible cold-start regime with clean margins
    ids_s25 = build_preset("schwarzschild_isotropic", m=0.25)
    dom = build_domain(ids_s25, {"radius": 1.0}, L=8.2, alpha=1.7, h=1 / 64.)
    out["schw_deep"] = wf.epsilon_sweep(dom, eps_last=1e-4)
    for rec in out.values():
        wf.detect_jumps(rec)
        wf.reconstruct_normal_field(rec)
    return out


def test_criterion_1_exact_spherical_solution(records):
    t0 = time.time()
    errs = {}
    for key in ("flat64", "flat128"):
        rec = records[key]
        r = rec.domain.r
        band = (r >= 1.2) & (r <= 3.0)
        errs[key] = float(np.max(np.abs(rec.u[band] - 2 * np.log(r[band]))))
    rel = errs["flat64"] / (2 * np.log(3.0))
    factor = errs["flat64"] / errs["flat128"]
    ok = rel < 0.02 and factor >= 3.0 and (time.time() - t0) < 300
    report(1, ok, f"sup rel err {rel:.2e} (gate 2e-2), refinement factor "
                  f"{factor:.2f} (gate >= 3)")


def test_criterion_2_worked_jump_example(records, oracle_rstar):
    ids = build_preset("paper_anisotropic")
    mesh = sg.icosphere(radius=1.0, subdivisions=4)
    sg.populate_diagnostics(ids, mesh,
                            level_set=sg.sphere_level_set([0, 0, 0]))
    H_med = float(np.median(mesh.H))
    P_med = float(np.median(mesh.P))
    ok_vals = abs(H_med - 2.0) / 2.0 < 0.01 and abs(-P_med - 3.0) / 3.0 < 0.01
    rec = records["aniso"]
    jumps = rec.jumps
    ok_jump = len(jumps) == 1 and abs(jumps[0].value) < 20 * rec.eps_last
    hr = wf.verify_horizon(rec, jumps[0])
    rad_err = abs(jumps[0].outer_radius - oracle_rstar) / oracle_rstar
    ok = (ok_vals and ok_jump and rad_err < 0.02
          and hr.max_rel_residual < 0.03)
    report(2, ok, f"H={H_med:.4f} |P|={-P_med:.4f}; jump t0="
                  f"{jumps[0].value:.1e}; radius err {rad_err:.3%} "
                  f"(gate 2%); max|H-|P||/H {hr.max_rel_residual:.3%} (gate 3%)")


def test_criterion_3_imcf_domination(records):
    worst = -np.inf
    for key, rec in records.items():
        if rec.imcf is None:
            continue
        gap = rec.u - rec.imcf.full_field() - 1e-6 * (1 + np.abs(rec.u))
        worst = max(worst, float(np.max(gap)))
    ok = worst <= 0
    report(3, ok, f"worst domination margin {worst:.2e} (gate <= 0) over "
                  f"{len(records)} runs")


def test_criterion_4_apriori_window():
    cases = [
        ("flat", {"n": 2}, 1.0, 4.0, 1.9),
        ("schwarzschild_isotropic", {"m": 0.5}, 0.3, 4.0, 1.5),
        ("schwarzschild_isotropic", {"m": 1.0}, 0.6, 4.0, 1.5),
        ("paper_anisotropic", {}, 1.0, 4.0, 1.9),
    ]
    eps_grid = list(np.geomspace(3e-2, 3e-5, 7))   # three decades
    s_grid = [0.25, 0.5, 0.75, 1.0]
    total, violations = 0, []
    for name, kw, e0, L, alpha in cases:
        ids = build_preset(name, **kw)
        dom = build_domain(ids, {"radius": e0}, L=L, alpha=alpha, h=1 / 128.)
        reports = sv.apriori_matrix(dom, s_grid, eps_grid)
        for (eps, s), rep in reports.items():
            total += 1
            hard = [v for v in rep.violations if v.startswith(("(i)", "(ii)"))]
            if rep.measured["min_u"] < -eps - 1e-8 * (1 + rep.solution.bc):
                hard.append("min_u")
            if rep.measured["max_u"] > rep.solution.bc + 1e-8 * (
                    1 + rep.solution.bc):
                hard.append("max_u")
            if hard:
                violations.append((name, eps, s, hard))
    ok = not violations and total == len(cases) * len(eps_grid) * len(s_grid)
    report(4, ok, f"{total} solves, {len(violations)} violations of "
                  "u >= -eps / u <= s(L-2)")


def test_criterion_5_outward_hull_oracle(records, oracle_rstar):
    from tests.test_variational import random_problem
    rng = np.random.default_rng(2024)
    mismatches = 0
    for k in range(50):
        n_free = int(rng.integers(4, 21))
        prob = random_problem(rng, n_free)
        best, masks, minimal = vr.exhaustive_minimizers(prob)
        mask, val = vr.mincut_hull(prob)
        if not (abs(val - best) < 1e-9 and np.array_equal(mask, minimal)):
            mismatches += 1
    rec = records["aniso"]
    dom = rec.domain
    prob = vr.radial_set_problem(dom, core_radius=1.0 + dom.h,
                                 omega_radius=3.0)
    mask, _ = vr.mincut_hull(prob)
    sel = np.where(mask)[0]
    r_hull = prob.shell_centers[sel[-1]] + dom.h / 2
    gap = abs(r_hull - rec.jumps[0].outer_radius)
    ok = mismatches == 0 and gap <= dom.h
    report(5, ok, f"50 instances, {mismatches} mismatches; hull vs flow "
                  f"horizon gap {gap:.2e} (gate {dom.h:.2e})")


def test_criterion_6_monotone_quantity(records):
    worst_drop = 0.0
    worst_match = 0.0
    worst_lower = np.inf
    quad_tol = 5e-3
    for key in ("flat64", "aniso", "schw_jump", "schw_deep"):
        rec = records[key]
        tr = vr.monotone_quantity(rec)
        dq = np.diff(tr["Q"])
        worst_drop = min(worst_drop,
                         float(np.min(dq / np.maximum(tr["Q"][:-1], 1e-12))))
        t_start = (rec.jumps[0].t_hi + 0.3) if rec.jumps else 0.2
        sm = tr["t"] > t_start
        sm[:2] = sm[-2:] = False      # one-sided gradient ends excluded
        ratio = tr["dQ_dt"][sm] / tr["predicted"][sm]
        worst_match = max(worst_match, float(np.max(np.abs(ratio - 1))))
        worst_lower = min(worst_lower, float(np.min(
            tr["dQ_dt"][sm] / tr["area"][sm])))
    ok = (worst_drop >= -2 * quad_tol and worst_match < 0.05
          and worst_lower >= 0.95)
    report(6, ok, f"min dQ/Q {worst_drop:.2e} (gate >= -1e-2); derivative "
                  f"mismatch {worst_match:.3%} (gate 5%); dQ/dt vs |Sigma| "
                  f"{worst_lower:.3f} (gate >= 0.95)")


def test_criterion_7_blowdown(records):
    details = []
    ok = True
    for key in ("aniso", "schw_deep"):
        bt = asym.blowdown_compare(records[key], [1.0, 0.5, 0.25, 0.125])
        good = bt.nonincreasing() and bt.errors[-1] < 0.1
        ok = ok and good
        details.append(f"{key}: errors {np.round(bt.errors, 5).tolist()}")
    report(7, ok, "; ".join(details) + " (gate: strictly decreasing above "
                  "floor, < 0.1 at 1/8)")


def test_criterion_8_oracle_self_consistency():
    worst_inverse = 0.0
    worst_res = 0.0
    for name, r0 in (("flat", 1.0), ("paper_anisotropic", 1.5)):
        kw = {"n": 2} if name == "flat" else {}
        prof = orc.RadialProfile.from_initial_data(build_preset(name, **kw))
        traj = orc.smooth_flow_ode(prof, r0, 1.5)
        for t in np.linspace(0.15, traj["t"][-1], 6):
            r_t = traj["sol"].sol(t)[0]
            u = orc.level_set_quadrature(prof, r0, r_t)
            worst_inverse = max(worst_inverse, abs(u - t) / max(t, 1e-12))
        res = orc.evolution_equation_check(prof, traj)
        worst_res = max(worst_res, max(res.values()))
    ok = worst_inverse < 1e-6 and worst_res < 1e-3
    report(8, ok, f"u(r(t))=t rel err {worst_inverse:.1e} (gate 1e-6); "
                  f"evolution residuals {worst_res:.1e} (gate 1e-3)")


def test_criterion_9_frauendiener_variant(records):
    rec = records["aniso"]
    fr = records["aniso_fr"]
    h = rec.domain.h
    ja, jf = rec.jumps[0], fr.jumps[0]
    gap_out = abs(ja.outer_radius - jf.outer_radius)
    gap_in = abs(ja.inner_radius - jf.inner_radius)
    bt = asym.blowdown_compare(fr, [1.0, 0.5, 0.25, 0.125])
    ok = (gap_out <= h and gap_in <= h
          and bt.nonincreasing() and bt.errors[-1] < 0.1)
    report(9, ok, f"jump-set gaps ({gap_in:.2e}, {gap_out:.2e}) vs cell "
                  f"{h:.2e}; blowdown errors {np.round(bt.errors, 5).tolist()}")


def test_diagnostics_read_inside_the_uniform_zone(records):
    """Every radius a gate reads lies below the grade radius, where the
    spacing is h; so the uses of dom.h as a cell length (the a-priori
    slack, plateau_radii, verify_horizon, jump_band_excess,
    minimality_test, the criterion-7 floor and the criterion-9 gate) need
    no local spacing."""
    read = {key: [j.outer_radius for j in rec.jumps]
            + [wf.level_radius(rec, rec.valid_time_range()[1])]
            for key, rec in records.items()}
    for key in ("aniso", "aniso_fr", "schw_deep"):
        read[key].append(asym.DEFAULT_ANNULUS[1] / 0.125)   # blowdown
    for key in ("flat64", "flat128"):
        read[key].append(3.0)                               # criterion 1
    read["aniso"].append(3.0)                               # hull omega
    for key, radii in read.items():
        r_g = records[key].domain.r_g
        assert r_g < records[key].domain.r_out
        assert max(radii) < r_g, (key, radii, r_g)


# outer jump radii on the uniform grid (r_g = r_out), before the grading
UNIFORM_JUMP_RADII = {"aniso": 1.164742, "schw_jump": 0.503661}


def test_graded_jump_radii_match_the_uniform_grid(records):
    for key, r_uniform in UNIFORM_JUMP_RADII.items():
        dom = records[key].domain
        assert abs(records[key].jumps[0].outer_radius - r_uniform) <= dom.h
