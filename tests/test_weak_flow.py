import gc
import re
import weakref

import numpy as np
import pytest

from stimcf import build_preset, build_domain
from stimcf import domain
from stimcf import solver as sv
from stimcf import weak_flow as wf
from stimcf import radial_oracle as orc
from stimcf import surface_geometry as sg
from stimcf import variational as vr
from tests.test_radial_oracle import R_STAR_ANISO


@pytest.fixture(scope="module")
def flat_rec():
    ids = build_preset("flat", n=2)
    dom = build_domain(ids, {"radius": 1.0}, L=6.0, alpha=1.9, h=1 / 64.)
    rec = wf.epsilon_sweep(dom, eps_last=1e-3)
    wf.detect_jumps(rec)
    wf.reconstruct_normal_field(rec)
    return rec


@pytest.fixture(scope="module")
def aniso_rec():
    ids = build_preset("paper_anisotropic")
    dom = build_domain(ids, {"radius": 1.0}, L=6.0, alpha=1.9, h=1 / 128.)
    rec = wf.epsilon_sweep(dom, eps_last=1e-4)
    wf.detect_jumps(rec)
    wf.reconstruct_normal_field(rec)
    return rec


@pytest.fixture(scope="module")
def schw_rec():
    ids = build_preset("schwarzschild_isotropic", m=1.0)
    dom = build_domain(ids, {"radius": 0.4}, L=4.0, alpha=1.5, h=1 / 256.)
    rec = wf.epsilon_sweep(dom, eps_last=3e-5)
    wf.detect_jumps(rec)
    wf.reconstruct_normal_field(rec)
    return rec


def test_flat_sweep_matches_expanding_sphere(flat_rec):
    r = flat_rec.domain.r
    band = (r >= 1.2) & (r <= 3.0)
    err = np.max(np.abs(flat_rec.u[band] - 2 * np.log(r[band])))
    assert err / (2 * np.log(3)) < 0.02
    assert flat_rec.cauchy_ok
    assert np.all(np.diff(flat_rec.sup_deltas) < 0)


def test_flat_has_no_jumps_but_a_truncation_plateau(flat_rec):
    assert flat_rec.jumps == []
    assert len(flat_rec.truncation_plateaus) == 1
    t0 = flat_rec.truncation_plateaus[0].value
    assert t0 == pytest.approx(flat_rec.solution.bc, abs=0.05)


def test_flat_level_set_radius(flat_rec):
    # the flat flow's level set {u = t} is the sphere of radius e^(t/2)
    t = 2 * np.log(2.0)
    assert wf.level_radius(flat_rec, t) == pytest.approx(2.0, rel=5e-3)


def test_nonnegative_and_imcf_dominated(flat_rec, aniso_rec, schw_rec):
    for rec in (flat_rec, aniso_rec, schw_rec):
        assert rec.u.min() >= -rec.eps_last - 1e-10
        gap = rec.u - rec.imcf.full_field()
        assert np.max(gap) <= 1e-6 * (1 + np.max(np.abs(rec.u)))


def test_monotone_along_rays_and_no_extrema(flat_rec, aniso_rec):
    for rec in (flat_rec, aniso_rec):
        ext = wf.interior_extrema(rec)
        assert ext["ok"], ext
        # shell ordering beyond all plateaus
        r = rec.domain.r
        u = rec.u
        lo, hi = rec.valid_time_range()
        r1 = wf.level_radius(rec, 0.5 * hi)
        sel1 = np.abs(r - r1) < 0.05
        sel2 = np.abs(r - (r1 + 1.0)) < 0.05
        assert np.min(u[sel2]) >= np.max(u[sel1]) - 1e-9


def test_sweep_ladder_halves_from_eps0_to_eps_last(flat_rec):
    # the sweep reads every rung, so it builds eps0 2^-k ... eps_last itself
    # rather than take the driver's coarser warm steps
    eps = flat_rec.epsilons
    assert eps[:-1] == [eps[0] * 0.5 ** k for k in range(len(eps) - 1)]
    assert eps[-1] == 1e-3
    assert all(1.0 < a / b <= 2.0 * (1 + 1e-12) for a, b in zip(eps, eps[1:]))


def test_level_radius_takes_an_array_of_times(aniso_rec):
    # Q(t)'s probe times, the first of which lies inside the jump
    lo, hi = aniso_rec.valid_time_range()
    times = np.linspace(lo, hi - 0.05 * (hi - lo), vr.N_Q_TIMES)
    j = aniso_rec.jumps[0]
    inside = (times >= j.t_lo - 1e-12) & (times <= j.t_hi + 1e-12)
    assert inside.any() and not inside.all()
    radii = wf.level_radius(aniso_rec, times)
    assert np.array_equal(radii, [wf.level_radius(aniso_rec, t)
                                  for t in times])
    assert np.all(radii[inside] == j.outer_radius)
    dom = aniso_rec.domain
    assert np.array_equal(radii[~inside], [
        dom.level_radius(aniso_rec.solution, t) for t in times[~inside]])
    assert isinstance(wf.level_radius(aniso_rec, times[0]), float)


def test_anisotropic_jump_structure(aniso_rec):
    assert len(aniso_rec.jumps) == 1
    j = aniso_rec.jumps[0]
    # jump at t = 0 covering the annulus out to the horizon radius
    assert abs(j.value) < 20 * aniso_rec.eps_last
    assert j.inner_radius == pytest.approx(1.0, abs=2 * aniso_rec.domain.h)
    assert j.outer_radius == pytest.approx(R_STAR_ANISO, rel=0.02)
    assert wf.jump_band_excess(aniso_rec, j) < 1.0


def test_band_excess_counts_metric_layers(schw_rec):
    # one node of the band beyond the plateau cells is about one layer of
    # the outer boundary in the metric, whose volume element there is ~62
    # times the flat one (psi^6 with psi = 1 + m / 2r near r = m / 2)
    j = schw_rec.jumps[0]
    u = schw_rec.u
    radii = schw_rec.domain.radii
    band = np.where((u > j.t_lo) & (u < j.t_hi))[0]
    one = band[np.argmax(radii[band])]
    region = wf.JumpRegion(band[band != one], j.value, j.t_lo, j.t_hi,
                           j.volume, j.inner_radius, j.outer_radius, False)
    assert 0.5 <= wf.jump_band_excess(schw_rec, region) <= 2.0


def test_anisotropic_horizon_verification(aniso_rec):
    rep = wf.verify_horizon(aniso_rec, aniso_rec.jumps[0])
    assert rep.max_rel_residual < 0.03
    assert rep.passed
    # labelled at the check's own tolerance: theta+ = H + P vanishes with
    # H - |P|, so the verified horizon is a MOTS too, not trapped
    assert rep.labels == {"MOTS", "generalized_horizon"}


def test_jump_time_extraction_returns_both_boundaries(aniso_rec):
    # at the jump time both boundaries exist: E0 inside, the horizon outside,
    # each read off the radial profile at its radius; the level radius there
    # reads the outer one, and away from the jump the level set's own radius
    j = aniso_rec.jumps[0]
    dom = aniso_rec.domain
    assert j.inner_radius == pytest.approx(1.0, abs=0.05)
    assert j.outer_radius == pytest.approx(R_STAR_ANISO, rel=0.02)
    for side, radius in (("inner", j.inner_radius),
                         ("outer", j.outer_radius)):
        H, P = dom.boundary_curvatures(aniso_rec.solution, j, side)
        assert H.tolist() == [float(dom.profile.mean_curvature(radius))]
        assert P.tolist() == [float(dom.profile.k_trace(radius))]
    assert wf.level_radius(aniso_rec, j.value) == j.outer_radius
    assert wf.level_radius(aniso_rec, 1.0) > j.outer_radius


def test_jump_time_extraction_fills_both_boundaries(aniso_rec):
    # each boundary comes back as one (H, P) sample pair, the same whatever
    # ran on the record before
    j = aniso_rec.jumps[0]
    dom = aniso_rec.domain
    before = [dom.boundary_curvatures(aniso_rec.solution, j, side)
              for side in ("inner", "outer")]
    wf.verify_horizon(aniso_rec, j)
    for side, (H0, P0) in zip(("inner", "outer"), before):
        H, P = dom.boundary_curvatures(aniso_rec.solution, j, side)
        assert len(H) == len(P) == 1
        assert np.array_equal(H, H0) and np.array_equal(P, P0)


def _count_calls(monkeypatch, names):
    """Names of the ``surface_geometry`` functions called from here on."""
    called = []
    for name in names:
        def counted(*args, _name=name, _make=getattr(sg, name), **kwargs):
            called.append(_name)
            return _make(*args, **kwargs)
        monkeypatch.setattr(sg, name, counted)
    return called


def test_detect_jumps_only_measures(aniso_rec, monkeypatch):
    # a jump is what was measured (cells, values, radii); its boundaries'
    # curvatures are read when a check asks for them
    built = _count_calls(monkeypatch, ("icosphere", "circle_mesh"))
    jumps = wf.detect_jumps(aniso_rec)
    assert len(jumps) == 1
    assert built == []
    assert not [k for k in vars(jumps[0]) if "mesh" in k]


@pytest.mark.parametrize("key, labels", [
    ("aniso", {"MOTS", "generalized_horizon"}),
    ("schw", {"MOTS", "MITS", "generalized_horizon"}),
])
def test_radial_verify_horizon_reads_the_profile(request, monkeypatch, key,
                                                 labels):
    # a radial check builds no mesh: its report is the radial profile's
    # exact H and P at the outer radius
    rec = request.getfixturevalue(f"{key}_rec")
    j = rec.jumps[0]
    prof = rec.domain.profile
    H = prof.mean_curvature([j.outer_radius])
    P = prof.k_trace([j.outer_radius])
    scale = np.maximum(np.maximum(np.abs(H), np.abs(P)),
                       rec.ids.n / j.outer_radius)
    called = _count_calls(monkeypatch, ("icosphere", "circle_mesh",
                                        "populate_diagnostics"))
    rep = wf.verify_horizon(rec, j)
    assert called == []
    assert rep.max_rel_residual == float(
        np.max(np.abs(H - np.abs(P)) / scale))
    assert rep.labels == labels


def test_apriori_reports_check_imcf_domination_only_when_k_is_nonzero(
        flat_rec, aniso_rec):
    # K = 0: the flow chain is the IMCF chain, so there is no reference
    # other than u itself to dominate; K != 0: every rung is checked
    assert all("imcf_domination_margin" not in rep.measured
               for rep in flat_rec.apriori)
    margins = [rep.measured["imcf_domination_margin"]
               for rep in aniso_rec.apriori]
    assert len(margins) == len(aniso_rec.epsilons)
    assert max(margins) <= 0


def test_normal_field_radial_and_cauchy(aniso_rec):
    nf = wf.reconstruct_normal_field(aniso_rec)
    assert nf.cauchy_ok
    assert np.all(nf.vectors[aniso_rec.domain.r > 1.05] > 0)


def test_schwarzschild_jump_to_minimal_surface(schw_rec):
    assert len(schw_rec.jumps) == 1
    j = schw_rec.jumps[0]
    assert abs(j.value) < 20 * schw_rec.eps_last
    assert j.outer_radius == pytest.approx(0.5, rel=0.02)
    rep = wf.verify_horizon(schw_rec, j)
    assert rep.max_rel_residual < 0.03


def test_gradient_monotone_along_sweep_tail(flat_rec, aniso_rec):
    # interior gradient bound surrogate: the fraction of cells whose
    # gradient grows between consecutive rungs stays small in the tail
    for rec in (flat_rec, aniso_rec):
        assert rec.grad_increase_fraction[-1] < 0.2


def test_frauendiener_flat_identical():
    ids = build_preset("flat", n=2)
    dom = build_domain(ids, {"radius": 1.0}, L=4.0, alpha=1.9, h=1 / 64.)
    a = wf.epsilon_sweep(dom, eps_last=1e-3)
    b = wf.frauendiener_solve(dom, eps_last=1e-3)
    assert np.array_equal(a.u, b.u)


@pytest.fixture(scope="module")
def fr_rec():
    ids = build_preset("paper_anisotropic")
    dom = build_domain(ids, {"radius": 1.0}, L=6.0, alpha=1.9, h=1 / 128.)
    rec = wf.frauendiener_solve(dom, eps_last=1e-4)
    wf.detect_jumps(rec)
    return rec


def test_frauendiener_same_jump_set(aniso_rec, fr_rec):
    h = aniso_rec.domain.h
    ja = aniso_rec.jumps[0]
    jf = fr_rec.jumps[0]
    assert abs(jf.outer_radius - ja.outer_radius) < 1.5 * h
    assert abs(jf.inner_radius - ja.inner_radius) < 1.5 * h


def test_frauendiener_smooth_gradient_identity(fr_rec):
    # |grad u| = (H^2 - P^2)/H pointwise in smooth radial regions
    dom = fr_rec.domain
    prof = dom.profile
    r = dom.r
    sel = (r > 1.6) & (r < 6.0)
    grad = np.gradient(fr_rec.u, r)[sel] / dom.a[sel]
    H = prof.mean_curvature(r[sel])
    P = prof.k_trace(r[sel])
    expect = (H ** 2 - P ** 2) / H
    assert np.max(np.abs(grad - expect) / expect) < 0.01


# -- sweep failure paths -------------------------------------------------------

def _small_flat():
    ids = build_preset("flat", n=2)
    return build_domain(ids, {"radius": 1.0}, L=4.0, alpha=1.9, h=1 / 32.)


def _stalled(dom, eps, s, u_init, bc):
    interior = (dom.initial_guess(s, bc, eps) if u_init is None
                else np.array(u_init, float))
    return sv.ScalarSolution(dom, interior, eps, s, bc, 1.0, 60, False, 0.0,
                             diagnostic="stall")


def test_sweep_retries_a_failed_warm_start_cold(monkeypatch):
    dom = _small_flat()
    newton = sv.newton_solve
    failed = []

    def flaky(dom, eps, s, u_init=None, bc=None, **kwargs):
        # the first warm start of the s = 1 chain stalls
        if s == 1.0 and u_init is not None and not failed:
            failed.append(eps)
            return _stalled(dom, eps, s, u_init, bc)
        return newton(dom, eps, s, u_init=u_init, bc=bc, **kwargs)

    monkeypatch.setattr(sv, "newton_solve", flaky)
    rec = wf.epsilon_sweep(dom, eps_last=1 / 128.)
    assert rec.epsilons == [1 / 32., 1 / 64., 1 / 128.]
    assert failed == [1 / 64.]
    rows = rec.traces[1]
    assert [(row[0], row[3]) for row in rows] == [(1.0, False), (1.0, True)]
    assert rec.solution.converged and rec.solution.eps == 1 / 128.


def test_sweep_raises_when_every_cold_start_fails(monkeypatch):
    dom = _small_flat()
    top = min(0.5 * dom.feasibility()["eps_max"], wf.DEFAULT_EPS0)

    def every_solve_stalls(dom, eps, s, u_init=None, bc=None, **kwargs):
        return _stalled(dom, eps, s, u_init, bc)

    monkeypatch.setattr(sv, "newton_solve", every_solve_stalls)
    with pytest.raises(wf.FlowError, match=re.escape(f"eps={top}, s=1.0")):
        wf.epsilon_sweep(dom, eps_last=1e-3)


def test_sweep_names_the_rung_below_the_top_that_fails(monkeypatch):
    # every start below eps_fail stalls, warm and cold: the sweep fails at
    # the third rung, not at its top
    dom = _small_flat()
    newton = sv.newton_solve
    eps_fail = 1e-2

    def stalls_below(dom, eps, s, u_init=None, bc=None, **kwargs):
        if eps < eps_fail:
            return _stalled(dom, eps, s, u_init, bc)
        return newton(dom, eps, s, u_init=u_init, bc=bc, **kwargs)

    monkeypatch.setattr(sv, "newton_solve", stalls_below)
    with pytest.raises(wf.FlowError) as err:
        wf.epsilon_sweep(dom, eps_last=1e-3)
    assert f"eps={1 / 128.}, s=1.0" in str(err.value)
    assert "cold start" not in str(err.value)


@pytest.mark.parametrize("eps_last", [0.0, -1e-3])
def test_sweep_rejects_nonpositive_eps(eps_last):
    with pytest.raises(wf.FlowConfigError, match="eps_last > 0"):
        wf.epsilon_sweep(_small_flat(), eps_last=eps_last)


@pytest.mark.parametrize("eps_last", [1 / 32., 0.05])
def test_sweep_rejects_a_top_rung_not_above_eps_last(eps_last):
    # the top rung, min(eps_max / 2, 1/32) = 1/32 here, equals or lies
    # below eps_last
    with pytest.raises(wf.FlowConfigError, match="must lie above eps_last"):
        wf.epsilon_sweep(_small_flat(), eps_last=eps_last)


def test_sweep_rejects_an_unknown_variant_before_any_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("newton_solve ran")

    monkeypatch.setattr(sv, "newton_solve", no_solve)
    with pytest.raises(wf.FlowConfigError, match="unknown operator variant"):
        wf.epsilon_sweep(_small_flat(), variant="bogus")


def _count_solves(monkeypatch):
    """Record (eps, s, cold) of every newton_solve the sweep runs."""
    newton = sv.newton_solve
    calls = []

    def counted(dom, eps, s, u_init=None, **kwargs):
        calls.append((eps, s, u_init is None))
        return newton(dom, eps, s, u_init=u_init, **kwargs)

    monkeypatch.setattr(sv, "newton_solve", counted)
    return calls


def test_k_zero_sweep_is_its_own_imcf_chain(monkeypatch):
    # K = 0: the operator does not depend on s, so one solve per rung
    # serves as both the flow and the IMCF reference
    calls = _count_solves(monkeypatch)
    rec = wf.epsilon_sweep(_small_flat(), eps_last=1e-3)
    assert len(rec.epsilons) == 6
    assert len(calls) == 6
    assert np.array_equal(rec.imcf.interior, rec.u[1:-1])


def test_imcf_chain_starts_from_the_continuity_endpoint(monkeypatch):
    # K != 0: the only cold s = 0 solve is continuation_solve's top rung;
    # the IMCF chain walks down warm from it
    dom = build_domain(build_preset("paper_anisotropic"), {"radius": 1.0},
                       L=8.4, alpha=1.9, h=1 / 64.)
    calls = _count_solves(monkeypatch)
    rec = wf.epsilon_sweep(dom, eps_last=1e-3)
    assert [c for c in calls if c[1] == 0.0 and c[2]] == [
        (rec.epsilons[0], 0.0, True)]
    assert (rec.imcf.s, rec.imcf.eps) == (0.0, rec.eps_last)
    assert rec.imcf.converged


# on both domains the cold start stalls at eps_max and converges at half
@pytest.mark.parametrize("preset, kw, L, alpha, h", [
    ("schwarzschild_isotropic", {"m": 0.25}, 8.2, 1.7, 1 / 32.),
    ("paper_anisotropic", {}, 8.4, 1.9, 1 / 64.),
], ids=["schwarzschild_m0.25", "paper_anisotropic_L8.4"])
def test_sweep_top_converges_at_half_the_feasibility_bound(
        monkeypatch, preset, kw, L, alpha, h):
    dom = build_domain(build_preset(preset, **kw), {"radius": 1.0},
                       L=L, alpha=alpha, h=h)
    newton = sv.newton_solve
    solves = []

    def recorded(*args, **kwargs):
        solves.append(newton(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(sv, "newton_solve", recorded)
    rec = wf.epsilon_sweep(dom, eps_last=1e-3)
    assert all(sol.converged for sol in solves)
    eps_max = dom.feasibility()["eps_max"]
    assert rec.epsilons[0] == min(eps_max / 2, 1 / 32.)


# -- the IMCF chain, solved once per domain ------------------------------------

def _aniso32():
    return build_domain(build_preset("paper_anisotropic"), {"radius": 1.0},
                        L=8.4, alpha=1.9, h=1 / 32.)


def test_imcf_chain_is_the_same_for_every_variant():
    # the premise of the memo: at s = 0 no variant's operator reads the
    # K-term, so the s = 0 chain of the sweep's ladder has the same bits
    dom = _aniso32()
    top = min(0.5 * dom.feasibility()["eps_max"], wf.DEFAULT_EPS0)
    ladder = sv.eps_ladder([top, 1e-3], 2.0)
    states = []
    for variant in domain.VARIANTS:
        chains, trace = sv.continuation_solve(dom, [0.0], ladder,
                                              bc=dom.L - 2.0, variant=variant)
        states.append(([(sol.interior.tobytes(), sol.residual_norm,
                         sol.floor, rows) for sol, rows in chains[0.0]],
                       trace))
    assert len(states[0][0]) == len(ladder)
    assert all(state == states[0] for state in states)


def _sweep_state(rec):
    return (rec.u.tobytes(), rec.imcf.interior.tobytes(), rec.imcf.floor,
            rec.imcf.residual_norm, rec.imcf.iterations, rec.traces,
            rec.sup_deltas, rec.grad_increase_fraction,
            [rep.measured for rep in rec.apriori],
            [(eps, x.tobytes()) for eps, x in rec.tail])


def test_a_second_sweep_reuses_the_imcf_chain_bit_for_bit(monkeypatch):
    dom = _aniso32()
    first = wf.epsilon_sweep(dom, eps_last=1e-3)
    calls = _count_solves(monkeypatch)
    driver = sv.continuation_solve
    solved_rows = []

    def counted(*args, **kwargs):
        out = driver(*args, **kwargs)
        solved_rows.extend(out[1])
        return out

    monkeypatch.setattr(sv, "continuation_solve", counted)
    second = wf.frauendiener_solve(dom, eps_last=1e-3)
    # only the s = 1 rungs are solved, and the driver's trace counts them
    assert [c[0] for c in calls] == second.epsilons
    assert all(c[1] == 1.0 for c in calls)
    assert len(solved_rows) == len(calls)
    monkeypatch.undo()
    fresh = wf.frauendiener_solve(_aniso32(), eps_last=1e-3)
    assert _sweep_state(second) == _sweep_state(fresh)
    assert second.imcf.interior is first.imcf.interior


def test_reused_imcf_interiors_are_read_only():
    dom = _aniso32()
    rec = wf.epsilon_sweep(dom, eps_last=1e-3)
    (chain,) = wf._IMCF_CHAINS[dom].values()
    assert len(chain) == len(rec.epsilons)
    for x in [state[0] for state, _ in chain] + [rec.imcf.interior]:
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 0.0
    assert rec.solution.interior.flags.writeable


def test_the_imcf_memo_dies_with_its_domain():
    # the memo's entries hold no reference to the domain, so dropping the
    # domain and its records frees it by reference counting alone
    gc.disable()
    try:
        dom = _aniso32()
        recs = [wf.epsilon_sweep(dom, eps_last=1e-3),
                wf.frauendiener_solve(dom, eps_last=1e-3)]
        assert dom in wf._IMCF_CHAINS
        ref = weakref.ref(dom)
        del dom, recs
        assert ref() is None
    finally:
        gc.enable()
