import re

import numpy as np
import pytest

from stimcf import build_preset, build_domain
from stimcf import solver as sv
from stimcf import weak_flow as wf
from stimcf import radial_oracle as orc
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
    t = 2 * np.log(2.0)
    mesh = wf.extract_level_sets(flat_rec, [t])[0]
    radii = np.linalg.norm(mesh.centroids, axis=1)
    assert np.mean(radii) == pytest.approx(2.0, rel=5e-3)
    assert np.median(mesh.H) == pytest.approx(1.0, rel=2e-2)


def test_extraction_rejects_truncation_zone(flat_rec):
    with pytest.raises(wf.FlowError, match="influence zone"):
        wf.extract_level_sets(flat_rec, [flat_rec.solution.bc - 0.1])


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


def test_anisotropic_horizon_verification(aniso_rec):
    rep = wf.verify_horizon(aniso_rec, aniso_rec.jumps[0])
    assert rep.max_rel_residual < 0.03
    assert rep.passed
    # labelled at the check's own tolerance: theta+ = H + P vanishes with
    # H - |P|, so the verified horizon is a MOTS too, not trapped
    assert rep.labels == {"MOTS", "generalized_horizon"}


def test_jump_time_extraction_returns_both_boundaries(aniso_rec):
    j = aniso_rec.jumps[0]
    pair = wf.extract_level_sets(aniso_rec, [j.value])[0]
    inner, outer = pair
    assert np.mean(np.linalg.norm(inner.centroids, axis=1)) \
        == pytest.approx(1.0, abs=0.05)
    assert np.mean(np.linalg.norm(outer.centroids, axis=1)) \
        == pytest.approx(R_STAR_ANISO, rel=0.02)
    # away from the jump a single mesh comes back
    single = wf.extract_level_sets(aniso_rec, [1.0])[0]
    assert not isinstance(single, tuple)


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


def test_sweep_rejects_eps0_above_the_feasibility_bound():
    dom = _small_flat()
    eps_max = dom.feasibility()["eps_max"]
    with pytest.raises(wf.FlowError, match="feasibility bound"):
        wf.epsilon_sweep(dom, eps0=1.5 * eps_max, eps_last=1e-3)


@pytest.mark.parametrize("eps0, eps_last", [(None, 0.0), (None, -1e-3),
                                            (0.0, 1e-3)])
def test_sweep_rejects_nonpositive_eps(eps0, eps_last):
    with pytest.raises(wf.FlowError, match="eps0 > 0 and eps_last > 0"):
        wf.epsilon_sweep(_small_flat(), eps0=eps0, eps_last=eps_last)


@pytest.mark.parametrize("eps0, eps_last", [(5e-4, 1e-3), (1e-3, 1e-3),
                                            (None, 0.05)])
def test_sweep_rejects_a_top_rung_not_above_eps_last(eps0, eps_last):
    # the default top, min(eps_max / 2, 1/32), lies below eps_last = 0.05
    with pytest.raises(wf.FlowConfigError, match="must lie above eps_last"):
        wf.epsilon_sweep(_small_flat(), eps0=eps0, eps_last=eps_last)


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
