import numpy as np
import pytest

from stimcf import build_preset, build_domain
from stimcf import weak_flow as wf
from stimcf import asymptotics as asym
from stimcf import surface_geometry as sg


@pytest.fixture(scope="module")
def flat_deep():
    # domain reaching |x| = 24 cleanly so lambda = 1/8 pulls back inside
    ids = build_preset("flat", n=2)
    dom = build_domain(ids, {"radius": 1.0}, L=9.4, alpha=1.9, h=1 / 64.)
    rec = wf.epsilon_sweep(dom, eps_last=1e-4)
    wf.detect_jumps(rec)
    return rec


def test_blowdown_flat_exact_after_normalization(flat_deep):
    # u already equals the model: errors at quadrature/regularization level
    bt = asym.blowdown_compare(flat_deep, [1.0, 0.5, 0.25, 0.125])
    assert np.all(bt.errors < 5e-3)
    assert bt.errors[-1] < 1e-3


def test_blowdown_requires_domain_coverage(flat_deep):
    with pytest.raises(wf.FlowError, match="insufficient"):
        asym.blowdown_compare(flat_deep, [1.0, 1.0 / 64.0])


def test_roundness_sphere_and_ellipsoid():
    mesh = sg.icosphere(radius=2.0, subdivisions=3)
    ratio, center = asym.roundness(mesh)
    assert ratio == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(center) < 1e-9
    ell = sg.SurfaceMesh(mesh.vertices * np.array([2.0, 1.0, 1.0]),
                         mesh.facets)
    ratio2, _ = asym.roundness(ell)
    assert ratio2 == pytest.approx(2.0, abs=0.02)


def test_roundness_scale_invariance():
    mesh = sg.icosphere(radius=1.0, subdivisions=2)
    squish = sg.SurfaceMesh(mesh.vertices * np.array([1.3, 1.0, 0.9]),
                            mesh.facets)
    r1, _ = asym.roundness(squish)
    big = sg.SurfaceMesh(squish.vertices * 773.5, squish.facets)
    r2, _ = asym.roundness(big)
    assert abs(r1 - r2) < 1e-12


def test_second_form_spread_flags_aspherical():
    # reported diagnostic: carries an icosahedral mesh-noise floor, but
    # grows monotonically with asphericity at fixed mesh
    round_ = sg.icosphere(radius=1.0, subdivisions=3)
    mild = sg.SurfaceMesh(round_.vertices * np.array([1.2, 1.0, 1.0]),
                          round_.facets)
    strong = sg.SurfaceMesh(round_.vertices * np.array([1.6, 1.0, 1.0]),
                            round_.facets)
    s0 = asym.second_form_spread(round_)
    s1 = asym.second_form_spread(mild)
    s2 = asym.second_form_spread(strong)
    assert s0 < s1 < s2
    assert s2 > 1.3 * s0


def test_starshaped_flat(flat_deep):
    out = asym.starshaped_check(flat_deep, delta=0.1, R_reg=1.5)
    assert out["passes"]
    assert out["R_delta"] == pytest.approx(1.5, rel=1e-6)
    assert np.all(out["min_inner_product"] >= 1.0 - 1e-9)


def test_starshaped_monotone_in_delta(flat_deep):
    a = asym.starshaped_check(flat_deep, delta=0.05, R_reg=1.5)
    b = asym.starshaped_check(flat_deep, delta=0.2, R_reg=1.5)
    assert a["passes"] and b["passes"]
    assert b["R_delta"] <= a["R_delta"]


def test_starshaped_rejects_jumps_beyond_rreg():
    ids = build_preset("paper_anisotropic")
    dom = build_domain(ids, {"radius": 1.0}, L=6.0, alpha=1.9, h=1 / 128.)
    rec = wf.epsilon_sweep(dom, eps_last=1e-3)
    wf.detect_jumps(rec)
    with pytest.raises(wf.FlowError, match="R_reg"):
        asym.starshaped_check(rec, delta=0.1, R_reg=1.05)
    out = asym.starshaped_check(rec, delta=0.1, R_reg=1.5)
    assert out["passes"]


def test_rotated_field_fails():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(400, 3))
    pts = pts / np.linalg.norm(pts, axis=1)[:, None] * \
        rng.uniform(2, 6, size=400)[:, None]
    radial = pts / np.linalg.norm(pts, axis=1)[:, None]
    ang = np.pi / 4
    R = np.array([[np.cos(ang), -np.sin(ang), 0],
                  [np.sin(ang), np.cos(ang), 0], [0, 0, 1.0]])
    rotated = radial @ R.T
    ok = asym.starshaped_field_check(pts, radial, 0.05, 2.0)
    assert ok["passes"]
    for delta in (0.05, 0.2):
        bad = asym.starshaped_field_check(pts, rotated, delta, 2.0)
        assert not bad["passes"]          # delta < 1 - cos(45 deg) fails
    loose = asym.starshaped_field_check(pts, rotated, 0.5, 2.0)
    assert loose["passes"]                # delta > 1 - cos(45 deg) passes
