import numpy as np
import pytest
from numpy.testing import assert_allclose

from stimcf import initial_data as idm


def test_flat_preset_trivial():
    ids = idm.build_preset("flat", n=2)
    ids.validate()
    pts = np.array([[1.0, 0.5, -0.2], [3.0, 0.0, 0.0]])
    assert_allclose(ids.metric(pts), np.broadcast_to(np.eye(3), (2, 3, 3)))
    assert_allclose(ids.second_form(pts), 0.0)
    assert ids.max_abs_trace() == 0.0


def test_unknown_preset_and_bad_mass():
    with pytest.raises(idm.InitialDataError):
        idm.build_preset("nope")
    with pytest.raises(idm.InitialDataError):
        idm.build_preset("schwarzschild_isotropic", m=-1.0)


def test_schwarzschild_conformal_factor():
    # (1 + m/(2|x|))^4 delta at |x| = 2, m = 1: (5/4)^4 = 625/256
    ids = idm.build_preset("schwarzschild_isotropic", m=1.0)
    g = ids.metric(np.array([[2.0, 0.0, 0.0]]))[0]
    assert_allclose(g, (625.0 / 256.0) * np.eye(3), rtol=1e-14)
    assert ids.max_abs_trace() == 0.0


def test_anisotropic_components_at_unit_radius():
    # K(e_r, e_r) = 3 and the polar direction carries -3 at r = 1
    ids = idm.build_preset("paper_anisotropic")
    x = np.array([[0.6, 0.0, 0.8]])
    K = ids.second_form(x)[0]
    er = x[0]
    et = np.array([0.8, 0.0, -0.6])   # polar unit direction at this point
    ephi = np.array([0.0, 1.0, 0.0])
    assert_allclose(er @ K @ er, 3.0, atol=1e-12)
    assert_allclose(et @ K @ et, -3.0, atol=1e-12)
    assert_allclose(ephi @ K @ ephi, 0.0, atol=1e-12)
    assert ids.max_abs_trace() < 1e-12


def test_maximality_rejects_traceful_data():
    ids = idm.build_preset("flat", n=2)
    ids._second_form = lambda x: np.broadcast_to(
        np.eye(3), (len(np.atleast_2d(x)), 3, 3)).copy()
    assert ids.max_abs_trace() == pytest.approx(3.0)
    with pytest.raises(idm.InitialDataError, match="maximality"):
        ids.validate()


def test_metric_invariants_on_samples():
    for name, kw in [("flat", {"n": 2}), ("paper_anisotropic", {}),
                     ("schwarzschild_isotropic", {"m": 0.5})]:
        ids = idm.build_preset(name, **kw)
        pts = ids.sample_points()
        g = ids.metric(pts)
        K = ids.second_form(pts)
        assert np.allclose(g, np.swapaxes(g, 1, 2))
        assert np.allclose(K, np.swapaxes(K, 1, 2))
        assert np.min(np.linalg.eigvalsh(g)) > 0


def test_decay_flat_all_zero():
    ids = idm.build_preset("flat", n=2)
    rep = idm.verify_decay(ids, np.array([2.0, 4.0, 8.0, 16.0]))
    assert rep.all_passed
    for key in rep.sups:
        assert np.max(rep.sups[key]) < 1e-11


def test_decay_anisotropic_k_rate():
    # |K| shell sups fall like r^-6, beating the required r^-(n - 1/2 + eps)
    ids = idm.build_preset("paper_anisotropic")
    shells = np.geomspace(2.0, 32.0, 6)
    rep = idm.verify_decay(ids, shells)
    assert rep.passed["K"]
    assert rep.fitted["K"] == pytest.approx(-6.0, abs=0.3)
    assert rep.all_passed


def test_decay_fails_for_constant_perturbation():
    ids = idm.build_preset("flat", n=2)
    bump = np.zeros((3, 3))
    bump[0, 0] = 1.0

    def g(x):
        m = len(np.atleast_2d(x))
        return np.broadcast_to(np.eye(3) + bump, (m, 3, 3)).copy()

    ids._metric = g
    rep = idm.verify_decay(ids, np.array([2.0, 4.0, 8.0, 16.0]))
    assert not rep.passed["g_minus_delta"]
    assert not rep.weak_passed["g_minus_delta"]


def test_decay_rejects_inner_shells():
    ids = idm.build_preset("flat", n=2)
    with pytest.raises(idm.InitialDataError):
        idm.verify_decay(ids, np.array([0.5, 2.0]))


def test_constraints_flat_and_vacuum():
    flat = idm.build_preset("flat", n=2)
    mu, J, margin = idm.constraint_densities(flat, [1.3, 0.2, 0.1])
    assert abs(mu[0]) < 1e-10 and np.max(np.abs(J)) < 1e-10
    sch = idm.build_preset("schwarzschild_isotropic", m=1.0)
    mu, J, _ = idm.constraint_densities(sch, [3.0, 0.0, 0.0])
    # vacuum data: densities vanish within the stencil error
    assert abs(mu[0]) < 1e-6
    assert np.max(np.abs(J)) < 1e-6


def test_constraints_vacuum_converges_with_stencil(monkeypatch):
    sch = idm.build_preset("schwarzschild_isotropic", m=1.0)
    mus = []
    for h in (2e-3, 1e-3):
        monkeypatch.setattr(idm, "FD_STEP", h)
        mu, _, _ = idm.constraint_densities(sch, [2.0, 0.5, 0.0])
        mus.append(abs(mu[0]))
    assert mus[1] < 0.5 * mus[0]


def test_constraints_anisotropic_dec_violation():
    # mu = -|K|^2 / 16 pi with |K|^2 = 18 at r = 1; reported, not fatal
    ids = idm.build_preset("paper_anisotropic")
    mu, J, margin = idm.constraint_densities(ids, [0.6, 0.0, 0.8])
    assert mu[0] == pytest.approx(-18.0 / (16 * np.pi), rel=1e-4)
    assert margin[0] < 0


def test_grid_file_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    shape = (6, 6, 6)
    g = np.broadcast_to(np.eye(3), shape + (3, 3)).copy()
    g += 0.01 * np.einsum("xyz,ij->xyzij", rng.random(shape), np.eye(3))
    K = np.zeros(shape + (3, 3))
    path = tmp_path / "data.grid"
    origin = np.array([-1.5, -1.5, -1.5])
    idm.save_grid_data(path, origin=origin, spacing=0.5,
                       g_samples=g, k_samples=K)
    ids = idm.load_grid_data(path)
    assert ids.n == 2 and ids.tol_max == idm.TOL_MAX_GRID
    got = ids.metric(np.array([[0.25, 0.0, 0.0]]))
    assert np.all(np.isfinite(got))
    assert ids.max_abs_trace(origin + 0.5) == 0.0


def test_grid_file_rejects_asymmetric(tmp_path):
    shape = (4, 4, 4)
    g = np.broadcast_to(np.eye(3), shape + (3, 3)).copy()
    K = np.zeros(shape + (3, 3))
    K[..., 0, 1] = 1.0   # not symmetric
    path = tmp_path / "bad.grid"
    idm.save_grid_data(path, origin=(0, 0, 0), spacing=0.5,
                       g_samples=g, k_samples=K)
    with pytest.raises(idm.InitialDataError, match="non-symmetric"):
        idm.load_grid_data(path)
    with pytest.raises(idm.InitialDataError):
        idm.save_grid_data(path, origin=(0, 0, 0), spacing=0.5,
                           g_samples=g[..., :2, :2], k_samples=K)


def _assert_matches_linalg(g):
    # relative to each matrix's largest entry, so zero off-diagonals count
    inv, det = idm.inverse_and_det(g)
    want = np.linalg.inv(g)
    scale = np.max(np.abs(want), axis=(-2, -1))[:, None, None]
    assert np.max(np.abs(inv - want) / scale) < 1e-12
    assert_allclose(det, np.linalg.det(g), rtol=1e-12, atol=0)


def test_inverse_and_det_match_linalg():
    for name, kw in [("flat", {"n": 1}), ("flat", {"n": 2}),
                     ("schwarzschild_isotropic", {"m": 1.0}),
                     ("paper_anisotropic", {})]:
        ids = idm.build_preset(name, **kw)
        _assert_matches_linalg(ids.metric(ids.sample_points()))
    rng = np.random.default_rng(4)
    for d in (1, 2, 3):
        a = rng.normal(size=(200, d, d))
        _assert_matches_linalg(a @ np.swapaxes(a, 1, 2) + 0.1 * np.eye(d))


def _fancy_index_inverse_and_det(g):
    # the d = 3 cofactor formula as first written, with two fancy-index copies
    i1, i2 = [1, 2, 0], [2, 0, 1]
    a, b = g[..., i1, :], g[..., i2, :]
    cof = a[..., i1] * b[..., i2] - a[..., i2] * b[..., i1]
    det = np.einsum('...j,...j->...', g[..., 0, :], cof[..., 0, :])
    return np.swapaxes(cof, -1, -2) / det[..., None, None], det


def test_inverse_and_det_d3_is_bit_identical_to_the_fancy_index_formula():
    # the slice-by-slice cofactors form the same products and differences,
    # and sit in the same layout, so the det sum adds in the same order
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 43, 3, 3))
    spd = a @ np.swapaxes(a, -1, -2) + 0.1 * np.eye(3)
    ids = idm.build_preset("paper_anisotropic")
    stacks = [spd, spd[0], spd[0, :1], spd[0, 0], spd[:, ::2],
              np.asfortranarray(spd), np.moveaxis(spd, 0, 1),
              ids.metric(ids.sample_points())]
    for g in stacks:
        inv, det = idm.inverse_and_det(g)
        want_inv, want_det = _fancy_index_inverse_and_det(g)
        assert np.array_equal(inv, want_inv)
        assert np.array_equal(det, want_det)
