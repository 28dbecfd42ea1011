import hashlib

import numpy as np
import pytest

from stimcf import build_preset
from stimcf import grid
from stimcf import surface_geometry as sg
from stimcf import weak_flow as wf
from tests.test_radial_oracle import R_STAR_ANISO


@pytest.fixture(scope="module")
def flat3():
    return build_preset("flat", n=2)


@pytest.fixture(scope="module")
def aniso():
    return build_preset("paper_anisotropic")


def sphere_mesh(radius, sub=3):
    return sg.icosphere(radius=radius, subdivisions=sub)


# sha256 (first 16 hex digits) of the float64 vertex bytes followed by the
# int64 facet bytes of icosphere(1.0, k), k = 0..5, as the per-edge
# midpoint dictionary built them
ICOSPHERE_DIGESTS = ["62a389080cafe928", "481673dde3c97438",
                     "7dd349e42486502f", "27b1ccc225fece1f",
                     "5b47ef76acf1a23e", "c1975dd2c4a5a1f6"]


def test_icosphere_is_pinned_bit_for_bit():
    for k, want in enumerate(ICOSPHERE_DIGESTS):
        mesh = sg.icosphere(1.0, k)
        assert mesh.vertices.shape == (10 * 4 ** k + 2, 3)
        got = hashlib.sha256(mesh.vertices.astype(np.float64).tobytes()
                             + mesh.facets.astype(np.int64).tobytes())
        assert got.hexdigest()[:16] == want, f"subdivisions={k}"


def test_unit_sphere_H_is_two(flat3):
    # the trapped example's boundary sphere: H = 2 (up to the flat-facet
    # centroid offset, which shrinks at second order under refinement)
    errs = []
    for sub in (3, 4):
        mesh = sphere_mesh(1.0, sub=sub)
        H = sg.mean_curvature(flat3, mesh,
                              level_set=sg.sphere_level_set([0, 0, 0]))
        errs.append(np.max(np.abs(H - 2.0)))
    assert errs[0] < 0.01
    assert errs[1] < 0.0025
    assert errs[0] / errs[1] > 3.5


def test_sphere_H_scaling(flat3):
    for r in (0.5, 3.0):
        mesh = sphere_mesh(r, sub=4)
        H = sg.mean_curvature(flat3, mesh,
                              level_set=sg.sphere_level_set([0, 0, 0]))
        assert np.median(H) == pytest.approx(2.0 / r, rel=2e-3)


def test_schwarzschild_sphere_H_matches_oracle():
    sch = build_preset("schwarzschild_isotropic", m=1.0)
    mesh = sphere_mesh(2.0, sub=4)
    H = sg.mean_curvature(sch, mesh, level_set=sg.sphere_level_set([0, 0, 0]))
    expect = (2 / 2.0) * (1 - 0.25) / (1 + 0.25) ** 3
    assert np.median(H) == pytest.approx(expect, rel=2e-3)


def test_normals_unit_in_metric():
    sch = build_preset("schwarzschild_isotropic", m=1.0)
    mesh = sphere_mesh(1.5)
    nu = mesh.unit_normals(sch)
    g = sch.metric(mesh.centroids)
    norms = np.einsum("mij,mi,mj->m", g, nu, nu)
    assert np.max(np.abs(norms - 1)) < 1e-8


def test_k_trace_values(flat3, aniso):
    mesh = sphere_mesh(1.0)
    assert np.max(np.abs(sg.k_trace(flat3, mesh))) == 0.0
    # per facet against the radial formula at the centroid radius (facet
    # normals tilt from radial only at second order in the mesh size)
    for radius in (1.0, 2.0):
        m = sphere_mesh(radius)
        P = sg.k_trace(aniso, m)
        rc = np.linalg.norm(m.centroids, axis=1)
        expect = -6.0 / (1.0 + rc ** 6)
        assert np.max(np.abs(P - expect)) < 5e-3
    # the paper's sphere values at the nominal radii
    fine = sphere_mesh(1.0, sub=4)
    assert np.median(sg.k_trace(aniso, fine)) == pytest.approx(-3.0, abs=0.01)
    fine2 = sphere_mesh(2.0, sub=4)
    assert np.median(sg.k_trace(aniso, fine2)) == pytest.approx(
        -6.0 / 65.0, abs=1e-3)


def test_classification(flat3, aniso):
    unit = sphere_mesh(1.0)
    sg.populate_diagnostics(flat3, unit,
                            level_set=sg.sphere_level_set([0, 0, 0]))
    assert wf.classify(unit.H, unit.P, tol=5e-3) == {"untrapped"}
    trapped = sphere_mesh(1.0)
    sg.populate_diagnostics(aniso, trapped,
                            level_set=sg.sphere_level_set([0, 0, 0]))
    assert "trapped" in wf.classify(trapped.H, trapped.P, tol=5e-3)
    horizon = sphere_mesh(R_STAR_ANISO, sub=5)
    sg.populate_diagnostics(aniso, horizon,
                            level_set=sg.sphere_level_set([0, 0, 0]))
    labels = wf.classify(horizon.H, horizon.P, tol=5e-3)
    assert "generalized_horizon" in labels


def test_classify_invariant_under_reordering_and_refinement(aniso):
    # labels computed with a tolerance above the mesh residual stay fixed
    # under facet reordering and refinement
    rng = np.random.default_rng(1)
    tol = 0.05
    base = sphere_mesh(R_STAR_ANISO, sub=3)
    sg.populate_diagnostics(aniso, base,
                            level_set=sg.sphere_level_set([0, 0, 0]))
    labels = wf.classify(base.H, base.P, tol=tol)
    # P < 0 on this horizon, so theta+ = H + P vanishes there too: the
    # surface is simultaneously a MOTS and a generalized horizon
    assert labels == {"MOTS", "generalized_horizon"}
    perm = rng.permutation(len(base.facets))
    shuffled = sg.SurfaceMesh(base.vertices, base.facets[perm])
    sg.populate_diagnostics(aniso, shuffled,
                            level_set=sg.sphere_level_set([0, 0, 0]))
    assert wf.classify(shuffled.H, shuffled.P, tol=tol) == labels
    fine = sphere_mesh(R_STAR_ANISO, sub=4)
    sg.populate_diagnostics(aniso, fine,
                            level_set=sg.sphere_level_set([0, 0, 0]))
    assert wf.classify(fine.H, fine.P, tol=tol) == labels


def test_weak_mean_curvature_refinement(flat3):
    # vertex first variation converges to n/r on round spheres
    errs = []
    for sub in (2, 3, 4):
        mesh = sphere_mesh(1.0, sub=sub)
        Hv = sg.weak_mean_curvature(flat3, mesh)
        areas = mesh.metric_areas(flat3)
        Hm = np.sum(Hv[mesh.facets].mean(axis=1) * areas) / np.sum(areas)
        errs.append(abs(Hm - 2.0))
    assert errs[2] < errs[1] < errs[0]
    assert errs[1] / errs[2] > 3.0     # second order in the mean
    mesh3 = sphere_mesh(3.0, sub=4)
    Hv = sg.weak_mean_curvature(flat3, mesh3)
    assert np.mean(Hv) == pytest.approx(2.0 / 3.0, rel=2e-3)


def test_weak_mean_curvature_stadium():
    # C^(1,1) curve: two circular caps joined by straight segments; the weak
    # curvature is 1/R on the arcs, 0 on the flats, bounded at the seams
    flat2 = build_preset("flat", n=1)
    R, half = 1.0, 1.5
    n_arc, n_flat = 64, 48
    th = np.linspace(-np.pi / 2, np.pi / 2, n_arc)
    right = np.stack([half + R * np.cos(th), R * np.sin(th)], 1)
    xs = np.linspace(half, -half, n_flat + 2)[1:-1]
    top = np.stack([xs, np.full(n_flat, R)], 1)
    th2 = np.linspace(np.pi / 2, 3 * np.pi / 2, n_arc)
    left = np.stack([-half + R * np.cos(th2), R * np.sin(th2)], 1)
    bottom = np.stack([-xs[::-1], np.full(n_flat, -R)], 1)
    V = np.concatenate([right, top, left, bottom])
    # drop consecutive duplicates from the arc endpoints
    keep = np.ones(len(V), bool)
    keep[1:] = np.linalg.norm(np.diff(V, axis=0), axis=1) > 1e-9
    V = V[keep]
    m = len(V)
    F = np.stack([np.arange(m), (np.arange(m) + 1) % m], 1)
    mesh = sg.SurfaceMesh(V, F, interior_point=np.zeros(2))
    Hv = sg.weak_mean_curvature(flat2, mesh)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    on_arc = np.abs(x) > half + 0.2 * R
    on_flat = np.abs(x) < half - 0.2 * R
    assert np.median(Hv[on_arc]) == pytest.approx(1.0 / R, rel=0.02)
    assert np.max(np.abs(Hv[on_flat])) < 1e-8
    assert np.max(np.abs(Hv)) < 3.0 / R  # bounded through the seams


def test_mean_curvature_rejects_degenerate():
    with pytest.raises(sg.SurfaceError):
        sg.SurfaceMesh(np.array([[0.0, 0, 0], [0, 0, 0], [1, 0, 0]]),
                       np.array([[0, 1, 2]]))


@pytest.mark.parametrize("h, radius_tol, area_err", [(0.2, 0.014, -0.0104),
                                                      (0.1, 0.004, -0.0026)])
def test_marching_tetrahedra_contours_the_unit_sphere(flat3, h, radius_tol,
                                                      area_err):
    # |x| on cells of [-1.6, 1.6]^3: the centres are odd multiples of h/2, so
    # no sample lies on the level |x| = 1
    x = (np.arange(round(3.2 / h)) + 0.5) * h - 1.6
    values = np.linalg.norm(np.stack(np.meshgrid(x, x, x, indexing="ij")),
                            axis=0)
    mesh = grid.extract_isosurface(values, np.full(3, x[0]), h, 1.0)
    # closed: every edge lies in exactly two facets
    F = mesh.facets
    edges = np.sort(np.concatenate([F[:, [0, 1]], F[:, [1, 2]],
                                    F[:, [0, 2]]]), axis=1)
    assert set(np.unique(edges, axis=0, return_counts=True)[1]) == {2}
    # outward conormals, close to the radial direction
    radial = mesh.centroids / np.linalg.norm(mesh.centroids, axis=1)[:, None]
    assert np.min(np.einsum("mi,mi->m", mesh.conormals, radial)) > 0.95
    assert np.max(np.abs(np.linalg.norm(mesh.vertices, axis=1) - 1.0)) \
        < radius_tol
    # the inscribed facets fall short of the sphere's area by O(h^2)
    rel = mesh.metric_areas(flat3).sum() / (4 * np.pi) - 1.0
    assert rel == pytest.approx(area_err, abs=5e-5)


@pytest.mark.parametrize("d, on_level, radius_tol", [(2, 12, 1e-3),
                                                     (3, 30, 0.014)])
def test_contouring_through_samples_on_the_level(d, on_level, radius_tol):
    # |x| on cell centres -1.4, -1.2, ..., 1.4: some samples lie exactly on
    # the level |x| = 1; each gets one vertex, the facets that collapse
    # there are dropped, and the curve or surface stays closed
    h = 0.2
    x = (np.arange(15) - 7) * h
    values = np.linalg.norm(np.stack(np.meshgrid(*[x] * d, indexing="ij")),
                            axis=0)
    assert np.sum(values == 1.0) == on_level
    mesh = grid.extract_isosurface(values, np.full(d, x[0]), h, 1.0)
    F = mesh.facets
    # every vertex is used; every curve vertex ends two segments, and every
    # surface edge lies in two triangles
    assert np.array_equal(np.unique(F), np.arange(len(mesh.vertices)))
    if d == 2:
        counts = np.bincount(F.ravel())
    else:
        edges = np.sort(np.concatenate([F[:, [0, 1]], F[:, [1, 2]],
                                        F[:, [0, 2]]]), axis=1)
        counts = np.unique(edges, axis=0, return_counts=True)[1]
    assert set(counts) == {2}
    assert np.max(np.abs(np.linalg.norm(mesh.vertices, axis=1) - 1.0)) \
        < radius_tol
