"""Extrinsic geometry of hypersurfaces: H, P and classification.

Meshes are simplicial (segments in a 2D chart, triangles in 3D) with
per-facet diagnostics.  Mean curvature comes from the divergence of the
extended unit normal when the surface is described as a level set (spheres),
and from the discrete first variation of metric area for free meshes.  Sign
convention: outward normal, H = n/r > 0 on round spheres in the flat chart.
``classify`` reads samples of H and P from any source: a mesh's facets, or
the one exact value of a centred sphere that ``RadialProfile`` gives.
"""

import numpy as np

from .initial_data import _as_points, inverse_and_det

LEVEL_SET_FD_STEP = 1e-4    # central-difference step of the level-set H


class SurfaceError(ValueError):
    pass


class SurfaceMesh:
    """Closed simplicial hypersurface with cached per-facet diagnostics.

    The per-facet fields H and P are filled by ``mean_curvature`` and
    ``k_trace`` (both by ``populate_diagnostics``); ``classify`` reads the
    expansions H +- P off them.
    """

    def __init__(self, vertices, facets, interior_point=None):
        self.vertices = np.asarray(vertices, float)
        self.facets = np.asarray(facets, int)
        self.dim = self.vertices.shape[1]
        if self.facets.shape[1] != self.dim:
            raise SurfaceError("facet arity must match chart dimension")
        self.interior_point = (np.zeros(self.dim) if interior_point is None
                               else np.asarray(interior_point, float))
        self.H = None
        self.P = None
        self._euclid_geometry()

    # -- chart (Euclidean) geometry, metric corrections applied on demand --
    def _euclid_geometry(self):
        V, F = self.vertices, self.facets
        self.centroids = V[F].mean(axis=1)
        if self.dim == 2:
            e = V[F[:, 1]] - V[F[:, 0]]
            raw = np.stack([e[:, 1], -e[:, 0]], axis=1)
        else:
            e1 = V[F[:, 1]] - V[F[:, 0]]
            e2 = V[F[:, 2]] - V[F[:, 0]]
            raw = np.cross(e1, e2)
        nrm = np.linalg.norm(raw, axis=1)
        if np.any(nrm < 1e-300):
            raise SurfaceError("degenerate facet (zero chart area)")
        self.conormals = raw / nrm[:, None]          # Euclidean unit covector
        out = np.einsum('mi,mi->m', self.conormals,
                        self.centroids - self.interior_point)
        flip = out < 0
        self.conormals[flip] *= -1.0

    def facet_tangents(self):
        V, F = self.vertices, self.facets
        if self.dim == 2:
            return [(V[F[:, 1]] - V[F[:, 0]])]
        return [V[F[:, 1]] - V[F[:, 0]], V[F[:, 2]] - V[F[:, 0]]]

    def metric_areas(self, ids):
        """Per-facet area element in the metric of `ids`."""
        g = ids.metric(self.centroids)
        tans = self.facet_tangents()
        if self.dim == 2:
            t = tans[0]
            return np.sqrt(np.einsum('mij,mi,mj->m', g, t, t))
        g11 = np.einsum('mij,mi,mj->m', g, tans[0], tans[0])
        g22 = np.einsum('mij,mi,mj->m', g, tans[1], tans[1])
        g12 = np.einsum('mij,mi,mj->m', g, tans[0], tans[1])
        return 0.5 * np.sqrt(np.maximum(g11 * g22 - g12 ** 2, 0.0))

    def unit_normals(self, ids):
        """Outward unit normals in the metric: raise the Euclidean conormal
        with g^{-1} and normalize (this is g-orthogonal to the facet)."""
        ginv = ids.inverse_metric(self.centroids)
        nu = np.einsum('mij,mj->mi', ginv, self.conormals)
        nrm = np.sqrt(np.einsum('mij,mi,mj->m',
                                ids.metric(self.centroids), nu, nu))
        return nu / nrm[:, None]


# -- generators ------------------------------------------------------------

def circle_mesh(radius, segments=256):
    """Origin-centred circle mesh with `segments` edges."""
    th = np.linspace(0, 2 * np.pi, segments, endpoint=False)
    V = np.stack([radius * np.cos(th), radius * np.sin(th)], axis=1)
    F = np.stack([np.arange(segments), (np.arange(segments) + 1) % segments],
                 axis=1)
    return SurfaceMesh(V, F)


def icosphere(radius=1.0, subdivisions=3):
    """Origin-centred geodesic sphere mesh from a subdivided icosahedron.

    Each subdivision splits every facet (a, b, c) into (a, ab, ca),
    (b, bc, ab), (c, ca, bc) and (ab, bc, ca), where ab is the unit
    midpoint of edge ab.  The new vertices follow the old ones, numbered in
    the order their edges first occur walking the facets and, within a
    facet, the edges ab, bc, ca.
    """
    t = (1.0 + np.sqrt(5.0)) / 2.0
    V = np.array([[-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
                  [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
                  [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1]], float)
    V /= np.linalg.norm(V, axis=1)[:, None]
    F = np.array([(0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
                  (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
                  (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
                  (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1)])
    for _ in range(subdivisions):
        # edges ab, bc, ca of every facet, in walking order
        edges = np.stack([F, np.roll(F, -1, axis=1)], axis=2).reshape(-1, 2)
        key = np.min(edges, axis=1) * len(V) + np.max(edges, axis=1)
        _, first, inverse = np.unique(key, return_index=True,
                                      return_inverse=True)
        order = np.argsort(first)        # distinct edges, first seen first
        rank = np.empty(len(first), int)
        rank[order] = np.arange(len(first))
        mid = (len(V) + rank[inverse]).reshape(-1, 3)
        e = edges[first[order]]
        M = 0.5 * (V[e[:, 0]] + V[e[:, 1]])
        # the row dot is the arithmetic of np.linalg.norm on one row
        M /= np.sqrt(np.matmul(M[:, None, :], M[:, :, None]))[:, 0]
        V = np.concatenate([V, M])
        ab, bc, ca = mid[:, 0], mid[:, 1], mid[:, 2]
        F = np.stack([F[:, 0], ab, ca, F[:, 1], bc, ab, F[:, 2], ca, bc,
                      ab, bc, ca], axis=1).reshape(-1, 3)
    return SurfaceMesh(V * radius, F)


# -- level-set mean curvature ----------------------------------------------

def level_set_mean_curvature(ids, points, phi):
    """H = div_g( grad phi / |grad phi|_g ) at points, by nested central FD
    with step LEVEL_SET_FD_STEP.

    `phi` maps (m, d) points to level values; the extended unit normal field
    is differentiated with the metric volume weight, matching the operator of
    the level-set formulation exactly.  The metric is evaluated once per
    point set; its inverse and sqrt(det) are read off that one array.
    """
    points = _as_points(points)
    d = points.shape[1]
    h = LEVEL_SET_FD_STEP
    shifts = np.eye(d) * h

    def unit_field(x):
        grad = np.stack([(phi(x + shifts[c]) - phi(x - shifts[c])) / (2 * h)
                         for c in range(d)], axis=1)
        ginv, det = inverse_and_det(ids.metric(x))
        up = np.einsum('mij,mj->mi', ginv, grad)
        norm = np.sqrt(np.maximum(np.einsum('mi,mi->m', up, grad), 1e-300))
        return (np.sqrt(det)[:, None] * up / norm[:, None])

    sg0 = np.sqrt(inverse_and_det(ids.metric(points))[1])
    div = np.zeros(len(points))
    for c in range(d):
        fp = unit_field(points + shifts[c])[:, c]
        fm = unit_field(points - shifts[c])[:, c]
        div += (fp - fm) / (2 * h)
    return div / sg0


def mean_curvature(ids, surf, level_set=None):
    """Per-facet mean curvature of the mesh in the data's metric.

    level_set: optional callable describing the surface as its zero/level set
    (used for spheres); free meshes fall back to the vertex first-variation
    estimate averaged onto facets.
    """
    nu = surf.unit_normals(ids)
    norms = np.sqrt(np.einsum('mij,mi,mj->m', ids.metric(surf.centroids),
                              nu, nu))
    if np.max(np.abs(norms - 1.0)) > 1e-8:
        raise SurfaceError("normals failed to normalize in the metric")
    if level_set is not None:
        H = level_set_mean_curvature(ids, surf.centroids, level_set)
    else:
        Hv = weak_mean_curvature(ids, surf)
        H = Hv[surf.facets].mean(axis=1)
    surf.H = H
    return H


def sphere_level_set(center):
    center = np.asarray(center, float)

    def phi(x):
        return np.linalg.norm(_as_points(x) - center[None, :], axis=1)
    return phi


def k_trace(ids, surf):
    """P = (g^ij - nu^i nu^j) K_ij per facet (the spacetime trace term)."""
    x = surf.centroids
    K = ids.second_form(x)
    ginv = ids.inverse_metric(x)
    nu = surf.unit_normals(ids)
    trK = np.einsum('mij,mij->m', ginv, K)
    P = trK - np.einsum('mi,mj,mij->m', nu, nu, K)
    surf.P = P
    return P


def classify(H, P, tol):
    """Classify a surface from samples of its H and P (per facet, or one
    exact value on a centred sphere): the medians of H, P and the
    expansions theta+- = H +- P against the absolute tolerance `tol`.

    Returns a set drawn from {untrapped, trapped, MOTS, MITS,
    generalized_horizon}; a MOTS or MITS is in particular a generalized
    apparent horizon, so several labels may coexist.
    """
    tp, tm, H, P = (float(np.median(x)) for x in (H + P, H - P, H, P))
    labels = set()
    if abs(tp) <= tol:
        labels.add("MOTS")
    if abs(tm) <= tol:
        labels.add("MITS")
    if abs(H - abs(P)) <= tol and H >= -tol:
        labels.add("generalized_horizon")
    if H > abs(P) + tol and H > 0:
        labels.add("untrapped")
    if H < abs(P) - tol:
        labels.add("trapped")
    return labels


def weak_mean_curvature(ids, surf):
    """Per-vertex weak mean curvature from the first variation of area.

    Solves the discrete identity  sum_T d(area_T)/d(vertex) = H nu mu_vertex
    with lumped vertex measure mu = sum of adjacent facet areas / arity; the
    metric is frozen per facet at its centroid (exact in the flat chart).
    """
    V, F = surf.vertices, surf.facets
    g = ids.metric(surf.centroids)
    nV = len(V)
    grad = np.zeros_like(V)
    dual = np.zeros(nV)
    if surf.dim == 2:
        t = V[F[:, 1]] - V[F[:, 0]]
        lg = np.sqrt(np.einsum('mij,mi,mj->m', g, t, t))
        gt = np.einsum('mij,mj->mi', g, t) / lg[:, None]
        np.add.at(grad, F[:, 0], -gt)
        np.add.at(grad, F[:, 1], gt)
        np.add.at(dual, F[:, 0], 0.5 * lg)
        np.add.at(dual, F[:, 1], 0.5 * lg)
    else:
        e1 = V[F[:, 1]] - V[F[:, 0]]
        e2 = V[F[:, 2]] - V[F[:, 0]]
        g11 = np.einsum('mij,mi,mj->m', g, e1, e1)
        g22 = np.einsum('mij,mi,mj->m', g, e2, e2)
        g12 = np.einsum('mij,mi,mj->m', g, e1, e2)
        area = 0.5 * np.sqrt(np.maximum(g11 * g22 - g12 ** 2, 1e-300))
        ge1 = np.einsum('mij,mj->mi', g, e1)
        ge2 = np.einsum('mij,mj->mi', g, e2)
        dA_de1 = (g22[:, None] * ge1 - g12[:, None] * ge2) / (4 * area[:, None])
        dA_de2 = (g11[:, None] * ge2 - g12[:, None] * ge1) / (4 * area[:, None])
        np.add.at(grad, F[:, 0], -(dA_de1 + dA_de2))
        np.add.at(grad, F[:, 1], dA_de1)
        np.add.at(grad, F[:, 2], dA_de2)
        third = area / 3.0
        for k in range(3):
            np.add.at(dual, F[:, k], third)
    # vertex normals: area-weighted facet normals
    nu_f = surf.unit_normals(ids)
    areas = surf.metric_areas(ids)
    nu_v = np.zeros_like(V)
    for k in range(F.shape[1]):
        np.add.at(nu_v, F[:, k], areas[:, None] * nu_f)
    nrm = np.linalg.norm(nu_v, axis=1)
    nu_v /= np.maximum(nrm, 1e-300)[:, None]
    return np.einsum('vi,vi->v', grad, nu_v) / np.maximum(dual, 1e-300)


def populate_diagnostics(ids, surf, level_set=None):
    """Fill H and P per facet and return the mesh."""
    mean_curvature(ids, surf, level_set=level_set)
    k_trace(ids, surf)
    return surf
