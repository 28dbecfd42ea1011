"""Level-set extraction from cell-centered samples.

2D uses marching segments on grid squares; 3D splits each cube into six
tetrahedra and emits triangles (marching tetrahedra), which avoids the
ambiguous cube cases at the cost of a few more facets.
"""

import numpy as np

from .surface_geometry import SurfaceMesh

_TET_SPLIT = [(0, 1, 3, 7), (0, 1, 5, 7), (0, 2, 3, 7),
              (0, 2, 6, 7), (0, 4, 5, 7), (0, 4, 6, 7)]
_CUBE_OFFSETS = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0],
                          [0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]])


def _add_vertex(cache, verts, ends, p0, p1, v0, v1):
    """Cache the vertex of the level on the edge between samples `ends`
    (at p0, p1 with values v0, v1) under the sorted pair.  A level through
    a sample (t = 0 or 1) gets one vertex there, keyed by the sample and
    shared by all of its edges; the callers drop the facets that collapse
    on it."""
    key = ends if ends[0] < ends[1] else ends[::-1]
    t = v0 / (v0 - v1)
    if t not in (0.0, 1.0):
        verts.append(p0 + t * (p1 - p0))
        cache[key] = len(verts) - 1
        return
    sample = ends[int(t)]
    if sample not in cache:
        verts.append(p1 if t else p0)
        cache[sample] = len(verts) - 1
    cache[key] = cache[sample]


def marching_segments(values, origin, h, level, interior_point=None):
    """2D: polyline segments of the `level` contour of cell-centered values."""
    f = values - level
    ni, nj = f.shape
    verts, segs = [], []
    cache = {}

    def vertex(i0, j0, i1, j1):
        key = ((i0, j0), (i1, j1)) if (i0, j0) < (i1, j1) else ((i1, j1), (i0, j0))
        if key not in cache:
            p0 = origin + h * np.array([i0, j0])
            p1 = origin + h * np.array([i1, j1])
            _add_vertex(cache, verts, ((i0, j0), (i1, j1)), p0, p1,
                        f[i0, j0], f[i1, j1])
        return cache[key]

    for i in range(ni - 1):
        for j in range(nj - 1):
            corners = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
            vals = [f[c] for c in corners]
            inside = [v < 0 for v in vals]
            idx = sum(b << k for k, b in enumerate(inside))
            if idx in (0, 15):
                continue
            # edges: (0,1),(1,2),(2,3),(3,0)
            edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
            pts = []
            for a, b in edges:
                if inside[a] != inside[b]:
                    pts.append(vertex(*corners[a], *corners[b]))
            # a saddle (4 points) splits consistently by pairing
            # alternating edges
            segs += [pts[m:m + 2] for m in range(0, len(pts), 2)
                     if pts[m] != pts[m + 1]]
    if not verts:
        return None
    return SurfaceMesh(np.array(verts), np.array(segs, int),
                       interior_point=interior_point)


def marching_tetrahedra(values, origin, h, level, interior_point=None):
    """3D: triangle mesh of the `level` isosurface of cell-centered values."""
    f = np.asarray(values, float) - level
    ni, nj, nk = f.shape
    verts, tris = [], []
    cache = {}

    def vertex(c0, c1):
        key = (c0, c1) if c0 < c1 else (c1, c0)
        if key not in cache:
            p0 = origin + h * np.array(np.unravel_index(key[0], f.shape))
            p1 = origin + h * np.array(np.unravel_index(key[1], f.shape))
            _add_vertex(cache, verts, key, p0, p1, f.flat[key[0]],
                        f.flat[key[1]])
        return cache[key]

    # active cubes: any sign change among corners
    sign = f < 0
    core = sign[:-1, :-1, :-1]
    changed = np.zeros_like(core)
    for off in _CUBE_OFFSETS[1:]:
        sl = sign[off[0]:ni - 1 + off[0], off[1]:nj - 1 + off[1],
                  off[2]:nk - 1 + off[2]]
        changed |= (sl != core)
    cubes = np.argwhere(changed)
    strides = np.array(f.strides) // f.itemsize
    for (i, j, k) in cubes:
        base = i * strides[0] + j * strides[1] + k * strides[2]
        corner_flat = base + _CUBE_OFFSETS @ strides
        for tet in _TET_SPLIT:
            ids = [int(corner_flat[t]) for t in tet]
            vals = [f.flat[c] for c in ids]
            ins = [v < 0 for v in vals]
            cnt = sum(ins)
            if cnt in (0, 4):
                continue
            if cnt == 1 or cnt == 3:
                lone = ins.index(cnt == 1)
                others = [m for m in range(4) if m != lone]
                tris.append([vertex(ids[lone], ids[o]) for o in others])
            else:
                a, b_ = [m for m in range(4) if ins[m]]
                c, d = [m for m in range(4) if not ins[m]]
                pac = vertex(ids[a], ids[c])
                pad = vertex(ids[a], ids[d])
                pbc = vertex(ids[b_], ids[c])
                pbd = vertex(ids[b_], ids[d])
                tris.append([pac, pad, pbd])
                tris.append([pac, pbd, pbc])
    tris = [t for t in tris if len(set(t)) == 3]
    if not verts:
        return None
    return SurfaceMesh(np.array(verts), np.array(tris, int),
                       interior_point=interior_point)


def extract_isosurface(values, origin, h, level, interior_point=None):
    if values.ndim == 2:
        return marching_segments(values, origin, h, level, interior_point)
    if values.ndim == 3:
        return marching_tetrahedra(values, origin, h, level, interior_point)
    raise ValueError("extraction supports 2D and 3D sample arrays")
