"""The grid lane: ``domain``'s annulus on a cell-centered Cartesian box in
2D/3D, for data with no radial reduction or with an off-centre E0.

Ghost cells inside E0 and beyond the outer sphere hold Dirichlet values; a
face that crosses E0 is a first-order cut cell.  The faces carry only the
metric's diagonal, so a chart metric that is not diagonal is refused, as
is a box above MAX_GRID_CELLS cells.  Jump boundaries are contoured by
marching segments (2D) or marching tetrahedra, six per cube (3D).  scipy
loads inside the methods, and ``domain`` imports this module only for
grids or data with no radial reduction, so radial runs never load it.
"""

import numpy as np

from . import surface_geometry as sg
from .domain import (DomainError, LaneError, _feasibility, outer_radius,
                     rhs_derivs, rhs_value)
from .radial_oracle import sphere_area

# the largest grid box: building a grid lane domain holds about 1 kB per box
# cell at its peak (tracemalloc on a 3D Schwarzschild box of 66^3 cells and
# an anisotropic one of 64^3: 930 and 977 B), so this box takes about 1 GB
MAX_GRID_CELLS = 1_000_000
_TET_SPLIT = [(0, 1, 3, 7), (0, 1, 5, 7), (0, 2, 3, 7),
              (0, 2, 6, 7), (0, 4, 5, 7), (0, 4, 6, 7)]
_CUBE_OFFSETS = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0],
                          [0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]])


class GridDomain:
    """Cell-centered Cartesian lane (see the module docstring)."""

    kind = "grid"
    THETA_MIN = 0.1

    def __init__(self, ids, e0_center, e0_radius, h, L, alpha, R0):
        self.ids = ids
        self.n = ids.n
        d = ids.dim
        if d not in (2, 3):
            raise DomainError("grid lane supports chart dimensions 2 and 3")
        self.d = d
        self.L = float(L)
        self.alpha = float(alpha)
        self.R0 = float(R0)
        self.e0_center = np.asarray(e0_center, float)
        self.e0_radius = float(e0_radius)
        self.r_out = outer_radius(L, alpha, R0)
        self.h = float(h)
        self.r_g = np.inf       # not graded: every cell has width h
        half = self.r_out + 2 * h
        m = int(np.ceil(2 * half / h))
        if m % 2:
            m += 1
        if m ** d > MAX_GRID_CELLS:
            # the widest even side that fits; a box side is 2 r_out / h + 4
            # cells rounded up, and one cell to spare covers the rounding
            side = int(MAX_GRID_CELLS ** (1.0 / d)) // 2 * 2
            raise DomainError(
                f"grid box of {m}^{d} = {m ** d:,} cells is above "
                f"MAX_GRID_CELLS = {MAX_GRID_CELLS:,}; "
                f"h >= {2 * self.r_out / (side - 5):.6g} fits")
        self.shape = (m,) * d
        axes = [(-half + (np.arange(m) + 0.5) * h) for _ in range(d)]
        grids = np.meshgrid(*axes, indexing="ij")
        self.centers = np.stack([g.ravel() for g in grids], axis=1)
        x = self.centers
        self.sdf = np.linalg.norm(x - self.e0_center, axis=1) - self.e0_radius
        rad = np.linalg.norm(x, axis=1)
        self.active = (self.sdf > 0) & (rad < self.r_out)
        if not np.any(self.sdf <= 0):
            raise DomainError("E0 is not resolved by the grid")
        if np.any((self.sdf <= 0) & (rad >= self.r_out)):
            raise DomainError("E0 touches the outer boundary")
        g = ids.metric(x)
        mask = ~np.eye(d, dtype=bool)
        if np.max(np.abs(g[:, mask])) > 1e-12:
            raise DomainError("grid lane requires a diagonal metric in the chart")
        self.g_diag = np.einsum('mii->mi', g).copy()
        self.sqrt_g = np.sqrt(np.prod(self.g_diag, axis=1))
        # H+ on dE0: the largest mean curvature of the E0 sphere in the
        # metric, at the vertices of a sphere mesh
        mesh = (sg.icosphere(self.e0_radius, subdivisions=2) if d == 3
                else sg.circle_mesh(self.e0_radius))
        H = sg.level_set_mean_curvature(ids, mesh.vertices + self.e0_center,
                                        sg.sphere_level_set(self.e0_center))
        self.H_plus = max(float(np.max(H)), 0.0)
        self.idx = -np.ones(len(x), dtype=int)
        self.idx[self.active] = np.arange(int(np.sum(self.active)))
        self.n_unknowns = int(np.sum(self.active))
        rr = np.maximum(rad, 1e-300)
        self._subsol = self.alpha * np.log(rr / self.R0)
        self._build_faces()
        self._build_operators()

    # construction helpers --------------------------------------------------
    def _neighbors(self, flat, axis, step):
        coords = np.array(np.unravel_index(flat, self.shape))
        coords[axis] += step
        valid = (coords[axis] >= 0) & (coords[axis] < self.shape[axis])
        out = -np.ones(len(flat), dtype=int)
        out[valid] = np.ravel_multi_index(tuple(coords[:, valid]), self.shape)
        return out

    def _build_faces(self):
        # faces between an active cell and its +axis neighbor (active or
        # ghost), plus ghost-to-active faces on the minus side
        act = np.where(self.active)[0]
        lo_all, hi_all, ax_all = [], [], []
        for ax in range(self.d):
            plus = self._neighbors(act, ax, +1)
            ok = plus >= 0
            lo_all.append(act[ok])
            hi_all.append(plus[ok])
            ax_all.append(np.full(int(np.sum(ok)), ax))
            minus = self._neighbors(act, ax, -1)
            ghost = (minus >= 0) & (~self.active[np.maximum(minus, 0)])
            lo_all.append(minus[ghost])
            hi_all.append(act[ghost])
            ax_all.append(np.full(int(np.sum(ghost)), ax))
        self.f_lo = np.concatenate(lo_all)
        self.f_hi = np.concatenate(hi_all)
        self.f_ax = np.concatenate(ax_all)
        gi = 1.0 / self.g_diag
        self.f_sqrt_g = 0.5 * (self.sqrt_g[self.f_lo] + self.sqrt_g[self.f_hi])
        self.f_ginv = 0.5 * (gi[self.f_lo] + gi[self.f_hi])

    def _build_operators(self):
        """Sparse operators over the active cells, all read off the faces.

        ``D_op @ u + D_bc_outer * bc`` is the normal difference on each
        face.  A ghost beyond the outer sphere carries the Dirichlet value
        bc; a ghost inside E0 carries u_i (1 - 1/theta), the linear
        extrapolation through the interface zero at the cut fraction theta
        (first-order cut cell).  ``Div_op`` is the metric divergence of face
        fluxes, ``half_op`` the face average of cell values (a ghost taking
        its owner's value), and ``G_ops[k] @ u + G_bc_outer[k] * bc`` the
        centered gradient on axis k: the mean of the cell's two faces on
        that axis.
        """
        import scipy.sparse as sp       # grid lane only: see the module
        nline, nact = len(self.f_lo), self.n_unknowns
        lo_act = self.active[self.f_lo]
        hi_act = self.active[self.f_hi]
        lo_faces, hi_faces = np.where(lo_act)[0], np.where(hi_act)[0]
        lo_cells = self.idx[self.f_lo[lo_act]]
        hi_cells = self.idx[self.f_hi[hi_act]]
        own = np.where(lo_act, self.f_lo, self.f_hi)
        other = np.where(lo_act, self.f_hi, self.f_lo)
        cut = self.sdf[other] <= 0
        th = np.ones(nline)
        th[cut] = self.sdf[own[cut]] / np.maximum(
            self.sdf[own[cut]] - self.sdf[other[cut]], 1e-300)
        inv_dx = 1.0 / (np.clip(th, self.THETA_MIN, 1.0) * self.h)
        self.D_op = sp.csr_matrix(
            (np.concatenate([inv_dx[hi_act], -inv_dx[lo_act]]),
             (np.concatenate([hi_faces, lo_faces]),
              np.concatenate([hi_cells, lo_cells]))), shape=(nline, nact))
        self.D_bc_outer = np.zeros(nline)
        self.D_bc_outer[~hi_act & ~cut] = 1.0 / self.h
        self.D_bc_outer[~lo_act & ~cut] = -1.0 / self.h
        # cell x face incidence: each active side of a face
        rows = np.concatenate([lo_cells, hi_cells])
        cols = np.concatenate([lo_faces, hi_faces])
        vol = self.sqrt_g * self.h
        self.Div_op = sp.csr_matrix(
            (np.concatenate([+1.0 / vol[self.f_lo[lo_act]],
                             -1.0 / vol[self.f_hi[hi_act]]]), (rows, cols)),
            shape=(nact, nline))
        self.G_ops, self.G_bc_outer = [], []
        for k in range(self.d):
            on_k = self.f_ax[cols] == k
            mean_k = sp.csr_matrix(
                (np.full(int(np.sum(on_k)), 0.5), (rows[on_k], cols[on_k])),
                shape=(nact, nline))
            self.G_ops.append(mean_k @ self.D_op)
            self.G_bc_outer.append(mean_k @ self.D_bc_outer)
        sides = np.concatenate([own, np.where(hi_act, self.f_hi, own)])
        self.half_op = sp.csr_matrix(
            (np.full(2 * nline, 0.5),
             (np.tile(np.arange(nline), 2), self.idx[sides])),
            shape=(nline, nact))
        # the face average of each centred gradient, for the Jacobian
        self.HG_ops = [self.half_op @ G for G in self.G_ops]
        act = np.where(self.active)[0]
        self.ginv_cells = 1.0 / self.g_diag[act]
        self.K_act = self.ids.second_form(self.centers[act])
        self.sg_act = self.sqrt_g[act]
        self.r_act = np.linalg.norm(self.centers[act], axis=1)
        self.near_e0 = self.sdf[act] <= 2 * self.h
        self.subsol_act = self._subsol[act]

    # fields over the active cells ------------------------------------------
    @property
    def radii(self):
        return self.r_act

    def full_field(self, interior, bc):
        return interior.copy()

    def _cell_grads(self, interior, bc):
        return [self.G_ops[k] @ interior + self.G_bc_outer[k] * bc
                for k in range(self.d)]

    def metric_gradient(self, interior, bc):
        cell_grads = self._cell_grads(interior, bc)
        W2 = np.zeros(self.n_unknowns)
        for k in range(self.d):
            W2 += self.ginv_cells[:, k] * cell_grads[k] ** 2
        return np.sqrt(W2)

    def volumes(self):
        return self.sg_act * self.h ** self.d

    # operator --------------------------------------------------------------
    def _face_state(self, u, bc, eps):
        gn = self.D_op @ u + self.D_bc_outer * bc
        cell_grads = self._cell_grads(u, bc)
        gts = [self.half_op @ cg for cg in cell_grads]
        W2 = eps ** 2 + 0.0
        for k in range(self.d):
            comp = np.where(self.f_ax == k, gn, gts[k])
            W2 = W2 + self.f_ginv[:, k] * comp ** 2
        return gn, gts, cell_grads, np.sqrt(W2)

    def _rhs_state(self, cell_grads, eps):
        """Per cell: eps^2 + |grad u|^2, the raised gradient and the
        K-contraction T, all from centered gradients."""
        W2c = np.full(self.n_unknowns, eps ** 2)
        for k in range(self.d):
            W2c = W2c + self.ginv_cells[:, k] * cell_grads[k] ** 2
        raised = [self.ginv_cells[:, k] * cell_grads[k] for k in range(self.d)]
        KT = np.zeros(self.n_unknowns)
        for i in range(self.d):
            for j in range(self.d):
                KT += raised[i] * raised[j] * self.K_act[:, i, j]
        return W2c, raised, KT / W2c

    def residual(self, interior, eps, s, bc, variant="stimcf"):
        """The operator at the active cells and its linearization for
        ``jacobian``: the face state, the normal inverse metric, the cell
        state, the right-hand side's roots, s and the variant."""
        gn, gts, cell_grads, Wf = self._face_state(interior, bc, eps)
        ginv_n = self.f_ginv[np.arange(len(gn)), self.f_ax]
        F = self.f_sqrt_g * ginv_n * gn / Wf
        W2c, raised, T = self._rhs_state(cell_grads, eps)
        R, roots = rhs_value(W2c, T, s, variant)
        res = self.Div_op @ F - R
        return res, (gn, gts, cell_grads, Wf, ginv_n, W2c, raised, T, roots,
                     s, variant)

    def jacobian(self, lin):
        import scipy.sparse as sp
        (gn, gts, cell_grads, Wf, ginv_n, W2c, raised, T, roots, s,
         variant) = lin
        # dF/dgn and dF/dgt_k
        dF_dgn = self.f_sqrt_g * ginv_n * (1.0 / Wf
                                           - ginv_n * gn ** 2 / Wf ** 3)
        J = self.Div_op @ (sp.diags(dF_dgn) @ self.D_op)
        for k in range(self.d):
            comp = np.where(self.f_ax != k, gts[k], 0.0)
            dF_dgt = -self.f_sqrt_g * ginv_n * gn * self.f_ginv[:, k] * comp / Wf ** 3
            J = J + self.Div_op @ (sp.diags(dF_dgt) @ self.HG_ops[k])
        dRdW2, dRdT = rhs_derivs(roots, T, s, variant)
        coef_w2 = dRdW2 - dRdT * T / W2c
        for k in range(self.d):
            dKT_dgk = np.zeros(self.n_unknowns)
            for j in range(self.d):
                dKT_dgk += 2 * self.ginv_cells[:, k] * raised[j] * self.K_act[:, k, j]
            dR_dgk = (coef_w2 * 2 * self.ginv_cells[:, k] * cell_grads[k]
                      + dRdT * dKT_dgk / W2c)
            J = J - sp.diags(dR_dgk) @ self.G_ops[k]
        return J.tocsc()

    def solve(self, J, rhs):
        from scipy.sparse.linalg import spsolve
        return spsolve(J, rhs)

    def norm_inf(self, J):
        return float(np.max(np.abs(J).sum(axis=1)))

    def initial_guess(self, s, bc, eps):
        """The log subsolution rescaled to slope n, capped at bc."""
        return np.clip(self.subsolution_values() * (self.n / self.alpha), 0.0, bc)

    # data ------------------------------------------------------------------
    def subsolution_values(self):
        return self.subsol_act

    def feasibility(self):
        vol = float(np.sum(self.sg_act) * self.h ** self.d)
        area_in = sphere_area(self.n) * self.e0_radius ** self.n
        area_out = sphere_area(self.n) * self.r_out ** self.n
        gbar = float(np.mean(self.g_diag[self.active]))
        area = (area_in + area_out) * gbar ** (self.n / 2)
        return _feasibility(area, vol)

    def k_is_zero(self):
        return bool(np.max(np.abs(self.K_act)) == 0.0)

    def boundary_gradients(self, interior, bc):
        """(H+ of the E0 sphere in the metric, max |grad u|_g over the cells
        within 2h of E0)."""
        grad = self.metric_gradient(interior, bc)
        return self.H_plus, float(np.max(grad[self.near_e0]))

    def require_radial(self, what):
        raise LaneError(f"{what} runs on the radial lane")

    # geometry read off a solution ------------------------------------------
    def components(self, mask):
        """Connected (face-adjacent) groups of active cells where mask
        holds, as active-cell indices, in the order of their smallest cell:
        the components of the graph of the faces whose two cells are both
        active and masked."""
        import scipy.sparse as sp
        from scipy.sparse.csgraph import connected_components
        on = np.append(np.asarray(mask, bool), False)   # idx -1: a ghost
        lo, hi = self.idx[self.f_lo], self.idx[self.f_hi]
        link = on[lo] & on[hi]
        nact = self.n_unknowns
        _, lab = connected_components(sp.csr_matrix(
            (np.ones(int(np.sum(link))), (lo[link], hi[link])),
            shape=(nact, nact)), directed=False)
        cells = np.where(mask)[0]
        lab = lab[cells]
        _, first = np.unique(lab, return_index=True)
        return [cells[lab == lab[i]] for i in np.sort(first)]

    def plateau_radii(self, sol, comp, t0, knee_floor):
        rads = self.r_act[comp]
        return float(np.min(rads)), float(np.max(rads))

    def _extended_field(self, sol):
        """u on the full grid: smooth signed-distance continuation into E0
        (slope matched to the boundary gradient) and the Dirichlet value
        outside, so contouring stays well behaved."""
        full = np.full(len(self.active), sol.bc)
        slope = float(np.median(sol.metric_gradient()[self.near_e0]))
        inside = self.sdf <= 0
        full[inside] = self.sdf[inside] * max(slope, 1e-3)
        full[self.active] = sol.interior
        return full.reshape(self.shape)

    def boundary_curvatures(self, sol, jump, side):
        """(H, P) per facet of the contour t0 -/+ 3 eps of the jump's value
        t0, H from the weak first variation (u is flat on the plateau);
        None if the contour is empty."""
        delta = 3 * sol.eps
        t = {"inner": jump.value - delta, "outer": jump.value + delta}[side]
        mesh = extract_isosurface(self._extended_field(sol), self.centers[0],
                                  self.h, t, interior_point=self.e0_center)
        if mesh is None:
            return None
        return sg.mean_curvature(self.ids, mesh), sg.k_trace(self.ids, mesh)

    def tail_normals(self, interiors, bc):
        """Unit centered-gradient directions of the last tail rung, and per
        cell the largest angle between consecutive rungs, in degrees."""
        grads = [np.stack(self._cell_grads(x, bc), axis=1) for x in interiors]
        tails = [g / np.maximum(np.sqrt(np.sum(g * g, axis=1)), 1e-300)[:, None]
                 for g in grads]
        max_ang = np.zeros(self.n_unknowns)
        for k in range(1, len(tails)):
            cosv = np.clip(np.sum(tails[k] * tails[k - 1], axis=1), -1, 1)
            max_ang = np.maximum(max_ang, np.degrees(np.arccos(cosv)))
        return tails[-1], max_ang

    def extrema_excess(self, sol):
        full = self._extended_field(sol).ravel()
        act = np.where(self.active)[0]
        neigh = np.stack([self._neighbors(act, ax, stp)
                          for ax in range(self.d) for stp in (+1, -1)], axis=1)
        vals = full[np.maximum(neigh, 0)]
        mn = np.min(np.where(neigh >= 0, vals, np.inf), axis=1)
        mx = np.max(np.where(neigh >= 0, vals, -np.inf), axis=1)
        uact = full[act]
        return (float(np.max(uact - mx, initial=0.0)),
                float(np.max(mn - uact, initial=0.0)))


def _pointwise_margin(ids, x, alpha):
    """H_level - sqrt(|grad v|^2 + P_nu^2) for v = alpha ln|x| at points x."""
    x = np.atleast_2d(x)
    r = np.linalg.norm(x, axis=1)
    nu = x / r[:, None]
    H = sg.level_set_mean_curvature(ids, x,
                                    lambda p: np.linalg.norm(p, axis=1))
    ginv = ids.inverse_metric(x)
    K = ids.second_form(x)
    gradv_sq = alpha ** 2 * np.einsum('mij,mi,mj->m', ginv, nu, nu) / r ** 2
    # unit g-normal of the coordinate sphere
    nrm = np.sqrt(np.einsum('mij,mi,mj->m', ginv, nu, nu))
    nu_up = np.einsum('mij,mj->mi', ginv, nu) / nrm[:, None]
    trK = np.einsum('mij,mij->m', ginv, K)
    P = trK - np.einsum('mi,mj,mij->m', nu_up, nu_up, K)
    return H - np.sqrt(gradv_sq + P ** 2)


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
    return sg.SurfaceMesh(np.array(verts), np.array(segs, int),
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
    return sg.SurfaceMesh(np.array(verts), np.array(tris, int),
                          interior_point=interior_point)


def extract_isosurface(values, origin, h, level, interior_point=None):
    if values.ndim == 2:
        return marching_segments(values, origin, h, level, interior_point)
    if values.ndim == 3:
        return marching_tetrahedra(values, origin, h, level, interior_point)
    raise ValueError("extraction supports 2D and 3D sample arrays")
