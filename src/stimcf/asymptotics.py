"""Blowdown comparison, roundness and starshapedness diagnostics.

The blowdown resamples the single recorded solution, u_lambda(y) = u(y /
lambda), against the expanding-sphere profile n ln|y| on a fixed annulus.
The measured error has a numerical floor from the finite regularization
(the eps tail shifts arrival times by O((eps/lambda)^2) across the annulus),
which the comparison reports alongside the errors.
"""

import numpy as np

from .weak_flow import FlowError


DEFAULT_ANNULUS = (1.0, 3.0)
# the outer truncation affects arrival times only within O(eps) of the
# plateau value; a quarter flow-time unit of clearance is generous
BLOWDOWN_VALUE_MARGIN = 0.25
N_SHELLS = 24               # shells of the starshapedness check


class BlowdownTrace:
    def __init__(self, scales, errors, normalizations, floor):
        self.scales = np.asarray(scales, float)
        self.errors = np.asarray(errors, float)
        self.normalizations = np.asarray(normalizations, float)
        self.floor = np.asarray(floor, float)

    def nonincreasing(self):
        """Strict decrease of the error trace, ignoring comparisons where
        both entries sit at the numerical floor."""
        e = self.errors
        for k in range(1, len(e)):
            if e[k] <= self.floor[k] and e[k - 1] <= max(
                    self.floor[k - 1], self.floor[k]):
                continue
            if e[k] >= e[k - 1]:
                return False
        return True


def _sample_u(rec, points_radii):
    dom = rec.domain
    dom.require_radial("blowdown sampling")
    return np.interp(points_radii, dom.r, np.maximum.accumulate(rec.u))


def blowdown_compare(rec, scales, n_samples=512):
    """sup over DEFAULT_ANNULUS of |u^lambda - c_lambda - n ln|y|| per scale.

    c_lambda is the sup of |u^lambda| on the unit sphere (the paper's
    normalization); the comparison requires that the annulus, pulled back by
    the smallest scale, stays inside the truncation-free zone.
    """
    dom = rec.domain
    scales = np.asarray(sorted(scales, reverse=True), float)
    lo, hi_t = rec.valid_time_range()
    r_needed = DEFAULT_ANNULUS[1] / scales.min()
    u_at_needed = _sample_u(rec, np.array([r_needed]))[0]
    if u_at_needed > rec.solution.bc - BLOWDOWN_VALUE_MARGIN + 1e-9:
        raise FlowError(
            f"domain radius insufficient: blowdown needs clean data out to "
            f"|x| = {r_needed:.3g}")
    rho = np.linspace(DEFAULT_ANNULUS[0], DEFAULT_ANNULUS[1], n_samples)
    errors, cs, floors = [], [], []
    n = rec.ids.n
    for lam in scales:
        vals = _sample_u(rec, rho / lam)
        c_lam = abs(_sample_u(rec, np.array([1.0 / lam]))[0])
        err = np.max(np.abs(vals - c_lam - n * np.log(rho)))
        errors.append(float(err))
        cs.append(float(c_lam))
        floors.append(10.0 * (rec.eps_last / lam) ** 2
                      + 0.5 * dom.h ** 2 * lam ** 0)
    return BlowdownTrace(scales, errors, cs, floors)


def roundness(mesh):
    """(circumscribed/inscribed radius ratio, best-fit center).

    The center is the chart-area-weighted centroid of the facets; the ratio
    uses chart distances of the vertices, making it exactly scale invariant.
    """
    w = mesh.e_lengths if mesh.dim == 2 else 0.5 * mesh.e_lengths
    center = np.sum(mesh.centroids * w[:, None], axis=0) / np.sum(w)
    d = np.linalg.norm(mesh.vertices - center[None, :], axis=1)
    return float(np.max(d) / np.min(d)), center


def second_form_spread(mesh):
    """Edge-dihedral proxy for the L2 size of the traceless curvature.

    Reported only: adjacent-facet normal differences per edge length vanish
    on round meshes and grow with aspherical bending.
    """
    F = mesh.facets
    edges = {}
    for fi, f in enumerate(F):
        k = len(f)
        for e in range(k):
            key = tuple(sorted((int(f[e]), int(f[(e + 1) % k]))))
            edges.setdefault(key, []).append(fi)
    vals, weights = [], []
    for (a, b), fs in edges.items():
        if len(fs) != 2:
            continue
        n1 = mesh.conormals[fs[0]]
        n2 = mesh.conormals[fs[1]]
        elen = np.linalg.norm(mesh.vertices[a] - mesh.vertices[b])
        ang = np.arccos(np.clip(np.dot(n1, n2), -1, 1))
        vals.append((ang / max(elen, 1e-300)) ** 2)
        weights.append(elen)
    vals = np.asarray(vals)
    weights = np.asarray(weights)
    mean = np.sum(vals * weights) / np.sum(weights)
    return float(np.sqrt(np.sum((vals - mean) ** 2 * weights)
                         / np.sum(weights)))


def starshaped_check(rec, delta, R_reg):
    """min over shells of <nu(x), x/|x|> and the smallest radius from which
    the (1 - delta) bound holds outward.

    Jumps beyond R_reg violate the corollary's hypothesis and raise.
    """
    from .weak_flow import reconstruct_normal_field
    if rec.normal_field is None:
        reconstruct_normal_field(rec)
    for j in rec.jumps:
        if j.outer_radius is not None and j.outer_radius > R_reg:
            raise FlowError(
                f"jump region beyond R_reg={R_reg}: starshapedness "
                "hypothesis violated")
    shells, mins = rec.domain.shell_minima(rec.normal_field.vectors, R_reg,
                                           N_SHELLS)
    ok_from = None
    suffix_ok = np.flip(np.logical_and.accumulate(np.flip(mins >= 1 - delta)))
    idx = np.where(suffix_ok)[0]
    if len(idx):
        ok_from = float(shells[idx[0]])
    return {"shells": shells, "min_inner_product": mins,
            "passes": ok_from is not None, "R_delta": ok_from}


def starshaped_field_check(points, normals, delta, R_reg):
    """The same bound for an explicit (points, normals) field (used to test
    constructed failures like a rigidly rotated field)."""
    r = np.linalg.norm(points, axis=1)
    sel = r >= R_reg
    xhat = points[sel] / r[sel][:, None]
    nn = normals[sel] / np.maximum(
        np.linalg.norm(normals[sel], axis=1), 1e-300)[:, None]
    ip = np.sum(nn * xhat, axis=1)
    return {"min_inner_product": float(np.min(ip)),
            "passes": bool(np.min(ip) >= 1 - delta)}
