"""Drive the regularization to zero and read off the weak flow.

The sweep is one ``solver.continuation_solve`` at the fixed boundary value
L - 2: the endpoint s = 0 down the epsilon chain, then s = 1 from its top;
each rung starts warm from the one above, and the driver retries a failed
warm start cold.  It tracks the Cauchy deltas of u and the share of field
points where |grad u| grows (the compactness hypotheses are monitored, not
proven), and keeps the gradient tail needed to reconstruct the unit normal
across plateaus.  Jump regions are plateaus of the metric gradient; their
outer boundary radius is located by value-crossing extrapolation, which
resolves the horizon well below one cell.
"""

import numpy as np

from . import solver as sv
from . import surface_geometry as sg
from .domain import VARIANTS
from .radial_oracle import sphere_area

TRUNCATION_MARGIN = 1.0     # flow times within this of s(L-2) are boundary-driven
GRAD_TOL_FACTOR = 10.0      # plateau when |grad u|_g < factor * eps_last
MIN_PLATEAU_CELLS = 3
DEFAULT_EPS0 = 1.0 / 32.0
TAIL_RUNGS = 4              # sweep rungs kept for the normal reconstruction
NORMAL_ANGLE_TOL_DEG = 1.0  # tail normals agreeing within this are Cauchy
TOL_HORIZON = 0.03          # max relative |H - |P|| on a verified horizon
TOL_SWEEP = 0.05            # last sup-norm delta of a Cauchy sweep (flow time)


class FlowError(RuntimeError):
    pass


class FlowConfigError(FlowError, ValueError):
    """A sweep request that no solve can satisfy (a configuration error)."""


class JumpRegion:
    """A plateau of the limit u; ``cells`` holds its field-point indices
    (radial nodes or active grid cells, see ``domain``)."""

    def __init__(self, cells, value, t_lo, t_hi, volume, inner_radius=None,
                 outer_radius=None, truncation_artifact=False):
        self.cells = cells
        self.value = value
        self.t_lo = t_lo
        self.t_hi = t_hi
        self.volume = volume
        self.inner_radius = inner_radius
        self.outer_radius = outer_radius
        self.inner_mesh = None      # boundary meshes, set by detect_jumps
        self.outer_mesh = None
        self.truncation_artifact = truncation_artifact

    def __repr__(self):
        kind = "truncation" if self.truncation_artifact else "jump"
        return (f"JumpRegion({kind}, t0={self.value:.4g}, cells={len(self.cells)}, "
                f"outer_r={self.outer_radius})")


class FlowRecord:
    """Everything a run produces: the limit u, sweep diagnostics, jumps,
    reconstructed normals and the IMCF reference (u itself when K = 0)."""

    def __init__(self, domain, variant="stimcf"):
        self.domain = domain
        self.ids = domain.ids
        self.variant = variant
        self.epsilons = []
        self.sup_deltas = []
        self.grad_increase_fraction = []
        self.traces = []
        self.apriori = []
        self.tail = []            # (eps, interior, metric-gradient data)
        self.solution = None
        self.imcf = None
        self.cauchy_ok = None
        self.suggestion = None
        self.jumps = []
        self.truncation_plateaus = []

    @property
    def eps_last(self):
        return self.epsilons[-1]

    @property
    def u(self):
        return self.solution.full_field()

    def truncation_threshold(self):
        bc = self.solution.bc
        return bc - min(TRUNCATION_MARGIN, 0.35 * bc)

    def valid_time_range(self):
        return (0.0, self.truncation_threshold())


def epsilon_sweep(dom, eps_last=1e-3, eps0=None, variant="stimcf"):
    """Run the sweep down the geometric schedule eps0, eps0/2, ..., eps_last.

    The sweep builds that ladder itself, ``solver.eps_ladder`` at ratio 2
    (every ratio at most 2, the last one the remainder), and reads every
    rung of it, so the driver inserts none.
    One ``solver.continuation_solve`` at bc = L - 2 gives both chains: the
    flow at s = 1 and the IMCF reference at s = 0 (when K vanishes the
    operator does not depend on s and the flow chain is the IMCF chain).
    A schedule that cannot start (unknown variant, eps0 or eps_last not
    positive, eps0 not above eps_last or above the feasibility bound) raises
    FlowConfigError, a rung whose warm and cold starts both fail FlowError
    naming its eps and s.  The sweep is Cauchy when its last sup-norm delta
    lies below TOL_SWEEP.  Returns a FlowRecord.
    """
    if variant not in VARIANTS:
        raise FlowConfigError(f"unknown operator variant '{variant}'")
    if eps_last <= 0 or (eps0 is not None and eps0 <= 0):
        raise FlowConfigError("the sweep needs eps0 > 0 and eps_last > 0 "
                              f"(got eps0 = {eps0}, eps_last = {eps_last})")
    feas = dom.feasibility()
    # at eps_max (0.9 of the divergence bound) the cold start stalls for
    # all 60 Newton iterations on the anisotropic and the deep Schwarzschild
    # domains; at half of it the one cold solve converges
    e = min(0.5 * feas["eps_max"], DEFAULT_EPS0) if eps0 is None else eps0
    if not eps_last < e <= feas["eps_max"]:
        raise FlowConfigError(
            f"eps0 = {e:.3g} must lie above eps_last = {eps_last:.3g} and "
            f"not above the feasibility bound {feas['eps_max']:.3g}")
    try:
        chains, _ = sv.continuation_solve(
            dom, [0.0, 1.0], sv.eps_ladder([e, eps_last], 2.0),
            bc=dom.L - 2.0, variant=variant)
    except sv.SolverError as exc:
        raise FlowError(f"sweep failed ({exc}); check alpha/L (domain size) "
                        "and resolution") from exc
    flow = chains[1.0]
    # the top rung's trace holds both endpoints' solves, s = 0 first
    flow[0] = (flow[0][0], [row for c in chains.values() for row in c[0][1]])
    rec = FlowRecord(dom, variant)
    prev = None
    prev_grad = None
    for (sol, trace), (imcf_sol, _) in zip(flow, chains.get(0.0, flow)):
        rec.epsilons.append(sol.eps)
        rec.traces.append(trace)
        grad = dom.gradient(sol.interior, sol.bc)
        gmag = np.abs(sol.metric_gradient())
        if prev is not None:
            delta = float(np.max(np.abs(sol.full_field() - prev)))
            rec.sup_deltas.append(delta)
            tol_g = 1e-6 * (1 + np.max(prev_grad))
            rec.grad_increase_fraction.append(
                float(np.mean(gmag > prev_grad + tol_g)))
        prev = sol.full_field()
        prev_grad = gmag
        rec.tail.append((sol.eps, sol.interior.copy(), grad))
        if len(rec.tail) > TAIL_RUNGS:
            rec.tail.pop(0)
        rec.apriori.append(sv.apriori_monitor(dom, sol,
                                              imcf_reference=imcf_sol))
        rec.solution = sol
        rec.imcf = imcf_sol
    rec.cauchy_ok = rec.sup_deltas[-1] < TOL_SWEEP
    if not rec.cauchy_ok:
        rate = (rec.sup_deltas[-1] / rec.sup_deltas[-2]
                if len(rec.sup_deltas) > 1 else np.nan)
        rec.suggestion = (f"sweep not Cauchy at tol {TOL_SWEEP}: last delta "
                          f"{rec.sup_deltas[-1]:.3g}, rate {rate:.3g}; "
                          f"extend the schedule below {rec.eps_last:.3g}")
    return rec


def frauendiener_solve(dom, **kwargs):
    """Same pipeline for the projected-flow level-set equation
    (div term = |grad u|/2 + sqrt(|grad u|^2 + 4 P-term^2)/2)."""
    kwargs.setdefault("variant", "frauendiener")
    return epsilon_sweep(dom, **kwargs)


# -- jump detection ----------------------------------------------------------

def detect_jumps(rec):
    """Plateau components of |grad u|_g below GRAD_TOL_FACTOR * eps_last
    with at least MIN_PLATEAU_CELLS field points.

    On a plateau the regularized gradient is O(eps) (the rescaled graph has
    order-one slope), so a fixed multiple of the final regularization
    separates plateaus from transport regions.  Components living at the
    outer truncation value are classified as truncation artifacts, not jumps.
    """
    dom = rec.domain
    sol = rec.solution
    grad_tol = GRAD_TOL_FACTOR * rec.eps_last
    u = rec.u
    jumps = []
    for comp in dom.components(np.abs(sol.metric_gradient()) < grad_tol):
        if len(comp) < MIN_PLATEAU_CELLS:
            continue
        t0 = float(np.median(u[comp]))
        trunc = t0 > rec.truncation_threshold()
        inner_r, outer_r = dom.plateau_radii(
            sol, comp, t0, 2.0 * GRAD_TOL_FACTOR * rec.eps_last)
        jump = JumpRegion(comp, t0, float(np.min(u[comp])),
                          float(np.max(u[comp])),
                          float(np.sum(dom.volumes()[comp])),
                          inner_radius=inner_r, outer_radius=outer_r,
                          truncation_artifact=trunc)
        if not trunc:
            jump.inner_mesh, jump.outer_mesh = dom.plateau_meshes(
                sol, t0, inner_r, outer_r)
        jumps.append(jump)
    rec.jumps = [j for j in jumps if not j.truncation_artifact]
    rec.truncation_plateaus = [j for j in jumps if j.truncation_artifact]
    return rec.jumps


# -- level sets ---------------------------------------------------------------

def extract_level_sets(rec, times):
    """Meshes of Sigma_t = boundary of {u < t}; at jump values both the inner
    and outer boundary (Sigma_t, Sigma_t+) are returned as a pair."""
    lo, hi = rec.valid_time_range()
    out = []
    for t in times:
        if t < lo - 1e-12 or t > hi:
            raise FlowError(
                f"time {t} beyond the outer boundary influence zone (max {hi:.3g})")
        jump = _jump_at(rec, t)
        if jump is not None:
            out.append((jump.inner_mesh, jump.outer_mesh))
            continue
        out.append(rec.domain.level_mesh(rec.solution, t))
    return out


def _jump_at(rec, t):
    for j in rec.jumps:
        if j.t_lo - 1e-12 <= t <= j.t_hi + 1e-12:
            return j
    return None


def level_radius(rec, t):
    """Radius of the level set (radial lane), honoring jumps: a time inside
    a jump reads that jump's outer radius, the first such jump's.  ``t`` may
    be an array of times; a scalar gives a float."""
    rec.domain.require_radial("level radius")
    t = np.asarray(t, float)
    radii = rec.domain.level_radius(rec.solution, t)
    for j in reversed(rec.jumps):
        radii = np.where((j.t_lo - 1e-12 <= t) & (t <= j.t_hi + 1e-12),
                         j.outer_radius, radii)
    return float(radii) if radii.ndim == 0 else radii


# -- normal reconstruction ----------------------------------------------------

class NormalField:
    def __init__(self, vectors, cauchy_ok):
        self.vectors = vectors
        self.cauchy_ok = cauchy_ok


def reconstruct_normal_field(rec):
    """Limit of nu_eps = grad u_eps / |grad u_eps| over the sweep tail.

    Plateau cells accept the limit when consecutive tail normals agree in
    angle within NORMAL_ANGLE_TOL_DEG; non-Cauchy cells are flagged and
    excluded from horizon verification.  Off plateaus the final gradient
    direction is used.
    """
    dom = rec.domain
    if not rec.jumps and not rec.truncation_plateaus:
        detect_jumps(rec)
    vec, turn = dom.tail_normals([g for (_, _, g) in rec.tail])
    plateau = np.zeros(len(turn), bool)
    for j in rec.jumps:
        plateau[j.cells] = True
    field = NormalField(vec, bool(np.all(turn[plateau]
                                         <= NORMAL_ANGLE_TOL_DEG)))
    return field


# -- horizon verification -----------------------------------------------------

class HorizonReport:
    def __init__(self, radius, max_rel_residual, weak_inner_ok, labels):
        self.radius = radius
        self.max_rel_residual = max_rel_residual
        self.weak_inner_ok = weak_inner_ok
        self.labels = labels      # ``classify`` at the TOL_HORIZON scale

    @property
    def passed(self):
        return self.max_rel_residual < TOL_HORIZON and self.weak_inner_ok

    def __repr__(self):
        return (f"HorizonReport(r={self.radius:.5g}, "
                f"max|H-|P||/H={self.max_rel_residual:.3%}, "
                f"{'pass' if self.passed else 'FAIL'})")


def verify_horizon(rec, jump):
    """Check H = |P_nu| on the outer jump boundary Sigma_t0+.

    Per-facet residuals use the outward normals of the boundary mesh; the
    inner boundary is tested for the weak inequality H >= |P_nu| only where
    it coincides with the hull boundary (disjoint horizons make that check
    vacuous).  The outer boundary is labelled by ``classify`` with the same
    relative tolerance, TOL_HORIZON times the median scale.
    """
    dom = rec.domain
    if jump.outer_mesh is None:
        raise FlowError("jump has no outer boundary mesh")
    mesh = sg.populate_diagnostics(rec.ids, jump.outer_mesh,
                                   level_set=dom.boundary_level_set())
    H, P = mesh.H, mesh.P
    # scale: |H| where it is the dominant quantity, else the round-sphere
    # curvature at this radius (a K = 0 horizon has H -> 0, |P| = 0, and the
    # raw ratio |H - |P||/H would be 1 no matter how accurate the radius)
    scale = np.maximum(np.maximum(np.abs(H), np.abs(P)),
                       rec.ids.n / max(jump.outer_radius, 1e-12))
    rel = np.abs(H - np.abs(P)) / scale
    labels = sg.classify(mesh, tol=TOL_HORIZON * float(np.median(scale)))
    coincide = (jump.outer_radius - jump.inner_radius) < 2.5 * dom.h
    weak_ok = True
    if coincide and jump.inner_mesh is not None:
        sg.populate_diagnostics(rec.ids, jump.inner_mesh,
                                level_set=dom.boundary_level_set())
        weak_ok = bool(np.median(jump.inner_mesh.H)
                       >= np.abs(np.median(jump.inner_mesh.P)) - TOL_HORIZON)
    return HorizonReport(jump.outer_radius, float(np.max(rel)), weak_ok,
                         labels)


# -- structural invariants ----------------------------------------------------

def jump_band_excess(rec, jump):
    """Volume of {t_lo < u < t_hi} beyond the plateau cells, in units of one
    cell layer of the outer boundary (a genuine plateau stays below 1)."""
    dom = rec.domain
    u = rec.u
    band = (u > jump.t_lo) & (u < jump.t_hi)
    vols = dom.volumes()
    band_vol = float(np.sum(vols[band]))
    plateau_vol = float(np.sum(vols[jump.cells]))
    layer = sphere_area(dom.n) * (jump.outer_radius ** dom.n) * dom.h
    return max(band_vol - plateau_vol, 0.0) / layer


def interior_extrema(rec):
    """Worst strict interior local max/min margins of u (should be ~0),
    against a margin of 10 eps_last h."""
    dom = rec.domain
    margin = 10 * rec.eps_last * dom.h
    max_excess, min_excess = dom.extrema_excess(rec.solution)
    return {"max_excess": max_excess, "min_excess": min_excess,
            "margin": margin,
            "ok": max_excess <= margin and min_excess <= margin}
