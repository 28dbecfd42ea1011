"""Drive the regularization to zero and read off the weak flow.

The sweep is one ``solver.continuation_solve`` at the fixed boundary value
L - 2: the endpoint s = 0 down the epsilon chain, then s = 1 from its top;
each rung starts warm from the one above, and the driver retries a failed
warm start cold.  It tracks the Cauchy deltas of u and the share of field
points where |grad u| grows (the compactness hypotheses are monitored, not
proven), and keeps the tail rungs needed to reconstruct the unit normal
across plateaus.  Jump regions are plateaus of the metric gradient; their
outer boundary radius is located by value-crossing extrapolation, which
resolves the horizon well below one cell.  The one ``FlowRecord``
constructor, for the sweep and ``records.load_record`` alike, measures them.

The s = 0 chain of a K != 0 domain is solved once per domain and eps
ladder.  It is the weak IMCF (Huisken & Ilmanen 2001), the upper barrier
u <= u_imcf that every rung's a-priori monitor reads, and it does not
depend on the operator variant: at s = 0 both variants' right-hand sides
are sqrt(W^2) (``domain.rhs_value``; the radial lane evaluates no K-term
there, and on grids the K-term enters times s = 0, an exact zero), so
every variant's chain has the same bits.  A sweep that finds the chain in ``_IMCF_CHAINS`` hands it to
``solver.continuation_solve`` and solves s = 1 only.  The memo holds no
reference to the domain (its read-only interiors, the solutions' scalars
and the trace rows), so an entry dies with its domain.
"""

import weakref

import numpy as np

from . import solver as sv
from . import surface_geometry as sg
from .domain import VARIANTS

TRUNCATION_MARGIN = 1.0     # flow times within this of s(L-2) are boundary-driven
GRAD_TOL_FACTOR = 10.0      # plateau when |grad u|_g < factor * eps_last
MIN_PLATEAU_CELLS = 3
DEFAULT_EPS0 = 1.0 / 32.0
TAIL_RUNGS = 4              # sweep rungs kept for the normal reconstruction
NORMAL_ANGLE_TOL_DEG = 1.0  # tail normals agreeing within this are Cauchy
TOL_HORIZON = 0.03          # max relative |H - |P|| on a verified horizon
TOL_SWEEP = 0.05            # last sup-norm delta of a Cauchy sweep (flow time)

# domain -> {eps ladder: s = 0 chain, per rung ((interior, eps, s, bc,
# residual, iterations, converged, floor, diagnostic), trace rows)}
_IMCF_CHAINS = weakref.WeakKeyDictionary()


class FlowError(RuntimeError):
    pass


class FlowConfigError(FlowError, ValueError):
    """A sweep request that no solve can satisfy (a configuration error)."""


class JumpRegion:
    """A plateau of the limit u as ``detect_jumps`` measured it; ``cells``
    holds its field-point indices (radial nodes or active grid cells, see
    ``domain``).  ``domain.boundary_curvatures`` reads H and P on its
    boundaries."""

    def __init__(self, cells, value, t_lo, t_hi, volume, inner_radius,
                 outer_radius, truncation_artifact):
        self.cells = cells
        self.value = value
        self.t_lo = t_lo
        self.t_hi = t_hi
        self.volume = volume
        self.inner_radius = inner_radius
        self.outer_radius = outer_radius
        self.truncation_artifact = truncation_artifact

    def __repr__(self):
        kind = "truncation" if self.truncation_artifact else "jump"
        return (f"JumpRegion({kind}, t0={self.value:.4g}, cells={len(self.cells)}, "
                f"outer_r={self.outer_radius})")


class FlowRecord:
    """Everything a run produces: the limit u, sweep diagnostics, jumps and
    the IMCF reference.  The one constructor, for ``epsilon_sweep`` and
    ``records.load_record`` alike, takes the sweep's solutions, per-rung
    rows and tail rungs as (eps, interior), and derives the rest: the
    Cauchy verdict with its suggestion, the IMCF reference and the jumps,
    by ``detect_jumps``.  When K = 0 the IMCF reference is u itself;
    otherwise it is the s = 0 solve of the sweep, which a record does not
    persist, so a reloaded K != 0 record has ``imcf`` None."""

    def __init__(self, domain, solution, imcf, epsilons, traces,
                 sup_deltas, grad_increase_fraction, apriori, tail):
        self.domain = domain
        self.ids = domain.ids
        self.solution = solution
        # when K = 0 the operator does not depend on s: u is its own reference
        self.imcf = solution if domain.k_is_zero() else imcf
        self.epsilons = epsilons
        self.traces = traces
        self.sup_deltas = sup_deltas
        self.grad_increase_fraction = grad_increase_fraction
        self.apriori = apriori
        # (eps, interior) of the last TAIL_RUNGS rungs, final last
        self.tail = tail
        last = sup_deltas[-1] if sup_deltas else np.inf   # one rung: no delta
        self.cauchy_ok = last < TOL_SWEEP
        self.suggestion = None
        if not self.cauchy_ok:
            rate = last / sup_deltas[-2] if len(sup_deltas) > 1 else np.nan
            self.suggestion = (f"sweep not Cauchy at tol {TOL_SWEEP}: last "
                               f"delta {last:.3g}, rate {rate:.3g}; extend "
                               f"the schedule below {self.eps_last:.3g}")
        detect_jumps(self)

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


def epsilon_sweep(dom, eps_last=1e-3, variant="stimcf"):
    """Run the sweep down the geometric schedule eps0, eps0/2, ..., eps_last
    from the top rung eps0 = min(eps_max / 2, DEFAULT_EPS0), with eps_max
    the domain's feasibility bound.

    The sweep builds that ladder itself, ``solver.eps_ladder`` at ratio 2
    (every ratio at most 2, the last one the remainder), and reads every
    rung of it, so the driver inserts none.  One
    ``solver.continuation_solve`` at bc = L - 2 gives both chains: the flow
    at s = 1 and the IMCF reference at s = 0.  When K vanishes the operator
    does not depend on s and the flow chain is the IMCF chain, so the
    a-priori monitor gets no reference to check u <= u_imcf against: it
    would compare u with itself.  Otherwise the s = 0 chain comes from the
    domain's memo when a sweep down the same ladder solved it before (see
    the module docstring), and that sweep's trace rows stand in for its
    solves in the record.  A schedule
    that cannot start (unknown variant, eps_last not in (0, eps0)) raises
    FlowConfigError, a rung whose warm and cold starts both fail FlowError
    naming its eps and s.  The sweep is Cauchy when its last sup-norm delta
    lies below TOL_SWEEP.  Returns a FlowRecord, its jumps measured.
    """
    if variant not in VARIANTS:
        raise FlowConfigError(f"unknown operator variant '{variant}'")
    if eps_last <= 0:
        raise FlowConfigError(f"the sweep needs eps_last > 0 (got {eps_last})")
    # at eps_max (0.9 of the divergence bound) the cold start stalls for
    # all 60 Newton iterations on the anisotropic and the deep Schwarzschild
    # domains; at half of it the one cold solve converges
    e = min(0.5 * dom.feasibility()["eps_max"], DEFAULT_EPS0)
    if not eps_last < e:
        raise FlowConfigError(
            f"eps0 = {e:.3g} must lie above eps_last = {eps_last:.3g}")
    ladder = tuple(sv.eps_ladder([e, eps_last], 2.0))
    memo = None if dom.k_is_zero() else _IMCF_CHAINS.setdefault(dom, {})
    kept = memo.get(ladder) if memo is not None else None
    solved = None if kept is None else {0.0: [
        (sv.ScalarSolution(dom, *state), list(rows)) for state, rows in kept]}
    try:
        chains, _ = sv.continuation_solve(
            dom, [0.0, 1.0], ladder, bc=dom.L - 2.0, variant=variant,
            solved=solved)
    except sv.SolverError as exc:
        raise FlowError(f"sweep failed ({exc}); check alpha/L (domain size) "
                        "and resolution") from exc
    if memo is not None and kept is None:
        memo[ladder] = [(_domain_free(sol), tuple(rows))
                        for sol, rows in chains[0.0]]
    flow = chains[1.0]
    # the top rung's trace holds both endpoints' solves, s = 0 first
    flow[0] = (flow[0][0], [row for c in chains.values() for row in c[0][1]])
    sols = [sol for sol, _ in flow]
    # when K = 0 there is no s = 0 chain, and u is no reference for itself
    imcf_chain = ([sol for sol, _ in chains[0.0]] if 0.0 in chains
                  else [None] * len(sols))
    fields = [sol.full_field() for sol in sols]
    gmags = [np.abs(sol.metric_gradient()) for sol in sols]
    return FlowRecord(
        dom, sols[-1],
        chains[0.0][-1][0] if 0.0 in chains else None,
        [sol.eps for sol in sols], [trace for _, trace in flow],
        [float(np.max(np.abs(u1 - u0))) for u0, u1 in zip(fields, fields[1:])],
        [float(np.mean(g1 > g0 + 1e-6 * (1 + np.max(g0))))
         for g0, g1 in zip(gmags, gmags[1:])],
        [sv.apriori_monitor(dom, sol, imcf_reference=imcf)
         for sol, imcf in zip(sols, imcf_chain)],
        [(sol.eps, sol.interior) for sol in sols[-TAIL_RUNGS:]])


def _domain_free(sol):
    """The arguments of ``ScalarSolution`` after the domain, with the
    interior made read-only: a memo entry that a later sweep revives."""
    sol.interior.flags.writeable = False
    return (sol.interior, sol.eps, sol.s, sol.bc, sol.residual_norm,
            sol.iterations, sol.converged, sol.floor, sol.diagnostic)


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
    It only measures: no boundary curvature is read.  ``FlowRecord`` calls it;
    a second call returns equal jumps.
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
        jumps.append(JumpRegion(comp, t0, float(np.min(u[comp])),
                                float(np.max(u[comp])),
                                float(np.sum(dom.volumes()[comp])),
                                inner_radius=inner_r, outer_radius=outer_r,
                                truncation_artifact=trunc))
    rec.jumps = [j for j in jumps if not j.truncation_artifact]
    rec.truncation_plateaus = [j for j in jumps if j.truncation_artifact]
    return rec.jumps


# -- level radius ------------------------------------------------------------

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
    vec, turn = rec.domain.tail_normals([x for _, x in rec.tail],
                                        rec.solution.bc)
    plateau = np.zeros(len(turn), bool)
    for j in rec.jumps:
        plateau[j.cells] = True
    return NormalField(vec, bool(np.all(turn[plateau]
                                        <= NORMAL_ANGLE_TOL_DEG)))


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

    ``domain.boundary_curvatures`` gives the samples read here: one exact
    (H, P) of the centred sphere on the radial lane, one per facet of the
    boundary contour on grids.  The inner boundary is tested for the weak
    inequality H >= |P_nu| only where it coincides with the hull boundary
    (disjoint horizons make that check vacuous), and only then read.  The
    outer boundary is labelled by ``classify`` with the same relative
    tolerance, TOL_HORIZON times the median scale.
    """
    dom = rec.domain
    outer = dom.boundary_curvatures(rec.solution, jump, "outer")
    if outer is None:
        raise FlowError("jump has no outer boundary")
    H, P = outer
    # scale: |H| where it is the dominant quantity, else the round-sphere
    # curvature at this radius (a K = 0 horizon has H -> 0, |P| = 0, and the
    # raw ratio |H - |P||/H would be 1 no matter how accurate the radius)
    scale = np.maximum(np.maximum(np.abs(H), np.abs(P)),
                       rec.ids.n / max(jump.outer_radius, 1e-12))
    rel = np.abs(H - np.abs(P)) / scale
    labels = sg.classify(H, P, tol=TOL_HORIZON * float(np.median(scale)))
    coincide = (jump.outer_radius - jump.inner_radius) < 2.5 * dom.h
    inner = (dom.boundary_curvatures(rec.solution, jump, "inner")
             if coincide else None)
    weak_ok = inner is None or bool(
        np.median(inner[0]) >= np.abs(np.median(inner[1])) - TOL_HORIZON)
    return HorizonReport(jump.outer_radius, float(np.max(rel)), weak_ok,
                         labels)


# -- structural invariants ----------------------------------------------------

def jump_band_excess(rec, jump):
    """Volume of {t_lo < u < t_hi} beyond the plateau cells, in units of one
    cell layer of the outer boundary: the metric volume of the field points
    within h/2 of its radius (a genuine plateau stays below 1)."""
    dom = rec.domain
    u = rec.u
    band = (u > jump.t_lo) & (u < jump.t_hi)
    vols = dom.volumes()
    band_vol = float(np.sum(vols[band]))
    plateau_vol = float(np.sum(vols[jump.cells]))
    layer = float(np.sum(
        vols[np.abs(dom.radii - jump.outer_radius) <= 0.5 * dom.h]))
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
