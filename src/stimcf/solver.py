"""Damped Newton solves of the regularized level-set problem.

The operator family follows the continuity method: parameter s in [0, 1]
scales the anisotropic K-term.  One driver, ``continuation_solve``, solves
each s down the eps chain, its top warm from the previous s's top.
Cold starts are the lane's one ``initial_guess``, on the radial lane the
soft-capped transport profile, which makes them reliable at moderate eps.

There is one globalization: ``newton_solve`` halves its step until the
merit f = 1/2 ||F||_2^2 passes the Armijo test (Dennis & Schnabel 1983,
sections 6.3 and 6.5) and returns its last iterate unconverged when that
fails.  Each search starts from twice the step the solve accepted last,
capped at 1 (Nocedal & Wright 2006, section 3.5): in the hard phase of a
solve, where lam = 2^-5 is accepted step after step, a search from 1 spent
six residuals per step, and on the a-priori workload 62% of the trial
residuals were rejected.  A step accepted at lam <= 2^-RESTART_HALVINGS
sends the next search back to 1: without that reset two matrices of the
survey below stalled at their s = 0.75 tops, creeping at lam ~ 2^-11 until
MAX_NEWTON.  A search still fails only when no lam in {1, 1/2, ...,
2^-(MAX_BACKTRACK - 1)} passes: after halving from its start to the last of
those it tries the larger ones it skipped, from 1 down.
Only the line search reads f; the stopping test is the max-norm residual
against max(TOL_NEWTON, the float64 floor below).
Recovery has one home, the driver (warm start, then cold start, then
SolverError); no other function retries a solve.

The driver steps warm down eps by up to MAX_WARM_RATIO and halves only
wider gaps (``eps_ladder``, which builds the sweep's ladder too).  At 4 the
criterion-4 grid (eps sqrt(10) apart) runs with no inserted rung: 112
Newton solves instead of 209 on the a-priori workload.
A survey of 72 matrices (8 data sets and alphas x L in {4, 6, 8.4} x h in
{1/32, 1/64, 1/128}, criterion 4's s and eps lists), re-measured with the
line-search start above, completes 28 at ratio 4 against 26 at ratio 2,
loses none that ratio 2 completes and cuts the Newton iterations from
12,778 to 9,196; on a grid exactly 4 apart it completes 28 against 27, in
9,778 iterations against 12,265.

Convergence accounts for the float64 attainable floor: in plateau regions the
Jacobian row scale grows like 1/(eps h^2), so the smallest representable
max-norm residual is about machineps * ||J||_inf (``dom.norm_inf``) * (1 +
||u||); iterates at that floor count as converged and record their residual.
"""

import math

import numpy as np

TOL_NEWTON = 1e-9
MAX_NEWTON = 60
MAX_BACKTRACK = 30
ARMIJO = 1e-4            # sufficient-decrease constant of the line search
FLOOR_FACTOR = 20.0
MAX_WARM_RATIO = 4.0        # wider eps gaps get halving rungs inserted
RESTART_HALVINGS = 7     # a step accepted at lam <= 2^-7 restarts at lam = 1
_EPS = np.finfo(float).eps


class SolverError(RuntimeError):
    pass


class ScalarSolution:
    """A discrete solution u_(eps, s) with its convergence metadata."""

    def __init__(self, domain, interior, eps, s, bc, residual_norm,
                 iterations, converged, floor, diagnostic=None):
        self.domain = domain
        self.interior = interior
        self.eps = float(eps)
        self.s = float(s)
        self.bc = float(bc)
        self.residual_norm = float(residual_norm)
        self.iterations = int(iterations)
        self.converged = bool(converged)
        self.floor = float(floor)
        self.diagnostic = diagnostic

    def full_field(self):
        """Values at the field points, boundary data included."""
        return self.domain.full_field(self.interior, self.bc)

    def metric_gradient(self):
        return self.domain.metric_gradient(self.interior, self.bc)


def newton_solve(dom, eps, s, u_init=None, *, bc, variant="stimcf"):
    """Armijo-damped Newton on the discretized operator E^(eps, s).

    u_init is an interior vector (boundary data is imposed, not solved for);
    None selects the domain's cold start (the transport profile on the
    radial lane).  Each iteration assembles the Jacobian from the
    linearization that the iterate's residual returned and stops there if
    the max-norm residual is below max(TOL_NEWTON, floor).  Otherwise it
    takes the first lam = 2^-k of its search with f(u + lam s) < (1 - 2
    ARMIJO lam) f(u), f = 1/2 ||F||_2^2: the fraction ARMIJO of the decrease
    the linear model predicts along the Newton step s.  The search starts
    at min(1, 2 lam_prev), lam_prev the step accepted last (1 at the first
    step, and 1 again after a step of lam <= 2^-RESTART_HALVINGS), halves
    down to 2^-(MAX_BACKTRACK - 1), then tries the skipped larger lam from
    1 down; so it fails only when no lam of {1, 1/2, ..., 2^-(MAX_BACKTRACK
    - 1)} passes.  The solve gives up at the first failed line search, at a
    non-finite step or after MAX_NEWTON steps, and returns that iterate
    unconverged with a diagnostic (naming the feasibility bound when eps
    exceeds it); what to try next is the caller's decision.  A non-finite
    residual or Jacobian (a NaN start, say) raises SolverError before the
    linear solve, which does not check its inputs.
    """
    if eps <= 0:
        raise SolverError("elliptic regularization needs eps > 0")
    if not (0.0 <= s <= 1.0):
        raise SolverError("continuity parameter s must lie in [0, 1]")
    bc = float(bc)
    u = (dom.initial_guess(s, bc, eps) if u_init is None
         else np.array(u_init, float, copy=True))
    if len(u) != dom.n_unknowns:
        raise SolverError("initial guess has the wrong number of unknowns")
    res, lin = dom.residual(u, eps, s, bc, variant)
    merit = 0.5 * float(res @ res)
    nrm = float(np.abs(res).max())
    k = 0               # the last accepted step was lam = 2^-k
    for it in range(MAX_NEWTON + 1):
        J = dom.jacobian(lin)
        floor = (FLOOR_FACTOR * _EPS * (1.0 + float(np.abs(u).max()))
                 * dom.norm_inf(J))
        if nrm < max(TOL_NEWTON, floor):
            return ScalarSolution(dom, u, eps, s, bc, nrm, it, True, floor)
        if it == MAX_NEWTON:
            break
        if not (math.isfinite(nrm) and math.isfinite(floor)):
            raise SolverError("non-finite residual or Jacobian at the iterate")
        try:
            step = dom.solve(J, -res)
        except Exception as exc:
            raise SolverError(f"linearization solve failed: {exc}") from exc
        if not np.isfinite(step).all():
            break
        # lam = 2^-k from twice the last accepted step (1 after a short
        # one) down to 2^-(MAX_BACKTRACK - 1), then the skipped ones from 1
        k0 = k - 1 if 0 < k < RESTART_HALVINGS else 0
        for k in (*range(k0, MAX_BACKTRACK), *range(k0)):
            lam = 0.5 ** k
            ut = u + lam * step
            rt, lt = dom.residual(ut, eps, s, bc, variant)
            mt = 0.5 * float(rt @ rt)
            if np.isfinite(mt) and mt < (1.0 - 2.0 * ARMIJO * lam) * merit:
                break
        else:
            break       # the line search failed
        u, res, lin, merit = ut, rt, lt, mt
        nrm = float(np.abs(res).max())
    return ScalarSolution(dom, u, eps, s, bc, nrm, it, False, floor,
                          diagnostic=_nonconvergence_note(dom, eps))


def _nonconvergence_note(dom, eps):
    feas = dom.feasibility()
    if eps > feas["eps_max"]:
        return ("eps exceeds the divergence feasibility bound: "
                f"eps * |F| = {eps * feas['volume']:.3g} vs |dF| = "
                f"{feas['boundary_area']:.3g}")
    return "Newton stalled away from the float64 floor"


def eps_ladder(eps_values, max_ratio):
    """eps_values descending, each gap wider than max_ratio split by halving
    rungs from its top until the rest of the gap is at most that wide."""
    ladder = []
    for e in sorted(eps_values, reverse=True):
        while ladder and ladder[-1] / e > max_ratio * (1 + 1e-12):
            ladder.append(ladder[-1] / 2.0)
        ladder.append(e)
    return ladder


def continuation_solve(dom, s_values, eps_values, bc=None, variant="stimcf"):
    """The continuity method over an (eps, s) grid: s up, then eps down.

    The boundary value is s (L - 2), or ``bc`` for every s; with a fixed
    ``bc`` and K = 0 s has no effect and only the largest s runs.  The eps
    chain is ``eps_ladder(eps_values, MAX_WARM_RATIO)``.  At 4 no matrix of
    the module's survey that completed at 2 fails, and the rungs no caller
    reads are not solved; a caller that wants a finer ladder (the sweep)
    passes it whole.  A top above ``eps_max`` (0.9 of the divergence bound,
    past which no solution exists) raises SolverError before any solve.
    Each rung tries the warm start, then the cold (transport) start, and
    raises SolverError when neither converges.  The warm start is the rung
    above; at the top it is the previous s's top scaled by the ratio of
    boundary values (none for the first s and after bc = 0).  Returns ({s:
    [(solution, trace rows) per chain eps, top first]}, every trace row (s,
    iterations, residual, ok) in solve order).
    """
    chain = eps_ladder(eps_values, MAX_WARM_RATIO)
    eps_max = dom.feasibility()["eps_max"]
    if chain[0] > eps_max:
        raise SolverError(f"eps={chain[0]:.3g} lies above the feasibility "
                          f"bound eps_max={eps_max:.3g}; no solve started")
    if bc is not None and dom.k_is_zero():
        s_values = [max(s_values)]
    chains, trace, top = {}, [], None
    for s in sorted(s_values):
        b = s * (dom.L - 2.0) if bc is None else float(bc)
        warm = (None if top is None or top.bc == 0.0
                else top.interior * (b / top.bc))
        chains[s] = []
        for eps in chain:
            rows = []
            for init in ([None] if warm is None else [warm, None]):
                sol = newton_solve(dom, eps, s, u_init=init, bc=b,
                                   variant=variant)
                rows.append((s, sol.iterations, sol.residual_norm,
                             sol.converged))
                if sol.converged:
                    break
            else:
                raise SolverError(f"descent failed at eps={eps}, s={s}: "
                                  f"{sol.diagnostic}")
            chains[s].append((sol, rows))
            trace += rows
            warm = sol.interior
        top = chains[s][0][0]
    return chains, trace


def imcf_reference_solve(dom, eps):
    """The K-free (inverse mean curvature flow) solve with full boundary data.

    This is the upper-barrier reference: the anisotropic term only increases
    the right-hand side, so every converged anisotropic solution must lie
    below this one.
    """
    return newton_solve(dom, eps, 0.0, bc=dom.L - 2.0)


class AprioriReport:
    def __init__(self):
        self.violations = []
        self.measured = {}

    @property
    def ok(self):
        return not self.violations

    def __repr__(self):
        state = "ok" if self.ok else "; ".join(self.violations)
        return f"AprioriReport({state})"


def apriori_monitor(dom, sol, imcf_reference=None):
    """Check the a-priori window and boundary gradient bounds on a solution.

    Hard checks: u >= -eps and u <= s(L-2) up to tol = 1e-8 (1 + |s(L-2)|);
    u >= v + (s-1)(L-1) - 2 outside the anchor radius up to a dip of
    5 eps + tol; |grad u| <= H+ + eps on dE0 with slack 0.1 H+ + 10 h.
    With an IMCF reference the barrier ordering u <= u_imcf is checked too.
    """
    rep = AprioriReport()
    eps, s, bc = sol.eps, sol.s, sol.bc
    tol = 1e-8 * (1.0 + abs(bc))
    u = sol.full_field()
    umin, umax = float(np.min(u)), float(np.max(u))
    rep.measured["min_u"] = umin
    rep.measured["max_u"] = umax
    if umin < -eps - tol:
        rep.violations.append(f"(i) min u = {umin:.3e} < -eps = {-eps:.3e}")
    if umax > bc + tol:
        rep.violations.append(f"(ii) max u = {umax:.3e} > s(L-2) = {bc:.3e}")
    lower = dom.subsolution_values() + (s - 1.0) * (dom.L - 1.0) - 2.0
    outside = dom.radii >= dom.R0
    gap = np.min((u - lower)[outside]) if np.any(outside) else np.inf
    rep.measured["outer_barrier_gap"] = float(gap)
    # the outer log barrier holds up to an O(eps) boundary-layer correction
    # at finite regularization; only larger dips count as violations
    if gap < -(5.0 * eps + tol):
        rep.violations.append(f"(i) u - (v + (s-1)(L-1) - 2) dips to {gap:.3e}")
    H_in, g_in = dom.boundary_gradients(sol.interior, bc)
    rep.measured["boundary_gradient_inner"] = g_in
    rep.measured["H_plus_inner"] = H_in
    # (iii) inner bound asserted with discretization slack
    slack = 0.1 * H_in + 10 * dom.h
    if g_in > H_in + eps + slack:
        rep.violations.append(
            f"(iii) |grad u| = {g_in:.3f} on dE0 exceeds H+ + eps = {H_in + eps:.3f}")
    if imcf_reference is not None:
        diff = sol.full_field() - imcf_reference.full_field()
        worst = float(np.max(diff - 1e-6 * (1 + np.abs(sol.full_field()))))
        rep.measured["imcf_domination_margin"] = worst
        if worst > 0:
            rep.violations.append(f"u exceeds the IMCF reference by {worst:.3e}")
    return rep


def apriori_matrix(dom, s_values, eps_values):
    """Solve the boundary-scaled family u_(eps, s) over an (eps, s) grid.

    One ``continuation_solve`` with bc = s (L - 2); every solve must
    converge.  Returns {(eps, s): AprioriReport} over the requested pairs,
    with the solutions attached.
    """
    chains, _ = continuation_solve(dom, s_values, eps_values)
    requested = set(eps_values)
    out = {}
    for s, chain in chains.items():
        for sol, _ in chain:
            if sol.eps in requested:
                rep = apriori_monitor(dom, sol)
                rep.solution = sol
                out[(sol.eps, s)] = rep
    return out
