"""Damped Newton solves of the regularized level-set problem.

The operator family follows the continuity method: parameter s in [0, 1]
scales the anisotropic K-term, and the outer Dirichlet value is s (L - 2).
Cold starts come from the transport profile (arrival-time quadrature of the
sphere speed), which is what makes them reliable at moderate epsilon; very
small epsilon is reached by sweeping with warm starts.

There is one globalization: ``newton_solve`` is an Armijo-damped Newton
loop that returns its last iterate unconverged when the line search fails.
Recovery belongs to the callers: ds halving in ``continuation_solve``, the
warm/cold/bisection/cold-chain order in ``apriori_matrix`` and the cold-start
backoff in ``weak_flow.epsilon_sweep``.

Convergence accounts for the float64 attainable floor: in plateau regions the
Jacobian row scale grows like 1/(eps h^2), so the smallest representable
max-norm residual is about machineps * ||J||_inf * (1 + ||u||); iterates at
that floor count as converged and record their true residual.
"""

import numpy as np

TOL_NEWTON = 1e-9
MAX_NEWTON = 60
MAX_BACKTRACK = 30
FLOOR_FACTOR = 20.0
_EPS = np.finfo(float).eps


class SolverError(RuntimeError):
    pass


class ScalarSolution:
    """A discrete solution u_(eps, s) with its convergence metadata."""

    def __init__(self, domain, interior, eps, s, bc, residual_norm,
                 iterations, converged, floor, diagnostic=None,
                 variant="stimcf"):
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
        self.variant = variant

    def full_field(self):
        """Values at the field points, boundary data included."""
        return self.domain.full_field(self.interior, self.bc)

    def metric_gradient(self):
        return self.domain.metric_gradient(self.interior, self.bc)


def newton_solve(dom, eps, s, u_init=None, bc=None, tol=TOL_NEWTON,
                 maxit=MAX_NEWTON, variant="stimcf"):
    """Armijo-damped Newton on the discretized operator E^(eps, s).

    u_init is an interior vector (boundary data is imposed, not solved for);
    None selects the domain's cold start (the transport profile on the
    radial lane).  Each iteration assembles the Jacobian at the current
    iterate, stops there if the residual is below max(tol, floor), and
    otherwise halves the Newton step until the max-norm residual drops by
    the Armijo factor.  The solve gives up at the first failed line search,
    at a non-finite step or after maxit steps, and returns that iterate
    unconverged with a diagnostic (naming the feasibility bound when eps
    exceeds it); what to try next is the caller's decision.
    """
    if eps <= 0:
        raise SolverError("elliptic regularization needs eps > 0")
    if not (0.0 <= s <= 1.0):
        raise SolverError("continuity parameter s must lie in [0, 1]")
    bc = s * (dom.L - 2.0) if bc is None else float(bc)
    u = (dom.initial_guess(s, bc, eps) if u_init is None
         else np.array(u_init, float, copy=True))
    if len(u) != dom.n_unknowns:
        raise SolverError("initial guess has the wrong number of unknowns")
    res = dom.residual(u, eps, s, bc, variant)
    nrm = float(np.max(np.abs(res)))
    for it in range(maxit + 1):
        J = dom.jacobian(u, eps, s, bc, variant)
        normJ = float(np.max(np.abs(J).sum(axis=1)))
        floor = FLOOR_FACTOR * _EPS * (1.0 + float(np.max(np.abs(u), initial=0.0))) * normJ
        if nrm < max(tol, floor):
            return ScalarSolution(dom, u, eps, s, bc, nrm, it, True, floor,
                                  variant=variant)
        if it == maxit:
            break
        try:
            step = dom.solve(J, -res)
        except Exception as exc:
            raise SolverError(f"linearization solve failed: {exc}") from exc
        if not np.all(np.isfinite(step)):
            break
        lam = 1.0
        for _ in range(MAX_BACKTRACK):
            ut = u + lam * step
            rt = dom.residual(ut, eps, s, bc, variant)
            nt = float(np.max(np.abs(rt)))
            if np.isfinite(nt) and nt < (1.0 - 1e-4 * lam) * nrm:
                break
            lam *= 0.5
        else:
            break       # the line search failed
        u, res, nrm = ut, rt, nt
    return ScalarSolution(dom, u, eps, s, bc, nrm, it, False, floor,
                          diagnostic=_nonconvergence_note(dom, eps),
                          variant=variant)


def _nonconvergence_note(dom, eps):
    feas = dom.feasibility()
    if eps > feas["eps_max"]:
        return ("eps exceeds the divergence feasibility bound: "
                f"eps * |F| = {eps * feas['volume']:.3g} vs |dF| = "
                f"{feas['boundary_area']:.3g}")
    return "Newton stalled away from the float64 floor"


def residual_field(dom, sol):
    """Per-cell residual of E^(eps, s) at a solution (diagnostic surface)."""
    return dom.residual(sol.interior, sol.eps, sol.s, sol.bc, sol.variant)


def continuation_solve(dom, eps, warm=None, tol=TOL_NEWTON, ds0=0.25,
                       ds_min=1e-3, fast_iters=6, variant="stimcf"):
    """Advance the continuity method to s = 1 at fixed eps.

    The ladder scales the anisotropic operator term (equivalently the data
    K -> sqrt(s) K) at the target boundary value L - 2: the s = 0 rung is the
    pure inverse-mean-curvature regularization, then s grows adaptively
    (halved on failure, grown after fast rungs) with each rung warm-started.
    ``warm`` maps s values to interior vectors from a previous sweep rung.
    When K vanishes identically the ladder collapses to the single s = 1
    solve (the operator family is then s-independent).
    Returns (solution at s = 1, trace rows (s, iterations, residual, ok),
    rung dict s -> interior array) for warm-starting later sweeps.
    """
    warm = warm or {}
    trace = []
    rungs = {}
    bc = dom.L - 2.0
    if dom.k_is_zero():
        sol = newton_solve(dom, eps, 1.0, u_init=warm.get(1.0), bc=bc, tol=tol,
                           variant=variant)
        trace.append((1.0, sol.iterations, sol.residual_norm, sol.converged))
        if not sol.converged:
            raise SolverError(f"continuation failed at s=1, eps={eps}: "
                              f"{sol.diagnostic}")
        rungs[1.0] = sol.interior
        return sol, trace, rungs
    if 1.0 in warm:
        # a previous sweep rung already reached s = 1; its solution is the
        # best start and usually converges directly
        sol = newton_solve(dom, eps, 1.0, u_init=warm[1.0], bc=bc, tol=tol,
                           variant=variant)
        trace.append((1.0, sol.iterations, sol.residual_norm, sol.converged))
        if sol.converged:
            rungs[1.0] = sol.interior
            return sol, trace, rungs
    s = 0.0
    sol = newton_solve(dom, eps, 0.0, u_init=warm.get(0.0), bc=bc, tol=tol,
                       variant=variant)
    trace.append((0.0, sol.iterations, sol.residual_norm, sol.converged))
    if not sol.converged:
        raise SolverError(f"continuation failed at s=0, eps={eps}: {sol.diagnostic}")
    rungs[0.0] = sol.interior
    ds = ds0
    while s < 1.0:
        st = min(1.0, s + ds)
        init = warm.get(st, sol.interior)
        cand = newton_solve(dom, eps, st, u_init=init, bc=bc, tol=tol,
                            variant=variant)
        trace.append((st, cand.iterations, cand.residual_norm, cand.converged))
        if not cand.converged:
            ds *= 0.5
            if ds < ds_min:
                raise SolverError(
                    f"continuation step underflow before s=1 at eps={eps}")
            continue
        s, sol = st, cand
        rungs[st] = cand.interior
        if cand.iterations <= fast_iters and st < 1.0:
            ds = min(1.5 * ds, 1.0 - st)
    return sol, trace, rungs


def imcf_reference_solve(dom, eps, warm=None, tol=TOL_NEWTON):
    """The K-free (inverse mean curvature flow) solve with full boundary data.

    This is the upper-barrier reference: the anisotropic term only increases
    the right-hand side, so every converged anisotropic solution must lie
    below this one.
    """
    return newton_solve(dom, eps, 0.0, u_init=warm, bc=dom.L - 2.0, tol=tol)


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


def apriori_monitor(dom, sol, imcf_reference=None, tol=None):
    """Check the a-priori window and boundary gradient bounds on a solution.

    Hard checks: u >= -eps, u <= s(L-2), and u >= v + (s-1)(L-1) - 2 outside
    the anchor radius.  The outer boundary gradient bound C(L) and the lower
    bridge barrier are recorded, not asserted.  With an IMCF reference the
    barrier ordering u <= u_imcf is checked as well.
    """
    rep = AprioriReport()
    eps, s, bc = sol.eps, sol.s, sol.bc
    tol = 1e-8 * (1.0 + abs(bc)) if tol is None else tol
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
    H_in, g_in, g_out = dom.boundary_gradients(sol.interior, bc)
    rep.measured["boundary_gradient_inner"] = g_in
    rep.measured["H_plus_inner"] = H_in
    rep.measured["boundary_gradient_outer_CL"] = g_out
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


def apriori_matrix(dom, s_values, eps_values, tol=TOL_NEWTON):
    """Solve the boundary-scaled family u_(eps, s) over an (eps, s) grid.

    For each s the eps axis is swept descending, each solve warm-started
    from the previous eps.  Every (eps, s) tries, in order, until one
    converges:

    - below the top eps: the warm start, then the cold (transport) start,
      then eps bisection from the last converged eps, which halves the log
      step next to it after each failure;
    - at the top eps: the cold start, then a cold start at a larger eps
      chained down at factor-2 steps.

    Returns {(eps, s): AprioriReport} with the solutions attached; every
    solve must converge.
    """
    eps_values = sorted(eps_values, reverse=True)
    # warm stepping is reliable at ratios up to ~2: densify the internal
    # chain, reporting only the requested epsilon values
    chain_eps = [eps_values[0]]
    for nxt in eps_values[1:]:
        while chain_eps[-1] / nxt > 2.0 * (1 + 1e-12):
            chain_eps.append(chain_eps[-1] / 2.0)
        chain_eps.append(nxt)
    requested = set(eps_values)
    out = {}
    for s in sorted(s_values):
        warm = None
        eps_prev = None
        for eps in chain_eps:
            # a warm start can sit on a branch that stalls at this eps while
            # the cold start still converges
            for init in ([None] if warm is None else [warm, None]):
                sol = newton_solve(dom, eps, s, u_init=init, tol=tol)
                if sol.converged:
                    break
            if not sol.converged and warm is not None:
                # eps bisection: after a failure halve the log step from
                # the last converged eps, after a success keep it
                e_ok, sub_warm = eps_prev, warm
                ratio = np.sqrt(eps / eps_prev)
                for _ in range(24):
                    if ratio > 0.98:
                        break
                    e_try = e_ok * ratio
                    if e_try < eps * 1.001:
                        e_try = eps
                    cand = newton_solve(dom, e_try, s, u_init=sub_warm,
                                        tol=tol)
                    if not cand.converged:
                        ratio = np.sqrt(ratio)
                        continue
                    e_ok, sub_warm = e_try, cand.interior
                    if e_ok == eps:
                        sol = cand
                        break
            if not sol.converged and warm is None:
                # last resort: cold-start at the sweep's default scale
                # (with backoff) and chain down at factor-2 steps
                e_hi = min(0.9 * dom.feasibility()["eps_max"], 1.0 / 32.0)
                e_hi = max(e_hi, 2 * eps)
                chain = None
                e = e_hi
                while chain is None and e > eps * 1.0001:
                    step = newton_solve(dom, e, s, tol=tol)
                    if step.converged:
                        chain = step.interior
                        break
                    e /= 2.0
                while e > eps * 1.0001:
                    e = max(e / 2.0, eps)
                    step = newton_solve(dom, e, s, u_init=chain, tol=tol)
                    if step.converged:
                        chain = step.interior
                sol = newton_solve(dom, eps, s, u_init=chain, tol=tol)
            if not sol.converged:
                raise SolverError(
                    f"a-priori matrix solve failed at eps={eps}, s={s}: "
                    f"{sol.diagnostic}")
            warm = sol.interior
            eps_prev = eps
            if eps in requested:
                rep = apriori_monitor(dom, sol)
                rep.solution = sol
                out[(eps, s)] = rep
    return out
