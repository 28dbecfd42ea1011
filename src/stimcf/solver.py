"""Damped Newton solves of the regularized level-set problem.

The operator family follows the continuity method: parameter s in [0, 1]
scales the anisotropic K-term, and the outer Dirichlet value is s (L - 2).
Warm starts come from the transport profile (arrival-time quadrature of the
sphere speed), which is what makes cold starts at moderate epsilon reliable;
very small epsilon is reached by sweeping with warm starts.

Convergence accounts for the float64 attainable floor: in plateau regions the
Jacobian row scale grows like 1/(eps h^2), so the smallest representable
max-norm residual is about machineps * ||J||_inf * (1 + ||u||); iterates at
that floor count as converged and record their true residual.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
                 maxit=MAX_NEWTON, extra_slack=10, variant="stimcf"):
    """Damped Newton on the discretized operator E^(eps, s).

    u_init is an interior vector (boundary data is imposed, not solved for);
    None selects the domain's cold start (the transport profile on the
    radial lane).  Non-convergence is reported on the returned solution
    together with a feasibility diagnostic when eps exceeds the divergence
    bound of the domain.
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
    slack = 0
    floor = 0.0
    it = 0
    while it < maxit:
        J = dom.jacobian(u, eps, s, bc, variant)
        normJ = float(np.max(np.abs(J).sum(axis=1)))
        floor = FLOOR_FACTOR * _EPS * (1.0 + float(np.max(np.abs(u), initial=0.0))) * normJ
        if nrm < max(tol, floor):
            return ScalarSolution(dom, u, eps, s, bc, nrm, it, True, floor,
                                  variant=variant)
        try:
            step = dom.solve(J, -res)
        except Exception as exc:
            raise SolverError(f"linearization solve failed: {exc}") from exc
        if not np.all(np.isfinite(step)):
            return ScalarSolution(dom, u, eps, s, bc, nrm, it, False, floor,
                                  diagnostic=_nonconvergence_note(dom, eps),
                                  variant=variant)
        lam, ok, ut, rt, nt = 1.0, False, u, res, nrm
        for _ in range(MAX_BACKTRACK):
            ut = u + lam * step
            rt = dom.residual(ut, eps, s, bc, variant)
            nt = float(np.max(np.abs(rt)))
            if np.isfinite(nt) and nt < (1.0 - 1e-4 * lam) * nrm:
                ok = True
                break
            lam *= 0.5
        if not ok:
            if np.isfinite(nt) and nt < nrm and slack < extra_slack:
                slack += 1
            else:
                lm = _levenberg_rescue(dom, u, res, nrm, eps, s, bc, tol,
                                       floor, variant)
                if lm is not None:
                    u, res, nrm = lm
                    it += 1
                    continue
                conv = nrm < max(tol, floor)
                return ScalarSolution(dom, u, eps, s, bc, nrm, it, conv, floor,
                                      diagnostic=None if conv else
                                      _nonconvergence_note(dom, eps),
                                      variant=variant)
        u, res, nrm = ut, rt, nt
        it += 1
    conv = nrm < max(tol, floor)
    if not conv:
        # slow-grind exit: a Levenberg phase followed by a short plain
        # Newton polish clears most near-solution stalls
        lm = _levenberg_rescue(dom, u, res, nrm, eps, s, bc, tol, floor,
                               variant, max_steps=120)
        if lm is not None:
            u, res, nrm = lm
            for _ in range(30):
                J = dom.jacobian(u, eps, s, bc, variant)
                normJ = float(np.max(np.abs(J).sum(axis=1)))
                floor = FLOOR_FACTOR * _EPS * (1.0 + float(
                    np.max(np.abs(u), initial=0.0))) * normJ
                if nrm < max(tol, floor):
                    break
                step = dom.solve(J, -res)
                ut = u + step
                rt = dom.residual(ut, eps, s, bc, variant)
                nt = float(np.max(np.abs(rt)))
                if not np.isfinite(nt) or nt >= nrm:
                    break
                u, res, nrm = ut, rt, nt
                it += 1
        conv = nrm < max(tol, floor)
    return ScalarSolution(dom, u, eps, s, bc, nrm, it, conv, floor,
                          diagnostic=None if conv else _nonconvergence_note(dom, eps),
                          variant=variant)


def _levenberg_rescue(dom, u, res, nrm, eps, s, bc, tol, floor, variant,
                      max_steps=250):
    """Normal-equations Levenberg phase out of a damped-Newton stall.

    Minimizes the least-squares merit with (J^T J + mu D) steps (a certified
    descent direction) and Aitken-extrapolates along the dominant geometric
    mode, which finishes the near-null-mode grinds the max-norm line search
    cannot.  Returns the improved state or None.
    """
    mu = 1e-5
    l2 = float(np.linalg.norm(res))
    improved = False
    prev_du = None
    for _ in range(max_steps):
        if float(np.max(np.abs(res))) < max(tol, floor):
            improved = True
            break
        J = dom.jacobian(u, eps, s, bc, variant).tocsr()
        g = J.T @ res
        H = (J.T @ J).tocsc()
        D = sp.diags(np.maximum(H.diagonal(), 1e-30))
        try:
            step = spla.spsolve((H + mu * D).tocsc(), -g)
        except Exception:
            return None
        ut = u + step
        rt = dom.residual(ut, eps, s, bc, variant)
        n2 = float(np.linalg.norm(rt))
        if np.isfinite(n2) and n2 < l2:
            du = ut - u
            if prev_du is not None:
                num = float(du @ prev_du)
                den = float(prev_du @ prev_du)
                rho = num / den if den > 0 else 0.0
                if 0.2 < rho < 0.999:
                    cand = ut + du * rho / (1.0 - rho)
                    rc = dom.residual(cand, eps, s, bc, variant)
                    nc = float(np.linalg.norm(rc))
                    if np.isfinite(nc) and nc < n2:
                        ut, rt, n2 = cand, rc, nc
                        du = None
            prev_du = du
            u, res, l2 = ut, rt, n2
            mu = max(mu / 3.0, 1e-10)
            improved = True
        else:
            mu *= 8.0
            if mu > 1e10:
                break
    if not improved:
        return None
    return u, res, float(np.max(np.abs(res)))


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

    For each s the eps axis is swept descending with warm starts (cold starts
    at moderate eps, the easy direction).  Returns {(eps, s): AprioriReport}
    with the solutions attached; every solve must converge.
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
    prev_top = None
    for s in sorted(s_values):
        warm = None
        eps_prev = None
        for eps in chain_eps:
            inits = [warm] if warm is not None else [None]
            if warm is None and prev_top is not None:
                # cold tops occasionally stall; the neighboring s-chain's
                # top solution (boundary value re-imposed) is a good start
                inits = [None, prev_top]
            sol = None
            for init in inits:
                sol = newton_solve(dom, eps, s, u_init=init, tol=tol)
                if sol.converged:
                    break
            if not sol.converged and warm is not None and eps_prev is not None:
                # adaptive substepping: bisect the eps descent on failure
                sub_warm = warm
                stack = [(eps_prev, eps)]
                depth = 0
                while stack and depth < 24:
                    e_hi, e_lo = stack.pop()
                    mid = np.sqrt(e_hi * e_lo)
                    cand = newton_solve(dom, mid, s, u_init=sub_warm, tol=tol)
                    depth += 1
                    if cand.converged:
                        sub_warm = cand.interior
                        if mid / e_lo < 1.02:
                            break
                        stack.append((mid, e_lo))
                    else:
                        if mid / e_hi > 0.98:
                            break
                        stack.append((e_hi, mid))
                        stack.append((mid, e_lo))
                sol = newton_solve(dom, eps, s, u_init=sub_warm, tol=tol)
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
            if warm is None:
                prev_top = sol.interior
            warm = sol.interior
            eps_prev = eps
            if eps in requested:
                rep = apriori_monitor(dom, sol)
                rep.solution = sol
                out[(eps, s)] = rep
    return out
