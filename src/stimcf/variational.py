"""Variational functionals, minimality tests, outward hulls and Q(t).

The discrete perimeter is a face-weighted cut metric; on the radial lane it
is exact (sphere areas).  Hulls are exact minimizers of this discrete
functional, which is also the one every comparison here uses: a chain (the
radial lane's shells) by a two-state scan in O(N), any other graph by Dinic
max-flow.  Both routes need nonnegative pair and boundary weights, which
``SetProblem`` enforces, and both are checked against
``exhaustive_minimizers``, an independent reference that evaluates every
subset of up to 20 free cells by doubling (O(2^k) additions into one table
of 2^k floats).  The function-level functional, the minimality sweep, the
area identity and Q(t) run on the radial lane only.
"""

import numpy as np

from ._maxflow import MaxFlow
from .radial_oracle import sphere_area
from .weak_flow import level_radius

TOL_MIN_REL = 1e-3
TOL_ENUM = 1e-11            # enumerated values within this of the minimum tie
N_Q_TIMES = 160


class SetProblem:
    """Cells, adjacency weights and bulk gains for set functionals.

    value(F) = sum of cut weights between F and its complement (within the
    problem's cell universe plus the outside) minus sum of gains over F - E.
    E is the mandatory core (the hull constraint F >= E).
    """

    def __init__(self, n_cells, pairs, weights, boundary_weights, gains,
                 core_mask, free_mask):
        self.n_cells = int(n_cells)
        self.pairs = np.asarray(pairs, int).reshape(-1, 2)
        self.weights = np.asarray(weights, float)
        self.boundary_weights = np.asarray(boundary_weights, float)
        self.gains = np.asarray(gains, float)
        self.core = np.asarray(core_mask, bool)
        self.free = np.asarray(free_mask, bool)
        if np.any(self.core & self.free):
            raise ValueError("core and free cells must be disjoint")
        if np.any(self.weights < 0) or np.any(self.boundary_weights < 0):
            raise ValueError("pair and boundary weights must be nonnegative")

    def perimeter(self, mask):
        mask = np.asarray(mask, bool)
        cut = mask[self.pairs[:, 0]] != mask[self.pairs[:, 1]]
        return float(np.sum(self.weights[cut]) +
                     np.sum(self.boundary_weights[mask]))

    def value(self, mask):
        mask = np.asarray(mask, bool)
        if np.any(self.core & ~mask):
            raise ValueError("candidate set must contain the core")
        gain = float(np.sum(self.gains[mask & ~self.core]))
        return self.perimeter(mask) - gain


def exhaustive_minimizers(problem):
    """All minimizers over subsets of the free cells (<= 20 of them), the
    minimum value, and the inclusion-minimal minimizer.

    This is the reference that both routes of ``mincut_hull`` are checked
    against, so it shares none of their logic: it evaluates the functional
    on every one of the 2^k subsets (bit j of the pattern index is free cell
    j, so ties come out in increasing pattern order) and uses no min-cut,
    scan, pruning or bound.  J splits into a constant, a term per free cell,
    add0[j] when it is outside and add1[j] when inside (its cut weights to
    core and excluded cells, its boundary weight and its gain), and the
    free-free cut weights.  The value table is built by doubling: with
    h = 2^j, patterns h..2h-1 copy patterns 0..h-1 with cell j inside and
    add add1[j] and the weights of the pairs (a, j), a < j, with a outside;
    patterns 0..h-1 add add0[j] and those with a inside.  Only cut weights
    are added, so each value is a sum of the same terms as
    ``SetProblem.value`` in another order.  Cost: O(2^k) additions; memory:
    the table of 2^k floats and one pair-weight table of at most 2^(k-1)
    (12 MB at k = 20).
    """
    free = np.where(problem.free)[0]
    k = len(free)
    if k > 20:
        raise ValueError("enumeration limited to 20 free cells")
    col = np.full(problem.n_cells, -1)
    col[free] = np.arange(k)
    core = problem.core
    const = float(np.sum(problem.boundary_weights[core]))
    add0 = np.zeros(k)
    add1 = problem.boundary_weights[free] - problem.gains[free]
    # pair_w[j, a]: weight of the free pairs (a, j), a < j; self pairs,
    # never cut, land on the diagonal, which is never read
    pair_w = np.zeros((k, k))
    for (a, b), w in zip(problem.pairs, problem.weights):
        ja, jb = col[a], col[b]
        if ja >= 0 and jb >= 0:
            pair_w[max(ja, jb), min(ja, jb)] += w
        elif ja >= 0 or jb >= 0:
            j, other = (ja, b) if ja >= 0 else (jb, a)
            if core[other]:
                add0[j] += w
            else:
                add1[j] += w
        elif core[a] != core[b]:
            const += w
    values = np.empty(1 << k)
    values[0] = const
    for j in range(k):
        h = 1 << j
        lo, hi = values[:h], values[h:2 * h]
        np.add(lo, add1[j], out=hi)
        lo += add0[j]
        nbr = np.nonzero(pair_w[j, :j])[0]
        if len(nbr):
            # cut[q]: weights of the pairs (a, j) whose cell a is inside in
            # pattern q, built by the same doubling over a < span; it
            # repeats with period 2^span, and the complement of q within
            # the period is 2^span - 1 - q, so cell j inside reads it reversed
            span = int(nbr[-1]) + 1
            cut = np.empty(1 << span)
            cut[0] = 0.0
            for a in range(span):
                np.add(cut[:1 << a], pair_w[j, a], out=cut[1 << a:2 << a])
            lo_rows = lo.reshape(-1, 1 << span)
            hi_rows = hi.reshape(-1, 1 << span)
            lo_rows += cut
            hi_rows += cut[::-1]
    best = float(np.min(values))
    masks = []
    for p in np.nonzero(values <= best + TOL_ENUM)[0]:
        mask = core.copy()
        mask[free[(p >> np.arange(k)) & 1 == 1]] = True
        masks.append(mask)
    minimal = np.logical_and.reduce(masks)
    # with nonnegative weights J is submodular, so the minimizers are closed
    # under intersection
    gap = problem.value(minimal) - best
    if abs(gap) > 10 * TOL_ENUM:
        raise ValueError(f"the intersection of the {len(masks)} minimizers "
                         f"misses the minimum by {gap:.3e}")
    return best, masks, minimal


def mincut_hull(problem):
    """Inclusion-minimal minimizer of the set functional and its value.

    A chain, whose pairs are exactly (0, 1), (1, 2), ..., (n-2, n-1) as
    ``radial_set_problem`` builds them, is cut exactly in O(N) by a
    two-state scan (``_chain_cut``); every other graph goes to Dinic
    max-flow (``_dinic_cut``).
    """
    n = problem.n_cells
    path = np.stack([np.arange(n - 1), np.arange(1, n)], 1)
    if np.array_equal(problem.pairs, path):
        return _chain_cut(problem)
    return _dinic_cut(problem)


def _chain_cut(problem):
    """Exact cut of a chain by a forward and a backward two-state scan.

    F[i][x] is the least value of cells 0..i with cell i inside (x = 1) or
    outside (x = 0) the set, B[i][x] the least value of cells i+1..n-1 given
    that state of cell i.  The minimizers form a lattice closed under
    intersection (as in ``exhaustive_minimizers``), so a cell belongs to
    the inclusion-minimal one iff every minimizer holds it: iff the least
    value with it excluded, F[i][0] + B[i][0], exceeds the minimum.  The
    tolerance covers rounding: with nonnegative weights the terms of a set
    whose value is near the minimum add up to at most ``scale`` in absolute
    value, and the sums of up to ~1e5 terms round by less than
    TOL_ENUM * scale.
    """
    n = problem.n_cells
    inf = float("inf")
    inside = problem.core | problem.free
    unary = problem.boundary_weights - np.where(problem.core, 0.0,
                                                problem.gains)
    out_cost = np.where(problem.core, inf, 0.0).tolist()
    in_cost = np.where(inside, unary, inf).tolist()
    w = problem.weights.tolist()
    f0, f1 = out_cost[0], in_cost[0]
    F0 = [f0]
    for i in range(1, n):
        f0, f1 = (out_cost[i] + min(f0, f1 + w[i - 1]),
                  in_cost[i] + min(f1, f0 + w[i - 1]))
        F0.append(f0)
    best = min(f0, f1)
    b0 = b1 = 0.0
    B0 = [0.0] * n
    for i in range(n - 2, -1, -1):
        c0, c1 = out_cost[i + 1] + b0, in_cost[i + 1] + b1
        b0, b1 = min(c0, c1 + w[i]), min(c1, c0 + w[i])
        B0[i] = b0
    scale = 1.0 + abs(best) + 2.0 * float(np.sum(np.abs(unary[inside])))
    mask = np.array(F0) + np.array(B0) > best + TOL_ENUM * scale
    return mask, problem.value(mask)


def _dinic_cut(problem):
    """Inclusion-minimal minimizer of the set functional by max-flow.

    Source side = inside F.  A positive gain enters as a source link on its
    free cell (paid when the cell is excluded), a negative gain as a sink
    link (paid when it is included); core cells are pinned to the source,
    non-universe cells to the sink via the boundary weights.
    """
    n = problem.n_cells
    mf = MaxFlow(n)
    s, t = mf.source, mf.sink
    INF = (np.sum(problem.weights) + np.sum(problem.boundary_weights)
           + np.sum(np.abs(problem.gains)) + 1.0)
    for i in np.where(problem.core)[0]:
        mf.add_edge(s, int(i), INF)
    for i in np.where(problem.free)[0]:
        if problem.gains[i] > 0:
            mf.add_edge(s, int(i), problem.gains[i])
        elif problem.gains[i] < 0:
            mf.add_edge(int(i), t, -problem.gains[i])
    for i in np.where(~problem.core & ~problem.free)[0]:
        mf.add_edge(int(i), t, INF)
    for (a, b), w in zip(problem.pairs, problem.weights):
        if w > 0:
            mf.add_edge(int(a), int(b), w, w)
    for i in np.where(problem.boundary_weights > 0)[0]:
        mf.add_edge(int(i), t, problem.boundary_weights[i])
    mf.solve()
    side = mf.source_side()
    mask = np.asarray(side, bool)
    mask |= problem.core
    mask &= (problem.core | problem.free)
    return mask, problem.value(mask)


# -- domain-backed set problems ------------------------------------------------

def radial_set_problem(dom, core_radius, omega_radius):
    """Shell cells on a radial domain; exact metric areas and volumes, and
    gains |P_nu| = |kappa_r| (the radial-normal value) times the volume."""
    r, a, b, n = dom.r, dom.a, dom.b, dom.n
    ncell = len(r) - 1
    omega = sphere_area(n)
    areas = omega * (b * r) ** n          # at nodes = faces of the shells
    vols = omega * 0.5 * (((b * r) ** n * a)[:-1] + ((b * r) ** n * a)[1:]) * dom.h
    p_node = np.abs(dom.kr)
    pcell = 0.5 * (p_node[:-1] + p_node[1:])
    gains = pcell * vols
    pairs = np.stack([np.arange(ncell - 1), np.arange(1, ncell)], 1)
    weights = areas[1:-1]
    boundary = np.zeros(ncell)
    boundary[-1] = areas[-1]
    centers = 0.5 * (r[:-1] + r[1:])
    core = centers < core_radius
    free = (~core) & (centers < omega_radius)
    prob = SetProblem(ncell, pairs, weights, boundary, gains, core, free)
    prob.shell_centers = centers
    prob.shell_volumes = vols
    return prob


# -- function-level functional -------------------------------------------------

def functional_on_function(dom, v, bulk):
    """J(v) = total variation of v plus the frozen bulk term integral.

    The TV quadrature reuses the solver's face structure, which is exact on
    the radial lane, so set indicators reproduce the perimeter.
    """
    dom.require_radial("functional on functions")
    omega = sphere_area(dom.n)
    areas = omega * (dom.b * dom.r) ** dom.n
    fa = 0.5 * (areas[1:] + areas[:-1])
    dv = np.abs(np.diff(v))
    tv = np.sum(fa * dv)
    blk = np.sum(v * bulk * dom.volumes())
    return float(tv + blk)


def frozen_bulk(rec):
    """sqrt(|grad u|^2 + P_nu^2) of the recorded limit, the frozen bulk term."""
    rec.domain.require_radial("frozen bulk")
    grad = np.abs(rec.solution.metric_gradient())
    return np.sqrt(grad ** 2 + rec.domain.kr ** 2)


class MinimalityReport:
    def __init__(self):
        self.rows = []
        self.failures = []

    @property
    def ok(self):
        return not self.failures


def minimality_test(rec, n_random=60, seed=5):
    """Compare J(u) against compactly supported competitors.

    Families: random bumps and dents, plateau value shifts on detected jumps,
    and level dilations (blended resampling u(s x)).  A failure is a
    competitor beating the solution by more than TOL_MIN_REL of the local
    energy scale.
    """
    dom = rec.domain
    dom.require_radial("minimality sweep")
    rng = np.random.default_rng(seed)
    bulk = frozen_bulk(rec)
    u = rec.u
    r = dom.r
    lo, hi = rec.valid_time_range()
    rmax = level_radius(rec, hi) if hi > lo else r[-1]
    base = functional_on_function(dom, u, bulk)
    scale = abs(base) + 1.0
    rep = MinimalityReport()

    def try_competitor(name, v):
        val = functional_on_function(dom, v, bulk)
        margin = val - base
        rep.rows.append((name, margin))
        if margin < -TOL_MIN_REL * scale:
            rep.failures.append((name, margin))

    for k in range(n_random):
        rho = rng.uniform(3 * dom.h, 0.5)
        # {v != u} must stay compactly inside the annulus
        x0 = rng.uniform(r[0] + rho + 2 * dom.h,
                         max(min(rmax, r[-1] - rho - 2 * dom.h),
                             r[0] + rho + 3 * dom.h))
        c = rng.uniform(0.01, 0.5) * (1 if k % 2 == 0 else -1)
        hat = np.maximum(0.0, 1.0 - np.abs(r - x0) / rho)
        fam = "bump" if c > 0 else "dent"
        try_competitor(f"{fam}[{k}]", u + c * hat)
    for j, jump in enumerate(rec.jumps):
        for c in (0.05, -0.05, 0.2, -0.2):
            v = u.copy()
            v[jump.cells] += c
            try_competitor(f"plateau_shift[{j},{c}]", v)
    for sdil in (0.97, 1.03):
        cut = np.clip((rmax - r) / max(rmax - r[0], dom.h), 0, 1)
        cut = np.minimum(cut, np.clip((r - r[0]) / 0.5, 0, 1))
        us = np.interp(np.clip(sdil * r, r[0], r[-1]), r, u)
        try_competitor(f"level_dilation[{sdil}]", u + cut * (us - u))
    return rep


# -- area identity and the monotone quantity ------------------------------------

def area_identity_check(rec, jump):
    """Residual of |dE_t+| = |dE_t| + int_(E_t+ - E_t) |P_nu| at a jump.

    Returns the three terms and the relative residual.  The identity needs
    the inner set to be outward optimizing; a trapped E_0 genuinely violates
    it and the signed residual records by how much.
    """
    dom = rec.domain
    dom.require_radial("area identity")
    omega = sphere_area(dom.n)

    def area(rad):
        b = float(dom.ids.radial.b(rad))
        return omega * (b * rad) ** dom.n

    a_in = area(jump.inner_radius)
    a_out = area(jump.outer_radius)
    rr = np.linspace(jump.inner_radius, jump.outer_radius, 4097)
    b = np.asarray(dom.ids.radial.b(rr), float)
    a = np.asarray(dom.ids.radial.a(rr), float)
    p = np.abs(np.asarray(dom.ids.radial.kappa_r(rr), float))
    integrand = p * omega * (b * rr) ** dom.n * a
    bulk = float(np.trapezoid(integrand, rr))
    residual = a_out - (a_in + bulk)
    return {"outer_area": a_out, "inner_area": a_in, "bulk": bulk,
            "residual": residual, "rel_residual": residual / a_out}


def monotone_quantity(rec):
    """Q(t) = |Sigma_t| + int_(u<=t minus E0) |P_nu|, its derivative and the
    smooth-flow prediction int sqrt((H+|P|)/(H-|P|)).

    dQ/dt comes from the nodes by the chain rule, (dQ/dr) / (du/dr), with
    both derivatives centred (the gradient the operator reads), and is then
    interpolated to the probe radii.  Differencing Q over the probe times
    would instead differentiate the per-cell slopes of u through
    ``level_radius``; where |grad u| >> eps those carry the odd-even
    component the centred scheme leaves undetermined, and probes a few
    cells apart alias it into swings of several percent.

    The N_Q_TIMES probe times span the valid time range up to 95% of it.
    Returns a dict of arrays over the probe times; Q must be nondecreasing
    (checked by the caller against quadrature tolerance).  dQ_dt is NaN at
    probe times inside a jump's [t_lo, t_hi], where Q jumps.
    """
    dom = rec.domain
    dom.require_radial("Q(t) tracing")
    lo, hi = rec.valid_time_range()
    times = np.linspace(lo, hi - 0.05 * (hi - lo), N_Q_TIMES)
    omega = sphere_area(dom.n)
    r = dom.r
    vols = dom.volumes()
    pnode = np.abs(dom.kr)
    cum = np.concatenate([[0.0], np.cumsum(
        0.5 * (pnode[1:] * vols[1:] + pnode[:-1] * vols[:-1]))])
    with np.errstate(divide="ignore", invalid="ignore"):
        dQ_node = np.gradient(omega * dom.A + cum, r) / np.gradient(rec.u, r)

    radii = level_radius(rec, times)
    areas = omega * (np.asarray(dom.ids.radial.b(radii)) * radii) ** dom.n
    Q = areas + np.interp(radii, r, cum)
    prof = dom.profile
    H = prof.mean_curvature(radii)
    P = prof.k_trace(radii)
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = np.sqrt(np.maximum(H + np.abs(P), 0.0)
                            / np.maximum(H - np.abs(P), 1e-300))
    predicted = areas * integrand
    dQ = np.interp(radii, r, dQ_node)
    for j in rec.jumps:
        # Q jumps across the plateau, so dQ/dt is undefined inside it
        dQ[(times >= j.t_lo - 1e-12) & (times <= j.t_hi + 1e-12)] = np.nan
    return {"t": times, "Q": Q, "dQ_dt": dQ, "predicted": predicted,
            "area": areas, "radius": radii}
