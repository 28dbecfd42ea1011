"""Variational functionals, minimality tests, outward hulls and Q(t).

The discrete perimeter is a face-weighted cut metric; on the radial lane it
is exact (sphere areas).  Hulls are exact minimizers of this discrete
functional, which is also the one every comparison here uses: a chain (the
radial lane's shells) by a two-state scan in O(universe), the core and
free cells up to the last of them, not the whole domain; any other graph
by Dinic max-flow.  Both routes need nonnegative pair and boundary
weights, which ``SetProblem`` enforces, and both are checked against
``exhaustive_minimizers``, an independent reference that evaluates every
subset of up to 20 free cells by doubling (O(2^k) additions into tables of
at most 2^16 floats).  The function-level functional, the minimality
sweep, the area identity and Q(t) run on the radial lane only; the sweep
scores each competitor in O(its support).
"""

import numpy as np

from ._maxflow import MaxFlow
from .domain import _cumulative_trapezoid
from .radial_oracle import sphere_area
from .weak_flow import level_radius

TOL_MIN_REL = 1e-3
TOL_ENUM = 1e-11            # enumerated values within this of the minimum tie
BLOCK_BITS = 16             # enumeration tables hold at most 2^16 values
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
    a table of the lowest 16 free cells, one block of 2^16 patterns that
    fix the lowest k - 16 (same sums) and cut tables: 1.6-2 MB at k = 20.
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

    def doubling(start, weights):
        # table[q]: start plus the weights at the set bits of q, in bit order
        table = np.empty(1 << len(weights))
        table[0] = start
        for a, w in enumerate(weights):
            np.add(table[:1 << a], w, out=table[1 << a:2 << a])
        return table

    def cut_tables(j, fixed):
        # cut[q]: weights of the pairs (a, j) with cell a inside in pattern
        # q, period 2^span, read reversed when j is inside.  A block's fixed
        # cells (low) start it over the rest (top); ``zero`` starts at 0
        nbr = np.nonzero(pair_w[j, :j])[0]
        span = int(nbr[-1]) + 1 if len(nbr) else 0
        top = pair_w[j, fixed:span]
        return (span, doubling(0.0, pair_w[j, :min(span, fixed)]), top,
                doubling(0.0, top))

    def add_cell(values, j, fixed, block, tables):
        # values[t] holds pattern block + t * 2^fixed of the cells below j
        h = 1 << (j - fixed)
        lo, hi = values[:h], values[h:2 * h]
        np.add(lo, add1[j], out=hi)
        lo += add0[j]
        span, low, top, zero = tables
        if span:
            q = block % len(low)
            cut, cut_in = (zero if start == 0.0 else doubling(start, top)
                           for start in (low[q], low[-1 - q]))
            lo_rows = lo.reshape(-1, len(cut))
            hi_rows = hi.reshape(-1, len(cut))
            lo_rows += cut
            hi_rows += cut_in[::-1]

    # the whole table of the lowest m cells, then per pattern b of the
    # lowest nb the block of patterns b + t * 2^nb, summed in the same order
    m, nb = min(k, BLOCK_BITS), max(k - BLOCK_BITS, 0)
    table = np.full(1 << m, const)
    for j in range(m):
        add_cell(table, j, 0, 0, cut_tables(j, 0))
    top_cells = [(j, cut_tables(j, nb)) for j in range(m, k)]
    values = np.empty(1 << m)
    best, kept = np.inf, []
    for block in range(1 << nb):
        values[:1 << (m - nb)] = table[block::1 << nb]
        for j, tables in top_cells:
            add_cell(values, j, nb, block, tables)
        best = min(best, float(np.min(values)))
        near = np.nonzero(values <= best + TOL_ENUM)[0]
        kept.append((values[near], block + (near << nb)))
    vals, patterns = (np.concatenate(c) for c in zip(*kept))
    masks = []
    for p in np.sort(patterns[vals <= best + TOL_ENUM]):
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
    ``radial_set_problem`` builds them, is cut exactly by a two-state scan
    of its core and free cells (``_chain_cut``); every other graph goes to
    Dinic max-flow (``_dinic_cut``).
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

    The scan covers the universe: cells 0..m-1, m the first cell after
    the last core or free cell.  Every later cell is outside every set,
    and scanned it would add exact zeros (outside cost 0, inside cost
    inf) to F and B, so they are left out and stay outside the mask.  On
    a radial set problem that is the shells up to the omega radius, not
    the whole domain; the value is still taken on the whole problem.
    """
    n = problem.n_cells
    inf = float("inf")
    inside = problem.core | problem.free
    where = np.flatnonzero(inside)
    m = min(int(where[-1]) + 2, n) if len(where) else 1
    core, inside = problem.core[:m], inside[:m]
    unary = problem.boundary_weights[:m] - np.where(core, 0.0,
                                                    problem.gains[:m])
    out_cost = np.where(core, inf, 0.0).tolist()
    in_cost = np.where(inside, unary, inf).tolist()
    w = problem.weights[:m - 1].tolist()
    f0, f1 = out_cost[0], in_cost[0]
    F0 = [f0]
    for i in range(1, m):
        f0, f1 = (out_cost[i] + min(f0, f1 + w[i - 1]),
                  in_cost[i] + min(f1, f0 + w[i - 1]))
        F0.append(f0)
    best = min(f0, f1)
    b0 = b1 = 0.0
    B0 = [0.0] * m
    for i in range(m - 2, -1, -1):
        c0, c1 = out_cost[i + 1] + b0, in_cost[i + 1] + b1
        b0, b1 = min(c0, c1 + w[i]), min(c1, c0 + w[i])
        B0[i] = b0
    scale = 1.0 + abs(best) + 2.0 * float(np.sum(np.abs(unary[inside])))
    mask = np.zeros(n, bool)
    mask[:m] = np.array(F0) + np.array(B0) > best + TOL_ENUM * scale
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
    INF = float(np.sum(problem.weights) + np.sum(problem.boundary_weights)
                + np.sum(np.abs(problem.gains)) + 1.0)
    for i, core, free, gain, bw in zip(
            range(n), problem.core.tolist(), problem.free.tolist(),
            problem.gains.tolist(), problem.boundary_weights.tolist()):
        if core:
            mf.add_edge(s, i, INF)
        elif not free:
            mf.add_edge(i, t, INF)
        elif gain > 0:
            mf.add_edge(s, i, gain)
        elif gain < 0:
            mf.add_edge(i, t, -gain)
        if bw > 0:
            mf.add_edge(i, t, bw)
    for (a, b), w in zip(problem.pairs.tolist(), problem.weights.tolist()):
        if w > 0:
            mf.add_edge(a, b, w, w)
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

def _function_weights(dom):
    """Face areas and dual node volumes of the function-level functional."""
    areas = sphere_area(dom.n) * (dom.b * dom.r) ** dom.n
    return 0.5 * (areas[1:] + areas[:-1]), dom.volumes()


def functional_on_function(dom, v, bulk):
    """J(v) = total variation of v plus the frozen bulk term integral.

    The TV quadrature reuses the solver's face structure, which is exact on
    the radial lane, so set indicators reproduce the perimeter.
    """
    dom.require_radial("functional on functions")
    fa, vol = _function_weights(dom)
    tv = np.sum(fa * np.abs(np.diff(v)))
    blk = np.sum(v * bulk * vol)
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

    Each margin J(v) - J(u) is summed on the competitor's window, in
    O(its support): the faces of the window add fa (|dv| - |du|) and its
    nodes (v - u) bulk vol.  A bump, dent or plateau shift changes u on a
    window only; the window of a level dilation is the whole domain.
    """
    dom = rec.domain
    dom.require_radial("minimality sweep")
    bulk = frozen_bulk(rec)
    u = rec.u
    fa, vol = _function_weights(dom)
    bulk_vol = bulk * vol
    base = functional_on_function(dom, u, bulk)
    scale = abs(base) + 1.0
    rep = MinimalityReport()
    for name, lo, v in _competitors(rec, n_random, seed):
        hi = lo + len(v)
        uw = u[lo:hi]
        dtv = np.abs(v[1:] - v[:-1]) - np.abs(uw[1:] - uw[:-1])
        margin = float(fa[lo:hi - 1] @ dtv + (v - uw) @ bulk_vol[lo:hi])
        rep.rows.append((name, margin))
        if margin < -TOL_MIN_REL * scale:
            rep.failures.append((name, margin))
    return rep


def _competitors(rec, n_random, seed):
    """The competitors of ``minimality_test``, as (name, lo, v).

    v is the competitor on nodes lo..lo+len(v)-1, and u elsewhere; the
    window holds one node of u on each side of {v != u} (unless that side
    is the domain's end), so every face whose slope changes lies inside
    it.  A level dilation comes with lo 0 and v on every node.
    """
    dom = rec.domain
    rng = np.random.default_rng(seed)
    u = rec.u
    r = dom.r
    t_lo, t_hi = rec.valid_time_range()
    rmax = level_radius(rec, t_hi) if t_hi > t_lo else r[-1]
    for k in range(n_random):
        rho = rng.uniform(3 * dom.h, 0.5)
        # {v != u} must stay compactly inside the annulus
        x0 = rng.uniform(r[0] + rho + 2 * dom.h,
                         max(min(rmax, r[-1] - rho - 2 * dom.h),
                             r[0] + rho + 3 * dom.h))
        c = rng.uniform(0.01, 0.5) * (1 if k % 2 == 0 else -1)
        # the hat is zero at |r - x0| >= rho
        lo, hi = np.searchsorted(r, (x0 - rho, x0 + rho)).tolist()
        lo, hi = max(lo - 1, 0), min(hi + 1, len(r))
        hat = np.maximum(0.0, 1.0 - np.abs(r[lo:hi] - x0) / rho)
        fam = "bump" if c > 0 else "dent"
        yield f"{fam}[{k}]", lo, u[lo:hi] + c * hat
    for j, jump in enumerate(rec.jumps):
        lo = max(int(np.min(jump.cells)) - 1, 0)
        hi = min(int(np.max(jump.cells)) + 2, len(r))
        for c in (0.05, -0.05, 0.2, -0.2):
            v = u[lo:hi].copy()
            v[jump.cells - lo] += c
            yield f"plateau_shift[{j},{c}]", lo, v
    for sdil in (0.97, 1.03):
        cut = np.clip((rmax - r) / max(rmax - r[0], dom.h), 0, 1)
        cut = np.minimum(cut, np.clip((r - r[0]) / 0.5, 0, 1))
        us = np.interp(np.clip(sdil * r, r[0], r[-1]), r, u)
        yield f"level_dilation[{sdil}]", 0, u + cut * (us - u)


# -- area identity and the monotone quantity ------------------------------------

def area_identity_check(rec, jump):
    """Residual of |dE_t+| = |dE_t| + int_(E_t+ - E_t) |P_nu| at a jump.

    Returns the three terms and the relative residual.  The identity needs
    the inner set to be outward optimizing; a trapped E_0 genuinely violates
    it and the signed residual records by how much.
    """
    dom = rec.domain
    dom.require_radial("area identity")
    area = dom.profile.area
    a_in = float(area(jump.inner_radius))
    a_out = float(area(jump.outer_radius))
    rr = np.linspace(jump.inner_radius, jump.outer_radius, 4097)
    a = np.asarray(dom.ids.radial.a(rr), float)
    p = np.abs(np.asarray(dom.ids.radial.kappa_r(rr), float))
    integrand = p * area(rr) * a
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
    prof = dom.profile
    r = dom.r
    cum = _cumulative_trapezoid(np.abs(dom.kr) * dom.volumes())
    with np.errstate(divide="ignore", invalid="ignore"):
        dQ_node = np.gradient(prof.area(r) + cum, r) / np.gradient(rec.u, r)

    radii = level_radius(rec, times)
    areas = prof.area(radii)
    Q = areas + np.interp(radii, r, cum)
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
