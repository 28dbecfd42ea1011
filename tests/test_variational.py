import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from stimcf import build_preset, build_domain
from stimcf import weak_flow as wf
from stimcf import variational as vr
from stimcf import radial_oracle as orc
from stimcf.radial_oracle import sphere_area
from tests.test_radial_oracle import R_STAR_ANISO


@pytest.fixture(scope="module")
def flat_rec():
    ids = build_preset("flat", n=2)
    dom = build_domain(ids, {"radius": 1.0}, L=6.0, alpha=1.9, h=1 / 64.)
    rec = wf.epsilon_sweep(dom, eps_last=1e-3)
    wf.detect_jumps(rec)
    wf.reconstruct_normal_field(rec)
    return rec


@pytest.fixture(scope="module")
def aniso_rec():
    ids = build_preset("paper_anisotropic")
    dom = build_domain(ids, {"radius": 1.0}, L=6.0, alpha=1.9, h=1 / 128.)
    rec = wf.epsilon_sweep(dom, eps_last=1e-4)
    wf.detect_jumps(rec)
    wf.reconstruct_normal_field(rec)
    return rec


def random_problem(rng, n_free):
    """Small random cell complex: a path-ish graph with random extra edges,
    random positive weights and gains; cells: [core, free..., excluded]."""
    n = n_free + 2
    core = np.zeros(n, bool)
    core[0] = True
    free = np.zeros(n, bool)
    free[1:-1] = True
    pairs = [(i, i + 1) for i in range(n - 1)]
    extra = rng.integers(0, n, size=(n_free, 2))
    pairs += [tuple(p) for p in extra if p[0] != p[1]]
    weights = rng.uniform(0.2, 2.0, size=len(pairs))
    boundary = rng.uniform(0.0, 0.5, size=n) * free
    gains = rng.uniform(0.0, 1.6, size=n) * free
    return vr.SetProblem(n, np.array(pairs), weights, boundary, gains,
                         core, free)


def test_empty_set_value_zero():
    prob = random_problem(np.random.default_rng(0), 6)
    prob2 = vr.SetProblem(prob.n_cells, prob.pairs, prob.weights,
                          prob.boundary_weights, prob.gains,
                          np.zeros(prob.n_cells, bool), prob.free)
    assert prob2.value(np.zeros(prob2.n_cells, bool)) == 0.0


def test_mincut_matches_enumeration_small():
    rng = np.random.default_rng(42)
    for k in range(12):
        n_free = int(rng.integers(4, 13))
        prob = random_problem(rng, n_free)
        best, masks, minimal = vr.exhaustive_minimizers(prob)
        mask, val = vr.mincut_hull(prob)
        assert val == pytest.approx(best, abs=1e-9)
        assert np.array_equal(mask, minimal)


def test_mincut_handset_grid_weights():
    # tiny 4 x 4 lattice of free cells above a core row, hand-set weights
    rng = np.random.default_rng(7)
    n = 4 * 5
    idx = lambda i, j: i * 4 + j
    core = np.zeros(n, bool)
    core[[idx(0, j) for j in range(4)]] = True
    free = ~core
    pairs, weights = [], []
    for i in range(5):
        for j in range(4):
            if i + 1 < 5:
                pairs.append((idx(i, j), idx(i + 1, j)))
                weights.append(0.5 + 0.25 * ((i + j) % 3))
            if j + 1 < 4:
                pairs.append((idx(i, j), idx(i, j + 1)))
                weights.append(0.75 + 0.5 * ((i * j) % 2))
    boundary = np.zeros(n)
    boundary[[idx(4, j) for j in range(4)]] = 1.0
    gains = np.zeros(n)
    gains[free] = rng.uniform(0, 2.0, size=free.sum())
    prob = vr.SetProblem(n, np.array(pairs), np.array(weights), boundary,
                         gains, core, free)
    best, masks, minimal = vr.exhaustive_minimizers(prob)
    mask, val = vr.mincut_hull(prob)
    assert val == pytest.approx(best, abs=1e-9)
    assert np.array_equal(mask, minimal)


def test_submodularity_exact_on_random_pairs():
    rng = np.random.default_rng(3)
    prob = random_problem(rng, 14)
    for _ in range(40):
        a = prob.core | (rng.random(prob.n_cells) < 0.4) & prob.free
        b = prob.core | (rng.random(prob.n_cells) < 0.4) & prob.free
        gap = (prob.value(a | b) + prob.value(a & b)
               - prob.value(a) - prob.value(b))
        assert gap <= 1e-11


def test_hull_idempotent_and_contains_core():
    rng = np.random.default_rng(11)
    for _ in range(8):
        prob = random_problem(rng, 10)
        mask, _ = vr.mincut_hull(prob)
        assert np.all(mask[prob.core])
        prob2 = vr.SetProblem(prob.n_cells, prob.pairs, prob.weights,
                              prob.boundary_weights, prob.gains,
                              mask, prob.free & ~mask)
        mask2, _ = vr.mincut_hull(prob2)
        assert np.array_equal(mask2, mask)


def random_chain(rng, halves, gaps=False):
    """A chain [core..., free..., excluded...] with 1-2 core, 1-14 free and
    0-2 excluded cells.  With `halves`, weights, boundary weights and gains
    are multiples of 1/2, summed exactly in float64, so ties occur.  With
    `gaps`, about a quarter of the free cells are excluded instead and the
    excluded tail has 3-40 cells."""
    n_core, n_free, n_tail = (int(rng.integers(1, 3)), int(rng.integers(1, 15)),
                              int(rng.integers(0, 3)))
    if gaps:
        n_tail = int(rng.integers(3, 41))
    n = n_core + n_free + n_tail
    core = np.arange(n) < n_core
    free = ~core & (np.arange(n) < n_core + n_free)
    if gaps:
        free &= rng.random(n) >= 0.25
    if halves:
        weights = rng.integers(1, 5, size=n - 1) / 2
        boundary = rng.integers(0, 2, size=n) / 2
        gains = rng.integers(0, 4, size=n) / 2
    else:
        weights = rng.uniform(0.2, 2.0, size=n - 1)
        boundary = rng.uniform(0.0, 0.5, size=n)
        gains = rng.uniform(0.0, 1.6, size=n)
    pairs = np.stack([np.arange(n - 1), np.arange(1, n)], 1)
    return vr.SetProblem(n, pairs, weights, boundary * ~core, gains * free,
                         core, free)


@pytest.mark.parametrize("gaps", [False, True])
def test_chain_cut_matches_dinic_and_enumeration(gaps):
    # with gaps: excluded cells inside the universe, and tails of up to 40
    # excluded cells, of which the scan reads only the first; the value is
    # still that of the whole problem
    rng = np.random.default_rng(29 if gaps else 17)
    ties = 0
    for k in range(150):
        prob = random_chain(rng, halves=k % 3 == 0, gaps=gaps)
        best, masks, minimal = vr.exhaustive_minimizers(prob)
        ties += len(masks) > 1
        for cut in (vr._chain_cut, vr._dinic_cut):
            mask, val = cut(prob)
            assert np.array_equal(mask, minimal), (k, cut.__name__)
            assert val == pytest.approx(best, abs=1e-9)
        assert vr._chain_cut(prob)[1] == prob.value(minimal)
    # chains with more than one minimizer: 10 of the 150 without gaps
    assert ties >= 5


def test_dinic_runs_a_long_path_without_recursion(monkeypatch):
    # a 5,000-cell chain whose augmenting paths run through thousands of
    # cells; the search must not touch the process-wide recursion limit
    rng = np.random.default_rng(31)
    n = 5000
    core = np.arange(n) < 2
    free = ~core & (np.arange(n) < n - 1)
    gains = np.where(np.arange(n) < 400, rng.uniform(0.0, 0.05, n), 0.0)
    pairs = np.stack([np.arange(n - 1), np.arange(1, n)], 1)
    prob = vr.SetProblem(n, pairs, rng.uniform(1.0, 2.0, n - 1),
                         np.zeros(n), gains * free, core, free)

    def no_limit_change(limit):
        raise AssertionError("the max-flow changed the recursion limit")

    limit = sys.getrecursionlimit()
    monkeypatch.setattr(sys, "setrecursionlimit", no_limit_change)
    mask, val = vr._dinic_cut(prob)
    assert sys.getrecursionlimit() == limit
    chain = vr._chain_cut(prob)
    assert np.array_equal(mask, chain[0]) and val == chain[1]
    assert mask.sum() > 1000


def test_negative_gain_instance_agrees_on_every_route():
    # core {0}, free {1, 2, 3}; cell 2 has gain -3, so it costs 3 when
    # included and the minimum -2.0 leaves it out (all four cells give
    # -1.0).  The cycle goes to Dinic, which charges that cost by a sink
    # link; without the pair (0, 3) the graph is a chain and the scan joins
    core = np.array([True, False, False, False])
    gains = np.array([0.0, 2.0, -3.0, 2.0])
    for pairs, weights, cuts in (
            ([(0, 1), (1, 2), (2, 3), (0, 3)], [1.0, 1.0, 1.0, 0.5],
             (vr.mincut_hull, vr._dinic_cut)),
            ([(0, 1), (1, 2), (2, 3)], [1.0, 1.0, 1.0],
             (vr.mincut_hull, vr._chain_cut, vr._dinic_cut))):
        prob = vr.SetProblem(4, pairs, weights, np.zeros(4), gains, core,
                             ~core)
        best, masks, minimal = vr.exhaustive_minimizers(prob)
        assert best == -2.0
        assert np.array_equal(minimal, [True, True, False, True])
        for cut in cuts:
            mask, val = cut(prob)
            assert np.array_equal(mask, minimal), cut.__name__
            assert val == pytest.approx(best, abs=1e-12)


def test_dinic_matches_enumeration_with_negative_gains():
    rng = np.random.default_rng(23)
    for k in range(40):
        prob = random_problem(rng, int(rng.integers(4, 13)))
        flip = rng.random(prob.n_cells) < 0.3
        prob = vr.SetProblem(prob.n_cells, prob.pairs, prob.weights,
                             prob.boundary_weights,
                             np.where(flip, -prob.gains, prob.gains),
                             prob.core, prob.free)
        best, masks, minimal = vr.exhaustive_minimizers(prob)
        mask, val = vr._dinic_cut(prob)
        assert np.array_equal(mask, minimal), k
        assert val == pytest.approx(best, abs=1e-9)


def test_set_problem_rejects_negative_weights():
    prob = random_problem(np.random.default_rng(0), 4)
    w, bw = prob.weights.copy(), prob.boundary_weights.copy()
    w[1], bw[2] = -w[1], -0.25
    for weights, boundary in ((w, prob.boundary_weights), (prob.weights, bw)):
        with pytest.raises(ValueError, match="nonnegative"):
            vr.SetProblem(prob.n_cells, prob.pairs, weights, boundary,
                          prob.gains, prob.core, prob.free)


def mixed_problem(rng, halves):
    """Core, free and excluded cells in shuffled order (1-3, 1-8, 1-3) with
    core-core, core-free, free-free and free-excluded pairs, a self pair, a
    reversed and a duplicated pair, boundary weights on every cell and gains
    of both signs.  With `halves` every weight and gain is a multiple of 1/2,
    summed exactly in float64, so ties occur."""
    sizes = rng.integers(1, [4, 9, 4])
    kind = rng.permutation(np.repeat([0, 1, 2], sizes))
    n = len(kind)

    def pick(c):
        return int(rng.choice(np.where(kind == c)[0]))

    j = pick(1)
    pairs = [(pick(0), pick(0)), (pick(0), pick(1)), (pick(1), pick(1)),
             (pick(1), pick(2)), (j, j)]
    pairs += [tuple(int(c) for c in rng.integers(0, n, 2)) for _ in range(n)]
    pairs += [pairs[1][::-1], pairs[3]]
    m = len(pairs)
    if halves:
        weights = rng.integers(0, 5, size=m) / 2
        boundary = rng.integers(0, 3, size=n) / 2
        gains = rng.integers(-3, 5, size=n) / 2
    else:
        weights = rng.uniform(0.0, 2.0, size=m)
        boundary = rng.uniform(0.0, 0.5, size=n)
        gains = rng.uniform(-1.0, 1.6, size=n)
    return vr.SetProblem(n, pairs, weights, boundary, gains, kind == 0,
                         kind == 1)


def test_enumeration_matches_set_problem_value():
    # the value table against SetProblem.value on every subset, ties in
    # pattern order (bit j of the pattern is free cell j)
    rng = np.random.default_rng(31)
    ties = 0
    for k in range(120):
        prob = mixed_problem(rng, halves=k % 3 == 0)
        free = np.where(prob.free)[0]
        subsets = []
        for p in range(1 << len(free)):
            mask = prob.core.copy()
            mask[free[[(p >> j) & 1 == 1 for j in range(len(free))]]] = True
            subsets.append(mask)
        values = np.array([prob.value(mask) for mask in subsets])
        ref_best = values.min()
        ref_masks = [mask for mask, val in zip(subsets, values)
                     if val <= ref_best + vr.TOL_ENUM]
        best, masks, minimal = vr.exhaustive_minimizers(prob)
        assert best == pytest.approx(ref_best, abs=1e-12), k
        assert len(masks) == len(ref_masks), k
        assert all(np.array_equal(a, b) for a, b in zip(masks, ref_masks)), k
        assert np.array_equal(minimal, np.logical_and.reduce(ref_masks)), k
        ties += len(masks) > 1
    assert ties >= 10


def test_enumeration_memory_at_twenty_free_cells():
    # one block of 2^16 values is 0.5 MB; the whole table of 2^20 floats
    # took 12 MB with its pair-weight table, and a (2^20, 20) bit matrix
    # with its temporaries 164 MB
    prob = random_problem(np.random.default_rng(5), 20)
    tracemalloc.start()
    try:
        vr.exhaustive_minimizers(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def block_problem(rng, k, halves):
    """k free cells among two core and two excluded cells in shuffled
    order, a path over all cells and 2k random pairs.  With `halves` every
    weight and gain is a multiple of 1/2, and the first free cell, which
    the blocks fix, has no term at all, so every minimum ties across
    blocks."""
    n = k + 4
    kind = rng.permutation(np.repeat([0, 1, 2], [2, k, 2]))
    pairs = [(i, i + 1) for i in range(n - 1)]
    pairs += [tuple(int(c) for c in rng.integers(0, n, 2))
              for _ in range(2 * k)]
    if halves:
        weights = rng.integers(0, 5, size=len(pairs)) / 2
        boundary = rng.integers(0, 3, size=n) / 2
        gains = rng.integers(-3, 5, size=n) / 2
        j = int(np.where(kind == 1)[0][0])
        boundary[j] = gains[j] = 0.0
        weights[[j in pair for pair in pairs]] = 0.0
    else:
        weights = rng.uniform(0.0, 2.0, size=len(pairs))
        boundary = rng.uniform(0.0, 0.5, size=n)
        gains = rng.uniform(-1.0, 1.6, size=n)
    return vr.SetProblem(n, pairs, weights, boundary, gains, kind == 0,
                         kind == 1)


def values_by_bit_matrix(prob):
    """J of every subset of the free cells (bit j of the pattern is free
    cell j) from a (patterns, cells) membership matrix, 2^14 patterns at a
    time; ``SetProblem.value`` takes 27 us a subset, 3.5 s at k = 17."""
    free = np.where(prob.free)[0]
    values = np.empty(1 << len(free))
    for start in range(0, len(values), 1 << 14):
        p = np.arange(start, min(start + (1 << 14), len(values)))
        M = np.repeat(prob.core[None], len(p), axis=0)
        M[:, free] = (p[:, None] >> np.arange(len(free))) & 1 == 1
        cut = M[:, prob.pairs[:, 0]] != M[:, prob.pairs[:, 1]]
        values[p] = (cut @ prob.weights + M @ prob.boundary_weights
                     - (M & ~prob.core) @ prob.gains)
    return values


@pytest.mark.parametrize("k, halves", [(17, True), (17, False), (20, True)])
def test_blocked_enumeration_matches_the_bit_matrix(k, halves):
    # above 16 free cells the table is built in 2^(k-16) blocks: 2 at
    # k = 17, 16 at k = 20
    prob = block_problem(np.random.default_rng(k), k, halves)
    values = values_by_bit_matrix(prob)
    free = np.where(prob.free)[0]
    ref_masks = []
    for p in np.nonzero(values <= values.min() + vr.TOL_ENUM)[0]:
        mask = prob.core.copy()
        mask[free[(p >> np.arange(k)) & 1 == 1]] = True
        ref_masks.append(mask)
    best, masks, minimal = vr.exhaustive_minimizers(prob)
    assert best == pytest.approx(values.min(), abs=1e-12)
    assert len(masks) == len(ref_masks) >= (2 if halves else 1)
    assert all(np.array_equal(a, b) for a, b in zip(masks, ref_masks))
    assert np.array_equal(minimal, np.logical_and.reduce(ref_masks))


def test_radial_hull_takes_the_chain_route(monkeypatch):
    dom = build_domain(build_preset("paper_anisotropic"), {"radius": 1.0},
                       L=6.0, alpha=1.9, h=1 / 32.)
    prob = vr.radial_set_problem(dom, core_radius=1.0 + dom.h,
                                 omega_radius=3.0)
    dinic = vr._dinic_cut(prob)

    def no_max_flow(*args):
        raise AssertionError("a chain problem built a MaxFlow")

    monkeypatch.setattr(vr, "MaxFlow", no_max_flow)
    mask, val = vr.mincut_hull(prob)
    assert np.array_equal(mask, dinic[0]) and mask.sum() > prob.core.sum()
    assert val == pytest.approx(dinic[1], rel=1e-12)


def test_flat_hull_is_identity(flat_rec):
    # spheres are already outward optimizing when K = 0
    dom = flat_rec.domain
    prob = vr.radial_set_problem(dom, core_radius=1.5, omega_radius=4.0)
    mask, _ = vr.mincut_hull(prob)
    assert np.array_equal(mask, prob.core)


def test_k_zero_hull_equals_pure_perimeter_hull(flat_rec):
    dom = flat_rec.domain
    prob = vr.radial_set_problem(dom, core_radius=1.5, omega_radius=4.0)
    pure = vr.SetProblem(prob.n_cells, prob.pairs, prob.weights,
                         prob.boundary_weights, np.zeros(prob.n_cells),
                         prob.core, prob.free)
    m1, _ = vr.mincut_hull(prob)
    m2, _ = vr.mincut_hull(pure)
    assert np.array_equal(m1, m2)


def test_anisotropic_hull_matches_flow_horizon(aniso_rec):
    dom = aniso_rec.domain
    prob = vr.radial_set_problem(dom, core_radius=1.0 + dom.h,
                                 omega_radius=3.0)
    mask, _ = vr.mincut_hull(prob)
    sel = np.where(mask)[0]
    assert np.all(np.diff(sel) == 1)
    r_hull = prob.shell_centers[sel[-1]] + dom.h / 2
    assert r_hull == pytest.approx(R_STAR_ANISO, abs=1.5 * dom.h)
    assert r_hull == pytest.approx(aniso_rec.jumps[0].outer_radius,
                                   abs=1.5 * dom.h)


def test_set_functional_flat_level_sets_constant(flat_rec):
    # J(B_R) = |S_R| - int (2/rho) dV = 4 pi for every level ball: the
    # expanding spheres are all minimizers at once
    dom = flat_rec.domain
    bulk = vr.frozen_bulk(flat_rec)
    prob = vr.radial_set_problem(dom, core_radius=1.0 + dom.h,
                                 omega_radius=5.0)
    centers = prob.shell_centers
    cell_bulk = 0.5 * (bulk[:-1] + bulk[1:]) * prob.shell_volumes
    vals = []
    for R in (1.6, 2.4, 3.5):
        mask = centers < R
        per = prob.perimeter(mask) - prob.boundary_weights @ mask
        vals.append(per - np.sum(cell_bulk[mask]))
    for v in vals:
        assert v == pytest.approx(4 * np.pi, rel=5e-3)


def test_minimality_of_recorded_solutions(flat_rec, aniso_rec):
    for rec in (flat_rec, aniso_rec):
        rep = vr.minimality_test(rec, n_random=60)
        assert rep.ok, rep.failures[:3]


def test_windowed_margins_equal_the_global_functional(aniso_rec):
    # a bump, dent or plateau shift is scored on its window; its margin is
    # J(v) - J(u) of the whole functional up to rounding
    rec = aniso_rec
    dom, u = rec.domain, rec.u
    bulk = vr.frozen_bulk(rec)
    base = vr.functional_on_function(dom, u, bulk)
    rep = vr.minimality_test(rec, n_random=60)
    comps = list(vr._competitors(rec, 60, 5))
    assert [c[0] for c in comps] == [row[0] for row in rep.rows]
    families = set()
    for (name, lo, v), (_, margin) in zip(comps, rep.rows):
        hi = lo + len(v)
        # the window ends on a node of u at each side of the support,
        # unless the support reaches that end of the domain
        assert lo == 0 or v[0] == u[lo], name
        assert hi == len(u) or v[-1] == u[hi - 1], name
        assert np.any(v != u[lo:hi]), name
        v = np.concatenate([u[:lo], v, u[hi:]])
        exact = vr.functional_on_function(dom, v, bulk) - base
        assert margin == pytest.approx(exact, abs=1e-9 * (abs(base) + 1.0))
        families.add(name.split("[")[0])
    assert families == {"bump", "dent", "plateau_shift", "level_dilation"}


def test_minimality_detects_corruption(aniso_rec):
    # lowering the plateau value must be caught as an energy failure
    rec = aniso_rec
    dom = rec.domain
    bulk = vr.frozen_bulk(rec)
    u = rec.u
    base = vr.functional_on_function(dom, u, bulk)
    bad = u.copy()
    bad[rec.jumps[0].cells] -= 0.4
    corrupted = vr.functional_on_function(dom, bad, bulk)
    assert corrupted > base  # the true record wins; a corrupted record
    # used as the reference loses against the true one as competitor
    scale = abs(corrupted) + 1.0
    assert (base - corrupted) < -1e-3 * scale or corrupted - base > 0


def test_anisotropic_minimum_at_horizon_radius(aniso_rec):
    # the radial energy profile of balls has its minimum at r*
    dom = aniso_rec.domain
    omega = sphere_area(2)

    def energy(R):
        area = omega * R ** 2
        blk, _ = quad(lambda rr: 6.0 / (1 + rr ** 6) * omega * rr ** 2,
                      1.0, R)
        return area - blk

    rs = np.linspace(1.0, 1.6, 61)
    vals = np.array([energy(R) for R in rs])
    assert rs[np.argmin(vals)] == pytest.approx(R_STAR_ANISO, abs=0.02)
    prob = vr.radial_set_problem(dom, core_radius=1.0 + dom.h,
                                 omega_radius=2.5)
    centers = prob.shell_centers
    hull_mask, hull_val = vr.mincut_hull(prob)
    shrunk = prob.core | (centers < 0.5 * (1 + R_STAR_ANISO))
    assert prob.value(hull_mask) < prob.value(shrunk) - 1e-6


def test_area_identity_at_jump(aniso_rec):
    # E0 is trapped (not outward optimizing), so the t = 0 identity fails by
    # the amount the radial quadrature predicts
    j = aniso_rec.jumps[0]
    res = vr.area_identity_check(aniso_rec, j)
    omega = sphere_area(2)
    blk, _ = quad(lambda rr: 6.0 / (1 + rr ** 6) * omega * rr ** 2,
                  1.0, R_STAR_ANISO)
    predict = (omega * R_STAR_ANISO ** 2 - omega - blk) / (omega * R_STAR_ANISO ** 2)
    assert res["rel_residual"] == pytest.approx(predict, abs=0.01)


def test_area_identity_schwarzschild_horizon_area():
    # jump from inside the horizon: |dE0+| equals the minimal surface area
    # 16 pi m^2 (areal radius 2m at r = m/2)
    ids = build_preset("schwarzschild_isotropic", m=1.0)
    dom = build_domain(ids, {"radius": 0.4}, L=4.0, alpha=1.5, h=1 / 256.)
    rec = wf.epsilon_sweep(dom, eps_last=3e-5)
    wf.detect_jumps(rec)
    j = rec.jumps[0]
    res = vr.area_identity_check(rec, j)
    assert res["outer_area"] == pytest.approx(16 * np.pi, rel=0.02)
    assert res["bulk"] == 0.0


def test_monotone_quantity_flat(flat_rec):
    # P = 0: Q(t) = |Sigma_t| and dQ/dt = Q exactly in the continuum
    tr = vr.monotone_quantity(flat_rec)
    assert np.all(np.diff(tr["Q"]) > 0)
    sm = tr["t"] > 0.2
    assert np.max(np.abs(tr["dQ_dt"][sm] / tr["Q"][sm] - 1.0)) < 0.02
    assert np.max(np.abs(tr["predicted"][sm] - tr["area"][sm])) < 1e-9


def test_monotone_quantity_anisotropic(aniso_rec):
    tr = vr.monotone_quantity(aniso_rec)
    dq = np.diff(tr["Q"])
    assert np.all(dq > -1e-8 * np.max(tr["Q"]))
    j = aniso_rec.jumps[0]
    inside = (tr["t"] >= j.t_lo) & (tr["t"] <= j.t_hi)
    assert np.any(inside)
    assert np.all(np.isnan(tr["dQ_dt"][inside]))
    assert np.all(np.isfinite(tr["dQ_dt"][~inside]))
    sm = tr["t"] > j.t_hi + 0.3
    ratio = tr["dQ_dt"][sm] / tr["predicted"][sm]
    assert np.max(np.abs(ratio - 1)) < 0.05
    assert np.all(tr["dQ_dt"][sm] >= 0.95 * tr["area"][sm])
