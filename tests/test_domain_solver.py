import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from stimcf import build_preset, build_domain
from stimcf import domain
from stimcf import solver as sv
from stimcf.domain import (DomainError, _cumulative_trapezoid, _gtsv,
                           subsolution_margin)
from stimcf.radial_oracle import RadialProfile


@pytest.fixture(scope="module")
def flat_dom():
    ids = build_preset("flat", n=2)
    return build_domain(ids, {"radius": 1.0}, L=4.0, alpha=1.9, h=1 / 64.)


@pytest.fixture(scope="module")
def aniso_dom():
    ids = build_preset("paper_anisotropic")
    return build_domain(ids, {"radius": 1.0}, L=4.0, alpha=1.9, h=1 / 128.)


def test_build_preconditions():
    ids = build_preset("flat", n=2)
    with pytest.raises(DomainError):
        build_domain(ids, {"radius": 1.0}, L=4.0, alpha=2.0, h=1 / 32.)
    with pytest.raises(DomainError):
        build_domain(ids, {"radius": 1.0}, L=1.5, alpha=1.5, h=1 / 32.)
    with pytest.raises(DomainError):
        build_domain(ids, {"radius": -1.0}, L=4.0, alpha=1.5, h=1 / 32.)


def test_flat_subsolution_margin(flat_dom):
    # degenerate-operator residual of the log subsolution: (n - alpha)/r
    margin = subsolution_margin(flat_dom.profile, flat_dom.alpha, flat_dom.r)
    assert_allclose(margin, (2.0 - 1.9) / flat_dom.r, rtol=1e-10)
    assert np.all(margin[flat_dom.r >= flat_dom.R0] > 0)


def test_feasibility_numbers(flat_dom):
    feas = flat_dom.feasibility()
    assert 0 < feas["eps_max"] < 1
    assert feas["eps_max"] == pytest.approx(
        0.9 * feas["boundary_area"] / feas["volume"])


def _band_to_dense(ab):
    """The matrix of a (3, N) tridiagonal band array, ab[1 + i - j, j] =
    J[i, j]."""
    return np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)


def _reference_residual(dom, interior, eps, s, bc, variant):
    """The radial operator as plain array expressions, with its row scale:
    the sum of the magnitudes of the terms each row adds up."""
    u = dom.full_field(interior, bc)
    du = np.diff(u) / dom.h
    Gc = (u[2:] - u[:-2]) / (2 * dom.h) / dom.a[1:-1]
    G2 = Gc ** 2
    Wf = np.sqrt(eps ** 2 + (du / dom.af) ** 2)
    W2 = eps ** 2 + G2
    T = G2 * dom.kr[1:-1] / W2
    F = dom.Af * du / (dom.af * Wf)
    vol = dom.A[1:-1] * dom.a[1:-1] * dom.h
    if variant == "stimcf":
        R = np.sqrt(W2 + s * T ** 2)
    else:
        R = 0.5 * np.sqrt(W2) + 0.5 * np.sqrt(W2 + 4.0 * s * T ** 2)
    scale = (np.abs(F[1:]) + np.abs(F[:-1])) / vol + R
    return (F[1:] - F[:-1]) / vol - R, scale


def test_fused_residual_matches_the_reference(flat_dom, aniso_dom):
    # both variants, the K-free shortcut (K = 0, or s = 0) and the K-term
    rng = np.random.default_rng(17)
    for dom in (flat_dom, aniso_dom):
        base = np.clip(2 * np.log(dom.r), 0, 2.0)[1:-1]
        for s in (0.0, 0.3, 1.0):
            for variant in ("stimcf", "frauendiener"):
                for eps in (0.05, 1e-3):
                    x = base + 0.05 * rng.normal(size=len(base))
                    want, scale = _reference_residual(dom, x, eps, s, 2.0,
                                                      variant)
                    got, _ = dom.residual(x, eps, s, 2.0, variant)
                    assert np.max(np.abs(got - want) / scale) < 1e-12


def test_radial_jacobian_matches_fd(flat_dom, aniso_dom):
    # the K-term at s > 0, and the K-free shortcut at s = 0 and on K = 0
    rng = np.random.default_rng(3)
    for dom, cases in [
            (aniso_dom, [(0.05, 1.0, "stimcf"), (0.02, 0.3, "stimcf"),
                         (0.05, 1.0, "frauendiener"), (0.05, 0.0, "stimcf"),
                         (0.05, 0.0, "frauendiener")]),
            (flat_dom, [(0.05, 1.0, "stimcf"), (0.02, 1.0, "frauendiener")])]:
        u = (np.clip(2 * np.log(dom.r), 0, 2.0)
             + 0.05 * rng.normal(size=len(dom.r)))
        u[0], u[-1] = 0.0, 2.0
        for eps, s, variant in cases:
            _check_jacobian_columns(dom, u, eps, s, variant, rng)


def _check_jacobian_columns(dom, u, eps, s, variant, rng):
    J = _band_to_dense(
        dom.jacobian(dom.residual(u[1:-1], eps, s, u[-1], variant)[1]))
    d = 1e-6
    cols = rng.choice(len(u) - 2, 25, replace=False)
    for j in cols:
        up = u.copy()
        up[j + 1] += d
        um = u.copy()
        um[j + 1] -= d
        col = (dom.residual(up[1:-1], eps, s, up[-1], variant)[0]
               - dom.residual(um[1:-1], eps, s, um[-1], variant)[0]) / (2 * d)
        denom = max(1.0, np.max(np.abs(col)))
        # a wrong term shows up at O(1); FD truncation sits far below
        assert np.max(np.abs(col - J[:, j])) / denom < 5e-4


def _rhs_derivs_from_w2(W2, T, s, variant):
    """(dR/dW2, dR/dT) recomputed from W2, as the lanes took them before
    ``rhs_value`` handed its roots on."""
    if T is None:
        return 0.5 / np.sqrt(W2), None
    if variant == "stimcf":
        R = np.sqrt(W2 + s * T ** 2)
        return 0.5 / R, s * T / R
    root = np.sqrt(W2 + 4.0 * s * T ** 2)
    return 0.25 / np.sqrt(W2) + 0.25 / root, 2.0 * s * T / root


def _grid_state(k_scale, rng):
    """The grid domain of the finite-difference test, its K scaled by
    k_scale, and a perturbed state on it."""
    dom = build_domain(build_preset("flat", n=1), {"radius": 1.0}, L=2.2,
                       alpha=0.9, h=1 / 4., mode="grid")
    K = k_scale * rng.normal(size=dom.K_act.shape)
    dom.K_act = 0.5 * (K + np.swapaxes(K, 1, 2))
    u = (np.clip(np.log(dom.r_act), 0, 0.2)
         + 0.1 * rng.normal(size=dom.n_unknowns))
    return dom, u


@pytest.mark.parametrize("variant", ["stimcf", "frauendiener"])
def test_jacobian_reuses_the_rhs_roots_bit_for_bit(flat_dom, aniso_dom,
                                                   variant, monkeypatch):
    # the K-term on (aniso at s > 0, a grid with K) and off (aniso at s = 0,
    # flat, a grid with K = 0); J from the roots rhs_value handed on equals
    # J from roots taken afresh
    rng = np.random.default_rng(23)
    cases = [(dom, s, 2.0, (np.clip(2 * np.log(dom.r), 0, 2.0) + 0.05
                            * rng.normal(size=len(dom.r)))[1:-1])
             for dom, s in ((aniso_dom, 0.7), (aniso_dom, 0.0),
                            (flat_dom, 1.0))]
    for k_scale in (0.1, 0.0):
        dom, u = _grid_state(k_scale, rng)
        cases.append((dom, 0.7, 0.2, u))
    rhs_value = domain.rhs_value
    for dom, s, bc, x in cases:
        # patch the module that defines the lane, where its methods look up
        # rhs_value and rhs_derivs
        mod = sys.modules[type(dom).__module__]
        seen = []
        with monkeypatch.context() as m:
            m.setattr(mod, "rhs_value",
                      lambda W2, *a: seen.append(W2) or rhs_value(W2, *a))
            _, lin = dom.residual(x, 0.03, s, bc, variant)
        assert seen
        got = dom.jacobian(lin)
        with monkeypatch.context() as m:
            m.setattr(mod, "rhs_derivs",
                      lambda roots, T, s, variant: _rhs_derivs_from_w2(
                          seen[0], T, s, variant))
            want = dom.jacobian(lin)
        if not isinstance(got, np.ndarray):
            got, want = got.toarray(), want.toarray()
        assert np.array_equal(got, want)


def test_radial_band_solve_and_norm_match_dense(aniso_dom):
    # the states of the finite-difference test.  J is ill-conditioned there
    # (cond_2 up to 7.8e9), so two backward-stable solves may differ by up
    # to cond * 2.2e-16 = 1.7e-6 relative; measured <= 5.2e-11
    rng = np.random.default_rng(3)
    dom = aniso_dom
    u = np.clip(2 * np.log(dom.r), 0, 2.0) + 0.05 * rng.normal(size=len(dom.r))
    u[0], u[-1] = 0.0, 2.0
    for eps, s, variant in [(0.05, 1.0, "stimcf"), (0.02, 0.3, "stimcf"),
                            (0.05, 1.0, "frauendiener")]:
        res, lin = dom.residual(u[1:-1], eps, s, u[-1], variant)
        ab = dom.jacobian(lin)
        J = _band_to_dense(ab)
        rhs = -res
        norm = np.max(np.abs(J).sum(axis=1))
        assert dom.norm_inf(ab) == pytest.approx(norm, rel=1e-12, abs=0)
        # the solve may overwrite both of its inputs
        step = dom.solve(ab, rhs.copy())
        # backward error of the band solve: measured 7e-17
        assert (np.max(np.abs(J @ step - rhs))
                <= 1e-12 * norm * np.max(np.abs(step)))
        dense = np.linalg.solve(J, rhs)
        assert (np.max(np.abs(step - dense))
                <= 1e-9 * np.max(np.abs(dense)))


def _newton_states(dom):
    """The results of cold and warm solves of both variants on `dom`."""
    out = []
    for variant in ("stimcf", "frauendiener"):
        for s in (1.0, 0.5):
            cold = sv.newton_solve(dom, 0.05, s, bc=dom.L - 2.0,
                                   variant=variant)
            warm = sv.newton_solve(dom, 0.02, s, u_init=cold.interior,
                                   bc=dom.L - 2.0, variant=variant)
            for sol in (cold, warm):
                out.append((sol.interior.tobytes(), sol.iterations,
                            sol.residual_norm, sol.converged, sol.floor))
    return out


def test_newton_reads_neither_j_nor_rhs_after_the_radial_solve(aniso_dom,
                                                              monkeypatch):
    # the lane's solve may overwrite J and rhs: newton_solve gives the same
    # bits when both come back filled with NaN, by either solve route
    dom = aniso_dom
    want = _newton_states(dom)
    assert all(state[3] for state in want)
    routes = [dom.solve] + ([_gtsv()] if _gtsv() is not None else [])
    for route in routes:
        def poisoned(J, rhs):
            step = route(J, rhs).copy()
            J.fill(np.nan)
            rhs.fill(np.nan)
            return step

        monkeypatch.setattr(dom, "solve", poisoned)
        assert _newton_states(dom) == want
        monkeypatch.undo()


needs_gtsv = pytest.mark.skipif(_gtsv() is None,
                                reason="numpy bundles no OpenBLAS dgtsv")


def _newton_systems(dom, monkeypatch):
    """(J, rhs) of every Newton step of cold solves on `dom`."""
    systems = []
    solve = dom.solve

    def keep(J, rhs):
        systems.append((J.copy(), rhs.copy()))
        return solve(J, rhs)

    monkeypatch.setattr(dom, "solve", keep)
    for eps, s in [(0.05, 1.0), (0.02, 0.5)]:
        assert sv.newton_solve(dom, eps, s, bc=dom.L - 2.0).converged
    monkeypatch.undo()
    return systems


@needs_gtsv
def test_gtsv_binding_matches_solve_banded_bit_for_bit(aniso_dom,
                                                      monkeypatch):
    # the pytest process has scipy.linalg loaded, so dom.solve takes
    # solve_banded here; the binding is called directly on the same
    # systems: random diagonally dominant and indefinite ones, and the
    # Jacobians of paper_anisotropic Newton iterates
    import scipy.linalg as sla
    rng = np.random.default_rng(5)
    systems = []
    for n in (1, 2, 3, 100, 1000):
        for dominant in (True, False):
            J = rng.normal(size=(3, n))
            J[0, 0] = J[2, -1] = 0.0
            if dominant:
                J[1] = np.where(J[1] < 0, -1.0, 1.0) * (
                    np.abs(J[0]) + np.abs(J[2]) + rng.uniform(0.1, 1.0, n))
            systems.append((J, rng.normal(size=n)))
    real = _newton_systems(aniso_dom, monkeypatch)
    assert len(real) >= 4
    gtsv = _gtsv()
    for J, rhs in systems + real:
        x = gtsv(J.copy(), rhs.copy())
        assert np.array_equal(x, sla.solve_banded((1, 1), J, rhs,
                                                  check_finite=False))


@needs_gtsv
@pytest.mark.parametrize("n", [2, 3, 100])
def test_gtsv_binding_raises_on_a_singular_j(n):
    import scipy.linalg as sla
    rng = np.random.default_rng(n)
    J = rng.normal(size=(3, n))
    J[0, 0] = J[2, -1] = 0.0
    J[:, n // 2] = 0.0          # a zero column
    rhs = rng.normal(size=n)
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        _gtsv()(J, rhs)
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        sla.solve_banded((1, 1), J, rhs, check_finite=False)


@needs_gtsv
def test_gtsv_binding_refuses_arrays_it_cannot_solve_in_place():
    # dgtsv writes through the arrays' buffers, so a strided or converted
    # copy would leave the caller's arrays unsolved: such inputs raise
    n = 8
    J = np.zeros((3, n))
    J[1] = 4.0
    rhs = np.ones(n)
    gtsv = _gtsv()
    for bad_J, bad_rhs in [(np.asfortranarray(J), rhs),
                           (J.astype(np.float32), rhs),
                           (J, np.ones(2 * n)[::2]),
                           (J, np.ones(n, np.int64)),
                           (np.zeros((3, 2 * n))[:, ::2], rhs)]:
        with pytest.raises(ValueError, match="C-contiguous float64"):
            gtsv(bad_J, bad_rhs)
    assert np.array_equal(gtsv(J, rhs), np.full(n, 0.25))


def test_cumulative_trapezoid_matches_scipy_bit_for_bit():
    from scipy.integrate import cumulative_trapezoid
    rng = np.random.default_rng(7)
    x = np.cumsum(rng.uniform(0.001, 0.1, 700))
    y = np.exp(x) * np.sin(9 * x) + rng.normal(size=len(x))
    cases = [(_cumulative_trapezoid(y, x),
              cumulative_trapezoid(y, x, initial=0.0)),
             (_cumulative_trapezoid(y, dx=0.0123),
              cumulative_trapezoid(y, dx=0.0123, initial=0.0)),
             # reversed, as the boundary tail integrates inward
             (_cumulative_trapezoid(y[::-1], dx=0.0123)[::-1],
              cumulative_trapezoid(y[::-1], dx=0.0123, initial=0.0)[::-1])]
    for got, want in cases:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name, kw", [("flat", {"n": 2}),
                                      ("paper_anisotropic", {})])
def test_graded_grid_geometry(name, kw):
    ids = build_preset(name, **kw)
    doms = [build_domain(ids, {"radius": 1.0}, L=6.0, alpha=1.9, h=h)
            for h in (1 / 32., 1 / 64., 1 / 128.)]
    # r_g comes from the data, L and E0 alone, not from the spacing
    assert len({dom.r_g for dom in doms}) == 1
    for dom in doms:
        r, h, r_g = dom.r, dom.h, dom.r_g
        assert dom.r_in < r_g < dom.r_out
        assert r[0] == dom.r_in and r[-1] == dom.r_out
        dr = np.diff(r)
        near = r[1:] <= r_g
        assert_allclose(dr[near], h, rtol=1e-12)
        far = dr[~near]
        assert np.all(np.diff(far) >= 0)
        # the C^1 join: neighbouring spacings differ by O(h / r_g) there,
        # and beyond it by 1 + 2 h r / r_g^2 (dr/dx = (r / r_g)^2)
        ratio = dr[1:] / dr[:-1]
        join = np.searchsorted(r, r_g)
        assert np.max(ratio[join - 3:join + 3]) <= 1 + 3 * h / r_g
        assert np.all(ratio <= 1 + 3 * h * np.maximum(r[1:-1], r_g) / r_g ** 2)
        # a = a_phys dr/dx: the node volumes, half cells at both ends, sum
        # to the trapezoid rule for the annulus volume
        total = np.sum(dom.volumes())
        exact = 4 * np.pi * (dom.r_out ** 3 - dom.r_in ** 3) / 3
        assert total == pytest.approx(exact, rel=1e-4)


def test_ungraded_domain_keeps_the_uniform_nodes():
    # n = 3, alpha near n: the outer sphere sits inside twice the radius
    # where the transport time reaches L - 2
    ids = build_preset("flat", n=3)
    dom = build_domain(ids, {"radius": 1.0}, L=4.0, alpha=2.95, h=1 / 64.)
    assert dom.r_g >= dom.r_out
    N = int(round((dom.r_out - dom.r_in) * 64))
    assert np.array_equal(dom.r, np.linspace(dom.r_in, dom.r_out, N + 1))
    assert np.array_equal(dom.a, np.ones(N + 1))
    assert dom.h == (dom.r_out - dom.r_in) / N


def test_graded_gradient_is_d_dr_over_a(aniso_dom):
    # u = 2 ln r: the centred slope in x over a = a_phys dr/dx is 2/r
    r = aniso_dom.r
    assert aniso_dom.r_g < aniso_dom.r_out
    u = 2 * np.log(r / r[0])
    g = aniso_dom.metric_gradient(u[1:-1], u[-1])
    assert_allclose(g[1:-1], 2 / r[1:-1], rtol=1e-3)


def test_nan_start_raises(flat_dom):
    u = np.full(flat_dom.n_unknowns, 0.5)
    u[7] = np.nan
    with pytest.raises(sv.SolverError):
        sv.newton_solve(flat_dom, 0.02, 1.0, u_init=u, bc=2.0)


def test_residual_trivial_states(flat_dom):
    # u = 0 with eps = 1, s = 0: divergence term zero, root term one
    u = np.zeros(len(flat_dom.r))
    res, _ = flat_dom.residual(u[1:-1], 1.0, 0.0, u[-1])
    assert_allclose(res, -1.0, rtol=0, atol=1e-14)


def test_s_term_is_the_only_k_dependence(flat_dom, aniso_dom):
    rng = np.random.default_rng(5)
    u = np.clip(2 * np.log(flat_dom.r), 0, 2.0)
    u += 0.1 * rng.normal(size=len(u))
    u[0], u[-1] = 0, 2
    # s = 0 kills the K term: identical residuals whatever K is
    u2 = np.interp(aniso_dom.r, flat_dom.r, u)
    r_a0, _ = aniso_dom.residual(u2[1:-1], 0.05, 0.0, u2[-1])
    r_a0_b, _ = aniso_dom.residual(u2[1:-1], 0.05, 0.0, u2[-1],
                                   "frauendiener")
    assert np.array_equal(r_a0, r_a0_b)
    # and for K = 0 data the operator family is s-independent bit for bit
    assert np.array_equal(flat_dom.residual(u[1:-1], 0.05, 0.0, u[-1])[0],
                          flat_dom.residual(u[1:-1], 0.05, 1.0, u[-1])[0])


def test_newton_zero_iterations_from_exact_solution(flat_dom):
    sol = sv.newton_solve(flat_dom, 0.02, 1.0, bc=2.0)
    assert sol.converged
    again = sv.newton_solve(flat_dom, 0.02, 1.0, u_init=sol.interior, bc=2.0)
    assert again.converged and again.iterations == 0
    assert np.array_equal(again.interior, sol.interior)


def test_bit_for_bit_s_independence_for_k_zero(flat_dom):
    a = sv.newton_solve(flat_dom, 0.02, 0.0, bc=2.0)
    b = sv.newton_solve(flat_dom, 0.02, 1.0, bc=2.0)
    assert a.converged and b.converged
    assert np.array_equal(a.interior, b.interior)


def test_default_start_converges_into_barrier_window():
    # the default (transport-profile) start converges and the solution sits
    # inside the a-priori window; a subsolution start is reported honestly
    # when the damped iteration cannot move it (never silent garbage)
    ids = build_preset("flat", n=2)
    dom = build_domain(ids, {"radius": 1.0}, L=2.5, alpha=1.9, h=1 / 32.)
    sol = sv.newton_solve(dom, 0.05, 1.0, bc=dom.L - 2.0)
    assert sol.converged
    rep = sv.apriori_monitor(dom, sol)
    assert rep.ok
    v = dom.subsolution_values()[1:-1] - 2.0
    from_v = sv.newton_solve(dom, 0.05, 1.0, u_init=v, bc=dom.L - 2.0)
    assert from_v.converged or from_v.diagnostic is not None


def test_eps_above_feasibility_reports_diagnostic(flat_dom, monkeypatch):
    feas = flat_dom.feasibility()
    eps_bad = 1.5 * feas["eps_divergence_bound"]
    calls = []
    jacobian = flat_dom.jacobian

    def counted(*args, **kwargs):
        calls.append(1)
        return jacobian(*args, **kwargs)

    monkeypatch.setattr(flat_dom, "jacobian", counted)
    sol = sv.newton_solve(flat_dom, eps_bad, 1.0, bc=2.0)
    assert not sol.converged
    assert "feasibility" in sol.diagnostic
    # one Jacobian per Newton step plus the one that judged the last
    # iterate: an unconverged solve runs no phase beyond the Newton loop
    assert len(calls) <= sol.iterations + 1


@pytest.mark.parametrize("m, e0", [(1.0, 0.6), (0.5, 0.3)])
def test_apriori_matrix_needs_no_recovery_on_schwarzschild(m, e0,
                                                          monkeypatch):
    # the criterion-4 matrix (its eps and s lists, h = 1/128): every warm
    # start of every chain converges, so no rung retries cold, and
    # the grid's sqrt(10) steps get no inserted rung: one solve per report
    dom = build_domain(build_preset("schwarzschild_isotropic", m=m),
                       {"radius": e0}, L=4.0, alpha=1.5, h=1 / 128.)
    solves = []
    newton_solve = sv.newton_solve

    def counted(*args, **kwargs):
        sol = newton_solve(*args, **kwargs)
        solves.append(sol.converged)
        return sol

    monkeypatch.setattr(sv, "newton_solve", counted)
    out = sv.apriori_matrix(dom, [0.25, 0.5, 0.75, 1.0],
                            list(np.geomspace(3e-2, 3e-5, 7)))
    assert len(out) == 28
    assert len(solves) == 28
    assert all(solves), f"{solves.count(False)} unconverged"


def test_apriori_window_on_converged_solves(aniso_dom):
    warm = None
    for eps in (1 / 32., 1 / 64., 1 / 128.):
        sol = sv.newton_solve(aniso_dom, eps, 1.0, u_init=warm, bc=2.0)
        assert sol.converged
        warm = sol.interior
        rep = sv.apriori_monitor(aniso_dom, sol)
        assert rep.ok, rep.violations
        assert rep.measured["min_u"] >= -eps - 1e-8
        assert rep.measured["max_u"] <= 2.0 + 1e-8


def test_barrier_ordering_against_imcf(aniso_dom):
    sol = sv.newton_solve(aniso_dom, 1 / 64., 1.0, bc=2.0)
    ref = sv.imcf_reference_solve(aniso_dom, 1 / 64.)
    # here bc matches, so domination is the per-eps barrier ordering
    sol2 = sv.newton_solve(aniso_dom, 1 / 64., 1.0, bc=ref.bc,
                           u_init=None)
    rep = sv.apriori_monitor(aniso_dom, sol2, imcf_reference=ref)
    assert rep.ok, rep.violations
    v1_floor = -sol.eps  # bridge barrier is above -eps by construction
    assert rep.measured["min_u"] >= v1_floor - 1e-8


def test_second_order_convergence_against_fine_reference():
    ids = build_preset("flat", n=2)
    sols = {}
    for h in (1 / 32., 1 / 64., 1 / 128.):
        dom = build_domain(ids, {"radius": 1.0}, L=3.0, alpha=1.9, h=h)
        sols[h] = (dom, sv.newton_solve(dom, 0.02, 1.0, bc=1.0))
        assert sols[h][1].converged
    dom_f, fine = sols[1 / 128.]
    errs = []
    for h in (1 / 32., 1 / 64.):
        dom, sol = sols[h]
        u_f = np.interp(dom.r, dom_f.r, fine.full_field())
        band = (dom.r > 1.1) & (dom.r < 0.9 * dom.r[-1])
        errs.append(np.max(np.abs(sol.full_field() - u_f)[band]))
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_continuation_trace_and_k_zero_collapse(flat_dom, aniso_dom):
    chains, trace = sv.continuation_solve(flat_dom, [0.0, 1.0], [0.03],
                                          bc=flat_dom.L - 2.0)
    assert [row[0] for row in trace] == [1.0]
    assert list(chains) == [1.0]
    chains2, trace2 = sv.continuation_solve(aniso_dom, [0.0, 1.0], [0.03],
                                            bc=aniso_dom.L - 2.0)
    assert [row[0] for row in trace2] == [0.0, 1.0]
    assert all(row[3] for row in trace2)
    sol2, imcf2 = chains2[1.0][0][0], chains2[0.0][0][0]
    assert sol2.converged and sol2.s == 1.0
    # the s = 0 endpoint is the IMCF solve the s = 1 one started from
    assert imcf2.converged and (imcf2.s, imcf2.eps) == (0.0, 0.03)
    assert imcf2.bc == sol2.bc == aniso_dom.L - 2.0


def _record_solves(monkeypatch):
    """Record (eps, s, u_init, solution) of every newton_solve."""
    newton_solve = sv.newton_solve
    calls = []

    def recorded(dom, eps, s, u_init=None, **kwargs):
        sol = newton_solve(dom, eps, s, u_init=u_init, **kwargs)
        calls.append((eps, s, u_init, sol))
        return sol

    monkeypatch.setattr(sv, "newton_solve", recorded)
    return calls


def test_apriori_matrix_starts_only_its_first_s_cold_at_the_top(
        aniso_dom, monkeypatch):
    # the criterion-4 matrix on the anisotropic data: each later s starts
    # from the previous s scaled to its boundary value; cold, the tops at
    # eps = 3e-2 converge too, but in 51, 47 and 38 iterations
    eps_grid = list(np.geomspace(3e-2, 3e-5, 7))
    calls = _record_solves(monkeypatch)
    out = sv.apriori_matrix(aniso_dom, [0.25, 0.5, 0.75, 1.0], eps_grid)
    assert len(out) == 28
    assert all(rep.solution.converged for rep in out.values())
    # cold tops for s = 0.5, 0.75 and 1 would take 136 iterations between
    # them; every warm step down the grid's sqrt(10) gaps converges, with
    # no inserted rung and no retry
    assert len(calls) == 28
    assert sum(sol.iterations for *_, sol in calls) <= 400
    assert all(sol.converged for *_, sol in calls)
    cold_at_top = [s for eps, s, u_init, _ in calls
                   if eps == eps_grid[0] and u_init is None]
    assert cold_at_top == [0.25]


def test_apriori_matrix_starts_cold_after_a_zero_boundary_value(
        monkeypatch):
    # s = 0 has bc = 0, so the next s cannot scale it: it starts cold
    dom = build_domain(build_preset("paper_anisotropic"), {"radius": 1.0},
                       L=4.0, alpha=1.9, h=1 / 64.)
    calls = _record_solves(monkeypatch)
    out = sv.apriori_matrix(dom, [0.0, 0.5], [3e-2, 1e-3])
    assert sorted(out) == [(1e-3, 0.0), (1e-3, 0.5), (3e-2, 0.0),
                           (3e-2, 0.5)]
    assert all(rep.solution.converged for rep in out.values())
    assert all(np.all(np.isfinite(u_init)) for _, _, u_init, _ in calls
               if u_init is not None)
    assert [s for eps, s, u_init, _ in calls
            if eps == 3e-2 and u_init is None] == [0.0, 0.5]
    # the cold s = 0.5 top converges from the transport start itself
    assert all(sol.converged for *_, sol in calls)


def test_apriori_matrix_completes_on_the_coarse_anisotropic_grid(
        monkeypatch):
    # the criterion-4 lists at h = 1/64: halving the grid's sqrt(10) gaps
    # put a rung at eps = 4.74e-4 that no start converged for s = 0.5; on
    # the grid itself one warm stall (eps = 3e-4, s = 0.5) is retried cold
    dom = build_domain(build_preset("paper_anisotropic"), {"radius": 1.0},
                       L=4.0, alpha=1.9, h=1 / 64.)
    calls = _record_solves(monkeypatch)
    out = sv.apriori_matrix(dom, [0.25, 0.5, 0.75, 1.0],
                            list(np.geomspace(3e-2, 3e-5, 7)))
    assert len(out) == 28
    hard = [(key, v) for key, rep in out.items() for v in rep.violations
            if v.startswith(("(i)", "(ii)"))]
    assert not hard
    assert all(rep.solution.converged for rep in out.values())
    assert len(calls) <= 30
    assert sum(not sol.converged for *_, sol in calls) <= 1


def test_cold_start_converges_on_a_large_anisotropic_domain():
    # from the soft-capped transport profile alone, with no warm start
    dom = build_domain(build_preset("paper_anisotropic"), {"radius": 1.0},
                       L=6.0, alpha=1.9, h=1 / 64.)
    sol = sv.newton_solve(dom, 1e-2, 1.0, u_init=None, bc=4.0)
    assert sol.converged


@pytest.mark.parametrize("h", [1 / 32., 1 / 64.])
def test_apriori_matrix_completes_when_steps_turn_short(h):
    # Schwarzschild m = 1 at alpha 1.7: the s = 0.75 top accepts steps near
    # lam = 2^-11; a search that kept starting from twice such a step crept
    # until MAX_NEWTON, warm and cold, and raised at eps = 0.03, s = 0.75
    dom = build_domain(build_preset("schwarzschild_isotropic", m=1.0),
                       {"radius": 0.6}, L=4.0, alpha=1.7, h=h)
    out = sv.apriori_matrix(dom, [0.25, 0.5, 0.75, 1.0],
                            list(np.geomspace(3e-2, 3e-5, 7)))
    assert len(out) == 28
    assert all(rep.solution.converged for rep in out.values())


def test_apriori_matrix_line_searches_stay_within_budget(aniso_dom,
                                                         monkeypatch):
    # criterion 4 on the anisotropic data: line searches that all start
    # from lam = 1 make 753 residual evaluations here; starting from twice
    # the last accepted step makes 528
    calls = []
    residual = aniso_dom.residual

    def counted(*args, **kwargs):
        calls.append(1)
        return residual(*args, **kwargs)

    monkeypatch.setattr(aniso_dom, "residual", counted)
    out = sv.apriori_matrix(aniso_dom, [0.25, 0.5, 0.75, 1.0],
                            list(np.geomspace(3e-2, 3e-5, 7)))
    assert len(out) == 28
    assert len(calls) <= 600


class _ScriptedLane:
    """One unknown with F scripted at the points a solve visits, J = 1:
    from u = 0 the Newton step is 1 and only lam = 1/4 passes, so the next
    search starts at lam = 1/2; from u = 1/4 the step is 1/2 and only the
    full step, to u = 3/4, passes (when ``root``), or no lam does."""

    n_unknowns = 1

    def __init__(self, root):
        self.F = {0.0: -1.0, 0.25: -0.5, **({0.75: 0.0} if root else {})}
        self.trials = []

    def residual(self, u, eps, s, bc, variant):
        self.trials.append(float(u[0]))
        return np.array([self.F.get(float(u[0]), 10.0)]), None

    def jacobian(self, lin):
        return 1.0

    def norm_inf(self, J):
        return 1.0

    def solve(self, J, rhs):
        return rhs / J

    def feasibility(self):
        return {"eps_max": 1.0}


@pytest.mark.parametrize("root", [True, False])
def test_line_search_fails_only_when_no_step_passes(root):
    lane = _ScriptedLane(root)
    sol = sv.newton_solve(lane, 0.1, 1.0, u_init=[0.0], bc=0.0)
    # the first search from lam = 1 down to the 1/4 that passes
    assert lane.trials[:4] == [0.0, 1.0, 0.5, 0.25]
    # the second from 1/2 down to the last lam, then the skipped lam = 1:
    # every lam of 1, 1/2, ..., 2^-(MAX_BACKTRACK - 1) once
    lams = [(u - 0.25) / 0.5 for u in lane.trials[4:]]
    assert lams == [0.5 ** k for k in range(1, sv.MAX_BACKTRACK)] + [1.0]
    if root:
        # lam = 1 passes: the step is taken and the solve converges
        assert sol.converged and sol.iterations == 2
        assert sol.interior[0] == 0.75
    else:
        assert not sol.converged and sol.iterations == 1
        assert sol.interior[0] == 0.25


def test_grid_jacobian_matches_fd():
    ids = build_preset("flat", n=1)
    dom = build_domain(ids, {"radius": 1.0}, L=2.2, alpha=0.9, h=1 / 4.,
                       mode="grid")
    rng = np.random.default_rng(0)
    dom.K_act = 0.1 * rng.normal(size=dom.K_act.shape)
    dom.K_act = 0.5 * (dom.K_act + np.swapaxes(dom.K_act, 1, 2))
    u = np.clip(np.log(dom.r_act), 0, 0.2) + 0.1 * rng.normal(size=dom.n_unknowns)
    for variant in ("stimcf", "frauendiener"):
        r0, lin = dom.residual(u, 0.08, 0.7, 0.2, variant)
        J = dom.jacobian(lin).toarray()
        d = 1e-7
        for j in rng.choice(dom.n_unknowns, 20, replace=False):
            up = u.copy()
            up[j] += d
            col = (dom.residual(up, 0.08, 0.7, 0.2, variant)[0] - r0) / d
            assert np.max(np.abs(col - J[:, j])) / max(1, np.max(np.abs(col))) \
                < 2e-5


def test_grid_inner_boundary_gradient_reads_the_cells_next_to_e0():
    # criterion (iii) reads |grad u| within two cells of E0; around an
    # off-centre E0 that band follows the distance to E0, not |x|
    dom = build_domain(build_preset("flat", n=1),
                       {"radius": 1.0, "center": (0.25, 0.0)}, L=2.2,
                       alpha=0.9, h=1 / 4.)
    bc = dom.L - 2.0
    sdf = dom.sdf[dom.active]
    # u = distance to E0 reads a unit gradient there ...
    assert dom.boundary_gradients(np.clip(sdf, 0.0, bc), bc)[1] > 0.5
    # ... and u vanishing within three cells of E0 a zero one
    u = np.clip(sdf - 3 * dom.h, 0.0, bc)
    assert dom.boundary_gradients(u, bc)[1] == 0.0


def test_grid_h_plus_is_the_metric_mean_curvature_of_e0():
    # Schwarzschild m = 0.05 around the coordinate sphere r = 1: the radial
    # profile's H = 1.810769, not the flat 2 / r
    ids = build_preset("schwarzschild_isotropic", m=0.05)
    dom = build_domain(ids, {"radius": 1.0}, L=2.2, alpha=1.9, h=1 / 4.,
                       mode="grid")
    H = float(RadialProfile.from_initial_data(ids).mean_curvature(1.0))
    zeros = np.zeros(dom.n_unknowns)
    assert dom.boundary_gradients(zeros, 0.0)[0] == pytest.approx(H, abs=1e-6)
    flat = build_domain(build_preset("flat", n=2), {"radius": 1.0}, L=2.2,
                        alpha=1.9, h=1 / 4., mode="grid")
    assert flat.boundary_gradients(np.zeros(flat.n_unknowns), 0.0)[0] == \
        pytest.approx(2.0, abs=1e-6)
    # the radial lane reads H+ = max(H(r_in), 0) exactly, computed once for
    # every a-priori monitor call
    radial = build_domain(ids, {"radius": 1.0}, L=2.2, alpha=1.9, h=1 / 4.)
    zeros = np.zeros(radial.n_unknowns)
    assert radial.boundary_gradients(zeros, 0.0)[0] == max(H, 0.0) > 0.0


def test_grid_domain_refuses_a_box_that_cannot_fit_in_memory(monkeypatch):
    # 3D Schwarzschild around E0 of radius 0.6 at h = 1/2: a 210^3 box of
    # 9.3M cells, which took 7.9 GB before the guard; it must be refused
    # before any per-cell array exists (meshgrid raises here if it is not)

    def no_meshgrid(*args, **kwargs):
        raise AssertionError("the grid box was allocated")

    ids = build_preset("schwarzschild_isotropic", m=1.0)
    monkeypatch.setattr(np, "meshgrid", no_meshgrid)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="210\\^3 = 9,261,000 cells"):
            build_domain(ids, {"radius": 0.6}, L=4.0, alpha=1.5, h=0.5,
                         mode="grid")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_grid_domain_guard_names_an_h_that_fits(monkeypatch):
    # with a small cap the 190^2 box of the flat n = 1 case at h = 1/8 is
    # refused, and the h the message names builds a box within the cap
    monkeypatch.setattr("stimcf.grid.MAX_GRID_CELLS", 20_000)
    ids = build_preset("flat", n=1)
    with pytest.raises(DomainError, match="190\\^2 = 36,100") as err:
        build_domain(ids, {"radius": 1.0}, L=2.2, alpha=0.9, h=1 / 8.,
                     mode="grid")
    h_fit = float(str(err.value).rsplit("h >= ", 1)[1].split()[0])
    dom = build_domain(ids, {"radius": 1.0}, L=2.2, alpha=0.9, h=h_fit,
                       mode="grid")
    assert 0.9 * 20_000 < np.prod(dom.shape) <= 20_000


def test_grid_domain_rejects_offdiagonal_metric():
    ids = build_preset("flat", n=1)

    def skew(x):
        m = len(np.atleast_2d(x))
        g = np.broadcast_to(np.eye(2), (m, 2, 2)).copy()
        g[:, 0, 1] = g[:, 1, 0] = 0.1
        return g

    ids._metric = skew
    with pytest.raises(DomainError, match="diagonal"):
        build_domain(ids, {"radius": 1.0}, L=2.2, alpha=0.9, h=1 / 4.,
                     mode="grid")


def test_apriori_rung_retries_cold_once_then_raises(flat_dom, monkeypatch):
    # every start, cold ones included, fails below eps_fail: the chain
    # 1e-2, 5e-3, 1.25e-3 (the 8x gap gets one halving rung) converges at
    # 5e-3, then 1.25e-3 tries its warm start and its cold start and raises
    eps_fail = 4e-3
    calls = []

    def fake_newton_solve(dom, eps, s, u_init=None, **kwargs):
        ok = eps >= eps_fail
        calls.append((eps, u_init is None, ok))
        return sv.ScalarSolution(dom, np.zeros(dom.n_unknowns), eps, s,
                                 s * (dom.L - 2.0), 0.0 if ok else 1.0, 1,
                                 ok, 0.0, diagnostic=None if ok else "stall")

    monkeypatch.setattr(sv, "newton_solve", fake_newton_solve)
    with pytest.raises(sv.SolverError, match="eps=0.00125, s=1.0"):
        sv.apriori_matrix(flat_dom, [1.0], [1e-2, 1.25e-3])
    assert calls == [(1e-2, True, True), (5e-3, False, True),
                     (1.25e-3, False, False), (1.25e-3, True, False)]


def test_apriori_failed_cold_top_raises_after_one_solve(flat_dom,
                                                        monkeypatch):
    # the first s has no warm start: one failed cold solve at its top
    # rung raises
    top = 2e-2
    calls = []

    def fake_newton_solve(dom, eps, s, u_init=None, **kwargs):
        calls.append((eps, u_init is None))
        return sv.ScalarSolution(dom, np.zeros(dom.n_unknowns), eps, s,
                                 s * (dom.L - 2.0), 1.0, 1, False, 0.0,
                                 diagnostic="stall")

    monkeypatch.setattr(sv, "newton_solve", fake_newton_solve)
    with pytest.raises(sv.SolverError, match=f"eps={top}, s=1.0"):
        sv.apriori_matrix(flat_dom, [1.0], [top])
    assert calls == [(top, True)]


# data whose eps_max at h = 1/32 lies below the criterion-4 top of 3e-2
INFEASIBLE_TOP = [("flat", {"n": 2}, 1.0, 8.4, 1.7)] + [
    ("schwarzschild_isotropic", {"m": m}, e0, L, alpha)
    for m, e0 in ((0.5, 0.3), (1.0, 0.6))
    for alpha in (1.5, 1.7) for L in (6.0, 8.4)] + [
    ("paper_anisotropic", {}, 1.0, 8.4, alpha) for alpha in (1.9, 1.7)]


@pytest.mark.parametrize(
    "name, kw, e0, L, alpha", INFEASIBLE_TOP,
    ids=[f"{name}{''.join(f'-{k}{v}' for k, v in kw.items())}-L{L}-a{alpha}"
         for name, kw, e0, L, alpha in INFEASIBLE_TOP])
def test_apriori_matrix_refuses_an_infeasible_top_before_any_solve(
        name, kw, e0, L, alpha, monkeypatch):
    # no solution exists above the divergence bound, and eps_max is 0.9 of
    # it, so a solve there only grinds; the matrix raises before its first
    dom = build_domain(build_preset(name, **kw), {"radius": e0}, L=L,
                       alpha=alpha, h=1 / 32.)
    eps_max = dom.feasibility()["eps_max"]
    solves = []
    newton_solve = sv.newton_solve

    def counted(*args, **kwargs):
        solves.append(args[1:3])
        return newton_solve(*args, **kwargs)

    monkeypatch.setattr(sv, "newton_solve", counted)
    with pytest.raises(sv.SolverError,
                       match=f"eps=0.03 .* eps_max={eps_max:.3g}"):
        sv.apriori_matrix(dom, [0.25, 0.5, 0.75, 1.0],
                          list(np.geomspace(3e-2, 3e-5, 7)))
    assert solves == []


def test_grid_second_form_is_evaluated_on_the_active_cells():
    # K is read on the active cells only; no per-box-cell copy is kept
    ids = build_preset("paper_anisotropic")
    dom = build_domain(ids, {"radius": 1.0, "center": (0.1, 0.0, 0.0)},
                       L=2.6, alpha=1.5, h=1 / 2., mode="grid")
    assert dom.d == 3 and not dom.k_is_zero()
    assert np.array_equal(dom.K_act,
                          ids.second_form(dom.centers)[dom.active])
    assert not hasattr(dom, "K_cells")
