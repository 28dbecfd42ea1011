import numpy as np
import pytest
from numpy.testing import assert_allclose

from stimcf import build_preset, cli
from stimcf import radial_oracle as orc

# Outermost real root of r^6 - 3r + 1 (H = |P| for the trapped example),
# frozen from the polynomial companion-matrix solve.
R_STAR_ANISO = 1.164483917225873


@pytest.fixture(scope="module")
def profiles():
    return {name: orc.RadialProfile.from_initial_data(build_preset(name, **kw))
            for name, kw in [("flat", {"n": 2}), ("paper_anisotropic", {}),
                             ("schwarzschild_isotropic", {"m": 1.0})]}


def test_sphere_diagnostics_flat(profiles):
    H, P, Phi = profiles["flat"].sphere_diagnostics(1.0)
    assert (H, P, Phi) == (2.0, 0.0, 2.0)


def test_sphere_diagnostics_trapped_example(profiles):
    H, P, Phi = profiles["paper_anisotropic"].sphere_diagnostics(1.0)
    assert H == pytest.approx(2.0, abs=1e-12)
    assert P == pytest.approx(-3.0, abs=1e-12)
    assert np.isnan(Phi)
    H, P, Phi = profiles["paper_anisotropic"].sphere_diagnostics(2.0)
    assert H == pytest.approx(1.0, abs=1e-12)
    assert P == pytest.approx(-6.0 / 65.0, abs=1e-14)
    assert Phi == pytest.approx(np.sqrt(1 - (6.0 / 65.0) ** 2), rel=1e-14)


def test_schwarzschild_sphere_curvature(profiles):
    # closed-form conformal value H = (2/r)(1 - m/2r)/(1 + m/2r)^3
    prof = profiles["schwarzschild_isotropic"]
    for r in (0.75, 2.0, 5.0):
        expect = (2 / r) * (1 - 0.5 / r) / (1 + 0.5 / r) ** 3
        assert prof.mean_curvature(r) == pytest.approx(expect, rel=1e-10)
    assert prof.mean_curvature(0.5) == pytest.approx(0.0, abs=1e-12)


def test_horizon_roots(profiles):
    assert orc.horizon_root(profiles["flat"]) is None
    r = orc.horizon_root(profiles["paper_anisotropic"])
    assert r == pytest.approx(R_STAR_ANISO, rel=1e-9)
    prof = profiles["paper_anisotropic"]
    assert abs(prof.mean_curvature(r) - abs(prof.k_trace(r))) \
        < 1e-9 * prof.mean_curvature(r)
    assert orc.horizon_root(profiles["schwarzschild_isotropic"]) \
        == pytest.approx(0.5, rel=1e-9)


def test_flow_ode_expanding_sphere(profiles):
    # flat n=2: r(t) = e^(t/2)
    traj = orc.smooth_flow_ode(profiles["flat"], 1.0, 2.0)
    assert traj["r"][-1] == pytest.approx(np.e, rel=1e-6)
    assert not traj["blowup"]


def test_arrival_time_inverse_identity(profiles):
    # u(r(t)) = t to 1e-6 on flat and on the trapped data's smooth region
    for name, r0 in (("flat", 1.0), ("paper_anisotropic", 1.5)):
        prof = profiles[name]
        traj = orc.smooth_flow_ode(prof, r0, 1.5)
        ts = np.linspace(0.1, traj["t"][-1], 7)
        for t in ts:
            r_t = traj["sol"].sol(t)[0]
            u = orc.level_set_quadrature(prof, r0, r_t)
            assert u == pytest.approx(t, rel=1e-6, abs=1e-8)


def test_quadrature_flat_logarithm(profiles):
    u = orc.level_set_quadrature(profiles["flat"], 1.0, 3.0)
    assert u == pytest.approx(2 * np.log(3.0), rel=1e-10)


def test_quadrature_schwarzschild_from_horizon(profiles):
    # finite increasing arrival times from the minimal surface
    prof = profiles["schwarzschild_isotropic"]
    radii = [0.5, 1.0, 2.0, 4.0]
    steps = [orc.level_set_quadrature(prof, r0, r1)
             for r0, r1 in zip(radii[:-1], radii[1:])]
    u = np.cumsum(steps)
    assert np.all(np.diff(u) > 0)
    # closed form: integral of phi^2 H = (2/r)(1 - m/2r)/(1 + m/2r)
    from scipy.integrate import quad
    ref, _ = quad(lambda r: (2 / r) * (1 - 0.5 / r) / (1 + 0.5 / r), 0.5, 4.0)
    assert u[-1] == pytest.approx(ref, rel=1e-8)


def _scipy_quad(prof, r0, r1):
    from scipy.integrate import quad
    val, _ = quad(lambda r: prof.data.a(r) * prof.spacetime_mean_curvature(r),
                  r0, r1, epsabs=orc.QUAD_EPSABS, epsrel=orc.QUAD_EPSREL,
                  limit=orc.QUAD_LIMIT)
    return val


@pytest.mark.parametrize("name, r0, r1", [
    ("flat", 1.0, 3.0),
    ("flat", 0.3, 50.0),
    ("paper_anisotropic", 1.5, 4.0),
    ("paper_anisotropic", 2.0, 1.5),
    # just outside the horizon, where Phi ~ sqrt(r - r*)
    ("paper_anisotropic", R_STAR_ANISO * (1 + 1e-10), 1.3),
    ("paper_anisotropic", R_STAR_ANISO * (1 + 1e-10), 2.0),
    # from the minimal surface r = m/2, where Phi = 0
    ("schwarzschild_isotropic", 0.5, 4.0),
    ("schwarzschild_isotropic", 1.0, 200.0),
])
def test_quadrature_matches_scipy_quad(profiles, name, r0, r1):
    # scipy's QUADPACK qags (21-point rule, extrapolated) is the reference
    prof = profiles[name]
    assert orc.level_set_quadrature(prof, r0, r1) \
        == pytest.approx(_scipy_quad(prof, r0, r1), rel=1e-11)


def test_quadrature_that_does_not_converge_raises(profiles, monkeypatch):
    # with no tolerance to meet, the interval limit is reached and named
    monkeypatch.setattr(orc, "QUAD_EPSABS", 0.0)
    monkeypatch.setattr(orc, "QUAD_EPSREL", 0.0)
    with pytest.raises(orc.OracleError,
                       match=r"on \[1\.0, 3\.0\] did not converge in 400 "
                             r"subintervals: error estimate \S+ above"):
        orc.level_set_quadrature(profiles["flat"], 1.0, 3.0)


def _scipy_flow(prof, r0, t_end):
    """smooth_flow_ode's problem, events included, on scipy's RK45."""
    from scipy.integrate import solve_ivp
    floor = orc.BLOWUP_FRACTION * prof.spacetime_mean_curvature(r0)

    def speed_blowup(t, y):
        phi = prof.spacetime_mean_curvature(y[0])
        return phi - floor if np.isfinite(phi) else 0.0

    def leaves_domain(t, y):
        return min(y[0] - prof.r_min * (1 + 1e-12),
                   orc.PROFILE_R_MAX * (1 - 1e-12) - y[0])

    speed_blowup.terminal = leaves_domain.terminal = True
    return solve_ivp(
        lambda t, y: 1.0 / (prof.data.a(y) * prof.spacetime_mean_curvature(y)),
        (0.0, t_end), [r0], method="RK45", rtol=orc.ODE_RTOL,
        atol=orc.ODE_ATOL, events=[speed_blowup, leaves_domain],
        dense_output=True, max_step=abs(t_end) / 16)


@pytest.mark.parametrize("name, r0, t_end, status", [
    ("flat", 1.0, 2.0, 0), ("paper_anisotropic", 1.5, 1.5, 0),
    ("paper_anisotropic", 1.4, -0.2, 0),
    ("schwarzschild_isotropic", 2.0, 3.0, 0),
    # events: past PROFILE_R_MAX at t = 2 ln 1e6, and Phi at its floor on
    # the way back to the minimal surface r = m/2
    ("flat", 1.0, 40.0, 1), ("schwarzschild_isotropic", 2.0, -5.0, 1)])
def test_flow_ode_matches_scipy_rk45(profiles, name, r0, t_end, status):
    prof = profiles[name]
    traj = orc.smooth_flow_ode(prof, r0, t_end)
    ref = _scipy_flow(prof, r0, t_end)
    assert traj["sol"].status == ref.status == status
    for mine, theirs in zip(traj["sol"].t_events, ref.t_events, strict=True):
        assert_allclose(mine, theirs, rtol=1e-10)
    ts = np.linspace(0.0, ref.t[-1], 257)
    assert_allclose(traj["sol"].sol(ts)[0], ref.sol(ts)[0], rtol=1e-8)
    assert traj["sol"].sol(ts[100]).shape == (1,)
    assert traj["sol"].sol(ts[100])[0] == traj["sol"].sol(ts)[0, 100]


def test_backward_blowup_time_matches_scipy_and_the_quadrature(profiles):
    # the steps collapse at the horizon before Phi reaches its floor, on
    # both integrators; the time to get there is also int_r*^1.3 a Phi dr
    prof = profiles["paper_anisotropic"]
    traj = orc.smooth_flow_ode(prof, 1.3, -3.0)
    ref = _scipy_flow(prof, 1.3, -3.0)
    assert traj["blowup"] and traj["sol"].status == ref.status == -1
    assert traj["blowup_time"] == pytest.approx(ref.t[-1], abs=1e-6)
    arrival = orc.level_set_quadrature(prof, R_STAR_ANISO * (1 + 1e-10), 1.3)
    assert -traj["blowup_time"] == pytest.approx(arrival, abs=1e-6)


def test_quadrature_requires_positive_speed(profiles):
    with pytest.raises(orc.OracleError):
        orc.level_set_quadrature(profiles["paper_anisotropic"], 1.05, 2.0)
    with pytest.raises(orc.OracleError):
        orc.smooth_flow_ode(profiles["paper_anisotropic"], 1.05, 1.0)


def test_backward_flow_blows_up_at_horizon(profiles):
    # running the flow toward the trapped region: speed diverges near r*
    traj = orc.smooth_flow_ode(profiles["paper_anisotropic"], 1.3, -3.0)
    assert traj["blowup"]
    assert traj["r"][-1] == pytest.approx(R_STAR_ANISO, abs=2e-3)


def test_evolution_identities_flat(profiles):
    traj = orc.smooth_flow_ode(profiles["flat"], 1.0, 1.5)
    res = orc.evolution_equation_check(profiles["flat"], traj)
    assert res["area"] < 1e-4
    assert res["H"] < 1e-4
    assert res["P"] < 1e-4
    assert res["Phi"] < 1e-4


def test_evolution_identities_anisotropic(profiles):
    traj = orc.smooth_flow_ode(profiles["paper_anisotropic"], 1.5, 1.0)
    res = orc.evolution_equation_check(profiles["paper_anisotropic"], traj)
    for key in ("area", "H", "P", "Phi"):
        assert res[key] < 1e-3, (key, res)


def test_oracle_determinism(profiles):
    a = orc.smooth_flow_ode(profiles["paper_anisotropic"], 1.4, 1.0)
    b = orc.smooth_flow_ode(profiles["paper_anisotropic"], 1.4, 1.0)
    assert np.array_equal(a["r"], b["r"])
    qa = orc.level_set_quadrature(profiles["flat"], 1.0, 2.5)
    qb = orc.level_set_quadrature(profiles["flat"], 1.0, 2.5)
    assert qa == qb


def test_trajectory_csv(tmp_path, profiles, capsys):
    traj = orc.smooth_flow_ode(profiles["flat"], 1.0, 0.5)
    path = tmp_path / "traj.csv"
    assert cli.main(["oracle", "trajectory", "--preset", "flat", "--n", "2",
                     "--radius", "1.0", "--t-end", "0.5",
                     "--out", str(path)]) == 0
    assert capsys.readouterr().out == f"wrote {path} (blowup=False)\n"
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "t,r,H,P,Phi,area"
    assert len(rows) == len(traj["t"]) + 1
    # 17 significant digits give the trajectory back bit for bit
    data = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
    assert np.array_equal(data[:, 1], traj["r"])
