"""Spherically symmetric reference solutions.

Everything here is independent of the PDE solver: closed-form sphere
diagnostics, the smooth-flow ODE, arrival-time quadrature and horizon root
finding for warped-product data g = a(r)^2 dr^2 + (b(r) r)^2 dOmega^2.
These serve as the oracle side of the two-route checks.

scipy.integrate (``quad``, ``solve_ivp``) loads on the first call of
``smooth_flow_ode`` or ``level_set_quadrature``, not at import: with the
scipy.linalg and scipy.special it loads it nearly quadruples the import
time of the package (``import stimcf, stimcf.cli`` 0.23 s, then
``import scipy.integrate`` 0.85 s in all, on a 2-core x86 host), and the
solver pipeline calls neither oracle.
"""

import numpy as np

BISECT_REL_TOL = 1e-10
ODE_RTOL = 1e-9
ODE_ATOL = 1e-12
QUAD_EPSABS = 1e-12
QUAD_EPSREL = 1e-11
BLOWUP_FRACTION = 1e-6
RICCI_FD_STEP = 1e-4
HORIZON_SCAN_R_MAX = 256.0  # horizon_root scans geometric radii up to here
HORIZON_N_SCAN = 4096
N_EVOLUTION_TIMES = 2001    # resampled times of evolution_equation_check


class OracleError(ValueError):
    pass


class RadialProfile:
    """Radial reduction of an initial data set with closed-form diagnostics."""

    def __init__(self, radial_data, n, r_max=1e6):
        self.data = radial_data
        self.n = int(n)
        self.r_min = radial_data.r_min
        self.r_max = float(r_max)

    @classmethod
    def from_initial_data(cls, ids, r_max=1e6):
        if ids.radial is None:
            raise OracleError("initial data set carries no radial reduction")
        return cls(ids.radial, ids.n, r_max=r_max)

    def _check_domain(self, r):
        if np.any(np.asarray(r) < self.r_min) or np.any(np.asarray(r) > self.r_max):
            raise OracleError(f"radius outside profile domain [{self.r_min}, {self.r_max}]")

    def mean_curvature(self, r):
        r = np.asarray(r, float)
        a, b, db = self.data.a(r), self.data.b(r), self.data.db(r)
        return (self.n / a) * (1.0 / r + db / b)

    def k_trace(self, r):
        # trace of K over the sphere tangent plane; maximality gives -kappa_r
        return -self.data.kappa_r(np.asarray(r, float))

    def spacetime_mean_curvature(self, r):
        H = self.mean_curvature(r)
        P = self.k_trace(r)
        disc = H ** 2 - P ** 2
        return np.where(disc >= 0, np.sqrt(np.maximum(disc, 0.0)), np.nan)

    def area(self, r):
        r = np.asarray(r, float)
        n = self.n
        omega = sphere_area(n)
        return omega * (self.data.b(r) * r) ** n

    def ricci_normal(self, r):
        """Ric(nu, nu) of the warped metric, nu the unit radial direction."""
        h = RICCI_FD_STEP
        r = np.asarray(r, float)
        a = self.data.a(r)
        da = self.data.da(r)
        R = self.data.b(r) * r

        def Rfun(s):
            return self.data.b(s) * s

        d1 = (Rfun(r + h) - Rfun(r - h)) / (2 * h)
        d2 = (Rfun(r + h) - 2 * R + Rfun(r - h)) / h ** 2
        return -self.n * (d2 / a ** 2 - d1 * da / a ** 3) / R

    def sphere_diagnostics(self, r):
        """(H, P, Phi) of the coordinate sphere of radius r; Phi is NaN when
        H^2 < P^2 (spacetime mean curvature undefined)."""
        self._check_domain(r)
        return (float(self.mean_curvature(r)), float(self.k_trace(r)),
                float(self.spacetime_mean_curvature(r)))


def sphere_area(n):
    """Area of the unit n-sphere."""
    from math import gamma, pi
    return 2 * pi ** ((n + 1) / 2) / gamma((n + 1) / 2)


def smooth_flow_ode(profile, r0, t_end):
    """Integrate the radial flow dr/dt = 1 / (a(r) Phi(r)).

    Stops with ``blowup = True`` when Phi drops below BLOWUP_FRACTION of its
    initial value (the smooth flow ends exactly when the speed blows up).
    Returns a dict with t, r arrays and diagnostics along the trajectory.
    """
    from scipy.integrate import solve_ivp   # on first use: see the module
    profile._check_domain(r0)
    phi0 = profile.spacetime_mean_curvature(r0)
    if not np.isfinite(phi0) or phi0 <= 0:
        raise OracleError("initial sphere has no positive spacetime mean curvature")

    def rhs(t, y):
        r = y[0]
        phi = profile.spacetime_mean_curvature(r)
        return [1.0 / (profile.data.a(r) * phi)]

    floor = BLOWUP_FRACTION * phi0

    def speed_blowup(t, y):
        phi = profile.spacetime_mean_curvature(y[0])
        if not np.isfinite(phi):
            return 0.0
        return phi - floor
    speed_blowup.terminal = True

    def leaves_domain(t, y):
        return min(y[0] - profile.r_min * (1 + 1e-12),
                   profile.r_max * (1 - 1e-12) - y[0])
    leaves_domain.terminal = True

    sol = solve_ivp(rhs, (0.0, t_end), [r0], rtol=ODE_RTOL, atol=ODE_ATOL,
                    events=[speed_blowup, leaves_domain], dense_output=True,
                    max_step=abs(t_end) / 16 if t_end else np.inf)
    t = sol.t
    r = sol.y[0]
    phi_final = profile.spacetime_mean_curvature(r[-1])
    # the event can be missed when the integrator's steps collapse first
    blowup = (len(sol.t_events[0]) > 0
              or (sol.status != 1 and abs(t[-1]) < abs(t_end) * (1 - 1e-9)
                  and phi_final < 1e-3 * phi0))
    return {
        "t": t, "r": r,
        "H": profile.mean_curvature(r),
        "P": profile.k_trace(r),
        "Phi": profile.spacetime_mean_curvature(r),
        "area": profile.area(r),
        "blowup": blowup,
        "blowup_time": (float(sol.t_events[0][0]) if len(sol.t_events[0])
                        else float(t[-1])) if blowup else None,
        "sol": sol,
    }


def level_set_quadrature(profile, r0, r1):
    """Arrival time u(r1) - u(r0) = int a(r) Phi(r) dr by adaptive quadrature."""
    from scipy.integrate import quad    # on first use: see the module
    profile._check_domain(r0)
    profile._check_domain(r1)
    scan = np.linspace(r0, r1, 257)
    phis = profile.spacetime_mean_curvature(scan)
    ends = profile.spacetime_mean_curvature(np.array([r0, r1]))
    # a zero at an endpoint (flow starting on a horizon) stays integrable
    if (np.any(~np.isfinite(phis)) or np.any(phis[1:-1] <= 0)
            or np.any(~np.isfinite(ends)) or np.any(ends < 0)):
        raise OracleError("spacetime mean curvature is not positive on the interval")

    def integrand(r):
        return profile.data.a(r) * profile.spacetime_mean_curvature(r)

    val, _ = quad(integrand, r0, r1, epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL,
                  limit=400)
    return val


def horizon_root(profile):
    """Outermost root of H(r) = |P(r)|, or None when H > |P| everywhere.

    Scans the profile domain up to HORIZON_SCAN_R_MAX for the outermost sign
    change of H - |P| and bisects it to BISECT_REL_TOL relative accuracy.
    """
    lo = profile.r_min
    hi = min(profile.r_max, HORIZON_SCAN_R_MAX)
    rs = np.geomspace(max(lo, 1e-8), hi, HORIZON_N_SCAN)
    D = profile.mean_curvature(rs) - np.abs(profile.k_trace(rs))
    sign_change = np.where((D[:-1] <= 0) & (D[1:] > 0))[0]
    if len(sign_change) == 0:
        return None
    i = sign_change[-1]
    a, b = rs[i], rs[i + 1]

    def f(r):
        return profile.mean_curvature(r) - abs(profile.k_trace(r))

    fa = f(a)
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fa * fm <= 0:
            b = mid
        else:
            a, fa = mid, fm
        if (b - a) < BISECT_REL_TOL * b:
            break
    return 0.5 * (a + b)


def evolution_equation_check(profile, trajectory):
    """Residuals of the sphere-specialized evolution identities on a trajectory.

    Checks, with Psi = 1/Phi and all gradient terms vanishing radially:
      area:  d(area)/dt = (H/Phi) area
      H:     dH/dt = -Psi (Ric(nu,nu) + H^2/n)
      P:     dP/dt = Psi tr ( nabla_nu K ) restricted to the sphere
      Phi:   dPhi/dt = Phi^-2 ( -H (Ric + H^2/n) - P tr nabla_nu K )
    Returns max relative residual per identity, finite differencing d/dt on a
    dense resampling of the ODE solution.
    """
    sol = trajectory["sol"]
    t0, t1 = sol.t[0], sol.t[-1]
    if abs(t1 - t0) < 1e-12:
        raise OracleError("trajectory too short for time stencils")
    ts = np.linspace(t0, t1, N_EVOLUTION_TIMES)
    rs = sol.sol(ts)[0]
    dt = ts[1] - ts[0]
    a = profile.data.a(rs)
    H = profile.mean_curvature(rs)
    P = profile.k_trace(rs)
    Phi = profile.spacetime_mean_curvature(rs)
    A = profile.area(rs)
    Ric = profile.ricci_normal(rs)
    hsq = H ** 2 / profile.n
    # tr_gamma nabla_nu K = (1/a) d/dr (tangential trace) = (1/a) P'(r)
    trDK = -profile.data.dkappa_r(rs) / a

    def ddt(q):
        return (q[2:] - q[:-2]) / (2 * dt)

    mid = slice(1, -1)
    res = {}
    lhs = ddt(A)
    rhs = (H / Phi * A)[mid]
    res["area"] = float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-14)))
    lhs = ddt(H)
    rhs = (-(Ric + hsq) / Phi)[mid]
    res["H"] = float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-14)))
    lhs = ddt(P)
    rhs = (trDK / Phi)[mid]
    scale = np.maximum(np.abs(rhs), np.max(np.abs(H)) * 1e-6)
    res["P"] = float(np.max(np.abs(lhs - rhs) / scale))
    lhs = ddt(Phi)
    rhs = ((-H * (Ric + hsq) - P * trDK) / Phi ** 2)[mid]
    res["Phi"] = float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-14)))
    return res

