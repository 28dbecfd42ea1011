"""Spherically symmetric reference solutions.

Everything here is independent of the PDE solver: closed-form sphere
diagnostics, the smooth-flow ODE, arrival-time quadrature and horizon root
finding for warped-product data g = a(r)^2 dr^2 + (b(r) r)^2 dOmega^2.
These serve as the oracle side of the two-route checks.

The smooth flow of a centred sphere and its arrival time are two routes to
one curve, each with its own textbook method on numpy alone:

- ``smooth_flow_ode`` steps dr/dt = 1/(a Phi) in t with the Dormand-Prince
  5(4) pair (Dormand & Prince, J. Comput. Appl. Math. 6, 1980), Shampine's
  quartic dense output and terminal events, under the step control of
  scipy's RK45;
- ``level_set_quadrature`` sums u(r1) - u(r0) = int a Phi dr in r with a
  globally adaptive 7-point Gauss / 15-point Kronrod rule (Piessens et al.,
  QUADPACK, Springer 1983).

Neither calls the other or reads its samples, so the identity u(r(t)) = t
that criterion 8 checks compares a time-stepping with a quadrature and does
not hold by construction.  No function here imports scipy; the tests take
scipy's ``solve_ivp`` and ``quad`` as the references for both.
"""

import numpy as np

BISECT_REL_TOL = 1e-10
ODE_RTOL = 1e-9
ODE_ATOL = 1e-12
QUAD_EPSABS = 1e-12
QUAD_EPSREL = 1e-11
QUAD_LIMIT = 400             # subintervals of level_set_quadrature
BLOWUP_FRACTION = 1e-6
RICCI_FD_STEP = 1e-4
PROFILE_R_MAX = 1e6          # outer bound of every profile's radial domain
HORIZON_SCAN_R_MAX = 256.0  # horizon_root scans geometric radii up to here
HORIZON_N_SCAN = 4096
N_EVOLUTION_TIMES = 2001    # resampled times of evolution_equation_check


class OracleError(ValueError):
    pass


class RadialProfile:
    """Radial reduction of an initial data set with closed-form diagnostics,
    on radii from the data's r_min up to the module bound PROFILE_R_MAX."""

    def __init__(self, radial_data, n):
        self.data = radial_data
        self.n = int(n)
        self.r_min = radial_data.r_min

    @classmethod
    def from_initial_data(cls, ids):
        if ids.radial is None:
            raise OracleError("initial data set carries no radial reduction")
        return cls(ids.radial, ids.n)

    def _check_domain(self, r):
        if np.any(np.asarray(r) < self.r_min) or np.any(np.asarray(r) > PROFILE_R_MAX):
            raise OracleError(f"radius outside profile domain [{self.r_min}, {PROFILE_R_MAX}]")

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
    """Integrate the radial flow dr/dt = 1 / (a(r) Phi(r)) from r0 at t = 0
    to t_end (backward for t_end < 0).

    Stops with ``blowup = True`` when Phi drops below BLOWUP_FRACTION of its
    initial value (the smooth flow ends exactly when the speed blows up).
    Returns a dict with t, r arrays and diagnostics along the trajectory;
    its ``"sol"`` carries the steps and the dense output r(t).
    """
    if not np.isfinite(t_end):
        raise OracleError(f"flow end time {t_end} is not finite")
    profile._check_domain(r0)
    phi0 = profile.spacetime_mean_curvature(r0)
    if not np.isfinite(phi0) or phi0 <= 0:
        raise OracleError("initial sphere has no positive spacetime mean curvature")

    def speed(r):
        return 1.0 / (profile.data.a(r) * profile.spacetime_mean_curvature(r))

    floor = BLOWUP_FRACTION * phi0

    def speed_blowup(r):
        phi = profile.spacetime_mean_curvature(r)
        if not np.isfinite(phi):
            return 0.0
        return phi - floor

    def leaves_domain(r):
        return min(r - profile.r_min * (1 + 1e-12),
                   PROFILE_R_MAX * (1 - 1e-12) - r)

    sol = _dopri5(speed, r0, t_end, [speed_blowup, leaves_domain])
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


# Dormand-Prince 5(4): stages, 5th-order weights, error weights (5th minus
# the embedded 4th order; the last one on the first-same-as-last stage) and
# Shampine's quartic dense output, the coefficients of scipy's RK45
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]])
_DP_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200,
                  -22 / 525, 1 / 40])
_DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])
# step-size control: safety factor and the least and most a step may change
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


class _Trajectory:
    """A ``_dopri5`` run, in the layout of scipy's ``solve_ivp`` result:
    step times ``t``, states ``y`` (shape (1, len(t))), ``t_events`` (one
    array per event), ``status`` (0 reached t_end, 1 stopped at an event,
    -1 the step size collapsed) and the dense output ``sol``."""

    def __init__(self, t, r, t_events, status, steps):
        self.t = np.array(t)
        self.y = np.array(r)[None]
        self.t_events = [np.array(te) for te in t_events]
        self.status = status
        # per step: start time, signed length, start state, and the four
        # dense-output coefficients by row
        t0, h, r0, q = zip(*steps)
        self._t0, self._h, self._r0 = np.array(t0), np.array(h), np.array(r0)
        self._q = np.array(q).T

    def sol(self, t):
        """r(t) for scalar or array t, shape (1,) or (1, len(t)), from the
        quartic of the step that holds t (the earlier one at a step end)."""
        t = np.asarray(t, float)
        d = 1.0 if self.t[-1] >= self.t[0] else -1.0
        k = np.clip(np.searchsorted(d * self.t, d * t) - 1, 0, len(self._h) - 1)
        step = (self._t0[k], self._h[k], self._r0[k], self._q[:, k])
        return np.asarray(_dense(step, t))[None]


def _dense(step, t):
    """Shampine's quartic through one step (t0, h, r0, q), at t."""
    t0, h, r0, q = step
    x = (t - t0) / h
    return r0 + h * x * (q[0] + x * (q[1] + x * (q[2] + x * q[3])))


def _initial_step(speed, r, f, t_end):
    """Starting step for a 4th-order error estimate (Hairer, Norsett and
    Wanner, Solving ODEs I, II.4), as scipy chooses it."""
    scale = ODE_ATOL + abs(r) * ODE_RTOL
    d0, d1 = abs(r) / scale, abs(f) / scale
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, abs(t_end))
    d2 = abs(speed(r + np.sign(t_end) * h0 * f) - f) / scale / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, abs(t_end) / 16)


def _event_root(event, step, lo, hi):
    """Where event(r(t)) changes sign between the step times lo and hi, by
    bisection on the step's dense output to 4 ulp; an end where the event
    is 0 is the root, as in scipy's brentq."""
    g_lo = event(_dense(step, lo))
    if g_lo == 0:
        return lo
    if event(_dense(step, hi)) == 0:
        return hi
    while abs(hi - lo) > 4 * np.finfo(float).eps * (1 + abs(hi)):
        mid = 0.5 * (lo + hi)
        g_mid = event(_dense(step, mid))
        if g_mid == 0:
            return mid
        if (g_mid > 0) == (g_lo > 0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _dopri5(speed, r0, t_end, events):
    """Integrate the autonomous scalar ODE dr/dt = speed(r) from r(0) = r0
    to t_end, with scipy RK45's step control.

    Dormand-Prince 5(4) steps, at most |t_end| / 16 long, keep the local
    error below ODE_ATOL + ODE_RTOL |r|.  A step whose error estimate is
    NaN or infinite is rejected and shrunk; a step size below 10 ulp of t
    ends the run with status -1.  The events are terminal: the earliest
    sign change of any of them, located on the step's dense output, ends
    the run there with status 1.
    """
    t, r = 0.0, float(r0)
    t_events = [[] for _ in events]
    if t_end == 0:
        # no step: the dense output is the constant r0
        return _Trajectory([t], [r], t_events, 0, [(t, 1.0, r, np.zeros(4))])
    d = np.sign(t_end)
    f = speed(r)
    h_abs = _initial_step(speed, r, f, t_end)
    ts, rs, steps = [t], [r], []
    g = [event(r) for event in events]
    K = np.empty(7)
    status = None
    while status is None:
        min_step = 10 * abs(np.nextafter(t, d * np.inf) - t)
        h_abs = min(max(h_abs, min_step), abs(t_end) / 16)
        rejected = False
        while h_abs >= min_step:
            t_new = t + d * h_abs
            if d * (t_new - t_end) > 0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s in range(1, 6):
                K[s] = speed(r + h * (K[:s] @ _DP_A[s, :s]))
            r_new = r + h * (K[:6] @ _DP_B)
            K[6] = speed(r_new)
            err = abs(h * (K @ _DP_E)) / (
                ODE_ATOL + max(abs(r), abs(r_new)) * ODE_RTOL)
            if err < 1:
                break
            # NaN where a stage left the region where Phi is defined
            h_abs *= _MIN_FACTOR if np.isnan(err) else max(
                _MIN_FACTOR, _SAFETY * err ** -0.2)
            rejected = True
        else:
            status = -1
            break
        factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR,
                                                  _SAFETY * err ** -0.2)
        h_abs *= min(1.0, factor) if rejected else factor
        step = (t, h, r, K @ _DP_P)
        g_new = [event(r_new) for event in events]
        crossed = [i for i, (a, b) in enumerate(zip(g, g_new))
                   if a <= 0 <= b or a >= 0 >= b]
        if crossed:
            roots = {i: _event_root(events[i], step, t, t_new)
                     for i in crossed}
            first = min(crossed, key=lambda i: d * roots[i])
            t_new = roots[first]
            r_new = float(_dense(step, t_new))
            t_events[first].append(t_new)
            status = 1
        elif t_new == t_end:
            status = 0
        ts.append(t_new)
        rs.append(r_new)
        steps.append(step)
        t, r, f, g = t_new, r_new, K[6], g_new
    return _Trajectory(ts, rs, t_events, status, steps)


def level_set_quadrature(profile, r0, r1):
    """Arrival time u(r1) - u(r0) = int a(r) Phi(r) dr by globally adaptive
    Gauss-Kronrod quadrature, to max(QUAD_EPSABS, QUAD_EPSREL |u|).

    Each pass bisects the fewest intervals, largest error estimate first,
    that leave the remaining error within tolerance, and evaluates the
    integrand on all their halves' nodes in one call.  Raises OracleError
    when the error is still above tolerance at QUAD_LIMIT intervals.
    """
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

    lo, hi = np.array([r0], float), np.array([r1], float)
    value, err = _gauss_kronrod(integrand, lo, hi)
    while True:
        tol = max(QUAD_EPSABS, QUAD_EPSREL * abs(value.sum()))
        if err.sum() <= tol:
            return float(value.sum())
        order = np.argsort(err)[::-1]
        left = err.sum() - np.cumsum(err[order])
        n_split = min(int(np.argmax(left <= tol)) + 1, QUAD_LIMIT - len(lo))
        if n_split == 0:
            raise OracleError(
                f"quadrature on [{r0}, {r1}] did not converge in {QUAD_LIMIT} "
                f"subintervals: error estimate {err.sum():.3g} above "
                f"tolerance {tol:.3g}")
        split, keep = order[:n_split], order[n_split:]
        mid = 0.5 * (lo[split] + hi[split])
        halves = (np.concatenate([lo[split], mid]),
                  np.concatenate([mid, hi[split]]))
        new_value, new_err = _gauss_kronrod(integrand, *halves)
        lo = np.concatenate([lo[keep], halves[0]])
        hi = np.concatenate([hi[keep], halves[1]])
        value = np.concatenate([value[keep], new_value])
        err = np.concatenate([err[keep], new_err])


# the 15-point Kronrod rule on [-1, 1] and the 7-point Gauss rule on its
# every other node (QUADPACK's qk15, to double precision): positive nodes
# outermost first, then the weights of those nodes and of the centre
_KRONROD_X = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
              0.7415311855993945, 0.5860872354676911, 0.4058451513773972,
              0.20778495500789848)
_KRONROD_W = (0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
              0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
              0.20443294007529889, 0.20948214108472782)
_GAUSS_W = (0.0, 0.1294849661688697, 0.0, 0.27970539148927664,
            0.0, 0.3818300505051189, 0.0, 0.4179591836734694)
_GK_X = np.array(tuple(-x for x in _KRONROD_X) + (0.0,) + _KRONROD_X[::-1])
_GK_WK = np.array(_KRONROD_W + _KRONROD_W[6::-1])
_GK_WG = np.array(_GAUSS_W + _GAUSS_W[6::-1])


def _gauss_kronrod(integrand, lo, hi):
    """The 15-point Kronrod values of the integral over each [lo_i, hi_i]
    and QUADPACK's error estimates for them, from one integrand call."""
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = centre[:, None] + half[:, None] * _GK_X
    f = integrand(nodes.ravel()).reshape(nodes.shape)
    kronrod = f @ _GK_WK
    err = np.abs((kronrod - f @ _GK_WG) * half)
    resabs = np.abs(f) @ _GK_WK * np.abs(half)
    resasc = np.abs(f - 0.5 * kronrod[:, None]) @ _GK_WK * np.abs(half)
    # QUADPACK scales |K15 - G7| by the integrand's spread about its mean,
    # and never claims less than 50 ulp of the integral of |f|
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200 * err / resasc) ** 1.5)
    err = np.where((resasc != 0) & (err != 0), scaled, err)
    return kronrod * half, np.maximum(50 * np.finfo(float).eps * resabs, err)


def horizon_root(profile):
    """Outermost root of H(r) = |P(r)|, or None when H > |P| everywhere.

    Scans the profile domain up to HORIZON_SCAN_R_MAX for the outermost sign
    change of H - |P| and bisects it to BISECT_REL_TOL relative accuracy.
    """
    lo = profile.r_min
    rs = np.geomspace(max(lo, 1e-8), HORIZON_SCAN_R_MAX, HORIZON_N_SCAN)
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

