"""Discrete annular domains Omega_L = F_L \\ E0 and the regularized operator.

Two lanes implement one protocol: the radial lane here (``RadialDomain``)
and the 2D/3D Cartesian lane of ``grid`` (``GridDomain``).  The outer
boundary sits where the log subsolution v = alpha ln(|x|/R0) reaches L,
and solutions carry u = 0 on E0's boundary and u = bc = s (L - 2) outside.

A *field point* is a radial node, both boundary nodes included, or an
active grid cell.  The unknowns (``interior``, ``n_unknowns`` of them) are
the radial nodes strictly inside, or all active cells.  Every lane decision
of the package lives in the two lane modules; callers use the protocol:

- the annulus: ``r_out`` (radius of the outer boundary sphere), ``L``,
  ``alpha``, ``R0``, ``h`` (the cell width up to ``r_g``), ``r_g`` (the
  radius beyond which the radial lane stretches its nodes; inf on grids);
- operator: ``residual(interior, eps, s, bc, variant)`` returns (res,
  lin), the operator's value and its linearization, a tuple the lane owns
  and only its ``jacobian(lin)`` reads; ``solve(J, rhs)`` for the linear
  step, which may overwrite both J and rhs (the caller reads neither
  afterwards); ``norm_inf(J)`` (the max-row-sum norm the Newton floor
  reads, before the solve); ``initial_guess`` for a cold start.  J is
  whatever the lane's ``solve`` takes (a LAPACK band array on the radial
  lane, solved in place, and a sparse matrix on grids).  A lane keeps no
  state between calls.  Where the K-term vanishes (``k_is_zero()`` or
  s = 0) both variants are sqrt(W^2), and the radial lane evaluates no
  K-term there;
- fields over the field points: ``full_field``, ``metric_gradient`` (|.|
  of it is |grad u|_g), ``volumes()``, ``radii``;
- data: ``feasibility()``, ``subsolution_values``, ``k_is_zero()``,
  ``boundary_gradients`` (the a-priori criterion (iii) inputs);
- geometry read off a solution: ``components(mask)`` (lists of field-point
  indices), ``plateau_radii(sol, comp, t0, knee_floor)``,
  ``tail_normals(interiors, bc)``, ``extrema_excess``, and
  ``boundary_curvatures(sol, jump, side)``, samples (H, P) of a jump's
  ``"inner"`` or ``"outer"`` boundary: one exact value of the centred
  sphere on the radial lane, one per facet of a contour on grids;
- ``require_radial(what)``: a no-op on the radial lane and ``LaneError`` on
  grids, for diagnostics that exist on the radial lane only.

This module also holds the pieces both lanes share (``rhs_value``,
``rhs_derivs``, ``_feasibility``, ``outer_radius``, the anchor R0) and
``build_domain``, which imports ``grid`` to build a grid, as
``choose_anchor_radius`` does for data with no radial reduction.

No scipy module loads with a radial run, its oracle checks included: the
radial solve calls LAPACK ``dgtsv`` from numpy's bundled OpenBLAS
(``_gtsv``), or ``scipy.linalg.solve_banded`` (same routine, same bits)
where numpy bundles none or ``scipy.linalg`` is loaded already.  The grid
lane loads ``scipy.sparse`` (with its ``csgraph``) inside its methods.
"""

import ctypes
import functools
import os
import sys

import numpy as np

from .radial_oracle import RadialProfile, sphere_area

SUBSOLUTION_MARGIN = 1e-3
FEASIBILITY_SAFETY = 0.9
KNEE_EPS_FACTOR = 60.0      # plateau-edge thresholds start at this many eps
ANCHOR_R_MAX = 64.0         # anchor radius scan: geomspace up to here
ANCHOR_N_SCAN = 256
VARIANTS = ("stimcf", "frauendiener")   # the right-hand sides of rhs_value
# radial grading: r_g is this many times the radius where the s = 0
# transport time reaches L - 2, found on this many fixed points
GRADE_CLEARANCE = 2.0
GRADE_SCAN_POINTS = 8193


class DomainError(ValueError):
    pass


class LaneError(NotImplementedError):
    """A diagnostic that runs on the radial lane only met a grid domain."""


def rhs_value(W2, T, s, variant):
    """Right-hand side of the regularized level-set equation.

    stimcf:        sqrt(W^2 + s T^2)
    frauendiener:  W/2 + sqrt(W^2 + 4 s T^2)/2
    with W^2 = eps^2 + |grad u|^2 and T the K-contraction term.  Both reduce
    to W when the K-term vanishes; T = None says that it does (K = 0, or
    s = 0), and then no K-term is evaluated.  Returns (R, roots): the square
    roots it took, which ``rhs_derivs`` reads in place of taking them again
    (R itself for stimcf and for T = None, (W, the root) for frauendiener).
    """
    if variant not in VARIANTS:
        raise DomainError(f"unknown operator variant '{variant}'")
    if T is None:
        R = np.sqrt(W2)
        return R, (R,)
    if variant == "stimcf":
        R = np.sqrt(W2 + s * T ** 2)
        return R, (R,)
    W, root = np.sqrt(W2), np.sqrt(W2 + 4.0 * s * T ** 2)
    return 0.5 * W + 0.5 * root, (W, root)


def rhs_derivs(roots, T, s, variant):
    """(dR/dW2, dR/dT) for the right-hand side that ``rhs_value`` checked
    and evaluated, from the roots it returned; dR/dT is None when T is (no
    K-term)."""
    if T is None:
        return 0.5 / roots[0], None
    if variant == "stimcf":
        R, = roots
        return 0.5 / R, s * T / R
    W, root = roots
    return 0.25 / W + 0.25 / root, 2.0 * s * T / root


def outer_radius(L, alpha, R0):
    return R0 * np.exp(L / alpha)


@functools.cache
def _gtsv():
    """LAPACK ``dgtsv`` from the OpenBLAS in numpy's wheel, as a function
    gtsv(J, rhs) of the band array of ``RadialDomain.jacobian``, or None when
    numpy bundles no such library.  The symbol is looked up once per
    process.  Each call solves in place: DL, D and DU are rows 2, 1 and 0
    of J (DL and DU from columns 0 and 1), so J returns holding the
    factorization and rhs the solution, which is returned.  J and rhs must
    be C-contiguous float64 arrays of shapes (3, N) and (N,), else
    ValueError; a singular J raises ``np.linalg.LinAlgError``, as
    ``scipy.linalg.solve_banded`` does.
    """
    import glob
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    paths = sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")))
    try:
        fn = ctypes.CDLL(paths[0]).scipy_dgtsv_64_
    except (IndexError, OSError, AttributeError):
        return None
    # (N, NRHS, DL, D, DU, B, LDB, INFO), all passed by address
    fn.argtypes = [ctypes.c_void_p] * 8
    fn.restype = None

    def gtsv(J, rhs):
        n = len(rhs)
        if J.shape != (3, n) or np.shape(rhs) != (n,):
            raise ValueError(f"band array of shape {J.shape} and rhs of "
                             f"shape {np.shape(rhs)} do not match")
        if not all(a.dtype == np.float64 and a.flags.c_contiguous
                   for a in (J, rhs)):
            raise ValueError("dgtsv solves in place: J and rhs must be "
                             "C-contiguous float64 arrays")
        ints = np.array([n, 1, n, 0], np.int64)    # N, NRHS, LDB, INFO
        i, a = ints.ctypes.data, J.ctypes.data
        fn(i, i + 8, a + 16 * n, a + 8 * n, a + 8, rhs.ctypes.data, i + 16,
           i + 24)
        if ints[3] > 0:
            raise np.linalg.LinAlgError("singular matrix")
        if ints[3] < 0:
            raise ValueError(f"illegal value in argument {-ints[3]} "
                             f"of dgtsv")
        return rhs

    return gtsv


def _cumulative_trapezoid(y, x=None, dx=1.0):
    """Running trapezoid integral of 1-D y from 0 over x (or spacing dx).

    The arithmetic is scipy's ``cumulative_trapezoid(..., initial=0)``, bit
    for bit, without importing scipy.integrate, which no module of the
    package loads (see the module docstring).
    """
    d = dx if x is None else np.diff(x)
    return np.concatenate(([0.0], np.cumsum(d * (y[1:] + y[:-1]) / 2.0)))


def _feasibility(area, vol):
    """Divergence feasibility of eps for boundary area `area` and volume
    `vol`."""
    eps_div = area / vol
    return {
        "eps_divergence_bound": eps_div,
        "eps_max": FEASIBILITY_SAFETY * eps_div,
        "volume": vol,
        "boundary_area": area,
    }


def _grade_radius(prof, r_in, r_out, L):
    """Radius beyond which the radial nodes are stretched: GRADE_CLEARANCE
    times the radius where the s = 0 transport time int a max(H, 0) dr
    first reaches L - 2.

    The integral runs on GRADE_SCAN_POINTS fixed points over [r_in, r_out],
    so the radius does not depend on the spacing h.  It reaches L - 2
    before r_out: beyond the anchor R0 the subsolution margin gives
    a H > alpha / r, so the integral gains more than alpha ln(r_out / R0)
    = L there.
    """
    rr = np.linspace(r_in, r_out, GRADE_SCAN_POINTS)
    speed = np.asarray(prof.data.a(rr), float) * np.maximum(
        prof.mean_curvature(rr), 0.0)
    t = _cumulative_trapezoid(speed, rr)
    k = int(np.searchsorted(t, L - 2.0))
    w = (L - 2.0 - t[k - 1]) / (t[k] - t[k - 1])
    return GRADE_CLEARANCE * float(rr[k - 1] + w * (rr[k] - rr[k - 1]))


class RadialDomain:
    """Nodes r_in .. r_out with warped-product metric samples.

    The nodes are uniform in a coordinate x with spacing ``h``, and r(x) is
    the C^1 graded map

        r = x                      for x <= r_g,
        r = r_g / (2 - x / r_g)    beyond, so dr/dx = (r / r_g)^2,

    with x_out = r_g (2 - r_g / r_out) and the last node set to r_out
    exactly.  ``r`` holds the physical node radii, and ``a`` is the metric
    factor of x, a_phys(r) dr/dx: the flux, the node volumes a (b r)^n h and
    every difference over ``h`` are then the physical ones, so the operator
    below is written once, in x.  Up to r_g the spacing in r is h.  Beyond
    the radius where the s = 0 transport time first reaches L - 2, u is
    only the eps-scale tail next to its boundary value, a far field that no
    diagnostic reads; r_g is GRADE_CLEARANCE = 2 times that radius.  With
    a factor of 1.5 the a-priori window's solves and the second-order
    refinement check fail, and with 1 the gradient-tail check as well: the
    eps-scale tail and the coarse solves of a refinement study still need
    uniform cells past that radius.  When r_g >= r_out the nodes are the
    uniform ``np.linspace(r_in, r_out, N + 1)``.

    The discrete operator is the face-flux form of
    div_g( grad u / sqrt(eps^2 + |grad u|^2) )
      - sqrt( eps^2 + |grad u|^2 + s (grad u . K . grad u / (eps^2+|grad u|^2))^2 )
    with second-order centered differences in x.  The unknowns form a
    chain, so the Jacobian is tridiagonal and the lane keeps it in LAPACK
    band storage from assembly to solve.

    ``residual`` runs one fused kernel, ``_stencil``: one pass of in-place
    array operations over the chain.  When K vanishes identically or s = 0
    the kernel skips the K-term and both variants are sqrt(eps^2 +
    |grad u|^2).  ``residual`` returns the stencil with eps, s and the
    variant as its linearization, and ``jacobian`` assembles from that
    tuple alone.
    """

    kind = "radial"

    def __init__(self, ids, r_in, h, L, alpha, R0):
        if ids.radial is None:
            raise DomainError("radial domain needs data with a radial reduction")
        self.ids = ids
        self.n = ids.n
        self.L = float(L)
        self.alpha = float(alpha)
        self.R0 = float(R0)
        self.r_in = float(r_in)
        self.r_out = outer_radius(L, alpha, R0)
        self.profile = RadialProfile.from_initial_data(ids)
        self.r_g = _grade_radius(self.profile, self.r_in, self.r_out, self.L)
        x_out = (self.r_g * (2.0 - self.r_g / self.r_out)
                 if self.r_g < self.r_out else self.r_out)
        N = int(round((x_out - self.r_in) / h))
        if N < 8:
            raise DomainError("domain too thin for the stencil")
        # land the outer boundary exactly on the last node so refinement
        # studies compare identical problems (h shifts by < h/2N)
        self.h = (x_out - self.r_in) / N
        x = np.linspace(self.r_in, x_out, N + 1)
        far = x > self.r_g
        self.r = x
        self.r[far] = self.r_g / (2.0 - x[far] / self.r_g)
        self.r[-1] = self.r_out
        rad = ids.radial
        self.a = np.asarray(rad.a(self.r), float)
        self.a[far] *= (self.r[far] / self.r_g) ** 2
        self.b = np.asarray(rad.b(self.r), float)
        self.kr = np.asarray(rad.kappa_r(self.r), float)
        self.A = (self.b * self.r) ** self.n
        self.af = 0.5 * (self.a[1:] + self.a[:-1])
        self.Af = 0.5 * (self.A[1:] + self.A[:-1])
        # reciprocal interior node volumes (per unit sphere area)
        self._inv_vol = 1.0 / (self.A[1:-1] * self.a[1:-1] * self.h)
        self._k_free = self.k_is_zero()
        self.n_unknowns = N - 1
        # H+ on dE0, which the a-priori monitor reads on every rung
        self._H_in = max(float(self.profile.mean_curvature(self.r_in)), 0.0)

    # fields over the nodes -------------------------------------------------
    @property
    def radii(self):
        return self.r

    def full_field(self, interior, bc):
        u = np.empty(len(self.r))
        u[0] = 0.0
        u[-1] = bc
        u[1:-1] = interior
        return u

    def metric_gradient(self, interior, bc):
        """Signed du/dx over a at the nodes (centered, one-sided at the
        ends), which is du/dr over a_phys; its absolute value is
        |grad u|_g."""
        return np.gradient(self.full_field(interior, bc), self.h) / self.a

    def volumes(self):
        """Dual volumes of the nodes, metric measure a (b r)^n dx dOmega,
        with half cells at both ends (the trapezoid rule)."""
        vol = sphere_area(self.n) * self.A * self.a * self.h
        vol[[0, -1]] *= 0.5
        return vol

    # discrete operator -----------------------------------------------------
    def _stencil(self, interior, eps, bc, s):
        """One pass over the chain.  On the faces: the flux F = A q / Wf of
        the slope q = (du/dr) / a, with Wf = sqrt(eps^2 + q^2).  At the
        interior nodes: the centred metric gradient Gc, W2 = eps^2 + Gc^2
        and the K-ratio T = Gc^2 kappa_r / W2, which is None when the K-term
        vanishes (K = 0, or s = 0).  Returns (F, (Wf, Gc, W2, T))."""
        e2 = eps * eps
        q = np.empty(len(interior) + 1)
        np.subtract(interior[1:], interior[:-1], out=q[1:-1])
        q[0] = interior[0]
        q[-1] = bc - interior[-1]
        q /= self.h
        Gc = q[1:] + q[:-1]
        Gc *= 0.5
        Gc /= self.a[1:-1]
        q /= self.af
        Wf = q * q
        Wf += e2
        np.sqrt(Wf, out=Wf)
        q *= self.Af
        q /= Wf
        W2 = Gc * Gc
        T = None if self._k_free or s == 0 else W2 * self.kr[1:-1]
        W2 += e2
        if T is not None:
            T /= W2
        return q, (Wf, Gc, W2, T)

    def residual(self, interior, eps, s, bc, variant="stimcf"):
        """The operator at the interior nodes and its linearization, the
        stencil with the right-hand side's roots, eps, s and the variant
        that ``jacobian`` reads."""
        F, (Wf, Gc, W2, T) = self._stencil(interior, eps, bc, s)
        R, roots = rhs_value(W2, T, s, variant)
        res = F[1:] - F[:-1]
        res *= self._inv_vol
        res -= R
        return res, (Wf, Gc, W2, T, roots, eps, s, variant)

    def jacobian(self, lin):
        """The tridiagonal Jacobian at the linearization ``lin`` of
        ``residual``, as a (3, N) LAPACK band array: ``ab[1 + i - j, j] =
        J[i, j]``, so row 0 holds the superdiagonal (ab[0, 0] unused), row 1
        the diagonal and row 2 the subdiagonal (ab[2, -1] unused); both
        unused entries are zero.  ``lin`` is only read."""
        Wf, Gc, W2, T, roots, eps, s, variant = lin
        e2 = eps * eps
        # dF/du across a face: A eps^2 / (a Wf^3 h)
        dF = Wf * Wf
        dF *= Wf
        dF *= self.af
        np.divide(self.Af, dF, out=dF)
        dF *= e2 / self.h
        # the right-hand side through G2 = Gc^2 (T = G2 k / W2, so dT/dG2 =
        # k eps^2 / W2^2), and Gc through the centred difference
        g, dRdT = rhs_derivs(roots, T, s, variant)
        if T is not None:
            dRdT *= self.kr[1:-1]
            dRdT *= e2
            dRdT /= W2
            dRdT /= W2
            g += dRdT
        g *= Gc
        g /= self.a[1:-1]
        g /= self.h
        ci = self._inv_vol
        ab = np.empty((3, len(g)))
        up, mid, lo = ab[0, 1:], ab[1], ab[2, :-1]
        np.multiply(ci[:-1], dF[1:-1], out=up)
        up -= g[:-1]
        np.multiply(ci[1:], dF[1:-1], out=lo)
        lo += g[1:]
        np.add(dF[1:], dF[:-1], out=mid)
        mid *= ci
        np.negative(mid, out=mid)
        ab[0, 0] = ab[2, -1] = 0.0
        return ab

    def solve(self, J, rhs):
        """Solve with the band array of ``jacobian`` (LAPACK gtsv) in
        place: J and rhs are overwritten, and the returned step is rhs;
        ``newton_solve`` checks finiteness first and reads neither after.

        The solve calls numpy's bundled ``dgtsv`` (``_gtsv``), so a radial
        run loads no scipy.  It takes ``scipy.linalg.solve_banded``, which
        gives the same bits and overwrites the same arrays, when that
        binding is missing or when ``scipy.linalg`` is loaded already: then
        it costs no more memory, and a wrapper set on it (the benchmark's
        tracer, which imports ``scipy.linalg`` to install itself) sees every
        solve.  That is why ``solve_banded`` is looked up on the module at
        every call.
        """
        gtsv = _gtsv()
        if gtsv is None or "scipy.linalg" in sys.modules:
            import scipy.linalg as sla
            return sla.solve_banded((1, 1), J, rhs, overwrite_ab=True,
                                    overwrite_b=True, check_finite=False)
        return gtsv(J, rhs)

    def norm_inf(self, J):
        """Max row sum of |J| from the band array."""
        rows = np.abs(J[1])
        rows[1:] += np.abs(J[2, :-1])
        rows[:-1] += np.abs(J[0, 1:])
        return float(rows.max())

    def initial_guess(self, s, bc, eps):
        """The one cold start: the arrival-time profile of the radial
        transport problem, a sqrt(max(H^2 - s P^2, 0)) integrated over x
        where the sphere is mean-convex, joined to bc by a smooth minimum of
        width max(10 eps, 1e-6), so it has no kink at the boundary value.
        Keeping the smallest operator residual among this, the hard cap and
        a boundary-tail join converged 261 of 324 cold solves (nine data/L
        cases, two h, four s, two bc, three eps); this start converges 284.
        """
        H = self.profile.mean_curvature(self.r)
        P = self.profile.k_trace(self.r)
        speed = np.sqrt(np.maximum(H ** 2 - s * P ** 2, 0.0)) * (H > 0)
        ut = _cumulative_trapezoid(self.a * speed, dx=self.h)[1:-1]
        width = max(10.0 * eps, 1e-6)
        return np.clip(bc - width * np.logaddexp(0.0, (bc - ut) / width),
                       0.0, bc)

    # data ------------------------------------------------------------------
    def subsolution_values(self):
        return self.alpha * np.log(np.maximum(self.r, 1e-300) / self.R0)

    def feasibility(self):
        omega = sphere_area(self.n)
        area_in = omega * (self.b[0] * self.r[0]) ** self.n
        area_out = omega * (self.b[-1] * self.r[-1]) ** self.n
        return _feasibility(area_in + area_out, float(self.volumes().sum()))

    def k_is_zero(self):
        return bool(np.all(self.kr == 0.0))

    def boundary_gradients(self, interior, bc):
        """(H+ on dE0, inner boundary slope) for criterion (iii).

        The slope is parity-averaged: the centered scheme leaves the
        odd-even component of the boundary gradient undetermined.
        """
        u = self.full_field(interior, bc)
        k = min(4, len(u) - 1)
        g_in = float(np.mean(np.diff(u[:k + 1])) / self.h
                     / np.mean(self.af[:k]))
        return self._H_in, g_in

    def require_radial(self, what):
        pass

    # geometry read off a solution ------------------------------------------
    def components(self, mask):
        """Runs of consecutive nodes where mask holds."""
        idx = np.where(mask)[0]
        if len(idx) == 0:
            return []
        return np.split(idx, np.where(np.diff(idx) > 1)[0] + 1)

    def plateau_radii(self, sol, comp, t0, knee_floor):
        """(inner, outer) radius of a plateau run; the outer edge comes from
        anchored value-crossing extrapolation.

        Past the gradient knee (where |grad u|_g first exceeds both 8 times
        the plateau median and knee_floor) the arrival time follows
        u - u_edge ~ c (r - r*)^p (p = 3/2 where the spacetime mean
        curvature has a square-root zero, 2 for K = 0 horizons).  Crossing
        radii of three geometric thresholds fit the exponent and extrapolate
        the O(delta^(1/p)) bias away; anchoring the thresholds at the knee
        value keeps the plateau's own eps-scale variation out of the fit.
        Falls back to the knee radius when the fit is unusable.
        """
        u = sol.full_field()
        r = self.r
        grad = np.abs(sol.metric_gradient())
        g_med = float(np.median(grad[comp]))
        knee_level = max(8.0 * g_med, knee_floor)
        i = comp[-1]
        while i < len(r) - 2 and grad[i] <= knee_level:
            i += 1
        knee = i
        u_edge = float(u[knee])
        uu = np.maximum.accumulate(u[knee:])
        rr = r[knee:]

        def crossing(target):
            j = int(np.searchsorted(uu, target))
            if j <= 0:
                return rr[0]
            if j >= len(uu):
                return rr[-1]
            w = (target - uu[j - 1]) / max(uu[j] - uu[j - 1], 1e-300)
            return rr[j - 1] + w * (rr[j] - rr[j - 1])

        inner = float(r[comp[0]])
        d_base = max(KNEE_EPS_FACTOR * sol.eps, 2.0 * (u_edge - t0))
        r1, r2, r3 = (crossing(u_edge + d_base * f) for f in (16.0, 4.0, 1.0))
        num, den = r1 - r2, r2 - r3
        fallback = float(r[knee])
        if den <= 1e-14 or num <= den:
            return inner, fallback
        ratio = num / den
        if not (1.3 < ratio < 20.0):
            return inner, fallback
        est = float(r3 - den / (ratio - 1.0))
        if not (fallback - 5 * self.h <= est <= r3):
            return inner, fallback
        return inner, est

    def boundary_curvatures(self, sol, jump, side):
        """(H, P) of the centred sphere at the jump's ``side`` ("inner" or
        "outer") radius: one exact sample each, from the radial profile."""
        radius = {"inner": jump.inner_radius, "outer": jump.outer_radius}[side]
        return (self.profile.mean_curvature([radius]),
                self.profile.k_trace([radius]))

    def level_radius(self, sol, t):
        """Radius where the running maximum of u reaches t (a time or an
        array of times), linear between nodes.

        The per-cell slopes this interpolates carry the odd-even component
        the centered scheme leaves undetermined wherever |grad u| >> eps,
        so derivatives of the radius in t alias that mode; differentiate
        nodal data with centered gradients instead.
        """
        u = np.maximum.accumulate(sol.full_field())
        return np.interp(t, u, self.r)

    def tail_normals(self, interiors, bc):
        """Radial normal signs of the last tail rung, and per node the turn
        angle over the tail (0 where every rung agrees in sign, else 180)."""
        signs = [np.sign(self.metric_gradient(x, bc) + 1e-300)
                 for x in interiors]
        agree = np.ones(len(self.r), bool)
        for k in range(1, len(signs)):
            agree &= (signs[k] == signs[k - 1])
        return signs[-1], np.where(agree, 0.0, 180.0)

    def extrema_excess(self, sol):
        """Worst strict local max and min excess of u over its neighbors."""
        u = sol.full_field()
        mx = np.maximum(u[:-2], u[2:])
        mn = np.minimum(u[:-2], u[2:])
        return (float(np.max(u[1:-1] - mx, initial=0.0)),
                float(np.max(mn - u[1:-1], initial=0.0)))


def subsolution_margin(prof, alpha, r):
    """Residual of v = alpha ln(r/R0) under the degenerate operator on the
    radial profile `prof`: H(r) - sqrt( (alpha/(a r))^2 + P^2 )."""
    H = prof.mean_curvature(r)
    gradv = alpha / (np.asarray(prof.data.a(r)) * r)
    P = -np.asarray(prof.data.kappa_r(r))
    return H - np.sqrt(gradv ** 2 + P ** 2)


def choose_anchor_radius(ids, alpha, e0_outer_radius):
    """Smallest tested radius beyond which the log subsolution residual stays
    above SUBSOLUTION_MARGIN, and beyond the inner region."""
    lo = max(1.001 * e0_outer_radius, 1.001 * ids.inner_radius, 0.05)
    radii = np.geomspace(lo, ANCHOR_R_MAX, ANCHOR_N_SCAN)
    if ids.radial is not None:
        prof = RadialProfile.from_initial_data(ids)
        res = subsolution_margin(prof, alpha, radii)
    else:
        from .grid import _pointwise_margin     # grid-lane data only
        d = ids.dim
        dirs = np.vstack([np.eye(d), np.ones(d) / np.sqrt(d)])
        res = np.array([np.min(_pointwise_margin(
            ids, r * dirs, alpha)) for r in radii])
    # the residual of the log subsolution decays like (n - alpha)/r, so the
    # margin is enforced on r * residual (dimensionless)
    ok = res * radii >= SUBSOLUTION_MARGIN
    suffix_ok = np.flip(np.logical_and.accumulate(np.flip(ok)))
    idx = np.where(suffix_ok)[0]
    if len(idx) == 0:
        raise DomainError(
            "no admissible subsolution anchor radius with margin "
            f"{SUBSOLUTION_MARGIN}")
    return float(radii[idx[0]])


def build_domain(ids, e0, L, alpha, h, mode="auto"):
    """Construct the computational annulus for data `ids`.

    e0 is ``{"center": (...), "radius": rho}``; L > 2 with the inner/outer
    separation required by the a-priori estimates; 0 < alpha < n.
    mode: "radial", "grid", or "auto" (radial when the data provides an exact
    reduction and E0 is a centered ball).
    """
    if not (0.0 < alpha < ids.n):
        raise DomainError(f"need 0 < alpha < n = {ids.n}")
    if L <= 2.0:
        raise DomainError("need L > 2")
    center = np.asarray(e0.get("center", np.zeros(ids.dim)), float)
    radius = float(e0["radius"])
    if radius <= 0:
        raise DomainError("E0 radius must be positive")
    R0 = choose_anchor_radius(ids, alpha, radius if np.allclose(center, 0)
                              else radius + np.linalg.norm(center))
    if mode == "auto":
        mode = ("radial" if ids.radial is not None and np.allclose(center, 0.0)
                else "grid")
    if mode == "radial":
        dom = RadialDomain(ids, radius, h, L, alpha, R0)
    elif mode == "grid":
        from .grid import GridDomain
        dom = GridDomain(ids, center, radius, h, L, alpha, R0)
    else:
        raise DomainError(f"unknown domain mode '{mode}'")
    sep = dom.r_out - radius
    if sep <= 2.0:
        raise DomainError(
            f"outer boundary too close to E0 (separation {sep:.2f} <= 2); raise L")
    return dom
