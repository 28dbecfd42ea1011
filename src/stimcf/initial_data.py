"""Initial data sets (M, g, K): presets, grid import, and the checks of the
data's hypotheses.

Data sets live in an asymptotic chart on R^(n+1).  The metric g and the
symmetric 2-tensor K are exposed as vectorized callables; presets also carry
a 1D radial reduction used by the spherically symmetric reference solvers.

``InitialDataSet.validate`` checks the hypotheses on one sample, SAMPLE_DIRS
random directions on 8 shells: symmetry, positivity and maximality
(tr_g K = 0) are enforced, and asymptotic flatness (the fall-off of
g - delta and K with their derivatives) is measured on the shells in the
asymptotic chart and returned, for ``stimcf flow`` to report.
``constraint_densities`` gives the energy and momentum densities at points.
"""

import io
import numpy as np

# analytic data pass maximality to ~machine zero; sampled grids get slack
TOL_MAX_ANALYTIC = 1e-10
TOL_MAX_GRID = 1e-6
# sample points of the type and decay checks: random directions on 8 shells
SAMPLE_DIRS = 24
SAMPLE_SEED = 7
# step of the centred differences of g and K (decay and constraint checks)
FD_STEP = 1e-4


class InitialDataError(ValueError):
    pass


def _as_points(x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    return x


def inverse_and_det(g):
    """(g^-1, det g) of a stack of (m, d, d) matrices with d <= 3.

    Both come from the cofactors: C[i, j] = g[i+1, j+1] g[i+2, j+2] -
    g[i+1, j+2] g[i+2, j+1] with indices mod 3 (and the signed 2 x 2
    minors for d = 2), det g = g[0] . C[0] and g^-1 = C^T / det g.
    """
    g = np.asarray(g, dtype=float)
    d = g.shape[-1]
    if d == 1:
        cof = np.ones_like(g)
    elif d == 2:
        cof = g[..., ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    elif d == 3:
        # one entry at a time from plain slices, no fancy-index copies, in
        # the layout those copies had (row and column axes outermost): the
        # det sum and every later reduction over g^-1 keep their bits
        i1, i2 = (1, 2, 0), (2, 0, 1)
        cof = np.moveaxis(np.empty((3, 3) + g.shape[:-2]), (0, 1), (-1, -2))
        for r in range(3):
            for c in range(3):
                cof[..., r, c] = (g[..., i1[r], i1[c]] * g[..., i2[r], i2[c]]
                                  - g[..., i1[r], i2[c]] * g[..., i2[r], i1[c]])
    else:
        raise InitialDataError(f"closed-form inverse needs d <= 3, got {d}")
    det = np.einsum('...j,...j->...', g[..., 0, :], cof[..., 0, :])
    return np.swapaxes(cof, -1, -2) / det[..., None, None], det


class InitialDataSet:
    """The triple (M, g, K) in an asymptotic chart.

    Parameters
    ----------
    n : int
        Hypersurface dimension; the chart is R^(n+1).
    metric, second_form : callable
        Vectorized maps from points (m, n+1) to symmetric (m, n+1, n+1)
        arrays of metric / second fundamental form components.
    chart_radius : float
        Radius beyond which the coordinates are the asymptotic chart.
    decay_eps : float
        Decay exponent epsilon in (0, 1/2] of the fall-off conditions.
    radial : RadialData or None
        Exact 1D reduction for spherically symmetric data (see below).
    """

    def __init__(self, n, metric, second_form, chart_radius=1.0,
                 decay_eps=0.5, radial=None, analytic=True,
                 inner_radius=0.05):
        if n < 1:
            raise InitialDataError("need hypersurface dimension n >= 1")
        if not (0.0 < decay_eps <= 0.5):
            raise InitialDataError("decay exponent must lie in (0, 1/2]")
        self.n = int(n)
        self.dim = self.n + 1
        self._metric = metric
        self._second_form = second_form
        self.chart_radius = float(chart_radius)
        self.decay_eps = float(decay_eps)
        self.radial = radial
        self.inner_radius = float(inner_radius)
        self.tol_max = TOL_MAX_ANALYTIC if analytic else TOL_MAX_GRID

    # -- field evaluation ------------------------------------------------

    def metric(self, x):
        g = self._metric(_as_points(x))
        return g

    def second_form(self, x):
        return self._second_form(_as_points(x))

    def inverse_metric(self, x):
        return inverse_and_det(self.metric(x))[0]

    def validate(self):
        """Check the type invariants on the samples and measure the decay.

        Symmetry, positive definiteness and maximality are hypotheses of
        every run: a violation raises InitialDataError.  Asymptotic flatness
        is measured, not enforced: returns ``{clause: (fitted slope,
        passed)}`` for the fall-off clauses of ``_decay`` on the sample
        shells at or beyond chart_radius.
        """
        points = self.sample_points()
        g = self.metric(points)
        K = self.second_form(points)
        if not np.allclose(g, np.swapaxes(g, -1, -2), atol=1e-12):
            raise InitialDataError("metric samples are not symmetric")
        if not np.allclose(K, np.swapaxes(K, -1, -2), atol=1e-12):
            raise InitialDataError("second fundamental form samples are not symmetric")
        eig = np.linalg.eigvalsh(g)
        if np.min(eig) <= 0.0:
            raise InitialDataError("metric is not positive definite at a sample")
        tr = self.max_abs_trace(points)
        if tr > self.tol_max:
            raise InitialDataError(
                f"data violates maximality: sup|tr_g K| = {tr:.3e} > {self.tol_max:.1e}")
        return _decay(self, points, K)

    def _sample_radii(self):
        return np.geomspace(max(self.inner_radius * 1.5, 0.2),
                            max(8.0, 2 * self.chart_radius), 8)

    def sample_points(self):
        """SAMPLE_DIRS random directions on each of the 8 shells of
        ``_sample_radii``, shell by shell."""
        rng = np.random.default_rng(SAMPLE_SEED)
        radii = self._sample_radii()
        dirs = rng.normal(size=(SAMPLE_DIRS, self.dim))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        return (radii[:, None, None] * dirs[None, :, :]).reshape(-1, self.dim)

    def max_abs_trace(self, points=None):
        """sup over samples of |tr_g K| (maximality diagnostic)."""
        if points is None:
            points = self.sample_points()
        ginv = self.inverse_metric(points)
        K = self.second_form(points)
        tr = np.einsum('mij,mij->m', ginv, K)
        return float(np.max(np.abs(tr)))


class RadialData:
    """Exact radial reduction: g = a(r)^2 dr^2 + (b(r) r)^2 dOmega_n^2.

    K is diagonal in the orthonormal frame with radial eigenvalue kappa_r(r)
    carried by e_r and tangential eigenvalue -kappa_r(r) on one of the n
    sphere directions (zero on the rest), which keeps tr_g K = 0 exactly.
    da, db and dkappa_r are the exact r-derivatives of a, b and kappa_r.
    """

    def __init__(self, a, b, kappa_r, da, db, dkappa_r, r_min=1e-6):
        self.a = a
        self.b = b
        self.kappa_r = kappa_r
        self.da = da
        self.db = db
        self.dkappa_r = dkappa_r
        self.r_min = float(r_min)


# -- presets -------------------------------------------------------------

def _flat_metric(dim):
    def g(x):
        m = len(x)
        return np.broadcast_to(np.eye(dim), (m, dim, dim)).copy()
    return g


def _zero_form(dim):
    def K(x):
        return np.zeros((len(x), dim, dim))
    return K


def _aniso_k_scalar(r):
    return 6.0 / (1.0 + r ** 6)


def _aniso_form(x):
    # k(r) (e_r ox e_r - e_theta ox e_theta); e_theta is the polar unit
    # direction, discontinuous on the z-axis (the tensor is only defined
    # off the axis; on it we fall back to a fixed transverse direction).
    x = _as_points(x)
    r = np.linalg.norm(x, axis=1)
    r = np.maximum(r, 1e-300)
    er = x / r[:, None]
    zhat = np.zeros_like(x)
    zhat[:, 2] = 1.0
    et = zhat - er * er[:, 2][:, None]
    nt = np.linalg.norm(et, axis=1)
    on_axis = nt < 1e-12
    if np.any(on_axis):
        et[on_axis] = np.array([1.0, 0.0, 0.0])
        et[on_axis] -= er[on_axis] * er[on_axis, 0][:, None]
        nt = np.linalg.norm(et, axis=1)
    et /= np.maximum(nt, 1e-300)[:, None]
    k = _aniso_k_scalar(r)
    K = (np.einsum('m,mi,mj->mij', k, er, er)
         - np.einsum('m,mi,mj->mij', k, et, et))
    return K


def _schwarzschild_conformal(m):
    def phi(r):
        return 1.0 + m / (2.0 * r)

    def g(x):
        x = _as_points(x)
        r = np.maximum(np.linalg.norm(x, axis=1), 1e-300)
        f = phi(r) ** 4
        return f[:, None, None] * np.eye(x.shape[1])[None, :, :]
    return g, phi


def build_preset(name, **params):
    """Construct a named initial data set.

    Supported: ``flat`` (param n, default 2), ``schwarzschild_isotropic``
    (params m > 0, n = 2), ``paper_anisotropic`` (n = 2, flat metric with the
    trapped-sphere K field).  Data sampled on a grid comes from
    ``load_grid_data``.
    """
    if name == "flat":
        n = int(params.get("n", 2))
        dim = n + 1
        radial = RadialData(a=lambda r: np.ones_like(np.asarray(r, float)),
                            b=lambda r: np.ones_like(np.asarray(r, float)),
                            kappa_r=lambda r: np.zeros_like(np.asarray(r, float)),
                            da=lambda r: np.zeros_like(np.asarray(r, float)),
                            db=lambda r: np.zeros_like(np.asarray(r, float)),
                            dkappa_r=lambda r: np.zeros_like(np.asarray(r, float)))
        return InitialDataSet(n, _flat_metric(dim), _zero_form(dim),
                              chart_radius=1.0, radial=radial)
    if name == "schwarzschild_isotropic":
        m = float(params.get("m", 1.0))
        if m <= 0:
            raise InitialDataError("mass must be positive")
        n = 2
        g, phi = _schwarzschild_conformal(m)
        p2 = lambda r: phi(np.asarray(r, float)) ** 2
        dp2 = lambda r: 2 * phi(np.asarray(r, float)) * (-m / (2 * np.asarray(r, float) ** 2))
        zero = lambda r: np.zeros_like(np.asarray(r, float))
        radial = RadialData(a=p2, b=p2, kappa_r=zero,
                            da=dp2, db=dp2, dkappa_r=zero,
                            r_min=1e-3)
        return InitialDataSet(n, g, _zero_form(3),
                              chart_radius=max(1.0, 2 * m), radial=radial,
                              inner_radius=m / 8)
    if name == "paper_anisotropic":
        n = 2
        one = lambda r: np.ones_like(np.asarray(r, float))
        zero = lambda r: np.zeros_like(np.asarray(r, float))
        kfun = lambda r: _aniso_k_scalar(np.asarray(r, float))
        dk = lambda r: -36.0 * np.asarray(r, float) ** 5 / (1.0 + np.asarray(r, float) ** 6) ** 2
        radial = RadialData(a=one, b=one, kappa_r=kfun,
                            da=zero, db=zero, dkappa_r=dk)
        return InitialDataSet(n, _flat_metric(3), _aniso_form,
                              chart_radius=1.0, radial=radial)
    raise InitialDataError(f"unknown preset '{name}'")


# -- grid-backed data and its file format ---------------------------------

GRID_MAGIC = "stimcf-initial-data v1"


def save_grid_data(path, origin, spacing, g_samples, k_samples,
                   decay_eps=0.5, chart_radius=1.0):
    """Write a grid data file: text header, then row-major float64 arrays.

    Header lines are ``key value...``; the binary payload holds the metric
    components followed by the K components, both shaped
    (*grid_shape, dim, dim) in C order.
    """
    g_samples = np.asarray(g_samples, float)
    k_samples = np.asarray(k_samples, float)
    shape = g_samples.shape[:-2]
    dim = g_samples.shape[-1]
    if g_samples.shape != shape + (dim, dim) or k_samples.shape != g_samples.shape:
        raise InitialDataError("g and K sample arrays must share shape (*grid, dim, dim)")
    with open(path, "wb") as fh:
        head = io.StringIO()
        head.write(GRID_MAGIC + "\n")
        head.write(f"dim {dim}\n")
        head.write("shape " + " ".join(str(s) for s in shape) + "\n")
        head.write("origin " + " ".join(repr(float(v)) for v in origin) + "\n")
        head.write("spacing " + repr(float(spacing)) + "\n")
        head.write(f"decay_eps {decay_eps!r}\n")
        head.write(f"chart_radius {chart_radius!r}\n")
        head.write("data g K row-major float64\n")
        head.write("end\n")
        fh.write(head.getvalue().encode())
        fh.write(g_samples.astype("<f8").tobytes(order="C"))
        fh.write(k_samples.astype("<f8").tobytes(order="C"))


def load_grid_data(path):
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise InitialDataError(str(exc))
    with fh:
        magic = fh.readline().decode().strip()
        if magic != GRID_MAGIC:
            raise InitialDataError(f"not a grid data file: {path}")
        meta = {}
        while True:
            line = fh.readline().decode().strip()
            if line == "end":
                break
            key, _, rest = line.partition(" ")
            meta[key] = rest
        dim = int(meta["dim"])
        shape = tuple(int(s) for s in meta["shape"].split())
        origin = np.array([float(v) for v in meta["origin"].split()])
        spacing = float(meta["spacing"])
        count = int(np.prod(shape)) * dim * dim
        g = np.frombuffer(fh.read(count * 8), dtype="<f8").reshape(shape + (dim, dim))
        K = np.frombuffer(fh.read(count * 8), dtype="<f8").reshape(shape + (dim, dim))
    if not np.allclose(g, np.swapaxes(g, -1, -2)):
        raise InitialDataError("grid file holds a non-symmetric metric")
    if not np.allclose(K, np.swapaxes(K, -1, -2)):
        raise InitialDataError("grid file holds a non-symmetric K")
    interp_g = _GridInterpolant(origin, spacing, g)
    interp_k = _GridInterpolant(origin, spacing, K)
    return InitialDataSet(dim - 1, interp_g, interp_k,
                          chart_radius=float(meta.get("chart_radius", 1.0)),
                          decay_eps=float(meta.get("decay_eps", 0.5)),
                          analytic=False)


class _GridInterpolant:
    """Multilinear interpolation of tensor samples on a uniform grid."""

    def __init__(self, origin, spacing, values):
        self.origin = np.asarray(origin, float)
        self.h = float(spacing)
        self.values = values
        self.shape = values.shape[:-2]

    def __call__(self, x):
        x = _as_points(x)
        t = (x - self.origin) / self.h
        lo = np.floor(t).astype(int)
        for ax, size in enumerate(self.shape):
            lo[:, ax] = np.clip(lo[:, ax], 0, size - 2)
        w = t - lo
        d = x.shape[1]
        out = 0.0
        for corner in range(2 ** d):
            bits = [(corner >> k) & 1 for k in range(d)]
            idx = tuple(lo[:, k] + bits[k] for k in range(d))
            weight = np.ones(len(x))
            for k in range(d):
                weight *= w[:, k] if bits[k] else (1.0 - w[:, k])
            out = out + weight[:, None, None] * self.values[idx]
        return out


# -- diagnostics -----------------------------------------------------------

def _fd_metric_derivs(ids, x):
    """Centered first and second derivatives of g at points x."""
    h = FD_STEP
    x = _as_points(x)
    d = ids.dim
    g0 = ids.metric(x)
    dg = np.zeros((len(x), d, d, d))
    d2g = np.zeros((len(x), d, d, d, d))
    shifts = np.eye(d) * h
    gp, gm = [], []
    for c in range(d):
        gp.append(ids.metric(x + shifts[c]))
        gm.append(ids.metric(x - shifts[c]))
        dg[:, :, :, c] = (gp[c] - gm[c]) / (2 * h)
        d2g[:, :, :, c, c] = (gp[c] - 2 * g0 + gm[c]) / h ** 2
    for c in range(d):
        for e in range(c + 1, d):
            gpp = ids.metric(x + shifts[c] + shifts[e])
            gpm = ids.metric(x + shifts[c] - shifts[e])
            gmp = ids.metric(x - shifts[c] + shifts[e])
            gmm = ids.metric(x - shifts[c] - shifts[e])
            mixed = (gpp - gpm - gmp + gmm) / (4 * h ** 2)
            d2g[:, :, :, c, e] = mixed
            d2g[:, :, :, e, c] = mixed
    return g0, dg, d2g


def _fd_form_derivs(ids, x):
    h = FD_STEP
    x = _as_points(x)
    d = ids.dim
    dK = np.zeros((len(x), d, d, d))
    shifts = np.eye(d) * h
    for c in range(d):
        dK[:, :, :, c] = (ids.second_form(x + shifts[c])
                          - ids.second_form(x - shifts[c])) / (2 * h)
    return dK


def constraint_densities(ids, point):
    """Energy and momentum densities and the DEC margin at a point.

    Returns (mu, J_vector, dec_margin) with mu = (R + (tr K)^2 - |K|^2)/16pi,
    J = div_g(K - tr K g)/8pi and margin mu - |J|_g.  A negative margin is a
    dominant-energy-condition violation and is the caller's to report.  The
    derivatives of g and K are centred differences with step FD_STEP.
    """
    x = _as_points(point)
    g, dg, d2g = _fd_metric_derivs(ids, x)
    ginv = inverse_and_det(g)[0]
    K = ids.second_form(x)
    dK = _fd_form_derivs(ids, x)
    # Christoffel symbols Gamma^d_{bc} = g^{da} Gamma_{abc},
    # Gamma_{abc} = (g_{ab,c} + g_{ac,b} - g_{bc,a})/2
    low = 0.5 * (dg + np.einsum('macb->mabc', dg) - np.einsum('mbca->mabc', dg))
    Gam = np.einsum('mda,mabc->mdbc', ginv, low)
    # scalar curvature: derivative of Gamma via second derivatives of g
    # (product rule, with d(ginv) = -ginv dg ginv)
    dlow = 0.5 * (np.einsum('mabce->mabce', d2g)
                  + np.einsum('macbe->mabce', d2g)
                  - np.einsum('mbcae->mabce', d2g))
    dginv = -np.einsum('mda,mabe,mbc->mdce', ginv, dg, ginv)
    dGam = (np.einsum('mdae,mabc->mdbce', dginv, low)
            + np.einsum('mda,mabce->mdbce', ginv, dlow))
    # Ric_{bc} = dGam^a_{bc,a} - dGam^a_{ba,c} + G^a_{ae}G^e_{bc} - G^a_{ce}G^e_{ba}
    ric = (np.einsum('mabca->mbc', dGam)
           - np.einsum('mabac->mbc', dGam)
           + np.einsum('maae,mebc->mbc', Gam, Gam)
           - np.einsum('mace,meba->mbc', Gam, Gam))
    R = np.einsum('mbc,mbc->m', ginv, ric)
    trK = np.einsum('mij,mij->m', ginv, K)
    Ksq = np.einsum('mia,mjb,mij,mab->m', ginv, ginv, K, K)
    mu = (R + trK ** 2 - Ksq) / (16 * np.pi)
    # pi_{ij} = K_ij - trK g_ij ; (div pi)_j = g^{ia} nabla_a pi_{ij}
    dtrK = (np.einsum('mij,mija->ma', ginv, dK)
            - np.einsum('mia,mabe,mbj,mij->me', ginv, dg, ginv, K))
    dpi = dK - np.einsum('ma,mij->mija', dtrK, g) - np.einsum('m,mija->mija', trK, dg)
    covdiv = (np.einsum('mia,mija->mj', ginv, dpi)
              - np.einsum('mia,meai,mej->mj', ginv, Gam, K - trK[:, None, None] * g)
              - np.einsum('mia,meaj,mie->mj', ginv, Gam, K - trK[:, None, None] * g))
    J = covdiv / (8 * np.pi)
    Jnorm = np.sqrt(np.einsum('mij,mi,mj->m', ginv, J, J))
    return mu, J, mu - Jnorm


def _decay(ids, points, K):
    """{clause: (fitted slope, passed)} of the fall-off conditions on the
    shells of ``points`` (the ``sample_points``, K the second form there)
    at or beyond the chart radius.

    The clauses are r^k sup|d^k (g - delta)|, k = 0, 1, 2, at the required
    rate r^-(n - 3/2 + eps), and r^k sup|d^k K|, k = 0, 1, at r^-(n - 1/2 +
    eps).  A clause passes when the log-log slope of its shell sups is at
    most its rate plus 0.25.  A sup at the rounding level of its centred
    difference, eps sup|f| (2 / FD_STEP)^k on its shell, counts as zero;
    with every sup zero the slope is -inf, and one shell gives no slope.
    """
    radii = ids._sample_radii()
    far = radii >= ids.chart_radius
    r = radii[far]
    d = ids.dim
    x = points.reshape(len(radii), -1, d)[far].reshape(-1, d)
    g, dg, d2g = _fd_metric_derivs(ids, x)
    K = K.reshape(len(radii), -1, d, d)[far]
    dK = _fd_form_derivs(ids, x)

    def shell_sup(f):
        return np.abs(f).reshape(len(r), -1).max(axis=1)

    x_log = np.log(r) - np.mean(np.log(r))
    metric_rate = ids.n - 1.5 + ids.decay_eps
    form_rate = metric_rate + 1.0
    out = {}
    for key, f, scale, k, rate in [
            ("g_minus_delta", g - np.eye(d), g, 0, metric_rate),
            ("r_dg", dg, g, 1, metric_rate),
            ("r2_d2g", d2g, g, 2, metric_rate),
            ("K", K, K, 0, form_rate),
            ("r_dK", dK, K, 1, form_rate)]:
        sups = shell_sup(f)
        sups[sups <= np.finfo(float).eps * shell_sup(scale)
             * (2 / FD_STEP) ** k] = 0.0
        if not np.any(sups):
            slope = -np.inf
        elif len(r) < 2:
            slope = np.nan
        else:   # least squares, in closed form
            y = np.log(np.maximum(r ** k * sups, 1e-300))
            slope = float(x_log @ y / (x_log @ x_log))
        out[key] = (slope, slope <= -rate + 0.25)
    return out
