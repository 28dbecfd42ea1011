"""Blowdown comparison, the large-time check of the weak flow (criterion 7).

The blowdown resamples the single recorded solution, u_lambda(y) = u(y /
lambda), against the expanding-sphere profile n ln|y| on a fixed annulus.
The measured error has a numerical floor from the finite regularization
(the eps tail shifts arrival times by O((eps/lambda)^2) across the annulus),
which the comparison reports alongside the errors.
"""

import numpy as np

from .weak_flow import FlowError


DEFAULT_ANNULUS = (1.0, 3.0)
# the outer truncation affects arrival times only within O(eps) of the
# plateau value; a quarter flow-time unit of clearance is generous
BLOWDOWN_VALUE_MARGIN = 0.25
BLOWDOWN_SAMPLES = 512


class BlowdownTrace:
    def __init__(self, scales, errors, normalizations, floor):
        self.scales = np.asarray(scales, float)
        self.errors = np.asarray(errors, float)
        self.normalizations = np.asarray(normalizations, float)
        self.floor = np.asarray(floor, float)

    def nonincreasing(self):
        """Strict decrease of the error trace, ignoring comparisons where
        both entries sit at the numerical floor."""
        e = self.errors
        for k in range(1, len(e)):
            if e[k] <= self.floor[k] and e[k - 1] <= max(
                    self.floor[k - 1], self.floor[k]):
                continue
            if e[k] >= e[k - 1]:
                return False
        return True


def _sample_u(rec, points_radii):
    dom = rec.domain
    dom.require_radial("blowdown sampling")
    return np.interp(points_radii, dom.r, np.maximum.accumulate(rec.u))


def blowdown_covers(rec, lam):
    """Whether the domain covers DEFAULT_ANNULUS pulled back by the scale
    `lam`: u at |x| = DEFAULT_ANNULUS[1] / lam stays BLOWDOWN_VALUE_MARGIN
    below the boundary value, clear of the outer truncation."""
    u = _sample_u(rec, np.array([DEFAULT_ANNULUS[1] / lam]))[0]
    return bool(u <= rec.solution.bc - BLOWDOWN_VALUE_MARGIN + 1e-9)


def blowdown_compare(rec, scales):
    """sup over DEFAULT_ANNULUS of |u^lambda - c_lambda - n ln|y|| per scale,
    on BLOWDOWN_SAMPLES radii.

    c_lambda is the sup of |u^lambda| on the unit sphere (the paper's
    normalization).  Raises FlowError unless ``blowdown_covers`` holds at
    the smallest scale.
    """
    dom = rec.domain
    scales = np.asarray(sorted(scales, reverse=True), float)
    if not blowdown_covers(rec, scales.min()):
        raise FlowError(
            f"domain radius insufficient: blowdown needs clean data out to "
            f"|x| = {DEFAULT_ANNULUS[1] / scales.min():.3g}")
    rho = np.linspace(DEFAULT_ANNULUS[0], DEFAULT_ANNULUS[1], BLOWDOWN_SAMPLES)
    errors, cs, floors = [], [], []
    n = rec.ids.n
    for lam in scales:
        vals = _sample_u(rec, rho / lam)
        c_lam = abs(_sample_u(rec, np.array([1.0 / lam]))[0])
        err = np.max(np.abs(vals - c_lam - n * np.log(rho)))
        errors.append(float(err))
        cs.append(float(c_lam))
        floors.append(10.0 * (rec.eps_last / lam) ** 2
                      + 0.5 * dom.h ** 2 * lam ** 0)
    return BlowdownTrace(scales, errors, cs, floors)
