"""Reference Levy bisection: every atom of both measures at every step.

Test oracle for `measures.levy_distance`, which tests only the atoms that
may still violate and must return the same float bit for bit.
"""

import numpy as np

from friendbias.measures import LEVY_RESOLUTION, EmpiricalMeasure


def levy_distance_full(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    # everything that does not depend on eps is computed once per call
    fa_at, fb_at = a.cdf(a.values), b.cdf(b.values)
    cum_a = np.concatenate(([0.0], np.cumsum(a.weights)))
    cum_b = np.concatenate(([0.0], np.cumsum(b.weights)))

    def feasible(eps: float) -> bool:
        fb_shift = cum_b[np.searchsorted(b.values, a.values + eps, side="right")]
        if np.any(fa_at > fb_shift + eps + 1e-15):
            return False
        fa_shift = cum_a[np.searchsorted(a.values, b.values + eps, side="right")]
        return not np.any(fb_at > fa_shift + eps + 1e-15)

    if feasible(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > LEVY_RESOLUTION:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi
