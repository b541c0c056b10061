"""Reference CDF gap: both measures' CDFs searched at every grid point.

Test oracle for `measures._cdf_gap`, which reads the longer measure's CDF
off the merge instead, and so for `measures.ks_distance` and
`measures.w1_distance`, which must return the same floats bit for bit.
"""

import numpy as np

from friendbias.measures import EmpiricalMeasure


def cdf_gap_searched(a: EmpiricalMeasure, b: EmpiricalMeasure):
    u, v = a.values, b.values
    if u.size < v.size:
        u, v = v, u   # inserting the shorter array into the longer is cheaper
    pos = np.searchsorted(u, v)
    new = u[np.minimum(pos, u.size - 1)] != v
    grid = np.insert(u, pos[new], v[new])
    return grid, np.abs(a.cdf(grid) - b.cdf(grid))


def ks_distance_searched(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    _, gap = cdf_gap_searched(a, b)
    return float(np.max(gap))


def w1_distance_searched(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    grid, gap = cdf_gap_searched(a, b)
    if grid.size < 2:
        return 0.0
    return float((gap[:-1] * np.diff(grid)).sum())
