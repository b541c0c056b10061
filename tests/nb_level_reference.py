"""Reference nb levels on whole arrays, as one array over the half-edges.

Test oracle for `WalkOperator.expect` and `observe` of the nb kind, which
run over blocks of `kernels.EDGE_BLOCK` half-edges and must return the same
floats bit for bit. Here the observable at the heads is one fancy index of
the reversed edge pairs, the pair-swapped y is subtracted from it in place
and the fan-out divided in place.
"""

import numpy as np

from friendbias.kernels import WalkOperator


def observe_one_array(op: WalkOperator, f: np.ndarray) -> np.ndarray:
    """f(head(e)) over the half-edges e."""
    return f[op.g.edges[:, ::-1]].reshape(-1)


def expect_one_array(op: WalkOperator, y: np.ndarray) -> np.ndarray:
    """(t[head(e)] - y[twin(e)]) / fanout[e], t the per-vertex sums of y."""
    g = op.g
    s = observe_one_array(op, np.bincount(g.tails, weights=y, minlength=g.n))
    pairs = s.reshape(-1, 2)
    pairs -= y.reshape(-1, 2)[:, ::-1]
    s /= op._fanout
    return s
