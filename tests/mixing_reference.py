"""Reference mixing levels on row-major batches: one law per row.

Test oracle for `stationary._tv_levels`, which holds its batches as
(states, starts) and must return the same floats bit for bit. The walk
steps below act on the last axis of a (starts, states) batch and read the
operator's own `_VertexSums` layout; each TV sum runs pairwise over a
C-contiguous row of states.
"""

import numpy as np

from friendbias.kernels import SizeGuardError, WalkOperator
from friendbias.stationary import (MAX_DENSE_BYTES, _pi_states, _pick_starts,
                                   pi_vertex)


def _vertex_sums(vs, x: np.ndarray) -> np.ndarray:
    head = x[..., vs.cols[0]]
    if len(vs.cols) > 1:
        rest = x[..., vs.cols[1]]
        for col in vs.cols[2:]:
            rest[..., :col.size] += x[..., col]
        head[..., :rest.shape[-1]] += rest
        del rest
    out = np.empty(x.shape[:-1] + (vs.n,))
    out[..., vs.order] = head
    if vs.long.size:
        out[..., vs.long] = np.add.reduceat(
            x[..., vs.long_via], vs.long_start, axis=-1)
    return out


def push_rows(op: WalkOperator, w: np.ndarray) -> np.ndarray:
    g = op.g
    if op.kind == "nb":
        z = w / op._fanout
        s = _vertex_sums(op._vertex_sums, z)
        twin = np.arange(op.states) ^ 1
        return s[..., g.tails] - z[..., twin]
    z = w / g.degrees_float
    return op._lazy(w, _vertex_sums(op._vertex_sums, z))


def to_vertices_rows(op: WalkOperator, w: np.ndarray) -> np.ndarray:
    if op.kind == "nb":
        return _vertex_sums(op._vertex_sums, w)
    return w


def _worst_tv(W: np.ndarray, pi: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.ascontiguousarray(W) - pi).sum(axis=1).max())


def tv_levels_rows(op: WalkOperator, k_max: int, starts_cap, vertex_curve: bool):
    """Yield (k, D_k, vertex D_k or None) for k = 1..k_max, as
    `stationary._tv_levels` does."""
    g = op.g
    starts = _pick_starts(op.states, starts_cap)
    v_starts = (_pick_starts(g.n, starts_cap)
                if op.kind == "nb" and vertex_curve else np.empty(0, np.int64))
    dense = (starts.size + v_starts.size) * op.states * 8
    if dense > MAX_DENSE_BYTES:
        raise SizeGuardError(
            f"mixing batch of {starts.size + v_starts.size} starts x "
            f"{op.states} states needs {dense} bytes, over the "
            f"{MAX_DENSE_BYTES}-byte limit; lower starts_cap")
    pi = _pi_states(op).weights
    W = np.zeros((starts.size, op.states))
    W[np.arange(starts.size), starts] = 1.0
    V = None
    if v_starts.size:
        # the k-step vertex law projects the lift after k-1 edge pushes
        V = np.zeros((v_starts.size, op.states))
        for row, s in enumerate(v_starts):
            V[row] = op.lift(int(s))
        pi_v = pi_vertex(g).weights
    for k in range(1, k_max + 1):
        W = push_rows(op, W)
        d_vertex = None
        if V is not None:
            if k > 1:
                V = push_rows(op, V)
            d_vertex = _worst_tv(to_vertices_rows(op, V), pi_v)
        yield k, _worst_tv(W, pi), d_vertex
