"""Stationary distributions, stationary biases and mixing diagnostics.

The simple walk on a graph without self-loops or isolated vertices has the
degree-proportional stationary law pi(i) = d_i / sum_j d_j; the lazy walk
shares it, and on each connected component the lazy walk converges to the
per-component analogue. The non-backtracking edge chain is doubly
stochastic, so uniform-on-half-edges is stationary there.

Mixing is quantified by the worst-case total variation distance to the
stationary law over start states, tracked level by level. For graphs with
many states the worst case may be taken over a deterministic subsample of
starts (`starts_cap`), which is recorded in the profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import Graph, PreconditionError, analyze_components
from .kernels import DistVector, SizeGuardError, WalkOperator
from .measures import EmpiricalMeasure

DEFAULT_EPS = (0.25, 0.01, 1e-4)

# beyond this many exact start states a subsample must be requested
MAX_EXACT_STATES = 4096
# largest dense states x starts float64 batch a mixing computation allocates
MAX_DENSE_BYTES = 1 << 28
# bytes of one column block of that batch: each level pushes a block, and
# the few same-size temporaries of its push, while they sit in cache
BLOCK_BYTES = 1 << 20


def _stationary_degrees(g: Graph) -> np.ndarray:
    """The float degrees, which every stationary law here is built from; a
    graph with an isolated vertex has none."""
    if g.n == 0 or int(g.degrees.min()) == 0:
        raise PreconditionError("stationary law undefined: isolated vertex present")
    return g.degrees_float


def pi_vertex(g: Graph) -> DistVector:
    """Degree-proportional stationary law of the simple / lazy walk."""
    degf = _stationary_degrees(g)
    return DistVector("vertices", degf / degf.sum())


def stationary_bias(g: Graph, scope: str = "global") -> EmpiricalMeasure:
    """Empirical distribution of stationary friendship biases.

    Global scope: bias_i = sum_j pi(j) d_j - d_i, i.e. the ratio of the
    second to the first degree moment minus d_i. Component scope replaces
    the moment ratio by that of the component containing i, which is the
    long-level limit of the lazy walk on disconnected graphs.
    """
    if scope not in ("global", "component"):
        raise ValueError(f"unknown scope {scope!r}")
    degf = _stationary_degrees(g)
    if scope == "global":
        ratio = float((degf * degf).sum() / degf.sum())
        deltas = ratio - degf
    else:
        info = analyze_components(g)
        comp = info.component_id
        d2 = np.bincount(comp, weights=degf * degf)
        d1 = np.asarray(info.degree_sums, dtype=np.float64)
        deltas = (d2 / d1)[comp] - degf
    m = EmpiricalMeasure.from_values(deltas, meta={"n": g.n, "scope": scope,
                                                   "kind": "stationary"})
    m.meta["mean_bias"] = m.mean()
    return m


def tv_distance(a: DistVector, b: DistVector) -> float:
    """Total variation distance between two laws on the same support."""
    if a.kind != b.kind or a.weights.size != b.weights.size:
        raise ValueError("total variation needs matching supports")
    return 0.5 * float(np.abs(a.weights - b.weights).sum())


def _pi_states(op: WalkOperator) -> DistVector:
    """Stationary law on the operator's states."""
    if op.kind == "nb":
        return DistVector.uniform("edges", op.states)
    return pi_vertex(op.g)


def stationarity_residual(g: Graph, kind: str, delta: float = 0.5) -> float:
    """TV distance between the stationary law and its one-step push."""
    op = WalkOperator(g, kind, delta)
    pi = _pi_states(op)
    return tv_distance(DistVector(op.support, op.push(pi.weights)), pi)


@dataclass
class MixingProfile:
    """Worst-case TV distance to stationarity per level, with threshold
    crossings. For the nb kind `D_values` lives on the edge chain and
    `D_vertex_values` carries the projected vertex-level curve."""

    kind: str
    k_values: list[int]
    D_values: list[float]
    eps_list: tuple
    crossings: dict
    flagged_nonergodic: bool
    states: int
    starts_used: int
    D_vertex_values: list[float] | None = None


def _pick_starts(n_states: int, starts_cap) -> np.ndarray:
    if starts_cap is None or starts_cap >= n_states:
        if starts_cap is None and n_states > MAX_EXACT_STATES:
            raise ValueError(
                f"{n_states} start states exceeds the exact limit "
                f"{MAX_EXACT_STATES}; pass starts_cap for a subsampled profile")
        return np.arange(n_states, dtype=np.int64)
    return np.unique(np.round(np.linspace(0, n_states - 1,
                                          int(starts_cap))).astype(np.int64))


def _worst_tv(W: np.ndarray, pi: np.ndarray, pairwise: bool) -> float:
    """The largest TV distance between a column of the (states, starts)
    batch W and pi.

    Each column's sum keeps the float order the reference outputs depend
    on: pairwise over a contiguous row of states for vertex laws (bt,
    lazy and the nb projection), states added one by one for the nb edge
    chain. So the pairwise case first writes W - pi as a C-ordered
    (starts, states) array, in place of a transposed copy.
    """
    if pairwise:
        d = np.empty(W.shape[::-1])
        np.subtract(W.T, pi, out=d)
        np.abs(d, out=d)
        return 0.5 * float(d.sum(axis=1).max())
    return 0.5 * float(np.abs(W - pi[:, None]).sum(axis=0).max())


def _column_blocks(starts: np.ndarray, states: int) -> list[np.ndarray]:
    """Split the start states into consecutive column blocks of about
    BLOCK_BYTES each, and of at least two columns.

    No block is one column wide unless the whole batch is: numpy sums a
    contiguous (states, 1) array pairwise down axis 0, not state by state
    as `_worst_tv` needs for the nb edge chain. So a one-column remainder
    joins the block before it.
    """
    width = max(2, BLOCK_BYTES // (8 * states))
    cuts = list(range(width, starts.size, width))
    if cuts and starts.size - cuts[-1] == 1:
        cuts.pop()
    return np.split(starts, cuts)


def _step_blocks(blocks: list, step, tv) -> float:
    """Replace each block by step(block) and return the largest tv(block).

    Columns never mix and the max is exact, so this equals tv of the
    whole stepped batch bit for bit.
    """
    worst = 0.0
    for i in range(len(blocks)):
        blocks[i] = step(blocks[i])
        worst = max(worst, tv(blocks[i]))
    return worst


def _tv_levels(op: WalkOperator, k_max: int, starts_cap, vertex_curve: bool):
    """Yield (k, D_k, vertex D_k or None) for k = 1..k_max: the worst-case
    TV distance to stationarity over the picked start states, and for nb
    with `vertex_curve` the same over start vertices after projection.

    The dense batches are refused before allocation when they would exceed
    MAX_DENSE_BYTES. They are held as column blocks (`_column_blocks`), so
    no level ever builds a whole batch.
    """
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
    W = []
    for block in _column_blocks(starts, op.states):
        w = np.zeros((op.states, block.size))
        w[block, np.arange(block.size)] = 1.0
        W.append(w)
    V = []
    if v_starts.size:
        # the k-step vertex law projects the lift after k-1 edge pushes
        for block in _column_blocks(v_starts, op.states):
            v = np.zeros((op.states, block.size))
            for col, s in enumerate(block):
                v[:, col] = op.lift(int(s))
            V.append(v)
        pi_v = pi_vertex(g).weights
    pairwise = op.kind != "nb"
    for k in range(1, k_max + 1):
        d = _step_blocks(W, op.push, lambda w: _worst_tv(w, pi, pairwise))
        d_vertex = None
        if V:
            d_vertex = _step_blocks(
                V, op.push if k > 1 else (lambda v: v),
                lambda v: _worst_tv(op.to_vertices(v), pi_v, pairwise=True))
        yield k, d, d_vertex


def mixing_profile(g: Graph, kind: str, k_max: int,
                   eps_list=DEFAULT_EPS, delta: float = 0.5,
                   starts_cap=None) -> MixingProfile:
    """Worst-case TV distance to stationarity for k = 1..k_max.

    bt expects a connected non-bipartite graph and lazy a connected one for
    the distances to vanish; a chain that never gets below 0.99 by k_max is
    flagged in the profile rather than raised. For nb, distances are
    measured on the directed-edge chain (start = each half-edge) against
    uniform, and additionally projected to vertices against the
    degree-proportional law.
    """
    op = WalkOperator(g, kind, delta)
    eps_list = tuple(eps_list)
    levels = list(_tv_levels(op, k_max, starts_cap, vertex_curve=True))
    ks = [k for k, _, _ in levels]
    Ds = [dv for _, dv, _ in levels]
    D_vertex = [dv for _, _, dv in levels] if kind == "nb" else None

    crossings = {}
    for eps in eps_list:
        hit = next((k for k, dv in zip(ks, Ds) if dv <= eps), None)
        crossings[eps] = hit
    flagged = bool(min(Ds) >= 0.99) if Ds else True
    return MixingProfile(kind=kind, k_values=ks, D_values=Ds,
                         eps_list=eps_list, crossings=crossings,
                         flagged_nonergodic=flagged, states=op.states,
                         starts_used=int(_pick_starts(op.states,
                                                      starts_cap).size),
                         D_vertex_values=D_vertex)


def mixing_time(g: Graph, kind: str, eps: float, k_max: int,
                delta: float = 0.5, starts_cap=None) -> int | None:
    """The first k in 1..k_max where the worst-case TV distance to
    stationarity is at most eps, or None; it stops stepping there.

    Equals mixing_profile(g, kind, k_max, (eps,), delta,
    starts_cap).crossings.get(eps), without the nb vertex curve.
    """
    op = WalkOperator(g, kind, delta)
    for k, dv, _ in _tv_levels(op, k_max, starts_cap, vertex_curve=False):
        if dv <= eps:
            return k
    return None
