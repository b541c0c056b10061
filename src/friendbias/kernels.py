"""Exact k-level exploration kernels and the friendship biases they induce.

Three explorations are supported on a fixed graph:

* ``bt``   -- simple random walk: each step uniform over the half-edges
  leaving the current vertex (graph must have no self-loops and no isolated
  vertices).
* ``nb``   -- non-backtracking walk, realised as a Markov chain on directed
  half-edges: from half-edge e the next half-edge is uniform over those
  leaving head(e), excluding twin(e). On a simple graph this is the usual
  "never revisit the vertex you just left" rule; on a multigraph only the
  crossed half-edge itself is forbidden. Requires minimum degree 2.
* ``lazy`` -- stays put with probability delta, otherwise steps as ``bt``.

The k-level friendship bias of vertex i is the expected degree of the vertex
occupied after k steps started at i, minus the degree of i. All kernel
arithmetic is 64-bit floating point and nothing renormalises: a DistVector
refuses weights whose sum drifts from 1 beyond measures.WEIGHT_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import measures
from .graph_core import Graph, validate_for_exploration


@dataclass
class DistVector:
    """Probability vector over vertices or directed half-edges."""

    kind: str                 # "vertices" | "edges"
    weights: np.ndarray

    def __post_init__(self):
        if self.kind not in ("vertices", "edges"):
            raise ValueError(f"unknown support kind {self.kind!r}")
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if np.any(self.weights < 0):
            raise ValueError("negative probability weight")
        total = float(self.weights.sum())
        if abs(total - 1.0) > measures.WEIGHT_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1")

    @classmethod
    def point_mass(cls, kind: str, size: int, index: int) -> "DistVector":
        w = np.zeros(size)
        w[index] = 1.0
        return cls(kind, w)

    @classmethod
    def uniform(cls, kind: str, size: int) -> "DistVector":
        return cls(kind, np.full(size, 1.0 / size))


class SizeGuardError(ValueError):
    """An instance exceeds a fixed size guard (oracle enumeration, dense
    mixing batches)."""


# np.add.reduceat adds a segment of up to this many terms in the order
# x0 + (((x1 + x2) + x3) + ...); longer segments switch to pairwise summation
SEQUENTIAL_TERMS = 8


class _VertexSums:
    """Per-vertex sums of x[via[j]] over the CSR segments of `out_start`,
    along axis 0; one law per column. Each column is bit-identical to
    np.add.reduceat(x[via], out_start[:-1]) of that column alone.

    Vertices with at most SEQUENTIAL_TERMS terms are sorted by degree,
    descending, so column j, the j-th term of every such vertex of degree
    > j, covers a prefix of them. A call gathers each column once, adds
    columns 1.. in order into one slice and adds column 0; that is
    reduceat's float order. Longer segments keep reduceat, along the last
    axis, where it sums each segment pairwise, and their sums follow the
    others. One gather through `position` puts every sum at its vertex; on
    a 16000 x 8 block of a mixing batch it took about 100 us, where a
    scatter through `order` took 190-300 us. Every segment must be
    non-empty. The int32 indices are read through np.take: a fancy index
    with int32 casts it on every call.
    """

    def __init__(self, out_start: np.ndarray, via: np.ndarray):
        deg = np.diff(out_start)
        via = via.astype(np.int32 if int(via.max(initial=0)) < 2 ** 31
                         else np.int64)
        self.n = deg.size
        self.order = np.concatenate([np.flatnonzero(deg == d)
                                     for d in range(SEQUENTIAL_TERMS, 0, -1)])
        first, sizes = out_start[self.order], deg[self.order]
        self.cols = [via[first[:np.count_nonzero(sizes > j)] + j]
                     for j in range(int(sizes.max(initial=1)))]
        self.long = np.flatnonzero(deg > SEQUENTIAL_TERMS)
        lengths = deg[self.long]
        self.long_start = np.cumsum(lengths) - lengths
        offset = np.repeat(out_start[self.long] - self.long_start, lengths)
        self.long_via = via[offset + np.arange(offset.size)]
        self.position = np.empty(self.n, dtype=via.dtype)
        self.position[np.concatenate([self.order, self.long])] = np.arange(
            self.n)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        head = np.take(x, self.cols[0], axis=0)
        if len(self.cols) > 1:
            rest = np.take(x, self.cols[1], axis=0)
            for col in self.cols[2:]:
                rest[:col.size] += np.take(x, col, axis=0)
            head[:rest.shape[0]] += rest
            del rest    # the result can take its memory: a lower peak
        if self.long.size:
            terms = np.moveaxis(np.take(x, self.long_via, axis=0), 0, -1)
            head = np.concatenate([head, np.moveaxis(
                np.add.reduceat(terms, self.long_start, axis=-1), -1, 0)])
        return np.take(head, self.position, axis=0)


# half-edges per block of an nb `expect` or `observe` level: even, so a block
# holds whole twin pairs, and its 256 KiB buffer stays in cache
EDGE_BLOCK = 1 << 15


def _pairs(x: np.ndarray) -> np.ndarray:
    """x with axis 0 split into twin pairs: x[e] sits at [e // 2, e % 2]."""
    return x.reshape((-1, 2) + x.shape[1:])


def _twins(x: np.ndarray) -> np.ndarray:
    """The pair-swapped view of x: at the place of half-edge e, x[e ^ 1]."""
    return _pairs(x)[:, ::-1]


class WalkOperator:
    """One step of an exploration as a linear map on its states.

    The states are the n vertices for ``bt`` and ``lazy`` and the 2m
    directed half-edges for ``nb``. `push` moves a law one step (w -> wP)
    and `expect` moves an observable one step (y -> Py). `lift(i)` is the
    state law of a walk started at vertex i; for ``nb`` it already holds the
    first step, spread over the half-edges leaving i (`lift_steps` = 1).
    `to_vertices` maps a state law to its vertex law; `observe` and
    `lifted_mean` are the duals of `to_vertices` and `lift` on observables.

    `push` and `to_vertices` act on axis 0; one law per column. A 2-D
    array (states, starts) is a batch of laws, and each column comes out
    bit-identical to a 1-D call. Every per-vertex sum runs over the
    tail-grouped CSR: a push gathers, for each vertex, what arrives over
    the twins of its out-edges, which are its in-edges (`out_edges ^ 1`
    for nb, their tails `tails[out_edges ^ 1]` for bt/lazy). `_VertexSums`
    holds that gather in a degree-ordered column layout and adds in
    np.add.reduceat's float order, so every sum is bit-identical to a
    reduceat over the CSR. nb `expect` keeps a bincount instead, whose
    order the nb biases depend on. Nothing is renormalised.

    The nb operator stores only `_fanout`: the twin of half-edge e is
    e ^ 1, so the twin of every state is read off a pair-swapped view
    (`_twins`), and the head of e is the tail of its twin. nb `expect` and
    `observe` run over blocks of EDGE_BLOCK half-edges (`_at_heads`).
    """

    def __init__(self, g: Graph, kind: str, delta: float = 0.5):
        if kind == "lazy" and not (0.0 < delta < 1.0):
            raise ValueError(f"laziness must lie in (0, 1), got {delta}")
        validate_for_exploration(g, kind)
        self.g, self.kind, self.delta = g, kind, delta
        if kind == "nb":
            self.states, self.support, self.lift_steps = g.num_half_edges, "edges", 1
            self._fanout = self.observe(g.degrees_float)   # choices leaving head(e)
            self._fanout -= 1.0
        else:
            self.states, self.support, self.lift_steps = g.n, "vertices", 0

    @cached_property
    def _vertex_sums(self) -> _VertexSums:
        # built on first use: nb `expect` sums by bincount and nb
        # `lifted_mean` by one reduceat, so nb `bias_all` never needs it
        g = self.g
        if self.kind == "nb":
            in_states = g.out_edges ^ 1                     # grouped by head
        else:
            in_states = g.tails[g.out_edges ^ 1]
        return _VertexSums(g.out_start, in_states)

    def _lazy(self, w: np.ndarray, stepped: np.ndarray) -> np.ndarray:
        if self.kind == "lazy":
            return self.delta * w + (1.0 - self.delta) * stepped
        return stepped

    def lift(self, start: int) -> np.ndarray:
        g = self.g
        if not (0 <= start < g.n):
            raise ValueError(f"start vertex {start} out of range")
        w = np.zeros(self.states)
        if self.kind == "nb":
            w[g.out_slice(start)] = 1.0 / g.degrees_float[start]
        else:
            w[start] = 1.0
        return w

    def push(self, w: np.ndarray) -> np.ndarray:
        g = self.g
        per_state = (slice(None),) + (None,) * (w.ndim - 1)
        if self.kind == "nb":
            z = w / self._fanout[per_state]
            s = np.take(self._vertex_sums(z), g.tails, axis=0)
            pairs = _pairs(s)
            pairs -= _twins(z)                      # s[tail(e)] - z[twin(e)]
            return s
        z = w / g.degrees_float[per_state]
        return self._lazy(w, self._vertex_sums(z))

    def expect(self, y: np.ndarray) -> np.ndarray:
        g = self.g
        if self.kind == "nb":
            return self._at_heads(
                np.bincount(g.tails, weights=y, minlength=g.n), y)
        return self._lazy(y, self._vertex_sums(y) / g.degrees_float)

    def to_vertices(self, w: np.ndarray) -> np.ndarray:
        if self.kind == "nb":
            return self._vertex_sums(w)
        return w

    def observe(self, f: np.ndarray) -> np.ndarray:
        """The state observable f(vertex the state stands on)."""
        if self.kind == "nb":
            return self._at_heads(f)
        return f

    def _at_heads(self, t: np.ndarray, y: np.ndarray | None = None):
        """Over the half-edges e, t[head(e)]; given y, the nb level
        (t[head(e)] - y[twin(e)]) / fanout[e].

        The head of e is the tail of its twin, so t read at the tails of a
        block holds at each place what the twin of that half-edge needs,
        and y is subtracted there as it is stored; the two halves of each
        pair trade places only as the block is written out. Each element
        sees the same two IEEE operations as on whole arrays, so the bits
        do not depend on EDGE_BLOCK. Contiguous blocks run numpy's inner
        loops at full width (over a pair-swapped (N/2, 2) view of a whole
        level they run two elements at a time), and a block's buffer stays
        in cache. Every tail indexes t, so `take` may skip its bounds
        check: with mode="raise" it would also buffer `out`."""
        tails = self.g.tails
        s = np.empty(tails.size)
        buf = np.empty(min(EDGE_BLOCK, tails.size))
        for lo in range(0, tails.size, EDGE_BLOCK):
            hi = min(lo + EDGE_BLOCK, tails.size)
            block = buf[:hi - lo]
            np.take(t, tails[lo:hi], out=block, mode="clip")
            if y is None:
                s[lo:hi:2], s[lo + 1:hi:2] = block[1::2], block[::2]
                continue
            block -= y[lo:hi]
            np.divide(block[1::2], self._fanout[lo:hi:2], out=s[lo:hi:2])
            np.divide(block[::2], self._fanout[lo + 1:hi:2],
                      out=s[lo + 1:hi:2])
        return s

    def lifted_mean(self, y: np.ndarray) -> np.ndarray:
        """Per start vertex i, the mean of a state observable under lift(i)."""
        if self.kind == "nb":
            # y over each vertex's out-edges in CSR order, in reduceat's
            # float order like every per-vertex sum
            g = self.g
            return (np.add.reduceat(y[g.out_edges], g.out_start[:-1])
                    / g.degrees_float)
        return y


def _k_step_dist(g: Graph, start: int, k: int, kind: str,
                 delta: float = 0.5) -> DistVector:
    """Vertex law after k steps from `start`; k = 0 is the point mass."""
    if k < 0:
        raise ValueError("k must be >= 0")
    op = WalkOperator(g, kind, delta)
    w = op.lift(start)
    if k == 0:
        return DistVector.point_mass("vertices", g.n, start)
    for _ in range(k - op.lift_steps):
        w = DistVector(op.support, op.push(w)).weights
    return DistVector("vertices", op.to_vertices(w))


def _levels(op: WalkOperator, k_max: int):
    """Yield (k, y) for k = 1..k_max in O(k_max |E|), where
    op.lifted_mean(y) is the expected degree after k steps from each vertex.

    bt/lazy iterate the observable deg under the vertex chain; nb iterates
    deg(head) under the edge chain. At k = 1 the bt and nb biases come out
    of bit-identical float operations, so they agree exactly.
    """
    y = op.observe(op.g.degrees_float)
    for k in range(1, k_max + 1):
        if k > op.lift_steps:
            y = op.expect(y)
        yield k, y


def _biases(g: Graph, k: int, kind: str, delta: float) -> np.ndarray:
    """The k-level bias of every vertex. The operator and the last level
    die with this call, before the caller builds its measure."""
    op = WalkOperator(g, kind, delta)
    for level, y in _levels(op, k):
        if level == k:
            return op.lifted_mean(y) - g.degrees_float
    return np.zeros(g.n)        # k = 0: every walk stays at its start


def bias_all(g: Graph, k: int, kind: str, delta: float = 0.5,
             meta: dict | None = None) -> measures.EmpiricalMeasure:
    """Empirical distribution of the k-level biases over all vertices.

    The returned measure places mass 1/n on each vertex's bias; its mean is
    the average k-level bias and is stored in meta["mean_bias"].
    """
    info = {"n": g.n, "k": k, "kind": kind}
    if kind == "lazy":
        info["delta"] = delta
    info.update(meta or {})
    m = measures.EmpiricalMeasure.from_values(_biases(g, k, kind, delta),
                                              meta=info)
    m.meta["mean_bias"] = m.mean()
    return m


def bias_profile(g: Graph, k_max: int, kind: str, delta: float = 0.5):
    """Yield (k, bias vector) for k = 1..k_max in one sweep (O(k_max |E|))."""
    op = WalkOperator(g, kind, delta)
    for k, y in _levels(op, k_max):
        yield k, op.lifted_mean(y) - g.degrees_float
