"""Immutable undirected multigraph with half-edge structure.

Vertices are dense 0-based integers. The edges are one (m, 2) int64 array
of endpoint pairs in input order; parallel edges and self-loops are
allowed. Every undirected edge t = (u, v) owns two directed half-edges: id
2t runs u -> v and id 2t + 1 runs v -> u, so the twin of half-edge e is
always e ^ 1. A self-loop contributes 2 to the degree of its endpoint,
which keeps the handshake identity sum(degrees) == number of half-edges
exact.

The half-edges are also laid out grouped by tail (a CSR layout). Every
vertex has as many half-edges in as out, and the twins of the half-edges
leaving a vertex are the half-edges entering it, so this one layout serves
both row sums and pushes of the walk kernels. Only walks (the kernels and
the oracle) read it, so it is sorted on first read, not when the graph is
built: the graphs that `generators.realize` passes through on the way to
its result never sort one, and `realize` sorts the one of the graph it
returns.

Only tails are stored: `tails` is `edges` read as one flat array, and the
head of half-edge e is the tail of its twin, tails[e ^ 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GraphConstructionError(ValueError):
    """Raised when an edge list refers to vertices outside [0, n)."""


class PreconditionError(ValueError):
    """A hypothesis of the paper does not hold for the input."""


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique of an integer array, by sorting. np.unique hashes integers
    (numpy >= 2.3), which is tens of times slower on large arrays."""
    a = np.sort(a)
    keep = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


@dataclass(eq=False)
class Graph:
    """Undirected multigraph; treat as immutable after construction."""

    n: int
    edges: np.ndarray            # int64 (m, 2), endpoint pairs in input order
    degrees: np.ndarray          # int64, degrees[i] counts half-edges with tail i
    tails: np.ndarray            # int64, tail of each half-edge: edges, flat
    _degf: np.ndarray | None = field(default=None, repr=False)
    # (out_start, out_edges), sorted on first read of either
    _csr: tuple[np.ndarray, np.ndarray] | None = field(default=None,
                                                       repr=False)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_half_edges(self) -> int:
        return 2 * self.num_edges

    @property
    def heads(self) -> np.ndarray:
        """Head vertex of each half-edge, tails[e ^ 1]; a new array on every
        call, as no head is stored."""
        return self.edges[:, ::-1].reshape(-1)

    @property
    def degrees_float(self) -> np.ndarray:
        if self._degf is None:
            self._degf = self.degrees.astype(np.float64)
        return self._degf

    @property
    def out_start(self) -> np.ndarray:
        """CSR offsets of the half-edges grouped by tail."""
        return self._tail_csr()[0]

    @property
    def out_edges(self) -> np.ndarray:
        """Half-edge ids sorted by (tail, id)."""
        return self._tail_csr()[1]

    def _tail_csr(self) -> tuple[np.ndarray, np.ndarray]:
        if self._csr is None:
            tails = self.tails
            out_start = np.concatenate(([0], np.cumsum(self.degrees)))
            # ids grouped by tail, ascending within each: sorting the
            # distinct keys tail * 2m + id is several times faster than a
            # stable argsort; the keys are built, sorted and reduced in place
            m2 = max(tails.size, 1)
            out_edges = tails * m2
            out_edges += np.arange(tails.size)
            out_edges.sort()
            out_edges %= m2
            self._csr = out_start, out_edges
        return self._csr

    def out_slice(self, i: int) -> np.ndarray:
        """Half-edge ids leaving vertex i."""
        return self.out_edges[self.out_start[i]:self.out_start[i + 1]]


def build_graph(n: int, edges) -> Graph:
    """Build a Graph from an edge list (any iterable of pairs, or an array);
    raises on out-of-range indices.

    Half-edges are numbered in input order: edge t contributes ids 2t and
    2t + 1, so construction is deterministic for a fixed edge order. A
    C-contiguous int64 (m, 2) array is taken over, not copied: the graph's
    `edges` is that array, which the caller must not change afterwards.
    Building only validates and counts degrees; the tail-grouped CSR is
    sorted on the first read of `out_start` or `out_edges`.
    """
    if n < 1:
        raise GraphConstructionError(f"vertex count must be >= 1, got {n}")
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    try:
        edges = np.ascontiguousarray(edges, dtype=np.int64)
    except OverflowError:   # ids beyond int64 are out of range: keep them exact
        edges = np.array(edges, dtype=object)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise GraphConstructionError(
            f"edges must be endpoint pairs, got shape {edges.shape}")
    # two reductions decide; the scan over rows only names the first bad edge
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        u, v = edges[np.argmax(((edges < 0) | (edges >= n)).any(axis=1))]
        raise GraphConstructionError(
            f"edge ({int(u)}, {int(v)}) out of range for n={n}")
    tails = edges.reshape(-1)
    degrees = np.bincount(tails, minlength=n).astype(np.int64, copy=False)
    return Graph(n=n, edges=edges, degrees=degrees, tails=tails)


@dataclass
class ComponentInfo:
    """Connected-component labels, with each component's size and degree
    sum."""

    component_id: np.ndarray
    sizes: list[int]
    degree_sums: list[int]


def _min_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Smallest vertex of each vertex's component in the graph on n vertices
    with edges (u[t], v[t]): hook each root onto the smallest root across
    its edges, then jump pointers until every vertex points at a root."""
    label = np.arange(n, dtype=np.int64)
    while True:
        lu, lv = label[u], label[v]
        cut = lu != lv
        if not cut.any():
            return label
        np.minimum.at(label, np.maximum(lu, lv)[cut], np.minimum(lu, lv)[cut])
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def analyze_components(g: Graph) -> ComponentInfo:
    """Label the connected components, numbered in order of their smallest
    vertex."""
    roots, comp = np.unique(_min_labels(g.n, g.edges[:, 0], g.edges[:, 1]),
                            return_inverse=True)
    c = roots.size
    degree_sums = np.zeros(c, dtype=np.int64)
    np.add.at(degree_sums, comp, g.degrees)
    return ComponentInfo(component_id=comp,
                         sizes=np.bincount(comp, minlength=c).tolist(),
                         degree_sums=degree_sums.tolist())


EXPLORATION_KINDS = ("bt", "nb", "lazy")


def validate_for_exploration(g: Graph, kind: str, where: str = "") -> Graph:
    """g, when it can carry the exploration `kind`; otherwise a
    PreconditionError, after `where`, that names what is missing and the
    first ten vertices at fault.

    Non-backtracking walks need minimum degree 2. Backtracking and lazy
    walks need a graph without self-loops and without isolated vertices.
    """
    if kind not in EXPLORATION_KINDS:
        raise ValueError(f"unknown exploration kind {kind!r}")
    if kind == "nb":
        viol = np.flatnonzero(g.degrees < 2)
        parts = [f"{viol.size} vertices of degree < 2"]
    else:
        loops = np.unique(g.edges[g.edges[:, 0] == g.edges[:, 1], 0])
        isolated = np.flatnonzero(g.degrees == 0)
        viol = np.union1d(loops, isolated)
        parts = [f"{loops.size} vertices with self-loops"] if loops.size else []
        if isolated.size:
            parts.append(f"{isolated.size} isolated vertices")
    if viol.size:
        raise PreconditionError(
            f"{where}graph invalid for {kind!r} exploration: "
            f"{', '.join(parts)} (vertices {viol[:10].tolist()})")
    return g


def save_edge_list(g: Graph, path) -> None:
    """Write the plain-text edge-list format: header `n m`, one `u v` line
    per edge, in stored edge order."""
    lines = np.char.add(g.edges.astype(str), [" ", "\n"]).reshape(-1).tolist()
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.num_edges}\n" + "".join(lines))


def load_edge_list(path) -> Graph:
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise GraphConstructionError(f"malformed edge-list file {path}")
    try:
        n, m = int(tokens[0]), int(tokens[1])
        try:
            ids = np.array(tokens[2:], dtype=np.int64)
        except OverflowError:   # a vertex id beyond int64: build_graph names it
            ids = np.array([int(t) for t in tokens[2:]], dtype=object)
    except ValueError as exc:
        raise GraphConstructionError(
            f"edge-list {path} holds a token that is not an integer: {exc}"
        ) from exc
    if ids.size != 2 * m:
        raise GraphConstructionError(
            f"edge-list {path} declares {m} edges but has {ids.size // 2}")
    return build_graph(n, ids.reshape(m, 2))


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, np.ndarray]:
    """Subgraph on `vertices` (relabelled 0..len-1 in increasing old order).

    Returns the subgraph and the array of original vertex ids; edge order is
    inherited from the parent graph.
    """
    old = sorted_unique(np.asarray(vertices, dtype=np.int64).reshape(-1))
    if old.size == 0:
        raise ValueError("cannot induce a subgraph on an empty vertex set")
    remap = np.full(g.n, -1, dtype=np.int64)
    remap[old] = np.arange(old.size)
    edges = remap[g.edges]
    return build_graph(old.size, edges[(edges >= 0).all(axis=1)]), old


def largest_component(g: Graph) -> tuple[Graph, np.ndarray]:
    """Extract the largest connected component (lowest label wins ties)."""
    info = analyze_components(g)
    best = int(np.argmax(info.sizes))
    keep = np.flatnonzero(info.component_id == best)
    return induced_subgraph(g, keep)

