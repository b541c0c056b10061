"""Immutable undirected multigraph with half-edge structure.

Vertices are dense 0-based integers. Edges form an ordered multiset of
endpoint pairs; parallel edges and self-loops are allowed. Every undirected
edge t = (u, v) owns two directed half-edges: id 2t runs u -> v and id
2t + 1 runs v -> u, so the twin of half-edge e is always e ^ 1. A self-loop
contributes 2 to the degree of its endpoint, which keeps the handshake
identity sum(degrees) == number of half-edges exact.

Two access patterns are precomputed: a CSR layout of half-edges grouped by
tail (used for row sums of walk kernels) and one grouped by head (used for
distribution pushes and head projections).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GraphConstructionError(ValueError):
    """Raised when an edge list refers to vertices outside [0, n)."""


class ExplorationPreconditionError(ValueError):
    """Raised when a walk kernel is applied to a structurally invalid graph."""


def _csr(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(keys, kind="stable")
    starts = np.searchsorted(keys[order], np.arange(n + 1))
    return starts.astype(np.int64), order.astype(np.int64)


@dataclass(eq=False)
class Graph:
    """Undirected multigraph; treat as immutable after construction."""

    n: int
    edge_endpoints: list[tuple[int, int]]
    degrees: np.ndarray          # int64, degrees[i] counts half-edges with tail i
    tails: np.ndarray            # int64, tail vertex of each half-edge
    heads: np.ndarray            # int64, head vertex of each half-edge
    out_start: np.ndarray        # CSR offsets of half-edges grouped by tail
    out_edges: np.ndarray        # half-edge ids sorted by (tail, id)
    in_start: np.ndarray         # CSR offsets of half-edges grouped by head
    in_edges: np.ndarray         # half-edge ids sorted by (head, id)
    _adjacency: list | None = field(default=None, repr=False)
    _degf: np.ndarray | None = field(default=None, repr=False)

    @property
    def num_edges(self) -> int:
        return len(self.edge_endpoints)

    @property
    def num_half_edges(self) -> int:
        return 2 * self.num_edges

    @property
    def degrees_float(self) -> np.ndarray:
        if self._degf is None:
            self._degf = self.degrees.astype(np.float64)
        return self._degf

    def twin(self, e: int) -> int:
        return e ^ 1

    @property
    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per-vertex sorted (neighbor, multiplicity) lists.

        A self-loop at v appears as (v, number_of_loops); its degree
        contribution is twice that multiplicity.
        """
        if self._adjacency is None:
            counts: list[dict[int, int]] = [dict() for _ in range(self.n)]
            for u, v in self.edge_endpoints:
                counts[u][v] = counts[u].get(v, 0) + 1
                if u != v:
                    counts[v][u] = counts[v].get(u, 0) + 1
            self._adjacency = [sorted(c.items()) for c in counts]
        return self._adjacency

    def has_self_loops(self) -> bool:
        return bool(np.any(self.tails == self.heads))

    def out_slice(self, i: int) -> np.ndarray:
        """Half-edge ids leaving vertex i."""
        return self.out_edges[self.out_start[i]:self.out_start[i + 1]]


def build_graph(n: int, edges) -> Graph:
    """Build a Graph from an edge list; raises on out-of-range indices.

    Half-edges are numbered in input order: edge t contributes ids 2t and
    2t + 1, so construction is deterministic for a fixed edge order.
    """
    if n < 1:
        raise GraphConstructionError(f"vertex count must be >= 1, got {n}")
    endpoints: list[tuple[int, int]] = []
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphConstructionError(f"edge ({u}, {v}) out of range for n={n}")
        endpoints.append((u, v))
    m = len(endpoints)
    tails = np.empty(2 * m, dtype=np.int64)
    heads = np.empty(2 * m, dtype=np.int64)
    if m:
        arr = np.asarray(endpoints, dtype=np.int64)
        tails[0::2] = arr[:, 0]
        tails[1::2] = arr[:, 1]
        heads[0::2] = arr[:, 1]
        heads[1::2] = arr[:, 0]
    degrees = np.bincount(tails, minlength=n).astype(np.int64)
    out_start, out_edges = _csr(tails, n)
    in_start, in_edges = _csr(heads, n)
    return Graph(n=n, edge_endpoints=endpoints, degrees=degrees,
                 tails=tails, heads=heads,
                 out_start=out_start, out_edges=out_edges,
                 in_start=in_start, in_edges=in_edges)


@dataclass
class ComponentInfo:
    """Connected-component labels plus the structural flags used by the
    equality characterisations of the average bias."""

    component_id: np.ndarray
    sizes: list[int]
    is_bipartite: list[bool]
    is_regular: list[bool]
    is_biregular_bipartite: list[bool]
    degree_sums: list[int]

    @property
    def n_components(self) -> int:
        return len(self.sizes)

    def all_regular(self) -> bool:
        return all(self.is_regular)

    def all_regular_or_biregular_bipartite(self) -> bool:
        return all(r or b for r, b in
                   zip(self.is_regular, self.is_biregular_bipartite))


def analyze_components(g: Graph) -> ComponentInfo:
    """Label components and compute bipartiteness / regularity flags.

    Bipartiteness uses 2-coloring; a self-loop is an odd cycle and makes its
    component non-bipartite. A component is bi-regular bipartite when a
    2-coloring exists and the degree is constant on each color class.
    """
    comp = np.full(g.n, -1, dtype=np.int64)
    color = np.full(g.n, -1, dtype=np.int8)
    sizes, bip, reg, bireg, dsums = [], [], [], [], []
    cid = 0
    for s in range(g.n):
        if comp[s] >= 0:
            continue
        members = [s]
        comp[s] = cid
        color[s] = 0
        bipartite = True
        queue = [s]
        while queue:
            u = queue.pop()
            for e in g.out_slice(u):
                w = int(g.heads[e])
                if w == u:
                    bipartite = False
                    continue
                if comp[w] < 0:
                    comp[w] = cid
                    color[w] = 1 - color[u]
                    members.append(w)
                    queue.append(w)
                elif color[w] == color[u]:
                    bipartite = False
        degs = g.degrees[members]
        sizes.append(len(members))
        bip.append(bipartite)
        reg.append(bool(degs.min() == degs.max()))
        dsums.append(int(degs.sum()))
        if bipartite:
            side0 = degs[color[members] == 0]
            side1 = degs[color[members] == 1]
            ok0 = side0.size == 0 or side0.min() == side0.max()
            ok1 = side1.size == 0 or side1.min() == side1.max()
            bireg.append(bool(ok0 and ok1))
        else:
            bireg.append(False)
        cid += 1
    return ComponentInfo(component_id=comp, sizes=sizes, is_bipartite=bip,
                         is_regular=reg, is_biregular_bipartite=bireg,
                         degree_sums=dsums)


EXPLORATION_KINDS = ("bt", "nb", "lazy")


@dataclass
class ValidationReport:
    """Outcome of checking a graph against a walk kind's structural needs."""

    kind: str
    ok: bool
    violations: list[int]
    min_degree: int
    message: str
    min_degree_at_least_3: bool | None = None
    has_self_loops: bool | None = None


def validate_for_exploration(g: Graph, kind: str) -> ValidationReport:
    """Report whether `g` supports the requested exploration.

    Non-backtracking walks need minimum degree 2 (the report also notes
    whether every degree is at least 3, which stronger convergence
    statements require). Backtracking and lazy walks need a graph without
    self-loops and without isolated vertices.
    """
    if kind not in EXPLORATION_KINDS:
        raise ValueError(f"unknown exploration kind {kind!r}")
    mindeg = int(g.degrees.min()) if g.n else 0
    if kind == "nb":
        viol = np.flatnonzero(g.degrees < 2)
        ok = viol.size == 0
        msg = "ok" if ok else f"{viol.size} vertices of degree < 2"
        return ValidationReport(kind=kind, ok=ok, violations=viol.tolist(),
                                min_degree=mindeg, message=msg,
                                min_degree_at_least_3=bool(mindeg >= 3))
    loops = np.unique(g.tails[g.tails == g.heads])
    isolated = np.flatnonzero(g.degrees == 0)
    viol = np.union1d(loops, isolated)
    ok = viol.size == 0
    parts = []
    if loops.size:
        parts.append(f"{loops.size} vertices with self-loops")
    if isolated.size:
        parts.append(f"{isolated.size} isolated vertices")
    msg = "ok" if ok else ", ".join(parts)
    return ValidationReport(kind=kind, ok=ok, violations=viol.tolist(),
                            min_degree=mindeg, message=msg,
                            has_self_loops=bool(loops.size))


def save_edge_list(g: Graph, path) -> None:
    """Write the plain-text edge-list format: header `n m`, one `u v` line
    per edge, in stored edge order."""
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.edge_endpoints)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_edge_list(path) -> Graph:
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise GraphConstructionError(f"malformed edge-list file {path}")
    n, m = int(tokens[0]), int(tokens[1])
    body = tokens[2:]
    if len(body) != 2 * m:
        raise GraphConstructionError(
            f"edge-list {path} declares {m} edges but has {len(body) // 2}")
    edges = [(int(body[2 * t]), int(body[2 * t + 1])) for t in range(m)]
    return build_graph(n, edges)


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, np.ndarray]:
    """Subgraph on `vertices` (relabelled 0..len-1 in increasing old order).

    Returns the subgraph and the array of original vertex ids; edge order is
    inherited from the parent graph.
    """
    old = np.unique(np.asarray(vertices, dtype=np.int64))
    if old.size == 0:
        raise ValueError("cannot induce a subgraph on an empty vertex set")
    remap = np.full(g.n, -1, dtype=np.int64)
    remap[old] = np.arange(old.size)
    edges = [(int(remap[u]), int(remap[v])) for u, v in g.edge_endpoints
             if remap[u] >= 0 and remap[v] >= 0]
    return build_graph(max(old.size, 1), edges), old


def largest_component(g: Graph) -> tuple[Graph, np.ndarray]:
    """Extract the largest connected component (lowest label wins ties)."""
    info = analyze_components(g)
    best = int(np.argmax(info.sizes))
    keep = np.flatnonzero(info.component_id == best)
    return induced_subgraph(g, keep)


def drop_isolated(g: Graph) -> tuple[Graph, np.ndarray]:
    """Remove degree-0 vertices (no edges change)."""
    keep = np.flatnonzero(g.degrees > 0)
    if keep.size == 0:
        return g, np.arange(g.n)
    return induced_subgraph(g, keep)
