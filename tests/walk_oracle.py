"""Reference walk enumeration and an exact zero test of the backtracking
average bias, for the tests.

`enumerate_walks` lists every k-step walk as a vertex sequence, with
multiplicity, through the oracle's own half-edge enumeration.
`bt_avg_bias_is_zero` decides `average backtracking bias at level k == 0`
in scaled integers; AC-2 runs it over all connected graphs on up to 6
vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from friendbias.graph_core import Graph
from friendbias.oracle import _check_kind, _edge_walks_from, _guard


@dataclass
class WalkSet:
    """All k-step walk vertex sequences of one kind, with multiplicity."""

    kind: str
    k: int
    walks: list[tuple[int, ...]]


def enumerate_walks(g: Graph, k: int, kind: str) -> WalkSet:
    """Complete enumeration of the k-step walks of the given kind."""
    _guard(g, k)
    _check_kind(g, kind)
    if k == 0:
        return WalkSet(kind=kind, k=0, walks=[(i,) for i in range(g.n)])
    walks = []
    for start in range(g.n):
        for verts, _ in _edge_walks_from(g, start, k, kind):
            walks.append(verts)
    return WalkSet(kind=kind, k=k, walks=walks)


def _lcm_of(values) -> int:
    out = 1
    for v in values:
        v = int(v)
        if v:
            out = out * v // gcd(out, v)
    return out


def bt_avg_bias_is_zero(g: Graph, k: int) -> bool:
    """Exact test of `average backtracking bias at level k == 0`.

    Works in scaled integers: with L = lcm(degrees), L*P is an integer
    matrix, so sum((L P)^k d) == L^k sum(d) decides equality without any
    floating point. Intended for exhaustive sweeps over small graphs.
    """
    _check_kind(g, "bt")
    L = _lcm_of(g.degrees)
    nbrs = g.heads[g.out_edges].tolist()   # neighbours, grouped by vertex
    start = g.out_start.tolist()
    degs = g.degrees.tolist()
    v = list(degs)
    for _ in range(k):
        v = [(L // degs[i]) * sum(v[j] for j in nbrs[start[i]:start[i + 1]])
             for i in range(g.n)]
    return sum(v) == (L ** k) * sum(degs)
