"""Brute-force ground truth on small graphs.

k-step laws and average biases are recomputed here by exhaustive walk
enumeration with exact rational arithmetic, independently of the kernel
implementations. Walks are enumerated over half-edge choices, so parallel
edges contribute distinct walks; the vertex sequences they collapse to are
reported with multiplicity.

The average bias is evaluated twice -- from the definition, and via the
symmetrised square form obtained by pairing every walk with its reversal --
and the two rationals must agree exactly.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .generators import gen_configuration_model, gen_erdos_renyi
from .graph_core import (Graph, PreconditionError, build_graph,
                         validate_for_exploration)
from .kernels import DistVector, SizeGuardError

MAX_ORACLE_VERTICES = 10
MAX_ORACLE_K = 6


def _guard(g: Graph, k: int) -> None:
    if g.n > MAX_ORACLE_VERTICES:
        raise SizeGuardError(f"oracle limited to {MAX_ORACLE_VERTICES} vertices, "
                             f"got {g.n}")
    if k > MAX_ORACLE_K:
        raise SizeGuardError(f"oracle limited to k <= {MAX_ORACLE_K}, got {k}")


def _check_kind(g: Graph, kind: str) -> None:
    if kind not in ("bt", "nb"):
        raise ValueError(f"oracle supports kinds 'bt' and 'nb', got {kind!r}")
    report = validate_for_exploration(g, kind)
    if not report.ok:
        raise PreconditionError(
            f"graph not valid for {kind!r} walks: {report.message}")


def _edge_walks_from(g: Graph, start: int, k: int, kind: str):
    """Yield (vertices, half_edges) for every k-step walk from `start`."""
    stack = [((start,), ())]
    while stack:
        verts, edges = stack.pop()
        if len(verts) == k + 1:
            yield verts, edges
            continue
        u = verts[-1]
        for e in g.out_slice(u):
            if kind == "nb" and edges and e == (edges[-1] ^ 1):
                continue
            stack.append((verts + (int(g.tails[e ^ 1]),), edges + (int(e),)))


def _walk_weight(degs, verts, kind) -> Fraction:
    """Probability of one half-edge walk: backtracking steps are uniform
    over the degree, non-backtracking follow-up steps over degree - 1."""
    k = len(verts) - 1
    if k == 0:
        return Fraction(1)
    w = Fraction(1, int(degs[verts[0]]))
    if kind == "bt":
        for l in range(1, k):
            w /= int(degs[verts[l]])
    else:
        for l in range(1, k):
            w /= int(degs[verts[l]]) - 1
    return w


def oracle_k_step_exact(g: Graph, i: int, k: int, kind: str) -> dict:
    """Exact k-step law from vertex i as {vertex: Fraction}."""
    _guard(g, k)
    _check_kind(g, kind)
    if k == 0:
        return {i: Fraction(1)}
    out: dict[int, Fraction] = {}
    for verts, _ in _edge_walks_from(g, i, k, kind):
        out[verts[-1]] = out.get(verts[-1], Fraction(0)) \
            + _walk_weight(g.degrees, verts, kind)
    return out


def oracle_k_step(g: Graph, i: int, k: int, kind: str) -> DistVector:
    exact = oracle_k_step_exact(g, i, k, kind)
    w = np.zeros(g.n)
    for j, frac in exact.items():
        w[j] = float(frac)
    return DistVector("vertices", w)


def oracle_avg_bias_exact(g: Graph, k: int, kind: str) -> Fraction:
    """Average k-level bias by definition, cross-checked exactly against the
    symmetrised square form; raises if the two disagree."""
    _guard(g, k)
    _check_kind(g, kind)
    degs = g.degrees
    by_def = Fraction(0)
    symmetrised = Fraction(0)
    for start in range(g.n):
        for verts, _ in _edge_walks_from(g, start, k, kind):
            w = _walk_weight(degs, verts, kind)
            d0, dk = int(degs[verts[0]]), int(degs[verts[-1]])
            by_def += w * dk
            # (sqrt(dk/d0) - sqrt(d0/dk))^2 = dk/d0 + d0/dk - 2, and the
            # interior weight is the walk weight times d0
            symmetrised += (Fraction(dk, d0) + Fraction(d0, dk) - 2) * w * d0
    by_def = Fraction(by_def - int(degs.sum()), g.n)
    symmetrised = Fraction(symmetrised, 2 * g.n)
    if by_def != symmetrised:
        raise ArithmeticError(
            f"definitional and symmetrised averages disagree: "
            f"{by_def} vs {symmetrised}")
    return by_def


def oracle_avg_bias(g: Graph, k: int, kind: str) -> float:
    return float(oracle_avg_bias_exact(g, k, kind))


def small_graph_corpus() -> dict:
    """Fixed corpus of small graphs for oracle-vs-kernel comparisons.

    Mixes hand-picked structures (paths, cycles, stars, the two non-regular
    graphs whose non-backtracking average bias vanishes at levels 3 and 4)
    with multigraphs exercising the twin-exclusion rule and a few seeded
    random graphs. Each entry stays within the enumeration guard.
    """
    corpus = {
        "path3": build_graph(3, [(0, 1), (1, 2)]),
        "path4": build_graph(4, [(0, 1), (1, 2), (2, 3)]),
        "triangle": build_graph(3, [(0, 1), (1, 2), (2, 0)]),
        "cycle4": build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        "cycle5": build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
        "complete4": build_graph(4, [(0, 1), (0, 2), (0, 3),
                                     (1, 2), (1, 3), (2, 3)]),
        "star3": build_graph(4, [(0, 1), (0, 2), (0, 3)]),
        "two_cliques_bridge": build_graph(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]),
        # non-regular, yet zero nb average bias at level 3
        "nb_zero_k3": build_graph(
            5, [(0, 1), (1, 2), (2, 0), (1, 3), (1, 4), (4, 3)]),
        # non-regular (two 4-cycles sharing a vertex), yet zero nb average
        # bias at level 4
        "nb_zero_k4": build_graph(
            7, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 6), (6, 2)]),
        "double_edge": build_graph(2, [(0, 1), (0, 1)]),
        "triangle_doubled": build_graph(3, [(0, 1), (0, 1), (1, 2), (2, 0)]),
        "loop_cycle": build_graph(3, [(0, 0), (0, 1), (1, 2), (2, 0)]),
        "er8_a": gen_erdos_renyi(8, 3.5, 1201),
        "er8_b": gen_erdos_renyi(8, 4.5, 1203),
        "cm8_a": gen_configuration_model([2, 2, 3, 3, 2, 2, 3, 3], 77),
        "cm8_b": gen_configuration_model([3, 3, 3, 3, 4, 4, 2, 2], 78),
    }
    return corpus
