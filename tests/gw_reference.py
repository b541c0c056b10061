"""Reference Galton-Watson trees: one tree type, its sampler, and the exact
root biases on one tree.

`sample_gw` grows a tree with root ~ p and every other vertex ~ p* to a
fixed depth or to extinction. `mu_star_loop.py` calls it once per tree and
takes `stationary_tree_bias` of each; `tree_limits.sample_mu_star`, which
reads the same uniforms in blocks, must match that loop bit for bit.
`nb_bias_on_tree` and `bt_bias_on_finite_tree` are the tree-side biases at
a fixed level k, checked against the limit laws in `test_tree_limits.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from friendbias import kernels
from friendbias.graph_core import build_graph
from friendbias.tree_limits import OffspringLaw


@dataclass
class GWTree:
    """Offspring counts of a Galton-Watson tree, generation by generation.

    levels[l][i] is the offspring count of the i-th vertex (breadth-first)
    at depth l; level l has sum(levels[l-1]) vertices. The tree is complete
    when its last generation has no offspring.
    """

    levels: list

    def __post_init__(self):
        self.levels = [np.asarray(lv, dtype=np.int64) for lv in self.levels]
        if not self.levels or self.levels[0].size != 1:
            raise ValueError("a tree has exactly one root")
        for l in range(1, len(self.levels)):
            if self.levels[l].size != int(self.levels[l - 1].sum()):
                raise ValueError(f"level {l} has {self.levels[l].size} vertices, "
                                 f"expected {int(self.levels[l - 1].sum())}")

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def root_offspring(self) -> int:
        return int(self.levels[0][0])

    @property
    def num_vertices(self) -> int:
        return sum(lv.size for lv in self.levels)

    def _offspring(self) -> np.ndarray:
        if self.levels[-1].any():
            raise ValueError("incomplete tree: the last generation has offspring")
        return np.concatenate(self.levels)

    def degrees(self) -> np.ndarray:
        d = self._offspring() + 1
        d[0] -= 1   # the root has no parent
        return d

    def to_graph(self):
        """Parent-child edges with breadth-first vertex ids."""
        off = self._offspring()
        parents = np.repeat(np.arange(off.size), off)
        return build_graph(off.size, np.column_stack(
            (parents, np.arange(1, off.size))))


def sample_gw(p: OffspringLaw, rng: np.random.Generator,
              depth: int | None = None, size_cap: int = 10 ** 6) -> GWTree | None:
    """Grow a tree with root ~ p and every other vertex ~ p*.

    Grows `depth` generations, or until extinction when `depth` is None.
    Returns None before drawing a generation that would push the vertex
    count past `size_cap` (the caller counts that as a rejection).
    """
    if depth is not None and depth < 0:
        raise ValueError("depth must be >= 0")
    if size_cap < 1:
        raise ValueError("size_cap must be >= 1")
    levels = [p.sample(rng, 1)]
    total = 1
    while ((count := int(levels[-1].sum()))
           and (depth is None or len(levels) <= depth)):
        total += count
        if total > size_cap:
            return None
        levels.append(p.size_biased.sample(rng, count))
    if depth is not None:   # an extinct tree keeps its empty generations
        levels += [np.zeros(0, dtype=np.int64)] * (depth + 1 - len(levels))
    return GWTree(levels=levels)


def nb_bias_on_tree(t: GWTree, k: int) -> float:
    """Exact k-level non-backtracking bias of the root.

    On a tree the walk only descends: the probability of reaching a given
    generation-k vertex is 1/(d_root * product of offspring counts along the
    interior of its path), and that vertex's degree is offspring + 1. Every
    vertex above generation k must have at least one offspring.
    """
    if not (1 <= k <= t.depth):
        raise ValueError(f"need 1 <= k <= depth={t.depth}, got {k}")
    prob = np.array([1.0])
    for l, counts in enumerate(t.levels[:k]):
        if counts.size == 0 or int(counts.min()) < 1:
            raise ValueError(f"walk undefined: vertex with no offspring at depth {l}")
        prob = np.repeat(prob / counts, counts)
    return float(np.dot(prob, t.levels[k] + 1.0) - t.root_offspring)


def stationary_tree_bias(t: GWTree) -> float:
    """Closed-form equilibrium bias of the root on a complete tree:
    sum(deg^2)/sum(deg) - d_root, with the one-vertex tree mapped to 0
    (empty ratio resolved as 0)."""
    d = t.degrees().astype(np.float64)
    total = float(d.sum())
    ratio = float(np.dot(d, d) / total) if total > 0 else 0.0
    return ratio - float(d[0])


def bt_bias_on_finite_tree(t: GWTree, k: int, delta: float = 0.5) -> float:
    """Root bias after k lazy steps on a complete tree.

    Trees with an edge are bipartite, so the plain walk oscillates and has
    no pointwise k -> infinity limit; the lazy walk shares the same
    stationary law and converges, realising the closed-form equilibrium.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"laziness must lie in (0, 1), got {delta}")
    g = t.to_graph()
    if g.n == 1:
        return 0.0
    op = kernels.WalkOperator(g, "lazy", delta)
    v = degf = g.degrees_float
    for _ in range(k):
        v = op.expect(v)
    return float(v[0] - degf[0])
