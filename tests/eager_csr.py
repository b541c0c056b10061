"""Reference CSR build: every graph sorts its tail-grouped half-edges as it
is built, by a stable argsort of the tails.

Test oracle for `graph_core.Graph`, which sorts its CSR on first read, and
for `generators.realize`, which sorts the CSR of the graph it returns and of
no graph it passes through: both must give the same arrays, bit for bit.
"""

import numpy as np

from friendbias import generators, graph_core
from friendbias.graph_core import Graph, build_graph

FIELDS = ("edges", "tails", "degrees", "out_start", "out_edges")


def build_graph_eager(n: int, edges) -> Graph:
    """build_graph, with the CSR sorted before the graph is returned."""
    g = build_graph(n, edges)
    g._csr = (np.concatenate(([0], np.cumsum(g.degrees))),
              np.argsort(g.tails, kind="stable"))
    return g


def build_eagerly(monkeypatch) -> None:
    """Make every graph that `graph_core` and `generators` build, the
    post-passes' graphs included, sort its CSR as it is built."""
    for module in (graph_core, generators):
        monkeypatch.setattr(module, "build_graph", build_graph_eager)


def count_sorts(monkeypatch) -> list[int]:
    """A one-entry list that counts the CSR sorts from now on."""
    sorts = [0]
    tail_csr = Graph._tail_csr

    def counted(g: Graph):
        sorts[0] += g._csr is None
        return tail_csr(g)

    monkeypatch.setattr(Graph, "_tail_csr", counted)
    return sorts


def assert_same_graph(g: Graph, want: Graph) -> None:
    assert g.n == want.n
    for name in FIELDS:
        got, ref = getattr(g, name), getattr(want, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), name
