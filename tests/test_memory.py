"""Bytes per half-edge of a realised graph and of one nb replica, read
with tracemalloc.

numpy reports its array buffers to tracemalloc, so the traced peak of a
call is the largest sum of its live arrays: unlike peak RSS it does not
depend on the allocator, the page size or the path of the checkout, and
repeats to the byte. Measured at n = 50000, seed 1:

* `realize` of the configuration model with degree law {3: .5, 4: .5}
  (174 792 half-edges) peaks at 28.6 B per half-edge, while it sorts the
  CSR keys beside the edge array, and leaves a graph of 20.6 B per
  half-edge: `edges`, which `tails` views, and `out_edges` (8 B each), and
  the per-vertex `degrees` and `out_start`;
* with post-passes, whose graphs sort no CSR, `realize` peaks at 38.6 B
  per half-edge for the giant of Erdos-Renyi at lam = 4 (199 546
  half-edges) and at 43.4 B for the erased giant of the configuration
  model with degree law {1: .2, 3: .4, 4: .4} (149 130 half-edges);
* nb `bias_all` at k = ceil(ln n), the graph included, peaks at 49.6 B
  per half-edge, in its `expect` levels: the graph, `_fanout`, the level
  it reads and the level it writes.

Each bound is the measured value plus about 4 B per half-edge of slack,
half of what one more int64 or float64 array over the half-edges costs, so
a stored `heads`, a stored twin index or a CSR sorted for a post-pass's
graph fails the test.
"""

import math
import tracemalloc
from dataclasses import replace

import pytest

from friendbias import GenSpec, bias_all, realize

SPEC = GenSpec(model="configuration", n=50000,
               degree_pmf={3: 0.5, 4: 0.5}, seed=1)


@pytest.fixture
def traced():
    """tracemalloc, started for the test and stopped after it. A small
    graph is realised first, so that numpy's first use of its random
    modules (about 0.75 MB of imports) is not traced."""
    realize(replace(SPEC, n=100))
    tracemalloc.start()
    try:
        yield tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_realize_peak_and_graph_bytes_per_half_edge(traced):
    tracemalloc.reset_peak()
    g = realize(SPEC)
    live, peak = (x - traced for x in tracemalloc.get_traced_memory())
    assert peak / g.num_half_edges < 32.5
    assert live / g.num_half_edges < 24.5


@pytest.mark.parametrize("spec, passes, peak_bound", [
    (GenSpec(model="erdos_renyi", n=50000, lam=4.0, seed=1),
     {"restrict_giant": True}, 42.5),
    (replace(SPEC, degree_pmf={1: 0.2, 3: 0.4, 4: 0.4}),
     {"erase": True, "restrict_giant": True}, 47.5)],
    ids=["er-giant", "cm-erased-giant"])
def test_realize_post_pass_peak_bytes_per_half_edge(spec, passes, peak_bound,
                                                    traced):
    tracemalloc.reset_peak()
    g = realize(spec, **passes)
    live, peak = (x - traced for x in tracemalloc.get_traced_memory())
    assert peak / g.num_half_edges < peak_bound
    assert live / g.num_half_edges < 24.5


def test_nb_bias_all_peak_bytes_per_half_edge(traced):
    g = realize(SPEC)
    tracemalloc.reset_peak()
    bias_all(g, math.ceil(math.log(SPEC.n)), "nb")
    peak = tracemalloc.get_traced_memory()[1] - traced
    assert peak / g.num_half_edges < 53.5
