import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from friendbias import (analyze_components, build_graph, induced_subgraph,
                        largest_component, load_edge_list, save_edge_list,
                        validate_for_exploration)
from friendbias.graph_core import GraphConstructionError

from component_bfs import bfs_components
from eager_csr import assert_same_graph, build_eagerly, count_sorts


def test_path3_degrees(path3):
    assert path3.degrees.tolist() == [1, 2, 1]


def test_self_loop_adds_two_to_degree():
    g = build_graph(1, [(0, 0)])
    assert g.degrees.tolist() == [2]
    assert g.num_half_edges == 2


def test_fig_a_degrees(fig_a):
    assert fig_a.degrees.tolist() == [2, 4, 2, 2, 2]


def test_out_of_range_edge_rejected(tmp_path):
    with pytest.raises(GraphConstructionError):
        build_graph(3, [(0, 3)])
    # the message names the first bad edge, also beyond int64
    with pytest.raises(GraphConstructionError, match=r"edge \(5, 0\)"):
        build_graph(3, [(0, 1), (5, 0), (2 ** 70, 0)])
    with pytest.raises(GraphConstructionError, match=r"edge \(-1, 2\)"):
        build_graph(3, np.array([[0, 1], [-1, 2]]))
    path = tmp_path / "huge.edges"
    path.write_text(f"3 2\n0 1\n{2 ** 70} 2\n")
    with pytest.raises(GraphConstructionError, match=f"edge \\({2 ** 70}, 2\\)"):
        load_edge_list(path)
    with pytest.raises(GraphConstructionError):
        build_graph(0, [])


def test_half_edge_layout():
    g = build_graph(3, [(2, 1), (1, 0)])
    # edge t gives half-edges 2t (u->v) and 2t+1 (v->u)
    assert g.tails.tolist() == [2, 1, 1, 0]
    assert g.heads.tolist() == [1, 2, 0, 1]


def test_adjacency_multiplicities():
    g = build_graph(3, [(0, 1), (0, 1), (1, 2), (2, 2)])
    pairs, mult = np.unique(np.sort(g.edges, axis=1), axis=0,
                            return_counts=True)
    assert pairs.tolist() == [[0, 1], [1, 2], [2, 2]]
    assert mult.tolist() == [2, 1, 1]
    assert g.degrees.tolist() == [2, 3, 3]


edge_lists = st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                 max_size=20)))


@given(edge_lists)
def test_handshake_and_twin_involution(data):
    n, edges = data
    g = build_graph(n, edges)
    assert int(g.degrees.sum()) == g.num_half_edges == 2 * g.num_edges
    assert g.edges.tolist() == [list(e) for e in edges]
    for e in range(g.num_half_edges):
        assert (e ^ 1) ^ 1 == e
        assert g.heads[e] == g.tails[e ^ 1]
    # degrees[i] = sum of multiplicities + 2 * self-loops
    for i in range(n):
        expect = sum(1 for u, v in edges if i in (u, v) and u != v) \
            + 2 * sum(1 for u, v in edges if u == v == i)
        assert g.degrees[i] == expect


@given(edge_lists)
def test_out_edges_group_half_edges_by_tail_in_id_order(data):
    n, edges = data
    g = build_graph(n, edges)
    assert g.out_edges.tolist() == np.argsort(g.tails, kind="stable").tolist()
    assert g.out_start.tolist() == [0] + np.cumsum(g.degrees).tolist()


def test_build_graph_takes_over_an_int64_edge_array():
    # a C-contiguous int64 (m, 2) array becomes the graph's edges, which
    # tails views; any other input is converted to one
    edges = np.array([[0, 1], [1, 2], [2, 0]], dtype=np.int64)
    g = build_graph(3, edges)
    assert g.edges is edges
    assert np.shares_memory(g.tails, edges)
    for other in (edges.astype(np.int32), edges[:, ::-1], edges.tolist()):
        h = build_graph(3, other)
        assert not np.shares_memory(h.edges, edges)
        assert h.edges.flags.c_contiguous and h.edges.dtype == np.int64
        assert np.shares_memory(h.tails, h.edges)


@given(edge_lists, st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_component_flags_invariant_under_relabeling(data, rnd):
    n, edges = data
    perm = list(range(n))
    rnd.shuffle(perm)
    g1 = build_graph(n, edges)
    g2 = build_graph(n, [(perm[u], perm[v]) for u, v in edges])
    def flags(g):
        info, ref = analyze_components(g), bfs_components(g)
        return sorted(zip(info.sizes, ref.is_bipartite, ref.is_regular,
                          ref.is_biregular_bipartite, info.degree_sums))
    assert flags(g1) == flags(g2)


multigraphs = st.integers(min_value=1, max_value=24).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                 max_size=30)))


@given(multigraphs)
@settings(max_examples=300)
def test_analyze_components_matches_bfs(data):
    # self-loops, parallel edges, isolated vertices and edgeless graphs
    n, edges = data
    g = build_graph(n, edges)
    got, want = analyze_components(g), bfs_components(g)
    assert got.component_id.dtype == want.component_id.dtype
    assert got.component_id.tolist() == want.component_id.tolist()
    assert got.sizes == want.sizes
    assert got.degree_sums == want.degree_sums


def test_components_cycle4(cycle4):
    assert len(analyze_components(cycle4).sizes) == 1
    info = bfs_components(cycle4)
    assert info.is_bipartite == [True]
    assert info.is_regular == [True]


def test_components_star(star3):
    info = bfs_components(star3)
    assert info.is_bipartite == [True]
    assert info.is_regular == [False]
    assert info.is_biregular_bipartite == [True]


def test_components_fig_a(fig_a):
    assert len(analyze_components(fig_a).sizes) == 1
    info = bfs_components(fig_a)
    assert info.is_bipartite == [False]   # contains a triangle
    assert info.is_regular == [False]


def test_self_loop_breaks_bipartiteness():
    info = bfs_components(build_graph(2, [(0, 1), (1, 1)]))
    assert info.is_bipartite == [False]


def test_analyze_components_idempotent(fig_a):
    a = analyze_components(fig_a)
    b = analyze_components(fig_a)
    assert a.component_id.tolist() == b.component_id.tolist()
    assert (a.sizes, a.degree_sums) == (b.sizes, b.degree_sums)


def test_validate_nb(path3, complete4):
    rep = validate_for_exploration(path3, "nb")
    assert not rep.ok and sorted(rep.violations) == [0, 2]
    rep = validate_for_exploration(complete4, "nb")
    assert rep.ok and int(complete4.degrees.min()) >= 3


def test_validate_bt_self_loop():
    g = build_graph(2, [(0, 1), (0, 0)])
    rep = validate_for_exploration(g, "bt")
    assert not rep.ok and 0 in rep.violations
    rep = validate_for_exploration(g, "lazy")
    assert not rep.ok


def test_validate_bt_isolated():
    g = build_graph(3, [(0, 1)])
    rep = validate_for_exploration(g, "bt")
    assert not rep.ok and rep.violations == [2]


def test_validate_unknown_kind(path3):
    with pytest.raises(ValueError):
        validate_for_exploration(path3, "teleporting")


def test_edge_list_round_trip(tmp_path, fig_a):
    path = tmp_path / "g.edges"
    save_edge_list(fig_a, path)
    g2 = load_edge_list(path)
    assert g2.n == fig_a.n
    assert g2.edges.tolist() == fig_a.edges.tolist()
    save_edge_list(g2, tmp_path / "g2.edges")
    assert (tmp_path / "g.edges").read_bytes() == (tmp_path / "g2.edges").read_bytes()


def test_largest_component_and_drop_isolated():
    g = build_graph(7, [(0, 1), (1, 2), (2, 0), (3, 4)])  # vertices 5, 6 isolated
    giant, old = largest_component(g)
    assert giant.n == 3 and old.tolist() == [0, 1, 2]
    sub, old = induced_subgraph(g, [3, 4, 5])
    assert sub.n == 3 and sub.edges.tolist() == [[0, 1]]
    with pytest.raises(ValueError):
        induced_subgraph(g, [])
    # a tie in size goes to the component with the lowest label, i.e. the
    # one holding the smallest vertex, whatever the edge order
    tie = build_graph(6, [(1, 3), (3, 5), (0, 2), (2, 4)])
    giant, old = largest_component(tie)
    assert old.tolist() == [0, 2, 4]
    assert giant.edges.tolist() == [[0, 1], [1, 2]]


def _tie_giant(tmp_path):
    return largest_component(
        build_graph(6, [(1, 3), (3, 5), (0, 2), (2, 4)]))[0]


def _loaded_multigraph(tmp_path):
    # loops at 0 and 4, a parallel pair and a degree-1 vertex, 5
    path = tmp_path / "g.edges"
    if not path.exists():
        save_edge_list(build_graph(6, [(0, 0), (1, 2), (2, 1), (2, 3),
                                       (3, 4), (4, 4), (4, 5)]), path)
    return load_edge_list(path)


@pytest.mark.parametrize("source", [_tie_giant, _loaded_multigraph],
                         ids=["tie-giant", "loaded"])
def test_csr_is_sorted_once_on_first_read_as_the_eager_build(
        source, monkeypatch, tmp_path):
    with monkeypatch.context() as eager:
        build_eagerly(eager)
        want = source(tmp_path)
    sorts = count_sorts(monkeypatch)
    g = source(tmp_path)
    assert sorts == [0]
    assert_same_graph(g, want)
    g.out_slice(0)
    assert sorts == [1]


def test_edgeless_graph_round_trip(tmp_path):
    g = build_graph(3, [])
    path = tmp_path / "empty.edges"
    save_edge_list(g, path)
    g2 = load_edge_list(path)
    assert g2.n == 3 and g2.num_edges == 0
