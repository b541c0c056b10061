import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from friendbias import (DistVector, EmpiricalMeasure, WalkOperator, bias_all,
                        build_graph, validate_for_exploration)
from friendbias.graph_core import PreconditionError
from friendbias.kernels import _k_step_dist, _VertexSums
from friendbias.oracle import small_graph_corpus

from conftest import dense_transition


def bias_k(g, i, k, kind):
    """k-level bias of vertex i: E[degree after k steps] - degree of i."""
    d = g.degrees_float
    return float(np.dot(_k_step_dist(g, i, k, kind, 0.5).weights, d) - d[i])


def test_distvector_validation():
    with pytest.raises(ValueError):
        DistVector("vertices", np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        DistVector("vertices", np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        DistVector("simplices", np.array([1.0]))
    w = np.array([2.0, 2.0])
    d = DistVector("vertices", w / w.sum())
    assert np.allclose(d.weights, [0.5, 0.5])


def test_bt_push_path3(path3):
    op = WalkOperator(path3, "bt")
    assert np.allclose(op.push(op.lift(1)), [0.5, 0.0, 0.5])
    assert np.allclose(op.push(op.lift(0)), [0.0, 1.0, 0.0])


def test_bt_push_uniform_fixed_on_regular(triangle):
    u = DistVector.uniform("vertices", 3)
    assert np.allclose(WalkOperator(triangle, "bt").push(u.weights), u.weights)


def test_bt_push_errors():
    loopy = build_graph(2, [(0, 1), (1, 1)])
    lonely = build_graph(3, [(0, 1)])
    for g in (loopy, lonely):
        for kind in ("bt", "lazy"):
            with pytest.raises(PreconditionError):
                WalkOperator(g, kind)
    with pytest.raises(ValueError):
        WalkOperator(lonely, "simple")


def test_lazy_push_definition(path3):
    op = WalkOperator(path3, "lazy", 0.5)
    assert np.allclose(op.push(op.lift(0)), [0.5, 0.5, 0.0])
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            WalkOperator(path3, "lazy", bad)


def test_lazy_fixed_point_is_degree_proportional(fig_a):
    degf = fig_a.degrees_float
    pi = DistVector("vertices", degf / degf.sum())
    out = WalkOperator(fig_a, "lazy", 0.5).push(pi.weights)
    assert np.abs(out - pi.weights).max() < 1e-15


def test_lazy_converges_on_bipartite_path(path3):
    # explicit 3x3 matrix powers as the oracle
    P = dense_transition(path3)
    L = 0.5 * np.eye(3) + 0.5 * P
    lazy = WalkOperator(path3, "lazy", 0.5)
    d = lazy.lift(0)
    row = np.array([1.0, 0.0, 0.0])
    for _ in range(60):
        d = lazy.push(d)
        row = row @ L
    assert np.abs(d - row).max() < 1e-12
    assert np.abs(d - np.array([0.25, 0.5, 0.25])).max() < 1e-8
    # the non-lazy walk keeps oscillating between the two parity classes
    bt = WalkOperator(path3, "bt")
    e = bt.lift(0)
    for _ in range(60):
        e = bt.push(e)
    assert np.allclose(e, [0.5, 0.0, 0.5])   # even step count
    assert np.allclose(bt.push(e), [0.0, 1.0, 0.0])


def test_nb_k_step_k0(complete4):
    assert np.allclose(_k_step_dist(complete4, 2, 0, "nb", 0.5).weights,
                       [0, 0, 1, 0])


def test_nb_k_step_k2_complete4(complete4):
    op = WalkOperator(complete4, "nb")
    out = op.to_vertices(op.push(op.lift(0)))
    assert np.allclose(out, [0.0, 1 / 3, 1 / 3, 1 / 3])


def test_nb_walk_circulates_on_triangle(triangle):
    out = _k_step_dist(triangle, 0, 3, "nb", 0.5)
    assert np.allclose(out.weights, [1.0, 0.0, 0.0])


def test_nb_rejects_low_degree(path3):
    with pytest.raises(PreconditionError):
        WalkOperator(path3, "nb")


def test_bias_zero_on_regular(triangle, cycle4, complete4):
    for g in (triangle, cycle4, complete4):
        for kind in ("bt", "nb", "lazy"):
            for k in (1, 2, 3):
                for i in range(g.n):
                    assert bias_k(g, i, k, kind) == pytest.approx(0.0, abs=1e-12)


def test_bias_path3_level1(path3):
    assert bias_k(path3, 0, 1, "bt") == pytest.approx(1.0)
    assert bias_k(path3, 1, 1, "bt") == pytest.approx(-1.0)


def test_bias_star_level2_vanishes(star3):
    # two steps return to the same side of a bi-regular bipartite graph;
    # oracle: square of the dense transition matrix
    P2 = np.linalg.matrix_power(dense_transition(star3), 2)
    d = star3.degrees_float
    for i in range(4):
        want = float(P2[i] @ d - d[i])
        assert want == pytest.approx(0.0, abs=1e-15)
        assert bias_k(star3, i, 2, "bt") == pytest.approx(0.0, abs=1e-12)


def test_bias_all_star_level1(star3):
    m = bias_all(star3, 1, "bt")
    assert m.values.tolist() == [-2.0, 2.0]
    assert np.allclose(m.weights, [0.25, 0.75])
    assert m.meta["mean_bias"] == pytest.approx(1.0)


def test_bias_all_level1_kind_independent():
    # same float pipeline => bitwise equality, not just closeness
    for name, g in small_graph_corpus().items():
        if not (validate_for_exploration(g, "nb").ok
                and validate_for_exploration(g, "bt").ok):
            continue
        a = bias_all(g, 1, "bt")
        b = bias_all(g, 1, "nb")
        assert np.array_equal(a.values, b.values), name
        assert np.array_equal(a.weights, b.weights), name


def test_bias_all_fig_a_nb_k3_mean_zero(fig_a):
    m = bias_all(fig_a, 3, "nb")
    assert abs(m.meta["mean_bias"]) < 1e-14
    info_mean = bias_all(fig_a, 2, "nb").meta["mean_bias"]
    assert info_mean > 0.1   # non-regular: lower levels do not vanish


def test_bias_all_k0_identity(fig_a):
    for kind in ("bt", "nb", "lazy"):
        m = bias_all(fig_a, 0, kind)
        assert m.values.tolist() == [0.0]


def test_bias_k_matches_bias_all(fig_a, complete4):
    for g in (fig_a, complete4):
        for kind in ("bt", "nb", "lazy"):
            for k in (1, 2, 4):
                per_vertex = np.array([bias_k(g, i, k, kind) for i in range(g.n)])
                m = bias_all(g, k, kind)
                want = EmpiricalMeasure.from_values(per_vertex)
                assert np.abs(want.values - m.values).max() < 1e-12
                assert np.array_equal(want.weights, m.weights)


def test_edge_chain_doubly_stochastic():
    for name, g in small_graph_corpus().items():
        if not validate_for_exploration(g, "nb").ok:
            continue
        op = WalkOperator(g, "nb")
        m2 = g.num_half_edges
        M = np.zeros((m2, m2))
        for e in range(m2):
            w = np.zeros(m2)
            w[e] = 1.0
            M[e] = op.push(w)
        assert np.abs(M.sum(axis=1) - 1.0).max() < 1e-12, name   # rows
        assert np.abs(M.sum(axis=0) - 1.0).max() < 1e-12, name   # columns
        uniform = np.full(m2, 1.0 / m2)
        assert np.abs(op.push(uniform) - uniform).max() < 1e-14, name


def _cm_graph(seed, n):
    from friendbias import gen_configuration_model, sample_degree_sequence
    seq = sample_degree_sequence({2: 0.3, 3: 0.4, 4: 0.3}, n, seed)
    return gen_configuration_model(seq, seed + 1)


@given(st.integers(0, 10 ** 6), st.integers(10, 200), st.sampled_from(["bt", "nb", "lazy"]),
       st.integers(1, 6))
@settings(max_examples=25, deadline=None)
def test_row_stochasticity_random_graphs(seed, n, kind, k):
    g = _cm_graph(seed, n)
    if not validate_for_exploration(g, "bt" if kind == "lazy" else kind).ok:
        return
    d = _k_step_dist(g, seed % n, k, kind, 0.5)
    assert abs(float(d.weights.sum()) - 1.0) <= 1e-12


@given(st.integers(0, 10 ** 6), st.integers(10, 120),
       st.sampled_from(["bt", "nb", "lazy"]))
@settings(max_examples=25, deadline=None)
def test_walk_operator_batch_and_duality(seed, n, kind):
    # unerased CM multigraphs: self-loops and parallel edges are kept
    g = _cm_graph(seed, n)
    if not validate_for_exploration(g, "bt" if kind == "lazy" else kind).ok:
        return
    op = WalkOperator(g, kind, 0.3)
    rng = np.random.default_rng(seed)
    # state-major batches: one law per column
    W = rng.random((op.states, 4))
    W /= W.sum(axis=0)
    Y = rng.standard_normal((4, op.states))
    pushed = op.push(W)
    for w, y, col in zip(W.T, Y, pushed.T):
        assert np.array_equal(op.push(w), col)
        assert abs(np.dot(col, y) - np.dot(w, op.expect(y))) <= 1e-12
    lifts = np.array([op.lift(i) for i in range(g.n)]).T
    for w, col in zip(lifts.T, op.to_vertices(lifts).T):
        assert np.array_equal(op.to_vertices(w), col)


@given(st.integers(0, 10 ** 6), st.lists(st.integers(1, 40), min_size=1,
                                        max_size=30), st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_vertex_sums_match_reduceat_bit_for_bit(seed, degrees, cols):
    # the column layout must keep np.add.reduceat's float order exactly;
    # degrees above 8 take the pairwise reduceat fallback
    rng = np.random.default_rng(seed)
    out_start = np.concatenate(([0], np.cumsum(degrees)))
    states = int(rng.integers(1, 100))
    via = rng.integers(0, states, out_start[-1])
    x = rng.standard_normal((2 * states, cols))
    x *= 10.0 ** rng.integers(-12, 13, x.shape)
    x[rng.random(x.shape) < 0.1] = 0.0
    x[rng.random(x.shape) < 0.1] = -0.0
    sums = _VertexSums(out_start, via)

    def reduceat(law):
        return np.add.reduceat(law[via], out_start[:-1]).view(np.int64)

    law = x[:states, 0]
    assert np.array_equal(sums(law).view(np.int64), reduceat(law))
    # state-major batches (states, starts): C-ordered, strided, Fortran
    for batch in (x[:states], x[::2], np.asfortranarray(x[states:])):
        got = sums(batch)
        assert got.shape == (len(degrees), cols)
        for j in range(cols):
            assert np.array_equal(got[:, j].view(np.int64),
                                  reduceat(batch[:, j]))
