import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from friendbias import (DistVector, bias_all, build_graph, mixing_profile,
                        mixing_time, pi_vertex, stationarity_residual,
                        stationary_bias, tv_distance, validate_for_exploration)
from friendbias import stationary
from friendbias.graph_core import PreconditionError
from friendbias.kernels import SizeGuardError
from friendbias.measures import EmpiricalMeasure, levy_distance
from friendbias.oracle import small_graph_corpus
from friendbias.stationary import _column_blocks, _pick_starts

from conftest import dense_transition


def test_pi_vertex_examples(path3, triangle, star3):
    assert np.allclose(pi_vertex(path3).weights, [0.25, 0.5, 0.25])
    assert np.allclose(pi_vertex(triangle).weights, [1 / 3] * 3)
    assert np.allclose(pi_vertex(star3).weights, [0.5, 1 / 6, 1 / 6, 1 / 6])


def test_pi_vertex_isolated_error():
    with pytest.raises(PreconditionError):
        pi_vertex(build_graph(3, [(0, 1)]))


def test_stationary_bias_regular(triangle):
    m = stationary_bias(triangle)
    assert m.values.tolist() == [0.0]


def test_stationary_bias_path3(path3):
    m = stationary_bias(path3)
    # moment ratio 6/4 gives biases (1/2, -1/2, 1/2)
    assert m.values.tolist() == [-0.5, 0.5]
    assert np.allclose(m.weights, [1 / 3, 2 / 3])


def test_stationary_bias_star(star3):
    m = stationary_bias(star3)
    assert m.values.tolist() == [-1.0, 1.0]
    assert np.allclose(m.weights, [0.25, 0.75])


def test_stationary_bias_component_scope():
    g = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    m_global = stationary_bias(g, scope="global")
    m_comp = stationary_bias(g, scope="component")
    assert m_comp.values.tolist() == [0.0]      # each triangle is regular
    assert m_global.values.tolist() == [0.0]    # identical degrees globally
    mixed = build_graph(5, [(0, 1), (1, 2), (3, 4)])
    m = stationary_bias(mixed, scope="component")
    # path component ratio 3/2, edge component ratio 1
    assert np.allclose(sorted(set(np.round(m.values, 12))), [-0.5, 0.0, 0.5])


def test_stationary_bias_refuses_isolated_vertices():
    g = build_graph(3, [(0, 1)])
    for scope in ("global", "component"):
        with pytest.raises(PreconditionError, match="isolated vertex present"):
            stationary_bias(g, scope=scope)
    # an unknown scope is named before the graph is looked at
    with pytest.raises(ValueError, match="unknown scope 'local'"):
        stationary_bias(g, scope="local")


def test_tv_distance_examples():
    a = DistVector("vertices", np.array([0.75, 0.25]))
    b = DistVector("vertices", np.array([0.25, 0.75]))
    assert tv_distance(a, a) == 0.0
    assert tv_distance(a, b) == pytest.approx(0.5)
    d0 = DistVector.point_mass("vertices", 2, 0)
    d1 = DistVector.point_mass("vertices", 2, 1)
    assert tv_distance(d0, d1) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        tv_distance(d0, DistVector.point_mass("vertices", 3, 0))


def test_stationarity_residuals():
    for name, g in small_graph_corpus().items():
        for kind in ("bt", "lazy", "nb"):
            if not validate_for_exploration(g, "bt" if kind == "lazy" else kind).ok:
                continue
            assert stationarity_residual(g, kind) <= 1e-12, (name, kind)


def test_stationary_weighted_mean_bias_vanishes():
    for name, g in small_graph_corpus().items():
        if int(g.degrees.min()) == 0:
            continue
        pi = g.degrees_float / g.degrees_float.sum()
        ratio = float(np.dot(g.degrees_float, g.degrees_float) / g.degrees_float.sum())
        assert abs(float(np.dot(pi, ratio - g.degrees_float))) <= 1e-10, name


def test_mixing_k4_level1(complete4):
    prof = mixing_profile(complete4, "bt", 5)
    assert prof.D_values[0] == pytest.approx(0.25)


def test_mixing_bipartite_path_never_crosses(path3):
    prof = mixing_profile(path3, "bt", 50, eps_list=(0.1,))
    assert prof.crossings.get(0.1) is None
    assert not prof.flagged_nonergodic       # TV plateaus at 1/2, not near 1
    assert min(prof.D_values) > 0.4


def test_mixing_lazy_path_crosses(path3):
    prof = mixing_profile(path3, "lazy", 400, eps_list=(0.01,), delta=0.5)
    k_star = prof.crossings.get(0.01)
    assert k_star is not None
    # oracle: explicit 3x3 lazy matrix powers
    P = dense_transition(path3)
    L = 0.5 * np.eye(3) + 0.5 * P
    pi = np.array([0.25, 0.5, 0.25])
    M = np.linalg.matrix_power(L, k_star)
    worst = 0.5 * np.abs(M - pi).sum(axis=1).max()
    assert worst <= 0.01
    M = np.linalg.matrix_power(L, k_star - 1)
    assert 0.5 * np.abs(M - pi).sum(axis=1).max() > 0.01


def test_mixing_lazy_monotone(fig_a):
    prof = mixing_profile(fig_a, "lazy", 200)
    diffs = np.diff(prof.D_values)
    assert diffs.max() <= 1e-12
    assert all(0.0 <= d <= 1.0 + 1e-12 for d in prof.D_values)


def test_mixing_nb_reports_both_levels():
    # triangles joined by a bridge: closed nb walks of lengths 3 and 8
    # coexist, so the edge chain is aperiodic and mixes
    g = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
    prof = mixing_profile(g, "nb", 300, eps_list=(0.01,))
    assert prof.D_vertex_values is not None
    assert prof.states == g.num_half_edges
    assert prof.crossings.get(0.01) is not None
    assert prof.D_vertex_values[-1] < 0.01


def test_mixing_nb_periodic_chain_flagged(fig_a):
    # two triangles sharing a vertex: every closed nb walk is a chain of
    # 3-step triangle loops, so the edge chain has period 3 and never mixes
    prof = mixing_profile(fig_a, "nb", 150, eps_list=(0.01,))
    assert prof.crossings.get(0.01) is None
    assert min(prof.D_values) > 0.3


def test_mixing_profile_matches_dense_matrix_powers(fig_a):
    # the batched push machinery against explicit matrix powers
    P = dense_transition(fig_a)
    pi = fig_a.degrees_float / fig_a.degrees_float.sum()
    prof = mixing_profile(fig_a, "bt", 8)
    M = np.eye(fig_a.n)
    for k in range(1, 9):
        M = M @ P
        want = 0.5 * np.abs(M - pi).sum(axis=1).max()
        assert abs(prof.D_values[k - 1] - want) < 1e-12

    g = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
    # edge-chain matrix from its definition: from e, uniform over the
    # half-edges leaving head(e) other than twin(e)
    m2 = g.num_half_edges
    E = np.zeros((m2, m2))
    for e in range(m2):
        h = int(g.heads[e])
        for f in g.out_slice(h):
            if f != e ^ 1:
                E[e, f] = 1.0 / (g.degrees[h] - 1)
    from friendbias import WalkOperator
    # a state-major batch: column e of the push is row e of E
    assert np.abs(WalkOperator(g, "nb").push(np.eye(m2)) - E.T).max() < 1e-15
    prof = mixing_profile(g, "nb", 8)
    M = np.eye(m2)
    for k in range(1, 9):
        M = M @ E
        want = 0.5 * np.abs(M - 1.0 / m2).sum(axis=1).max()
        assert abs(prof.D_values[k - 1] - want) < 1e-12


def _mixing_cases():
    from friendbias import GenSpec, realize
    narrow = {"2": 0.3, "3": 0.4, "4": 0.3}
    wide = {"2": 0.3, "3": 0.3, "9": 0.2, "14": 0.2}   # degrees above 8
    for kind in ("bt", "lazy", "nb"):
        # bt and lazy refuse self-loops; nb keeps the multigraph
        for label, pmf, n, cap in (("over-128-states", narrow, 300, None),
                                   ("wide-degrees", wide, 80, None),
                                   ("starts-cap", narrow, 300, 16)):
            g = realize(GenSpec(model="configuration", n=n, degree_pmf=pmf,
                                seed=41), erase=kind != "nb")
            yield pytest.param(g, kind, cap, label, id=f"{kind}-{label}")


def _assert_levels_match_reference(g, kind, cap, k_max=30):
    """mixing_profile's curves and mixing_time's crossings against the
    row-major reference levels, bit for bit."""
    from friendbias import WalkOperator
    from mixing_reference import tv_levels_rows
    op = WalkOperator(g, kind, 0.3)
    ref = list(tv_levels_rows(op, k_max, cap, vertex_curve=True))
    want = np.array([d for _, d, _ in ref])
    prof = mixing_profile(g, kind, k_max, delta=0.3, starts_cap=cap)

    def bits(values):
        return np.asarray(values, dtype=np.float64).view(np.int64)

    assert np.array_equal(bits(prof.D_values), bits(want))
    if kind == "nb":
        assert np.array_equal(bits(prof.D_vertex_values),
                              bits([dv for _, _, dv in ref]))
    for eps in want[[0, 4, 14, k_max - 1]]:
        # eps is a reference value, so the crossing sits on a bit boundary
        first = next(k for k, d in enumerate(want, 1) if d <= eps)
        assert mixing_time(g, kind, float(eps), k_max, delta=0.3,
                           starts_cap=cap) == first


@pytest.mark.parametrize("g, kind, cap, label", _mixing_cases())
def test_mixing_levels_match_row_major_reference_bit_for_bit(g, kind, cap,
                                                             label):
    assert validate_for_exploration(g, "bt" if kind == "lazy" else kind).ok
    if label == "over-128-states":
        assert g.n > 128                    # pairwise blocks in the TV sums
    elif label == "wide-degrees":
        assert int(g.degrees.max()) > 8     # the long reduceat segments
    else:
        assert cap < g.n
    _assert_levels_match_reference(g, kind, cap)


@pytest.mark.parametrize("width, sizes", [
    (2, [2] * 7 + [3]),         # a one-column remainder joins the last block
    (3, [3] * 5 + [2]),
    (8, [8, 9]),
    (None, [17]),               # the default budget: one whole-batch block
], ids=["width-2", "width-3", "width-8", "whole-batch"])
@pytest.mark.parametrize("kind", ["bt", "lazy", "nb"])
def test_mixing_blocks_match_row_major_reference_bit_for_bit(monkeypatch, kind,
                                                             width, sizes):
    """Any split of the batch into column blocks gives the row-major
    reference levels bit for bit. On this nb chain a split that left the
    last start alone in a block would sum it pairwise and change D_k at
    27 of the 30 levels."""
    from friendbias import GenSpec, realize
    g = realize(GenSpec(model="configuration", n=300,
                        degree_pmf={"2": 0.3, "3": 0.4, "4": 0.3}, seed=48),
                erase=kind != "nb")
    cap = 17
    states = g.num_half_edges if kind == "nb" else g.n
    if width is not None:
        monkeypatch.setattr(stationary, "BLOCK_BYTES", 8 * states * width)
    assert [b.size for b in _column_blocks(_pick_starts(states, cap),
                                           states)] == sizes
    if kind == "nb":
        # the start vertices of the projected curve split the same way
        assert [b.size for b in _column_blocks(_pick_starts(g.n, cap),
                                               states)] == sizes
    _assert_levels_match_reference(g, kind, cap)


def test_column_blocks_never_leave_one_column_alone(monkeypatch):
    monkeypatch.setattr(stationary, "BLOCK_BYTES", 8 * 100 * 4)
    assert [b.size for b in _column_blocks(np.arange(9), 100)] == [4, 5]
    assert [b.size for b in _column_blocks(np.arange(10), 100)] == [4, 4, 2]
    # a budget under two columns still takes two at a time
    assert [b.size for b in _column_blocks(np.arange(5), 10 ** 6)] == [2, 3]
    assert [b.size for b in _column_blocks(np.arange(1), 10 ** 6)] == [1]
    blocks = _column_blocks(np.arange(7, 30), 100)
    assert np.concatenate(blocks).tolist() == list(range(7, 30))


def test_mixing_batch_is_never_built_whole():
    """The column blocks bound the peak memory of a level below twice the
    batch; a whole-batch push and its temporaries took over five times."""
    from friendbias import GenSpec, realize
    g = realize(GenSpec(model="configuration", n=20000,
                        degree_pmf={"3": 0.5, "4": 0.5}, seed=7), erase=True)
    batch = 48 * g.n * 8
    tracemalloc.start()
    try:
        assert mixing_time(g, "bt", 1e-9, 5, starts_cap=48) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * batch


def test_pick_starts_guard():
    assert _pick_starts(10, None).tolist() == list(range(10))
    sub = _pick_starts(1000, 16)
    assert len(sub) == 16 and sub[0] == 0 and sub[-1] == 999
    with pytest.raises(ValueError):
        _pick_starts(100000, None)


def test_levy_dominated_by_tv_past_crossing():
    """Past the 0.01 mixing crossing the Levy distance to the stationary
    bias law stays below twice the worst-case TV distance."""
    from friendbias import GenSpec, realize
    from friendbias.kernels import bias_profile
    g = realize(GenSpec(model="configuration", n=40,
                        degree_pmf={3: 0.5, 4: 0.5}, seed=31), erase=True)
    prof = mixing_profile(g, "bt", 300, eps_list=(0.01,))
    cross = prof.crossings.get(0.01)
    assert cross is not None
    limit = stationary_bias(g)
    for k, deltas in bias_profile(g, cross + 20, "bt"):
        if k < cross:
            continue
        mu_k = EmpiricalMeasure.from_values(deltas)
        assert levy_distance(mu_k, limit) <= 2 * prof.D_values[k - 1]


def test_long_level_convergence_past_crossing():
    """Once the chain is mixed to 1e-8, the level-k bias distribution sits
    within 1e-6 of the stationary one in Levy distance."""
    g = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
    limit = stationary_bias(g)
    for kind in ("bt", "nb", "lazy"):
        k_star = mixing_time(g, kind, 1e-8, 900)
        assert k_star is not None, kind
        mu = bias_all(g, k_star, kind)
        assert levy_distance(mu, limit) <= 1e-6, kind


@given(st.integers(0, 10 ** 6), st.integers(6, 60),
       st.sampled_from(["bt", "nb", "lazy"]),
       st.sampled_from([0.5, 0.1, 0.01, 1e-4]), st.integers(0, 60),
       st.sampled_from([None, 1, 5, 16]))
@settings(max_examples=60, deadline=None)
def test_mixing_time_is_first_crossing(seed, n, kind, eps, k_max, cap):
    from friendbias import (erase_to_simple, gen_configuration_model,
                            sample_degree_sequence)
    seq = sample_degree_sequence({2: 0.3, 3: 0.4, 4: 0.3}, n, seed)
    g = gen_configuration_model(seq, seed + 1)
    if kind != "nb":     # bt and lazy refuse self-loops
        g, _ = erase_to_simple(g)
    if not validate_for_exploration(g, "bt" if kind == "lazy" else kind).ok:
        return
    prof = mixing_profile(g, kind, k_max, eps_list=(eps,), delta=0.3,
                          starts_cap=cap)
    assert mixing_time(g, kind, eps, k_max, delta=0.3,
                       starts_cap=cap) == prof.crossings.get(eps)


def test_mixing_time_never_crossing(path3, fig_a):
    # bipartite bt and the period-3 nb chain never mix
    assert mixing_time(path3, "bt", 0.1, 50) is None
    assert mixing_time(fig_a, "nb", 0.01, 150) is None


def test_dense_batch_guard_counts_the_nb_vertex_batch(monkeypatch):
    # 14 half-edge starts x 14 states fit; with the 6 vertex starts of the
    # projected curve, 20 x 14 x 8 = 2240 bytes do not
    g = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
    crossing = mixing_time(g, "nb", 0.01, 300)
    monkeypatch.setattr(stationary, "MAX_DENSE_BYTES", 2000)
    with pytest.raises(SizeGuardError, match="20 starts x 14 states needs 2240 bytes"):
        mixing_profile(g, "nb", 300)
    assert mixing_time(g, "nb", 0.01, 300) == crossing
    monkeypatch.setattr(stationary, "MAX_DENSE_BYTES", 1500)
    with pytest.raises(SizeGuardError, match="14 starts x 14 states"):
        mixing_time(g, "nb", 0.01, 300)
