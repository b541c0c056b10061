from fractions import Fraction

import pytest

from friendbias import build_graph, bias_all
from friendbias.graph_core import PreconditionError
from friendbias.oracle import (SizeGuardError, oracle_avg_bias,
                               oracle_avg_bias_exact, oracle_k_step,
                               oracle_k_step_exact, small_graph_corpus)
from conftest import carries
from walk_oracle import bt_avg_bias_is_zero, enumerate_walks


def test_walk_counts_triangle_nb(triangle):
    ws = enumerate_walks(triangle, 2, "nb")
    assert len(ws.walks) == 6      # 3 starts x 2 first choices x 1 follow-up


def test_walks_path3_bt(path3):
    ws = enumerate_walks(path3, 2, "bt")
    assert sorted(ws.walks) == [(0, 1, 0), (0, 1, 2), (1, 0, 1),
                                (1, 2, 1), (2, 1, 0), (2, 1, 2)]


def test_walks_k0(complete4):
    assert enumerate_walks(complete4, 0, "bt").walks == [(0,), (1,), (2,), (3,)]


def test_walks_respect_multiplicity():
    g = build_graph(2, [(0, 1), (0, 1)])
    ws = enumerate_walks(g, 1, "bt")
    # each parallel edge contributes its own walk in both directions
    assert sorted(ws.walks) == [(0, 1), (0, 1), (1, 0), (1, 0)]
    nb = enumerate_walks(g, 2, "nb")
    # from 0: two edge choices, then the single non-twin edge back
    assert sorted(nb.walks) == [(0, 1, 0), (0, 1, 0), (1, 0, 1), (1, 0, 1)]


def test_size_guards():
    big = build_graph(11, [(i, (i + 1) % 11) for i in range(11)])
    with pytest.raises(SizeGuardError):
        enumerate_walks(big, 2, "bt")
    small = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(SizeGuardError):
        oracle_k_step(small, 0, 7, "bt")


def test_kind_preconditions():
    loopy = build_graph(2, [(0, 1), (1, 1)])
    with pytest.raises(PreconditionError):
        enumerate_walks(loopy, 1, "bt")
    with pytest.raises(PreconditionError):
        oracle_k_step(build_graph(3, [(0, 1), (1, 2)]), 0, 2, "nb")
    with pytest.raises(PreconditionError, match="self-loops"):
        bt_avg_bias_is_zero(loopy, 1)
    with pytest.raises(PreconditionError, match="isolated vertices"):
        bt_avg_bias_is_zero(build_graph(3, [(0, 1)]), 1)


def test_kernel_and_oracle_refuse_in_one_wording(path3):
    # they said "graph not valid for 'nb' exploration" and "... 'nb' walks",
    # and neither named the vertices
    for refuse in (lambda: bias_all(path3, 2, "nb"),
                   lambda: oracle_k_step(path3, 0, 2, "nb")):
        with pytest.raises(PreconditionError) as err:
            refuse()
        assert str(err.value) == ("graph invalid for 'nb' exploration: 2 "
                                  "vertices of degree < 2 (vertices [0, 2])")


def test_oracle_path3_bt_two_steps(path3):
    exact = oracle_k_step_exact(path3, 0, 2, "bt")
    assert exact == {0: Fraction(1, 2), 2: Fraction(1, 2)}


def test_oracle_star_level1(star3):
    assert oracle_avg_bias_exact(star3, 1, "bt") == Fraction(1)
    assert bias_all(star3, 1, "bt").meta["mean_bias"] == pytest.approx(1.0)


def test_fig_graphs_exact_zeros(fig_a, fig_b):
    assert oracle_avg_bias_exact(fig_a, 3, "nb") == 0
    assert oracle_avg_bias_exact(fig_a, 1, "nb") == Fraction(2, 5)
    assert oracle_avg_bias_exact(fig_a, 2, "nb") == Fraction(2, 5)
    assert oracle_avg_bias_exact(fig_b, 4, "nb") == 0
    for k in (1, 2, 3):
        assert oracle_avg_bias_exact(fig_b, k, "nb") == Fraction(2, 7)


def test_symmetrised_form_agrees():
    # oracle_avg_bias_exact raises internally if the definitional and the
    # symmetrised rationals differ; sweep the corpus to exercise that check
    for name, g in small_graph_corpus().items():
        for kind in ("bt", "nb"):
            if not carries(g, kind):
                continue
            for k in range(0, 5):
                oracle_avg_bias_exact(g, k, kind)


def test_bt_zero_classifier_matches_fraction_oracle():
    for name, g in small_graph_corpus().items():
        if not carries(g, "bt") or g.n > 8:
            continue
        for k in (1, 2, 3):
            want = oracle_avg_bias_exact(g, k, "bt") == 0
            assert bt_avg_bias_is_zero(g, k) == want, (name, k)


def test_avg_bias_nonnegative_on_corpus():
    for name, g in small_graph_corpus().items():
        for kind in ("bt", "nb"):
            if not carries(g, kind):
                continue
            for k in range(1, 5):
                assert oracle_avg_bias_exact(g, k, kind) >= 0, (name, kind, k)


def test_oracle_avg_bias_float(complete4):
    assert oracle_avg_bias(complete4, 3, "nb") == 0.0
