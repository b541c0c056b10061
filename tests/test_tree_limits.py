import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from friendbias import tree_limits
from friendbias import (OffspringLaw, exact_mu, mix_seed, sample_mu,
                        sample_mu_star, truncated_poisson)
from friendbias.measures import EmpiricalMeasure, levy_distance
from gw_reference import (GWTree, bt_bias_on_finite_tree, nb_bias_on_tree,
                          sample_gw, stationary_tree_bias)
from mu_star_loop import sample_mu_star_loop


def law(d):
    return OffspringLaw.from_dict(d)


def rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def test_size_bias_regular():
    assert law({3: 1.0}).size_biased.to_dict() == {"2": 1.0}


def test_size_bias_two_atom():
    p = law({2: 0.5, 4: 0.5}).size_biased
    assert p.ks.tolist() == [1, 3]
    assert np.allclose(p.ps, [1 / 3, 2 / 3])


def test_size_bias_poisson_self_dual():
    p = truncated_poisson(2.5)
    p_star = p.size_biased
    # (k+1) p_{k+1} / lam leaves a Poisson pmf unchanged
    overlap = 0.0
    for k, w in zip(p_star.ks.tolist(), p_star.ps.tolist()):
        idx = np.where(p.ks == k)[0]
        if idx.size:
            overlap += min(w, float(p.ps[idx[0]]))
    assert 1.0 - overlap < 1e-10


def test_size_bias_normalization_and_mean_identity():
    for d in ({1: 0.2, 5: 0.8}, {2: 0.5, 4: 0.5}, {3: 0.25, 4: 0.5, 7: 0.25}):
        p = law(d)
        p_star = p.size_biased
        assert abs(float(p_star.ps.sum()) - 1.0) <= 1e-15
        assert p_star.m1 + 1 == pytest.approx(p.m2 / p.m1, abs=1e-12)


def test_size_bias_zero_mean_error():
    with pytest.raises(ValueError):
        law({0: 1.0}).size_biased


def test_moment_ratio_zero_mean_error():
    assert law({3: 0.5, 4: 0.5}).moment_ratio == 25 / 7
    p = law({0: 1.0})
    for call in (lambda: p.moment_ratio, lambda: exact_mu(p),
                 lambda: sample_mu(p, 10, 0)):
        with pytest.raises(ValueError, match="offspring mean is zero"):
            call()


@given(st.dictionaries(st.integers(0, 9), st.integers(1, 20),
                       min_size=1, max_size=5))
@settings(max_examples=60)
def test_size_bias_identity_random_pmfs(raw):
    total = sum(raw.values())
    pmf = {k: v / total for k, v in raw.items()}
    if sum(k * v for k, v in pmf.items()) == 0:
        return
    p = law(pmf)
    p_star = p.size_biased
    assert abs(float(p_star.ps.sum()) - 1.0) <= 1e-12
    assert abs((p_star.m1 + 1) - p.m2 / p.m1) <= 1e-12


def test_pmf_validation():
    with pytest.raises(ValueError):
        OffspringLaw(ks=np.array([1, 2]), ps=np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        OffspringLaw(ks=np.array([-1]), ps=np.array([1.0]))


def test_truncated_poisson_metadata():
    p = truncated_poisson(4.0)
    assert abs(float(p.ps.sum()) - 1.0) <= 1e-12
    assert p.ks[-1] > 20
    assert p.m1 == pytest.approx(4.0, abs=1e-9)


def test_size_biased_is_derived_once_per_law():
    p = law({2: 0.5, 4: 0.5})
    assert p.size_biased is p.size_biased


def test_sample_gw_regular_tree():
    t = sample_gw(law({3: 1.0}), rng(0), 2)
    assert t.root_offspring == 3
    assert t.levels[1].tolist() == [2, 2, 2]     # size-biased shift of delta_3
    assert t.levels[2].size == 6


def test_sample_gw_root_law():
    p = law({2: 0.5, 4: 0.5})
    gen = rng(3)
    roots = np.array([sample_gw(p, gen, 1).root_offspring
                      for _ in range(100_000)])
    frac2 = float(np.mean(roots == 2))
    assert abs(frac2 - 0.5) < 0.01


def test_truncated_tree_invariants():
    with pytest.raises(ValueError):
        GWTree(levels=[[2], [1]])
    with pytest.raises(ValueError):
        GWTree(levels=[[1, 1]])


def test_malformed_or_unfinished_tree_is_rejected():
    with pytest.raises(ValueError, match="level 1 has 1 vertices, expected 2"):
        GWTree(levels=[[2], [1]])
    # well-formed levels whose last generation still has children
    for t in (GWTree(levels=[[2]]), GWTree(levels=[[1], [1]])):
        for call in (stationary_tree_bias, GWTree.degrees, GWTree.to_graph,
                     lambda t: bt_bias_on_finite_tree(t, 5)):
            with pytest.raises(ValueError, match="incomplete tree"):
                call(t)


def test_nb_bias_regular_tree_is_zero():
    t = sample_gw(law({3: 1.0}), rng(9), 5)
    for k in range(1, 6):
        assert nb_bias_on_tree(t, k) == 0.0


def test_nb_bias_depth1_by_hand():
    t = GWTree(levels=[[2], [1, 3]])
    # 1/2 * (1+1) + 1/2 * (3+1) - 2 = 1
    assert nb_bias_on_tree(t, 1) == pytest.approx(1.0)


def test_nb_bias_requires_offspring():
    t = GWTree(levels=[[2], [0, 2], [1, 1]])
    with pytest.raises(ValueError):
        nb_bias_on_tree(t, 2)
    assert nb_bias_on_tree(t, 1) == pytest.approx(0.5 * 1 + 0.5 * 3 - 2)


def test_nb_bias_monte_carlo_mean():
    # at any level the expected reached degree is E[D^2]/E[D] = 10/3
    p = law({2: 0.5, 4: 0.5})
    n = 20_000
    vals = np.empty(n)
    for i in range(n):
        t = sample_gw(p, rng(mix_seed(910, i)), 4)
        vals[i] = nb_bias_on_tree(t, 4)
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean() - 1 / 3) <= 3 * se


def test_short_level_law_approaches_mu():
    # same trees reused across levels couples the Monte Carlo errors
    p = law({3: 0.5, 4: 0.5})
    limit = exact_mu(p)
    n = 3000
    ks = (2, 4, 6, 8)
    vals = {k: np.empty(n) for k in ks}
    for i in range(n):
        t = sample_gw(p, rng(mix_seed(909, i)), 8)
        for k in ks:
            vals[k][i] = nb_bias_on_tree(t, k)
    dists = [levy_distance(EmpiricalMeasure.from_values(vals[k]), limit)
             for k in ks]
    assert all(a > b for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 0.05


def test_finite_tree_shapes():
    single = GWTree(levels=[[0]])
    assert stationary_tree_bias(single) == 0.0
    assert bt_bias_on_finite_tree(single, 10) == 0.0
    k2 = GWTree(levels=[[1], [0]])
    assert stationary_tree_bias(k2) == pytest.approx(0.0)
    path3_from_end = GWTree(levels=[[1], [1], [0]])
    assert stationary_tree_bias(path3_from_end) == pytest.approx(0.5)
    star_center = GWTree(levels=[[3], [0, 0, 0]])
    assert stationary_tree_bias(star_center) == pytest.approx(-1.0)


def test_to_graph_matches_parent_child_loop():
    t = GWTree(levels=[[2], [2, 0], [1, 3], [0, 0, 1, 0], [0]])
    offspring = np.concatenate(t.levels)
    edges, child = [], 1
    for parent, c in enumerate(offspring.tolist()):
        for _ in range(c):
            edges.append((parent, child))
            child += 1
    g = t.to_graph()
    assert g.n == t.num_vertices == 10
    assert g.edges.tolist() == [list(e) for e in edges]
    assert g.degrees.tolist() == t.degrees().tolist()


def test_lazy_walk_reaches_tree_equilibrium():
    trees = [GWTree(levels=[[1], [1], [0]]),
             GWTree(levels=[[3], [0, 0, 0]]),
             GWTree(levels=[[2], [2, 0], [1, 0], [0]])]
    for t in trees:
        want = stationary_tree_bias(t)
        got = bt_bias_on_finite_tree(t, 400, delta=0.5)
        assert abs(got - want) < 1e-8


def test_exact_mu_two_atoms():
    m = exact_mu(law({3: 0.5, 4: 0.5}))
    assert np.allclose(m.values, [25 / 7 - 4, 25 / 7 - 3])
    assert np.allclose(m.weights, [0.5, 0.5])


def test_sample_mu_regular_is_delta_zero():
    m = sample_mu(law({3: 1.0}), 1000, seed=1)
    assert m.values.tolist() == [0.0]


def test_sample_mu_poisson_mean_near_one():
    p = truncated_poisson(3.0)
    m = sample_mu(p, 100_000, seed=2)
    se = math.sqrt(max(m.moment(2) - m.mean() ** 2, 0.0) / 100_000)
    assert abs(m.mean() - 1.0) <= 3 * se + 1e-6


def test_mu_star_degenerate_half_half():
    # p = {0: 1/2, 1: 1/2}: trees are a bare root or one edge, bias 0 either way
    m = sample_mu_star(law({0: 0.5, 1: 0.5}), 2000, seed=3)
    assert m.values.tolist() == [0.0]


def test_mu_star_requires_subcritical():
    with pytest.raises(ValueError):
        sample_mu_star(law({3: 1.0}), 10, seed=0)


def test_mu_star_counts_rejections():
    m = sample_mu_star(law({1: 0.75, 2: 0.25}), 200, seed=8, size_cap=3)
    assert m.meta["rejections"] > 0


def _mu_star_outcome(sampler, p, n, seed, cap):
    """The measure's bits and meta, or the message of a RuntimeError."""
    try:
        m = sampler(p, n, seed, size_cap=cap)
    except RuntimeError as exc:
        return str(exc)
    return (m.values.view(np.int64).tolist(), m.weights.view(np.int64).tolist(),
            m.meta)


@st.composite
def subcritical_laws(draw):
    """Laws on {0, ..., 4} with E[p*] < 1: that is 3 w3 + 8 w4 < w1."""
    w0, w2, w3, w4 = (draw(st.integers(0, 6)) for _ in range(4))
    w1 = 3 * w3 + 8 * w4 + draw(st.integers(1, 20))
    total = w0 + w1 + w2 + w3 + w4
    return law({k: w / total for k, w in enumerate((w0, w1, w2, w3, w4))})


@given(p=subcritical_laws(), n=st.integers(1, 200),
       seed=st.integers(0, 2 ** 32),
       cap=st.sampled_from([1, 2, 3, 4, 9, 40, 10 ** 6]),
       block=st.sampled_from([1, 2, 5, 64, tree_limits._BLOCK]))
@settings(max_examples=150, deadline=None)
def test_mu_star_reads_the_per_tree_stream(p, n, seed, cap, block):
    # same uniforms, same order: bit-equal atoms and rejection counts, and
    # the too-many-rejections error on the same inputs; small blocks make
    # trees span several of them
    want = _mu_star_outcome(sample_mu_star_loop, p, n, seed, cap)
    with mock.patch.object(tree_limits, "_BLOCK", block):
        assert _mu_star_outcome(sample_mu_star, p, n, seed, cap) == want


@pytest.mark.parametrize("pmf, cap, block", [
    ({1: 0.75, 2: 0.25}, 10 ** 6, 8192),   # noncommute's law
    ({1: 0.75, 2: 0.25}, 10 ** 6, 3),      # trees span many blocks
    ({0: 0.2, 1: 0.5, 2: 0.3}, 4, 8192),   # bare roots and rejections
    ({1: 0.8, 3: 0.2}, 9, 5),
    ({0: 0.2, 1: 0.75, 4: 0.05}, 40, 8192),
])
def test_mu_star_matches_the_per_tree_loop(pmf, cap, block):
    p = law(pmf)
    want = _mu_star_outcome(sample_mu_star_loop, p, 3000, 31, cap)
    with mock.patch.object(tree_limits, "_BLOCK", block):
        assert _mu_star_outcome(sample_mu_star, p, 3000, 31, cap) == want
    assert (want[2]["rejections"] > 0) == (cap < 10 ** 6)


def test_mu_star_rejection_guard_matches_the_loop():
    # a cap of 1 keeps only bare roots (mass 0.2) and rejects the rest:
    # about 4 rejections per tree, under the 1000 + n guard at n = 100 and
    # over it at n = 400, where both samplers stop midway
    p = law({0: 0.2, 1: 0.5, 2: 0.3})
    for n in (100, 400):
        want = _mu_star_outcome(sample_mu_star_loop, p, n, 3, 1)
        assert _mu_star_outcome(sample_mu_star, p, n, 3, 1) == want
    assert want == ("mu_star sampling rejected too many trees; "
                    "size cap too small for this law")
    # exactly 1000 + n rejections is still allowed
    m = sample_mu_star(p, 309, seed=8, size_cap=1)
    assert m.meta["rejections"] == 1309


def test_size_cap_below_one_is_refused():
    p = law({0: 0.5, 1: 0.5})
    with pytest.raises(ValueError, match="size_cap must be >= 1"):
        sample_gw(p, rng(0), size_cap=0)
    with pytest.raises(ValueError, match="size_cap must be >= 1"):
        sample_mu_star(p, 10, seed=0, size_cap=0)
    # a cap of 1 keeps exactly the one-vertex trees
    m = sample_mu_star(p, 200, seed=0, size_cap=1)
    assert m.values.tolist() == [0.0] and m.meta["rejections"] > 0


def test_mu_star_sampler_matches_enumeration():
    from tree_enum_oracle import mu_star_mean_enumerated
    p = law({1: 0.75, 2: 0.25})
    n = 40_000
    m = sample_mu_star(p, n, seed=77)
    se = math.sqrt(max(m.moment(2) - m.mean() ** 2, 0.0) / n)
    enum_mean, mass = mu_star_mean_enumerated({1: 0.75, 2: 0.25}, 25)
    assert abs(m.mean() - enum_mean) <= 3 * se + (1 - mass) * 4


def test_mu_means_differ_for_noncommuting_law():
    p = law({1: 0.75, 2: 0.25})
    n = 50_000
    mu = sample_mu(p, n, seed=21)
    mu_star = sample_mu_star(p, n, seed=22)
    se = math.sqrt((mu.moment(2) - mu.mean() ** 2) / n
                   + (mu_star.moment(2) - mu_star.mean() ** 2) / n)
    assert abs(mu.mean() - mu_star.mean()) > 5 * se


def test_finite_gw_tree_sizes():
    r = rng(5)
    p = law({1: 0.75, 2: 0.25})
    sizes = [sample_gw(p, r).num_vertices for _ in range(2000)]
    # E[size] = 1 + E[D] / (1 - E[p*]) = 1 + 1.25 / 0.6
    expect = 1 + 1.25 / 0.6
    assert abs(np.mean(sizes) - expect) < 0.25


# sha256 of the breadth-first offspring counts of each tree (None marked),
# recorded from the two samplers that `sample_gw` replaced: depth-4 trees for
# seeds 0..49, and 500 consecutive draws grown to extinction under
# size_cap=5 from one generator seeded 0
PINNED_DRAWS = {
    (("3", 0.5), ("4", 0.5)): (
        "df988852041ddd1b7e55f5e16f3c3c225eda7187b510bd51d031fc3b8c20e70b",
        "55c68872ce90afba792509716813614923037703708b3908ce5606376b38c3f7"),
    (("1", 0.75), ("2", 0.25)): (
        "fe04b944311cad1ca1ad62d265ce2855700cecda9ec18adcaa68dc33653f4cd4",
        "caceb2838aa35d1bd543ab1fd67c5787ae8c9407b2ac3aba69666c1fc8d6b60b"),
    (("0", 0.3), ("2", 0.7)): (
        "a6dc05e136e195272da2211365960ca95f39b2f126a48dcf3b1a724571e99a51",
        "4f49632add116a249a1a577f6a34aeebcd4387faaea3f4e5f277fc546d4dd184"),
}


def _tree_digest(trees):
    h = hashlib.sha256()
    for t in trees:
        h.update(b"None;" if t is None else
                 np.concatenate(t.levels).astype("<i8").tobytes() + b";")
    return h.hexdigest()


@pytest.mark.parametrize("pmf", sorted(PINNED_DRAWS))
def test_sample_gw_pins_draw_order(pmf):
    p = law(dict(pmf))
    truncated = _tree_digest(sample_gw(p, rng(s), 4) for s in range(50))
    r = rng(0)
    capped = _tree_digest(sample_gw(p, r, size_cap=5) for _ in range(500))
    assert (truncated, capped) == PINNED_DRAWS[pmf]
