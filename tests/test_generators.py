import itertools
from dataclasses import replace

import numpy as np
import pytest

from friendbias import (GenSpec, OffspringLaw, erase_to_simple,
                        gen_configuration_model, gen_erdos_renyi, generate,
                        mix_seed, realize, sample_degree_sequence)
from friendbias.generators import _distinct_codes
from eager_csr import assert_same_graph, build_eagerly, count_sorts
from er_loop import distinct_codes_loop, gen_erdos_renyi_loop


def test_er_deterministic():
    a = gen_erdos_renyi(4, 3.0, 123)
    b = gen_erdos_renyi(4, 3.0, 123)
    assert a.edges.tolist() == b.edges.tolist()
    c = gen_erdos_renyi(4, 3.0, 124)
    assert a.edges.tolist() != c.edges.tolist() or a.num_edges == c.num_edges


def test_er_simple():
    for seed in range(10):
        g = gen_erdos_renyi(30, 6.0, seed)
        assert not np.any(g.tails == g.heads)
        pairs = [tuple(sorted(e)) for e in g.edges.tolist()]
        assert len(pairs) == len(set(pairs))


# n > 2000 has over 2*10^6 pairs, where the edges come from the rejection
# sampler; lam = 1000 runs many batches and cuts the last at m
@pytest.mark.parametrize("n, lam, seed", [
    (2001, 3.0, 0), (2002, 3.0, 1), (2500, 10.0, 2), (3000, 50.0, 3),
    (4000, 4.0, 4), (5000, 20.0, 5), (5000, 3.0, 6), (2001, 1000.0, 7)])
def test_er_rejection_path_matches_the_loop(n, lam, seed):
    want = gen_erdos_renyi_loop(n, lam, seed)
    assert np.array_equal(gen_erdos_renyi(n, lam, seed).edges, want.edges)


@pytest.mark.parametrize("n_pairs, m", [(3000, 2900), (5000, 4000),
                                        (4000, 1500), (10 ** 6, 1030)])
def test_distinct_codes_keep_the_first_draws(n_pairs, m):
    # few codes: batches of 1024 draws repeat codes, and the last one holds
    # more new codes than it needs, so the cut must follow the first draws
    for seed in range(5):
        got = _distinct_codes(np.random.Generator(np.random.PCG64(seed)),
                              n_pairs, m)
        want = distinct_codes_loop(np.random.Generator(np.random.PCG64(seed)),
                                   n_pairs, m)
        assert np.array_equal(got, want)


def test_er_mean_degree_concentrates():
    # exact mean degree is (n-1) * lam / n
    n, lam = 2000, 5.0
    means = [gen_erdos_renyi(n, lam, mix_seed(7, i)).degrees.mean()
             for i in range(20)]
    avg = float(np.mean(means))
    assert lam * 0.9 < avg < lam * 1.1
    assert abs(avg - (n - 1) * lam / n) < 0.1


def test_er_degenerate_probability():
    g = gen_erdos_renyi(3, 3e-9, 5)   # p = 1e-9
    assert g.n == 3
    assert g.num_edges == 0


def test_er_parameter_errors():
    with pytest.raises(ValueError):
        gen_erdos_renyi(4, 4.0, 0)   # lam >= n
    with pytest.raises(ValueError):
        gen_erdos_renyi(1, 0.5, 0)
    with pytest.raises(ValueError):
        gen_erdos_renyi(5, 0.0, 0)


def test_cm_single_edge_forced():
    for seed in range(10):
        g = gen_configuration_model([1, 1], seed)
        assert sorted(g.edges[0].tolist()) == [0, 1]


def _matching_outcomes_222():
    """Classify all 15 perfect matchings of the 6 stubs of [2, 2, 2]."""
    stubs = [0, 0, 1, 1, 2, 2]
    seen = 0
    triangles = 0
    def matchings(items):
        if not items:
            yield []
            return
        first = items[0]
        for i in range(1, len(items)):
            rest = items[1:i] + items[i + 1:]
            for m in matchings(rest):
                yield [(first, items[i])] + m
    for m in matchings(list(range(6))):
        seen += 1
        edges = sorted(tuple(sorted((stubs[a], stubs[b]))) for a, b in m)
        if edges == [(0, 1), (0, 2), (1, 2)]:
            triangles += 1
    return triangles, seen


def test_cm_222_triangle_fraction_matches_enumeration():
    triangles, total = _matching_outcomes_222()
    assert total == 15
    exact = triangles / total          # 8/15 by stub enumeration
    hits = 0
    trials = 10000
    for seed in range(trials):
        g = gen_configuration_model([2, 2, 2], seed)
        edges = sorted(tuple(sorted(e)) for e in g.edges.tolist())
        hits += edges == [(0, 1), (0, 2), (1, 2)]
    # binomial 3-sigma band around the enumerated value
    sigma = (exact * (1 - exact) / trials) ** 0.5
    assert abs(hits / trials - exact) < 3 * sigma + 1e-9


def test_cm_stub_conservation():
    seq = [3] * 1000
    g = gen_configuration_model(seq, 11)
    assert g.degrees.tolist() == seq
    assert g.num_edges == 1500


def test_cm_odd_sum_rejected():
    with pytest.raises(ValueError):
        gen_configuration_model([3, 3, 3], 0)
    with pytest.raises(ValueError):
        gen_configuration_model([2, -1, 1], 0)


def test_degree_sequence_parity_fix():
    seq = sample_degree_sequence({3: 1.0}, 5, 42)   # sum 15 is odd
    assert sorted(seq.tolist()) == [3, 3, 3, 3, 4]


def test_degree_sequence_no_fix_needed():
    assert sample_degree_sequence({1: 1.0}, 4, 0).tolist() == [1, 1, 1, 1]


def test_degree_sequence_frequencies():
    seq = sample_degree_sequence({3: 0.5, 4: 0.5}, 10000, 2718)
    frac3 = float(np.mean(seq == 3))
    assert 0.48 <= frac3 <= 0.52


def test_pmf_validation():
    # NaN, inf and tiny negative entries are refused, not dropped
    for pmf in ({3: 0.7, 4: 0.7}, {-1: 1.0}, {3: 1.0, 4: float("nan")},
                {3: 1.0, 4: float("inf")}, {3: 1.0, 4: -1e-12}):
        with pytest.raises(ValueError):
            sample_degree_sequence(pmf, 10, 0)
        with pytest.raises(ValueError):
            GenSpec(model="configuration", n=10, degree_pmf=pmf)
        with pytest.raises(ValueError):
            OffspringLaw.from_dict(pmf)


def test_genspec_round_trip_and_determinism():
    spec = GenSpec(model="configuration", n=50, degree_pmf={3: 0.5, 4: 0.5},
                   seed=99)
    spec2 = GenSpec.from_dict(spec.to_dict())
    g1, g2 = generate(spec), generate(spec2)
    assert g1.edges.tolist() == g2.edges.tolist()
    assert g1.degrees.tolist() == g2.degrees.tolist()


def test_genspec_validation():
    with pytest.raises(ValueError):
        GenSpec(model="smallworld", n=5)
    with pytest.raises(ValueError):
        GenSpec(model="erdos_renyi", n=5)
    with pytest.raises(ValueError):
        GenSpec(model="configuration", n=3, degree_seq=[1, 1, 1])
    with pytest.raises(ValueError):
        GenSpec(model="configuration", n=4, degree_seq=[1, 1])


def test_size_change_of_explicit_sequence_is_refused():
    from friendbias import realize
    spec = GenSpec(model="configuration", n=4, degree_seq=[2, 2, 2, 2], seed=0)
    with pytest.raises(ValueError):
        replace(spec, n=8)
    spec_pmf = GenSpec(model="configuration", n=4, degree_pmf={2: 1.0}, seed=0)
    assert realize(replace(spec_pmf, n=8)).n == 8


def test_erase_to_simple():
    g = gen_configuration_model([4, 4, 2], 3)
    simple, meta = erase_to_simple(g)
    assert not np.any(simple.tails == simple.heads)
    pairs = [tuple(sorted(e)) for e in simple.edges.tolist()]
    assert len(pairs) == len(set(pairs))
    assert meta["erased"]


def test_mix_seed_avalanche():
    seeds = {mix_seed(0, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2 ** 64 for s in seeds)
    # frozen values guard the documented algorithm against silent change
    assert mix_seed(0, 0) == 16294208416658607535
    assert mix_seed(2024, 7) == 11000608607208515474


@pytest.mark.parametrize("seq", [[], [0, 0, 0], [1, 1], [3, 3, 2, 2],
                                 [4, 1, 0, 7, 2], [3, 4] * 500])
def test_stub_shuffle_is_the_permutation_gather(seq):
    # gen_configuration_model shuffles its stubs in place; numpy's
    # Generator.permutation(k) is shuffle(arange(k)), so both give the
    # pairing of stubs[permutation] bit for bit. A numpy release that
    # changes either fails here by name, not only through the byte gate.
    stubs = np.repeat(np.arange(len(seq), dtype=np.int64), seq)
    for seed in (0, 1, 505, 2 ** 63 + 11):
        want = stubs[np.random.Generator(np.random.PCG64(seed))
                     .permutation(stubs.size)]
        shuffled = stubs.copy()
        np.random.Generator(np.random.PCG64(seed)).shuffle(shuffled)
        assert shuffled.tolist() == want.tolist()
        if seq:     # a graph needs a vertex; the empty shuffle is checked
            g = gen_configuration_model(seq, seed)
            assert g.edges.reshape(-1).tolist() == want.tolist()


# ER at n = 3000 draws by rejection, and lam = 1.5 leaves a giant of about
# three fifths; the CM has degree-1 vertices, self-loops and parallel edges
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("erase, restrict_giant",
                         [(False, False), (True, False), (False, True),
                          (True, True)])
@pytest.mark.parametrize("spec", [
    GenSpec(model="erdos_renyi", n=3000, lam=1.5),
    GenSpec(model="configuration", n=3000, degree_pmf={1: .2, 3: .4, 4: .4})],
    ids=["er", "cm"])
def test_realize_sorts_one_csr_equal_to_the_eager_build(
        spec, erase, restrict_giant, seed, monkeypatch):
    spec = replace(spec, seed=seed)
    with monkeypatch.context() as eager:
        build_eagerly(eager)
        want = realize(spec, erase=erase, restrict_giant=restrict_giant)
    sorts = count_sorts(monkeypatch)
    g = realize(spec, erase=erase, restrict_giant=restrict_giant)
    assert sorts == [1]
    assert_same_graph(g, want)
    assert sorts == [1]
