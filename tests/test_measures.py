import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from friendbias import measures
from friendbias.measures import (MERGE_TOL, EmpiricalMeasure,
                                 NonFiniteMeasureError, ks_distance,
                                 levy_distance, w1_distance)
from cdf_gap_reference import ks_distance_searched, w1_distance_searched
from levy_reference import levy_distance_full


def measure(vals, weights=None, **meta):
    return EmpiricalMeasure.from_values(vals, weights, meta=meta)


def test_atoms_sorted_and_merged():
    m = measure([3.0, 1.0, 1.0 + 5e-13, 2.0], [0.25, 0.25, 0.25, 0.25])
    assert m.values.tolist() == [1.0, 2.0, 3.0]
    assert np.allclose(m.weights, [0.5, 0.25, 0.25])


def test_weight_validation():
    with pytest.raises(ValueError):
        EmpiricalMeasure(values=np.array([0.0]), weights=np.array([0.5]))
    with pytest.raises(ValueError):
        EmpiricalMeasure(values=np.array([0.0, 1.0]),
                         weights=np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        EmpiricalMeasure.from_values([])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_are_refused(bad):
    # NaN sorts last and would otherwise merge into its neighbour
    with pytest.raises(NonFiniteMeasureError, match="values must be finite"):
        EmpiricalMeasure.from_values([bad, 1.0])
    with pytest.raises(NonFiniteMeasureError, match="values must be finite"):
        EmpiricalMeasure(values=[0.0, bad], weights=[0.5, 0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weights_are_refused(bad):
    # abs(nan - 1) > tol is False, so the mass check alone lets NaN through
    with pytest.raises(NonFiniteMeasureError, match="weights must be finite"):
        EmpiricalMeasure(values=[0.0, 1.0], weights=[bad, 1.0])
    with pytest.raises(NonFiniteMeasureError, match="weights must be finite"):
        EmpiricalMeasure.from_values([0.0, 1.0], [bad, 1.0])
    assert issubclass(NonFiniteMeasureError, ValueError)


@pytest.mark.parametrize("values, first_bad", [
    ([1.0, 0.0], "values[1] = 0.0"),
    ([-1.0, 0.5, 0.5], "values[2] = 0.5"),
    ([-0.0, 0.0], "values[1] = 0.0"),   # equal, though their signs differ
], ids=["decreasing", "repeated", "signed_zeros"])
def test_measure_atoms_must_increase(tmp_path, values, first_bad):
    # unsorted or repeated atoms would give a wrong CDF and wrong distances
    weights = [1.0 / len(values)] * len(values)
    d = {"atoms": [[v, w] for v, w in zip(values, weights)], "meta": {}}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(d))
    for build in (lambda: EmpiricalMeasure(values, weights),
                  lambda: EmpiricalMeasure.from_dict(d),
                  lambda: EmpiricalMeasure.load_json(path)):
        with pytest.raises(ValueError, match="strictly increasing") as err:
            build()
        assert first_bad in str(err.value)
    # NaN is refused by the finiteness check, before the order is looked at
    with pytest.raises(NonFiniteMeasureError):
        EmpiricalMeasure([0.0, np.nan], [0.5, 0.5])


def test_mean_and_moment():
    assert measure([0.0]).mean() == 0.0
    star = measure([-2.0, 2.0], [0.25, 0.75])
    assert star.mean() == pytest.approx(1.0)
    assert star.moment(2) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        star.moment(0)


def test_distances_coincide_for_equal():
    m = measure([0.0, 1.5, 4.0], [0.2, 0.5, 0.3])
    assert levy_distance(m, m) == 0.0
    assert ks_distance(m, m) == 0.0
    assert w1_distance(m, m) == 0.0


def test_distances_two_diracs():
    d0, d1 = measure([0.0]), measure([1.0])
    assert ks_distance(d0, d1) == pytest.approx(1.0)
    assert w1_distance(d0, d1) == pytest.approx(1.0)
    # solving the Levy inequality for Diracs at distance c gives min(c, 1):
    # below that, x in [eps, c) violates F_a(x-eps)-eps <= F_b(x)
    assert levy_distance(d0, d1) == pytest.approx(1.0, abs=1e-11)
    assert levy_distance(d0, measure([0.25])) == pytest.approx(0.25, abs=1e-11)
    assert levy_distance(d0, measure([7.0])) == pytest.approx(1.0, abs=1e-11)


def test_levy_shift_bound():
    d0 = measure([0.0])
    eps = 1e-3
    assert levy_distance(d0, measure([eps])) <= eps + 1e-11


atoms = st.lists(
    st.tuples(st.floats(-50, 50, allow_nan=False),
              st.floats(0.01, 1.0)),
    min_size=1, max_size=8)


def _normalize(pairs):
    vals = np.array([p[0] for p in pairs])
    ws = np.array([p[1] for p in pairs])
    return EmpiricalMeasure.from_values(vals, ws / ws.sum())


@given(atoms, atoms)
@settings(max_examples=80, deadline=None)
def test_levy_at_most_ks_and_symmetric(a, b):
    ma, mb = _normalize(a), _normalize(b)
    d = levy_distance(ma, mb)
    assert d <= ks_distance(ma, mb) + 1e-9
    assert abs(d - levy_distance(mb, ma)) <= 1e-9


@given(atoms, atoms, atoms)
@settings(max_examples=50, deadline=None)
def test_levy_triangle_inequality(a, b, c):
    ma, mb, mc = _normalize(a), _normalize(b), _normalize(c)
    assert levy_distance(ma, mc) <= (levy_distance(ma, mb)
                                     + levy_distance(mb, mc) + 1e-9)


@given(atoms, atoms)
@settings(max_examples=50, deadline=None)
def test_merging_does_not_change_distances(a, b):
    ma, mb = _normalize(a), _normalize(b)
    # duplicate every atom: same measure, different representation pre-merge
    dup = EmpiricalMeasure.from_values(
        np.concatenate([ma.values, ma.values]),
        np.concatenate([ma.weights / 2, ma.weights / 2]))
    for dist in (levy_distance, ks_distance, w1_distance):
        assert dist(dup, mb) == pytest.approx(dist(ma, mb), abs=1e-12)


# a shared grid makes atoms common to both measures likely; the nudges put
# atoms just past the merge distance from each other
GRID = [-3.0, -1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 2.5, 7.0]
NUDGES = [0.0, 0.0, 1.5 * MERGE_TOL, -1.5 * MERGE_TOL, 3 * MERGE_TOL]


@st.composite
def grid_measures(draw, max_atoms=8):
    n = draw(st.integers(1, max_atoms))
    vals = draw(st.lists(st.sampled_from(GRID) | st.floats(-10, 10),
                         min_size=n, max_size=n))
    nudges = draw(st.lists(st.sampled_from(NUDGES), min_size=n, max_size=n))
    ws = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n,
                                max_size=n)))
    return EmpiricalMeasure.from_values(np.add(vals, nudges), ws / ws.sum())


def levy_pair(data, family):
    if family == "identical":
        a = data.draw(grid_measures())
        return a, EmpiricalMeasure(a.values.copy(), a.weights.copy())
    if family == "far_diracs":
        x = data.draw(st.floats(-5, 5))
        gap = data.draw(st.floats(1.0, 100.0))
        return measure([x]), measure([x + gap])
    if family == "mixture":
        parts = data.draw(st.lists(grid_measures(), min_size=2, max_size=4))
        b = data.draw(st.sampled_from(parts) | grid_measures())
        return EmpiricalMeasure.mixture(parts), b
    if family == "large":
        # several thousand atoms against a few, as mu_k against its limit
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        size = data.draw(st.integers(2000, 6000))
        scale = data.draw(st.sampled_from([0.01, 0.3, 2.0]))
        vals = np.random.default_rng(seed).normal(0.0, scale, size)
        return measure(vals), data.draw(grid_measures(max_atoms=4))
    return data.draw(grid_measures()), data.draw(grid_measures())


@pytest.mark.parametrize("family", ["random", "identical", "far_diracs",
                                    "mixture", "large"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_levy_matches_the_full_bisection(family, data):
    # pruning the atoms that already hold keeps every bisection decision,
    # so the result has the reference's bits in either argument order
    a, b = levy_pair(data, family)
    for x, y in ((a, b), (b, a)):
        d = levy_distance(x, y)
        assert d.hex() == levy_distance_full(x, y).hex()
        if family == "identical":
            assert d == 0.0
        if family == "far_diracs":
            assert d == 1.0


def test_from_values_unweighted_sorts_like_argsort():
    # signed zeros compare equal, so only a stable sort keeps their order
    vals = np.array([0.0, -0.0, 1.0, -0.0, 0.0, -2.5, 0.0, -0.0] * 3)
    m = EmpiricalMeasure.from_values(vals)
    weighted = EmpiricalMeasure.from_values(vals, np.full(vals.size,
                                                          1.0 / vals.size))
    assert m.values.tobytes() == weighted.values.tobytes()
    assert m.weights.tobytes() == weighted.weights.tobytes()
    assert np.signbit(m.values).tolist() == [True, False, False]


def from_values_stable(vals):
    """from_values with equal weights, always sorting stably."""
    v = np.sort(np.asarray(vals, dtype=np.float64), kind="stable")
    starts = np.flatnonzero(np.concatenate(([True], np.diff(v) > MERGE_TOL)))
    return v[starts], np.add.reduceat(np.full(v.size, 1.0 / v.size), starts)


# signed zeros, neighbours 1e-12 apart (merged or not), and a few others
NEAR_ZERO = [0.0, -0.0, 1e-12, -1e-12, 2e-12, -2e-12, 0.5e-12, 1.0,
             1.0 + 1e-12, 1.0 - 1e-12, -3.0]


@given(st.lists(st.sampled_from(NEAR_ZERO) | st.floats(-5, 5),
                min_size=1, max_size=64))
@settings(max_examples=200, deadline=None)
def test_from_values_unweighted_matches_a_stable_sort(vals):
    m = EmpiricalMeasure.from_values(vals)
    want_values, want_weights = from_values_stable(vals)
    assert m.values.view(np.int64).tolist() == want_values.view(np.int64).tolist()
    assert (m.weights.view(np.int64).tolist()
            == want_weights.view(np.int64).tolist())


@pytest.mark.parametrize("vals", [[0.0, -0.0], [0.0] + [-0.0] * 8])
def test_from_values_keeps_the_first_signed_zero(vals):
    # numpy's default sort may put a later -0.0 before the first 0.0
    m = EmpiricalMeasure.from_values(vals)
    assert m.values.tolist() == [0.0]
    assert not np.signbit(m.values[0])


def gap_pair(data, family):
    if family == "one_atom":
        a = measure([data.draw(st.sampled_from(GRID) | st.floats(-10, 10))])
        return a, data.draw(grid_measures())
    if family == "shared":
        # the second measure's atoms are some of the first's
        a = data.draw(grid_measures())
        keep = data.draw(st.lists(st.sampled_from(a.values.tolist()),
                                  min_size=1, max_size=a.values.size))
        return a, measure(keep)
    return levy_pair(data, family)


@pytest.mark.parametrize("family", ["random", "identical", "far_diracs",
                                    "mixture", "large", "one_atom", "shared"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_ks_and_w1_match_the_searched_gap(family, data):
    # reading the longer measure's CDF off the merge reads the same cumsum
    # elements as searching, with the longer measure first or second
    a, b = gap_pair(data, family)
    for x, y in ((a, b), (b, a)):
        assert ks_distance(x, y).hex() == ks_distance_searched(x, y).hex()
        assert w1_distance(x, y).hex() == w1_distance_searched(x, y).hex()


@given(atoms, atoms)
@settings(max_examples=50, deadline=None)
def test_ks_and_w1_match_the_union1d_grid(a, b):
    ma, mb = _normalize(a), _normalize(b)
    for x, y in ((ma, mb), (mb, ma)):
        grid = np.union1d(x.values, y.values)
        gap = np.abs(x.cdf(grid) - y.cdf(grid))
        assert ks_distance(x, y) == float(np.max(gap))
        want = float((gap[:-1] * np.diff(grid)).sum()) if grid.size > 1 else 0.0
        assert w1_distance(x, y) == want


def test_mixture_pools_equal_mass_parts():
    a = measure([0.0, 1.0], [0.5, 0.5])
    b = measure([1.0, 3.0], [0.25, 0.75])
    m = EmpiricalMeasure.mixture([a, b], meta={"replicas": 2})
    assert m.values.tolist() == [0.0, 1.0, 3.0]
    assert m.weights.tolist() == [0.25, 0.375, 0.375]
    assert m.meta == {"replicas": 2}


@given(st.lists(grid_measures(), min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_mixture_is_from_values_of_the_pooled_atoms(parts):
    # atoms shared across parts and atoms just past the merge distance: the
    # one sort of the pool and the merge give from_values' bits
    m = EmpiricalMeasure.mixture(parts, meta={"replicas": len(parts)})
    weights = np.concatenate([p.weights for p in parts])
    weights /= len(parts)
    want = EmpiricalMeasure.from_values(
        np.concatenate([p.values for p in parts]), weights,
        meta={"replicas": len(parts)})
    assert m.values.tobytes() == want.values.tobytes()
    assert m.weights.tobytes() == want.weights.tobytes()
    assert m.meta == want.meta


# blocks of 2 on the thousands of atoms of "large" would take seconds
@pytest.mark.parametrize("family, block", [
    (family, block) for family in ("random", "mixture", "large", "shared")
    for block in (2, 7, 1000) if (family, block) != ("large", 2)])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_distances_in_blocks_match_the_references(family, block, data):
    # the Levy test and the CDF gap run block by block; with blocks far
    # smaller than the measures every block boundary is crossed, and the
    # bits stay those of the one-pass references
    a, b = gap_pair(data, family)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "BLOCK", block)
        for x, y in ((a, b), (b, a)):
            assert levy_distance(x, y).hex() == levy_distance_full(x, y).hex()
            assert ks_distance(x, y).hex() == ks_distance_searched(x, y).hex()
            assert w1_distance(x, y).hex() == w1_distance_searched(x, y).hex()


def test_cdf_and_mass_at_least():
    m = measure([-1.0, 0.0, 2.0], [0.2, 0.3, 0.5])
    assert m.cdf([-2.0, -1.0, 1.0, 2.0]).tolist() == [0.0, 0.2, 0.5, 1.0]
    assert m.mass_at_least(0.0) == pytest.approx(0.8)


def test_json_round_trip_and_stability():
    m = measure([0.5, -0.5], [2 / 3, 1 / 3], n=3, kind="stationary")
    text = json.dumps(m.to_dict(), sort_keys=True, indent=1)
    m2 = EmpiricalMeasure.from_dict(json.loads(text))
    assert np.array_equal(m.values, m2.values)
    assert np.array_equal(m.weights, m2.weights)
    assert m2.meta["n"] == 3
    assert json.dumps(m2.to_dict(), sort_keys=True, indent=1) == text


def test_histogram_masses():
    m = measure([0.0, 0.5, 1.0], [0.25, 0.25, 0.5])
    rows = m.histogram(2)   # bins [0, 0.5) and [0.5, 1.0]
    assert len(rows) == 2
    assert rows[0][2] == pytest.approx(0.25)
    assert rows[1][2] == pytest.approx(0.75)
    assert sum(r[2] for r in rows) == pytest.approx(1.0)

