"""Finite empirical measures on the real line and distances between them.

A measure's atoms are strictly increasing and its total weight is 1 up to
1e-12; the constructor refuses anything else, so every CDF, tail mass and
distance below may rely on sorted, distinct atoms. `from_values` builds a
measure from arbitrary values: it sorts them and merges values closer than
1e-12 (the merge absorbs kernel arithmetic noise; the representative is the
smallest value of the merged run).

The Levy metric is used wherever weak convergence is quantified: on the real
line it metrises the same topology as the Prohorov metric and is exactly
computable on an atom grid. Kolmogorov-Smirnov and 1-Wasserstein distances
are provided as diagnostics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

MERGE_TOL = 1e-12
WEIGHT_TOL = 1e-12
LEVY_RESOLUTION = 1e-12


# atoms per block of the distance loops below: their temporaries are this
# size, not the size of a measure or of a union grid
BLOCK = 1 << 16


def _blocks(size: int):
    """(start, stop) of consecutive blocks of BLOCK covering range(size)."""
    return ((s, min(s + BLOCK, size)) for s in range(0, size, BLOCK))


class NonFiniteMeasureError(ValueError):
    """A measure was given a NaN or infinite value or weight."""


def _cumulative(weights: np.ndarray) -> np.ndarray:
    """[0, w0, w0 + w1, ...]: entry i is the mass of the first i atoms."""
    return np.concatenate(([0.0], np.cumsum(weights)))


def _run_starts(v: np.ndarray) -> np.ndarray:
    """Index of the first value of each run of the sorted, non-empty v
    whose steps are at most MERGE_TOL. Where every run is one value,
    v[starts] is v and np.add.reduceat(w, starts) is w, so callers skip
    them."""
    new_run = np.empty(v.size, dtype=bool)
    new_run[0] = True
    np.greater(np.diff(v), MERGE_TOL, out=new_run[1:])
    return np.flatnonzero(new_run)


def _require_finite(name: str, arr: np.ndarray) -> None:
    finite = np.isfinite(arr)
    if not finite.all():
        raise NonFiniteMeasureError(
            f"measure {name} must be finite, got {float(arr[~finite][0])!r}")


@dataclass
class EmpiricalMeasure:
    """Weighted finite multiset of real values, normalised to mass 1."""

    values: np.ndarray
    weights: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.values.shape != self.weights.shape or self.values.ndim != 1:
            raise ValueError("values and weights must be 1-d arrays of equal length")
        if self.values.size == 0:
            raise ValueError("empty measure")
        _require_finite("values", self.values)
        _require_finite("weights", self.weights)
        if np.any(self.weights < 0):
            raise ValueError("negative weight")
        total = float(self.weights.sum())
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1")
        rising = self.values[1:] > self.values[:-1]
        if not rising.all():
            i = int(np.argmin(rising)) + 1
            raise ValueError(
                f"atoms must be strictly increasing: values[{i - 1}] = "
                f"{float(self.values[i - 1])!r}, values[{i}] = "
                f"{float(self.values[i])!r}")

    @classmethod
    def from_values(cls, values, weights=None, meta=None) -> "EmpiricalMeasure":
        """Sort, merge near-equal values, and normalise bookkeeping.

        With weights omitted, each value carries mass 1/len(values).
        Non-finite values are refused before the merge could absorb them.
        """
        v = np.asarray(values, dtype=np.float64).ravel()
        if v.size == 0:
            raise ValueError("empty measure")
        _require_finite("values", v)
        if weights is None:
            # equal weights need no permutation, and only a -0.0 tied with
            # 0.0 tells two sorts of equal finite floats apart; then a
            # stable sort keeps their input order, as the argsort below would
            ties = (np.signbit(v) & (v == 0)).any()
            v = np.sort(v, kind="stable" if ties else None)
            w = np.full(v.size, 1.0 / v.size)
        else:
            w = np.asarray(weights, dtype=np.float64).ravel()
            order = np.argsort(v, kind="stable")
            v, w = v[order], w[order]
        starts = _run_starts(v)
        if starts.size < v.size:
            v, w = v[starts], np.add.reduceat(w, starts)
        return cls(values=v, weights=w, meta=dict(meta or {}))

    @classmethod
    def mixture(cls, parts, meta=None) -> "EmpiricalMeasure":
        """Uniform mixture of measures: each part keeps 1/len(parts) of the
        mass.

        The same measure as from_values of the concatenated atoms, each
        weight divided by len(parts): the pooled atoms are sorted once, and
        each concatenation and the order are freed as soon as they are used,
        so the merge runs on the sorted pool alone."""
        values = np.concatenate([m.values for m in parts])
        order = np.argsort(values, kind="stable")
        values = values[order]
        weights = np.concatenate([m.weights for m in parts])[order]
        del order
        weights /= len(parts)
        starts = _run_starts(values)
        if starts.size < values.size:
            values = values[starts]
            weights = np.add.reduceat(weights, starts)
        del starts
        return cls(values=values, weights=weights, meta=dict(meta or {}))

    def mean(self) -> float:
        return float((self.weights * self.values).sum())

    def moment(self, r: int) -> float:
        if r < 1:
            raise ValueError("moment order must be >= 1")
        return float((self.weights * self.values ** r).sum())

    def cdf(self, xs) -> np.ndarray:
        """Right-continuous CDF evaluated at the points `xs`."""
        return _cumulative(self.weights)[np.searchsorted(
            self.values, np.asarray(xs, dtype=np.float64), side="right")]

    def mass_at_least(self, x: float) -> float:
        """Mass of [x, inf); `mass_at_least(0.0)` is the nonnegative fraction."""
        idx = np.searchsorted(self.values, x, side="left")
        return float(self.weights[idx:].sum())

    def to_dict(self) -> dict:
        """The JSON model of a measure: `cli._write_json` writes a measure
        byte for byte as json.dumps(sort_keys=True, indent=1) writes this
        dict, without building it."""
        return {"atoms": [[float(v), float(w)]
                          for v, w in zip(self.values, self.weights)],
                "meta": self.meta}

    @classmethod
    def from_dict(cls, d: dict) -> "EmpiricalMeasure":
        atoms = d["atoms"]
        return cls(values=np.array([a[0] for a in atoms]),
                   weights=np.array([a[1] for a in atoms]),
                   meta=dict(d.get("meta", {})))

    @classmethod
    def load_json(cls, path) -> "EmpiricalMeasure":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def histogram(self, bins: int) -> list[tuple[float, float, float]]:
        """(bin_left, bin_right, mass) rows for `bins` equal bins spanning
        the atoms; the final bin is closed on the right."""
        lo, hi = float(self.values[0]), float(self.values[-1])
        if hi <= lo:
            hi = lo + 1.0
        edges = np.linspace(lo, hi, bins + 1)
        masses, _ = np.histogram(self.values, bins=edges, weights=self.weights)
        return [(float(edges[i]), float(edges[i + 1]), float(masses[i]))
                for i in range(len(edges) - 1)]


def levy_distance(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """Levy metric: inf{eps : F_a(x-eps)-eps <= F_b(x) <= F_a(x+eps)+eps}.

    For step CDFs both one-sided conditions reduce to checks at the atoms:
    F_a(u) <= F_b(u+eps)+eps at every atom u of a, and symmetrically. The
    infimum is found by bisection to 1e-12 resolution.

    Each side tests only its active atoms, those that may still violate.
    An atom that holds at some eps holds at every larger eps: u + eps,
    `searchsorted`, the cumulative sums of nonnegative weights and
    `+ eps + 1e-15` are all monotone in floating point. Every later
    midpoint lies above `lo`, so after an infeasible step at `mid` (which
    becomes `lo`) a side keeps only the atoms that violated at `mid`; a
    feasible step drops nothing. The midpoints, every decision and the
    returned `hi` are those of testing every atom at every step.
    """
    # everything that does not depend on eps is computed once per call; as
    # the atoms are distinct, a measure's CDF at its atoms is cum[1:]
    cum_a, cum_b = _cumulative(a.weights), _cumulative(b.weights)
    # per side: its active atoms, its CDF there, and the other measure
    sides = [[a.values, cum_a[1:], b.values, cum_b],
             [b.values, cum_b[1:], a.values, cum_a]]

    def feasible(eps: float) -> bool:
        """Test eps on the active atoms; if it fails, prune the side that
        failed to its violators."""
        for side in sides:
            u, f_at, other, cum_other = side
            # block by block, so that the temporaries of the test are the
            # size of a block (this bounds the peak memory of a call)
            bad = np.empty(u.size, dtype=bool)
            for s, e in _blocks(u.size):
                bad[s:e] = f_at[s:e] > (
                    cum_other[np.searchsorted(other, u[s:e] + eps, side="right")]
                    + eps + 1e-15)
            if bad.any():
                side[0], side[1] = u[bad], f_at[bad]
                return False
        return True

    if feasible(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > LEVY_RESOLUTION:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _cdf_gap(a: EmpiricalMeasure, b: EmpiricalMeasure):
    """The union grid of both measures' atoms and |F_a - F_b| on it.

    The grid is np.union1d(a.values, b.values) up to the sign of zero,
    merged from the two sorted arrays by inserting the shorter into the
    longer. The merge knows where each atom of the longer measure lands, so
    only the shorter measure's CDF (a limit law's, with few atoms) is
    searched on the grid. |x - y| and |y - x| have the same bits, so a and b
    may swap roles. Besides the grid and the gap, no array larger than a
    block or than the shorter measure is allocated.
    """
    if a.values.size < b.values.size:
        a, b = b, a
    u, v = a.values, b.values
    pos = np.searchsorted(u, v)
    new = u[np.minimum(pos, u.size - 1)] != v
    at = pos[new]
    grid = np.insert(u, at, v[new])
    # F_a on the grid: the cumulative sum of a's weights with a zero weight
    # spliced in at each inserted atom, which repeats the mass below it
    # (x + 0.0 is x); then |F_a - F_b| in place
    gap = np.insert(a.weights, at, 0.0)
    np.cumsum(gap, out=gap)
    cum_b = _cumulative(b.weights)
    for s, e in _blocks(grid.size):
        gap[s:e] -= cum_b[np.searchsorted(v, grid[s:e], side="right")]
    return grid, np.abs(gap, out=gap)


def cdf_distances(a: EmpiricalMeasure,
                  b: EmpiricalMeasure) -> tuple[float, float]:
    """(KS, W1) read off one CDF gap: the Kolmogorov-Smirnov distance, sup
    of |F_a - F_b| (attained at atoms), and the 1-Wasserstein distance, its
    integral."""
    grid, gap = _cdf_gap(a, b)
    ks = float(np.max(gap))
    # W1 sums gap[i] * (grid[i + 1] - grid[i]): the products overwrite gap,
    # block by block, so no further array the size of the grid is allocated
    for s, e in _blocks(gap.size - 1):
        gap[s:e] *= grid[s + 1:e + 1] - grid[s:e]
    return ks, float(gap[:-1].sum())


def ks_distance(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """Kolmogorov-Smirnov distance: sup of the CDF gap (attained at atoms)."""
    return cdf_distances(a, b)[0]


def w1_distance(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """1-Wasserstein distance: integral of |F_a - F_b|."""
    return cdf_distances(a, b)[1]


DISTANCES = {"levy": levy_distance, "ks": ks_distance, "w1": w1_distance}

