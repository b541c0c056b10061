"""Galton-Watson machinery behind the limiting bias laws.

Locally tree-like graph families converge, seen from a uniform vertex, to a
branching-process tree in which the root's offspring count follows the
degree law p while every other vertex has offspring distributed as the
size-biased shift p*, where p*_k = (k+1) p_{k+1} / E[D]. Two limit laws for
the root bias arise:

* mu      -- the law of E[D^2]/E[D] - d_root, reached by non-backtracking
  exploration (and by either exploration after mixing);
* mu_star -- for subcritical p* the tree is almost surely finite, and the
  backtracking exploration equilibrates on it to the degree-moment ratio of
  the whole tree minus d_root.

A finite tree with at least one edge is bipartite, so the plain walk on it
is periodic; the lazy walk, which shares the degree-proportional stationary
law, reaches the equilibrium value. `sample_mu_star` computes that value in
closed form from the offspring counts.

The tree type, its per-tree sampler `sample_gw` and the exact root biases
on one tree are test references in `tests/gw_reference.py`;
`sample_mu_star` reads the same uniforms as that sampler.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import measures


def is_count(value) -> bool:
    """An integer, not a bool: JSON's true and false are not counts."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_degree(value) -> bool:
    """A count that an int64 degree array holds: 0 <= value < 2**63."""
    return is_count(value) and 0 <= value < 2 ** 63


def _degree(key):
    """key as an int, when it is one or the decimal string `str` writes for
    one ("3", not "03", " 3" or "3_0"); otherwise None."""
    if isinstance(key, str):
        try:
            degree = int(key)
        except ValueError:
            return None
        return degree if str(degree) == key else None
    return int(key) if is_count(key) else None


def read_pmf(pmf) -> dict:
    """A degree law written as {degree: probability}, read as {int: float}
    with every entry kept, zeros included, in the order written.

    A degree is an int or its decimal string (`_degree`), so no two keys
    name one degree, and it passes `is_degree`. A probability is a real
    number, not a bool or a string, that `float` takes without overflow;
    their signs and sum are `OffspringLaw`'s to check. Every refusal is a
    ValueError naming the entry."""
    if not isinstance(pmf, dict):
        raise ValueError(f"expected an object of degree: probability entries, "
                         f"got {pmf!r}")
    law = {}
    for key, p in pmf.items():
        degree = _degree(key)
        try:
            if (degree is None or isinstance(p, bool)
                    or not isinstance(p, numbers.Real)):
                raise TypeError
            p = float(p)
        except (TypeError, OverflowError):
            raise ValueError(f"entry {key!r}: {p!r} needs an integer degree "
                             f"and a numeric probability") from None
        if not is_degree(degree):
            raise ValueError(f"entry {key!r}: degree outside [0, 2**63)")
        if degree in law:
            raise ValueError(f"entry {key!r}: degree {degree} is named twice")
        law[degree] = p
    return law


@dataclass
class OffspringLaw:
    """Finite-support offspring pmf with derived moments."""

    ks: np.ndarray
    ps: np.ndarray

    def __post_init__(self):
        self.ks = np.asarray(self.ks, dtype=np.int64)
        self.ps = np.asarray(self.ps, dtype=np.float64)
        if self.ks.size == 0 or self.ks.size != self.ps.size:
            raise ValueError("pmf needs matching nonempty support and weights")
        if np.any(self.ks < 0):
            raise ValueError("offspring counts must be nonnegative")
        if np.any(np.diff(self.ks) <= 0):
            raise ValueError("support must be strictly increasing")
        if not np.all(np.isfinite(self.ps)) or np.any(self.ps < 0):
            raise ValueError(f"pmf entries must be finite and nonnegative, "
                             f"got {self.ps.tolist()}")
        if abs(float(self.ps.sum()) - 1.0) > 1e-9:
            raise ValueError(f"pmf sums to {float(self.ps.sum())}, not 1")

    @classmethod
    def from_dict(cls, pmf: dict) -> "OffspringLaw":
        items = sorted(read_pmf(pmf).items())
        ks = np.array([k for k, v in items if v != 0], dtype=np.int64)
        ps = np.array([v for _, v in items if v != 0])
        return cls(ks=ks, ps=ps)

    def to_dict(self) -> dict:
        return {str(int(k)): float(p) for k, p in zip(self.ks, self.ps)}

    @property
    def m1(self) -> float:
        return float((self.ps * self.ks).sum())

    @property
    def m2(self) -> float:
        return float((self.ps * self.ks.astype(np.float64) ** 2).sum())

    @property
    def moment_ratio(self) -> float:
        """E[D^2]/E[D], the mean degree of a size-biased pick."""
        if self.m1 <= 0:
            raise ValueError("moment ratio E[D^2]/E[D] undefined: "
                             "offspring mean is zero")
        return self.m2 / self.m1

    @cached_property
    def size_biased(self) -> "OffspringLaw":
        """Size-biased shift p*_k = (k+1) p_{k+1} / E[D], derived on first
        use and kept.

        This is the offspring law of every non-root vertex of the limit tree;
        its mean is E[D^2]/E[D] - 1.
        """
        m1 = self.m1
        if m1 <= 0:
            raise ValueError("size bias undefined: offspring mean is zero")
        keep = self.ks >= 1
        ks = self.ks[keep] - 1
        ps = self.ks[keep] * self.ps[keep] / m1
        return OffspringLaw(ks=ks, ps=ps)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.choice(self.ks, size=size, p=self.ps)


POISSON_TAIL_MASS = 1e-12


def truncated_poisson(lam: float) -> OffspringLaw:
    """Poisson(lam) truncated where the remaining tail drops below
    POISSON_TAIL_MASS, then renormalised."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    probs = [math.exp(-lam)]
    cum = probs[0]
    k = 0
    while 1.0 - cum > POISSON_TAIL_MASS:
        k += 1
        probs.append(probs[-1] * lam / k)
        cum += probs[-1]
    ps = np.array(probs)
    ps /= ps.sum()
    return OffspringLaw(ks=np.arange(k + 1), ps=ps)


def exact_mu(p: OffspringLaw) -> measures.EmpiricalMeasure:
    """The limit law mu exactly: atoms E[D^2]/E[D] - k with weight p_k."""
    return measures.EmpiricalMeasure.from_values(
        p.moment_ratio - p.ks.astype(np.float64), p.ps / p.ps.sum(),
        meta={"law": "mu", "pmf": p.to_dict(), "exact": True})


def sample_mu(p: OffspringLaw, n_samples: int, seed: int) -> measures.EmpiricalMeasure:
    """Monte Carlo draw of mu: emit E[D^2]/E[D] - D with D ~ p.

    The moment ratio is exact (from the pmf); only D is sampled. The mean
    tends to Var(D)/E[D], the limit value of the average bias.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    ratio = p.moment_ratio
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = p.sample(rng, n_samples)
    vals = ratio - draws.astype(np.float64)
    return measures.EmpiricalMeasure.from_values(
        vals, meta={"law": "mu", "pmf": p.to_dict(), "n_samples": n_samples,
                    "seed": seed})


# uniforms sample_mu_star draws per block; a tree still unfinished at the end
# of a block is carried into the next, which then draws at least as many
_BLOCK = 8192


def _counts(law: OffspringLaw, u: np.ndarray) -> np.ndarray:
    """The offspring counts `law.sample` makes of the uniforms `u`:
    Generator.choice maps each through the normalised cdf."""
    cdf = law.ps.cumsum()
    cdf /= cdf[-1]
    return law.ks[np.searchsorted(cdf, u, side="right")]


def _tree_ends(r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Last stream position of the tree rooted at each position a, or -1 if
    it does not end inside the stream.

    The root reads r[a] and every later vertex s[t]. With S the prefix sum
    of s - 1, the queue of unexplored vertices empties at the first t > a
    with S[t] = S[a] - r[a], or at a itself when r[a] = 0. S never steps
    down by more than 1, so that level is hit exactly. Positions are sorted
    by (S, position) once; each query is then a search for (level, a).
    """
    n = r.size
    pos = np.arange(n)
    level = np.cumsum(s - 1)
    order = np.argsort(level, kind="stable")
    by_level = level[order]
    group = np.concatenate(([0], np.cumsum(by_level[1:] != by_level[:-1])))
    keys = group * n + order                    # ascending (level, position)
    target = level - r
    first = np.minimum(np.searchsorted(by_level, target), n - 1)
    hit = np.searchsorted(keys, group[first] * n + pos, side="right")
    found = np.minimum(hit, n - 1)
    ends = np.where((hit < n) & (by_level[found] == target), order[found], -1)
    return np.where(r == 0, pos, ends)


def _drawn_before_rejection(r: np.ndarray, s: np.ndarray, a: int,
                            size_cap: int) -> int:
    """Uniforms `sample_gw` (tests/gw_reference.py) reads from the tree
    rooted at a before it gives up: every generation before the one that
    takes the count past size_cap."""
    total, nxt, count = 1, a + 1, int(r[a])
    while total + count <= size_cap:
        total += count
        lo, nxt = nxt, nxt + count
        count = int(s[lo:nxt].sum())
    return total


def _tree_biases(r: np.ndarray, s: np.ndarray, roots: list,
                 lasts: list) -> np.ndarray:
    """`stationary_tree_bias` (tests/gw_reference.py) of the trees on stream
    positions roots[i]..lasts[i]: sum(deg^2)/sum(deg) - d_root. The degree
    sums are integers below 2**53, so float64 holds them exactly and the
    ratio rounds as it does there."""
    roots = np.array(roots, dtype=np.int64)
    lasts = np.array(lasts, dtype=np.int64)
    squares = np.concatenate(([0], np.cumsum((s + 1) ** 2)))
    sq = r[roots] ** 2 + squares[lasts + 1] - squares[roots + 1]
    total = 2 * (lasts - roots)                 # twice the edge count
    ratio = np.divide(sq, total, out=np.zeros(roots.size), where=total > 0)
    return ratio - r[roots]


def sample_mu_star(p: OffspringLaw, n_samples: int, seed: int,
                   size_cap: int = 10 ** 6) -> measures.EmpiricalMeasure:
    """Monte Carlo draw of mu_star: grow trees to extinction and emit the
    equilibrium bias of each root.

    Requires E[p*] < 1 (otherwise trees survive forever with positive
    probability). A tree with more than `size_cap` vertices is rejected,
    redrawn, and counted in meta["rejections"]; more than 1000 + n_samples
    rejections raise RuntimeError.

    Stream contract: the result is that of calling `sample_gw(p, rng,
    size_cap=size_cap)` from tests/gw_reference.py until it returns
    n_samples trees, with one PCG64(seed) generator. Those calls read a single stream of uniforms:
    each tree's root (through p), then its generations breadth-first
    (through p*); a rejected tree stops before the generation that would
    pass the cap. Here the stream is read in blocks and each tree's end is
    found from its queue walk, so the values keep their bits.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if size_cap < 1:
        raise ValueError("size_cap must be >= 1")
    p_star = p.size_biased
    if not p_star.m1 < 1.0:
        raise ValueError(f"mu_star needs a subcritical size-biased law; "
                         f"E[p*] = {p_star.m1!r} >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    r = s = np.zeros(0, dtype=np.int64)         # counts from the next root on
    vals = np.empty(n_samples)
    accepted = rejections = 0
    while accepted < n_samples:
        u = rng.random(max(_BLOCK, r.size))
        r = np.concatenate((r, _counts(p, u)))
        s = np.concatenate((s, _counts(p_star, u)))
        ends = _tree_ends(r, s).tolist()
        roots, lasts = [], []
        a = 0
        while a < r.size and accepted < n_samples:
            end = ends[a]
            if 0 <= end < a + size_cap:
                roots.append(a)
                lasts.append(end)
                accepted += 1
                a = end + 1
            elif end < 0 and r.size - a < size_cap:
                break                           # read on in the next block
            else:
                rejections += 1
                if rejections > 1000 + n_samples:
                    raise RuntimeError("mu_star sampling rejected too many trees; "
                                       "size cap too small for this law")
                a += _drawn_before_rejection(r, s, a, size_cap)
        vals[accepted - len(roots):accepted] = _tree_biases(r, s, roots, lasts)
        r, s = r[a:], s[a:]
    return measures.EmpiricalMeasure.from_values(
        vals, meta={"law": "mu_star", "pmf": p.to_dict(),
                    "n_samples": n_samples, "seed": seed,
                    "size_cap": size_cap, "rejections": rejections})
