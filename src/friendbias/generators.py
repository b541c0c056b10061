"""Seeded random-graph generators: homogeneous Erdos-Renyi and the
configuration model, plus degree-sequence synthesis from a pmf.

All randomness flows through numpy's PCG64 bit generator seeded with an
explicit 64-bit value, so a GenSpec determines its graph bit-for-bit.
Replica seeds are derived with the SplitMix64 avalanche (`mix_seed`), which
makes replicas independent of execution order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .graph_core import Graph, build_graph, largest_component, sorted_unique
from .tree_limits import OffspringLaw

RNG_ALGORITHM = "numpy-pcg64"
SEED_MIX_ALGORITHM = "splitmix64-v1"

_MASK64 = (1 << 64) - 1


def mix_seed(master: int, index: int) -> int:
    """SplitMix64 avalanche of master + (index+1)*golden-gamma.

    Used to derive the seed of replica `index` from a master seed; any two
    distinct indices give statistically unrelated streams.
    """
    z = (master + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def is_finite(value) -> bool:
    """math.isfinite of a real number; an integer too large for a float
    counts as infinite instead of raising OverflowError."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _is_count(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass
class GenSpec:
    """Serializable description of one random-graph model instance."""

    model: str                      # "erdos_renyi" | "configuration"
    n: int
    lam: float | None = None        # mean degree (Erdos-Renyi)
    degree_pmf: dict | None = None  # configuration model, i.i.d. degrees
    degree_seq: list | None = None  # configuration model, explicit degrees
    seed: int = 0

    def __post_init__(self):
        if self.model not in ("erdos_renyi", "configuration"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.model == "erdos_renyi":
            # bool is a numbers.Real, and would be written back as true
            if (isinstance(self.lam, bool)
                    or not isinstance(self.lam, numbers.Real)
                    or self.lam <= 0):
                raise ValueError(f"erdos_renyi requires lam > 0, got {self.lam!r}")
            if not is_finite(self.lam):
                raise ValueError(f"erdos_renyi requires a finite lam, got "
                                 f"{self.lam!r}")
        else:
            if self.degree_pmf is None and self.degree_seq is None:
                raise ValueError("configuration model needs degree_pmf or degree_seq")
            if self.degree_pmf is not None:
                OffspringLaw.from_dict(self.degree_pmf)
            if self.degree_seq is not None:
                if sum(self.degree_seq) % 2:
                    raise ValueError("explicit degree sequence must have even sum")
                if len(self.degree_seq) != self.n:
                    raise ValueError(
                        f"degree sequence has {len(self.degree_seq)} entries "
                        f"but n={self.n}")

    def to_dict(self) -> dict:
        d = {"model": self.model, "n": self.n, "seed": self.seed}
        if self.lam is not None:
            d["lam"] = self.lam
        if self.degree_pmf is not None:
            d["degree_pmf"] = {str(k): v for k, v in self.degree_pmf.items()}
        if self.degree_seq is not None:
            d["degree_seq"] = list(int(x) for x in self.degree_seq)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "GenSpec":
        if not isinstance(d, dict):
            raise ValueError(f"expected an object, got {d!r}")
        missing = [key for key in ("model", "n") if key not in d]
        if missing:
            raise ValueError(f"missing keys {missing}")
        unknown = sorted(set(d) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown keys {unknown}")
        pmf = d.get("degree_pmf")
        if pmf is not None:
            try:
                pmf = {int(k): float(v) for k, v in pmf.items()}
            except (AttributeError, TypeError, ValueError) as exc:
                raise ValueError(f"degree_pmf needs integer degrees and numeric "
                                 f"probabilities, got {pmf!r}") from exc
        for key in ("n", "seed"):
            if not _is_count(d.get(key, 0)):
                raise ValueError(f"{key} must be an integer, got {d[key]!r}")
        seq = d.get("degree_seq")
        if seq is not None:
            if not isinstance(seq, list):
                raise ValueError(f"degree_seq must be a list of degrees, "
                                 f"got {seq!r}")
            bad = next((i for i, x in enumerate(seq)
                        if not (_is_count(x) and x >= 0)), None)
            if bad is not None:
                raise ValueError(f"degree_seq entry {bad}: {seq[bad]!r} is "
                                 f"not a non-negative integer")
        return cls(model=d["model"], n=int(d["n"]), lam=d.get("lam"),
                   degree_pmf=pmf, degree_seq=seq,
                   seed=int(d.get("seed", 0)))


def gen_metadata(spec: GenSpec) -> dict:
    return {"rng": RNG_ALGORITHM, "seed_mix": SEED_MIX_ALGORITHM,
            "spec": spec.to_dict()}


def _contains(sorted_codes: np.ndarray, codes: np.ndarray) -> np.ndarray:
    if sorted_codes.size == 0:
        return np.zeros(codes.size, dtype=bool)
    at = np.searchsorted(sorted_codes, codes)
    return sorted_codes.take(at, mode="clip") == codes


def _merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sorted union of two sorted arrays with no code in common."""
    if a.size < b.size:
        a, b = b, a
    return np.insert(a, np.searchsorted(a, b), b)


def _distinct_codes(rng: np.random.Generator, n_pairs: int,
                    m: int) -> np.ndarray:
    """The first m distinct codes of a stream of uniform draws from
    [0, n_pairs), sorted.

    The stream is drawn in batches of max(m - accepted, 1024) codes. A batch
    accepts the first draw of each code not accepted before, in draw order,
    and stops at the m-th acceptance. Earlier acceptances are held in two
    sorted arrays, `recent` being merged into `old` once it holds a
    sixteenth as many codes, so a batch costs about its own size even when
    most of its draws repeat earlier codes.
    """
    old = recent = np.empty(0, dtype=np.int64)
    while (need := m - old.size - recent.size) > 0:
        batch = rng.integers(0, n_pairs, size=max(need, 1024))
        new = sorted_unique(batch)
        new = new[~(_contains(old, new) | _contains(recent, new))]
        if new.size > need:
            # only a batch of 1024 draws can hold more new codes than are
            # needed: keep those drawn first
            codes, first = np.unique(batch, return_index=True)
            first = np.sort(first[np.searchsorted(codes, new)])
            new = np.sort(batch[first[:need]])
        recent = _merge(recent, new)
        if 16 * recent.size > old.size:
            old, recent = _merge(old, recent), recent[:0]
    return _merge(old, recent)


def gen_erdos_renyi(n: int, lam: float, seed: int) -> Graph:
    """Simple graph: each of the n(n-1)/2 pairs kept independently with
    probability lam/n. Deterministic given the seed; never contains
    self-loops or parallel edges.

    Pair (i, j), i < j, has the triangular code i(2n - i - 1)/2 + j - i - 1.
    Up to 2*10^6 pairs, a pair is kept when its uniform draw falls below
    lam/n. Above that, the edge count m is drawn from Binomial(n_pairs,
    lam/n) and the codes are the first m distinct ones of a uniform stream
    (`_distinct_codes`)."""
    if n < 2:
        raise ValueError(f"erdos_renyi needs n >= 2, got {n}")
    if not (0 < lam < n):
        raise ValueError(f"erdos_renyi needs 0 < lam < n, got lam={lam}, n={n}")
    p = lam / n
    n_pairs = n * (n - 1) // 2
    rng = _rng(seed)
    if n_pairs <= 2_000_000:
        codes = np.flatnonzero(rng.random(n_pairs) < p)
    else:
        codes = _distinct_codes(rng, n_pairs, int(rng.binomial(n_pairs, p)))
    # decode triangular codes: row i holds pairs (i, i+1..n-1)
    row_starts = np.concatenate(
        [[0], np.cumsum(n - 1 - np.arange(n, dtype=np.int64))])
    i = np.searchsorted(row_starts, codes, side="right") - 1
    j = i + 1 + (codes - row_starts[i])
    return build_graph(n, np.stack((i, j), axis=1))


def gen_configuration_model(degree_seq, seed: int) -> Graph:
    """Uniform stub pairing: half-edge stubs are permuted and matched in
    consecutive pairs, giving a uniform perfect matching. The output is a
    multigraph (self-loops and parallel edges possible).

    The stubs are shuffled in place. Generator.permutation(k) is
    shuffle(arange(k)), so this is the pairing of
    stubs[rng.permutation(stubs.size)], bit for bit, without its copy."""
    seq = np.asarray(degree_seq, dtype=np.int64)
    if np.any(seq < 0):
        raise ValueError("degrees must be nonnegative")
    total = int(seq.sum())
    if total % 2:
        raise ValueError(f"degree sum {total} is odd")
    stubs = np.repeat(np.arange(seq.size, dtype=np.int64), seq)
    rng = _rng(seed)
    rng.shuffle(stubs)
    return build_graph(seq.size, stubs.reshape(-1, 2))


def sample_degree_sequence(pmf: dict, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws from the pmf; if the sum is odd, one uniformly chosen
    vertex is bumped by +1 to restore parity."""
    rng = _rng(seed)
    draws = OffspringLaw.from_dict(pmf).sample(rng, n)
    if int(draws.sum()) % 2:
        draws[int(rng.integers(n))] += 1
    return draws.astype(np.int64)


def erase_to_simple(g: Graph) -> tuple[Graph, dict]:
    """Collapse parallel edges and drop self-loops.

    Returns the simple graph plus metadata recording how much was erased;
    callers that need exact stub conservation must keep the multigraph.
    """
    lo, hi = g.edges.min(axis=1), g.edges.max(axis=1)
    loops = lo == hi
    # (min, max) pairs packed as min * n + max sort like the pairs themselves
    codes = lo[~loops] * g.n + hi[~loops]
    kept = sorted_unique(codes)
    simple = build_graph(g.n, np.stack((kept // g.n, kept % g.n), axis=1))
    meta = {"erased": True, "self_loops_removed": int(loops.sum()),
            "parallel_edges_collapsed": int(codes.size - kept.size)}
    return simple, meta


def generate(spec: GenSpec) -> Graph:
    """Dispatch a GenSpec to its generator. Deterministic per spec."""
    if spec.model == "erdos_renyi":
        return gen_erdos_renyi(spec.n, float(spec.lam), spec.seed)
    if spec.degree_seq is not None:
        return gen_configuration_model(spec.degree_seq, spec.seed)
    seq = sample_degree_sequence(spec.degree_pmf, spec.n, mix_seed(spec.seed, 0))
    return gen_configuration_model(seq, mix_seed(spec.seed, 1))


def realize(spec: GenSpec, erase: bool = False,
            restrict_giant: bool = False) -> Graph:
    """Generate, then the optional post-passes: erasure to a simple graph
    and restriction to the largest component. The CSR of the result is
    sorted here, once."""
    g = generate(spec)
    if erase:
        g, _ = erase_to_simple(g)
    if restrict_giant:
        g, _ = largest_component(g)
    # sorted now, the keys sit beside the edge array alone: the post-passes'
    # graphs are gone, and a walk has allocated nothing yet
    g.out_edges
    return g
