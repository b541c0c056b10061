"""Reference Erdos-Renyi sampler: the rejection loop over pair codes, one
Python `set` lookup per draw.

Test oracle for `generators.gen_erdos_renyi` above 2*10^6 pairs, whose
`_distinct_codes` accepts the same codes from the same batches of draws
without a Python loop and must give the same edges.
"""

import numpy as np

from friendbias.graph_core import Graph, build_graph


def distinct_codes_loop(rng: np.random.Generator, n_pairs: int,
                        m: int) -> np.ndarray:
    # rejection sampling of distinct pair codes; uniform and deterministic
    chosen: set[int] = set()
    picks: list[int] = []
    while len(picks) < m:
        batch = rng.integers(0, n_pairs, size=max(m - len(picks), 1024))
        for c in batch.tolist():
            if c not in chosen:
                chosen.add(c)
                picks.append(c)
                if len(picks) == m:
                    break
    return np.sort(np.array(picks, dtype=np.int64))


def gen_erdos_renyi_loop(n: int, lam: float, seed: int) -> Graph:
    """gen_erdos_renyi's rejection path, for n(n-1)/2 > 2*10^6."""
    n_pairs = n * (n - 1) // 2
    rng = np.random.Generator(np.random.PCG64(seed))
    codes = distinct_codes_loop(rng, n_pairs,
                                int(rng.binomial(n_pairs, lam / n)))
    # decode triangular codes: row i holds pairs (i, i+1..n-1)
    row_starts = np.concatenate(
        [[0], np.cumsum(n - 1 - np.arange(n, dtype=np.int64))])
    i = np.searchsorted(row_starts, codes, side="right") - 1
    j = i + 1 + (codes - row_starts[i])
    return build_graph(n, np.stack((i, j), axis=1))
