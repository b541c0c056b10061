"""Reference mu_star sampler: one `gw_reference.sample_gw` call per tree.

Test oracle for `tree_limits.sample_mu_star`, which reads the same stream of
uniforms in blocks and must return the same measure bit for bit, with the
same rejection count.
"""

import numpy as np

from friendbias.measures import EmpiricalMeasure
from friendbias.tree_limits import OffspringLaw
from gw_reference import sample_gw, stationary_tree_bias


def sample_mu_star_loop(p: OffspringLaw, n_samples: int, seed: int,
                        size_cap: int = 10 ** 6) -> EmpiricalMeasure:
    rng = np.random.Generator(np.random.PCG64(seed))
    vals = np.empty(n_samples)
    rejections = 0
    for i in range(n_samples):
        while (tree := sample_gw(p, rng, size_cap=size_cap)) is None:
            rejections += 1
            if rejections > 1000 + n_samples:
                raise RuntimeError("mu_star sampling rejected too many trees; "
                                   "size cap too small for this law")
        vals[i] = stationary_tree_bias(tree)
    return EmpiricalMeasure.from_values(
        vals, meta={"law": "mu_star", "pmf": p.to_dict(),
                    "n_samples": n_samples, "seed": seed,
                    "size_cap": size_cap, "rejections": rejections})
