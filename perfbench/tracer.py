"""Outside-in tracing of the friendbias layers for the traced benchmark run.

The tracer replaces each layer's public entry points by timing wrappers.
A function imported by name into another module (`from .graph_core import
build_graph`) is a separate module attribute, so every attribute of every
loaded friendbias module (and every value of a module-level dict, such as
`cli.RUNNERS`) that is the original function gets the wrapper. `restore()`
puts every original back.

Spans (name, start, end, parent, counts) stay in memory and are written once
by `dump()`. Counts are derived from argument sizes and return values only,
never from timings, so they repeat exactly between runs of one seed.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# layer -> public functions wrapped as spans; `oracle` is an exact-rational
# test reference that no workload runs. Hot inner helpers (size_bias,
# sample_finite_gw, EdgeChain methods) are left alone: wrapping a function
# called once per tree would make the trace measure itself.
ENTRY_POINTS = {
    "generators": ("realize", "generate", "gen_configuration_model",
                   "gen_erdos_renyi", "sample_degree_sequence",
                   "erase_to_simple"),
    "graph_core": ("build_graph", "analyze_components", "induced_subgraph",
                   "largest_component", "validate_for_exploration"),
    "kernels": ("bias_all", "bias_profile"),
    "stationary": ("mixing_profile", "stationary_bias"),
    "tree_limits": ("exact_mu", "sample_mu", "sample_mu_star",
                    "truncated_poisson"),
    "measures": ("levy_distance", "ks_distance", "w1_distance"),
}


def _atoms(a, _result):
    return {"atoms": int(a["a"].values.size + a["b"].values.size)}


def _kernel_work(a, _result, levels=None):
    g = a["g"]
    return {"half_edges": g.num_half_edges, "n": g.n, "kind": a["kind"],
            "levels": int(a["k"]) if levels is None else levels}


def _mixing(a, r):
    needed = r.crossings.get(min(r.eps_list)) if r.eps_list else None
    rows = r.starts_used
    if r.kind == "nb":   # the projected vertex curve keeps a second matrix
        cap = a["starts_cap"]
        rows += a["g"].n if cap is None else min(int(cap), a["g"].n)
    return {"levels_computed": len(r.k_values),
            "levels_needed": len(r.k_values) if needed is None else int(needed),
            "dense_bytes": int(rows) * int(r.states) * 8}


# "layer.function" -> counts(bound arguments, result)
COUNTS = {
    "generators.gen_configuration_model": lambda a, r: {"edges": r.num_edges},
    "generators.gen_erdos_renyi": lambda a, r: {"edges": r.num_edges},
    "generators.erase_to_simple": lambda a, r: {
        "edges_in": a["g"].num_edges, "edges_out": r[0].num_edges},
    "graph_core.build_graph": lambda a, r: {"edges": r.num_edges},
    "graph_core.largest_component": lambda a, r: {"n_in": a["g"].n,
                                                  "n_out": r[0].n},
    "kernels.bias_all": _kernel_work,
    "kernels.bias_profile": lambda a, _item: _kernel_work(a, _item, levels=1),
    "stationary.mixing_profile": _mixing,
    "tree_limits.sample_mu_star": lambda a, r: {
        "samples": int(a["n_samples"]), "rejections": int(r.meta["rejections"])},
    "measures.levy_distance": _atoms,
    "measures.ks_distance": _atoms,
    "measures.w1_distance": _atoms,
}


class Tracer:
    """Records nested spans around wrapped functions in one thread."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start_ns, end_ns, parent, counts]
        self._open: list[int] = []
        self._undo: list = []

    def _enter(self, name: str) -> int:
        self.spans.append([name, time.perf_counter_ns(), None,
                           self._open[-1] if self._open else -1, None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _exit(self, idx: int, counts=None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        span[4] = counts
        self._open.pop()

    def wrap(self, name: str, fn):
        """A wrapper of `fn` that records one span per call, or one per
        `next()` for a generator function."""
        count = COUNTS.get(name)
        sig = inspect.signature(fn)

        def counts_of(args, kwargs, result):
            if count is None:
                return None
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return count(bound.arguments, result)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = self._enter(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        self._exit(idx)
                        return
                    except BaseException:
                        self._exit(idx)
                        raise
                    self._exit(idx, counts_of(args, kwargs, item))
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(idx)
                raise
            self._exit(idx, counts_of(args, kwargs, result))
            return result
        return wrapper

    def _replace_everywhere(self, original, wrapper) -> None:
        mods = [m for name, m in list(sys.modules.items())
                if name == "friendbias" or name.startswith("friendbias.")]
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((setattr, mod, attr, original))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapper
                            self._undo.append(
                                (dict.__setitem__, value, key, original))

    def install(self) -> None:
        """Wrap every entry point of every layer, the EmpiricalMeasure
        constructor and the CLI runners."""
        from friendbias import cli, measures

        for layer, names in ENTRY_POINTS.items():
            module = sys.modules[f"friendbias.{layer}"]
            for fn_name in names:
                original = getattr(module, fn_name)
                self._replace_everywhere(
                    original, self.wrap(f"{layer}.{fn_name}", original))
        for runner in set(cli.RUNNERS.values()):
            self._replace_everywhere(
                runner, self.wrap(f"cli.{runner.__name__}", runner))
        cls = measures.EmpiricalMeasure
        original = cls.__dict__["from_values"]
        setattr(cls, "from_values", classmethod(
            self.wrap("measures.from_values", original.__func__)))
        self._undo.append((setattr, cls, "from_values", original))

    def restore(self) -> None:
        while self._undo:
            setter, owner, key, original = self._undo.pop()
            setter(owner, key, original)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
