"""Metric names, units and the per-layer metrics derived from a traced run.

A span's self time is its duration minus the durations of its direct child
spans; spans nest strictly (one thread), so the self times of all spans sum
to the duration of the root span, the CLI runner. A layer's self time is the
sum of the self times of its spans, so the layers' self times account for
the traced wall time up to `trace.unaccounted_s` (argument parsing, config
loading and tracer bookkeeping outside any span).
"""

from __future__ import annotations

# name, unit, better
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("generators.self_s", "s", "lower"),
    ("generators.gen_configuration_model.self_s", "s", "lower"),
    ("generators.gen_erdos_renyi.self_s", "s", "lower"),
    ("generators.erase_to_simple.self_s", "s", "lower"),
    ("generators.sample_degree_sequence.self_s", "s", "lower"),
    ("generators.edges", "count", "lower"),
    ("generators.erase.kept_ratio", "ratio", "higher"),
    ("graph_core.self_s", "s", "lower"),
    ("graph_core.build_graph.self_s", "s", "lower"),
    ("graph_core.build_graph.ns_per_edge", "ns", "lower"),
    ("graph_core.analyze_components.self_s", "s", "lower"),
    ("graph_core.induced_subgraph.self_s", "s", "lower"),
    ("graph_core.giant_fraction", "ratio", "higher"),
    ("kernels.self_s", "s", "lower"),
    ("kernels.bias_all.self_s", "s", "lower"),
    ("kernels.bias_profile.self_s", "s", "lower"),
    ("kernels.half_edge_levels", "count", "lower"),
    ("kernels.ns_per_half_edge_level", "ns", "lower"),
    ("kernels.bytes_moved_computed", "B", "lower"),
    ("stationary.self_s", "s", "lower"),
    ("stationary.mixing_profile.self_s", "s", "lower"),
    ("stationary.mixing.s_per_level", "s", "lower"),
    ("stationary.mixing.levels_computed", "count", "lower"),
    ("stationary.mixing.levels_needed", "count", "lower"),
    ("stationary.mixing.level_yield", "ratio", "higher"),
    ("stationary.mixing.dense_bytes_computed", "B", "lower"),
    ("tree_limits.self_s", "s", "lower"),
    ("tree_limits.sample_mu_star.self_s", "s", "lower"),
    ("tree_limits.trees_per_s", "1/s", "higher"),
    ("tree_limits.rejections", "count", "lower"),
    ("tree_limits.accept_ratio", "ratio", "higher"),
    ("measures.self_s", "s", "lower"),
    ("measures.levy_distance.self_s", "s", "lower"),
    ("measures.levy_distance.calls", "count", "lower"),
    ("measures.levy_distance.ns_per_atom", "ns", "lower"),
    ("measures.from_values.self_s", "s", "lower"),
    ("measures.ks_distance.self_s", "s", "lower"),
    ("measures.w1_distance.self_s", "s", "lower"),
    ("measures.atoms_in", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unaccounted_s", "s", "lower"),
)

LAYERS = ("generators", "graph_core", "kernels", "stationary", "tree_limits",
          "measures", "cli")

# Computed bytes one kernel level moves, from the numpy operands of one step,
# 8 bytes per int64 index or float64 value read or written:
#   nb  push_expectation per half-edge: bincount over tails (16), gather
#       t[heads] (24), gather y[twin] (24), subtract (24), divide (24);
#       per vertex: the bincount result (8).
#   bt  _bt_expect per half-edge: gather v[heads] (24), gather by out_edges
#       (24), reduceat read (8); per vertex: out_start and the reduceat
#       result (16), divide by degree (24).
#   lazy  bt plus delta*v, (1-delta)*stepped and their sum per vertex (56).
KERNEL_BYTES = {  # kind -> (per half-edge, per vertex), each per level
    "nb": (112, 8),
    "bt": (56, 40),
    "lazy": (56, 96),
}

# counts that are exact functions of the seed; they must repeat between runs
COMPUTED_COUNTS = (
    "generators.edges", "generators.erase.kept_ratio",
    "graph_core.giant_fraction", "kernels.half_edge_levels",
    "kernels.bytes_moved_computed", "stationary.mixing.levels_computed",
    "stationary.mixing.levels_needed", "stationary.mixing.level_yield",
    "stationary.mixing.dense_bytes_computed", "tree_limits.rejections",
    "tree_limits.accept_ratio", "measures.levy_distance.calls",
    "measures.atoms_in", "cli.bytes_written",
)


def _ratio(num: float, den: float) -> float:
    """num/den, or 0.0 when the layer did no such work in this workload."""
    return num / den if den else 0.0


def layer_metrics(spans: list, traced_wall_s: float, untraced_wall_s: float,
                  bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed by the PER_LAYER names."""
    dur = [(end - start) * 1e-9 for _, start, end, _, _ in spans]
    self_s = list(dur)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            self_s[parent] -= dur[i]

    fn_self: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    for (name, _, _, _, counts), s in zip(spans, self_s):
        layer = name.split(".", 1)[0]
        layer_self[layer] += s
        fn_self[name] = fn_self.get(name, 0.0) + s
        calls[name] = calls.get(name, 0) + 1
        for key, value in (counts or {}).items():
            if key == "kind":
                continue
            total[f"{name}.{key}"] = total.get(f"{name}.{key}", 0) + value

    kernel_levels = 0
    kernel_bytes = 0
    for name, _, _, _, counts in spans:
        if name in ("kernels.bias_all", "kernels.bias_profile") and counts:
            per_he, per_v = KERNEL_BYTES[counts["kind"]]
            kernel_levels += counts["half_edges"] * counts["levels"]
            kernel_bytes += (per_he * counts["half_edges"]
                             + per_v * counts["n"]) * counts["levels"]

    def f(name):
        return fn_self.get(name, 0.0)

    def t(name):
        return total.get(name, 0)

    kernel_s = f("kernels.bias_all") + f("kernels.bias_profile")
    mixing_levels = t("stationary.mixing_profile.levels_computed")
    samples = t("tree_limits.sample_mu_star.samples")
    trees = samples + t("tree_limits.sample_mu_star.rejections")
    levy_atoms = t("measures.levy_distance.atoms")
    out = {
        "generators.edges": t("generators.gen_configuration_model.edges")
        + t("generators.gen_erdos_renyi.edges"),
        "generators.erase.kept_ratio": _ratio(
            t("generators.erase_to_simple.edges_out"),
            t("generators.erase_to_simple.edges_in")),
        "graph_core.build_graph.ns_per_edge": 1e9 * _ratio(
            f("graph_core.build_graph"), t("graph_core.build_graph.edges")),
        "graph_core.giant_fraction": _ratio(
            t("graph_core.largest_component.n_out"),
            t("graph_core.largest_component.n_in")),
        "kernels.half_edge_levels": kernel_levels,
        "kernels.ns_per_half_edge_level": 1e9 * _ratio(kernel_s, kernel_levels),
        "kernels.bytes_moved_computed": kernel_bytes,
        "stationary.mixing.s_per_level": _ratio(
            f("stationary.mixing_profile"), mixing_levels),
        "stationary.mixing.levels_computed": mixing_levels,
        "stationary.mixing.levels_needed": t(
            "stationary.mixing_profile.levels_needed"),
        "stationary.mixing.level_yield": _ratio(
            t("stationary.mixing_profile.levels_needed"), mixing_levels),
        "stationary.mixing.dense_bytes_computed": t(
            "stationary.mixing_profile.dense_bytes"),
        "tree_limits.trees_per_s": _ratio(trees,
                                          f("tree_limits.sample_mu_star")),
        "tree_limits.rejections": t("tree_limits.sample_mu_star.rejections"),
        "tree_limits.accept_ratio": _ratio(samples, trees),
        "measures.levy_distance.calls": calls.get("measures.levy_distance", 0),
        "measures.levy_distance.ns_per_atom": 1e9 * _ratio(
            f("measures.levy_distance"), levy_atoms),
        "measures.atoms_in": levy_atoms + t("measures.ks_distance.atoms")
        + t("measures.w1_distance.atoms"),
        "cli.bytes_written": bytes_written,
        "trace.wall_s": traced_wall_s,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
        "trace.unaccounted_s": traced_wall_s - sum(self_s),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    for name, _, _ in PER_LAYER:
        parts = name.split(".")
        if name not in out and parts[-1] == "self_s" and len(parts) == 3:
            out[name] = f(f"{parts[0]}.{parts[1]}")
    return {name: out[name] for name, _, _ in PER_LAYER}
