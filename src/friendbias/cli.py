"""Experiment runner: reproducible batch experiments with JSON/CSV outputs.

Every output file embeds the fully resolved config and master seed, and a
rerun with the same config reproduces every file byte for byte. Replica r of
a generated family uses seed mix_seed(master, r), so results do not depend
on any execution order.

Exit codes, one per class of exception `main` catches: 0 success;
2 `ConfigError`, the config is invalid or the library or the file system
refuses one of its values; 3 `PreconditionError`, a hypothesis of the paper
fails on the drawn input; 4 `SizeGuardError`, `NonFiniteMeasureError`,
`RuntimeError` or `ArithmeticError`, a numeric guard. Any other exception is
a bug: it exits 1 with its traceback. A run that exits non-zero leaves none
of the files it wrote.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path

import numpy as np

from . import generators, kernels, measures, oracle, stationary, tree_limits
from .graph_core import (Graph, PreconditionError, load_edge_list,
                         save_edge_list, validate_for_exploration)
from .kernels import SizeGuardError
from .measures import NonFiniteMeasureError

EXPERIMENTS = ("generate", "bias", "stationary", "mixing", "limit-mu",
               "limit-mu-star", "sweep", "joint", "noncommute", "oracle-check")
# the experiments that draw their graphs from gen and refuse a graph_file
GEN_ONLY = ("generate", "sweep", "joint")


class ConfigError(ValueError):
    """The experiment configuration itself is invalid."""


@contextlib.contextmanager
def _refusal(prefix: str = ""):
    """A value from the config refused by the library or the file system: an
    OSError, or a ValueError that `main` gives no exit code of its own, raised
    again as a ConfigError whose message is `prefix` and then its own."""
    try:
        yield
    except (PreconditionError, SizeGuardError, NonFiniteMeasureError):
        raise
    except (OSError, ValueError) as exc:
        raise ConfigError(prefix + str(exc)) from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and generators.is_finite(value))


@dataclass
class ExperimentConfig:
    experiment: str
    gen: dict | None = None          # GenSpec as a dict
    graph_file: str | None = None
    kind: str = "bt"
    delta: float = 0.5
    k: object = 1                    # int, list of ints, "log_n(c)" or "mix10(eps)"
    replicas: int = 1
    seed: int = 0
    out: str = "out"
    distance: str = "levy"
    restrict_giant: bool = False
    erase: bool = False
    scope: str = "global"
    n_grid: list | None = None
    pmf: dict | None = None
    n_samples: int = 100_000
    k_max: int = 200
    eps_list: list = field(
        default_factory=lambda: list(stationary.DEFAULT_EPS))
    bins: int = 40
    window_N: int = 1
    starts_cap: int | None = None
    size_cap: int = 10 ** 6

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.kind not in ("bt", "nb", "lazy"):
            raise ConfigError(f"unknown exploration kind {self.kind!r}")
        if not _is_finite_number(self.delta):
            raise ConfigError(f"delta must be a finite number, got "
                              f"{self.delta!r}")
        # stationary reports the lazy walk's residual whatever the kind
        if ((self.kind == "lazy" or self.experiment == "stationary")
                and not (0.0 < self.delta < 1.0)):
            raise ConfigError(f"laziness delta must lie in (0, 1), got {self.delta}")
        for key in ("seed", "replicas", "n_samples", "size_cap", "k_max",
                    "bins", "window_N", "starts_cap"):
            value = getattr(self, key)
            if value is None and key == "starts_cap":
                continue
            if not _is_int(value):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
            least = 0 if key == "seed" else 1
            if value < least and key != "window_N":
                raise ConfigError(f"{key} must be >= {least}")
        if self.n_grid is not None and not (
                isinstance(self.n_grid, list)
                and all(_is_int(n) and n >= 1 for n in self.n_grid)):
            raise ConfigError(f"n_grid must be null or a list of integers "
                              f">= 1, got {self.n_grid!r}")
        if not (isinstance(self.eps_list, list)
                and all(_is_finite_number(eps) and 0 < eps < 1
                        for eps in self.eps_list)):
            raise ConfigError(f"eps_list must be a list of numbers in (0, 1), "
                              f"got {self.eps_list!r}")
        if self.scope not in ("global", "component"):
            raise ConfigError(f"unknown scope {self.scope!r}")
        if self.distance not in measures.DISTANCES:
            raise ConfigError(f"unknown distance {self.distance!r}")
        for key in ("graph_file", "out"):
            value = getattr(self, key)
            if not (isinstance(value, str)
                    or key == "graph_file" and value is None):
                raise ConfigError(f"{key} must be a string, got {value!r}")
        if self.graph_file is not None:
            # one config names one graph source, and a file is read as it is
            if self.gen is not None:
                raise ConfigError("graph_file and gen both name the graph; "
                                  "give one")
            for key in ("erase", "restrict_giant"):
                if getattr(self, key):
                    raise ConfigError(f"{key} applies to a gen spec; "
                                      f"graph_file is read as it is")
            if self.experiment in GEN_ONLY:
                raise ConfigError(f"{self.experiment} draws its graphs from "
                                  f"gen; graph_file does not apply")
        if isinstance(self.k, str):
            parse_schedule(self.k)  # fail fast on malformed schedules
        elif not all(_is_int(level) and level >= 0 for level in
                     (self.k if isinstance(self.k, list) else [self.k])):
            raise ConfigError(f"k must be an integer >= 0, a list of them or "
                              f"a schedule, got {self.k!r}")

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.pmf is not None:
            d["pmf"] = {str(k): v for k, v in self.pmf.items()}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        if d.get("pmf") is not None:
            if not isinstance(d["pmf"], dict):
                raise ConfigError(
                    f"bad pmf: expected an object of degree: probability "
                    f"entries, got {d['pmf']!r}")
            pmf = {}
            for k, v in d["pmf"].items():
                try:
                    pmf[int(k)] = float(v)
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ConfigError(
                        f"bad pmf: entry {k!r}: {v!r} needs an integer "
                        f"degree and a numeric probability") from exc
            d["pmf"] = pmf
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**d)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


def parse_schedule(text: str):
    """Parse a level schedule: "log_n(c)" gives ceil(c * ln n); "mix10(eps)"
    gives 10x the first level where the worst-case TV drops to eps."""
    text = text.strip()
    for name in ("log_n", "mix10"):
        if text.startswith(name + "(") and text.endswith(")"):
            try:
                value = float(text[len(name) + 1:-1])
            except ValueError as exc:
                raise ConfigError(f"malformed schedule {text!r}") from exc
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"k schedule parameter must be finite and "
                                  f"positive, got {text!r}")
            if name == "mix10" and value >= 1:
                # every law is within TV 1 of stationarity: level 1 would cross
                raise ConfigError(f"k schedule mix10(eps) needs eps < 1, "
                                  f"got {text!r}")
            return name, value
    raise ConfigError(f"unknown schedule {text!r}")


def schedule_k(cfg: ExperimentConfig, n: int, n_index: int, graph=None) -> int:
    """Resolve the level for grid point n (list schedules index by position)."""
    k = cfg.k
    if isinstance(k, int):
        return k
    if isinstance(k, list):
        return int(k[n_index])
    name, value = parse_schedule(k)
    if name == "log_n":
        return max(1, math.ceil(value * math.log(n)))
    with _refusal():
        crossing = stationary.mixing_time(graph, cfg.kind, value, cfg.k_max,
                                          delta=cfg.delta, starts_cap=cfg.starts_cap)
    if crossing is None:
        raise PreconditionError(
            f"mixing schedule unresolved: TV never reached {value} within "
            f"k_max={cfg.k_max}")
    return 10 * crossing


# atoms per piece of a streamed atom list; bounds the memory of a measure write
ATOM_CHUNK = 1 << 12
# stands in for an atom list in the dumped text; no config or meta string
# holds a NUL
_ATOMS = "\0atoms\0"


# the files the running experiment has written, which `main` removes if it
# fails
_written: list[Path] = []


def _claim(path: Path) -> Path:
    """Create `path` empty, with its directory, and record it in `_written`.
    Every file of a run is claimed before it is written."""
    with _refusal(f"cannot write {path}: "):
        path.parent.mkdir(parents=True, exist_ok=True)
        open(path, "w").close()
    _written.append(path)
    return path


def _write(path: Path, pieces) -> None:
    with open(_claim(path), "w") as fh:
        fh.writelines(pieces)


def _atom_text(m: measures.EmpiricalMeasure, before: str):
    """The atom list of `m.to_dict()` as json.dumps(indent=1) writes it after
    `before`, which ends with the start of the line of its key, in pieces of
    ATOM_CHUNK atoms.

    json writes floats with float.__repr__, as `repr` does. A pooled measure
    has few distinct weights, so each distinct weight bit pattern in a piece
    is written once (-0.0 and 0.0 stay apart)."""
    line = before[before.rfind("\n") + 1:]
    indent = len(line) - len(line.lstrip(" "))
    outer, inner = " " * (indent + 1), " " * (indent + 2)
    within = ",\n" + inner                       # an atom's value, its weight
    between = f"\n{outer}],\n{outer}[\n{inner}"  # one atom, the next
    yield f"[\n{outer}[\n{inner}"
    for lo in range(0, m.values.size, ATOM_CHUNK):
        bits, which = np.unique(m.weights[lo:lo + ATOM_CHUNK].view(np.int64),
                                return_inverse=True)
        weights = [repr(w) for w in bits.view(np.float64).tolist()]
        atoms = zip(map(repr, m.values[lo:lo + ATOM_CHUNK].tolist()),
                    map(weights.__getitem__, which.tolist()))
        yield (between if lo else "") + between.join(map(within.join, atoms))
    yield f"\n{outer}]\n{' ' * indent}]"


def _write_json(path: Path, payload) -> None:
    """Write json.dumps(payload, sort_keys=True, indent=1) and a newline,
    with every EmpiricalMeasure in `payload` in its to_dict() form.

    The atom lists are not built as Python objects: each measure is dumped
    with a placeholder for its atoms, and the atom text is streamed from the
    arrays into the placeholder's place."""
    found = []

    def stand_in(obj):
        if not isinstance(obj, measures.EmpiricalMeasure):
            raise TypeError(f"{type(obj).__name__} is not JSON serializable")
        found.append(obj)
        return {"atoms": _ATOMS, "meta": obj.meta}

    text = json.dumps(payload, sort_keys=True, indent=1, default=stand_in)
    head, *tails = text.split(json.dumps(_ATOMS))
    if len(tails) != len(found):
        raise ConfigError("a string in the payload equals the atom placeholder")

    def pieces():
        yield head
        for m, before, tail in zip(found, [head, *tails], tails):
            yield from _atom_text(m, before)
            yield tail
        yield "\n"

    _write(path, pieces())


def _cell(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def _write_csv(path: Path, cfg: ExperimentConfig, header, rows) -> None:
    """A `# config:` line, the column names, then one line per row: floats
    as repr, None as an empty cell."""
    lines = ["# config: " + json.dumps(cfg.to_dict(), sort_keys=True),
             ",".join(header)]
    lines += [",".join(map(_cell, row)) for row in rows]
    _write(path, ["\n".join(lines) + "\n"])


def _write_measure(path: Path, m: measures.EmpiricalMeasure,
                   cfg: ExperimentConfig) -> None:
    meta = dict(m.meta, config=cfg.to_dict(), master_seed=cfg.seed)
    _write_json(path, measures.EmpiricalMeasure(m.values, m.weights, meta))


def _write_summary(out: Path, cfg: ExperimentConfig,
                   m: measures.EmpiricalMeasure, n, k, to_limit) -> None:
    """One row; `to_limit` is the cfg.distance from m to its limit, or None."""
    _write_csv(out / "summary.csv", cfg,
               ("experiment", "n", "k", "kind", "seed", "mean",
                "nonneg_fraction", f"{cfg.distance}_to_limit"),
               [(cfg.experiment, n, k, cfg.kind, cfg.seed, m.mean(),
                 m.mass_at_least(0.0), to_limit)])


def _genspec(cfg: ExperimentConfig, **changes) -> generators.GenSpec:
    """The config's gen spec, with `changes` to its fields."""
    if cfg.gen is None:
        either = "" if cfg.experiment in GEN_ONLY else " or a 'graph_file'"
        raise ConfigError(f"this experiment needs a 'gen' model spec{either}")
    with _refusal("bad gen spec: "):
        return replace(generators.GenSpec.from_dict(cfg.gen), **changes)


def _graph(cfg: ExperimentConfig, seed: int, n: int | None = None) -> Graph:
    """The run's one graph source: the gen spec realised on `seed` (at size
    n when given), or the graph file as it is."""
    if cfg.graph_file is not None:
        with _refusal(f"cannot read graph file {cfg.graph_file}: "):
            return load_edge_list(cfg.graph_file)
    sizes = {} if n is None else {"n": n}
    with _refusal():
        return generators.realize(_genspec(cfg, seed=seed, **sizes),
                                  erase=cfg.erase,
                                  restrict_giant=cfg.restrict_giant)


def _replica_graphs(cfg: ExperimentConfig, seed: int, n: int | None = None):
    """Yield replica r = 0..replicas-1 of the run's graph, checked for
    cfg.kind: a generated family realised on mix_seed(seed, r), or the graph
    file as its one replica.

    The generator keeps no reference to a graph it has yielded, so a caller
    that drops its own before the next one is realised holds one replica
    graph at a time."""
    if cfg.graph_file is not None and cfg.replicas > 1:
        raise ConfigError("replicas > 1 requires a generated family, not a "
                          "graph file")
    for r in range(cfg.replicas):
        yield _check_kind(cfg, _graph(cfg, generators.mix_seed(seed, r), n),
                          "" if cfg.graph_file else f"replica {r}: ")


def _check_kind(cfg: ExperimentConfig, g: Graph, where: str = "") -> Graph:
    """g, once it is valid for cfg.kind."""
    report = validate_for_exploration(g, cfg.kind)
    if not report.ok:
        raise PreconditionError(
            f"{where}graph invalid for {cfg.kind!r} exploration: "
            f"{report.message} (vertices {report.violations[:10]})")
    return g


def _fixed_k(cfg: ExperimentConfig) -> int:
    if not isinstance(cfg.k, int):
        raise ConfigError(f"experiment {cfg.experiment!r} needs an integer k")
    return cfg.k


def run_generate(cfg: ExperimentConfig) -> int:
    seed = generators.mix_seed(cfg.seed, 0)
    g = _graph(cfg, seed)
    out = Path(cfg.out)
    save_edge_list(g, _claim(out / "graph.edges"))
    # the spec realised: realize() of it, with the config's post-passes,
    # redraws graph.edges
    meta = generators.gen_metadata(_genspec(cfg, seed=seed))
    meta["config"] = cfg.to_dict()
    meta["n"] = g.n
    meta["num_edges"] = g.num_edges
    _write_json(out / "graph.meta.json", meta)
    return 0


def run_bias(cfg: ExperimentConfig) -> int:
    k = _fixed_k(cfg)
    mus = []
    to_limit = None
    # no enumerate: its reused result tuple would hold the last graph while
    # the next one is realised
    for g in _replica_graphs(cfg, cfg.seed):
        r = len(mus)
        mus.append(kernels.bias_all(g, k, cfg.kind, delta=cfg.delta,
                                    meta={"replica": r, "seed": cfg.seed}))
        if r == 0:
            # distance of the quenched measure to its stationary limit, in the
            # configured metric (levy by default), when the limit is defined
            with contextlib.suppress(PreconditionError):
                limit = stationary.stationary_bias(g, scope=cfg.scope)
                to_limit = measures.DISTANCES[cfg.distance](mus[0], limit)
        del g   # before the next replica is realised
    out = Path(cfg.out)
    _write_measure(out / "bias_measure.json", mus[0], cfg)
    primary = mus[0]
    if cfg.replicas > 1:
        primary = measures.EmpiricalMeasure.mixture(
            mus, meta={"k": k, "kind": cfg.kind, "replicas": cfg.replicas,
                       "annealed": True})
        means = [m.mean() for m in mus]
        primary.meta["mean_bias"] = float(np.mean(means))
        primary.meta["sem_mean_bias"] = float(np.std(means, ddof=1)
                                              / np.sqrt(len(means)))
        _write_measure(out / "bias_measure_annealed.json", primary, cfg)
    _write_csv(out / "bias_histogram.csv", cfg, ("bin_left", "bin_right", "mass"),
               primary.histogram(cfg.bins))
    _write_summary(out, cfg, primary, mus[0].meta["n"], k, to_limit)
    return 0


def run_stationary(cfg: ExperimentConfig) -> int:
    g = _graph(cfg, generators.mix_seed(cfg.seed, 0))
    mu_inf = stationary.stationary_bias(g, scope=cfg.scope)
    out = Path(cfg.out)
    _write_measure(out / "stationary_measure.json", mu_inf, cfg)
    diag = {"scope": cfg.scope, "n": g.n, "num_edges": g.num_edges}
    pi = stationary.pi_vertex(g)
    degf = g.degrees_float
    ratio = float((degf * degf).sum() / degf.sum())
    diag["stationary_weighted_mean_bias"] = float(
        (pi.weights * (ratio - degf)).sum())
    for kind in ("bt", "lazy", "nb"):
        try:
            diag[f"residual_{kind}"] = stationary.stationarity_residual(
                g, kind, delta=cfg.delta)
        except PreconditionError:
            diag[f"residual_{kind}"] = None
    diag["config"] = cfg.to_dict()
    _write_json(out / "diagnostics.json", diag)
    _write_summary(out, cfg, mu_inf, g.n, None, None)
    return 0


def run_mixing(cfg: ExperimentConfig) -> int:
    g = _graph(cfg, generators.mix_seed(cfg.seed, 0))
    _check_kind(cfg, g)
    with _refusal():
        profile = stationary.mixing_profile(g, cfg.kind, cfg.k_max,
                                            eps_list=cfg.eps_list, delta=cfg.delta,
                                            starts_cap=cfg.starts_cap)
    out = Path(cfg.out)
    _write_csv(out / "mixing.csv", cfg, ("k", "D", "kind", "n", "seed"),
               [(k, dv, cfg.kind, g.n, cfg.seed)
                for k, dv in zip(profile.k_values, profile.D_values)])
    meta = {"crossings": {repr(e): profile.crossings[e] for e in profile.eps_list},
            "flagged_nonergodic": profile.flagged_nonergodic,
            "states": profile.states, "starts_used": profile.starts_used,
            "config": cfg.to_dict()}
    if profile.D_vertex_values is not None:
        meta["D_vertex_values"] = profile.D_vertex_values
    _write_json(out / "mixing_meta.json", meta)
    return 0


def _pmf_law(pmf: dict | None) -> tree_limits.OffspringLaw:
    if pmf is None:
        raise ConfigError("this experiment needs a 'pmf'")
    with _refusal("bad pmf: "):
        p = tree_limits.OffspringLaw.from_dict(pmf)
    with _refusal():
        p.moment_ratio      # both limit laws need it; undefined at mean zero
    return p


def run_limit_mu(cfg: ExperimentConfig) -> int:
    p = _pmf_law(cfg.pmf)
    m = tree_limits.sample_mu(p, cfg.n_samples, cfg.seed)
    limit = tree_limits.exact_mu(p)
    out = Path(cfg.out)
    _write_measure(out / "mu_measure.json", m, cfg)
    _write_measure(out / "mu_exact.json", limit, cfg)
    _write_summary(out, cfg, m, cfg.n_samples, None,
                   measures.DISTANCES[cfg.distance](m, limit))
    return 0


def run_limit_mu_star(cfg: ExperimentConfig) -> int:
    p = _pmf_law(cfg.pmf)
    if not p.size_biased.m1 < 1.0:
        raise PreconditionError("mu_star needs a subcritical size-biased law")
    m = tree_limits.sample_mu_star(p, cfg.n_samples, cfg.seed,
                                   size_cap=cfg.size_cap)
    out = Path(cfg.out)
    _write_measure(out / "mu_star_measure.json", m, cfg)
    _write_summary(out, cfg, m, cfg.n_samples, None, None)
    return 0


def run_sweep(cfg: ExperimentConfig) -> int:
    if not cfg.n_grid:
        raise ConfigError("sweep needs n_grid")
    # psi_window is the worst Levy distance over grid points and levels both
    # >= window_N: a proxy for that finite window only, so an empty window
    # is a config error rather than a psi of 0
    if max(cfg.n_grid) < cfg.window_N or cfg.k_max < max(cfg.window_N, 1):
        raise ConfigError(
            f"empty window: no grid points with n,k >= {cfg.window_N}")
    rows = []
    worst = 0.0
    for idx, n in enumerate(cfg.n_grid):
        g = _graph(cfg, generators.mix_seed(cfg.seed, idx), n)
        _check_kind(cfg, g)
        limit = stationary.stationary_bias(g, scope=cfg.scope)
        for k, deltas in kernels.bias_profile(g, cfg.k_max, cfg.kind,
                                              delta=cfg.delta):
            mu_k = measures.EmpiricalMeasure.from_values(deltas)
            lv = measures.levy_distance(mu_k, limit)
            rows.append((g.n, k, cfg.kind, lv,
                         *measures.cdf_distances(mu_k, limit)))
            if n >= cfg.window_N and k >= cfg.window_N:
                worst = max(worst, lv)
    out = Path(cfg.out)
    _write_csv(out / "sweep.csv", cfg, ("n", "k", "kind", "levy", "ks", "w1"),
               rows)
    _write_json(out / "psi.json", {"window_N": cfg.window_N,
                                   "psi_window": worst,
                                   "config": cfg.to_dict()})
    return 0


def run_joint(cfg: ExperimentConfig) -> int:
    if not cfg.n_grid:
        raise ConfigError("joint needs n_grid")
    if sorted(cfg.n_grid) != list(cfg.n_grid) or len(set(cfg.n_grid)) != len(cfg.n_grid):
        raise ConfigError("joint n_grid must be strictly increasing")
    if isinstance(cfg.k, list):
        if len(cfg.k) != len(cfg.n_grid):
            raise ConfigError("list schedule must match n_grid length")
        if any(a > b for a, b in zip(cfg.k, cfg.k[1:])):
            raise ConfigError("level schedule must be non-decreasing in n")
    spec = _genspec(cfg)
    if spec.model == "configuration":
        if spec.degree_pmf is None:
            raise ConfigError("joint configuration runs need a degree_pmf")
        p = _pmf_law(spec.degree_pmf)
    else:
        p = tree_limits.truncated_poisson(float(spec.lam))
    limit = tree_limits.exact_mu(p)
    out = Path(cfg.out)
    rows = []
    for idx, n in enumerate(cfg.n_grid):
        mus = []
        k_n = None
        for g in _replica_graphs(cfg, generators.mix_seed(cfg.seed, idx), n):
            if k_n is None:
                k_n = schedule_k(cfg, n, idx, graph=g)
            mus.append(kernels.bias_all(g, k_n, cfg.kind, delta=cfg.delta))
            del g   # before the next replica is realised, and before pooling
        pooled = measures.EmpiricalMeasure.mixture(
            mus, meta={"n": n, "k": k_n, "kind": cfg.kind,
                       "replicas": cfg.replicas})
        _write_measure(out / f"joint_measure_n{n}.json", pooled, cfg)
        mean_gap = abs(float(np.mean([m.mean() for m in mus])) - limit.mean())
        rows.append((n, k_n, measures.levy_distance(pooled, limit),
                     measures.w1_distance(pooled, limit), mean_gap))
        del pooled      # not held while the next grid point's replicas run
    _write_csv(out / "joint.csv", cfg, ("n", "k_n", "levy", "w1", "mean_gap"),
               rows)
    return 0


def run_noncommute(cfg: ExperimentConfig) -> int:
    p = _pmf_law(cfg.pmf)
    if not p.size_biased.m1 < 1.0:
        raise PreconditionError("noncommute needs a subcritical size-biased law")
    mu = tree_limits.sample_mu(p, cfg.n_samples, generators.mix_seed(cfg.seed, 0))
    mu_star = tree_limits.sample_mu_star(p, cfg.n_samples,
                                         generators.mix_seed(cfg.seed, 1),
                                         size_cap=cfg.size_cap)

    def _se(m: measures.EmpiricalMeasure) -> float:
        var = max(m.moment(2) - m.mean() ** 2, 0.0)
        return math.sqrt(var / cfg.n_samples)

    report = {"mu": mu, "mu_star": mu_star,
              "mean_mu": mu.mean(), "se_mu": _se(mu),
              "mean_mu_star": mu_star.mean(), "se_mu_star": _se(mu_star),
              "levy_mu_vs_mu_star": measures.levy_distance(mu, mu_star),
              "config": cfg.to_dict(), "master_seed": cfg.seed}
    _write_json(Path(cfg.out) / "noncommute_report.json", report)
    return 0


def run_oracle_check(cfg: ExperimentConfig) -> int:
    worst = 0.0
    checks = 0
    for name, g in oracle.small_graph_corpus().items():
        for kind in ("bt", "nb"):
            if not validate_for_exploration(g, kind).ok:
                continue
            for k in range(0, 6):
                for i in range(g.n):
                    got = kernels._k_step_dist(g, i, k, kind).weights
                    want = oracle.oracle_k_step(g, i, k, kind).weights
                    worst = max(worst, float(np.abs(got - want).max()))
                    checks += 1
                avg = oracle.oracle_avg_bias(g, k, kind)  # raises on mismatch
                mean = kernels.bias_all(g, k, kind).meta["mean_bias"]
                worst = max(worst, abs(avg - mean))
    print(f"oracle-check: {checks} k-step laws compared, max abs error {worst:.3e}")
    if worst > 1e-12:
        print("oracle-check: FAIL (tolerance 1e-12)")
        return 4
    print("oracle-check: PASS")
    return 0


RUNNERS = {"generate": run_generate, "bias": run_bias,
           "stationary": run_stationary, "mixing": run_mixing,
           "limit-mu": run_limit_mu, "limit-mu-star": run_limit_mu_star,
           "sweep": run_sweep, "joint": run_joint,
           "noncommute": run_noncommute, "oracle-check": run_oracle_check}


def _parse_k_flag(text: str):
    try:
        return int(text)
    except ValueError:
        return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="friendbias",
        description="multi-level friendship-bias experiments on random graphs")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None,
                        help="JSON experiment config")
        sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--k", type=_parse_k_flag, default=None)
        sp.add_argument("--kind", choices=("bt", "nb", "lazy"), default=None)
        sp.add_argument("--delta", type=float, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--replicas", type=int, default=None)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--restrict-giant", action="store_true", default=None,
                        help="analyse only the largest connected component")
    return parser


_ONE_GRAPH = ("n", "seed", "out", "restrict_giant")
_GRID = ("kind", "delta", "seed", "out", "restrict_giant")
_TREES = (("seed", "out"),
          "which samples trees from its pmf and builds no graph")
# the flags each experiment reads, and why it reads no other: any other flag
# exits 2 instead of being written into its outputs as if it had been used.
# Config keys are not checked, as one config file may serve several
# experiments.
FLAGS = {
    "generate": (_ONE_GRAPH, "which draws one graph and explores none"),
    "stationary": (_ONE_GRAPH + ("delta",),
                   "which takes the level to infinity on one graph"),
    "mixing": (_ONE_GRAPH + ("delta", "kind"),
               "which runs levels up to k_max on one graph"),
    "bias": (_ONE_GRAPH + ("delta", "kind", "k", "replicas"), ""),
    "sweep": (_GRID, "which takes its sizes from n_grid and runs levels up "
                     "to k_max on one graph each"),
    "joint": (_GRID + ("k", "replicas"),
              "which takes its sizes from n_grid"),
    "limit-mu": _TREES, "limit-mu-star": _TREES, "noncommute": _TREES,
    "oracle-check": ((), "which checks a fixed corpus of small graphs"),
}


def _load_config(args) -> ExperimentConfig:
    data: dict = {}
    if args.config is not None:
        with (_refusal(f"cannot read config {args.config}: "),
              open(args.config) as fh):
            data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"config {args.config} must be a JSON object")
    named = data.setdefault("experiment", args.experiment)
    if named != args.experiment:
        raise ConfigError(f"config {args.config} is for experiment {named!r}, "
                          f"not {args.experiment!r}")
    reads, why = FLAGS[args.experiment]
    for flag, value in vars(args).items():
        if value is None or flag in ("experiment", "config"):
            continue
        if flag not in reads:
            raise ConfigError(f"--{flag.replace('_', '-')} does not apply to "
                              f"{args.experiment}, {why}")
        if flag != "n":
            data[flag] = value
        elif data.get("gen") is None:
            raise ConfigError("--n override needs a gen spec in the config")
        else:
            data["gen"] = dict(data["gen"], n=value)
    return ExperimentConfig.from_dict(data)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _written.clear()
    code = 1    # any other exception is a bug: exit 1 with its traceback
    try:
        cfg = _load_config(args)
        code = RUNNERS[cfg.experiment](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = 2
    except PreconditionError as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        code = 3
    except (SizeGuardError, NonFiniteMeasureError, RuntimeError,
            ArithmeticError) as exc:
        print(f"numeric guard: {exc}", file=sys.stderr)
        code = 4
    finally:
        if code:    # a failed run leaves none of the files it wrote
            for path in _written:
                path.unlink(missing_ok=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
