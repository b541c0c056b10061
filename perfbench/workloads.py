"""The four benchmark workloads: CLI configs and their correctness checks.

Each workload is one `friendbias` CLI experiment. The benchmark's --seed
becomes the config's master seed, so the same seed gives the same inputs;
the seed each paper-scale config was written against is its `paper_seed`.
The "tiny" scale shrinks every size so the smoke test runs each
workload in a second or two; its checks are the same.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CM_PMF = {"3": 0.5, "4": 0.5}


def _rows(path: Path) -> list[dict]:
    """CSV rows of a CLI output, skipping its '# config:' header line."""
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def check_joint_nb_log(out: Path, cfg: dict) -> str | None:
    """The Levy distance to exact_mu falls as n grows."""
    rows = _rows(out / "joint.csv")
    if [int(r["n"]) for r in rows] != cfg["n_grid"]:
        return f"joint.csv has n column {[r['n'] for r in rows]}"
    for n in cfg["n_grid"]:
        if not (out / f"joint_measure_n{n}.json").is_file():
            return f"joint_measure_n{n}.json missing"
    levy = [float(r["levy"]) for r in rows]
    if any(b >= a for a, b in zip(levy, levy[1:])):
        return f"Levy distance does not fall with n: {levy}"
    return None


def check_joint_bt_mix10(out: Path, cfg: dict) -> str | None:
    """The mixing crossing is found and the post-mixing Levy is <= 0.05."""
    rows = _rows(out / "joint.csv")
    if len(rows) != len(cfg["n_grid"]):
        return f"joint.csv has {len(rows)} rows"
    for r in rows:
        k_n = int(r["k_n"])
        if k_n % 10 or not 1 <= k_n // 10 <= cfg["k_max"]:
            return f"n={r['n']}: k_n={k_n} is not 10x a crossing within k_max"
        if not float(r["levy"]) <= 0.05:
            return f"n={r['n']}: Levy {r['levy']} > 0.05 after mixing"
    return None


def check_sweep_er_giant(out: Path, cfg: dict) -> str | None:
    """On every graph the Levy distance falls with k, and psi.json exists."""
    if not (out / "psi.json").is_file():
        return "psi.json missing"
    by_n: dict[int, list[float]] = {}
    for r in _rows(out / "sweep.csv"):
        by_n.setdefault(int(r["n"]), []).append(float(r["levy"]))
    if len(by_n) != len(cfg["n_grid"]):
        return f"sweep.csv covers {len(by_n)} graphs, expected {len(cfg['n_grid'])}"
    for n, levy in by_n.items():
        if len(levy) != cfg["k_max"]:
            return f"n={n}: {len(levy)} levels, expected {cfg['k_max']}"
        if any(b > a for a, b in zip(levy, levy[1:])):
            return f"n={n}: Levy distance rises with k: {levy}"
    return None


def check_noncommute(out: Path, cfg: dict) -> str | None:
    """mu and mu_star means differ by more than 5 combined standard errors."""
    with open(out / "noncommute_report.json") as fh:
        rep = json.load(fh)
    gap = abs(rep["mean_mu"] - rep["mean_mu_star"])
    se = math.hypot(rep["se_mu"], rep["se_mu_star"])
    if not gap > 5.0 * se:
        return f"mean gap {gap!r} is not above 5 combined SE ({se!r})"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    config: dict              # paper-scale config, without seed and out
    tiny: dict                # overrides for the smoke test
    paper_seed: int
    check: Callable[[Path, dict], str | None]
    why: str

    def resolved(self, seed: int, out: str, scale: str) -> dict:
        cfg = dict(self.config, seed=seed, out=out)
        if scale == "tiny":
            cfg.update(self.tiny)
        return cfg


WORKLOADS = {w.name: w for w in (
    Workload(
        name="joint-nb-log", experiment="joint",
        config={"gen": {"model": "configuration", "n": 32000,
                        "degree_pmf": CM_PMF},
                "kind": "nb", "k": "log_n(1)", "replicas": 4,
                "n_grid": [32000, 256000]},
        tiny={"n_grid": [1000, 8000], "replicas": 2},
        paper_seed=505, check=check_joint_nb_log,
        why="pre-mixing joint regime: stub pairing, build_graph, the nb "
            "kernel, pooled Levy and about 53 MB of measure JSON"),
    Workload(
        name="joint-bt-mix10", experiment="joint",
        config={"gen": {"model": "configuration", "n": 16000,
                        "degree_pmf": CM_PMF},
                "kind": "bt", "k": "mix10(0.0001)", "erase": True,
                "starts_cap": 48, "k_max": 300, "replicas": 3,
                "n_grid": [16000]},
        tiny={"n_grid": [3000], "replicas": 2},
        paper_seed=606, check=check_joint_bt_mix10,
        why="post-mixing joint regime: the dense mixing profile in "
            "stationary dominates, then bias_all at ten times the crossing"),
    Workload(
        name="sweep-er-giant", experiment="sweep",
        config={"gen": {"model": "erdos_renyi", "n": 64000, "lam": 4},
                "restrict_giant": True, "kind": "lazy", "k_max": 10,
                "n_grid": [64000, 256000], "window_N": 4},
        tiny={"n_grid": [2000, 8000]},
        paper_seed=303, check=check_sweep_er_giant,
        why="ER rejection path, component BFS and induced_subgraph, then "
            "Levy/KS/W1 to the stationary law at every level"),
    Workload(
        name="noncommute", experiment="noncommute",
        config={"pmf": {"1": 0.75, "2": 0.25}, "n_samples": 100000},
        tiny={"n_samples": 5000},
        paper_seed=707, check=check_noncommute,
        why="mu vs mu_star: the per-tree loop of sample_mu_star; no graphs, "
            "kernels or stationary, so changes there must not show here"),
)}
