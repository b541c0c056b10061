#!/usr/bin/env python3
"""Digest the output bytes of a fixed set of small CLI runs.

Covers every experiment; the bt, nb and lazy explorations; nb `mixing` and
`stationary` on unerased configuration-model multigraphs with self-loops;
component-scope `stationary` on a multigraph of many components; `mixing`,
`bias` and `mix10` `joint` on a degree law with degrees above 8, whose
per-vertex sums take np.add.reduceat's pairwise order; Erdos-Renyi with
`restrict_giant`, also at sizes that reach its rejection sampler of pair
codes; `erase`; `graph_file` input; and `mu_star` on laws with 0 or 3 in the
support, with rejections under a small `size_cap`, over a stream several
sampling blocks long, and through the too-many-rejections guard (exit 4);
and two config values the library refuses (exit 2).
Each run writes into a relative `--out` directory under WORKDIR, so the
config headers in the outputs do not depend on where the script runs. A
run's exit code and console output go to `<run>/console.txt`.

Prints `sha256  path` for every file under the run directories, then one
overall digest of that listing. Two checkouts that print the same overall
digest wrote the same bytes.

    python3 scripts/output_digests.py [--workdir out/digests]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from friendbias.cli import main as cli_main

PMF34 = {"3": 0.5, "4": 0.5}
PMF234 = {"2": 0.3, "3": 0.4, "4": 0.3}
PMF12 = {"1": 0.5, "2": 0.5}
PMF_WIDE = {"2": 0.3, "3": 0.3, "9": 0.2, "14": 0.2}


def _cm(n, pmf=PMF34, seed=0):
    return {"model": "configuration", "n": n, "degree_pmf": pmf, "seed": seed}


def _er(n, lam, seed=0):
    return {"model": "erdos_renyi", "n": n, "lam": lam, "seed": seed}


def runs() -> list[tuple[str, dict]]:
    """(name, config) pairs in run order; `generate-*` come first because
    the `file-*` runs read their edge lists."""
    out = [
        ("generate-cm-multi", {"experiment": "generate", "gen": _cm(40, PMF234),
                               "seed": 3}),
        ("generate-er-giant", {"experiment": "generate", "gen": _er(100, 3.0),
                               "restrict_giant": True, "seed": 4}),
    ]
    for kind in ("bt", "nb", "lazy"):
        erase = kind != "nb"
        base = {"kind": kind, "erase": erase, "seed": 11}
        out += [
            (f"bias-{kind}", dict(base, experiment="bias", gen=_cm(80), k=3,
                                  replicas=3)),
            (f"stationary-{kind}", dict(base, experiment="stationary",
                                        gen=_cm(80))),
            (f"mixing-{kind}", dict(base, experiment="mixing", gen=_cm(60),
                                    k_max=40)),
            (f"sweep-{kind}", dict(base, experiment="sweep", gen=_cm(40),
                                   n_grid=[40, 80], k_max=6, window_N=2)),
            (f"joint-{kind}", dict(base, experiment="joint", gen=_cm(50),
                                   n_grid=[50, 100], k="log_n(1)",
                                   replicas=2)),
            (f"joint-mix10-{kind}", dict(base, experiment="joint", gen=_cm(60),
                                         n_grid=[60, 120], k="mix10(0.01)",
                                         k_max=80)),
        ]
    # unerased multigraphs with self-loops under nb
    multi = {"kind": "nb", "gen": _cm(40, PMF234), "seed": 3}
    out += [
        ("multi-bias-nb", dict(multi, experiment="bias", k=4, replicas=2)),
        ("multi-stationary-nb", dict(multi, experiment="stationary")),
        ("multi-mixing-nb", dict(multi, experiment="mixing", k_max=30)),
        ("multi-mixing-nb-capped", dict(multi, experiment="mixing", k_max=30,
                                        starts_cap=16)),
        ("multi-sweep-nb", dict(multi, experiment="sweep", n_grid=[30, 60],
                                k_max=5)),
        ("multi-joint-nb", dict(multi, experiment="joint", n_grid=[40, 80],
                                k="log_n(1)", replicas=2)),
        # degrees 1 and 2 give many small components (18 on this draw), so
        # each component's own degree moments enter the limit
        ("stationary-components", {"experiment": "stationary",
                                   "gen": _cm(60, PMF12), "scope": "component",
                                   "seed": 0}),
    ]
    for kind in ("bt", "nb", "lazy"):
        simple = kind != "nb"
        wide = {"kind": kind, "erase": simple, "restrict_giant": simple,
                "seed": 13}
        out += [
            (f"wide-mixing-{kind}", dict(wide, experiment="mixing",
                                         gen=_cm(80, PMF_WIDE), k_max=30)),
            (f"wide-bias-{kind}", dict(wide, experiment="bias",
                                       gen=_cm(80, PMF_WIDE), k=5,
                                       replicas=2)),
            (f"wide-joint-mix10-{kind}", dict(wide, experiment="joint",
                                              gen=_cm(80, PMF_WIDE),
                                              n_grid=[80, 160],
                                              k="mix10(0.01)", k_max=80,
                                              starts_cap=40)),
        ]
    er = {"gen": _er(300, 3.0), "restrict_giant": True, "seed": 5}
    out += [
        ("er-giant-bias-bt", dict(er, experiment="bias", kind="bt", k=2,
                                  replicas=2)),
        ("er-giant-sweep-bt", dict(er, experiment="sweep", kind="bt",
                                   n_grid=[150, 300], k_max=5)),
        ("er-giant-stationary", dict(er, experiment="stationary", kind="lazy")),
        ("er-giant-mixing-lazy", dict(er, experiment="mixing", kind="lazy",
                                      k_max=30, starts_cap=20)),
        ("er-joint-bt", dict(er, experiment="joint", kind="bt",
                             n_grid=[150, 300], k=[2, 3])),
        ("er-giant-bias-component", dict(er, experiment="bias", kind="lazy",
                                         k=2, scope="component")),
        # isolated vertices: the stationary law is refused (exit 3)
        ("er-full-stationary", {"experiment": "stationary", "gen": _er(300, 1.5),
                                "seed": 5}),
        # n > 2000 has over 2*10^6 pairs: the rejection sampler of pair codes
        ("er-rejection-sweep-lazy", {"experiment": "sweep", "gen": _er(2002, 3.0),
                                     "kind": "lazy", "restrict_giant": True,
                                     "n_grid": [2002, 3000], "k_max": 4,
                                     "seed": 7}),
    ]
    cm_file = "generate-cm-multi/graph.edges"
    er_file = "generate-er-giant/graph.edges"
    out += [
        ("file-bias-nb", {"experiment": "bias", "graph_file": cm_file,
                          "kind": "nb", "k": 5}),
        ("file-mixing-nb", {"experiment": "mixing", "graph_file": cm_file,
                            "kind": "nb", "k_max": 20}),
        ("file-stationary-component", {"experiment": "stationary",
                                       "graph_file": cm_file,
                                       "scope": "component"}),
        ("file-bias-er-bt", {"experiment": "bias", "graph_file": er_file,
                             "kind": "bt", "k": 2}),
        ("limit-mu", {"experiment": "limit-mu", "pmf": PMF34,
                      "n_samples": 3000, "seed": 3}),
        ("limit-mu-star", {"experiment": "limit-mu-star",
                           "pmf": {"1": 0.75, "2": 0.25}, "n_samples": 2000,
                           "seed": 3}),
        # a cap this small rejects about 750 trees on the way to 2000
        ("limit-mu-star-capped", {"experiment": "limit-mu-star",
                                  "pmf": {"1": 0.75, "2": 0.25},
                                  "n_samples": 2000, "seed": 3, "size_cap": 3}),
        ("noncommute", {"experiment": "noncommute",
                        "pmf": {"1": 0.75, "2": 0.25}, "n_samples": 2000,
                        "seed": 12}),
        # mu_star laws with 0 or 3 in the support, rejections under small
        # caps, a stream several sampling blocks long, and the rejection guard
        ("limit-mu-star-bare-roots", {"experiment": "limit-mu-star",
                                      "pmf": {"0": 0.2, "1": 0.5, "2": 0.3},
                                      "n_samples": 2000, "seed": 5,
                                      "size_cap": 4}),
        ("limit-mu-star-degree3", {"experiment": "limit-mu-star",
                                   "pmf": {"1": 0.8, "3": 0.2},
                                   "n_samples": 2000, "seed": 6,
                                   "size_cap": 9}),
        ("noncommute-blocks", {"experiment": "noncommute",
                               "pmf": {"1": 0.75, "2": 0.25},
                               "n_samples": 20000, "seed": 14}),
        ("limit-mu-star-guard", {"experiment": "limit-mu-star",
                                 "pmf": {"1": 0.75, "2": 0.25},
                                 "n_samples": 50, "seed": 3, "size_cap": 1}),
        # refused by the library, not by the config checks: a law with no
        # moment ratio, and more nb start states than an exact profile takes
        ("limit-mu-zero-mean", {"experiment": "limit-mu", "pmf": {"0": 1.0},
                                "n_samples": 10}),
        ("mixing-nb-over-exact-limit", {"experiment": "mixing",
                                        "gen": _cm(1500), "kind": "nb",
                                        "k_max": 3, "seed": 99}),
        ("oracle-check", {"experiment": "oracle-check"}),
    ]
    return out


def run_one(name: str, cfg: dict) -> None:
    shutil.rmtree(name, ignore_errors=True)
    Path(name).mkdir()
    cfg = dict(cfg, out=name)
    cfg_path = Path(name) / "config.json"
    cfg_path.write_text(json.dumps(cfg, sort_keys=True, indent=1) + "\n")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli_main([cfg["experiment"], "--config", str(cfg_path)])
    (Path(name) / "console.txt").write_text(
        f"exit {rc}\n--- stdout\n{stdout.getvalue()}--- stderr\n"
        f"{stderr.getvalue()}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workdir", default="out/digests")
    args = ap.parse_args()
    Path(args.workdir).mkdir(parents=True, exist_ok=True)
    os.chdir(args.workdir)
    plan = runs()
    for name, cfg in plan:
        run_one(name, cfg)
    listing = []
    for name, _ in plan:
        for path in sorted(Path(name).rglob("*")):
            if path.is_file():
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                listing.append(f"{digest}  {path.as_posix()}\n")
    text = "".join(listing)
    sys.stdout.write(text)
    print(f"overall  {hashlib.sha256(text.encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
