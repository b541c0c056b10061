#!/usr/bin/env python3
"""Worst-case total-variation curves for the three explorations on one
graph family: the CLI `mixing` experiment once per kind, each writing
mixing.csv and mixing_meta.json under OUT/<kind>."""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from friendbias.cli import main as cli_main
from friendbias.stationary import MAX_EXACT_STATES


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/mixing_curves")
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--model", choices=("erdos_renyi", "configuration"),
                    default="configuration")
    ap.add_argument("--lam", type=float, default=4.0)
    ap.add_argument("--seed", type=int, default=99)
    ap.add_argument("--k-max", type=int, default=120)
    args = ap.parse_args()

    # most_half_edges bounds 2m, the number of nb states, before the draw
    if args.model == "erdos_renyi":
        family = {"gen": {"model": "erdos_renyi", "n": args.n,
                          "lam": args.lam},
                  "restrict_giant": True}
        most_half_edges = args.n * (args.n - 1)
    else:
        pmf = {"3": 0.5, "4": 0.5}
        family = {"gen": {"model": "configuration", "n": args.n,
                          "degree_pmf": pmf},
                  "erase": True}
        most_half_edges = args.n * max(map(int, pmf))
    for kind in ("bt", "lazy", "nb"):
        out = Path(args.out) / kind
        cfg = dict(family, experiment="mixing", kind=kind, seed=args.seed,
                   k_max=args.k_max, out=str(out))
        if args.n > 2000 or (kind == "nb"
                             and most_half_edges > MAX_EXACT_STATES):
            cfg["starts_cap"] = 64
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.json").write_text(json.dumps(cfg, indent=1))
        rc = cli_main(["mixing", "--config", str(out / "config.json")])
        if rc == 3:
            print(f"{kind}: skipped (graph invalid for this exploration)")
            continue
        if rc != 0:
            return rc
        meta = json.loads((out / "mixing_meta.json").read_text())
        print(f"{kind}: crossings {meta['crossings']} -> {out / 'mixing.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
