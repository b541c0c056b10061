"""Measure a baseline: several seeds per workload, plus the machine record.

    python3 perfbench/baseline.py [--seeds 10] [--first-seed 1]
                                  [--workloads NAME ...] [--out FILE]

Run from the repository root. For every workload it runs the benchmark once
per seed with --trace 0 and the BENCHMARK.json run length, then reports, per
end-to-end metric, the median, the quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median next to the metric's bound. It then makes two
traced runs of the workload's paper seed and records whether the computed
counts repeated exactly. Everything, with the machine and the commit, goes to
the JSON file given by --out (default perfbench/BENCH_baseline.json).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import COMPUTED_COUNTS, LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def _capture(cmd: list[str]) -> str:
    try:
        return subprocess.run(cmd, capture_output=True, text=True,
                              timeout=60).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def machine_record() -> dict:
    lscpu = {}
    for line in _capture(["lscpu"]).splitlines():
        key, _, value = line.partition(":")
        lscpu[key.strip()] = value.strip()
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": lscpu.get("Model name"),
        "caches": {k: lscpu.get(k) for k in
                   ("L1d cache", "L1i cache", "L2 cache", "L3 cache")},
        "memory_total_kb": next(
            (int(line.split()[1]) for line in
             Path("/proc/meminfo").read_text().splitlines()
             if line.startswith("MemTotal:")), None),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "git_commit": _capture(["git", "rev-parse", "HEAD"]) or None,
    }


def run_bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "spread_below_third_of_bound": spread < bound / 3}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=list(WORKLOADS))
    parser.add_argument("--out", default=str(HERE / "BENCH_baseline.json"))
    args = parser.parse_args()
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))

    record = {"machine": machine_record(),
              "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
              "run_seconds": seconds, "seeds": seeds,
              "paper_seeds": {w: WORKLOADS[w].paper_seed for w in args.workloads},
              "workloads": {}}
    for name in args.workloads:
        runs = [run_bench(name, seed, seconds, 0) for seed in seeds]
        entry = {"runs": runs, "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            s = entry["end_to_end"][metric] = summarize(values, bound)
            print(f"{name:16} {metric:12} median {s['median']:10.6g} "
                  f"{runs[0]['metrics'][metric]['unit']:3} over {len(runs)} "
                  f"runs, q1 {s['q1']:.6g} q3 {s['q3']:.6g}, spread "
                  f"{s['spread']:.4f} (bound {bound})", flush=True)
        print(f"{name:16} error_rate   {entry['failed'] / entry['attempted']} "
              f"({entry['failed']} failed / {entry['attempted']} attempted)")
        paper_seed = WORKLOADS[name].paper_seed
        traced = [run_bench(name, paper_seed, seconds, 1) for _ in range(2)]
        layers = {k: v["value"] for k, v in traced[0]["metrics"].items()}
        entry["traced_seed"] = paper_seed
        entry["per_layer"] = layers
        entry["computed_counts_repeat"] = all(
            layers[c] == traced[1]["metrics"][c]["value"]
            for c in COMPUTED_COUNTS)
        entry["traced_correct"] = all(t["correct"] for t in traced)
        entry["layer_share_of_traced_wall"] = {
            layer: layers[f"{layer}.self_s"] / layers["trace.wall_s"]
            for layer in LAYERS}
        record["workloads"][name] = entry
        shares = ", ".join(f"{k} {v:.1%}" for k, v in
                           entry["layer_share_of_traced_wall"].items())
        print(f"{name:16} traced seed {paper_seed}: {shares}; accounted "
              f"{sum(entry['layer_share_of_traced_wall'].values()):.2%}; "
              f"computed counts repeat: {entry['computed_counts_repeat']}",
              flush=True)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
