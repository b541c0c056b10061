"""Smoke test of the benchmark: every workload once at tiny n.

    python3 -m pytest perfbench/test_smoke.py -q     (from the repository root)

Checks that every named metric is printed with its unit, that the outputs
pass the workload checks, that the traced run's layer self times account for
its wall time, that the computed counts repeat exactly between two traced
runs of one seed, and that the benchmark refuses to run outside a source
tree.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from metrics import COMPUTED_COUNTS, END_TO_END, LAYERS, PER_LAYER
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def result(proc) -> tuple[dict, str]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def test_benchmark_json_matches_the_metric_tables():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(PER_LAYER)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    res, table = result(bench(workload, 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {name: unit for name, unit, _ in END_TO_END}
    assert all(v["value"] > 0 for v in res["metrics"].values())
    for name in [n for n, _, _ in END_TO_END] + ["error_rate"]:
        assert f"  {name} " in table


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_runs_cover_every_layer_and_repeat_their_counts(workload):
    first, table = result(bench(workload, 1))
    second, _ = result(bench(workload, 1))
    assert first["correct"] and second["correct"]
    got = {k: v["value"] for k, v in first["metrics"].items()}
    assert list(got) == [name for name, _, _ in PER_LAYER]
    for name in got:
        assert f"  {name} " in table
    wall = got["trace.wall_s"]
    accounted = sum(got[f"{layer}.self_s"] for layer in LAYERS)
    assert accounted + got["trace.unaccounted_s"] == pytest.approx(wall)
    assert got["trace.unaccounted_s"] < 0.1 * wall
    for name in COMPUTED_COUNTS:
        assert got[name] == second["metrics"][name]["value"], name


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("noncommute", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
