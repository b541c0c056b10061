"""The paper's runs in configs/ stay runnable: every file loads as an
ExperimentConfig and runs through the CLI at a tiny size, with every key
but the sizes as written."""

import json
import re
from pathlib import Path

import pytest

from friendbias.cli import ExperimentConfig, main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
# files that name no kind and are run once per kind, as the README says
KINDS = {"mixing-cm200": ("bt", "lazy", "nb")}


def _tiny(data: dict) -> dict:
    """A copy of `data` with its sizes shrunk and every other key kept."""
    data = dict(data)
    if data.get("n_grid"):
        data["n_grid"] = [100 * 2 ** i for i in range(len(data["n_grid"]))]
    if data.get("gen"):
        data["gen"] = dict(data["gen"], n=100)
    for key, small in (("replicas", 2), ("n_samples", 2000)):
        if key in data:
            data[key] = min(data[key], small)
    return data


def _outputs(data: dict) -> list[str]:
    if data["experiment"] == "joint":
        return ["joint.csv"] + [f"joint_measure_n{n}.json"
                                for n in data["n_grid"]]
    return {"mixing": ["mixing.csv", "mixing_meta.json"],
            "noncommute": ["noncommute_report.json"]}[data["experiment"]]


def test_every_config_loads_and_writes_under_its_name():
    assert CONFIGS
    for path in CONFIGS:
        cfg = ExperimentConfig.from_dict(json.loads(path.read_text()))
        assert cfg.out == f"out/{path.stem}"


@pytest.mark.parametrize("path, kind", [
    (path, kind) for path in CONFIGS
    for kind in KINDS.get(path.stem, (None,))],
    ids=lambda v: v.stem if isinstance(v, Path) else str(v))
def test_config_runs_at_a_tiny_size(tmp_path, path, kind):
    data = _tiny(json.loads(path.read_text()))
    (tmp_path / path.name).write_text(json.dumps(data))
    argv = [data["experiment"], "--config", str(tmp_path / path.name),
            "--out", str(tmp_path / "out")]
    if kind is not None:
        argv += ["--kind", kind]
    assert main(argv) == 0
    for name in _outputs(data):
        assert (tmp_path / "out" / name).is_file(), name


def test_readme_paper_runs_table_is_configs():
    text = (ROOT / "README.md").read_text()
    rows = re.search(r"\| Command \| Claim it checks \| Acceptance check \|\n"
                     r"\|[-|]+\|\n((?:\|.*\|\n)+)", text)[1]
    named = []
    for row in rows.splitlines():
        command = row.strip("|").split("|")[0]
        named += re.findall(r"--config (configs/[\w.-]+\.json)", command)
    assert sorted(named) == [f"configs/{path.name}" for path in CONFIGS]
