"""Byte gate: the CLI runs of scripts/output_digests.py must write exactly
the bytes listed in tests/output_digests.txt.

The reference's first line names the numpy version it was taken with; other
versions may draw or sum differently, so the test skips there. A change
that means to alter output bytes regenerates the reference on purpose:

    (echo "# numpy $(python3 -c 'import numpy; print(numpy.__version__)')";
     python3 scripts/output_digests.py --workdir out/digests) \\
        > tests/output_digests.txt
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = Path(__file__).with_name("output_digests.txt")


def test_output_bytes_match_reference(tmp_path):
    version_line, *want = REFERENCE.read_text().splitlines()
    version = version_line.removeprefix("# numpy ")
    if np.__version__ != version:
        pytest.skip(f"reference digests were taken with numpy {version}, "
                    f"this is numpy {np.__version__}")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digests.py"),
         "--workdir", str(tmp_path)],
        capture_output=True, text=True, check=True)
    got = proc.stdout.splitlines()
    changed = sorted({line.split()[-1] for line in set(got) ^ set(want)})
    assert got == want, f"output bytes differ in: {changed}"


CM34 = {"model": "configuration", "n": 12000,
        "degree_pmf": {"3": 0.5, "4": 0.5}}


@pytest.mark.parametrize("experiment, config", [
    ("joint", {"gen": CM34, "kind": "nb", "n_grid": [12000], "k": 8}),
    ("sweep", {"gen": CM34, "kind": "bt", "erase": True, "n_grid": [12000],
               "k_max": 8}),
])
def test_output_bytes_do_not_depend_on_blas_threads(tmp_path, experiment,
                                                    config):
    # OpenBLAS splits a dot product of more than 10 000 elements over its
    # threads, and the split changes the bits of the sum; these runs reduce
    # arrays of that size to their means, moments and W1. OpenBLAS caps its
    # threads at the core count, so on a machine with one CPU both runs take
    # one thread and this test cannot show the fault.
    written = []
    for threads in ("1", "2"):
        run = tmp_path / threads
        run.mkdir()
        (run / "cfg.json").write_text(json.dumps(
            dict(config, experiment=experiment, seed=1, out="out")))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(ROOT / "src"))
        subprocess.run([sys.executable, "-m", "friendbias.cli", experiment,
                        "--config", "cfg.json"],
                       cwd=run, env=env, capture_output=True, check=True)
        written.append({p.relative_to(run): p.read_bytes()
                        for p in sorted(run.rglob("out/*"))})
    one, two = written
    assert len(one) == 2 and one.keys() == two.keys()
    assert [str(p) for p in one if one[p] != two[p]] == []
