"""Byte gate: the CLI runs of scripts/output_digests.py must write exactly
the bytes listed in tests/output_digests.txt.

The reference's first line names the numpy version it was taken with; other
versions may draw or sum differently, so the test skips there. A change
that means to alter output bytes regenerates the reference on purpose:

    (echo "# numpy $(python3 -c 'import numpy; print(numpy.__version__)')";
     python3 scripts/output_digests.py --workdir out/digests) \\
        > tests/output_digests.txt
"""

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
