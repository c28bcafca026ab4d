"""The benchmark's own self-check runs green against this tree.

wavebench traces wavecol by function name and pins the operator builds of
one run_case, so a renamed traced function or a changed build count shows
here rather than only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_wavebench_selfcheck_passes():
    done = subprocess.run([sys.executable, "wavebench/selfcheck.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "selfcheck: ok"
