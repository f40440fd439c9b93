"""The benchmark's self-check, run as a test.

perfbench imports package names and wraps package functions by their
signatures; a rename or signature change there breaks every benchmark run.
The self-check runs each workload once at its tiny size, untraced and
traced, and writes only under the git-ignored .perfbench/ (its tiny/ work
directories and its traces/).
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_self_check_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-check"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = proc.stdout.strip().splitlines()[-1]
    assert json.loads(last)["self_check"] == "ok", proc.stderr[-2000:]
