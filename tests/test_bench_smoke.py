"""The fit benchmark end to end on its smallest workload.

`perfbench/run.py` builds both models, the warp engine and the synthetic
faces, runs the benchmark's own derivative self-tests and fits a few
faces; a failed check exits non-zero and the last line is its JSON
verdict.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_newton_sd_runs_and_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "newton_sd",
         "--seed", "1", "--seconds", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    verdict = json.loads(proc.stdout.splitlines()[-1])
    assert verdict["correct"] is True
