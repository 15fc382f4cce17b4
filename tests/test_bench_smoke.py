"""The fit benchmark end to end, once per workload size.

`perfbench/run.py` builds both models, the warp engine and the synthetic
faces, runs the benchmark's own derivative self-tests and fits a few
faces; a failed check exits non-zero and the last line is its JSON
verdict.  `newton_sd` runs on the 6.7k-pixel frame and `po_ic_hd` on the
19k-pixel one.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["newton_sd", "po_ic_hd"])
def test_benchmark_runs_and_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    verdict = json.loads(proc.stdout.splitlines()[-1])
    assert verdict["correct"] is True
