"""The fit benchmark end to end, once per workload size.

`perfbench/run.py` builds both models, the warp engine and the synthetic
faces, runs the benchmark's own derivative self-tests and fits a few
faces; a failed check exits non-zero and the last line is its JSON
verdict.  `newton_sd` runs on the 6.7k-pixel frame, `po_ic_hd` and
`po_asym_hd` on the 19k-pixel one; `po_asym_hd` is the only workload
that runs `gn_hessian` and `project_out` on every step.  A traced run
(`--trace 1`) looks up every layer it times by name, so it fails when a
traced library function is renamed or deleted; `newton_sd` runs once
more that way.  All four are marked `slow`: `pytest -m "not slow"` skips
them for a fast inner loop.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_benchmark(workload, trace=0):
    """Run one workload for no extra time and return its JSON verdict."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["newton_sd", "po_ic_hd", "po_asym_hd"])
def test_benchmark_runs_and_is_correct(workload):
    assert run_benchmark(workload)["correct"] is True


@pytest.mark.slow
def test_traced_benchmark_resolves_every_layer():
    verdict = run_benchmark("newton_sd", trace=1)
    assert verdict["correct"] is True
    assert verdict["metrics"]["shape_model.procrustes_align.calls"][
        "value"] > 0
