"""Fit benchmark: compositional AAM fitting on seeded synthetic faces.

    python3 perfbench/run.py --workload po_ic_hd --seed 1 --seconds 30 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A run builds the shape and appearance models (68 landmarks, k=3
channels, m=100 appearance components), fits seeded synthetic faces in a
closed loop (one process, one fit at a time) for `--seconds`, checks the
fits against ground truth and prints a table followed by one JSON line.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics of a traced run.  `--workload all` runs every workload in its own
process and prints their tables.  A failed check ends the run with a
non-zero exit code.  See NOTES.md.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BLAS_THREADS = 1       # a single-threaded baseline; never above nproc


def load_bench():
    """Pin BLAS threads before numpy loads, and take the package from this
    checkout's `src` only."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(HERE)]
    import aam_cgd
    if Path(aam_cgd.__file__).resolve().parent != SRC / "aam_cgd":
        raise ImportError(f"aam_cgd imported from {aam_cgd.__file__}, not "
                          f"from {SRC}")
    import bench
    return bench


def run_all(args, names):
    """Each workload in its own process, so `peak_rss_mb` is its own."""
    status = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
    return status


def main():
    bench = load_bench()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(bench.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args, list(bench.WORKLOADS))
    return bench.Bench(args.workload, args.seed, args.seconds, args.trace,
                       BLAS_THREADS).run()


if __name__ == "__main__":
    sys.exit(main())
