"""Print a SHA-256 digest of `image_gradient` and `second_gradient` on the
benchmark's two engines, to show that a change to them keeps every bit.

    python3 tools/derivative_digest.py

Each engine (the 6.7k- and 19k-pixel frames) and its appearance model
(m = 100, k = 3) are built as `perfbench/bench.py` builds them, and both
functions are applied to the appearance mean and to one warped case
image.  The package and the benchmark come from this checkout, and BLAS
runs on one thread, as in the benchmark, since the appearance model's
last bits depend on the thread count.  Run it in each of two
checkouts: equal lines mean equal values, shapes and dtypes.
"""

import hashlib
import importlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"         # before numpy loads
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    np, bench, synth, appearance, jacobians, warp = map(
        importlib.import_module, ["numpy", "bench", "synth",
                                  "aam_cgd.appearance", "aam_cgd.jacobians",
                                  "aam_cgd.warp"])
    for n_pixels in (6700, 19000):
        rng = np.random.default_rng(bench.MODEL_SEED)
        engine, size = bench.build_engine(synth.training_shapes(rng),
                                          n_pixels)
        source = synth.texture_source(rng, engine)
        app = appearance.build_appearance_model(
            source.sample(rng, synth.N_TRAIN_APPEARANCES),
            n_components=bench.APPEARANCE_MODES)
        case = synth.make_case(np.random.default_rng(1), engine, source,
                               size)
        image = warp.warp_to_reference(case.image, case.shape_true,
                                       engine.frame, engine.tri)
        digest = hashlib.sha256()
        for v in (app.mean, image):
            for f in (jacobians.image_gradient, jacobians.second_gradient):
                out = f(v, engine.frame)
                digest.update(repr((out.shape, out.dtype.str)).encode())
                digest.update(np.ascontiguousarray(out).tobytes())
        print(f"F = {engine.n_pixels}: {digest.hexdigest()}")


if __name__ == "__main__":
    main()
