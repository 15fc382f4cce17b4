"""Print SHA-256 digests of the benchmark driver's fits, of the library
loop's fits and of the two image derivatives, to show that a change
keeps every bit of them.

    python3 tools/digest.py

For each workload of `perfbench/bench.py` the model is built as
`Bench.setup` builds it (engine, m = 100 appearance model and
`driver.Fitter`), FIT_CASES seeded cases are rendered and perturbed as
`Bench.run` does, and the final p and iteration count of each fit are
hashed.  The same starts are then fitted by `fit.fit` under the
workload's `FitConfig` (as `tests/test_fit.py` maps it), and on the
6.7k frame also under the OTHER_CONFIGS no workload runs; these lines
hash the final p, c, iteration count and stop reason.  For each of the
two frames (6.7k and 19k pixels),
`image_gradient` and `second_gradient` of the appearance mean and of one
warped case image are hashed too.  The package and the benchmark come
from this checkout, and BLAS runs on one thread, as in the benchmark,
since the appearance model's last bits depend on the thread count.  Run
it in each of two checkouts: equal lines mean equal values, shapes and
dtypes.
"""

import hashlib
import importlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIT_SEED = 29
FIT_CASES = 3
OTHER_WORKLOAD = "newton_sd"     # its 6.7k model also fits OTHER_CONFIGS
OTHER_CONFIGS = [dict(alpha=0.0, rho=0.5), dict(alpha=0.5, rho=0.5),  # BPO
                 dict(alpha=0.5)]                       # SSD Gauss-Newton


def _update(digest, a):
    digest.update(repr((a.shape, a.dtype.str)).encode())
    digest.update(a.tobytes())


def _library_fits(fit, engine, app, configs, starts):
    """One digest of `fit.fit` under each config from each start."""
    digest = hashlib.sha256()
    for config in configs:
        prep = fit.prepare(engine, app, config)
        for case, p0 in starts:
            res = fit.fit(prep, case.image, p0)
            _update(digest, res.p)
            _update(digest, res.c)
            digest.update(repr((res.iters, res.reason)).encode())
    return digest.hexdigest()


def main():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"         # before numpy loads
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    np, bench, synth, fit, jacobians, warp = map(
        importlib.import_module, ["numpy", "bench", "synth", "aam_cgd.fit",
                                  "aam_cgd.jacobians", "aam_cgd.warp"])
    frames = set()
    for name, (n_pixels, _, init_error, _) in bench.WORKLOADS.items():
        rng = np.random.default_rng(bench.MODEL_SEED)
        shapes = synth.training_shapes(rng)
        engine, size = bench.build_engine(shapes, n_pixels)
        source = synth.texture_source(rng, engine)
        fitter = bench.Bench(name, FIT_SEED, 0, False, 1).setup(
            shapes, source.sample(rng, synth.N_TRAIN_APPEARANCES))
        engine, app = fitter.engine, fitter.app
        if n_pixels not in frames:
            frames.add(n_pixels)
            case = synth.make_case(np.random.default_rng(1), engine, source,
                                   size)
            image = warp.warp_to_reference(case.image, case.shape_true,
                                           engine.frame, engine.tri)
            digest = hashlib.sha256()
            for v in (app.mean, image):
                for f in (jacobians.image_gradient,
                          jacobians.second_gradient):
                    _update(digest, np.ascontiguousarray(f(v, engine.frame)))
            print(f"F = {engine.n_pixels}: {digest.hexdigest()}")
        rng = np.random.default_rng(FIT_SEED)
        starts = []
        for j in range(FIT_CASES):
            case = synth.make_case(rng, engine, source, size)
            starts.append((case, synth.perturb(
                np.random.default_rng([FIT_SEED, j]), engine.model, case,
                init_error)))
        digest = hashlib.sha256()
        for case, p0 in starts:
            res = fitter.fit(case.image, p0)
            _update(digest, res.p)
            digest.update(repr(res.iters).encode())
        print(f"{name} fits: {digest.hexdigest()}")
        ref = fitter.config
        config = fit.FitConfig(
            alpha=ref.alpha, rho=0.0 if ref.project_out else None,
            solver="gauss_newton" if ref.project_out else "newton",
            max_iters=ref.max_iters)
        print(f"{name} fit.fit: "
              f"{_library_fits(fit, engine, app, [config], starts)}")
        if name == OTHER_WORKLOAD:
            configs = [fit.FitConfig(**c) for c in OTHER_CONFIGS]
            print(f"F = {engine.n_pixels} other fit.fit configs: "
                  f"{_library_fits(fit, engine, app, configs, starts)}")


if __name__ == "__main__":
    main()
