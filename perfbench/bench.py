"""One benchmark run: build the model, fit seeded synthetic faces in a
closed loop, check the fits and report end-to-end or per-layer metrics.
Imported by `run.py` once BLAS threads are pinned."""

import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from aam_cgd import appearance, shape_model, warp

import driver
import selftest
import spans
import synth

MODEL_SEED = 20160101       # the training set is the same for every seed
SETUP_REPEATS = 5
MIN_FITS = 3
REF_LOOP = 20000            # iterations of the reference loop, ~1.5 ms
FIXED_POINT_TOL = 0.005     # error after a fit started at the ground truth
DIVERGED_ERR = 0.02         # final error above this counts as diverged
MAX_DIVERGED_FRAC = 0.25
SHAPE_MODES = 20            # non-rigid modes: P = 24 shape parameters
APPEARANCE_MODES = 100

# name -> (frame pixels, driver.Config fields, initial error / face size,
#          test images per run; fits cycle through them).  A `newton_sd`
# run fits about 20 images, so it draws fewer.
WORKLOADS = {
    "po_ic_hd": (19000, dict(project_out=True, alpha=0.0), 0.03, 64),
    "po_asym_hd": (19000, dict(project_out=True, alpha=0.5), 0.03, 64),
    "newton_sd": (6700, dict(project_out=False, alpha=0.5, max_iters=10),
                  0.006, 32),
}

END_TO_END = ["setup_s", "step_ref_p50", "iters_mean", "err_p50",
              "peak_rss_mb"]
FIT_LAYERS = [
    "warp.warp_to_reference", "warp.compose", "shape_model.shape_instance",
    "jacobians.gn_hessian", "appearance.project_out",
    "jacobians.steepest_descent", "jacobians.image_gradient",
    "jacobians.newton_terms_asymmetric", "jacobians.basis_gradient_stack",
    "jacobians.residual_curvature", "jacobians.second_gradient",
    "appearance.appearance_instance", "driver.solve",
]
SETUP_LAYERS = [
    "warp.build_reference_frame", "warp.rasterize_barycentric",
    "appearance.build_appearance_model", "shape_model.procrustes_align",
    "shape_model.build_shape_model",
]
TRACE_DIR = Path(__file__).resolve().parent / "traces"


def reference_loop(n=REF_LOOP):
    """Fixed pure-Python work, timed before every input's fit.  The shared
    host's speed drifts by a third over minutes, for whole runs at a time,
    and this loop slows with the fits; a step time over the loop's time
    just before it keeps the program's cost and cancels most of the
    drift."""
    total = 0
    for i in range(n):
        total += i * i
    return total


def build_engine(shapes, n_pixels):
    aligned, _, mean = shape_model.procrustes_align(shapes)
    aligned, mean, size = synth.to_pixels(aligned, mean, n_pixels)
    model = shape_model.build_shape_model(aligned, mean,
                                          n_components=SHAPE_MODES)
    return warp.WarpEngine.build(model), size


class Bench:
    def __init__(self, workload, seed, seconds, trace, blas_threads):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.blas_threads = blas_threads
        self.n_pixels, config, self.init_error, self.n_cases = \
            WORKLOADS[workload]
        self.config = driver.Config(**config)
        self.tracer = spans.Tracer(FIT_LAYERS + SETUP_LAYERS) if trace \
            else None

    def traced(self, label, root):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.group(label, root)

    def setup(self, shapes, vectors):
        """Model build plus per-model precompute: what `setup_s` times."""
        engine, _ = build_engine(shapes, self.n_pixels)
        app = appearance.build_appearance_model(
            vectors, n_components=APPEARANCE_MODES)
        return driver.Fitter(engine, app, self.config)

    def run(self):
        selftest.run_all()
        model_rng = np.random.default_rng(MODEL_SEED)
        shapes = synth.training_shapes(model_rng)
        engine, size = build_engine(shapes, self.n_pixels)
        source = synth.texture_source(model_rng, engine)
        vectors = source.sample(model_rng, synth.N_TRAIN_APPEARANCES)

        setup_times = []
        for rep in range(SETUP_REPEATS):
            with self.traced(f"setup-{rep}", "setup"):
                t0 = time.perf_counter()
                fitter = self.setup(shapes, vectors)
                setup_times.append(time.perf_counter() - t0)
        model = fitter.engine.model

        rng = np.random.default_rng(self.seed)
        cases = [synth.make_case(rng, fitter.engine, source, size)
                 for _ in range(self.n_cases)]
        res = fitter.fit(cases[0].image, cases[0].p_true)
        err = driver.point_error(model, res.p, cases[0])
        if not err < FIXED_POINT_TOL:
            raise driver.CheckFailed(
                f"ground truth is not a fixed point: error {err:.3g} after "
                f"{res.iters} iterations")

        fits = []           # (seconds, iterations, error, traced)
        refs = []           # seconds of the reference loop, one per input
        start = time.perf_counter()
        j = 0
        while time.perf_counter() - start < self.seconds or j < MIN_FITS:
            case = cases[j % self.n_cases]
            p0 = synth.perturb(np.random.default_rng([self.seed, j]), model,
                               case, self.init_error)
            t0 = time.perf_counter()
            reference_loop()
            refs.append(time.perf_counter() - t0)
            # A traced run pairs each fit with an untraced one on the same
            # input; the difference is the tracing overhead.
            for traced in (False, True) if self.tracer else (False,):
                with (self.traced(f"fit-{j}", "fit") if traced
                      else contextlib.nullcontext()):
                    t0 = time.perf_counter()
                    res = fitter.fit(case.image, p0)
                    dt = time.perf_counter() - t0
                fits.append((dt, res.iters,
                             driver.point_error(model, res.p, case), traced))
            j += 1
        elapsed = time.perf_counter() - start
        return self.report(fitter, setup_times, fits, refs, elapsed)

    def report(self, fitter, setup_times, fits, refs, elapsed):
        engine = fitter.engine
        plain = [f for f in fits if not f[3]]
        n = len(plain)
        times_ms = 1e3 * np.array([f[0] for f in plain])
        iters = np.array([f[1] for f in plain])
        steps_ms = times_ms / iters
        refs_ms = 1e3 * np.array(refs)
        errors = np.array([f[2] for f in plain])
        diverged = int((errors > DIVERGED_ERR).sum())
        print(f"workload {self.workload}: seed={self.seed} "
              f"seconds={self.seconds} trace={int(bool(self.tracer))} "
              f"blas_threads={self.blas_threads} F={engine.n_pixels} "
              f"P={engine.model.n_params} m={fitter.app.n_components} "
              f"k={fitter.app.n_features // engine.n_pixels} "
              f"init_error={self.init_error} fits={n}")
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "fit_ms_p50": (float(np.median(times_ms)), "ms"),
            # A fit is a whole number of steps, so when the fits split about
            # evenly between two step counts the median fit time jumps
            # between seeds; the time of a step does not.
            "step_ms_p50": (float(np.median(steps_ms)), "ms"),
            "ref_ms_p50": (float(np.median(refs_ms)), "ms"),
            "step_ref_p50": (float(np.median(steps_ms / refs_ms)), "ref"),
            "iters_mean": (float(iters.mean()), "count"),
            "err_p50": (float(np.median(errors)), "face_size"),
            "diverged_frac": (diverged / n, "fraction"),
            # A fit that raises or returns non-finite parameters ends the
            # run, so a completed run has none.
            "fail_frac": (0.0, "fraction"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        if not self.tracer:
            metrics["fits_per_s"] = (n / elapsed, "1/s")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<14} {value:.6g} {unit}")
        if n >= 20:
            q = int(np.floor(100.0 * (1.0 - 10.0 / n)))
            print(f"  {'fit_ms_tail':<14} {np.percentile(times_ms, q):.6g} "
                  f"ms (p{q} of {n} fits)")
        else:
            print(f"  {'fit_ms_tail':<14} omitted: {n} fits < 20")

        correct = (diverged / n <= MAX_DIVERGED_FRAC
                   and metrics["err_p50"][0] < DIVERGED_ERR)
        if not correct:
            print(f"CHECK FAILED: {diverged}/{n} fits diverged, median error "
                  f"{metrics['err_p50'][0]:.3g}", file=sys.stderr)
        if self.tracer:
            result = self.layer_metrics(fits)
        else:
            result = {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                      for k in END_TO_END}
        print(json.dumps({"correct": correct, "attempted": n, "failed": 0,
                          "metrics": result}))
        return 0 if correct else 1

    def layer_metrics(self, fits):
        acc = {}            # (kind, name) -> [self s, total s, calls]
        for (name, group, self_s), span in zip(self.tracer.self_times(),
                                               self.tracer.spans):
            a = acc.setdefault((group.split("-")[0], name), [0.0, 0.0, 0])
            a[0] += self_s
            a[1] += span[2] - span[1]
            a[2] += 1
        out = {}
        for kind, names in (("fit", FIT_LAYERS), ("setup", SETUP_LAYERS)):
            n = acc[(kind, kind)][2]
            for name in names:
                self_s, total_s, calls = acc.get((kind, name), (0.0, 0.0, 0))
                out[f"{name}.self_ms"] = {"value": 1e3 * self_s / n,
                                          "unit": "ms"}
                out[f"{name}.total_ms"] = {"value": 1e3 * total_s / n,
                                           "unit": "ms"}
                out[f"{name}.calls"] = {"value": calls / n,
                                        "unit": f"calls/{kind}"}
        root_self, root_total, n_fits = acc[("fit", "fit")]
        fit_ms = 1e3 * root_total / n_fits
        untraced = 1e3 * root_self / n_fits
        named = sum(out[f"{name}.self_ms"]["value"] for name in FIT_LAYERS)
        if abs(named + untraced - fit_ms) > 1e-6 * fit_ms:
            raise driver.CheckFailed(
                "span self times do not add up to the traced fit time")
        plain = np.median([f[0] for f in fits if not f[3]])
        traced = np.median([f[0] for f in fits if f[3]])
        out["trace.fit_ms"] = {"value": fit_ms, "unit": "ms"}
        out["trace.untraced_ms"] = {"value": untraced, "unit": "ms"}
        out["trace.overhead_frac"] = {"value": float(traced / plain - 1.0),
                                      "unit": "fraction"}
        for name in sorted(FIT_LAYERS,
                           key=lambda k: -out[f"{k}.self_ms"]["value"])[:3]:
            print(f"  self {out[name + '.self_ms']['value']:9.4g} ms  "
                  f"total {out[name + '.total_ms']['value']:9.4g} ms  {name}")
        print(f"  of a traced fit of {fit_ms:.4g} ms, {untraced:.4g} ms "
              "outside the named spans")
        TRACE_DIR.mkdir(exist_ok=True)
        self.tracer.write(TRACE_DIR / f"{self.workload}-{self.seed}.json")
        return out
