"""The library fit loop against the benchmark's driver, end to end for
every combination it supports, and the paper's equivalences through the
loop.

The benchmark's model (68 points, P = 24, k = 3, m = 100) is built on the
6.7k-pixel frame, and every workload configuration of
`perfbench/bench.py` fits the same seeded `synth` cases with both loops:
the iteration counts must match and the final parameters agree to 1e-8.
Every cost, alpha and solver the loop takes keeps ground truth fixed and
converges from the benchmark's start noise on those cases, and its
linearisation matches central finite differences of its cost on the
oracles' toy state.
"""

import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest

from aam_cgd import jacobians, warp
from aam_cgd.appearance import (appearance_instance, build_appearance_model,
                                project_appearance, project_out)
from aam_cgd.errors import ConfigError, DimensionError, RankDeficiencyError
from aam_cgd.fit import FitConfig, _linearize, fit, prepare, schur_solve
from aam_cgd.jacobians import gn_hessian, image_gradient, steepest_descent
from aam_cgd.shape_model import (build_shape_model, face_size,
                                 orthonormalize, pca, procrustes_align,
                                 project_shape, shape_instance,
                                 shape_to_points)

from oracles import (BidirectionalCost, dense_bpo, fd_gradient, fd_hessian,
                     make_toy_state)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
N_PIXELS = 6700
N_CASES = 4
RHO = {"ssd": None, "po": 0.0, "bpo": 0.5, "bpo1": 1.0}    # cost names


class Bench:
    """The benchmark's model and cases, built once for the module."""

    def __init__(self):
        self.settings = importlib.import_module("bench")    # its constants
        self.driver = importlib.import_module("driver")
        synth = self.synth = importlib.import_module("synth")
        rng = np.random.default_rng(self.settings.MODEL_SEED)
        shapes = synth.training_shapes(rng)
        self.engine, size = self.settings.build_engine(shapes, N_PIXELS)
        source = synth.texture_source(rng, self.engine)
        self.app = build_appearance_model(
            source.sample(rng, synth.N_TRAIN_APPEARANCES),
            n_components=self.settings.APPEARANCE_MODES)
        rng = np.random.default_rng(1)
        self.cases = [synth.make_case(rng, self.engine, source, size)
                      for _ in range(N_CASES)]

    def workload(self, name):
        """The driver's config, the matching `FitConfig` and the start
        error of one benchmark workload."""
        _, fields, init_error, _ = self.settings.WORKLOADS[name]
        ref = self.driver.Config(**fields)
        config = FitConfig(
            alpha=ref.alpha, rho=0.0 if ref.project_out else None,
            solver="gauss_newton" if ref.project_out else "newton",
            max_iters=ref.max_iters)
        return ref, config, init_error

    def config(self, cost, alpha, solver="gauss_newton"):
        """A `FitConfig` by cost name: "ssd", "po" (rho = 0), "bpo"
        (rho = 0.5) or "bpo1" (rho = 1)."""
        return FitConfig(alpha=alpha, rho=RHO[cost], solver=solver)

    def error(self, p, case):
        return self.driver.point_error(self.engine.model, p, case)

    def start(self, j, init_error):
        case = self.cases[j]
        return case, self.synth.perturb(np.random.default_rng([1, j]),
                                        self.engine.model, case, init_error)

    def fit(self, config, image, p0):
        return fit(prepare(self.engine, self.app, config), image, p0)


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield Bench()


def rel_gap(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def count_calls(monkeypatch, module, name):
    """The argument tuples of every later call of `module.name`."""
    calls, original = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


# po_asym_hd rebuilds J and the PO Hessian every step: over a second of
# the fast loop, so it runs with the slow tests.
@pytest.mark.parametrize("name", [
    "po_ic_hd", pytest.param("po_asym_hd", marks=pytest.mark.slow),
    "newton_sd"])
def test_reproduces_driver(bench, name):
    ref_config, config, init_error = bench.workload(name)
    driver_fitter = bench.driver.Fitter(bench.engine, bench.app, ref_config)
    prep = prepare(bench.engine, bench.app, config)
    for j in range(N_CASES):
        case, p0 = bench.start(j, init_error)
        ref = driver_fitter.fit(case.image, p0)
        res = fit(prep, case.image, p0)
        assert res.iters == ref.iters
        assert res.reason == "converged" or res.iters == config.max_iters
        assert rel_gap(res.p, ref.p) <= 1e-8
        assert res.c.size == (0 if config.rho is not None
                              else bench.app.n_components)


@pytest.mark.parametrize("name, stop", [("newton_sd", "converged"),
                                        ("po_ic_hd", "converged"),
                                        ("newton_sd", "max_iters")])
def test_one_warp_per_iteration(bench, monkeypatch, name, stop):
    """The SSD start reads the first step's warp, and no warp follows the
    last step, whether the fit converges or runs out of iterations."""
    _, config, init_error = bench.workload(name)
    if stop == "max_iters":
        config = dataclasses.replace(config, max_iters=1)
    calls = count_calls(monkeypatch, warp, "warp_to_reference")
    case, p0 = bench.start(0, init_error)
    res = bench.fit(config, case.image, p0)
    assert res.reason == stop
    assert len(calls) == res.iters


@pytest.mark.parametrize("rho", [0.0, 0.5])
def test_inverse_composition_fixes_its_jacobian(bench, monkeypatch, rho):
    """PO and BPO at alpha = 0 take the image gradient of the mean once,
    in `prepare`, and never in `fit`."""
    calls = count_calls(monkeypatch, jacobians, "image_gradient")
    prep = prepare(bench.engine, bench.app, FitConfig(alpha=0.0, rho=rho))
    assert len(calls) == 1
    case, p0 = bench.start(0, 0.03)
    assert fit(prep, case.image, p0).iters > 1
    assert len(calls) == 1


ALPHAS = [0.0, 0.5, 1.0]
COMBINATIONS = [(cost, alpha, "gauss_newton") for cost in ("ssd", "po", "bpo")
                for alpha in ALPHAS] + [("ssd", alpha, "newton")
                                        for alpha in ALPHAS]


BPO_ONE_LEAVES_TRUTH = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="BPO at rho = 1 leaves ground truth (2.23, 0.031 and 0.037 face "
           "sizes at alpha 0, 0.5 and 1, stop reason max_iters): its "
           "in-span gradient J^T A diag(1/d) c is not zero there; ROADMAP "
           "items 2 and 4")


@pytest.mark.parametrize("cost, alpha, solver", COMBINATIONS + [
    pytest.param("bpo1", alpha, "gauss_newton", marks=BPO_ONE_LEAVES_TRUTH)
    for alpha in ALPHAS])
def test_ground_truth_is_fixed_point(bench, cost, alpha, solver):
    case = bench.cases[0]
    res = bench.fit(bench.config(cost, alpha, solver), case.image,
                    case.p_true)
    assert bench.error(res.p, case) < bench.settings.FIXED_POINT_TOL


# The benchmark's start noise: 0.03 face sizes for its Gauss-Newton
# workloads, 0.006 for its Newton one.  PO and BPO at alpha > 0 rebuild
# their Hessian each step, over two seconds of the fast loop together, so
# they run with the slow tests.
START_ERROR = {"gauss_newton": 0.03, "newton": 0.006}
SSD_NEWTON_DIVERGES = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="undamped SSD Newton diverges from 0.03 face sizes at every "
           "alpha (finite p, stop reason max_iters); ROADMAP item 18")


@pytest.mark.parametrize("cost, alpha, solver, init_error", [
    pytest.param(cost, alpha, solver, START_ERROR[solver],
                 marks=pytest.mark.slow if cost != "ssd" and alpha else ())
    for cost, alpha, solver in COMBINATIONS
] + [pytest.param("ssd", alpha, "newton", 0.03,
                  marks=[SSD_NEWTON_DIVERGES, pytest.mark.slow])
     for alpha in ALPHAS])
def test_every_combination_converges(bench, cost, alpha, solver,
                                     init_error):
    config = bench.config(cost, alpha, solver)
    prep = prepare(bench.engine, bench.app, config)
    for j in range(N_CASES):
        case, p0 = bench.start(j, init_error)
        res = fit(prep, case.image, p0)
        assert bench.error(res.p, case) < bench.settings.DIVERGED_ERR


def test_schur_reduced_ssd_step_is_project_out_step(bench):
    """SSD Gauss-Newton blocks cross = -A^T J, xx = J^T J, reduced on dc,
    give the PO step -(J^T P J)^-1 J^T P r."""
    app, frame = bench.app, bench.engine.frame
    J = steepest_descent(*image_gradient(app.mean, frame), bench.engine.dWdp)
    r = np.random.default_rng(3).standard_normal(app.n_features)
    A = app.basis
    _, dp = schur_solve(J.T @ J, J.T @ r, -(A.T @ J), -(A.T @ r))
    po = -np.linalg.solve(gn_hessian(J, app), J.T @ project_out(app, r))
    assert rel_gap(dp, po) <= 1e-10


# Every cell the loop takes.  Alpha 0.3, unlike 0.5, tells alpha from
# 1 - alpha.
FD_ALPHAS = [0.0, 0.3, 1.0]
CELLS = [(cost, alpha, "gauss_newton") for cost in RHO
         for alpha in FD_ALPHAS] + [("ssd", alpha, "newton")
                                    for alpha in FD_ALPHAS]


@pytest.fixture(scope="module")
def toy_states():
    """One seeded toy state (P = 6, k = 3, m = 2) with linear fields and
    one with bilinear fields, from the same random draws."""
    return {field: make_toy_state(np.random.default_rng(7), v=6, n_modes=2,
                                  m=2, k=3, radius=6.0,
                                  bilinear=field == "bilinear")
            for field in ("linear", "bilinear")}


@pytest.mark.parametrize("field", ["linear", "bilinear"])
@pytest.mark.parametrize("cost, alpha, solver", CELLS)
def test_linearization_matches_finite_differences(toy_states, cost, alpha,
                                                  solver, field):
    """`_linearize`'s four blocks, as g = (g_c, g_p) and
    H = [[I, cross], [cross^T, xx]], against central finite differences
    of the cost the cell minimises at its own point, in x = (dc, dp):
    0.5 |r|^2 for SSD, and 0.5 r^T W r with c held at 0 (x = dp, m = 0)
    for PO and BPO, W the dense weight `dense_bpo`.  r is the oracle's
    residual at dp scaled by alpha on the image and by -(1 - alpha) on
    the model.

    The gradient is exact in every cell.  The Hessian is exact where the
    loop drops no term of the cost's:
    - Newton keeps every second-order term, and the grid's differences
      reproduce the fields' curvature, so it is exact on both fields;
    - Gauss-Newton drops the residual times the curvature of r, which
      is zero where r is affine in x.  The warp is affine in dp, so on
      linear fields i[alpha dp] and mean[-(1 - alpha) dp] are affine in
      dp: PO and BPO (c held at 0) are exact at every alpha, but SSD's
      (A dc)[-(1 - alpha) dp] is a product of dc and dp, so SSD is
      exact only at alpha = 1.  The x y term of a bilinear field makes
      r quadratic in dp, so there Gauss-Newton is exact nowhere.
    Where the Hessian is not exact, it must differ from the finite
    differences, or the fields would not exercise the dropped terms.
    Measured errors, relative to the largest entry: the gradient at most
    3.4e-10, the exact Hessians 7.9e-9 to 4.8e-8, the others 1.8e-2 to
    2.9e-1.
    """
    state = toy_states[field]
    eng, app, rho = state.engine, state.appearance, RHO[cost]
    c = state.c if rho is None else np.zeros(0)
    xx, g_p, cross, g_c = _linearize(
        prepare(eng, app, FitConfig(alpha=alpha, rho=rho, solver=solver)),
        state.i_vec, c)
    m = len(g_c)
    g = np.concatenate([g_c, g_p])
    H = np.block([[np.eye(m), cross], [cross.T, xx]])
    oracle = BidirectionalCost(eng, app, state.i_vec,
                               state.c if m else np.zeros(app.n_components))
    weight = None if rho is None else dense_bpo(app, rho)

    def f(x):
        r = oracle.residual(x[:m] if m else 0.0, alpha * x[m:],
                            -(1.0 - alpha) * x[m:])
        return 0.5 * r @ (r if weight is None else weight @ r)

    x0 = np.zeros(m + eng.model.n_params)
    fd_g, fd_H = fd_gradient(f, x0), fd_hessian(f, x0, step=1e-3)
    np.testing.assert_allclose(g, fd_g, rtol=0,
                               atol=1e-8 * np.abs(fd_g).max())
    exact = solver == "newton" or field == "linear" and (
        rho is not None or alpha == 1.0)
    gap = np.abs(H - fd_H).max() / np.abs(fd_H).max()
    assert gap <= 1e-6 if exact else gap > 1e-3


@pytest.mark.parametrize("defect", ["nan", "complex", "extra_row"])
@pytest.mark.parametrize("block", ["xx", "g_p", "cross", "g_c"])
def test_schur_solve_checks_its_blocks(block, defect):
    """A NaN entry, complex values or one row too many in any block
    raises `DimensionError`, not a NaN or complex step or numpy's
    `ValueError`."""
    cross = 0.1 * np.random.default_rng(5).standard_normal((3, 2))
    blocks = dict(xx=np.eye(2), g_p=np.ones(2), cross=cross, g_c=np.ones(3))
    schur_solve(**blocks)
    a = blocks[block]
    if defect == "nan":
        a = np.where(np.arange(a.size).reshape(a.shape) == 0, np.nan, a)
    elif defect == "complex":
        a = a.astype(complex)
    else:
        a = np.concatenate([a, a[:1]])
    with pytest.raises(DimensionError):
        schur_solve(**{**blocks, block: a})


def test_forward_ssd_gauss_newton_fits_like_project_out(bench):
    """At alpha = 1 the Jacobian is the image's alone, so SSD Gauss-Newton
    over (dc, dp) and PO take the same steps through the whole loop."""
    ssd = FitConfig(alpha=1.0)
    po = FitConfig(alpha=1.0, rho=0.0)
    case, p0 = bench.start(1, 0.006)
    a, b = bench.fit(ssd, case.image, p0), bench.fit(po, case.image, p0)
    assert a.iters == b.iters
    assert rel_gap(a.p, b.p) <= 1e-10


@pytest.mark.parametrize("cost, solver", [("po", "gauss_newton"),
                                          (None, "gauss_newton"),
                                          (None, "newton")])
def test_constant_image_is_rank_deficient(bench, cost, solver):
    """Forward composition reads the image gradient only, so a constant
    image gives J = 0 and a singular reduced Hessian."""
    config = FitConfig(alpha=1.0, rho=0.0 if cost else None, solver=solver)
    case, p0 = bench.start(0, 0.006)
    with pytest.raises(RankDeficiencyError) as info:
        bench.fit(config, np.full_like(case.image, 0.5), p0)
    assert info.value.condition == np.inf


@pytest.mark.parametrize("name", ["po_asym_hd", "newton_sd"])
def test_non_finite_input_raises(bench, name):
    _, config, _ = bench.workload(name)
    case, p0 = bench.start(0, 0.006)
    image = case.image.copy()
    x, y = shape_to_points(shape_instance(bench.engine.model, p0)).mean(0)
    image[int(y), int(x)] = np.nan          # the face's centre
    with pytest.raises(DimensionError):
        bench.fit(config, image, p0)
    with pytest.raises(DimensionError):
        bench.fit(config, case.image, np.full_like(p0, np.nan))


@pytest.mark.parametrize("rho", [None, 0.0, 0.5])
@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_wrong_channel_count_raises(bench, alpha, rho):
    """A 2-D image and a 2-channel image on the 3-channel model."""
    prep = prepare(bench.engine, bench.app, FitConfig(alpha=alpha, rho=rho))
    case, p0 = bench.start(0, 0.006)
    for image in (case.image[..., 0], case.image[..., :2]):
        with pytest.raises(DimensionError):
            fit(prep, image, p0)


MALFORMED = {      # a valid argument -> a malformed one of its kind
    "numeric_strings": lambda a: np.asarray(a).astype(str),
    "ragged": lambda a: [[0.0, 1.0], [2.0]],
    "complex": lambda a: np.asarray(a, dtype=complex),
}


@pytest.mark.parametrize("kind", list(MALFORMED))
@pytest.mark.parametrize("call", [
    "shape_instance", "project_shape", "procrustes_align", "face_size",
    "build_shape_model", "appearance_instance", "project_appearance",
    "build_appearance_model", "project_out", "warp_to_reference_image",
    "warp_to_reference_shape", "compose", "image_gradient",
    "steepest_descent", "blend_gradients", "gn_hessian",
    "residual_curvature", "newton_terms_asymmetric_residual",
    "newton_terms_bidirectional_J_i", "increment_positions",
    "rasterize_barycentric", "sample_frame_image", "fit_image", "fit_p",
    "schur_solve", "orthonormalize", "pca", "shape_to_points"])
def test_malformed_input_raises(bench, call, kind):
    """Strings (even numeric ones, which numpy would parse), ragged
    nesting and complex values (even with a zero imaginary part) in one
    argument of a valid call raise `DimensionError` from the one
    conversion rule, not numpy's `ValueError` or a `ComplexWarning`."""
    eng, app, case = bench.engine, bench.app, bench.cases[0]
    model, frame, tri, dW = eng.model, eng.frame, eng.tri, eng.dWdp
    p, s, v, image = case.p_true, case.shape_true, app.mean, case.image
    J = steepest_descent(*image_gradient(v, frame), dW)
    second = jacobians.second_gradient(v, frame)
    prep = prepare(eng, app, bench.config("po", 0.5))
    calls = {        # name -> (valid argument, call on that argument)
        "shape_instance": (p, lambda x: shape_instance(model, x)),
        "project_shape": (s, lambda x: project_shape(model, x)),
        "procrustes_align": (s, lambda x: procrustes_align([x, s])),
        "face_size": (s, face_size),
        "build_shape_model": (s, lambda x: build_shape_model([x, s], s)),
        "appearance_instance": (np.zeros(app.n_components),
                                lambda x: appearance_instance(app, x)),
        "project_appearance": (v, lambda x: project_appearance(app, x)),
        "build_appearance_model": (
            v, lambda x: build_appearance_model([x, v])),
        "project_out": (v, lambda x: project_out(app, x)),
        "warp_to_reference_image": (
            image, lambda x: warp.warp_to_reference(x, s, frame, tri)),
        "warp_to_reference_shape": (
            s, lambda x: warp.warp_to_reference(image, x, frame, tri)),
        "compose": (p, lambda x: warp.compose(model, tri, p, x)),
        "image_gradient": (v, lambda x: image_gradient(x, frame)),
        "steepest_descent": (v, lambda x: steepest_descent(x, v, dW)),
        "blend_gradients": (second[:2], lambda x: jacobians.blend_gradients(
            x, second[:2], 0.5)),
        "gn_hessian": (J[:64], gn_hessian),
        "residual_curvature": (second, lambda x: jacobians.residual_curvature(
            x, dW, v)),
        "newton_terms_asymmetric_residual": (
            v, lambda x: jacobians.newton_terms_asymmetric(
                app, frame, dW, x, second, second, J, 0.5)),
        "newton_terms_bidirectional_J_i": (
            J, lambda x: jacobians.newton_terms_bidirectional(
                app, frame, dW, v, second, second, x, J)),
        "increment_positions": (p, eng.increment_positions),
        "rasterize_barycentric": (
            frame.positions[:8], lambda x: warp.rasterize_barycentric(
                shape_to_points(model.mean), tri.triangles, x)),
        "sample_frame_image": (
            frame.positions[:8], lambda x: warp.sample_frame_image(
                frame.to_grid(v), frame, x)),
        "fit_image": (image, lambda x: fit(prep, x, p)),
        "fit_p": (p, lambda x: fit(prep, image, x)),
        "schur_solve": (np.eye(p.size), lambda x: schur_solve(
            x, p, np.zeros((0, p.size)), np.zeros(0))),
        "orthonormalize": (model.basis, orthonormalize),
        "pca": (model.basis.T, lambda x: pca(x, 1.0, None, "shape")),
        "shape_to_points": (s, shape_to_points),
    }
    valid, f = calls[call]
    f(valid)
    with pytest.raises(DimensionError, match="rectangular|real numbers"):
        f(MALFORMED[kind](valid))


@pytest.mark.parametrize("fields", [
    dict(alpha=-0.1), dict(alpha=1.5), dict(alpha=np.nan), dict(alpha="0"),
    dict(alpha=True), dict(alpha=False), dict(rho=True), dict(rho="0"),
    dict(rho=np.nan), dict(rho=1.5),
    dict(max_iters=0), dict(max_iters=2.0), dict(max_iters=True),
    dict(max_iters="3"), dict(solver="levenberg"),
    dict(rho=0.0, solver="newton"), dict(rho=0.5, solver="newton"),
], ids=lambda f: "-".join(f"{k}={v}" for k, v in f.items()))
def test_config_rejects(fields):
    with pytest.raises(ConfigError):
        FitConfig(**{"alpha": 0.5, **fields})


def test_config_is_plain_data():
    """Configs with equal fields are equal and hash equal, so a grid of
    fits can be keyed by its configs."""
    grid = [dict(alpha=alpha, rho=rho) for alpha in ALPHAS
            for rho in (None, 0.0, 0.5, 1.0)] + [
        dict(alpha=alpha, solver="newton", max_iters=5) for alpha in ALPHAS]
    keyed = {FitConfig(**fields): j for j, fields in enumerate(grid)}
    assert len(keyed) == len(grid)
    for j, fields in enumerate(grid):
        a, b = FitConfig(**fields), FitConfig(**fields)
        assert a == b and hash(a) == hash(b)
        assert keyed[a] == j
