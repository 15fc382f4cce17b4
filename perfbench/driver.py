"""Textbook compositional fitters built only from `aam_cgd`'s public
functions.

One loop covers the three configurations the benchmark runs.  The data
term is

    0.5 * || W (i[alpha dp] - t[-beta dp]) ||^2,   beta = 1 - alpha,

where i is the image warped by the current shape, t the template and W
either the project-out operator (t is the appearance mean) or the identity
(SSD, t = mean + A c).  alpha = 0 is inverse composition; with project-out
its Jacobian and Hessian are fixed per model (Baker & Matthews,
"Lucas-Kanade 20 Years On", IJCV 2004).  Gauss-Newton and Newton solve
for the increment, and the shape is updated as p <- p o dp (for alpha = 0
this is p o invert_increment(-dp)).

Library calls go through module attributes so that the span tracer can
replace them.
"""

from dataclasses import dataclass

import numpy as np

from aam_cgd import appearance, jacobians, shape_model, warp


STEP_TOL_PX = 0.01    # stop when the RMS landmark step falls below this


class CheckFailed(RuntimeError):
    """A correctness check of the benchmark failed."""


@dataclass(frozen=True)
class Config:
    """Project-out is solved by Gauss-Newton over dp, SSD by Newton over
    (dc, dp): the two solvers the benchmark's workloads use."""

    project_out: bool
    alpha: float                # 0 = inverse, 0 < alpha < 1 = asymmetric
    max_iters: int = 20

    @property
    def precomputed(self):
        return self.project_out and self.alpha == 0.0


@dataclass(frozen=True)
class FitResult:
    p: np.ndarray
    iters: int


def solve(H, g):
    """Newton/Gauss-Newton step -H^{-1} g."""
    return -np.linalg.solve(H, g)


def check_hessian(H):
    if not np.all(np.isfinite(H)):
        raise CheckFailed("Hessian has non-finite entries")
    if not np.allclose(H, H.T, rtol=1e-10, atol=1e-12 * np.abs(H).max()):
        raise CheckFailed("Hessian is not symmetric")


class Fitter:
    """A configured fitter for one shape/appearance model pair."""

    def __init__(self, engine, app, config):
        self.engine = engine
        self.app = app
        self.config = config
        if config.precomputed:
            gx, gy = jacobians.image_gradient(app.mean, engine.frame)
            J = jacobians.steepest_descent(gx, gy, engine.dWdp)
            self.H = jacobians.gn_hessian(J, app)
            self.PJ = appearance.project_out(app, J)
            check_hessian(self.H)

    def initial_appearance(self, image, p):
        """Least-squares appearance at the start shape (SSD only)."""
        if self.config.project_out:
            return np.zeros(0)
        i = warp.warp_to_reference(
            image, shape_model.shape_instance(self.engine.model, p),
            self.engine.frame, self.engine.tri)
        return appearance.project_appearance(self.app, i)

    def linearize(self, image, p, c):
        """Gradient and Hessian of the data term over the increment:
        dp for project-out, (dc, dp) for SSD."""
        cfg, app, eng = self.config, self.app, self.engine
        frame, dWdp = eng.frame, eng.dWdp
        i = warp.warp_to_reference(
            image, shape_model.shape_instance(eng.model, p), frame, eng.tri)
        if cfg.precomputed:
            return self.PJ.T @ (i - app.mean), self.H
        t = app.mean if cfg.project_out else appearance.appearance_instance(
            app, c)
        r = i - t
        grad = jacobians.blend_gradients(jacobians.image_gradient(i, frame),
                                         jacobians.image_gradient(t, frame),
                                         cfg.alpha)
        J = jacobians.steepest_descent(*grad, dWdp)
        if cfg.project_out:
            return J.T @ appearance.project_out(app, r), \
                jacobians.gn_hessian(J, app)
        g = np.concatenate([-(app.basis.T @ r), J.T @ r])
        terms = jacobians.newton_terms_asymmetric(
            app, frame, dWdp, r, jacobians.second_gradient(i, frame),
            jacobians.second_gradient(t, frame), J, cfg.alpha)
        return g, terms.full()

    def fit(self, image, p0):
        """Iterate from `p0` until the RMS landmark step falls below the
        tolerance or `max_iters` steps were taken."""
        cfg, model = self.config, self.engine.model
        p = np.asarray(p0, dtype=np.float64).copy()
        c = self.initial_appearance(image, p)
        m = c.size
        tol = STEP_TOL_PX * np.sqrt(model.n_points)
        iters = 0
        while iters < cfg.max_iters:
            g, H = self.linearize(image, p, c)
            check_hessian(H)
            delta = solve(H, g)
            c = c + delta[:m]
            dp = delta[m:]
            p = warp.compose(model, self.engine.tri, p, dp)
            iters += 1
            if not (np.all(np.isfinite(p)) and np.all(np.isfinite(c))):
                raise CheckFailed(f"non-finite parameters after {iters} "
                                  "iterations")
            if np.linalg.norm(dp) < tol:
                break
        return FitResult(p=p, iters=iters)


def point_error(model, p, case):
    """Mean landmark distance to the ground truth over the face size."""
    pts = shape_model.shape_to_points(shape_model.shape_instance(model, p))
    true = shape_model.shape_to_points(case.shape_true)
    return float(np.linalg.norm(pts - true, axis=1).mean() / case.face_size)
