"""One compositional fit loop for every algorithm, configured by data.

`FitConfig` is a point on the paper's three axes: the cost (`rho`: None
for SSD, else Bayesian project-out (BPO) at rho; rho = 0 is project-out
(PO) over sigma^2, the same steps), the composition (`alpha`: 0 inverse,
1 forward, between asymmetric) and the solver (Gauss-Newton or Newton).
Each step warps the image once, at the current p (SSD's start c is the
first warp's least-squares projection), linearises there, solves by the
Schur complement on dc (`schur_solve`) and composes.  Every cell hands
the solve the same four blocks (xx, g_p, cross, g_c).  SSD's are
cross = -A^T J and xx = J^T J under Gauss-Newton and those of
`newton_terms_asymmetric` under Newton; PO and BPO are the m = 0 case,
an empty cross and g_c with xx = `gn_hessian(J, cost)`.  Not covered
yet: Newton for PO and BPO, and bidirectional composition.  Calls name
modules, so a tracer can wrap them.
"""

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import appearance, jacobians, shape_model, warp
from .errors import ConfigError, RankDeficiencyError

STEP_TOL_PX = 0.01    # stop when the RMS landmark step falls below this


@dataclass(frozen=True)
class FitConfig:
    alpha: float            # 0 inverse, 1 forward, between asymmetric
    rho: float | None = None        # None SSD, else BPO (0 is PO)
    solver: str = "gauss_newton"    # or "newton"
    max_iters: int = 20

    def __post_init__(self):
        n = self.max_iters
        appearance.check_unit_interval(self.alpha, "alpha")
        if self.rho is not None:
            appearance.check_unit_interval(self.rho, "rho")
        if isinstance(n, bool) or not isinstance(n, Integral) or n < 1:
            raise ConfigError(f"max_iters must be a positive int, got {n!r}")
        if self.solver not in ("gauss_newton", "newton"):
            raise ConfigError(f"unknown solver {self.solver!r}")
        if self.solver == "newton" and self.rho is not None:
            raise ConfigError("Newton is implemented for the SSD cost only")


@dataclass(frozen=True)
class Prepared:
    engine: warp.WarpEngine
    app: appearance.AppearanceModel
    config: FitConfig
    cost: appearance.BpoOperator | None     # None for SSD
    fixed: tuple | None     # (W J, H) for PO and BPO at alpha = 0


@dataclass(frozen=True)
class FitResult:
    p: np.ndarray
    c: np.ndarray           # empty for PO and BPO
    iters: int
    reason: str             # "converged" or "max_iters"


def prepare(engine, app, config):
    """What `fit` reads: the cost on `app` and, for PO and BPO at
    alpha = 0, the fixed W J and Hessian."""
    rho = config.rho
    cost = None if rho is None else appearance.BpoOperator(app, rho)
    fixed = None
    if cost is not None and config.alpha == 0.0:
        J = jacobians.steepest_descent(
            *jacobians.image_gradient(app.mean, engine.frame), engine.dWdp)
        fixed = (appearance.project_out(cost, J),
                 jacobians.gn_hessian(J, cost))
    return Prepared(engine, app, config, cost, fixed)


def fit(prep, image, p):
    """Iterate from `p` until the RMS landmark step is below STEP_TOL_PX,
    or `max_iters` times; SSD's start c is the first warp's projection."""
    cfg, eng = prep.config, prep.engine
    c = np.zeros(0) if prep.cost is not None else None
    for iters in range(1, cfg.max_iters + 1):
        i = shape_model.as_array(warp.warp_to_reference(
            image, shape_model.shape_instance(eng.model, p), eng.frame,
            eng.tri), (prep.app.n_features,), "warped image")
        c = appearance.project_appearance(prep.app, i) if c is None else c
        dc, dp = schur_solve(*_linearize(prep, i, c))
        c = c + dc
        p = warp.compose(eng.model, eng.tri, p, dp)
        if np.linalg.norm(dp) < STEP_TOL_PX * np.sqrt(eng.model.n_points):
            return FitResult(p=p, c=c, iters=iters, reason="converged")
    return FitResult(p=p, c=c, iters=iters, reason="max_iters")


def _linearize(prep, i, c):
    """(xx, g_p, cross, g_c) at (i, c); PO and BPO are m = 0."""
    cfg, eng, app, cost = prep.config, prep.engine, prep.app, prep.cost
    t = app.mean if cost is not None else \
        appearance.appearance_instance(app, c)
    r = i - t
    no_c = np.zeros((0, eng.model.n_params)), np.zeros(0)
    if prep.fixed is not None:
        return prep.fixed[1], prep.fixed[0].T @ r, *no_c
    J = jacobians.steepest_descent(*jacobians.blend_gradients(
        jacobians.image_gradient(i, eng.frame),
        jacobians.image_gradient(t, eng.frame), cfg.alpha), eng.dWdp)
    if cost is not None:
        return (jacobians.gn_hessian(J, cost),
                J.T @ appearance.project_out(cost, r), *no_c)
    g_c, g_p = -(app.basis.T @ r), J.T @ r
    if cfg.solver == "gauss_newton":
        return jacobians.gn_hessian(J), g_p, -(J.T @ app.basis).T, g_c
    terms = jacobians.newton_terms_asymmetric(
        app, eng.frame, eng.dWdp, r, jacobians.second_gradient(i, eng.frame),
        jacobians.second_gradient(t, eng.frame), J, cfg.alpha)
    return terms.xx, g_p, terms.cross, g_c


def schur_solve(xx, g_p, cross, g_c):
    """The step (dc, dp) of the Hessian [[I, cross], [cross^T, xx]] (as
    A^T A = I) with gradient (g_c, g_p), forming no (m + P) matrix:
    (xx - cross^T cross) dp = -(g_p - cross^T g_c), dc = -(g_c + cross dp).
    Every cell hands over all four blocks; PO and BPO are m = 0, a (0, P)
    cross and a (0,) g_c.  A singular system raises `RankDeficiencyError`.
    """
    g_p = shape_model.as_array(g_p, (None,), "gradient on p")
    xx = shape_model.as_array(xx, (g_p.size,) * 2, "p block")
    cross = shape_model.as_array(cross, (None, g_p.size), "cross block")
    g_c = shape_model.as_array(g_c, (len(cross),), "gradient on c")
    shape_model.require_finite("Schur block", xx, g_p, cross, g_c)
    try:
        dp = -np.linalg.solve(xx - cross.T @ cross, g_p - cross.T @ g_c)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError(f"singular reduced Hessian: {exc}",
                                  condition=np.inf) from None
    return -(g_c + cross @ dp), dp
