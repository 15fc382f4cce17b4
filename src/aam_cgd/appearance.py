"""Linear appearance model and the weights of the project-out (PO) and
Bayesian project-out (BPO) costs.

Both costs weight a residual by W = w I + A diag(v) A^T; `cost_weights`
is the one table of their (A, w, v), and `project_out` applies either W
as thin factored products, so no F x F matrix is ever materialized.  A
BPO cost is plain data, `BpoOperator` (model and rho).  Appearance
vectors are channel-major, matching `warp.warp_to_reference`.
"""

from dataclasses import dataclass
from numbers import Real

import numpy as np
from scipy.linalg.blas import daxpy

from .errors import ConfigError, DimensionError, InsufficientDataError
from .shape_model import (_check_linear_model, _freeze, as_array, as_vector,
                          pca, require_finite)

SIGMA_FLOOR_REL = 1e-8
SIGMA_FLOOR_ABS = 1e-12


@dataclass(frozen=True)
class AppearanceModel:
    """Linear appearance model a = mean + basis @ c.

    The mean is stored orthogonal to the basis (the within-subspace
    component of the data mean is absorbed into the parameters), so
    basis.T @ mean = 0 holds exactly.

    `build_appearance_model` stores the basis column-major (each mode
    contiguous) and read-only.
    """

    mean: np.ndarray         # (F * k,)
    basis: np.ndarray        # (F * k, m), orthonormal, column-major
    eigenvalues: np.ndarray  # (m,), descending
    image_noise: float       # sigma^2 > 0

    @property
    def n_components(self):
        return self.basis.shape[1]

    @property
    def n_features(self):
        return self.mean.size

    def validate(self):
        _check_linear_model(self, self.n_components, "appearance")
        if np.max(np.abs(self.basis.T @ self.mean), initial=0.0) > 1e-8:
            raise DimensionError("appearance mean not orthogonal to basis")
        if not self.image_noise > 0:
            raise DimensionError("image noise must be positive")
        return self


def build_appearance_model(warped_images, n_components=None):
    """Mean-centered PCA of warped appearance vectors.

    `n_components` follows the shape-model convention: an integer mode
    count (capped at the rank, with a warning) or None for full rank.  The
    image noise is the mean discarded eigenvalue (0 if none is discarded),
    floored at SIGMA_FLOOR_REL times the leading eigenvalue so the Bayesian
    operator stays well defined; SIGMA_FLOOR_ABS if both are 0.

    The stacked, centred training matrix is the only data-sized array the
    build makes: with fewer images than values, `pca` forms the basis in
    its buffer.
    """
    if len(warped_images) < 2:
        raise InsufficientDataError("need at least 2 warped images")
    # reshape, not ravel: a strided 1-D input stays a view, so the stack
    # below is the only copy of the training data.
    vecs = [as_array(v, None, "warped vector").reshape(-1)
            for v in warped_images]
    if vecs[0].size == 0 or any(v.size != vecs[0].size for v in vecs):
        raise DimensionError("warped vectors are empty or have inconsistent "
                             "lengths")
    X = np.stack(vecs)
    data_mean = X.mean(axis=0)
    # A non-finite pixel makes its column mean non-finite.
    require_finite("warped vectors", data_mean)
    X -= data_mean

    basis, evals = pca(X, float(data_mean @ data_mean), n_components,
                       "appearance")
    discarded = evals[basis.shape[1]:]
    top = float(evals[0]) if evals.size else 0.0
    noise = max(float(discarded.mean()) if discarded.size else 0.0,
                SIGMA_FLOOR_REL * top) or SIGMA_FLOOR_ABS

    mean = data_mean - basis @ (basis.T @ data_mean)
    eigenvalues = evals[:basis.shape[1]].copy()
    _freeze(mean, basis, eigenvalues)
    return AppearanceModel(mean=mean, basis=basis, eigenvalues=eigenvalues,
                           image_noise=noise).validate()


def appearance_instance(model, c):
    """Evaluate mean + basis @ c."""
    c = as_vector(c, model.n_components, "appearance parameters")
    return model.mean + model.basis @ c


def project_appearance(model, v):
    """Least-squares appearance parameters basis.T @ (v - mean)."""
    v = as_vector(v, model.n_features, "appearance values")
    return model.basis.T @ (v - model.mean)


def project_out(cost, r):
    """Weight r by a cost's W = w I + A diag(v) A^T, (A, w, v) from
    `cost_weights`: I - A A^T for project-out (an `AppearanceModel`),
    the Bayesian project-out weight for a `BpoOperator`.  W r is half the
    gradient of the cost's quadratic form r^T W r.

    Accepts a vector (k F,) or a matrix (k F, n) applied column-wise.  The
    result is formed in the product A (v * A^T r), and w r is added to it
    in place (BLAS daxpy), so a matrix r costs one (k F, n) array, the
    result.  A non-finite entry of r raises `DimensionError`.
    """
    A, w, v = cost_weights(cost)
    r = as_array(r, None, "residual")
    as_array(r, (A.shape[0],) + r.shape[1:2], "residual")  # (k F[, n])
    require_finite("residual", r)
    a = A.T @ r
    np.multiply(a.T, v, out=a.T)
    out = A @ a
    if out.size:                # daxpy rejects empty vectors
        daxpy(r.reshape(-1), out.reshape(-1), a=w)
    return out


@dataclass(frozen=True)
class BpoOperator:
    """The Bayesian project-out cost: an appearance model and a weight
    rho in [0, 1].

    Its quadratic form is
        rho * ||A^T r||^2_{D^-1} + ((1 - rho) / sigma^2) * ||(I - A A^T) r||^2
    with D = diag(eigenvalues + sigma^2), r^T W r for the W of
    `cost_weights`; `project_out` applies W.  rho = 0 recovers the
    classic project-out loss scaled by 1 / sigma^2; rho = 0.5 recovers
    half of the marginal-likelihood quadratic form.
    """

    model: AppearanceModel
    rho: float

    def __post_init__(self):
        check_unit_interval(self.rho, "rho")


def check_unit_interval(x, what):
    """The one [0, 1] rule: `x` is a real number, not a bool, in [0, 1],
    else `ConfigError` naming `what`."""
    if isinstance(x, bool) or not (isinstance(x, Real) and 0 <= x <= 1):
        raise ConfigError(f"{what} must lie in [0, 1], got {x!r}")


def cost_weights(cost):
    """(A, w, v) of a cost's weight W = w I + A diag(v) A^T:
        project-out (an `AppearanceModel`):      (A, 1, -1)
        Bayesian project-out (a `BpoOperator`):  (A, (1 - rho) / sigma^2,
                                                  rho / d - w)
    with d = eigenvalues + sigma^2.  Any other cost raises
    `DimensionError`."""
    if isinstance(cost, AppearanceModel):
        return cost.basis, 1.0, -1.0
    if isinstance(cost, BpoOperator):
        A, s2 = cost.model.basis, cost.model.image_noise
        w = (1.0 - cost.rho) / s2
        return A, w, cost.rho / (cost.model.eigenvalues + s2) - w
    raise DimensionError(f"unsupported cost {type(cost)!r}")
