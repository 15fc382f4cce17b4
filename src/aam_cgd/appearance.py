"""Linear appearance model with implicit project-out and Bayesian
project-out operators.

Both weight a residual by W = w I + A diag(v) A^T; `cost_weights` is the
one table of their (A, w, v).  All operators are applied as thin factored
products; no F x F matrix is ever materialized.  Appearance vectors are
channel-major, matching `warp.warp_to_reference`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, InsufficientDataError
from .shape_model import _check_linear_model, _freeze, as_vector, pca

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
    image noise is the mean discarded eigenvalue, floored at 1e-8 times the
    leading eigenvalue so the Bayesian operator stays well defined.

    The stacked, centred training matrix is the only data-sized array the
    build makes: with fewer images than values, `pca` forms the basis in
    its buffer.
    """
    if len(warped_images) < 2:
        raise InsufficientDataError("need at least 2 warped images")
    # reshape, not ravel: a strided 1-D input stays a view, so the stack
    # below is the only copy of the training data.
    vecs = [np.asarray(v, dtype=np.float64).reshape(-1)
            for v in warped_images]
    if vecs[0].size == 0 or any(v.size != vecs[0].size for v in vecs):
        raise DimensionError("warped vectors are empty or have inconsistent "
                             "lengths")
    X = np.stack(vecs)
    data_mean = X.mean(axis=0)
    # A non-finite pixel makes its column mean non-finite.
    if not np.all(np.isfinite(data_mean)):
        raise DimensionError("warped vectors contain non-finite values")
    X -= data_mean

    basis, evals = pca(X, float(data_mean @ data_mean), n_components,
                       "appearance")
    discarded = evals[basis.shape[1]:]
    if discarded.size:
        noise = float(discarded.mean())
    else:
        noise = float(evals[0]) * SIGMA_FLOOR_REL if evals.size else 0.0
    if noise <= 0:
        noise = SIGMA_FLOOR_ABS

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


def project_out(model, r):
    """Apply I - A A^T as two thin products.

    Accepts a vector (F*k,) or a matrix (F*k, n) applied column-wise.  The
    result overwrites the product A (A^T r), so a matrix r costs one
    (F*k, n) temporary.
    """
    r = _operand(model, r)
    out = model.basis @ (model.basis.T @ r)
    return np.subtract(r, out, out=out)


def _operand(model, r):
    """r as a float64 (k F,) vector or (k F, n) matrix of the model."""
    r = np.asarray(r, dtype=np.float64)
    if r.ndim not in (1, 2) or r.shape[0] != model.n_features:
        raise DimensionError(f"expected a ({model.n_features},) vector or "
                             f"({model.n_features}, n) matrix, got shape "
                             f"{r.shape}")
    return r


@dataclass(frozen=True)
class BpoOperator:
    """Weighted Bayesian project-out quadratic form.

    The quadratic form is
        rho * ||A^T r||^2_{D^-1} + ((1 - rho) / sigma^2) * ||(I - A A^T) r||^2
    with D = diag(eigenvalues + sigma^2).  rho = 0 recovers the classic
    project-out loss scaled by 1 / sigma^2; rho = 0.5 recovers half of the
    marginal-likelihood quadratic form.
    """

    model: AppearanceModel
    rho: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigError(f"rho must lie in [0, 1], got {self.rho}")

    def apply(self, r):
        """Weight a vector or matrix by the operator (gradient direction
        of the quadratic form) as A (v * A^T r) + w r, (A, w, v) from
        `cost_weights`: a (k F, n) r costs the result and one temporary."""
        r = _operand(self.model, r)
        A, w, v = cost_weights(self)
        a = A.T @ r
        a *= v[:, None] if r.ndim == 2 else v
        out = A @ a
        return np.add(out, w * r, out=out)


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
