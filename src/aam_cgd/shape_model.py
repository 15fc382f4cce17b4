"""Point distribution model: Procrustes alignment, PCA and the similarity-
augmented orthonormal shape basis.  `pca` and `orthonormalize` also build
the appearance model.

Shapes are flat float64 vectors of length 2v with interleaved coordinates
(x1, y1, ..., xv, yv).  The alignment reads them as v complex landmarks
z = x + iy (a `complex128` view), where a 2D similarity is z -> a z + t.
"""

import operator
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dtrtri

from .errors import DegeneracyError, DimensionError, InsufficientDataError

N_SIMILARITY = 4

PROCRUSTES_MAX_ITERS = 100
PROCRUSTES_TOL = 1e-10
PIVOT_TOL = 1e-6      # orthonormalize: smallest pivot / column norm
_GRAM_BLOCK = 4096    # pca: columns per in-place block, 3.3 MB at m = 100


def as_shape(points):
    """Validate and return a shape vector as a float64 array."""
    s = np.asarray(points, dtype=np.float64).ravel()
    if s.size % 2 != 0 or s.size < 6:
        raise DimensionError(
            f"shape vector must have even length >= 6, got {s.size}")
    if not np.all(np.isfinite(s)):
        raise DimensionError("shape vector contains non-finite coordinates")
    return s


def as_vector(x, size, what):
    """Validate and return `size` finite values as a flat float64 array."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size != size:
        raise DimensionError(f"expected {size} {what}, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise DimensionError(f"non-finite {what}")
    return x


def shape_to_points(s):
    """View a flat shape vector as a (v, 2) coordinate array."""
    return np.asarray(s, dtype=np.float64).reshape(-1, 2)


def face_size(s):
    """Mean of the width and height of the shape's bounding box."""
    pts = shape_to_points(as_shape(s))
    extent = pts.max(axis=0) - pts.min(axis=0)
    size = 0.5 * (extent[0] + extent[1])
    if size <= 0:
        raise DegeneracyError("shape has zero spatial extent")
    return float(size)


def _unit_centred(z):
    """Complex landmark rows (..., v) moved to zero centroid and unit norm."""
    z = z - z.mean(axis=-1, keepdims=True)
    norm = np.linalg.norm(z, axis=-1, keepdims=True)
    if not np.all(np.isfinite(norm) & (norm > 0)):
        raise DegeneracyError("degenerate shape: all landmarks coincide")
    return z / norm


def _scale_rotation(centred, mean):
    """a_i with centred_i ~ a_i * mean: the least-squares scale and rotation
    of each centred shape against the unit, centred mean."""
    a = centred @ mean.conj()
    if not np.all(a != 0):
        raise DegeneracyError("degenerate similarity alignment")
    return a


def procrustes_align(shapes):
    """Generalized Procrustes analysis on complex landmarks z = x + iy.

    The similarity taking the mean onto shape i is z_i = a_i * mean + t_i,
    with t_i the shape's centroid and a_i its scale and rotation.  Returns
    (aligned, similarities, mean): the (n, 2v) shapes (z_i - t_i) / a_i,
    the (n, 4) rows (Re a_i, Im a_i, Re t_i, Im t_i), and the mean, which
    has zero centroid and unit norm.

    The initial reference is the average of the centred, unit-normalized
    inputs, which makes the result independent of input ordering.
    """
    if len(shapes) < 2:
        raise InsufficientDataError("need at least 2 shapes to align")
    shapes = [as_shape(s) for s in shapes]
    if any(s.size != shapes[0].size for s in shapes):
        raise DimensionError("all shapes must have the same length")
    z = np.stack(shapes).view(np.complex128)          # (n, v)
    t = z.mean(axis=1)
    centred = z - t[:, None]
    mean = _unit_centred(_unit_centred(z).mean(axis=0))
    for _ in range(PROCRUSTES_MAX_ITERS):
        a = _scale_rotation(centred, mean)
        new_mean = _unit_centred((centred / a[:, None]).mean(axis=0))
        change = np.linalg.norm(new_mean - mean)
        mean = new_mean
        if change < PROCRUSTES_TOL:
            break
    a = _scale_rotation(centred, mean)
    aligned = centred / a[:, None]
    return (aligned.view(np.float64),
            np.stack([a, t], axis=1).view(np.float64), mean.view(np.float64))


def similarity_basis(mean):
    """Orthonormal 2v x 4 differential similarity basis of the mean shape.

    Column order: x-translation, y-translation, scale, rotation.  Scale and
    rotation differentials are taken about the mean's centroid.
    """
    pts = shape_to_points(as_shape(mean))
    pts = pts - pts.mean(axis=0)
    cols = np.zeros((pts.size, 4))
    cols[0::2, 0] = 1.0                      # d/d tx
    cols[1::2, 1] = 1.0                      # d/d ty
    cols[:, 2] = pts.ravel()                 # d/d scale
    rot90 = np.column_stack([-pts[:, 1], pts[:, 0]])
    cols[:, 3] = rot90.ravel()               # d/d angle
    return orthonormalize(cols)


@dataclass(frozen=True)
class ShapeModel:
    """Linear shape model s = mean + basis @ p.

    The first 4 basis columns are the orthonormalized similarity
    differentials; the remaining n columns are non-rigid PCA modes with
    variances `eigenvalues`.
    """

    mean: np.ndarray         # (2v,)
    basis: np.ndarray        # (2v, 4 + n)
    eigenvalues: np.ndarray  # (n,)

    @property
    def n_points(self):
        return self.mean.size // 2

    @property
    def n_nonrigid(self):
        return self.basis.shape[1] - N_SIMILARITY

    @property
    def n_params(self):
        return self.basis.shape[1]

    def validate(self):
        if self.mean.size % 2 != 0 or self.mean.size < 6:
            raise DimensionError("invalid mean shape length")
        if self.basis.shape[1] < N_SIMILARITY:
            raise DimensionError("basis must include 4 similarity columns")
        _check_linear_model(self, self.n_nonrigid, "shape")
        return self


def _check_linear_model(model, n_modes, what):
    """The rules the shape and appearance models share: the basis has the
    mean's rows and orthonormal columns (to 1e-10), and its `n_modes`
    eigenvalues are positive and descending."""
    basis, evals = model.basis, model.eigenvalues
    if basis.shape[0] != model.mean.size:
        raise DimensionError(f"{what} basis rows do not match mean length")
    if not np.allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-10):
        raise DimensionError(f"{what} basis is not orthonormal")
    if evals.size != n_modes:
        raise DimensionError(f"{what} eigenvalue count does not match basis")
    if not (np.all(evals > 0) and np.all(np.diff(evals) <= 0)):
        raise DimensionError(f"{what} eigenvalues must be positive, sorted "
                             "descending")


def _freeze(*arrays):
    for a in arrays:
        a.setflags(write=False)


def _resolve_n_components(n_components, evals, what):
    """Interpret a truncation request: an integer (numpy integers
    included) = mode count, None = keep everything."""
    available = evals.size
    if n_components is None:
        return available
    try:
        n_keep = operator.index(n_components)
    except TypeError:
        raise DimensionError(f"{what} component count must be an integer "
                             f"or None, got {n_components!r}") from None
    if n_keep < 0:
        raise DimensionError(f"{what} component count must be >= 0")
    if n_keep > available:
        warnings.warn(
            f"requested {n_keep} {what} components but only {available} "
            "available; capping", RuntimeWarning)
        n_keep = available
    return n_keep


def orthonormalize(C):
    """Cholesky QR: Q = C L^-T with C^T C = L L^T.

    Column j of Q lies in the span of C's first j columns and has a
    positive inner product with C[:, j] (L has a positive diagonal), so
    the columns keep their order and orientation.  L[j, j] is the norm of
    the part of C[:, j] outside the span of the columns before it.
    Linearly dependent columns raise `DegeneracyError`: Cholesky either
    fails on them or leaves a round-off pivot, about sqrt(eps) = 1.5e-8
    of the column's norm, which `PIVOT_TOL` rejects.

    Q is column-major, formed in place by one triangular multiply with
    the small inverse L^-T.  A writeable, column-major float64 C is
    overwritten and returned as Q, so no second (dim, n) array is made;
    any other C is copied first and left unchanged.
    """
    gram = C.T @ C
    try:
        L = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        dependent = True
    else:
        dependent = np.any(np.diag(L) <= PIVOT_TOL * np.sqrt(np.diag(gram)))
    if dependent:
        raise DegeneracyError("cannot orthonormalize linearly dependent "
                              "columns")
    Q = np.require(C, np.float64, ["F_CONTIGUOUS", "WRITEABLE"])
    L_inv = dtrtri(L, lower=1)[0]     # info is 0: the pivots are positive
    return dtrmm(1.0, L_inv, Q, side=1, lower=1, trans_a=1, overwrite_b=1)


def pca(X, ref_norm2, n_components, what):
    """Principal components of the rows of a centred (n_samples, dim) X.

    Eigendecomposes the smaller of the Gram matrix X X^T and the covariance
    X^T X.  Modes at or below the rank floor (relative to the spectrum,
    plus an absolute floor tied to the data scale `ref_norm2`, so round-off
    modes of identical samples vanish) are dropped.  Returns (components,
    eigenvalues): the (dim, n_keep) orthonormal modes that `n_components`
    selects (see `_resolve_n_components`), column-major, and every
    eigenvalue above the floor, descending.

    On the Gram side (n_samples < dim) the modes are formed in X's own
    buffer, so the build holds no second data-sized array: an owned,
    C-contiguous, writeable float64 X is consumed (cut to its first
    n_keep rows, which become the returned modes), and the caller must
    hold no view of it.  Any other X is copied first and left unchanged.
    """
    n_samples, dim = X.shape
    gram_side = n_samples < dim
    if gram_side:
        X = np.require(X, np.float64, ["C_CONTIGUOUS", "WRITEABLE",
                                       "OWNDATA"])
    evals, evecs = np.linalg.eigh(
        (X @ X.T if gram_side else X.T @ X) / (n_samples - 1))
    evals, evecs = evals[::-1], evecs[:, ::-1]
    top = evals[0] if evals.size else 0.0
    evals = evals[evals > max(top * 1e-12, ref_norm2 * 1e-26, 1e-300)]
    n_keep = _resolve_n_components(n_components, evals, what)
    if not gram_side:
        return np.array(evecs[:, :n_keep], order="F"), evals
    # X^T v_j is mode j up to scale; round-off in the small eigenvectors
    # couples the modes by about eps * top / lambda_j, so re-orthonormalise.
    # Row j of V^T X overwrites row j of X one column block at a time:
    # block b of the product reads only block b of X, which no earlier
    # block wrote.  Cutting X to n_keep rows frees the tail, and the
    # transposed rows are the column-major modes `orthonormalize`
    # overwrites.
    Vt = evecs[:, :n_keep].T
    for j in range(0, dim, _GRAM_BLOCK):
        X[:n_keep, j:j + _GRAM_BLOCK] = Vt @ X[:, j:j + _GRAM_BLOCK]
    X.resize((n_keep, dim), refcheck=False)
    return orthonormalize(X.T), evals


def build_shape_model(aligned, mean, n_components=None):
    """Build a ShapeModel from Procrustes-aligned shapes.

    `n_components` selects the number of non-rigid modes: an integer
    (capped at the available rank, with a warning) or None to keep
    everything.
    """
    if len(aligned) < 2:
        raise InsufficientDataError("need at least 2 aligned shapes")
    mean = as_shape(mean)
    X = np.stack([as_shape(s) for s in aligned]) - mean

    sim = similarity_basis(mean)
    # Non-rigid modes live in the orthogonal complement of the similarity
    # columns; projecting first keeps the joint basis exactly orthonormal.
    X -= (X @ sim) @ sim.T
    comps, evals = pca(X, float(mean @ mean), n_components, "shape")

    # Final pass to remove residual round-off coupling.
    basis = orthonormalize(np.hstack([sim, comps]))
    mean = mean.copy()
    eigenvalues = evals[:comps.shape[1]].copy()
    _freeze(mean, basis, eigenvalues)
    return ShapeModel(mean=mean, basis=basis,
                      eigenvalues=eigenvalues).validate()


def shape_instance(model, p):
    """Evaluate mean + basis @ p."""
    p = as_vector(p, model.n_params, "shape parameters")
    return model.mean + model.basis @ p


def project_shape(model, s):
    """Least-squares parameters basis.T @ (s - mean)."""
    s = as_shape(s)
    if s.size != model.mean.size:
        raise DimensionError(
            f"expected shape length {model.mean.size}, got {s.size}")
    return model.basis.T @ (s - model.mean)
