"""Residual Jacobians and Hessians: masked image gradients, steepest-descent
images, Gauss-Newton Hessians and the second-order blocks used by Newton
steps.

The image gradient is a fixed sparse linear map per reference frame,
`ReferenceFrame.diff`: a (2F, F) difference operator D whose row 2f + a
differentiates along axis a (0 = x, 1 = y) at pixel f, central on the
masked grid, one-sided where only one neighbour is masked and zero where
the pixel is isolated.  Its rows are interleaved as the rows of the
copy-free (2F, P) view dW of the (F, 2, P) warp Jacobian, so:

- the gradient of all k channels is one product with D, and the four
  second derivatives are two;
- the Newton cross block J_{a_j}^T r of every appearance column goes
  through the adjoint image D^T diag(r) dW of `_adjoint_image`, one
  sparse product for all channels, so no per-column gradient is formed;
- the residual-weighted curvature is one GEMM dW^T (W dW), with W the
  per-pixel 2 x 2 second-derivative weights (`residual_curvature`).

Project-out (PO) and Bayesian project-out (BPO) Hessians are factored
through the m x P product B = A^T J: J^T J - B^T B for PO and
w J^T J + B^T diag(rho / d - w) B for BPO (see `gn_hessian`), so no
projected (k F, P) copy of J is built.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .appearance import AppearanceModel, BpoOperator
from .errors import DimensionError


def image_gradient(v, frame):
    """Per-channel spatial gradient of a channel-major frame vector: one
    product with the frame's difference operator.

    Returns (grad_x, grad_y), each of length F * k.
    """
    g = _difference(v, frame)                             # (2F, k)
    return tuple(g.reshape(frame.n_pixels, 2, -1).transpose(1, 2, 0)
                 .reshape(2, -1))


def second_gradient(v, frame):
    """Second derivatives (xx, xy, yx, yy) by differencing twice, with
    xy = Dy Dx v and yx = Dx Dy v: two products with the operator."""
    F = frame.n_pixels
    g = _difference(v, frame).reshape(F, -1)    # row f: (gx, gy) x channel
    gg = frame.diff @ g                         # row 2f + b, column a k + c
    return tuple(gg.reshape(F, 2, 2, -1).transpose(2, 1, 3, 0)
                 .reshape(4, -1))


def _difference(v, frame):
    """(2F, k) product of the difference operator with the k channels of
    a channel-major frame vector: row 2f + a, column c."""
    return frame.diff @ _channels(v, frame.n_pixels).T


def _channels(v, F):
    """(k, F) view of a channel-major frame vector of length k F."""
    v = np.asarray(v, dtype=np.float64).ravel()
    if v.size % F != 0:
        raise DimensionError("vector length is not a multiple of F")
    return v.reshape(-1, F)


def steepest_descent(grad_x, grad_y, warp_jac):
    """Contract an image gradient with the warp Jacobian.

    grad_x/grad_y: (F * k,) channel-major; warp_jac: (F, 2, P).
    Returns (F * k, P): per channel c and pixel f the row
    [gx, gy]_{c,f} @ warp_jac[f], one batched (1, 2) @ (2, P) product.
    """
    F = warp_jac.shape[0]
    gx, gy = _channels(grad_x, F), _channels(grad_y, F)
    if gx.shape != gy.shape:
        raise DimensionError("gradient components disagree in shape")
    g = np.stack([gx, gy], axis=-1)[:, :, None, :]       # (k, F, 1, 2)
    return np.matmul(g, warp_jac).reshape(-1, warp_jac.shape[-1])


def blend_gradients(grad_image, grad_model, alpha):
    """alpha-weighted combination of image- and model-side gradients."""
    beta = 1.0 - alpha
    gx = alpha * grad_image[0] + beta * grad_model[0]
    gy = alpha * grad_image[1] + beta * grad_model[1]
    return gx, gy


@np.errstate(invalid="ignore", over="ignore")   # see the check at the end
def gn_hessian(J, projector=None):
    """Gauss-Newton Hessian J^T M J of a (k F, P) Jacobian.

    M is the identity (`projector` None), the project-out operator
    I - A A^T (an `AppearanceModel`) or the Bayesian project-out operator
    rho A D^-1 A^T + w (I - A A^T) (a `BpoOperator`, w its
    `ortho_weight`).  With B = A^T J both weighted forms need only B:
        PO:  J^T J - B^T B
        BPO: w J^T J + B^T diag(rho / d - w) B
    """
    J = np.asarray(J, dtype=np.float64)
    H = J.T @ J
    if projector is not None:
        if isinstance(projector, AppearanceModel):
            model, w, v = projector, 1.0, -1.0
        elif isinstance(projector, BpoOperator):
            model, w = projector.model, projector.ortho_weight
            v = (projector.rho / projector.d - w)[:, None]
        else:
            raise DimensionError(
                f"unsupported projector {type(projector)!r}")
        if J.shape[0] != model.n_features:
            raise DimensionError("Jacobian rows do not match the model")
        B = (J.T @ model.basis).T      # faster on the C-ordered basis
        H = w * H + B.T @ (v * B)
    H = 0.5 * (H + H.T)
    # A non-finite entry of J makes its column's diagonal of J^T J, and so
    # of H, non-finite: checking the P x P result spares a pass over J.
    if not np.all(np.isfinite(H)):
        raise DimensionError("Jacobian contains non-finite entries")
    return H


def residual_curvature(second, warp_jac, weighted_residual):
    """Residual-weighted curvature sum_f dW_f^T W_f dW_f, one GEMM.

    `second` is the (xx, xy, yx, yy) tuple from second_gradient;
    `weighted_residual` is channel-major (already carrying any
    project-out weighting).  W_f is the 2 x 2 sum over channels of the
    residual times the second derivatives, cross terms symmetrized; over
    the (2F, P) view dW of `warp_jac` the sum is dW^T (W dW).
    """
    F, _, P = warp_jac.shape
    xx, xy, yx, yy = (_channels(g, F) for g in second)
    r = _channels(weighted_residual, F)
    if r.shape != xx.shape:      # einsum would broadcast a single channel
        raise DimensionError("residual and second derivatives disagree "
                             "in channels")
    W = np.empty((F, 2, 2))
    W[:, 0, 0] = np.einsum("cf,cf->f", r, xx)
    W[:, 0, 1] = W[:, 1, 0] = np.einsum("cf,cf->f", r, 0.5 * (xy + yx))
    W[:, 1, 1] = np.einsum("cf,cf->f", r, yy)
    H = warp_jac.reshape(-1, P).T @ (W @ warp_jac).reshape(-1, P)
    return 0.5 * (H + H.T)


def basis_gradient_stack(appearance, frame, warp_jac, residual):
    """Rows J_{a_j}^T r for every appearance basis column a_j.

    Returns (m, P): the derivative of each basis column's warped value
    contracted with the residual, used by the Newton cross blocks.  It is
    A^T U with U the adjoint image of `_adjoint_image`, so the m columns
    cost one sparse product and one GEMM.
    """
    U = _adjoint_image(frame, warp_jac, residual)
    return (U.T @ appearance.basis).T      # faster on the C-ordered basis


def _adjoint_image(frame, warp_jac, residual):
    """(k F, P) image U with a_j . U = J_{a_j}^T r for any column a_j.

    With D the frame's (2F, F) difference operator and dW the (2F, P)
    view of `warp_jac`, channel c of U is D^T diag(r_c) dW, r_c repeated
    on the two rows of each pixel: D^T with each stored value scaled by
    the residual at its row's pixel.  The k scaled copies of D^T stacked
    in one CSR matrix give the channel-major U in one product.
    """
    F, _, P = warp_jac.shape
    r = _channels(residual, F)
    k = r.shape[0]
    Dt = frame.diff.T.tocsr()                             # (F, 2F)
    nnz = Dt.nnz
    data = np.take(r, Dt.indices // 2, axis=1)            # (k, nnz)
    data *= Dt.data
    indptr = np.append((Dt.indptr[:-1] + nnz * np.arange(k)[:, None])
                       .ravel(), k * nnz)
    S = csr_matrix((data.ravel(), np.tile(Dt.indices, k), indptr),
                   shape=(k * F, 2 * F))
    return S @ warp_jac.reshape(2 * F, P)


@dataclass(frozen=True)
class NewtonTerms:
    """Hessian blocks of the sum-of-squares data term.

    Asymmetric composition uses (cc, cp, pp); bidirectional additionally
    fills (cq, pq, qq).  Block `cc` = A^T A is the identity, which
    `AppearanceModel.validate` guarantees the basis Gram matrix to be to
    1e-10.
    """

    cc: np.ndarray
    cp: np.ndarray
    pp: np.ndarray
    cq: np.ndarray = None
    pq: np.ndarray = None
    qq: np.ndarray = None

    @property
    def bidirectional(self):
        return self.qq is not None

    def full(self):
        """Assemble the dense symmetric Hessian over (dc, dp[, dq])."""
        if not self.bidirectional:
            return np.block([[self.cc, self.cp], [self.cp.T, self.pp]])
        return np.block([[self.cc, self.cp, self.cq],
                         [self.cp.T, self.pp, self.pq],
                         [self.cq.T, self.pq.T, self.qq]])


def newton_terms_asymmetric(appearance, frame, warp_jac, residual,
                            grad2_image, grad2_model, J_t, alpha):
    """Second-order blocks for the alpha-blended composition.

    The image side moves with alpha * dp and the model side with
    -(1 - alpha) * dp, so the residual-weighted curvature carries weights
    alpha^2 and -(1 - alpha)^2 and the appearance cross block gains
    +beta J_A^T r (signs fixed by the finite-difference Hessian oracle).
    """
    beta = 1.0 - alpha
    X = _adjoint_image(frame, warp_jac,
                       beta * np.asarray(residual, dtype=np.float64))
    X -= J_t
    cp = (X.T @ appearance.basis).T
    # The curvature is linear in the second derivatives: one pass.
    second = [alpha ** 2 * gi - beta ** 2 * gm
              for gi, gm in zip(grad2_image, grad2_model)]
    pp = J_t.T @ J_t + residual_curvature(second, warp_jac, residual)
    return NewtonTerms(cc=np.eye(appearance.n_components), cp=cp,
                       pp=0.5 * (pp + pp.T))


def newton_terms_bidirectional(appearance, frame, warp_jac, residual,
                               grad2_image, grad2_model, J_i, J_a):
    """Second-order blocks for independent image/model increments."""
    P = J_i.shape[1]
    U = _adjoint_image(frame, warp_jac, residual)
    cross = (np.hstack([J_i, J_a - U]).T @ appearance.basis).T
    cp, cq = -cross[:, :P], cross[:, P:]
    pp = J_i.T @ J_i + residual_curvature(grad2_image, warp_jac, residual)
    qq = J_a.T @ J_a - residual_curvature(grad2_model, warp_jac, residual)
    pq = -J_i.T @ J_a
    return NewtonTerms(cc=np.eye(appearance.n_components), cp=cp,
                       pp=0.5 * (pp + pp.T), cq=cq, pq=pq,
                       qq=0.5 * (qq + qq.T))
