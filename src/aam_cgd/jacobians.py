"""Residual Jacobians and Hessians: masked image gradients, steepest-descent
images, Gauss-Newton Hessians and the second-order blocks used by Newton
steps.

The image gradient is a fixed sparse linear map per reference frame,
`ReferenceFrame.diff`: a (2F, F) difference operator D whose row 2f + a
differentiates along axis a (0 = x, 1 = y) at pixel f, central on the
masked grid, one-sided where only one neighbour is masked and zero where
the pixel is isolated.  Its rows are interleaved as the rows of the
copy-free (2F, P) view dW of the (F, 2, P) warp Jacobian, so:

- the gradient is one product with D per channel, a (2, k F) array,
  and the Hessian is `image_gradient` twice, a (3, k F) array (xx, xy, yy);
- the Newton cross block J_{a_j}^T r of every appearance column goes
  through the adjoint image D^T diag(r) dW of `_adjoint_image`, one
  sparse product for all channels, so no per-column gradient is formed;
- the residual-weighted curvature is one GEMM dW^T (W dW), with W the
  per-pixel 2 x 2 second-derivative weights (`residual_curvature`).

The steepest-descent images are one (k, 2) @ (2, P) product per pixel,
all channels' gradients at that pixel against its warp Jacobian, written
through the (F, k, P) view straight into the C-contiguous, channel-major
(k F, P) result (`steepest_descent`).

Project-out (PO) and Bayesian project-out (BPO) Hessians read their
weight W = w I + A diag(v) A^T from the one table
`appearance.cost_weights` and are factored through the m x P product
B = A^T J as w J^T J + B^T diag(v) B (see `gn_hessian`), so no projected
(k F, P) copy of J is built.

Both compositions' Newton blocks have one shape, `NewtonTerms`; the
bidirectional blocks are the asymmetric ones at alpha = 1 (image side)
and alpha = 0 (model side) plus the cross term -J_i^T J_a.

Every input array is converted and its shape checked by the one rule
`shape_model.as_array`, so nothing is broadcast; non-finite input raises
from the one check `shape_model.require_finite`, run on the small blocks.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .appearance import cost_weights
from .shape_model import as_array, require_finite
from .warp import _channels


def image_gradient(v, frame):
    """Per-channel spatial gradient of a channel-major frame vector: one
    product of each channel with the frame's difference operator.

    Returns the (2, F * k) array whose rows are the channel-major x and y
    derivatives.
    """
    F = frame.n_pixels
    c = _channels(v, F)
    g = np.empty((2, c.shape[0], F))
    for i, row in enumerate(c):
        g[:, i] = (frame.diff @ row).reshape(F, 2).T     # row 2f + a
    return g.reshape(2, -1)


def second_gradient(v, frame):
    """Symmetric image Hessian as the gradient of the gradient: the
    (3, F * k) array of rows xx = Dx Dx v, xy = (Dy Dx v + Dx Dy v) / 2
    and yy = Dy Dy v, each channel-major."""
    g = image_gradient(image_gradient(v, frame), frame)
    (xx, xy), (yx, yy) = g.reshape(2, 2, -1)    # [a, b] = D_a of row b
    return np.array([xx, 0.5 * (yx + xy), yy])


def steepest_descent(grad_x, grad_y, warp_jac):
    """Contract an image gradient with the warp Jacobian.

    grad_x/grad_y: (F * k,) channel-major, one shape; warp_jac: (F, 2, P).
    Returns the C-contiguous (F * k, P) array whose row (c, f) is
    [gx, gy]_{c,f} @ warp_jac[f]: per pixel f one (k, 2) @ (2, P)
    product over all channels, written through the (F, k, P) view
    straight into the channel-major result.
    """
    warp_jac, F, P = _warp_jacobian(warp_jac)
    gx = as_array(grad_x, None, "x gradient")
    gy = as_array(grad_y, gx.shape, "y gradient")
    g = np.stack([_channels(gx, F), _channels(gy, F)], axis=-1)  # (k, F, 2)
    J = np.empty((g.shape[0], F, P))
    np.matmul(g.transpose(1, 0, 2), warp_jac, out=J.transpose(1, 0, 2))
    return J.reshape(-1, P)


def _warp_jacobian(warp_jac):
    """An (F, 2, P) warp Jacobian as an array, with its F and P."""
    W = as_array(warp_jac, (None, 2, None), "warp Jacobian")
    return W, W.shape[0], W.shape[2]


def blend_gradients(grad_image, grad_model, alpha):
    """alpha-weighted combination of image- and model-side (2, k F)
    gradients of one shape."""
    gi = as_array(grad_image, (2, None), "image-side gradient")
    gm = as_array(grad_model, gi.shape, "model-side gradient")
    beta = 1.0 - alpha
    return alpha * gi + beta * gm


@np.errstate(invalid="ignore", over="ignore")   # see the check at the end
def gn_hessian(J, cost=None):
    """Gauss-Newton Hessian J^T W J of a (k F, P) Jacobian.

    W is the identity (`cost` None) or the weight w I + A diag(v) A^T of
    a project-out or Bayesian project-out cost, its (A, w, v) read from
    the one table `appearance.cost_weights`.  With B = A^T J the weighted
    form needs only B: w J^T J + B^T diag(v) B, which for project-out
    (w = 1, v = -1) is J^T J - B^T B.
    """
    A, w, v = (None, None, None) if cost is None else cost_weights(cost)
    J = as_array(J, (None if A is None else A.shape[0], None), "Jacobian")
    H = J.T @ J
    if A is not None:
        # (J^T A)^T runs a few percent faster than A^T J at P = 24.
        B = (J.T @ A).T
        H = w * H + B.T @ (np.reshape(v, (-1, 1)) * B)
    H = 0.5 * (H + H.T)
    require_finite("Jacobian", H)
    return H


@np.errstate(invalid="ignore", over="ignore")   # checked by require_finite
def residual_curvature(second, warp_jac, weighted_residual):
    """Residual-weighted curvature sum_f dW_f^T W_f dW_f, one GEMM.

    `second` is the (3, k F) array of Hessian rows (xx, xy, yy) from
    `second_gradient`, any other shape raising `DimensionError`;
    `weighted_residual` is channel-major (already carrying any
    project-out weighting).  W_f is the symmetric 2 x 2 sum over channels
    of the residual times the Hessian; over the (2F, P) view dW of
    `warp_jac` the sum is dW^T (W dW).
    """
    warp_jac, F, P = _warp_jacobian(warp_jac)
    r = _channels(weighted_residual, F)
    s = as_array(second, (3, r.size), "Hessian rows").reshape(3, -1, F)
    w = np.einsum("cf,scf->fs", r, s)                     # (F, 3)
    W = w[:, [[0, 1], [1, 2]]]
    H = warp_jac.reshape(-1, P).T @ (W @ warp_jac).reshape(-1, P)
    H = 0.5 * (H + H.T)
    require_finite("residual or curvature", H)
    return H


@np.errstate(invalid="ignore", over="ignore")   # checked by require_finite
def basis_gradient_stack(appearance, frame, warp_jac, residual):
    """Rows J_{a_j}^T r for every appearance basis column a_j.

    Returns (m, P): the derivative of each basis column's warped value
    contracted with the residual, the residual-weighted part of the
    Newton cross block: `newton_terms_asymmetric` gives beta times it
    minus A^T J_t.
    It is A^T U with U the adjoint image of `_adjoint_image`, so the m
    columns cost one sparse product and one GEMM.
    """
    warp_jac, r = _checked_inputs(appearance, warp_jac, residual)
    U = _adjoint_image(frame, warp_jac, r)
    G = (U.T @ appearance.basis).T          # as B in `gn_hessian`
    require_finite("warp Jacobian or residual", G)
    return G


def _checked_inputs(appearance, warp_jac, residual, *jacobians):
    """The warp Jacobian, the residual flattened and every Jacobian as
    arrays, after checking that the residual has the appearance model's
    k F values and every Jacobian is (k F, P), P the warp Jacobian's."""
    n = appearance.n_features
    warp_jac, _, P = _warp_jacobian(warp_jac)
    r = as_array(residual, None, "residual").ravel()
    return (warp_jac, as_array(r, (n,), "residual"),
            *(as_array(J, (n, P), "Jacobian") for J in jacobians))


def _adjoint_image(frame, warp_jac, residual):
    """(k F, P) image U with a_j . U = J_{a_j}^T r for any column a_j.

    With D the frame's (2F, F) difference operator and dW the (2F, P)
    view of `warp_jac`, channel c of U is D^T diag(r_c) dW, r_c repeated
    on the two rows of each pixel: D^T with each stored value scaled by
    the residual at its row's pixel.  The k scaled copies of the frame's
    CSR D^T stacked in one CSR matrix give the channel-major U in one
    product.
    """
    warp_jac, F, P = _warp_jacobian(warp_jac)
    r = _channels(residual, F)
    k = r.shape[0]
    Dt = frame.diff_t                                     # (F, 2F)
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
    """Hessian blocks of the sum-of-squares data term over (dc, dx), dx
    the shape increment: dp for asymmetric composition, (dp, dq) for
    bidirectional.

    `cross` is the (m, n_x) block of dc against dx and `xx` the
    (n_x, n_x) block of dx, so xx - cross^T cross is the Schur complement
    on dc.  Block cc = A^T A is the identity, which
    `AppearanceModel.validate` guarantees the basis Gram matrix to be to
    1e-10, so it is not stored: `full` fills it in.
    """

    cross: np.ndarray
    xx: np.ndarray

    def full(self):
        """Assemble the dense symmetric Hessian over (dc, dx)."""
        cross = self.cross
        return np.block([[np.eye(cross.shape[0]), cross],
                         [cross.T, self.xx]])


@np.errstate(invalid="ignore", over="ignore")   # checked by require_finite
def newton_terms_asymmetric(appearance, frame, warp_jac, residual,
                            grad2_image, grad2_model, J_t, alpha):
    """Second-order blocks over (dc, dp) for the alpha-blended
    composition: `cross` (m, P) and `xx` (P, P).

    The image side moves with alpha * dp and the model side with
    -(1 - alpha) * dp, so the residual-weighted curvature carries weights
    alpha^2 and -(1 - alpha)^2 and the appearance cross block gains
    +beta J_A^T r (signs fixed by the finite-difference Hessian oracle).
    """
    beta = 1.0 - alpha
    warp_jac, r, J_t = _checked_inputs(appearance, warp_jac, residual, J_t)
    X = _adjoint_image(frame, warp_jac, beta * r)
    X -= J_t
    cp = (X.T @ appearance.basis).T         # as B in `gn_hessian`
    # The curvature is linear in the second derivatives: one pass.
    rows = (3, r.size)
    second = (alpha ** 2 * as_array(grad2_image, rows, "image Hessian rows")
              - beta ** 2 * as_array(grad2_model, rows, "model Hessian rows"))
    pp = J_t.T @ J_t + residual_curvature(second, warp_jac, r)
    require_finite("Jacobian, residual or curvature", cp, pp)
    return NewtonTerms(cross=cp, xx=pp)


def newton_terms_bidirectional(appearance, frame, warp_jac, residual,
                               grad2_image, grad2_model, J_i, J_a):
    """Second-order blocks for independent image and model increments
    (dp, dq): the asymmetric blocks with one side fixed.

    alpha = 1 moves only the image, by dp.  alpha = 0 moves only the
    model, by -dq, so its cross block changes sign.  The two sides meet
    in -J_i^T J_a alone: the residual's curvature has no mixed term.
    """
    J_i, J_a = (as_array(J, None, "Jacobian") for J in (J_i, J_a))
    args = (appearance, frame, warp_jac, residual, grad2_image, grad2_model)
    image = newton_terms_asymmetric(*args, J_i, 1.0)
    model = newton_terms_asymmetric(*args, J_a, 0.0)
    pq = -J_i.T @ J_a
    return NewtonTerms(cross=np.hstack([image.cross, -model.cross]),
                       xx=np.block([[image.xx, pq], [pq.T, model.xx]]))
