"""Residual Jacobians and Hessians: masked image gradients, steepest-descent
images, Gauss-Newton Hessians and the second-order blocks used by Newton
steps.

The image gradient is a fixed sparse linear map per reference frame
(`ReferenceFrame.diff_x`/`diff_y`): central differences on the masked
grid, one-sided differences where only one neighbour is masked and zero
where the pixel is isolated.  Second derivatives apply the same operator
twice.  The Newton cross block J_{a_j}^T r of every appearance column
uses the operator's adjoint, so no per-column gradient is formed.
"""

from dataclasses import dataclass

import numpy as np

from .appearance import AppearanceModel, BpoOperator, project_out
from .errors import DimensionError


def image_gradient(v, frame):
    """Per-channel spatial gradient of a channel-major frame vector: the
    frame's difference operators applied to each channel.

    Returns (grad_x, grad_y), each of length F * k.
    """
    v = np.asarray(v, dtype=np.float64).ravel()
    F = frame.n_pixels
    if v.size % F != 0:
        raise DimensionError("vector length is not a multiple of F")
    vals = v.reshape(-1, F).T
    return (frame.diff_x @ vals).T.ravel(), (frame.diff_y @ vals).T.ravel()


def second_gradient(v, frame):
    """Second derivatives (xx, xy, yx, yy) by repeated differencing."""
    gx, gy = image_gradient(v, frame)
    gxx, gxy = image_gradient(gx, frame)
    gyx, gyy = image_gradient(gy, frame)
    return gxx, gxy, gyx, gyy


def steepest_descent(grad_x, grad_y, warp_jac, active=None):
    """Contract an image gradient with the warp Jacobian.

    grad_x/grad_y: (F * k,) channel-major; warp_jac: (F, 2, P).
    `active` optionally selects a pixel subset (indices into 0..F-1).
    Returns (F_active * k, P).
    """
    F = warp_jac.shape[0]
    gx = np.asarray(grad_x, dtype=np.float64).reshape(-1, F)
    gy = np.asarray(grad_y, dtype=np.float64).reshape(-1, F)
    if gx.shape != gy.shape:
        raise DimensionError("gradient components disagree in shape")
    if active is not None:
        gx, gy = gx[:, active], gy[:, active]
        warp_jac = warp_jac[active]
    J = (gx[..., None] * warp_jac[None, :, 0, :]
         + gy[..., None] * warp_jac[None, :, 1, :])
    return J.reshape(-1, J.shape[-1])


def blend_gradients(grad_image, grad_model, alpha):
    """alpha-weighted combination of image- and model-side gradients."""
    beta = 1.0 - alpha
    gx = alpha * grad_image[0] + beta * grad_model[0]
    gy = alpha * grad_image[1] + beta * grad_model[1]
    return gx, gy


def gn_hessian(J, projector=None):
    """Gauss-Newton Hessian J^T J, optionally weighted by a project-out or
    Bayesian project-out operator applied as factored products."""
    J = np.asarray(J, dtype=np.float64)
    if not np.all(np.isfinite(J)):
        raise DimensionError("Jacobian contains non-finite entries")
    if projector is None:
        H = J.T @ J
    elif isinstance(projector, AppearanceModel):
        PJ = project_out(projector, J)
        H = PJ.T @ PJ  # equals J^T (I - A A^T) J by idempotency
    elif isinstance(projector, BpoOperator):
        H = J.T @ projector.apply(J)
    else:
        raise DimensionError(f"unsupported projector {type(projector)!r}")
    return 0.5 * (H + H.T)


def residual_curvature(second, warp_jac, weighted_residual, active=None):
    """Residual-weighted curvature sum_f w_f dW^T grad2 dW.

    `second` is the (xx, xy, yx, yy) tuple from second_gradient over the
    full frame; `weighted_residual` is channel-major over the ACTIVE
    pixels (already carrying any project-out weighting).  Cross terms are
    symmetrized.
    """
    F = warp_jac.shape[0]
    comps = [np.asarray(g, dtype=np.float64).reshape(-1, F) for g in second]
    if active is not None:
        comps = [g[:, active] for g in comps]
        warp_jac = warp_jac[active]
    r = np.asarray(weighted_residual, dtype=np.float64).reshape(
        -1, warp_jac.shape[0])
    wxx = np.einsum("cf,cf->f", r, comps[0])[:, None]
    wxy = np.einsum("cf,cf->f", r, 0.5 * (comps[1] + comps[2]))[:, None]
    wyy = np.einsum("cf,cf->f", r, comps[3])[:, None]
    dx = warp_jac[:, 0, :]
    dy = warp_jac[:, 1, :]
    H = dx.T @ (wxx * dx + wxy * dy) + dy.T @ (wxy * dx + wyy * dy)
    return 0.5 * (H + H.T)


def basis_gradient_stack(appearance, frame, warp_jac, residual, active=None):
    """Rows J_{a_j}^T r for every appearance basis column a_j.

    Returns (m, P): the derivative of each basis column's warped value
    contracted with the residual, used by the Newton cross blocks.  With
    D the frame's difference operators, J_{a_j}^T r = a_j . U where
    U[:, p] = Dx^T (r * dW_x[:, p]) + Dy^T (r * dW_y[:, p]) per channel,
    so the m columns cost two sparse adjoint products and one GEMM.  A
    residual over `active` pixels enters as zero on the other pixels.
    """
    F, _, P = warp_jac.shape
    k = appearance.n_features // F
    r = np.asarray(residual, dtype=np.float64).reshape(k, -1)
    if active is not None:
        r_full = np.zeros((k, F))
        r_full[:, active] = r
        r = r_full
    rt = r.T[:, :, None]                                  # (F, k, 1)
    U = (frame.diff_x.T @ (rt * warp_jac[:, None, 0, :]).reshape(F, -1)
         + frame.diff_y.T @ (rt * warp_jac[:, None, 1, :]).reshape(F, -1))
    U = U.reshape(F, k, P).transpose(1, 0, 2).reshape(k * F, P)
    return appearance.basis.T @ U


@dataclass(frozen=True)
class NewtonTerms:
    """Hessian blocks of the sum-of-squares data term.

    Asymmetric composition uses (cc, cp, pp); bidirectional additionally
    fills (cq, pq, qq).  Block `cc` is A_act^T A_act over the active rows
    of the appearance basis.  On the full frame (`active` None) it is set
    to the identity, which `AppearanceModel.validate` guarantees the basis
    Gram matrix to be to 1e-10; on a pixel subset it is computed.
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
        m, P = self.cp.shape
        if not self.bidirectional:
            H = np.zeros((m + P, m + P))
            H[:m, :m] = self.cc
            H[:m, m:] = self.cp
            H[m:, :m] = self.cp.T
            H[m:, m:] = self.pp
            return H
        n = m + 2 * P
        H = np.zeros((n, n))
        H[:m, :m] = self.cc
        H[:m, m:m + P] = self.cp
        H[:m, m + P:] = self.cq
        H[m:m + P, :m] = self.cp.T
        H[m:m + P, m:m + P] = self.pp
        H[m:m + P, m + P:] = self.pq
        H[m + P:, :m] = self.cq.T
        H[m + P:, m:m + P] = self.pq.T
        H[m + P:, m + P:] = self.qq
        return H


def newton_terms_asymmetric(appearance, frame, warp_jac, residual,
                            grad2_image, grad2_model, J_t, alpha,
                            active=None):
    """Second-order blocks for the alpha-blended composition.

    The image side moves with alpha * dp and the model side with
    -(1 - alpha) * dp, so the residual-weighted curvature carries weights
    alpha^2 and -(1 - alpha)^2 and the appearance cross block gains
    +beta J_A^T r (signs fixed by the finite-difference Hessian oracle).
    """
    beta = 1.0 - alpha
    Jar = basis_gradient_stack(appearance, frame, warp_jac, residual,
                               active=active)
    A_act = _active_basis(appearance, frame, active)
    cc = np.eye(A_act.shape[1]) if active is None else A_act.T @ A_act
    cp = beta * Jar - A_act.T @ J_t
    curv_i = residual_curvature(grad2_image, warp_jac, residual,
                                active=active)
    curv_m = residual_curvature(grad2_model, warp_jac, residual,
                                active=active)
    pp = J_t.T @ J_t + alpha ** 2 * curv_i - beta ** 2 * curv_m
    return NewtonTerms(cc=cc, cp=cp, pp=0.5 * (pp + pp.T))


def newton_terms_bidirectional(appearance, frame, warp_jac, residual,
                               grad2_image, grad2_model, J_i, J_a,
                               active=None):
    """Second-order blocks for independent image/model increments."""
    A_act = _active_basis(appearance, frame, active)
    cc = np.eye(A_act.shape[1]) if active is None else A_act.T @ A_act
    Jar = basis_gradient_stack(appearance, frame, warp_jac, residual,
                               active=active)
    cp = -A_act.T @ J_i
    cq = -Jar + A_act.T @ J_a
    curv_i = residual_curvature(grad2_image, warp_jac, residual,
                                active=active)
    curv_m = residual_curvature(grad2_model, warp_jac, residual,
                                active=active)
    pp = J_i.T @ J_i + curv_i
    qq = J_a.T @ J_a - curv_m
    pq = -J_i.T @ J_a
    return NewtonTerms(cc=cc, cp=cp, pp=0.5 * (pp + pp.T), cq=cq, pq=pq,
                       qq=0.5 * (qq + qq.T))


def _active_basis(appearance, frame, active):
    if active is None:
        return appearance.basis
    F = frame.n_pixels
    k = appearance.n_features // F
    rows = np.concatenate([np.asarray(active) + ch * F for ch in range(k)])
    return appearance.basis[rows]
