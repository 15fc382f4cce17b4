"""Independent oracles used across the test suite.

The cost oracles evaluate data terms at the positions an incremental warp
moves the pixels to; they never touch the analytic Jacobian code.  The
gradient and Newton-block oracles spell the library's fast forms out by
definition: neighbour by neighbour, column by column, pixel by pixel.
Test images are bilinear fields (a + b x + c y + d x y), which bilinear
interpolation and grid differences both reproduce exactly wherever a
pixel has a neighbour along each axis, so analytic and finite-difference
quantities must agree to machine precision on every pixel of such a
frame, its border included.
"""

import numpy as np

from aam_cgd.appearance import AppearanceModel, appearance_instance


def interior_pixels(frame, radius=1):
    """Dense indices of masked pixels whose full (2*radius+1)^2
    neighbourhood is masked; sampling cells around them stay in-mask."""
    mask = frame.mask
    ok = mask.copy()
    for dr in range(-radius, radius + 1):
        for dc in range(-radius, radius + 1):
            shifted = np.zeros_like(mask)
            src = mask[max(0, -dr):mask.shape[0] - max(0, dr),
                       max(0, -dc):mask.shape[1] - max(0, dc)]
            shifted[max(0, dr):mask.shape[0] - max(0, -dr),
                    max(0, dc):mask.shape[1] - max(0, -dc)] = src
            ok &= shifted
    return frame.index_grid[ok & mask]


def directional_diff(vals, minus, plus):
    """First difference of (k, F) channel grids along one axis given dense
    neighbour indices (-1 when the neighbour is outside the mask): central,
    one-sided or zero, written out case by case."""
    has_m = minus >= 0
    has_p = plus >= 0
    vm = vals[:, np.where(has_m, minus, 0)]
    vp = vals[:, np.where(has_p, plus, 0)]
    g = np.zeros_like(vals)
    both = has_m & has_p
    g[:, both] = 0.5 * (vp[:, both] - vm[:, both])
    only_p = has_p & ~has_m
    g[:, only_p] = vp[:, only_p] - vals[:, only_p]
    only_m = has_m & ~has_p
    g[:, only_m] = vals[:, only_m] - vm[:, only_m]
    return g


def neighbour_gradient(v, frame):
    """Channel-major (grad_x, grad_y) from the frame's neighbour table."""
    vals = np.asarray(v, dtype=np.float64).reshape(-1, frame.n_pixels)
    nb = frame.neighbors
    return (directional_diff(vals, nb[:, 0], nb[:, 1]).ravel(),
            directional_diff(vals, nb[:, 2], nb[:, 3]).ravel())


def steepest_descent_loop(grad_x, grad_y, warp_jac):
    """Steepest-descent images one channel and one pixel at a time:
    row (c, f) is gx[c, f] * dW[f, 0, :] + gy[c, f] * dW[f, 1, :]."""
    F, _, P = warp_jac.shape
    gx = np.asarray(grad_x, dtype=np.float64).reshape(-1, F)
    gy = np.asarray(grad_y, dtype=np.float64).reshape(-1, F)
    J = np.zeros((gx.shape[0] * F, P))
    row = 0
    for c in range(gx.shape[0]):
        for f in range(F):
            J[row] = (gx[c, f] * warp_jac[f, 0, :]
                      + gy[c, f] * warp_jac[f, 1, :])
            row += 1
    return J


def basis_gradient_loop(appearance, frame, warp_jac, residual):
    """J_{a_j}^T r by definition: per basis column, its image gradient,
    its steepest-descent images, then J_j^T r."""
    out = np.zeros((appearance.n_components, warp_jac.shape[2]))
    for j in range(appearance.n_components):
        gx, gy = neighbour_gradient(appearance.basis[:, j], frame)
        Jj = steepest_descent_loop(gx, gy, warp_jac)
        out[j] = Jj.T @ residual
    return out


def residual_curvature_sum(second, warp_jac, weighted_residual):
    """sum over pixels f and channels c of r_cf dW_f^T S_cf dW_f, with
    S_cf the symmetrized 2x2 second-derivative matrix of channel c at
    pixel f; one pixel at a time."""
    F, _, P = warp_jac.shape
    gxx, gxy, gyx, gyy = (np.asarray(g, dtype=np.float64).reshape(-1, F)
                          for g in second)
    r = np.asarray(weighted_residual, dtype=np.float64).reshape(-1, F)
    H = np.zeros((P, P))
    for f in range(F):
        dW = warp_jac[f]
        for c in range(r.shape[0]):
            off = 0.5 * (gxy[c, f] + gyx[c, f])
            S = np.array([[gxx[c, f], off], [off, gyy[c, f]]])
            H += r[c, f] * (dW.T @ S @ dW)
    return H


def bilinear_reference(image, positions):
    """Bilinear sampling with border clamping, written out corner by
    corner: four 2-D gathers and their weights.  (H, W[, k]) image,
    (N, 2) positions in (x, y) array coords; returns (N, k)."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 2:
        img = img[:, :, None]
    h, w, _ = img.shape
    x = np.clip(positions[:, 0], 0.0, w - 1.0)
    y = np.clip(positions[:, 1], 0.0, h - 1.0)
    x0 = np.floor(x).astype(np.int64)
    y0 = np.floor(y).astype(np.int64)
    x0 = np.minimum(x0, w - 2) if w > 1 else x0 * 0
    y0 = np.minimum(y0, h - 2) if h > 1 else y0 * 0
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (x - x0)[:, None]
    fy = (y - y0)[:, None]
    v00 = img[y0, x0]
    v01 = img[y0, x1]
    v10 = img[y1, x0]
    v11 = img[y1, x1]
    return (v00 * (1 - fx) * (1 - fy) + v01 * fx * (1 - fy)
            + v10 * (1 - fx) * fy + v11 * fx * fy)


def similarity_lstsq(source, target):
    """Least-squares similarity taking shape `source` onto `target`, as
    the real 4-parameter problem target ~ D @ (p, q, tx, ty) with rows
    [x, -y, 1, 0] and [y, x, 0, 1] per source landmark (x, y), solved by
    `np.linalg.lstsq`.  Returns (p, q, tx, ty): scale times the cosine and
    sine of the rotation, then the translation."""
    pts = np.asarray(source, dtype=np.float64).reshape(-1, 2)
    x, y = pts[:, 0], pts[:, 1]
    one, zero = np.ones_like(x), np.zeros_like(x)
    D = np.empty((2 * x.size, 4))
    D[0::2] = np.column_stack([x, -y, one, zero])
    D[1::2] = np.column_stack([y, x, zero, one])
    params, *_ = np.linalg.lstsq(D, np.asarray(target, dtype=np.float64),
                                 rcond=None)
    return params


def bilinear_vector(frame, coeffs_per_channel):
    """Evaluate bilinear fields on the masked pixels, channel-major."""
    x, y = frame.positions[:, 0], frame.positions[:, 1]
    chans = [a + b * x + c * y + d * x * y
             for (a, b, c, d) in coeffs_per_channel]
    return np.concatenate(chans)


def make_bilinear_appearance(frame, rng, m=2, k=1, noise=0.05):
    """Appearance model whose mean and basis columns are bilinear fields."""
    def draw():
        return rng.standard_normal(4) * np.array([1.0, 0.12, 0.12, 0.01])

    cols = np.column_stack(
        [bilinear_vector(frame, [draw() for _ in range(k)])
         for _ in range(m)])
    basis, _ = np.linalg.qr(cols)
    mean = bilinear_vector(frame, [draw() for _ in range(k)]) + 1.0
    mean = mean - basis @ (basis.T @ mean)
    eigenvalues = np.linspace(2.0, 1.0, m) if m else np.zeros(0)
    return AppearanceModel(mean=mean, basis=basis,
                           eigenvalues=eigenvalues,
                           image_noise=noise).validate()


def field_at(frame, vec, positions):
    """Channel-major values at `positions` of a frame vector that is a
    bilinear field in each channel: one least-squares fit on the design
    [1, x, y, x y] at the pixel positions.  The fit must be exact to
    round-off, so a vector that is not such a field fails loudly."""
    centre = frame.positions.mean(axis=0)

    def design(pos):
        x, y = (pos - centre).T
        return np.column_stack([np.ones_like(x), x, y, x * y])

    chans = np.asarray(vec, dtype=np.float64).reshape(-1, frame.n_pixels).T
    D = design(frame.positions)
    coef = np.linalg.lstsq(D, chans, rcond=None)[0]
    misfit = np.abs(D @ coef - chans).max()
    assert misfit <= 1e-10 * np.abs(chans).max(), "not a bilinear field"
    return (design(positions) @ coef).T.ravel()


class BidirectionalCost:
    """Oracle for 0.5 || i[dp] - (mean + A (c + dc))[dq] ||^2 over the
    whole frame, v[dp] being v evaluated at W(x; dp).  The asymmetric
    cost with blend alpha is (dc, alpha dp, -(1 - alpha) dp).

    The image and the model are bilinear fields, evaluated by `field_at`.
    The analytic derivatives they are compared with are exact only where
    every pixel has a neighbour along each axis (the image gradient is
    zero at an isolated pixel), so the frame must have no isolated pixel.
    """

    def __init__(self, engine, appearance, i_vec, c):
        nb = engine.frame.neighbors
        for minus, plus in ((nb[:, 0], nb[:, 1]), (nb[:, 2], nb[:, 3])):
            assert not np.any((minus < 0) & (plus < 0)), "isolated pixel"
        self.engine = engine
        self.appearance = appearance
        self.i_vec = i_vec
        self.c = np.asarray(c, dtype=np.float64)

    def __call__(self, dc, dp, dq):
        eng = self.engine
        model_vec = appearance_instance(self.appearance, self.c + dc)
        r = (field_at(eng.frame, self.i_vec, eng.increment_positions(dp))
             - field_at(eng.frame, model_vec, eng.increment_positions(dq)))
        return 0.5 * float(r @ r)


class ToyState:
    """Shared toy fitting state: warp engine, bilinear appearance model,
    a synthetic warped image and current appearance parameters chosen so
    the residual is non-trivial."""

    def __init__(self, engine, appearance, i_vec, c):
        self.engine = engine
        self.appearance = appearance
        self.i_vec = i_vec
        self.c = c

    @property
    def n_channels(self):
        return self.appearance.n_features // self.engine.frame.n_pixels


def make_toy_state(rng, v=6, n_modes=2, m=2, k=1, radius=5.0):
    from conftest import make_toy_shape_model
    from aam_cgd.warp import WarpEngine

    shape_model = make_toy_shape_model(rng, v=v, n_modes=n_modes,
                                       radius=radius)
    engine = WarpEngine.build(shape_model)
    appearance = make_bilinear_appearance(engine.frame, rng, m=m, k=k)
    c_true = 0.5 * rng.standard_normal(m)
    off_span = bilinear_vector(
        engine.frame,
        [rng.standard_normal(4) * np.array([0.3, 0.05, 0.05, 0.004])
         for _ in range(k)])
    i_vec = appearance_instance(appearance, c_true) + off_span
    c = 0.3 * rng.standard_normal(m)
    return ToyState(engine, appearance, i_vec, c)


def fd_gradient(f, x0, step=1e-5):
    x0 = np.asarray(x0, dtype=np.float64)
    g = np.zeros_like(x0)
    for i in range(x0.size):
        e = np.zeros_like(x0)
        e[i] = step
        g[i] = (f(x0 + e) - f(x0 - e)) / (2 * step)
    return g


def fd_hessian(f, x0, step=1e-4):
    x0 = np.asarray(x0, dtype=np.float64)
    d = x0.size
    H = np.zeros((d, d))
    f0 = f(x0)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = step
        H[i, i] = (f(x0 + ei) - 2 * f0 + f(x0 - ei)) / step ** 2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = step
            H[i, j] = (f(x0 + ei + ej) - f(x0 + ei - ej)
                       - f(x0 - ei + ej) + f(x0 - ei - ej)) / (4 * step ** 2)
            H[j, i] = H[i, j]
    return H
