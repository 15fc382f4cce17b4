"""Piecewise-affine motion model on a Delaunay-triangulated reference frame.

The reference frame is the integer pixel grid covering the mean shape.
Its `mask` alone fixes the pixel order: pixel i is the mask's i-th True
entry in row-major order, so a frame vector is `grid[mask]` and
`to_grid` scatters it back.  Frame positions are expressed in the mean
shape's coordinate system (x = column + x-origin, y = row + y-origin);
images use array coordinates where position (x, y) reads
pixels[int(y), int(x)].

Warping an image onto the frame is three sparse products.  The warp is
linear in the landmarks: `Triangulation.interp` is a sparse (F, n_points)
operator of barycentric weights, three per row, and its products with
the landmarks' x and y coordinates place the masked pixels under the
warp that takes the mean shape onto them.  These are two one-column
products, not one with the (n_points, 2) landmarks: with the stacking
of their results they are still faster than scipy's two-column
product, give the same bits, and leave each coordinate a contiguous
column for the sampler.  Sampling is linear in the pixels:
`bilinear_sample` builds a sparse (F, H * W) operator with the four
bilinear weights of each warped position's cell, writing them straight
into its CSR arrays, and its product with the image's (H * W, k) pixel
rows gives the warped values.

Composition reuses the mesh: `Triangulation.landmark_grad` (2v, v) holds
in row 2u + a the x_a-derivatives of the barycentric weights averaged over
the triangles at landmark u, so its product with the current landmarks is
the warp's averaged Jacobian (transposed) at each of them.

Warped image vectors are channel-major: vec[ch * F + i] holds channel
`ch` at masked pixel `i`.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import Delaunay, QhullError

from .errors import DegeneracyError, DimensionError
from .shape_model import (as_array, as_vector, project_shape, require_finite,
                          shape_to_points)

BARYCENTRIC_TOL = 1e-9
SLIVER_TOL = 1e-10    # a triangle's |det| over its longer edge squared


@dataclass(frozen=True)
class ReferenceFrame:
    """Masked pixel grid over the mean shape's convex hull.  Pixel i is
    the i-th True entry of `mask` in row-major order, in every per-pixel
    array and frame vector."""

    width: int
    height: int
    origin: np.ndarray       # (2,) x/y offset of pixel (row=0, col=0)
    mask: np.ndarray         # (height, width) bool, holds the pixel order
    positions: np.ndarray    # (F, 2) masked pixel positions, mean coords
    neighbors: np.ndarray    # (F, 4) dense index of -x, +x, -y, +y or -1
    diff: csr_matrix         # (2F, F) row 2f + a: derivative along axis a
                             # (0 = x, 1 = y) at pixel f
    diff_t: csr_matrix       # (F, 2F) diff.T, for the Newton adjoint image

    @property
    def n_pixels(self):
        return self.positions.shape[0]

    def to_grid(self, vec):
        """Scatter a channel-major vector onto (k, height, width) grids,
        zero outside the mask."""
        v = _channels(vec, self.n_pixels)
        grids = np.zeros((v.shape[0], self.height, self.width))
        grids[:, self.mask] = v
        return grids


def _channels(v, F):
    """(k, F) view of a channel-major frame vector of length k F."""
    v = as_array(v, None, "channel-major vector").ravel()
    if v.size % F != 0:
        raise DimensionError("vector length is not a multiple of F")
    return v.reshape(-1, F)


@dataclass(frozen=True)
class Triangulation:
    """Triangle list over the mean shape plus two fixed sparse operators."""

    triangles: np.ndarray    # (T, 3) vertex indices
    interp: csr_matrix       # (F, n_points) three entries per row
    landmark_grad: csr_matrix  # (2 n_points, n_points), see module doc


def rasterize_barycentric(vertices, triangles, queries):
    """Locate (n, 2) query points in a mesh of (v, 2) vertices.

    Returns (tri_id, bary) where tri_id[i] is the first triangle containing
    queries[i] (-1 if none) and bary[i] its clipped, renormalized
    barycentric coordinates.  Containment allows coordinates
    >= -BARYCENTRIC_TOL so that points exactly on edges are kept.  Every
    triangle passes `_triangle_edges` before any query is located, so a
    degenerate one raises `DegeneracyError` wherever it lies in the list.
    """
    a, e1, e2, det = _triangle_edges(as_array(
        vertices, (None, 2), "mesh vertices")[np.reshape(triangles, (-1, 3))])
    queries = as_array(queries, (None, 2), "query points")
    tri_id = np.full(len(queries), -1, dtype=np.int64)
    bary = np.zeros((len(queries), 3))
    for t in range(det.size):
        inv = np.array([[e2[t, 1], -e2[t, 0]],
                        [-e1[t, 1], e1[t, 0]]]) / det[t]
        uv = (queries - a[t]) @ inv.T
        coords = np.column_stack([1.0 - uv[:, 0] - uv[:, 1], uv])
        hit = np.all(coords >= -BARYCENTRIC_TOL, axis=1) & (tri_id < 0)
        tri_id[hit] = t
        bary[hit] = np.clip(coords[hit], 0.0, None)
    norm = bary.sum(axis=1)
    good = norm > 0
    bary[good] /= norm[good, None]
    return tri_id, bary


def _triangle_edges(corners):
    """(a, e1, e2, det) of (T, 3, 2) corners, e1 and e2 the edges from a.
    The one scale-free mesh rule: the first triangle with a NaN det or
    |det| <= SLIVER_TOL max(|e1|^2, |e2|^2) raises `DegeneracyError`."""
    a = corners[:, 0]
    e1, e2 = corners[:, 1] - a, corners[:, 2] - a
    det = e1[:, 0] * e2[:, 1] - e2[:, 0] * e1[:, 1]
    scale = np.maximum((e1 * e1).sum(axis=1), (e2 * e2).sum(axis=1))
    bad = np.flatnonzero(~(np.abs(det) > SLIVER_TOL * scale))
    if bad.size:
        raise DegeneracyError(f"degenerate triangle {bad[0]} in mesh")
    return a, e1, e2, det


def _difference_operator(neighbors):
    """Sparse (2F, F) first difference on interleaved rows from the dense
    neighbour table (-x, +x, -y, +y; -1 outside the mask): row 2f + a
    differentiates along axis a (0 = x, 1 = y) at pixel f, central where
    both neighbours are masked, one-sided where one is, and empty where
    the pixel has neither."""
    F = neighbors.shape[0]
    minus, plus = neighbors[:, 0::2], neighbors[:, 1::2]     # (F, 2)
    own = np.arange(F)[:, None]
    has_m, has_p = minus >= 0, plus >= 0
    keep = (has_m | has_p).ravel()
    w = np.where(has_m & has_p, 0.5, 1.0).ravel()[keep]
    lo = np.where(has_m, minus, own).ravel()[keep]
    hi = np.where(has_p, plus, own).ravel()[keep]
    rows = np.arange(2 * F)[keep]
    return csr_matrix((np.concatenate([-w, w]),
                       (np.concatenate([rows, rows]),
                        np.concatenate([lo, hi]))), shape=(2 * F, F))


def build_reference_frame(model):
    """Delaunay-triangulate the mean shape and rasterize its pixel grid.

    A grid point is masked when its barycentric coordinates in a triangle
    are all >= -BARYCENTRIC_TOL (and it is that close to the bounding box).
    Tie rule, as in `rasterize_barycentric`: a point on a shared edge or
    vertex takes the lowest-numbered triangle, so `find_simplex` runs
    brute force, not its order-dependent walk.  Weights are clipped at 0
    and renormalised.  A landmark that lies in no triangle, such as a
    repeated point, and a sliver (`_triangle_edges`, checked before Qhull's
    `transform` is read) raise `DegeneracyError`.
    """
    pts = shape_to_points(model.mean)
    try:
        delaunay = Delaunay(pts)
    except QhullError as exc:
        raise DegeneracyError(f"mean shape cannot be triangulated: {exc}")
    triangles = np.ascontiguousarray(delaunay.simplices, dtype=np.int64)
    _triangle_edges(pts[triangles])
    v = pts.shape[0]
    count = np.bincount(triangles.ravel(), minlength=v)
    if np.any(count == 0):
        raise DegeneracyError("landmark in no triangle of the mean shape")

    x0 = int(np.floor(pts[:, 0].min()))
    y0 = int(np.floor(pts[:, 1].min()))
    x1 = int(np.ceil(pts[:, 0].max()))
    y1 = int(np.ceil(pts[:, 1].max()))
    width, height = x1 - x0 + 1, y1 - y0 + 1

    cols, rows = np.meshgrid(np.arange(width), np.arange(height))
    queries = np.column_stack([(cols + x0).ravel(), (rows + y0).ravel()])
    simplex = delaunay.find_simplex(queries, bruteforce=True,
                                    tol=BARYCENTRIC_TOL)

    inside = simplex >= 0
    mask = inside.reshape(height, width)
    F = int(inside.sum())
    if F == 0:
        raise DegeneracyError("mean shape covers no pixels; rescale it")
    positions = queries[inside]

    # transform[s] = (T, r): coordinates T @ (x - r), then 1 - their sum.
    simplex = simplex[inside]
    T = delaunay.transform[simplex]                      # (F, 3, 2)
    uv = (T[:, :2] @ (positions - T[:, 2])[:, :, None])[:, :, 0]
    weights = np.clip(np.column_stack([uv, 1.0 - uv.sum(axis=1)]), 0.0, None)
    weights /= weights.sum(axis=1, keepdims=True)
    interp = csr_matrix((weights.ravel(), triangles[simplex].ravel(),
                         np.arange(0, 3 * F + 1, 3)), shape=(F, v))
    # Weight gradients in a triangle: T[0], T[1], -T[0] - T[1].  `vals`
    # axes: triangle, corner u (row 2u + a), vertex w (column), axis a.
    G = delaunay.transform[:, :2]
    G = np.concatenate([G, -G.sum(axis=1, keepdims=True)], axis=1)
    vals = G[:, None] / count[triangles][:, :, None, None]
    row = np.broadcast_to(2 * triangles[:, :, None, None] + np.arange(2),
                          vals.shape)
    col = np.broadcast_to(triangles[:, None, :, None], vals.shape)
    landmark_grad = csr_matrix((vals.ravel(), (row.ravel(), col.ravel())),
                               shape=(2 * v, v))

    # Pixel indices on the grid padded by one point of -1: its shifted
    # slices, read at the mask, give each pixel's four neighbours.
    index = np.full((height + 2, width + 2), -1, dtype=np.int64)
    index[1:-1, 1:-1][mask] = np.arange(F)
    neighbors = np.column_stack([
        index[1:-1, :-2][mask], index[1:-1, 2:][mask],     # -x, +x
        index[:-2, 1:-1][mask], index[2:, 1:-1][mask]])    # -y, +y

    origin = np.array([x0, y0], dtype=np.float64)
    diff = _difference_operator(neighbors)
    frame = ReferenceFrame(
        width=width, height=height, origin=origin, mask=mask,
        positions=positions, neighbors=neighbors,
        diff=diff, diff_t=diff.T.tocsr())
    tri = Triangulation(triangles=triangles, interp=interp,
                        landmark_grad=landmark_grad)
    return frame, tri


def bilinear_sample(image, positions):
    """Sample image channels at float positions, clamping to the border.

    image: (H, W) or (H, W, k); positions: (N, 2) in (x, y) array coords,
    in any memory order (an F-ordered array reads each coordinate as one
    contiguous column).  Returns (N, k) = S @ pixels, with S the sparse
    (N, H * W) operator of `_bilinear_operator`.  An image of another rank
    or with an empty axis, and non-finite positions, raise
    `DimensionError`.
    """
    img = as_array(image, None, "image")
    if img.ndim not in (2, 3) or 0 in img.shape:
        raise DimensionError("image must be a non-empty (H, W) or (H, W, k) "
                             f"array, got shape {img.shape}")
    if img.ndim == 2:
        img = img[:, :, None]
    h, w, k = img.shape
    positions = as_array(positions, (None, 2), "sample positions")
    require_finite("sample positions", positions)
    return _bilinear_operator(positions, h, w) @ img.reshape(-1, k)


def _bilinear_operator(positions, h, w):
    """Sparse (N, H * W) operator whose row i holds the weights of the
    four corners of position i's cell at the flat pixel indices y * W + x.

    The weights and corner columns are written straight into the CSR
    arrays, and every other temporary is overwritten in place, so the
    operator costs its own arrays and four N-vectors.  The corners are
    (x0, y0) plus the constant offsets dx = min(W - 1, 1) and
    dy = W min(H - 1, 1): on a 1-pixel side both corners along it are
    that pixel.  Corners of zero weight are stored too, so a NaN pixel at
    any corner makes the sample NaN.
    """
    n = positions.shape[0]
    idx = np.int32 if h * w < 2 ** 31 else np.int64
    fx = np.clip(positions[:, 0], 0.0, w - 1.0)
    fy = np.clip(positions[:, 1], 0.0, h - 1.0)
    x0, y0 = np.floor(fx), np.floor(fy)
    np.minimum(x0, max(w - 2, 0), out=x0)
    np.minimum(y0, max(h - 2, 0), out=y0)
    fx -= x0                                    # the fractions, in place
    fy -= y0
    dx, dy = min(w - 1, 1), w * min(h - 1, 1)
    cols = np.empty((n, 4), dtype=idx)
    y0 *= w
    y0 += x0                                    # flat index of (x0, y0)
    cols[:, 0] = y0
    np.add(cols[:, 0], dx, out=cols[:, 1])
    np.add(cols[:, 0], dy, out=cols[:, 2])
    np.add(cols[:, 2], dx, out=cols[:, 3])
    gx = np.subtract(1.0, fx, out=x0)
    gy = np.subtract(1.0, fy, out=y0)
    weights = np.empty((n, 4))
    np.multiply(gx, gy, out=weights[:, 0])
    np.multiply(fx, gy, out=weights[:, 1])
    np.multiply(gx, fy, out=weights[:, 2])
    np.multiply(fx, fy, out=weights[:, 3])
    indptr = np.arange(0, 4 * n + 1, 4, dtype=idx)
    return csr_matrix((weights.ravel(), cols.ravel(), indptr),
                      shape=(n, h * w))


def warp_to_reference(image, shape, frame, tri):
    """Warp an image onto the reference frame.

    Returns the channel-major vector of length F * k.  A non-finite
    sampled value, such as a NaN pixel under the face, raises
    `DimensionError`; non-finite pixels elsewhere in the image are not read.
    """
    shape = as_vector(shape, 2 * tri.interp.shape[1], "shape coordinates")
    x, y = shape_to_points(shape).T
    positions = np.array([tri.interp @ x, tri.interp @ y]).T  # see module doc
    vec = bilinear_sample(image, positions).T.ravel()
    require_finite("pixel under the warped face", vec)
    return vec


def sample_frame_image(grids, frame, positions):
    """Sample reference-frame grids at mean-coordinate positions.

    grids: (k, H, W) as returned by frame.to_grid.  Returns (N, k).
    """
    grids = as_array(grids, (None, frame.height, frame.width), "frame grids")
    positions = as_array(positions, (None, 2), "sample positions")
    return bilinear_sample(np.moveaxis(grids, 0, -1), positions - frame.origin)


def warp_jacobian_identity(model, tri):
    """Derivative of warped pixel positions w.r.t. the shape parameters,
    (F, 2, n_params): the warp is linear in the landmarks, so this is
    `interp` applied to the shape basis, the same at every p."""
    P = model.basis.shape[1]   # row v of the (v, 2P) view: x row, y row
    return (tri.interp @ model.basis.reshape(-1, 2 * P)).reshape(-1, 2, P)


def compose(model, tri, p, dp):
    """First-order composition p o dp of shape parameters.

    Each mean landmark's offset under dp (basis @ dp) is transported into
    the current shape by the current warp's Jacobian averaged over the
    landmark's triangles (`Triangulation.landmark_grad`); the moved
    landmarks are projected back onto the model.  A p or dp that is not
    n_params finite values raises `DimensionError`.
    """
    p = as_vector(p, model.n_params, "shape parameters")
    dp = as_vector(dp, model.n_params, "shape increment")
    if not dp.any():
        return p.copy()
    cur = shape_to_points(model.mean + model.basis @ p)
    jac_t = (tri.landmark_grad @ cur).reshape(-1, 2, 2)   # [u, a, b] = db/da
    ds = (model.basis @ dp).reshape(-1, 2)
    moved = cur + np.einsum("vab,va->vb", jac_t, ds)
    return project_shape(model, moved.ravel())


@dataclass(frozen=True)
class WarpEngine:
    """Bundle of the precomputed warp machinery for one shape model."""

    model: object
    frame: ReferenceFrame
    tri: Triangulation
    dWdp: np.ndarray

    @classmethod
    def build(cls, model):
        frame, tri = build_reference_frame(model)
        dWdp = warp_jacobian_identity(model, tri)
        return cls(model=model, frame=frame, tri=tri, dWdp=dWdp)

    @property
    def n_pixels(self):
        return self.frame.n_pixels

    def increment_positions(self, dp):
        """Positions W(x; dp) of the masked pixels under an incremental
        warp, in mean coordinates."""
        dp = as_array(dp, (self.dWdp.shape[2],), "shape increment")
        return self.frame.positions + self.dWdp @ dp
