"""Piecewise-affine motion model on a Delaunay-triangulated reference frame.

The reference frame is the integer pixel grid covering the mean shape.
Frame positions are expressed in the mean shape's coordinate system
(x = column + x-origin, y = row + y-origin); images use array coordinates
where position (x, y) reads pixels[int(y), int(x)].

Warping an image onto the frame is two sparse products.  The warp is
linear in the landmarks: `Triangulation.interp` is a sparse (F, n_points)
operator of barycentric weights, three per row, and `interp @ points`
places the masked pixels under the warp that takes the mean shape onto
`points`.  Sampling is linear in the pixels: `bilinear_sample` builds a
sparse (F, H * W) operator with the four bilinear weights of each
warped position's cell, and its product with the image's (H * W, k)
pixel rows gives the warped values.

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
from .shape_model import (as_shape, project_shape, shape_instance,
                          shape_to_points)

BARYCENTRIC_TOL = 1e-9


@dataclass(frozen=True)
class ReferenceFrame:
    """Masked pixel grid over the mean shape's convex hull."""

    width: int
    height: int
    origin: np.ndarray       # (2,) x/y offset of pixel (row=0, col=0)
    mask: np.ndarray         # (height, width) bool
    index_grid: np.ndarray   # (height, width) dense index or -1
    positions: np.ndarray    # (F, 2) masked pixel positions, mean coords
    neighbors: np.ndarray    # (F, 4) dense index of -x, +x, -y, +y or -1
    diff: csr_matrix         # (2F, F) row 2f + a: derivative along axis a
                             # (0 = x, 1 = y) at pixel f
    diff_t: csr_matrix       # (F, 2F) diff.T, for the Newton adjoint image

    @property
    def n_pixels(self):
        return self.positions.shape[0]

    def validate(self):
        F = self.n_pixels
        if F <= 0:
            raise DimensionError("reference frame has no masked pixels")
        if int(self.mask.sum()) != F:
            raise DimensionError("mask does not match pixel count")
        idx = self.index_grid[self.mask]
        if not np.array_equal(np.sort(idx), np.arange(F)):
            raise DimensionError("pixel index is not a bijection onto 0..F-1")
        return self

    def to_grid(self, vec):
        """Scatter a channel-major vector onto (k, height, width) grids,
        zero outside the mask."""
        v = _channels(vec, self.n_pixels)
        grids = np.zeros((v.shape[0], self.height, self.width))
        grids[:, self.mask] = v
        return grids


def _channels(v, F):
    """(k, F) view of a channel-major frame vector of length k F."""
    v = np.asarray(v, dtype=np.float64).ravel()
    if v.size % F != 0:
        raise DimensionError("vector length is not a multiple of F")
    return v.reshape(-1, F)


@dataclass(frozen=True)
class Triangulation:
    """Triangle list over the mean shape plus two fixed sparse operators."""

    triangles: np.ndarray    # (T, 3) vertex indices
    interp: csr_matrix       # (F, n_points) three entries per row
    landmark_grad: csr_matrix  # (2 n_points, n_points), see module doc

    def validate(self):
        sums = np.asarray(self.interp.sum(axis=1)).ravel()
        if not np.allclose(sums, 1.0, atol=1e-9):
            raise DimensionError("barycentric coordinates do not sum to 1")
        if np.any(self.interp.data < -BARYCENTRIC_TOL):
            raise DimensionError("negative barycentric coordinate")
        return self


def rasterize_barycentric(vertices, triangles, queries):
    """Locate query points in a triangle mesh.

    Returns (tri_id, bary) where tri_id[i] is the first triangle containing
    queries[i] (-1 if none) and bary[i] its clipped, renormalized
    barycentric coordinates.  Containment allows coordinates
    >= -BARYCENTRIC_TOL so that points exactly on edges are kept.
    """
    vertices = np.asarray(vertices, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    n = queries.shape[0]
    tri_id = np.full(n, -1, dtype=np.int64)
    bary = np.zeros((n, 3))
    todo = np.ones(n, dtype=bool)
    for t, (i, j, k) in enumerate(triangles):
        if not todo.any():
            break
        a, b, c = vertices[i], vertices[j], vertices[k]
        M = np.column_stack([b - a, c - a])
        det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        if abs(det) < 1e-14:
            raise DegeneracyError(f"degenerate triangle {t} in mesh")
        inv = np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]]) / det
        rel = queries[todo] - a
        uv = rel @ inv.T
        b1 = 1.0 - uv[:, 0] - uv[:, 1]
        coords = np.column_stack([b1, uv[:, 0], uv[:, 1]])
        inside = np.all(coords >= -BARYCENTRIC_TOL, axis=1)
        hit_idx = np.flatnonzero(todo)[inside]
        tri_id[hit_idx] = t
        bary[hit_idx] = np.clip(coords[inside], 0.0, None)
        todo[hit_idx] = False
    norm = bary.sum(axis=1)
    good = norm > 0
    bary[good] /= norm[good, None]
    return tri_id, bary


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
    repeated point, raises `DegeneracyError`.
    """
    pts = shape_to_points(model.mean)
    try:
        delaunay = Delaunay(pts)
    except QhullError as exc:
        raise DegeneracyError(f"mean shape cannot be triangulated: {exc}")
    if not np.all(np.isfinite(delaunay.transform)):
        raise DegeneracyError("degenerate triangle in the mean shape's mesh")
    triangles = np.ascontiguousarray(delaunay.simplices, dtype=np.int64)
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
    index_grid = np.full((height, width), -1, dtype=np.int64)
    index_grid[mask] = np.arange(F)
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

    rr, cc = np.nonzero(mask)
    neighbors = np.full((F, 4), -1, dtype=np.int64)
    for axis, (dr, dc) in enumerate(
            [(0, -1), (0, 1), (-1, 0), (1, 0)]):  # -x, +x, -y, +y
        r2, c2 = rr + dr, cc + dc
        ok = (r2 >= 0) & (r2 < height) & (c2 >= 0) & (c2 < width)
        neighbors[ok, axis] = index_grid[r2[ok], c2[ok]]

    origin = np.array([x0, y0], dtype=np.float64)
    diff = _difference_operator(neighbors)
    frame = ReferenceFrame(
        width=width, height=height, origin=origin, mask=mask,
        index_grid=index_grid, positions=positions, neighbors=neighbors,
        diff=diff, diff_t=diff.T.tocsr())
    tri = Triangulation(triangles=triangles, interp=interp,
                        landmark_grad=landmark_grad)
    return frame.validate(), tri.validate()


def bilinear_sample(image, positions):
    """Sample image channels at float positions, clamping to the border.

    image: (H, W) or (H, W, k); positions: (N, 2) in (x, y) array coords.
    Returns (N, k) = S @ pixels, with S the sparse (N, H * W) operator
    whose row i holds the weights of the four corners of position i's
    cell at the flat pixel indices y * W + x.  On a 1-pixel side both
    corners along it are that pixel.  Corners of zero weight are stored
    too, so a NaN pixel at any corner makes the sample NaN.  An image of
    another rank or with an empty axis, and non-finite positions, raise
    `DimensionError`.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 2:
        img = img[:, :, None]
    if img.ndim != 3 or 0 in img.shape:
        raise DimensionError("image must be a non-empty (H, W) or (H, W, k) "
                             f"array, got shape {np.shape(image)}")
    h, w, k = img.shape
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise DimensionError("sample positions must be an (N, 2) array")
    if not np.all(np.isfinite(positions)):
        raise DimensionError("non-finite sample position")
    idx = np.int32 if h * w < 2 ** 31 else np.int64
    x = np.clip(positions[:, 0], 0.0, w - 1.0)
    y = np.clip(positions[:, 1], 0.0, h - 1.0)
    x0 = np.minimum(x.astype(idx), max(w - 2, 0))    # floor, as x >= 0
    y0 = np.minimum(y.astype(idx), max(h - 2, 0))
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx, fy = x - x0, y - y0
    gx, gy = 1.0 - fx, 1.0 - fy
    weights = np.column_stack([gx * gy, fx * gy, gx * fy, fx * fy])
    r0, r1 = y0 * w, y1 * w
    cols = np.column_stack([r0 + x0, r0 + x1, r1 + x0, r1 + x1])
    n = positions.shape[0]
    S = csr_matrix((weights.ravel(), cols.ravel(),
                    np.arange(0, 4 * n + 1, 4, dtype=idx)), shape=(n, h * w))
    return S @ img.reshape(-1, k)


def warp_to_reference(image, shape, frame, tri):
    """Warp an image onto the reference frame.

    Returns the channel-major vector of length F * k.  A non-finite
    sampled value, such as a NaN pixel under the face, raises
    `DimensionError`; non-finite pixels elsewhere in the image are not read.
    """
    shape = as_shape(shape)
    if shape.size != 2 * tri.interp.shape[1]:
        raise DimensionError("shape and mesh disagree in landmark count")
    vec = bilinear_sample(image, tri.interp @ shape_to_points(shape)).T.ravel()
    if not np.all(np.isfinite(vec)):
        raise DimensionError("non-finite pixel under the warped face")
    return vec


def sample_frame_image(grids, frame, positions):
    """Sample reference-frame grids at mean-coordinate positions.

    grids: (k, H, W) as returned by frame.to_grid.  Returns (N, k).
    """
    grids = np.asarray(grids, dtype=np.float64)
    if grids.ndim == 2:
        grids = grids[None]
    array_pos = positions - frame.origin[None, :]
    return bilinear_sample(np.moveaxis(grids, 0, -1), array_pos)


def warp_jacobian_identity(model, frame, tri):
    """Derivative of warped pixel positions w.r.t. the shape parameters,
    evaluated at the identity warp.  Returns (F, 2, n_params)."""
    P = model.basis.shape[1]   # row v of the (v, 2P) view: x row, y row
    return (tri.interp @ model.basis.reshape(-1, 2 * P)).reshape(-1, 2, P)


def compose(model, tri, p, dp):
    """First-order composition p o dp of shape parameters.

    Each mean landmark's offset under dp (basis @ dp) is transported into
    the current shape by the current warp's Jacobian averaged over the
    landmark's triangles (`Triangulation.landmark_grad`); the moved
    landmarks are projected back onto the model.
    """
    p = np.asarray(p, dtype=np.float64).ravel()
    dp = np.asarray(dp, dtype=np.float64).ravel()
    if p.size != model.n_params or dp.size != model.n_params:
        raise DimensionError("parameter vectors must have length n_params")
    if not dp.any():
        return p.copy()
    cur = shape_to_points(shape_instance(model, p))
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
        dWdp = warp_jacobian_identity(model, frame, tri)
        return cls(model=model, frame=frame, tri=tri, dWdp=dWdp)

    @property
    def n_pixels(self):
        return self.frame.n_pixels

    def increment_positions(self, dp):
        """Positions W(x; dp) of the masked pixels under an incremental
        warp, in mean coordinates."""
        disp = self.model.basis @ np.asarray(dp, dtype=np.float64)
        return self.frame.positions + self.tri.interp @ disp.reshape(-1, 2)
