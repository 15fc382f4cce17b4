"""Seeded synthetic faces with known ground truth.

Everything here is data generation and is never timed: a 68-point face
template with non-rigid modes, appearance training vectors drawn from a
texture generator with a decaying spectrum, and test images that render
a fresh texture at a known shape over blurred background clutter.
"""

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import distance_transform_edt, gaussian_filter
from scipy.spatial import ConvexHull

from aam_cgd import shape_model, warp

N_TRAIN_SHAPES = 150
N_TRAIN_APPEARANCES = 130
N_GENERATORS = 110        # texture modes; the model keeps m=100
SPECTRUM_SCALE = 0.01     # lambda_j = SPECTRUM_SCALE * j^-1.5 per pixel
MARGIN_PX = 40            # background around the face in test images
NONRIGID_SD = 0.25        # spread of true non-rigid parameters, in model SDs


def face_template():
    """68 landmarks in the iBUG order, about unit size, y pointing down."""
    phi = np.pi * (1.0 - np.linspace(0.0, 1.0, 17))
    jaw = np.column_stack([0.85 * np.cos(phi), -0.15 + np.sin(phi)])
    u = np.linspace(0.0, 1.0, 5)
    brow = np.column_stack([-0.72 + 0.54 * u,
                            -0.5 - 0.08 * np.sin(np.pi * u)])
    right_brow = brow[::-1] * [-1.0, 1.0]
    # Slight x offsets keep the bridge points from being collinear.
    bridge = np.column_stack([[0.0, 0.012, -0.01, 0.005],
                              np.linspace(-0.38, 0.1, 4)])
    nx = np.linspace(-0.18, 0.18, 5)
    nostrils = np.column_stack([nx, 0.2 + 0.06 * (1.0 - (nx / 0.18) ** 2)])

    def ellipse(cx, cy, rx, ry, n):
        th = np.pi - np.arange(n) * 2.0 * np.pi / n
        return np.column_stack([cx + rx * np.cos(th), cy - ry * np.sin(th)])

    left_eye = ellipse(-0.38, -0.28, 0.17, 0.07, 6)
    right_eye = left_eye[[3, 2, 1, 0, 5, 4]] * [-1.0, 1.0]
    outer_mouth = ellipse(0.0, 0.52, 0.36, 0.14, 12)
    inner_mouth = ellipse(0.0, 0.52, 0.24, 0.045, 8)
    pts = np.vstack([jaw, brow, right_brow, bridge, nostrils, left_eye,
                     right_eye, outer_mouth, inner_mouth])
    return pts


def nonrigid_modes(pts):
    """Displacement fields (n_modes, 68, 2) and their standard deviations:
    jaw drop, mouth width, brow raise, face width, yaw, pitch, eye
    opening."""
    x, y = pts[:, 0], pts[:, 1]
    zero = np.zeros_like(x)
    brows = np.zeros_like(x)
    brows[17:27] = 1.0
    mouth = (y > 0.3) & (np.abs(x) < 0.5)
    eyes = np.zeros_like(x)
    eyes[36:48] = np.sign(y[36:48] + 0.28)
    central = 1.0 - np.clip(x / 0.85, -1.0, 1.0) ** 2
    fields = [
        (zero, np.clip(y - 0.4, 0.0, None)),
        (x * mouth, zero),
        (zero, -brows),
        (x, zero),
        (central, zero),
        (zero, y * central),
        (zero, eyes),
    ]
    modes = np.stack([np.column_stack(f) for f in fields])
    sigmas = np.array([0.08, 0.05, 0.04, 0.05, 0.06, 0.04, 0.02])
    return modes, sigmas


def random_similarity(rng, pts, scale_sd, angle_sd, shift_sd):
    angle = rng.normal(0.0, angle_sd)
    scale = np.exp(rng.normal(0.0, scale_sd))
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    c = pts.mean(axis=0)
    return scale * (pts - c) @ rot.T + c + rng.normal(0.0, shift_sd, 2)


def training_shapes(rng, n=N_TRAIN_SHAPES):
    """Template plus non-rigid modes, landmark noise and a random
    similarity, which Procrustes alignment removes again."""
    base = face_template()
    modes, sigmas = nonrigid_modes(base)
    out = []
    for _ in range(n):
        z = rng.standard_normal(sigmas.size) * sigmas
        pts = (base + np.tensordot(z, modes, axes=1)
               + rng.normal(0.0, 0.008, base.shape))
        out.append(random_similarity(rng, pts, 0.1, 0.15, 0.2).ravel())
    return out


def to_pixels(aligned, mean, n_pixels):
    """Scale Procrustes output so the mean shape's hull covers about
    `n_pixels` frame pixels, centred in an image with a margin."""
    pts = shape_model.shape_to_points(mean)
    scale = np.sqrt(n_pixels / ConvexHull(pts).volume)
    half = scale * np.abs(pts).max(axis=0)
    size = tuple(int(np.ceil(2 * h)) + 2 * MARGIN_PX for h in half)
    centre = np.tile(np.array(size, dtype=float) / 2.0, pts.shape[0])
    return ([scale * s + centre for s in aligned], scale * mean + centre,
            (size[1], size[0]))


@dataclass(frozen=True)
class TextureSource:
    """Generator of appearance vectors on a reference frame: a face-like
    mean plus texture modes with a j^-1.5 variance spectrum."""

    mean: np.ndarray         # (F * k,)
    generators: np.ndarray   # (F * k, G), unit RMS columns
    sd: np.ndarray           # (G,) sqrt of the spectrum

    def sample(self, rng, n=None):
        z = rng.standard_normal((self.sd.size, 1 if n is None else n))
        vecs = self.mean[:, None] + self.generators @ (z * self.sd[:, None])
        return vecs[:, 0] if n is None else list(vecs.T)


def feature_scale(shape):
    """Texture correlation length: a 25-40 px wavelength on a face about
    150 px across, proportionally smaller on smaller faces."""
    return shape_model.face_size(shape) / 30.0


def texture_source(rng, engine, n_channels=3, n_generators=N_GENERATORS):
    """Mean: skin tone, dark blobs at the brows, nose, eyes and mouth, and
    a fixed fine texture.  Modes: smooth fields at twice the feature scale
    with a j^-1.5 spectrum."""
    frame = engine.frame
    sigma = feature_scale(engine.model.mean)

    def field(s):
        g = gaussian_filter(rng.standard_normal((frame.height, frame.width)),
                            s)[frame.mask]
        return g / np.sqrt(np.mean(g ** 2))

    feats = shape_model.shape_to_points(engine.model.mean)[17:]
    d2 = ((frame.positions[:, None, :] - feats[None]) ** 2).sum(axis=2)
    blobs = np.exp(-d2 / (2.0 * sigma ** 2)).max(axis=1)
    base = np.array([0.62, 0.48, 0.40])[:n_channels]
    mean = np.concatenate([b - 0.35 * blobs + 0.08 * field(sigma)
                           for b in base])
    gens = np.column_stack([np.concatenate([field(2.0 * sigma)
                                            for _ in range(n_channels)])
                            for _ in range(n_generators)])
    # Modes orthogonal to the mean texture: the library stores the mean
    # minus its in-span part, and an inverse-compositional Jacobian built
    # from that stored mean would carry the gradient of the removed part.
    gens -= np.outer(mean, mean @ gens) / (mean @ mean)
    gens /= np.sqrt(np.mean(gens ** 2, axis=0))
    sd = np.sqrt(SPECTRUM_SCALE * np.arange(1, n_generators + 1) ** -1.5)
    return TextureSource(mean=mean, generators=gens, sd=sd)


def background(rng, size, n_channels, sigma):
    h, w = size
    chans = [gaussian_filter(rng.standard_normal((h, w)), sigma)
             for _ in range(n_channels)]
    img = np.stack([c / c.std() for c in chans], axis=-1)
    return 0.5 + 0.15 * img


def render(engine, texture, shape, bg, blend_px):
    """Draw a frame texture into `bg` so that the face's landmarks land on
    `shape`.  Outside the face the border colours are carried outwards and
    faded into the background over about `blend_px` pixels: a hard edge at
    the hull would move with the warp in a way no image gradient inside
    the mask predicts."""
    frame, triangles = engine.frame, engine.tri.triangles
    # Nearest-masked-pixel fill, so bilinear sampling at the mask border
    # reads face values.
    _, (fr, fc) = distance_transform_edt(~frame.mask, return_indices=True)
    grids = frame.to_grid(texture)[:, fr, fc]
    pts = shape_model.shape_to_points(shape)
    mean_pts = shape_model.shape_to_points(engine.model.mean)
    h, w = bg.shape[:2]
    face = np.zeros_like(bg)
    inside = np.zeros((h, w), dtype=bool)
    for tri in triangles:
        # Rasterize one triangle over its bounding box only.
        (x0, y0), (x1, y1) = (np.floor(pts[tri].min(axis=0)).astype(int),
                              np.ceil(pts[tri].max(axis=0)).astype(int))
        cols, rows = np.meshgrid(np.arange(max(x0, 0), min(x1, w - 1) + 1),
                                 np.arange(max(y0, 0), min(y1, h - 1) + 1))
        cols, rows = cols.ravel(), rows.ravel()
        queries = np.column_stack([cols, rows]).astype(float)
        hit, bary = warp.rasterize_barycentric(pts, tri[None], queries)
        hit = (hit >= 0) & ~inside[rows, cols]
        src = bary[hit] @ mean_pts[tri]
        face[rows[hit], cols[hit]] = warp.sample_frame_image(grids, frame, src)
        inside[rows[hit], cols[hit]] = True
    dist, (ri, ci) = distance_transform_edt(~inside, return_indices=True)
    weight = np.exp(-0.5 * (dist / blend_px) ** 2)[..., None]
    return weight * face[ri, ci] + (1.0 - weight) * bg


@dataclass(frozen=True)
class Case:
    """One test image with its ground truth."""

    image: np.ndarray
    p_true: np.ndarray
    shape_true: np.ndarray
    face_size: float


def make_case(rng, engine, source, size):
    """Ground truth: a small random similarity of the mean shape plus
    non-rigid parameters drawn at NONRIGID_SD times the model's standard
    deviations."""
    model = engine.model
    sim = random_similarity(rng, shape_model.shape_to_points(model.mean),
                            0.03, 0.05, 3.0)
    p = shape_model.project_shape(model, sim.ravel())
    p[4:] = NONRIGID_SD * rng.standard_normal(model.n_nonrigid) * np.sqrt(
        model.eigenvalues)
    s_true = shape_model.shape_instance(model, p)
    scale = feature_scale(model.mean)
    bg = background(rng, size, source.mean.size // engine.n_pixels,
                    2.0 * scale)
    img = render(engine, source.sample(rng), s_true, bg, 2.0 * scale)
    return Case(image=img, p_true=p, shape_true=s_true,
                face_size=shape_model.face_size(s_true))


def perturb(rng, model, case, rel_error):
    """Start estimate: the true similarity moved so the landmarks are
    `rel_error` face sizes away (RMS), with non-rigid parameters at zero."""
    direction = rng.standard_normal(4)
    direction *= (rel_error * case.face_size * np.sqrt(model.n_points)
                  / np.linalg.norm(direction))
    p0 = np.zeros(model.n_params)
    p0[:4] = case.p_true[:4] + direction
    return p0
