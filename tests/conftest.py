"""Shared toy-model builders for the test suite.

Toy models are built in pixel coordinates so reference frames enclose a
handful of pixels.  Bilinear fields (a + b*x + c*y + d*x*y) are reproduced
exactly by bilinear interpolation and by central differences on the grid,
which makes them exact oracles for warping and gradient machinery.
"""

import numpy as np
import pytest

from aam_cgd.shape_model import build_shape_model
from aam_cgd.warp import WarpEngine, build_reference_frame


def circle_landmarks(v=8, radius=5.0, center=(6.5, 6.5)):
    ang = np.linspace(0.0, 2.0 * np.pi, v, endpoint=False)
    pts = np.column_stack([center[0] + radius * np.cos(ang),
                           center[1] + radius * np.sin(ang)])
    return pts.ravel()


def make_toy_shape_model(rng, v=8, n_modes=2, radius=5.0, spread=0.35,
                         n_samples=None):
    base = circle_landmarks(v=v, radius=radius)
    if n_samples is None:
        n_samples = 6 * v
    shapes = [base + spread * rng.standard_normal(2 * v)
              for _ in range(n_samples)]
    mean = np.mean(shapes, axis=0)
    return build_shape_model(shapes, mean, n_components=n_modes)


def make_full_rank_shape_model(rng, v=5, radius=5.0, spread=0.35):
    return make_toy_shape_model(rng, v=v, n_modes=2 * v - 4, radius=radius,
                                spread=spread, n_samples=8 * v)


def square_shape_model(size=10.0):
    sq = np.array([0.0, 0.0, size, 0.0, size, size, 0.0, size])
    return build_shape_model([sq, sq], sq)


def diamond_frame():
    """Frame of a diamond with integer corners: its tips have no
    neighbour along one axis, its edges one neighbour, its inside two."""
    d = np.array([5.0, 0.0, 10.0, 5.0, 5.0, 10.0, 0.0, 5.0])
    frame, _ = build_reference_frame(build_shape_model([d, d], d))
    nb = frame.neighbors >= 0
    for has_m, has_p in ((nb[:, 0], nb[:, 1]), (nb[:, 2], nb[:, 3])):
        assert np.any(has_m & has_p)
        assert np.any(has_m ^ has_p)
        assert np.any(~has_m & ~has_p)
    return frame


def bilinear_field(height, width, a=0.0, b=0.0, c=0.0, d=0.0):
    cols, rows = np.meshgrid(np.arange(width, dtype=np.float64),
                             np.arange(height, dtype=np.float64))
    return a + b * cols + c * rows + d * cols * rows


def bilinear_value(positions, a=0.0, b=0.0, c=0.0, d=0.0):
    x, y = positions[:, 0], positions[:, 1]
    return a + b * x + c * y + d * x * y


@pytest.fixture
def rng():
    return np.random.default_rng(20240617)


@pytest.fixture
def toy_engine(rng):
    model = make_toy_shape_model(rng)
    return WarpEngine.build(model)
