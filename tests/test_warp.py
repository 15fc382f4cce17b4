import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from aam_cgd.errors import DegeneracyError, DimensionError
from aam_cgd.shape_model import (build_shape_model, project_shape,
                                 shape_instance, shape_to_points)
from aam_cgd.warp import (BARYCENTRIC_TOL, WarpEngine, _bilinear_operator,
                          bilinear_sample, build_reference_frame, compose,
                          rasterize_barycentric, sample_frame_image,
                          warp_jacobian_identity, warp_to_reference)

from conftest import (bilinear_field, bilinear_value, diamond_frame,
                      make_full_rank_shape_model, make_toy_shape_model,
                      square_shape_model)
from oracles import bilinear_reference, compose_per_triangle, interior_pixels


class TestBuildReferenceFrame:
    def test_square_two_triangles_and_pixel_count(self):
        size = 10.0
        model = square_shape_model(size)
        frame, tri = build_reference_frame(model)
        assert tri.triangles.shape[0] == 2
        # Rasterization oracle: integer points of [0, 10]^2, boundary
        # included because barycentric >= -1e-9 counts as inside.
        count = sum(1 for x in range(11) for y in range(11))
        assert frame.n_pixels == count

    def test_grid_is_the_bounding_box(self):
        """The grid spans the mean's bounding box, here offset from the
        origin, to the pixel."""
        sq = np.array([2.0, 3.0, 6.0, 3.0, 6.0, 7.0, 2.0, 7.0])
        frame, _ = build_reference_frame(build_shape_model([sq, sq], sq))
        assert (frame.width, frame.height) == (5, 5)
        assert frame.mask.all()
        np.testing.assert_array_equal(frame.origin, [2.0, 3.0])

    def test_barycentric_sums_to_one(self, toy_engine):
        interp = toy_engine.tri.interp
        sums = np.asarray(interp.sum(axis=1)).ravel()
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)
        assert np.all(interp.data >= 0.0)

    def test_vertex_pixels_unit_indicator(self):
        model = square_shape_model(8.0)
        frame, tri = build_reference_frame(model)
        pts = shape_to_points(model.mean)
        for v_idx in range(pts.shape[0]):
            hit = np.flatnonzero(
                (np.abs(frame.positions - pts[v_idx]) < 1e-12).all(axis=1))
            assert hit.size == 1
            row = tri.interp[hit[0]]
            expected = np.zeros(pts.shape[0])
            expected[v_idx] = 1.0
            np.testing.assert_allclose(row.toarray().ravel(), expected,
                                       atol=1e-6)

    def test_collinear_mean_rejected(self):
        line = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
        model_like = square_shape_model(4.0)
        bad = type(model_like)(mean=line, basis=model_like.basis,
                               eigenvalues=model_like.eigenvalues)
        with pytest.raises(DegeneracyError):
            build_reference_frame(bad)

    def test_every_masked_pixel_has_one_triangle(self, toy_engine):
        tri = toy_engine.tri
        np.testing.assert_array_equal(np.diff(tri.interp.indptr), 3)
        corners = np.sort(tri.interp.indices.reshape(-1, 3), axis=1)
        triangles = {tuple(t) for t in np.sort(tri.triangles, axis=1)}
        assert all(tuple(c) in triangles for c in corners)

    def test_sliver_triangle_rejected(self):
        # det(e1, e2) = 1e-11 against edges of length 10: the sliver rule
        # rejects it before its edges are inverted.
        sliver = SimpleNamespace(
            mean=np.array([0.0, 0.0, 10.0, 0.0, 5.0, 1e-12, 5.0, 5.0]))
        with pytest.raises(DegeneracyError):
            build_reference_frame(sliver)

    @pytest.mark.parametrize("which", ["diamond", "toy"])
    def test_pixel_order_and_neighbors_by_definition(self, toy_engine,
                                                     which):
        """Pixel i is the mask's i-th True entry in row-major order, and
        neighbour j of pixel i is the pixel one grid step along -x, +x,
        -y or +y from it: -1 exactly when that grid point is unmasked."""
        frame = diamond_frame() if which == "diamond" else toy_engine.frame
        np.testing.assert_array_equal(
            frame.positions, _frame_queries(frame)[frame.mask.ravel()])
        index = {tuple(pos): i for i, pos in enumerate(frame.positions)}
        steps = [(-1, 0), (1, 0), (0, -1), (0, 1)]
        want = [[index.get((x + dx, y + dy), -1) for dx, dy in steps]
                for x, y in frame.positions]
        np.testing.assert_array_equal(frame.neighbors, want)

    @pytest.mark.parametrize("L", [10.0, 1000.0])
    def test_sliver_rule_is_scale_free(self, L):
        """The frame takes the rasterizer's rule on the sliver family:
        a triangle of height ratio 1e-9 is kept at every scale, with
        finite weights and weight gradients from its edge inverse, and
        one of 1e-11 is rejected before that inverse is formed."""
        _, tri = build_reference_frame(SimpleNamespace(mean=_sliver(L, 1e-9)))
        assert np.isfinite(tri.interp.data).all()
        assert np.isfinite(tri.landmark_grad.data).all()
        with pytest.raises(DegeneracyError, match="degenerate triangle"):
            build_reference_frame(SimpleNamespace(mean=_sliver(L, 1e-11)))

    def test_mean_covering_no_pixel_rejected(self):
        t = np.array([0.1, 0.1, 0.4, 0.1, 0.2, 0.4])
        with pytest.raises(DegeneracyError, match="covers no pixels"):
            build_reference_frame(build_shape_model([t, t], t))

    def test_landmark_in_no_triangle_rejected(self):
        # A repeated corner lies in no triangle, so `compose` could not
        # average a Jacobian there: the build rejects the mesh.
        square = [0.0, 0.0, 10.0, 0.0, 10.0, 10.0, 0.0, 10.0]
        repeated = SimpleNamespace(mean=np.array(square + [10.0, 10.0]))
        with pytest.raises(DegeneracyError, match="no triangle"):
            build_reference_frame(repeated)


def _sliver(L, r):
    """(0, 0), (L, 0), (L/2, r L), (L/2, L/2): the first three make a
    sliver of height ratio r, the last a well-shaped cap over it."""
    return L * np.array([0.0, 0.0, 1.0, 0.0, 0.5, r, 0.5, 0.5])


SLIVER_MESH = [[0, 1, 2], [0, 2, 3], [1, 3, 2]]


def _frame_queries(frame):
    """Every grid point of the frame, row-major, in mean coordinates."""
    rows, cols = np.mgrid[:frame.height, :frame.width]
    return np.column_stack([cols.ravel(), rows.ravel()]) + frame.origin


def _random_mesh(seed):
    rng = np.random.default_rng(seed)
    return SimpleNamespace(mean=rng.uniform(0.0, 20.0, size=24))


def _inset_square():
    """4 x 4 square whose border pixels lie just outside it, within the
    tolerance, so they belong to the mask."""
    lo, hi = 0.8 * BARYCENTRIC_TOL, 4.0 - 0.8 * BARYCENTRIC_TOL
    return SimpleNamespace(mean=np.array([lo, lo, hi, lo, hi, hi, lo, hi]))


class TestInterpolationOperator:
    @pytest.mark.parametrize("build", [
        make_toy_shape_model, make_full_rank_shape_model,
        lambda rng: square_shape_model(10.0)],
        ids=["toy", "full_rank", "square"])
    def test_places_mean_shape_pixels(self, rng, build):
        model = build(rng)
        frame, tri = build_reference_frame(model)
        np.testing.assert_allclose(tri.interp @ shape_to_points(model.mean),
                                   frame.positions, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mesh", [
        lambda: square_shape_model(10.0), _inset_square,
        *[lambda s=s: _random_mesh(s) for s in range(5)]],
        ids=["square", "inset_square"] + [f"random{s}" for s in range(5)])
    def test_matches_triangle_loop(self, mesh):
        # The loop over triangles is the reference rasterizer: same mask,
        # and each row is its weights scattered onto its triangle.
        model = mesh()
        frame, tri = build_reference_frame(model)
        pts = shape_to_points(model.mean)
        tri_id, bary = rasterize_barycentric(pts, tri.triangles,
                                             _frame_queries(frame))
        inside = tri_id >= 0
        np.testing.assert_array_equal(frame.mask.ravel(), inside)
        # Tie rule: the same triangle as the loop's, the first containing.
        np.testing.assert_array_equal(tri.interp.indices.reshape(-1, 3),
                                      tri.triangles[tri_id[inside]])
        expected = np.zeros((frame.n_pixels, pts.shape[0]))
        np.put_along_axis(expected, tri.triangles[tri_id[inside]],
                          bary[inside], axis=1)
        np.testing.assert_array_equal(tri.interp.toarray(), expected)

    def test_border_within_tolerance_is_kept(self):
        frame, _ = build_reference_frame(_inset_square())
        assert frame.n_pixels == 25

    def test_border_weights_are_clipped_and_renormalised(self):
        """The inset square's border pixels lie just outside it, so some
        of their coordinates, solved independently, are negative: the
        frame stores those as 0 and renormalises the rest."""
        model = _inset_square()
        frame, tri = build_reference_frame(model)
        corners = shape_to_points(model.mean)[tri.interp.indices]
        lhs = np.concatenate([corners.reshape(-1, 3, 2).transpose(0, 2, 1),
                              np.ones((frame.n_pixels, 1, 3))], axis=1)
        rhs = np.column_stack([frame.positions, np.ones(frame.n_pixels)])
        coords = np.linalg.solve(lhs, rhs[:, :, None])[:, :, 0]
        assert -BARYCENTRIC_TOL < coords.min() < 0.0
        want = np.clip(coords, 0.0, None)
        want /= want.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(tri.interp.data.reshape(-1, 3), want,
                                   rtol=0, atol=1e-14)


class TestRasterizeBarycentric:
    def test_outside_points_flagged(self):
        verts = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        tris = np.array([[0, 1, 2]])
        tri_id, _ = rasterize_barycentric(
            verts, tris, np.array([[10.0, 10.0], [1.0, 1.0]]))
        assert tri_id[0] == -1
        assert tri_id[1] == 0

    def test_reconstructs_position(self):
        rng = np.random.default_rng(0)
        verts = rng.uniform(0, 10, size=(6, 2))
        from scipy.spatial import Delaunay
        tris = Delaunay(verts).simplices
        queries = rng.uniform(2, 8, size=(50, 2))
        tri_id, bary = rasterize_barycentric(verts, tris, queries)
        ok = tri_id >= 0
        rec = np.einsum("ft,ftd->fd", bary[ok], verts[tris[tri_id[ok]]])
        np.testing.assert_allclose(rec, queries[ok], atol=1e-9)

    def test_takes_lists(self):
        tri_id, bary = rasterize_barycentric(
            [[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]], [[0, 1, 2]], [[1.0, 1.0]])
        assert tri_id.tolist() == [0]
        np.testing.assert_allclose(bary, [[0.5, 0.25, 0.25]])

    def test_collinear_triangle_rejected(self):
        with pytest.raises(DegeneracyError, match="degenerate triangle"):
            rasterize_barycentric([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]],
                                  [[0, 1, 2]], [[1.0, 1.0]])

    def test_tiny_right_triangle_accepted(self):
        """The rule is scale-free: legs of 1e-8 make a well-shaped
        triangle, though its determinant is only 1e-16."""
        tri_id, bary = rasterize_barycentric(
            1e-8 * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            [[0, 1, 2]], [[0.5e-8, 0.25e-8]])
        assert tri_id.tolist() == [0]
        np.testing.assert_allclose(bary, [[0.25, 0.5, 0.25]])

    def test_frame_sliver_rejected(self):
        """The sliver `test_sliver_triangle_rejected` gives the frame,
        whose determinant of 1e-11 is not small in absolute terms."""
        with pytest.raises(DegeneracyError, match="degenerate triangle 0 "):
            rasterize_barycentric([[0.0, 0.0], [10.0, 0.0], [5.0, 1e-12]],
                                  [[0, 1, 2]], [[5.0, 0.0]])

    @pytest.mark.parametrize("L", [1e-6, 1.0, 1000.0])
    def test_sliver_rule_is_scale_free(self, L):
        verts = _sliver(L, 1e-9).reshape(-1, 2)
        tri_id, _ = rasterize_barycentric(verts, SLIVER_MESH, [[L / 2, L / 4]])
        assert tri_id.tolist() == [1]
        with pytest.raises(DegeneracyError, match="degenerate triangle 0 "):
            rasterize_barycentric(_sliver(L, 1e-11).reshape(-1, 2),
                                  SLIVER_MESH, [[L / 2, L / 4]])

    @pytest.mark.parametrize("triangles, bad", [
        ([[0, 1, 2], [0, 3, 4]], 1), ([[0, 3, 4], [0, 1, 2]], 0)])
    def test_degenerate_triangle_rejected_in_any_order(self, triangles, bad):
        # The query lies in the good triangle: the collinear one raises
        # even when every query is located before it is reached.
        verts = [[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [1.0, 1.0], [2.0, 2.0]]
        with pytest.raises(DegeneracyError, match=f"triangle {bad} "):
            rasterize_barycentric(verts, triangles, [[1.0, 1.0]])


def _random_mesh_model(seed):
    """Shape model whose mean is 12 random points, so its Delaunay mesh
    has triangles of every shape and landmarks of every valence."""
    rng = np.random.default_rng(seed)
    mean = rng.uniform(0.0, 20.0, size=24)
    shapes = [mean + 0.3 * rng.standard_normal(24) for _ in range(40)]
    return build_shape_model(shapes, mean)


_COMPOSE_MESHES = pytest.mark.parametrize("build", [
    make_toy_shape_model, make_full_rank_shape_model,
    *[lambda rng, s=s: _random_mesh_model(s) for s in range(4)]],
    ids=["toy", "full_rank"] + [f"random{s}" for s in range(4)])


class TestLandmarkGradient:
    @_COMPOSE_MESHES
    def test_mean_landmarks_give_identity(self, rng, build):
        # The warp at p = 0 is the identity, so composing onto p = 0
        # returns dp.
        model = build(rng)
        _, tri = build_reference_frame(model)
        jac = tri.landmark_grad @ shape_to_points(model.mean)
        np.testing.assert_allclose(
            jac.reshape(-1, 2, 2),
            np.broadcast_to(np.eye(2), (model.n_points, 2, 2)),
            rtol=0, atol=1e-12)


class TestBilinearSample:
    @pytest.mark.parametrize("shape", [(9, 7), (9, 7, 1), (9, 7, 3),
                                       (1, 7, 3), (9, 1, 3), (1, 1, 3)])
    def test_matches_four_corner_reference(self, rng, shape):
        img = rng.uniform(-50.0, 100.0, size=shape)
        h, w = shape[:2]
        cols, rows = np.meshgrid(np.arange(w), np.arange(h))
        positions = np.vstack([
            rng.uniform(0.0, [w - 1.0, h - 1.0], size=(200, 2)),
            rng.uniform(-20.0, [w + 20.0, h + 20.0], size=(200, 2)),
            np.column_stack([cols.ravel(), rows.ravel()]),
            np.column_stack([rng.uniform(0.0, w - 1.0, 20),
                             np.full(20, h - 1.0)]),
            np.column_stack([np.full(20, w - 1.0),
                             rng.uniform(0.0, h - 1.0, 20)]),
        ])
        scale = np.abs(img).max()
        got = bilinear_sample(img, positions)
        want = bilinear_reference(img, positions)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15 * scale)
        # NaN pixels make every sample that reads them NaN, at any weight,
        # so both must read the same four pixels per sample.  Samples on
        # the last row and column read row h-2 and column w-2 at weight 0.
        first = img.reshape(h, w, -1)[:, :, 0]
        first[h // 2, w // 2] = first[max(h - 2, 0), max(w - 2, 0)] = np.nan
        np.testing.assert_allclose(bilinear_sample(img, positions),
                                   bilinear_reference(img, positions),
                                   rtol=0.0, atol=1e-15 * scale)

    @pytest.mark.parametrize("h, w", [(1, 7), (9, 1), (1, 1)])
    def test_operator_indices_in_range(self, rng, h, w):
        """On a 1-pixel side both corners along it are that pixel, so no
        column index reaches past H W."""
        positions = rng.uniform(-2.0, [w + 2.0, h + 2.0], size=(50, 2))
        _bilinear_operator(positions, h, w).check_format(full_check=True)

    def test_operator_indexes_past_int32(self):
        """An image of 2^32 pixels takes 64-bit column indices.  The
        operator reads only the image's size, so none is allocated."""
        h = w = 2 ** 16
        op = _bilinear_operator(np.array([[w - 1.0, h - 1.0]]), h, w)
        assert op.indices.max() == h * w - 1

    def test_memory_order_keeps_bits(self, rng):
        """C-ordered, F-ordered and strided positions sample the same
        bits."""
        img = rng.uniform(-50.0, 100.0, size=(9, 7, 3))
        positions = rng.uniform(-3.0, [10.0, 12.0], size=(300, 2))
        strided = np.zeros((600, 4))
        strided[::2, ::3] = positions
        want = bilinear_sample(img, positions)
        for pos in (np.asfortranarray(positions), strided[::2, ::3]):
            np.testing.assert_array_equal(bilinear_sample(img, pos), want)

    @pytest.mark.parametrize("positions", [
        np.array([[1.5, 2.5, 0.0], [3.0, 1.0, 0.0]]), np.array([1.5, 2.5])],
        ids=["three_columns", "one_dimensional"])
    def test_positions_must_be_n_by_2(self, positions):
        with pytest.raises(DimensionError):
            bilinear_sample(np.ones((5, 5, 3)), positions)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_position_rejected(self, bad):
        positions = np.array([[1.5, 2.5], [bad, 1.0]])
        with pytest.raises(DimensionError):
            bilinear_sample(np.ones((5, 5, 3)), positions)

    @pytest.mark.parametrize("shape", [(25,), (5, 5, 3, 1), (5, 5, 0),
                                       (0, 5), (5, 0, 3)],
                             ids=["1d", "4d", "no_channels", "no_rows",
                                  "no_columns"])
    def test_malformed_image_rejected(self, shape):
        with pytest.raises(DimensionError, match="image"):
            bilinear_sample(np.ones(shape), np.array([[1.5, 2.5]]))


class TestWarpToReference:
    def test_identity_warp_recovers_rendered_values(self, toy_engine):
        frame = toy_engine.frame
        img = bilinear_field(frame.height + 4, frame.width + 4,
                             a=0.3, b=0.02, c=-0.05, d=0.001)
        vec = warp_to_reference(img, toy_engine.model.mean, frame,
                                toy_engine.tri)
        expected = bilinear_value(frame.positions, a=0.3, b=0.02, c=-0.05,
                                  d=0.001)
        np.testing.assert_allclose(vec, expected, atol=1e-6)

    def test_constant_image_gives_constant_vector(self, toy_engine):
        img = np.full((30, 30), 0.625)
        for dp in (np.zeros(toy_engine.model.n_params),
                   0.2 * np.ones(toy_engine.model.n_params)):
            shape = shape_instance(toy_engine.model, dp)
            vec = warp_to_reference(img, shape, toy_engine.frame,
                                    toy_engine.tri)
            np.testing.assert_allclose(vec, 0.625, atol=1e-12)

    def test_translated_shape_samples_shifted_ramp(self, toy_engine):
        frame = toy_engine.frame
        img = bilinear_field(60, 60, b=2.0)  # f(x, y) = 2 x
        shift = np.array([7.0, 11.0])
        pts = shape_to_points(toy_engine.model.mean) + shift
        vec = warp_to_reference(img, pts.ravel(), frame, toy_engine.tri)
        expected = 2.0 * (frame.positions[:, 0] + shift[0])
        np.testing.assert_allclose(vec, expected, atol=1e-6)

    def test_linear_in_image_values(self, toy_engine):
        rng = np.random.default_rng(1)
        img1 = rng.uniform(size=(25, 25))
        img2 = rng.uniform(size=(25, 25))
        args = (toy_engine.model.mean, toy_engine.frame, toy_engine.tri)
        lhs = warp_to_reference(0.7 * img1 + 1.3 * img2, *args)
        rhs = (0.7 * warp_to_reference(img1, *args)
               + 1.3 * warp_to_reference(img2, *args))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_multichannel_layout(self, toy_engine):
        frame = toy_engine.frame
        img = np.zeros((30, 30, 2))
        img[:, :, 0] = 1.0
        img[:, :, 1] = 2.0
        vec = warp_to_reference(img, toy_engine.model.mean, frame,
                                toy_engine.tri)
        F = frame.n_pixels
        np.testing.assert_allclose(vec[:F], 1.0)
        np.testing.assert_allclose(vec[F:], 2.0)

    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_two_column_placement(self, toy_engine, rng, k):
        """Placing the pixels by one product per coordinate gives the bits
        of one product with the (v, 2) landmarks."""
        model, tri = toy_engine.model, toy_engine.tri
        img = rng.uniform(size=(30, 30, k)).squeeze()
        shape = shape_instance(model, 0.5 * rng.standard_normal(
            model.n_params))
        want = bilinear_sample(img, tri.interp @ shape_to_points(shape))
        got = warp_to_reference(img, shape, toy_engine.frame, tri)
        np.testing.assert_array_equal(got, want.T.ravel())

    def test_holds_few_temporaries(self, rng):
        """One warp of a three-channel image peaks at no more than 17
        F-vectors of float64, the result's three among them: the sampling
        weights and corners are written into the operator's own arrays."""
        engine = WarpEngine.build(square_shape_model(120.0))
        F = engine.n_pixels
        img = rng.uniform(size=(130, 130, 3))
        tracemalloc.start()
        try:
            warp_to_reference(img, engine.model.mean, engine.frame,
                              engine.tri)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 17 * 8 * F

    def test_nan_shape_rejected(self, toy_engine):
        bad = np.array(toy_engine.model.mean)
        bad[0] = np.nan
        with pytest.raises(DimensionError):
            warp_to_reference(np.ones((10, 10)), bad, toy_engine.frame,
                              toy_engine.tri)

    def test_landmark_count_must_match_mesh(self, toy_engine):
        shape = np.append(toy_engine.model.mean, [3.0, 4.0])
        with pytest.raises(DimensionError):
            warp_to_reference(np.ones((30, 30)), shape, toy_engine.frame,
                              toy_engine.tri)

    def test_out_of_image_samples_clamp(self, toy_engine):
        img = bilinear_field(12, 12, b=1.0)  # 0 .. 11 along x
        pts = shape_to_points(toy_engine.model.mean).copy()
        pts[:, 0] += 100.0  # every sample lands beyond the right border
        vec = warp_to_reference(img, pts.ravel(), toy_engine.frame,
                                toy_engine.tri)
        np.testing.assert_allclose(vec, 11.0, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pixel_under_face_rejected(self, toy_engine, bad):
        x, y = toy_engine.frame.positions[0]
        img = np.ones((30, 30, 3))
        img[int(y), int(x), 1] = bad
        with pytest.raises(DimensionError):
            warp_to_reference(img, toy_engine.model.mean, toy_engine.frame,
                              toy_engine.tri)

    def test_non_finite_pixel_away_from_face_not_read(self, toy_engine):
        img = np.ones((30, 30, 3))
        img[29, 29] = np.nan
        img[0, 29] = np.inf
        vec = warp_to_reference(img, toy_engine.model.mean,
                                toy_engine.frame, toy_engine.tri)
        np.testing.assert_array_equal(vec, 1.0)


class TestWarpJacobian:
    def test_translation_column_is_constant(self, toy_engine):
        v = toy_engine.model.n_points
        unit = 1.0 / np.sqrt(v)
        dWdp = toy_engine.dWdp
        np.testing.assert_allclose(dWdp[:, 0, 0], unit, atol=1e-12)
        np.testing.assert_allclose(dWdp[:, 1, 0], 0.0, atol=1e-12)
        np.testing.assert_allclose(dWdp[:, 0, 1], 0.0, atol=1e-12)
        np.testing.assert_allclose(dWdp[:, 1, 1], unit, atol=1e-12)

    def test_scale_column_points_away_from_centroid(self, toy_engine):
        model = toy_engine.model
        pts = shape_to_points(model.mean)
        center = pts.mean(axis=0)
        norm = np.linalg.norm(pts - center)
        expected = (toy_engine.frame.positions - center) / norm
        np.testing.assert_allclose(toy_engine.dWdp[:, :, 2], expected,
                                   atol=1e-9)

    def test_matches_finite_differences(self, toy_engine):
        eps = 1e-4
        for m in range(toy_engine.model.n_params):
            e = np.zeros(toy_engine.model.n_params)
            e[m] = eps
            plus = toy_engine.increment_positions(e)
            minus = toy_engine.increment_positions(-e)
            fd = (plus - minus) / (2 * eps)
            np.testing.assert_allclose(toy_engine.dWdp[:, :, m], fd,
                                       atol=1e-5)

    def test_sparsity_depends_only_on_triangle_vertices(self, toy_engine):
        model = toy_engine.model
        tri = toy_engine.tri
        pix = 3
        corners = set(tri.interp[pix].indices.tolist())
        outside = [v for v in range(model.n_points) if v not in corners]
        assert outside, "toy frame too small for the sparsity check"
        tampered = np.array(model.basis)
        for v_idx in outside:
            tampered[2 * v_idx:2 * v_idx + 2, :] = 123.0
        hacked = type(model)(mean=model.mean, basis=tampered,
                             eigenvalues=model.eigenvalues)
        dWdp2 = warp_jacobian_identity(hacked, tri)
        np.testing.assert_array_equal(dWdp2[pix], toy_engine.dWdp[pix])


class TestCompose:
    def test_zero_increment_is_identity(self, rng):
        model = make_toy_shape_model(rng)
        engine = WarpEngine.build(model)
        p = rng.standard_normal(model.n_params) * 0.3
        np.testing.assert_array_equal(
            compose(model, engine.tri, p, np.zeros_like(p)), p)

    def test_identity_warp_returns_increment(self, rng):
        model = make_toy_shape_model(rng)
        engine = WarpEngine.build(model)
        dp = 0.25 * rng.standard_normal(model.n_params)
        np.testing.assert_allclose(
            compose(model, engine.tri, np.zeros(model.n_params), dp), dp,
            atol=1e-10)

    def test_translation_only_warp_composes_additively(self, rng):
        model = make_toy_shape_model(rng)
        engine = WarpEngine.build(model)
        p = np.zeros(model.n_params)
        p[0], p[1] = 3.0, -2.0
        dp = np.zeros(model.n_params)
        dp[0], dp[1] = 0.5, 1.5
        np.testing.assert_allclose(compose(model, engine.tri, p, dp), p + dp,
                                   atol=1e-10)

    def test_similarity_warp_matches_pointwise_composition(self, rng):
        # For a pure similarity warp every triangle carries the same
        # linear map, so transporting the increment must agree exactly
        # with evaluating the composed warp point by point.
        model = make_full_rank_shape_model(rng)
        engine = WarpEngine.build(model)
        theta, scale = 0.3, 1.4
        R = scale * np.array([[np.cos(theta), -np.sin(theta)],
                              [np.sin(theta), np.cos(theta)]])
        cur_pts = shape_to_points(model.mean) @ R.T + np.array([2.0, -1.0])
        p = project_shape(model, cur_pts.ravel())
        dp = 0.05 * rng.standard_normal(model.n_params)
        q = compose(model, engine.tri, p, dp)
        ds = (model.basis @ dp).reshape(-1, 2)
        oracle = cur_pts + ds @ R.T
        np.testing.assert_allclose(shape_to_points(shape_instance(model, q)),
                                   oracle, atol=1e-8)

    def test_roundtrip_error_decays_quadratically(self, rng):
        model = make_toy_shape_model(rng)
        engine = WarpEngine.build(model)
        p = 0.4 * rng.standard_normal(model.n_params)
        dp = rng.standard_normal(model.n_params)
        errors = []
        for h in (0.2, 0.1, 0.05):
            step = h * dp
            back = compose(model, engine.tri,
                           compose(model, engine.tri, p, step), -step)
            errors.append(np.linalg.norm(back - p))
        assert errors[1] < 0.35 * errors[0]
        assert errors[2] < 0.35 * errors[1]

    @_COMPOSE_MESHES
    def test_matches_per_triangle_reference(self, rng, build):
        model = build(rng)
        tri = WarpEngine.build(model).tri
        for _ in range(20):
            p = 0.5 * rng.standard_normal(model.n_params)
            dp = 0.2 * rng.standard_normal(model.n_params)
            got = compose(model, tri, p, dp)
            want = compose_per_triangle(model, tri.triangles, p, dp)
            assert (np.linalg.norm(got - want)
                    <= 1e-12 * np.linalg.norm(want))

    @pytest.mark.parametrize("defect", ["p_length", "dp_length", "nan_p",
                                        "inf_dp"])
    def test_bad_vector_rejected(self, toy_engine, defect):
        """A wrong length or a non-finite value in p or dp raises; a NaN p
        with a zero increment too, rather than coming back as it is."""
        n = toy_engine.model.n_params
        p, dp = np.zeros(n), np.zeros(n)
        if defect == "p_length":
            p = np.zeros(n + 1)
        elif defect == "dp_length":
            dp = np.zeros(n + 1)
        elif defect == "nan_p":
            p[1] = np.nan
        else:
            dp[1] = np.inf
        with pytest.raises(DimensionError):
            compose(toy_engine.model, toy_engine.tri, p, dp)


class TestFrameImageSampling:
    def test_sample_frame_image_at_pixel_positions(self, toy_engine):
        frame = toy_engine.frame
        vec = bilinear_value(frame.positions, a=1.0, b=0.5, c=-0.25)
        grids = frame.to_grid(vec)
        got = sample_frame_image(grids, frame, frame.positions)
        np.testing.assert_allclose(got[:, 0], vec, atol=1e-9)

    def test_to_grid_takes_a_list(self, toy_engine):
        vec = np.arange(toy_engine.n_pixels, dtype=np.float64)
        frame = toy_engine.frame
        np.testing.assert_array_equal(frame.to_grid(list(vec)),
                                      frame.to_grid(vec))

    @pytest.mark.parametrize("cut", ["one_channel_2d", "row_short"])
    def test_grids_must_cover_the_frame(self, toy_engine, cut):
        """Grids are the (k, H, W) array of `to_grid`; a 2-D grid or one
        row short raises rather than being sampled at the wrong pixels."""
        frame = toy_engine.frame
        grids = frame.to_grid(np.ones(frame.n_pixels))
        grids = grids[0] if cut == "one_channel_2d" else grids[:, 1:]
        with pytest.raises(DimensionError, match="frame grids"):
            sample_frame_image(grids, frame, frame.positions)

    def test_nan_outside_mask_propagates(self, toy_engine, rng):
        frame = toy_engine.frame
        grids = frame.to_grid(np.ones(frame.n_pixels))
        grids[:, ~frame.mask] = np.nan
        cols, rows = np.meshgrid(np.arange(frame.width),
                                 np.arange(frame.height))
        grid_pts = np.column_stack([cols.ravel(), rows.ravel()])
        array_pos = np.vstack([
            grid_pts, rng.uniform(-1.0, [frame.width, frame.height],
                                  size=(300, 2))])
        got = sample_frame_image(grids, frame, array_pos + frame.origin)
        want = bilinear_reference(np.moveaxis(grids, 0, -1), array_pos)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
        # Interior pixels read only masked corners; a masked pixel whose
        # zero-weight corner lies outside the mask reads NaN.
        at_grid = got[:grid_pts.shape[0], 0]
        interior = interior_pixels(frame)
        assert interior.size and np.all(at_grid[
            np.flatnonzero(frame.mask.ravel())[interior]] == 1.0)
        assert np.isnan(at_grid[frame.mask.ravel()]).any()
        assert np.isnan(at_grid[~frame.mask.ravel()]).all()
