import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aam_cgd import shape_model
from aam_cgd.errors import (DegeneracyError, DimensionError,
                            InsufficientDataError)
from aam_cgd.shape_model import (_orthonormalize, _pca, as_shape,
                                 build_shape_model, face_size,
                                 procrustes_align, project_shape,
                                 shape_instance, similarity_basis)

from oracles import similarity_lstsq


def random_shapes(rng, n_shapes=20, v=6, spread=0.1):
    base = rng.uniform(-1, 1, size=2 * v)
    return [base + spread * rng.standard_normal(2 * v)
            for _ in range(n_shapes)]


def rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)],
                     [np.sin(theta), np.cos(theta)]])


def similar(s, scale, theta, t):
    """Shape s under x -> scale * R(theta) @ x + t."""
    return (scale * s.reshape(-1, 2) @ rotation(theta).T + t).ravel()


def apply_rows(sims, shapes):
    """Each (p, q, tx, ty) row applied to its shape: x -> M x + t with
    M = [[p, -q], [q, p]]."""
    out = []
    for (p, q, tx, ty), s in zip(sims, shapes):
        M = np.array([[p, -q], [q, p]])
        out.append((s.reshape(-1, 2) @ M.T + (tx, ty)).ravel())
    return np.array(out)


class TestProcrustes:
    def test_identical_inputs_give_identity_transforms(self):
        s = np.array([0.0, 0.0, 2.0, 0.0, 2.0, 2.0, 0.0, 2.0])
        aligned, sims, mean = procrustes_align([s] * 5)
        # One similarity for all: the centroid and the centred norm, with
        # no rotation, since the mean is the input normalized.
        assert sims.shape == (5, 4)
        np.testing.assert_allclose(sims, [[2.0 * np.sqrt(2.0), 0.0, 1.0,
                                           1.0]] * 5, rtol=0, atol=1e-12)
        np.testing.assert_allclose(aligned, [mean] * 5, rtol=0, atol=1e-12)

    def test_two_shape_recovers_similarity(self):
        # Closed-form oracle: the relative similarity between the two
        # recovered ones must match the constructed similarity.
        rng = np.random.default_rng(1)
        s1 = as_shape(rng.uniform(0, 1, size=16))
        theta = np.deg2rad(30.0)
        s2 = similar(s1, 2.0, theta, (0.3, -0.4))
        _, sims, _ = procrustes_align([s1, s2])
        a1, a2 = sims[:, 0] + 1j * sims[:, 1]
        assert abs(a2 / a1 - 2.0 * np.exp(1j * theta)) < 2e-12

    @pytest.mark.parametrize("v", [3, 68])
    def test_matches_lstsq_oracle(self, rng, v):
        # Every row is the least-squares similarity taking the mean onto
        # its shape, and every aligned shape is its shape under that
        # similarity's inverse, across all rotations and six decades of
        # scale.  Translations are of the shape's own size.
        n = 24
        base = rng.uniform(-1, 1, size=2 * v)
        angles = np.pi - 2.0 * np.pi * np.arange(n) / n   # (-pi, pi]
        scales = rng.permutation(np.geomspace(1e-3, 1e3, n))
        shapes = [similar(base + 0.05 * rng.standard_normal(2 * v), c, th,
                          c * rng.uniform(-2, 2, size=2))
                  for th, c in zip(angles, scales)]
        aligned, sims, mean = procrustes_align(shapes)
        for s, row, al in zip(shapes, sims, aligned):
            ref = similarity_lstsq(mean, s)
            np.testing.assert_allclose(row, ref, rtol=0,
                                       atol=1e-12 * np.abs(ref).max())
            p, q, tx, ty = ref
            inv = ((s.reshape(-1, 2) - (tx, ty)) @ np.array([[p, -q], [q, p]])
                   / (p * p + q * q)).ravel()
            np.testing.assert_allclose(al, inv, rtol=0,
                                       atol=1e-12 * np.abs(inv).max())

    def test_rows_fit_the_returned_mean_when_capped(self, monkeypatch):
        """Stopped by its iteration cap, before the mean converges, the
        alignment still returns each shape's least-squares similarity
        against the mean it returns."""
        monkeypatch.setattr(shape_model, "PROCRUSTES_MAX_ITERS", 1)
        rng = np.random.default_rng(16)
        shapes = [similar(s, 1.0 + i, 0.3 * i, (i, -i))
                  for i, s in enumerate(random_shapes(rng, 6, spread=0.3))]
        _, sims, mean = procrustes_align(shapes)
        for s, row in zip(shapes, sims):
            ref = similarity_lstsq(mean, s)
            np.testing.assert_allclose(row, ref, rtol=0,
                                       atol=1e-12 * np.abs(ref).max())

    def test_mean_stable_under_more_iterations(self):
        # The mean is a fixed point: one more alignment step, which
        # averages the aligned shapes, centres and normalizes, returns it.
        rng = np.random.default_rng(2)
        aligned, _, mean = procrustes_align(random_shapes(rng))
        pts = np.mean(aligned, axis=0).reshape(-1, 2)
        pts = pts - pts.mean(axis=0)
        np.testing.assert_allclose(pts.ravel() / np.linalg.norm(pts), mean,
                                   rtol=0, atol=1e-10)

    def test_mean_has_unit_norm_zero_centroid(self):
        rng = np.random.default_rng(3)
        _, _, mean = procrustes_align(random_shapes(rng))
        pts = mean.reshape(-1, 2)
        np.testing.assert_allclose(pts.mean(axis=0), 0, atol=1e-12)
        assert abs(np.linalg.norm(pts) - 1.0) < 1e-12

    def test_mean_invariant_to_input_order(self):
        rng = np.random.default_rng(4)
        shapes = random_shapes(rng)
        _, _, mean_a = procrustes_align(shapes)
        _, _, mean_b = procrustes_align(shapes[::-1])
        assert np.linalg.norm(mean_a - mean_b) < 1e-8

    def test_aligned_is_inverse_transform_of_input(self):
        rng = np.random.default_rng(5)
        shapes = random_shapes(rng)
        aligned, sims, _ = procrustes_align(shapes)
        np.testing.assert_allclose(apply_rows(sims, aligned), shapes,
                                   rtol=0, atol=1e-12)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DimensionError):
            procrustes_align([np.zeros(8) + np.arange(8),
                              np.arange(10)])

    def test_degenerate_shape_rejected(self):
        good = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 1.0])
        flat = np.ones(6)
        with pytest.raises(DegeneracyError):
            procrustes_align([good, flat])

    def test_single_shape_rejected(self):
        with pytest.raises(InsufficientDataError):
            procrustes_align([np.arange(6.0)])

    @pytest.mark.parametrize("n", [7, 4])
    def test_odd_or_short_shape_rejected(self, n):
        """A typed error, where numpy's complex view would raise a
        ValueError on 7 values and 4 values would align as two points."""
        s = np.arange(n, dtype=np.float64)
        with pytest.raises(DimensionError, match="even length >= 6"):
            procrustes_align([s, 2.0 * s])

    def test_nan_coordinate_rejected(self):
        s = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 1.0])
        with pytest.raises(DimensionError, match="non-finite"):
            procrustes_align([s, np.append(s[:-1], np.nan)])

    def test_overflowing_norm_rejected(self):
        """A unit square scaled by 1e200 is finite, but its norm is not:
        the finiteness rule names it, with no overflow warning."""
        square = 1e200 * np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
        with pytest.raises(DimensionError, match="non-finite landmark norm"):
            procrustes_align([square, square])

    def test_shape_orthogonal_to_reference_rejected(self):
        """u and -u cancel in the initial reference, which leaves v; u is
        orthogonal to v, so its least-squares scale against it is 0."""
        u = np.array([1.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        v = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0, -1.0, 0.0])
        with pytest.raises(DegeneracyError, match="similarity alignment"):
            procrustes_align([u, -u, v])


class TestBuildShapeModel:
    def test_three_components_gives_seven_parameters(self):
        rng = np.random.default_rng(6)
        shapes = random_shapes(rng, n_shapes=30, v=8)
        aligned, _, mean = procrustes_align(shapes)
        model = build_shape_model(aligned, mean, n_components=3)
        assert model.n_params == 7
        assert model.n_nonrigid == 3

    def test_identical_shapes_give_zero_nonrigid(self):
        s = as_shape(np.array([0.0, 0.0, 2.0, 0.5, 1.0, 2.0, -1.0, 1.0]))
        aligned, _, mean = procrustes_align([s, s, s])
        model = build_shape_model(aligned, mean)
        assert model.n_nonrigid == 0

    def test_full_rank_reconstructs_training_shapes(self):
        # Oracle: with every mode kept, project + synthesize must
        # reproduce each training shape.
        rng = np.random.default_rng(7)
        shapes = random_shapes(rng, n_shapes=10, v=4, spread=0.05)
        aligned, _, mean = procrustes_align(shapes)
        model = build_shape_model(aligned, mean)
        for s in aligned:
            rec = shape_instance(model, project_shape(model, s))
            np.testing.assert_allclose(rec, s, atol=1e-8)

    def test_eigenvalues_match_direct_eigendecomposition(self):
        rng = np.random.default_rng(8)
        shapes = random_shapes(rng, n_shapes=40, v=5)
        aligned, _, mean = procrustes_align(shapes)
        model = build_shape_model(aligned, mean)
        X = np.stack(aligned) - mean
        sim = similarity_basis(mean)
        X = X - (X @ sim) @ sim.T
        ref = np.sort(np.linalg.eigvalsh(X.T @ X / (len(aligned) - 1)))[::-1]
        np.testing.assert_allclose(model.eigenvalues,
                                   ref[:model.n_nonrigid], atol=1e-10)

    def test_cap_warns(self):
        rng = np.random.default_rng(9)
        shapes = random_shapes(rng, n_shapes=4, v=6)
        aligned, _, mean = procrustes_align(shapes)
        with pytest.warns(RuntimeWarning):
            model = build_shape_model(aligned, mean, n_components=50)
        assert model.n_nonrigid <= 3  # at most n_samples - 1

    def test_coincident_mean_landmarks_rejected(self):
        # The similarity columns of a one-point mean are linearly
        # dependent: a typed error, not numpy's LinAlgError.
        s = np.ones(8)
        with pytest.raises(DegeneracyError):
            build_shape_model([s, s], s)
        with pytest.raises(DegeneracyError):
            similarity_basis(s)

    def test_too_few_shapes_rejected(self):
        with pytest.raises(InsufficientDataError):
            build_shape_model([np.zeros(6)], np.zeros(6))

    @pytest.mark.parametrize("case", ["ragged", "mean_length", "nan_shape"])
    def test_mismatched_shapes_rejected(self, case):
        """Aligned shapes of unequal length, or of another length than
        the mean, raise DimensionError, as in `procrustes_align`, not
        numpy's stacking or broadcasting error; so does a NaN
        coordinate."""
        rng = np.random.default_rng(11)
        aligned, _, mean = procrustes_align(random_shapes(rng, 5, v=6))
        aligned = [s.copy() for s in aligned]
        if case == "ragged":
            aligned[2] = aligned[2][:-2]
        elif case == "mean_length":
            mean = np.append(mean, [0.0, 0.0])
        else:
            aligned[1][3] = np.nan
        with pytest.raises(DimensionError):
            build_shape_model(aligned, mean)

    def test_negative_count_rejected_zero_accepted(self):
        rng = np.random.default_rng(10)
        aligned, _, mean = procrustes_align(random_shapes(rng, 30, v=8))
        with pytest.raises(DimensionError, match=">= 0"):
            build_shape_model(aligned, mean, n_components=-1)
        assert build_shape_model(aligned, mean, n_components=0) \
            .n_nonrigid == 0

    def test_mean_taken_as_list(self):
        rng = np.random.default_rng(14)
        aligned, _, mean = procrustes_align(random_shapes(rng, 30, v=8))
        np.testing.assert_array_equal(
            build_shape_model(aligned, list(mean)).basis,
            build_shape_model(aligned, mean).basis)

    def test_model_owns_read_only_arrays(self):
        """The model freezes its own copy of the mean: the caller's stays
        writeable and unshared."""
        rng = np.random.default_rng(15)
        aligned, _, mean = procrustes_align(random_shapes(rng, 30, v=8))
        model = build_shape_model(aligned, mean)
        assert mean.flags.writeable
        assert not np.shares_memory(model.mean, mean)
        for a in (model.mean, model.basis, model.eigenvalues):
            assert not a.flags.writeable

    def test_numpy_integer_count(self):
        rng = np.random.default_rng(10)
        aligned, _, mean = procrustes_align(random_shapes(rng, 30, v=8))
        model = build_shape_model(aligned, mean, n_components=np.int64(3))
        assert model.n_nonrigid == 3

    @pytest.mark.parametrize("count", [0.75, np.float64(3.0), "3", True,
                                       False],
                             ids=["float", "numpy_float", "str", "true",
                                  "false"])
    def test_non_integer_count_rejected(self, count):
        # int() would read 0.75 as 0 modes, operator.index True as 1.
        rng = np.random.default_rng(10)
        aligned, _, mean = procrustes_align(random_shapes(rng, 30, v=8))
        with pytest.raises(DimensionError, match="integer"):
            build_shape_model(aligned, mean, n_components=count)


def raw_similarity(mean):
    """The four similarity differentials of `mean`, unnormalised: x and y
    translation, then scale and rotation about the centroid."""
    pts = mean.reshape(-1, 2) - mean.reshape(-1, 2).mean(axis=0)
    cols = np.zeros((mean.size, 4))
    cols[0::2, 0] = 1.0
    cols[1::2, 1] = 1.0
    cols[:, 2] = pts.ravel()
    cols[:, 3] = np.column_stack([-pts[:, 1], pts[:, 0]]).ravel()
    return cols


def assert_oriented_and_nested(q, raw):
    """q[:, j] points along raw[:, j] and q's first j columns span raw's
    first j columns, for every j."""
    for j in range(raw.shape[1]):
        assert q[:, j] @ raw[:, j] > 0
        lead, Q = raw[:, :j + 1], q[:, :j + 1]
        gap = lead - Q @ (Q.T @ lead)
        assert np.linalg.norm(gap) <= 1e-10 * np.linalg.norm(lead)


class TestBasisOrientation:
    def test_orthonormalize_badly_scaled_columns(self, rng):
        C = rng.standard_normal((40, 8)) * np.geomspace(1e3, 1e-3, 8)
        q = _orthonormalize(np.asfortranarray(C))
        np.testing.assert_allclose(q.T @ q, np.eye(8), atol=1e-14)
        assert_oriented_and_nested(q, C)

    def test_orthonormalize_dependent_columns(self, rng):
        C = rng.standard_normal((10, 3))
        C[:, 1] = 0.0
        with pytest.raises(DegeneracyError):
            _orthonormalize(C)

    def test_orthonormalize_no_columns(self, capfd):
        """An empty basis (a shape model with no non-rigid modes) comes
        back empty, and LAPACK is not called to print an error."""
        q = _orthonormalize(np.zeros((10, 0)))
        assert q.shape == (10, 0)
        assert capfd.readouterr() == ("", "")

    def test_orthonormalize_in_place_on_column_major(self, rng):
        C = np.asfortranarray(rng.standard_normal((40, 8)))
        raw = C.copy()
        q = _orthonormalize(C)
        assert np.shares_memory(q, C) and q.flags.f_contiguous
        np.testing.assert_allclose(q.T @ q, np.eye(8), atol=1e-14)
        assert_oriented_and_nested(q, raw)

    def test_orthonormalize_nan_column_rejected(self, rng):
        C = rng.standard_normal((10, 3))
        C[4, 1] = np.nan
        with pytest.raises(DimensionError, match="non-finite"):
            _orthonormalize(C)

    @pytest.mark.parametrize("seed", range(10))
    def test_orthonormalize_round_off_pivot(self, seed):
        """The second column is exactly dependent on the first.  Cholesky
        fails on some seeds and leaves a positive round-off pivot on
        others; both must raise."""
        c, r = np.random.default_rng(seed).standard_normal((2, 10))
        with pytest.raises(DegeneracyError):
            _orthonormalize(np.column_stack([c, 3 * c + 1e-17, r]))

    @pytest.mark.parametrize("scale", [1e-3, 1e5])
    def test_similarity_basis(self, rng, scale):
        mean = scale * rng.uniform(-1, 1, size=14)
        assert_oriented_and_nested(similarity_basis(mean),
                                   raw_similarity(mean))

    @pytest.mark.parametrize("n_shapes", [8, 30])  # Gram, covariance side
    @pytest.mark.parametrize("scale", [1e-3, 1e5])
    def test_joint_shape_basis(self, rng, scale, n_shapes):
        # The joint basis keeps the similarity differentials first, then
        # the PCA modes in order, each with its orientation.
        shapes = [scale * s for s in random_shapes(rng, n_shapes, v=7)]
        mean = np.mean(shapes, axis=0)
        model = build_shape_model(shapes, mean)
        X = np.stack(shapes) - mean
        sim = similarity_basis(mean)
        X -= (X @ sim) @ sim.T
        modes, _ = _pca(X, float(mean @ mean), None, "shape")
        assert modes.shape[1] == model.n_nonrigid > 0
        assert_oriented_and_nested(
            model.basis, np.hstack([raw_similarity(mean), modes]))


@pytest.mark.parametrize("n_samples", [8, 40])   # Gram, covariance side
def test_pca_nan_sample_rejected(rng, n_samples):
    X = rng.standard_normal((n_samples, 30))
    X[3, 7] = np.nan
    with pytest.raises(DimensionError, match="non-finite shape"):
        _pca(X, 1.0, None, "shape")


class TestInstanceProject:
    @pytest.fixture(scope="class")
    def model(self):
        rng = np.random.default_rng(11)
        shapes = random_shapes(rng, n_shapes=25, v=6)
        aligned, _, mean = procrustes_align(shapes)
        return build_shape_model(aligned, mean)

    def test_zero_parameters_give_mean(self, model):
        np.testing.assert_array_equal(
            shape_instance(model, np.zeros(model.n_params)), model.mean)

    def test_linearity(self, model):
        rng = np.random.default_rng(12)
        p1 = rng.standard_normal(model.n_params)
        p2 = rng.standard_normal(model.n_params)
        lhs = (shape_instance(model, p1) + shape_instance(model, p2)
               - model.mean)
        np.testing.assert_allclose(lhs, shape_instance(model, p1 + p2),
                                   atol=1e-12)

    def test_project_mean_is_zero(self, model):
        np.testing.assert_allclose(project_shape(model, model.mean),
                                   np.zeros(model.n_params), atol=1e-12)

    def test_project_single_column(self, model):
        s = model.mean + 0.5 * model.basis[:, 5]
        p = project_shape(model, s)
        expected = np.zeros(model.n_params)
        expected[5] = 0.5
        np.testing.assert_allclose(p, expected, atol=1e-12)

    def test_project_matches_dense_least_squares(self, model):
        rng = np.random.default_rng(13)
        s = model.mean + 0.3 * rng.standard_normal(model.mean.size)
        p = project_shape(model, s)
        ref, *_ = np.linalg.lstsq(model.basis, s - model.mean, rcond=None)
        np.testing.assert_allclose(p, ref, atol=1e-10)

    def test_dimension_errors(self, model):
        with pytest.raises(DimensionError):
            shape_instance(model, np.zeros(model.n_params + 1))
        with pytest.raises(DimensionError):
            project_shape(model, np.zeros(model.mean.size + 2))

    def test_takes_lists_and_point_arrays(self, model):
        p = np.arange(model.n_params) / 10.0
        s = shape_instance(model, p)
        np.testing.assert_array_equal(shape_instance(model, list(p)), s)
        np.testing.assert_array_equal(project_shape(model, s.reshape(-1, 2)),
                                      project_shape(model, s))

    def test_basis_orthonormal(self, model):
        gram = model.basis.T @ model.basis
        np.testing.assert_allclose(gram, np.eye(model.n_params), atol=1e-10)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_project_instance_roundtrip(self, model, seed):
        rng = np.random.default_rng(seed)
        p = rng.standard_normal(model.n_params)
        np.testing.assert_allclose(
            project_shape(model, shape_instance(model, p)), p, atol=1e-10)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_instance_project_is_idempotent_projector(self, model, seed):
        rng = np.random.default_rng(seed)
        s = model.mean + 0.2 * rng.standard_normal(model.mean.size)
        once = shape_instance(model, project_shape(model, s))
        twice = shape_instance(model, project_shape(model, once))
        np.testing.assert_allclose(twice, once, atol=1e-10)


class TestFaceSize:
    def test_square(self):
        s = np.array([0.0, 0.0, 4.0, 0.0, 4.0, 2.0, 0.0, 2.0])
        assert face_size(s) == 3.0  # (4 + 2) / 2

    def test_offset_square(self):
        s = np.array([1.0, 1.0, 5.0, 1.0, 5.0, 3.0, 1.0, 3.0])
        assert face_size(s) == 3.0  # extents, not the box's corners

    def test_degenerate(self):
        with pytest.raises(DegeneracyError):
            face_size(np.zeros(6))

    def test_non_finite_rejected(self):
        with pytest.raises(DimensionError):
            face_size([0.0, 0.0, 1.0, np.nan, 2.0, 2.0])


def test_as_array_casts_bool_and_integer_input():
    """Bool and integer input is cast to float64 and float64 input comes
    back as it is, not copied; integer shapes align as their float values
    do (an integer array viewed as complex landmarks would not)."""
    x = np.arange(4.0)
    assert shape_model.as_array(x, None, "x") is x
    for a in ([True, False], np.arange(3, dtype=np.uint8), [1, 2]):
        got = shape_model.as_array(a, None, "x")
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, np.asarray(a, dtype=float))
    shapes = np.random.default_rng(3).integers(-9, 10, size=(4, 12))
    for got, want in zip(procrustes_align(shapes),
                         procrustes_align(shapes.astype(float))):
        np.testing.assert_array_equal(got, want)


def test_shape_to_points_takes_the_shape_rule():
    """`shape_to_points` views `as_shape`'s vector as points: a float64
    shape is not copied, and an odd length raises `DimensionError`."""
    s = np.arange(6.0)
    pts = shape_model.shape_to_points(s)
    assert pts.shape == (3, 2) and np.shares_memory(pts, s)
    with pytest.raises(DimensionError, match="even length"):
        shape_model.shape_to_points(np.arange(7.0))
