import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aam_cgd.appearance import (SIGMA_FLOOR_REL, AppearanceModel,
                                BpoOperator, appearance_instance,
                                build_appearance_model, project_appearance,
                                project_out)
from aam_cgd.errors import ConfigError, DimensionError
from aam_cgd.shape_model import (_GRAM_BLOCK, build_shape_model,
                                 procrustes_align, project_shape,
                                 shape_instance)
from aam_cgd.warp import WarpEngine
from perfbench import synth

from conftest import make_toy_shape_model

BENCH_MODEL_SEED = 20160101     # `MODEL_SEED` of perfbench/bench.py


def random_model(rng, dim=40, m=5, n_samples=12, noise=0.0):
    latent = rng.standard_normal((n_samples, m))
    basis = np.linalg.qr(rng.standard_normal((dim, m)))[0]
    mean = rng.standard_normal(dim)
    data = mean + latent @ (basis.T * np.arange(m, 0, -1)[:, None])
    if noise:
        data = data + noise * rng.standard_normal(data.shape)
    return build_appearance_model(list(data), n_components=m), data


class TestBuildAppearanceModel:
    @pytest.mark.parametrize("count", [0.75, np.float64(3.0), True, False],
                             ids=["float", "numpy_float", "true", "false"])
    def test_non_integer_count_rejected(self, rng, count):
        _, data = random_model(rng, dim=60, m=8, n_samples=30)
        with pytest.raises(DimensionError, match="integer"):
            build_appearance_model(list(data), n_components=count)

    def test_duplicated_image_gives_empty_basis_with_noise_floor(self):
        img = np.linspace(0.0, 1.0, 25)
        model = build_appearance_model([img, img, img])
        assert model.n_components == 0
        assert model.image_noise > 0

    def test_full_rank_reconstruction(self, rng):
        model, data = random_model(rng, dim=40, m=6, n_samples=12)
        for x in data:
            c = project_appearance(model, x)
            np.testing.assert_allclose(appearance_instance(model, c), x,
                                       atol=1e-8)

    def test_matches_dense_svd_oracle(self, rng):
        _, data = random_model(rng, dim=30, m=4, n_samples=10)
        model = build_appearance_model(list(data))
        X = data - data.mean(axis=0)
        s = np.linalg.svd(X, compute_uv=False)
        ref = (s ** 2) / (len(data) - 1)
        np.testing.assert_allclose(model.eigenvalues,
                                   ref[:model.n_components], rtol=1e-8)

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(DimensionError):
            build_appearance_model([np.zeros(10), np.zeros(11)])

    def test_empty_vectors_rejected(self):
        with pytest.raises(DimensionError, match="empty"):
            build_appearance_model([np.zeros(0), np.zeros(0)])

    def test_noise_is_mean_discarded_eigenvalue(self, rng):
        _, data = random_model(rng, dim=50, m=7, n_samples=20)
        full = build_appearance_model(list(data))
        cut = build_appearance_model(list(data), n_components=3)
        expected = full.eigenvalues[3:full.eigenvalues.size].mean()
        np.testing.assert_allclose(cut.image_noise, expected, rtol=1e-6)

    def test_noise_floored_when_discarded_modes_are_tiny(self, rng):
        """The floor holds when modes are discarded too: a sixth mode
        scaled by 1e-5 has a variance far below 1e-8 of the top one."""
        basis = np.linalg.qr(rng.standard_normal((50, 6)))[0]
        scale = np.array([6.0, 5.0, 4.0, 3.0, 2.0, 1e-5])
        data = rng.standard_normal((20, 6)) @ (basis * scale).T
        model = build_appearance_model(list(data), n_components=5)
        assert model.image_noise == pytest.approx(
            SIGMA_FLOOR_REL * model.eigenvalues[0], rel=1e-12)

    def test_mean_orthogonal_to_basis(self, rng):
        model, _ = random_model(rng, dim=45, m=5)
        assert np.max(np.abs(model.basis.T @ model.mean)) < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_wide_spectrum_stays_orthonormal(self, seed):
        # 40 samples of dimension 500 take the Gram side; the 30 mode
        # variances fall by 1e7, so the eigenvector round-off, divided by
        # the smallest modes' scale, couples the modes by more than 1e-10
        # unless the basis is re-orthonormalised.
        rng = np.random.default_rng(seed)
        modes = np.linalg.qr(rng.standard_normal((500, 30)))[0]
        sd = np.sqrt(np.geomspace(1.0, 1e-7, 30))
        data = rng.standard_normal(500) + (
            rng.standard_normal((40, 30)) * sd) @ modes.T
        model = build_appearance_model(list(data), n_components=30)
        assert model.eigenvalues[0] / model.eigenvalues[-1] > 1e6
        A = model.basis
        assert np.max(np.abs(A.T @ A - np.eye(30))) < 1e-12
        model.validate()

    @pytest.mark.parametrize("n_samples", [12, 60])  # Gram, covariance side
    def test_basis_column_major_and_read_only(self, rng, n_samples):
        model, _ = random_model(rng, dim=40, m=5, n_samples=n_samples)
        assert model.basis.flags.f_contiguous
        assert not model.basis.flags.writeable

    def test_strided_input_matches_contiguous(self, rng):
        M = rng.standard_normal((300, 20))         # columns are the inputs
        strided = build_appearance_model(list(M.T), n_components=8)
        contiguous = build_appearance_model(
            [np.ascontiguousarray(v) for v in M.T], n_components=8)
        for name in ("mean", "basis", "eigenvalues", "image_noise"):
            np.testing.assert_array_equal(getattr(strided, name),
                                          getattr(contiguous, name))

    def test_build_peak_memory(self):
        """Strided inputs are read in place and the basis is formed and
        orthonormalised in the training matrix's buffer: the build holds
        one copy of the training data, plus a few vectors of the input
        length."""
        M = np.random.default_rng(3).standard_normal((30000, 40))
        tracemalloc.start()
        try:
            build_appearance_model(list(M.T), n_components=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        slack = 6 * M[:, 0].nbytes
        assert peak <= M.nbytes + slack

    def test_benchmark_training_set_memory(self):
        """The benchmark's 6.7k-pixel training set: 130 strided vectors of
        20,115 values, m = 100.  The build's peak is one copy of the
        training data plus a few vectors and the in-place block, and the
        basis keeps only its own (k F, m) of that buffer."""
        rng = np.random.default_rng(BENCH_MODEL_SEED)
        aligned, _, mean = procrustes_align(synth.training_shapes(rng))
        aligned, mean, _ = synth.to_pixels(aligned, mean, 6700)
        engine = WarpEngine.build(build_shape_model(aligned, mean,
                                                    n_components=20))
        vectors = synth.texture_source(rng, engine).sample(
            rng, synth.N_TRAIN_APPEARANCES)
        assert len(vectors) == 130 and not vectors[0].flags.contiguous
        data_bytes = sum(v.nbytes for v in vectors)
        tracemalloc.start()
        try:
            model = build_appearance_model(vectors, n_components=100)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        vector = vectors[0].nbytes
        block = model.basis[:_GRAM_BLOCK].nbytes     # (m, block) product
        assert peak <= data_bytes + block + 4 * vector
        owner = model.basis
        while owner.base is not None:
            owner = owner.base
        assert owner.nbytes == model.basis.nbytes == 100 * vector
        assert held <= model.basis.nbytes + 2 * vector

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_rejected(self, rng, bad):
        _, data = random_model(rng)
        data[3, 7] = bad
        with pytest.raises(DimensionError):
            build_appearance_model(list(data))


class TestProjectOut:
    def test_annihilates_in_span_vectors(self, rng):
        model, _ = random_model(rng)
        c = rng.standard_normal(model.n_components)
        r = model.basis @ c
        assert np.linalg.norm(project_out(model, r)) < 1e-10

    def test_fixes_orthogonal_complement(self, rng):
        model, _ = random_model(rng)
        r = rng.standard_normal(model.n_features)
        r -= model.basis @ (model.basis.T @ r)
        np.testing.assert_allclose(project_out(model, r), r, atol=1e-12)

    def test_matches_dense_operator(self, rng):
        model, _ = random_model(rng, dim=150, m=6, n_samples=20)
        dense = np.eye(model.n_features) - model.basis @ model.basis.T
        r = rng.standard_normal(model.n_features)
        np.testing.assert_allclose(project_out(model, r), dense @ r,
                                   atol=1e-10)
        M = rng.standard_normal((model.n_features, 3))
        np.testing.assert_allclose(project_out(model, M), dense @ M,
                                   atol=1e-10)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        model, _ = random_model(rng, dim=25, m=3, n_samples=8)
        r = rng.standard_normal(model.n_features)
        once = project_out(model, r)
        np.testing.assert_allclose(project_out(model, once), once,
                                   atol=1e-10)

    def test_dimension_mismatch(self, rng):
        model, _ = random_model(rng)
        with pytest.raises(DimensionError):
            project_out(model, np.zeros(model.n_features + 1))

    @pytest.mark.parametrize("rho", [None, 0.4])
    def test_empty_matrix(self, rng, rho):
        """A (k F, 0) matrix weighs to an empty (k F, 0) result under
        either cost, not a BLAS argument error."""
        model, _ = random_model(rng)
        cost = model if rho is None else BpoOperator(model, rho=rho)
        got = project_out(cost, np.zeros((model.n_features, 0)))
        assert got.shape == (model.n_features, 0)

    def test_matrix_holds_one_temporary(self, rng):
        """The result is formed in A (-A^T r) and r is added in place, so
        projecting a (k F, n) matrix allocates one such array, and its
        bits are those of r - A (A^T r)."""
        model, _ = random_model(rng, dim=20000, m=5, n_samples=12)
        r = rng.standard_normal((model.n_features, 8))
        want = r - model.basis @ (model.basis.T @ r)
        tracemalloc.start()
        try:
            got = project_out(model, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(got, want)
        assert peak <= r.nbytes + r[:, 0].nbytes


def bpo_cost(op, r):
    """The Bayesian project-out quadratic form r . W r."""
    return float(r @ project_out(op, r))


class TestBpo:
    def test_rho_zero_equals_scaled_project_out(self, rng):
        model, _ = random_model(rng)
        op = BpoOperator(model, rho=0.0)
        r = rng.standard_normal(model.n_features)
        cost = bpo_cost(op, r)
        po = project_out(model, r)
        np.testing.assert_allclose(
            cost, float(po @ po) / model.image_noise, rtol=1e-12)

    def test_rho_half_matches_dense_woodbury(self, rng):
        model, _ = random_model(rng, dim=45, m=5, n_samples=14, noise=0.05)
        op = BpoOperator(model, rho=0.5)
        A, S = model.basis, model.eigenvalues
        dense = np.linalg.inv(A @ np.diag(S) @ A.T
                              + model.image_noise * np.eye(model.n_features))
        for _ in range(20):
            r = rng.standard_normal(model.n_features)
            cost = bpo_cost(op, r)
            np.testing.assert_allclose(2.0 * cost, r @ dense @ r, rtol=1e-8)

    def test_weighted_vector_is_gradient_direction(self, rng):
        # The weighted vector must be half the gradient of the quadratic
        # form q; by polarization q(r + s) - q(r - s) = 4 s . apply(r)
        # holds exactly when the weight is linear and symmetric.
        model, _ = random_model(rng, noise=0.1)
        op = BpoOperator(model, rho=0.3)
        r = rng.standard_normal(model.n_features)
        s = rng.standard_normal(model.n_features)
        np.testing.assert_allclose(
            bpo_cost(op, r + s) - bpo_cost(op, r - s),
            4.0 * float(s @ project_out(op, r)), rtol=1e-10)

    def test_empty_basis(self):
        img = np.linspace(0.0, 1.0, 30)
        model = build_appearance_model([img, img])
        op = BpoOperator(model, rho=0.25)
        r = np.ones(30)
        cost = bpo_cost(op, r)
        expected = (1 - 0.25) / model.image_noise * 30.0
        np.testing.assert_allclose(cost, expected, rtol=1e-12)

    def test_rho_out_of_range_rejected(self, rng):
        """rho must be a real number in [0, 1]; a bool is not one."""
        model, _ = random_model(rng)
        for rho in (True, False, "0.5", np.nan, -0.1, 1.5):
            with pytest.raises(ConfigError):
                BpoOperator(model, rho=rho)

    def test_reduces_to_project_out_for_huge_variances(self, rng):
        model, _ = random_model(rng, noise=0.1)
        huge = AppearanceModel(
            mean=model.mean, basis=model.basis,
            eigenvalues=np.full(model.n_components, 1e12),
            image_noise=model.image_noise)
        op = BpoOperator(huge, rho=0.5)
        r = rng.standard_normal(model.n_features)
        cost = bpo_cost(op, r)
        po = project_out(model, r)
        expected = 0.5 / model.image_noise * float(po @ po)
        np.testing.assert_allclose(cost, expected, rtol=1e-4)

    def test_matrix_holds_one_temporary(self, rng):
        """A (v * A^T r) + w r with the sum formed in place: weighting a
        (k F, n) matrix allocates the result and no second array of its
        size."""
        model, _ = random_model(rng, dim=20000, m=5, n_samples=12,
                                noise=0.05)
        op = BpoOperator(model, rho=0.4)
        r = rng.standard_normal((model.n_features, 8))
        A, s2 = model.basis, model.image_noise
        a = A.T @ r
        want = (0.4 * A @ (a / (model.eigenvalues + s2)[:, None])
                + 0.6 / s2 * (r - A @ a))
        tracemalloc.start()
        try:
            got = project_out(op, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_allclose(got, want, rtol=1e-10,
                                   atol=1e-12 * np.abs(want).max())
        assert peak <= r.nbytes + r[:, 0].nbytes

    def test_matrix_apply_matches_columnwise(self, rng):
        model, _ = random_model(rng, noise=0.05)
        op = BpoOperator(model, rho=0.4)
        M = rng.standard_normal((model.n_features, 4))
        full = project_out(op, M)
        for j in range(4):
            np.testing.assert_allclose(full[:, j], project_out(op, M[:, j]),
                                       atol=1e-12)


class TestInstanceProject:
    def test_zero_parameters_give_mean(self, rng):
        model, _ = random_model(rng)
        np.testing.assert_array_equal(
            appearance_instance(model, np.zeros(model.n_components)),
            model.mean)

    def test_project_instance_roundtrip(self, rng):
        model, _ = random_model(rng)
        c = rng.standard_normal(model.n_components)
        got = project_appearance(model, appearance_instance(model, c))
        np.testing.assert_allclose(got, c, atol=1e-10)

    def test_roundtrip_matches_dense_least_squares(self, rng):
        model, _ = random_model(rng)
        v = rng.standard_normal(model.n_features)
        ref, *_ = np.linalg.lstsq(model.basis, v - model.mean, rcond=None)
        np.testing.assert_allclose(project_appearance(model, v), ref,
                                   atol=1e-10)

    def test_dimension_mismatch(self, rng):
        model, _ = random_model(rng)
        with pytest.raises(DimensionError):
            appearance_instance(model, np.zeros(model.n_components + 2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("call", ["shape_instance", "project_shape",
                                  "appearance_instance",
                                  "project_appearance"])
def test_non_finite_input_rejected(rng, call, bad):
    """One non-finite parameter, shape coordinate or appearance value
    raises, rather than evaluating to NaN."""
    shape = make_toy_shape_model(rng)
    app, _ = random_model(rng)
    fn, model, n = {
        "shape_instance": (shape_instance, shape, shape.n_params),
        "project_shape": (project_shape, shape, shape.mean.size),
        "appearance_instance": (appearance_instance, app, app.n_components),
        "project_appearance": (project_appearance, app, app.n_features),
    }[call]
    x = np.zeros(n)
    x[rng.integers(n)] = bad
    with pytest.raises(DimensionError, match="non-finite"):
        fn(model, x)


@pytest.mark.parametrize("defect", ["rows", "not_orthonormal", "count",
                                    "non_positive", "ascending", "nan",
                                    "nan_mean", "inf_mean"])
@pytest.mark.parametrize("kind", ["shape", "appearance"])
def test_linear_model_rules_shared(rng, kind, defect):
    """Both models reject the same defects of their mean, basis and
    eigenvalues, naming the model in the DimensionError."""
    model = (make_toy_shape_model(rng) if kind == "shape"
             else random_model(rng)[0])
    evals = model.eigenvalues
    change = {
        "rows": {"basis": model.basis[:-2]},
        "not_orthonormal": {"basis": 1.01 * model.basis},
        "count": {"eigenvalues": evals[:-1]},
        "non_positive": {"eigenvalues": evals - evals[-1]},
        "ascending": {"eigenvalues": evals[::-1]},
        "nan": {"eigenvalues": np.append(np.nan, evals[1:])},
        "nan_mean": {"mean": np.append(np.nan, model.mean[1:])},
        "inf_mean": {"mean": np.append(np.inf, model.mean[1:])},
    }[defect]
    model.validate()
    with pytest.raises(DimensionError, match=kind):
        replace(model, **change).validate()


@pytest.mark.parametrize("defect, message", [
    ("odd_mean", "even length"), ("three_columns", "4 similarity columns")])
def test_shape_model_rules(rng, defect, message):
    """A shape model's own rules.  A basis cut to 3 columns also fails the
    eigenvalue count, so each check is told apart by its message."""
    model = make_toy_shape_model(rng)
    change = {"odd_mean": {"mean": model.mean[:-1]},
              "three_columns": {"basis": model.basis[:, :3]}}[defect]
    with pytest.raises(DimensionError, match=message):
        replace(model, **change).validate()


@pytest.mark.parametrize("defect, message", [
    ("mean_in_span", "not orthogonal"), ("zero_noise", "positive"),
    ("negative_noise", "positive")])
def test_appearance_model_rules(rng, defect, message):
    model, _ = random_model(rng)
    change = {"mean_in_span": {"mean": model.mean + model.basis[:, 0]},
              "zero_noise": {"image_noise": 0.0},
              "negative_noise": {"image_noise": -1.0}}[defect]
    with pytest.raises(DimensionError, match=message):
        replace(model, **change).validate()


@pytest.mark.parametrize("kind", ["shape", "appearance"])
def test_equal_eigenvalues_accepted(rng, kind):
    model = (make_toy_shape_model(rng) if kind == "shape"
             else random_model(rng)[0])
    replace(model, eigenvalues=np.ones_like(model.eigenvalues)).validate()
