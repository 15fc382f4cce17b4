import tracemalloc
import warnings

import numpy as np
import pytest

from aam_cgd.appearance import (AppearanceModel, BpoOperator,
                                appearance_instance, cost_weights,
                                project_out)
from aam_cgd.errors import DimensionError
from aam_cgd.jacobians import (_adjoint_image, basis_gradient_stack,
                               blend_gradients, gn_hessian, image_gradient,
                               newton_terms_asymmetric,
                               newton_terms_bidirectional, residual_curvature,
                               second_gradient, steepest_descent)

from conftest import diamond_frame
from oracles import (BidirectionalCost, basis_gradient_loop, dense_bpo,
                     fd_gradient, fd_hessian, interior_pixels,
                     make_toy_state, neighbour_gradient,
                     residual_curvature_sum, steepest_descent_loop)


class TestImageGradient:
    def test_constant_image_zero_gradient(self, toy_engine):
        v = np.full(toy_engine.n_pixels, 3.3)
        gx, gy = image_gradient(v, toy_engine.frame)
        np.testing.assert_array_equal(gx, 0.0)
        np.testing.assert_array_equal(gy, 0.0)

    def test_linear_ramp_exact(self, toy_engine):
        frame = toy_engine.frame
        v = 2.0 * frame.positions[:, 0]
        gx, gy = image_gradient(v, frame)
        inner = interior_pixels(frame)
        np.testing.assert_allclose(gx[inner], 2.0, atol=1e-10)
        np.testing.assert_allclose(gy[inner], 0.0, atol=1e-10)

    def test_matches_full_grid_oracle(self, toy_engine):
        frame = toy_engine.frame
        rng = np.random.default_rng(3)
        full = rng.standard_normal((frame.height, frame.width))
        v = full[frame.mask]
        # Oracle: central differences on the unmasked rectangular grid.
        ox = np.zeros_like(full)
        oy = np.zeros_like(full)
        ox[:, 1:-1] = 0.5 * (full[:, 2:] - full[:, :-2])
        oy[1:-1, :] = 0.5 * (full[2:, :] - full[:-2, :])
        gx, gy = image_gradient(v, frame)
        inner = interior_pixels(frame)
        np.testing.assert_allclose(gx[inner], ox[frame.mask][inner],
                                   atol=1e-8)
        np.testing.assert_allclose(gy[inner], oy[frame.mask][inner],
                                   atol=1e-8)

    def test_multichannel(self, toy_engine):
        frame = toy_engine.frame
        v = np.concatenate([frame.positions[:, 0],
                            3.0 * frame.positions[:, 1]])
        gx, gy = image_gradient(v, frame)
        F = frame.n_pixels
        inner = interior_pixels(frame)
        np.testing.assert_allclose(gx[:F][inner], 1.0, atol=1e-10)
        np.testing.assert_allclose(gy[F:][inner], 3.0, atol=1e-10)

    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_neighbour_oracle(self, rng, k):
        frame = diamond_frame()
        v = rng.standard_normal(k * frame.n_pixels)
        gx, gy = image_gradient(v, frame)
        ox, oy = neighbour_gradient(v, frame)
        np.testing.assert_array_equal(gx, ox)
        np.testing.assert_array_equal(gy, oy)

    @pytest.mark.parametrize("which", ["diamond", "toy"])
    def test_second_gradient_order(self, toy_engine, rng, which):
        """The rows are xx = Dx Dx v, xy = (Dy Dx v + Dx Dy v) / 2 and
        yy = Dy Dy v, each the neighbour-table oracle applied twice.  Near
        the mask's edge one-sided differences do not commute, so Dy Dx v
        and Dx Dy v differ and a dropped or unhalved side shows."""
        frame = diamond_frame() if which == "diamond" else toy_engine.frame
        v = rng.standard_normal(3 * frame.n_pixels)
        gx, gy = neighbour_gradient(v, frame)
        (dxx, dyx), (dxy, dyy) = (neighbour_gradient(gx, frame),
                                  neighbour_gradient(gy, frame))
        h = second_gradient(v, frame)
        assert h.shape == (3, v.size)
        np.testing.assert_array_equal(h, [dxx, 0.5 * (dyx + dxy), dyy])
        assert not np.allclose(dyx, dxy)

    def test_difference_operators_adjoint(self, rng):
        frame = diamond_frame()
        v = rng.standard_normal(frame.n_pixels)
        u = rng.standard_normal(2 * frame.n_pixels)
        g = np.column_stack(image_gradient(v, frame)).ravel()  # row 2f + a
        np.testing.assert_allclose(g @ u, v @ (frame.diff.T @ u), rtol=1e-12)


class TestSteepestDescent:
    def test_zero_gradient_zero_jacobian(self, toy_engine):
        F = toy_engine.n_pixels
        J = steepest_descent(np.zeros(F), np.zeros(F), toy_engine.dWdp)
        np.testing.assert_array_equal(J, 0.0)

    def test_blend_alpha_one_equals_image_flavor(self, toy_engine, rng):
        F = toy_engine.n_pixels
        gi = (rng.standard_normal(F), rng.standard_normal(F))
        ga = (rng.standard_normal(F), rng.standard_normal(F))
        blended = blend_gradients(gi, ga, alpha=1.0)
        np.testing.assert_array_equal(
            steepest_descent(*blended, toy_engine.dWdp),
            steepest_descent(*gi, toy_engine.dWdp))

    def test_esm_identity(self, toy_engine, rng):
        # Half/half blend equals the mean of the two one-sided Jacobians.
        F = toy_engine.n_pixels
        gi = (rng.standard_normal(F), rng.standard_normal(F))
        ga = (rng.standard_normal(F), rng.standard_normal(F))
        J_t = steepest_descent(*blend_gradients(gi, ga, 0.5),
                               toy_engine.dWdp)
        J_i = steepest_descent(*gi, toy_engine.dWdp)
        J_a = steepest_descent(*ga, toy_engine.dWdp)
        np.testing.assert_allclose(J_t, 0.5 * (J_i + J_a), atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_pixel_loop(self, toy_engine, rng, k):
        F = toy_engine.n_pixels
        g = (rng.standard_normal(k * F), rng.standard_normal(k * F))
        got = steepest_descent(*g, toy_engine.dWdp)
        ref = steepest_descent_loop(*g, toy_engine.dWdp)
        np.testing.assert_allclose(got, ref, rtol=1e-14,
                                   atol=1e-14 * np.abs(ref).max())

    def test_holds_the_stack_and_the_result(self, rng):
        """At the 19k-pixel, three-channel size one call allocates the
        (k, F, 2) gradient stack and the C-contiguous (k F, P) result,
        which the per-pixel products write in place: no second (k F, P)
        array, transposed or buffered."""
        F, k, P = 19002, 3, 24
        dW = rng.standard_normal((F, 2, P))
        g = rng.standard_normal((2, k * F))
        tracemalloc.start()
        try:
            J = steepest_descent(*g, dW)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert J.shape == (k * F, P) and J.flags.c_contiguous
        assert peak <= J.nbytes + g.nbytes + g[0, :F].nbytes

    @pytest.mark.parametrize("layout", ["F_warp_jac", "strided_gradient"])
    def test_layout_of_input_is_immaterial(self, toy_engine, rng, layout):
        """An F-ordered warp Jacobian or strided gx/gy views give the
        contiguous input's array, still C-contiguous."""
        F, k = toy_engine.n_pixels, 3
        dW = toy_engine.dWdp
        g = rng.standard_normal((2, k * F))
        want = steepest_descent(*g, dW)
        if layout == "F_warp_jac":
            dW = np.asfortranarray(dW)
        else:
            g = np.asfortranarray(g)
            assert not g[0].flags.contiguous
        got = steepest_descent(*g, dW)
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("call", [
    "image_gradient", "second_gradient", "steepest_descent",
    "steepest_descent_gy_shape", "blend_gradients_broadcast",
    "blend_gradients_width", "residual_curvature", "residual_curvature_channels",
    "residual_curvature_four_rows", "residual_curvature_second_length",
    "basis_gradient_stack", "basis_gradient_stack_channels",
    "newton_terms_asymmetric", "newton_terms_asymmetric_channels",
    "newton_terms_asymmetric_J_t", "newton_terms_asymmetric_J_t_width",
    "newton_terms_asymmetric_four_rows_image",
    "newton_terms_asymmetric_four_rows_model",
    "newton_terms_asymmetric_second_length",
    "newton_terms_bidirectional",
    "newton_terms_bidirectional_channels", "newton_terms_bidirectional_J_i",
    "newton_terms_bidirectional_J_a", "newton_terms_bidirectional_J_i_width",
    "newton_terms_bidirectional_J_a_width",
    "newton_terms_bidirectional_four_rows",
    "newton_terms_bidirectional_second_length"])
def test_channel_major_length_checked(toy_engine, rng, call):
    """A channel-major input of length F + 1, a one-channel residual
    against three-channel second derivatives or basis, an (F, P)
    Jacobian against the basis's 3F rows, a (3F, P - 1) Jacobian, or
    second derivatives that are not the (3, 3F) Hessian rows (four rows,
    or 3F - 1 columns), a y gradient of another shape than the x
    gradient, or a model-side gradient of another shape than the
    image-side one, (2, 1) or (2, 3) against (2, 6), raise DimensionError
    rather than numpy's reshape, matmul or broadcast error or a silent
    broadcast."""
    frame, dW = toy_engine.frame, toy_engine.dWdp
    F, P = frame.n_pixels, dW.shape[2]
    app = _orthonormal_appearance(rng, 3 * F, 2)
    bad = rng.standard_normal(F + 1)
    v = rng.standard_normal(3 * F)
    s = second_gradient(v, frame)
    s4 = np.vstack([s[:2], s[1:]])          # xx, xy, xy, yy
    s_short = s[:, :-1]
    J = rng.standard_normal((3 * F, P))
    calls = {
        "image_gradient": lambda: image_gradient(bad, frame),
        "second_gradient": lambda: second_gradient(bad, frame),
        "steepest_descent": lambda: steepest_descent(bad, bad, dW),
        "steepest_descent_gy_shape": lambda: steepest_descent(
            v, v.reshape(3, F), dW),
        "blend_gradients_broadcast": lambda: blend_gradients(
            np.ones((2, 6)), np.ones((2, 1)), 0.5),
        "blend_gradients_width": lambda: blend_gradients(
            np.ones((2, 6)), np.ones((2, 3)), 0.5),
        "residual_curvature": lambda: residual_curvature(s, dW, bad),
        "residual_curvature_channels": lambda: residual_curvature(
            s, dW, v[:F]),
        "residual_curvature_four_rows": lambda: residual_curvature(
            s4, dW, v),
        "residual_curvature_second_length": lambda: residual_curvature(
            s_short, dW, v),
        "basis_gradient_stack": lambda: basis_gradient_stack(
            app, frame, dW, bad),
        "basis_gradient_stack_channels": lambda: basis_gradient_stack(
            app, frame, dW, v[:F]),
        "newton_terms_asymmetric": lambda: newton_terms_asymmetric(
            app, frame, dW, bad, s, s, J, 0.5),
        "newton_terms_asymmetric_channels": lambda: newton_terms_asymmetric(
            app, frame, dW, v[:F], s, s, J, 0.5),
        "newton_terms_asymmetric_J_t": lambda: newton_terms_asymmetric(
            app, frame, dW, v, s, s, J[:F], 0.5),
        "newton_terms_asymmetric_J_t_width": lambda: newton_terms_asymmetric(
            app, frame, dW, v, s, s, J[:, :-1], 0.5),
        "newton_terms_asymmetric_four_rows_image": lambda:
            newton_terms_asymmetric(app, frame, dW, v, s4, s, J, 0.5),
        "newton_terms_asymmetric_four_rows_model": lambda:
            newton_terms_asymmetric(app, frame, dW, v, s, s4, J, 0.5),
        "newton_terms_asymmetric_second_length": lambda:
            newton_terms_asymmetric(app, frame, dW, v, s, s_short, J, 0.5),
        "newton_terms_bidirectional": lambda: newton_terms_bidirectional(
            app, frame, dW, bad, s, s, J, J),
        "newton_terms_bidirectional_channels": lambda:
            newton_terms_bidirectional(app, frame, dW, v[:F], s, s, J, J),
        "newton_terms_bidirectional_J_i": lambda: newton_terms_bidirectional(
            app, frame, dW, v, s, s, J[:F], J),
        "newton_terms_bidirectional_J_a": lambda: newton_terms_bidirectional(
            app, frame, dW, v, s, s, J, J[:F]),
        "newton_terms_bidirectional_J_i_width": lambda:
            newton_terms_bidirectional(app, frame, dW, v, s, s, J[:, :-1], J),
        "newton_terms_bidirectional_J_a_width": lambda:
            newton_terms_bidirectional(app, frame, dW, v, s, s, J, J[:, :-1]),
        "newton_terms_bidirectional_four_rows": lambda:
            newton_terms_bidirectional(app, frame, dW, v, s4, s4, J, J),
        "newton_terms_bidirectional_second_length": lambda:
            newton_terms_bidirectional(app, frame, dW, v, s_short, s, J, J),
    }
    with pytest.raises(DimensionError):
        calls[call]()


def test_residual_of_any_shape_accepted(toy_engine, rng):
    """The residual is any array of the basis's k F values: a (k, F)
    residual gives the bits of the flat one."""
    frame, dW = toy_engine.frame, toy_engine.dWdp
    F, P = frame.n_pixels, dW.shape[2]
    app = _orthonormal_appearance(rng, 3 * F, 2)
    r = rng.standard_normal(3 * F)
    s = second_gradient(rng.standard_normal(3 * F), frame)
    J = rng.standard_normal((3 * F, P))
    flat = newton_terms_asymmetric(app, frame, dW, r, s, s, J, 0.5)
    rows = newton_terms_asymmetric(app, frame, dW, r.reshape(3, F), s, s, J,
                                   0.5)
    np.testing.assert_array_equal(rows.cross, flat.cross)
    np.testing.assert_array_equal(rows.xx, flat.xx)


def test_newton_terms_take_lists(toy_engine, rng):
    """Nested lists for every array argument give the bits of the arrays:
    each is converted once, and the converted array is the one used."""
    frame, dW = toy_engine.frame, toy_engine.dWdp
    F, P = frame.n_pixels, dW.shape[2]
    app = _orthonormal_appearance(rng, 3 * F, 2)
    r = rng.standard_normal(3 * F)
    s = second_gradient(rng.standard_normal(3 * F), frame)
    J_i, J_a = rng.standard_normal((2, 3 * F, P))
    args = (r, s, s, J_i, J_a)
    want = newton_terms_bidirectional(app, frame, dW, *args)
    got = newton_terms_bidirectional(app, frame, dW.tolist(),
                                     *(a.tolist() for a in args))
    np.testing.assert_array_equal(got.cross, want.cross)
    np.testing.assert_array_equal(got.xx, want.xx)


class TestGnHessian:
    def test_orthonormal_columns_give_identity(self, rng):
        J, _ = np.linalg.qr(rng.standard_normal((60, 5)))
        np.testing.assert_allclose(gn_hessian(J), np.eye(5), atol=1e-12)

    def test_project_out_matches_dense(self, rng):
        app = _random_appearance(rng, dim=80, m=4)
        J = rng.standard_normal((80, 6))
        dense = np.eye(80) - app.basis @ app.basis.T
        np.testing.assert_allclose(gn_hessian(J, app), J.T @ dense @ J,
                                   atol=1e-9)

    def test_bpo_matches_dense(self, rng):
        app = _random_appearance(rng, dim=50, m=3)
        op = BpoOperator(app, rho=0.4)
        J = rng.standard_normal((50, 5))
        dense = dense_bpo(app, 0.4)
        np.testing.assert_allclose(gn_hessian(J, op), J.T @ dense @ J,
                                   atol=1e-9)

    def test_psd(self, rng):
        for _ in range(5):
            J = rng.standard_normal((40, 6))
            app = _random_appearance(rng, dim=40, m=3)
            w = np.linalg.eigvalsh(gn_hessian(J, app))
            assert w.min() >= -1e-10

    @pytest.mark.parametrize("rho", [None, 0.0, 0.4, 0.5, 1.0])
    def test_in_span_dominant_jacobian(self, rng, rho):
        """J = A X + 1e-3 N: J^T J exceeds its projected part
        J^T (I - A A^T) J by about 1e5, so J^T J - B^T B cancels.  Both
        the factored form and the dense product carry an error of a few
        eps * |J^T J| * ||M||, M the weight; the tolerance is 100 times
        that, about 1e-9 of the PO Hessian here.  The (A, w, v) of
        `cost_weights` give the dense weight w I + A diag(v) A^T, and
        `project_out` its product with J."""
        dim, m, P = 80, 4, 6
        app = _orthonormal_appearance(rng, dim, m)
        A = app.basis
        J = A @ rng.standard_normal((m, P)) + 1e-3 * rng.standard_normal(
            (dim, P))
        ortho = np.eye(dim) - A @ A.T
        if rho is None:
            weight, dense = app, ortho
        else:
            weight, dense = BpoOperator(app, rho=rho), dense_bpo(app, rho)
        eps = np.finfo(float).eps
        A_w, w, v = cost_weights(weight)
        np.testing.assert_allclose(
            w * np.eye(dim) + A_w @ np.diag(np.broadcast_to(v, m)) @ A_w.T,
            dense, rtol=0, atol=100 * eps * np.abs(dense).max())
        np.testing.assert_allclose(
            project_out(weight, J), dense @ J, rtol=0,
            atol=100 * eps * np.linalg.norm(dense, 2)
            * np.linalg.norm(J, axis=0).max())
        H = gn_hessian(J, weight)
        ref = J.T @ dense @ J
        gram = np.abs(J.T @ J).max()
        assert gram > 1e4 * np.abs(J.T @ ortho @ J).max()
        scale = gram * np.linalg.norm(dense, 2)
        np.testing.assert_allclose(H, ref, rtol=0, atol=100 * eps * scale)
        np.testing.assert_array_equal(H, H.T)
        w = np.linalg.eigvalsh(H)
        assert w.min() >= -1e-10 * w.max()

    def test_bpo_rho_zero_is_scaled_project_out(self, rng):
        app = _orthonormal_appearance(rng, dim=50, m=3)
        op = BpoOperator(app, rho=0.0)
        J = rng.standard_normal((50, 5))
        np.testing.assert_allclose(gn_hessian(J, op),
                                   gn_hessian(J, app) / app.image_noise,
                                   rtol=1e-12)

    def test_bpo_rho_one_is_in_span_term(self, rng):
        app = _orthonormal_appearance(rng, dim=50, m=3)
        op = BpoOperator(app, rho=1.0)
        J = rng.standard_normal((50, 5))
        B = app.basis.T @ J
        d = app.eigenvalues + app.image_noise
        np.testing.assert_allclose(gn_hessian(J, op),
                                   B.T @ np.diag(1.0 / d) @ B, rtol=1e-12)

    @pytest.mark.parametrize("rho", [None, 0.4])
    def test_rows_must_match_model(self, rng, rho):
        app = _orthonormal_appearance(rng, dim=50, m=3)
        weight = app if rho is None else BpoOperator(app, rho=rho)
        with pytest.raises(DimensionError):
            gn_hessian(rng.standard_normal((49, 5)), weight)

    def test_unsupported_cost_rejected(self, rng):
        with pytest.raises(DimensionError, match="unsupported cost"):
            gn_hessian(rng.standard_normal((50, 5)), "po")


@pytest.mark.parametrize("call", [
    "gn_hessian_1d", "gn_hessian_3d", "steepest_descent_flat_warp_jac",
    "steepest_descent_three_rows", "residual_curvature_flat_warp_jac",
    "adjoint_image_flat_warp_jac", "project_out_scalar", "project_out_3d",
    "bpo_apply_3d"])
def test_wrong_rank_rejected(toy_engine, rng, call):
    """Arrays of the wrong rank raise DimensionError, not numpy's
    ValueError or IndexError, nor a 0-d Hessian."""
    dW = toy_engine.dWdp
    F, _, P = dW.shape
    app = _orthonormal_appearance(rng, 3 * F, 2)
    g = rng.standard_normal(3 * F)
    calls = {
        "gn_hessian_1d": lambda: gn_hessian(g),
        "gn_hessian_3d": lambda: gn_hessian(g.reshape(3, F, 1)),
        "steepest_descent_flat_warp_jac": lambda: steepest_descent(
            g, g, dW.reshape(2 * F, P)),
        "steepest_descent_three_rows": lambda: steepest_descent(
            g, g, np.concatenate([dW, dW[:, :1]], axis=1)),
        "residual_curvature_flat_warp_jac": lambda: residual_curvature(
            second_gradient(g, toy_engine.frame), dW.reshape(2 * F, P), g),
        "adjoint_image_flat_warp_jac": lambda: _adjoint_image(
            toy_engine.frame, dW.reshape(2 * F, P), g),
        "project_out_scalar": lambda: project_out(app, 1.0),
        "project_out_3d": lambda: project_out(app, g.reshape(3 * F, 1, 1)),
        "bpo_apply_3d": lambda: project_out(BpoOperator(app, 0.5),
                                            g.reshape(3 * F, 1, 1)),
    }
    with pytest.raises(DimensionError):
        calls[call]()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("rho", [None, "po", 0.0, 0.5, 1.0])
def test_gn_hessian_rejects_non_finite_jacobian(rng, rho, bad):
    """One non-finite entry of J, under every weight; rho = 1 gives
    J^T J the weight 0.  No numpy warning escapes."""
    app = _orthonormal_appearance(rng, dim=50, m=3)
    weight = (None if rho is None else app if rho == "po"
              else BpoOperator(app, rho=rho))
    J = rng.standard_normal((50, 5))
    J[rng.integers(50), rng.integers(5)] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionError, match="non-finite"):
            gn_hessian(J, weight)


def _orthonormal_appearance(rng, dim, m):
    """Random orthonormal basis with the noise level set directly, so the
    two terms of the Bayesian weight are of comparable size."""
    basis = np.linalg.qr(rng.standard_normal((dim, m)))[0]
    return AppearanceModel(mean=np.zeros(dim), basis=basis,
                           eigenvalues=np.linspace(2.0, 1.0, m),
                           image_noise=0.05).validate()


def _random_appearance(rng, dim, m):
    from aam_cgd.appearance import build_appearance_model
    latent = rng.standard_normal((3 * m + 4, m))
    basis = np.linalg.qr(rng.standard_normal((dim, m)))[0]
    data = rng.standard_normal(dim) + latent @ basis.T * 2.0
    return build_appearance_model(list(data), n_components=m)


@pytest.fixture
def newton_setup(rng):
    """Toy state whose frame has m + 2P = 14 unknowns against 92 pixels,
    none isolated along either axis (`BidirectionalCost` asserts it)."""
    return make_toy_state(rng, v=6, n_modes=2, m=2, radius=6.0)


def _residual(state):
    return state.i_vec - appearance_instance(state.appearance, state.c)


class TestNewtonTermsAsymmetric:
    def _assemble(self, state, alpha):
        engine, app = state.engine, state.appearance
        frame = engine.frame
        model_vec = appearance_instance(app, state.c)
        r = _residual(state)
        gi = image_gradient(state.i_vec, frame)
        gm = image_gradient(model_vec, frame)
        J_t = steepest_descent(*blend_gradients(gi, gm, alpha), engine.dWdp)
        terms = newton_terms_asymmetric(
            app, frame, engine.dWdp, r,
            second_gradient(state.i_vec, frame),
            second_gradient(model_vec, frame),
            J_t, alpha)
        return terms, r, J_t

    def test_zero_residual_reduces_to_gauss_newton(self, newton_setup):
        state = newton_setup
        terms, r, J_t = self._assemble(state, 0.5)
        zero_terms = newton_terms_asymmetric(
            state.appearance, state.engine.frame, state.engine.dWdp,
            np.zeros_like(r),
            second_gradient(state.i_vec, state.engine.frame),
            second_gradient(appearance_instance(state.appearance, state.c),
                            state.engine.frame),
            J_t, 0.5)
        np.testing.assert_allclose(zero_terms.xx, J_t.T @ J_t, atol=1e-10)

    def test_assembled_hessian_symmetric(self, newton_setup):
        terms, _, _ = self._assemble(newton_setup, 0.3)
        H = terms.full()
        np.testing.assert_array_equal(H, H.T)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_schur_complement_is_project_out(self, rng, alpha):
        """The Gauss-Newton (zero-residual) blocks reduced on dc give the
        project-out Hessian, xx - cross^T cross = J_t^T (I - A A^T) J_t,
        and the dp part of the full (dc, dp) step is the project-out
        step; so is the Bayesian project-out step at rho = 0, whose
        weight is the project-out one over sigma^2."""
        state = make_toy_state(rng, v=6, n_modes=2, m=2, k=3, radius=6.0)
        app, frame = state.appearance, state.engine.frame
        _, r, J_t = self._assemble(state, alpha)
        terms = newton_terms_asymmetric(
            app, frame, state.engine.dWdp, np.zeros_like(r),
            second_gradient(state.i_vec, frame),
            second_gradient(appearance_instance(app, state.c), frame),
            J_t, alpha)
        H_po = gn_hessian(J_t, app)
        np.testing.assert_allclose(
            terms.xx - terms.cross.T @ terms.cross, H_po, rtol=0,
            atol=1e-10 * np.abs(H_po).max())
        g = np.concatenate([-(app.basis.T @ r), J_t.T @ r])
        dp = -np.linalg.solve(terms.full(), g)[app.n_components:]
        for cost in (app, BpoOperator(app, 0.0)):
            step = -np.linalg.solve(gn_hessian(J_t, cost),
                                    J_t.T @ project_out(cost, r))
            np.testing.assert_allclose(dp, step, rtol=0,
                                       atol=1e-10 * np.abs(step).max())

    @pytest.mark.parametrize("rho", [0.0, 0.25, 0.5])
    def test_schur_complement_is_bayesian_project_out(self, rng, rho):
        """Bayesian project-out is the Schur complement on dc of the
        Gauss-Newton blocks weighted by w = (1 - rho) / sigma^2 plus a
        Gaussian prior on c of precision lambda = w q / (w - q), with
        q = rho / (eigenvalues + sigma^2).  Then w^2 / (w + lambda) is
        w - q, so the reduced Hessian is w J^T J - B^T diag(w - q) B and
        the reduced gradient J^T (w r - A diag(w - q) A^T r), both with
        the BPO weight w I + A diag(q - w) A^T.  For rho <= 0.5, w > q
        because eigenvalues + sigma^2 > sigma^2, so lambda >= 0."""
        state = make_toy_state(rng, v=6, n_modes=2, m=2, k=3, radius=6.0)
        app, frame = state.appearance, state.engine.frame
        _, r, J_t = self._assemble(state, 0.5)
        terms = newton_terms_asymmetric(
            app, frame, state.engine.dWdp, np.zeros_like(r),
            second_gradient(state.i_vec, frame),
            second_gradient(appearance_instance(app, state.c), frame),
            J_t, 0.5)
        s2 = app.image_noise
        w = (1.0 - rho) / s2
        q = rho / (app.eigenvalues + s2)
        assert np.all(w > q)
        cc = np.diag(w + w * q / (w - q))
        cross, xx = w * terms.cross, w * terms.xx
        g_c, g_p = -w * (app.basis.T @ r), w * (J_t.T @ r)
        H = xx - cross.T @ np.linalg.solve(cc, cross)
        g = g_p - cross.T @ np.linalg.solve(cc, g_c)
        cost = BpoOperator(app, rho)
        for got, ref in ((gn_hessian(J_t, cost), H),
                         (J_t.T @ project_out(cost, r), g)):
            np.testing.assert_allclose(got, ref, rtol=0,
                                       atol=1e-12 * np.abs(ref).max())



class TestNewtonTermsBidirectional:
    def _assemble(self, state, zero_residual=False):
        engine, app = state.engine, state.appearance
        frame = engine.frame
        model_vec = appearance_instance(app, state.c)
        r = _residual(state)
        if zero_residual:
            r = np.zeros_like(r)
        gi = image_gradient(state.i_vec, frame)
        gm = image_gradient(model_vec, frame)
        J_i = steepest_descent(*gi, engine.dWdp)
        J_a = steepest_descent(*gm, engine.dWdp)
        terms = newton_terms_bidirectional(
            app, frame, engine.dWdp, r,
            second_gradient(state.i_vec, frame),
            second_gradient(model_vec, frame),
            J_i, J_a)
        return terms, r, J_i, J_a

    def test_full_hessian_matches_finite_differences(self, newton_setup):
        state = newton_setup
        terms, _, _, _ = self._assemble(state)
        cost = BidirectionalCost(state.engine, state.appearance,
                                 state.i_vec, state.c)
        m = state.appearance.n_components
        P = state.engine.model.n_params

        def f(x):
            return cost(x[:m], x[m:m + P], x[m + P:])

        ref = fd_hessian(f, np.zeros(m + 2 * P), step=1e-3)
        H = terms.full()
        scale = np.abs(ref).max()
        np.testing.assert_allclose(H, ref, atol=1e-3 * scale)

    def test_zero_residual_cross_block(self, newton_setup):
        state = newton_setup
        terms, _, J_i, J_a = self._assemble(state, zero_residual=True)
        P = J_i.shape[1]
        np.testing.assert_allclose(terms.xx[:P, P:], -J_i.T @ J_a,
                                   atol=1e-12)
        A = state.appearance.basis
        m = A.shape[1]
        np.testing.assert_allclose(terms.full()[:m, :m], A.T @ A, atol=1e-12)

    def test_assembled_hessian_symmetric(self, newton_setup):
        terms, _, _, _ = self._assemble(newton_setup)
        H = terms.full()
        np.testing.assert_array_equal(H, H.T)



_POISONED = [
    *[("asymmetric", name) for name in ("residual", "J_t", "s_i", "s_m")],
    *[("bidirectional", name)
      for name in ("residual", "J_i", "J_a", "s_i", "s_m")]]
# Each Hessian row (xx, xy, yy) of s_i and s_m is poisoned in its own case;
# row xx keeps the id the case had before the row was a parameter.
_POISONED = [(a, p, row) for a, p in _POISONED
             for row in ((0, 1, 2) if p.startswith("s_") else (None,))]


def _poison_id(a, p, row):
    return f"{a}-{p}" + (f"-{('xx', 'xy', 'yy')[row]}" if row else "")


@pytest.mark.parametrize("assembler, poison, row, bad", [
    *[pytest.param(*case, np.nan, id=_poison_id(*case))
      for case in _POISONED],
    *[pytest.param(*case, bad, id=f"{_poison_id(*case)}-{bad}")
      for bad in (np.inf, -np.inf) for case in _POISONED]])
def test_newton_terms_reject_non_finite_input(rng, assembler, poison, row,
                                              bad):
    """One NaN or inf in the residual, a Jacobian or row `row` of the
    image- or model-side Hessian, on a three-channel state, raises
    rather than making the assembled Hessian non-finite.  No numpy
    warning escapes (warnings are errors in the test suite)."""
    state = make_toy_state(rng, v=6, n_modes=2, m=2, k=3, radius=6.0)
    frame, dW = state.engine.frame, state.engine.dWdp
    model_vec = appearance_instance(state.appearance, state.c)
    J_i = steepest_descent(*image_gradient(state.i_vec, frame), dW)
    args = {"residual": _residual(state), "J_t": J_i, "J_i": J_i,
            "J_a": steepest_descent(*image_gradient(model_vec, frame), dW),
            "s_i": second_gradient(state.i_vec, frame),
            "s_m": second_gradient(model_vec, frame)}
    target = args[poison]
    if poison.startswith("s_"):
        target = target[row]
    target.flat[rng.integers(target.size)] = bad
    common = (state.appearance, frame, dW, args["residual"], args["s_i"],
              args["s_m"])
    with pytest.raises(DimensionError, match="non-finite"):
        if assembler == "asymmetric":
            newton_terms_asymmetric(*common, args["J_t"], 0.3)
        else:
            newton_terms_bidirectional(*common, args["J_i"], args["J_a"])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("rho", [None, 0.4], ids=["po", "bpo"])
@pytest.mark.parametrize("call", ["project_out", "project_out_matrix",
                                  "residual_curvature",
                                  "basis_gradient_stack"])
def test_weighted_residual_rejects_non_finite_input(rng, call, rho, bad):
    """One NaN or inf in the residual or Jacobian a project-out or
    Bayesian project-out weight applies to, or in the weighted residual
    the Newton blocks read, on a three-channel state, raises
    DimensionError rather than returning a NaN.  No numpy warning
    escapes."""
    state = make_toy_state(rng, v=6, n_modes=2, m=2, k=3, radius=6.0)
    frame, dW, app = state.engine.frame, state.engine.dWdp, state.appearance
    cost = app if rho is None else BpoOperator(app, rho=rho)
    r = project_out(cost, _residual(state))
    J = steepest_descent(*image_gradient(state.i_vec, frame), dW)
    poisoned = J if call == "project_out_matrix" else r
    poisoned.flat[rng.integers(poisoned.size)] = bad
    calls = {
        "project_out": lambda: project_out(cost, r),
        "project_out_matrix": lambda: project_out(cost, J),
        "residual_curvature": lambda: residual_curvature(
            second_gradient(state.i_vec, frame), dW, r),
        "basis_gradient_stack": lambda: basis_gradient_stack(
            app, frame, dW, r),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionError, match="non-finite"):
            calls[call]()


class TestNewtonBlocksMatchDefinitions:
    """The fast Newton blocks against their column-by-column and
    pixel-by-pixel definitions, on a random basis and residual with
    three channels."""

    @pytest.fixture
    def setup(self, rng):
        k, m = 3, 4
        engine = make_toy_state(rng, v=6, n_modes=2, radius=6.0).engine
        app = _orthonormal_appearance(rng, k * engine.frame.n_pixels, m)
        return engine, app

    def test_basis_gradient_stack(self, setup, rng):
        engine, app = setup
        r = rng.standard_normal(app.n_features)
        got = basis_gradient_stack(app, engine.frame, engine.dWdp, r)
        ref = basis_gradient_loop(app, engine.frame, engine.dWdp, r)
        np.testing.assert_allclose(got, ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())

    def test_asymmetric_blocks(self, setup, rng):
        """cross and xx of `newton_terms_asymmetric` by definition.  At
        alpha = 0.3 the curvature weights alpha^2 and beta^2 differ, so
        swapping the image and model sides fails; at 0.5 it would not."""
        engine, app = setup
        frame, dW = engine.frame, engine.dWdp
        alpha, beta = 0.3, 0.7
        s_i = second_gradient(rng.standard_normal(app.n_features), frame)
        s_m = second_gradient(rng.standard_normal(app.n_features), frame)
        r = rng.standard_normal(app.n_features)
        J_t = rng.standard_normal((r.size, dW.shape[2]))
        terms = newton_terms_asymmetric(app, frame, dW, r, s_i, s_m, J_t,
                                        alpha)
        cp = (beta * basis_gradient_loop(app, frame, dW, r)
              - app.basis.T @ J_t)
        pp = (J_t.T @ J_t
              + alpha ** 2 * residual_curvature_sum(s_i, dW, r)
              - beta ** 2 * residual_curvature_sum(s_m, dW, r))
        for got, ref in ((terms.cross, cp), (terms.xx, pp)):
            np.testing.assert_allclose(got, ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max())

    def test_bidirectional_blocks(self, setup, rng):
        """cross and xx of `newton_terms_bidirectional` by definition:
        cross is [-A^T J_i | A^T J_a - (J_{a_j}^T r)_j], xx carries the
        image-side curvature on dp, minus the model-side one on dq and
        -J_i^T J_a between them.  Distinct s_i and s_m, and J_i and J_a,
        make a swap of the sides or a sign slip in the dq columns fail."""
        engine, app = setup
        frame, dW = engine.frame, engine.dWdp
        A, P = app.basis, dW.shape[2]
        s_i = second_gradient(rng.standard_normal(app.n_features), frame)
        s_m = second_gradient(rng.standard_normal(app.n_features), frame)
        r = rng.standard_normal(app.n_features)
        J_i, J_a = (rng.standard_normal((r.size, P)) for _ in range(2))
        terms = newton_terms_bidirectional(app, frame, dW, r, s_i, s_m, J_i,
                                           J_a)
        cross = np.hstack([-A.T @ J_i, A.T @ J_a
                           - basis_gradient_loop(app, frame, dW, r)])
        pq = -J_i.T @ J_a
        xx = np.block([
            [J_i.T @ J_i + residual_curvature_sum(s_i, dW, r), pq],
            [pq.T, J_a.T @ J_a - residual_curvature_sum(s_m, dW, r)]])
        for got, ref in ((terms.cross, cross), (terms.xx, xx)):
            np.testing.assert_allclose(got, ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max())

    def test_adjoint_image(self, setup, rng):
        """The frame stores D^T as a CSR matrix equal to diff.T, and channel
        c of the adjoint image is D^T diag(r_c) dW, r_c repeated on the
        two rows of each pixel."""
        engine, app = setup
        frame, dW = engine.frame, engine.dWdp
        F, _, P = dW.shape
        assert frame.diff_t.format == "csr"
        assert (frame.diff_t != frame.diff.T).nnz == 0
        r = rng.standard_normal(app.n_features)
        ref = np.vstack([frame.diff.T @ (np.repeat(rc, 2)[:, None]
                                         * dW.reshape(2 * F, P))
                         for rc in r.reshape(-1, F)])
        got = _adjoint_image(frame, dW, r)
        np.testing.assert_allclose(got, ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())

    def test_residual_curvature(self, setup, rng):
        engine, app = setup
        second = second_gradient(rng.standard_normal(app.n_features),
                                 engine.frame)
        r = rng.standard_normal(app.n_features)
        got = residual_curvature(second, engine.dWdp, r)
        ref = residual_curvature_sum(second, engine.dWdp, r)
        np.testing.assert_allclose(got, ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())


class TestGradientChecks:
    """Analytic J^T r against central finite differences of the
    bidirectional cost, which no cell of the fit loop takes yet; the
    loop's own cells are checked by `tests/test_fit.py`'s table."""

    @pytest.fixture
    def setup(self, rng):
        state = make_toy_state(rng, v=6, n_modes=2, m=2, radius=4.5)
        cost = BidirectionalCost(state.engine, state.appearance,
                                 state.i_vec, state.c)
        return state, cost

    def test_ssd_bidirectional_dp_dq(self, setup):
        state, cost = setup
        engine, app = state.engine, state.appearance
        frame = engine.frame
        model_vec = appearance_instance(app, state.c)
        r = _residual(state)
        J_i = steepest_descent(*image_gradient(state.i_vec, frame),
                               engine.dWdp)
        J_a = steepest_descent(*image_gradient(model_vec, frame),
                               engine.dWdp)
        m = app.n_components
        P = engine.model.n_params
        fd_p = fd_gradient(lambda dp: cost(np.zeros(m), dp, np.zeros(P)),
                           np.zeros(P))
        fd_q = fd_gradient(lambda dq: cost(np.zeros(m), np.zeros(P), dq),
                           np.zeros(P))
        np.testing.assert_allclose(J_i.T @ r, fd_p, rtol=1e-4,
                                   atol=1e-4 * np.abs(fd_p).max())
        np.testing.assert_allclose(-J_a.T @ r, fd_q, rtol=1e-4,
                                   atol=1e-4 * np.abs(fd_q).max())
