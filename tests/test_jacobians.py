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
from aam_cgd.shape_model import build_shape_model
from aam_cgd.warp import build_reference_frame

from oracles import (BidirectionalCost, basis_gradient_loop, fd_gradient,
                     fd_hessian, interior_pixels, make_toy_state,
                     neighbour_gradient, residual_curvature_sum,
                     steepest_descent_loop)


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
        """xy = Dy Dx v and yx = Dx Dy v.  Near the mask's edge one-sided
        differences do not commute, so the two differ and a swap shows;
        `residual_curvature` symmetrizes them, so nothing after would."""
        frame = diamond_frame() if which == "diamond" else toy_engine.frame
        v = rng.standard_normal(3 * frame.n_pixels)
        gx, gy = image_gradient(v, frame)
        xx, xy, yx, yy = second_gradient(v, frame)
        for got, ref in ((xx, image_gradient(gx, frame)[0]),
                         (xy, image_gradient(gx, frame)[1]),
                         (yx, image_gradient(gy, frame)[0]),
                         (yy, image_gradient(gy, frame)[1])):
            np.testing.assert_array_equal(got, ref)
        assert not np.allclose(xy, yx)

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


@pytest.mark.parametrize("call", [
    "image_gradient", "second_gradient", "steepest_descent",
    "residual_curvature", "residual_curvature_channels",
    "basis_gradient_stack", "basis_gradient_stack_channels",
    "newton_terms_asymmetric", "newton_terms_asymmetric_channels",
    "newton_terms_asymmetric_J_t", "newton_terms_bidirectional",
    "newton_terms_bidirectional_channels", "newton_terms_bidirectional_J_i",
    "newton_terms_bidirectional_J_a"])
def test_channel_major_length_checked(toy_engine, rng, call):
    """A channel-major input of length F + 1, a one-channel residual
    against three-channel second derivatives or basis, or an (F, P)
    Jacobian against the basis's 3F rows raises DimensionError rather
    than numpy's reshape or matmul error or a silent broadcast."""
    frame, dW = toy_engine.frame, toy_engine.dWdp
    F, P = frame.n_pixels, dW.shape[2]
    app = _orthonormal_appearance(rng, 3 * F, 2)
    bad = rng.standard_normal(F + 1)
    v = rng.standard_normal(3 * F)
    s = second_gradient(v, frame)
    J = rng.standard_normal((3 * F, P))
    calls = {
        "image_gradient": lambda: image_gradient(bad, frame),
        "second_gradient": lambda: second_gradient(bad, frame),
        "steepest_descent": lambda: steepest_descent(bad, bad, dW),
        "residual_curvature": lambda: residual_curvature(s, dW, bad),
        "residual_curvature_channels": lambda: residual_curvature(
            s, dW, v[:F]),
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
        "newton_terms_bidirectional": lambda: newton_terms_bidirectional(
            app, frame, dW, bad, s, s, J, J),
        "newton_terms_bidirectional_channels": lambda:
            newton_terms_bidirectional(app, frame, dW, v[:F], s, s, J, J),
        "newton_terms_bidirectional_J_i": lambda: newton_terms_bidirectional(
            app, frame, dW, v, s, s, J[:F], J),
        "newton_terms_bidirectional_J_a": lambda: newton_terms_bidirectional(
            app, frame, dW, v, s, s, J, J[:F]),
    }
    with pytest.raises(DimensionError):
        calls[call]()


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
        dense = _dense_bpo(app, 0.4)
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
        `BpoOperator.apply` its product with J."""
        dim, m, P = 80, 4, 6
        app = _orthonormal_appearance(rng, dim, m)
        A = app.basis
        J = A @ rng.standard_normal((m, P)) + 1e-3 * rng.standard_normal(
            (dim, P))
        ortho = np.eye(dim) - A @ A.T
        if rho is None:
            weight, dense = app, ortho
        else:
            weight, dense = BpoOperator(app, rho=rho), _dense_bpo(app, rho)
        eps = np.finfo(float).eps
        A_w, w, v = cost_weights(weight)
        np.testing.assert_allclose(
            w * np.eye(dim) + A_w @ np.diag(np.broadcast_to(v, m)) @ A_w.T,
            dense, rtol=0, atol=100 * eps * np.abs(dense).max())
        if rho is not None:
            np.testing.assert_allclose(
                weight.apply(J), dense @ J, rtol=0,
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
        "bpo_apply_3d": lambda: BpoOperator(app).apply(
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


def _dense_bpo(app, rho):
    """The dense Bayesian project-out weight
    rho A D^-1 A^T + ((1 - rho) / sigma^2) (I - A A^T)."""
    A, s2 = app.basis, app.image_noise
    ortho = np.eye(A.shape[0]) - A @ A.T
    return (rho * A @ np.diag(1.0 / (app.eigenvalues + s2)) @ A.T
            + (1.0 - rho) / s2 * ortho)


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

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_full_hessian_matches_finite_differences(self, newton_setup,
                                                     alpha):
        state = newton_setup
        terms, _, _ = self._assemble(state, alpha)
        cost = BidirectionalCost(state.engine, state.appearance, state.i_vec,
                                 state.c)
        m = state.appearance.n_components

        def f(x):
            return cost(x[:m], alpha * x[m:], -(1.0 - alpha) * x[m:])

        x0 = np.zeros(m + state.engine.model.n_params)
        ref = fd_hessian(f, x0, step=1e-3)
        H = terms.full()
        scale = np.abs(ref).max()
        np.testing.assert_allclose(H, ref, atol=1e-3 * scale)

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
        np.testing.assert_allclose(zero_terms.pp, J_t.T @ J_t, atol=1e-10)

    def test_assembled_hessian_symmetric(self, newton_setup):
        terms, _, _ = self._assemble(newton_setup, 0.3)
        H = terms.full()
        np.testing.assert_array_equal(H, H.T)



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
        np.testing.assert_allclose(terms.pq, -J_i.T @ J_a, atol=1e-12)
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


@pytest.mark.parametrize("assembler, poison, bad", [
    *[pytest.param(a, p, np.nan, id=f"{a}-{p}") for a, p in _POISONED],
    *[pytest.param(a, p, bad, id=f"{a}-{p}-{bad}")
      for bad in (np.inf, -np.inf) for a, p in _POISONED]])
def test_newton_terms_reject_non_finite_input(rng, assembler, poison, bad):
    """One NaN or inf in the residual, a Jacobian or one image- or
    model-side second derivative, on a three-channel state, raises
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
        target = target[rng.integers(4)]       # one of xx, xy, yx, yy
    target.flat[rng.integers(target.size)] = bad
    common = (state.appearance, frame, dW, args["residual"], args["s_i"],
              args["s_m"])
    with pytest.raises(DimensionError, match="non-finite"):
        if assembler == "asymmetric":
            newton_terms_asymmetric(*common, args["J_t"], 0.3)
        else:
            newton_terms_bidirectional(*common, args["J_i"], args["J_a"])


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
        """cp and pp of `newton_terms_asymmetric` by definition.  At
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
        for got, ref in ((terms.cp, cp), (terms.pp, pp)):
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
    """Analytic J^T r against central finite differences of each cost."""

    @pytest.fixture
    def setup(self, rng):
        state = make_toy_state(rng, v=6, n_modes=2, m=2, radius=4.5)
        cost = BidirectionalCost(state.engine, state.appearance,
                                 state.i_vec, state.c)
        return state, cost

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_ssd_asymmetric_dp(self, setup, alpha):
        state, cost = setup
        engine, app = state.engine, state.appearance
        frame = engine.frame
        model_vec = appearance_instance(app, state.c)
        r = _residual(state)
        gi = image_gradient(state.i_vec, frame)
        gm = image_gradient(model_vec, frame)
        J_t = steepest_descent(*blend_gradients(gi, gm, alpha), engine.dWdp)
        m = app.n_components
        fd = fd_gradient(
            lambda dp: cost(np.zeros(m), alpha * dp, -(1.0 - alpha) * dp),
            np.zeros(engine.model.n_params))
        np.testing.assert_allclose(J_t.T @ r, fd,
                                   rtol=1e-4, atol=1e-4 * np.abs(fd).max())

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

    def test_ssd_asymmetric_dc(self, setup):
        state, cost = setup
        app, P = state.appearance, state.engine.model.n_params
        fd = fd_gradient(lambda dc: cost(dc, np.zeros(P), np.zeros(P)),
                         np.zeros(app.n_components))
        np.testing.assert_allclose(-app.basis.T @ _residual(state), fd,
                                   rtol=1e-4,
                                   atol=1e-4 * max(np.abs(fd).max(), 1e-12))
