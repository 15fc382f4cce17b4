import warnings

import numpy as np
import pytest

from aam_cgd.appearance import (AppearanceModel, BpoOperator,
                                appearance_instance, project_out)
from aam_cgd.errors import DimensionError
from aam_cgd.jacobians import (NewtonTerms, basis_gradient_stack,
                               blend_gradients, gn_hessian, image_gradient,
                               newton_terms_asymmetric,
                               newton_terms_bidirectional, residual_curvature,
                               second_gradient, steepest_descent)
from aam_cgd.shape_model import build_shape_model
from aam_cgd.warp import build_reference_frame

from conftest import bilinear_value, make_toy_shape_model
from oracles import (AsymmetricCost, BidirectionalCost, active_rows,
                     basis_gradient_loop, bilinear_vector, fd_gradient,
                     fd_hessian, interior_pixels, make_bilinear_appearance,
                     make_toy_state, neighbour_gradient,
                     residual_curvature_sum, steepest_descent_loop)


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

    def test_active_subset_matches_row_selection(self, toy_engine, rng):
        F = toy_engine.n_pixels
        g = (rng.standard_normal(2 * F), rng.standard_normal(2 * F))
        active = np.arange(0, F, 3)
        sub = steepest_descent(*g, toy_engine.dWdp, active=active)
        full = steepest_descent(*g, toy_engine.dWdp)
        rows = active_rows(toy_engine.frame, active, 2)
        np.testing.assert_array_equal(sub, full[rows])

    @pytest.mark.parametrize("subset", [False, True])
    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_pixel_loop(self, toy_engine, rng, k, subset):
        F = toy_engine.n_pixels
        g = (rng.standard_normal(k * F), rng.standard_normal(k * F))
        active = np.arange(1, F, 4) if subset else None
        got = steepest_descent(*g, toy_engine.dWdp, active=active)
        ref = steepest_descent_loop(*g, toy_engine.dWdp, active=active)
        np.testing.assert_allclose(got, ref, rtol=1e-14,
                                   atol=1e-14 * np.abs(ref).max())


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
        A, d = app.basis, op.d
        dense = (0.4 * A @ np.diag(1.0 / d) @ A.T
                 + op.ortho_weight * (np.eye(50) - A @ A.T))
        np.testing.assert_allclose(gn_hessian(J, op), J.T @ dense @ J,
                                   atol=1e-9)

    def test_psd(self, rng):
        for _ in range(5):
            J = rng.standard_normal((40, 6))
            app = _random_appearance(rng, dim=40, m=3)
            w = np.linalg.eigvalsh(gn_hessian(J, app))
            assert w.min() >= -1e-10

    @pytest.mark.parametrize("rho", [None, 0.4])
    def test_in_span_dominant_jacobian(self, rng, rho):
        """J = A X + 1e-3 N: J^T J exceeds its projected part
        J^T (I - A A^T) J by about 1e5, so J^T J - B^T B cancels.  Both
        the factored form and the dense product carry an error of a few
        eps * |J^T J| * ||M||, M the weight; the tolerance is 100 times
        that, about 1e-9 of the PO Hessian here."""
        dim, m, P = 80, 4, 6
        app = _orthonormal_appearance(rng, dim, m)
        A = app.basis
        J = A @ rng.standard_normal((m, P)) + 1e-3 * rng.standard_normal(
            (dim, P))
        ortho = np.eye(dim) - A @ A.T
        if rho is None:
            weight, dense = app, ortho
        else:
            weight = BpoOperator(app, rho=rho)
            dense = (rho * A @ np.diag(1.0 / weight.d) @ A.T
                     + weight.ortho_weight * ortho)
        H = gn_hessian(J, weight)
        ref = J.T @ dense @ J
        gram = np.abs(J.T @ J).max()
        assert gram > 1e4 * np.abs(J.T @ ortho @ J).max()
        scale = gram * np.linalg.norm(dense, 2)
        np.testing.assert_allclose(H, ref, rtol=0,
                                   atol=100 * np.finfo(float).eps * scale)
        np.testing.assert_array_equal(H, H.T)
        w = np.linalg.eigvalsh(H)
        assert w.min() >= -1e-10 * w.max()

    def test_bpo_rho_zero_is_scaled_project_out(self, rng):
        app = _orthonormal_appearance(rng, dim=50, m=3)
        op = BpoOperator(app, rho=0.0)
        J = rng.standard_normal((50, 5))
        np.testing.assert_allclose(gn_hessian(J, op),
                                   op.ortho_weight * gn_hessian(J, app),
                                   rtol=1e-12)

    def test_bpo_rho_one_is_in_span_term(self, rng):
        app = _orthonormal_appearance(rng, dim=50, m=3)
        op = BpoOperator(app, rho=1.0)
        J = rng.standard_normal((50, 5))
        B = app.basis.T @ J
        np.testing.assert_allclose(gn_hessian(J, op),
                                   B.T @ np.diag(1.0 / op.d) @ B,
                                   rtol=1e-12)

    @pytest.mark.parametrize("rho", [None, 0.4])
    def test_rows_must_match_model(self, rng, rho):
        app = _orthonormal_appearance(rng, dim=50, m=3)
        weight = app if rho is None else BpoOperator(app, rho=rho)
        with pytest.raises(DimensionError):
            gn_hessian(rng.standard_normal((49, 5)), weight)


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
    """Toy state and the pixel subset on which the Newton blocks are exact.

    second_gradient differences twice, so on bilinear fields it is exact
    only two pixels inside the mask.  At radius 6 that interior holds 24
    pixels, more than the m + 2P = 14 unknowns of the bidirectional case.
    """
    state = make_toy_state(rng, v=6, n_modes=2, m=2, radius=6.0)
    active = interior_pixels(state.engine.frame, radius=2)
    assert active.size >= 15
    return state, active


def _rows(state, active):
    """Residual rows of `active`, or all rows when `active` is None."""
    if active is None:
        return np.arange(state.appearance.n_features)
    return active_rows(state.engine.frame, active, state.n_channels)


class TestNewtonTermsAsymmetric:
    def _assemble(self, state, active, alpha):
        engine, app = state.engine, state.appearance
        frame = engine.frame
        rows = _rows(state, active)
        model_vec = appearance_instance(app, state.c)
        r = (state.i_vec - model_vec)[rows]
        gi = image_gradient(state.i_vec, frame)
        gm = image_gradient(model_vec, frame)
        J_t = steepest_descent(*blend_gradients(gi, gm, alpha),
                               engine.dWdp, active=active)
        terms = newton_terms_asymmetric(
            app, frame, engine.dWdp, r,
            second_gradient(state.i_vec, frame),
            second_gradient(model_vec, frame),
            J_t, alpha, active=active)
        return terms, r, J_t, rows

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_full_hessian_matches_finite_differences(self, newton_setup,
                                                     alpha):
        state, active = newton_setup
        terms, _, _, rows = self._assemble(state, active, alpha)
        cost = AsymmetricCost(state.engine, state.appearance, state.i_vec,
                              state.c, rows, alpha)
        m = state.appearance.n_components

        def f(x):
            return cost(x[:m], x[m:])

        x0 = np.zeros(m + state.engine.model.n_params)
        ref = fd_hessian(f, x0, step=1e-4)
        H = terms.full()
        scale = np.abs(ref).max()
        np.testing.assert_allclose(H, ref, atol=1e-3 * scale)

    def test_zero_residual_reduces_to_gauss_newton(self, newton_setup):
        state, active = newton_setup
        terms, r, J_t, _ = self._assemble(state, active, 0.5)
        zero_terms = newton_terms_asymmetric(
            state.appearance, state.engine.frame, state.engine.dWdp,
            np.zeros_like(r),
            second_gradient(state.i_vec, state.engine.frame),
            second_gradient(appearance_instance(state.appearance, state.c),
                            state.engine.frame),
            J_t, 0.5, active=active)
        np.testing.assert_allclose(zero_terms.pp, J_t.T @ J_t, atol=1e-10)

    def test_assembled_hessian_symmetric(self, newton_setup):
        state, active = newton_setup
        terms, _, _, _ = self._assemble(state, active, 0.3)
        H = terms.full()
        np.testing.assert_allclose(H, H.T, atol=1e-8)



class TestNewtonTermsBidirectional:
    def _assemble(self, state, active, zero_residual=False):
        engine, app = state.engine, state.appearance
        frame = engine.frame
        rows = _rows(state, active)
        model_vec = appearance_instance(app, state.c)
        r = (state.i_vec - model_vec)[rows]
        if zero_residual:
            r = np.zeros_like(r)
        gi = image_gradient(state.i_vec, frame)
        gm = image_gradient(model_vec, frame)
        J_i = steepest_descent(*gi, engine.dWdp, active=active)
        J_a = steepest_descent(*gm, engine.dWdp, active=active)
        terms = newton_terms_bidirectional(
            app, frame, engine.dWdp, r,
            second_gradient(state.i_vec, frame),
            second_gradient(model_vec, frame),
            J_i, J_a, active=active)
        return terms, r, J_i, J_a, rows

    def test_full_hessian_matches_finite_differences(self, newton_setup):
        state, active = newton_setup
        terms, _, _, _, rows = self._assemble(state, active)
        cost = BidirectionalCost(state.engine, state.appearance,
                                 state.i_vec, state.c, rows)
        m = state.appearance.n_components
        P = state.engine.model.n_params

        def f(x):
            return cost(x[:m], x[m:m + P], x[m + P:])

        ref = fd_hessian(f, np.zeros(m + 2 * P), step=1e-4)
        H = terms.full()
        scale = np.abs(ref).max()
        np.testing.assert_allclose(H, ref, atol=1e-3 * scale)

    def test_zero_residual_cross_block(self, newton_setup):
        state, active = newton_setup
        terms, _, J_i, J_a, rows = self._assemble(state, active,
                                                  zero_residual=True)
        np.testing.assert_allclose(terms.pq, -J_i.T @ J_a, atol=1e-12)
        A_act = state.appearance.basis[rows]
        np.testing.assert_allclose(terms.cc, A_act.T @ A_act, atol=1e-12)

    def test_assembled_hessian_symmetric(self, newton_setup):
        state, active = newton_setup
        terms, _, _, _, _ = self._assemble(state, active)
        H = terms.full()
        np.testing.assert_allclose(H, H.T, atol=1e-8)



class TestNewtonBlocksMatchDefinitions:
    """The fast Newton blocks against their column-by-column and
    pixel-by-pixel definitions, on a random basis and residual with
    three channels, over the full frame and an interior subset."""

    @pytest.fixture
    def setup(self, rng):
        k, m = 3, 4
        engine = make_toy_state(rng, v=6, n_modes=2, radius=6.0).engine
        app = _orthonormal_appearance(rng, k * engine.frame.n_pixels, m)
        active = interior_pixels(engine.frame, radius=2)
        return engine, app, active

    @staticmethod
    def _residual(rng, engine, app, active):
        F = engine.frame.n_pixels
        n = F if active is None else len(active)
        return rng.standard_normal(app.n_features // F * n)

    @pytest.mark.parametrize("subset", [False, True])
    def test_basis_gradient_stack(self, setup, rng, subset):
        engine, app, active = setup
        active = active if subset else None
        r = self._residual(rng, engine, app, active)
        got = basis_gradient_stack(app, engine.frame, engine.dWdp, r,
                                   active=active)
        ref = basis_gradient_loop(app, engine.frame, engine.dWdp, r,
                                  active=active)
        np.testing.assert_allclose(got, ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("subset", [False, True])
    def test_asymmetric_blocks(self, setup, rng, subset):
        """cp and pp of `newton_terms_asymmetric` by definition.  At
        alpha = 0.3 the curvature weights alpha^2 and beta^2 differ, so
        swapping the image and model sides fails; at 0.5 it would not."""
        engine, app, active = setup
        active = active if subset else None
        frame, dW = engine.frame, engine.dWdp
        alpha, beta = 0.3, 0.7
        s_i = second_gradient(rng.standard_normal(app.n_features), frame)
        s_m = second_gradient(rng.standard_normal(app.n_features), frame)
        r = self._residual(rng, engine, app, active)
        J_t = rng.standard_normal((r.size, dW.shape[2]))
        terms = newton_terms_asymmetric(app, frame, dW, r, s_i, s_m, J_t,
                                        alpha, active=active)
        rows = (np.arange(app.n_features) if active is None
                else active_rows(frame, active, 3))
        cp = (beta * basis_gradient_loop(app, frame, dW, r, active=active)
              - app.basis[rows].T @ J_t)
        pp = (J_t.T @ J_t
              + alpha ** 2 * residual_curvature_sum(s_i, dW, r, active)
              - beta ** 2 * residual_curvature_sum(s_m, dW, r, active))
        for got, ref in ((terms.cp, cp), (terms.pp, pp)):
            np.testing.assert_allclose(got, ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("subset", [False, True])
    def test_residual_curvature(self, setup, rng, subset):
        engine, app, active = setup
        active = active if subset else None
        second = second_gradient(rng.standard_normal(app.n_features),
                                 engine.frame)
        r = self._residual(rng, engine, app, active)
        got = residual_curvature(second, engine.dWdp, r, active=active)
        ref = residual_curvature_sum(second, engine.dWdp, r, active=active)
        np.testing.assert_allclose(got, ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("assemble", [
    lambda state, active: TestNewtonTermsAsymmetric()._assemble(
        state, active, 0.5)[0],
    lambda state, active: TestNewtonTermsBidirectional()._assemble(
        state, active)[0],
], ids=["asymmetric", "bidirectional"])
def test_all_pixels_as_subset_matches_full_frame(newton_setup, assemble):
    """active=None and every pixel listed give the same blocks, and on the
    full frame the orthonormal basis makes cc the identity."""
    state, _ = newton_setup
    every = np.arange(state.engine.frame.n_pixels)
    whole = assemble(state, None)
    subset = assemble(state, every)
    np.testing.assert_allclose(subset.full(), whole.full(),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(whole.cc,
                               np.eye(state.appearance.n_components),
                               atol=1e-10)


class TestGradientChecks:
    """Analytic J^T r against central finite differences of each cost."""

    @pytest.fixture
    def setup(self, rng):
        state = make_toy_state(rng, v=6, n_modes=2, m=2, radius=4.5)
        active = interior_pixels(state.engine.frame, radius=1)
        return state, active

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_ssd_asymmetric_dp(self, setup, alpha):
        state, active = setup
        engine, app = state.engine, state.appearance
        frame = engine.frame
        rows = active_rows(frame, active, 1)
        model_vec = appearance_instance(app, state.c)
        r = (state.i_vec - model_vec)[rows]
        gi = image_gradient(state.i_vec, frame)
        gm = image_gradient(model_vec, frame)
        J_t = steepest_descent(*blend_gradients(gi, gm, alpha),
                               engine.dWdp, active=active)
        analytic = J_t.T @ r
        cost = AsymmetricCost(engine, app, state.i_vec, state.c, rows,
                              alpha)
        m = app.n_components
        fd = fd_gradient(lambda dp: cost(np.zeros(m), dp),
                         np.zeros(engine.model.n_params))
        np.testing.assert_allclose(analytic, fd,
                                   rtol=1e-4, atol=1e-4 * np.abs(fd).max())

    def test_ssd_bidirectional_dp_dq(self, setup):
        state, active = setup
        engine, app = state.engine, state.appearance
        frame = engine.frame
        rows = active_rows(frame, active, 1)
        model_vec = appearance_instance(app, state.c)
        r = (state.i_vec - model_vec)[rows]
        gi = image_gradient(state.i_vec, frame)
        gm = image_gradient(model_vec, frame)
        J_i = steepest_descent(*gi, engine.dWdp, active=active)
        J_a = steepest_descent(*gm, engine.dWdp, active=active)
        cost = BidirectionalCost(engine, app, state.i_vec, state.c, rows)
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
        state, active = setup
        engine, app = state.engine, state.appearance
        rows = active_rows(engine.frame, active, 1)
        model_vec = appearance_instance(app, state.c)
        r = (state.i_vec - model_vec)[rows]
        A_act = app.basis[rows]
        cost = AsymmetricCost(engine, app, state.i_vec, state.c, rows, 0.5)
        m = app.n_components
        fd = fd_gradient(
            lambda dc: cost(dc, np.zeros(engine.model.n_params)),
            np.zeros(m))
        np.testing.assert_allclose(-A_act.T @ r, fd, rtol=1e-4,
                                   atol=1e-4 * max(np.abs(fd).max(), 1e-12))
