"""Derivative checks of the benchmark's own drivers.

On a tiny model whose image and appearance vectors are linear or bilinear
fields, each driver's gradient and Hessian must match central finite
differences of the cost it claims to minimise.  Such fields are sampled,
differenced and warped exactly, so the cost can be evaluated analytically
at every pixel, the frame border included.  Linear fields make the cost
exactly quadratic, which is where a Gauss-Newton Hessian is exact;
bilinear fields add the curvature a Newton Hessian must carry.

Run with `PYTHONPATH=src python3 -m pytest perfbench/selftest.py`;
`bench.py` also calls `run_all()` before every benchmark run.
"""

import numpy as np

from aam_cgd import appearance, shape_model, warp

import driver

# alpha = 0.3 rather than the workloads' 0.5, where a swap of alpha and
# 1 - alpha would go unseen; the code path is the same for any alpha > 0.
CONFIGS = {
    "po_ic": driver.Config(project_out=True, alpha=0.0),
    "po_asym": driver.Config(project_out=True, alpha=0.3),
    "newton": driver.Config(project_out=False, alpha=0.3),
}


def _design(pos):
    x, y = pos[:, 0] - 10.0, pos[:, 1] - 9.0   # centred on the tiny shape
    return np.column_stack([np.ones_like(x), x, y, x * y])


def _random_field(rng, bilinear):
    return rng.standard_normal(4) * [1.0, 0.12, 0.12, 0.01 * bilinear]


class TinyProblem:
    """Eight landmarks around a rectangle, m=2, k=3, an image that is a
    field in the mean shape's coordinates and the fit state at p = 0.

    The mean shape has flat sides, so every masked pixel has a neighbour
    along each axis: the library's gradient is zero at isolated pixels,
    which no field reproduces.
    """

    k = 3
    m = 2

    def __init__(self, rng, bilinear):
        base = np.array([[3, 3], [10, 2.6], [17, 3], [17.4, 9], [17, 15],
                         [10, 15.4], [3, 15], [2.6, 9]])
        noise = [0.35 * rng.standard_normal(base.shape) for _ in range(24)]
        shapes = [(base + s * n).ravel() for n in noise for s in (1, -1)]
        model = shape_model.build_shape_model(shapes, base.ravel(),
                                              n_components=2)
        self.engine = warp.WarpEngine.build(model)
        nb = self.engine.frame.neighbors
        if np.any((nb[:, 0] < 0) & (nb[:, 1] < 0)) or np.any(
                (nb[:, 2] < 0) & (nb[:, 3] < 0)):
            raise ValueError("tiny frame has an isolated pixel")
        pos = self.engine.frame.positions
        cols = np.column_stack([
            np.concatenate([_design(pos) @ _random_field(rng, bilinear)
                            for _ in range(self.k)])
            for _ in range(self.m)])
        basis = np.linalg.qr(cols)[0]
        mean = np.concatenate([_design(pos) @ _random_field(rng, bilinear)
                               for _ in range(self.k)]) + 1.0
        mean -= basis @ (basis.T @ mean)
        self.app = appearance.AppearanceModel(
            mean=mean, basis=basis, eigenvalues=np.array([2.0, 1.0]),
            image_noise=0.05).validate()
        self.image_coef = [_random_field(rng, bilinear) for _ in range(self.k)]
        grid = np.mgrid[0:21, 0:21]
        img_pos = np.column_stack([grid[1].ravel(), grid[0].ravel()])
        self.image = np.stack(
            [(_design(img_pos) @ c).reshape(21, 21) for c in self.image_coef],
            axis=-1)
        self.p = np.zeros(model.n_params)
        self.c = 0.3 * rng.standard_normal(self.m)

    def field_at(self, vec, pos):
        """Evaluate a frame vector, known to be a field, off the grid."""
        D = _design(self.engine.frame.positions)
        chans = vec.reshape(self.k, -1)
        coef = np.linalg.lstsq(D, chans.T, rcond=None)[0]
        return (_design(pos) @ coef).T.ravel()

    def cost(self, config, dc, dp):
        """0.5 ||W (i[alpha dp] - t[-beta dp])||^2 at the state."""
        eng = self.engine
        pos_i = eng.increment_positions(config.alpha * dp)
        i_side = np.concatenate([_design(pos_i) @ c for c in self.image_coef])
        if config.project_out:
            t = self.app.mean
        else:
            t = appearance.appearance_instance(self.app, self.c + dc)
        t_side = self.field_at(
            t, eng.increment_positions(-(1.0 - config.alpha) * dp))
        r = i_side - t_side
        if config.project_out:
            r = appearance.project_out(self.app, r)
        return 0.5 * float(r @ r)


def fd_gradient(f, x0, step=1e-5):
    g = np.zeros_like(x0)
    for i in range(x0.size):
        e = np.zeros_like(x0)
        e[i] = step
        g[i] = (f(x0 + e) - f(x0 - e)) / (2 * step)
    return g


def fd_hessian(f, x0, step=1e-3):
    d = x0.size
    H = np.zeros((d, d))
    eye = np.eye(d) * step
    for i in range(d):
        for j in range(i, d):
            H[i, j] = H[j, i] = (
                f(x0 + eye[i] + eye[j]) - f(x0 + eye[i] - eye[j])
                - f(x0 - eye[i] + eye[j]) + f(x0 - eye[i] - eye[j])
            ) / (4 * step ** 2)
    return H


def check_driver(name, seed=7):
    config = CONFIGS[name]
    prob = TinyProblem(np.random.default_rng(seed), bilinear=not
                       config.project_out)
    fitter = driver.Fitter(prob.engine, prob.app, config)
    c = np.zeros(0) if config.project_out else prob.c
    g, H = fitter.linearize(prob.image, prob.p, c)
    m = c.size

    def f(x):
        return prob.cost(config, x[:m], x[m:])

    x0 = np.zeros(m + prob.p.size)
    g_ref, H_ref = fd_gradient(f, x0), fd_hessian(f, x0)
    np.testing.assert_allclose(g, g_ref, rtol=0,
                               atol=1e-6 * np.abs(g_ref).max(),
                               err_msg=f"{name}: gradient")
    np.testing.assert_allclose(H, H_ref, rtol=0,
                               atol=1e-5 * np.abs(H_ref).max(),
                               err_msg=f"{name}: Hessian")


def test_po_ic():
    check_driver("po_ic")


def test_po_asym():
    check_driver("po_asym")


def test_newton():
    check_driver("newton")


def run_all():
    for name in CONFIGS:
        check_driver(name)
