"""Metric, Laplace-Beltrami, and mean-curvature oracles on classical surfaces."""

from dataclasses import replace

import numpy as np
import pytest

from minvar import jets
from minvar.errors import DegenerateMetric, DimensionMismatch, NotSpherical
from minvar.geometry import (
    Immersion,
    PointEval,
    coordinate_laplacian,
    coordinate_laplacian_from_pointeval,
    laplace_beltrami,
    laplace_from_pointeval,
    mean_curvature,
    metric,
    metric_derivative,
    sphere_minimality_residual,
)
from minvar.jets import StepPolicy, fd_jet


def assert_close(actual, expected, tol):
    np.testing.assert_allclose(actual, expected, rtol=tol, atol=tol)


def helicoid(pitch=1.0):
    def comps(cols):
        s, th = cols
        return [s * jets.cos(th), s * jets.sin(th), pitch * th]
    return Immersion(param_dim=2, ambient_dim=3, components=comps,
                     domain=((-2.0, 2.0), (-np.pi, np.pi)), name="helicoid")


def catenoid():
    def comps(cols):
        u, v = cols
        ch = 0.5 * (jets.exp(u) + jets.exp(-u))
        return [ch * jets.cos(v), ch * jets.sin(v), u]
    return Immersion(param_dim=2, ambient_dim=3, components=comps,
                     domain=((-1.5, 1.5), (-np.pi, np.pi)), name="catenoid")


def cylinder(radius=1.0):
    def comps(cols):
        u, z = cols
        return [radius * jets.cos(u), radius * jets.sin(u), z]
    return Immersion(param_dim=2, ambient_dim=3, components=comps,
                     domain=((-np.pi, np.pi), (-2.0, 2.0)), name="cylinder")


def sphere_chart():
    # polar angle phi, azimuth theta; minimal nowhere but Delta F = -2 F
    def comps(cols):
        phi, th = cols
        return [jets.sin(phi) * jets.cos(th),
                jets.sin(phi) * jets.sin(th),
                jets.cos(phi)]
    return Immersion(param_dim=2, ambient_dim=3, components=comps,
                     domain=((0.3, 2.8), (-np.pi, np.pi)), name="sphere")


def clifford_torus():
    def comps(cols):
        u, v = cols
        c = 1.0 / np.sqrt(2.0)
        return [c * jets.cos(u), c * jets.sin(u),
                c * jets.cos(v), c * jets.sin(v)]
    return Immersion(param_dim=2, ambient_dim=4, components=comps,
                     domain=((-np.pi, np.pi), (-np.pi, np.pi)),
                     name="clifford-torus")


def warped_sheet():
    # generic non-minimal graph-like sheet, exercises every curvature path
    def comps(cols):
        u, v = cols
        return [u, v, u**3 * v + jets.sin(u * v), v**2 - u]
    return Immersion(param_dim=2, ambient_dim=4, components=comps,
                     domain=((-1.0, 1.0), (-1.0, 1.0)), name="warped")


def rng_points(imm, count, seed):
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in imm.domain])
    hi = np.array([b[1] for b in imm.domain])
    return lo + (hi - lo) * rng.random((count, imm.param_dim))


def test_helicoid_metric_hand_values():
    met = metric(helicoid().eval(np.array([1.0, 0.7])))
    assert_close(met.g, [[1.0, 0.0], [0.0, 2.0]], 1e-14)
    assert_close(met.det_g, 2.0, 1e-14)
    assert_close(met.g_inv, [[1.0, 0.0], [0.0, 0.5]], 1e-14)


def test_clifford_torus_metric_is_half_identity():
    pts = rng_points(clifford_torus(), 40, seed=1)
    met = metric(clifford_torus().eval(pts))
    assert_close(met.g, np.broadcast_to(0.5 * np.eye(2), (40, 2, 2)), 1e-14)
    assert_close(met.det_g, np.full(40, 0.25), 1e-14)


def test_constant_components_and_line_metric():
    line = Immersion(param_dim=1, ambient_dim=3,
                     components=lambda cols: [cols[0], 0.0, 0.0],
                     domain=((-1.0, 1.0),), name="line")
    pe = line.eval(np.array([[0.3], [-0.8]]))
    assert_close(pe.position, [[0.3, 0.0, 0.0], [-0.8, 0.0, 0.0]], 1e-15)
    met = metric(pe)
    assert_close(met.g, np.ones((2, 1, 1)), 1e-15)
    assert_close(laplace_from_pointeval(pe), np.zeros((2, 3)), 1e-15)


def test_position_matches_eval_position():
    imm = warped_sheet()
    pts = rng_points(imm, 25, seed=2)
    assert_close(imm.position(pts), imm.eval(pts).position, 1e-15)


def test_metric_derivative_matches_fd():
    imm = warped_sheet()
    p = np.array([0.4, -0.6])

    def g_entries(u, v):
        pe = imm.eval(np.stack([u, v], axis=-1))
        return metric(pe).g

    h = 1e-6
    dg_fd = np.empty((2, 2, 2))
    for k in range(2):
        dp = np.zeros(2)
        dp[k] = h
        dg_fd[k] = (g_entries(*(p + dp)) - g_entries(*(p - dp))) / (2 * h)
    dg = metric_derivative(imm.eval(p))
    assert_close(dg, dg_fd, 1e-8)


def test_flat_sheet_laplacian_vanishes():
    flat = Immersion(param_dim=2, ambient_dim=3,
                     components=lambda cols: [cols[0], cols[1], 0.0],
                     domain=((-1.0, 1.0), (-1.0, 1.0)), name="flat")
    pts = rng_points(flat, 30, seed=3)
    assert_close(laplace_beltrami(flat, pts), np.zeros((30, 3)), 1e-15)


def test_sphere_laplacian_is_minus_two_position():
    imm = sphere_chart()
    pts = rng_points(imm, 60, seed=4)
    lap = laplace_beltrami(imm, pts)
    pe = imm.eval(pts)
    assert_close(lap, -2.0 * pe.position, 1e-10)


def test_helicoid_and_catenoid_are_minimal():
    for imm in (helicoid(), helicoid(0.35), catenoid()):
        pts = rng_points(imm, 80, seed=5)
        mc = mean_curvature(imm, pts)
        assert float(np.max(mc.H_norm)) <= 1e-12


def test_cylinder_mean_curvature_vector():
    for radius in (1.0, 2.0, 0.5):
        imm = cylinder(radius)
        pts = rng_points(imm, 30, seed=6)
        mc = mean_curvature(imm, pts)
        u = pts[:, 0]
        expected = -np.stack([np.cos(u), np.sin(u), np.zeros_like(u)],
                             axis=-1) / radius
        assert_close(mc.H, expected, 1e-12)
        assert_close(mc.H_norm, np.full(30, 1.0 / radius), 1e-12)


def test_clifford_torus_satisfies_eigenmap_equation():
    imm = clifford_torus()
    pts = rng_points(imm, 50, seed=7)
    lap = laplace_beltrami(imm, pts)
    assert_close(lap, -2.0 * imm.position(pts), 1e-12)


def test_mean_curvature_is_normal():
    imm = warped_sheet()
    pts = rng_points(imm, 100, seed=8)
    mc = mean_curvature(imm, pts)
    bound = 1e-9 * (1.0 + mc.H_norm)
    assert np.all(mc.tangential_residual <= bound)


def test_contraction_and_divergence_forms_agree():
    imm = warped_sheet()
    pts = rng_points(imm, 100, seed=9)
    pe = imm.eval(pts)
    a = laplace_from_pointeval(pe, form="contraction")
    b = laplace_from_pointeval(pe, form="divergence")
    scale = 1.0 + np.linalg.norm(a, axis=-1, keepdims=True)
    assert float(np.max(np.abs(a - b) / scale)) <= 1e-10


def test_unknown_form_rejected():
    imm = helicoid()
    with pytest.raises(ValueError):
        laplace_beltrami(imm, np.array([1.0, 0.0]), form="weak")


def test_fd_pointeval_reproduces_jet_curvature():
    imm = warped_sheet()
    pts = rng_points(imm, 10, seed=10)
    policy = StepPolicy(base_step=1e-4, richardson_levels=2)

    def component(a):
        return lambda u, v: np.asarray(imm.components([u, v])[a], float)

    fd_parts = [fd_jet(component(a), pts, policy) for a in range(4)]
    pe_fd = PointEval(
        position=np.stack([j.value for j in fd_parts], axis=-1),
        jacobian=np.stack([j.grad for j in fd_parts], axis=-2),
        second=np.stack([j.hess for j in fd_parts], axis=-3),
    )
    lap_fd = laplace_from_pointeval(pe_fd)
    lap = laplace_from_pointeval(imm.eval(pts))
    assert float(np.max(np.abs(lap_fd - lap))) <= 1e-5


def test_mean_curvature_parametrization_invariant():
    imm = warped_sheet()
    A = np.array([[0.8, -0.3], [0.2, 1.1]])
    b = np.array([0.05, -0.1])

    def comps2(cols):
        a0, a1 = cols
        u = A[0, 0] * a0 + A[0, 1] * a1 + b[0]
        v = A[1, 0] * a0 + A[1, 1] * a1 + b[1]
        return imm.components([u, v])

    imm2 = Immersion(param_dim=2, ambient_dim=4, components=comps2,
                     domain=imm.domain, name="warped-reparam")
    q = rng_points(imm2, 40, seed=11) * 0.5
    p = q @ A.T + b
    H1 = mean_curvature(imm, p).H
    H2 = mean_curvature(imm2, q).H
    scale = 1.0 + np.linalg.norm(H1, axis=-1, keepdims=True)
    assert float(np.max(np.abs(H1 - H2) / scale)) <= 1e-8


def test_mean_curvature_rotation_covariant():
    imm = warped_sheet()
    rng = np.random.default_rng(12)
    R, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    shift = rng.standard_normal(4)

    def comps2(cols):
        base = imm.components(cols)
        return [sum(R[a, k] * base[k] for k in range(4)) + shift[a]
                for a in range(4)]

    imm2 = Immersion(param_dim=2, ambient_dim=4, components=comps2,
                     domain=imm.domain, name="warped-rotated")
    pts = rng_points(imm, 40, seed=13)
    H1 = mean_curvature(imm, pts).H
    H2 = mean_curvature(imm2, pts).H
    assert float(np.max(np.abs(H2 - H1 @ R.T))) <= 1e-10


def test_degenerate_metric_raises():
    collapsed = Immersion(param_dim=2, ambient_dim=3,
                          components=lambda cols: [cols[0] + cols[1],
                                                   cols[0] + cols[1], 1.0],
                          domain=((-1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(DegenerateMetric):
        metric(collapsed.eval(np.array([0.2, 0.3])))

    eps = 1e-7  # nearly parallel columns: Hadamard ratio ~ eps^2 / 4
    skewed = Immersion(param_dim=2, ambient_dim=2,
                       components=lambda cols: [cols[0] + cols[1],
                                                cols[0] + (1 + eps) * cols[1]],
                       domain=((-1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(DegenerateMetric):
        metric(skewed.eval(np.array([0.2, 0.3])))


def test_well_scaled_thin_metric_is_accepted():
    # tiny but well-conditioned after rescaling: ratio stays ~ 1/2
    thin = Immersion(param_dim=2, ambient_dim=2,
                     components=lambda cols: [cols[0], cols[0] + 1e-7 * cols[1]],
                     domain=((-1.0, 1.0), (-1.0, 1.0)))
    met = metric(thin.eval(np.array([0.2, 0.3])))
    assert met.det_g > 0.0


def test_metric_inverse_consistency():
    imm = warped_sheet()
    pts = rng_points(imm, 40, seed=14)
    met = metric(imm.eval(pts))
    eye = np.broadcast_to(np.eye(2), met.g.shape)
    assert float(np.max(np.abs(met.g @ met.g_inv - eye))) <= 1e-12
    assert np.all(met.det_g > 0.0)


def test_sphere_residual_equator_vs_latitude():
    def circle(height):
        rho = np.sqrt(1.0 - height**2)

        def comps(cols):
            (u,) = cols
            return [rho * jets.cos(u), rho * jets.sin(u), height]
        return Immersion(param_dim=1, ambient_dim=3, components=comps,
                         domain=((-np.pi, np.pi),), name=f"circle-{height}")

    pts = np.linspace(-3.0, 3.0, 17)[:, None]
    res_eq = sphere_minimality_residual(circle(0.0), pts)
    assert float(np.max(res_eq)) <= 1e-12

    res_lat = sphere_minimality_residual(circle(0.5), pts)
    # closed form sqrt((rho - 1/rho)^2 + h^2) = 1/sqrt(3) at h = 1/2
    assert_close(res_lat, np.full(17, 1.0 / np.sqrt(3.0)), 1e-12)
    assert float(np.min(res_lat)) >= 0.5


def test_sphere_residual_rejects_off_sphere_input():
    imm = cylinder(1.0)
    pts = np.array([[0.3, 0.2]])
    with pytest.raises(NotSpherical):
        sphere_minimality_residual(imm, pts)


def test_coordinate_laplacian_hand_values():
    imm = helicoid()
    p = np.array([0.8, 0.4])
    # g = diag(1, s^2 + 1): Delta s = s / (s^2 + 1), Delta theta = 0
    assert_close(coordinate_laplacian(imm, p, 0), 0.8 / 1.64, 1e-12)
    assert_close(coordinate_laplacian(imm, p, 1), 0.0, 1e-13)

    sph = sphere_chart()
    q = np.array([1.1, -0.3])
    # g = diag(1, sin^2 phi): Delta phi = cot phi, Delta theta = 0
    assert_close(coordinate_laplacian(sph, q, 0), 1.0 / np.tan(1.1), 1e-12)
    assert_close(coordinate_laplacian(sph, q, 1), 0.0, 1e-13)


def test_coordinate_laplacian_from_pointeval_reuses_a_metric():
    imm = warped_sheet()
    pts = rng_points(imm, 6, seed=4)
    pe = imm.eval(pts)
    for index in range(2):
        want = coordinate_laplacian(imm, pts, index)
        for met in (None, metric(pe)):
            got = coordinate_laplacian_from_pointeval(pe, index, met)
            assert got.tobytes() == want.tobytes()


def test_batched_laplacian_matches_pointwise():
    imm = warped_sheet()
    pts = rng_points(imm, 12, seed=15).reshape(3, 4, 2)
    lap = laplace_beltrami(imm, pts)
    for i in range(3):
        for j in range(4):
            single = laplace_beltrami(imm, pts[i, j])
            np.testing.assert_array_equal(lap[i, j], single)


def test_dimension_mismatch_errors():
    imm = helicoid()
    with pytest.raises(DimensionMismatch):
        imm.eval(np.array([1.0, 2.0, 3.0]))
    bad = Immersion(param_dim=2, ambient_dim=4,
                    components=lambda cols: [cols[0], cols[1], 0.0],
                    domain=((-1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(DimensionMismatch):
        bad.eval(np.array([0.1, 0.2]))


def test_exclusion_masks_union():
    imm = Immersion(
        param_dim=2, ambient_dim=3,
        components=lambda cols: [cols[0], cols[1], 0.0],
        domain=((-1.0, 1.0), (-1.0, 1.0)),
        exclusions=(
            ("near-diagonal", lambda p: np.abs(p[..., 0] - p[..., 1]) < 0.1),
            ("right-edge", lambda p: p[..., 0] > 0.9),
        ))
    pts = np.array([[0.0, 0.5], [0.3, 0.35], [0.95, -0.5], [0.2, -0.2]])
    np.testing.assert_array_equal(imm.excluded(pts),
                                  [False, True, True, False])


# ---- sparse-support evaluation against dense seeding ------------------------


def dense_eval(imm, p):
    """The components run on dense seeds ``variables(p)``, stacked."""
    p = np.asarray(p, dtype=np.float64)
    batch, n = p.shape[:-1], imm.param_dim
    vals, grads, hesss = [], [], []
    for o in imm.components(jets.variables(p)):
        if isinstance(o, jets.Jet2):
            vals.append(np.broadcast_to(o.value, batch))
            grads.append(np.broadcast_to(o.grad, batch + (n,)))
            hesss.append(np.broadcast_to(o.hess, batch + (n, n)))
        else:
            vals.append(np.broadcast_to(np.asarray(o, float), batch))
            grads.append(np.zeros(batch + (n,)))
            hesss.append(np.zeros(batch + (n, n)))
    return (np.stack(vals, axis=-1), np.stack(grads, axis=-2),
            np.stack(hesss, axis=-3))


def _oracle_immersions():
    from minvar import families
    from minvar.charts import matrix_tuple
    from minvar.harness import default_campaign

    cases = [(label, families.build_immersion(spec))
             for label, spec in default_campaign()]
    for L in (1, 2, 3):
        for N in (1, 2):
            pitch = families.PitchVector(0.8, tuple(1.2 - 0.3 * t
                                                    for t in range(L)))
            blocks = tuple(families.standard_block(N) for _ in range(L))
            cases.append((f"helicoid-a-L{L}-N{N}", families.build_immersion(
                families.GenHelicoidA(pitch=pitch, blocks=blocks))))
            cases.append((f"helicoid-b-L{L}-N{N}", families.build_immersion(
                families.GenHelicoidB(rays=L, block=blocks[0],
                                      angular_pitch=1.1, axial_pitch=0.6))))
    for N in (1, 2, 3):
        a = 0.6
        eye = np.eye(N + 1)
        u = np.block([[np.cos(a) * eye, -np.sin(a) * eye],
                      [np.sin(a) * eye, np.cos(a) * eye]])
        for kind in ("stereographic", "trigonometric"):
            for unitary in (None, matrix_tuple(u)):
                block = families.standard_block(N, kind, unitary=unitary)
                turn = "rot" if unitary else "std"
                cases.append((f"block-{kind}-N{N}-{turn}", block.immersion()))
                cases.append((f"dual-{kind}-N{N}-{turn}",
                              block.dual_immersion()))
    cases.append(("join-over-lawson", families.build_immersion(
        families.SphericalJoin(xs=families.standard_chart(1),
                               base=families.LawsonSurface(1.0, 2.0)))))
    return cases


ORACLE_IMMERSIONS = _oracle_immersions()


@pytest.mark.parametrize("label,imm", ORACLE_IMMERSIONS,
                         ids=[label for label, _ in ORACLE_IMMERSIONS])
def test_sparse_eval_equals_dense_seeding(label, imm):
    batch = rng_points(imm, 40, seed=17)
    for p in (batch, batch[7]):
        pe = imm.eval(p)
        position, jacobian, second = dense_eval(imm, p)
        assert np.array_equal(pe.position, position)
        assert np.array_equal(pe.jacobian, jacobian)
        assert np.array_equal(pe.second, second)
        assert pe.second.shape == p.shape[:-1] + (imm.ambient_dim,) \
            + (imm.param_dim,) * 2


@pytest.mark.parametrize("label,imm", ORACLE_IMMERSIONS,
                         ids=[label for label, _ in ORACLE_IMMERSIONS])
def test_first_order_guard_equals_second_order_eval(label, imm):
    # excluded() runs a value+gradient pass; its Jacobian, and so its mask,
    # must be the second-order eval's bit for bit.  A floor of 0.5 flags a
    # mix of points on the non-conformal families.
    batch = rng_points(imm, 40, seed=17)
    for p in (batch, batch[7]):
        position, jacobian, second = imm._jets(p, second=False)
        pe = imm.eval(p)
        assert second is None
        assert position.tobytes() == pe.position.tobytes()
        assert jacobian.tobytes() == pe.jacobian.tobytes()
        for floor in (imm.metric_floor, 1e-10, 0.5):
            guarded = replace(imm, metric_floor=floor)
            mask = guarded.excluded(p)
            assert mask.shape == p.shape[:-1]
            assert np.array_equal(mask, guarded.screen(p)[0])


def _einsum_metric_derivative(pe):
    # the contraction metric_derivative computed before it became a matmul
    t = np.einsum("...aki,...aj->...kij", pe.second, pe.jacobian)
    return t + np.swapaxes(t, -1, -2)


@pytest.mark.parametrize("batch", [(60,), ()])
def test_metric_derivative_matches_einsum_reference(batch):
    # a generic second tensor (not symmetric in its last pair), so that
    # any mix-up of the k, i, j axes shows
    rng = np.random.default_rng(23)
    K, n = 19, 16
    pe = PointEval(position=rng.standard_normal(batch + (K,)),
                   jacobian=rng.standard_normal(batch + (K, n)),
                   second=rng.standard_normal(batch + (K, n, n)))
    dg = metric_derivative(pe)
    ref = _einsum_metric_derivative(pe)
    assert dg.shape == ref.shape == batch + (n, n, n)
    eps = np.finfo(np.float64).eps
    assert np.max(np.abs(dg - ref)) <= 64 * eps * (1.0 + np.max(np.abs(ref)))
