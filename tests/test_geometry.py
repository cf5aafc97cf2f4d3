"""Metric, Laplace-Beltrami, and mean-curvature oracles on classical surfaces."""

import hashlib
import warnings

import numpy as np
import pytest

from minvar import geometry, jets
from minvar.charts import clifford_frame
from minvar.errors import DegenerateMetric, DimensionMismatch, NotSpherical
from minvar.families import GenHelicoidA, PitchVector, standard_block
from minvar.geometry import (
    Block,
    Immersion,
    PointEval,
    _divergence_parts,
    laplace_from_pointeval,
    mean_curvature,
    metric,
    metric_derivative,
    sphere_residual_from_pointeval,
)
from minvar.identities import helicoid_algebra, lemma_magic_residuals, \
    proof_terms, theta_harmonicity
from minvar.jets import StepPolicy, fd_jet


def assert_close(actual, expected, tol):
    np.testing.assert_allclose(actual, expected, rtol=tol, atol=tol)


def helicoid(pitch=1.0):
    def comps(cols):
        s, th = cols
        return [s * jets.cos(th), s * jets.sin(th), pitch * th]
    return Immersion(param_dim=2, ambient_dim=3, components=comps,
                     domain=((-2.0, 2.0), (-np.pi, np.pi)), name="helicoid")


def enneper():
    # (u − u³/3 + uv², v − v³/3 + vu², u² − v²): conformal, with metric
    # (1 + u² + v²)² δ, and minimal, as a polynomial map in sums and products
    def comps(cols):
        u, v = cols
        third = 1.0 / 3.0
        return [u - third * (u * u * u) + u * (v * v),
                v - third * (v * v * v) + v * (u * u),
                u * u - v * v]
    return Immersion(param_dim=2, ambient_dim=3, components=comps,
                     domain=((-1.5, 1.5), (-1.5, 1.5)), name="enneper")


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
        return [u, v, u * u * u * v + jets.sin(u * v), v * v - u]
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
    assert_close(laplace_from_pointeval(flat.eval(pts)), np.zeros((30, 3)),
                 1e-15)


def test_sphere_laplacian_is_minus_two_position():
    imm = sphere_chart()
    pts = rng_points(imm, 60, seed=4)
    pe = imm.eval(pts)
    lap = laplace_from_pointeval(pe)
    assert_close(lap, -2.0 * pe.position, 1e-10)


def test_helicoid_and_enneper_are_minimal():
    for imm in (helicoid(), helicoid(0.35), enneper()):
        pts = rng_points(imm, 80, seed=5)
        mc = mean_curvature(imm.eval(pts))
        assert float(np.max(mc.H_norm)) <= 1e-12
    pts = rng_points(enneper(), 20, seed=4)
    lam = (1.0 + np.sum(pts * pts, axis=-1)) ** 2
    assert_close(metric(enneper().eval(pts)).g,
                 lam[:, None, None] * np.eye(2), 1e-12)


def test_cylinder_mean_curvature_vector():
    for radius in (1.0, 2.0, 0.5):
        imm = cylinder(radius)
        pts = rng_points(imm, 30, seed=6)
        mc = mean_curvature(imm.eval(pts))
        u = pts[:, 0]
        expected = -np.stack([np.cos(u), np.sin(u), np.zeros_like(u)],
                             axis=-1) / radius
        assert_close(mc.H, expected, 1e-12)
        assert_close(mc.H_norm, np.full(30, 1.0 / radius), 1e-12)


def test_clifford_torus_satisfies_eigenmap_equation():
    imm = clifford_torus()
    pts = rng_points(imm, 50, seed=7)
    lap = laplace_from_pointeval(imm.eval(pts))
    assert_close(lap, -2.0 * imm.position(pts), 1e-12)


def test_mean_curvature_is_normal():
    imm = warped_sheet()
    pts = rng_points(imm, 100, seed=8)
    mc = mean_curvature(imm.eval(pts))
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

    # every campaign family on sampled points, normalized as the
    # minimality residual is: by 1 + the squared Frobenius norm of J
    from minvar.families import build_immersion
    from minvar.harness import SamplePlan, default_campaign, sample_points

    for label, spec in default_campaign():
        imm = build_immersion(spec)
        for seed in range(3):
            pts, _ = sample_points(imm, SamplePlan(count=60, seed=seed))
            pe = imm.eval(pts)
            met = metric(pe)
            a = laplace_from_pointeval(pe, form="contraction", met=met)
            b = laplace_from_pointeval(pe, form="divergence", met=met)
            scale = 1.0 + np.sum(pe.jacobian ** 2, axis=(-2, -1))
            gap = float(np.max(np.linalg.norm(a - b, axis=-1) / scale))
            # helicoid-slice samples points with κ(J) in the thousands
            bound = 3.6e-10 if label == "helicoid-slice" else 1.4e-15
            assert gap <= bound, (label, seed, gap)


def test_unknown_form_rejected():
    imm = helicoid()
    with pytest.raises(ValueError):
        laplace_from_pointeval(imm.eval(np.array([1.0, 0.0])), form="weak")


def test_fd_pointeval_reproduces_jet_curvature():
    imm = warped_sheet()
    pts = rng_points(imm, 10, seed=10)
    policy = StepPolicy(base_step=1e-4, richardson_levels=2)

    # differences of positions alone: independent of the jet rules
    def component(a):
        return lambda *cols: imm.position(np.stack(cols, axis=-1))[..., a]

    fd_parts = [fd_jet(component(a), pts, policy) for a in range(4)]
    pe_fd = PointEval(
        position=np.stack([j.value for j in fd_parts], axis=-1),
        jacobian=np.stack([j.grad for j in fd_parts], axis=-2),
        blocks=(Block.full(np.stack([j.hess for j in fd_parts], axis=-3)),),
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
    H1 = mean_curvature(imm.eval(p)).H
    H2 = mean_curvature(imm2.eval(q)).H
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
    H1 = mean_curvature(imm.eval(pts)).H
    H2 = mean_curvature(imm2.eval(pts)).H
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

    def residual(imm):
        pe = imm.eval(pts)
        return sphere_residual_from_pointeval(pe, H=mean_curvature(pe).H)

    pts = np.linspace(-3.0, 3.0, 17)[:, None]
    res_eq = residual(circle(0.0))
    assert float(np.max(res_eq)) <= 1e-12

    res_lat = residual(circle(0.5))
    # closed form sqrt((rho - 1/rho)^2 + h^2) = 1/sqrt(3) at h = 1/2
    assert_close(res_lat, np.full(17, 1.0 / np.sqrt(3.0)), 1e-12)
    assert float(np.min(res_lat)) >= 0.5


def test_sphere_residual_rejects_off_sphere_input():
    pe = cylinder(1.0).eval(np.array([[0.3, 0.2]]))
    with pytest.raises(NotSpherical):
        sphere_residual_from_pointeval(pe, H=laplace_from_pointeval(pe))
    # n is read from the Jacobian; an old positional n must not pass as H
    with pytest.raises(TypeError):
        sphere_residual_from_pointeval(pe, 2)


def test_coordinate_laplacian_hand_values():
    lap = metric(helicoid().eval(np.array([0.8, 0.4]))).coordinate_laplacians
    # g = diag(1, s^2 + 1): Delta s = s / (s^2 + 1), Delta theta = 0
    assert_close(lap[0], 0.8 / 1.64, 1e-12)
    assert_close(lap[1], 0.0, 1e-13)

    lap = metric(sphere_chart().eval(
        np.array([1.1, -0.3]))).coordinate_laplacians
    # g = diag(1, sin^2 phi): Delta phi = cot phi, Delta theta = 0
    assert_close(lap[0], 1.0 / np.tan(1.1), 1e-12)
    assert_close(lap[1], 0.0, 1e-13)


def _single_index_laplacian(met, index):
    # the per-index spelling of Delta u_index before coordinate_laplacians
    dlogs, dginv = _divergence_parts(met.g_inv, met.dg)
    return np.einsum("...i,...i->...", dlogs, met.g_inv[..., :, index]) \
        + np.einsum("...ii->...", dginv[..., :, :, index])


def test_coordinate_laplacians_equal_the_single_index_spelling():
    imm = dict(ORACLE_IMMERSIONS)["helicoid-a-L2-N2"]
    batch = rng_points(imm, 12, seed=4)
    for p in (batch, batch[5], batch.reshape(3, 4, -1)):
        met = metric(imm.eval(p))
        lap = met.coordinate_laplacians
        assert lap.shape == p.shape
        for index in range(imm.param_dim):
            want = _single_index_laplacian(met, index)
            assert lap[..., index].tobytes() == want.tobytes()


def test_batched_laplacian_matches_pointwise():
    imm = warped_sheet()
    pts = rng_points(imm, 12, seed=15).reshape(3, 4, 2)
    lap = laplace_from_pointeval(imm.eval(pts))
    for i in range(3):
        for j in range(4):
            single = laplace_from_pointeval(imm.eval(pts[i, j]))
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


_BLOCK = standard_block(1)
_SPEC = GenHelicoidA(pitch=PitchVector(0.8, (1.2,)), blocks=(_BLOCK,))
_POINTLESS = {
    "variables": jets.variables,
    "jet_eval": lambda p: jets.jet_eval(lambda u: u * u, p),
    "fd_jet": lambda p: fd_jet(lambda u: u * u, p),
    "Columns": lambda p: jets.Columns(p, 2),
    "Immersion.eval": lambda p: helicoid().eval(p),
    "Immersion.position": lambda p: helicoid().position(p),
    "Immersion.excluded": lambda p: helicoid().excluded(p),
    "Immersion.screen": lambda p: helicoid().screen(p),
    "clifford_frame": lambda p: clifford_frame(_BLOCK, p),
    "lemma_magic_residuals": lambda p: lemma_magic_residuals(_BLOCK, p),
    "helicoid_algebra": lambda p: helicoid_algebra(_SPEC, p),
    "theta_harmonicity": lambda p: theta_harmonicity(_SPEC, p),
    "proof_terms": lambda p: proof_terms(_SPEC, 1, p),
}


@pytest.mark.parametrize("entry", list(_POINTLESS.values()),
                         ids=list(_POINTLESS))
def test_a_point_without_a_coordinate_axis_is_a_dimension_mismatch(entry):
    # a 0-d point has no coordinate axis to read n from; every entry point
    # that takes points names that one way
    with pytest.raises(DimensionMismatch):
        entry(np.float64(0.5))


# ---- sparse-support evaluation against dense seeding ------------------------


class DenseColumns(jets.Columns):
    """Second-order columns whose every seed carries the full support.

    A column or range is seeded on all n parameters (its rows of the
    identity as gradient, a zero Hessian), as ``variables`` seeds, so the
    same component formulas run the dense Leibniz rules alone, without
    sparse supports.  Slices and stacks keep the type
    (``Columns.__getitem__``, ``Columns.stack``): a stack's seed is its
    members' dense seeds stacked, and its split keeps their support.
    """

    __slots__ = ()

    def _range(self, lo, hi, scalar):
        if self._members is not None:
            seeds = [m._range(m._lo + lo, m._lo + hi, scalar)
                     for m in self._members]
            return jets.Jet2(*(np.stack([getattr(s, slot) for s in seeds])
                               for slot in ("value", "grad", "hess")),
                             seeds[0].support)
        rows = lo if scalar else slice(lo, hi)
        n = self.p.shape[-1]
        grad = np.eye(n)[rows]
        grad = np.broadcast_to(grad, self.batch + grad.shape)
        hess = np.broadcast_to(0.0, grad.shape + (n,))
        return jets.Jet2(self.p[..., rows], grad, hess, tuple(range(n)))

    def _relabel(self, support, k):
        return support


def dense_eval(imm, p):
    """The components run on ``DenseColumns``, written into dense arrays.

    Every jet part lies on the full support, so its slots fill its rows
    whole: no support bookkeeping, no ``_write_part``.
    """
    cols = DenseColumns(p, 2)
    batch, n, K = cols.batch, imm.param_dim, imm.ambient_dim
    placed, count = jets.place(imm.components(cols), batch)
    assert count == K
    position = np.empty(batch + (K,))
    jacobian = np.zeros(batch + (K, n))
    second = np.zeros(batch + (K, n, n))
    for part, rows in placed:
        if isinstance(part, jets.Jet2):
            assert part.support == tuple(range(n))
            position[..., rows] = part.value
            jacobian[..., rows, :] = part.grad
            second[..., rows, :, :] = part.hess
        else:
            position[..., rows] = part
    return position, jacobian, second


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


def _dense_oracle_immersions():
    """ORACLE_IMMERSIONS, then the vector-form cases of the family and
    chart tests: every layout of parts (scalars, vectors, interleaved
    pairs, sections) meets the dense seeds."""
    from minvar.families import build_immersion
    from test_charts import VECTOR_CHARTS
    from test_families import VECTOR_CASES

    labels = {label for label, _ in ORACLE_IMMERSIONS}
    return ORACLE_IMMERSIONS \
        + [(name, build_immersion(spec))
           for name, spec in sorted(VECTOR_CASES.items())
           if name not in labels] \
        + [(f"chart-{name}", chart.build())
           for name, chart in sorted(VECTOR_CHARTS.items())]


DENSE_ORACLE_IMMERSIONS = _dense_oracle_immersions()


@pytest.mark.parametrize("label,imm", DENSE_ORACLE_IMMERSIONS,
                         ids=[label for label, _ in DENSE_ORACLE_IMMERSIONS])
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


@pytest.mark.parametrize("label,imm", DENSE_ORACLE_IMMERSIONS,
                         ids=[label for label, _ in DENSE_ORACLE_IMMERSIONS])
def test_dense_seeding_forms_no_union(monkeypatch, label, imm):
    # the oracle stays dense: every jet it meets lies on all n parameters,
    # stacked chart groups included, so no support union is ever laid out
    def union_plan(s, t):
        raise AssertionError(f"dense seeding met supports {s} and {t}")

    monkeypatch.setattr(jets, "_union_plan", union_plan)
    batch = rng_points(imm, 40, seed=17)
    for p in (batch, batch[7]):
        dense_eval(imm, p)


def _dense_contraction(pe, absolute=False):
    """The contraction form as dense einsums over ``pe.second`` and
    ``metric_derivative``; with ``absolute``, the same sums over the
    operands' absolute values, the scale of their rounding error."""
    op = np.abs if absolute else (lambda a: a)
    sign = 1.0 if absolute else -1.0
    gi, dg = op(metric(pe).g_inv), op(metric_derivative(pe))
    trace2 = np.einsum("...ij,...aij->...a", gi, op(pe.second))
    c = np.einsum("...ij,...ijk->...k", gi, dg) \
        + sign * 0.5 * np.einsum("...ij,...kij->...k", gi, dg)
    return trace2 + sign * np.einsum("...lk,...k,...al->...a", gi, c,
                                     op(pe.jacobian))


# every dense-oracle case with a metric (a point chart has none)
CONTRACTION_CASES = [(label, imm) for label, imm in DENSE_ORACLE_IMMERSIONS
                     if imm.param_dim]


@pytest.mark.parametrize("label,imm", CONTRACTION_CASES,
                         ids=[label for label, _ in CONTRACTION_CASES])
def test_blockwise_contraction_equals_dense_reference(label, imm):
    # the block-by-block sums regroup the dense ones, so the two differ
    # by rounding alone: at most a few ulps of the summands' magnitudes
    from minvar.harness import SamplePlan, sample_points

    pts, _ = sample_points(imm, SamplePlan(count=24, seed=29))
    for p in (pts, pts[:6].reshape(2, 3, -1), pts[0]):
        pe = imm.eval(p)
        got = laplace_from_pointeval(pe)
        want = _dense_contraction(pe)
        scale = 1.0 + np.linalg.norm(_dense_contraction(pe, absolute=True),
                                     axis=-1)
        assert got.shape == want.shape
        gap = np.linalg.norm(got - want, axis=-1) / scale
        assert float(np.max(gap)) <= 1e-13, (label, p.shape)


def test_eval_merges_adjacent_parts_on_one_support():
    from minvar import families
    from minvar.harness import default_campaign

    campaign = dict(default_campaign())
    layouts = {
        # four scalar coordinates of one chart: one block
        "lawson-surface": [(slice(0, 4), (0, 1))],
        # two pairs and an axial scalar on three supports: three blocks
        "planes-helicoid": [(slice(0, 2), (0, 1)), (slice(2, 4), (0, 2)),
                            (slice(4, 5), (0,))],
        "helicoid-blocks": [(slice(0, 4), (0, 1, 4, 5)),
                            (slice(4, 8), (2, 3, 4, 6)), (slice(8, 9), (4,))],
        "control-latitude": [(slice(0, 2), (0,))],      # row 2 is constant
    }
    for label, layout in layouts.items():
        imm = families.build_immersion(campaign[label])
        p = rng_points(imm, 5, seed=3)
        pe = imm.eval(p)
        assert [(b.rows, b.support) for b in pe.blocks] == layout, label
        for rows, support, hess in pe.blocks:
            r = rows.stop - rows.start
            assert hess.shape == (5, r, len(support), len(support))
    # a single block over every row and column is the dense tensor itself
    torus = families.build_immersion(campaign["clifford-torus"])
    pe = torus.eval(rng_points(torus, 5, seed=3))
    assert len(pe.blocks) == 1 and pe.second is pe.blocks[0].hess
    second = np.zeros((3, 4, 2, 2))
    pe = PointEval(position=np.zeros((3, 4)), jacobian=np.zeros((3, 4, 2)),
                   blocks=(Block.full(second),))
    assert pe.second is second


@pytest.mark.parametrize("label,imm", ORACLE_IMMERSIONS,
                         ids=[label for label, _ in ORACLE_IMMERSIONS])
def test_first_order_guard_equals_second_order_eval(monkeypatch, label,
                                                    imm):
    # excluded() runs a value+gradient pass; its Jacobian, and so its mask,
    # must be the second-order eval's bit for bit.  A floor of 0.5 flags a
    # mix of points on the non-conformal families.
    batch = rng_points(imm, 40, seed=17)
    for p in (batch, batch[7]):
        position, jacobian, second = imm._assembled(p, 1)
        pe = imm.eval(p)
        assert second is None
        assert position.tobytes() == pe.position.tobytes()
        assert jacobian.tobytes() == pe.jacobian.tobytes()
        for floor in (1e-10, 0.5):
            monkeypatch.setattr(geometry, "METRIC_RATIO_FLOOR", floor)
            mask = imm.excluded(p)
            assert mask.shape == p.shape[:-1]
            assert np.array_equal(mask, imm.screen(p)[0])


# sha256 of position, Jacobian and second derivatives (each plus 0.0, so
# the sign of a zero does not count) of each default_campaign() family at
# rng_points(imm, 40, seed=2020); a change in any bit of the engine's
# output shows here as a deliberate diff
POINTEVAL_DIGESTS = {
    "clifford-torus": "573aad5b6ebf96cea67b7681c7f2909e04436e6a37dd127edb74fe3a2d355c51",
    "clifford-cone": "6d75015a6a6fc1f27a63e65b98bf931bcd4c10a96931d54a1d9ad5eaf82ba39f",
    "rays-clifford-cone": "5f0bbff602225f56c3610983a36fec2425ff58de3c5deae44d178e800e4303ab",
    "helicoid-blocks": "7aa0c27060c0887c35f4c169a48c7f47c63ac5af30023811c104459e92159f07",
    "helicoid-shared-torus": "07ed24f0a313691d5a55a4c76c0a532a21e147d32e9db907154e7a59e79702d8",
    "interleaved-helicoid": "d3b8fbbe1e40ccc701005fc79c8a33f7bfdb008a61f861a601b529f9d6b83c0b",
    "planes-helicoid": "4446b35b41aad086e8c66b984936e31a4359eb0ea1fc8898ea241cc73c65b709",
    "lawson-surface": "d0b4dbf0b9b7fb7721ed6514b6901d0dd21755c57c21442171cf5d8c62c415c9",
    "paired-sphere-cone": "c1f8046f1a189703eca91387e7a03d0a7dfeae82a675ca5c813ab40a41177a91",
    "helicoid-slice": "0181caabd14e6ddbeefc5282aa46f87a8b98b4b6f8f55c9f9cd7586f4623d70b",
    "control-latitude": "9c43001d84324c68b63d16378045d7c9ce0aa835c2476dd072fae81d33bf47d6",
    "control-cylinder": "76500e67ec329aece58455b06edd5f0b97cf07eaaab0d598f9442cbb22423060",
}


def test_pointeval_digests_pinned():
    from minvar import families
    from minvar.harness import default_campaign

    got = {}
    for label, spec in default_campaign():
        imm = families.build_immersion(spec)
        pe = imm.eval(rng_points(imm, 40, seed=2020))
        digest = hashlib.sha256()
        for array in (pe.position, pe.jacobian, pe.second):
            digest.update((array + 0.0).tobytes())
        got[label] = digest.hexdigest()
    assert got == POINTEVAL_DIGESTS


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
    second = rng.standard_normal(batch + (K, n, n))
    pe = PointEval(position=rng.standard_normal(batch + (K,)),
                   jacobian=rng.standard_normal(batch + (K, n)),
                   blocks=(Block.full(second),))
    dg = metric_derivative(pe)
    ref = _einsum_metric_derivative(pe)
    assert dg.shape == ref.shape == batch + (n, n, n)
    eps = np.finfo(np.float64).eps
    assert np.max(np.abs(dg - ref)) <= 64 * eps * (1.0 + np.max(np.abs(ref)))


def test_vanishing_jacobian_column_reports_ratio_zero_without_warning():
    # at radius 0 a helicoid's chart columns vanish, so Π g_ii = 0; the
    # ratio used to read nan with an "invalid value" warning
    from minvar.families import GenHelicoidA, PitchVector, standard_block
    from minvar.identities import helicoid_algebra

    spec = GenHelicoidA(pitch=PitchVector(0.8, (1.2,)),
                        blocks=(standard_block(1),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateMetric,
                           match=r"ratio 0\.000e\+00 <= 1\.0e-12"):
            helicoid_algebra(spec, np.array([0.3, -0.4, 0.5, 0.0]))
        jac = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        pe = PointEval(position=np.zeros(3), jacobian=jac,
                       blocks=(Block.full(np.zeros((3, 2, 2))),))
        with pytest.raises(DegenerateMetric, match=r"ratio 0\.000e\+00"):
            metric(pe)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_jacobian_is_excluded_and_has_no_metric(bad):
    # a NaN fails every comparison: a floor written as det ≤ floor would
    # keep such a point, and metric would hand back a NaN inverse
    jac = np.array([[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
                    [[1.0, 0.0], [0.0, 1.0], [bad, 0.0]]])
    pe = PointEval(position=np.zeros((2, 3)), jacobian=jac,
                   blocks=(Block.full(np.zeros((2, 3, 2, 2))),))
    with np.errstate(invalid="ignore"):
        floor = geometry._below_floor(geometry._gram(jac),
                                      geometry.METRIC_RATIO_FLOOR)
        assert floor.tolist() == [False, True]
        with pytest.raises(DegenerateMetric,
                           match=r"non-finite metric: det g = nan at 1 point"):
            metric(pe)


def test_finite_position_with_a_nonfinite_jacobian_is_excluded():
    # at u = 0 the third coordinate is 1e160 but its slope overflows
    imm = Immersion(param_dim=2, ambient_dim=3,
                    components=lambda cols: [
                        cols[0], cols[1], jets.reciprocal(cols[0] + 1e-160)],
                    domain=((0.0, 1.0), (0.0, 1.0)), name="steep")
    p = np.array([[0.0, 0.3], [0.5, 0.3]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isfinite(imm.position(p)).all()
        assert imm.excluded(p).tolist() == [True, False]
        mask, pe = imm.screen(p)
        assert mask.tolist() == [True, False]
        with pytest.raises(DegenerateMetric, match="non-finite metric"):
            metric(pe)
        assert np.isfinite(metric(imm.eval(p[1:])).g_inv).all()


def test_guards_exclude_an_overflowing_point_without_warnings():
    # the slope of 1/(u + 1e-160) overflows at u = 0, 1/u has a pole there
    # and atan2(v, u) no slope at the origin: the guards exclude that point
    # quietly, with warnings as errors, while eval still warns
    from minvar.mesh import tessellate
    unit, square = ((0.0, 1.0), (0.0, 1.0)), ((-1.0, 1.0), (-1.0, 1.0))
    cases = [
        ("steep", lambda cols: jets.reciprocal(cols[0] + 1e-160), unit,
         [0.0, 0.3], "overflow"),
        ("pole", lambda cols: jets.reciprocal(cols[0]), unit,
         [0.0, 0.3], "divide by zero"),
        ("angle", lambda cols: jets.atan2(cols[1], cols[0]), square,
         [0.0, 0.0], "invalid value")]
    for name, height, domain, bad, warning in cases:
        imm = Immersion(param_dim=2, ambient_dim=3,
                        components=lambda cols, h=height:
                            [cols[0], cols[1], h(cols)],
                        domain=domain, name=name)
        p = np.array([bad, [0.5, 0.3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert imm.excluded(p).tolist() == [True, False], name
            mask, pe = imm.screen(p)
            assert mask.tolist() == [True, False], name
            with np.errstate(divide="ignore", invalid="ignore"):
                assert pe.position.tobytes() == imm.position(p).tobytes()
            mesh = tessellate(imm, resolution=(5, 5), projection=(0, 1, 2))
            assert mesh.faces.shape == (24, 3), name
            with pytest.raises(RuntimeWarning, match=warning):
                imm.eval(p)


def test_every_evaluation_assembles_once(monkeypatch):
    # position, excluded, eval and screen each run one assemble pass, the
    # only place where a map's parts become arrays, at their order
    from minvar.families import build_immersion
    from minvar.harness import default_campaign
    calls = []
    assemble = Immersion.assemble

    def counted(self, outs, cols):
        calls.append(cols.order)
        return assemble(self, outs, cols)

    monkeypatch.setattr(Immersion, "assemble", counted)
    orders = {"position": 0, "excluded": 1, "eval": 2, "screen": 2}
    for name, spec in default_campaign():
        imm = build_immersion(spec)
        for p in (rng_points(imm, 3, seed=5), rng_points(imm, 1, seed=6)[0]):
            for method, order in orders.items():
                calls.clear()
                getattr(imm, method)(p)
                assert calls == [order], (name, method)


@pytest.mark.parametrize("batch", [(), (1,), (60,), (7, 5), (100,), (4096,)])
@pytest.mark.parametrize("K, n", [(4, 2), (19, 16), (3, 1), (5, 3), (1, 2)])
def test_gram_has_the_row_major_einsum_bits(batch, K, n):
    # the batch-innermost sum of large batches adds the rows in einsum's
    # order, so g, det g and Π g_ii keep their bits at every batch; n = 1
    # keeps einsum
    rng = np.random.default_rng(K * 100 + n)
    jac = rng.standard_normal(batch + (K, n)) \
        * np.exp(4.0 * rng.standard_normal(batch + (K, n)))
    g, det, hadamard = geometry._gram(jac)
    want = np.einsum("...ki,...kj->...ij", jac, jac)
    assert g.shape == want.shape and g.flags.c_contiguous
    assert g.tobytes() == want.tobytes()
    assert det.tobytes() == np.linalg.det(want).tobytes()
    assert hadamard.tobytes() == np.prod(
        np.einsum("...ii->...i", want), axis=-1).tobytes()
