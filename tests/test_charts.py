"""Sphere-chart embeddings and Clifford-block frame identities."""

import numpy as np
import pytest

from minvar.charts import (
    CliffordBlock,
    SphereChart,
    apply_complex_structure,
    clifford_frame,
    matrix_tuple,
)
from minvar.errors import ChartDomainError, SpecError
from minvar.geometry import metric
from minvar.jets import StepPolicy, fd_jet


def assert_close(actual, expected, tol):
    np.testing.assert_allclose(actual, expected, rtol=tol, atol=tol)


def chart_points(chart, count, seed):
    rng = np.random.default_rng(seed)
    box = chart.domain_box()
    if not box:
        return np.zeros((count, 0))
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    return lo + (hi - lo) * rng.random((count, len(box)))


def block_points(block, count, seed):
    rng = np.random.default_rng(seed)
    box = block.domain_box()
    if not box:
        return np.zeros((count, 0))
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    return lo + (hi - lo) * rng.random((count, len(box)))


def test_stereographic_frozen_values():
    one = SphereChart(dim=1, kind="stereographic")
    assert_close(one.immersion().position(np.array([0.5])), [0.8, 0.6], 1e-15)
    two = SphereChart(dim=2, kind="stereographic")
    assert_close(two.immersion().position(np.array([0.3, -0.4])),
                 [0.48, -0.64, 0.6], 1e-15)


def test_trigonometric_frozen_values():
    two = SphereChart(dim=2, kind="trigonometric")
    got = two.immersion().position(np.array([1.1, 0.7]))
    assert_close(got, [np.cos(1.1), np.sin(1.1) * np.cos(0.7),
                       np.sin(1.1) * np.sin(0.7)], 1e-15)
    one = SphereChart(dim=1, kind="trigonometric")
    assert_close(one.immersion().position(np.array([0.0])), [1.0, 0.0], 1e-15)


@pytest.mark.parametrize("kind", ["stereographic", "trigonometric"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_images_lie_on_unit_sphere(kind, dim):
    chart = SphereChart(dim=dim, kind=kind)
    pts = chart_points(chart, 200, seed=dim)
    pos = chart.immersion().position(pts)
    assert_close(np.linalg.norm(pos, axis=-1), np.ones(200), 1e-14)


def test_chart_immersions_are_nondegenerate_on_their_boxes():
    for kind in ("stereographic", "trigonometric"):
        for dim in (1, 2, 3):
            chart = SphereChart(dim=dim, kind=kind)
            pts = chart_points(chart, 50, seed=10 + dim)
            met = metric(chart.immersion().eval(pts))
            assert np.all(met.det_g > 0.0)


def test_trigonometric_guard_raises_near_axis():
    chart = SphereChart(dim=2, kind="trigonometric")
    with pytest.raises(ChartDomainError):
        chart.embed([np.array(1e-12), np.array(0.4)])
    # the final angle is unguarded
    chart.embed([np.array(0.5), np.array(0.0)])


def test_chart_rotation_applied_and_validated():
    beta = 0.6
    rot = matrix_tuple([[np.cos(beta), -np.sin(beta)],
                        [np.sin(beta), np.cos(beta)]])
    plain = SphereChart(dim=1, kind="trigonometric")
    turned = SphereChart(dim=1, kind="trigonometric", rotation=rot)
    pts = chart_points(plain, 20, seed=3)
    expected = plain.immersion().position(pts) @ np.asarray(rot).T
    assert_close(turned.immersion().position(pts), expected, 1e-14)

    with pytest.raises(SpecError):
        SphereChart(dim=1, rotation=matrix_tuple([[1.0, 0.1], [0.0, 1.0]]))
    with pytest.raises(SpecError):
        SphereChart(dim=2, rotation=rot)  # wrong size
    with pytest.raises(SpecError, match="defect nan"):
        SphereChart(dim=1, rotation=((float("nan"), 0.0), (0.0, 1.0)))


def test_point_chart_branches_and_validation():
    plus = SphereChart(dim=0, kind="point", branch=1)
    minus = SphereChart(dim=0, kind="point", branch=-1)
    assert plus.embed([]) == [1.0]
    assert minus.embed([]) == [-1.0]
    assert plus.param_dim == 0
    with pytest.raises(SpecError):
        SphereChart(dim=0, kind="point", branch=0)
    with pytest.raises(SpecError):
        SphereChart(dim=0, kind="stereographic")
    with pytest.raises(SpecError):
        SphereChart(dim=1, kind="point")
    with pytest.raises(SpecError):
        SphereChart(dim=-1, kind="stereographic")
    with pytest.raises(SpecError):
        SphereChart(dim=1, kind="harmonic")
    with pytest.raises(SpecError, match="only point charts"):
        SphereChart(dim=1, branch=-1)


def test_embed_arity_checked():
    chart = SphereChart(dim=2, kind="stereographic")
    with pytest.raises(SpecError):
        chart.embed([np.array(0.1)])


def test_complex_structure_squares_to_minus_identity():
    rng = np.random.default_rng(4)
    v = rng.standard_normal((7, 6))
    assert_close(apply_complex_structure(apply_complex_structure(v)), -v, 1e-15)
    with pytest.raises(SpecError):
        apply_complex_structure(np.zeros(5))


@pytest.mark.parametrize("kx,ky", [("trigonometric", "trigonometric"),
                                   ("stereographic", "trigonometric"),
                                   ("stereographic", "stereographic")])
@pytest.mark.parametrize("dim", [1, 2])
def test_block_frame_identities(kx, ky, dim):
    block = CliffordBlock(chart_x=SphereChart(dim=dim, kind=kx),
                          chart_y=SphereChart(dim=dim, kind=ky))
    pts = block_points(block, 100, seed=5 * dim)
    fr = clifford_frame(block, pts)
    n1 = dim + 1

    assert_close(np.linalg.norm(fr.C, axis=-1), np.ones(100), 1e-14)
    assert_close(np.linalg.norm(fr.D, axis=-1), np.ones(100), 1e-14)
    assert_close(np.einsum("...a,...a->...", fr.C, fr.D), np.zeros(100), 1e-14)
    # D is orthogonal to every torus tangent direction
    assert_close(np.einsum("...a,...aj->...j", fr.D, fr.dC),
                 np.zeros((100, 2 * dim)), 1e-13)
    # m = D.JC = -X.Y and JD.C = +X.Y
    x = fr.C[..., :n1] * np.sqrt(2.0)
    y = fr.C[..., n1:] * np.sqrt(2.0)
    xy = np.einsum("...a,...a->...", x, y)
    assert_close(fr.m, -xy, 1e-13)
    assert_close(np.einsum("...a,...a->...", fr.JD, fr.C), xy, 1e-13)
    # metric is block diagonal: half the product of the chart metrics
    gx = metric(block.chart_x.immersion().eval(pts[:, :dim])).g
    gy = metric(block.chart_y.immersion().eval(pts[:, dim:])).g
    assert_close(fr.metric.g[..., :dim, :dim], 0.5 * gx, 1e-13)
    assert_close(fr.metric.g[..., dim:, dim:], 0.5 * gy, 1e-13)
    assert_close(fr.metric.g[..., :dim, dim:],
                 np.zeros((100, dim, dim)), 1e-15)


def test_block_frame_closed_forms_dim_one():
    block = CliffordBlock(
        chart_x=SphereChart(dim=1, kind="trigonometric"),
        chart_y=SphereChart(dim=1, kind="trigonometric"))
    pts = block_points(block, 60, seed=6)
    u, v = pts[:, 0], pts[:, 1]
    fr = clifford_frame(block, pts)
    assert_close(fr.m, -np.cos(u - v), 1e-14)
    half_sin = 0.5 * np.sin(u - v)
    assert_close(fr.w, np.stack([half_sin, half_sin], axis=-1), 1e-14)
    assert_close(fr.metric.g, np.broadcast_to(0.5 * np.eye(2), (60, 2, 2)),
                 1e-14)


def test_block_unitary_preserves_frame_scalars():
    alpha = 0.8
    eye = np.eye(2)
    # u4 = cos(a) I + sin(a) J is orthogonal and commutes with J
    u4 = np.block([[np.cos(alpha) * eye, -np.sin(alpha) * eye],
                   [np.sin(alpha) * eye, np.cos(alpha) * eye]])
    base = CliffordBlock(chart_x=SphereChart(dim=1, kind="trigonometric"),
                         chart_y=SphereChart(dim=1, kind="trigonometric"))
    turned = CliffordBlock(chart_x=base.chart_x, chart_y=base.chart_y,
                           unitary=matrix_tuple(u4))
    pts = block_points(base, 40, seed=7)
    fr0 = clifford_frame(base, pts)
    fr1 = clifford_frame(turned, pts)
    assert_close(fr1.C, fr0.C @ u4.T, 1e-14)
    assert_close(fr1.D, fr0.D @ u4.T, 1e-14)
    assert_close(fr1.m, fr0.m, 1e-13)
    assert_close(fr1.w, fr0.w, 1e-13)
    assert_close(fr1.metric.g, fr0.metric.g, 1e-13)


def test_block_unitary_validation():
    q = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    bad = np.block([[q, np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]])
    ch = SphereChart(dim=1, kind="trigonometric")
    with pytest.raises(SpecError):
        CliffordBlock(chart_x=ch, chart_y=ch, unitary=matrix_tuple(bad))
    with pytest.raises(SpecError):
        CliffordBlock(chart_x=ch, chart_y=ch,
                      unitary=matrix_tuple(np.eye(3)))
    with pytest.raises(SpecError):
        CliffordBlock(chart_x=ch, chart_y=SphereChart(dim=2))


def test_zero_dimensional_block():
    block = CliffordBlock(
        chart_x=SphereChart(dim=0, kind="point", branch=1),
        chart_y=SphereChart(dim=0, kind="point", branch=-1))
    assert block.param_dim == 0
    assert block.ambient_dim == 2
    pts = np.zeros((5, 0))
    fr = clifford_frame(block, pts)
    inv = 1.0 / np.sqrt(2.0)
    assert_close(fr.C, np.broadcast_to([inv, -inv], (5, 2)), 1e-15)
    assert_close(fr.D, np.broadcast_to([inv, inv], (5, 2)), 1e-15)
    assert_close(fr.m, np.ones(5), 1e-15)
    assert fr.w.shape == (5, 0)
    assert_close(fr.metric.det_g, np.ones(5), 1e-15)


def _commuting_unitary(half, angle):
    eye = np.eye(half)
    return matrix_tuple(np.block([[np.cos(angle) * eye, -np.sin(angle) * eye],
                                  [np.sin(angle) * eye, np.cos(angle) * eye]]))


FRAME_BLOCKS = {
    "circle": CliffordBlock(chart_x=SphereChart(dim=1, kind="trigonometric"),
                            chart_y=SphereChart(dim=1, kind="trigonometric")),
    "mixed-S2-turned": CliffordBlock(
        chart_x=SphereChart(dim=2, kind="stereographic"),
        chart_y=SphereChart(dim=2, kind="trigonometric"),
        unitary=_commuting_unitary(3, 0.7)),
    "stereo-S3": CliffordBlock(chart_x=SphereChart(dim=3),
                               chart_y=SphereChart(dim=3)),
}


@pytest.mark.parametrize("name", sorted(FRAME_BLOCKS))
@pytest.mark.parametrize("batched", [True, False])
def test_one_pass_frame_equals_separate_evaluations(name, batched):
    block = FRAME_BLOCKS[name]
    pts = block_points(block, 20, seed=12)
    if not batched:
        pts = pts[3]
    fr = clifford_frame(block, pts)
    pe_c = block.immersion().eval(pts)
    pe_d = block.dual_immersion().eval(pts)
    for got, want in [(fr.C, pe_c.position), (fr.dC, pe_c.jacobian),
                      (fr.d2C, pe_c.second), (fr.D, pe_d.position),
                      (fr.dD, pe_d.jacobian)]:
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _fd_frame_derivatives(block, pts):
    """(dg, dw, dm) by finite differences of the jet-built g, w and m.

    The fields g_ij, w_i and m are stacked as M outputs; a leading batch
    axis of length M selects which output each fd_jet lane follows, so
    one fd_jet call differentiates them all.
    """
    n = block.param_dim
    M = n * n + n + 1

    def fields(q):
        fr = clifford_frame(block, q)
        g = fr.metric.g.reshape(fr.m.shape + (n * n,))
        return np.concatenate([g, fr.w, fr.m[..., None]], axis=-1)

    lanes = np.arange(M).reshape((M,) + (1,) * pts.ndim)

    def f(*cols):
        vals = fields(np.stack(cols, axis=-1))
        return np.take_along_axis(vals, lanes, axis=-1)[..., 0]

    reps = np.broadcast_to(pts, (M,) + pts.shape)
    grad = fd_jet(f, reps, StepPolicy(base_step=1e-4, richardson_levels=2))
    grad = np.moveaxis(grad.grad, 0, -1)      # (..., k, field)
    dg = grad[..., :n * n].reshape(pts.shape[:-1] + (n, n, n))
    return dg, grad[..., n * n:n * n + n], grad[..., -1]


@pytest.mark.parametrize("name", sorted(FRAME_BLOCKS))
def test_second_order_frame_fields_match_finite_differences(name):
    # same jet-vs-FD bound and step policy as acceptance criterion 8
    block = FRAME_BLOCKS[name]
    pts = block_points(block, 8, seed=13)
    fr = clifford_frame(block, pts)
    for jet, fd in zip((fr.dg, fr.dw, fr.dm),
                       _fd_frame_derivatives(block, pts)):
        assert jet.shape == fd.shape
        gap = np.max(np.abs(fd - jet) / np.maximum(1.0, np.abs(jet)))
        assert gap <= 1e-5


def test_matrix_tuple_round_trip():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    t = matrix_tuple(a)
    assert t == ((1.0, 2.0), (3.0, 4.0))
    assert_close(np.asarray(t), a, 0.0)
    with pytest.raises(SpecError):
        matrix_tuple(np.zeros(3))
