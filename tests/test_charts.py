"""Sphere-chart embeddings and Clifford-block frame identities."""

import hashlib

import numpy as np
import pytest

from minvar import jets
from minvar.charts import (
    CliffordBlock,
    SphereChart,
    apply_complex_structure,
    clifford_frame,
    embed_charts,
    matrix_tuple,
    rotate_block,
)
from minvar.errors import DegenerateMetric, SpecError
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
    assert_close(one.build().position(np.array([0.5])), [0.8, 0.6], 1e-15)
    two = SphereChart(dim=2, kind="stereographic")
    assert_close(two.build().position(np.array([0.3, -0.4])),
                 [0.48, -0.64, 0.6], 1e-15)


def test_trigonometric_frozen_values():
    two = SphereChart(dim=2, kind="trigonometric")
    got = two.build().position(np.array([1.1, 0.7]))
    assert_close(got, [np.cos(1.1), np.sin(1.1) * np.cos(0.7),
                       np.sin(1.1) * np.sin(0.7)], 1e-15)
    one = SphereChart(dim=1, kind="trigonometric")
    assert_close(one.build().position(np.array([0.0])), [1.0, 0.0], 1e-15)


@pytest.mark.parametrize("kind", ["stereographic", "trigonometric"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_images_lie_on_unit_sphere(kind, dim):
    chart = SphereChart(dim=dim, kind=kind)
    pts = chart_points(chart, 200, seed=dim)
    pos = chart.build().position(pts)
    assert_close(np.linalg.norm(pos, axis=-1), np.ones(200), 1e-14)


def test_chart_immersions_are_nondegenerate_on_their_boxes():
    for kind in ("stereographic", "trigonometric"):
        for dim in (1, 2, 3):
            chart = SphereChart(dim=dim, kind=kind)
            pts = chart_points(chart, 50, seed=10 + dim)
            met = metric(chart.build().eval(pts))
            assert np.all(met.det_g > 0.0)


def _slots(x) -> list:
    """A chart image's value, gradient and Hessian; an array is its value."""
    if not isinstance(x, jets.Jet2):
        return [x]
    return [a for a in (x.value, x.grad, x.hess) if a is not None]


def test_trigonometric_guard_nans_rows_near_axis():
    # a point whose interior sine vanishes (|sin φ| < SIN_GUARD, signed
    # zero and π included) gets NaN rows instead of raising, at every
    # order; the other points of its batch keep their bits, signed zeros
    # too, and the final angle is unguarded
    chart = SphereChart(dim=2, kind="trigonometric")
    p = np.array([[0.5, -0.0], [1e-12, 0.4], [-0.0, 0.4], [1.1, 0.7],
                  [np.pi, 0.4], [0.5, 0.0]])
    singular = np.array([False, True, True, False, True, False])
    regular = np.where(singular[:, None], [1.0, 0.3], p)
    for order in (0, 1, 2):
        got = _slots(chart.embed(jets.Columns(p, order)))
        want = _slots(chart.embed(jets.Columns(regular, order)))
        assert len(got) == order + 1
        for a, b in zip(got, want):
            assert np.isnan(a[singular]).all()
            assert a[~singular].tobytes() == b[~singular].tobytes()
    assert chart.build().excluded(p).tolist() == singular.tolist()


def test_metric_at_a_chart_singularity_is_a_typed_error():
    # an unguarded eval at φ₁ ∈ {0, −0.0, 1e-9} has NaN rows, which
    # ``metric`` refuses with DegenerateMetric, without a numpy warning
    trig = SphereChart(dim=2, kind="trigonometric")
    imm = CliffordBlock(trig, trig).immersion()
    regular = np.array([1.0, 0.3, 1.0, 0.4])
    metric(imm.eval(regular))
    for phi in (0.0, -0.0, 1e-9):
        p = regular.copy()
        p[0] = phi
        for q in (p, np.stack([regular, p])):
            with pytest.raises(DegenerateMetric, match="non-finite"):
                metric(imm.eval(q))


def test_chart_rotation_applied_and_validated():
    beta = 0.6
    rot = matrix_tuple([[np.cos(beta), -np.sin(beta)],
                        [np.sin(beta), np.cos(beta)]])
    plain = SphereChart(dim=1, kind="trigonometric")
    turned = SphereChart(dim=1, kind="trigonometric", rotation=rot)
    pts = chart_points(plain, 20, seed=3)
    expected = plain.build().position(pts) @ np.asarray(rot).T
    assert_close(turned.build().position(pts), expected, 1e-14)

    with pytest.raises(SpecError):
        SphereChart(dim=1, rotation=matrix_tuple([[1.0, 0.1], [0.0, 1.0]]))
    with pytest.raises(SpecError):
        SphereChart(dim=2, rotation=rot)  # wrong size
    with pytest.raises(SpecError, match="defect nan"):
        SphereChart(dim=1, rotation=((float("nan"), 0.0), (0.0, 1.0)))


def test_point_chart_branches_and_validation():
    plus = SphereChart(dim=0, kind="point", branch=1)
    minus = SphereChart(dim=0, kind="point", branch=-1)
    assert plus.embed(jets.Columns(np.empty(0), 0)).tolist() == [1.0]
    assert minus.embed(jets.Columns(np.empty((2, 0)), 2)).tolist() \
        == [[-1.0], [-1.0]]
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
        SphereChart(dim=True, kind="stereographic")
    with pytest.raises(SpecError):
        SphereChart(dim=1, kind="harmonic")
    with pytest.raises(SpecError, match="only point charts"):
        SphereChart(dim=1, branch=-1)


def test_embed_arity_checked():
    chart = SphereChart(dim=2, kind="stereographic")
    with pytest.raises(SpecError):
        chart.embed(jets.Columns(np.array([0.1]), 0))


def test_complex_structure_squares_to_minus_identity():
    rng = np.random.default_rng(4)
    v = rng.standard_normal((7, 6))
    assert_close(apply_complex_structure(apply_complex_structure(v)), -v, 1e-15)
    with pytest.raises(SpecError):
        apply_complex_structure(np.zeros(5))


@pytest.mark.parametrize("order", [0, 1, 2])
def test_complex_structure_acts_on_a_jet_slot_by_slot(order):
    # J is constant and linear, so J of a component-axis jet is J of its
    # value, gradient and Hessian on their component axes: the bytes of
    # (−b; a) joined from the jet's halves, with its support and order
    p = np.random.default_rng(6).standard_normal((3, 5))
    cols = jets.Columns(p, order)[1:5]
    v = jets.sin(cols.joint()) * jets.lift(cols[0])
    jv = apply_complex_structure(v)
    want = jets.concat([-jets.take(v, 2, 4), jets.take(v, 0, 2)])
    assert type(jv) is type(want)
    if order == 0:
        assert jv.tobytes() == want.tobytes()
        return
    assert jv.support == want.support == (1, 2, 3, 4)
    for got, ref in ((jv.value, want.value), (jv.grad, want.grad),
                     (jv.hess, want.hess)):
        assert (got is None and ref is None) or got.tobytes() == ref.tobytes()
    twice = apply_complex_structure(jv)
    assert np.array_equal(twice.grad, -v.grad)
    with pytest.raises(SpecError, match="even component count, got 3"):
        apply_complex_structure(jets.take(v, 0, 3))


def test_rotate_block_needs_an_even_component_count():
    with pytest.raises(SpecError, match="even component count, got 3"):
        rotate_block(np.array([1.0, 2.0, 3.0]), 0.3)
    v = jets.Columns(np.array([0.1, 0.2, 0.3]), 2)[0:3].joint()
    with pytest.raises(SpecError, match="even component count"):
        rotate_block(v, 0.3)
    assert_close(rotate_block(np.array([1.0, 2.0]), np.pi / 2), [-2.0, 1.0],
                 1e-15)


def test_spec_matrices_are_converted_once():
    # the cached arrays are frozen and invisible to equality and hashing
    turn = _commuting_unitary(2, 0.7)
    block = CliffordBlock(SphereChart(dim=1), SphereChart(dim=1),
                          unitary=turn)
    chart = SphereChart(dim=3, rotation=turn)
    assert block.unitary_matrix is block.unitary_matrix
    assert chart.rotation_matrix is chart.rotation_matrix
    for mat in (block.unitary_matrix, chart.rotation_matrix):
        assert np.array_equal(mat, np.array(turn)) and mat.dtype == float
        with pytest.raises(ValueError):
            mat[0, 0] = 2.0
    twin = CliffordBlock(SphereChart(dim=1), SphereChart(dim=1),
                         unitary=turn)
    assert twin == block and hash(twin) == hash(block)
    assert CliffordBlock(SphereChart(dim=1), SphereChart(dim=1)) \
        .unitary_matrix is None
    assert SphereChart(dim=2).rotation_matrix is None


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
    gx = metric(block.chart_x.build().eval(pts[:, :dim])).g
    gy = metric(block.chart_y.build().eval(pts[:, dim:])).g
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
    for jet, fd in zip((fr.metric.dg, fr.dw, fr.dm),
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


# ---- component-axis charts and blocks against the scalar formulas ----------
#
# The independent route: the chart and block formulas written once per
# coordinate on scalar jets, one seed per parameter, with rotations and
# unitaries as sequential sums.  The component-axis evaluation must give
# the same values and derivatives, np.array_equal (signed zeros aside).


def _scalar_chart(chart, cols):
    if chart.kind == "point":
        out = [float(chart.branch)]
    elif chart.kind == "stereographic":
        s = cols[0] * cols[0]
        for c in cols[1:]:
            s = s + c * c
        # a product with the reciprocal, as the chart's vector form
        # writes it: for jets that is what c / d runs, for arrays it is
        # what gives positions the bits of the jets' values
        inv = jets.reciprocal(1.0 + s)
        out = [2.0 * c * inv for c in cols] + [(1.0 - s) * inv]
    else:
        out, prefix = [], 1.0
        for phi in cols:
            out.append(prefix * jets.cos(phi))
            prefix = prefix * jets.sin(phi)
        out.append(prefix)
    return _sequential_map(chart.rotation_matrix, out)


def _sequential_map(mat, comps):
    if mat is None:
        return comps
    return [sum(mat[a, k] * comps[k] for k in range(len(comps)))
            for a in range(mat.shape[0])]


def _scalar_block(block, cols, sign):
    nx = block.chart_x.param_dim
    x = _scalar_chart(block.chart_x, cols[:nx])
    y = _scalar_chart(block.chart_y, cols[nx:])
    inv = 1.0 / np.sqrt(2.0)
    f = [inv * xi for xi in x] + [sign * inv * yi for yi in y]
    return _sequential_map(block.unitary_matrix, f)


def _scalar_dense(outs, p, second):
    """Scalar outputs on one-variable seeds, scattered into dense arrays."""
    batch, n = p.shape[:-1], p.shape[-1]
    position = np.empty(batch + (len(outs),))
    jacobian = np.zeros(batch + (len(outs), n))
    hessians = np.zeros(batch + (len(outs), n, n))
    for k, o in enumerate(outs):
        if not isinstance(o, jets.Jet2):
            position[..., k] = o
            continue
        idx = np.asarray(o.support, dtype=np.intp)
        position[..., k] = o.value
        jacobian[..., k, idx] = o.grad
        if second:
            hessians[..., k, idx[:, None], idx] = o.hess
    return position, jacobian, hessians


def _scalar_seeds(p, second):
    batch = p.shape[:-1]
    one = np.broadcast_to(1.0, batch + (1,))
    if not second:
        return [jets.Jet1(p[..., i], one, (i,)) for i in range(p.shape[-1])]
    zero = np.broadcast_to(0.0, batch + (1, 1))
    return [jets.Jet2(p[..., i], one, zero, (i,))
            for i in range(p.shape[-1])]


def _turn(dim, angle):
    # a rotation of R^{dim+1} mixing every coordinate
    rng = np.random.default_rng(dim)
    q, _ = np.linalg.qr(rng.standard_normal((dim + 1, dim + 1)))
    c, s = np.cos(angle), np.sin(angle)
    plane = np.eye(dim + 1)
    plane[:2, :2] = [[c, -s], [s, c]]
    return matrix_tuple(q @ plane)


VECTOR_CHARTS = {
    f"{kind[:5]}-S{dim}-{'rot' if turn else 'std'}":
        SphereChart(dim=dim, kind=kind,
                    rotation=_turn(dim, 0.4) if turn else None)
    for kind in ("stereographic", "trigonometric")
    for dim in (1, 2, 3) for turn in (False, True)}
VECTOR_CHARTS["point-minus"] = SphereChart(dim=0, kind="point", branch=-1)

VECTOR_BLOCKS = {
    f"{kind[:5]}-{other[:5]}-N{dim}-{'unitary' if unitary else 'plain'}":
        CliffordBlock(SphereChart(dim=dim, kind=kind),
                      SphereChart(dim=dim, kind=other), unitary=(
                          _commuting_unitary(dim + 1, 0.7)
                          if unitary else None))
    for kind, other in (("stereographic", "stereographic"),
                        ("trigonometric", "trigonometric"),
                        ("trigonometric", "stereographic"))
    for dim in (1, 2, 3) for unitary in (False, True)}
VECTOR_BLOCKS["point-N0-unitary"] = CliffordBlock(
    SphereChart(dim=0, kind="point"),
    SphereChart(dim=0, kind="point", branch=-1),
    unitary=_commuting_unitary(1, 0.7))
VECTOR_BLOCKS["rotated-charts-N2"] = CliffordBlock(
    SphereChart(dim=2, rotation=_turn(2, 0.9)),
    SphereChart(dim=2, kind="trigonometric", rotation=_turn(2, 1.3)))


def _batches(points, components):
    """(), (1,), (3, 5) and a batch as long as the component count."""
    return [points[0], points[:1], points[:15].reshape(3, 5, -1),
            points[:components]]


def _assert_equal_arrays(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w)


@pytest.mark.parametrize("name", sorted(VECTOR_CHARTS))
def test_component_axis_chart_equals_scalar_formulas(name):
    chart = VECTOR_CHARTS[name]
    imm = chart.build()
    pts = chart_points(chart, 20, seed=31)
    for p in _batches(pts, chart.dim + 1):
        for second in (True, False):
            seeds = _scalar_seeds(p, second)
            want = _scalar_dense(_scalar_chart(chart, seeds), p, second)
            got = imm._assembled(p, 2 if second else 1)
            _assert_equal_arrays(got[:2], want[:2])
            if second:
                _assert_equal_arrays((imm.eval(p).second,), want[2:])
            else:
                assert got[2] is None
        plain = _scalar_chart(chart, [p[..., i]
                                      for i in range(chart.param_dim)])
        want = np.stack([np.broadcast_to(np.asarray(x, dtype=float),
                                         p.shape[:-1]) for x in plain],
                        axis=-1)
        assert np.array_equal(imm.position(p), want)


@pytest.mark.parametrize("name", sorted(VECTOR_BLOCKS))
def test_component_axis_block_equals_scalar_formulas(name):
    block = VECTOR_BLOCKS[name]
    pts = block_points(block, 20, seed=32)
    for p in _batches(pts, block.ambient_dim):
        for imm, sign in ((block.immersion(), 1.0),
                          (block.dual_immersion(), -1.0)):
            for second in (True, False):
                want = _scalar_dense(
                    _scalar_block(block, _scalar_seeds(p, second), sign),
                    p, second)
                got = imm._assembled(p, 2 if second else 1)
                _assert_equal_arrays(got[:2], want[:2])
                if second:
                    _assert_equal_arrays((imm.eval(p).second,), want[2:])
        fr = clifford_frame(block, p)
        want_c = _scalar_dense(_scalar_block(block, _scalar_seeds(p, True),
                                             1.0), p, True)
        want_d = _scalar_dense(_scalar_block(block, _scalar_seeds(p, True),
                                             -1.0), p, True)
        _assert_equal_arrays((fr.C, fr.dC, fr.d2C), want_c)
        _assert_equal_arrays((fr.D, fr.dD), want_d[:2])


# ---- charts grouped by spec ------------------------------------------------

# the identity with −0.0 where the first row meets X₂ and X₃: equal to the
# identity as a spec, yet its images' zero entries can take other signs
_SIGNED = matrix_tuple([[1.0, -0.0, -0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
GROUPED_CHARTS = (
    SphereChart(dim=2),
    SphereChart(dim=2, kind="trigonometric"),
    SphereChart(dim=0, kind="point", branch=-1),
    SphereChart(dim=2, rotation=_turn(2, 0.9)),
    SphereChart(dim=2),
    SphereChart(dim=0, kind="point"),
    SphereChart(dim=2, kind="trigonometric"),
    SphereChart(dim=1, kind="trigonometric"),
    SphereChart(dim=2, rotation=_turn(2, 0.9)),
    SphereChart(dim=0, kind="point", branch=-1),
    SphereChart(dim=2, kind="trigonometric", rotation=_SIGNED),
    SphereChart(dim=1),
    SphereChart(dim=2, kind="trigonometric",
                rotation=matrix_tuple(np.eye(3))),
    SphereChart(dim=2),
)


def _slot_bytes(x):
    """Type, support and every slot's shape and bytes (signed zeros too)."""
    if not isinstance(x, jets.Jet2):
        return [type(x), x.shape, x.tobytes()]
    return [type(x), x.support] + [
        None if a is None else (a.shape, a.tobytes())
        for a in (x.value, x.grad, x.hess)]


@pytest.mark.parametrize("scale", [1.0, 1.0 / np.sqrt(2.0)])
@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("batch", [(), (1,), (3, 5)])
def test_grouped_charts_equal_their_own_embeddings(batch, order, scale):
    assert GROUPED_CHARTS[10] == GROUPED_CHARTS[12]
    count = int(np.prod(batch, dtype=int))
    pts = np.concatenate([chart_points(chart, count, seed=40 + k)
                          for k, chart in enumerate(GROUPED_CHARTS)], -1)
    p = pts.reshape(batch + pts.shape[-1:])
    spans = np.cumsum([0] + [c.param_dim for c in GROUPED_CHARTS])
    cols = jets.Columns(p, order)
    got = embed_charts(GROUPED_CHARTS,
                       [cols[lo:hi] for lo, hi in zip(spans, spans[1:])],
                       scale)
    assert len(got) == len(GROUPED_CHARTS)
    for chart, lo, hi, x in zip(GROUPED_CHARTS, spans, spans[1:], got):
        want = chart.embed(jets.Columns(p, order)[lo:hi])
        if scale != 1.0:
            want = scale * want
        assert _slot_bytes(x) == _slot_bytes(want)
        if isinstance(x, jets.Jet2):
            assert x.support == tuple(range(lo, hi))


def test_a_degenerate_member_leaves_its_group_intact():
    # only the singular member's rows are non-finite: the members grouped
    # with it keep the bytes of their own embeddings
    trig = SphereChart(dim=2, kind="trigonometric")
    charts = (trig, SphereChart(dim=1), trig)
    cols = jets.Columns(np.array([1.0, 0.4, 1e-12, 0.4, 0.3]), 2)
    ranges = (cols[0:2], cols[4:5], cols[2:4])
    got = embed_charts(charts, ranges)
    assert all(np.isnan(a).all() for a in _slots(got[2]))
    for k in (0, 1):
        assert _slot_bytes(got[k]) == _slot_bytes(charts[k].embed(ranges[k]))
    # as in a block, whichever of its charts degenerates: that chart's
    # half of C is NaN and the other half has the bytes it has beside a
    # regular chart
    block = CliffordBlock(trig, trig)
    for p, nan in (([1.0, 0.4, 1e-12, 0.4], slice(3, 6)),
                   ([1e-12, 0.4, 1.0, 0.4], slice(0, 3))):
        kept = slice(3 - nan.start, 6 - nan.start)
        got = block.embed(jets.Columns(np.array(p), 2))
        want = block.embed(jets.Columns(np.array([1.0, 0.4, 1.0, 0.4]), 2))
        assert got.support == want.support
        assert np.isnan(got.value[nan]).all()
        for a, b in zip(_slots(got), _slots(want)):
            assert a[kept].tobytes() == b[kept].tobytes()


def test_grouped_charts_check_each_arity():
    cols = jets.Columns(np.zeros(5), 2)
    with pytest.raises(SpecError, match="chart expects 2"):
        embed_charts((SphereChart(dim=2), SphereChart(dim=2)),
                     (cols[0:2], cols[2:5]))
    with pytest.raises(SpecError, match="block expects 4"):
        CliffordBlock(SphereChart(dim=2), SphereChart(dim=2)).embed(cols)


# ---- rotated blocks, pinned -------------------------------------------------


def _quadrant_unitary(half, angle):
    # cos a·I + sin a·J; a cosine or sine below zero times the identity's
    # zeros leaves −0.0 entries in the matrix
    c, s = np.cos(angle) * np.eye(half), np.sin(angle) * np.eye(half)
    return matrix_tuple(np.block([[c, -s], [s, c]]))


def _rotated_block_digest(dim, kind):
    """sha256 of the raw bytes, signed zeros included, of every frame
    field, ∂g and lemma residual over unitaries and batches."""
    from dataclasses import fields

    from minvar.families import standard_block
    from minvar.identities import lemma_magic_residuals

    digest = hashlib.sha256()
    for angle in (None, 0.4, 2.0, 3.6, 5.2):
        block = standard_block(dim, kind, branches=(1, -1), unitary=(
            None if angle is None else _quadrant_unitary(dim + 1, angle)))
        pts = block_points(block, 15, seed=31 + dim)
        for p in (pts[0], pts[:1], pts.reshape(3, 5, -1)):
            fr = clifford_frame(block, p)
            res = lemma_magic_residuals(block, p)
            arrays = [getattr(fr, f.name) for f in fields(fr)
                      if f.name not in ("metric", "split")]
            arrays += [fr.metric.g, fr.metric.g_inv, fr.metric.det_g,
                       fr.metric.dg]
            arrays += [getattr(res, f.name) for f in fields(res)]
            for a in arrays:
                a = np.asarray(a)
                digest.update(repr(a.shape).encode() + a.tobytes())
    return digest.hexdigest()


ROTATED_BLOCK_DIGESTS = {
    "N0-point":
        "6a092d417295c39466c9d4461a669ed947510b08cd0080989912454e62e1ca34",
    "N1-stereographic":
        "eb24d1d7acf8155c16e2fb698f41f26dde07dbbdbf4c5449e08ee20d8c2512db",
    "N1-trigonometric":
        "0d768c4d2ad52de9dfe307923e20bdc961d9eeddca65d0115e17b7f761ef7737",
    "N2-stereographic":
        "0e1c7e914952b04910fd5376dcf4feee5394ccc900f8a05d30625c41413129b5",
    "N2-trigonometric":
        "68d762968dcf067af4933847b73871c9e4c19a10445a36f3bf1661f8cfafba5b",
    "N3-stereographic":
        "2f11ef772a761301c85aa47fb9ac89845fae810f9468e0a4d9cc90eff68ce5b8",
    "N3-trigonometric":
        "a843a03928dd1cfa855d704858792dc723f7a10395ef613fe8e1912d0f1e381b",
}


@pytest.mark.parametrize("dim, kind", [(0, "point")] + [
    (dim, kind) for dim in (1, 2, 3)
    for kind in ("stereographic", "trigonometric")])
def test_rotated_block_bytes_pinned(dim, kind):
    # no unitary, then cos a·I + sin a·J with a in each quadrant, at
    # batches (), (1,) and (3, 5): C, D, their derivatives, the metric
    # and the lemma residuals keep every bit, the sign of zeros included
    assert _rotated_block_digest(dim, kind) \
        == ROTATED_BLOCK_DIGESTS[f"N{dim}-{kind}"]
