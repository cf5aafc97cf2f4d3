"""Family constructions: formulas, symmetries, equivalences, serialization."""

import json
import re
import typing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minvar import families, geometry
from minvar.charts import CliffordBlock, SphereChart, matrix_tuple
from minvar.errors import (
    BranchLocusError,
    DimensionMismatch,
    SpecError,
)
from minvar.families import (
    BDJ,
    ChoeHoppe,
    CliffordCone,
    CliffordTorus,
    Cylinder,
    GenHelicoidA,
    GenHelicoidB,
    HarveyLawsonCone,
    LatitudeCircle,
    LawsonSurface,
    LRaysCliffordCone,
    LRaysCone,
    PitchVector,
    SphericalJoin,
    SphericalSlice,
    build_immersion,
    choe_hoppe_graph_function,
    choe_hoppe_graph_residual,
    is_negative_control,
    lands_on_unit_sphere,
    scaling_indices,
    screw_action,
    screw_data,
    spec_dimensions,
    spec_from_json,
    spec_to_json,
    standard_block,
    standard_chart,
)
from minvar.geometry import mean_curvature, sphere_residual_from_pointeval


def assert_close(actual, expected, tol):
    np.testing.assert_allclose(actual, expected, rtol=tol, atol=tol)


def sample_box(imm, count, seed, keep=True):
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in imm.domain])
    hi = np.array([b[1] for b in imm.domain])
    pts = lo + (hi - lo) * rng.random((count, imm.param_dim))
    if keep:
        pts = pts[~imm.excluded(pts)]
    return pts


def helicoid_a(L, N, pitch=None, kind="stereographic"):
    pitch = pitch or PitchVector(lambda0=0.7,
                                 lambdas=tuple(1.0 + 0.3 * t
                                               for t in range(L)))
    return GenHelicoidA(pitch=pitch,
                        blocks=tuple(standard_block(N, kind)
                                     for _ in range(L)))


SPEC_DIMENSION_TABLE = [
    (CliffordTorus(block=standard_block(2)), 4, 6),
    (CliffordCone(block=standard_block(1)), 3, 4),
    (LRaysCone(rays=3, base=SphereChart(dim=2)), 5, 9),
    (LRaysCliffordCone(rays=2, block=standard_block(1)), 4, 8),
    (SphericalJoin(xs=SphereChart(dim=1), base=LatitudeCircle(height=0.0)), 2, 6),
    (helicoid_a(2, 1), 7, 9),
    (helicoid_a(3, 0), 4, 7),
    (GenHelicoidB(rays=2, block=standard_block(1), angular_pitch=1.0,
                  axial_pitch=0.5), 5, 9),
    (ChoeHoppe(sphere_dim=2, pitch=1.0), 4, 5),
    (BDJ(pitch=PitchVector(lambda0=1.0, lambdas=(1.0, 2.0))), 3, 5),
    (LawsonSurface(lambda1=1.0, lambda2=2.0), 2, 4),
    (HarveyLawsonCone(sphere_dim=1), 4, 8),
    (SphericalSlice(inner=helicoid_a(2, 1, PitchVector(0.0, (1.0, 2.0)))), 6, 8),
    (LatitudeCircle(height=0.3), 1, 3),
    (Cylinder(radius=1.0), 2, 3),
]


@pytest.mark.parametrize("spec,n,K", SPEC_DIMENSION_TABLE)
def test_declared_dimensions_match_built(spec, n, K):
    assert spec_dimensions(spec) == (n, K)
    imm = build_immersion(spec)
    assert (imm.param_dim, imm.ambient_dim) == (n, K)
    assert len(imm.domain) == n


def test_helicoid_a_frozen_point():
    # one point-chart block: C = (1,1)/sqrt2, J C = (-1,1)/sqrt2
    spec = helicoid_a(1, 0, PitchVector(lambda0=1.0, lambdas=(1.0,)))
    imm = build_immersion(spec)
    s2 = np.sqrt(2.0)
    assert_close(imm.position(np.array([0.0, 1.0])), [1 / s2, 1 / s2, 0.0],
                 1e-15)
    th = 0.8
    expected = [np.cos(th + np.pi / 4), np.sin(th + np.pi / 4), th]
    assert_close(imm.position(np.array([th, 1.0])), expected, 1e-15)


def test_bdj_frozen_point():
    spec = BDJ(pitch=PitchVector(lambda0=0.5, lambdas=(1.0, 2.0)))
    imm = build_immersion(spec)
    got = imm.position(np.array([0.7, 1.0, 1.3]))
    expected = [np.cos(0.7), np.sin(0.7), 1.3 * np.cos(1.4),
                1.3 * np.sin(1.4), 0.35]
    assert_close(got, expected, 1e-15)


def test_choe_hoppe_reduces_to_classical_helicoid():
    imm = build_immersion(ChoeHoppe(sphere_dim=1, pitch=1.0))
    s2 = np.sqrt(2.0)
    assert_close(imm.position(np.array([0.0, 1 / s2])), [1 / s2, 1 / s2, 0.0],
                 1e-15)
    pts = sample_box(imm, 50, seed=1)
    got = imm.position(pts)
    th, s = pts[:, 0], pts[:, 1]
    classical = np.stack([s2 * s * np.cos(th + np.pi / 4),
                          s2 * s * np.sin(th + np.pi / 4), th], axis=-1)
    assert_close(got, classical, 1e-14)


def test_lawson_frozen_point():
    imm = build_immersion(LawsonSurface(lambda1=1.0, lambda2=2.0))
    t, th = 0.4, 0.9
    got = imm.position(np.array([t, th]))
    expected = [np.cos(t) * np.cos(th), np.cos(t) * np.sin(th),
                np.sin(t) * np.cos(2 * th), np.sin(t) * np.sin(2 * th)]
    assert_close(got, expected, 1e-15)


def test_harvey_lawson_matches_rays_cone_layout():
    hl = build_immersion(HarveyLawsonCone(sphere_dim=1))
    rays = build_immersion(LRaysCliffordCone(rays=2, block=standard_block(1)))
    pts = sample_box(hl, 40, seed=2)
    scaled = pts.copy()
    scaled[:, 2:] *= np.sqrt(2.0)  # rays radii absorb the 1/sqrt2 of C
    assert_close(hl.position(pts), rays.position(scaled), 1e-14)


@pytest.mark.parametrize("spec", [
    CliffordTorus(block=standard_block(1)),
    CliffordTorus(block=standard_block(2, kind="trigonometric")),
    LawsonSurface(lambda1=1.0, lambda2=2.0),
    SphericalJoin(xs=SphereChart(dim=1), base=LatitudeCircle(height=0.0)),
    SphericalSlice(inner=helicoid_a(2, 1, PitchVector(0.0, (1.0, 2.0)))),
    LatitudeCircle(height=0.4),
])
def test_sphere_containment(spec):
    assert lands_on_unit_sphere(spec)
    imm = build_immersion(spec)
    pts = sample_box(imm, 200, seed=3)
    norms = np.linalg.norm(imm.position(pts), axis=-1)
    assert_close(norms, np.ones_like(norms), 1e-12)


SCREW_SPECS = [
    helicoid_a(1, 1),
    helicoid_a(2, 0),
    helicoid_a(3, 0),
    helicoid_a(2, 2, PitchVector(0.0, (1.0, -0.5))),
    GenHelicoidB(rays=2, block=standard_block(1), angular_pitch=0.8,
                 axial_pitch=0.3),
    GenHelicoidB(rays=3, block=standard_block(1), angular_pitch=-1.2,
                 axial_pitch=0.5),
    ChoeHoppe(sphere_dim=1, pitch=0.6),
    ChoeHoppe(sphere_dim=2, pitch=0.6),
    ChoeHoppe(sphere_dim=3, pitch=0.6),
    BDJ(pitch=PitchVector(lambda0=1.0, lambdas=(1.0, 2.0, 3.0))),
    LawsonSurface(lambda1=1.0, lambda2=2.0),
    SphericalSlice(inner=helicoid_a(2, 1, PitchVector(0.0, (1.0, 2.0)))),
    SphericalSlice(inner=helicoid_a(3, 1, PitchVector(0.0, (1.0, 2.0, -0.5)))),
]


@pytest.mark.parametrize("spec", SCREW_SPECS)
def test_screw_invariance(spec):
    imm = build_immersion(spec)
    data = screw_data(spec)
    assert data is not None
    rng = np.random.default_rng(4)
    pts = sample_box(imm, 100, seed=5, keep=False)
    ts = rng.uniform(-2.0, 2.0, size=100)
    shifted = pts.copy()
    shifted[:, data.theta_index] += ts
    lhs = imm.position(shifted)
    rhs = np.stack([
        screw_action(data.pitch, float(ts[i]), imm.position(pts[i]))
        for i in range(len(ts))])
    assert float(np.max(np.abs(lhs - rhs))) <= 1e-12


SCALING_SPECS = [
    CliffordCone(block=standard_block(1)),
    LRaysCone(rays=2, base=SphereChart(dim=2)),
    LRaysCone(rays=2, base=LawsonSurface(lambda1=1.0, lambda2=2.0)),
    LRaysCliffordCone(rays=3, block=standard_block(1)),
    HarveyLawsonCone(sphere_dim=0),
    HarveyLawsonCone(sphere_dim=2),
    HarveyLawsonCone(sphere_dim=2,
                     chart_x=SphereChart(dim=2, kind="trigonometric"),
                     chart_y=SphereChart(dim=2, kind="trigonometric")),
    helicoid_a(2, 1, PitchVector(0.0, (1.0, 2.0))),
    GenHelicoidB(rays=2, block=standard_block(1), angular_pitch=1.0,
                 axial_pitch=0.0),
    GenHelicoidB(rays=3, block=standard_block(1), angular_pitch=1.0,
                 axial_pitch=0.0),
    ChoeHoppe(sphere_dim=1, pitch=0.0),
    ChoeHoppe(sphere_dim=2, pitch=0.0),
    BDJ(pitch=PitchVector(lambda0=0.0, lambdas=(1.0, 2.0))),
]


@pytest.mark.parametrize("spec", SCALING_SPECS)
def test_cone_scaling(spec):
    imm = build_immersion(spec)
    idx = scaling_indices(spec)
    assert idx, "cone spec must advertise its radial parameters"
    pts = sample_box(imm, 60, seed=6, keep=False)
    for s in (0.5, 2.0):
        scaled = pts.copy()
        scaled[:, list(idx)] *= s
        assert_close(imm.position(scaled), s * imm.position(pts), 1e-12)


def _overriders(method: str) -> set:
    return {cls for cls in typing.get_args(families.FamilySpec)
            if getattr(cls, method) is not getattr(families._Family, method)}


def test_every_family_is_covered():
    # the dimension table is the only statement of (n, K) besides build(),
    # and every screw and scaling formula has an input above
    family_classes = set(typing.get_args(families.FamilySpec))
    assert {type(spec) for spec, _, _ in SPEC_DIMENSION_TABLE} \
        == family_classes
    assert {type(spec) for spec in SCREW_SPECS} == _overriders("screw")
    assert {type(spec) for spec in SCALING_SPECS} \
        == _overriders("scaling_indices")


def test_helicoid_with_axial_pitch_is_not_a_cone():
    assert scaling_indices(helicoid_a(1, 1)) == ()
    assert scaling_indices(ChoeHoppe(sphere_dim=1, pitch=1.0)) == ()


def test_screw_action_basics():
    pitch = PitchVector(lambda0=1.0, lambdas=(1.0,))
    q = np.array([1.0, 0.0, 0.0])
    assert_close(screw_action(pitch, 0.0, q), q, 0.0)
    assert_close(screw_action(pitch, np.pi / 2, q), [0.0, 1.0, np.pi / 2],
                 1e-12)


def test_screw_action_group_law():
    rng = np.random.default_rng(7)
    pitch = PitchVector(lambda0=0.4, lambdas=(1.0, -2.0, 0.5))
    q = rng.standard_normal((100, 7))
    s, t = 0.8, -1.7
    once = screw_action(pitch, s + t, q)
    twice = screw_action(pitch, s, screw_action(pitch, t, q))
    assert float(np.max(np.abs(once - twice))) <= 1e-12


def test_screw_action_broadcasts_angle_array():
    rng = np.random.default_rng(8)
    pitch = PitchVector(lambda0=0.4, lambdas=(1.0, -2.0, 0.5))
    q = rng.standard_normal((50, 7))
    ts = rng.uniform(-2.0, 2.0, size=50)
    each = np.stack([screw_action(pitch, float(t), row)
                     for t, row in zip(ts, q)])
    assert_close(screw_action(pitch, ts, q), each, 1e-15)


def test_screw_action_validation():
    pitch = PitchVector(lambda0=0.0, lambdas=(1.0, 2.0))
    with pytest.raises(DimensionMismatch):
        screw_action(pitch, 1.0, np.zeros(6))  # 5 non-axial coords, L=2
    with pytest.raises(DimensionMismatch):
        screw_action(pitch, 1.0, np.zeros(7))  # 6 coords: blocks of size 3
    with pytest.raises(DimensionMismatch):
        screw_action(PitchVector(lambda0=0.0, lambdas=(1.0, 2.0, 3.0)), 1.0,
                     np.zeros(9))  # 8 coords do not split into 3 blocks


def test_gen_helicoid_b_zero_pitch_is_rays_cone():
    block = standard_block(1)
    b = build_immersion(GenHelicoidB(rays=2, block=block, angular_pitch=0.0,
                                     axial_pitch=0.0))
    cone = build_immersion(LRaysCliffordCone(rays=2, block=block))
    rng = np.random.default_rng(8)
    pts_b = sample_box(b, 50, seed=9, keep=False)
    pts_cone = np.delete(pts_b, 2, axis=1)  # drop the sweep angle
    pos_b = b.position(pts_b)
    assert_close(pos_b[:, :-1], cone.position(pts_cone), 1e-14)
    assert_close(pos_b[:, -1], np.zeros(len(pos_b)), 0.0)


MINIMAL_SPECS = [
    CliffordCone(block=standard_block(1)),
    LRaysCliffordCone(rays=2, block=standard_block(1)),
    helicoid_a(1, 1),
    helicoid_a(2, 0, PitchVector(1.0, (1.0, 2.0))),
    GenHelicoidB(rays=2, block=standard_block(1), angular_pitch=0.9,
                 axial_pitch=0.4),
    ChoeHoppe(sphere_dim=2, pitch=1.0),
    BDJ(pitch=PitchVector(lambda0=1.0, lambdas=(1.0, 2.0))),
    HarveyLawsonCone(sphere_dim=1),
]


@pytest.mark.parametrize("spec", MINIMAL_SPECS)
def test_families_are_minimal_smoke(spec):
    imm = build_immersion(spec)
    pts = sample_box(imm, 50, seed=10)
    assert len(pts) >= 25
    mc = mean_curvature(imm.eval(pts))
    met_scale = 1.0 + np.linalg.norm(imm.eval(pts).jacobian, axis=(-2, -1))**2
    assert float(np.max(mc.H_norm / met_scale)) <= 1e-10


@pytest.mark.parametrize("spec,n", [
    (CliffordTorus(block=standard_block(1)), 2),
    (LawsonSurface(lambda1=1.0, lambda2=2.0), 2),
    (SphericalSlice(inner=helicoid_a(2, 1, PitchVector(0.0, (1.0, 2.0)))), 6),
    (SphericalJoin(xs=SphereChart(dim=1), base=LatitudeCircle(height=0.0)), 2),
])
def test_spherical_families_are_sphere_minimal(spec, n):
    imm = build_immersion(spec)
    pts = sample_box(imm, 80, seed=11)
    pe = imm.eval(pts)
    assert pe.jacobian.shape[-1] == n
    res = sphere_residual_from_pointeval(pe, H=mean_curvature(pe).H)
    assert float(np.max(res)) <= 1e-9


def test_negative_controls():
    lat = build_immersion(LatitudeCircle(height=0.5))
    pts = sample_box(lat, 30, seed=12)
    pe = lat.eval(pts)
    res = sphere_residual_from_pointeval(pe, H=mean_curvature(pe).H)
    assert float(np.min(res)) >= 0.5
    assert is_negative_control(LatitudeCircle(height=0.5))
    assert not is_negative_control(LatitudeCircle(height=0.0))

    cyl = build_immersion(Cylinder(radius=1.0))
    mc = mean_curvature(cyl.eval(sample_box(cyl, 30, seed=13)))
    assert_close(mc.H_norm, np.ones(30), 1e-12)
    assert is_negative_control(Cylinder(radius=1.0))
    assert not is_negative_control(helicoid_a(1, 1))


def test_degeneracy_guard_excludes_aligned_torus_points():
    spec = GenHelicoidA(
        pitch=PitchVector(lambda0=0.0, lambdas=(1.0,)),
        blocks=(standard_block(1, kind="trigonometric"),))
    imm = build_immersion(spec)
    aligned = np.array([[0.3, 0.3 + np.pi / 2, 0.5, 1.0]])   # m = -cos(u-v) = 0
    generic = np.array([[0.3, 0.3, 0.5, 1.0]])               # m = -1
    assert imm.excluded(aligned)[0]
    assert not imm.excluded(generic)[0]


SLICE_BASE = SphericalSlice(inner=GenHelicoidA(
    pitch=PitchVector(0.0, (1.0, 1.3)),
    blocks=(standard_block(1), standard_block(1))))


@pytest.mark.parametrize("lifted", [
    lambda base: LRaysCone(rays=2, base=base),
    lambda base: SphericalJoin(xs=standard_chart(1), base=base),
], ids=["rays-cone", "join"])
@pytest.mark.parametrize("base_spec, floor", [
    # the Lawson metric is diagonal, so its ratio is 1 and a floor above 1
    # rejects every point; the slice's ratio varies, so 0.3 splits the batch
    (LawsonSurface(1.0, 2.0), 1.5),
    (SLICE_BASE, 0.3),
], ids=["lawson", "slice"])
def test_lifted_guards_test_the_base_metric(monkeypatch, lifted, base_spec,
                                            floor):
    # the lifted metric is block diagonal with the base's metric (scaled by
    # |r|^2 on the rays cone) beside a diagonal or conformal block, so the
    # lifted immersion's own floor rejects exactly the base's rejects
    monkeypatch.setattr(geometry, "METRIC_RATIO_FLOOR", floor)
    base = build_immersion(base_spec)
    imm = build_immersion(lifted(base_spec))
    assert imm.exclusions == ()
    pts = sample_box(imm, 200, seed=8, keep=False)
    want = base.excluded(pts[:, :base.param_dim])
    assert want.any()
    if floor < 1.0:
        assert not want.all()
    np.testing.assert_array_equal(imm.excluded(pts), want)


def test_graph_function_values_and_homogeneity():
    assert_close(choe_hoppe_graph_function(np.array([1.0, 0.0])), 0.0, 1e-15)
    rng = np.random.default_rng(14)
    x = rng.uniform(0.5, 2.0, size=(100, 6))
    f1 = choe_hoppe_graph_function(x)
    f2 = choe_hoppe_graph_function(2.0 * x)
    assert_close(f1, f2, 1e-12)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_graph_residual_vanishes(N):
    rng = np.random.default_rng(20 + N)
    x = rng.uniform(0.5, 2.0, size=(200, 2 * N))
    x *= rng.choice([-1.0, 1.0], size=x.shape)
    res = choe_hoppe_graph_residual(N, x)
    assert float(np.max(np.abs(res))) <= 1e-9


def test_graph_residual_guards():
    with pytest.raises(BranchLocusError):
        choe_hoppe_graph_residual(1, np.array([0.05, 0.05]))
    with pytest.raises(DimensionMismatch):
        choe_hoppe_graph_residual(2, np.array([1.0, 0.5]))


JSON_SPECS = [
    CliffordTorus(block=standard_block(2, kind="trigonometric")),
    CliffordCone(block=standard_block(0, branches=(1, -1))),
    LRaysCone(rays=2, base=SphereChart(dim=2)),
    LRaysCone(rays=2, base=LatitudeCircle(height=0.0)),
    LRaysCliffordCone(rays=3, block=standard_block(1)),
    SphericalJoin(xs=SphereChart(dim=2, kind="trigonometric"),
                  base=CliffordTorus(block=standard_block(1))),
    helicoid_a(2, 1),
    GenHelicoidB(rays=2, block=standard_block(1), angular_pitch=1.5,
                 axial_pitch=-0.5),
    ChoeHoppe(sphere_dim=1, pitch=1.0,
              chart_p=standard_chart(0, branch=-1)),
    ChoeHoppe(sphere_dim=3, pitch=0.25),
    BDJ(pitch=PitchVector(lambda0=0.0, lambdas=(2.0,))),
    LawsonSurface(lambda1=1.0, lambda2=-2.0),
    HarveyLawsonCone(sphere_dim=2),
    SphericalSlice(inner=helicoid_a(2, 1, PitchVector(0.0, (1.0, 2.0))),
                   chart=SphereChart(dim=1, kind="trigonometric")),
    LatitudeCircle(height=-0.25),
    Cylinder(radius=2.0),
]


@pytest.mark.parametrize("spec", JSON_SPECS)
def test_spec_json_round_trip(spec):
    encoded = spec_to_json(spec)
    assert encoded["kind"] == type(spec).__name__
    decoded = spec_from_json(encoded)
    assert decoded == spec


def test_spec_json_round_trip_with_unitary():
    alpha = 0.3
    eye = np.eye(2)
    u4 = np.block([[np.cos(alpha) * eye, -np.sin(alpha) * eye],
                   [np.sin(alpha) * eye, np.cos(alpha) * eye]])
    spec = CliffordTorus(block=standard_block(1, unitary=matrix_tuple(u4)))
    assert spec_from_json(spec_to_json(spec)) == spec


PINNED_JSON = [
    (LRaysCone(rays=2, base=SphereChart(dim=0, kind="point", branch=-1)),
     '{"kind": "LRaysCone", "rays": 2, "base": {"kind": "SphereChart", '
     '"dim": 0, "chart_kind": "point", "branch": -1}}'),
    (ChoeHoppe(sphere_dim=2, pitch=0.5,
               chart_p=SphereChart(dim=1, kind="trigonometric")),
     '{"kind": "ChoeHoppe", "sphere_dim": 2, "pitch": 0.5, '
     '"chart_p": {"dim": 1, "chart_kind": "trigonometric"}}'),
    (CliffordTorus(block=standard_block(1, unitary=(
        (0.6, 0.0, -0.8, 0.0), (0.0, 0.6, 0.0, -0.8),
        (0.8, 0.0, 0.6, 0.0), (0.0, 0.8, 0.0, 0.6)))),
     '{"kind": "CliffordTorus", "block": {'
     '"chart_x": {"dim": 1, "chart_kind": "stereographic"}, '
     '"chart_y": {"dim": 1, "chart_kind": "stereographic"}, '
     '"unitary": [[0.6, 0.0, -0.8, 0.0], [0.0, 0.6, 0.0, -0.8], '
     '[0.8, 0.0, 0.6, 0.0], [0.0, 0.8, 0.0, 0.6]]}}'),
    (SphericalSlice(inner=helicoid_a(2, 1, PitchVector(0.0, (1.0, 2.0))),
                    chart=SphereChart(dim=1, kind="trigonometric")),
     '{"kind": "SphericalSlice", "inner": {"kind": "GenHelicoidA", '
     '"pitch": {"lambda0": 0.0, "lambdas": [1.0, 2.0]}, "blocks": ['
     '{"chart_x": {"dim": 1, "chart_kind": "stereographic"}, '
     '"chart_y": {"dim": 1, "chart_kind": "stereographic"}}, '
     '{"chart_x": {"dim": 1, "chart_kind": "stereographic"}, '
     '"chart_y": {"dim": 1, "chart_kind": "stereographic"}}]}, '
     '"chart": {"dim": 1, "chart_kind": "trigonometric"}}'),
]


@pytest.mark.parametrize("spec,text", PINNED_JSON,
                         ids=["point-chart-base", "choe-hoppe-chart-p",
                              "torus-unitary", "slice-chart"])
def test_spec_json_bytes_pinned(spec, text):
    assert json.dumps(spec_to_json(spec)) == text
    assert spec_from_json(json.loads(text)) == spec


def _orthogonal(seed, size):
    rng = np.random.default_rng(seed)
    return matrix_tuple(np.linalg.qr(rng.standard_normal((size, size)))[0])


def _commuting_unitary(seed, half):
    """Real form [[A, -B], [B, A]] of a random complex unitary A + iB."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((half, half)) + 1j * rng.standard_normal(
        (half, half))
    q = np.linalg.qr(z)[0]
    return matrix_tuple(np.block([[q.real, -q.imag], [q.imag, q.real]]))


_TURN = _commuting_unitary(5, 2)


@pytest.mark.parametrize("imm", [
    build_immersion(spec) for spec in (
        CliffordTorus(block=standard_block(1)),
        CliffordTorus(block=standard_block(2, "trigonometric")),
        CliffordTorus(block=standard_block(1, unitary=_TURN)),
        CliffordCone(block=standard_block(2)),
        CliffordCone(block=standard_block(1, "trigonometric", unitary=_TURN)),
        LRaysCliffordCone(rays=2, block=standard_block(1)),
        LRaysCone(rays=2, base=LawsonSurface(1.0, 2.0)),
        SphericalJoin(xs=standard_chart(2), base=LawsonSurface(1.0, 2.0)),
        HarveyLawsonCone(sphere_dim=2),
        HarveyLawsonCone(sphere_dim=2,
                         chart_x=standard_chart(2, "trigonometric"),
                         chart_y=standard_chart(2, "trigonometric")),
        LatitudeCircle(0.5),
        Cylinder(1.3))]
    + [SphereChart(dim=2, kind="trigonometric",
                   rotation=_orthogonal(6, 3)).build()],
    ids=lambda imm: imm.name)
def test_metric_floor_never_binds_on_orthogonal_coordinates(imm):
    # these families carried no metric floor before every immersion got
    # one; their coordinates are orthogonal or conformal, so the Hadamard
    # ratio det g / prod g_ii is 1 up to rounding and the floor excludes
    # no draw
    pts = sample_box(imm, 400, seed=21, keep=False)
    mask, pe = imm.screen(pts)
    _, det, hadamard = pe.gram
    assert np.min(det / hadamard) > 0.999
    assert not mask.any()
    assert not imm.excluded(pts).any()


SEEDS = st.none() | st.integers(0, 2 ** 32 - 1)
RATES = st.floats(-4.0, 4.0)
DIMS = st.integers(0, 2)


@st.composite
def charts(draw, dim):
    kind = ("point" if dim == 0 else
            draw(st.sampled_from(("stereographic", "trigonometric"))))
    branch = draw(st.sampled_from((1, -1)))
    seed = draw(SEEDS)
    rotation = None if seed is None else _orthogonal(seed, dim + 1)
    if kind != "point" and branch != 1:
        with pytest.raises(SpecError, match="only point charts"):
            SphereChart(dim, kind, rotation, branch)
        branch = 1
    return SphereChart(dim, kind, rotation, branch)


@st.composite
def blocks(draw, dim):
    seed = draw(SEEDS)
    return CliffordBlock(
        draw(charts(dim)), draw(charts(dim)),
        None if seed is None else _commuting_unitary(seed, dim + 1))


@st.composite
def helicoids(draw, axial=RATES):
    L, dim = draw(st.integers(1, 3)), draw(DIMS)
    pitch = PitchVector(draw(axial), tuple(draw(RATES) for _ in range(L)))
    return GenHelicoidA(pitch, tuple(draw(blocks(dim)) for _ in range(L)))


@st.composite
def slices(draw):
    inner = draw(helicoids(axial=st.just(0.0)))
    chart = draw(st.none() | charts(len(inner.blocks) - 1))
    return SphericalSlice(inner, chart)


@st.composite
def choe_hoppes(draw):
    N = draw(st.integers(1, 3))
    return ChoeHoppe(N, draw(RATES), draw(st.none() | charts(N - 1)),
                     draw(st.none() | charts(N - 1)))


@st.composite
def harvey_lawsons(draw):
    N = draw(DIMS)
    return HarveyLawsonCone(N, draw(st.none() | charts(N)),
                            draw(st.none() | charts(N)))


ANY_CHART = DIMS.flatmap(charts)
ANY_BLOCK = DIMS.flatmap(blocks)
LAWSON = st.builds(LawsonSurface, st.floats(0.125, 4.0), RATES)
LATITUDE = st.builds(LatitudeCircle, st.floats(-0.99, 0.99))
SPHERICAL_BASES = st.one_of(
    ANY_CHART, st.builds(CliffordTorus, ANY_BLOCK), LAWSON, LATITUDE,
    slices(), st.builds(SphericalJoin, ANY_CHART, ANY_CHART))
FAMILY_SPECS = st.one_of(
    st.builds(CliffordTorus, ANY_BLOCK),
    st.builds(CliffordCone, ANY_BLOCK),
    st.builds(LRaysCone, st.integers(1, 3), SPHERICAL_BASES),
    st.builds(LRaysCliffordCone, st.integers(1, 3), ANY_BLOCK),
    st.builds(SphericalJoin, ANY_CHART, SPHERICAL_BASES),
    helicoids(),
    st.builds(GenHelicoidB, st.integers(1, 3), ANY_BLOCK, RATES, RATES),
    choe_hoppes(),
    st.builds(BDJ, st.builds(PitchVector, RATES, st.lists(
        RATES, min_size=1, max_size=3).map(tuple))),
    LAWSON,
    harvey_lawsons(),
    slices(),
    LATITUDE,
    st.builds(Cylinder, st.floats(0.01, 10.0)),
)


@settings(max_examples=300, deadline=None)
@given(spec=FAMILY_SPECS)
def test_spec_json_round_trip_property(spec):
    text = json.dumps(spec_to_json(spec))
    decoded = spec_from_json(json.loads(text))
    assert decoded == spec
    assert json.dumps(spec_to_json(decoded)) == text


def test_spec_json_strictness():
    with pytest.raises(SpecError):
        spec_from_json({"kind": "MoebiusStrip"})
    with pytest.raises(SpecError):
        spec_from_json({"kind": "Cylinder"})
    with pytest.raises(SpecError):
        spec_from_json({"kind": "Cylinder", "radius": 1.0, "color": "red"})
    with pytest.raises(SpecError):
        spec_from_json({"radius": 1.0})
    with pytest.raises(SpecError):
        spec_from_json({"kind": "SphericalSlice",
                        "inner": {"kind": "Cylinder", "radius": 1.0}})
    with pytest.raises(SpecError):
        spec_from_json([1, 2, 3])

    # malformed values are rejected with their JSON path, never coerced
    chart = {"dim": 1, "chart_kind": "stereographic"}
    base = {"kind": "SphereChart", **chart}
    block = {"chart_x": chart, "chart_y": chart}
    pitch = {"lambda0": 1.0, "lambdas": [1.0]}
    malformed = [
        ({"kind": "Cylinder", "radius": "abc"},
         "family Cylinder.radius: expected float, got str"),
        ({"kind": "Cylinder", "radius": None},
         "family Cylinder.radius: expected float, got NoneType"),
        ({"kind": "Cylinder", "radius": True},
         "family Cylinder.radius: expected float, got bool"),
        ({"kind": "Cylinder", "radius": float("nan")},
         "family Cylinder.radius: expected a finite number, got nan"),
        ({"kind": "BDJ", "pitch": {"lambda0": float("inf"),
                                   "lambdas": [1.0]}},
         "family BDJ.pitch.lambda0: expected a finite number, got inf"),
        ({"kind": "LRaysCone", "rays": 2, "base": [1]},
         "family LRaysCone.base: expected a JSON object, got list"),
        ({"kind": "LRaysCone", "rays": 2.7, "base": base},
         "family LRaysCone.rays: expected int, got float"),
        ({"kind": "LRaysCone", "rays": True, "base": base},
         "family LRaysCone.rays: expected int, got bool"),
        ({"kind": "LRaysCone", "rays": "3", "base": base},
         "family LRaysCone.rays: expected int, got str"),
        ({"kind": "LRaysCone", "rays": 2, "base": dict(base, dim=1.9)},
         "family LRaysCone.base.dim: expected int, got float"),
        ({"kind": "GenHelicoidA", "pitch": pitch, "blocks": 5},
         "family GenHelicoidA.blocks: expected a JSON array, got int"),
        ({"kind": "BDJ", "pitch": {"lambda0": 1.0, "lambdas": 3}},
         "family BDJ.pitch.lambdas: expected a JSON array, got int"),
        ({"kind": "BDJ", "pitch": {"lambda0": 1.0, "lambdas": ["1"]}},
         "family BDJ.pitch.lambdas[0]: expected float, got str"),
        ({"kind": "CliffordTorus", "block": dict(block, unitary="x")},
         "family CliffordTorus.block.unitary: expected a JSON array, "
         "got str"),
        ({"kind": "CliffordTorus",
          "block": dict(block, unitary=[[1.0, 0.0], [0.0]])},
         "matrix must be a 2-D array of numbers"),
        ({"kind": "CliffordTorus",
          "block": {"chart_x": dict(chart, rotation=[[None, 0], [0, 1]]),
                    "chart_y": chart}},
         "family CliffordTorus.block.chart_x.rotation[0][0]: expected "
         "float, got NoneType"),
        ({"kind": "CliffordTorus",
          "block": {"chart_x": dict(chart, branch=-1), "chart_y": chart}},
         "only point charts take a branch"),
        ({"kind": "LRaysCone", "rays": 2, "base": {"kind": ["SphereChart"]}},
         "unknown family kind ['SphereChart']"),
    ]
    for doc, message in malformed:
        with pytest.raises(SpecError, match=re.escape(message)):
            spec_from_json(doc)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make,message", [
    (lambda: Cylinder(radius=NAN), "radius must be finite, got nan"),
    (lambda: Cylinder(radius="wide"), "radius must be a number, got 'wide'"),
    (lambda: LawsonSurface(INF, 1.0), "lambda1 must be finite, got inf"),
    (lambda: LawsonSurface(1.0, -INF), "lambda2 must be finite, got -inf"),
    (lambda: BDJ(PitchVector(NAN, (1.0,))), "lambda0 must be finite"),
    (lambda: PitchVector(0.5, (1.0, INF)), "lambdas must be finite"),
    (lambda: GenHelicoidB(rays=1, block=standard_block(1),
                          angular_pitch=NAN, axial_pitch=0.0),
     "angular_pitch must be finite"),
    (lambda: GenHelicoidB(rays=1, block=standard_block(1),
                          angular_pitch=1.0, axial_pitch=INF),
     "axial_pitch must be finite"),
    (lambda: ChoeHoppe(sphere_dim=1, pitch=NAN), "pitch must be finite"),
    (lambda: LatitudeCircle(NAN), "height must be finite"),
])
def test_non_finite_fields_refused(make, message):
    with pytest.raises(SpecError, match=re.escape(message)):
        make()


def test_spec_validation_errors():
    with pytest.raises(SpecError):
        PitchVector(lambda0=1.0, lambdas=())
    with pytest.raises(SpecError):
        GenHelicoidA(pitch=PitchVector(1.0, (1.0, 2.0)),
                     blocks=(standard_block(1),))
    with pytest.raises(SpecError):
        GenHelicoidA(pitch=PitchVector(1.0, (1.0, 2.0)),
                     blocks=(standard_block(1), standard_block(2)))
    with pytest.raises(SpecError, match="PitchVector"):
        GenHelicoidA(pitch=0.7, blocks=(standard_block(1),))
    with pytest.raises(SpecError, match="PitchVector"):
        BDJ(pitch=0.5)
    with pytest.raises(SpecError):
        LawsonSurface(lambda1=0.0, lambda2=0.0)
    with pytest.raises(SpecError):
        LatitudeCircle(height=1.0)
    with pytest.raises(SpecError):
        Cylinder(radius=0.0)
    with pytest.raises(SpecError):
        ChoeHoppe(sphere_dim=0, pitch=1.0)
    with pytest.raises(SpecError):
        ChoeHoppe(sphere_dim=True, pitch=1.0)
    with pytest.raises(SpecError):
        HarveyLawsonCone(sphere_dim=True)
    with pytest.raises(SpecError):
        LRaysCone(rays=True, base=SphereChart(dim=1))
    with pytest.raises(SpecError):
        ChoeHoppe(sphere_dim=2, pitch=1.0, chart_p=standard_chart(0))
    with pytest.raises(SpecError):
        LRaysCone(rays=0, base=SphereChart(dim=1))
    with pytest.raises(SpecError):
        LRaysCone(rays=2, base=Cylinder(radius=1.0))
    with pytest.raises(SpecError):
        SphericalSlice(inner=helicoid_a(1, 1))  # nonzero axial pitch
    with pytest.raises(SpecError):
        SphericalSlice(inner=helicoid_a(2, 1, PitchVector(0.0, (1.0, 2.0))),
                       chart=SphereChart(dim=2))
    with pytest.raises(SpecError):
        HarveyLawsonCone(sphere_dim=1, chart_x=standard_chart(2))


def test_rays_cone_over_chart_base_is_minimal():
    imm = build_immersion(LRaysCone(rays=2, base=SphereChart(dim=2)))
    pts = sample_box(imm, 50, seed=15)
    mc = mean_curvature(imm.eval(pts))
    assert float(np.max(mc.H_norm)) <= 1e-11
