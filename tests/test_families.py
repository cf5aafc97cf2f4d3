"""Family constructions: formulas, symmetries, equivalences, serialization."""

import json
import re
import typing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minvar import families, geometry, jets
from minvar.charts import CliffordBlock, SphereChart, matrix_tuple
from minvar.errors import (
    BranchLocusError,
    DegenerateMetric,
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
    pts = sample_box(imm, 200, seed=8, keep=False)
    want = base.excluded(pts[:, :base.param_dim])
    assert want.any()
    if floor < 1.0:
        assert not want.all()
    np.testing.assert_array_equal(imm.excluded(pts), want)


def test_guard_and_metric_refuse_the_same_points(monkeypatch):
    # the guard and metric share one degeneracy test (_below_floor): at one
    # common threshold, metric raises exactly at the points the guard
    # excludes; 0.3 splits a batch of the slice
    monkeypatch.setattr(geometry, "METRIC_RATIO_FLOOR", 0.3)
    monkeypatch.setattr(geometry, "RANK_TOL", 0.3)
    imm = build_immersion(SLICE_BASE)
    pts = sample_box(imm, 100, seed=8, keep=False)
    excluded = imm.excluded(pts)
    assert excluded.any() and not excluded.all()
    refused = []
    for i in range(len(pts)):
        try:
            geometry.metric(imm.eval(pts[i:i + 1]))
        except DegenerateMetric:
            refused.append(True)
        else:
            refused.append(False)
    np.testing.assert_array_equal(refused, excluded)


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


# ---- each family's vector form against its scalar formulas ------------------
#
# The independent route: every family written as in its scalar form, one
# scalar jet per coordinate.  Chart and block vectors are split into their
# components, each block is rotated and weighted component by component, a
# section hands the cone the chart's components as radii, and the outputs
# are scattered one by one.  The families' vector parts must give the same
# values and derivatives, np.array_equal (signed zeros aside).


def _split(v):
    """The scalar components of a vector, each built from its slots."""
    if not isinstance(v, jets.Jet2):
        return [v[..., k] for k in range(v.shape[-1])]
    if v.hess is None:
        return [jets.Jet1(v.value[..., k], v.grad[..., k, :], v.support)
                for k in range(v.value.shape[-1])]
    return [jets.Jet2(v.value[..., k], v.grad[..., k, :],
                      v.hess[..., k, :, :], v.support)
            for k in range(v.value.shape[-1])]


def _scalar_rotated(comps, angle):
    half = len(comps) // 2
    jcomps = [-c for c in comps[half:]] + list(comps[:half])
    ca, sa = jets.cos(angle), jets.sin(angle)
    return [ca * c + sa * j for c, j in zip(comps, jcomps)]


def _scalar_weighted(weights, blocks):
    return [w * v for w, block in zip(weights, blocks) for v in block]


def _scalar_map(spec):
    """f(cols, radii=None) -> one scalar per coordinate; ``radii`` replaces
    a cone's radius columns."""
    if isinstance(spec, SphereChart):
        return lambda cols, radii=None: _split(spec.embed(cols))
    if isinstance(spec, CliffordTorus):
        return lambda cols, radii=None: _split(spec.block.embed(cols))
    if isinstance(spec, (CliffordCone, LRaysCliffordCone)):
        return _scalar_map(LRaysCone(rays=getattr(spec, "rays", 1),
                                     base=CliffordTorus(spec.block)))
    if isinstance(spec, LRaysCone):
        base, L = _scalar_map(spec.base), spec.rays
        nb = spec.base.build().param_dim

        def cone(cols, radii=None):
            if radii is None:
                radii = [cols[nb + t] for t in range(L)]
            return _scalar_weighted(radii, [base(cols[:nb])] * L)
        return cone
    if isinstance(spec, SphericalJoin):
        cone = _scalar_map(LRaysCone(rays=spec.xs.dim + 1, base=spec.base))
        nb = spec.base.build().param_dim
        return lambda cols, radii=None: cone(
            cols, _split(spec.xs.embed(cols[nb:])))
    if isinstance(spec, GenHelicoidA):
        stops = np.cumsum([b.param_dim for b in spec.blocks]).tolist()
        th_index, L = stops[-1], len(spec.blocks)

        def helicoid(cols, radii=None):
            th = cols[th_index]
            rotated = [_scalar_rotated(_split(
                b.embed(cols[hi - b.param_dim:hi])), lam * th)
                for b, hi, lam in zip(spec.blocks, stops, spec.pitch.lambdas)]
            if radii is None:
                radii = [cols[th_index + 1 + t] for t in range(L)]
            return _scalar_weighted(radii, rotated) \
                + [spec.pitch.lambda0 * th]
        return helicoid
    if isinstance(spec, SphericalSlice):
        inner, L = _scalar_map(spec.inner), len(spec.inner.blocks)
        nb = sum(b.param_dim for b in spec.inner.blocks) + 1
        chart = spec.chart or standard_chart(L - 1)
        return lambda cols, radii=None: inner(
            cols, _split(chart.embed(cols[nb:])))[:-1]
    if isinstance(spec, GenHelicoidB):
        nu, L = spec.block.param_dim, spec.rays

        def shared(cols, radii=None):
            rotated = _scalar_rotated(_split(spec.block.embed(
                cols[:nu])), spec.angular_pitch * cols[nu])
            return _scalar_weighted([cols[nu + 1 + t] for t in range(L)],
                                    [rotated] * L) \
                + [spec.axial_pitch * cols[nu]]
        return shared
    if isinstance(spec, ChoeHoppe):
        N = spec.sphere_dim
        chart_p = spec.chart_p or standard_chart(N - 1)
        chart_q = spec.chart_q or standard_chart(N - 1)
        np_, nq = chart_p.param_dim, chart_q.param_dim

        def interleaved(cols, radii=None):
            p_dir = _split(chart_p.embed(cols[:np_]))
            q_dir = _split(chart_q.embed(cols[np_:np_ + nq]))
            th, s = cols[np_ + nq], cols[np_ + nq + 1]
            ca, sa = jets.cos(th), jets.sin(th)
            out = []
            for k in range(N):
                p, q = s * p_dir[k], s * q_dir[k]
                out += [ca * p - sa * q, ca * q + sa * p]
            return out + [spec.pitch * th]
        return interleaved
    if isinstance(spec, HarveyLawsonCone):
        chart_x = spec.chart_x or standard_chart(spec.sphere_dim)
        chart_y = spec.chart_y or standard_chart(spec.sphere_dim)
        nx, ny = chart_x.param_dim, chart_y.param_dim

        def paired(cols, radii=None):
            x = _split(chart_x.embed(cols[:nx]))
            y = _split(chart_y.embed(cols[nx:nx + ny]))
            return _scalar_weighted([cols[nx + ny], cols[nx + ny + 1]],
                                    [x + y] * 2)
        return paired
    # BDJ, LawsonSurface and the controls are written in scalars already
    components = spec.build().components
    return lambda cols, radii=None: components(cols)


def _scalar_dense(outs, p, order):
    """Scalar outputs scattered one by one into dense arrays."""
    batch, n = p.shape[:-1], p.shape[-1]
    position = np.empty(batch + (len(outs),))
    jacobian = np.zeros(batch + (len(outs), n))
    hessians = np.zeros(batch + (len(outs), n, n)) if order == 2 else None
    for k, o in enumerate(outs):
        if not isinstance(o, jets.Jet2):
            position[..., k] = o
            continue
        idx = np.asarray(o.support, dtype=np.intp)
        position[..., k] = o.value
        jacobian[..., k, idx] = o.grad
        if order == 2:
            hessians[..., k, idx[:, None], idx] = o.hess
    return position, jacobian, hessians


def _unitary(half, angle):
    c, s = np.cos(angle) * np.eye(half), np.sin(angle) * np.eye(half)
    return matrix_tuple(np.block([[c, -s], [s, c]]))


def _turned_chart(dim, kind, angle):
    rot = np.eye(dim + 1)
    rot[np.ix_([0, dim], [0, dim])] = [[np.cos(angle), -np.sin(angle)],
                                       [np.sin(angle), np.cos(angle)]]
    return SphereChart(dim=dim, kind=kind, rotation=matrix_tuple(rot))


def _vector_cases():
    from minvar.harness import default_campaign

    cases = dict(default_campaign())
    for L in (1, 2, 3):
        pitch = PitchVector(0.8, tuple(1.2 - 0.3 * t for t in range(L)))
        for N in (0, 1, 2):
            for kind in (("point",) if N == 0
                         else ("stereographic", "trigonometric")):
                block = standard_block(N, kind, branches=(1, -1))
                cases[f"A-L{L}-N{N}-{kind}"] = GenHelicoidA(
                    pitch=pitch, blocks=(block,) * L)
                cases[f"B-L{L}-N{N}-{kind}"] = GenHelicoidB(
                    rays=L, block=block, angular_pitch=1.1, axial_pitch=0.6)
    turned = CliffordBlock(_turned_chart(2, "stereographic", 0.5),
                           _turned_chart(2, "trigonometric", 1.1),
                           unitary=_unitary(3, 0.7))
    cases["A-L2-turned-unitary"] = GenHelicoidA(
        pitch=PitchVector(0.3, (1.2, 0.7)),
        blocks=(turned, standard_block(2, unitary=_unitary(3, -0.4))))
    cases["B-L2-turned-unitary"] = GenHelicoidB(
        rays=2, block=turned, angular_pitch=0.9, axial_pitch=0.0)
    cases["slice-L3-turned"] = SphericalSlice(inner=GenHelicoidA(
        pitch=PitchVector(0.0, (1.0, 1.3, 0.4)),
        blocks=(turned, standard_block(2), standard_block(2, "trigonometric"))))
    cases["join-torus"] = SphericalJoin(
        xs=standard_chart(1), base=CliffordTorus(standard_block(1)))
    cases["join-lawson"] = SphericalJoin(
        xs=standard_chart(2), base=LawsonSurface(1.0, 2.0))
    cases["cone-latitude"] = LRaysCone(rays=2, base=LatitudeCircle(0.0))
    cases["cone-point-chart"] = LRaysCone(rays=3, base=standard_chart(0))
    cases["harvey-lawson-0"] = HarveyLawsonCone(0)
    cases["harvey-lawson-2"] = HarveyLawsonCone(2)
    for N in (1, 2, 3):
        cases[f"choe-hoppe-N{N}"] = ChoeHoppe(sphere_dim=N, pitch=0.7)
    cases["choe-hoppe-trig"] = ChoeHoppe(
        sphere_dim=3, pitch=0.0, chart_p=SphereChart(2, "trigonometric"),
        chart_q=_turned_chart(2, "stereographic", 0.8))
    return cases


VECTOR_CASES = _vector_cases()


def _vector_batches(spec, points, monkeypatch):
    """(), (1,), (3, 5) and one batch as long as each vector the map builds.

    The vectors are the chart images (``SphereChart.embed``, Choe–Hoppe's
    p and q among them, scaled) and the block vectors
    (``CliffordBlock.join``), whose component counts are recorded on one
    position pass; a batch that long is the one numpy's broadcasting
    would pair with the component axis.
    """
    counts = set()

    def recorded(method):
        def run(self, *args):
            out = method(self, *args)
            counts.add(np.shape(out)[-1])
            return out
        return run

    with monkeypatch.context() as m:
        m.setattr(SphereChart, "embed", recorded(SphereChart.embed))
        m.setattr(CliffordBlock, "join", recorded(CliffordBlock.join))
        # built here, so a chart's bound embed is the recorded one
        build_immersion(spec).components(jets.Columns(points[0], 0))
    return [points[0], points[:1], points[:15].reshape(3, 5, -1)] \
        + [points[:m] for m in sorted(counts - {1})]


@pytest.mark.parametrize("name", sorted(VECTOR_CASES))
def test_vector_parts_equal_scalar_formulas(name, monkeypatch):
    spec = VECTOR_CASES[name]
    imm = build_immersion(spec)
    scalar = _scalar_map(spec)
    points = sample_box(imm, 24, seed=41, keep=False)
    for p in _vector_batches(spec, points, monkeypatch):
        for order in (2, 1):
            want = _scalar_dense(scalar(jets.Columns(p, order)), p, order)
            if order == 2:
                pe = imm.eval(p)
                got = (pe.position, pe.jacobian, pe.second)
            else:
                got = imm._assembled(p, 1)
            for g, w in zip(got, want):
                if w is None:
                    assert g is None
                    continue
                assert g.shape == w.shape
                assert np.array_equal(g, w)
        want = _scalar_dense(scalar(jets.Columns(p, 0)), p, 0)[0]
        got = imm.position(p)
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("name", sorted(VECTOR_CASES))
def test_component_lists_give_one_scalar_per_coordinate(name):
    # the parts a component map lists on plain columns give each
    # coordinate one scalar with the bits of eval()'s position, and so
    # does position(): a division in a map is a product with
    # jets.reciprocal, which a jet and an array compute alike (the
    # default_campaign() families are among the cases)
    imm = build_immersion(VECTOR_CASES[name])
    points = sample_box(imm, 40, seed=2020, keep=False)
    for p in (points, points[0], points[:15].reshape(3, 5, -1)):
        batch = p.shape[:-1]
        want = imm.eval(p).position
        placed, count = jets.place(imm.components(jets.Columns(p, 0)),
                                   batch)
        assert count == imm.ambient_dim
        for part, rows in placed:
            got = np.broadcast_to(part, want[..., rows].shape)
            assert got.tobytes() == want[..., rows].tobytes()
        assert imm.position(p).tobytes() == want.tobytes()
