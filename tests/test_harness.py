"""Campaign runner tests.

Independent oracles: a cylinder of radius R has curvature norm 1/R and
squared Jacobian norm R^2 + 1, so its normalized control residual is
exactly 1/(R(R^2+2)); a latitude circle at height h misses
sphere-minimality by sqrt((rho - 1/rho)^2 + h^2) with rho = sqrt(1-h^2),
which is 1/sqrt(3) at h = 0.5.  Positive instances must sit at roundoff.
"""

import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minvar import geometry, harness, streams
from minvar.errors import (NonFiniteResidual, NotSpherical, SamplingExhausted,
                           SpecError)
from minvar.families import (
    BDJ,
    ChoeHoppe,
    CliffordTorus,
    Cylinder,
    GenHelicoidA,
    GenHelicoidB,
    HarveyLawsonCone,
    LatitudeCircle,
    LawsonSurface,
    LRaysCliffordCone,
    PitchVector,
    SphericalJoin,
    SphericalSlice,
    build_immersion,
    standard_block,
    standard_chart,
)
from minvar.geometry import Immersion
from minvar.streams import uniform_rows
from minvar.harness import (
    CheckResult,
    SamplePlan,
    TolerancePolicy,
    default_campaign,
    report_from_json,
    sample_points,
    takahashi_equivalence,
    verify_cone_scaling,
    verify_minimality,
    verify_screw_invariance,
)


def square_patch(threshold=None):
    """Identity immersion of the unit square, with an optional u-cutoff."""
    exclusions = ()
    if threshold is not None:
        exclusions = (("low-u", lambda p: p[..., 0] < threshold),)
    return Immersion(param_dim=2, ambient_dim=2,
                     components=lambda cols: [cols[0], cols[1]],
                     domain=((0.0, 1.0), (0.0, 1.0)),
                     exclusions=exclusions, name="patch")


def serial_sample_points(imm, plan):
    """Reference: draw and guard one point at a time, one stream per point."""
    box = np.asarray(plan.box if plan.box is not None else imm.domain,
                     dtype=float)
    points = np.empty((plan.count, imm.param_dim))
    rejected = 0
    for i in range(plan.count):
        rng = np.random.default_rng(
            np.random.SeedSequence(plan.seed, spawn_key=(i,)))
        for _ in range(plan.max_rejects):
            p = rng.uniform(box[:, 0], box[:, 1])
            if not imm.excluded(p):
                points[i] = p
                break
            rejected += 1
        else:
            raise SamplingExhausted(
                f"point {i}: {plan.max_rejects} consecutive draws excluded")
    if rejected and rejected / (rejected + plan.count) >= 0.5:
        raise SamplingExhausted(
            f"{rejected} of {rejected + plan.count} draws excluded; the "
            f"domain box is dominated by the exclusion set")
    return points, rejected


class TestSamplePlan:
    def test_defaults(self):
        plan = SamplePlan()
        assert plan.count == 200 and plan.seed == 0
        assert plan.box is None and plan.max_rejects == 200

    @pytest.mark.parametrize("kwargs", [
        {"count": 0}, {"count": -3}, {"count": 2.5},
        {"seed": -1}, {"seed": 2 ** 64}, {"seed": 1.0},
        {"max_rejects": 0},
        {"box": ((0.0, 0.0),)}, {"box": ((1.0, 0.5),)},
        {"count": True}, {"seed": True}, {"max_rejects": True},
        {"count": 2 ** 32},
        {"box": 5}, {"box": (5, 6)}, {"box": ((0.2, 1.0), (0.0,))},
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(SpecError):
            SamplePlan(**kwargs)

    def test_box_normalized_to_floats(self):
        plan = SamplePlan(box=[[0, 1], [2, 3]])
        assert plan.box == ((0.0, 1.0), (2.0, 3.0))

    def test_json_round_trip(self):
        plan = SamplePlan(count=17, seed=99, box=((0.1, 0.9),), max_rejects=5)
        assert SamplePlan.from_json(plan.to_json()) == plan
        assert SamplePlan.from_json(SamplePlan().to_json()) == SamplePlan()

    def test_json_rejects_unknown_field(self):
        with pytest.raises(SpecError, match="unknown"):
            SamplePlan.from_json({"count": 3, "stride": 2})

    @pytest.mark.parametrize("doc,message", [
        ({"box": 5}, "plan.box: expected a JSON array, got int"),
        ({"box": [[0, "a"], [0, 1]]},
         "plan.box[0][1]: expected float, got str"),
        ({"box": [[0, 1, 2]]}, "must be a (lo, hi) pair"),
    ])
    def test_json_rejects_malformed_box(self, doc, message):
        with pytest.raises(SpecError, match=re.escape(message)):
            SamplePlan.from_json(doc)


class TestTolerancePolicy:
    def test_defaults(self):
        tol = TolerancePolicy()
        assert tol.tol_H == 1e-8 and tol.tol_identity == 1e-9
        assert tol.tol_negative == 1e-2

    def test_negative_must_dominate_h(self):
        # 1e-2 < 1000 * 1e-4: controls could fail only marginally
        with pytest.raises(SpecError, match="1000x"):
            TolerancePolicy(tol_H=1e-4)
        TolerancePolicy(tol_H=1e-4, tol_negative=1.0)

    @pytest.mark.parametrize("kwargs", [
        {"tol_H": 0.0}, {"tol_identity": -1e-9}, {"tol_negative": 0.0},
        {"tol_identity": np.inf, "tol_negative": np.inf},
        {"tol_negative": np.inf},
    ])
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(SpecError):
            TolerancePolicy(**kwargs)

    def test_json_round_trip(self):
        tol = TolerancePolicy(tol_H=1e-7, tol_identity=1e-8,
                              tol_negative=1e-1)
        assert TolerancePolicy.from_json(tol.to_json()) == tol

    @pytest.mark.parametrize("value,message", [
        ("x", "expected float, got str"),
        (None, "expected float, got NoneType"),
        (True, "expected float, got bool"),
        (float("nan"), "expected a finite number, got nan"),
    ])
    def test_json_rejects_malformed_value(self, value, message):
        with pytest.raises(SpecError, match=re.escape(
                f"tolerances.tol_H: {message}")):
            TolerancePolicy.from_json({"tol_H": value})


class TestSamplePoints:
    def test_shapes_and_bounds(self):
        pts, rejected = sample_points(square_patch(), SamplePlan(count=50))
        assert pts.shape == (50, 2)
        assert np.all(pts >= 0.0) and np.all(pts <= 1.0)
        assert rejected == 0

    def test_deterministic(self):
        plan = SamplePlan(count=20, seed=123)
        a, _ = sample_points(square_patch(), plan)
        b, _ = sample_points(square_patch(), plan)
        assert np.array_equal(a, b)

    def test_per_point_streams_give_prefix_property(self):
        # growing the count must not disturb earlier points
        small, _ = sample_points(square_patch(), SamplePlan(count=8, seed=7))
        large, _ = sample_points(square_patch(), SamplePlan(count=20, seed=7))
        assert np.array_equal(small, large[:8])

    def test_seed_changes_points(self):
        a, _ = sample_points(square_patch(), SamplePlan(count=10, seed=1))
        b, _ = sample_points(square_patch(), SamplePlan(count=10, seed=2))
        assert not np.array_equal(a, b)

    def test_box_override(self):
        plan = SamplePlan(count=30, box=((0.6, 0.7), (0.2, 0.3)))
        pts, _ = sample_points(square_patch(), plan)
        assert np.all(pts[:, 0] >= 0.6) and np.all(pts[:, 0] <= 0.7)
        assert np.all(pts[:, 1] >= 0.2) and np.all(pts[:, 1] <= 0.3)

    def test_exclusion_resampled_and_counted(self):
        pts, rejected = sample_points(square_patch(threshold=0.25),
                                      SamplePlan(count=60, seed=5))
        assert np.all(pts[:, 0] >= 0.25)
        assert rejected > 0
        assert rejected / (rejected + 60) < 0.5

    def test_exhaustion_when_everything_excluded(self):
        with pytest.raises(SamplingExhausted):
            sample_points(square_patch(threshold=2.0),
                          SamplePlan(count=5, max_rejects=10))

    def test_box_dimension_mismatch(self):
        with pytest.raises(SpecError, match="shape"):
            sample_points(square_patch(), SamplePlan(box=((0.0, 1.0),)))

    @pytest.mark.parametrize("label", [None, "helicoid-blocks",
                                       "lawson-surface", "helicoid-slice"])
    def test_batched_rounds_match_serial_reference(self, label):
        if label is None:
            imm, plan = square_patch(threshold=0.25), SamplePlan(count=80,
                                                                 seed=3)
        else:
            imm = build_immersion(dict(default_campaign())[label])
            plan = SamplePlan(count=40, seed=6)
        want, want_rejected = serial_sample_points(imm, plan)
        got, got_rejected = sample_points(imm, plan)
        assert got.tobytes() == want.tobytes()
        assert got_rejected == want_rejected
        if label is None:
            assert got_rejected > 0

    @pytest.mark.parametrize("label", [None, "helicoid-blocks",
                                       "helicoid-slice", "lawson-surface",
                                       "interleaved-helicoid"])
    def test_points_only_sampling_runs_no_second_order_eval(self, monkeypatch,
                                                            label):
        # sample_points screens with the first-order guard, whose points
        # and reject count are those of the campaigns' second-order screen
        if label is None:
            imm = square_patch(threshold=0.25)
        else:
            imm = build_immersion(dict(default_campaign())[label])
        plan = SamplePlan(count=100, seed=6)
        want, want_rejected, _ = harness._sample(imm, plan)

        def refuse(self, p):
            raise AssertionError("sample_points ran a second-order eval")
        monkeypatch.setattr(Immersion, "eval", refuse)
        got, got_rejected = sample_points(imm, plan)
        assert got.tobytes() == want.tobytes()
        assert got_rejected == want_rejected
        if label is None:
            assert got_rejected > 0

    def test_exhaustion_names_the_serial_reference_point(self):
        # 0.6**3 of the points exhaust; the first one is not point 0
        plan = SamplePlan(count=40, seed=2, max_rejects=3)
        imm = square_patch(threshold=0.6)
        with pytest.raises(SamplingExhausted) as want:
            serial_sample_points(imm, plan)
        with pytest.raises(SamplingExhausted) as got:
            sample_points(imm, plan)
        assert str(got.value) == str(want.value)
        assert not str(got.value).startswith("point 0:")


def numpy_rows(seed, keys, first, n):
    """Reference: draws first .. first + n of numpy's per-key streams."""
    return np.array([np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(k,))).random(first + n)[first:]
        for k in keys]).reshape(len(keys), n)


class TestUniformRows:
    """``streams.uniform_rows`` against numpy's own generators, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63,
                                      2 ** 64 - 1])
    def test_rounds_match_numpy_streams(self, seed):
        keys = np.array([0, 59, 2 ** 32 - 1])
        for n in (1, 3, 16):
            for r in range(5):
                got = uniform_rows(seed, keys, r * n, n)
                want = numpy_rows(seed, keys, r * n, n)
                assert got.shape == (3, n)
                assert np.array_equal(got.view(np.uint64),
                                      want.view(np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), key=st.integers(0, 2 ** 32 - 1),
           first=st.integers(0, 3200), n=st.integers(1, 20))
    def test_any_draw_matches_numpy_stream(self, seed, key, first, n):
        got = uniform_rows(seed, [key], first, n)
        want = numpy_rows(seed, [key], first, n)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_sampling_builds_no_generator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampling built a numpy Generator")
        want, _ = sample_points(square_patch(threshold=0.25),
                                SamplePlan(count=30, seed=9))
        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        got, rejected = sample_points(square_patch(threshold=0.25),
                                      SamplePlan(count=30, seed=9))
        assert rejected > 0 and got.tobytes() == want.tobytes()

    def test_streams_are_seeded_once_per_sample(self, monkeypatch):
        # later rounds draw from the first round's seed words
        calls = []
        original = streams._pcg_seeds

        def counting(seed, keys):
            calls.append(len(keys))
            return original(seed, keys)
        monkeypatch.setattr(streams, "_pcg_seeds", counting)
        plan = SamplePlan(count=60, seed=3)
        imm = square_patch(threshold=0.4)
        points, rejected = sample_points(imm, plan)
        assert calls == [60] and rejected > 0
        monkeypatch.undo()
        want_points, want_rejected = serial_sample_points(imm, plan)
        assert points.tobytes() == want_points.tobytes()
        assert rejected == want_rejected


def count_eval_rows(monkeypatch):
    """Record the number of points of every Immersion.eval call."""
    rows = []
    original = Immersion.eval

    def counting(self, p):
        rows.append(int(np.prod(np.shape(p)[:-1])))
        return original(self, p)
    monkeypatch.setattr(Immersion, "eval", counting)
    return rows


class TestOneEvaluationPerDraw:
    def test_verify_minimality_evaluates_once(self, monkeypatch):
        # the screen's PointEval of the draws is the residuals' too, on a
        # family whose metric ratio varies (helicoid-blocks) and on one
        # whose ratio is 1 (clifford-torus)
        for label in ("helicoid-blocks", "clifford-torus"):
            rows = count_eval_rows(monkeypatch)
            spec = dict(default_campaign())[label]
            report = verify_minimality(spec, SamplePlan(count=60))
            monkeypatch.undo()
            assert report.all_expected
            assert report.checks[0].points_excluded == 0
            assert rows == [60]

    @pytest.mark.parametrize("label,floor", [
        ("helicoid-blocks", 0.2), ("helicoid-blocks", 0.4),
        ("helicoid-slice", 0.2), ("helicoid-slice", 0.4),
        ("square-patch", None)])
    def test_forced_rejects_reuse_the_guard_eval(self, monkeypatch, label,
                                                 floor):
        spec = None
        if floor is None:
            # rejects come from a predicate; the metric floor never binds
            imm = square_patch(threshold=0.25)
        else:
            spec = dict(default_campaign())[label]
            imm = build_immersion(spec)
            monkeypatch.setattr(geometry, "METRIC_RATIO_FLOOR", floor)
        plan = SamplePlan(count=100, seed=11)
        with pytest.MonkeyPatch.context() as counting:
            rows = count_eval_rows(counting)
            points, rejected, pe = harness._sample(imm, plan)
        assert rejected > 0
        assert sum(rows) == plan.count + rejected

        want_points, want_rejected = serial_sample_points(imm, plan)
        assert points.tobytes() == want_points.tobytes()
        assert rejected == want_rejected
        ref = imm.eval(points)
        for name in ("position", "jacobian", "second"):
            assert getattr(pe, name).tobytes() == getattr(ref, name).tobytes()
        # each block's Hessians are gathered row by row, as eval lays them
        assert len(pe.blocks) == len(ref.blocks)
        for got, want in zip(pe.blocks, ref.blocks):
            assert (got.rows, got.support) == (want.rows, want.support)
            assert got.hess.shape == want.hess.shape
            assert got.hess.tobytes() == want.hess.tobytes()
        # the floor test's Gram rides along, gathered in point order
        for got, want in zip(pe.gram, geometry._gram(pe.jacobian)):
            assert got.tobytes() == want.tobytes()
        if spec is not None:
            got = harness._minimality_residuals(spec, pe)
            want = harness._minimality_residuals(spec, ref)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()


def test_verify_path_keeps_hessians_on_their_supports(monkeypatch):
    # GenHelicoidA L3 N2 (n = 16, K = 19) at 1000 points: a dense
    # (..., K, n, n) second is 38.9 MB and a dense (..., n, n, n) ∂g
    # 32.8 MB, so either one on the verify path breaks the 30 MB bound
    import tracemalloc

    def dense(*_):
        raise AssertionError("dense second derivatives on the verify path")
    monkeypatch.setattr(geometry, "metric_derivative", dense)
    monkeypatch.setattr(geometry.PointEval, "second", property(dense))
    spec = GenHelicoidA(pitch=PitchVector(0.8, (1.2, 0.9, 0.6)),
                        blocks=(standard_block(2),) * 3)
    tracemalloc.start()
    try:
        report = verify_minimality(spec, SamplePlan(count=1000, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_expected
    assert peak < 30e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


class TestVerifyMinimality:
    def test_clifford_torus_passes(self):
        plan = SamplePlan(count=60, seed=4)
        report = verify_minimality(CliffordTorus(standard_block(1)), plan)
        assert report.all_expected
        by_name = {c.name: c for c in report.checks}
        assert by_name["minimality"].verdict == "PASS"
        assert by_name["minimality"].max_residual <= 1e-12
        assert by_name["tangential-residual"].verdict == "PASS"
        assert all(c.points_evaluated == 60 for c in report.checks)

    def test_helicoid_blocks_pass(self):
        spec = GenHelicoidA(pitch=PitchVector(0.8, (1.2, 0.7)),
                            blocks=(standard_block(1), standard_block(1)))
        report = verify_minimality(spec, SamplePlan(count=40, seed=9))
        assert report.all_expected
        assert report.checks[0].max_residual <= 1e-10

    @pytest.mark.parametrize("radius", [1.0, 2.0])
    def test_cylinder_control_residual_is_exact(self, radius):
        report = verify_minimality(Cylinder(radius),
                                   SamplePlan(count=25, seed=0))
        by_name = {c.name: c for c in report.checks}
        check = by_name["minimality"]
        assert check.expected == "FAIL-EXPECTED"
        assert check.verdict == "FAIL-EXPECTED"
        expected = 1.0 / (radius * (radius ** 2 + 2.0))
        assert abs(check.max_residual - expected) <= 1e-12
        assert abs(check.min_residual - expected) <= 1e-12
        # the curvature vector is normal, so this passes even on controls
        assert by_name["tangential-residual"].verdict == "PASS"
        assert not report.all_expected or check.as_expected

    def test_latitude_control_and_equator(self):
        plan = SamplePlan(count=25, seed=1)
        bad = verify_minimality(LatitudeCircle(0.5), plan)
        assert bad.checks[0].verdict == "FAIL-EXPECTED"
        # sphere defect 1/sqrt(3), Jacobian norm rho^2 = 3/4
        expected = 1.0 / (np.sqrt(3.0) * 1.75)
        assert abs(bad.checks[0].max_residual - expected) <= 1e-12
        good = verify_minimality(LatitudeCircle(0.0), plan)
        assert good.checks[0].verdict == "PASS"
        assert good.all_expected

    def test_report_echoes_inputs(self):
        plan = SamplePlan(count=10, seed=77)
        report = verify_minimality(CliffordTorus(standard_block(1)), plan)
        assert report.family["kind"] == "CliffordTorus"
        assert report.plan == plan.to_json()
        assert report.tolerances == TolerancePolicy().to_json()
        assert report.engine_version

    def test_deterministic_reports(self):
        plan = SamplePlan(count=15, seed=3)
        a = verify_minimality(LatitudeCircle(0.5), plan)
        b = verify_minimality(LatitudeCircle(0.5), plan)
        assert a == b                       # wall_time excluded from equality
        ja, jb = a.to_json(), b.to_json()
        ja.pop("wall_time"), jb.pop("wall_time")
        assert json.dumps(ja, sort_keys=True) == json.dumps(jb, sort_keys=True)

    def test_non_finite_residual_is_a_typed_error(self, monkeypatch):
        def residuals(spec, pe):
            res = np.zeros(len(pe.position))
            res[[1, 4]] = (np.nan, np.inf)
            return res, np.zeros(len(pe.position))
        monkeypatch.setattr(harness, "_minimality_residuals", residuals)
        with pytest.raises(NonFiniteResidual,
                           match="minimality: 2 of 10 residuals"):
            verify_minimality(CliffordTorus(standard_block(1)),
                              SamplePlan(count=10))

    @pytest.mark.xfail(strict=True, reason=(
        "false negative: point 65 passes the metric-degenerate guard "
        "(det/Hadamard ratio 2.3e-4 against the 1e-10 floor) yet has a "
        "normalized residual of 6.7e-7 > tol_H; ROADMAP item 4 (make "
        "guarding uniform) is to fix it"))
    def test_helicoid_slice_seed_6_passes(self):
        spec = dict(default_campaign())["helicoid-slice"]
        report = verify_minimality(spec, SamplePlan(count=100, seed=6))
        assert report.all_expected


SCREW_SPECS = [
    GenHelicoidA(pitch=PitchVector(0.8, (1.2, 0.7)),
                 blocks=(standard_block(1), standard_block(1))),
    GenHelicoidB(rays=2, block=standard_block(1),
                 angular_pitch=1.1, axial_pitch=0.6),
    ChoeHoppe(sphere_dim=2, pitch=0.9,
              chart_p=standard_chart(1), chart_q=standard_chart(1)),
    BDJ(PitchVector(0.7, (1.0, 1.4))),
    LawsonSurface(1.0, 2.0),
    SphericalSlice(inner=GenHelicoidA(
        pitch=PitchVector(0.0, (1.0, 1.3)),
        blocks=(standard_block(1), standard_block(1)))),
]


class TestScrewInvariance:
    def test_hundred_random_points_and_angles(self):
        spec = GenHelicoidB(rays=2, block=standard_block(1),
                            angular_pitch=1.1, axial_pitch=0.6)
        report = verify_screw_invariance(spec, SamplePlan(count=100, seed=8))
        check = report.checks[0]
        assert check.name == "screw-invariance"
        assert check.verdict == "PASS"
        assert check.max_residual <= 1e-12

    @pytest.mark.parametrize("spec", SCREW_SPECS,
                             ids=lambda s: type(s).__name__)
    def test_every_swept_family(self, spec):
        report = verify_screw_invariance(spec, SamplePlan(count=30, seed=2))
        assert report.checks[0].max_residual <= 1e-12
        assert report.all_expected

    def test_rejects_family_without_sweep(self):
        with pytest.raises(SpecError, match="sweep"):
            verify_screw_invariance(CliffordTorus(standard_block(1)))


class TestConeScaling:
    def test_rays_clifford_cone(self):
        spec = LRaysCliffordCone(rays=2, block=standard_block(1))
        report = verify_cone_scaling(spec, SamplePlan(count=50, seed=6))
        by_name = {c.name: c for c in report.checks}
        assert by_name["cone-scaling"].max_residual <= 1e-12
        assert by_name["minimality"].verdict == "PASS"
        assert report.all_expected

    def test_helicoid_with_zero_axial_rate(self):
        spec = GenHelicoidA(pitch=PitchVector(0.0, (1.0, 1.3)),
                            blocks=(standard_block(1), standard_block(1)))
        report = verify_cone_scaling(spec, SamplePlan(count=40, seed=6))
        assert report.all_expected

    def test_harvey_lawson(self):
        spec = HarveyLawsonCone(sphere_dim=1, chart_x=standard_chart(1),
                                chart_y=standard_chart(1))
        report = verify_cone_scaling(spec, SamplePlan(count=40, seed=6))
        assert report.all_expected

    def test_axial_rate_breaks_homogeneity(self):
        spec = GenHelicoidA(pitch=PitchVector(0.8, (1.0, 1.3)),
                            blocks=(standard_block(1), standard_block(1)))
        with pytest.raises(SpecError, match="axial"):
            verify_cone_scaling(spec)

    def test_rejects_non_cone(self):
        with pytest.raises(SpecError):
            verify_cone_scaling(CliffordTorus(standard_block(1)))


class TestTakahashiEquivalence:
    def test_equator_all_pass(self):
        report = takahashi_equivalence(LatitudeCircle(0.0), 2,
                                       SamplePlan(count=40, seed=3))
        assert [c.name for c in report.checks] == \
            ["sphere-base", "sphere-join", "cone-rays"]
        assert all(c.verdict == "PASS" for c in report.checks)
        assert report.agreement and report.all_expected

    def test_latitude_control_fails_all_three_loudly(self):
        report = takahashi_equivalence(LatitudeCircle(0.5), 2,
                                       SamplePlan(count=40, seed=3))
        assert all(c.verdict == "FAIL-EXPECTED" for c in report.checks)
        assert report.agreement and report.all_expected
        assert all(c.min_residual >= 0.1 for c in report.checks)
        # raw sphere defect of the base is exactly 1/sqrt(3)
        base = report.checks[0]
        assert abs(base.max_residual - 1.0 / np.sqrt(3.0)) <= 1e-12

    def test_clifford_torus_three_rays(self):
        report = takahashi_equivalence(CliffordTorus(standard_block(1)), 3,
                                       SamplePlan(count=40, seed=3))
        assert all(c.verdict == "PASS" for c in report.checks)
        assert report.all_expected

    def test_chart_base_and_single_ray(self):
        chart = takahashi_equivalence(standard_chart(1), 2,
                                      SamplePlan(count=20, seed=1))
        assert chart.all_expected
        single = takahashi_equivalence(LatitudeCircle(0.0), 1,
                                       SamplePlan(count=20, seed=1))
        assert single.all_expected

    def test_routes_solve_no_tangential_part(self, monkeypatch):
        # the verdicts read H alone; mean_curvature would also solve for
        # the tangential part, which no route judges
        want = takahashi_equivalence(CliffordTorus(standard_block(1)), 2,
                                     SamplePlan(count=12, seed=4))

        def refuse(pe):
            raise AssertionError("mean_curvature called")

        monkeypatch.setattr(harness, "mean_curvature", refuse)
        got = takahashi_equivalence(CliffordTorus(standard_block(1)), 2,
                                    SamplePlan(count=12, seed=4))
        assert [c.name for c in got.checks] == \
            ["sphere-base", "sphere-join", "cone-rays"]
        assert replace(got, wall_time=0.0) == replace(want, wall_time=0.0)

    def test_non_spherical_base_rejected(self):
        with pytest.raises(NotSpherical):
            takahashi_equivalence(Cylinder(1.0), 2)

    def test_bad_ray_count(self):
        for rays in (0, True):
            with pytest.raises(SpecError):
                takahashi_equivalence(LatitudeCircle(0.0), rays)


class TestReportSerialization:
    def test_verification_round_trip(self):
        report = verify_minimality(LatitudeCircle(0.5),
                                   SamplePlan(count=10, seed=5))
        blob = json.dumps(report.to_json(), sort_keys=True)
        assert report_from_json(json.loads(blob)) == report

    def test_takahashi_round_trip(self):
        report = takahashi_equivalence(LatitudeCircle(0.0), 2,
                                       SamplePlan(count=10, seed=5))
        blob = json.dumps(report.to_json(), sort_keys=True)
        assert report_from_json(json.loads(blob)) == report

    def test_rejects_wrong_version(self):
        report = verify_minimality(LatitudeCircle(0.0),
                                   SamplePlan(count=5)).to_json()
        report["version"] = 2
        with pytest.raises(SpecError, match="version"):
            report_from_json(report)

    def test_rejects_unknown_kind(self):
        report = verify_minimality(LatitudeCircle(0.0),
                                   SamplePlan(count=5)).to_json()
        report["kind"] = "mystery-report"
        with pytest.raises(SpecError, match="kind"):
            report_from_json(report)

    def test_rejects_extra_check_field(self):
        report = verify_minimality(LatitudeCircle(0.0),
                                   SamplePlan(count=5)).to_json()
        report["checks"][0]["note"] = "hand edit"
        with pytest.raises(SpecError, match="unknown"):
            report_from_json(report)

    def test_as_expected_detects_flips(self):
        check = CheckResult(name="minimality", max_residual=0.2,
                            mean_residual=0.2, min_residual=0.2,
                            points_evaluated=5, points_excluded=0,
                            tolerance=1e-8, expected="PASS", verdict="FAIL")
        assert not check.as_expected


FINITE = st.floats(allow_nan=False, allow_infinity=False)
PLANS = st.builds(
    SamplePlan, count=st.integers(1, 10 ** 6), seed=st.integers(0, 2 ** 64 - 1),
    box=st.none() | st.lists(
        st.tuples(FINITE, FINITE).filter(lambda p: p[0] < p[1])
        .map(tuple), max_size=4).map(tuple),
    max_rejects=st.integers(1, 10 ** 6))
TOLERANCES = st.tuples(
    st.floats(1e-300, 1e-3), st.floats(1e-300, 1.0), st.floats(1.0, 1e300)
).map(lambda t: TolerancePolicy(*t))
CHECKS = st.builds(
    CheckResult, name=st.text(), max_residual=FINITE, mean_residual=FINITE,
    min_residual=FINITE, points_evaluated=st.integers(0, 10 ** 9),
    points_excluded=st.integers(0, 10 ** 9), tolerance=FINITE,
    expected=st.sampled_from(["PASS", "FAIL-EXPECTED"]),
    verdict=st.sampled_from(["PASS", "FAIL", "FAIL-EXPECTED"]))


@pytest.mark.parametrize("cls,records", [
    (SamplePlan, PLANS), (TolerancePolicy, TOLERANCES), (CheckResult, CHECKS),
], ids=["plan", "tolerances", "check"])
def test_record_json_round_trip(cls, records):
    @settings(max_examples=200, deadline=None)
    @given(record=records)
    def round_trip(record):
        text = json.dumps(record.to_json(), allow_nan=False)
        assert cls.from_json(json.loads(text)) == record
    round_trip()


@pytest.mark.parametrize("box", [((-np.inf, 1.0),), ((0.0, np.nan),),
                                 ((0.0, 1.0), (0.0, "wide"))])
def test_plan_refuses_non_finite_box(box):
    with pytest.raises(SpecError, match="sampling interval must be"):
        SamplePlan(box=box)


# The report format, byte for byte: a change to it must show up here.
PINNED_VERIFICATION = (
    '{"version": 1, "kind": "verification-report", "family": {"kind": '
    '"Cylinder", "radius": 2.0}, "plan": {"count": 2, "seed": 3, "box": '
    'null, "max_rejects": 200}, "tolerances": {"tol_H": 1e-08, '
    '"tol_identity": 1e-09, "tol_negative": 0.01}, "checks": [{"name": '
    '"minimality", "max_residual": 0.08333333333333336, "mean_residual": '
    '0.08333333333333334, "min_residual": 0.08333333333333333, '
    '"points_evaluated": 2, "points_excluded": 0, "tolerance": 1e-08, '
    '"expected": "FAIL-EXPECTED", "verdict": "FAIL-EXPECTED"}, {"name": '
    '"tangential-residual", "max_residual": 4.625929269271487e-18, '
    '"mean_residual": 2.3129646346357434e-18, "min_residual": 0.0, '
    '"points_evaluated": 2, "points_excluded": 0, "tolerance": 1e-08, '
    '"expected": "PASS", "verdict": "PASS"}], "engine_version": "0.1.0", '
    '"wall_time": 0.25}')
PINNED_TAKAHASHI = (
    '{"version": 1, "kind": "takahashi-report", "base": {"kind": '
    '"LatitudeCircle", "height": 0.5}, "rays": 2, "plan": {"count": 2, '
    '"seed": 3, "box": null, "max_rejects": 200}, "tolerances": {"tol_H": '
    '1e-08, "tol_identity": 1e-09, "tol_negative": 0.01}, "checks": '
    '[{"name": "sphere-base", "max_residual": 0.5773502691896258, '
    '"mean_residual": 0.5773502691896257, "min_residual": '
    '0.5773502691896257, "points_evaluated": 2, "points_excluded": 0, '
    '"tolerance": 1e-08, "expected": "FAIL-EXPECTED", "verdict": '
    '"FAIL-EXPECTED"}, {"name": "sphere-join", "max_residual": '
    '0.577350269189626, "mean_residual": 0.577350269189626, '
    '"min_residual": 0.5773502691896258, "points_evaluated": 2, '
    '"points_excluded": 0, "tolerance": 1e-08, "expected": "FAIL-EXPECTED", '
    '"verdict": "FAIL-EXPECTED"}, {"name": "cone-rays", "max_residual": '
    '0.3660304529404577, "mean_residual": 0.34642141757787037, '
    '"min_residual": 0.326812382215283, "points_evaluated": 2, '
    '"points_excluded": 0, "tolerance": 1e-08, "expected": "FAIL-EXPECTED", '
    '"verdict": "FAIL-EXPECTED"}], "agreement": true, "engine_version": '
    '"0.1.0", "wall_time": 0.25}')

# the sphere sections are built from their cones; these pin their bytes
PINNED_SLICE = (
    '{"version": 1, "kind": "verification-report", "family": {"kind": '
    '"SphericalSlice", "inner": {"kind": "GenHelicoidA", "pitch": {"lambda0": '
    '0.0, "lambdas": [1.0, 1.3]}, "blocks": [{"chart_x": {"dim": 1, '
    '"chart_kind": "stereographic"}, "chart_y": {"dim": 1, "chart_kind": '
    '"stereographic"}}, {"chart_x": {"dim": 1, "chart_kind": '
    '"stereographic"}, "chart_y": {"dim": 1, "chart_kind": '
    '"stereographic"}}]}}, "plan": {"count": 2, "seed": 3, "box": null, '
    '"max_rejects": 200}, "tolerances": {"tol_H": 1e-08, "tol_identity": '
    '1e-09, "tol_negative": 0.01}, "checks": [{"name": "minimality", '
    '"max_residual": 1.0706731641672214e-12, "mean_residual": '
    '5.355621174590472e-13, "min_residual": 4.510707508730806e-16, '
    '"points_evaluated": 2, "points_excluded": 0, "tolerance": 1e-08, '
    '"expected": "PASS", "verdict": "PASS"}, {"name": "tangential-residual", '
    '"max_residual": 1.0254046847627708e-12, "mean_residual": '
    '5.128929508961336e-13, "min_residual": 3.812170294964092e-16, '
    '"points_evaluated": 2, "points_excluded": 0, "tolerance": 1e-08, '
    '"expected": "PASS", "verdict": "PASS"}], "engine_version": "0.1.0", '
    '"wall_time": 0.25}')
PINNED_JOIN = (
    '{"version": 1, "kind": "verification-report", "family": {"kind": '
    '"SphericalJoin", "xs": {"dim": 1, "chart_kind": "stereographic"}, '
    '"base": {"kind": "CliffordTorus", "block": {"chart_x": {"dim": 1, '
    '"chart_kind": "stereographic"}, "chart_y": {"dim": 1, "chart_kind": '
    '"stereographic"}}}}, "plan": {"count": 2, "seed": 3, "box": null, '
    '"max_rejects": 200}, "tolerances": {"tol_H": 1e-08, "tol_identity": '
    '1e-09, "tol_negative": 0.01}, "checks": [{"name": "minimality", '
    '"max_residual": 1.8681953597737946e-16, "mean_residual": '
    '1.716453580805607e-16, "min_residual": 1.5647118018374192e-16, '
    '"points_evaluated": 2, "points_excluded": 0, "tolerance": 1e-08, '
    '"expected": "PASS", "verdict": "PASS"}, {"name": "tangential-residual", '
    '"max_residual": 7.041307053454521e-17, "mean_residual": '
    '5.2728075595954804e-17, "min_residual": 3.5043080657364404e-17, '
    '"points_evaluated": 2, "points_excluded": 0, "tolerance": 1e-08, '
    '"expected": "PASS", "verdict": "PASS"}], "engine_version": "0.1.0", '
    '"wall_time": 0.25}')


@pytest.mark.parametrize("run,text", [
    (lambda plan: verify_minimality(Cylinder(2.0), plan), PINNED_VERIFICATION),
    (lambda plan: takahashi_equivalence(LatitudeCircle(0.5), 2, plan),
     PINNED_TAKAHASHI),
    (lambda plan: verify_minimality(
        dict(default_campaign())["helicoid-slice"], plan), PINNED_SLICE),
    (lambda plan: verify_minimality(SphericalJoin(
        xs=standard_chart(1), base=CliffordTorus(standard_block(1))), plan),
     PINNED_JOIN),
], ids=["verification", "takahashi", "helicoid-slice", "torus-join"])
def test_report_bytes_pinned(run, text):
    report = replace(run(SamplePlan(count=2, seed=3)), wall_time=0.25)
    assert json.dumps(report.to_json()) == text
    assert report_from_json(json.loads(text)) == report


# the screw and scaling checks read the sampled positions; these pin them
PINNED_SCREW = (
    '{"version": 1, "kind": "verification-report", "family": {"kind": '
    '"GenHelicoidB", "rays": 2, "block": {"chart_x": {"dim": 1, '
    '"chart_kind": "stereographic"}, "chart_y": {"dim": 1, "chart_kind": '
    '"stereographic"}}, "angular_pitch": 1.1, "axial_pitch": 0.6}, "plan": '
    '{"count": 2, "seed": 3, "box": null, "max_rejects": 200}, '
    '"tolerances": {"tol_H": 1e-08, "tol_identity": 1e-09, "tol_negative": '
    '0.01}, "checks": [{"name": "screw-invariance", "max_residual": '
    '3.608224830031759e-16, "mean_residual": 2.914335439641036e-16, '
    '"min_residual": 2.220446049250313e-16, "points_evaluated": 2, '
    '"points_excluded": 0, "tolerance": 1e-12, "expected": "PASS", '
    '"verdict": "PASS"}], "engine_version": "0.1.0", "wall_time": 0.25}'
)
PINNED_CONE = (
    '{"version": 1, "kind": "verification-report", "family": {"kind": '
    '"LRaysCliffordCone", "rays": 2, "block": {"chart_x": {"dim": 1, '
    '"chart_kind": "stereographic"}, "chart_y": {"dim": 1, "chart_kind": '
    '"stereographic"}}}, "plan": {"count": 2, "seed": 3, "box": null, '
    '"max_rejects": 200}, "tolerances": {"tol_H": 1e-08, "tol_identity": '
    '1e-09, "tol_negative": 0.01}, "checks": [{"name": "cone-scaling", '
    '"max_residual": 4.440892098500626e-16, "mean_residual": '
    '2.7755575615628914e-16, "min_residual": 1.1102230246251565e-16, '
    '"points_evaluated": 2, "points_excluded": 0, "tolerance": 1e-12, '
    '"expected": "PASS", "verdict": "PASS"}, {"name": "minimality", '
    '"max_residual": 4.5081108908609614e-17, "mean_residual": '
    '2.851835487900098e-17, "min_residual": 1.1955600849392356e-17, '
    '"points_evaluated": 2, "points_excluded": 0, "tolerance": 1e-08, '
    '"expected": "PASS", "verdict": "PASS"}], "engine_version": "0.1.0", '
    '"wall_time": 0.25}'
)


@pytest.mark.parametrize("run,text", [
    (lambda plan: verify_screw_invariance(
        dict(default_campaign())["helicoid-shared-torus"], plan),
     PINNED_SCREW),
    (lambda plan: verify_cone_scaling(
        dict(default_campaign())["rays-clifford-cone"], plan), PINNED_CONE),
], ids=["screw", "cone-scaling"])
def test_sampled_check_report_bytes_pinned(run, text):
    report = replace(run(SamplePlan(count=2, seed=3)), wall_time=0.25)
    assert json.dumps(report.to_json()) == text
    assert report_from_json(json.loads(text)) == report


def test_report_values_are_type_checked():
    doc = verify_minimality(LatitudeCircle(0.0), SamplePlan(count=3)).to_json()
    malformed = [
        ({"checks": 5}, "report.checks: expected a JSON array, got int"),
        ({"checks": [dict(doc["checks"][0], max_residual="abc")]},
         "report.checks[0].max_residual: expected float, got str"),
        ({"checks": [dict(doc["checks"][0], points_evaluated=3.0)]},
         "report.checks[0].points_evaluated: expected int, got float"),
        ({"family": [1]}, "report.family: expected a JSON object, got list"),
        ({"wall_time": None}, "report.wall_time: expected float, got NoneType"),
        ({"version": True}, "unsupported report version True"),
    ]
    for change, message in malformed:
        with pytest.raises(SpecError, match=re.escape(message)):
            report_from_json({**doc, **change})
    del doc["wall_time"]
    with pytest.raises(SpecError, match=re.escape("missing field(s)")):
        report_from_json(doc)


class TestDefaultCampaign:
    def test_roster(self):
        campaign = default_campaign()
        labels = [label for label, _ in campaign]
        assert len(labels) == len(set(labels)) == 12
        controls = [s for _, s in campaign
                    if type(s).__name__ in ("LatitudeCircle", "Cylinder")]
        assert len(controls) == 2

    def test_both_directions_hold(self):
        # positives must PASS and controls must FAIL-EXPECTED; a rubber-stamp
        # engine fails this in one direction or the other
        plan = SamplePlan(count=25, seed=13)
        for label, spec in default_campaign():
            report = verify_minimality(spec, plan)
            assert report.all_expected, label
