"""Full-scale acceptance sweep: one test and one printed verdict per criterion.

Every other test module exercises a unit in isolation; this one reruns the
headline guarantees at protocol scale (1000-point plans, full family grids,
wall-clock budgets) and prints a single PASS/FAIL line per criterion so a
captured run reads as a scoreboard.
"""

import time

import numpy as np

from minvar.families import (
    BDJ,
    CliffordTorus,
    Cylinder,
    GenHelicoidA,
    GenHelicoidB,
    HarveyLawsonCone,
    LatitudeCircle,
    LawsonSurface,
    LRaysCliffordCone,
    PitchVector,
    build_immersion,
    choe_hoppe_graph_residual,
    scaling_indices,
    screw_data,
    standard_block,
)
from minvar.geometry import (
    PointEval,
    laplace_from_pointeval,
    mean_curvature,
    sphere_minimality_residual,
)
from minvar.harness import (
    SamplePlan,
    default_campaign,
    sample_points,
    takahashi_equivalence,
    verify_cone_scaling,
    verify_minimality,
    verify_screw_invariance,
)
from minvar.identities import (
    clifford_frame,
    helicoid_algebra,
    lemma_magic_residuals,
    proof_terms,
    theta_harmonicity,
)
from minvar.jets import StepPolicy, fd_jet

GRID = [(rays, dim) for rays in (1, 2, 3) for dim in (0, 1, 2)]
CELL_BUDGET_S = 60.0

# collected here so the terminal-summary hook can replay them after capture
VERDICT_LINES = []


def _verdict(index, label, ok, detail):
    word = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {index} {label}: {word} ({detail})"
    VERDICT_LINES.append(line)
    print(line)
    assert ok, f"acceptance {index} {label}: {detail}"


def _random_pitch(rng, rays):
    return PitchVector(rng.uniform(0.4, 1.6),
                       tuple(rng.uniform(0.4, 1.6, rays)))


def _minimality_grid(make_specs):
    """Worst normalized residual and slowest cell over the (L, N) grid."""
    worst = 0.0
    slowest = 0.0
    ok = True
    for rays, dim in GRID:
        start = time.perf_counter()
        for i, spec in enumerate(make_specs(rays, dim)):
            plan = SamplePlan(count=1000, seed=1000 * rays + 100 * dim + i)
            report = verify_minimality(spec, plan)
            worst = max(worst, report.checks[0].max_residual)
            ok = ok and report.all_expected
        slowest = max(slowest, time.perf_counter() - start)
    return worst, slowest, ok


def test_c1_helicoid_grid_minimality():
    def make_specs(rays, dim):
        rng = np.random.default_rng(310 + 10 * rays + dim)
        for _ in range(3):
            yield GenHelicoidA(
                pitch=_random_pitch(rng, rays),
                blocks=tuple(standard_block(dim) for _ in range(rays)))

    worst, slowest, ok = _minimality_grid(make_specs)
    ok = ok and worst <= 1e-8 and slowest <= CELL_BUDGET_S
    _verdict(1, "multi-block helicoid minimality", ok,
             f"max normalized residual {worst:.2e} <= 1e-08, "
             f"slowest cell {slowest:.1f}s <= {CELL_BUDGET_S:.0f}s")


def test_c2_ray_helicoids_and_cones_minimality():
    def make_specs(rays, dim):
        rng = np.random.default_rng(620 + 10 * rays + dim)
        for _ in range(3):
            yield GenHelicoidB(rays=rays, block=standard_block(dim),
                               angular_pitch=rng.uniform(0.4, 1.6),
                               axial_pitch=rng.uniform(0.4, 1.6))
        yield LRaysCliffordCone(rays=rays, block=standard_block(dim))

    worst, slowest, ok = _minimality_grid(make_specs)
    ok = ok and worst <= 1e-8 and slowest <= CELL_BUDGET_S
    _verdict(2, "shared-rate helicoid and ray-cone minimality", ok,
             f"max normalized residual {worst:.2e} <= 1e-08, "
             f"slowest cell {slowest:.1f}s <= {CELL_BUDGET_S:.0f}s")


def _commuting_rotation(half, angle):
    eye = np.eye(half)
    u = np.block([[np.cos(angle) * eye, -np.sin(angle) * eye],
                  [np.sin(angle) * eye, np.cos(angle) * eye]])
    return tuple(tuple(row) for row in u)


def test_c3_clifford_block_identities():
    worst = 0.0
    for dim in (1, 2, 3):
        for kind in ("stereographic", "trigonometric"):
            for rotated in (False, True):
                unitary = (_commuting_rotation(dim + 1, 0.6)
                           if rotated else None)
                block = standard_block(dim, kind, unitary=unitary)
                box = np.array(block.domain_box())
                rng = np.random.default_rng(
                    9100 + 100 * dim + 10 * rotated + (kind == "trigonometric"))
                pts = rng.uniform(box[:, 0], box[:, 1], size=(1000, len(box)))
                res = lemma_magic_residuals(block, pts)
                worst = max(worst, float(np.max(res.max_residual)))

    # circle block: alignment and pairing reduce to single trig functions
    block = standard_block(1, "trigonometric")
    rng = np.random.default_rng(9555)
    uv = rng.uniform(-2.9, 2.9, size=(1000, 2))
    fr = clifford_frame(block, uv)
    diff = uv[:, 0] - uv[:, 1]
    closed = max(float(np.max(np.abs(np.sum(fr.D * fr.JC, axis=-1)
                                     + np.cos(diff)))),
                 float(np.max(np.abs(fr.w - 0.5 * np.sin(diff)[:, None]))))

    ok = worst <= 1e-9 and closed <= 1e-12
    _verdict(3, "paired-block frame identities", ok,
             f"max identity residual {worst:.2e} <= 1e-09, "
             f"circle closed-form gap {closed:.2e} <= 1e-12")


def test_c4_helicoid_operator_algebra():
    det_worst = inv_worst = harm_worst = sum_worst = 0.0
    for rays in (1, 2):
        for dim in (1, 2):
            rng = np.random.default_rng(400 + 10 * rays + dim)
            spec = GenHelicoidA(
                pitch=_random_pitch(rng, rays),
                blocks=tuple(standard_block(dim) for _ in range(rays)))
            pts, _ = sample_points(build_immersion(spec),
                                   SamplePlan(count=200, seed=40 + rays + dim))
            alg = helicoid_algebra(spec, pts)
            det_worst = max(det_worst, float(np.max(alg.det_defect)))
            inv_worst = max(inv_worst, float(np.max(alg.inverse_defect)))
            harm = theta_harmonicity(spec, pts)
            harm_worst = max(harm_worst, float(np.max(harm.theta_laplacian)),
                             float(np.max(harm.block_divergence)))
            for t in range(1, rays + 1):
                terms = proof_terms(spec, t, pts)
                sum_worst = max(sum_worst, float(np.max(
                    terms.sum_norm / np.maximum(1.0, terms.scale))))

    ok = (det_worst <= 1e-9 and inv_worst <= 1e-9
          and harm_worst <= 1e-8 and sum_worst <= 1e-8)
    _verdict(4, "metric factorization and term cancellation", ok,
             f"det {det_worst:.2e} <= 1e-09, inverse {inv_worst:.2e} <= 1e-09, "
             f"angular harmonicity {harm_worst:.2e} <= 1e-08, "
             f"six-term sum {sum_worst:.2e} <= 1e-08 rel")


def test_c5_sphere_cone_equivalence():
    plan = SamplePlan(count=300, seed=11)
    positive_ok = True
    for base in (LatitudeCircle(0.0), CliffordTorus(standard_block(1))):
        report = takahashi_equivalence(base, rays=2, plan=plan)
        positive_ok = (positive_ok and report.agreement
                       and all(c.verdict == "PASS" for c in report.checks))

    control = takahashi_equivalence(LatitudeCircle(0.5), rays=2, plan=plan)
    floor = min(c.min_residual for c in control.checks)
    control_ok = (control.agreement
                  and all(c.verdict == "FAIL-EXPECTED"
                          for c in control.checks)
                  and floor >= 1e-1)

    ok = positive_ok and control_ok
    _verdict(5, "sphere/cone minimality equivalence", ok,
             f"equator and torus all PASS: {positive_ok}, "
             f"offset-circle control all FAIL with floor {floor:.2e} >= 1e-01")


def test_c6_multigraph_pde_residual():
    worst = 0.0
    for dim in (1, 2, 3):
        rng = np.random.default_rng(660 + dim)
        # positive-orthant box keeps the branch magnitude >= 0.5, well
        # clear of the 1e-2 guard
        x = rng.uniform(0.5, 2.0, size=(1000, 2 * dim))
        res = choe_hoppe_graph_residual(dim, x)
        worst = max(worst, float(np.max(np.abs(res))))

    ok = worst <= 1e-8
    _verdict(6, "angle-graph equation residual", ok,
             f"max residual {worst:.2e} <= 1e-08 at 3000 points")


def test_c7_symmetry_and_special_instances():
    plan = SamplePlan(count=200, seed=77)
    screw_worst = scale_worst = -1.0
    expected_ok = True
    for _, spec in default_campaign():
        if screw_data(spec) is not None:
            report = verify_screw_invariance(spec, plan)
            screw_worst = max(screw_worst, report.checks[0].max_residual)
            expected_ok = expected_ok and report.all_expected
        if scaling_indices(spec):
            report = verify_cone_scaling(spec, plan)
            scale_worst = max(scale_worst, report.checks[0].max_residual)
            expected_ok = expected_ok and report.all_expected

    lawson = build_immersion(LawsonSurface(1.0, 2.0))
    pts, _ = sample_points(lawson, SamplePlan(count=500, seed=78))
    lawson_worst = float(np.max(sphere_minimality_residual(lawson, pts)))

    harvey = build_immersion(HarveyLawsonCone(sphere_dim=2))
    pts, _ = sample_points(harvey, SamplePlan(count=500, seed=79))
    raw_h = np.linalg.norm(laplace_from_pointeval(harvey.eval(pts)), axis=-1)
    harvey_worst = float(np.max(raw_h))

    ok = (expected_ok and 0.0 <= screw_worst <= 1e-12
          and 0.0 <= scale_worst <= 1e-12
          and lawson_worst <= 1e-9 and harvey_worst <= 1e-8)
    _verdict(7, "symmetry sweeps and special instances", ok,
             f"screw {screw_worst:.2e} <= 1e-12, "
             f"scaling {scale_worst:.2e} <= 1e-12, "
             f"doubly rotating surface {lawson_worst:.2e} <= 1e-09, "
             f"paired-sphere cone |H| {harvey_worst:.2e} <= 1e-08")


def _fd_pointeval(imm, pts, policy):
    def component(a):
        return lambda *cols: np.asarray(imm.components(list(cols))[a], float)

    parts = [fd_jet(component(a), pts, policy)
             for a in range(imm.ambient_dim)]
    return PointEval(
        position=np.stack([j.value for j in parts], axis=-1),
        jacobian=np.stack([j.grad for j in parts], axis=-2),
        second=np.stack([j.hess for j in parts], axis=-3))


def test_c8_engine_self_consistency():
    rng = np.random.default_rng(888)
    spec = GenHelicoidA(pitch=_random_pitch(rng, 1),
                        blocks=(standard_block(1),))
    imm = build_immersion(spec)
    pts, _ = sample_points(imm, SamplePlan(count=20, seed=88))

    pe = imm.eval(pts)
    fd = _fd_pointeval(imm, pts, StepPolicy(base_step=1e-4,
                                            richardson_levels=2))
    jac_gap = np.max(np.abs(fd.jacobian - pe.jacobian)
                     / np.maximum(1.0, np.abs(pe.jacobian)))
    hess_gap = np.max(np.abs(fd.second - pe.second)
                      / np.maximum(1.0, np.abs(pe.second)))
    fd_gap = float(max(jac_gap, hess_gap))

    more, _ = sample_points(imm, SamplePlan(count=200, seed=89))
    pe = imm.eval(more)
    lap_c = laplace_from_pointeval(pe, form="contraction")
    lap_d = laplace_from_pointeval(pe, form="divergence")
    form_gap = float(np.max(np.linalg.norm(lap_c - lap_d, axis=-1)
                            / np.maximum(1.0, np.linalg.norm(lap_c, axis=-1))))

    cyl = build_immersion(Cylinder(1.0))
    cyl_pts, _ = sample_points(cyl, SamplePlan(count=200, seed=90))
    h_norm = mean_curvature(cyl, cyl_pts).H_norm
    curvature_gap = float(np.max(np.abs(h_norm - 1.0)))

    controls_ok = True
    for control in (LatitudeCircle(0.5), Cylinder(1.0)):
        report = verify_minimality(control, SamplePlan(count=200, seed=91))
        controls_ok = (controls_ok and report.all_expected
                       and report.checks[0].verdict == "FAIL-EXPECTED")

    ok = (fd_gap <= 1e-5 and form_gap <= 1e-8
          and curvature_gap <= 1e-3 and controls_ok)
    _verdict(8, "engine self-consistency and controls", ok,
             f"jet vs finite-difference {fd_gap:.2e} <= 1e-05, "
             f"divergence vs contraction {form_gap:.2e} <= 1e-08, "
             f"tube curvature gap {curvature_gap:.2e} <= 1e-03, "
             f"controls flagged: {controls_ok}")
