"""Sampling plans, tolerance policy, and verification campaign runners.

A campaign samples non-excluded parameter points deterministically,
evaluates a residual per point, and condenses the result into verdict
records.  Positive families must PASS; registered negative controls
must FAIL by a wide margin (FAIL-EXPECTED), so a trivially-agreeing
engine cannot slip through.  Each sampled point is evaluated once: for
an immersion with a metric floor, the ``PointEval`` the guard computed
for the accepted draws feeds the residual stage; any other immersion is
evaluated after sampling.  Reports serialize to versioned JSON and
are deterministic for a fixed (spec, plan, tolerance) triple, except
for the wall-time stamp.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .charts import SphereChart
from .errors import (NonFiniteResidual, NotSpherical, SamplingExhausted,
                     SpecError)
from .families import (
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
    _base_immersion,
    _base_to_json,
    _check_keys,
    _value_from_json,
    build_immersion,
    is_negative_control,
    lands_on_unit_sphere,
    scaling_indices,
    screw_action,
    screw_data,
    spec_to_json,
    standard_block,
    standard_chart,
)
from .geometry import (
    Immersion,
    PointEval,
    laplace_from_pointeval,
    metric,
    sphere_residual_from_pointeval,
)

__all__ = [
    "SamplePlan",
    "TolerancePolicy",
    "CheckResult",
    "VerificationReport",
    "TakahashiReport",
    "sample_points",
    "verify_minimality",
    "verify_screw_invariance",
    "verify_cone_scaling",
    "takahashi_equivalence",
    "default_campaign",
    "report_from_json",
]

SCREW_TOL = 1e-12
SCALING_TOL = 1e-12
REPORT_VERSION = 1


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic rejection-sampling plan over a parameter box."""

    count: int = 200
    seed: int = 0
    box: tuple | None = None        # per-parameter (lo, hi); None = domain
    max_rejects: int = 200

    def __post_init__(self):
        if not isinstance(self.count, int) or self.count < 1:
            raise SpecError(f"plan count must be a positive integer, "
                            f"got {self.count!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2 ** 64:
            raise SpecError(f"seed must be a 64-bit unsigned integer, "
                            f"got {self.seed!r}")
        if not isinstance(self.max_rejects, int) or self.max_rejects < 1:
            raise SpecError(f"max_rejects must be a positive integer, "
                            f"got {self.max_rejects!r}")
        if self.box is not None:
            box = tuple(tuple(float(x) for x in pair) for pair in self.box)
            for pair in box:
                if len(pair) != 2:
                    raise SpecError(f"sampling interval must be a (lo, hi) "
                                    f"pair, got {pair}")
                lo, hi = pair
                if not lo < hi:
                    raise SpecError(f"empty sampling interval ({lo}, {hi})")
            object.__setattr__(self, "box", box)

    def to_json(self) -> dict:
        return {"count": self.count, "seed": self.seed,
                "box": None if self.box is None else
                [list(pair) for pair in self.box],
                "max_rejects": self.max_rejects}

    @staticmethod
    def from_json(d: dict) -> "SamplePlan":
        _check_keys(d, set(), {"count", "seed", "box", "max_rejects"}, "plan")
        box = _value_from_json(tuple[tuple[float, ...], ...] | None,
                               d.get("box"), "plan.box")
        return SamplePlan(count=d.get("count", 200), seed=d.get("seed", 0),
                          box=box, max_rejects=d.get("max_rejects", 200))


@dataclass(frozen=True)
class TolerancePolicy:
    """Pass/fail thresholds for residual checks."""

    tol_H: float = 1e-8
    tol_identity: float = 1e-9
    tol_negative: float = 1e-2

    def __post_init__(self):
        for name in ("tol_H", "tol_identity", "tol_negative"):
            if not getattr(self, name) > 0.0:
                raise SpecError(f"{name} must be positive")
        if self.tol_negative < 1e3 * self.tol_H:
            raise SpecError(
                f"tol_negative ({self.tol_negative:g}) must exceed tol_H "
                f"({self.tol_H:g}) by at least 1000x; controls must fail "
                f"loudly, not marginally")

    def to_json(self) -> dict:
        return {"tol_H": self.tol_H, "tol_identity": self.tol_identity,
                "tol_negative": self.tol_negative}

    @staticmethod
    def from_json(d: dict) -> "TolerancePolicy":
        _check_keys(d, set(), {"tol_H", "tol_identity", "tol_negative"},
                    "tolerances")
        return TolerancePolicy(**{
            k: _value_from_json(float, v, f"tolerances.{k}")
            for k, v in d.items()})


@dataclass(frozen=True)
class CheckResult:
    """Aggregate of one residual stream with its verdict."""

    name: str
    max_residual: float
    mean_residual: float
    min_residual: float
    points_evaluated: int
    points_excluded: int
    tolerance: float
    expected: str                  # "PASS" or "FAIL-EXPECTED"
    verdict: str                   # "PASS", "FAIL" or "FAIL-EXPECTED"

    @property
    def as_expected(self) -> bool:
        return self.verdict == self.expected

    def to_json(self) -> dict:
        return {"name": self.name, "max_residual": self.max_residual,
                "mean_residual": self.mean_residual,
                "min_residual": self.min_residual,
                "points_evaluated": self.points_evaluated,
                "points_excluded": self.points_excluded,
                "tolerance": self.tolerance, "expected": self.expected,
                "verdict": self.verdict}

    @staticmethod
    def from_json(d: dict) -> "CheckResult":
        _check_keys(d, {"name", "max_residual", "mean_residual",
                        "min_residual", "points_evaluated",
                        "points_excluded", "tolerance", "expected",
                        "verdict"}, set(), "check")
        return CheckResult(**d)


@dataclass(frozen=True)
class VerificationReport:
    """Verdicts of one family's campaign, with config echoes."""

    family: dict
    plan: dict
    tolerances: dict
    checks: tuple[CheckResult, ...]
    engine_version: str
    wall_time: float = field(compare=False, default=0.0)

    @property
    def all_expected(self) -> bool:
        return all(c.as_expected for c in self.checks)

    def to_json(self) -> dict:
        return {"version": REPORT_VERSION, "kind": "verification-report",
                "family": self.family, "plan": self.plan,
                "tolerances": self.tolerances,
                "checks": [c.to_json() for c in self.checks],
                "engine_version": self.engine_version,
                "wall_time": self.wall_time}


@dataclass(frozen=True)
class TakahashiReport:
    """Three-way sphere/join/cone equivalence verdicts for one base."""

    base: dict
    rays: int
    plan: dict
    tolerances: dict
    checks: tuple[CheckResult, ...]
    agreement: bool
    engine_version: str
    wall_time: float = field(compare=False, default=0.0)

    @property
    def all_expected(self) -> bool:
        return self.agreement and all(c.as_expected for c in self.checks)

    def to_json(self) -> dict:
        return {"version": REPORT_VERSION, "kind": "takahashi-report",
                "base": self.base, "rays": self.rays, "plan": self.plan,
                "tolerances": self.tolerances,
                "checks": [c.to_json() for c in self.checks],
                "agreement": self.agreement,
                "engine_version": self.engine_version,
                "wall_time": self.wall_time}


def report_from_json(d: dict):
    """Parse either report kind back into its dataclass (strict keys)."""
    if not isinstance(d, dict):
        raise SpecError("report must be a JSON object")
    if d.get("version") != REPORT_VERSION:
        raise SpecError(f"unsupported report version {d.get('version')!r}")
    kind = d.get("kind")
    checks = tuple(CheckResult.from_json(c) for c in d.get("checks", ()))
    if kind == "verification-report":
        _check_keys(d, {"version", "kind", "family", "plan", "tolerances",
                        "checks", "engine_version", "wall_time"}, set(),
                    "report")
        return VerificationReport(
            family=d["family"], plan=d["plan"], tolerances=d["tolerances"],
            checks=checks, engine_version=d["engine_version"],
            wall_time=d["wall_time"])
    if kind == "takahashi-report":
        _check_keys(d, {"version", "kind", "base", "rays", "plan",
                        "tolerances", "checks", "agreement",
                        "engine_version", "wall_time"}, set(), "report")
        return TakahashiReport(
            base=d["base"], rays=d["rays"], plan=d["plan"],
            tolerances=d["tolerances"], checks=checks,
            agreement=d["agreement"], engine_version=d["engine_version"],
            wall_time=d["wall_time"])
    raise SpecError(f"unknown report kind {kind!r}")


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample_points(imm: Immersion, plan: SamplePlan):
    """Draw plan.count non-excluded points; returns (points, rejected).

    Each point gets its own RNG stream keyed by (seed, index), so serial
    and parallel evaluation orders produce identical samples.  Sampling
    runs in rounds: each round draws the next candidate of every pending
    point from that point's stream and screens the stacked batch once
    (``imm.screen``: the predicates and the metric floor); only rejected
    rows stay pending.  Every stream is consumed exactly as a
    point-by-point loop would consume it, so points and reject counts
    match that loop bit for bit.  The campaigns run the same loop and keep
    the accepted rows of the floor's ``PointEval``.
    """
    points, rejected, _ = _sample(imm, plan)
    return points, rejected


def _sample(imm: Immersion, plan: SamplePlan):
    """The rejection loop of ``sample_points``; returns (points, rejected, pe).

    ``pe`` is the PointEval of ``points`` that the metric floor's test
    computed, or None for an immersion without a floor.
    """
    box = np.asarray(plan.box if plan.box is not None else imm.domain,
                     dtype=float)
    if box.shape != (imm.param_dim, 2):
        raise SpecError(f"sampling box has shape {box.shape}, expected "
                        f"({imm.param_dim}, 2)")
    rngs = [np.random.default_rng(
                np.random.SeedSequence(plan.seed, spawn_key=(i,)))
            for i in range(plan.count)]
    points = np.empty((plan.count, imm.param_dim))
    pending = np.arange(plan.count)
    pieces = []                 # (point indices, round's PointEval, rows)
    rejected = 0
    for _ in range(plan.max_rejects):
        # the operations of Generator.uniform, applied to the whole batch
        u = np.array([rngs[i].random(imm.param_dim) for i in pending])
        draws = box[:, 0] + (box[:, 1] - box[:, 0]) * u
        bad, pe = imm.screen(draws)
        ok = ~bad
        points[pending[ok]] = draws[ok]
        if pe is not None:
            pieces.append((pending[ok], pe, ok))
        pending = pending[bad]
        rejected += len(pending)
        if not len(pending):
            break
    else:
        # the lowest exhausted index is where a point-by-point loop stops
        raise SamplingExhausted(f"point {pending[0]}: {plan.max_rejects} "
                                f"consecutive draws excluded")
    if rejected and rejected / (rejected + plan.count) >= 0.5:
        raise SamplingExhausted(
            f"{rejected} of {rejected + plan.count} draws excluded; the "
            f"domain box is dominated by the exclusion set")
    return points, rejected, _in_point_order(pieces, plan.count)


def _in_point_order(pieces: list, count: int) -> PointEval | None:
    """One PointEval of all points from each round's accepted rows."""
    if not pieces:
        return None
    if len(pieces) == 1:
        return pieces[0][1]             # round 1 accepted every point

    def gather(name):
        out = np.empty((count,) + getattr(pieces[0][1], name).shape[1:])
        for indices, pe, rows in pieces:
            out[indices] = getattr(pe, name)[rows]
        return out
    return PointEval(position=gather("position"),
                     jacobian=gather("jacobian"), second=gather("second"))


def _sample_evaluated(imm: Immersion, plan: SamplePlan):
    """(points, rejected, PointEval of points), each point evaluated once."""
    points, rejected, pe = _sample(imm, plan)
    return points, rejected, imm.eval(points) if pe is None else pe


def _aux_stream(plan: SamplePlan, label: int) -> np.random.Generator:
    """Auxiliary deterministic stream (screw angles, scale factors)."""
    return np.random.default_rng(
        np.random.SeedSequence(plan.seed, spawn_key=(1 << 20, label)))


# ---------------------------------------------------------------------------
# Residual evaluation
# ---------------------------------------------------------------------------


def _minimality_residuals(spec, pe: PointEval):
    """(normalized minimality, normalized tangential) residual arrays.

    Families living on the unit sphere are judged by the sphere target
    Delta F + n F, Euclidean ones by Delta F alone.  Both are divided by
    1 + the squared Frobenius norm of the Jacobian, so one tolerance
    serves every cone radius.
    """
    met = metric(pe)
    H = laplace_from_pointeval(pe, met=met)
    jac_sq = np.einsum("...an,...an->...", pe.jacobian, pe.jacobian)
    scale = 1.0 + jac_sq

    if spec.spherical:
        minimality = sphere_residual_from_pointeval(
            pe, pe.jacobian.shape[-1], H=H) / scale
    else:
        minimality = np.linalg.norm(H, axis=-1) / scale

    rhs = np.einsum("...an,...a->...n", pe.jacobian, H)
    coeff = np.linalg.solve(met.g, rhs[..., None])[..., 0]
    tangential = np.linalg.norm(
        np.einsum("...an,...n->...a", pe.jacobian, coeff), axis=-1) / scale
    return minimality, tangential


def _summarize(name: str, residuals: np.ndarray, tolerance: float,
               expected: str, excluded: int,
               tol_negative: float) -> CheckResult:
    bad = int(np.count_nonzero(~np.isfinite(residuals)))
    if bad:
        raise NonFiniteResidual(f"{name}: {bad} of {len(residuals)} "
                                f"residuals are not finite")
    mx = float(np.max(residuals))
    mn = float(np.min(residuals))
    mean = float(np.mean(residuals))
    if expected == "FAIL-EXPECTED" and mn >= tol_negative:
        verdict = "FAIL-EXPECTED"
    else:
        verdict = "PASS" if mx <= tolerance else "FAIL"
    return CheckResult(name=name, max_residual=mx, mean_residual=mean,
                       min_residual=mn, points_evaluated=len(residuals),
                       points_excluded=excluded, tolerance=tolerance,
                       expected=expected, verdict=verdict)


def _finish(family_json, plan, tol, checks, started) -> VerificationReport:
    return VerificationReport(
        family=family_json, plan=plan.to_json(), tolerances=tol.to_json(),
        checks=tuple(checks), engine_version=__version__,
        wall_time=time.perf_counter() - started)


# ---------------------------------------------------------------------------
# Campaign runners
# ---------------------------------------------------------------------------


def verify_minimality(spec, plan: SamplePlan = SamplePlan(),
                      tol: TolerancePolicy = TolerancePolicy()
                      ) -> VerificationReport:
    """Sample the family and check that its mean curvature vanishes.

    Negative controls are expected to fail with every sampled residual
    at least tol_negative; their tangential residual must still pass,
    since the Laplacian of any immersion is normal to it.
    """
    started = time.perf_counter()
    imm = build_immersion(spec)
    _, rejected, pe = _sample_evaluated(imm, plan)
    minimality, tangential = _minimality_residuals(spec, pe)
    expected = "FAIL-EXPECTED" if is_negative_control(spec) else "PASS"
    checks = [
        _summarize("minimality", minimality, tol.tol_H, expected, rejected,
                   tol.tol_negative),
        _summarize("tangential-residual", tangential, tol.tol_H, "PASS",
                   rejected, tol.tol_negative),
    ]
    return _finish(spec_to_json(spec), plan, tol, checks, started)


def verify_screw_invariance(spec, plan: SamplePlan = SamplePlan(),
                            tol: TolerancePolicy = TolerancePolicy()
                            ) -> VerificationReport:
    """Check that advancing the sweep angle equals the ambient screw motion."""
    started = time.perf_counter()
    data = screw_data(spec)
    if data is None:
        raise SpecError(f"{type(spec).__name__} has no sweep angle; screw "
                        f"invariance does not apply")
    imm = build_immersion(spec)
    points, rejected = sample_points(imm, plan)
    angles = _aux_stream(plan, 1).uniform(-2 * np.pi, 2 * np.pi, plan.count)

    shifted = np.array(points, copy=True)
    shifted[:, data.theta_index] += angles
    moved = screw_action(data.pitch, angles, imm.position(points),
                         block_dims=data.block_dims,
                         axial_coordinate=data.axial_coordinate)
    residuals = np.max(np.abs(imm.position(shifted) - moved), axis=-1)

    checks = [_summarize("screw-invariance", residuals, SCREW_TOL, "PASS",
                         rejected, tol.tol_negative)]
    return _finish(spec_to_json(spec), plan, tol, checks, started)


def verify_cone_scaling(spec, plan: SamplePlan = SamplePlan(),
                        tol: TolerancePolicy = TolerancePolicy()
                        ) -> VerificationReport:
    """Check positive homogeneity in the ray parameters, plus minimality."""
    started = time.perf_counter()
    indices = scaling_indices(spec)
    if not indices:
        raise SpecError(
            f"{type(spec).__name__} is not a cone here (no scaling "
            f"parameters; a nonzero axial rate breaks homogeneity)")
    imm = build_immersion(spec)
    points, rejected, pe = _sample_evaluated(imm, plan)
    factors = _aux_stream(plan, 2).uniform(0.1, 10.0, plan.count)

    scaled = np.array(points, copy=True)
    scaled[:, list(indices)] *= factors[:, None]
    defect = imm.position(scaled) - factors[:, None] * imm.position(points)
    residuals = np.max(np.abs(defect), axis=-1)

    minimality, _ = _minimality_residuals(spec, pe)
    checks = [
        _summarize("cone-scaling", residuals, SCALING_TOL, "PASS", rejected,
                   tol.tol_negative),
        _summarize("minimality", minimality, tol.tol_H, "PASS", rejected,
                   tol.tol_negative),
    ]
    return _finish(spec_to_json(spec), plan, tol, checks, started)


def takahashi_equivalence(base, rays: int,
                          plan: SamplePlan = SamplePlan(),
                          tol: TolerancePolicy = TolerancePolicy()
                          ) -> TakahashiReport:
    """Sphere-minimality of a base, of its multi-ray join, and of its cone.

    The three verdicts stand or fall together; ``agreement`` records
    whether they in fact did.  All three routes use raw residuals (the
    sphere defect for the base and the join, the curvature norm for the
    cone) so a non-minimal base registers loudly on each.  A plan's
    explicit box, if any, applies to the base chart; the join and cone
    sample their own domains.
    """
    started = time.perf_counter()
    if not lands_on_unit_sphere(base):
        raise NotSpherical(
            f"{type(base).__name__} does not land on the unit sphere")
    if not isinstance(rays, int) or rays < 1:
        raise SpecError(f"ray count must be a positive integer, got {rays!r}")

    expected = ("FAIL-EXPECTED"
                if not isinstance(base, SphereChart)
                and is_negative_control(base) else "PASS")

    base_imm = _base_immersion(base)
    _, base_rej, base_pe = _sample_evaluated(base_imm, plan)
    base_res = sphere_residual_from_pointeval(base_pe, base_imm.param_dim)

    inner_plan = replace(plan, box=None)
    join_spec = SphericalJoin(xs=standard_chart(rays - 1), base=base)
    join_imm = build_immersion(join_spec)
    _, join_rej, join_pe = _sample_evaluated(join_imm, inner_plan)
    join_res = sphere_residual_from_pointeval(join_pe, join_imm.param_dim)

    cone_spec = LRaysCone(rays=rays, base=base)
    cone_imm = build_immersion(cone_spec)
    _, cone_rej, cone_pe = _sample_evaluated(cone_imm, inner_plan)
    cone_res = np.linalg.norm(laplace_from_pointeval(cone_pe), axis=-1)

    checks = (
        _summarize("sphere-base", base_res, tol.tol_H, expected, base_rej,
                   tol.tol_negative),
        _summarize("sphere-join", join_res, tol.tol_H, expected, join_rej,
                   tol.tol_negative),
        _summarize("cone-rays", cone_res, tol.tol_H, expected, cone_rej,
                   tol.tol_negative),
    )
    agreement = len({c.verdict for c in checks}) == 1
    return TakahashiReport(
        base=_base_to_json(base), rays=rays, plan=plan.to_json(),
        tolerances=tol.to_json(), checks=checks, agreement=agreement,
        engine_version=__version__,
        wall_time=time.perf_counter() - started)


# ---------------------------------------------------------------------------
# Default campaign
# ---------------------------------------------------------------------------


def default_campaign() -> tuple:
    """Representative positive instances of every family, plus controls."""
    return (
        ("clifford-torus", CliffordTorus(standard_block(1))),
        ("clifford-cone", CliffordCone(standard_block(1))),
        ("rays-clifford-cone", LRaysCliffordCone(rays=2,
                                                 block=standard_block(1))),
        ("helicoid-blocks", GenHelicoidA(
            pitch=PitchVector(0.8, (1.2, 0.7)),
            blocks=(standard_block(1), standard_block(1)))),
        ("helicoid-shared-torus", GenHelicoidB(
            rays=2, block=standard_block(1),
            angular_pitch=1.1, axial_pitch=0.6)),
        ("interleaved-helicoid", ChoeHoppe(
            sphere_dim=2, pitch=0.9,
            chart_p=standard_chart(1), chart_q=standard_chart(1))),
        ("planes-helicoid", BDJ(PitchVector(0.7, (1.0, 1.4)))),
        ("lawson-surface", LawsonSurface(1.0, 2.0)),
        ("paired-sphere-cone", HarveyLawsonCone(
            sphere_dim=1, chart_x=standard_chart(1),
            chart_y=standard_chart(1))),
        ("helicoid-slice", SphericalSlice(inner=GenHelicoidA(
            pitch=PitchVector(0.0, (1.0, 1.3)),
            blocks=(standard_block(1), standard_block(1))))),
        ("control-latitude", LatitudeCircle(0.5)),
        ("control-cylinder", Cylinder(1.0)),
    )
