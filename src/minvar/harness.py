"""Sampling plans, tolerance policy, and verification campaign runners.

A campaign samples non-excluded parameter points deterministically,
evaluates a residual per point, and condenses the result into verdict
records.  The checks of one family share one campaign core, which
samples the plan once; ``verify_minimality``, ``verify_screw_invariance``
and ``verify_cone_scaling`` are its one-check calls.  A sample's uniform
draws are addressed by (seed, point, draw index): ``streams`` seeds every
point's stream once and computes a whole round of draws at once,
bit-identical to numpy's ``SeedSequence(seed, spawn_key=(point,))`` PCG64
streams, so no per-point ``Generator`` is built.  Positive families must
PASS; registered negative controls must FAIL by a wide margin
(FAIL-EXPECTED), so a trivially-agreeing engine cannot slip through.  Each
draw is evaluated once: the ``PointEval`` that screening computed for the
accepted draws, with the Gram matrix of the metric-floor test that guards
every immersion, feeds the residual stage, and every residual reads
H = Δ_g F (``laplace_from_pointeval``; ``mean_curvature`` where the
tangential residual is judged too).
Reports serialize to versioned JSON and are deterministic for a fixed
(spec, plan, tolerance) triple, except for the wall-time stamp.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
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
    _base_to_json,
    _check_rays,
    _finite_box,
    _finite_fields,
    _object_from_json,
    _object_to_json,
    _value_to_json,
    build_immersion,
    lands_on_unit_sphere,
    scaling_indices,
    screw_action,
    screw_data,
    spec_to_json,
    standard_block,
    standard_chart,
)
from .geometry import (
    Block,
    Immersion,
    PointEval,
    laplace_from_pointeval,
    mean_curvature,
    sphere_residual_from_pointeval,
)
from .streams import rows_from_words, seed_words

__all__ = [
    "SamplePlan",
    "TolerancePolicy",
    "CheckResult",
    "VerificationReport",
    "TakahashiReport",
    "IdentitiesReport",
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
    box: tuple[tuple[float, ...], ...] | None = None  # (lo, hi) per parameter
    max_rejects: int = 200

    def __post_init__(self):
        if type(self.count) is not int or self.count < 1:
            raise SpecError(f"plan count must be a positive integer, "
                            f"got {self.count!r}")
        if self.count >= 2 ** 32:
            # a point index is one 32-bit word of its stream's spawn key
            raise SpecError(f"plan count must be below 2**32, "
                            f"got {self.count!r}")
        if type(self.seed) is not int or not 0 <= self.seed < 2 ** 64:
            raise SpecError(f"seed must be a 64-bit unsigned integer, "
                            f"got {self.seed!r}")
        if type(self.max_rejects) is not int or self.max_rejects < 1:
            raise SpecError(f"max_rejects must be a positive integer, "
                            f"got {self.max_rejects!r}")
        if self.box is not None:
            box = _finite_box(self.box, "sampling interval")
            for lo, hi in box:
                if not lo < hi:
                    raise SpecError(f"empty sampling interval ({lo}, {hi})")
            object.__setattr__(self, "box", box)

    def to_json(self) -> dict:
        # unlike a family spec, the plan echo writes an absent box as null
        return {f.name: _value_to_json(getattr(self, f.name))
                for f in fields(self)}

    @staticmethod
    def from_json(d: dict) -> "SamplePlan":
        return _object_from_json(SamplePlan, d, "plan")


@dataclass(frozen=True)
class TolerancePolicy:
    """Pass/fail thresholds for residual checks."""

    tol_H: float = 1e-8
    tol_identity: float = 1e-9
    tol_negative: float = 1e-2

    def __post_init__(self):
        _finite_fields(self, *(f.name for f in fields(self)))
        for f in fields(self):
            if not getattr(self, f.name) > 0.0:
                raise SpecError(f"{f.name} must be positive")
        if self.tol_negative < 1e3 * self.tol_H:
            raise SpecError(
                f"tol_negative ({self.tol_negative:g}) must exceed tol_H "
                f"({self.tol_H:g}) by at least 1000x; controls must fail "
                f"loudly, not marginally")

    def to_json(self) -> dict:
        return _object_to_json(self)

    @staticmethod
    def from_json(d: dict) -> "TolerancePolicy":
        return _object_from_json(TolerancePolicy, d, "tolerances")


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
        return _object_to_json(self)

    @staticmethod
    def from_json(d: dict) -> "CheckResult":
        return _object_from_json(CheckResult, d, "check")


class _Report:
    """A versioned report document: version and kind, then the fields."""

    def to_json(self) -> dict:
        return {"version": REPORT_VERSION, "kind": self.kind,
                **_object_to_json(self)}

    @property
    def all_expected(self) -> bool:
        return all(c.as_expected for c in self.checks)


@dataclass(frozen=True)
class VerificationReport(_Report):
    """Verdicts of one family's campaign, with config echoes."""

    family: dict
    plan: dict
    tolerances: dict
    checks: tuple[CheckResult, ...]
    engine_version: str
    wall_time: float = field(compare=False)

    kind = "verification-report"


@dataclass(frozen=True)
class TakahashiReport(_Report):
    """Three-way sphere/join/cone equivalence verdicts for one base."""

    base: dict
    rays: int
    plan: dict
    tolerances: dict
    checks: tuple[CheckResult, ...]
    agreement: bool
    engine_version: str
    wall_time: float = field(compare=False)

    kind = "takahashi-report"

    @property
    def all_expected(self) -> bool:
        return self.agreement and super().all_expected


@dataclass(frozen=True)
class IdentitiesReport(_Report):
    """Verdicts of one identities run: one check per CSV column."""

    family: dict
    plan: dict
    tolerances: dict
    checks: tuple[CheckResult, ...]

    kind = "identities-report"


_REPORT_KINDS = {cls.kind: cls for cls in (VerificationReport,
                                           TakahashiReport,
                                           IdentitiesReport)}


def _check_report_version(d: dict, what: str = "report") -> None:
    """SpecError unless ``d`` carries the integer ``REPORT_VERSION``."""
    version = d.get("version")
    if type(version) is not int or version != REPORT_VERSION:
        raise SpecError(f"unsupported {what} version {version!r}")


def report_from_json(d: dict):
    """Parse any report kind back into its dataclass (strict keys)."""
    if not isinstance(d, dict):
        raise SpecError("report must be a JSON object")
    _check_report_version(d)
    kind = d.get("kind")
    cls = _REPORT_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise SpecError(f"unknown report kind {kind!r}")
    body = {k: v for k, v in d.items() if k not in ("version", "kind")}
    return _object_from_json(cls, body, "report")


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample_points(imm: Immersion, plan: SamplePlan):
    """Draw plan.count non-excluded points; returns (points, rejected).

    Each point has its own stream, numpy's PCG64 seeded by
    ``SeedSequence(seed, spawn_key=(index,))``, so serial and parallel
    evaluation orders produce identical samples.  A draw is addressed by
    (seed, index, draw index) and computed directly, without a
    ``Generator`` per point.  Sampling runs in rounds: round r draws the
    next candidate of every pending point, draws r n to (r + 1) n of its
    stream for n parameters, in one ``rows_from_words`` call on the seed
    words formed once per sample, and screens the stacked batch once
    (``imm.excluded``: the predicates and the metric floor that guards
    every immersion, from first-order work); only rejected rows stay
    pending.  Points and reject counts match a point-by-point loop over
    numpy's generators bit for bit.  A campaign that reads H runs the same
    loop through ``imm.screen``, whose mask is the same, and keeps the
    accepted rows of each round's ``PointEval``.  ``plan.count`` is below
    2^32, one spawn-key word.
    """
    return _sample(imm, plan, evaluate=False)[:2]


def _sample(imm: Immersion, plan: SamplePlan, evaluate: bool = True):
    """The rejection loop of ``sample_points``; returns (points, rejected, pe).

    ``pe`` is the PointEval of ``points`` that screening computed, with
    the floor test's ``gram``; without ``evaluate`` the rounds screen
    with ``imm.excluded`` and ``pe`` is None.
    """
    box = np.asarray(plan.box if plan.box is not None else imm.domain,
                     dtype=float)
    if box.shape != (imm.param_dim, 2):
        raise SpecError(f"sampling box has shape {box.shape}, expected "
                        f"({imm.param_dim}, 2)")
    n = imm.param_dim
    points = np.empty((plan.count, n))
    pending = np.arange(plan.count)
    words = seed_words(plan.seed, pending)      # seeded once, not per round
    pieces = []                 # (point indices, round's PointEval, rows)
    rejected = 0
    for r in range(plan.max_rejects):
        # the operations of Generator.uniform, applied to the whole batch
        u = rows_from_words(words, r * n, n)
        draws = box[:, 0] + (box[:, 1] - box[:, 0]) * u
        if evaluate:
            bad, pe = imm.screen(draws)
        else:
            bad, pe = imm.excluded(draws), None
        ok = ~bad
        points[pending[ok]] = draws[ok]
        pieces.append((pending[ok], pe, ok))
        pending, words = pending[bad], words[:, :, bad]
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
    return points, rejected, \
        _in_point_order(pieces, plan.count) if evaluate else None


def _in_point_order(pieces: list, count: int) -> PointEval:
    """One PointEval of all points from each round's accepted rows.

    Each block's Hessians and the screen's ``gram`` are gathered with the
    other rows; every round has the same blocks.
    """
    if len(pieces) == 1:
        return pieces[0][1]             # round 1 accepted every point

    def gather(parts):                  # one array per round
        out = np.empty((count,) + parts[0].shape[1:])
        for (indices, _, rows), part in zip(pieces, parts):
            out[indices] = part[rows]
        return out
    pes = [pe for _, pe, _ in pieces]
    blocks = tuple(
        Block(rows, support, gather([pe.blocks[b].hess for pe in pes]))
        for b, (rows, support, _) in enumerate(pes[0].blocks))
    return PointEval(position=gather([pe.position for pe in pes]),
                     jacobian=gather([pe.jacobian for pe in pes]),
                     blocks=blocks,
                     gram=tuple(map(gather, zip(*(pe.gram for pe in pes)))))


def _aux_stream(plan: SamplePlan, label: int) -> np.random.Generator:
    """Auxiliary deterministic stream (screw angles, scale factors)."""
    return np.random.default_rng(
        np.random.SeedSequence(plan.seed, spawn_key=(1 << 20, label)))


# ---------------------------------------------------------------------------
# Residual evaluation
# ---------------------------------------------------------------------------


def _minimality(pe: PointEval, H: np.ndarray, spherical: bool) -> np.ndarray:
    """The raw minimality residual of H = Δ_g F at ``pe``.

    An immersion into the unit sphere is judged by the sphere target
    ‖n F + H‖, a Euclidean one by ‖H‖ alone, as ``mean_curvature``'s
    ``H_norm`` computes it.
    """
    if spherical:
        return sphere_residual_from_pointeval(pe, H=H)
    return np.linalg.norm(H, axis=-1)


def _minimality_residuals(spec, pe: PointEval):
    """(normalized minimality, normalized tangential) residual arrays.

    ``_minimality`` and ``mean_curvature``'s tangential residual, each
    divided by 1 + the squared Frobenius norm of the Jacobian, so one
    tolerance serves every cone radius.
    """
    scale = 1.0 + np.einsum("...an,...an->...", pe.jacobian, pe.jacobian)
    mc = mean_curvature(pe)
    return (_minimality(pe, mc.H, spec.spherical) / scale,
            mc.tangential_residual / scale)


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


# ---------------------------------------------------------------------------
# Campaign runners
# ---------------------------------------------------------------------------


def _check_applicable(spec, checks) -> None:
    """Raise for the first of ``checks`` that ``spec`` cannot run."""
    for name in checks:
        if name == "screw" and screw_data(spec) is None:
            raise SpecError(f"{type(spec).__name__} has no sweep angle; "
                            f"screw invariance does not apply")
        if name == "cone-scaling" and not scaling_indices(spec):
            raise SpecError(
                f"{type(spec).__name__} is not a cone here (no scaling "
                f"parameters; a nonzero axial rate breaks homogeneity)")
        if name == "takahashi" and not lands_on_unit_sphere(spec):
            raise NotSpherical(
                f"{type(spec).__name__} does not land on the unit sphere")


def _verify(spec, checks, plan: SamplePlan, tol: TolerancePolicy,
            rays: int = 2) -> list:
    """One report per check name, in order, from one sample of ``plan``.

    The sample is second order, forming H once, when minimality or
    cone-scaling reads H, else first order; its positions are the images
    that screws and scalings move.  Takahashi samples its own ``rays``-ray
    routes; each other report's wall time adds the shared sample's.
    """
    _check_applicable(spec, checks)
    started = time.perf_counter()
    if set(checks) - {"takahashi"}:
        imm = build_immersion(spec)
        reads_h = not {"minimality", "cone-scaling"}.isdisjoint(checks)
        points, rejected, pe = _sample(imm, plan, evaluate=reads_h)
        position = imm.position(points) if pe is None else pe.position
        if reads_h:
            minimality, tangential = _minimality_residuals(spec, pe)
    shared = time.perf_counter() - started

    def summarize(name, residuals, tolerance, expected="PASS"):
        return _summarize(name, residuals, tolerance, expected, rejected,
                          tol.tol_negative)

    reports = []
    for name in checks:
        started = time.perf_counter() - shared
        if name == "takahashi":
            reports.append(takahashi_equivalence(spec, rays, plan, tol))
            continue
        if name == "minimality":
            results = [
                summarize("minimality", minimality, tol.tol_H,
                          "FAIL-EXPECTED" if spec.control else "PASS"),
                summarize("tangential-residual", tangential, tol.tol_H)]
        elif name == "screw":
            data = screw_data(spec)
            angles = _aux_stream(plan, 1).uniform(-2 * np.pi, 2 * np.pi,
                                                  plan.count)
            shifted = np.array(points, copy=True)
            shifted[:, data.theta_index] += angles
            moved = screw_action(data.pitch, angles, position)
            residuals = np.max(np.abs(imm.position(shifted) - moved), axis=-1)
            results = [summarize("screw-invariance", residuals, SCREW_TOL)]
        else:
            factors = _aux_stream(plan, 2).uniform(0.1, 10.0, plan.count)
            scaled = np.array(points, copy=True)
            scaled[:, list(scaling_indices(spec))] *= factors[:, None]
            defect = imm.position(scaled) - factors[:, None] * position
            residuals = np.max(np.abs(defect), axis=-1)
            results = [summarize("cone-scaling", residuals, SCALING_TOL),
                       summarize("minimality", minimality, tol.tol_H)]
        reports.append(VerificationReport(
            family=spec_to_json(spec), plan=plan.to_json(),
            tolerances=tol.to_json(), checks=tuple(results),
            engine_version=__version__,
            wall_time=time.perf_counter() - started))
    return reports


def verify_minimality(spec, plan: SamplePlan = SamplePlan(),
                      tol: TolerancePolicy = TolerancePolicy()
                      ) -> VerificationReport:
    """Sample the family and check that its mean curvature vanishes.

    Negative controls are expected to fail with every sampled residual
    at least tol_negative; their tangential residual must still pass,
    since the Laplacian of any immersion is normal to it.
    """
    return _verify(spec, ("minimality",), plan, tol)[0]


def verify_screw_invariance(spec, plan: SamplePlan = SamplePlan(),
                            tol: TolerancePolicy = TolerancePolicy()
                            ) -> VerificationReport:
    """Check that advancing the sweep angle equals the ambient screw motion."""
    return _verify(spec, ("screw",), plan, tol)[0]


def verify_cone_scaling(spec, plan: SamplePlan = SamplePlan(),
                        tol: TolerancePolicy = TolerancePolicy()
                        ) -> VerificationReport:
    """Check positive homogeneity in the ray parameters, plus minimality."""
    return _verify(spec, ("cone-scaling",), plan, tol)[0]


def takahashi_equivalence(base, rays: int,
                          plan: SamplePlan = SamplePlan(),
                          tol: TolerancePolicy = TolerancePolicy()
                          ) -> TakahashiReport:
    """Sphere-minimality of a base, of its multi-ray join, and of its cone.

    The three verdicts stand or fall together; ``agreement`` records
    whether they in fact did.  All three routes use the raw
    ``_minimality`` (the sphere defect for the base and the join, the
    curvature norm for the cone) so a non-minimal base registers loudly on
    each; they read H = Δ_g F alone and solve for no tangential part.  A
    plan's explicit box, if any, applies to the base chart; the join and
    cone sample their own domains.
    """
    started = time.perf_counter()
    _check_applicable(base, ("takahashi",))
    _check_rays(rays)

    expected = "FAIL-EXPECTED" if base.control else "PASS"

    inner_plan = replace(plan, box=None)
    join = SphericalJoin(xs=standard_chart(rays - 1), base=base)
    routes = (
        ("sphere-base", base.build(), plan, True),
        ("sphere-join", build_immersion(join), inner_plan, True),
        ("cone-rays", build_immersion(LRaysCone(rays=rays, base=base)),
         inner_plan, False),
    )
    checks = []
    for name, imm, route_plan, spherical in routes:
        _, rejected, pe = _sample(imm, route_plan)
        residuals = _minimality(pe, laplace_from_pointeval(pe), spherical)
        checks.append(_summarize(name, residuals, tol.tol_H, expected,
                                 rejected, tol.tol_negative))
    agreement = len({c.verdict for c in checks}) == 1
    return TakahashiReport(
        base=_base_to_json(base), rays=rays, plan=plan.to_json(),
        tolerances=tol.to_json(), checks=tuple(checks), agreement=agreement,
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
