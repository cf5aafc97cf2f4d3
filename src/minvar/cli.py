"""Command-line front end: verification runs, identity sweeps, mesh export.

Each subcommand decodes its versioned JSON config into its own dataclass
with the typed codec of ``families`` (strict keys, typed values):

* ``verify``     runs the checks (minimality, screw, cone-scaling,
                 takahashi) against a family from one sample of its plan
                 and writes one report per check, in order.
* ``identities`` evaluates the lemma/algebra/harmonicity/proof-term
                 residuals over the sample points in one batched call
                 per check and writes one CSV row per point.
* ``mesh``       tessellates a family over a parameter grid to an OBJ file.
* ``takahashi``  runs the three-way sphere/join/cone equivalence.

Exit codes: 0 when every verdict matches its expectation, 1 when any
verdict mismatches, 2 for configuration or domain errors (reported on
standard error, before any evaluation where possible: a verify check that
does not apply to its family is rejected when the config is parsed).
A command prints and writes its reports once all of them exist.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from .errors import MinvarError, SpecError
from .families import (
    BaseSpec,
    CliffordTorus,
    FamilySpec,
    GenHelicoidA,
    _check_rays,
    _object_from_json,
    _value_from_json,
    build_immersion,
    spec_to_json,
)
from .harness import (
    REPORT_VERSION,
    IdentitiesReport,
    SamplePlan,
    TakahashiReport,
    TolerancePolicy,
    _check_applicable,
    _check_report_version,
    _summarize,
    _verify,
    report_from_json,
    sample_points,
    takahashi_equivalence,
)
from .identities import (
    helicoid_algebra,
    lemma_magic_residuals,
    proof_terms,
    theta_harmonicity,
)
from .mesh import tessellate, write_obj

__all__ = ["VerifyConfig", "IdentitiesConfig", "MeshConfig",
           "TakahashiConfig", "main", "load_reports"]

CONFIG_VERSION = 1
VERIFY_CHECKS = ("minimality", "screw", "cone-scaling", "takahashi")
IDENTITY_CHECKS = ("lemma", "helicoid-algebra", "theta-harmonicity",
                   "proof-terms")


@dataclass(frozen=True)
class Output:
    """Output paths; each command writes the ones it produces."""

    report: str | None = None
    csv: str | None = None
    mesh: str | None = None


@dataclass(frozen=True, kw_only=True)
class _Config:
    version: int
    output: Output = Output()

    def __post_init__(self):
        if self.version != CONFIG_VERSION:
            raise SpecError(f"unsupported config version {self.version!r}")


@dataclass(frozen=True, kw_only=True)
class _SampledConfig(_Config):
    plan: SamplePlan = SamplePlan()
    tolerances: TolerancePolicy = TolerancePolicy()


@dataclass(frozen=True, kw_only=True)
class VerifyConfig(_SampledConfig):
    family: FamilySpec
    checks: tuple[str, ...]
    rays: int = 2                   # rays of the takahashi check's cone

    def __post_init__(self):
        super().__post_init__()
        _check_names(self.checks, VERIFY_CHECKS)
        _check_rays(self.rays)
        _check_applicable(self.family, self.checks)


@dataclass(frozen=True, kw_only=True)
class IdentitiesConfig(_SampledConfig):
    family: FamilySpec
    checks: tuple[str, ...]

    def __post_init__(self):
        super().__post_init__()
        _check_names(self.checks, IDENTITY_CHECKS)
        lemma = "lemma" in self.checks
        if lemma and set(self.checks) != {"lemma"}:
            raise SpecError("the lemma check samples torus charts and "
                            "cannot share a run with helicoid checks")
        family = CliffordTorus if lemma else GenHelicoidA
        if not isinstance(self.family, family):
            raise SpecError(f"the {self.checks[0]} check needs a "
                            f"{family.__name__} family")


@dataclass(frozen=True, kw_only=True)
class TakahashiConfig(_SampledConfig):
    base: BaseSpec
    rays: int

    def __post_init__(self):
        super().__post_init__()
        _check_rays(self.rays)


@dataclass(frozen=True, kw_only=True)
class MeshConfig(_Config):
    family: FamilySpec
    resolution: int | tuple[int, int] = (64, 64)
    axes: tuple[int, int] = (0, 1)
    fixed: dict[int, float] = field(default_factory=dict)
    projection: str | tuple[int, int, int] = (0, 1, 2)
    box: tuple[tuple[float, float], ...] | None = None


def _check_names(checks: tuple[str, ...], allowed: tuple[str, ...]) -> None:
    if not checks:
        raise SpecError("checks must be a non-empty list of check names")
    for i, name in enumerate(checks):
        if name not in allowed:
            raise SpecError(f"unknown check {name!r}; expected one of "
                            f"{', '.join(allowed)}")
        if name in checks[:i]:
            raise SpecError(f"check {name!r} is named more than once")


def parse_config(doc: dict, command: str):
    """Validate a config document for one command; no evaluation happens."""
    return _object_from_json(_COMMANDS[command][0], doc, "config")


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _write_json(doc: dict, path: str | None) -> None:
    if not path:
        return
    # serialize first: a non-finite float raises before the file is opened
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with io.open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text + "\n")


def _write_csv(columns: list[str], rows: np.ndarray, path: str | None) -> None:
    if not path:
        return
    with io.open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["point", *columns])
        for i, row in enumerate(rows):
            writer.writerow([i, *(repr(float(x)) for x in row)])


def load_reports(doc: dict) -> list:
    """Reports from a written document (single report or a report list)."""
    if isinstance(doc, dict) and doc.get("kind") == "report-list":
        _check_report_version(doc, "report-list")
        reports = _value_from_json(tuple[dict, ...], doc.get("reports"),
                                   "report-list.reports")
        return [report_from_json(r) for r in reports]
    return [report_from_json(doc)]


def _conclude(spec, reports: list, path: str | None) -> int:
    """Print each report's verdicts, write the reports, give the exit code."""
    label = type(spec).__name__
    for report in reports:
        for c in report.checks:
            marker = "ok" if c.as_expected else "MISMATCH"
            print(f"{label}:{c.name}: {c.verdict} [{marker}] "
                  f"max={c.max_residual:.3e} tol={c.tolerance:g}")
        if isinstance(report, TakahashiReport):
            print(f"{label}:agreement: {report.agreement}")
    doc = reports[0].to_json() if len(reports) == 1 else {
        "version": REPORT_VERSION, "kind": "report-list",
        "reports": [r.to_json() for r in reports]}
    _write_json(doc, path)
    return 0 if all(r.all_expected for r in reports) else 1


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_verify(config: VerifyConfig) -> int:
    reports = _verify(config.family, config.checks, config.plan,
                      config.tolerances, config.rays)
    return _conclude(config.family, reports, config.output.report)


def _lemma_rows(config: IdentitiesConfig):
    block = config.family.block
    points, rejected = sample_points(block.immersion(), config.plan)
    res = lemma_magic_residuals(block, points)
    rows = np.stack([np.maximum(res.res_a1, res.res_a2), res.res_b,
                     res.res_c, res.res_d, res.res_e], axis=-1)
    columns = ["res_a", "res_b", "res_c", "res_d", "res_e"]
    tols = [config.tolerances.tol_identity] * 5
    return columns, tols, rows, rejected


def _helicoid_rows(config: IdentitiesConfig):
    spec = config.family
    points, rejected = sample_points(build_immersion(spec), config.plan)
    columns, tols, parts = [], [], []
    tol = config.tolerances
    if "helicoid-algebra" in config.checks:
        alg = helicoid_algebra(spec, points)
        columns += ["det_defect", "inverse_defect"]
        tols += [tol.tol_identity] * 2
        parts += [alg.det_defect, alg.inverse_defect]
    if "theta-harmonicity" in config.checks:
        harm = theta_harmonicity(spec, points)
        columns += ["theta_laplacian", "block_divergence"]
        tols += [tol.tol_H] * 2
        parts += [harm.theta_laplacian, harm.block_divergence]
    if "proof-terms" in config.checks:
        worst_sum = worst_op = 0.0
        for t in range(1, len(spec.blocks) + 1):
            terms = proof_terms(spec, t, points)
            worst_sum = np.maximum(worst_sum, terms.sum_norm
                                   / np.maximum(1.0, terms.scale))
            worst_op = np.maximum(worst_op, terms.operator_defect)
        columns += ["sum_cancellation", "operator_defect"]
        tols += [tol.tol_H, 10.0 * tol.tol_H]
        parts += [worst_sum, worst_op]
    return columns, tols, np.stack(parts, axis=-1), rejected


def cmd_identities(config: IdentitiesConfig) -> int:
    if set(config.checks) == {"lemma"}:
        columns, tols, rows, rejected = _lemma_rows(config)
    else:
        columns, tols, rows, rejected = _helicoid_rows(config)
    # every column is judged before the CSV is written: a non-finite
    # residual exits 2 with no partial answer on disk
    checks = [
        _summarize(name, rows[:, j], tols[j], "PASS", rejected,
                   config.tolerances.tol_negative)
        for j, name in enumerate(columns)
    ]
    _write_csv(columns, rows, config.output.csv)
    report = IdentitiesReport(family=spec_to_json(config.family),
                              plan=config.plan.to_json(),
                              tolerances=config.tolerances.to_json(),
                              checks=tuple(checks))
    return _conclude(config.family, [report], config.output.report)


def cmd_mesh(config: MeshConfig) -> int:
    path = config.output.mesh
    if not path:
        raise SpecError("mesh command needs an output path "
                        "(config output.mesh or --out)")
    mesh = tessellate(config.family, resolution=config.resolution,
                      axes=config.axes, fixed=config.fixed,
                      box=config.box, projection=config.projection)
    write_obj(mesh, path)
    print(f"wrote {len(mesh.vertices)} vertices, {len(mesh.faces)} "
          f"triangles to {path}")
    return 0


def cmd_takahashi(config: TakahashiConfig) -> int:
    report = takahashi_equivalence(config.base, config.rays, config.plan,
                                   config.tolerances)
    return _conclude(config.base, [report], config.output.report)


# command -> (config class, runner, the output that --out names)
_COMMANDS = {
    "verify": (VerifyConfig, cmd_verify, "report"),
    "identities": (IdentitiesConfig, cmd_identities, "csv"),
    "mesh": (MeshConfig, cmd_mesh, "mesh"),
    "takahashi": (TakahashiConfig, cmd_takahashi, "report"),
}


@cache       # built once per process; parsing leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minvar",
        description="verify minimal-submanifold families numerically")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (config, func, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=func.__doc__)
        p.add_argument("config", help="path to a JSON config file")
        if issubclass(config, _SampledConfig):
            p.add_argument("--seed", type=int, default=None,
                           help="override plan.seed")
            p.add_argument("--points", type=int, default=None, dest="count",
                           help="override plan.count")
        p.add_argument("--out", default=None,
                       help="override the command's primary output path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with io.open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        _, run, primary = _COMMANDS[args.command]
        config = parse_config(doc, args.command)
        plan = {k: v for k in ("seed", "count")
                if (v := vars(args).get(k)) is not None}
        if plan:
            config = replace(config, plan=replace(config.plan, **plan))
        if args.out is not None:
            config = replace(config, output=replace(config.output,
                                                    **{primary: args.out}))
        return run(config)
    except (MinvarError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
