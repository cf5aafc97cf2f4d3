"""Command-line front end: verification runs, identity sweeps, mesh export.

Four subcommands share one JSON config shape (versioned, strict keys):

* ``verify``     runs sampling campaigns (minimality, screw, cone-scaling,
                 takahashi) against a family and writes a report.
* ``identities`` evaluates the lemma/algebra/harmonicity/proof-term
                 residuals per sample point and writes them as CSV.
* ``mesh``       tessellates a family over a parameter grid to an OBJ file.
* ``takahashi``  runs the three-way sphere/join/cone equivalence.

Exit codes: 0 when every verdict matches its expectation, 1 when any
verdict mismatches, 2 for configuration or domain errors (reported on
standard error, before any evaluation where possible).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import MinvarError, SpecError
from .families import (
    CliffordTorus,
    GenHelicoidA,
    _base_from_json,
    _base_to_json,
    _check_keys,
    build_immersion,
    spec_from_json,
    spec_to_json,
)
from .harness import (
    SamplePlan,
    TolerancePolicy,
    _summarize,
    sample_points,
    takahashi_equivalence,
    verify_cone_scaling,
    verify_minimality,
    verify_screw_invariance,
)
from .identities import (
    helicoid_algebra,
    lemma_magic_residuals,
    proof_terms,
    theta_harmonicity,
)
from .mesh import tessellate, write_obj

__all__ = ["RunConfig", "main", "load_reports"]

CONFIG_VERSION = 1
VERIFY_CHECKS = ("minimality", "screw", "cone-scaling", "takahashi")
IDENTITY_CHECKS = ("lemma", "helicoid-algebra", "theta-harmonicity",
                   "proof-terms")


@dataclass(frozen=True)
class RunConfig:
    """One parsed config file; fields unused by a command stay at defaults."""

    family: object = None
    plan: SamplePlan = SamplePlan()
    tolerances: TolerancePolicy = TolerancePolicy()
    checks: tuple[str, ...] = ()
    output: dict = field(default_factory=dict)
    rays: int = 2
    resolution: object = (64, 64)
    axes: tuple = (0, 1)
    fixed: dict = field(default_factory=dict)
    projection: object = (0, 1, 2)
    box: object = None


_SCHEMAS = {
    "verify": ({"version", "family", "checks"},
               {"plan", "tolerances", "output", "rays"}),
    "identities": ({"version", "family", "checks"},
                   {"plan", "tolerances", "output"}),
    "mesh": ({"version", "family"},
             {"resolution", "axes", "fixed", "projection", "box", "output"}),
    "takahashi": ({"version", "base", "rays"},
                  {"plan", "tolerances", "output"}),
}


def _parse_rays(value) -> int:
    if not isinstance(value, int) or value < 1:
        raise SpecError(f"rays must be a positive integer, got {value!r}")
    return value


def _parse_checks(value, allowed: tuple[str, ...]) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise SpecError("checks must be a non-empty list of check names")
    for name in value:
        if name not in allowed:
            raise SpecError(f"unknown check {name!r}; expected one of "
                            f"{', '.join(allowed)}")
    return tuple(value)


def parse_config(doc: dict, command: str) -> RunConfig:
    """Validate a config document for one command; no evaluation happens."""
    required, optional = _SCHEMAS[command]
    _check_keys(doc, required, optional, "config")
    if doc["version"] != CONFIG_VERSION:
        raise SpecError(f"unsupported config version {doc['version']!r}")

    output = doc.get("output", {})
    _check_keys(output, set(), {"report", "csv", "mesh"}, "config output")
    kwargs = {"output": dict(output)}

    if command == "takahashi":
        kwargs["family"] = _base_from_json(doc["base"], "base")
        kwargs["rays"] = _parse_rays(doc["rays"])
    else:
        kwargs["family"] = spec_from_json(doc["family"])
    if command in ("verify", "identities", "takahashi"):
        kwargs["plan"] = SamplePlan.from_json(doc.get("plan", {}))
        kwargs["tolerances"] = TolerancePolicy.from_json(
            doc.get("tolerances", {}))
    if command == "verify":
        kwargs["checks"] = _parse_checks(doc["checks"], VERIFY_CHECKS)
        if "rays" in doc:
            kwargs["rays"] = _parse_rays(doc["rays"])
    if command == "identities":
        kwargs["checks"] = _parse_checks(doc["checks"], IDENTITY_CHECKS)
        lemma_only = set(kwargs["checks"]) == {"lemma"}
        if lemma_only and not isinstance(kwargs["family"], CliffordTorus):
            raise SpecError("the lemma check needs a CliffordTorus family")
        if not lemma_only:
            if "lemma" in kwargs["checks"]:
                raise SpecError("the lemma check samples torus charts and "
                                "cannot share a run with helicoid checks")
            if not isinstance(kwargs["family"], GenHelicoidA):
                raise SpecError(f"{kwargs['checks'][0]} needs a GenHelicoidA "
                                f"family")
    if command == "mesh":
        kwargs["resolution"] = doc.get("resolution", (64, 64))
        kwargs["axes"] = tuple(doc.get("axes", (0, 1)))
        kwargs["fixed"] = {int(k): float(v)
                           for k, v in doc.get("fixed", {}).items()}
        kwargs["projection"] = doc.get("projection", (0, 1, 2))
        if not isinstance(kwargs["projection"], str):
            kwargs["projection"] = tuple(kwargs["projection"])
        box = doc.get("box")
        kwargs["box"] = None if box is None else tuple(map(tuple, box))
    return RunConfig(**kwargs)


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


def _print_checks(label: str, checks) -> None:
    for c in checks:
        marker = "ok" if c.as_expected else "MISMATCH"
        print(f"{label}:{c.name}: {c.verdict} [{marker}] "
              f"max={c.max_residual:.3e} tol={c.tolerance:g}")


def load_reports(doc: dict) -> list:
    """Reports from a written document (single report or a report list)."""
    from .harness import report_from_json
    if isinstance(doc, dict) and doc.get("kind") == "report-list":
        return [report_from_json(r) for r in doc["reports"]]
    return [report_from_json(doc)]


def _reports_doc(reports: list) -> dict:
    if len(reports) == 1:
        return reports[0].to_json()
    return {"version": CONFIG_VERSION, "kind": "report-list",
            "reports": [r.to_json() for r in reports]}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_verify(config: RunConfig) -> int:
    runners = {
        "minimality": lambda: verify_minimality(
            config.family, config.plan, config.tolerances),
        "screw": lambda: verify_screw_invariance(
            config.family, config.plan, config.tolerances),
        "cone-scaling": lambda: verify_cone_scaling(
            config.family, config.plan, config.tolerances),
        "takahashi": lambda: takahashi_equivalence(
            config.family, config.rays, config.plan, config.tolerances),
    }
    label = type(config.family).__name__
    reports = []
    for name in config.checks:
        report = runners[name]()
        reports.append(report)
        _print_checks(label, report.checks)
        if name == "takahashi":
            print(f"{label}:agreement: {report.agreement}")
    _write_json(_reports_doc(reports), config.output.get("report"))
    return 0 if all(r.all_expected for r in reports) else 1


def _lemma_rows(config: RunConfig):
    block = config.family.block
    points, _ = sample_points(block.immersion(), config.plan)
    rows = np.empty((len(points), 5))
    for i, u in enumerate(points):
        res = lemma_magic_residuals(block, u)
        rows[i] = (max(res.res_a1, res.res_a2), res.res_b, res.res_c,
                   res.res_d, res.res_e)
    columns = ["res_a", "res_b", "res_c", "res_d", "res_e"]
    tols = [config.tolerances.tol_identity] * 5
    return columns, tols, rows


def _helicoid_rows(config: RunConfig):
    spec = config.family
    points, _ = sample_points(build_immersion(spec), config.plan)
    columns, tols, chunks = [], [], []
    tol = config.tolerances
    if "helicoid-algebra" in config.checks:
        part = np.empty((len(points), 2))
        for i, p in enumerate(points):
            alg = helicoid_algebra(spec, p)
            part[i] = (alg.det_defect, alg.inverse_defect)
        columns += ["det_defect", "inverse_defect"]
        tols += [tol.tol_identity] * 2
        chunks.append(part)
    if "theta-harmonicity" in config.checks:
        part = np.empty((len(points), 2))
        for i, p in enumerate(points):
            harm = theta_harmonicity(spec, p)
            part[i] = (harm.theta_laplacian, harm.block_divergence)
        columns += ["theta_laplacian", "block_divergence"]
        tols += [tol.tol_H] * 2
        chunks.append(part)
    if "proof-terms" in config.checks:
        part = np.empty((len(points), 2))
        for i, p in enumerate(points):
            worst_sum = worst_op = 0.0
            for t in range(1, len(spec.blocks) + 1):
                terms = proof_terms(spec, t, p)
                scale = max(1.0, terms.scale)
                worst_sum = max(worst_sum, terms.sum_norm / scale)
                worst_op = max(worst_op, terms.operator_defect)
            part[i] = (worst_sum, worst_op)
        columns += ["sum_cancellation", "operator_defect"]
        tols += [tol.tol_H, 10.0 * tol.tol_H]
        chunks.append(part)
    return columns, tols, np.hstack(chunks)


def cmd_identities(config: RunConfig) -> int:
    if set(config.checks) == {"lemma"}:
        columns, tols, rows = _lemma_rows(config)
    else:
        columns, tols, rows = _helicoid_rows(config)
    _write_csv(columns, rows, config.output.get("csv"))

    label = type(config.family).__name__
    checks = [
        _summarize(name, rows[:, j], tols[j], "PASS", 0,
                   config.tolerances.tol_negative)
        for j, name in enumerate(columns)
    ]
    _print_checks(label, checks)
    if config.output.get("report"):
        doc = {"version": CONFIG_VERSION, "kind": "identities-report",
               "family": spec_to_json(config.family),
               "plan": config.plan.to_json(),
               "tolerances": config.tolerances.to_json(),
               "checks": [c.to_json() for c in checks]}
        _write_json(doc, config.output["report"])
    return 0 if all(c.as_expected for c in checks) else 1


def cmd_mesh(config: RunConfig) -> int:
    path = config.output.get("mesh")
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


def cmd_takahashi(config: RunConfig) -> int:
    report = takahashi_equivalence(config.family, config.rays, config.plan,
                                   config.tolerances)
    label = type(config.family).__name__
    _print_checks(label, report.checks)
    print(f"{label}:agreement: {report.agreement}")
    _write_json(report.to_json(), config.output.get("report"))
    return 0 if report.all_expected else 1


_COMMANDS = {
    "verify": cmd_verify,
    "identities": cmd_identities,
    "mesh": cmd_mesh,
    "takahashi": cmd_takahashi,
}

_PRIMARY_OUTPUT = {"verify": "report", "identities": "csv", "mesh": "mesh",
                   "takahashi": "report"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minvar",
        description="verify minimal-submanifold families numerically")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in _COMMANDS.items():
        p = sub.add_parser(name, help=func.__doc__)
        p.add_argument("config", help="path to a JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override plan.seed")
        p.add_argument("--points", type=int, default=None,
                       help="override plan.count")
        p.add_argument("--out", default=None,
                       help="override the command's primary output path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with io.open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        config = parse_config(doc, args.command)
        plan = config.plan
        if args.seed is not None:
            plan = replace(plan, seed=args.seed)
        if args.points is not None:
            plan = replace(plan, count=args.points)
        if plan is not config.plan:
            config = replace(config, plan=plan)
        if args.out is not None:
            output = dict(config.output)
            output[_PRIMARY_OUTPUT[args.command]] = args.out
            config = replace(config, output=output)
        return _COMMANDS[args.command](config)
    except MinvarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
