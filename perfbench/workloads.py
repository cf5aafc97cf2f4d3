"""The benchmark's three closed-loop workloads.

A workload is a list of units. One caller runs them in order, and each unit
starts when the previous one has finished. A unit is one call into minvar
(``call``, the timed part) and a judge that checks the call's result against
the benchmark's own expectations (``judge``, outside the timed region).

Every call looks minvar's functions up through their module at call time
(``harness.verify_minimality``, ``cli.main``), never through a name bound at
set-up, so the traced run's wrappers reach it.

Expectations are written here, independently of what minvar declares about
its own families: a unit's ``expected`` maps each check to the verdict it
must give ("PASS", "FAIL-EXPECTED", or "AGREE" for the agreement of the
three Takahashi routes). Each judge also returns a sha256
digest of the unit's deterministic outputs; the caller compares it across
passes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from minvar import cli, families, harness, identities

TOL_IDENTITY = 1e-9
# helicoid identity residuals, named as the identities command's CSV columns;
# the command judges the operator defect at 10 * tol_H
HELICOID_TOLERANCES = {
    "det_defect": TOL_IDENTITY, "inverse_defect": TOL_IDENTITY,
    "theta_laplacian": 1e-8, "block_divergence": 1e-8,
    "sum_cancellation": 1e-8, "operator_defect": 1e-7,
}

CONTROLS = ("control-latitude", "control-cylinder")

SIZES = {
    "helicoid-sweep": {
        "full": {"specs_per_cell": 2, "points": 60},
        "tiny": {"specs_per_cell": 1, "points": 4},
    },
    "identity-sweep": {
        "full": {"lemma_points": 25, "helicoid_points": 12},
        "tiny": {"lemma_points": 1, "helicoid_points": 1},
    },
    "cli-campaign": {
        "full": {"verify_points": 100, "takahashi_points": 100,
                 "identity_points": 20, "mesh_resolution": 256},
        "tiny": {"verify_points": 6, "takahashi_points": 6,
                 "identity_points": 1, "mesh_resolution": 8},
    },
}


@dataclass(frozen=True)
class Judgement:
    """What a judge found in one unit's result."""

    problems: tuple[str, ...]   # empty when every expectation held
    residual: float | None      # worst residual over the positive checks,
                                # None without any
    digest: str                 # sha256 of the deterministic outputs
    bytes_out: int = 0          # bytes of the files the unit wrote


@dataclass
class Unit:
    name: str
    call: Callable[[], object]
    judge: Callable[[object, dict], Judgement]
    expected: dict

    def check(self, result) -> Judgement:
        return self.judge(result, self.expected)


@dataclass
class Workload:
    units: list[Unit]
    workdir: tempfile.TemporaryDirectory | None = field(default=None,
                                                        repr=False)

    def close(self) -> None:
        if self.workdir is not None:
            self.workdir.cleanup()
            self.workdir = None


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _floats_digest(values) -> str:
    return _sha(" ".join(repr(float(v)) for v in values).encode())


def _compare(actual: dict, expected: dict) -> list[str]:
    """Mismatches between computed and expected verdicts, by check name."""
    problems = []
    for name in sorted(set(actual) | set(expected)):
        got, want = actual.get(name), expected.get(name)
        if got != want:
            problems.append(f"{name}: verdict {got}, expected {want}")
    return problems


def _positive_residual(residuals: dict, expected: dict):
    """Worst residual over the checks expected to PASS (None when no check
    is); non-finite residuals fail."""
    worst, problems = None, []
    for name, value in residuals.items():
        if expected.get(name) != "PASS":
            continue
        if not math.isfinite(value):
            problems.append(f"{name}: non-finite residual {value!r}")
            continue
        worst = value if worst is None else max(worst, value)
    return worst, problems


def _strip_wall_time(doc):
    if isinstance(doc, dict):
        return {k: _strip_wall_time(v) for k, v in doc.items()
                if k != "wall_time"}
    if isinstance(doc, list):
        return [_strip_wall_time(v) for v in doc]
    return doc


def _report_digest(doc: dict) -> str:
    return _sha(json.dumps(_strip_wall_time(doc), sort_keys=True).encode())


def _report_verdicts(docs: list[dict], labels: list[str]):
    """(verdicts, residuals) keyed "<label>/<check>" over a list of reports."""
    verdicts, residuals = {}, {}
    for label, doc in zip(labels, docs):
        for c in doc["checks"]:
            key = f"{label}/{c['name']}"
            verdicts[key] = c["verdict"]
            residuals[key] = float(c["max_residual"])
        if "agreement" in doc:
            verdicts[f"{label}/agreement"] = \
                "AGREE" if doc["agreement"] else "DISAGREE"
    return verdicts, residuals


def _draw_pitch(rng, rays) -> families.PitchVector:
    return families.PitchVector(rng.uniform(0.4, 1.6),
                                tuple(rng.uniform(0.4, 1.6, rays)))


def _plan_seed(rng) -> int:
    return int(rng.integers(0, 2 ** 32))


# ---------------------------------------------------------------------------
# helicoid-sweep: verify_minimality over the C1/C2 helicoid grid
# ---------------------------------------------------------------------------


def _judge_campaign(report, expected: dict) -> Judgement:
    doc = report.to_json()
    verdicts, residuals = _report_verdicts([doc], ["minimality"])
    problems = _compare(verdicts, expected)
    worst, bad = _positive_residual(residuals, expected)
    return Judgement(tuple(problems + bad), worst, _report_digest(doc))


def _helicoid_sweep(seed: int, size: dict, root: Path) -> Workload:
    rng = np.random.default_rng(seed)
    units = []
    for kind in ("A", "B"):
        for rays in (1, 2, 3):
            for dim in (1, 2):
                for k in range(size["specs_per_cell"]):
                    if kind == "A":
                        spec = families.GenHelicoidA(
                            pitch=_draw_pitch(rng, rays),
                            blocks=tuple(families.standard_block(dim)
                                         for _ in range(rays)))
                    else:
                        spec = families.GenHelicoidB(
                            rays=rays, block=families.standard_block(dim),
                            angular_pitch=rng.uniform(0.4, 1.6),
                            axial_pitch=rng.uniform(0.4, 1.6))
                    families.build_immersion(spec)
                    plan = harness.SamplePlan(count=size["points"],
                                              seed=_plan_seed(rng))
                    units.append(Unit(
                        name=f"{kind}-L{rays}-N{dim}-{k}",
                        call=lambda s=spec, p=plan:
                            harness.verify_minimality(s, p),
                        judge=_judge_campaign,
                        expected={"minimality/minimality": "PASS",
                                  "minimality/tangential-residual": "PASS"}))
    return Workload(units)


# ---------------------------------------------------------------------------
# identity-sweep: the four identity functions, point by point (C3/C4)
# ---------------------------------------------------------------------------


def _commuting_rotation(half: int, angle: float) -> tuple:
    eye = np.eye(half)
    u = np.block([[np.cos(angle) * eye, -np.sin(angle) * eye],
                  [np.sin(angle) * eye, np.cos(angle) * eye]])
    return tuple(tuple(float(x) for x in row) for row in u)


def _judge_identities(values: dict, tolerances: dict, expected: dict
                      ) -> Judgement:
    verdicts = {name: "PASS" if v <= tolerances[name] else "FAIL"
                for name, v in values.items()}
    problems = _compare(verdicts, expected)
    worst, bad = _positive_residual(values, expected)
    return Judgement(tuple(problems + bad), worst,
                     _floats_digest(values[k] for k in sorted(values)))


def _judge_lemma(res, expected: dict) -> Judgement:
    return _judge_identities({"lemma": res.max_residual},
                             {"lemma": TOL_IDENTITY}, expected)


def _judge_helicoid_point(result, expected: dict) -> Judgement:
    alg, harm, terms = result
    values = {
        "det_defect": alg.det_defect,
        "inverse_defect": alg.inverse_defect,
        "theta_laplacian": harm.theta_laplacian,
        "block_divergence": harm.block_divergence,
        "sum_cancellation": max(t.sum_norm / max(1.0, t.scale)
                                for t in terms),
        "operator_defect": max(t.operator_defect for t in terms),
    }
    return _judge_identities(values, HELICOID_TOLERANCES, expected)


def _helicoid_point(spec, p):
    return (identities.helicoid_algebra(spec, p),
            identities.theta_harmonicity(spec, p),
            tuple(identities.proof_terms(spec, t, p)
                  for t in range(1, len(spec.blocks) + 1)))


def _identity_sweep(seed: int, size: dict, root: Path) -> Workload:
    rng = np.random.default_rng(seed)
    units = []
    for dim in (1, 2, 3):
        for kind in ("stereographic", "trigonometric"):
            for rotated in (False, True):
                unitary = (_commuting_rotation(dim + 1, rng.uniform(0.3, 1.2))
                           if rotated else None)
                block = families.standard_block(dim, kind, unitary=unitary)
                block.immersion()
                block.dual_immersion()
                box = np.array(block.domain_box())
                pts = rng.uniform(box[:, 0], box[:, 1],
                                  size=(size["lemma_points"], len(box)))
                turn = "rot" if rotated else "std"
                label = f"lemma-N{dim}-{kind[:5]}-{turn}"
                for i, p in enumerate(pts):
                    units.append(Unit(
                        name=f"{label}-{i}",
                        call=lambda b=block, u=p:
                            identities.lemma_magic_residuals(b, u),
                        judge=_judge_lemma, expected={"lemma": "PASS"}))

    count = size["helicoid_points"]
    for rays in (1, 2):
        for dim in (1, 2):
            spec = families.GenHelicoidA(
                pitch=_draw_pitch(rng, rays),
                blocks=tuple(families.standard_block(dim)
                             for _ in range(rays)))
            imm = families.build_immersion(spec)
            box = np.array(imm.domain)
            # points come from one batched guard call at set-up, so the
            # timed pass never samples
            draws = rng.uniform(box[:, 0], box[:, 1],
                                size=(4 * count, imm.param_dim))
            kept = draws[~imm.excluded(draws)][:count]
            if len(kept) < count:
                raise RuntimeError(f"helicoid L{rays} N{dim}: only "
                                   f"{len(kept)} of {count} points usable")
            for i, p in enumerate(kept):
                units.append(Unit(
                    name=f"helicoid-L{rays}-N{dim}-{i}",
                    call=lambda s=spec, q=p: _helicoid_point(s, q),
                    judge=_judge_helicoid_point,
                    expected=dict.fromkeys(HELICOID_TOLERANCES, "PASS")))
    return Workload(units)


# ---------------------------------------------------------------------------
# cli-campaign: in-process cli.main over generated configs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliOutcome:
    exit_code: int
    stderr: str


def _run_cli(argv: list[str]) -> CliOutcome:
    """cli.main with its verdict lines kept off the benchmark's output."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliOutcome(code, err.getvalue())


def _exit_problems(outcome: CliOutcome) -> list[str]:
    if outcome.exit_code == 0:
        return []
    detail = outcome.stderr.strip().splitlines()
    return [f"exit code {outcome.exit_code}"
            + (f": {detail[-1]}" if detail else "")]


def _judge_report_file(path: Path, labels: list[str]):
    def judge(outcome: CliOutcome, expected: dict) -> Judgement:
        problems = _exit_problems(outcome)
        raw = path.read_bytes()
        doc = json.loads(raw)
        docs = doc["reports"] if doc.get("kind") == "report-list" else [doc]
        verdicts, residuals = _report_verdicts(docs, labels)
        problems += _compare(verdicts, expected)
        worst, bad = _positive_residual(residuals, expected)
        return Judgement(tuple(problems + bad), worst, _report_digest(doc),
                         len(raw))
    return judge


def _judge_csv_file(path: Path, tolerances: dict):
    def judge(outcome: CliOutcome, expected: dict) -> Judgement:
        problems = _exit_problems(outcome)
        raw = path.read_bytes()
        rows = list(csv.reader(io.StringIO(raw.decode("ascii"))))
        header, body = rows[0][1:], rows[1:]
        if not body:
            problems.append("identities CSV has no rows")
        values = {name: max((float(r[j + 1]) for r in body), default=0.0)
                  for j, name in enumerate(header)}
        judged = _judge_identities(values, tolerances, expected)
        return Judgement(tuple(problems) + judged.problems, judged.residual,
                         _sha(raw), len(raw))
    return judge


def _judge_obj_file(path: Path, resolution: int):
    def judge(outcome: CliOutcome, expected: dict) -> Judgement:
        problems = _exit_problems(outcome)
        raw = path.read_bytes()
        lines = raw.split(b"\n")
        vertices = sum(1 for line in lines if line.startswith(b"v "))
        faces = sum(1 for line in lines if line.startswith(b"f "))
        verdicts = {"mesh": "PASS" if vertices == resolution ** 2 and faces
                    else "FAIL"}
        problems += _compare(verdicts, expected)
        return Judgement(tuple(problems), None, _sha(raw), len(raw))
    return judge


def _write_config(directory: Path, name: str, doc: dict) -> str:
    path = directory / f"{name}.config.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="ascii")
    return str(path)


def _cli_campaign(seed: int, size: dict, root: Path) -> Workload:
    rng = np.random.default_rng(seed)
    workdir = tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root)
    out = Path(workdir.name)
    units = []

    for name, spec in harness.default_campaign():
        families.build_immersion(spec)
        checks = ["minimality"]
        if families.screw_data(spec) is not None:
            checks.append("screw")
        if families.scaling_indices(spec):
            checks.append("cone-scaling")
        report = out / f"verify-{name}.json"
        config = _write_config(out, f"verify-{name}", {
            "version": 1, "family": families.spec_to_json(spec),
            "checks": checks,
            "plan": {"count": size["verify_points"], "seed": _plan_seed(rng)},
            "output": {"report": str(report)}})
        expected = {"minimality/minimality":
                    "FAIL-EXPECTED" if name in CONTROLS else "PASS",
                    "minimality/tangential-residual": "PASS"}
        if "screw" in checks:
            expected["screw/screw-invariance"] = "PASS"
        if "cone-scaling" in checks:
            expected["cone-scaling/cone-scaling"] = "PASS"
            expected["cone-scaling/minimality"] = "PASS"
        units.append(Unit(f"verify-{name}",
                          lambda c=config: _run_cli(["verify", c]),
                          _judge_report_file(report, checks), expected))

    bases = (("equator", families.LatitudeCircle(0.0), "PASS"),
             ("torus", families.CliffordTorus(families.standard_block(1)),
              "PASS"),
             ("offset-circle", families.LatitudeCircle(0.5),
              "FAIL-EXPECTED"))
    for name, base, verdict in bases:
        families.build_immersion(base)
        report = out / f"takahashi-{name}.json"
        config = _write_config(out, f"takahashi-{name}", {
            "version": 1, "base": families._base_to_json(base), "rays": 2,
            "plan": {"count": size["takahashi_points"],
                     "seed": _plan_seed(rng)},
            "output": {"report": str(report)}})
        expected = {f"takahashi/{check}": verdict
                    for check in ("sphere-base", "sphere-join", "cone-rays")}
        expected["takahashi/agreement"] = "AGREE"
        units.append(Unit(f"takahashi-{name}",
                          lambda c=config: _run_cli(["takahashi", c]),
                          _judge_report_file(report, ["takahashi"]),
                          expected))

    spec = families.GenHelicoidA(
        pitch=_draw_pitch(rng, 2),
        blocks=(families.standard_block(1), families.standard_block(1)))
    families.build_immersion(spec)
    table = out / "identities.csv"
    config = _write_config(out, "identities", {
        "version": 1, "family": families.spec_to_json(spec),
        "checks": ["helicoid-algebra", "theta-harmonicity", "proof-terms"],
        "plan": {"count": size["identity_points"], "seed": _plan_seed(rng)},
        "output": {"csv": str(table)}})
    units.append(Unit("identities-helicoid",
                      lambda c=config: _run_cli(["identities", c]),
                      _judge_csv_file(table, HELICOID_TOLERANCES),
                      dict.fromkeys(HELICOID_TOLERANCES, "PASS")))

    surface = families.LawsonSurface(1.0, float(rng.uniform(1.5, 2.5)))
    families.build_immersion(surface)
    mesh = out / "lawson.obj"
    resolution = size["mesh_resolution"]
    config = _write_config(out, "mesh", {
        "version": 1, "family": families.spec_to_json(surface),
        "resolution": resolution, "output": {"mesh": str(mesh)}})
    units.append(Unit("mesh-lawson", lambda c=config: _run_cli(["mesh", c]),
                      _judge_obj_file(mesh, resolution), {"mesh": "PASS"}))
    return Workload(units, workdir)


_WORKLOADS = {
    "helicoid-sweep": _helicoid_sweep,
    "identity-sweep": _identity_sweep,
    "cli-campaign": _cli_campaign,
}


def build(name: str, seed: int, size: str, root: Path) -> Workload:
    """Generate a workload's inputs from its seed; files go under ``root``."""
    return _WORKLOADS[name](seed, SIZES[name][size], root)
