"""Command-line exit codes, config validation, and output files.

Exit semantics under test: 0 when every verdict matches its expectation
(controls included), 1 when any verdict mismatches, 2 for config or
domain errors raised before evaluation.  All file outputs must be
deterministic for a fixed config.
"""

import csv
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

import minvar
from minvar import geometry, harness
from minvar.cli import _write_json, load_reports, main, parse_config
from minvar.errors import NotSpherical, SpecError
from minvar.families import build_immersion, spec_from_json
from minvar.harness import (
    IdentitiesReport,
    TakahashiReport,
    VerificationReport,
)

CHART = {"chart_kind": "stereographic", "dim": 1}
BLOCK = {"chart_x": CHART, "chart_y": CHART}
HELICOID = {"kind": "GenHelicoidA",
            "pitch": {"lambda0": 0.8, "lambdas": [1.2]},
            "blocks": [BLOCK]}
TORUS = {"kind": "CliffordTorus", "block": BLOCK}
LATITUDE = {"kind": "LatitudeCircle", "height": 0.5}


def write_config(tmp_path, name="config.json", **doc):
    doc.setdefault("version", 1)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseConfig:
    def test_verify_defaults(self):
        config = parse_config({"version": 1, "family": LATITUDE,
                               "checks": ["minimality"]}, "verify")
        assert type(config.family).__name__ == "LatitudeCircle"
        assert config.plan.count == 200 and config.checks == ("minimality",)

    def test_rejects_wrong_version(self):
        with pytest.raises(SpecError, match="version"):
            parse_config({"version": 2, "family": LATITUDE,
                          "checks": ["minimality"]}, "verify")

    def test_rejects_unknown_top_level_key(self):
        with pytest.raises(SpecError, match="unknown"):
            parse_config({"version": 1, "family": LATITUDE,
                          "checks": ["minimality"], "mode": "fast"}, "verify")

    def test_rejects_unknown_check_before_evaluation(self):
        with pytest.raises(SpecError, match="sorcery"):
            parse_config({"version": 1, "family": LATITUDE,
                          "checks": ["sorcery"]}, "verify")

    def test_rejects_empty_checks(self):
        with pytest.raises(SpecError, match="non-empty"):
            parse_config({"version": 1, "family": LATITUDE, "checks": []},
                         "identities")

    def test_rejects_unknown_family_kind(self):
        with pytest.raises(SpecError, match="MoebiusBand"):
            parse_config({"version": 1, "family": {"kind": "MoebiusBand"},
                          "checks": ["minimality"]}, "verify")

    def test_identities_family_pairing(self):
        with pytest.raises(SpecError, match="CliffordTorus"):
            parse_config({"version": 1, "family": HELICOID,
                          "checks": ["lemma"]}, "identities")
        with pytest.raises(SpecError, match="GenHelicoidA"):
            parse_config({"version": 1, "family": TORUS,
                          "checks": ["helicoid-algebra"]}, "identities")
        with pytest.raises(SpecError, match="share"):
            parse_config({"version": 1, "family": TORUS,
                          "checks": ["lemma", "proof-terms"]}, "identities")

    def test_takahashi_accepts_chart_base(self):
        config = parse_config(
            {"version": 1, "rays": 2,
             "base": {"kind": "SphereChart", **CHART}}, "takahashi")
        assert type(config.base).__name__ == "SphereChart"
        with pytest.raises(SpecError, match="rays"):
            parse_config({"version": 1, "rays": 0, "base": LATITUDE},
                         "takahashi")


class TestVerifyCommand:
    def test_positive_family_exits_zero(self, tmp_path):
        report_path = tmp_path / "report.json"
        cfg = write_config(tmp_path, family=HELICOID,
                           plan={"count": 40, "seed": 4},
                           checks=["minimality", "screw"],
                           output={"report": str(report_path)})
        assert main(["verify", cfg]) == 0
        reports = load_reports(json.loads(report_path.read_text()))
        assert len(reports) == 2
        assert all(isinstance(r, VerificationReport) for r in reports)
        assert all(r.all_expected for r in reports)

    def test_matched_control_exits_zero(self, tmp_path):
        cfg = write_config(tmp_path, family=LATITUDE,
                           plan={"count": 20}, checks=["minimality"])
        assert main(["verify", cfg]) == 0

    def test_verdict_mismatch_exits_one(self, tmp_path):
        # raising tol_negative above the control's residual turns its
        # FAIL-EXPECTED into a plain FAIL, which mismatches
        cfg = write_config(tmp_path, family=LATITUDE,
                           plan={"count": 20},
                           tolerances={"tol_negative": 10.0},
                           checks=["minimality"])
        assert main(["verify", cfg]) == 1

    def test_config_errors_exit_two(self, tmp_path, capsys):
        bad_pitch = dict(HELICOID,
                         pitch={"lambda0": 0.8, "lambdas": [1.2, 0.7]})
        cfg = write_config(tmp_path, family=bad_pitch, checks=["minimality"])
        assert main(["verify", cfg]) == 2
        err = capsys.readouterr().err
        assert "pitch" in err and "blocks" in err
        bad_radius = {"kind": "Cylinder", "radius": "abc"}
        cfg = write_config(tmp_path, family=bad_radius, checks=["minimality"])
        assert main(["verify", cfg]) == 2
        assert "family Cylinder.radius" in capsys.readouterr().err

    def test_domain_error_exits_two(self, tmp_path):
        # screw invariance is undefined for a family without a sweep angle
        cfg = write_config(tmp_path, family=TORUS, checks=["screw"])
        assert main(["verify", cfg]) == 2

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "absent.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_json_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["verify", str(path)]) == 2

    def test_non_finite_residual_exits_two_without_report(
            self, tmp_path, monkeypatch, capsys):
        def residuals(spec, pe):
            return (np.full(len(pe.position), np.nan),
                    np.zeros(len(pe.position)))
        monkeypatch.setattr(harness, "_minimality_residuals", residuals)
        rep = tmp_path / "report.json"
        cfg = write_config(tmp_path, family=TORUS, plan={"count": 5},
                           checks=["minimality"],
                           output={"report": str(rep)})
        assert main(["verify", cfg]) == 2
        assert "5 of 5 residuals are not finite" in capsys.readouterr().err
        assert not rep.exists()

    def test_json_output_refuses_nan(self, tmp_path):
        out = tmp_path / "doc.json"
        with pytest.raises(ValueError):
            _write_json({"max_residual": float("nan")}, str(out))
        assert not out.exists()

    def test_takahashi_check_inside_verify(self, tmp_path):
        cfg = write_config(tmp_path, family=TORUS, rays=2,
                           plan={"count": 20, "seed": 1},
                           checks=["takahashi"])
        assert main(["verify", cfg]) == 0

    def test_overrides_shadow_config(self, tmp_path):
        out = tmp_path / "override.json"
        cfg = write_config(tmp_path, family=LATITUDE,
                           plan={"count": 50, "seed": 1},
                           checks=["minimality"])
        assert main(["verify", cfg, "--points", "10", "--seed", "99",
                     "--out", str(out)]) == 0
        report = load_reports(json.loads(out.read_text()))[0]
        assert report.plan["count"] == 10 and report.plan["seed"] == 99
        assert report.checks[0].points_evaluated == 10

    def test_override_does_not_outlive_its_call(self, tmp_path):
        # the parser is built once per process; a flag of one call must
        # not become the default of the next
        out = tmp_path / "report.json"
        cfg = write_config(tmp_path, family=LATITUDE,
                           plan={"count": 10, "seed": 3},
                           checks=["minimality"],
                           output={"report": str(out)})
        assert main(["verify", cfg, "--seed", "7"]) == 0
        assert load_reports(json.loads(out.read_text()))[0].plan["seed"] == 7
        assert main(["verify", cfg]) == 0
        assert load_reports(json.loads(out.read_text()))[0].plan["seed"] == 3

    def test_point_count_beyond_stream_keys_exits_two(self, tmp_path,
                                                      capsys):
        cfg = write_config(tmp_path, family=LATITUDE, checks=["minimality"])
        assert main(["verify", cfg, "--points", str(2 ** 32)]) == 2
        assert "plan count must be below 2**32" in capsys.readouterr().err


class TestIdentitiesCommand:
    def test_lemma_csv_has_five_residual_columns(self, tmp_path):
        out = tmp_path / "lemma.csv"
        cfg = write_config(tmp_path, family=TORUS,
                           plan={"count": 30, "seed": 2}, checks=["lemma"],
                           output={"csv": str(out)})
        assert main(["identities", cfg]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["point", "res_a", "res_b", "res_c", "res_d",
                           "res_e"]
        assert len(rows) == 31
        for row in rows[1:]:
            assert all(float(x) <= 1e-9 for x in row[1:])

    def test_helicoid_checks_share_one_csv(self, tmp_path):
        out = tmp_path / "residuals.csv"
        cfg = write_config(tmp_path, family=HELICOID,
                           plan={"count": 15, "seed": 2},
                           checks=["helicoid-algebra", "theta-harmonicity",
                                   "proof-terms"],
                           output={"csv": str(out)})
        assert main(["identities", cfg]) == 0
        with open(out, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["point", "det_defect", "inverse_defect",
                          "theta_laplacian", "block_divergence",
                          "sum_cancellation", "operator_defect"]

    def test_csv_floats_round_trip(self, tmp_path):
        out = tmp_path / "lemma.csv"
        cfg = write_config(tmp_path, family=TORUS, plan={"count": 5},
                           checks=["lemma"], output={"csv": str(out)})
        main(["identities", cfg])
        text_a = out.read_text()
        main(["identities", cfg])
        assert out.read_text() == text_a

    def test_report_output(self, tmp_path):
        rep = tmp_path / "identities.json"
        cfg = write_config(tmp_path, family=TORUS, plan={"count": 10},
                           checks=["lemma"], output={"report": str(rep)})
        assert main(["identities", cfg]) == 0
        doc = json.loads(rep.read_text())
        assert doc["kind"] == "identities-report"
        assert [c["name"] for c in doc["checks"]] == \
            ["res_a", "res_b", "res_c", "res_d", "res_e"]
        assert all(c["verdict"] == "PASS" for c in doc["checks"])


class TestMeshCommand:
    def test_writes_obj_grid(self, tmp_path):
        out = tmp_path / "helicoid.obj"
        cfg = write_config(tmp_path,
                           family={"kind": "ChoeHoppe", "sphere_dim": 1,
                                   "pitch": 0.5},
                           resolution=[64, 64], output={"mesh": str(out)})
        assert main(["mesh", cfg]) == 0
        lines = out.read_text().splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 4096
        assert sum(1 for l in lines if l.startswith("f ")) == 7938

    def test_byte_identical_across_runs(self, tmp_path):
        out = tmp_path / "mesh.obj"
        cfg = write_config(tmp_path,
                           family={"kind": "ChoeHoppe", "sphere_dim": 1,
                                   "pitch": 0.5},
                           resolution=[16, 16], output={"mesh": str(out)})
        main(["mesh", cfg])
        first = out.read_bytes()
        main(["mesh", cfg])
        assert out.read_bytes() == first

    def test_projection_out_of_range_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           family={"kind": "ChoeHoppe", "sphere_dim": 2,
                                   "pitch": 0.5},
                           projection=[0, 1, 9],
                           output={"mesh": str(tmp_path / "bad.obj")})
        assert main(["mesh", cfg]) == 2
        assert "9" in capsys.readouterr().err

    def test_missing_output_path_exits_two(self, tmp_path):
        cfg = write_config(tmp_path,
                           family={"kind": "ChoeHoppe", "sphere_dim": 1,
                                   "pitch": 0.5})
        assert main(["mesh", cfg]) == 2

    def test_out_flag_names_the_mesh(self, tmp_path):
        out = tmp_path / "flagged.obj"
        cfg = write_config(tmp_path,
                           family={"kind": "ChoeHoppe", "sphere_dim": 1,
                                   "pitch": 0.5}, resolution=[4, 4])
        assert main(["mesh", cfg, "--out", str(out)]) == 0
        assert out.read_text().startswith("v ")


class TestTakahashiCommand:
    def test_control_matches_expectation(self, tmp_path):
        rep = tmp_path / "tak.json"
        cfg = write_config(tmp_path, base=LATITUDE, rays=2,
                           plan={"count": 20, "seed": 6},
                           output={"report": str(rep)})
        assert main(["takahashi", cfg]) == 0
        report = load_reports(json.loads(rep.read_text()))[0]
        assert isinstance(report, TakahashiReport)
        assert report.agreement
        assert all(c.verdict == "FAIL-EXPECTED" for c in report.checks)

    def test_equator_passes(self, tmp_path):
        cfg = write_config(tmp_path,
                           base={"kind": "LatitudeCircle", "height": 0.0},
                           rays=2, plan={"count": 20, "seed": 6})
        assert main(["takahashi", cfg]) == 0

    def test_non_spherical_base_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, base={"kind": "Cylinder", "radius": 1.0},
                           rays=2)
        assert main(["takahashi", cfg]) == 2


LAWSON = {"kind": "LawsonSurface", "lambda1": 1.0, "lambda2": 2.0}


@pytest.mark.parametrize("command,doc,message", [
    ("verify", {"family": LATITUDE, "checks": ["minimality"],
                "plan": {"count": True}},
     "config.plan.count: expected int, got bool"),
    ("verify", {"family": LATITUDE, "checks": ["minimality"],
                "tolerances": {"tol_H": "1e-8"}},
     "config.tolerances.tol_H: expected float, got str"),
    ("verify", {"family": LATITUDE, "checks": ["minimality"], "rays": True},
     "config.rays: expected int, got bool"),
    ("verify", {"family": LATITUDE, "checks": ["minimality"],
                "version": True},
     "config.version: expected int, got bool"),
    ("verify", {"family": LATITUDE, "checks": ["minimality"],
                "output": {"report": 1}},
     "config.output.report: expected str, got int"),
    ("mesh", {"family": LAWSON, "fixed": {"a": 1}},
     "config.fixed: key 'a' is not a decimal integer"),
    ("mesh", {"family": LAWSON, "fixed": {"0": "x"}},
     "config.fixed.0: expected float, got str"),
    ("mesh", {"family": LAWSON, "resolution": True},
     "config.resolution: expected int, got bool"),
    ("mesh", {"family": LAWSON, "resolution": [3.7, 4]},
     "config.resolution[0]: expected int, got float"),
    ("mesh", {"family": LAWSON, "axes": [0.9, 1.2]},
     "config.axes[0]: expected int, got float"),
    ("mesh", {"family": LAWSON, "axes": [0, 1, 2]},
     "config.axes: expected 2 items, got 3"),
    ("mesh", {"family": LAWSON, "projection": [0, 1.5, 2]},
     "config.projection[1]: expected int, got float"),
    ("mesh", {"family": LAWSON, "projection": "012"},
     "projection must be 'last-axis' or three coordinate indices"),
    ("mesh", {"family": LAWSON, "box": [[0, 1], [0, "a"]]},
     "config.box[1][1]: expected float, got str"),
    ("mesh", {"family": LAWSON, "output": {"mesh": 1}},
     "config.output.mesh: expected str, got int"),
    ("takahashi", {"base": LATITUDE, "rays": 2.0},
     "config.rays: expected int, got float"),
    ("verify", {"family": LATITUDE, "checks": ["minimality"],
                "plan": {"count": 2 ** 32}},
     "plan count must be below 2**32, got 4294967296"),
])
def test_malformed_values_exit_two_without_output(tmp_path, capsys, command,
                                                  doc, message):
    primary = "mesh" if command == "mesh" else "report"
    out = tmp_path / "out"
    doc = {"version": 1, "output": {primary: str(out)}, **doc}
    assert main([command, write_config(tmp_path, **doc)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert not out.exists() and not captured.out


def test_identities_report_bytes_pinned(tmp_path):
    rep = tmp_path / "identities.json"
    cfg = write_config(tmp_path, family=HELICOID, plan={"count": 2, "seed": 3},
                       checks=["helicoid-algebra"],
                       output={"report": str(rep)})
    assert main(["identities", cfg]) == 0
    assert rep.read_text() == PINNED_IDENTITIES


def test_identities_report_counts_rejected_draws(tmp_path, monkeypatch):
    # a raised metric floor makes the sampler reject draws of the README's
    # helicoid; every check of the report must count them
    sphere = dict(CHART, dim=2)
    family = dict(HELICOID, pitch={"lambda0": 0.8, "lambdas": [1.2, 0.7]},
                  blocks=[{"chart_x": sphere, "chart_y": sphere}] * 2)
    monkeypatch.setattr(geometry, "METRIC_RATIO_FLOOR", 0.3)
    plan = harness.SamplePlan(count=20, seed=1)
    _, rejected = harness.sample_points(
        build_immersion(spec_from_json(family)), plan)
    assert rejected > 0
    rep = tmp_path / "identities.json"
    cfg = write_config(tmp_path, family=family, plan=plan.to_json(),
                       checks=["helicoid-algebra", "theta-harmonicity"],
                       output={"report": str(rep)})
    assert main(["identities", cfg]) == 0
    checks = json.loads(rep.read_text())["checks"]
    assert [c["points_excluded"] for c in checks] == [rejected] * 4


def test_identities_report_round_trips(tmp_path):
    rep = tmp_path / "identities.json"
    cfg = write_config(tmp_path, family=HELICOID, plan={"count": 3, "seed": 5},
                       checks=["helicoid-algebra", "theta-harmonicity"],
                       output={"report": str(rep)})
    assert main(["identities", cfg]) == 0
    doc = json.loads(rep.read_text())
    [report] = load_reports(doc)
    assert isinstance(report, IdentitiesReport) and report.all_expected
    assert [c.name for c in report.checks] == [
        "det_defect", "inverse_defect", "theta_laplacian", "block_divergence"]
    assert report.to_json() == doc


@pytest.mark.parametrize("version", [99, True, None])
def test_report_list_version_is_checked(version):
    with pytest.raises(SpecError, match="unsupported report-list version"):
        load_reports({"kind": "report-list", "version": version,
                      "reports": []})


def test_verify_report_list_bytes_pinned(tmp_path, capsys):
    # takahashi between sampled checks: the reports and the verdict lines
    # come in the order asked
    rep = tmp_path / "reports.json"
    cfg = write_config(tmp_path, family=LAWSON, plan={"count": 2, "seed": 3},
                       checks=["takahashi", "minimality", "screw"],
                       output={"report": str(rep)})
    assert main(["verify", cfg]) == 0
    assert capsys.readouterr().out == PINNED_LAWSON_LINES
    doc = json.loads(rep.read_text())
    for report in doc["reports"]:
        assert type(report["wall_time"]) is float
        report["wall_time"] = 0.25
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == \
        PINNED_LAWSON_REPORTS


@pytest.mark.parametrize("family,checks,error,message", [
    (TORUS, ["minimality", "screw"], SpecError,
     "CliffordTorus has no sweep angle; screw invariance does not apply"),
    (HELICOID, ["minimality", "cone-scaling"], SpecError,
     "GenHelicoidA is not a cone here"),
    ({"kind": "Cylinder", "radius": 1.0}, ["minimality", "takahashi"],
     NotSpherical, "Cylinder does not land on the unit sphere"),
])
def test_inapplicable_checks_are_rejected_before_evaluation(
        tmp_path, capsys, monkeypatch, family, checks, error, message):
    doc = {"version": 1, "family": family, "checks": checks}
    with pytest.raises(error, match=re.escape(message)):
        parse_config(doc, "verify")

    def sample(*_, **__):
        raise AssertionError("sampled before the config was checked")
    monkeypatch.setattr(harness, "_sample", sample)
    rep = tmp_path / "report.json"
    cfg = write_config(tmp_path, family=family, checks=checks,
                       plan={"count": 5}, output={"report": str(rep)})
    assert main(["verify", cfg]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert not captured.out and not rep.exists()


def test_one_sample_and_one_residual_pass_per_verify_config(tmp_path,
                                                            monkeypatch):
    # a zero-axial helicoid takes all three sampled checks; H is formed
    # once, and each report equals its runner's own campaign
    family = dict(HELICOID, pitch={"lambda0": 0.0, "lambdas": [1.2]})
    plan = harness.SamplePlan(count=20, seed=4)
    calls = []
    for name in ("_sample", "_minimality_residuals"):
        def counted(*args, _name=name, _run=getattr(harness, name), **kw):
            calls.append(_name)
            return _run(*args, **kw)
        monkeypatch.setattr(harness, name, counted)
    rep = tmp_path / "reports.json"
    cfg = write_config(tmp_path, family=family, plan=plan.to_json(),
                       checks=["minimality", "screw", "cone-scaling"],
                       output={"report": str(rep)})
    assert main(["verify", cfg]) == 0
    assert calls == ["_sample", "_minimality_residuals"]
    monkeypatch.undo()
    spec = spec_from_json(family)
    assert load_reports(json.loads(rep.read_text())) == [
        harness.verify_minimality(spec, plan),
        harness.verify_screw_invariance(spec, plan),
        harness.verify_cone_scaling(spec, plan)]


def test_screw_alone_samples_at_first_order(tmp_path, monkeypatch):
    evaluated = []
    sample = harness._sample

    def counted(imm, plan, evaluate=True):
        evaluated.append(evaluate)
        return sample(imm, plan, evaluate)
    monkeypatch.setattr(harness, "_sample", counted)
    cfg = write_config(tmp_path, family=HELICOID, plan={"count": 10},
                       checks=["screw"])
    assert main(["verify", cfg]) == 0
    assert evaluated == [False]


PINNED_IDENTITIES = """\
{
  "checks": [
    {
      "expected": "PASS",
      "max_residual": 2.442712594626914e-16,
      "mean_residual": 2.1780177812492992e-16,
      "min_residual": 1.9133229678716842e-16,
      "name": "det_defect",
      "points_evaluated": 2,
      "points_excluded": 0,
      "tolerance": 1e-09,
      "verdict": "PASS"
    },
    {
      "expected": "PASS",
      "max_residual": 4.440892098500626e-16,
      "mean_residual": 3.3306690738754696e-16,
      "min_residual": 2.220446049250313e-16,
      "name": "inverse_defect",
      "points_evaluated": 2,
      "points_excluded": 0,
      "tolerance": 1e-09,
      "verdict": "PASS"
    }
  ],
  "family": {
    "blocks": [
      {
        "chart_x": {
          "chart_kind": "stereographic",
          "dim": 1
        },
        "chart_y": {
          "chart_kind": "stereographic",
          "dim": 1
        }
      }
    ],
    "kind": "GenHelicoidA",
    "pitch": {
      "lambda0": 0.8,
      "lambdas": [
        1.2
      ]
    }
  },
  "kind": "identities-report",
  "plan": {
    "box": null,
    "count": 2,
    "max_rejects": 200,
    "seed": 3
  },
  "tolerances": {
    "tol_H": 1e-08,
    "tol_identity": 1e-09,
    "tol_negative": 0.01
  },
  "version": 1
}
"""

PINNED_LAWSON_LINES = (
    'LawsonSurface:sphere-base: PASS [ok] max=2.776e-16 tol=1e-08\n'
    'LawsonSurface:sphere-join: PASS [ok] max=1.901e-15 tol=1e-08\n'
    'LawsonSurface:cone-rays: PASS [ok] max=2.433e-16 tol=1e-08\n'
    'LawsonSurface:agreement: True\n'
    'LawsonSurface:minimality: PASS [ok] max=5.959e-17 tol=1e-08\n'
    'LawsonSurface:tangential-residual: PASS [ok] max=3.444e-17 tol=1e-08\n'
    'LawsonSurface:screw-invariance: PASS [ok] max=3.886e-16 tol=1e-12\n'
)

PINNED_LAWSON_REPORTS = """\
{
  "kind": "report-list",
  "reports": [
    {
      "agreement": true,
      "base": {
        "kind": "LawsonSurface",
        "lambda1": 1.0,
        "lambda2": 2.0
      },
      "checks": [
        {
          "expected": "PASS",
          "max_residual": 2.7755575615628914e-16,
          "mean_residual": 1.952563825766824e-16,
          "min_residual": 1.1295700899707568e-16,
          "name": "sphere-base",
          "points_evaluated": 2,
          "points_excluded": 0,
          "tolerance": 1e-08,
          "verdict": "PASS"
        },
        {
          "expected": "PASS",
          "max_residual": 1.901421531342361e-15,
          "mean_residual": 1.7885391047395578e-15,
          "min_residual": 1.6756566781367546e-15,
          "name": "sphere-join",
          "points_evaluated": 2,
          "points_excluded": 0,
          "tolerance": 1e-08,
          "verdict": "PASS"
        },
        {
          "expected": "PASS",
          "max_residual": 2.432574717070327e-16,
          "mean_residual": 2.378422623253324e-16,
          "min_residual": 2.324270529436321e-16,
          "name": "cone-rays",
          "points_evaluated": 2,
          "points_excluded": 0,
          "tolerance": 1e-08,
          "verdict": "PASS"
        }
      ],
      "engine_version": "0.1.0",
      "kind": "takahashi-report",
      "plan": {
        "box": null,
        "count": 2,
        "max_rejects": 200,
        "seed": 3
      },
      "rays": 2,
      "tolerances": {
        "tol_H": 1e-08,
        "tol_identity": 1e-09,
        "tol_negative": 0.01
      },
      "version": 1,
      "wall_time": 0.25
    },
    {
      "checks": [
        {
          "expected": "PASS",
          "max_residual": 5.959422896636756e-17,
          "mean_residual": 4.730896099675616e-17,
          "min_residual": 3.502369302714477e-17,
          "name": "minimality",
          "points_evaluated": 2,
          "points_excluded": 0,
          "tolerance": 1e-08,
          "verdict": "PASS"
        },
        {
          "expected": "PASS",
          "max_residual": 3.4437530463685586e-17,
          "mean_residual": 2.178842185322891e-17,
          "min_residual": 9.139313242772235e-18,
          "name": "tangential-residual",
          "points_evaluated": 2,
          "points_excluded": 0,
          "tolerance": 1e-08,
          "verdict": "PASS"
        }
      ],
      "engine_version": "0.1.0",
      "family": {
        "kind": "LawsonSurface",
        "lambda1": 1.0,
        "lambda2": 2.0
      },
      "kind": "verification-report",
      "plan": {
        "box": null,
        "count": 2,
        "max_rejects": 200,
        "seed": 3
      },
      "tolerances": {
        "tol_H": 1e-08,
        "tol_identity": 1e-09,
        "tol_negative": 0.01
      },
      "version": 1,
      "wall_time": 0.25
    },
    {
      "checks": [
        {
          "expected": "PASS",
          "max_residual": 3.885780586188048e-16,
          "mean_residual": 2.498001805406602e-16,
          "min_residual": 1.1102230246251565e-16,
          "name": "screw-invariance",
          "points_evaluated": 2,
          "points_excluded": 0,
          "tolerance": 1e-12,
          "verdict": "PASS"
        }
      ],
      "engine_version": "0.1.0",
      "family": {
        "kind": "LawsonSurface",
        "lambda1": 1.0,
        "lambda2": 2.0
      },
      "kind": "verification-report",
      "plan": {
        "box": null,
        "count": 2,
        "max_rejects": 200,
        "seed": 3
      },
      "tolerances": {
        "tol_H": 1e-08,
        "tol_identity": 1e-09,
        "tol_negative": 0.01
      },
      "version": 1,
      "wall_time": 0.25
    }
  ],
  "version": 1
}
"""


class TestReadme:
    README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")

    def test_verify_config_example_parses(self):
        block = re.search(r"A verify config:\s*```json\n(.*?)```", self.README,
                          re.S).group(1)
        config = parse_config(json.loads(block), "verify")
        assert type(config.family).__name__ == "GenHelicoidA"
        assert config.checks == ("minimality", "screw")

    @pytest.mark.parametrize("command,doc", [
        ("verify", {"version": 1, "checks": ["minimality"],
                    "family": {"kind": "LRaysCone", "rays": 2.0,
                               "base": LATITUDE}}),
        ("verify", {"version": 1, "checks": ["minimality"],
                    "family": LATITUDE, "plan": {"count": True}}),
    ])
    def test_error_examples_are_what_the_codec_raises(self, command, doc):
        with pytest.raises(SpecError) as raised:
            parse_config(doc, command)
        assert f"`{raised.value}`" in " ".join(self.README.split())

    def test_lower_level_names_exist(self):
        # a deleted or renamed public name must not linger in the README
        paragraph = re.search(r"Lower-level pieces.*?\n\n", self.README,
                              re.S).group(0)
        names = re.findall(r"`([A-Za-z_][\w.]*)`", paragraph)
        assert "metric" in names
        for name in names:
            head, *rest = name.split(".")
            assert head in minvar.__all__, name
            obj = getattr(minvar, head)
            for part in rest:
                fields = ({f.name for f in dataclasses.fields(obj)}
                          if dataclasses.is_dataclass(obj) else set())
                assert part in fields or hasattr(obj, part), name
                obj = getattr(obj, part, None)
