"""Command-line exit codes, config validation, and output files.

Exit semantics under test: 0 when every verdict matches its expectation
(controls included), 1 when any verdict mismatches, 2 for config or
domain errors raised before evaluation.  All file outputs must be
deterministic for a fixed config.
"""

import csv
import json

import numpy as np
import pytest

from minvar import harness
from minvar.cli import _write_json, load_reports, main, parse_config
from minvar.errors import SpecError
from minvar.harness import TakahashiReport, VerificationReport

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
        assert type(config.family).__name__ == "SphereChart"
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
