"""Smoke test of the benchmark: every workload at a tiny size.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_smoke.py

It checks that each run prints every metric BENCHMARK.json lists, with its
unit, and that the correctness gate can fail: a deliberately wrong
expectation must be counted as a failed unit.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_the_workloads_and_layer_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == [row[:3] for row in layers.LAYER_METRICS]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


@pytest.mark.parametrize("workload, unit_name, key, verdict", [
    ("cli-campaign", "verify-control-latitude", "minimality/minimality",
     "PASS"),
    ("helicoid-sweep", "A-L1-N1-0", "minimality/minimality",
     "FAIL-EXPECTED"),
    ("identity-sweep", "lemma-N1-stere-std-0", "lemma", "FAIL-EXPECTED"),
])
def test_a_wrong_expectation_raises_the_fail_rate(workload, unit_name, key,
                                                  verdict):
    built = workloads.build(workload, seed=7, size="tiny", root=ROOT)
    try:
        assert run.run_pass(built, {}).failures == []
        unit = next(u for u in built.units if u.name == unit_name)
        assert key in unit.expected
        unit.expected[key] = verdict
        result = run.run_pass(built, {})
    finally:
        built.close()
    assert len(result.failures) == 1
    assert result.failures[0].startswith(f"{unit_name}: {key}: verdict ")


def test_every_timed_pass_carries_its_reference_time():
    built = workloads.build("cli-campaign", seed=7, size="tiny", root=ROOT)
    try:
        passes, _ = run.run_loop(built, {}, 0.0, 2)
    finally:
        built.close()
    assert len(passes) == 2
    assert all(p.ref_s > 0.0 for p in passes)


def test_a_changed_output_digest_counts_as_a_failure():
    built = workloads.build("identity-sweep", seed=7, size="tiny", root=ROOT)
    try:
        first = built.units[0].name
        result = run.run_pass(built, {first: "not the digest"})
    finally:
        built.close()
    assert result.failures == \
        [f"{first}: output digest differs from the first pass"]
