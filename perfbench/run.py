"""minvar benchmark: one workload per run, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload helicoid-sweep --seed 1 \
        --seconds 30 --trace 0

The workload's inputs are generated from ``--seed``. After one warm-up pass
the workload runs closed loop, pass after pass, for ``--seconds`` seconds
(at least ``MIN_PASSES`` passes). Every unit's result is judged in every
pass, and a unit whose output digest differs from its first pass fails.

Timings are gated in multiples of a fixed reference computation (``ref``)
that the run times between units during every pass: a pass's times are
divided by the mean reference time of that pass. A shared host can slow
every instruction by up to 1.6x for seconds to minutes at a time; the
reference slows with it, so the ratio stays put while raw seconds do not.
The reference uses no minvar code, so a change to the program moves only
the numerator. Raw seconds are still printed on the ``#`` lines.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs half the
time untraced and half traced, then the micro rows, and prints the
per-layer metrics. Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The program runs one Python thread, and its BLAS with one thread. minvar is
imported from ``src/`` beside this directory; without it the run fails
before printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("helicoid-sweep", "identity-sweep", "cli-campaign")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
BLAS_THREADS = "1"

MIN_PASSES = {"full": 6, "tiny": 2}
TRACE_MIN_PASSES = {"full": 3, "tiny": 1}
MICRO_BUDGET_S = {"full": 4.0, "tiny": 0.2}
# the unit-latency tail is the highest rung with >= 10 units beyond it
TAIL_RUNGS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
PROBE_TIMEOUT_S = 120
# how often the reference runs between units: often enough to follow the
# host's slow spells within a pass, at about 4% of the run's time
REF_EVERY_S = 0.1

END_TO_END_UNITS = {
    "setup_s": "s", "run_ref": "ref", "unit_p50_ref": "ref",
    "unit_tail_ref": "ref",
    "peak_rss_mb": "MB", "residual_digits_mean": "digits",
    "pass_rate": "ratio",
}


@dataclass
class PassResult:
    unit_times: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    residuals: dict = field(default_factory=dict)  # unit -> worst residual
    bytes_out: int = 0
    ref_s: float = 0.0          # mean reference time during the pass

    @property
    def run_s(self) -> float:
        return sum(self.unit_times)


def run_pass(workload, reference: dict, tracer=None,
             calibrate=None) -> PassResult:
    """Run every unit once, closed loop; judge each result after its call.

    With ``calibrate``, the reference computation also runs between units,
    untimed by the pass, once every ``REF_EVERY_S``; ``ref_s`` is its mean.
    """
    clock = time.perf_counter
    result = PassResult()
    refs = []
    last_ref = clock()
    if tracer is not None:
        tracer.reset()
    for unit in workload.units:
        if calibrate is not None and clock() - last_ref >= REF_EVERY_S:
            refs.append(calibrate())
            last_ref = clock()
        start = clock()
        try:
            output = unit.call()
        except Exception as exc:  # a failing unit must not stop the run
            result.unit_times.append(clock() - start)
            result.failures.append(
                f"{unit.name}: raised {type(exc).__name__}: {exc}")
            continue
        result.unit_times.append(clock() - start)
        try:
            judged = unit.check(output)
        except Exception as exc:
            result.failures.append(
                f"{unit.name}: judge raised {type(exc).__name__}: {exc}")
            continue
        problems = list(judged.problems)
        if reference.setdefault(unit.name, judged.digest) != judged.digest:
            problems.append("output digest differs from the first pass")
        if problems:
            result.failures.append(f"{unit.name}: {'; '.join(problems)}")
        if judged.residual is not None:
            result.residuals[unit.name] = judged.residual
        result.bytes_out += judged.bytes_out
    if calibrate is not None:
        refs.append(calibrate())
        result.ref_s = statistics.fmean(refs)
    return result


def run_loop(workload, reference, seconds, min_passes, tracer=None,
             between=None):
    """Timed passes for ``seconds``; ``between`` runs after each, untimed."""
    from calibrate import reference_s

    passes, layer_rows = [], []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        result = run_pass(workload, reference, tracer, reference_s)
        passes.append(result)
        if between is not None:
            between()
        if tracer is not None:
            layer_rows.append(tracer.pass_metrics(result.run_s,
                                                  result.bytes_out))
    return passes, layer_rows


def tail_rung(units: int) -> float:
    for rung in TAIL_RUNGS:
        if units * (100.0 - rung) / 100.0 >= 10:
            return rung
    return 50.0


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure_setup(args) -> float:
    """Seconds from a fresh interpreter to a workload ready to run."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return ready


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted((SRC / "minvar").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "usable_cores": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def digits(residual: float) -> float:
    """-log10 of a residual; an exact zero reads as 17, past float64."""
    return -math.log10(residual) if residual > 0.0 else 17.0


def end_to_end(args, setup, passes, pass_rate) -> dict:
    times = [t for p in passes for t in p.unit_times]
    rel_by_pass = [[t / p.ref_s for t in p.unit_times] for p in passes]
    rel = [t for row in rel_by_pass for t in row]
    # each unit's own median first: a pooled median of a workload whose
    # units cluster at two sizes lands on one cluster's noisy edge
    per_unit = [statistics.median(col) for col in zip(*rel_by_pass)]
    per_unit_raw = [statistics.median(col)
                    for col in zip(*(p.unit_times for p in passes))]
    rung = tail_rung(MIN_PASSES[args.size] * len(passes[0].unit_times))
    tail = percentile(rel, rung)
    residuals = {}
    for p in passes:
        residuals.update(p.residuals)
    worst = max(residuals.values(), default=0.0)
    print(f"# {len(rel)} units in {len(passes)} passes; tail is p{rung:g} "
          f"(set by the {MIN_PASSES[args.size]}-pass minimum), "
          f"{sum(t > tail for t in rel)} units beyond it")
    print(f"# raw seconds: run_s "
          f"{statistics.median(p.run_s for p in passes)!r} unit_p50_s "
          f"{statistics.median(per_unit_raw)!r} unit_tail_s "
          f"{percentile(times, rung)!r} reference_s "
          f"{statistics.median(p.ref_s for p in passes)!r}")
    if worst > 0.0:
        print(f"# residual_log10_max {math.log10(worst)!r} (unit "
              f"{max(residuals, key=residuals.get)})")
    return {
        "setup_s": statistics.median(setup),
        "run_ref": statistics.median(p.run_s / p.ref_s for p in passes),
        "unit_p50_ref": statistics.median(per_unit),
        "unit_tail_ref": tail,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # no residual at all only when every unit raised: 0 digits
        "residual_digits_mean": statistics.fmean(
            [digits(r) for r in residuals.values()] or [0.0]),
        "pass_rate": pass_rate,
    }


def traced(args, workload, reference):
    """Untraced then traced passes, then the micro rows: per-layer metrics."""
    import layers

    half = args.seconds / 2
    plain, _ = run_loop(workload, reference, half, TRACE_MIN_PASSES[args.size])
    tracer = layers.Tracer()
    with tracer.installed():
        spanned, rows = run_loop(workload, reference, half,
                                 TRACE_MIN_PASSES[args.size], tracer)
    metrics = layers.summarize(rows)
    untraced_s = statistics.median(p.run_s for p in plain)
    traced_s = statistics.median(p.run_s for p in spanned)
    metrics["trace.untraced_run_s"] = untraced_s
    metrics["trace.traced_run_s"] = traced_s
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    metrics.update(layers.micro_rows(args.seed, MICRO_BUDGET_S[args.size]))
    units = {name: unit for name, unit, *_ in layers.LAYER_METRICS}
    return plain + spanned, metrics, units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the smoke test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "minvar" / "__init__.py").is_file():
        print(f"error: no minvar package under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import workloads

    if args.setup_probe:
        workload = workloads.build(args.workload, args.seed, args.size, ROOT)
        print("ready", flush=True)
        workload.close()
        return 0

    setup = []
    workload = workloads.build(args.workload, args.seed, args.size, ROOT)
    try:
        reference = {}
        warmup = run_pass(workload, reference)
        if args.trace:
            passes, metrics, units = traced(args, workload, reference)
        else:
            # one set-up probe after every timed pass spreads the probes
            # over the run, so their median is not one moment's host speed
            passes, _ = run_loop(workload, reference, args.seconds,
                                 MIN_PASSES[args.size],
                                 between=lambda: setup.append(
                                     measure_setup(args)))
    finally:
        workload.close()

    counted = [warmup] + passes
    attempted = sum(len(p.unit_times) for p in counted)
    failures = [f for p in counted for f in p.failures]
    if not args.trace:
        metrics = end_to_end(args, setup, passes,
                             1.0 - len(failures) / attempted)
        units = END_TO_END_UNITS
    for failure in failures:
        print(f"FAIL {failure}")
    print("# pass run_s " + " ".join(f"{p.run_s:.4f}" for p in counted))
    print(f"# fail_rate {len(failures) / attempted!r} "
          f"({len(failures)} of {attempted} units)")
    print("# env " + json.dumps(environment(args), sort_keys=True))
    for name in sorted(metrics):
        print(f"# {name} {metrics[name]!r} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
