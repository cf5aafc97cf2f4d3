"""Per-layer measurement: a tracer that wraps minvar's public functions from
outside, and micro rows that time single layer calls at fixed shapes.

The tracer records a span for each call into a layer boundary: its id, the
id of the span that caused it, its name, start, end and self time (duration
minus the time of the spans nested in it). Functions are patched under every
name minvar looks them up by (``harness`` imports ``sample_points`` and
``metric`` by name, ``cli`` imports the campaign runners, and so on), methods
on their class. Jet products and chain-rule lifts are far too many to keep as
spans; they are aggregated (calls, time, Hessian bytes) and their time is
charged as child time to the span they run in, so self times still add up.

``LAYER_METRICS`` lists every per-layer metric with its unit, the direction
that is better, and the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from minvar import charts, families, geometry, harness, jets

# (metric, unit, better, end-to-end metric and workload it should move)
LAYER_METRICS = (
    ("jets.mul_calls", "count", "lower", "run_ref on helicoid-sweep"),
    ("jets.mul_s", "s", "lower", "run_ref on helicoid-sweep"),
    ("jets.prim_calls", "count", "lower", "run_ref on helicoid-sweep"),
    ("jets.prim_s", "s", "lower", "run_ref on helicoid-sweep"),
    ("jets.hess_mb_computed", "MB", "lower", "run_ref on helicoid-sweep"),
    ("jets.self_share", "ratio", "lower", "run_ref on helicoid-sweep"),
    ("jets.mul_us_b1000_n16", "us", "lower", "run_ref on helicoid-sweep"),
    ("jets.mul_us_b1_n16", "us", "lower", "unit_p50_ref on identity-sweep"),
    ("jets.sin_us_b1000_n16", "us", "lower", "run_ref on helicoid-sweep"),
    ("jets.sin_us_b1_n16", "us", "lower", "unit_p50_ref on identity-sweep"),
    ("jets.mul_mb_b1000_n16_computed", "MB", "lower",
     "run_ref on helicoid-sweep"),
    ("geometry.eval_calls", "count", "lower", "run_ref on helicoid-sweep"),
    ("geometry.eval_s", "s", "lower", "run_ref on helicoid-sweep"),
    ("geometry.eval_points_per_call", "count", "higher",
     "unit_p50_ref on helicoid-sweep"),
    ("geometry.guard_eval_s", "s", "lower", "run_ref on helicoid-sweep"),
    ("geometry.excluded_calls", "count", "lower", "run_ref on helicoid-sweep"),
    ("geometry.excluded_s", "s", "lower", "run_ref on helicoid-sweep"),
    ("geometry.position_calls", "count", "lower", "run_ref on cli-campaign"),
    ("geometry.position_s", "s", "lower", "run_ref on cli-campaign"),
    ("geometry.metric_s", "s", "lower", "run_ref on helicoid-sweep"),
    ("geometry.laplace_s", "s", "lower", "run_ref on helicoid-sweep"),
    ("geometry.self_share", "ratio", "lower", "run_ref on helicoid-sweep"),
    ("families.build_calls", "count", "lower", "setup_s on every workload"),
    ("families.build_s", "s", "lower", "setup_s on every workload"),
    ("families.self_share", "ratio", "lower", "setup_s on every workload"),
    ("harness.sample_s", "s", "lower", "run_ref on helicoid-sweep"),
    ("harness.sample_incl_share", "ratio", "lower",
     "run_ref on helicoid-sweep"),
    ("harness.draws", "count", "lower", "run_ref on helicoid-sweep"),
    ("harness.accept_ratio", "ratio", "higher", "run_ref on helicoid-sweep"),
    ("harness.campaign_s", "s", "lower",
     "run_ref on helicoid-sweep and cli-campaign"),
    ("harness.self_share", "ratio", "lower", "run_ref on helicoid-sweep"),
    ("charts.frame_calls", "count", "lower", "unit_p50_ref on identity-sweep"),
    ("charts.frame_s", "s", "lower", "unit_p50_ref on identity-sweep"),
    ("charts.embed_calls", "count", "lower", "unit_p50_ref on identity-sweep"),
    ("charts.embed_s", "s", "lower", "unit_p50_ref on identity-sweep"),
    ("charts.self_share", "ratio", "lower", "unit_p50_ref on identity-sweep"),
    ("identities.lemma_s", "s", "lower", "run_ref on identity-sweep"),
    ("identities.algebra_s", "s", "lower", "run_ref on identity-sweep"),
    ("identities.harmonicity_s", "s", "lower", "run_ref on identity-sweep"),
    ("identities.proof_terms_s", "s", "lower", "run_ref on identity-sweep"),
    ("identities.points_per_call", "count", "higher",
     "unit_p50_ref on identity-sweep"),
    ("identities.self_share", "ratio", "lower", "run_ref on identity-sweep"),
    ("mesh.tessellate_s", "s", "lower", "run_ref on cli-campaign"),
    ("mesh.obj_s", "s", "lower", "run_ref on cli-campaign"),
    ("mesh.obj_bytes", "B", "lower", "run_ref on cli-campaign"),
    ("mesh.self_share", "ratio", "lower", "run_ref on cli-campaign"),
    ("cli.self_s", "s", "lower", "run_ref on cli-campaign"),
    ("cli.bytes_written", "B", "lower", "run_ref on cli-campaign"),
    ("cli.self_share", "ratio", "lower", "run_ref on cli-campaign"),
    ("trace.untraced_run_s", "s", "lower", "run_ref on the same workload"),
    ("trace.traced_run_s", "s", "lower", "run_ref on the same workload"),
    ("trace.overhead_ratio", "ratio", "lower", "none: cost of tracing"),
    ("trace.self_coverage", "ratio", "higher", "none: share of traced "
     "run_s the layer self times account for"),
) + tuple(
    (f"geometry.eval_ms_b1000.{label}", "ms", "lower",
     "run_ref on helicoid-sweep and cli-campaign")
    for label in ("clifford-torus", "clifford-cone", "rays-clifford-cone",
                  "helicoid-blocks", "helicoid-shared-torus",
                  "interleaved-helicoid", "planes-helicoid", "lawson-surface",
                  "paired-sphere-cone", "helicoid-slice", "control-latitude",
                  "control-cylinder"))

LAYERS = ("jets", "geometry", "families", "harness", "charts", "identities",
          "mesh", "cli")

_SPAN_METRICS = {  # span name -> layer metric holding its self time
    "geometry.eval": "geometry.eval_s",
    "geometry.excluded": "geometry.excluded_s",
    "geometry.position": "geometry.position_s",
    "geometry.metric": "geometry.metric_s",
    "geometry.laplace": "geometry.laplace_s",
    "families.build": "families.build_s",
    "harness.sample": "harness.sample_s",
    "harness.campaign": "harness.campaign_s",
    "charts.frame": "charts.frame_s",
    "charts.embed": "charts.embed_s",
    "identities.lemma": "identities.lemma_s",
    "identities.algebra": "identities.algebra_s",
    "identities.harmonicity": "identities.harmonicity_s",
    "identities.proof_terms": "identities.proof_terms_s",
    "mesh.tessellate": "mesh.tessellate_s",
    "mesh.obj": "mesh.obj_s",
    "cli.main": "cli.self_s",
}
_CALL_METRICS = {
    "geometry.eval": "geometry.eval_calls",
    "geometry.excluded": "geometry.excluded_calls",
    "geometry.position": "geometry.position_calls",
    "families.build": "families.build_calls",
    "charts.frame": "charts.frame_calls",
    "charts.embed": "charts.embed_calls",
}
_IDENTITY_SPANS = ("identities.lemma", "identities.algebra",
                   "identities.harmonicity", "identities.proof_terms")


def _batch(point) -> int:
    """Number of points in a (..., n) argument."""
    return int(np.prod(np.shape(point)[:-1], dtype=np.int64))


def _count_eval(counts, args, result):
    counts["geometry.eval_points"] += _batch(args[1])


def _count_sample(counts, args, result):
    points, rejected = result
    counts["harness.accepted"] += len(points)
    counts["harness.draws"] += len(points) + rejected


def _count_identity_points(counts, args, result):
    counts["identities.points"] += _batch(args[-1])


def _count_obj(counts, args, result):
    counts["mesh.obj_bytes"] += len(result)


# (span name, module, attribute, counter hook): patched wherever minvar
# holds a name bound to the same function object
FUNCTION_TARGETS = (
    ("geometry.metric", "minvar.geometry", "metric", None),
    ("geometry.laplace", "minvar.geometry", "laplace_from_pointeval", None),
    ("families.build", "minvar.families", "build_immersion", None),
    ("harness.sample", "minvar.harness", "sample_points", _count_sample),
    ("harness.campaign", "minvar.harness", "verify_minimality", None),
    ("harness.campaign", "minvar.harness", "verify_screw_invariance", None),
    ("harness.campaign", "minvar.harness", "verify_cone_scaling", None),
    ("harness.campaign", "minvar.harness", "takahashi_equivalence", None),
    ("charts.frame", "minvar.charts", "clifford_frame", None),
    ("identities.lemma", "minvar.identities", "lemma_magic_residuals",
     _count_identity_points),
    ("identities.algebra", "minvar.identities", "helicoid_algebra",
     _count_identity_points),
    ("identities.harmonicity", "minvar.identities", "theta_harmonicity",
     _count_identity_points),
    ("identities.proof_terms", "minvar.identities", "proof_terms",
     _count_identity_points),
    ("mesh.tessellate", "minvar.mesh", "tessellate", None),
    ("mesh.obj", "minvar.mesh", "obj_text", _count_obj),
    ("cli.main", "minvar.cli", "main", None),
)
METHOD_TARGETS = (
    ("geometry.eval", geometry.Immersion, "eval", _count_eval),
    ("geometry.position", geometry.Immersion, "position", None),
    ("geometry.excluded", geometry.Immersion, "excluded", None),
    ("charts.frame", charts.CliffordBlock, "immersion", None),
    ("charts.frame", charts.CliffordBlock, "dual_immersion", None),
    ("charts.embed", charts.SphereChart, "embed", None),
    ("charts.embed", charts.CliffordBlock, "embed_pair", None),
)


class Tracer:
    """Spans and counters of one traced pass; ``installed()`` patches."""

    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self) -> None:
        self.spans = []   # (span id, parent id or 0, name, start, end, self)
        self.counts = Counter()
        self.leaf_calls = Counter()
        self.leaf_time = defaultdict(float)
        self.hess_bytes = 0
        self._stack = []  # [span id, time of nested spans and leaves]
        self._ids = itertools.count(1)

    # ---- wrappers ----------------------------------------------------------

    def _span(self, name, fn, hook):
        tracer, clock = self, time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else 0
            frame = [next(tracer._ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tracer.spans.append((frame[0], parent, name, start, end,
                                     end - start - frame[1]))
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, name, fn, is_jet_call):
        tracer, clock = self, time.perf_counter

        def wrapper(*args):
            start = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - start
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed
                if is_jet_call(args):
                    tracer.leaf_calls[name] += 1
                    tracer.leaf_time[name] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def _mul(self, fn):
        tracer, clock = self, time.perf_counter
        Jet2 = jets.Jet2

        def wrapper(a, b):
            start = clock()
            try:
                result = fn(a, b)
            finally:
                elapsed = clock() - start
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed
                tracer.leaf_calls["jets.mul"] += 1
                tracer.leaf_time["jets.mul"] += elapsed
            if type(result) is Jet2:
                tracer.hess_bytes += result.hess.size * 8
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ---- patching ----------------------------------------------------------

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    @contextmanager
    def installed(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "minvar" or name.startswith("minvar.")]
        try:
            for name, module, attr, hook in FUNCTION_TARGETS:
                original = getattr(sys.modules[module], attr)
                wrapper = self._span(name, original, hook)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
            for name, cls, attr, hook in METHOD_TARGETS:
                self._patch(cls, attr,
                            self._span(name, cls.__dict__[attr], hook))
            for attr in ("__mul__", "__rmul__"):
                self._patch(jets.Jet2, attr,
                            self._mul(jets.Jet2.__dict__[attr]))
            self._patch(jets, "_chain",
                        self._leaf("jets.prim", jets._chain, lambda a: True))
            self._patch(jets, "atan2", self._leaf(
                "jets.prim", jets.atan2,
                lambda a: any(isinstance(x, jets.Jet2) for x in a)))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    # ---- per-pass metrics --------------------------------------------------

    def pass_metrics(self, run_s: float, bytes_written: int) -> dict:
        """Layer metrics of the pass just traced; ``run_s`` is its time."""
        names = {span_id: name for span_id, _, name, *_ in self.spans}
        self_s = defaultdict(float)
        calls = Counter()
        guard_eval = sample_incl = 0.0
        for _, parent, name, start, end, own in self.spans:
            self_s[name] += own
            calls[name] += 1
            if name == "geometry.eval" and \
                    names.get(parent) == "geometry.excluded":
                guard_eval += end - start
            if name == "harness.sample":
                sample_incl += end - start

        out = {metric: self_s[span] for span, metric in _SPAN_METRICS.items()}
        out.update({metric: calls[span]
                    for span, metric in _CALL_METRICS.items()})
        out["jets.mul_calls"] = self.leaf_calls["jets.mul"]
        out["jets.mul_s"] = self.leaf_time["jets.mul"]
        out["jets.prim_calls"] = self.leaf_calls["jets.prim"]
        out["jets.prim_s"] = self.leaf_time["jets.prim"]
        out["jets.hess_mb_computed"] = self.hess_bytes / 1e6
        out["geometry.eval_points_per_call"] = (
            self.counts["geometry.eval_points"] / calls["geometry.eval"]
            if calls["geometry.eval"] else 0.0)
        out["geometry.guard_eval_s"] = guard_eval
        out["harness.draws"] = self.counts["harness.draws"]
        out["harness.accept_ratio"] = (
            self.counts["harness.accepted"] / self.counts["harness.draws"]
            if self.counts["harness.draws"] else 0.0)
        out["harness.sample_incl_share"] = sample_incl / run_s
        identity_calls = sum(calls[s] for s in _IDENTITY_SPANS)
        out["identities.points_per_call"] = (
            self.counts["identities.points"] / identity_calls
            if identity_calls else 0.0)
        out["mesh.obj_bytes"] = self.counts["mesh.obj_bytes"]
        out["cli.bytes_written"] = bytes_written

        layer_self = defaultdict(float)
        for name, own in self_s.items():
            layer_self[name.split(".")[0]] += own
        layer_self["jets"] += sum(self.leaf_time.values())
        for layer in LAYERS:
            out[f"{layer}.self_share"] = layer_self[layer] / run_s
        out["trace.self_coverage"] = sum(layer_self.values()) / run_s
        return out


# ---------------------------------------------------------------------------
# Micro rows: one layer call at a fixed shape, untraced
# ---------------------------------------------------------------------------


def _per_call_s(fn, min_total_s: float) -> float:
    """Median per-call time over five batches sized to ``min_total_s`` each."""
    calls, start = 0, time.perf_counter()
    while time.perf_counter() - start < min_total_s / 5 or calls < 1:
        fn()
        calls += 1
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples)


def _dense_jet(rng, batch: int, n: int) -> jets.Jet2:
    h = rng.standard_normal((batch, n, n))
    return jets.Jet2(rng.standard_normal(batch),
                     rng.standard_normal((batch, n)),
                     h + np.swapaxes(h, -1, -2))


def micro_rows(seed: int, budget_s: float) -> dict:
    """Jet products and sines at (1000, 16) and (1, 16); eval at batch 1000."""
    rng = np.random.default_rng(seed)
    out = {}
    per_row = budget_s / 16
    for batch in (1000, 1):
        a, b = _dense_jet(rng, batch, 16), _dense_jet(rng, batch, 16)
        out[f"jets.mul_us_b{batch}_n16"] = \
            1e6 * _per_call_s(lambda: a * b, per_row)
        out[f"jets.sin_us_b{batch}_n16"] = \
            1e6 * _per_call_s(lambda: jets.sin(a), per_row)
    # value, gradient and Hessian of one (1000, 16) product, from shapes
    out["jets.mul_mb_b1000_n16_computed"] = 1000 * (1 + 16 + 16 * 16) * 8 / 1e6
    for label, spec in harness.default_campaign():
        imm = families.build_immersion(spec)
        box = np.asarray(imm.domain, dtype=float)
        points = rng.uniform(box[:, 0], box[:, 1], size=(1000, imm.param_dim))
        out[f"geometry.eval_ms_b1000.{label}"] = \
            1e3 * _per_call_s(lambda: imm.eval(points), per_row)
    return out


def summarize(per_pass: list[dict]) -> dict:
    """Median of each layer metric over the traced passes."""
    return {key: statistics.median(p[key] for p in per_pass)
            for key in per_pass[0]}
