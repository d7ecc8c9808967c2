"""Per-layer metrics derived from a traced run.

Every metric is normalized per op of the run (or is a mean or a ratio), so
runs that complete different numbers of ops compare directly. The layers are
the library's modules.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from tracing import SpanStats, Tracer, count_with_ancestor, count_with_parent
from workloads import Instance, delta_halvings, eta_halvings


@dataclass
class OutputCounts:
    """Work counts read from the ops' inputs and encoded outputs."""

    ops: int = 0
    subsets: int = 0  # sum of C(n, d+1) over the ops' input tuples
    output_bytes: int = 0
    eta_halvings: int = 0
    delta_halvings: int = 0
    resamples: int = 0
    measure_samples: int = 0  # sum of n_samples over measure ops
    measure_good: dict = field(default_factory=dict)  # d -> [n_good, n_samples]
    measure_ops: dict = field(default_factory=dict)  # d -> indices of measure ops

    def add(self, inst: Instance, text: str) -> None:
        """Count one checked op's input and output."""
        source = json.loads(inst.inputs[0])
        n, d = len(source["points"]), source["d"]
        self.subsets += math.comb(n, d + 1)
        self.output_bytes += len(text.encode("utf-8"))
        obj = json.loads(text)
        if inst.kind == "plan" and d % 2 == 1:
            self.eta_halvings += eta_halvings(obj)
        elif inst.kind == "blowup":
            self.delta_halvings += delta_halvings(obj)
        elif inst.kind == "goodrot" and obj["mode"] == "experiment":
            self.resamples += obj["resamples"]
        elif inst.kind == "goodrot":
            self.measure_samples += obj["n_samples"]
            good = self.measure_good.setdefault(d, [0, 0])
            good[0] += obj["n_good"]
            good[1] += obj["n_samples"]
            self.measure_ops.setdefault(d, []).append(inst.index)


# (name, unit, better): the metrics the traced run prints as its result line,
# and the per_layer list of BENCHMARK.json. Each is defined on every
# workload; a layer that does not run on a workload reads 0 there.
PER_LAYER = (
    ("geometry.det_rational.calls", "calls/op", "lower"),
    ("geometry.det_rational.self_s", "s/op", "lower"),
    ("geometry.det_rational.input_bits", "bits", "lower"),
    ("geometry.orient.calls", "calls/op", "lower"),
    ("geometry.order_type.calls", "calls/op", "lower"),
    ("polynomial.poly_gcd.calls", "calls/op", "lower"),
    ("polynomial.poly_gcd.self_s", "s/op", "lower"),
    ("polynomial.square_free_part.calls", "calls/op", "lower"),
    ("polynomial.square_free_decomposition.calls", "calls/op", "lower"),
    ("polynomial.sqf_passes_per_pencil", "ratio", "lower"),
    ("polynomial.sturm_distinct_roots.calls", "calls/op", "lower"),
    ("polynomial.sturm_distinct_roots.total_s", "s/op", "lower"),
    ("polynomial.sign_change_count.total_s", "s/op", "lower"),
    ("pencil.build_pencil.calls", "calls/op", "lower"),
    ("pencil.build_pencil.self_s", "s/op", "lower"),
    ("pencil.build_pencil.coeff_bits", "bits", "lower"),
    ("pencil.coefficient_profile.calls", "calls/op", "lower"),
    ("pencil.profiles_per_subset", "ratio", "lower"),
    ("pencil.localization_certified.calls", "calls/op", "lower"),
    ("motion.linear_cost.total_s", "s/op", "lower"),
    ("motion.shared_root.pairs_tested", "count/op", "lower"),
    ("motion.shared_root.hit_ratio", "ratio", "higher"),
    ("motion.sign_rule_ledger.calls", "calls/op", "lower"),
    ("motion.certify_decay_scale.pencils", "count/op", "lower"),
    ("motion.certify_decay_scale.eta_halvings", "count/op", "lower"),
    ("motion.perturb_general.profiles", "count/op", "lower"),
    ("motion.discretized_cost.sturm_calls", "count/op", "lower"),
    ("motion.discretized_cost.orient_calls", "count/op", "lower"),
    ("blowup.orient_calls", "count/op", "lower"),
    ("blowup.delta_halvings", "count/op", "lower"),
    ("rotation.is_good.calls", "calls/op", "lower"),
    ("rotation.dichotomy_rechecks", "count/op", "lower"),
    ("rotation.resamples", "count/op", "lower"),
    ("serialize.decode.total_s", "s/op", "lower"),
    ("serialize.encode.total_s", "s/op", "lower"),
    ("serialize.output_bytes", "bytes/op", "lower"),
    ("pool.ordered_map.calls", "calls/op", "lower"),
    ("pool.ordered_map.self_s", "s/op", "lower"),
)

# Times of layers that run on some workloads only. They read exactly 0
# elsewhere, so they are printed and written to the results file but kept
# out of the result line; the call counts above stand in for them.
WORKLOAD_TIMES = (
    "pencil.coefficient_profile.self_s",
    "pencil.localization_certified.total_s",
    "motion.certify_decay_scale.total_s",
    "motion.perturb_general.total_s",
    "motion.discretized_cost.total_s",
    "blowup.build_blowup.total_s",
    "blowup.verify_blowup.total_s",
    "rotation.haar_rotation.total_s",
    "rotation.apply_exact.total_s",
    "rotation.is_good.total_s",
)


def sqf_passes_per_pencil(sqf_part_calls: int, sqf_decomp_calls: int, pencils: int) -> float:
    """Square-free passes (decompositions plus square-free parts) per pencil
    built; 0 when no pencil is built."""
    return (sqf_part_calls + sqf_decomp_calls) / pencils if pencils else 0.0


def hit_ratio(reported: float, tested: int) -> float:
    """Shared-root pairs reported per pair tested; 0 when none is tested."""
    return reported / tested if tested else 0.0


def layer_metrics(
    tracer: Tracer, stats: dict[str, SpanStats], counts: OutputCounts
) -> dict[str, tuple[float, str]]:
    """Every PER_LAYER and WORKLOAD_TIMES metric, as (value, unit), from the
    run's spans, their aggregate `stats` and the output counts."""
    ops = max(counts.ops, 1)

    def st(name):
        return stats.get(name)

    def calls(name) -> int:
        s = st(name)
        return s.calls if s else 0

    def field_of(name, attr) -> float:
        s = st(name)
        return getattr(s, attr) if s else 0.0

    pairs_tested = count_with_parent(tracer, "polynomial.poly_gcd", ("motion.linear_cost",))
    values = {
        "geometry.det_rational.input_bits": tracer.observed["geometry.det_rational.input_bits"].mean,
        "polynomial.sqf_passes_per_pencil": sqf_passes_per_pencil(
            calls("polynomial.square_free_part"),
            calls("polynomial.square_free_decomposition"),
            calls("pencil.build_pencil"),
        ),
        "pencil.build_pencil.coeff_bits": tracer.observed["pencil.build_pencil.coeff_bits"].mean,
        "pencil.profiles_per_subset": (
            calls("pencil.coefficient_profile") / counts.subsets if counts.subsets else 0.0
        ),
        "motion.shared_root.pairs_tested": pairs_tested / ops,
        "motion.shared_root.hit_ratio": hit_ratio(
            tracer.observed["motion.shared_root.reported"].total, pairs_tested
        ),
        "motion.certify_decay_scale.pencils": count_with_parent(
            tracer, "pencil.build_pencil", ("motion.certify_decay_scale",)
        ) / ops,
        "motion.certify_decay_scale.eta_halvings": counts.eta_halvings / ops,
        "motion.perturb_general.profiles": count_with_parent(
            tracer, "pencil.coefficient_profile", ("motion.perturb_general",)
        ) / ops,
        "motion.discretized_cost.sturm_calls": count_with_parent(
            tracer, "polynomial.sturm_distinct_roots", ("motion.discretized_cost",)
        ) / ops,
        "motion.discretized_cost.orient_calls": count_with_parent(
            tracer, "geometry.orient", ("motion.discretized_cost",)
        ) / ops,
        "blowup.orient_calls": count_with_ancestor(
            tracer, "geometry.orient", ("blowup.build_blowup", "blowup.verify_blowup")
        ) / ops,
        "blowup.delta_halvings": counts.delta_halvings / ops,
        "rotation.dichotomy_rechecks": (calls("rotation.is_good") - counts.measure_samples) / ops,
        "rotation.resamples": counts.resamples / ops,
        "serialize.output_bytes": counts.output_bytes / ops,
    }
    out: dict[str, tuple[float, str]] = {}
    for name, unit, _ in PER_LAYER:
        if name not in values:
            base, attr = name.rsplit(".", 1)
            if attr == "calls":
                values[name] = calls(base) / ops
            else:
                values[name] = field_of(base, attr) / ops
        out[name] = (values[name], unit)
    for name in WORKLOAD_TIMES:
        base, attr = name.rsplit(".", 1)
        out[name] = (field_of(base, attr) / ops, "s/op")
    return out


def total_time_shares(stats: dict[str, SpanStats]) -> list[tuple[str, float]]:
    """Each span name's total time as a share of op time, largest first."""
    ops = stats.get("op")
    total = ops.total_s if ops and ops.total_s else 1.0
    return sorted(((name, s.total_s / total) for name, s in stats.items()), key=lambda x: -x[1])


def self_time_shares(stats: dict[str, SpanStats]) -> list[tuple[str, float]]:
    """Each span name's share of the summed self time, largest first."""
    total = sum(s.self_s for s in stats.values()) or 1.0
    return sorted(((name, s.self_s / total) for name, s in stats.items()), key=lambda x: -x[1])
