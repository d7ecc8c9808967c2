"""Tests of the benchmark's own arithmetic, tracing and checks.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import layers
import run
import speed
import stats
import tracing
import workloads
from ordermotion import motion, pencil, polynomial
from ordermotion.geometry import is_general_position

BENCH = Path(__file__).resolve().parent


# ---------------------------------------------------------------------------
# Tail percentile
# ---------------------------------------------------------------------------

def test_tail_leaves_ten_samples_beyond():
    t = stats.tail([float(v) for v in range(100, 0, -1)])
    assert (t.value, t.percentile, t.beyond, t.samples) == (90.0, 90.0, 10, 100)


def test_tail_percentile_rises_with_sample_count():
    t = stats.tail(list(range(1000)))
    assert t.value == 989 and t.beyond == 10 and t.percentile == pytest.approx(99.0)


def test_tail_with_too_few_samples_is_the_smallest():
    t = stats.tail([5.0, 3.0, 4.0])
    assert (t.value, t.beyond, t.samples) == (3.0, 2, 3)


def test_speed_scaling_uses_the_median_of_nearby_calibrations():
    ref = speed.REFERENCE_S
    calibrations = [(ref, ref), (2 * ref, 2 * ref), (ref, 3 * ref), (4 * ref, 4 * ref), (ref, ref)]
    # pair means 1, 2, 2, 4, 1 (in REFERENCE_S); the median over each op and
    # its neighbours is 1.5, 2, 2, 2, 2.5
    scaled = speed.scale_all([2.0] * 5, calibrations, window=1)
    assert scaled == pytest.approx([4 / 3, 1.0, 1.0, 1.0, 0.8])
    assert speed.scale(3.0, ref, 2 * ref) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

def _ticks(*times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    tracer = tracing.Tracer(clock=_ticks(0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 9.0, 10.0))
    tracer.op = 0
    with tracer.span("op"):
        with tracer.span("a"):
            with tracer.span("leaf"):
                pass
        with tracer.span("b"):
            pass
    agg = tracing.aggregate(tracer)
    assert agg["op"].total_s == 10.0 and agg["op"].self_s == 3.0
    assert agg["a"].total_s == 4.0 and agg["a"].self_s == 2.0
    assert agg["leaf"].self_s == 2.0 and agg["b"].self_s == 3.0
    assert list(tracer.span_parent) == [tracing.NO_PARENT, 0, 1, 0]
    assert tracing.count_with_parent(tracer, "leaf", ("a",)) == 1
    assert tracing.count_with_parent(tracer, "leaf", ("op",)) == 0
    assert tracing.count_with_ancestor(tracer, "leaf", ("op",)) == 1


def test_spans_outside_ops_are_not_aggregated():
    tracer = tracing.Tracer(clock=_ticks(0.0, 1.0))
    with tracer.span("check"):
        pass
    assert tracing.aggregate(tracer)["check"].calls == 0


# ---------------------------------------------------------------------------
# Derived ratios and halving counts
# ---------------------------------------------------------------------------

def test_sqf_passes_per_pencil():
    # one decomposition and two square-free parts per pencil
    assert layers.sqf_passes_per_pencil(20, 10, 10) == 3.0
    assert layers.sqf_passes_per_pencil(0, 0, 0) == 0.0


def test_hit_ratio():
    assert layers.hit_ratio(3, 12) == 0.25
    assert layers.hit_ratio(0, 0) == 0.0


def test_eta_halvings_from_a_plan_output():
    plan = {"segments": [
        {"kind": "linear"},
        {"kind": "zero-cost-scaling", "scaling": ["4096", "-16777216", "68719476736"]},
        {"kind": "linear"},
    ]}
    assert workloads.eta_halvings(plan) == 2  # eta = 1/4096 = (1/1024) / 2^2


def test_eta_halvings_match_the_certified_eta():
    inst = workloads.instance("odd_plan", 0, 0)
    P, Q = workloads.decode(inst)
    plan = json.loads(workloads.run_op(inst))
    Pq = motion.perturb_general(Q, motion.robust_radius(Q).epsilon, partner=P, seed=inst.param("seed"))
    scaling = next(s for s in plan["segments"] if s["kind"] == "zero-cost-scaling")
    signs = tuple(-1 if Fraction(v) < 0 else 1 for v in scaling["scaling"])
    eta = motion.certify_decay_scale(P, Pq, signs)
    assert 2 ** workloads.eta_halvings(plan) == workloads.ETA_START / eta


def test_delta_halvings_from_cloud_specs():
    spec = {"epsilon": "1", "delta": "1/256", "directions": [["1", "0"], ["2", "1"]]}
    spec_prime = {"epsilon": "1/2", "delta": "1/256", "directions": [["0", "1"]]}
    obj = {"result": {"m": 2, "spec": spec, "spec_prime": spec_prime}}
    # start = min(1, 1/2) / (4 * 2^2 * 2) = 1/64, then two halvings to 1/256
    assert workloads.delta_halvings(obj) == 2


def test_halvings_reject_a_ratio_that_is_not_a_power_of_two():
    spec = {"epsilon": "1", "delta": "1/3", "directions": [["1", "0"]]}
    with pytest.raises(ValueError):
        workloads.delta_halvings({"result": {"m": 1, "spec": spec, "spec_prime": spec}})


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def test_wrappers_are_removed_after_a_traced_run():
    inst = workloads.instance("even_plan", 0, 1)  # planted: shared roots
    originals = (motion.linear_cost, motion.build_pencil, polynomial.square_free_part)
    expected = workloads.run_op(inst)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert motion.build_pencil is not originals[1]
        assert polynomial.square_free_part is not originals[2]
        assert pencil.build_pencil is motion.build_pencil
        tracer.op = 0
        traced = run._traced_op(tracer, workloads, inst)
    finally:
        tracer.uninstall()
    assert traced == expected
    assert tracing.leftover_wrappers() == []
    assert (motion.linear_cost, motion.build_pencil, polynomial.square_free_part) == originals
    agg = tracing.aggregate(tracer)
    assert agg["polynomial.poly_gcd"].calls > 0 and agg["op"].calls == 1
    assert tracer.observed["motion.shared_root.reported"].total > 0
    spans = len(tracer)
    assert workloads.run_op(inst) == expected
    assert len(tracer) == spans


def test_blowup_spans_nest_under_the_op():
    inst = workloads.instance("blowup_oracle", 0, 0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        run._traced_op(tracer, workloads, inst)
    finally:
        tracer.uninstall()
    assert tracing.leftover_wrappers() == []
    assert tracing.count_with_parent(tracer, "blowup.build_blowup", ("op",)) == 1
    assert tracing.count_with_ancestor(tracer, "geometry.orient", ("blowup.verify_blowup",)) > 0


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def _corrupt_total(text: str) -> str:
    obj = json.loads(text)
    obj["total"] += 1
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_corrupted_output_fails_the_independent_check():
    inst = workloads.instance("even_plan", 0, 0)
    text = workloads.run_op(inst)
    assert workloads.judge(inst, text, workloads.digest(text)) == []
    problems = workloads.judge(inst, _corrupt_total(text), None)
    assert any("ledger" in p for p in problems)


def test_corrupted_output_fails_the_reference_digest():
    inst = workloads.instance("rotation_measure", 0, 0)
    text = workloads.run_op(inst)
    # a plausible output: still self-consistent, but not what the code produced
    other = text.replace('"seed": ', '"seed": 1')
    assert workloads.check_output(inst, other) == []
    assert workloads.judge(inst, other, workloads.digest(text)) == [
        "output differs from the committed reference digest"
    ]


def test_malformed_output_is_a_problem_not_a_crash():
    inst = workloads.instance("blowup_oracle", 0, 1)
    assert workloads.check_output(inst, "{}")
    assert workloads.check_output(inst, "not json")


def test_a_corrupted_op_is_counted_as_failed(monkeypatch, capsys):
    real = workloads.run_op
    monkeypatch.setattr(workloads, "run_op", lambda inst: _corrupt_total(real(inst)))
    monkeypatch.setattr(run, "SETUP_PROBES", 0)
    assert run.run_workload("even_plan", 7, 0.01, False) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"] >= 1


def test_a_stalled_op_is_stopped_and_counted_as_failed(monkeypatch, capsys):
    monkeypatch.setattr(run, "OP_TIMEOUT_S", 0.001)
    monkeypatch.setattr(run, "SETUP_PROBES", 0)
    assert run.run_workload("even_plan", 7, 0.01, False) == 1
    out, err = capsys.readouterr()
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"] >= 1
    assert "still running after" in err


def test_committed_reference_matches_the_first_ops():
    reference = json.loads((BENCH / "reference.json").read_text())
    for workload in workloads.WORKLOADS:
        digests = reference["digests"][workload]["0"]
        for index in range(2):
            inst = workloads.instance(workload, 0, index)
            assert workloads.digest(workloads.run_op(inst)) == digests[index]


# ---------------------------------------------------------------------------
# Inputs and BENCHMARK.json
# ---------------------------------------------------------------------------

def test_the_same_seed_gives_the_same_inputs():
    for workload in workloads.WORKLOADS:
        assert workloads.instance(workload, 3, 5) == workloads.instance(workload, 3, 5)
        assert workloads.instance(workload, 3, 5) != workloads.instance(workload, 4, 5)


def test_planted_pairs_share_roots_on_both_branches():
    inst = workloads.instance("even_plan", 0, 1)
    P, Q = workloads.decode(inst)
    direct = motion.linear_cost(P, Q)
    reflected = motion.linear_cost(P, motion.scale_tuple(Q, (-1, -1)))
    assert direct.shared_roots and reflected.shared_roots


def test_a_degenerate_plant_redraws_the_source():
    # Seed 36, op 133 (d=2, n=7) first draws a source whose planted points are
    # never in general position, whatever the free points are.
    rng = random.Random("even_plan:36:133")
    rng.randrange(2**31)
    assert workloads._planted_target(rng, workloads._tuple(rng, 7, 2)) is None
    inst = workloads.instance("even_plan", 36, 133)
    P, Q = workloads.decode(inst)
    assert is_general_position(P) and is_general_position(Q)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
