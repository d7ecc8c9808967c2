"""Seeded workloads, the operations they run, and the checks on every output.

An operation ("op") is the work of one CLI invocation minus process start and
file I/O: decode the input tuples from JSON text, call the library the way the
matching `ordermotion.cli.cmd_*` does, and encode the result to JSON text.
The encoded text is what the checks look at.

Each workload is an endless stream of instances. Instance i of a run with seed
s is generated from its own `random.Random` keyed by (workload, s, i) and its
shape is fixed by i alone (a repeating schedule), so every seed runs the same
mix of shapes on different points.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

# Library calls go through the module attributes, so that the tracer's
# wrappers are seen when installed.
from ordermotion import blowup, motion, rotation, serialize
from ordermotion.errors import InternalInvariantError
from ordermotion.geometry import (
    PointTuple,
    is_general_position,
    mirror,
    order_type,
    orient,
)

# certify_decay_scale starts its eta search here (its documented default).
ETA_START = Fraction(1, 1024)
# Draws of a planted target's free points before the source is redrawn.
PLANT_TRIES = 32


@dataclass(frozen=True)
class Instance:
    """One op's input: the JSON texts of its tuples plus CLI parameters."""

    workload: str
    index: int
    kind: str  # plan | goodrot | blowup | oracle
    shape: str
    inputs: tuple[str, ...]
    params: tuple[tuple[str, int], ...] = ()

    def param(self, key: str) -> int:
        return dict(self.params)[key]


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

def _coord(rng: random.Random, span: int, den: int) -> Fraction:
    return Fraction(rng.randint(-span * den, span * den), den)


def _tuple(rng: random.Random, n: int, d: int, span: int = 16, den: int = 8) -> PointTuple:
    while True:
        P = PointTuple(d, tuple(tuple(_coord(rng, span, den) for _ in range(d)) for _ in range(n)))
        if is_general_position(P):
            return P


def _planted_target(
    rng: random.Random, P: PointTuple, span: int = 16, den: int = 8
) -> PointTuple | None:
    """A target in which two points are the source points scaled by -1 and
    two others by +2. Every subset holding both -1 points degenerates at the
    same time on the direct branch, and every subset holding both +2 points
    at the same time on the reflected branch, so both branches of the
    even-d planner report shared roots. None when PLANT_TRIES draws of the
    free points leave the target out of general position: the planted points
    themselves may be degenerate, and then no draw helps."""
    idx = rng.sample(range(P.n), 4)
    factor = {idx[0]: -1, idx[1]: -1, idx[2]: 2, idx[3]: 2}
    for _ in range(PLANT_TRIES):
        points = tuple(
            tuple(c * factor[i] for c in p)
            if i in factor
            else tuple(_coord(rng, span, den) for _ in range(P.dim))
            for i, p in enumerate(P.points)
        )
        Q = PointTuple(P.dim, points)
        if is_general_position(Q):
            return Q
    return None


def _same_orientation_subsets(rng: random.Random, d: int) -> tuple[PointTuple, PointTuple]:
    A = _tuple(rng, d + 1, d)
    B = _tuple(rng, d + 1, d)
    if orient(A.points) != orient(B.points):
        B = mirror(B)
    return A, B


def _same_order_type(rng: random.Random, P: PointTuple, rounds: int = 2) -> PointTuple:
    """A different realization of P's order type: a random walk of single
    points, keeping each step that leaves the order type unchanged."""
    target = order_type(P)
    Q = P
    for _ in range(rounds):
        for i in range(Q.n):
            moved = tuple(c + Fraction(rng.randint(-64, 64), 256) for c in Q.points[i])
            candidate = Q.with_point(i, moved)
            if order_type(candidate) == target:
                Q = candidate
    return Q


def _text(P: PointTuple) -> str:
    return serialize.json_dumps(serialize.point_tuple_to_obj(P))


# Shape schedules: instance i of a workload has shape SCHEDULES[w][i % len].
SCHEDULES = {
    "even_plan": (
        ("plan", {"d": 2, "n": 6}),
        ("plan", {"d": 2, "n": 7, "planted": 1}),
        ("plan", {"d": 4, "n": 6}),
        ("plan", {"d": 2, "n": 6, "planted": 1}),
        ("plan", {"d": 4, "n": 6, "planted": 1}),
        ("plan", {"d": 4, "n": 7, "planted": 1}),
    ),
    # d=7 n=8 is one op in 16: its cost swings with the eta halvings of
    # certify_decay_scale, and the tail is steadiest when it falls inside the
    # bulk of that shape, which takes about 30 such ops per run.
    "odd_plan": (("plan", {"d": 3, "n": 5}), ("plan", {"d": 5, "n": 6})) * 7
    + (("plan", {"d": 3, "n": 5}), ("plan", {"d": 7, "n": 8})),
    "rotation_measure": (
        ("goodrot", {"d": 2, "N": 32}),
        ("goodrot", {"d": 4, "N": 8}),
        ("goodrot", {"d": 2, "n": 6, "N": 4}),
        ("goodrot", {"d": 2, "N": 32}),
        ("goodrot", {"d": 4, "N": 8}),
    ),
    "blowup_oracle": (
        ("blowup", {"r": 5, "m": 3, "samples": 16}),
        ("oracle", {"d": 2, "n": 5, "steps": 16}),
        ("blowup", {"r": 5, "m": 3, "samples": 16}),
        ("oracle", {"d": 2, "n": 6, "steps": 16}),
        ("blowup", {"r": 6, "m": 3, "samples": 16}),
    ),
}
WORKLOADS = tuple(SCHEDULES)


def _shape_label(kind: str, shape: dict) -> str:
    return kind + ":" + ",".join(f"{k}={v}" for k, v in sorted(shape.items()))


def instance(workload: str, seed: int, index: int) -> Instance:
    """Instance `index` of the workload's stream for this seed."""
    kind, shape = SCHEDULES[workload][index % len(SCHEDULES[workload])]
    rng = random.Random(f"{workload}:{seed}:{index}")
    op_seed = rng.randrange(2**31)
    label = _shape_label(kind, shape)
    if kind == "plan":
        d, n = shape["d"], shape["n"]
        span = 16 if d % 2 == 0 else 8
        while True:
            P = _tuple(rng, n, d, span)
            Q = _planted_target(rng, P, span) if shape.get("planted") else _tuple(rng, n, d, span)
            if Q is not None:
                break
        return Instance(workload, index, kind, label, (_text(P), _text(Q)), (("seed", op_seed),))
    if kind == "goodrot":
        if "n" in shape:
            P = _tuple(rng, shape["n"], shape["d"], span=8)
            Q = _same_order_type(rng, P)
        else:
            P, Q = _same_orientation_subsets(rng, shape["d"])
        params = (("n_samples", shape["N"]), ("seed", op_seed))
        return Instance(workload, index, kind, label, (_text(P), _text(Q)), params)
    if kind == "blowup":
        Q = _tuple(rng, shape["r"], 2, span=8)
        Qp = _same_order_type(rng, Q)
        params = (("m", shape["m"]), ("samples", shape["samples"]), ("seed", op_seed))
        return Instance(workload, index, kind, label, (_text(Q), _text(Qp)), params)
    if kind == "oracle":
        P = _tuple(rng, shape["n"], shape["d"])
        Q = _tuple(rng, shape["n"], shape["d"])
        return Instance(workload, index, kind, label, (_text(P), _text(Q)), (("steps", shape["steps"]),))
    raise ValueError(f"unknown op kind {kind!r}")


def warmup_instance(workload: str, seed: int) -> Instance:
    """The set-up op's input: the first shape of the schedule, drawn apart
    from the timed stream."""
    return instance(workload, seed, -len(SCHEDULES[workload]))


# ---------------------------------------------------------------------------
# Operations, mirroring ordermotion.cli
# ---------------------------------------------------------------------------

def decode(inst: Instance) -> list[PointTuple]:
    return [serialize.point_tuple_from_obj(json.loads(text)) for text in inst.inputs]


def _planner_bound(P: PointTuple) -> int:
    return (P.dim * math.comb(P.n, P.dim + 1)) // 2


def compute(inst: Instance, tuples: list[PointTuple]):
    """The library calls of the matching CLI command (cmd_plan with
    --check-bound, cmd_goodrot, cmd_blowup, cmd_oracle)."""
    P, Q = tuples
    if inst.kind == "plan":
        if P.dim % 2 == 0:
            plan = motion.plan_even_d(P, Q)
        else:
            plan = motion.plan_odd_d(P, Q, tries=None, seed=inst.param("seed"))
        if plan.total > _planner_bound(P):
            raise InternalInvariantError(
                f"planner bound breached: total {plan.total} > {_planner_bound(P)}"
            )
        return plan
    if inst.kind == "goodrot":
        n_samples, seed = inst.param("n_samples"), inst.param("seed")
        if P.n == P.dim + 1:
            return rotation.estimate_measure(P, Q, n_samples=n_samples, seed=seed)
        return rotation.rotation_cost_experiment(
            P, Q, n_rotations=n_samples, seed=seed, aspect_bound=None
        )
    if inst.kind == "blowup":
        m, samples, seed = inst.param("m"), inst.param("samples"), inst.param("seed")
        result = blowup.build_blowup(P, Q, m)
        report = blowup.verify_blowup(result, P, Q, samples=samples, seed=seed)
        if not report.all_pass:
            raise InternalInvariantError("blow-up verification failed; this is a bug")
        return result, report, blowup.lower_bound_certificate(result.r, result.m)
    if inst.kind == "oracle":
        plan = motion.linear_cost(P, Q)
        return plan, motion.discretized_cost(P, Q, initial_steps=inst.param("steps"))
    raise ValueError(f"unknown op kind {inst.kind!r}")


def to_obj(inst: Instance, result) -> dict:
    if inst.kind == "plan":
        return serialize.plan_to_obj(result)
    if inst.kind == "goodrot":
        if hasattr(result, "dichotomy_failures"):
            obj = serialize.measure_to_obj(result)
            obj["mode"] = "measure"
        else:
            obj = serialize.rotation_report_to_obj(result)
            obj["mode"] = "experiment"
        return obj
    if inst.kind == "blowup":
        result, report, cert = result
        return {
            "result": serialize.blowup_to_obj(result),
            "report": serialize.blowup_report_to_obj(report),
            "certificate": cert.value,
            "asymptotic_constant": serialize.scalar_str(cert.asymptotic_constant),
            "parameters": {
                "m": inst.param("m"),
                "samples": inst.param("samples"),
                "seed": inst.param("seed"),
            },
        }
    plan, sampled = result
    return {
        "linear_cost_total": plan.total,
        "discretized_total": sampled,
        "agree": plan.total == sampled,
        "parameters": {"steps": inst.param("steps")},
    }


def encode(inst: Instance, result) -> str:
    return serialize.json_dumps(to_obj(inst, result))


def run_op(inst: Instance) -> str:
    return encode(inst, compute(inst, decode(inst)))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Independent checks of an encoded output
# ---------------------------------------------------------------------------

def check_output(inst: Instance, text: str) -> list[str]:
    """Problems found in one op's encoded output, checked against facts the
    paper guarantees rather than against a second run of the same code."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    try:
        return _check_obj(inst, obj)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return [f"output is malformed: {exc!r}"]


def _check_obj(inst: Instance, obj: dict) -> list[str]:
    problems = []
    if inst.kind == "plan":
        source = json.loads(inst.inputs[0])
        n, d = len(source["points"]), source["d"]
        if (obj["n"], obj["d"]) != (n, d):
            problems.append("plan shape differs from the input")
        subsets = math.comb(n, d + 1)
        flips = [row["flips"] for row in obj["ledger"]]
        if len(flips) != subsets:
            problems.append(f"ledger has {len(flips)} rows, expected {subsets}")
        if sum(flips) != obj["total"]:
            problems.append("plan total disagrees with its ledger")
        if any(not 0 <= f <= d for f in flips):
            problems.append("a subset flips more than d times")
        if obj["total"] > (d * subsets) // 2:
            problems.append(f"total {obj['total']} exceeds (d/2) C(n, d+1)")
    elif inst.kind == "goodrot" and obj["mode"] == "measure":
        if obj["dichotomy_failures"] != 0:
            problems.append(f"{obj['dichotomy_failures']} dichotomy failures")
        if obj["n_samples"] != inst.param("n_samples"):
            problems.append("sample count differs from the request")
        if obj["estimate"] != obj["n_good"] / obj["n_samples"]:
            problems.append("estimate disagrees with n_good / n_samples")
    elif inst.kind == "goodrot":
        costs = obj["per_rotation_costs"]
        cap = obj["d"] * math.comb(obj["n"], obj["d"] + 1)
        if len(costs) != inst.param("n_samples"):
            problems.append("rotation count differs from the request")
        if obj["best_cost"] != min(costs) or any(not 0 <= c <= cap for c in costs):
            problems.append("experiment costs are inconsistent")
    elif inst.kind == "blowup":
        if not obj["report"]["all_pass"]:
            problems.append("blow-up report does not pass")
        m = inst.param("m")
        if obj["certificate"] != 2 * m**3 or obj["result"]["m"] != m:
            problems.append("blow-up certificate is not 2 m^3")
        if len(obj["result"]["P"]["points"]) != obj["result"]["r"] * m:
            problems.append("blown-up tuple has the wrong size")
    elif inst.kind == "oracle":
        if not obj["agree"] or obj["linear_cost_total"] != obj["discretized_total"]:
            problems.append("linear_cost disagrees with the discretized oracle")
    return problems


# deep_check runs on the first DEEP_CHECK_CYCLES passes through a schedule.
DEEP_CHECK_CYCLES = 2


def deep_check(inst: Instance, text: str) -> list[str]:
    """Recomputation checks on even-d plans: the total equals the cheaper of
    the direct and reflected linear motions, and on the smallest shape the
    direct linear_cost agrees with the sampled oracle. They cost about half
    an op, so they run on the first few ops of a run only."""
    if inst.kind != "plan" or inst.index >= DEEP_CHECK_CYCLES * len(SCHEDULES[inst.workload]):
        return []
    P, Q = decode(inst)
    if P.dim % 2 != 0:
        return []
    total = json.loads(text)["total"]
    direct = motion.linear_cost(P, Q, check_simultaneous=False).total
    reflected = motion.linear_cost(
        P, motion.scale_tuple(Q, (-1,) * P.dim), check_simultaneous=False
    ).total
    problems = []
    if total != min(direct, reflected):
        problems.append(f"total {total} is not min(direct {direct}, reflected {reflected})")
    if P.dim == 2 and P.n == 6 and direct != motion.discretized_cost(P, Q):
        problems.append("linear_cost disagrees with discretized_cost")
    return problems


def judge(inst: Instance, text: str, reference_digest: str | None) -> list[str]:
    """Every problem with one op's output: the independent checks, and a
    mismatch with the committed reference digest when there is one."""
    problems = check_output(inst, text) + deep_check(inst, text)
    if reference_digest is not None and digest(text) != reference_digest:
        problems.append("output differs from the committed reference digest")
    return problems


# ---------------------------------------------------------------------------
# Work counts derived from outputs
# ---------------------------------------------------------------------------

def _log2_ratio(num: Fraction, den: Fraction) -> int:
    """log2(num / den) for a ratio that is an exact power of two."""
    ratio = num / den
    if ratio.denominator != 1 or ratio.numerator & (ratio.numerator - 1):
        raise ValueError(f"{ratio} is not a power of two")
    return ratio.numerator.bit_length() - 1


def eta_halvings(plan_obj: dict) -> int:
    """Halvings certify_decay_scale made, read from an odd-d plan: the
    scaling segment undoes lam_j = s_j eta^j, so its first entry is
    +-1/eta."""
    scaling = next(seg for seg in plan_obj["segments"] if seg["kind"] == "zero-cost-scaling")
    eta = 1 / abs(Fraction(scaling["scaling"][0]))
    return _log2_ratio(ETA_START, eta)


def delta_halvings(blowup_obj: dict) -> int:
    """Halvings build_blowup made, from the CloudSpecs: delta starts at
    min(eps, eps') / (4 m^2 max|a_i|) over the directions of both sides."""
    result = blowup_obj["result"]
    spec, spec_prime = result["spec"], result["spec_prime"]
    norm = max(
        abs(Fraction(c))
        for s in (spec, spec_prime)
        for a in s["directions"]
        for c in a
    )
    m = result["m"]
    start = min(Fraction(spec["epsilon"]), Fraction(spec_prime["epsilon"])) / (4 * m * m * norm)
    return _log2_ratio(start, Fraction(spec["delta"]))
