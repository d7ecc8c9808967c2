"""Command-line interface.

Commands: ordertype, cost, plan, blowup, goodrot, aspect, oracle.
Exit codes: 0 success, 2 input or parameter error, 3 precondition violation,
4 internal invariant breach. Every randomized command requires --seed and
echoes it (with all other parameters) into its output, so reruns with the
same configuration are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .blowup import build_blowup, lower_bound_certificate, verify_blowup
from .errors import (
    DegenerateTupleError,
    InternalInvariantError,
    OrderMotionError,
    PreconditionError,
    RetryBudgetError,
)
from .geometry import order_type
from .motion import discretized_cost, linear_cost, plan_even_d, plan_odd_d
from .rotation import (
    estimate_measure,
    non_elongated,
    rotation_cost_experiment,
    triple_aspect_squares,
)
from . import serialize

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_INVARIANT = 4


def _write(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _emit(obj, args, csv_text: str | None = None) -> None:
    if getattr(args, "format", "json") == "csv":
        if csv_text is None:
            raise ValueError("this command has no CSV representation")
        _write(csv_text, args.output)
    else:
        _write(serialize.json_dumps(obj), args.output)


def _load_inputs(args, expected: int):
    paths = args.input
    if len(paths) != expected:
        raise ValueError(f"expected {expected} input file(s), got {len(paths)}")
    return [serialize.load_point_tuple(p) for p in paths]


def cmd_ordertype(args) -> int:
    (P,) = _load_inputs(args, 1)
    t = order_type(P)
    if not t.zero_free:
        offending = next(s for s, sign in zip(t.subsets(), t.signs) if sign == 0)
        raise DegenerateTupleError(
            "tuple is not in general position", subset=offending
        )
    _emit(serialize.order_type_to_obj(t), args, serialize.order_type_csv(t))
    return EXIT_OK


def cmd_cost(args) -> int:
    P, Pprime = _load_inputs(args, 2)
    if args.mirror_branch:
        plan = plan_even_d(P, Pprime)
    else:
        plan = linear_cost(P, Pprime)
    if args.check_bound:
        bound = (P.dim * math.comb(P.n, P.dim + 1)) // 2
        if plan.total > bound:
            raise InternalInvariantError(
                f"planner bound breached: total {plan.total} > {bound}"
            )
    _emit(serialize.plan_to_obj(plan), args, serialize.ledger_csv(plan))
    return EXIT_OK


def cmd_plan(args) -> int:
    P, Pprime = _load_inputs(args, 2)
    if P.dim % 2 == 0:
        plan = plan_even_d(P, Pprime)
    else:
        plan = plan_odd_d(P, Pprime, seed=args.seed)
    if args.check_bound:
        bound = (P.dim * math.comb(P.n, P.dim + 1)) // 2
        if plan.total > bound:
            raise InternalInvariantError(
                f"planner bound breached: total {plan.total} > {bound}"
            )
    _emit(serialize.plan_to_obj(plan), args, serialize.ledger_csv(plan))
    return EXIT_OK


def cmd_blowup(args) -> int:
    Q, Qprime = _load_inputs(args, 2)
    result = build_blowup(Q, Qprime, args.m)
    report = verify_blowup(result, Q, Qprime, samples=args.samples, seed=args.seed)
    if not report.all_pass:
        raise InternalInvariantError("blow-up verification failed; this is a bug")
    cert = lower_bound_certificate(result.r, result.m)
    obj = {
        "result": serialize.blowup_to_obj(result),
        "report": serialize.blowup_report_to_obj(report),
        "certificate": cert.value,
        "asymptotic_constant": serialize.scalar_str(cert.asymptotic_constant),
        "parameters": {"m": args.m, "samples": args.samples, "seed": args.seed},
    }
    _emit(obj, args)
    return EXIT_OK


def cmd_goodrot(args) -> int:
    P, Pprime = _load_inputs(args, 2)
    if args.n_samples < 1:
        raise ValueError("sample count must be positive")
    if P.n == P.dim + 1:
        est = estimate_measure(P, Pprime, n_samples=args.n_samples, seed=args.seed)
        obj = serialize.measure_to_obj(est)
        obj["mode"] = "measure"
        _emit(obj, args)
    else:
        report = rotation_cost_experiment(
            P,
            Pprime,
            n_rotations=args.n_samples,
            seed=args.seed,
            aspect_bound=args.aspect_bound,
        )
        obj = serialize.rotation_report_to_obj(report)
        obj["mode"] = "experiment"
        _emit(obj, args, serialize.rotation_costs_csv(report))
    return EXIT_OK


def cmd_aspect(args) -> int:
    (P,) = _load_inputs(args, 1)
    squares = triple_aspect_squares(P)
    rows = [
        {"subset": list(s), "aspect": float(v) ** 0.5, "aspect_sq": serialize.scalar_str(v)}
        for s, v in squares.items()
    ]
    obj: dict = {"n": P.n, "d": P.dim, "triples": rows}
    if args.alpha is not None:
        obj["alpha"] = args.alpha
        obj["non_elongated"] = non_elongated(P, serialize.parse_scalar(args.alpha))
    _emit(obj, args, serialize.aspect_csv(P.dim, squares))
    return EXIT_OK


def cmd_oracle(args) -> int:
    P, Pprime = _load_inputs(args, 2)
    plan = linear_cost(P, Pprime)
    sampled = discretized_cost(P, Pprime, initial_steps=args.steps)
    agree = plan.total == sampled
    obj = {
        "linear_cost_total": plan.total,
        "discretized_total": sampled,
        "agree": agree,
        "parameters": {"steps": args.steps},
    }
    _emit(obj, args)
    if not agree:
        raise InternalInvariantError(
            f"oracle disagreement: {plan.total} vs {sampled}"
        )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordermotion",
        description="Exact order types, motion costs, cloud blow-ups, and rotation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, inputs: int, fmt: bool = True):
        p.add_argument(
            "--input",
            "-i",
            nargs=inputs,
            required=True,
            metavar="FILE",
            help=f"{inputs} point-tuple JSON file(s)",
        )
        p.add_argument("--output", "-o", default=None, help="output path (default stdout)")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("ordertype", help="order type of a tuple")
    common(p, 1)
    p.set_defaults(func=cmd_ordertype)

    p = sub.add_parser("cost", help="exact cost of the linear motion between two tuples")
    common(p, 2)
    p.add_argument(
        "--mirror-branch",
        action="store_true",
        help="also try the point-reflected target and keep the cheaper branch",
    )
    p.add_argument(
        "--check-bound",
        action="store_true",
        help="fail loudly (exit 4) if the total exceeds (d/2) C(n, d+1)",
    )
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("plan", help="full planner (dimension parity dispatched)")
    common(p, 2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check-bound", action="store_true")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("blowup", help="cloud blow-up of a same-order-type pair")
    common(p, 2, fmt=False)
    p.add_argument("--m", type=int, required=True, help="points per cloud")
    p.add_argument("--samples", type=int, default=200, help="verification selections")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_blowup)

    p = sub.add_parser("goodrot", help="good-rotation measure / rotation-cost experiment")
    common(p, 2)
    p.add_argument("-N", "--n-samples", dest="n_samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--aspect-bound", default=None, help="aspect-ratio threshold (rational)")
    p.set_defaults(func=cmd_goodrot)

    p = sub.add_parser("aspect", help="aspect ratios of all (d+1)-subsets")
    common(p, 1)
    p.add_argument("--alpha", default=None, help="also check alpha-non-elongation")
    p.set_defaults(func=cmd_aspect)

    p = sub.add_parser("oracle", help="cross-check linear_cost against the sampled oracle")
    common(p, 2, fmt=False)
    p.add_argument("--steps", type=int, default=16)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (PreconditionError, RetryBudgetError) as exc:
        detail = getattr(exc, "subset", None)
        suffix = f" (subset {list(detail)})" if detail is not None else ""
        print(f"precondition violation: {exc}{suffix}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OrderMotionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
