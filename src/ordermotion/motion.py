"""Motion plans between point tuples and their exact cost ledgers.

A linear motion from P to a target interpolates every point along a straight
segment; a (d+1)-subset flips orientation exactly at the sign changes of its
pencil polynomial on (0, +inf). Plans combine one costed linear segment with
zero-cost preprocessing segments (diagonal scalings with evenly many negative
entries, or rotations), and carry a per-subset flip ledger in colex order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Sequence

from .errors import (
    DegenerateTupleError,
    DimensionMismatchError,
    InternalInvariantError,
    ParityError,
    RetryBudgetError,
    ShapeMismatchError,
)
from .geometry import (
    PointTuple,
    ScalarLike,
    _det_int,
    _homogeneous,
    apply_linear_map,
    as_scalar,
    colex_subsets,
    det_rational,
    is_general_position,
    order_type,
    robust_radius,
)
from .pencil import (
    CoefficientProfile,
    build_pencil,
    coefficient_profile,
    decay_lambdas,
    localization_certified,
    sign_rule_flips,
)
from .polynomial import IntPoly, _distinct_roots, _gcd, _root_counter, _root_counts

LINEAR = "linear"
ZERO_COST_SCALING = "zero-cost-scaling"
ZERO_COST_ROTATION = "zero-cost-rotation"


@dataclass(frozen=True)
class MotionSegment:
    kind: str
    start: PointTuple
    end: PointTuple
    scaling: tuple[Fraction, ...] | None = None
    rotation: str | None = None

    def __post_init__(self):
        if self.kind not in (LINEAR, ZERO_COST_SCALING, ZERO_COST_ROTATION):
            raise ValueError(f"unknown segment kind {self.kind!r}")


@dataclass(frozen=True)
class MotionPlan:
    """Ordered segments plus the per-subset flip ledger of the costed parts."""

    n: int
    d: int
    segments: tuple[MotionSegment, ...]
    ledger: tuple[tuple[tuple[int, ...], int], ...]
    total: int
    needs_serialization: bool = False
    shared_roots: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = ()

    def __post_init__(self):
        if self.total != sum(c for _, c in self.ledger):
            raise InternalInvariantError("plan total disagrees with its ledger")


def _check_pair(P: PointTuple, Q: PointTuple) -> None:
    if P.dim != Q.dim:
        raise DimensionMismatchError("tuples live in different dimensions")
    if P.n != Q.n:
        raise ShapeMismatchError(f"tuples have different sizes {P.n} vs {Q.n}")
    if P.n < P.dim + 1:
        raise ShapeMismatchError("need at least d+1 points to carry a cost")


def _unit_pencils(
    P: PointTuple, Ptarget: PointTuple
) -> list[tuple[tuple[int, ...], IntPoly]]:
    """The pencil of every (d+1)-subset under unit scalings, in colex order,
    as its primitive integer coefficients."""
    ones = (Fraction(1),) * P.dim
    return [
        (s, build_pencil(P.subtuple(s), Ptarget.subtuple(s), ones, s).coeffs)
        for s in colex_subsets(P.n, P.dim + 1)
    ]


def _plan_from_counts(
    P: PointTuple,
    segments: tuple[MotionSegment, ...],
    pencils: list[tuple[tuple[int, ...], IntPoly]],
    counts: list[tuple[int, int]],
    low: Fraction | None,
    high: Fraction | None,
    check_simultaneous: bool = True,
) -> MotionPlan:
    """Assemble a plan whose costed part moves every subset through the roots
    of its pencil on (low, high); counts[k] is root_counts of pencils[k] there.

    Two subsets share a degeneracy time exactly when the gcd of their pencils
    has a root on that interval."""
    ledger = tuple((s, flips) for (s, _), (flips, _) in zip(pencils, counts))
    shared: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    if check_simultaneous:
        live = [pen for pen, (_, distinct) in zip(pencils, counts) if distinct > 0]
        for i in range(len(live)):
            for j in range(i + 1, len(live)):
                g = _gcd(live[i][1], live[j][1])
                if len(g) > 1 and _distinct_roots(g, low, high) > 0:
                    shared.append((live[i][0], live[j][0]))
    return MotionPlan(
        n=P.n,
        d=P.dim,
        segments=segments,
        ledger=ledger,
        total=sum(flips for flips, _ in counts),
        needs_serialization=bool(shared),
        shared_roots=tuple(shared),
    )


def linear_cost(
    P: PointTuple, Ptarget: PointTuple, check_simultaneous: bool = True
) -> MotionPlan:
    """Exact flip ledger of the straight-line motion from P to Ptarget.

    Both endpoints must be in general position; a degenerate subset at either
    end is reported with its indices. When two subsets share a degeneracy
    time the plan is flagged as needing an infinitesimal serialization
    perturbation; the cost is unaffected.
    """
    _check_pair(P, Ptarget)
    pencils = _unit_pencils(P, Ptarget)
    counts = [_root_counts(c, Fraction(0), None) for _, c in pencils]
    segment = MotionSegment(kind=LINEAR, start=P, end=Ptarget)
    return _plan_from_counts(
        P, (segment,), pencils, counts, Fraction(0), None, check_simultaneous
    )


def scale_tuple(P: PointTuple, lam: Sequence[ScalarLike]) -> PointTuple:
    """Apply a diagonal scaling with nonzero entries and an even number of
    negative ones; such scalings never change the order type and are
    realizable at zero cost."""
    lam_t = tuple(as_scalar(v) for v in lam)
    if len(lam_t) != P.dim:
        raise DimensionMismatchError(f"expected {P.dim} scaling entries")
    if any(v == 0 for v in lam_t):
        raise ParityError("scaling entries must be nonzero")
    negatives = sum(1 for v in lam_t if v < 0)
    if negatives % 2 != 0:
        raise ParityError(
            f"scaling has {negatives} negative entries; an even count is required"
        )
    return PointTuple(
        P.dim, tuple(tuple(c * v for c, v in zip(p, lam_t)) for p in P.points)
    )


def scaling_segment(P: PointTuple, lam: Sequence[ScalarLike]) -> MotionSegment:
    lam_t = tuple(as_scalar(v) for v in lam)
    return MotionSegment(
        kind=ZERO_COST_SCALING, start=P, end=scale_tuple(P, lam_t), scaling=lam_t
    )


# ---------------------------------------------------------------------------
# Planners
# ---------------------------------------------------------------------------

def plan_even_d(P: PointTuple, Pprime: PointTuple) -> MotionPlan:
    """Planner for even d: run the linear motion to the target or to its
    point reflection (a zero-cost scaling away), whichever is cheaper.

    Toward the reflected target a subset's pencil is f(-x), where f is its
    pencil toward the target itself. So one pencil per subset serves both
    branches: the direct flips are the sign changes of f on (0, +inf), the
    reflected ones those on (-inf, 0). Together they number at most d, so
    the winning branch costs at most (d/2) * C(n, d+1).
    """
    _check_pair(P, Pprime)
    d = P.dim
    if d % 2 != 0:
        raise DimensionMismatchError(f"even-dimension planner called with d={d}")
    pencils = _unit_pencils(P, Pprime)
    zero = Fraction(0)
    direct = [_root_counts(c, zero, None) for _, c in pencils]
    reflected = [_root_counts(c, None, zero) for _, c in pencils]
    direct_total = sum(flips for flips, _ in direct)
    reflected_total = sum(flips for flips, _ in reflected)
    bound = (d // 2) * math.comb(P.n, d + 1)
    if direct_total + reflected_total > 2 * bound:
        raise InternalInvariantError(
            "branch totals exceed the root-splitting bound; this is a bug"
        )
    if direct_total <= reflected_total:
        segment = MotionSegment(kind=LINEAR, start=P, end=Pprime)
        return _plan_from_counts(P, (segment,), pencils, direct, zero, None)
    minus = (Fraction(-1),) * d
    mirrored = scale_tuple(Pprime, minus)
    segments = (
        MotionSegment(kind=LINEAR, start=P, end=mirrored),
        scaling_segment(mirrored, minus),
    )
    return _plan_from_counts(P, segments, pencils, reflected, None, zero)


def even_parity_sign_vectors(d: int) -> Iterator[tuple[int, ...]]:
    """All vectors in {-1,+1}^d with an even number of -1 entries."""
    for bits in product((1, -1), repeat=d):
        if sum(1 for b in bits if b < 0) % 2 == 0:
            yield bits


def subset_profiles(
    P: PointTuple, Ptarget: PointTuple
) -> dict[tuple[int, ...], CoefficientProfile]:
    """The coefficient profile of every (d+1)-subset, in colex order; each
    must be nowhere zero (perturb the target first if one is not)."""
    _check_pair(P, Ptarget)
    profiles: dict[tuple[int, ...], CoefficientProfile] = {}
    for subset in colex_subsets(P.n, P.dim + 1):
        prof = coefficient_profile(P.subtuple(subset), Ptarget.subtuple(subset))
        if not prof.nowhere_zero:
            raise DegenerateTupleError(
                f"vanishing mixed determinant on subset {subset}", subset=subset
            )
        profiles[subset] = prof
    return profiles


def sign_rule_ledger(
    P: PointTuple, Ptarget: PointTuple, signs: Sequence[int]
) -> tuple[dict[tuple[int, ...], int], dict[tuple[int, ...], CoefficientProfile]]:
    """Per-subset flip counts predicted by the sign rule for decaying
    scalings with the given signs, along with the profiles used."""
    profiles = subset_profiles(P, Ptarget)
    counts = {s: sign_rule_flips(prof, signs) for s, prof in profiles.items()}
    return counts, profiles


def cheapest_even_parity_signs(
    agree: Sequence[int], disagree: Sequence[int]
) -> tuple[int, ...]:
    """The cheapest even-parity sign vector under the sign rule.

    agree[j] and disagree[j] count the subsets with r_j * r_{j+1} > 0 and
    < 0. Choosing +1 for coordinate j costs disagree[j] flips, choosing -1
    costs agree[j], and the total is the sum over coordinates. Among all
    cheapest vectors the result is the first in even_parity_sign_vectors
    order (+1 before -1 in each coordinate, earlier coordinates first).
    """
    if len(agree) != len(disagree) or not agree:
        raise ValueError("need one agree and one disagree count per coordinate")
    signs = [-1 if a < b else 1 for a, b in zip(agree, disagree)]
    if signs.count(-1) % 2 == 0:
        return tuple(signs)
    # Odd parity: flip exactly one coordinate with the least penalty
    # difference. Flipping three costs more when that difference is positive;
    # when it is zero, every tied coordinate is +1 and flipping only the last
    # of them gives the earliest vector. Among single flips, a -1 turned into
    # +1 at the first tied position comes earliest; failing one, a +1 turned
    # into -1 at the last tied position.
    gaps = [abs(a - b) for a, b in zip(agree, disagree)]
    least = min(gaps)
    ties = [j for j, g in enumerate(gaps) if g == least]
    flip = next((j for j in ties if signs[j] == -1), ties[-1])
    signs[flip] = -signs[flip]
    return tuple(signs)


def certify_decay_scale(
    P: PointTuple,
    Ptarget: PointTuple,
    signs: Sequence[int],
    profiles: dict[tuple[int, ...], CoefficientProfile] | None = None,
    start: Fraction = Fraction(1, 1024),
    max_halvings: int = 60,
) -> Fraction:
    """One eta certified (by Sturm counts) to localize a single root of every
    subset pencil in each decay interval, uniformly over all subsets: the
    first of start, start/2, start/4, ... at which every subset certifies.

    At each halved eta the subset that failed at the previous one is checked
    first, then the rest in colex order; one subset usually holds out over
    several halvings, so most rebuilds of the others are skipped. The order
    does not change which eta is returned."""
    if profiles is None:
        profiles = subset_profiles(P, Ptarget)
    eta = start
    order = list(profiles)
    for _ in range(max_halvings):
        lam = decay_lambdas(signs, eta)
        for subset in order:
            pen = build_pencil(P.subtuple(subset), Ptarget.subtuple(subset), lam, subset)
            if not localization_certified(pen, profiles[subset]):
                order = [subset, *(s for s in profiles if s != subset)]
                break
        else:
            return eta
        eta = eta / 2
    raise RetryBudgetError(
        f"no uniformly certified decay scale found after {max_halvings} halvings"
    )


def plan_odd_d(
    P: PointTuple,
    Pprime: PointTuple,
    tries: None = None,
    seed: int = 0,
) -> MotionPlan:
    """Planner for odd d >= 3.

    The target is first nudged (inside its rigidity radius, so at zero cost)
    until every mixed determinant of every subset is nonzero. For rapidly
    decaying scalings the flip count of a subset is then the number of
    negative products lam_j * r_{j-1} * r_j. That total is a sum of one
    term per coordinate, so the cheapest even-parity sign choice follows
    exactly from counts over the profiles, computed once. It is returned
    with a Sturm-certified decay scale, and its total is at most
    floor(d/2 * C(n, d+1)): averaged over all even-parity choices each
    coordinate is +1 half the time, so the average total is (d/2) C(n, d+1).

    `tries` is accepted only as None; the sign choice is always exact.
    """
    if tries is not None:
        raise ValueError("tries must be None; the sign choice is exact")
    _check_pair(P, Pprime)
    d = P.dim
    if d % 2 == 0 or d < 3:
        raise DimensionMismatchError(f"odd-dimension planner called with d={d}")
    if not is_general_position(P):
        raise DegenerateTupleError("source tuple is not in general position")
    budget = robust_radius(Pprime).epsilon
    Pq = perturb_general(Pprime, budget, partner=P, seed=seed)

    profiles = subset_profiles(P, Pq)
    agree = [0] * d
    for prof in profiles.values():
        for j in range(d):
            if prof[j] * prof[j + 1] > 0:
                agree[j] += 1
    signs = cheapest_even_parity_signs(agree, [len(profiles) - a for a in agree])
    counts = {s: sign_rule_flips(prof, signs) for s, prof in profiles.items()}

    total = sum(counts.values())
    bound = (d * math.comb(P.n, d + 1)) // 2
    if total > bound:
        raise InternalInvariantError(
            f"cheapest sign choice exceeded the bound: {total} > {bound}"
        )

    eta = certify_decay_scale(P, Pq, signs, profiles)
    lam = decay_lambdas(signs, eta)
    scaled_target = scale_tuple(Pq, lam)
    inverse = tuple(1 / v for v in lam)

    # Unperturbed, the return segment is the identity motion and costs
    # nothing; a perturbed one must cost nothing too.
    if Pq is not Pprime and linear_cost(Pq, Pprime, check_simultaneous=False).total != 0:
        raise InternalInvariantError(
            "perturbation left the rigidity radius; the return segment has cost"
        )

    segments = (
        MotionSegment(kind=LINEAR, start=P, end=scaled_target),
        scaling_segment(scaled_target, inverse),
        MotionSegment(kind=LINEAR, start=Pq, end=Pprime),
    )
    ledger = tuple(counts.items())
    return MotionPlan(n=P.n, d=d, segments=segments, ledger=ledger, total=total)


# ---------------------------------------------------------------------------
# Perturbation
# ---------------------------------------------------------------------------

def _dyadic_offset(rng: random.Random) -> Fraction:
    num = rng.getrandbits(16) * 2 + 1
    sign = 1 if rng.getrandbits(1) else -1
    return Fraction(sign * num, 2 ** 17)


def perturb_general(
    P: PointTuple,
    budget: ScalarLike,
    partner: PointTuple | None = None,
    seed: int = 0,
    max_tries: int = 64,
) -> PointTuple:
    """Nudge P into general position with deterministic dyadic offsets.

    Offsets shrink geometrically across retries and never exceed the budget
    in the max-norm, so a budget below the rigidity radius leaves the order
    type unchanged. With a partner tuple, the result additionally has every
    mixed determinant against the partner nonzero (the partner itself must
    be in general position; its orientations cannot be repaired from here).
    Inputs that already satisfy everything are returned untouched.
    """
    budget = as_scalar(budget)
    if budget <= 0:
        raise ValueError("perturbation budget must be positive")
    if partner is not None:
        _check_pair(partner, P)
        if not is_general_position(partner):
            raise DegenerateTupleError("partner tuple is not in general position")

    def satisfied(Q: PointTuple) -> bool:
        if partner is None:
            return is_general_position(Q)
        for subset in colex_subsets(Q.n, Q.dim + 1):
            prof = coefficient_profile(partner.subtuple(subset), Q.subtuple(subset))
            if not prof.nowhere_zero:
                return False
        return True

    if satisfied(P):
        return P
    rng = random.Random(seed)
    for attempt in range(max_tries):
        scale = budget / 2 ** attempt
        candidate = PointTuple(
            P.dim,
            tuple(
                tuple(c + scale * _dyadic_offset(rng) for c in p) for p in P.points
            ),
        )
        if satisfied(candidate):
            return candidate
    raise RetryBudgetError(f"no valid perturbation found in {max_tries} attempts")


# ---------------------------------------------------------------------------
# Discretized oracle
# ---------------------------------------------------------------------------

def _orient_at(source: list[list[int]], target: list[list[int]], t: Fraction) -> int:
    """Orientation sign of the subset interpolated at time t = k/m.

    With homogeneous columns (w_p, a) = w_p*(1, p) and (w_q, b) = w_q*(1, q),
    the column (1, (1-t)*p + t*q) scaled by the positive integer w_p*w_q*m is
    (w_p*w_q*m, (m-k)*w_q*a + k*w_p*b), so the integer determinant of
    those columns has the sign of orient on the interpolated points."""
    k, m = t.numerator, t.denominator
    columns = [
        [wp * wq * m, *((m - k) * wq * x + k * wp * y for x, y in zip(a, b))]
        for (wp, *a), (wq, *b) in zip(source, target)
    ]
    det = _det_int(columns)
    return (det > 0) - (det < 0)


def _to_x(t: Fraction) -> Fraction | None:
    return None if t == 1 else t / (1 - t)


def discretized_cost(
    P: PointTuple,
    Ptarget: PointTuple,
    initial_steps: int = 16,
    max_depth: int = 48,
) -> int:
    """Count orientation flips by sampling exact signs on a rational time
    grid, refining until Sturm counts certify at most one degeneracy per
    grid cell. Serves as an independent check of linear_cost: the grid signs
    come from the interpolated points, never from the pencil. Each point is
    converted to integer columns once."""
    _check_pair(P, Ptarget)
    source = [_homogeneous(p) for p in P.points]
    target = [_homogeneous(q) for q in Ptarget.points]
    return sum(
        _subset_flips_sampled(
            [source[i] for i in subset],
            [target[i] for i in subset],
            subset,
            coeffs,
            initial_steps,
            max_depth,
        )
        for subset, coeffs in _unit_pencils(P, Ptarget)
    )


def _subset_flips_sampled(
    source: list[list[int]],
    target: list[list[int]],
    subset,
    coeffs: IntPoly,
    initial_steps: int,
    max_depth: int,
) -> int:
    steps = initial_steps
    for _ in range(8):
        ts = [Fraction(k, steps) for k in range(steps + 1)]
        signs = [_orient_at(source, target, t) for t in ts]
        if 0 not in signs:
            break
        steps = steps * 2 + 1  # degenerate grid node: move every interior node
    else:
        raise RetryBudgetError(f"could not find a degeneracy-free grid for {subset}")

    flips = 0
    roots_between = _root_counter(coeffs)
    stack = list(zip(zip(ts, ts[1:]), zip(signs, signs[1:]), [0] * steps))
    while stack:
        (lo, hi), (slo, shi), depth = stack.pop()
        count = roots_between(_to_x(lo), _to_x(hi))
        if count == 0:
            if slo != shi:
                raise InternalInvariantError("sign change with no root in between")
            continue
        if count == 1:
            if slo != shi:
                flips += 1
            continue
        if depth >= max_depth:
            raise RetryBudgetError("refinement budget exhausted")
        mid = (lo + hi) / 2
        smid = _orient_at(source, target, mid)
        shift = 1
        while smid == 0:
            mid = (lo * (2 ** shift) + hi) / (2 ** shift + 1)
            smid = _orient_at(source, target, mid)
            shift += 1
            if shift > 8:
                raise RetryBudgetError("could not split around a degenerate time")
        stack.append(((lo, mid), (slo, smid), depth + 1))
        stack.append(((mid, hi), (smid, shi), depth + 1))
    return flips


# ---------------------------------------------------------------------------
# Zero-cost segment verification (sampled order-type preservation)
# ---------------------------------------------------------------------------

def verify_zero_cost_scaling(P: PointTuple, lam: Sequence[ScalarLike], samples: int = 8) -> bool:
    """Check order-type preservation at sampled times along the canonical
    zero-cost realization of a diagonal scaling: negative entries are flipped
    two at a time by in-plane rotations, then magnitudes are interpolated
    through positive diagonals. Sampled rotations are rationalized floats;
    their exact determinant is positive, so the exact order type must match."""
    lam_t = tuple(as_scalar(v) for v in lam)
    scale_tuple(P, lam_t)  # validates parity and nonzero entries
    base = order_type(P)
    d = P.dim
    negatives = [i for i, v in enumerate(lam_t) if v < 0]
    current = P
    for i1, i2 in zip(negatives[0::2], negatives[1::2]):
        for s in range(1, samples + 1):
            theta = math.pi * s / (samples + 1)
            c = Fraction(math.cos(theta))
            sn = Fraction(math.sin(theta))
            matrix = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
            matrix[i1][i1] = c
            matrix[i1][i2] = -sn
            matrix[i2][i1] = sn
            matrix[i2][i2] = c
            if det_rational(matrix) <= 0:
                raise InternalInvariantError("sampled rotation has nonpositive determinant")
            if order_type(apply_linear_map(current, matrix)) != base:
                raise InternalInvariantError("order type drifted along a rotation")
        flip = tuple(Fraction(-1 if i in (i1, i2) else 1) for i in range(d))
        current = scale_tuple(current, flip)
    magnitudes = tuple(abs(v) for v in lam_t)
    for s in range(1, samples + 1):
        t = Fraction(s, samples + 1)
        diag = tuple((1 - t) + t * m for m in magnitudes)
        if order_type(scale_tuple(current, diag)) != base:
            raise InternalInvariantError("order type drifted along a positive scaling")
    return True


def verify_zero_cost_map_path(
    P: PointTuple, matrices: Sequence[Sequence[Sequence[Fraction]]]
) -> bool:
    """Order-type preservation at caller-supplied sampled linear maps; each
    sample must have positive determinant (orientation-preserving)."""
    base = order_type(P)
    for matrix in matrices:
        if det_rational(matrix) <= 0:
            raise InternalInvariantError("sampled map has nonpositive determinant")
        if order_type(apply_linear_map(P, matrix)) != base:
            raise InternalInvariantError("order type drifted along the sampled path")
    return True
