"""Planar cloud blow-ups: replace each site of a same-order-type pair by a
small parabolic arc of m points so that the two blown-up tuples still share
an order type while every one-point-per-cloud selection realizes the order
type of the original pair.

Each site i gets a direction a_i not parallel to any other site difference;
the directed line through the site splits the remaining sites into a left and
a right set, and the matching step finds directions inducing the identical
split on the second tuple. Cloud point k sits at q_i + k*delta*a_i +
k^2*delta^2*b_i with b_i the left normal of a_i, which makes every cloud a
convex arc with counterclockwise intra-cloud orientation on both sides.
delta is halved until four exact side conditions hold, at which point the
cost of separating the pair is at least 2*m^3 whenever the original pair was
separated at all.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterator, Sequence

from .errors import (
    DegenerateTupleError,
    DimensionMismatchError,
    InternalInvariantError,
    OrderTypeMismatchError,
    RetryBudgetError,
)
from .geometry import (
    Point,
    PointTuple,
    orient,
    order_type,
    robust_radius,
)

Vec2 = tuple[Fraction, Fraction]


def _cross(u: Vec2, v: Vec2) -> Fraction:
    return u[0] * v[1] - u[1] * v[0]


def _rot90(v: Vec2) -> Vec2:
    """Left normal: v rotated by a quarter turn counterclockwise."""
    return (-v[1], v[0])


def _require_planar(Q: PointTuple) -> None:
    if Q.dim != 2:
        raise DimensionMismatchError(f"cloud blow-ups are planar only, got d={Q.dim}")


def side_partition(
    Q: PointTuple, site: int, direction: Vec2
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Indices of the sites left (+1) and right (-1) of the directed line
    through Q[site] along `direction`. A site on the line is an error."""
    _require_planar(Q)
    base = Q.points[site]
    tip = (base[0] + direction[0], base[1] + direction[1])
    left, right = [], []
    for j, q in enumerate(Q.points):
        if j == site:
            continue
        s = orient((base, tip, q))
        if s == 0:
            raise DegenerateTupleError(
                f"direction at site {site} is parallel to the segment to site {j}"
            )
        (left if s > 0 else right).append(j)
    return tuple(left), tuple(right)


def _primitive_directions() -> Iterator[Vec2]:
    """Primitive integer vectors in the canonical half-plane (y > 0, or y = 0
    and x > 0), by increasing max-norm. Dense in directions, so any finite
    set of forbidden directions is eventually avoided."""
    yield (Fraction(1), Fraction(0))
    yield (Fraction(0), Fraction(1))
    size = 1
    while True:
        size += 1
        for x in range(-size, size + 1):
            for y in range(0, size + 1):
                if max(abs(x), abs(y)) != size:
                    continue
                if y == 0 and x <= 0:
                    continue
                if math.gcd(abs(x), abs(y)) != 1:
                    continue
                yield (Fraction(x), Fraction(y))


def choose_directions(
    Q: PointTuple,
) -> tuple[tuple[Vec2, ...], tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]]:
    """Pick, for every site, a rational direction not parallel to any other
    site difference, and record the left/right split it induces."""
    _require_planar(Q)
    directions: list[Vec2] = []
    partitions = []
    for i in range(Q.n):
        diffs = [
            (q[0] - Q.points[i][0], q[1] - Q.points[i][1])
            for j, q in enumerate(Q.points)
            if j != i
        ]
        for cand in _primitive_directions():
            if all(_cross(cand, v) != 0 for v in diffs):
                directions.append(cand)
                break
        partitions.append(side_partition(Q, i, directions[-1]))
    return tuple(directions), tuple(partitions)


def _angular_rays(vectors: Sequence[Vec2]) -> list[Vec2]:
    """Every vector and its negation, sorted counterclockwise from the
    positive x-axis; comparisons are exact cross-product tests."""
    rays = [v for v in vectors] + [(-v[0], -v[1]) for v in vectors]

    def half(v: Vec2) -> int:
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    def cmp(u: Vec2, w: Vec2) -> int:
        hu, hw = half(u), half(w)
        if hu != hw:
            return -1 if hu < hw else 1
        c = _cross(u, w)
        return 0 if c == 0 else (-1 if c > 0 else 1)

    return sorted(rays, key=cmp_to_key(cmp))


def match_directions(
    Qprime: PointTuple,
    partitions: Sequence[tuple[tuple[int, ...], tuple[int, ...]]],
) -> tuple[Vec2, ...]:
    """Directions on the second tuple inducing the same left/right splits.

    The valid directions at a site form a union of open angular sectors cut
    out by the site differences; one candidate per sector (the sum of its
    bounding rays) is enumerated and checked against the required split.
    Failure to match any sector means the tuples do not share an order type.
    """
    _require_planar(Qprime)
    out: list[Vec2] = []
    for i in range(Qprime.n):
        want: dict[int, int] = {}
        left, right = partitions[i]
        for j in left:
            want[j] = 1
        for j in right:
            want[j] = -1
        others = [j for j in range(Qprime.n) if j != i]
        if set(want) != set(others):
            raise OrderTypeMismatchError(
                f"partition at site {i} does not cover the other sites"
            )
        diffs = {
            j: (
                Qprime.points[j][0] - Qprime.points[i][0],
                Qprime.points[j][1] - Qprime.points[i][1],
            )
            for j in others
        }
        if not others:
            out.append((Fraction(1), Fraction(0)))
            continue
        rays = _angular_rays(list(diffs.values()))
        candidates: list[Vec2] = []
        for k in range(len(rays)):
            u, w = rays[k], rays[(k + 1) % len(rays)]
            if _cross(u, w) != 0:
                candidates.append((u[0] + w[0], u[1] + w[1]))
            else:
                candidates.append(_rot90(u))
        for cand in candidates:
            sides = {j: (1 if _cross(cand, diffs[j]) > 0 else -1) for j in others}
            if all(_cross(cand, diffs[j]) != 0 for j in others) and sides == want:
                out.append(cand)
                break
        else:
            raise OrderTypeMismatchError(
                f"no direction at site {i} induces the required split; "
                "the tuples do not share an order type"
            )
    return tuple(out)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CloudSpec:
    """Everything needed to rebuild and re-check one side of a blow-up."""

    epsilon: Fraction
    delta: Fraction
    directions: tuple[Vec2, ...]
    curvatures: tuple[Vec2, ...]
    partitions: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


@dataclass(frozen=True)
class BlowupResult:
    P: PointTuple
    Pprime: PointTuple
    spec: CloudSpec
    spec_prime: CloudSpec
    r: int
    m: int
    certificate: int
    asymptotic_constant: Fraction


def _cloud_points(site: Point, a: Vec2, b: Vec2, delta: Fraction, m: int) -> list[Point]:
    pts = []
    for k in range(1, m + 1):
        kd = k * delta
        kd2 = kd * kd
        pts.append((site[0] + kd * a[0] + kd2 * b[0], site[1] + kd * a[1] + kd2 * b[1]))
    return pts


def _within_epsilon(site: Point, cloud: Sequence[Point], eps: Fraction) -> bool:
    return all(
        max(abs(p[0] - site[0]), abs(p[1] - site[1])) <= eps for p in cloud
    )


def _sides_condition(
    clouds: Sequence[Sequence[Point]],
    partitions: Sequence[tuple[tuple[int, ...], tuple[int, ...]]],
) -> bool:
    """Exact check that every point of another cloud lies on the recorded
    side of every chord of cloud i."""
    r = len(clouds)
    side_of: list[dict[int, int]] = []
    for i in range(r):
        left, right = partitions[i]
        side_of.append({**{j: 1 for j in left}, **{j: -1 for j in right}})
    for i in range(r):
        cloud = clouds[i]
        m = len(cloud)
        for k in range(m):
            for kp in range(k + 1, m):
                for j in range(r):
                    if j == i:
                        continue
                    target = side_of[i][j]
                    for q in clouds[j]:
                        if orient((cloud[k], cloud[kp], q)) != target:
                            return False
    return True


def _conditions_hold(
    Q: PointTuple,
    Qprime: PointTuple,
    clouds: Sequence[Sequence[Point]],
    clouds_prime: Sequence[Sequence[Point]],
    spec: CloudSpec,
    spec_prime: CloudSpec,
) -> bool:
    """The four exact conditions of a blow-up: every cloud within its side's
    epsilon of its site, and the side condition on both sides."""
    return (
        all(_within_epsilon(q, c, spec.epsilon) for q, c in zip(Q.points, clouds))
        and all(
            _within_epsilon(q, c, spec_prime.epsilon)
            for q, c in zip(Qprime.points, clouds_prime)
        )
        and _sides_condition(clouds, spec.partitions)
        and _sides_condition(clouds_prime, spec_prime.partitions)
    )


def build_blowup(Q: PointTuple, Qprime: PointTuple, m: int, max_halvings: int = 200) -> BlowupResult:
    """Blow both tuples up into clouds of m points per site.

    The arc scale delta starts at epsilon / (4 m^2 max|a_i|) and is halved
    until all four side/radius conditions verify exactly; the conditions are
    open, so the search terminates. The returned certificate 2*m^3 is the
    separation lower bound, conditional on the input pair itself being
    separated (an assumption this library does not decide).
    """
    _require_planar(Q)
    _require_planar(Qprime)
    if Q.n != Qprime.n:
        raise DimensionMismatchError("site tuples differ in size")
    if m < 1:
        raise ValueError("need at least one point per cloud")
    ot_q = order_type(Q)
    ot_qp = order_type(Qprime)
    if not ot_q.zero_free or not ot_qp.zero_free:
        raise DegenerateTupleError("both site tuples must be in general position")
    if ot_q != ot_qp:
        raise OrderTypeMismatchError("site tuples do not share an order type")

    r = Q.n
    directions, partitions = choose_directions(Q)
    directions_prime = match_directions(Qprime, partitions)
    curvatures = tuple(_rot90(a) for a in directions)
    curvatures_prime = tuple(_rot90(a) for a in directions_prime)
    eps = robust_radius(Q).epsilon
    eps_prime = robust_radius(Qprime).epsilon

    norm = max(max(abs(a[0]), abs(a[1])) for a in directions + directions_prime)
    delta = min(eps, eps_prime) / (4 * m * m * norm)
    for _ in range(max_halvings):
        clouds = [
            _cloud_points(Q.points[i], directions[i], curvatures[i], delta, m)
            for i in range(r)
        ]
        clouds_prime = [
            _cloud_points(
                Qprime.points[i], directions_prime[i], curvatures_prime[i], delta, m
            )
            for i in range(r)
        ]
        spec = CloudSpec(eps, delta, directions, curvatures, partitions)
        spec_prime = CloudSpec(
            eps_prime, delta, directions_prime, curvatures_prime, partitions
        )
        if _conditions_hold(Q, Qprime, clouds, clouds_prime, spec, spec_prime):
            P = PointTuple(2, tuple(p for cloud in clouds for p in cloud))
            Pprime = PointTuple(2, tuple(p for cloud in clouds_prime for p in cloud))
            if order_type(P) != order_type(Pprime):
                raise InternalInvariantError(
                    "blown-up tuples disagree despite verified conditions"
                )
            bound = lower_bound_certificate(r, m)
            return BlowupResult(
                P=P,
                Pprime=Pprime,
                spec=spec,
                spec_prime=spec_prime,
                r=r,
                m=m,
                certificate=bound.value,
                asymptotic_constant=bound.asymptotic_constant,
            )
        delta = delta / 2
    raise RetryBudgetError(f"conditions failed to verify after {max_halvings} halvings")


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlowupReport:
    order_types_match: bool
    conditions_ok: bool
    intra_cloud_constant: bool
    samples: int
    selection_failures: int
    seed: int

    @property
    def all_pass(self) -> bool:
        return (
            self.order_types_match
            and self.conditions_ok
            and self.intra_cloud_constant
            and self.selection_failures == 0
        )


def _clouds_of(result: BlowupResult, primed: bool) -> list[list[Point]]:
    tup = result.Pprime if primed else result.P
    return [
        list(tup.points[i * result.m : (i + 1) * result.m]) for i in range(result.r)
    ]


def verify_blowup(
    result: BlowupResult,
    Q: PointTuple,
    Qprime: PointTuple,
    samples: int = 200,
    seed: int = 0,
) -> BlowupReport:
    """Re-check a blow-up from scratch: exact order-type equality of the two
    blown-up tuples, the four side/radius conditions, constant intra-cloud
    orientation, and random one-point-per-cloud selections reproducing the
    order types of the original sites."""
    ot_q = order_type(Q)
    ot_qp = order_type(Qprime)
    clouds = _clouds_of(result, primed=False)
    clouds_prime = _clouds_of(result, primed=True)

    conditions_ok = _conditions_hold(
        Q, Qprime, clouds, clouds_prime, result.spec, result.spec_prime
    )

    intra = True
    if result.m >= 3:
        for group in (clouds, clouds_prime):
            for cloud in group:
                signs = {
                    orient((cloud[i], cloud[j], cloud[k]))
                    for i in range(len(cloud))
                    for j in range(i + 1, len(cloud))
                    for k in range(j + 1, len(cloud))
                }
                if len(signs) != 1 or 0 in signs:
                    intra = False

    rng = random.Random(seed)
    failures = 0
    for _ in range(samples):
        picks = [rng.randrange(result.m) for _ in range(result.r)]
        sel = PointTuple(2, tuple(clouds[i][k] for i, k in enumerate(picks)))
        sel_prime = PointTuple(
            2, tuple(clouds_prime[i][k] for i, k in enumerate(picks))
        )
        if order_type(sel) != ot_q or order_type(sel_prime) != ot_qp:
            failures += 1

    return BlowupReport(
        order_types_match=order_type(result.P) == order_type(result.Pprime),
        conditions_ok=conditions_ok,
        intra_cloud_constant=intra,
        samples=samples,
        selection_failures=failures,
        seed=seed,
    )


@dataclass(frozen=True)
class LowerBoundCertificate:
    """Separation lower bound of a blow-up, conditional on the input pair
    being separated at all."""

    value: int
    asymptotic_constant: Fraction


def lower_bound_certificate(r: int, m: int) -> LowerBoundCertificate:
    """2*m^3 selections force at least that many flips (each counted twice,
    once per parity); asymptotically this is 2*r^-3 of all triples."""
    if r < 1 or m < 1:
        raise ValueError("need at least one site and one point per cloud")
    return LowerBoundCertificate(value=2 * m ** 3, asymptotic_constant=Fraction(2, r ** 3))
