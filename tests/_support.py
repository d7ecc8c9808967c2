"""Shared generators for seeded test instances."""

from __future__ import annotations

import random
from fractions import Fraction as F

import ordermotion as om


def rand_fraction(rng: random.Random, span: int = 64, den: int = 8) -> F:
    return F(rng.randint(-span * den, span * den), den)


def rand_tuple(rng: random.Random, n: int, d: int, span: int = 64, den: int = 8) -> om.PointTuple:
    """Random general-position tuple with dyadic-denominator coordinates."""
    while True:
        pts = [[rand_fraction(rng, span, den) for _ in range(d)] for _ in range(n)]
        P = om.point_tuple(pts)
        if om.is_general_position(P):
            return P


def rand_pair(rng: random.Random, n: int, d: int, span: int = 64, den: int = 8):
    return rand_tuple(rng, n, d, span, den), rand_tuple(rng, n, d, span, den)


def fixed_pair_planted(rng: random.Random, n: int, d: int):
    """A source and a target that keeps source points 0 and 1. Toward the
    target's point reflection both pass through the origin at x = 1, so every
    subset holding both degenerates there: the reflected motion has shared
    roots."""
    P = rand_tuple(rng, n, d)
    while True:
        Q = om.point_tuple([P.points[0], P.points[1], *rand_tuple(rng, n - 2, d).points])
        if om.is_general_position(Q):
            return P, Q


def same_orientation_triple_pair(rng: random.Random):
    """Two planar triples sharing a nonzero orientation."""
    while True:
        A = rand_tuple(rng, 3, 2)
        B = rand_tuple(rng, 3, 2)
        if om.orient(A.points) == om.orient(B.points):
            return A, B


def jitter_same_order_type(P: om.PointTuple, rng: random.Random) -> om.PointTuple:
    """A distinct tuple with the same order type: jitter inside the rigidity
    radius."""
    eps = om.robust_radius(P).epsilon
    pts = [
        [c + eps * F(rng.randint(-63, 63), 128) for c in p] for p in P.points
    ]
    Q = om.point_tuple(pts)
    assert om.order_type(Q) == om.order_type(P)
    return Q


def near_grid(rng: random.Random, cols: int, rows: int) -> om.PointTuple:
    """General-position jitter of a cols x rows integer grid."""
    while True:
        pts = []
        for i in range(cols):
            for j in range(rows):
                pts.append(
                    [
                        F(i) + F(rng.randint(-64, 64), 768),
                        F(j) + F(rng.randint(-64, 64), 768),
                    ]
                )
        P = om.point_tuple(pts)
        if om.is_general_position(P):
            return P


def wander_same_order_type(
    P: om.PointTuple, rng: random.Random, rounds: int = 6, step: F = F(1, 4)
) -> om.PointTuple:
    """Random walk inside the realization space of the order type of P:
    per-point proposals are accepted iff the exact order type is unchanged.
    Produces pairs that are genuinely different realizations, not affine
    images of one another."""
    target = om.order_type(P)
    Q = P
    for _ in range(rounds):
        for i in range(Q.n):
            offset = [step * F(rng.randint(-64, 64), 64) for _ in range(Q.dim)]
            prop = Q.with_point(i, [c + o for c, o in zip(Q.points[i], offset)])
            if om.order_type(prop) == target:
                Q = prop
    assert om.order_type(Q) == target
    return Q


PYTHAGOREAN_ROTATION = ((F(3, 5), F(-4, 5)), (F(4, 5), F(3, 5)))
