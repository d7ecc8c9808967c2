"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every instance below is seed-pinned, so the whole suite is deterministic;
the conftest summary hook prints one PASS/FAIL line per criterion.
"""

import math
import random
import time
from fractions import Fraction as F

import pytest

import ordermotion as om
from _support import (
    jitter_same_order_type,
    rand_pair,
    rand_tuple,
    wander_same_order_type,
)

# ---------------------------------------------------------------------------
# Shared even-dimension batch: 100 seeded general-position pairs
# (d=2, n in 4..8: 14 pairs each; d=4, n in {5, 6}: 15 pairs each)
# ---------------------------------------------------------------------------

EVEN_SHAPES = [(2, n, 14) for n in range(4, 9)] + [(4, n, 15) for n in (5, 6)]


@pytest.fixture(scope="module")
def even_batch():
    rows = []
    plan_elapsed = 0.0
    seed = 2000
    for d, n, count in EVEN_SHAPES:
        for _ in range(count):
            seed += 1
            rng = random.Random(seed)
            P, Q = rand_pair(rng, n, d, span=16)
            t0 = time.monotonic()
            plan = om.plan_even_d(P, Q)
            plan_elapsed += time.monotonic() - t0
            direct = om.linear_cost(P, Q, check_simultaneous=False)
            reflected = om.linear_cost(
                P, om.scale_tuple(Q, [-1] * d), check_simultaneous=False
            )
            rows.append((d, n, plan.total, direct.total, reflected.total))
    assert len(rows) == 100
    return rows, plan_elapsed


def test_even_dim_planner_bound(even_batch):
    # plan_even_d total <= (d/2) C(n, d+1) on every pair, exactly; < 60 s
    rows, plan_elapsed = even_batch
    for d, n, plan_total, direct, reflected in rows:
        bound = (d // 2) * math.comb(n, d + 1)
        assert plan_total <= bound
        assert plan_total == min(direct, reflected)
    assert plan_elapsed < 60.0


def test_root_split_identity(even_batch):
    # linear cost to the target plus linear cost to its point reflection
    # never exceeds d C(n, d+1): the two pencils share their root multiset
    # across the sign of x
    rows, _ = even_batch
    for d, n, _, direct, reflected in rows:
        assert direct + reflected <= d * math.comb(n, d + 1)


def test_oracle_equivalence():
    # linear_cost equals the sampled-and-certified oracle on 50 seeded pairs,
    # with zero tolerance on the counts
    sizes = [4, 5, 6]
    checked = 0
    for k in range(50):
        rng = random.Random(3000 + k)
        n = sizes[k % 3]
        P, Q = rand_pair(rng, n, 2, span=16)
        assert om.linear_cost(P, Q, check_simultaneous=False).total == om.discretized_cost(P, Q)
        checked += 1
    assert checked == 50


def test_mirror_lower_bound():
    # moving onto the mirror image flips every triple an odd number of times,
    # so the total is at least C(n, 3)
    for n in range(3, 8):
        for k in range(2):
            rng = random.Random(4000 + 10 * n + k)
            P = rand_tuple(rng, n, 2, span=16)
            plan = om.linear_cost(P, om.mirror(P), check_simultaneous=False)
            assert all(flips % 2 == 1 for _, flips in plan.ledger)
            assert plan.total >= math.comb(n, 3)


def test_coefficient_decay_certificate():
    # on 20 seeded dimension-3 subset pairs with nonvanishing mixed
    # determinants, the decay error shrinks monotonically through
    # eta = 1e-3, 1e-4, 1e-5, lands below 1e-2, and the Sturm certificate
    # localizes exactly one root in each decay interval at the accepted eta
    etas = (F(1, 10 ** 3), F(1, 10 ** 4), F(1, 10 ** 5))
    rng = random.Random(505)
    done = 0
    while done < 20:
        A = rand_tuple(rng, 4, 3, span=4, den=4)
        B = rand_tuple(rng, 4, 3, span=4, den=4)
        profile = om.coefficient_profile(A.points, B.points)
        if not profile.nowhere_zero:
            continue
        done += 1
        errors = [
            om.coefficient_decay_report(A.points, B.points, eta, [1, 1, 1]).max_error
            for eta in etas
        ]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < F(1, 100)
        pencil = om.build_pencil(
            A.points, B.points, om.decay_lambdas([1, 1, 1], etas[2])
        )
        assert om.localization_certified(pencil, profile)
        for lo, hi in om.decay_intervals(profile, pencil.lam):
            assert om.sturm_distinct_roots(pencil.poly, lo, hi) == 1


def test_odd_dim_planner():
    # d=3, n=5: the exact even-parity sign choice stays within
    # floor(1.5 C(5,4)) = 7, and the sign-rule ledger equals the Sturm
    # flip count for every subset and every sign vector
    for k in range(20):
        rng = random.Random(6000 + k)
        P, Q = rand_pair(rng, 5, 3, span=8)
        plan = om.plan_odd_d(P, Q, seed=k)
        assert plan.total <= 7
        # recover the perturbed tuple used by the planner
        perturbed = om.perturb_general(
            Q, om.robust_radius(Q).epsilon, partner=P, seed=k
        )
        for signs in om.even_parity_sign_vectors(3):
            counts, profiles = om.sign_rule_ledger(P, perturbed, signs)
            eta = om.certify_decay_scale(P, perturbed, signs, profiles)
            lam = om.decay_lambdas(signs, eta)
            for subset, prof in profiles.items():
                pen = om.build_pencil(
                    P.subtuple(subset), perturbed.subtuple(subset), lam, subset
                )
                assert om.sign_change_count(pen.poly, F(0), None) == counts[subset]
        # the planner's ledger matches the best sign vector's rule counts
        best = min(
            sum(om.sign_rule_ledger(P, perturbed, s)[0].values())
            for s in om.even_parity_sign_vectors(3)
        )
        assert plan.total == best


BLOWUP_CASES = [
    (3, 2), (3, 3), (3, 4),
    (4, 2), (4, 3), (4, 4),
    (5, 2), (5, 3), (5, 4),
    (3, 3),
]


def test_blowup_soundness():
    # 10 seeded same-order-type pairs: the blown-up tuples share an order
    # type over every triple, 200 random selections per instance reproduce
    # the site order types exactly, the certificate is 2 m^3; < 120 s
    t0 = time.monotonic()
    for k, (r, m) in enumerate(BLOWUP_CASES):
        rng = random.Random(7000 + k)
        Q = rand_tuple(rng, r, 2, span=8)
        Qp = jitter_same_order_type(Q, rng)
        result = om.build_blowup(Q, Qp, m=m)
        assert om.order_type(result.P) == om.order_type(result.Pprime)
        report = om.verify_blowup(result, Q, Qp, samples=200, seed=7000 + k)
        assert report.all_pass
        assert report.selection_failures == 0
        assert result.certificate == 2 * m ** 3
    assert time.monotonic() - t0 < 120.0


def test_blowup_constant_chain():
    # the 13-site certificate constant: 2 * 13^-3 is about 9.11e-4,
    # comfortably above 1e-4; the separation premise of the input pair is an
    # assumption, not something this library decides
    cert = om.lower_bound_certificate(13, 100)
    assert cert.asymptotic_constant == F(2, 2197)
    assert abs(float(cert.asymptotic_constant) - 9.1033e-4) < 1e-6
    assert float(cert.asymptotic_constant) >= 1e-4
    assert cert.value == 2 * 100 ** 3


def test_simplex_rotation_invariance():
    # 100 sampled angles whose rotation keeps both spectra away from +-1:
    # the simplex pencil has no root (hence no sign change) on (0, inf);
    # the half-turn rotation degenerates exactly at time 1/2
    S = om.regular_simplex(2)
    ones = (F(1), F(1))
    rng = random.Random(909)
    accepted = 0
    while accepted < 100:
        theta = rng.uniform(0, 2 * math.pi)
        rho = om.rotation_2d(theta)
        if om.eigen_margin(rho) <= 1e-6:
            continue
        accepted += 1
        assert om.simplex_motion_constant(S, rho)
        pen = om.build_pencil(S.points, rho.apply_exact(S).points, ones)
        assert om.sign_change_count(pen.poly, F(0), None) == 0
    half_turn = om.Rotation.from_exact([[-1, 0], [0, -1]])
    assert not om.simplex_motion_constant(S, half_turn)
    pen = om.build_pencil(S.points, half_turn.apply_exact(S).points, ones)
    assert pen.poly(1) == 0  # x = 1 is time t = 1/2
    assert om.sturm_distinct_roots(pen.poly, F(1, 2), F(2)) == 1


def _bounded_aspect_triple_pair(rng, max_aspect=12):
    # thin triples have good-rotation measure arbitrarily close to 1/2, which
    # no finite sample certifies at 3 half-widths; the criterion presumes
    # typical triples, pinned here as aspect ratio at most 12 on both sides
    while True:
        A = rand_tuple(rng, 3, 2)
        B = rand_tuple(rng, 3, 2)
        if om.orient(A.points) != om.orient(B.points):
            continue
        if om.aspect_ratio(A).at_most(max_aspect) and om.aspect_ratio(B).at_most(max_aspect):
            return A, B


def test_good_rotation_measure():
    # 20 seeded same-orientation triples: the N=2000 estimate exceeds 1/2 by
    # at least 3 binomial half-widths, and for every sampled rotation either
    # it or its negation is good (exact dichotomy)
    rng = random.Random(7)
    for k in range(20):
        A, B = _bounded_aspect_triple_pair(rng)
        est = om.estimate_measure(A, B, n_samples=2000, seed=900 + k)
        assert est.fraction - 0.5 >= 3 * est.half_width
        assert est.dichotomy_failures == 0


TREND_CELLS = {
    8: [(i, j) for i in range(3) for j in range(3) if (i, j) != (1, 1)],
    10: [(i, j) for i in range(4) for j in range(3) if (i, j) not in ((0, 0), (3, 2))],
}


def _jittered_cells(rng, cells):
    while True:
        pts = [
            [
                F(i) + F(rng.randint(-96, 96), 256),
                F(j) + F(rng.randint(-96, 96), 256),
            ]
            for i, j in cells
        ]
        P = om.point_tuple(pts)
        if om.is_general_position(P):
            return P


@pytest.mark.parametrize("n,seed", [(8, 99), (10, 2024)])
def test_rotation_cost_trend(n, seed):
    # near-grid same-order-type pairs: the best of 50 sampled rotations costs
    # strictly less than C(n, 3), and the aspect tail thins by about half
    # each time the threshold doubles
    rng = random.Random(seed)
    P = _jittered_cells(rng, TREND_CELLS[n])
    Q = wander_same_order_type(P, rng, rounds=5)
    report = om.rotation_cost_experiment(P, Q, n_rotations=50, seed=seed)
    assert report.best_cost < math.comb(n, 3)
    assert report.bound_met is True

    sp = om.triple_aspect_squares(P)
    sq = om.triple_aspect_squares(Q)
    worst = sorted(max(sp[s], sq[s]) for s in sp)
    total = len(worst)
    b_sq = report.aspect_bound_sq
    tail = [sum(1 for v in worst if v > b_sq * 4 ** k) / total for k in range(3)]
    noise = 1 / math.sqrt(total)
    assert tail[1] < tail[0]
    assert tail[2] <= tail[1]
    assert tail[1] <= 0.5 * tail[0] + noise
    assert tail[2] <= 0.5 * tail[1] + noise
