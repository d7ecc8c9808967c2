import math
import random
from fractions import Fraction as F

import pytest

import ordermotion as om
from _support import fixed_pair_planted, jitter_same_order_type, rand_pair, rand_tuple


class TestLinearCost:
    def test_identity_motion_is_free(self):
        rng = random.Random(1)
        P = rand_tuple(rng, 4, 2)
        plan = om.linear_cost(P, P)
        assert plan.total == 0
        assert all(flips == 0 for _, flips in plan.ledger)

    def test_triangle_to_mirror_costs_one(self):
        P = om.point_tuple([[0, 0], [1, 0], [0, 1]])
        plan = om.linear_cost(P, om.mirror(P))
        assert plan.total == 1

    def test_ledger_in_colex_order(self):
        rng = random.Random(2)
        A, B = rand_pair(rng, 5, 2)
        plan = om.linear_cost(A, B)
        assert [s for s, _ in plan.ledger] == list(om.colex_subsets(5, 3))
        assert plan.total == sum(f for _, f in plan.ledger)

    def test_matches_discretized_oracle(self):
        rng = random.Random(3)
        for _ in range(3):
            A, B = rand_pair(rng, 5, 2)
            assert om.linear_cost(A, B).total == om.discretized_cost(A, B)

    def test_degenerate_endpoint_reported(self):
        bad = om.point_tuple([[0, 0], [1, 1], [2, 2], [0, 1]])
        good = rand_tuple(random.Random(4), 4, 2)
        with pytest.raises(om.DegenerateTupleError) as err:
            om.linear_cost(bad, good)
        assert err.value.subset == (0, 1, 2)

    def test_flip_parity_matches_order_type_disagreement(self):
        rng = random.Random(5)
        A, B = rand_pair(rng, 5, 2)
        ta, tb = om.order_type(A), om.order_type(B)
        for subset, flips in om.linear_cost(A, B).ledger:
            assert flips % 2 == (0 if ta.sign_of(subset) == tb.sign_of(subset) else 1)

    def test_total_at_least_hamming(self):
        rng = random.Random(6)
        for _ in range(5):
            A, B = rand_pair(rng, 5, 2)
            assert om.linear_cost(A, B).total >= om.hamming(
                om.order_type(A), om.order_type(B)
            )

    def test_point_reflection_shares_all_roots(self):
        # moving onto the point-reflected copy degenerates every subset at the
        # same instant: flagged, cost unaffected
        rng = random.Random(7)
        P = rand_tuple(rng, 4, 2)
        plan = om.linear_cost(P, om.scale_tuple(P, [-1, -1]))
        assert plan.total == 0
        assert plan.needs_serialization
        assert len(plan.shared_roots) == math.comb(len(plan.ledger), 2)


class TestScaleTuple:
    def test_positive_scaling_keeps_order_type(self):
        rng = random.Random(8)
        P = rand_tuple(rng, 5, 2)
        assert om.order_type(om.scale_tuple(P, [2, 3])) == om.order_type(P)

    def test_double_negation_keeps_order_type(self):
        rng = random.Random(9)
        P = rand_tuple(rng, 5, 2)
        assert om.order_type(om.scale_tuple(P, [-1, -1])) == om.order_type(P)

    def test_odd_negatives_rejected(self):
        P = om.point_tuple([[0, 0], [1, 0], [0, 1]])
        with pytest.raises(om.ParityError):
            om.scale_tuple(P, [-1, 1])

    def test_zero_entry_rejected(self):
        P = om.point_tuple([[0, 0], [1, 0], [0, 1]])
        with pytest.raises(om.ParityError):
            om.scale_tuple(P, [0, 1])

    def test_zero_cost_path_verification(self):
        rng = random.Random(10)
        P = rand_tuple(rng, 4, 2, span=8)
        assert om.verify_zero_cost_scaling(P, [2, F(1, 3)])
        assert om.verify_zero_cost_scaling(P, [-1, -2], samples=6)

    def test_zero_cost_rotation_path(self):
        rng = random.Random(11)
        P = rand_tuple(rng, 4, 2, span=8)
        samples = om.rotation_path_samples(1.1, samples=6)
        assert om.verify_zero_cost_map_path(P, samples)


class TestEvenPlanner:
    def test_bound_small_case(self):
        rng = random.Random(12)
        A, B = rand_pair(rng, 4, 2)
        plan = om.plan_even_d(A, B)
        assert plan.total <= math.comb(4, 3)

    def test_identity_picks_free_branch(self):
        rng = random.Random(13)
        P = rand_tuple(rng, 4, 2)
        assert om.plan_even_d(P, P).total == 0

    def test_batch_bound_and_branch_sum(self):
        rng = random.Random(14)
        for _ in range(30):
            A, B = rand_pair(rng, 7, 2)
            direct = om.linear_cost(A, B, check_simultaneous=False)
            reflected = om.linear_cost(
                A, om.scale_tuple(B, [-1, -1]), check_simultaneous=False
            )
            assert direct.total + reflected.total <= 2 * math.comb(7, 3)
            assert om.plan_even_d(A, B).total <= math.comb(7, 3)

    def test_reflection_branch_ends_at_target(self):
        rng = random.Random(15)
        A, B = rand_pair(rng, 4, 2)
        plan = om.plan_even_d(A, B)
        assert plan.segments[-1].end == B or plan.segments[-1].end == om.scale_tuple(
            B, [-1, -1]
        )
        if plan.segments[-1].kind == om.motion.ZERO_COST_SCALING:
            assert plan.segments[-1].end == B

    def test_rejects_odd_dimension(self):
        rng = random.Random(16)
        A, B = rand_pair(rng, 4, 3)
        with pytest.raises(om.DimensionMismatchError):
            om.plan_even_d(A, B)


def _even_plan_by_two_motions(P, Q):
    # The planner's definition: run both linear motions in full, keep the
    # cheaper one, and end a reflected branch with the unscaling segment.
    minus = [-1] * P.dim
    mirrored = om.scale_tuple(Q, minus)
    direct = om.linear_cost(P, Q)
    reflected = om.linear_cost(P, mirrored)
    if direct.total <= reflected.total:
        return direct
    return om.MotionPlan(
        n=P.n,
        d=P.dim,
        segments=reflected.segments + (om.scaling_segment(mirrored, minus),),
        ledger=reflected.ledger,
        total=reflected.total,
        needs_serialization=reflected.needs_serialization,
        shared_roots=reflected.shared_roots,
    )


class TestEvenPlannerOnePencilPerSubset:
    # Per shape: random pairs from seeds 0-2, and planted pairs whose first
    # seed makes the plan take the reflected branch with shared roots.
    PLANTED_SEEDS = {(5, 2): (4, 0), (6, 2): (3, 0), (6, 4): (26, 0), (7, 4): (23, 0)}

    def _pairs(self):
        for (n, d), planted in self.PLANTED_SEEDS.items():
            for seed in range(3):
                yield rand_pair(random.Random(seed), n, d)
            for seed in planted:
                yield fixed_pair_planted(random.Random(seed), n, d)

    def test_matches_the_two_motions(self):
        reflected_with_shared = set()
        for P, Q in self._pairs():
            plan = om.plan_even_d(P, Q)
            expected = _even_plan_by_two_motions(P, Q)
            assert plan.ledger == expected.ledger
            assert plan.total == expected.total
            assert plan.segments == expected.segments
            assert plan.needs_serialization == expected.needs_serialization
            assert plan.shared_roots == expected.shared_roots
            if len(plan.segments) == 2 and plan.shared_roots:
                reflected_with_shared.add(P.dim)
        assert reflected_with_shared == {2, 4}

    def test_one_pencil_build_per_subset(self, monkeypatch):
        calls = []
        build = om.motion.build_pencil

        def counting(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(om.motion, "build_pencil", counting)
        for P, Q in self._pairs():
            calls.clear()
            om.plan_even_d(P, Q)
            assert len(calls) == math.comb(P.n, P.dim + 1)


class TestOddPlanner:
    def test_enumerates_even_parity_vectors(self):
        vectors = list(om.even_parity_sign_vectors(3))
        assert len(vectors) == 4
        assert all(sum(1 for s in v if s < 0) % 2 == 0 for v in vectors)

    def test_bound_d3(self):
        rng = random.Random(17)
        A, B = rand_pair(rng, 5, 3)
        plan = om.plan_odd_d(A, B, seed=0)
        assert plan.total <= (3 * math.comb(5, 4)) // 2
        kinds = [s.kind for s in plan.segments]
        assert kinds == ["linear", "zero-cost-scaling", "linear"]

    def test_sign_rule_matches_sturm(self):
        rng = random.Random(18)
        A, B = rand_pair(rng, 5, 3)
        Pq = om.perturb_general(B, om.robust_radius(B).epsilon, partner=A, seed=0)
        for signs in om.even_parity_sign_vectors(3):
            counts, profiles = om.sign_rule_ledger(A, Pq, signs)
            eta = om.certify_decay_scale(A, Pq, signs, profiles)
            lam = om.decay_lambdas(signs, eta)
            for subset, prof in profiles.items():
                pen = om.build_pencil(A.subtuple(subset), Pq.subtuple(subset), lam, subset)
                assert om.sign_change_count(pen.poly, F(0), None) == counts[subset]

    def test_unperturbed_return_segment_is_the_identity(self, monkeypatch):
        rng = random.Random(21)
        A, B = rand_pair(rng, 6, 3)
        assert om.perturb_general(B, om.robust_radius(B).epsilon, partner=A, seed=0) is B
        built = []
        build = om.motion.build_pencil

        def recording(p_sub, q_sub, lam, subset):
            built.append((p_sub, subset))
            return build(p_sub, q_sub, lam, subset)

        monkeypatch.setattr(om.motion, "build_pencil", recording)
        plan = om.plan_odd_d(A, B, seed=0)
        tail = plan.segments[2]
        assert (tail.kind, tail.start, tail.end) == ("linear", B, B)
        # every pencil moves the source, so none was built for the return
        assert built and all(p_sub == A.subtuple(s) for p_sub, s in built)

    @pytest.mark.parametrize("d,n,seed", [(3, 5, 40), (3, 6, 41), (5, 6, 56), (5, 7, 43)])
    def test_certified_scale_is_the_first_of_the_halving_scan(self, d, n, seed):
        rng = random.Random(seed)
        for _ in range(3):
            A, B = rand_pair(rng, n, d)
            Pq = om.perturb_general(B, om.robust_radius(B).epsilon, partner=A, seed=seed)
            profiles = om.subset_profiles(A, Pq)
            signs = tuple(rng.choice((1, -1)) for _ in range(d - 1))
            signs += (1 if signs.count(-1) % 2 == 0 else -1,)
            eta = F(1, 1024)
            while not all(
                om.localization_certified(
                    om.build_pencil(A.subtuple(s), Pq.subtuple(s), om.decay_lambdas(signs, eta)),
                    prof,
                )
                for s, prof in profiles.items()
            ):
                eta /= 2
            assert om.certify_decay_scale(A, Pq, signs, profiles) == eta

    def test_rejects_even_dimension(self):
        rng = random.Random(19)
        A, B = rand_pair(rng, 4, 2)
        with pytest.raises(om.DimensionMismatchError):
            om.plan_odd_d(A, B)

    def test_rejects_tries(self):
        rng = random.Random(19)
        A, B = rand_pair(rng, 4, 3)
        with pytest.raises(ValueError):
            om.plan_odd_d(A, B, tries=1024)

    @pytest.mark.parametrize("d", [3, 5, 7, 9, 11])
    def test_sign_picker_matches_enumeration(self, d):
        # Few random +-1 profiles per case, so coordinate ties are frequent.
        rng = random.Random(700 + d)
        vectors = list(om.even_parity_sign_vectors(d))
        for _ in range(60):
            profiles = [
                om.CoefficientProfile(tuple(F(rng.choice((1, -1))) for _ in range(d + 1)))
                for _ in range(rng.randint(1, 4))
            ]
            agree = [sum(1 for p in profiles if p[j] * p[j + 1] > 0) for j in range(d)]
            disagree = [len(profiles) - a for a in agree]
            # first minimum in enumeration order, as a strict-< scan keeps it
            best = min(
                vectors,
                key=lambda s: sum(om.sign_rule_flips(p, s) for p in profiles),
            )
            assert om.cheapest_even_parity_signs(agree, disagree) == best

    @pytest.mark.parametrize("d,n,seed", [(5, 6, 30), (5, 7, 31), (7, 8, 32)])
    def test_plan_keeps_first_enumerated_minimum(self, d, n, seed):
        rng = random.Random(seed)
        A, B = rand_pair(rng, n, d)
        plan = om.plan_odd_d(A, B, seed=seed)
        Pq = om.perturb_general(B, om.robust_radius(B).epsilon, partner=A, seed=seed)
        best_counts = None
        for signs in om.even_parity_sign_vectors(d):
            counts, _ = om.sign_rule_ledger(A, Pq, signs)
            if best_counts is None or sum(counts.values()) < sum(best_counts.values()):
                best_signs, best_counts = signs, counts
        scaling = plan.segments[1].scaling
        assert tuple(1 if v > 0 else -1 for v in scaling) == best_signs
        assert plan.ledger == tuple(best_counts.items())
        assert plan.total <= (d * math.comb(n, d + 1)) // 2

    def test_bound_d13(self):
        # Past d=11, where enumerating the 2^(d-1) sign vectors gets costly.
        d, n = 13, 14
        rng = random.Random(33)
        A, B = rand_pair(rng, n, d, span=8)
        plan = om.plan_odd_d(A, B, seed=0)
        assert plan.total <= (d * math.comb(n, d + 1)) // 2
        assert [s.kind for s in plan.segments] == ["linear", "zero-cost-scaling", "linear"]


class TestPerturbGeneral:
    def test_generic_input_unchanged(self):
        rng = random.Random(20)
        P = rand_tuple(rng, 5, 2)
        assert om.perturb_general(P, F(1, 10)) is P

    def test_repairs_collinear_triple(self):
        P = om.point_tuple([[0, 0], [1, 1], [2, 2], [0, 1]])
        fixed = om.perturb_general(P, F(1, 100))
        assert om.is_general_position(fixed)
        assert om.order_type(fixed).zero_free

    def test_budget_within_radius_keeps_order_type(self):
        rng = random.Random(21)
        P = rand_tuple(rng, 5, 2)
        B = rand_tuple(rng, 5, 2)
        eps = om.robust_radius(P).epsilon
        moved = om.perturb_general(P, eps, partner=B, seed=1)
        assert om.order_type(moved) == om.order_type(P)

    def test_partner_profiles_all_nonzero(self):
        rng = random.Random(22)
        A, B = rand_pair(rng, 5, 3)
        moved = om.perturb_general(B, F(1, 50), partner=A, seed=2)
        for subset in om.colex_subsets(5, 4):
            prof = om.coefficient_profile(A.subtuple(subset), moved.subtuple(subset))
            assert prof.nowhere_zero

    def test_degenerate_partner_rejected(self):
        bad = om.point_tuple([[0, 0], [1, 1], [2, 2], [0, 1]])
        rng = random.Random(23)
        P = rand_tuple(rng, 4, 2)
        with pytest.raises(om.DegenerateTupleError):
            om.perturb_general(P, F(1, 10), partner=bad)


class TestDiscretizedCost:
    def test_identity(self):
        rng = random.Random(24)
        P = rand_tuple(rng, 4, 2)
        assert om.discretized_cost(P, P) == 0

    def test_triangle_mirror(self):
        P = om.point_tuple([[0, 0], [1, 0], [0, 1]])
        assert om.discretized_cost(P, om.mirror(P)) == 1

    def test_agreement_with_linear_cost_jittered_pair(self):
        rng = random.Random(25)
        P = rand_tuple(rng, 5, 2)
        Q = jitter_same_order_type(P, rng)
        assert om.discretized_cost(P, Q) == om.linear_cost(P, Q).total == 0

    def test_agreement_random(self):
        rng = random.Random(26)
        for _ in range(3):
            A, B = rand_pair(rng, 6, 2)
            assert om.discretized_cost(A, B) == om.linear_cost(A, B).total
