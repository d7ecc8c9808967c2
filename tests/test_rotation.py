import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

import ordermotion as om
import ordermotion.rotation as rotation_mod
from _support import (
    near_grid,
    rand_tuple,
    same_orientation_triple_pair,
    wander_same_order_type,
)


class TestRegularSimplex:
    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_geometry(self, d):
        S = om.regular_simplex(d)
        arr = om.tuple_to_array(S)
        assert arr.shape == (d + 1, d)
        norms = np.linalg.norm(arr, axis=1)
        assert np.abs(norms - 1).max() < 1e-12
        dists = [
            np.linalg.norm(arr[i] - arr[j])
            for i in range(d + 1)
            for j in range(i + 1, d + 1)
        ]
        assert (max(dists) - min(dists)) / max(dists) < 1e-12
        assert np.abs(arr.mean(axis=0)).max() < 1e-12

    def test_equilateral_triangle_on_unit_circle(self):
        arr = om.tuple_to_array(om.regular_simplex(2))
        side = np.linalg.norm(arr[0] - arr[1])
        assert abs(side - math.sqrt(3)) < 1e-12


class TestPickRho:
    def test_quarter_turn_accepted(self):
        rho = om.rotation_2d(math.pi / 2)
        assert om.eigen_margin(rho) > 1e-6

    def test_half_turn_rejected_margin(self):
        rho = om.rotation_2d(math.pi)
        assert om.eigen_margin(rho) <= 1e-6

    @pytest.mark.parametrize("d", [2, 4])
    def test_random_choice(self, d):
        rho = om.pick_rho(d, seed=0)
        assert om.eigen_margin(rho) > 1e-6
        assert abs(np.linalg.det(rho.matrix) - 1) < 1e-9

    def test_cyclic_choice(self):
        rho = om.pick_rho(2, method="cyclic")
        assert om.eigen_margin(rho) > 1e-6
        # the vertex cycle really cycles the simplex vertices
        V = om.tuple_to_array(om.regular_simplex(2))
        cycled = (rho.matrix @ V.T).T
        assert np.abs(cycled - np.roll(V, -1, axis=0)).max() < 1e-9

    def test_odd_dimension_impossible(self):
        with pytest.raises(om.PreconditionError):
            om.pick_rho(3)

    def test_exact_rotation_validation(self):
        om.Rotation.from_exact([[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]])
        with pytest.raises(om.PreconditionError):
            om.Rotation.from_exact([[1, 1], [0, 1]])


class TestSimplexMotion:
    def test_quarter_turn_never_degenerates(self):
        S = om.regular_simplex(2)
        assert om.simplex_motion_constant(S, om.rotation_2d(math.pi / 2))

    def test_half_turn_degenerates_at_midpoint(self):
        S = om.regular_simplex(2)
        rho = om.Rotation.from_exact([[-1, 0], [0, -1]])
        assert not om.simplex_motion_constant(S, rho)
        pen = om.build_pencil(S.points, rho.apply_exact(S).points, (F(1), F(1)))
        assert pen.poly(1) == 0  # x = 1 is time t = 1/2
        assert om.sturm_distinct_roots(pen.poly, F(1, 2), F(2)) == 1

    def test_angle_sweep(self):
        S = om.regular_simplex(2)
        rng = random.Random(0)
        for _ in range(25):
            theta = rng.uniform(0, 2 * math.pi)
            rho = om.rotation_2d(theta)
            if om.eigen_margin(rho) <= 1e-6:
                continue
            assert om.simplex_motion_constant(S, rho)


class TestIsGood:
    def test_planar_good_means_zero_flips(self):
        rng = random.Random(1)
        A, B = same_orientation_triple_pair(rng)
        rho = om.pick_rho(2, seed=3)
        sample = om.is_good(A, B, rho)
        assert sample.good == (sample.flips == 0)
        assert sample.flips % 2 == 0

    def test_tiny_rotation_of_itself_is_good(self):
        rng = random.Random(2)
        A = rand_tuple(rng, 3, 2)
        rho = om.rotation_2d(1e-9)
        assert om.is_good(A, A, rho).good

    def test_matches_sampled_sign_tracking(self):
        # the flip count of the pencil equals the flips found by exact sign
        # sampling along the motion onto the rotated target
        rng = random.Random(3)
        for _ in range(5):
            A, B = same_orientation_triple_pair(rng)
            rho = om.haar_rotation(2, np.random.default_rng(17))
            sample = om.is_good(A, B, rho)
            rotated = rho.apply_exact(B)
            assert om.discretized_cost(A, rotated) == sample.flips

    def test_odd_dimension_rejected(self):
        rng = random.Random(4)
        A = rand_tuple(rng, 4, 3)
        with pytest.raises(om.PreconditionError):
            om.is_good(A, A, om.pick_rho(2, seed=0))


class TestEstimateMeasure:
    def test_exceeds_half_with_dichotomy(self):
        rng = random.Random(5)
        A, B = same_orientation_triple_pair(rng)
        est = om.estimate_measure(A, B, n_samples=400, seed=11)
        assert est.fraction - 0.5 >= 3 * est.half_width
        assert est.dichotomy_failures == 0

    def test_seed_stability(self):
        rng = random.Random(6)
        A, B = same_orientation_triple_pair(rng)
        e1 = om.estimate_measure(A, B, n_samples=400, seed=1, check_dichotomy=False)
        e2 = om.estimate_measure(A, B, n_samples=400, seed=2, check_dichotomy=False)
        spread = abs(e1.fraction - e2.fraction)
        assert spread <= 3 * (e1.half_width + e2.half_width)

    def test_deterministic_given_seed(self):
        rng = random.Random(7)
        A, B = same_orientation_triple_pair(rng)
        e1 = om.estimate_measure(A, B, n_samples=100, seed=9)
        e2 = om.estimate_measure(A, B, n_samples=100, seed=9)
        assert e1 == e2

    def test_mixed_orientation_rejected(self):
        A = om.point_tuple([[0, 0], [1, 0], [0, 1]])
        B = om.point_tuple([[0, 0], [0, 1], [1, 0]])
        with pytest.raises(om.PreconditionError):
            om.estimate_measure(A, B, n_samples=10, seed=0)

    @staticmethod
    def same_orientation_pair(rng, d):
        while True:
            A, B = rand_tuple(rng, d + 1, d), rand_tuple(rng, d + 1, d)
            if om.orient(A.points) == om.orient(B.points):
                return A, B

    @pytest.mark.parametrize("d", [2, 4])
    def test_negated_rotation_pencil_is_the_reflected_pencil(self, d):
        # The dichotomy recheck reads the negation's flips from f on
        # (-inf, 0) instead of rotating and building a second pencil.
        rng = random.Random(8 + d)
        gen = np.random.default_rng(d)
        A, B = self.same_orientation_pair(rng, d)
        for _ in range(12):
            rho = om.haar_rotation(d, gen)
            f = om.build_pencil(A.points, rho.apply_exact(B).points, (1,) * d).poly
            negated = om.is_good(A, B, rho.negated())
            assert om.root_counts(f, None, F(0)) == (negated.flips, negated.distinct_roots)

    def test_one_pencil_per_sample_with_dichotomy(self, monkeypatch):
        rng = random.Random(5)
        A, B = same_orientation_triple_pair(rng)
        pencils = []
        real = rotation_mod.build_pencil
        monkeypatch.setattr(
            rotation_mod, "build_pencil", lambda *a: pencils.append(a) or real(*a)
        )
        est = om.estimate_measure(A, B, n_samples=60, seed=11)
        assert est.n_good < est.n_samples and est.dichotomy_failures == 0
        assert len(pencils) == 60

    def test_lower_semicontinuity_at_test_scale(self):
        # nudging the pair slightly must not drop the estimate by more than
        # sampling noise
        A = om.point_tuple([[0, 0], [2, 0], [1, 2]])
        B = om.point_tuple([[0, 0], [3, 1], [1, 3]])
        base = om.estimate_measure(A, B, n_samples=400, seed=3, check_dichotomy=False)
        nudge = F(1, 512)
        A2 = A.translated([nudge, -nudge]).with_point(0, [nudge, nudge])
        B2 = B.with_point(2, [B.points[2][0] - nudge, B.points[2][1] + nudge])
        moved = om.estimate_measure(A2, B2, n_samples=400, seed=4, check_dichotomy=False)
        assert moved.fraction >= base.fraction - 3 * (base.half_width + moved.half_width)


class TestAspectRatio:
    def test_unit_equilateral(self):
        a = om.aspect_ratio([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
        assert abs(a.value - 4 / math.sqrt(3)) < 1e-12

    def test_scale_invariance_exact(self):
        P = om.point_tuple([[0, 0], [3, 1], [1, 4]])
        tripled = om.point_tuple([[0, 0], [9, 3], [3, 12]])
        assert om.aspect_ratio(P).squared == om.aspect_ratio(tripled).squared

    def test_rigid_motion_drift_float(self):
        rng = random.Random(8)
        pts = np.array([[0.0, 0.0], [2.0, 0.5], [0.5, 3.0]])
        base = om.aspect_ratio(pts.tolist()).value
        for _ in range(10):
            theta = rng.uniform(0, 2 * math.pi)
            c, s = math.cos(theta), math.sin(theta)
            R = np.array([[c, -s], [s, c]])
            moved = (R @ pts.T).T + np.array([rng.uniform(-5, 5), rng.uniform(-5, 5)])
            assert abs(om.aspect_ratio(moved.tolist()).value - base) / base < 1e-9

    def test_matches_brute_force(self):
        rng = random.Random(9)
        for _ in range(5):
            P = rand_tuple(rng, 3, 2, span=8)
            a = om.aspect_ratio(P)
            pts = P.points
            diam_sq = max(
                (pts[i][0] - pts[j][0]) ** 2 + (pts[i][1] - pts[j][1]) ** 2
                for i in range(3)
                for j in range(i + 1, 3)
            )
            area = abs(
                (pts[1][0] - pts[0][0]) * (pts[2][1] - pts[0][1])
                - (pts[1][1] - pts[0][1]) * (pts[2][0] - pts[0][0])
            ) / 2
            assert a.squared == diam_sq ** 2 / area ** 2

    def test_zero_volume_rejected(self):
        with pytest.raises(om.DegenerateTupleError):
            om.aspect_ratio(om.point_tuple([[0, 0], [1, 1], [2, 2]]))


class TestNonElongated:
    def test_grid_with_alpha_two(self):
        rng = random.Random(10)
        P = near_grid(rng, 3, 3)
        assert om.non_elongated(P, 2)

    def test_far_spread_fails(self):
        P = om.point_tuple([[0, 0], [1, 0], [1000, 5]])
        assert not om.non_elongated(P, 2)

    def test_exact_threshold_boundary(self):
        # n=4, alpha=1: the threshold ratio is exactly sqrt(4) = 2, and the
        # comparison is exact, so a ratio of exactly 2 passes and any excess
        # fails, with no float ties
        P = om.point_tuple([[0, 0], [1, 0], [2, 0], [1, 1]])
        assert om.non_elongated(P, 1)
        nudged = om.point_tuple([[0, 0], [1, 0], [F(201, 100), 0], [1, 1]])
        assert not om.non_elongated(nudged, 1)

    def test_duplicate_points_rejected(self):
        P = om.point_tuple([[0, 0], [0, 0], [1, 1]])
        with pytest.raises(om.DegenerateTupleError):
            om.non_elongated(P, 2)


class TestRotationCostExperiment:
    def test_report_fields_and_bound(self):
        rng = random.Random(11)
        P = near_grid(rng, 3, 3)
        Q = wander_same_order_type(P, rng, rounds=4)
        report = om.rotation_cost_experiment(P, Q, n_rotations=12, seed=21)
        assert report.low_aspect_fraction >= 0.5
        assert report.best_cost == min(report.costs)
        assert report.bound == math.comb(9, 3)
        assert report.bound_met is True
        assert report.best_cost < report.bound

    def test_deterministic(self):
        rng = random.Random(12)
        P = near_grid(rng, 2, 4)
        Q = wander_same_order_type(P, rng, rounds=3)
        r1 = om.rotation_cost_experiment(P, Q, n_rotations=6, seed=4)
        r2 = om.rotation_cost_experiment(P, Q, n_rotations=6, seed=4)
        assert r1 == r2

    def test_requires_same_order_type(self):
        rng = random.Random(13)
        P = near_grid(rng, 2, 4)
        with pytest.raises(om.OrderTypeMismatchError):
            om.rotation_cost_experiment(P, om.mirror(P), n_rotations=4, seed=0)
