import random
from fractions import Fraction as F

import pytest

import ordermotion as om
import ordermotion.polynomial as poly_mod
from ordermotion import RationalPolynomial as RP
from _support import fixed_pair_planted, rand_tuple


class TestArithmetic:
    def test_normalization_strips_trailing_zeros(self):
        p = RP.from_coeffs([1, 2, 0, 0])
        assert p.coeffs == (F(1), F(2))
        assert p.degree == 1

    def test_zero_polynomial(self):
        z = RP.from_coeffs([0, 0])
        assert z.is_zero and z.degree == -1

    def test_eval_horner(self):
        p = RP.from_coeffs([1, -3, 2])
        assert p(F(5)) == 1 - 15 + 50

    def test_divmod_identity(self):
        rng = random.Random(17)
        for _ in range(25):
            a = RP.from_coeffs([F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 7))])
            b = RP.from_coeffs([F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))])
            if b.is_zero:
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero or r.degree < b.degree

    def test_division_by_zero(self):
        with pytest.raises(om.ZeroPolynomialError):
            divmod(RP.from_coeffs([1]), RP.from_coeffs([]))

    def test_derivative(self):
        assert RP.from_coeffs([5, 1, 3]).derivative().coeffs == (F(1), F(6))

    def test_from_roots(self):
        p = RP.from_roots([1, 3])
        assert p(1) == 0 and p(3) == 0 and p(0) == 3


class TestGcdAndSquareFree:
    def test_gcd_of_known_factors(self):
        common = RP.from_roots([2, -1])
        a = common * RP.from_roots([5])
        b = common * RP.from_roots([7])
        assert om.poly_gcd(a, b) == common.monic()

    def test_square_free_part(self):
        p = RP.from_roots([1, 1, 3])
        assert om.square_free_part(p) == RP.from_roots([1, 3]).monic()

    def test_decomposition_reconstructs(self):
        rng = random.Random(23)
        for _ in range(15):
            roots = [F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))]
            mults = [rng.randint(1, 3) for _ in roots]
            p = RP.from_coeffs([1])
            for root, mult in zip(roots, mults):
                p = p * RP.from_roots([root] * mult)
            rebuilt = RP.from_coeffs([1])
            for factor, k in om.square_free_decomposition(p):
                for _ in range(k):
                    rebuilt = rebuilt * factor
            assert rebuilt.monic() == p.monic()


class TestSturmCounts:
    def test_sqrt_two(self):
        p = RP.from_coeffs([-2, 0, 1])
        assert om.sturm_distinct_roots(p, F(0), None) == 1

    def test_no_real_roots(self):
        assert om.sturm_distinct_roots(RP.from_coeffs([1, 0, 1])) == 0

    def test_distinct_with_multiplicity(self):
        p = RP.from_roots([1, 1, 3])
        assert om.sturm_distinct_roots(p, F(0), None) == 2

    def test_open_interval_excludes_endpoints(self):
        p = RP.from_roots([1, 2])
        assert om.sturm_distinct_roots(p, F(1), F(2)) == 0
        assert om.sturm_distinct_roots(p, F(0), F(2)) == 1
        assert om.sturm_distinct_roots(p, F(1), F(3)) == 1

    def test_interval_additivity(self):
        rng = random.Random(31)
        for _ in range(20):
            roots = sorted(set(F(rng.randint(-10, 10), rng.randint(1, 4)) for _ in range(4)))
            p = RP.from_roots(roots)
            a, b, c = F(-20), F(rng.randint(-5, 5), 3), F(20)
            if not a < b < c:
                continue
            left = om.sturm_distinct_roots(p, a, b)
            right = om.sturm_distinct_roots(p, b, c)
            at_b = 1 if p(b) == 0 else 0
            assert left + right + at_b == om.sturm_distinct_roots(p, a, c)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(om.ZeroPolynomialError):
            om.sturm_distinct_roots(RP.from_coeffs([]))

    def test_whole_line(self):
        p = RP.from_roots([-2, 0, 7])
        assert om.sturm_distinct_roots(p) == 3


class TestSignChanges:
    def test_double_root_does_not_flip(self):
        p = RP.from_roots([1, 1, 3])
        assert om.sign_change_count(p, F(0), None) == 1

    def test_sqrt_two(self):
        assert om.sign_change_count(RP.from_coeffs([-2, 0, 1]), F(0), None) == 1

    def test_constructed_degree_four(self):
        rng = random.Random(37)
        for _ in range(20):
            roots = []
            expected = 0
            budget = 4
            while budget >= 1:
                root = F(rng.randint(1, 30), rng.randint(1, 3))
                mult = rng.randint(1, min(2, budget))
                if any(root == r for r, _ in roots):
                    budget -= mult
                    continue
                roots.append((root, mult))
                if mult % 2 == 1:
                    expected += 1
                budget -= mult
            p = RP.from_coeffs([1])
            for root, mult in roots:
                p = p * RP.from_roots([root] * mult)
            # multiply in a negative-axis factor that must not be counted
            p = p * RP.from_roots([F(-3, 2)])
            assert om.sign_change_count(p, F(0), None) == expected

    def test_endpoint_root_rejected(self):
        p = RP.from_roots([1, 4])
        with pytest.raises(om.EndpointRootError):
            om.sign_change_count(p, F(1), None)

    def test_never_exceeds_distinct(self):
        rng = random.Random(41)
        for _ in range(20):
            coeffs = [F(rng.randint(-6, 6)) for _ in range(6)]
            p = RP.from_coeffs(coeffs)
            if p.is_zero or p(0) == 0:
                continue
            flips = om.sign_change_count(p, F(0), None)
            distinct = om.sturm_distinct_roots(p, F(0), None)
            assert flips <= distinct


class TestDistinctRootCounter:
    """One Sturm chain per polynomial, counted on many intervals."""

    @staticmethod
    def planted(rng):
        p = RP.from_coeffs([F(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))])
        roots = []
        for _ in range(rng.randint(1, 4)):
            root = F(rng.randint(-12, 12), rng.randint(1, 3))
            roots.append(root)
            p = p * RP.from_roots([root] * rng.randint(1, 3))
        if rng.random() < 0.5:
            p = p * RP.from_coeffs([rng.randint(1, 9), 0, 1])
        return p, roots

    def test_matches_root_counts_on_many_intervals(self):
        rng = random.Random(47)
        for _ in range(40):
            p, roots = self.planted(rng)
            cuts = sorted(
                set(roots[:2] + [F(rng.randint(-40, 40), rng.randint(1, 4)) for _ in range(5)])
            )
            intervals = [(None, None)]
            intervals += [(None, c) for c in cuts] + [(c, None) for c in cuts]
            intervals += [(a, b) for i, a in enumerate(cuts) for b in cuts[i + 1:]]
            rng.shuffle(intervals)
            count = poly_mod.distinct_root_counter(p)
            for low, high in intervals:
                assert count(low, high) == om.root_counts(p, low, high)[1], (p, low, high)

    def test_chain_built_once_away_from_endpoint_roots(self, monkeypatch):
        calls = []
        real = poly_mod.sturm_chain
        monkeypatch.setattr(poly_mod, "sturm_chain", lambda p: calls.append(p) or real(p))
        p = RP.from_roots([1, 1, 3, -2]) * RP.from_coeffs([5, 0, 1])
        count = poly_mod.distinct_root_counter(p)
        assert [count(F(0), None), count(F(2), F(4)), count(None, F(2)), count(F(0), F(2))] == [
            2, 1, 2, 1
        ]
        assert len(calls) == 1
        # An endpoint root falls back to root_counts, which builds its own.
        assert count(F(1), F(4)) == 1
        assert len(calls) > 1

    def test_errors(self):
        with pytest.raises(om.ZeroPolynomialError):
            poly_mod.distinct_root_counter(RP.from_coeffs([]))
        with pytest.raises(ValueError):
            poly_mod.distinct_root_counter(RP.from_roots([1]))(F(2), F(1))


# A d=2 pair whose subset (0, 1, 2) has the pencil -(x - 3)^2: the triangle
# touches degeneracy at t = 3/4 without flipping (found by a search over
# small integer coordinates).
TANGENT_P = [[-3, -2], [-3, 1], [0, 1], [-2, -3]]
TANGENT_Q = [[3, -1], [3, -2], [2, 1], [-3, -3]]


class TestSharedCounterCallers:
    def test_discretized_cost_on_a_tangential_degeneracy(self):
        P, Q = om.point_tuple(TANGENT_P), om.point_tuple(TANGENT_Q)
        f = om.build_pencil(P.subtuple((0, 1, 2)), Q.subtuple((0, 1, 2)), (1, 1)).poly
        assert f == RP.from_roots([3, 3]) * -1
        plan = om.linear_cost(P, Q)
        assert plan.ledger[0] == ((0, 1, 2), 0)
        assert om.discretized_cost(P, Q) == plan.total == 4

    def test_discretized_cost_on_shared_roots(self):
        rng = random.Random(53)
        for n in (4, 5):
            P, Q = fixed_pair_planted(rng, n, 2)
            reflected = om.scale_tuple(Q, (-1, -1))
            plan = om.linear_cost(P, reflected)
            assert plan.shared_roots
            assert om.discretized_cost(P, reflected) == plan.total

    def test_localization_matches_per_interval_rule(self):
        def reference(pen, prof):
            intervals = om.decay_intervals(prof, pen.lam)
            if any(om.sturm_distinct_roots(pen.poly, lo, hi) != 1 for lo, hi in intervals):
                return False
            ordered = sorted(intervals)
            if any(not hi <= lo for (_, hi), (lo, _) in zip(ordered, ordered[1:])):
                return False
            return len(intervals) == pen.poly.degree

        rng = random.Random(59)
        outcomes = []
        while len(outcomes) < 60:
            d = rng.choice((2, 3))
            A, B = rand_tuple(rng, d + 1, d), rand_tuple(rng, d + 1, d)
            prof = om.coefficient_profile(A.points, B.points)
            if not prof.nowhere_zero:
                continue
            signs = [rng.choice((-1, 1)) for _ in range(d)]
            eta = F(1, rng.choice((2, 4, 16, 256, 4096)))
            pen = om.build_pencil(A.points, B.points, om.decay_lambdas(signs, eta))
            expected = reference(pen, prof)
            assert om.localization_certified(pen, prof) == expected
            outcomes.append(expected)
        assert True in outcomes and False in outcomes
