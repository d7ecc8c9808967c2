import random
from fractions import Fraction as F

import pytest

import ordermotion as om
from ordermotion import RationalPolynomial as RP


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
                rebuilt = rebuilt * factor ** 1 if k == 0 else rebuilt
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
