import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordermotion as om
from ordermotion import RationalPolynomial as RP
from _support import rand_tuple


def pencil_by_cofactors(p_sub, q_sub, lam):
    """Independent expansion: determinant over polynomial entries by
    recursive cofactors."""
    d = len(p_sub[0])
    entries = [[RP.from_coeffs([1])] * (d + 1)]
    for i in range(d):
        entries.append(
            [
                RP.from_coeffs([p[i], lam[i] * q[i]])
                for p, q in zip(p_sub, q_sub)
            ]
        )

    def det(rows, cols):
        if len(cols) == 1:
            return entries[rows[0]][cols[0]]
        acc = RP.from_coeffs([])
        for k, c in enumerate(cols):
            minor = det(rows[1:], cols[:k] + cols[k + 1 :])
            term = entries[rows[0]][c] * minor
            acc = acc + term if k % 2 == 0 else acc - term
        return acc

    return det(tuple(range(d + 1)), tuple(range(d + 1)))


class TestBuildPencil:
    def test_self_pencil_is_shifted_power(self):
        P = om.point_tuple([[0, 0], [1, 0], [0, 1]])
        pen = om.build_pencil(P.points, P.points, [1, 1])
        det = om.orientation_det(P.points)
        expected = RP.from_roots([-1, -1]) * det
        assert pen.poly == expected

    def test_value_at_zero_is_source_orientation(self):
        rng = random.Random(2)
        A, B = rand_tuple(rng, 3, 2), rand_tuple(rng, 3, 2)
        pen = om.build_pencil(A.points, B.points, [1, 1])
        assert pen.poly(0) == om.orientation_det(A.points)

    def test_matches_cofactor_expansion(self):
        rng = random.Random(4)
        for _ in range(10):
            A, B = rand_tuple(rng, 3, 2), rand_tuple(rng, 3, 2)
            lam = (F(rng.randint(1, 5)), F(-rng.randint(1, 5), 3))
            pen = om.build_pencil(A.points, B.points, lam)
            assert pen.poly == pencil_by_cofactors(A.points, B.points, lam)

    def test_matches_cofactor_expansion_3d(self):
        rng = random.Random(8)
        A, B = rand_tuple(rng, 4, 3), rand_tuple(rng, 4, 3)
        lam = (F(2), F(-1), F(1, 2))
        pen = om.build_pencil(A.points, B.points, lam)
        assert pen.poly == pencil_by_cofactors(A.points, B.points, lam)

    def test_rejects_degenerate_source(self):
        bad = om.point_tuple([[0, 0], [1, 1], [2, 2]])
        good = om.point_tuple([[0, 0], [1, 0], [0, 1]])
        with pytest.raises(om.DegenerateTupleError):
            om.build_pencil(bad.points, good.points, [1, 1])
        with pytest.raises(om.DegenerateTupleError):
            om.build_pencil(good.points, bad.points, [1, 1])

    def test_degenerate_target_reports_subset(self):
        bad = om.point_tuple([[0, 0], [1, 1], [2, 2]])
        good = om.point_tuple([[0, 0], [1, 0], [0, 1]])
        with pytest.raises(om.DegenerateTupleError, match="degenerate target subset") as err:
            om.build_pencil(good.points, bad.points, [1, 1], (0, 2, 5))
        assert err.value.subset == (0, 2, 5)

    def test_both_degenerate_reports_source(self):
        bad = om.point_tuple([[0, 0], [1, 1], [2, 2]])
        with pytest.raises(om.DegenerateTupleError, match="degenerate source subset") as err:
            om.build_pencil(bad.points, bad.points, [1, -1], (1, 3, 4))
        assert err.value.subset == (1, 3, 4)

    def test_rejects_zero_scaling(self):
        P = om.point_tuple([[0, 0], [1, 0], [0, 1]])
        with pytest.raises(ValueError):
            om.build_pencil(P.points, P.points, [1, 0])

    def test_degree_bound_invariant(self):
        rng = random.Random(6)
        for _ in range(10):
            A, B = rand_tuple(rng, 3, 2), rand_tuple(rng, 3, 2)
            pen = om.build_pencil(A.points, B.points, [1, 1])
            assert pen.poly.degree == 2
            assert om.sign_change_count(pen.poly, F(0), None) <= 2


def _is_positive_multiple(pen, reference) -> bool:
    """pen.coeffs are primitive integers and reference = pen.coeffs * r for
    one rational r > 0; pen.poly is exactly the reference."""
    ratio = reference.coeffs[-1] / pen.coeffs[-1]
    return (
        ratio > 0
        and math.gcd(*pen.coeffs) == 1
        and reference.coeffs == tuple(ratio * c for c in pen.coeffs)
        and pen.poly == reference
    )


_rational = st.fractions(min_value=-8, max_value=8, max_denominator=12)
_scaling = st.fractions(min_value=-5, max_value=5, max_denominator=9).filter(lambda v: v != 0)


@st.composite
def _pencil_case(draw):
    d = draw(st.integers(2, 5))
    point = st.tuples(*[_rational] * d)
    p_sub = draw(st.lists(point, min_size=d + 1, max_size=d + 1))
    q_sub = draw(st.lists(point, min_size=d + 1, max_size=d + 1))
    lam = draw(st.lists(_scaling, min_size=d, max_size=d))
    return p_sub, q_sub, lam


class TestIntegerPencil:
    @given(_pencil_case())
    @settings(max_examples=60, deadline=None)
    def test_positive_multiple_of_the_cofactor_pencil(self, case):
        p_sub, q_sub, lam = case
        d = len(lam)
        reference = pencil_by_cofactors(p_sub, q_sub, lam)
        if reference.is_zero or reference(0) == 0 or reference.degree < d:
            with pytest.raises(om.DegenerateTupleError):
                om.build_pencil(p_sub, q_sub, lam)
            return
        assert _is_positive_multiple(om.build_pencil(p_sub, q_sub, lam), reference)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_negative_and_mixed_scalings(self, d):
        rng = random.Random(90 + d)
        A, B = rand_tuple(rng, d + 1, d), rand_tuple(rng, d + 1, d)
        for lam in (
            (F(-1),) * d,
            tuple(F((-1) ** j * (j + 2), 2 * j + 3) for j in range(d)),
            om.decay_lambdas((-1,) * (d - 1) + ((-1) ** (d - 1),), F(1, 64)),
        ):
            pen = om.build_pencil(A.points, B.points, lam)
            assert _is_positive_multiple(pen, pencil_by_cofactors(A.points, B.points, lam))


class TestReflectionIdentity:
    def test_flip_counts_split_across_sign(self):
        # the pencil with all-minus scalings is the all-plus pencil composed
        # with x -> -x, so positive-axis root counts on the two sides sum to
        # at most the degree
        rng = random.Random(10)
        for _ in range(15):
            A, B = rand_tuple(rng, 3, 2), rand_tuple(rng, 3, 2)
            plus = om.build_pencil(A.points, B.points, [1, 1]).poly
            minus = om.build_pencil(A.points, B.points, [-1, -1]).poly
            assert minus == RP.from_coeffs(
                [c * (-1) ** i for i, c in enumerate(plus.coeffs)]
            )
            total = om.sign_change_count(plus, F(0), None) + om.sign_change_count(
                minus, F(0), None
            )
            assert total <= 2


class TestCoefficientProfile:
    def test_boundary_values(self):
        rng = random.Random(12)
        A, B = rand_tuple(rng, 4, 3), rand_tuple(rng, 4, 3)
        prof = om.coefficient_profile(A.points, B.points)
        assert prof[0] == om.orientation_det(A.points)
        assert prof[3] == om.orientation_det(B.points)
        assert len(prof) == 4

    def test_decay_asymptotics_d2(self):
        # with lam = (eta, eta^2), each coefficient approaches the product of
        # its scalings with the matching mixed determinant; exact errors for
        # this pinned instance were computed with the independent cofactor
        # expansion and frozen here
        A = om.point_tuple([["2", "5/2"], ["-7/2", "0"], ["4", "15/4"]])
        B = om.point_tuple([["9/4", "3/4"], ["7/2", "3/2"], ["-3/4", "4"]])
        for eta, frozen in (
            (F(1, 10 ** 4), F(31, 95000)),
            (F(1, 10 ** 5), F(31, 950000)),
        ):
            report = om.coefficient_decay_report(A.points, B.points, eta, [1, 1])
            assert report.max_error == frozen
            assert report.max_error <= 10 * eta
            oracle = pencil_by_cofactors(
                A.points, B.points, om.decay_lambdas([1, 1], eta)
            )
            prof = om.coefficient_profile(A.points, B.points)
            direct = max(
                abs(oracle.coeffs[1] / (eta * prof[1]) - 1),
                abs(oracle.coeffs[2] / (eta ** 3 * prof[2]) - 1),
            )
            assert direct == frozen

    def test_decay_error_shrinks(self):
        rng = random.Random(16)
        A, B = rand_tuple(rng, 4, 3), rand_tuple(rng, 4, 3)
        prof = om.coefficient_profile(A.points, B.points)
        if not prof.nowhere_zero:
            B = om.perturb_general(B, F(1, 64), partner=A, seed=0)
        coarse = om.coefficient_decay_report(A.points, B.points, F(1, 10 ** 3), [1, 1, 1])
        fine = om.coefficient_decay_report(A.points, B.points, F(1, 10 ** 6), [1, 1, 1])
        assert fine.max_error < coarse.max_error

    def test_coarse_report_only(self):
        rng = random.Random(18)
        A, B = rand_tuple(rng, 3, 2), rand_tuple(rng, 3, 2)
        if not om.coefficient_profile(A.points, B.points).nowhere_zero:
            B = om.perturb_general(B, F(1, 64), partner=A, seed=0)
        report = om.coefficient_decay_report(A.points, B.points, F(1, 2), [1, 1])
        assert report.max_error >= 0  # finite, no assertion beyond the report

    def test_vanishing_profile_rejected(self):
        # the target's first coordinates repeat the source's second
        # coordinates, so the mixed determinant r_1 has two equal rows
        A = om.point_tuple([[0, 0], [1, 0], [0, 1]])
        B = om.point_tuple([[0, 5], [0, 3], [1, 4]])
        prof = om.coefficient_profile(A.points, B.points)
        assert prof[1] == 0
        assert not prof.nowhere_zero
        with pytest.raises(om.DegenerateTupleError):
            om.coefficient_decay_report(A.points, B.points, F(1, 8), [1, 1])
        with pytest.raises(om.DegenerateTupleError):
            om.certify_decay_scale(A, B, (1, 1))


class TestRootLocalization:
    def test_one_root_per_interval(self):
        rng = random.Random(20)
        done = 0
        while done < 5:
            A, B = rand_tuple(rng, 4, 3), rand_tuple(rng, 4, 3)
            prof = om.coefficient_profile(A.points, B.points)
            if not prof.nowhere_zero:
                continue
            done += 1
            for signs in ((1, 1, 1), (-1, -1, 1)):
                eta = om.certify_decay_scale(A, B, signs)
                pen = om.build_pencil(A.points, B.points, om.decay_lambdas(signs, eta))
                assert om.localization_certified(pen, prof)
                intervals = om.decay_intervals(prof, pen.lam)
                for lo, hi in intervals:
                    assert om.sturm_distinct_roots(pen.poly, lo, hi) == 1
                # certified scale means the sign rule is the exact flip count
                assert om.sign_rule_flips(prof, signs) == om.sign_change_count(
                    pen.poly, F(0), None
                )

    def test_sign_rule_all_positive_products(self):
        prof = om.CoefficientProfile(values=(F(1), F(2), F(3), F(4)))
        assert om.sign_rule_flips(prof, (1, 1, 1)) == 0
        assert om.sign_rule_flips(prof, (-1, -1, 1)) == 2
