import math
import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ordermotion as om
import ordermotion.geometry as geometry
from _support import rand_tuple


def orient2d_reference(pa, pb, pc):
    """Independent planar orientation: the classic difference cross product."""
    det = (pa[0] - pc[0]) * (pb[1] - pc[1]) - (pa[1] - pc[1]) * (pb[0] - pc[0])
    return (det > 0) - (det < 0)


class TestOrient:
    def test_counterclockwise(self):
        assert om.orient(om.point_tuple([[0, 0], [1, 0], [0, 1]]).points) == 1

    def test_collinear(self):
        assert om.orient(om.point_tuple([[0, 0], [1, 0], [2, 0]]).points) == 0

    def test_clockwise(self):
        assert om.orient(om.point_tuple([[0, 0], [0, 1], [1, 0]]).points) == -1

    def test_dimension_mismatch(self):
        with pytest.raises(om.DimensionMismatchError):
            om.orient(((F(0), F(0)), (F(1), F(0))))

    def test_matches_cross_product_reference(self):
        rng = random.Random(42)
        for _ in range(200):
            pts = [(F(rng.randint(-50, 50), 4), F(rng.randint(-50, 50), 4)) for _ in range(3)]
            assert om.orient(pts) == orient2d_reference(*pts)

    def test_3d_simplex(self):
        pts = om.point_tuple([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]).points
        assert om.orient(pts) == 1


rational = st.fractions(min_value=-8, max_value=8, max_denominator=16)
point2 = st.tuples(rational, rational)


@given(st.tuples(point2, point2, point2), st.sampled_from([(0, 1), (0, 2), (1, 2)]))
@settings(max_examples=60, deadline=None)
def test_orient_antisymmetry(points, swap):
    pts = list(points)
    i, j = swap
    swapped = list(pts)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert om.orient(pts) == -om.orient(swapped)


@given(st.lists(point2, min_size=4, max_size=4), point2)
@settings(max_examples=40, deadline=None)
def test_order_type_translation_invariant(points, offset):
    P = om.point_tuple(points)
    assert om.order_type(P) == om.order_type(P.translated(offset))


@given(st.lists(point2, min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_order_type_positive_scaling_invariant(points):
    P = om.point_tuple(points)
    scaled = om.point_tuple([(3 * x, F(1, 2) * y) for x, y in points])
    assert om.order_type(P) == om.order_type(scaled)


class TestOrderType:
    def test_four_point_example(self):
        P = om.point_tuple([[0, 0], [4, 0], [2, 4], [2, 1]])
        t = om.order_type(P)
        assert t.zero_free
        assert len(t.signs) == 4
        assert t.sign_of((0, 1, 2)) == 1

    def test_collinear_triple(self):
        t = om.order_type(om.point_tuple([[0, 0], [1, 0], [2, 0]]))
        assert t.signs == (0,)

    def test_matches_per_triple_recomputation(self):
        rng = random.Random(3)
        P = rand_tuple(rng, 6, 2)
        t = om.order_type(P)
        for subset in combinations(range(6), 3):
            expected = orient2d_reference(*(P.points[i] for i in subset))
            assert t.sign_of(subset) == expected

    def test_needs_enough_points(self):
        with pytest.raises(om.ShapeMismatchError):
            om.order_type(om.point_tuple([[0, 0], [1, 1]]))

    def test_colex_sign_order(self):
        P = om.point_tuple([[0, 0], [3, 0], [1, 3], [4, 4], [0, 4]])
        t = om.order_type(P)
        for subset in combinations(range(5), 3):
            assert t.sign_of(subset) == om.orient(P.subtuple(subset))


class TestColex:
    def test_enumeration_small(self):
        assert list(om.colex_subsets(4, 3)) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        assert list(om.colex_subsets(5, 2))[:4] == [(0, 1), (0, 2), (1, 2), (0, 3)]

    def test_rank_round_trip(self):
        for n, k in ((5, 2), (6, 3), (7, 4)):
            for rank, subset in enumerate(om.colex_subsets(n, k)):
                assert om.colex_rank(subset) == rank

    def test_count(self):
        assert len(list(om.colex_subsets(8, 3))) == math.comb(8, 3)


class TestHamming:
    def test_identical(self):
        t = om.order_type(om.point_tuple([[0, 0], [4, 0], [2, 4], [2, 1]]))
        assert om.hamming(t, t) == 0

    def test_full_negation(self):
        t = om.order_type(om.point_tuple([[0, 0], [4, 0], [2, 4], [2, 1]]))
        assert t.zero_free
        assert om.hamming(t, t.negated()) == math.comb(4, 3)

    def test_matches_direct_count(self):
        rng = random.Random(9)
        t1 = om.order_type(rand_tuple(rng, 5, 2))
        t2 = om.order_type(rand_tuple(rng, 5, 2))
        direct = sum(1 for a, b in zip(t1.signs, t2.signs) if a != b)
        assert om.hamming(t1, t2) == direct
        assert om.hamming(t1, t2) <= math.comb(5, 3)

    def test_shape_mismatch(self):
        t1 = om.order_type(om.point_tuple([[0, 0], [4, 0], [2, 4], [2, 1]]))
        rng = random.Random(1)
        t2 = om.order_type(rand_tuple(rng, 5, 2))
        with pytest.raises(om.ShapeMismatchError):
            om.hamming(t1, t2)


class TestMirror:
    def test_single_point(self):
        P = om.point_tuple([[1, 2], [0, 0], [5, 5]])
        assert om.mirror(P).points[0] == (F(-1), F(2))

    def test_negates_order_type(self):
        rng = random.Random(5)
        P = rand_tuple(rng, 5, 2)
        assert om.order_type(om.mirror(P)) == om.order_type(P).negated()

    def test_involution(self):
        rng = random.Random(6)
        P = rand_tuple(rng, 4, 3)
        assert om.mirror(om.mirror(P)) == P

    def test_collinear_stays_collinear(self):
        P = om.point_tuple([[0, 0], [1, 1], [2, 2]])
        assert om.order_type(om.mirror(P)).signs == (0,)


class TestGeneralPosition:
    def test_square(self):
        assert om.is_general_position(om.point_tuple([[0, 0], [1, 0], [0, 1], [1, 1]]))

    def test_collinear_triple_inside(self):
        assert not om.is_general_position(
            om.point_tuple([[0, 0], [1, 1], [2, 2], [0, 1]])
        )

    def test_matches_zero_scan(self):
        rng = random.Random(11)
        for _ in range(10):
            pts = [[F(rng.randint(0, 4)), F(rng.randint(0, 4))] for _ in range(5)]
            pts = [[c + F(rng.randint(-1, 1), 16) for c in p] for p in pts]
            P = om.point_tuple(pts)
            assert om.is_general_position(P) == om.order_type(P).zero_free


class TestRobustRadius:
    def test_unit_right_triangle_value(self):
        P = om.point_tuple([[0, 0], [1, 0], [0, 1]])
        rr = om.robust_radius(P)
        assert rr.min_abs_det == 1
        assert rr.epsilon == F(1, 24)

    def test_corner_perturbations_never_flip(self):
        # the determinant is affine in each coordinate, so checking all corner
        # displacements of the perturbation box is an exhaustive verification
        P = om.point_tuple([[0, 0], [1, 0], [0, 1]])
        eps = om.robust_radius(P).epsilon
        base = om.orient(P.points)
        for deltas in product((-eps, eps), repeat=6):
            pts = [
                (P.points[i][0] + deltas[2 * i], P.points[i][1] + deltas[2 * i + 1])
                for i in range(3)
            ]
            assert om.orient(pts) == base

    def test_scaling_homogeneity(self):
        P = om.point_tuple([[0, 0], [1, 0], [0, 1]])
        doubled = om.point_tuple([[0, 0], [2, 0], [0, 2]])
        assert om.robust_radius(doubled).epsilon == 2 * om.robust_radius(P).epsilon

    def test_below_distance_to_degeneracy(self):
        # bisection on the degeneracy locus: moving the apex straight down,
        # collinearity happens exactly at its height
        h = F(1, 100)
        P = om.point_tuple([[0, 0], [1, 0], [F(1, 2), h]])
        eps = om.robust_radius(P).epsilon
        lo, hi = F(0), h
        for _ in range(40):
            mid = (lo + hi) / 2
            moved = P.with_point(2, [F(1, 2), h - mid])
            if om.orient(moved.points) == 0:
                hi = mid
            else:
                lo = mid
        assert eps < hi

    def test_degenerate_rejected(self):
        with pytest.raises(om.DegenerateTupleError) as err:
            om.robust_radius(om.point_tuple([[0, 0], [1, 0], [2, 0]]))
        assert err.value.subset == (0, 1, 2)

    def test_random_perturbations_keep_order_type(self):
        rng = random.Random(13)
        P = rand_tuple(rng, 5, 2, span=8, den=4)
        rr = om.robust_radius(P)
        t = om.order_type(P)
        for _ in range(100):
            pts = [
                [c + rr.epsilon * F(rng.randint(-128, 128), 128) for c in p]
                for p in P.points
            ]
            assert om.order_type(om.point_tuple(pts)) == t


class TestScalarParsing:
    def test_accepts_strings_and_ints(self):
        assert om.as_scalar("3/4") == F(3, 4)
        assert om.as_scalar(5) == F(5)

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            om.as_scalar("1/0")

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            om.as_scalar(0.5)


# ---------------------------------------------------------------------------
# Differential tests of the integer kernel against Fraction cofactors
# ---------------------------------------------------------------------------

def det_reference(rows):
    """Independent determinant: Fraction cofactor expansion along the first
    row."""
    if len(rows) == 1:
        return F(rows[0][0])
    total = F(0)
    for j, c in enumerate(rows[0]):
        if c != 0:
            minor = [row[:j] + row[j + 1:] for row in rows[1:]]
            total += (-1) ** j * F(c) * det_reference(minor)
    return total


def orientation_reference(points):
    d = len(points[0])
    rows = [[F(1)] * (d + 1)] + [[p[i] for p in points] for i in range(d)]
    return det_reference(rows)


def sign(x):
    return (x > 0) - (x < 0)


# Small fractions, and big ones with unrelated denominators, of both signs.
exact_coord = st.one_of(
    st.fractions(min_value=-8, max_value=8, max_denominator=16),
    st.builds(F, st.integers(-(10 ** 24), 10 ** 24), st.integers(1, 10 ** 18)),
)


@st.composite
def planted_points(draw, extra: int):
    """(d, points): d+1+extra points in R^d, d = 2..5, where one point may be
    replaced by a copy of another, a midpoint of two others, or an affine
    combination of d others (at d=3 with one extra point: a coplanar fifth
    point)."""
    d = draw(st.integers(2, 5))
    n = d + 1 + extra
    pts = [tuple(draw(exact_coord) for _ in range(d)) for _ in range(n)]
    plant = draw(st.sampled_from(["none", "repeat", "midpoint", "affine"]))
    k = draw(st.integers(0, n - 1))
    others = draw(st.permutations([i for i in range(n) if i != k]))
    if plant == "repeat":
        pts[k] = pts[others[0]]
    elif plant == "midpoint":
        a, b = pts[others[0]], pts[others[1]]
        pts[k] = tuple((x + y) / 2 for x, y in zip(a, b))
    elif plant == "affine":
        weights = [draw(st.fractions(-3, 3, max_denominator=5)) for _ in range(d - 1)]
        weights.append(1 - sum(weights))
        chosen = [pts[i] for i in others[:d]]
        pts[k] = tuple(sum(w * p[c] for w, p in zip(weights, chosen)) for c in range(d))
    return d, pts


@given(planted_points(extra=0))
@settings(max_examples=120, deadline=None)
def test_orient_and_orientation_det_match_cofactor_reference(case):
    _, pts = case
    expected = orientation_reference(pts)
    assert om.orientation_det(pts) == expected
    assert om.orient(pts) == sign(expected)


@given(planted_points(extra=1))
@settings(max_examples=60, deadline=None)
def test_order_type_and_robust_radius_match_cofactor_reference(case):
    d, pts = case
    P = om.point_tuple(pts)
    dets = [orientation_reference(P.subtuple(s)) for s in om.colex_subsets(P.n, d + 1)]
    expected = tuple(sign(det) for det in dets)
    assert om.order_type(P).signs == expected
    assert om.is_general_position(P) == (0 not in expected)
    if 0 in expected:
        with pytest.raises(om.DegenerateTupleError):
            om.robust_radius(P)
    else:
        assert om.robust_radius(P).min_abs_det == min(abs(det) for det in dets)


def test_coplanar_fifth_point_in_3d():
    pts = [[0, 0, 0], [F(7, 3), 1, -2], [-1, F(5, 11), 4], [3, 3, F(1, 2)]]
    a, b = F(2, 7), F(-5, 3)
    pts.append([a * x + b * y + (1 - a - b) * z for x, y, z in zip(*pts[:3])])
    P = om.point_tuple(pts)
    t = om.order_type(P)
    assert t.sign_of((0, 1, 2, 4)) == 0
    assert t.signs == tuple(
        sign(orientation_reference(P.subtuple(s))) for s in om.colex_subsets(5, 4)
    )


@given(st.integers(1, 5).flatmap(
    lambda k: st.lists(st.lists(exact_coord | st.just(F(0)), min_size=k, max_size=k),
                       min_size=k, max_size=k)
))
@settings(max_examples=120, deadline=None)
def test_det_rational_matches_cofactor_reference(rows):
    assert geometry.det_rational(rows) == det_reference(rows)


small_or_huge = st.integers(-3, 3) | st.integers(-(10 ** 20), 10 ** 20)


@given(st.lists(st.lists(small_or_huge, min_size=3, max_size=3), min_size=3, max_size=3))
@example([[0, 1, 2], [3, 4, 5], [6, 7, 8]])
@example([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
@example([[0, 1, 2], [0, 3, 4], [5, 6, 7]])
@example([[0, 1, 2], [0, 3, 4], [0, 6, 7]])
@example([[1, 2, 3], [2, 4, 6], [0, 5, 1]])
@settings(max_examples=150, deadline=None)
def test_closed_form_3x3_matches_bareiss(rows):
    # Bordering with a unit row and column keeps the determinant and sends
    # it through Bareiss elimination, zero pivots and row swaps included.
    bordered = [[1, 0, 0, 0]] + [[0, *row] for row in rows]
    assert geometry._det_int(rows) == geometry._det_int(bordered) == det_reference(rows)


@pytest.mark.parametrize("fn", [om.orient, om.orientation_det])
def test_dimension_errors_keep_type_and_message(fn):
    with pytest.raises(om.DimensionMismatchError) as err:
        fn(((F(0), F(0)), (F(1), F(0))))
    assert str(err.value) == "orientation needs d+1 points in R^d, got 2 points in R^2"
    with pytest.raises(om.DimensionMismatchError) as err:
        fn(((F(0), F(0)), (F(1), F(0)), (F(0), F(1), F(2))))
    assert str(err.value) == "points of mixed dimensions"
