"""Exact rational points, orientation predicates, and order types.

Everything in this module runs on arbitrary-precision rationals; no floating
point is used anywhere. The orientation signs computed here are the ground
truth for every other module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from .errors import (
    DegenerateTupleError,
    DimensionMismatchError,
    InternalInvariantError,
    ShapeMismatchError,
)

ScalarLike = Union[Fraction, int, str]
Point = tuple[Fraction, ...]


def as_scalar(value: ScalarLike) -> Fraction:
    """Coerce an int, Fraction, or "num/den" string to an exact rational.

    Floats are rejected on purpose: silently rationalizing binary floats is a
    trap for exact predicates. Callers that really mean it can pass
    ``Fraction(x)`` themselves.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in rational literal {value!r}") from exc
    raise TypeError(f"expected int, Fraction or rational string, got {type(value).__name__}")


def as_point(coords: Iterable[ScalarLike]) -> Point:
    return tuple(as_scalar(c) for c in coords)


@dataclass(frozen=True)
class PointTuple:
    """An ordered tuple of n points with exact rational coordinates in R^d."""

    dim: int
    points: tuple[Point, ...]

    def __post_init__(self):
        if self.dim < 2:
            raise DimensionMismatchError(f"dimension must be at least 2, got {self.dim}")
        for p in self.points:
            if len(p) != self.dim:
                raise DimensionMismatchError(
                    f"point {p} has {len(p)} coordinates, expected {self.dim}"
                )

    @property
    def n(self) -> int:
        return len(self.points)

    def subtuple(self, indices: Sequence[int]) -> tuple[Point, ...]:
        return tuple(self.points[i] for i in indices)

    def with_point(self, index: int, point: Iterable[ScalarLike]) -> "PointTuple":
        pts = list(self.points)
        pts[index] = as_point(point)
        return PointTuple(self.dim, tuple(pts))

    def translated(self, offset: Iterable[ScalarLike]) -> "PointTuple":
        off = as_point(offset)
        if len(off) != self.dim:
            raise DimensionMismatchError("offset dimension mismatch")
        return PointTuple(
            self.dim, tuple(tuple(c + o for c, o in zip(p, off)) for p in self.points)
        )


def point_tuple(points: Iterable[Iterable[ScalarLike]], dim: int | None = None) -> PointTuple:
    """Build a PointTuple, coercing coordinate entries to exact rationals."""
    pts = tuple(as_point(p) for p in points)
    if not pts and dim is None:
        raise DimensionMismatchError("cannot infer dimension of an empty tuple")
    d = dim if dim is not None else len(pts[0])
    return PointTuple(d, pts)


def apply_linear_map(P: PointTuple, matrix: Sequence[Sequence[Fraction]]) -> PointTuple:
    """Apply an exact d x d matrix to every point of the tuple."""
    d = P.dim
    if len(matrix) != d or any(len(row) != d for row in matrix):
        raise DimensionMismatchError(f"expected a {d}x{d} matrix")
    points = tuple(
        tuple(sum(matrix[i][j] * p[j] for j in range(d)) for i in range(d))
        for p in P.points
    )
    return PointTuple(d, points)


# ---------------------------------------------------------------------------
# Exact determinants
# ---------------------------------------------------------------------------

def _det_int(rows: Sequence[Sequence[int]]) -> int:
    """Integer determinant: closed forms for 1x1 and 3x3 (the planar
    orientation and pencil size), fraction-free Bareiss elimination
    otherwise."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[-1][-1]


def det_rational(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a square matrix of rationals.

    Denominators are cleared row by row (positive multipliers, so the scaling
    divides back out exactly) and the integer part is done by _det_int.
    """
    scale = 1
    int_rows: list[list[int]] = []
    for row in rows:
        lcm = math.lcm(*(c.denominator for c in row)) if row else 1
        scale *= lcm
        int_rows.append([c.numerator * (lcm // c.denominator) for c in row])
    return Fraction(_det_int(int_rows), scale)


def _homogeneous(p: Point) -> list[int]:
    """Integer homogeneous coordinates (w, w*x_1, ..., w*x_d) of p, where the
    weight w > 0 is the lcm of p's denominators."""
    w = math.lcm(*(c.denominator for c in p))
    return [w, *(c.numerator * (w // c.denominator) for c in p)]


def _orientation_columns(points: Sequence[Point]) -> list[list[int]]:
    """The columns of the orientation matrix (top row of ones, the points as
    columns), each scaled by its point's positive weight; the determinant of
    the transpose is the same, so the columns are returned as rows."""
    d = len(points[0])
    if len(points) != d + 1:
        raise DimensionMismatchError(
            f"orientation needs d+1 points in R^d, got {len(points)} points in R^{d}"
        )
    for p in points:
        if len(p) != d:
            raise DimensionMismatchError("points of mixed dimensions")
    return [_homogeneous(p) for p in points]


def orientation_det(points: Sequence[Point]) -> Fraction:
    """Determinant of the (d+1)x(d+1) matrix with a top row of ones and the
    points as columns; its sign is the orientation of the (d+1)-tuple."""
    columns = _orientation_columns(points)
    return Fraction(_det_int(columns), math.prod(col[0] for col in columns))


def orient(points: Sequence[Point]) -> int:
    """Orientation sign of d+1 points in R^d: +1, -1, or 0 (degenerate).

    Scaling a column by its positive weight keeps the sign, so the sign is
    read from the integer determinant directly."""
    det = _det_int(_orientation_columns(points))
    return (det > 0) - (det < 0)


# ---------------------------------------------------------------------------
# Subset enumeration (colexicographic, the serialization contract)
# ---------------------------------------------------------------------------

def colex_subsets(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Sorted k-subsets of range(n) in colexicographic order.

    Colex compares reversed tuples lexicographically; it is stable under
    growing n, which is why it is the on-disk ordering.
    """
    if k == 0:
        yield ()
        return
    for top in range(k - 1, n):
        for rest in colex_subsets(top, k - 1):
            yield rest + (top,)


def colex_rank(subset: Sequence[int]) -> int:
    """Position of a sorted subset in the colex enumeration."""
    return sum(math.comb(s, i + 1) for i, s in enumerate(subset))


# ---------------------------------------------------------------------------
# Order types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderType:
    """Signs of all (d+1)-subsets of an n-tuple, in colex subset order."""

    n: int
    d: int
    signs: tuple[int, ...]

    def __post_init__(self):
        expected = math.comb(self.n, self.d + 1)
        if len(self.signs) != expected:
            raise ShapeMismatchError(
                f"expected {expected} signs for n={self.n}, d={self.d}, got {len(self.signs)}"
            )
        if any(s not in (-1, 0, 1) for s in self.signs):
            raise ValueError("orientation signs must be -1, 0, or +1")

    def subsets(self) -> Iterator[tuple[int, ...]]:
        return colex_subsets(self.n, self.d + 1)

    def sign_of(self, subset: Sequence[int]) -> int:
        return self.signs[colex_rank(tuple(subset))]

    @property
    def zero_free(self) -> bool:
        return 0 not in self.signs

    def negated(self) -> "OrderType":
        return OrderType(self.n, self.d, tuple(-s for s in self.signs))


def _subset_dets(
    P: PointTuple,
) -> Iterator[tuple[tuple[int, ...], list[list[int]], int]]:
    """Every (d+1)-subset of P in colex order with its integer orientation
    columns and their determinant, which has the orientation's sign and,
    divided by the product of the weights col[0], its value. Each point is
    converted once."""
    columns = [_homogeneous(p) for p in P.points]
    for s in colex_subsets(P.n, P.dim + 1):
        rows = [columns[i] for i in s]
        yield s, rows, _det_int(rows)


def order_type(P: PointTuple) -> OrderType:
    """Orientation of every (d+1)-subset of P, indexed in colex order."""
    if P.n < P.dim + 1:
        raise ShapeMismatchError(
            f"order type needs at least d+1={P.dim + 1} points, got {P.n}"
        )
    signs = tuple((det > 0) - (det < 0) for _, _, det in _subset_dets(P))
    return OrderType(P.n, P.dim, signs)


def hamming(t1: OrderType, t2: OrderType) -> int:
    """Number of (d+1)-subsets on which two order types disagree."""
    if (t1.n, t1.d) != (t2.n, t2.d):
        raise ShapeMismatchError(
            f"order type shapes differ: ({t1.n},{t1.d}) vs ({t2.n},{t2.d})"
        )
    return sum(1 for a, b in zip(t1.signs, t2.signs) if a != b)


def mirror(P: PointTuple) -> PointTuple:
    """Reflect every point through the hyperplane x_1 = 0.

    For a tuple in general position this negates every orientation sign:
    the reflection rescales one coordinate row of each determinant by -1.
    """
    return PointTuple(
        P.dim, tuple((-p[0],) + p[1:] for p in P.points)
    )


def is_general_position(P: PointTuple) -> bool:
    """True iff no d+1 points of P lie on a common hyperplane."""
    return all(det != 0 for _, _, det in _subset_dets(P))


# ---------------------------------------------------------------------------
# Robust perturbation radii
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RobustRadius:
    """A sufficient perturbation bound: moving every point by at most
    ``epsilon`` in the max-norm cannot change any orientation sign."""

    epsilon: Fraction
    min_abs_det: Fraction


def robust_radius(P: PointTuple) -> RobustRadius:
    """Conservative radius under which the order type of P is rigid.

    The bound divides the smallest orientation determinant by an explicit
    Lipschitz constant for the bordered determinant over the perturbation
    ball: each cofactor of a coordinate entry is at most d! * (2R)^(d-1) in
    absolute value when all coordinates stay within 2R, and a full
    perturbation touches (d+1)*d such entries. The result is deliberately
    loose; only sufficiency matters. It scales linearly with the tuple.
    """
    d = P.dim
    if P.n < d + 1:
        raise ShapeMismatchError(
            f"robust radius needs at least d+1={d + 1} points, got {P.n}"
        )
    min_abs: Fraction | None = None
    for s, rows, det in _subset_dets(P):
        if det == 0:
            raise DegenerateTupleError(
                f"tuple is degenerate on subset {s}", subset=s
            )
        a = Fraction(abs(det), math.prod(col[0] for col in rows))
        if min_abs is None or a < min_abs:
            min_abs = a
    if min_abs is None:
        raise InternalInvariantError("no (d+1)-subset to bound the radius by")
    radius = max(abs(c) for p in P.points for c in p)
    lipschitz = (d + 1) * d * math.factorial(d) * (2 * radius) ** (d - 1)
    eps = min(radius, min_abs / lipschitz)
    return RobustRadius(epsilon=eps, min_abs_det=min_abs)
