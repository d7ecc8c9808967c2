"""Rotations, good-rotation measure estimates, and aspect-ratio experiments.

Rotations are inherently irrational, so this module is the float boundary of
the library: matrices are sampled and composed in double precision, then
rationalized entry-by-entry (exactly; binary floats are rationals) before any
pencil decision is made. A rationalized rotation is only approximately
orthogonal, but its determinant stays positive, so orientation bookkeeping
stays exact; the measure-zero risk of misclassifying a rotation sitting on
the boundary of the good set is accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateTupleError,
    DimensionMismatchError,
    InternalInvariantError,
    OrderTypeMismatchError,
    PreconditionError,
    RetryBudgetError,
    ShapeMismatchError,
)
from .geometry import (
    PointTuple,
    ScalarLike,
    apply_linear_map,
    as_scalar,
    colex_subsets,
    det_rational,
    orient,
    order_type,
)
from .motion import linear_cost
from .pencil import build_pencil
from .polynomial import IntPoly, _distinct_roots, _root_counts

RationalMatrix = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True, eq=False)
class Rotation:
    """A d x d rotation; exact rational entries when available, otherwise
    double precision with a small orthogonality defect."""

    matrix: np.ndarray
    exact: RationalMatrix | None = None

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @classmethod
    def from_exact(cls, rows: Sequence[Sequence[ScalarLike]]) -> "Rotation":
        exact = tuple(tuple(as_scalar(v) for v in row) for row in rows)
        d = len(exact)
        for i in range(d):
            for j in range(d):
                dot = sum(exact[k][i] * exact[k][j] for k in range(d))
                if dot != (1 if i == j else 0):
                    raise PreconditionError("exact rotation entries are not orthonormal")
        if det_rational(exact) != 1:
            raise PreconditionError("exact rotation must have determinant +1")
        return cls(matrix=np.array([[float(v) for v in row] for row in exact]), exact=exact)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    def rational_entries(self) -> RationalMatrix:
        if self.exact is not None:
            return self.exact
        return tuple(tuple(Fraction(float(v)) for v in row) for row in self.matrix)

    def negated(self) -> "Rotation":
        if self.d % 2 != 0:
            raise PreconditionError("negation is orientation-reversing in odd dimension")
        exact = (
            tuple(tuple(-v for v in row) for row in self.exact)
            if self.exact is not None
            else None
        )
        return Rotation(matrix=-self.matrix, exact=exact)

    def apply_exact(self, P: PointTuple) -> PointTuple:
        return apply_linear_map(P, self.rational_entries())


def rotation_2d(theta: float) -> Rotation:
    c, s = math.cos(theta), math.sin(theta)
    return Rotation(matrix=np.array([[c, -s], [s, c]]))


def rotation_path_samples(theta: float, samples: int = 8) -> list[RationalMatrix]:
    """Rationalized snapshots of the planar rotation path from the identity
    to the rotation by theta; feed to verify_zero_cost_map_path."""
    out = []
    for k in range(1, samples + 1):
        t = theta * k / (samples + 1)
        c, s = Fraction(math.cos(t)), Fraction(math.sin(t))
        out.append(((c, -s), (s, c)))
    return out


def tuple_to_array(P: PointTuple) -> np.ndarray:
    return np.array([[float(c) for c in p] for p in P.points])


def array_to_tuple(points: np.ndarray) -> PointTuple:
    """Exact rationalization of float coordinates (binary floats are
    rationals; nothing is rounded)."""
    return PointTuple(
        int(points.shape[1]),
        tuple(tuple(Fraction(float(c)) for c in row) for row in points),
    )


# ---------------------------------------------------------------------------
# Regular simplices and fixed-point-free rotations
# ---------------------------------------------------------------------------

def regular_simplex(d: int) -> PointTuple:
    """Vertices of a regular simplex inscribed in the unit sphere of R^d,
    centroid at the origin; built from the Helmert basis of the sum-zero
    hyperplane of R^(d+1), in double precision, then rationalized."""
    if d < 2:
        raise DimensionMismatchError("need d >= 2")
    H = np.zeros((d + 1, d))
    for k in range(1, d + 1):
        col = np.zeros(d + 1)
        col[:k] = 1.0
        col[k] = -float(k)
        H[:, k - 1] = col / math.sqrt(k * (k + 1))
    V = H * math.sqrt((d + 1) / d)
    return array_to_tuple(V)


def eigen_margin(rho: Rotation) -> float:
    """min(|det(rho - I)|, |det(rho + I)|): distance of the spectrum from
    both +1 and -1, as a pair of determinant magnitudes."""
    eye = np.eye(rho.d)
    return float(
        min(abs(np.linalg.det(rho.matrix - eye)), abs(np.linalg.det(rho.matrix + eye)))
    )


def haar_rotation(d: int, rng: np.random.Generator) -> Rotation:
    """Haar-uniform element of SO(d): orthonormalized Gaussian matrix with
    the R-diagonal sign fix, reflected onto the det=+1 component."""
    g = rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return Rotation(matrix=q)


def cyclic_vertex_rotation(d: int) -> Rotation:
    """The linear map cycling the vertices of the regular simplex; for even
    d it is a rotation whose spectrum avoids both +1 and -1."""
    if d % 2 != 0:
        raise PreconditionError("the vertex cycle is orientation-reversing for odd d")
    V = tuple_to_array(regular_simplex(d))
    A = V[:d].T
    W = V[1 : d + 1].T
    return Rotation(matrix=W @ np.linalg.inv(A))


def pick_rho(
    d: int,
    method: str = "random",
    seed: int | None = 0,
    tol: float = 1e-6,
    max_tries: int = 100,
) -> Rotation:
    """A rotation with no eigenvalue at +1 or -1 (so neither it nor its
    negation fixes a nonzero point). Only even dimensions qualify: every
    rotation of an odd-dimensional space fixes a line."""
    if d % 2 != 0:
        raise PreconditionError(
            f"d={d} is odd: every rotation fixes a line, no valid choice exists"
        )
    if method == "cyclic":
        rho = cyclic_vertex_rotation(d)
        if eigen_margin(rho) <= tol:
            raise InternalInvariantError("vertex-cycle rotation failed the spectrum check")
        return rho
    if method != "random":
        raise ValueError(f"unknown method {method!r}")
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        rho = haar_rotation(d, rng)
        if eigen_margin(rho) > tol:
            return rho
    raise RetryBudgetError(f"no spectrum-separated rotation found in {max_tries} draws")


def simplex_motion_constant(Q: PointTuple, rho: Rotation) -> bool:
    """True iff the simplex never degenerates along the straight-line motion
    onto its rotated copy: the pencil has no root at all on (0, +inf). For a
    rotation whose negation has no nonzero fixed point this always holds."""
    if Q.n != Q.dim + 1:
        raise ShapeMismatchError("expected the d+1 vertices of a simplex")
    rotated = rho.apply_exact(Q)
    ones = (Fraction(1),) * Q.dim
    pen = build_pencil(Q.points, rotated.points, ones)
    return _distinct_roots(pen.coeffs, Fraction(0), None) == 0


# ---------------------------------------------------------------------------
# Good rotations and the measure estimate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GoodnessSample:
    rotation: Rotation
    flips: int
    distinct_roots: int
    good: bool


def _rotated_pencil(
    P_sub: PointTuple, Pprime_sub: PointTuple, rho: Rotation
) -> tuple[IntPoly, bool]:
    """The unit pencil f onto the rotated target, as its primitive integer
    coefficients, and whether its flip count must be even: d = 2 mod 4 with
    agreeing endpoint orientations.

    For even d the negated rotation moves the target to exactly its point
    reflection (negating a rationalized float is exact), whose orientations
    are the same; the pencil onto it is f(-x), so its flips are those of f on
    (-inf, 0) and the same parity rule holds."""
    d = P_sub.dim
    if d % 2 != 0:
        raise PreconditionError("goodness is defined for even dimensions")
    if P_sub.n != d + 1 or Pprime_sub.n != d + 1:
        raise ShapeMismatchError("goodness applies to single (d+1)-subsets")
    rotated = rho.apply_exact(Pprime_sub)
    ones = (Fraction(1),) * d
    pen = build_pencil(P_sub.points, rotated.points, ones)
    even = d % 4 == 2 and orient(P_sub.points) == orient(rotated.points)
    return pen.coeffs, even


def _flip_counts(
    f: IntPoly, low: Fraction | None, high: Fraction | None, even: bool
) -> tuple[int, int]:
    """root_counts of f on (low, high), checking the even-flips rule."""
    flips, distinct = _root_counts(f, low, high)
    if even and flips % 2 != 0:
        raise InternalInvariantError("odd flip count between equal orientations")
    return flips, distinct


def is_good(P_sub: PointTuple, Pprime_sub: PointTuple, rho: Rotation) -> GoodnessSample:
    """Decide whether a rotation is good for one subset pair: the pencil onto
    the rotated target changes sign at most d/2 times on (0, +inf).

    The decision is exact on the rationalized rotation. When d = 2 mod 4 and
    the endpoint orientations agree, the flip count must be even, which
    silently sharpens the good bound to (d-1)/2."""
    f, even = _rotated_pencil(P_sub, Pprime_sub, rho)
    flips, distinct = _flip_counts(f, Fraction(0), None, even)
    return GoodnessSample(
        rotation=rho, flips=flips, distinct_roots=distinct, good=flips <= P_sub.dim // 2
    )


@dataclass(frozen=True)
class MeasureEstimate:
    fraction: float
    half_width: float
    n_samples: int
    n_good: int
    seed: int
    dichotomy_failures: int


def estimate_measure(
    P_sub: PointTuple,
    Pprime_sub: PointTuple,
    n_samples: int,
    seed: int,
    check_dichotomy: bool = True,
) -> MeasureEstimate:
    """Monte-Carlo estimate of the Haar measure of good rotations for one
    same-orientation subset pair; the true measure always exceeds 1/2.

    The reported half-width is one binomial standard error. With the
    dichotomy check on, every rotation that fails to be good is checked to
    have a good negation, read from the same pencil f as its flips on
    (-inf, 0). Since f(0) != 0 and deg f <= d, the flips on the two half-lines
    sum to at most d, so the check holds whenever root_counts is right; it
    guards the root counter, not an independently built pencil."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    d = P_sub.dim
    sign = orient(P_sub.points)
    if orient(Pprime_sub.points) != sign or sign == 0:
        raise PreconditionError("subset pair must share a nonzero orientation")
    rng = np.random.default_rng(seed)
    rotations = [haar_rotation(d, rng) for _ in range(n_samples)]
    n_good = dichotomy_failures = 0
    for rho in rotations:
        f, even = _rotated_pencil(P_sub, Pprime_sub, rho)
        if _flip_counts(f, Fraction(0), None, even)[0] <= d // 2:
            n_good += 1
        elif check_dichotomy and _flip_counts(f, None, Fraction(0), even)[0] > d // 2:
            dichotomy_failures += 1
    fraction = n_good / n_samples
    half_width = math.sqrt(fraction * (1 - fraction) / n_samples)
    return MeasureEstimate(
        fraction=fraction,
        half_width=half_width,
        n_samples=n_samples,
        n_good=n_good,
        seed=seed,
        dichotomy_failures=dichotomy_failures,
    )


# ---------------------------------------------------------------------------
# Aspect ratios and elongation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AspectRatio:
    """diam(simplex)^d / vol(simplex); exact squared value kept alongside the
    float report so thresholds compare without ties."""

    value: float
    squared: Fraction | None

    def at_most(self, bound) -> bool:
        if self.squared is not None and not isinstance(bound, float):
            b = as_scalar(bound)
            return self.squared <= b * b
        return self.value <= float(bound)


def _pairwise_sq(points: Sequence[Sequence]) -> list:
    out = []
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            out.append(sum((a - b) ** 2 for a, b in zip(points[i], points[j])))
    return out


def aspect_ratio(simplex: PointTuple | Sequence[Sequence[float]]) -> AspectRatio:
    """Aspect ratio of d+1 points spanning a simplex; exact when the input
    coordinates are exact, float otherwise. Invariant under rigid motions
    and scaling; raises on zero volume."""
    if isinstance(simplex, PointTuple):
        pts: Sequence[Sequence] = simplex.points
    else:
        pts = [tuple(p) for p in simplex]
    d = len(pts[0])
    if len(pts) != d + 1:
        raise ShapeMismatchError(f"a simplex in R^{d} has {d + 1} vertices")
    exact = all(isinstance(c, (int, Fraction)) for p in pts for c in p)
    if exact:
        pts = [tuple(as_scalar(c) for c in p) for p in pts]
        diam_sq = max(_pairwise_sq(pts))
        rows = [[pts[i + 1][k] - pts[0][k] for k in range(d)] for i in range(d)]
        vol = abs(det_rational(rows)) / math.factorial(d)
        if vol == 0:
            raise DegenerateTupleError("simplex has zero volume")
        squared = diam_sq ** d / (vol * vol)
        return AspectRatio(value=math.sqrt(squared), squared=squared)
    arr = np.array(pts, dtype=float)
    diam = math.sqrt(max(float(v) for v in _pairwise_sq(arr.tolist())))
    vol = abs(float(np.linalg.det(arr[1:] - arr[0]))) / math.factorial(d)
    if vol == 0:
        raise DegenerateTupleError("simplex has zero volume")
    return AspectRatio(value=diam ** d / vol, squared=None)


def triple_aspect_squares(P: PointTuple) -> dict[tuple[int, ...], Fraction]:
    """Exact squared aspect ratio of every (d+1)-subset, keyed by subset."""
    out: dict[tuple[int, ...], Fraction] = {}
    for subset in colex_subsets(P.n, P.dim + 1):
        out[subset] = aspect_ratio(PointTuple(P.dim, P.subtuple(subset))).squared
    return out


def non_elongated(P: PointTuple, alpha: ScalarLike) -> bool:
    """True iff the largest-to-smallest pairwise distance ratio is at most
    alpha * n^(1/d); decided exactly on squared quantities raised to the d-th
    power, so threshold ties cannot be lost to rounding."""
    if P.n < 2:
        raise ShapeMismatchError("elongation needs at least two points")
    a = as_scalar(alpha) if not isinstance(alpha, float) else Fraction(alpha)
    sq = _pairwise_sq(P.points)
    min_sq, max_sq = min(sq), max(sq)
    if min_sq == 0:
        raise DegenerateTupleError("duplicate points have no distance ratio")
    d = P.dim
    # (max/min)^d <= alpha^(2d) * n^2 avoids the irrational n^(1/d) threshold
    return max_sq ** d <= a ** (2 * d) * P.n ** 2 * min_sq ** d


# ---------------------------------------------------------------------------
# Rotation-cost experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RotationCostReport:
    n: int
    d: int
    n_rotations: int
    seed: int
    aspect_bound_sq: Fraction
    low_aspect_fraction: float
    costs: tuple[int, ...]
    best_cost: int
    mean_cost: float
    bound: int
    bound_met: bool | None
    resamples: int


def rotation_cost_experiment(
    P: PointTuple,
    Pprime: PointTuple,
    n_rotations: int,
    seed: int,
    aspect_bound: ScalarLike | None = None,
    alpha: ScalarLike | None = None,
) -> RotationCostReport:
    """Sample rotations, pay for the exact linear motion onto each rotated
    copy of the target, and report how far below the planner bound the best
    sample lands, together with the fraction of triples whose aspect ratio
    stays under the working bound in both tuples.

    When no aspect bound is given, the empirical 75th percentile of the
    per-triple worst-side aspect ratios is used, so at least three quarters
    of the triples count as low-aspect by construction.
    """
    if P.dim != 2:
        raise PreconditionError("the rotation-cost experiment is planar only")
    if n_rotations < 1:
        raise ValueError("need at least one rotation")
    if order_type(P) != order_type(Pprime):
        raise OrderTypeMismatchError("experiment requires a same-order-type pair")
    if alpha is not None:
        if not non_elongated(P, alpha) or not non_elongated(Pprime, alpha):
            raise PreconditionError("a tuple is more elongated than alpha allows")

    sq_p = triple_aspect_squares(P)
    sq_q = triple_aspect_squares(Pprime)
    worst = sorted(max(sq_p[s], sq_q[s]) for s in sq_p)
    if aspect_bound is None:
        bound_sq = worst[(3 * (len(worst) - 1)) // 4]
    else:
        b = as_scalar(aspect_bound) if not isinstance(aspect_bound, float) else Fraction(aspect_bound)
        bound_sq = b * b
    low_count = sum(1 for v in worst if v <= bound_sq)

    rng = np.random.default_rng(seed)
    costs: list[int] = []
    resamples = 0
    while len(costs) < n_rotations:
        rho = haar_rotation(2, rng)
        try:
            plan = linear_cost(P, rho.apply_exact(Pprime), check_simultaneous=False)
        except DegenerateTupleError:
            resamples += 1
            if resamples > 3 * n_rotations:
                raise RetryBudgetError("too many degenerate rotated targets")
            continue
        costs.append(plan.total)

    total_triples = len(worst)
    bound = (P.dim // 2) * math.comb(P.n, P.dim + 1)
    best = min(costs)
    bound_met = best < bound if 2 * low_count >= total_triples else None
    return RotationCostReport(
        n=P.n,
        d=P.dim,
        n_rotations=n_rotations,
        seed=seed,
        aspect_bound_sq=bound_sq,
        low_aspect_fraction=low_count / total_triples,
        costs=tuple(costs),
        best_cost=best,
        mean_cost=sum(costs) / len(costs),
        bound=bound,
        bound_met=bound_met,
        resamples=resamples,
    )
