"""Determinant pencils of linear motions and their coefficient structure.

For two (d+1)-tuples of points and a vector of nonzero scalings lam, the
pencil is the degree-d polynomial

    f(x) = det [ 1 ... 1 ; row_i = p_i + x*lam_i*q_i ]

whose roots on (0, +inf) locate the times where the interpolating tuple
degenerates. The mixed determinants r_0..r_d (first j coordinate rows taken
from the target, the rest from the source) govern the coefficients when the
scalings decay rapidly: c_j is lam_1*...*lam_j*r_j up to a factor that tends
to 1, which pins each root inside an explicit interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import DegenerateTupleError, DimensionMismatchError
from .geometry import Point, ScalarLike, _det_int, _homogeneous, as_scalar, det_rational
from .polynomial import RationalPolynomial, _root_counter


@dataclass(frozen=True)
class PencilPolynomial:
    """The motion polynomial of one (d+1)-subset, with its scalings.

    `coeffs` are primitive integer coefficients, low to high: the exact
    pencil divided by the positive rational `scale`, so they have the
    pencil's roots and signs, which is all the root counts read."""

    coeffs: tuple[int, ...]
    scale: Fraction
    lam: tuple[Fraction, ...]
    subset: tuple[int, ...] | None = None

    @property
    def poly(self) -> RationalPolynomial:
        """The exact pencil, coeffs times scale."""
        num, den = self.scale.numerator, self.scale.denominator
        return RationalPolynomial(tuple(Fraction(c * num, den) for c in self.coeffs))


@dataclass(frozen=True)
class CoefficientProfile:
    """The mixed determinants r_0..r_d of a source/target subset pair."""

    values: tuple[Fraction, ...]

    def __getitem__(self, j: int) -> Fraction:
        return self.values[j]

    def __len__(self) -> int:
        return len(self.values)

    @property
    def nowhere_zero(self) -> bool:
        return all(v != 0 for v in self.values)


@lru_cache(maxsize=None)
def _newton_to_monomial(degree: int) -> tuple[tuple[int, ...], ...]:
    """Row m holds degree!/m! times the monomial coefficients of the falling
    factorial x(x-1)...(x-m+1). Newton's forward formula writes a polynomial
    F of this degree as the sum over m of its m-th forward difference at 0,
    over the nodes 0..degree, times that falling factorial over m!; so the
    sum of the differences times the rows is degree! * F, with integer
    coefficients when the node values are integers."""
    rows = []
    falling = [1]
    for m in range(degree + 1):
        factor = math.factorial(degree) // math.factorial(m)
        rows.append(tuple(factor * c for c in falling))
        shifted = [0] + falling
        for i, c in enumerate(falling):
            shifted[i] -= m * c
        falling = shifted
    return tuple(rows)


def _validate_pair(p_sub: Sequence[Point], q_sub: Sequence[Point]) -> int:
    d = len(p_sub[0])
    if len(p_sub) != d + 1 or len(q_sub) != d + 1:
        raise DimensionMismatchError("pencil needs d+1 source and d+1 target points")
    for p in (*p_sub, *q_sub):
        if len(p) != d:
            raise DimensionMismatchError("points of mixed dimensions")
    return d


def build_pencil(
    p_sub: Sequence[Point],
    q_sub: Sequence[Point],
    lam: Sequence[ScalarLike],
    subset: tuple[int, ...] | None = None,
) -> PencilPolynomial:
    """Expand the pencil determinant into an explicit polynomial, exactly.

    Column j of the pencil matrix, (1, p_j + x*lam*q_j), is scaled by the
    positive integer w_p*w_q*D, where w_p, w_q are the homogeneous weights of
    p_j and q_j and D is the lcm of the scalings' denominators. It becomes
    (w_p*w_q*D, w_q*D*a_j + x*w_p*L*b_j) with a_j, b_j the integer
    coordinates and L = D*lam, which is linear in x with integer entries. So
    the determinant at each integer node 0..d is one integer determinant, and
    forward differences over the nodes give integer coefficients, made
    primitive. Degenerate endpoints are rejected, the source first: f(0) is
    the source's orientation determinant times a positive factor, and the x^d
    coefficient is prod(lam) times the target's, so a degenerate target shows
    as a degree below d.
    """
    d = _validate_pair(p_sub, q_sub)
    lam_t = tuple(as_scalar(v) for v in lam)
    if len(lam_t) != d:
        raise DimensionMismatchError(f"expected {d} scalings, got {len(lam_t)}")
    if any(v == 0 for v in lam_t):
        raise ValueError("pencil scalings must be nonzero")

    den = math.lcm(*(v.denominator for v in lam_t))
    scaled = [v.numerator * (den // v.denominator) for v in lam_t]
    columns, slopes = [], []
    weight = den ** (d + 1)
    for p, q in zip(p_sub, q_sub):
        (wp, *a), (wq, *b) = _homogeneous(p), _homogeneous(q)
        weight *= wp * wq
        columns.append([wp * wq * den, *(wq * den * c for c in a)])
        slopes.append([0, *(wp * s * c for s, c in zip(scaled, b))])
    values = [_det_int(columns)]
    for _ in range(d):
        columns = [[u + v for u, v in zip(col, slope)] for col, slope in zip(columns, slopes)]
        values.append(_det_int(columns))
    if values[0] == 0:
        raise DegenerateTupleError("degenerate source subset", subset=subset)

    differences = []
    while values:
        differences.append(values[0])
        values = [v - u for u, v in zip(values, values[1:])]
    coeffs = [0] * (d + 1)
    for diff, row in zip(differences, _newton_to_monomial(d)):
        if diff:
            for k, c in enumerate(row):
                coeffs[k] += diff * c
    if coeffs[d] == 0:
        raise DegenerateTupleError("degenerate target subset", subset=subset)
    content = math.gcd(*coeffs)
    return PencilPolynomial(
        coeffs=tuple(c // content for c in coeffs),
        scale=Fraction(content, math.factorial(d) * weight),
        lam=lam_t,
        subset=subset,
    )


def coefficient_profile(
    p_sub: Sequence[Point], q_sub: Sequence[Point]
) -> CoefficientProfile:
    """Mixed determinants r_j: top row of ones, coordinate rows 1..j from the
    target points, rows j+1..d from the source points."""
    d = _validate_pair(p_sub, q_sub)
    values = []
    for j in range(d + 1):
        rows: list[list[Fraction]] = [[Fraction(1)] * (d + 1)]
        for i in range(d):
            source = q_sub if i < j else p_sub
            rows.append([p[i] for p in source])
        values.append(det_rational(rows))
    return CoefficientProfile(values=tuple(values))


def decay_lambdas(signs: Sequence[int], eta: ScalarLike) -> tuple[Fraction, ...]:
    """Scalings lam_j = signs_j * eta^j for j = 1..d."""
    eta = as_scalar(eta)
    if not 0 < eta < 1:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    if any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    return tuple(Fraction(s) * eta ** (j + 1) for j, s in enumerate(signs))


@dataclass(frozen=True)
class CoefficientDecayReport:
    """Exact relative errors |c_j / (lam_1..lam_j r_j) - 1| for one pencil."""

    eta: Fraction
    lam: tuple[Fraction, ...]
    per_index_error: tuple[Fraction, ...]
    max_error: Fraction


def coefficient_decay_report(
    p_sub: Sequence[Point],
    q_sub: Sequence[Point],
    eta: ScalarLike,
    signs: Sequence[int],
) -> CoefficientDecayReport:
    """Measure how close the pencil coefficients are to their decaying-scaling
    leading terms. The error tends to 0 with eta; callers compare reports at
    successive eta values. All r_j must be nonzero (perturb first if not)."""
    profile = coefficient_profile(p_sub, q_sub)
    if not profile.nowhere_zero:
        raise DegenerateTupleError(
            "a mixed determinant vanishes; perturb the target tuple first"
        )
    lam = decay_lambdas(signs, eta)
    pencil = build_pencil(p_sub, q_sub, lam)
    coeffs = pencil.poly.coeffs
    errors = []
    lam_prod = Fraction(1)
    for j in range(len(profile)):
        if j > 0:
            lam_prod *= lam[j - 1]
        errors.append(abs(coeffs[j] / (lam_prod * profile[j]) - 1))
    return CoefficientDecayReport(
        eta=as_scalar(eta),
        lam=lam,
        per_index_error=tuple(errors),
        max_error=max(errors),
    )


def decay_intervals(
    profile: CoefficientProfile, lam: Sequence[Fraction]
) -> tuple[tuple[Fraction, Fraction], ...]:
    """The d candidate root intervals for rapidly decaying scalings: the j-th
    lies between -(r_{j-1}/r_j) / (2 lam_j) and -(r_{j-1}/r_j) * (2 / lam_j)."""
    out = []
    for j in range(1, len(profile)):
        ratio = -profile[j - 1] / profile[j]
        a = ratio / (2 * lam[j - 1])
        b = ratio * 2 / lam[j - 1]
        out.append((a, b) if a < b else (b, a))
    return tuple(out)


def localization_certified(
    pencil: PencilPolynomial, profile: CoefficientProfile
) -> bool:
    """Sturm certificate that the pencil has exactly one (hence simple) root
    in each decay interval, that the intervals are disjoint, and that those
    are all the roots. When this holds, the number of positive roots equals
    the number of negative products lam_j * r_{j-1} * r_j."""
    intervals = decay_intervals(profile, pencil.lam)
    count = _root_counter(pencil.coeffs)
    for lo, hi in intervals:
        if count(lo, hi) != 1:
            return False
    ordered = sorted(intervals)
    for (_, hi), (lo, _) in zip(ordered, ordered[1:]):
        if not hi <= lo:
            return False
    return len(intervals) == len(pencil.coeffs) - 1


def sign_rule_flips(profile: CoefficientProfile, signs: Sequence[int]) -> int:
    """Number of negative products s_j * r_{j-1} * r_j; under a certified
    decay this equals the count of pencil roots on (0, +inf)."""
    count = 0
    for j in range(1, len(profile)):
        if signs[j - 1] * (1 if profile[j - 1] * profile[j] > 0 else -1) < 0:
            count += 1
    return count

