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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import (
    DegenerateTupleError,
    DimensionMismatchError,
    InternalInvariantError,
)
from .geometry import Point, ScalarLike, as_scalar, det_rational, orientation_det
from .polynomial import RationalPolynomial, sturm_distinct_roots


@dataclass(frozen=True)
class PencilPolynomial:
    """The motion polynomial of one (d+1)-subset, with its scalings."""

    poly: RationalPolynomial
    lam: tuple[Fraction, ...]
    subset: tuple[int, ...] | None = None

    @property
    def degree_bound(self) -> int:
        return len(self.lam)


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
def _lagrange_basis(degree: int) -> tuple[RationalPolynomial, ...]:
    """Lagrange basis over the integer nodes 0..degree."""
    basis = []
    for i in range(degree + 1):
        poly = RationalPolynomial.from_coeffs([1])
        for j in range(degree + 1):
            if j == i:
                continue
            poly = poly * RationalPolynomial.from_coeffs(
                [Fraction(-j, i - j), Fraction(1, i - j)]
            )
        basis.append(poly)
    return tuple(basis)


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

    The determinant is evaluated at the integer nodes 0..d and interpolated;
    each node evaluation is an exact rational determinant, so the resulting
    coefficients are exact. Degenerate endpoints (source with f(0)=0, or a
    degenerate target, which kills the leading coefficient) are rejected.
    """
    d = _validate_pair(p_sub, q_sub)
    lam_t = tuple(as_scalar(v) for v in lam)
    if len(lam_t) != d:
        raise DimensionMismatchError(f"expected {d} scalings, got {len(lam_t)}")
    if any(v == 0 for v in lam_t):
        raise ValueError("pencil scalings must be nonzero")
    if orientation_det(p_sub) == 0:
        raise DegenerateTupleError("degenerate source subset", subset=subset)
    if orientation_det(q_sub) == 0:
        raise DegenerateTupleError("degenerate target subset", subset=subset)

    values = []
    for node in range(d + 1):
        x = Fraction(node)
        rows: list[list[Fraction]] = [[Fraction(1)] * (d + 1)]
        for i in range(d):
            coef = x * lam_t[i]
            rows.append([p[i] + coef * q[i] for p, q in zip(p_sub, q_sub)])
        values.append(det_rational(rows))

    poly = RationalPolynomial(())
    for value, basis in zip(values, _lagrange_basis(d)):
        if value != 0:
            poly = poly + basis * value
    if poly.degree != d:
        raise InternalInvariantError("pencil lost its leading coefficient")
    return PencilPolynomial(poly=poly, lam=lam_t, subset=subset)


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
    for lo, hi in intervals:
        if sturm_distinct_roots(pencil.poly, lo, hi) != 1:
            return False
    ordered = sorted(intervals)
    for (_, hi), (lo, _) in zip(ordered, ordered[1:]):
        if not hi <= lo:
            return False
    return len(intervals) == pencil.poly.degree


def sign_rule_flips(profile: CoefficientProfile, signs: Sequence[int]) -> int:
    """Number of negative products s_j * r_{j-1} * r_j; under a certified
    decay this equals the count of pencil roots on (0, +inf)."""
    count = 0
    for j in range(1, len(profile)):
        if signs[j - 1] * (1 if profile[j - 1] * profile[j] > 0 else -1) < 0:
            count += 1
    return count

