"""Univariate polynomials over exact rationals with Sturm-chain root counts.

A square-free polynomial is counted with one Sturm chain; other root
multiplicities are handled by exact square-free decomposition. Nothing in this
module touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import EndpointRootError, ZeroPolynomialError
from .geometry import ScalarLike, as_scalar


@dataclass(frozen=True)
class RationalPolynomial:
    """Coefficients low-to-high, trailing zeros stripped; () is the zero
    polynomial."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("unnormalized coefficients: trailing zero")

    @classmethod
    def from_coeffs(cls, values: Iterable[ScalarLike]) -> "RationalPolynomial":
        coeffs = [as_scalar(v) for v in values]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return cls(tuple(coeffs))

    @classmethod
    def from_roots(cls, roots: Iterable[ScalarLike]) -> "RationalPolynomial":
        poly = cls.from_coeffs([1])
        for r in roots:
            poly = poly * cls.from_coeffs([-as_scalar(r), 1])
        return poly

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ZeroPolynomialError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x: ScalarLike) -> Fraction:
        x = as_scalar(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        while out and out[-1] == 0:
            out.pop()
        return RationalPolynomial(tuple(out))

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RationalPolynomial):
            if self.is_zero or other.is_zero:
                return RationalPolynomial(())
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return RationalPolynomial.from_coeffs(out)
        scalar = as_scalar(other)
        if scalar == 0:
            return RationalPolynomial(())
        return RationalPolynomial(tuple(c * scalar for c in self.coeffs))

    __rmul__ = __mul__

    def __divmod__(self, other: "RationalPolynomial"):
        if other.is_zero:
            raise ZeroPolynomialError("division by the zero polynomial")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return RationalPolynomial(()), self
        quot = [Fraction(0)] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            coef = rem[k + other.degree] / lead
            quot[k] = coef
            if coef:
                for i, b in enumerate(other.coeffs):
                    rem[k + i] -= coef * b
        while rem and rem[-1] == 0:
            rem.pop()
        return (
            RationalPolynomial.from_coeffs(quot),
            RationalPolynomial(tuple(rem)),
        )

    def __floordiv__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return divmod(self, other)[1]

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(
            tuple(c * i for i, c in enumerate(self.coeffs) if i > 0)
        )

    def monic(self) -> "RationalPolynomial":
        if self.is_zero:
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return RationalPolynomial(tuple(c / lead for c in self.coeffs))


def poly_gcd(a: RationalPolynomial, b: RationalPolynomial) -> RationalPolynomial:
    """Monic greatest common divisor via the Euclidean remainder sequence.

    Remainders are re-normalized to monic at every step to keep coefficient
    growth in check."""
    while not b.is_zero:
        a, b = b, (a % b).monic()
    return a.monic()


def exact_div(a: RationalPolynomial, b: RationalPolynomial) -> RationalPolynomial:
    q, r = divmod(a, b)
    if not r.is_zero:
        raise ValueError("exact_div called on a non-divisor")
    return q


def square_free_part(p: RationalPolynomial) -> RationalPolynomial:
    """Monic polynomial with the same roots as p, all simple."""
    if p.is_zero:
        raise ZeroPolynomialError("square-free part of the zero polynomial")
    if p.degree <= 0:
        return p.monic()
    g = poly_gcd(p, p.derivative())
    return exact_div(p, g).monic()


def square_free_decomposition(
    p: RationalPolynomial,
) -> list[tuple[RationalPolynomial, int]]:
    """Yun's algorithm: [(g_k, k)] with p ~ prod g_k^k, the g_k monic,
    square-free and pairwise coprime; constant factors are dropped."""
    if p.is_zero:
        raise ZeroPolynomialError("decomposition of the zero polynomial")
    p = p.monic()
    if p.degree <= 0:
        return []
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return [(p, 1)]
    out: list[tuple[RationalPolynomial, int]] = []
    c = exact_div(p, g)
    d = exact_div(p.derivative(), g) - c.derivative()
    k = 1
    while c.degree > 0:
        a = poly_gcd(c, d)
        if a.degree > 0:
            out.append((a, k))
        c = exact_div(c, a)
        d = exact_div(d, a) - c.derivative()
        k += 1
    return out


# ---------------------------------------------------------------------------
# Sturm counting
# ---------------------------------------------------------------------------

def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def sturm_chain(p: RationalPolynomial) -> list[RationalPolynomial]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        rem = chain[-2] % chain[-1]
        if rem.is_zero:
            break
        chain.append(-rem)
    return [q for q in chain if not q.is_zero]


def _variations(signs: Sequence[int]) -> int:
    nonzero = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a * b < 0)


def _chain_signs(chain: Sequence[RationalPolynomial], x: Fraction | None, side: int) -> list[int]:
    """Signs of the chain at x; x=None means the infinite endpoint on `side`
    (-1 for -inf, +1 for +inf)."""
    if x is not None:
        return [_sign(q(x)) for q in chain]
    if side > 0:
        return [_sign(q.leading) for q in chain]
    return [_sign(q.leading) * (-1) ** (q.degree % 2) for q in chain]


def _sturm_count(
    chain: Sequence[RationalPolynomial], low: Fraction | None, high: Fraction | None
) -> int:
    return _variations(_chain_signs(chain, low, -1)) - _variations(
        _chain_signs(chain, high, +1)
    )


def root_counts(
    p: RationalPolynomial,
    low: Fraction | None = None,
    high: Fraction | None = None,
) -> tuple[int, int]:
    """(sign_changes, distinct) for p on the open interval (low, high), where
    None stands for -inf / +inf: the roots of odd multiplicity, where p
    changes sign, and all distinct real roots. Roots landing exactly on a
    finite endpoint are excluded.

    The Sturm chain of p ends in gcd(p, p'); when that is a constant, p is
    square-free, both counts are the chain's one variation count, and no
    decomposition runs. Otherwise one square-free decomposition splits p into
    factors g_k of multiplicity k, each counted with its own chain.
    """
    if p.is_zero:
        raise ZeroPolynomialError("root counting needs a nonzero polynomial")
    if low is not None and high is not None and not low < high:
        raise ValueError(f"empty or inverted interval ({low}, {high})")
    endpoints = [e for e in (low, high) if e is not None]
    chain = sturm_chain(p)
    if chain[-1].degree == 0 and all(p(e) != 0 for e in endpoints):
        count = _sturm_count(chain, low, high)
        return count, count
    sign_changes = distinct = 0
    for g, k in square_free_decomposition(p):
        for e in endpoints:
            if g(e) == 0:
                g = exact_div(g, RationalPolynomial.from_coeffs([-e, 1]))
        if g.degree <= 0:
            continue
        count = _sturm_count(sturm_chain(g), low, high)
        distinct += count
        if k % 2 == 1:
            sign_changes += count
    return sign_changes, distinct


def sturm_distinct_roots(
    p: RationalPolynomial,
    low: Fraction | None = None,
    high: Fraction | None = None,
) -> int:
    """Exact number of distinct real roots of p in the open interval
    (low, high), where None stands for -inf / +inf; roots landing exactly on
    a finite endpoint are excluded."""
    return root_counts(p, low, high)[1]


def sign_change_count(
    p: RationalPolynomial,
    low: Fraction | None = None,
    high: Fraction | None = None,
) -> int:
    """Number of odd-multiplicity roots of p in the open interval (low, high):
    the points where p actually changes sign. A root on a finite endpoint is
    an error."""
    if p.is_zero:
        raise ZeroPolynomialError("sign-change counting needs a nonzero polynomial")
    for endpoint in (low, high):
        if endpoint is not None and p(endpoint) == 0:
            raise EndpointRootError(
                f"polynomial vanishes at interval endpoint {endpoint}"
            )
    return root_counts(p, low, high)[0]
