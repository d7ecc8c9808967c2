"""Univariate polynomials with exact real-root counts.

Only roots and signs matter for counting, and scaling by a positive rational
changes neither. So root counts, Sturm chains and gcds run on primitive
integer polynomials: tuples of Python ints, low-to-high, trailing zeros
stripped. `RationalPolynomial` is the public exact type; its counters and its
gcd clear denominators once and run the same integer routines that the
planners call directly on their integer pencils. A square-free polynomial is
counted with one Sturm chain; other root multiplicities are split by exact
square-free decomposition. Nothing in this module touches floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import EndpointRootError, ZeroPolynomialError
from .geometry import ScalarLike, as_scalar

IntPoly = tuple[int, ...]


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


# ---------------------------------------------------------------------------
# Integer polynomials
# ---------------------------------------------------------------------------

def _primitive(c: Sequence[int]) -> IntPoly:
    """c divided by the gcd of its coefficients, a positive integer, so the
    signs and roots are those of c."""
    g = math.gcd(*c)
    if g <= 1:
        return tuple(c)
    return tuple(v // g for v in c)


def _integer_coeffs(p: RationalPolynomial) -> IntPoly:
    """The primitive integer polynomial that is p times a positive rational."""
    den = math.lcm(*(c.denominator for c in p.coeffs)) if p.coeffs else 1
    return _primitive([c.numerator * (den // c.denominator) for c in p.coeffs])


def _derivative(c: Sequence[int]) -> IntPoly:
    return tuple(i * v for i, v in enumerate(c) if i > 0)


def _pseudo_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """A positive multiple of the remainder of a divided by b (b nonzero).

    Each elimination step scales the running remainder by |lc(b)| / g, with
    g the gcd of |lc(b)| and the coefficient being eliminated. That factor is
    positive whatever the sign of lc(b) and however large the degree gap, so
    the result has the signs of the true remainder everywhere."""
    rem = list(a)
    n = len(b) - 1
    lead = b[-1]
    sign = 1 if lead > 0 else -1
    size = abs(lead)
    while len(rem) > n:
        top = rem.pop()
        if top:
            g = math.gcd(top, size)
            m, t = size // g, sign * (top // g)
            shift = len(rem) - n
            if m != 1:
                rem = [m * v for v in rem]
            for i in range(n):
                rem[shift + i] -= t * b[i]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _sign_at(c: Sequence[int], x: Fraction) -> int:
    """Sign of c at the rational x = a/b (b > 0), read from the integer
    sum of c_i a^i b^(n-i), which is b^n > 0 times c(x)."""
    a, b = x.numerator, x.denominator
    if a == 0:
        acc = c[0]
    else:
        acc = c[-1]
        power = 1
        for v in reversed(c[:-1]):
            power *= b
            acc = acc * a + v * power
    return (acc > 0) - (acc < 0)


def _gcd(a: Sequence[int], b: Sequence[int]) -> IntPoly:
    """gcd over Z of two integer polynomials by the primitive
    pseudo-remainder sequence: primitive, with a positive leading
    coefficient; () when both are zero."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return a if not a or a[-1] > 0 else tuple(-v for v in a)


def poly_gcd(a: RationalPolynomial, b: RationalPolynomial) -> RationalPolynomial:
    """Monic greatest common divisor, from the integer gcd of the two
    polynomials with their denominators cleared."""
    g = _gcd(_integer_coeffs(a), _integer_coeffs(b))
    return RationalPolynomial.from_coeffs(g).monic()


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

def sturm_chain(p: Sequence[int]) -> list[IntPoly]:
    """Sturm chain of a nonzero integer polynomial: p, p', then minus a
    positive multiple of the remainder of the two elements before, made
    primitive. Every element is a positive multiple of the classical chain's,
    so the sign variations are the same; the last element is a constant
    multiple of gcd(p, p')."""
    chain = [tuple(p), _primitive(_derivative(p))]
    while len(chain[-1]) > 1:
        rem = _pseudo_remainder(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(_primitive([-v for v in rem]))
    return [q for q in chain if q]


def _variations(signs: Sequence[int]) -> int:
    """Sign changes between consecutive nonzero entries."""
    count = last = 0
    for s in signs:
        if s:
            if s == -last:
                count += 1
            last = s
    return count


def _chain_signs(chain: Sequence[IntPoly], x: Fraction | None, side: int) -> list[int]:
    """Signs of the chain at x; x=None means the infinite endpoint on `side`
    (-1 for -inf, +1 for +inf)."""
    if x is not None:
        return [_sign_at(q, x) for q in chain]
    if side > 0:
        return [1 if q[-1] > 0 else -1 for q in chain]
    return [(1 if q[-1] > 0 else -1) * (-1 if len(q) % 2 == 0 else 1) for q in chain]


def _sturm_count(
    chain: Sequence[IntPoly], low: Fraction | None, high: Fraction | None
) -> int:
    return _variations(_chain_signs(chain, low, -1)) - _variations(
        _chain_signs(chain, high, +1)
    )


def _descartes(c: Sequence[int], low: Fraction | None, high: Fraction | None) -> int | None:
    """On the half-line (0, +inf) or (-inf, 0), the number of coefficient
    sign variations of p(x) or p(-x) when it is 0 or 1. Descartes' rule
    bounds the positive roots, with multiplicity, by the variations and
    matches their parity, so 0 variations mean no root and 1 means exactly
    one simple root: both root counts equal it. None when the rule does not
    settle the counts or the interval is not such a half-line."""
    if high is None and low == 0:
        flip = 1
    elif low is None and high == 0:
        flip = -1
    else:
        return None
    count = last = 0
    power = 1  # flip**i, the sign p(-x) puts on x^i
    for v in c:
        if v:
            s = power if v > 0 else -power
            if s == -last:
                count += 1
                if count > 1:
                    return None
            last = s
        power *= flip
    return count


def _root_counts(c: IntPoly, low: Fraction | None, high: Fraction | None) -> tuple[int, int]:
    """root_counts of the nonzero integer polynomial c on a valid interval."""
    settled = _descartes(c, low, high)
    if settled is not None:
        return settled, settled
    chain = sturm_chain(c)
    at_low, at_high = _chain_signs(chain, low, -1), _chain_signs(chain, high, +1)
    if len(chain[-1]) == 1 and at_low[0] and at_high[0]:
        count = _variations(at_low) - _variations(at_high)
        return count, count
    endpoints = [e for e in (low, high) if e is not None]
    sign_changes = distinct = 0
    for g, k in square_free_decomposition(RationalPolynomial.from_coeffs(c)):
        for e in endpoints:
            if g(e) == 0:
                g = exact_div(g, RationalPolynomial.from_coeffs([-e, 1]))
        if g.degree <= 0:
            continue
        count = _sturm_count(sturm_chain(_integer_coeffs(g)), low, high)
        distinct += count
        if k % 2 == 1:
            sign_changes += count
    return sign_changes, distinct


def _check_interval(low: Fraction | None, high: Fraction | None) -> None:
    if low is not None and high is not None and not low < high:
        raise ValueError(f"empty or inverted interval ({low}, {high})")


def root_counts(
    p: RationalPolynomial,
    low: Fraction | None = None,
    high: Fraction | None = None,
) -> tuple[int, int]:
    """(sign_changes, distinct) for p on the open interval (low, high), where
    None stands for -inf / +inf: the roots of odd multiplicity, where p
    changes sign, and all distinct real roots. Roots landing exactly on a
    finite endpoint are excluded.

    On a half-line at 0, at most one coefficient sign variation settles both
    counts (Descartes' rule) before any chain is built. Otherwise the Sturm
    chain of p ends in gcd(p, p'); when that is a constant, p is square-free,
    both counts are the chain's one variation count, and no decomposition
    runs. Otherwise one square-free decomposition splits p into factors g_k
    of multiplicity k, each counted with its own chain.
    """
    if p.is_zero:
        raise ZeroPolynomialError("root counting needs a nonzero polynomial")
    _check_interval(low, high)
    return _root_counts(_integer_coeffs(p), low, high)


def _root_counter(c: IntPoly) -> Callable[[Fraction | None, Fraction | None], int]:
    """distinct_root_counter of the nonzero integer polynomial c."""
    chain = sturm_chain(c)
    seen: dict[tuple[Fraction | None, int], int | None] = {}

    def variations(x: Fraction | None, side: int) -> int | None:
        key = (x, side if x is None else 0)
        if key not in seen:
            signs = _chain_signs(chain, x, side)
            seen[key] = None if signs[0] == 0 else _variations(signs)
        return seen[key]

    def count(low: Fraction | None, high: Fraction | None) -> int:
        _check_interval(low, high)
        v_low, v_high = variations(low, -1), variations(high, +1)
        if v_low is None or v_high is None:
            return _root_counts(c, low, high)[1]
        return v_low - v_high

    return count


def distinct_root_counter(
    p: RationalPolynomial,
) -> Callable[[Fraction | None, Fraction | None], int]:
    """A function (low, high) -> number of distinct real roots of p on the
    open interval (low, high), where None stands for -inf / +inf, for many
    intervals of one polynomial; roots on a finite endpoint are excluded.

    The Sturm chain is built once and the variation count at each endpoint
    is kept, so intervals that share endpoints evaluate the chain there once.
    The chain ends in gcd(p, p'), and dividing it out changes no variation
    count away from the roots of p, so V(low) - V(high) counts the distinct
    roots of any p whose finite endpoints are not roots; on an endpoint root
    the count falls back to root_counts.
    """
    if p.is_zero:
        raise ZeroPolynomialError("root counting needs a nonzero polynomial")
    return _root_counter(_integer_coeffs(p))


def _distinct_roots(c: IntPoly, low: Fraction | None, high: Fraction | None) -> int:
    """sturm_distinct_roots of the nonzero integer polynomial c."""
    settled = _descartes(c, low, high)
    if settled is not None:
        return settled
    return _root_counter(c)(low, high)


def sturm_distinct_roots(
    p: RationalPolynomial,
    low: Fraction | None = None,
    high: Fraction | None = None,
) -> int:
    """Exact number of distinct real roots of p in the open interval
    (low, high), where None stands for -inf / +inf; roots landing exactly on
    a finite endpoint are excluded. Descartes' rule settles a half-line at 0
    with at most one sign variation; otherwise distinct_root_counter counts
    the one interval."""
    if p.is_zero:
        raise ZeroPolynomialError("root counting needs a nonzero polynomial")
    _check_interval(low, high)
    return _distinct_roots(_integer_coeffs(p), low, high)


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
    c = _integer_coeffs(p)
    for endpoint in (low, high):
        if endpoint is not None and _sign_at(c, endpoint) == 0:
            raise EndpointRootError(
                f"polynomial vanishes at interval endpoint {endpoint}"
            )
    _check_interval(low, high)
    return _root_counts(c, low, high)[0]
