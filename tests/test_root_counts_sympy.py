"""Differential test of the root counters against sympy's exact real roots.

The oracle splits p with sympy's `sqf_list` and isolates the real roots of
each square-free factor with `real_roots`; a root counts when it lies strictly
inside the interval, and it is a sign change when its factor's multiplicity
is odd.
"""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordermotion as om
import ordermotion.polynomial as poly_mod
from ordermotion import RationalPolynomial as RP

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")


def _rational(v):
    return sympy.Rational(v.numerator, v.denominator)


def _to_sympy(p: RP):
    return sympy.Poly([_rational(c) for c in reversed(p.coeffs)], X, domain="QQ")


def _inside(root, low, high) -> bool:
    return (low is None or bool(root > _rational(low))) and (
        high is None or bool(root < _rational(high))
    )


def sympy_counts(p: RP, low, high) -> tuple[int, int]:
    changes = distinct = 0
    for factor, k in _to_sympy(p).sqf_list()[1]:
        inside = sum(1 for r in set(sympy.real_roots(factor)) if _inside(r, low, high))
        distinct += inside
        if k % 2 == 1:
            changes += inside
    return changes, distinct


def check(p: RP, low, high) -> None:
    expected = sympy_counts(p, low, high)
    assert om.root_counts(p, low, high) == expected, (p, low, high)
    assert om.sturm_distinct_roots(p, low, high) == expected[1]
    if any(e is not None and p(e) == 0 for e in (low, high)):
        with pytest.raises(om.EndpointRootError):
            om.sign_change_count(p, low, high)
    else:
        assert om.sign_change_count(p, low, high) == expected[0]


def _random_root(rng: random.Random) -> F:
    return F(rng.randint(-40, 40), rng.randint(1, 6))


def _irreducible_quadratic(rng: random.Random) -> RP:
    # x^2 + b x + c with a non-square discriminant: two irrational real
    # roots, or none when the discriminant is negative.
    while True:
        b, c = F(rng.randint(-12, 12), rng.randint(1, 3)), F(rng.randint(-30, 30), rng.randint(1, 3))
        disc = b * b - 4 * c
        if disc < 0 or not _is_rational_square(disc):
            return RP.from_coeffs([c, b, 1])


def _is_rational_square(q: F) -> bool:
    return all(math.isqrt(n) ** 2 == n for n in (q.numerator, q.denominator))


def _planted(rng: random.Random) -> tuple[RP, list[F]]:
    """A random constant times planted rational roots of multiplicity 1-3,
    sometimes a pair 1e-6 apart and sometimes an irreducible quadratic."""
    roots = []
    p = RP.from_coeffs([F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))])
    for _ in range(rng.randint(1, 3)):
        root = _random_root(rng)
        roots.append(root)
        p = p * RP.from_roots([root] * rng.randint(1, 3))
    if rng.random() < 0.4:
        twin = roots[0] + F(1, 10 ** 6)
        roots.append(twin)
        p = p * RP.from_roots([twin] * rng.randint(1, 2))
    if rng.random() < 0.4:
        p = p * _irreducible_quadratic(rng)
    return p, roots


def _interval(rng: random.Random, roots: list[F]):
    """Open to either infinity, between random points, or with a planted
    root exactly on a finite endpoint."""
    def point():
        return rng.choice(roots) if rng.random() < 0.4 else _random_root(rng)

    kind = rng.randrange(4)
    if kind == 0:
        return None, None
    if kind == 1:
        return point(), None
    if kind == 2:
        return None, point()
    low, high = point(), point()
    if low == high:
        high = low + F(1, 10 ** 6)
    return min(low, high), max(low, high)


def test_planted_multiplicities_match_sympy():
    rng = random.Random(2023)
    for _ in range(250):
        p, roots = _planted(rng)
        low, high = _interval(rng, roots)
        check(p, low, high)


def test_fixed_cases_match_sympy():
    x2m2 = RP.from_coeffs([-2, 0, 1])
    close = RP.from_roots([F(1, 3), F(1, 3) + F(1, 10 ** 6)])
    cases = [
        (RP.from_roots([1, 1, 1, 2, 2, 3]), F(0), None),
        (RP.from_roots([1, 1, 1, 2, 2, 3]), F(1), F(3)),
        (RP.from_roots([2, 2]) * x2m2, None, None),
        (RP.from_roots([2, 2]) * x2m2, F(0), F(2)),
        (RP.from_coeffs([1, 0, 1]) * RP.from_roots([5, 5, 5]), None, F(5)),
        (close, F(1, 3), None),
        (close, None, F(1, 3) + F(1, 10 ** 6)),
        (close * close, F(0), F(1)),
        (close * close * close, F(0), F(1)),
        (RP.from_coeffs([7]), None, None),
        (RP.from_coeffs([7]), F(0), F(1)),
    ]
    for p, low, high in cases:
        check(p, low, high)


def test_random_integer_polynomials_match_sympy():
    rng = random.Random(5)
    for _ in range(120):
        p = RP.from_coeffs([F(rng.randint(-6, 6)) for _ in range(rng.randint(1, 7))])
        if p.is_zero:
            continue
        low, high = _interval(rng, [F(0), F(1), F(-1)])
        check(p, low, high)


def test_square_free_path_skips_decomposition(monkeypatch):
    # One Sturm chain decides a square-free polynomial; the decomposition
    # runs only for repeated roots or an endpoint root.
    calls = []
    real = poly_mod.square_free_decomposition
    monkeypatch.setattr(
        poly_mod, "square_free_decomposition", lambda p: calls.append(p) or real(p)
    )
    assert om.root_counts(RP.from_roots([1, 2, -3]), F(0), None) == (2, 2)
    assert calls == []
    assert om.root_counts(RP.from_roots([1, 1, -3]), F(0), None) == (0, 1)
    assert om.root_counts(RP.from_roots([1, 2, -3]), F(1), None) == (1, 1)
    assert len(calls) == 2


def test_errors_keep_their_order():
    with pytest.raises(om.ZeroPolynomialError):
        om.sturm_distinct_roots(RP.from_coeffs([]), F(2), F(1))
    with pytest.raises(ValueError):
        om.sturm_distinct_roots(RP.from_roots([1]), F(2), F(1))
    with pytest.raises(om.ZeroPolynomialError):
        om.sign_change_count(RP.from_coeffs([]), F(0), None)


# ---------------------------------------------------------------------------
# The integer layer: chains, gcds and signs on integer coefficients
# ---------------------------------------------------------------------------

def _sparse(rng: random.Random) -> list[int]:
    """Random integer coefficients with missing terms, so remainders drop
    by two or more degrees, and either sign of leading coefficient."""
    c = [rng.choice((0, 0, 1, -1)) * rng.randint(1, 9) for _ in range(rng.randint(3, 8))]
    c.append(rng.choice((-1, 1)) * rng.randint(1, 5))
    return c


def _planted_integer(rng: random.Random) -> tuple[tuple[int, ...], list[F]]:
    """A sparse polynomial times planted roots of multiplicity 1-3."""
    p = RP.from_coeffs(_sparse(rng))
    roots = []
    for _ in range(rng.randint(0, 2)):
        roots.append(_random_root(rng))
        p = p * RP.from_roots([roots[-1]] * rng.randint(1, 3))
    return poly_mod._integer_coeffs(p), roots


def _gapped_negative_steps(chain) -> int:
    """Chain steps that divide by an element with a negative leading
    coefficient across an even degree gap of 2 or more: there a signed
    multiplier lc^(gap+1) of the remainder would be negative."""
    return sum(
        1
        for a, b in zip(chain, chain[1:])
        if b[-1] < 0 and len(a) - len(b) >= 2 and (len(a) - len(b)) % 2 == 0
    )


def test_integer_chain_counts_match_sympy():
    rng = random.Random(31)
    traps = 0
    for _ in range(300):
        c, roots = _planted_integer(rng)
        traps += _gapped_negative_steps(poly_mod.sturm_chain(c))
        p = RP.from_coeffs(c)
        for low, high in (_interval(rng, roots + [F(0)]), (F(0), None), (None, F(0))):
            expected = sympy_counts(p, low, high)
            assert poly_mod._root_counts(c, low, high) == expected, (c, low, high)
            assert poly_mod._root_counter(c)(low, high) == expected[1], (c, low, high)
            assert poly_mod._distinct_roots(c, low, high) == expected[1], (c, low, high)
    assert traps >= 5


def test_integer_gcd_degree_matches_sympy():
    rng = random.Random(37)
    nontrivial = 0
    for _ in range(200):
        common = RP.from_coeffs(_sparse(rng)) if rng.random() < 0.6 else RP.from_coeffs([1])
        a = common * RP.from_coeffs(_sparse(rng))
        b = common * RP.from_coeffs(_sparse(rng)) * rng.choice((1, -1, F(-2, 3)))
        g = poly_mod._gcd(poly_mod._integer_coeffs(a), poly_mod._integer_coeffs(b))
        expected = sympy.gcd(_to_sympy(a), _to_sympy(b))
        assert len(g) - 1 == expected.degree(), (a, b)
        assert g[-1] > 0 and math.gcd(*g) == 1
        assert om.poly_gcd(a, b) == RP.from_coeffs(
            [F(c) for c in reversed(expected.monic().all_coeffs())]
        )
        nontrivial += len(g) > 1
    assert nontrivial > 50


@given(
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=9).filter(lambda c: c[-1] != 0),
    st.fractions(max_denominator=10**4),
)
@settings(max_examples=300, deadline=None)
def test_homogeneous_sign_matches_fraction_evaluation(c, x):
    value = RP.from_coeffs(c)(x)
    assert poly_mod._sign_at(c, x) == (value > 0) - (value < 0)


@given(
    st.lists(st.integers(-20, 20), min_size=2, max_size=8).filter(lambda c: c[-1] != 0),
    st.sampled_from([(F(0), None), (None, F(0))]),
)
@settings(max_examples=300, deadline=None)
def test_descartes_agrees_with_the_chain(c, interval):
    low, high = interval
    settled = poly_mod._descartes(c, low, high)
    if settled is None:
        return
    p = RP.from_coeffs(c)
    assert sympy_counts(p, low, high) == (settled, settled)
    if c[0] != 0:
        chain = poly_mod.sturm_chain(tuple(c))
        assert poly_mod._sturm_count(chain, low, high) == settled
