"""Work counts that hold without timing anything.

Module globals are wrapped with counters, so a change that goes back to
rebuilding a Sturm chain per interval or per grid cell, to clearing
Fraction denominators per subset for an orientation sign, or to
RationalPolynomial arithmetic in the planners' loops, fails here.
"""

import math
import random
from fractions import Fraction as F

import ordermotion as om
import ordermotion.geometry as geometry
import ordermotion.polynomial as poly_mod
from _support import fixed_pair_planted, rand_pair, rand_tuple, same_orientation_triple_pair


def count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or real(*a))
    return calls


def test_localization_certified_builds_one_chain_per_pencil(monkeypatch):
    rng = random.Random(61)
    cases = []
    while len(cases) < 6:
        A, B = rand_tuple(rng, 4, 3), rand_tuple(rng, 4, 3)
        prof = om.coefficient_profile(A.points, B.points)
        if prof.nowhere_zero:
            eta = om.certify_decay_scale(A, B, (1, -1, -1))
            lam = om.decay_lambdas((1, -1, -1), eta)
            cases.append((om.build_pencil(A.points, B.points, lam), prof))
    chains = count_calls(monkeypatch, poly_mod, "sturm_chain")
    for pen, prof in cases:
        before = len(chains)
        assert om.localization_certified(pen, prof)
        assert len(chains) - before == 1


def test_discretized_cost_builds_one_chain_per_subset(monkeypatch):
    rng = random.Random(67)
    for n, d in ((5, 2), (5, 3)):
        A, B = rand_pair(rng, n, d)
        expected = om.linear_cost(A, B).total
        chains = count_calls(monkeypatch, poly_mod, "sturm_chain")
        assert om.discretized_cost(A, B) == expected
        monkeypatch.undo()
        assert len(chains) == math.comb(n, d + 1)


def test_orientation_determinants_clear_no_fraction_matrix(monkeypatch):
    rng = random.Random(71)
    P = rand_tuple(rng, 6, 3)
    dets = count_calls(monkeypatch, geometry, "det_rational")
    weights = count_calls(monkeypatch, geometry, "_homogeneous")
    om.order_type(P)
    assert len(weights) == P.n  # each point converted once, not once per subset
    om.is_general_position(P)
    om.robust_radius(P)
    om.orient(P.subtuple((0, 1, 2, 3)))
    om.orientation_det(((F(1, 3), F(0)), (F(0), F(2, 7)), (F(5), F(5))))
    assert dets == []


def test_discretized_cost_converts_each_point_once(monkeypatch):
    # The oracle's grid signs come from integer columns built once per point
    # of the source and the target, not once per grid point.
    rng = random.Random(73)
    for n, d in ((5, 2), (6, 2), (5, 3)):
        A, B = rand_pair(rng, n, d)
        weights = count_calls(monkeypatch, om.motion, "_homogeneous")
        om.discretized_cost(A, B)
        monkeypatch.undo()
        assert len(weights) == 2 * n


def test_certify_decay_scale_rechecks_the_failing_subset_first(monkeypatch):
    # This pair needs nine halvings, and one subset holds out through most
    # of them; checking it first skips most rebuilds of the other fourteen.
    rng = random.Random(36)
    A, B = rand_pair(rng, 6, 3)
    Pq = om.perturb_general(B, om.robust_radius(B).epsilon, partner=A, seed=0)
    profiles = om.subset_profiles(A, Pq)
    pencils = count_calls(monkeypatch, om.motion, "build_pencil")
    eta = om.certify_decay_scale(A, Pq, (1, -1, -1), profiles)
    halvings = (F(1, 1024) / eta).numerator.bit_length() - 1
    assert halvings >= 5
    assert len(pencils) < len(profiles) * halvings


def _count_rational_arithmetic(monkeypatch):
    calls = []
    for name in ("__divmod__", "__mul__", "__add__"):
        real = getattr(poly_mod.RationalPolynomial, name)
        monkeypatch.setattr(
            poly_mod.RationalPolynomial,
            name,
            lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a),
        )
    return calls


def test_hot_paths_do_no_rational_polynomial_arithmetic(monkeypatch):
    # Pencils, Sturm chains and the pair gcd run on integer coefficients; a
    # RationalPolynomial product, sum or division in these loops means
    # Fraction arithmetic crept back.
    rng = random.Random(79)
    even = [fixed_pair_planted(rng, 6, 2), rand_pair(rng, 6, 2), rand_pair(rng, 6, 4)]
    even.append((even[0][0], om.scale_tuple(even[0][1], (-1, -1))))
    A, B = rand_pair(rng, 6, 3)
    Pq = om.perturb_general(B, om.robust_radius(B).epsilon, partner=A, seed=0)
    P_sub, Q_sub = same_orientation_triple_pair(rng)
    calls = _count_rational_arithmetic(monkeypatch)
    shared = [om.plan_even_d(P, Q).shared_roots for P, Q in even]
    om.certify_decay_scale(A, Pq, (1, -1, -1))
    om.estimate_measure(P_sub, Q_sub, n_samples=40, seed=3)
    assert calls == []
    assert any(shared)  # the planted pair exercises the pair gcd's hits


def test_unperturbed_return_segment_runs_no_decomposition(monkeypatch):
    rng = random.Random(83)
    A, B = rand_pair(rng, 6, 3)
    assert om.perturb_general(B, om.robust_radius(B).epsilon, partner=A, seed=0) is B
    decompositions = count_calls(monkeypatch, poly_mod, "square_free_decomposition")
    om.plan_odd_d(A, B, seed=0)
    # The identity motion's pencils are det * (1 + x)^d: Descartes' rule
    # settles them on (0, +inf) without splitting the repeated root.
    assert om.linear_cost(B, B, check_simultaneous=False).total == 0
    assert decompositions == []
