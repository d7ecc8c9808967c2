"""Work counts that hold without timing anything.

Module globals are wrapped with counters, so a change that goes back to
rebuilding a Sturm chain per interval or per grid cell, or to clearing
Fraction denominators per subset for an orientation sign, fails here.
"""

import math
import random
from fractions import Fraction as F

import ordermotion as om
import ordermotion.geometry as geometry
import ordermotion.polynomial as poly_mod
from _support import rand_pair, rand_tuple


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
