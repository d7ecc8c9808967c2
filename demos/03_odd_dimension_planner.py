"""The odd-dimension planner: decaying scalings and the sign rule.

In odd dimensions the point reflection is not free, so the planner instead
pre-scales the target by rapidly decaying diagonals. Once every mixed
determinant r_0..r_d of every subset is nonzero, the flip count of a subset
is just the number of negative products lam_j * r_{j-1} * r_j, and averaging
over sign choices bounds the best one by (d/2) C(n, d+1). The decay scale
that makes the rule exact is certified by Sturm counts on explicit
intervals.
"""

import math
import random
from fractions import Fraction as F

import ordermotion as om


def random_tuple(rng, n, d):
    while True:
        pts = [[F(rng.randint(-64, 64), 8) for _ in range(d)] for _ in range(n)]
        P = om.point_tuple(pts)
        if om.is_general_position(P):
            return P


def main():
    rng = random.Random(5)
    d, n = 3, 5
    P = random_tuple(rng, n, d)
    Q = random_tuple(rng, n, d)

    print("# Nudging the target until every mixed determinant is nonzero")
    budget = om.robust_radius(Q).epsilon
    Qp = om.perturb_general(Q, budget, partner=P, seed=0)
    print("perturbation budget (inside the rigidity radius):", budget)
    print("perturbed target keeps its order type:", om.order_type(Qp) == om.order_type(Q))

    print()
    print("# Cost of every even-parity sign choice, by the sign rule alone")
    totals = []
    for signs in om.even_parity_sign_vectors(d):
        counts, _ = om.sign_rule_ledger(P, Qp, signs)
        totals.append(sum(counts.values()))
        print(f"  signs {signs}: total {totals[-1]}")

    print()
    print("# The planner picks the best from per-coordinate counts, without")
    print("# enumerating, and certifies its decay scale")
    plan = om.plan_odd_d(P, Q, seed=0)
    bound = (d * math.comb(n, d + 1)) // 2
    print("chosen total:", plan.total, "<= bound", bound)
    print("equals the enumerated minimum:", plan.total == min(totals))
    print("segments:", [seg.kind for seg in plan.segments])

    print()
    print("# What the certificate pins down, for one subset")
    signs = (1, 1, 1)
    counts, profiles = om.sign_rule_ledger(P, Qp, signs)
    eta = om.certify_decay_scale(P, Qp, signs, profiles)
    subset = next(iter(profiles))
    lam = om.decay_lambdas(signs, eta)
    pencil = om.build_pencil(P.subtuple(subset), Qp.subtuple(subset), lam, subset)
    print("certified eta:", eta)
    for j, (lo, hi) in enumerate(om.decay_intervals(profiles[subset], lam), start=1):
        roots = om.sturm_distinct_roots(pencil.poly, lo, hi)
        side = "positive" if lo > 0 else "negative"
        print(f"  interval {j} ({side} axis): exactly {roots} root")
    print("flips on (0, inf):", om.sign_change_count(pencil.poly, F(0), None),
          "= sign rule:", counts[subset])


if __name__ == "__main__":
    main()
