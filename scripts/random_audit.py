#!/usr/bin/env python3
"""Random cross-check audit of the certified decision procedures.

Replays the cyclic-monotonicity checker against its brute-force cycle
oracle and the optimality test against the exact LP norm on freshly
sampled instances.  Exit code 0 means every instance agreed.
"""
import argparse
import random
import sys
from fractions import Fraction

sys.path.insert(0, "tests")

from lipcert.functionals import is_optimal
from lipcert.monotone import (CmCertificate, brute_force_cm_oracle,
                              check_gamma_cm)

from conftest import (lp_norm, random_pairs, random_positive_measure,
                      random_space)

GAMMAS = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = random.Random(args.seed)

    certified = refuted = optimal = 0
    for i in range(args.count):
        space = random_space(rng, 7)
        pairs = random_pairs(rng, space, 5)
        gamma = rng.choice(GAMMAS)
        result = check_gamma_cm(space, pairs, gamma)
        oracle = brute_force_cm_oracle(space, pairs, gamma)
        if isinstance(result, CmCertificate) != oracle:
            print(f"MISMATCH (cm) at instance {i}")
            return 1
        result.replay(space)
        certified += oracle
        refuted += not oracle

        mu = random_positive_measure(rng, space)
        verdict = is_optimal(mu)
        if verdict.optimal != (lp_norm(mu) == mu.total_variation()):
            print(f"MISMATCH (optimality) at instance {i}")
            return 1
        optimal += verdict.optimal

    print(f"{args.count} instances audited: {certified} certified, "
          f"{refuted} refuted, {optimal} optimal measures; all replays "
          "and oracle comparisons agreed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
