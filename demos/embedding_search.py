#!/usr/bin/env python3
"""Improving annulus lower bounds by searching over certified embeddings.

Tier A is the closed-form bound of the better of the two Mobius embeddings.
Tier B searches Laurent perturbations; every reported improvement first
passes an injectivity certificate.  The gap to the conjectured closed form
is reported per run: a positive gap means the search found an embedding
whose guaranteed disc is strictly larger than the conjectured value, which
is exactly what slit-like images achieve.
"""

import time

from squeezing import Annulus, monotonicity_scan, tier_a_bound, tier_b_search

annulus = Annulus(0.25)
rho = 0.5

tier_a = tier_a_bound(annulus, rho)
print(f"tier A at rho = {rho}: {tier_a.best_value:.12f} ({tier_a.best_candidate.family})")
print(f"conjectured closed form: {tier_a.conjecture_value:.12f}\n")

for degree, budget, seed in ((1, 120, 0), (2, 500, 42)):
    start = time.perf_counter()
    result = tier_b_search(annulus, rho, degree=degree, budget=budget, seed=seed)
    elapsed = time.perf_counter() - start
    print(f"tier B degree {degree}, budget {budget}, seed {seed} ({elapsed:.1f}s)")
    print(f"  best value      {result.best_value:.12f} ({result.best_candidate.family})")
    print(f"  conjecture gap  {result.conjecture_gap:+.6f} (reported, never asserted)")
    if result.best_candidate.family == "laurent":
        coefficients = ", ".join(f"{c:.4f}" for c in result.best_candidate.coefficients)
        print(f"  coefficients    [{coefficients}]")
    print()

report = monotonicity_scan(annulus, grid=64)
print(f"tier A radial scan over [sqrt(r), 1), 64 points: {report.inversions} inversions")
print(f"  values run from {report.values[0]:.6f} at sqrt(r) to {report.values[-1]:.6f} near 1")
