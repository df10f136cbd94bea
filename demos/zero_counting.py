#!/usr/bin/env python3
"""Argument-principle zero counting and injectivity certificates.

Counts zeros of sample maps inside circles and annuli, demonstrates the
dominance test, and runs the injectivity certificate on a disc
automorphism and on Laurent maps that are and are not univalent on an
annulus.
"""

import numpy as np

from squeezing import (
    CircleContour,
    SampledMap,
    disc_automorphism,
    injectivity_certificate,
    laurent_map,
    polynomial_map,
    rouche_dominates,
    unit_annulus_contours,
    zero_count,
    zero_count_detailed,
)

unit = CircleContour()

print("zero counts inside |z| = 1")
for k in (1, 3, 5):
    f = SampledMap(lambda z, k=k: z ** k, lambda z, k=k: k * z ** (k - 1.0))
    detail = zero_count_detailed(f, unit)
    print(f"  z^{k}: count {detail.count}, residual {detail.residual:.2e}, samples {detail.samples}")

cubic = polynomial_map([0.0, 0.5, 0.0, 1.0])
print(f"  z^3 + 0.5 z: count {zero_count(cubic, unit)} (roots 0 and +-i/sqrt(2))")

identity = SampledMap(lambda z: z, lambda z: np.ones_like(z))
print(f"\non the annulus 0.5 < |z| < 1, z has {zero_count(identity, unit_annulus_contours(0.5))} zeros")

f = SampledMap(lambda z: z ** 3, lambda z: 3 * z ** 2)
g = polynomial_map([0.0, 0.5])
print(f"\n|0.5 z| < |z^3| on the circle: {rouche_dominates(f, g, unit)}"
      f" -> equal counts {zero_count(f, unit)} == {zero_count(cubic, unit)}")

print("\ninjectivity certificates on the annulus 0.5 < |z| < 1")
automorphism = injectivity_certificate(disc_automorphism(0.3 + 0.2j), 0.5)
print(f"  {'disc automorphism':<18} -> {automorphism.status:<12} (exact, no sampling)")
candidates = [
    ("identity z", laurent_map([0, 0, 1])),
    ("reflection 0.5/z", laurent_map([0.5, 0, 0])),
    ("square z^2", laurent_map([0, 0, 0, 0, 1])),
    ("(z + 0.4/z)/1.5", laurent_map([0.4 / 1.5, 0, 1 / 1.5])),
]
for name, candidate in candidates:
    certificate = injectivity_certificate(candidate, 0.5)
    print(f"  {name:<18} -> {certificate.status:<12} ({certificate.critical_points} critical points,"
          " from the boundary curves)")
