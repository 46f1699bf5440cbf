"""Numerical tiling verification.

Seeded Gaussian sampling counts how often each orbit meets a candidate
set.  A cross-section scores multiplicity 1 everywhere; a wrong
candidate shows gaps or pile-ups; and for an orthogonal matrix NO
positive-finite-measure candidate can score 1 (orbits are bounded, so
they either miss the set or revisit it forever).
"""

import math

import numpy as np

from xsect import (
    build_continuous_section,
    build_discrete_section,
    check_continuous_tiling,
    check_discrete_tiling,
)

S = build_discrete_section([[0.0, 2.0], [-2.0, 0.0]])
report = check_discrete_tiling(S, samples=5000, seed=42)
print("spiral section:", "PASS" if report.passed else "FAIL", report.histogram)

# the dyadic interval pair does NOT tile under tripling
class WrongBase:
    matrix = np.array([[3.0]])

    def membership(self, pts):
        a = np.abs(np.asarray(pts)[:, 0])
        return (a >= 1.0) & (a < 2.0), np.zeros(len(pts), dtype=bool)


report = check_discrete_tiling(WrongBase(), samples=5000, seed=42)
print("dyadic pair under A=3:", "PASS" if report.passed else "FAIL", report.histogram)


# impossibility probe: rotation orbits revisit any annulus forever
class Annulus:
    matrix = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def membership(self, pts):
        r = np.linalg.norm(np.asarray(pts), axis=1)
        return (r >= 0.5) & (r < 1.5), np.zeros(len(pts), dtype=bool)


report = check_discrete_tiling(Annulus(), samples=5000, seed=42)
print("annulus under rotation:", "PASS" if report.passed else "FAIL",
      dict(sorted(report.histogram.items())[:4]), "...")

# continuous sweep: the unit-time sweep of a continuous section tiles
# discretely, and {t : xi A^t in sweep} is an interval of length exactly 1
section = build_continuous_section([[1.0, 2 * math.pi], [-2 * math.pi, 1.0]])
report = check_continuous_tiling(section, samples=3000, seed=42)
print("spiral flow sweep:", "PASS" if report.passed else "FAIL",
      f"|length - 1| <= {report.extras['max_length_deviation']:.2e}")
