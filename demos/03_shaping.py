"""Reshaping a cross-section: finite measure and boundedness.

The raw constructions have infinite measure whenever n >= 2.  Slicing
along the free coordinates and pushing each slice along its own orbit
preserves the tiling while shrinking the set: with |det A| != 1 the
total measure drops below 1, and with all eigenvalues on one side of
the unit circle the whole set fits inside the unit ball.
"""

import numpy as np

from xsect import (
    build_discrete_section,
    contains,
    solve_orbit,
    to_bounded,
    to_finite_measure,
)

# A = diag(2, 1): det = 2, so a finite-measure section exists even though
# the eigenvalue 1 blocks a bounded one.
A = np.diag([2.0, 1.0])
shaped = to_finite_measure(build_discrete_section(A))
print("A = diag(2, 1), slab ([1,2) u (-2,-1]) x R sliced into dyadic shells")
for k in range(1, 6):
    print(
        f"  piece {k}: measure bound {shaped.piece_measure_bound(k):8.1f}, "
        f"weight 2^-{k}, shift n_{k} = {shaped.shift(k)}"
    )

est = shaped.measure_estimate(samples=200_000, seed=1)
print(f"stratified Monte Carlo measure: {est.estimate:.4f} +/- {est.bound:.4f}"
      f" (+ tail bound {est.tail_bound:.1e}) <= 1")

print("\nmembership moved with the pieces:")
print("  (0.15, 0.5) in reshaped set:", contains(shaped, [0.15, 0.5]))
print("  (1.20, 0.5) in reshaped set:", contains(shaped, [1.2, 0.5]))
sol = solve_orbit(shaped, [1.2, 0.5])
print(f"  but its orbit still hits it once: tile {sol.parameter}, rep {sol.representative}")

# A = diag(2, 3) is expansive, so the pieces can be pulled into the unit ball.
shaped = to_bounded(build_discrete_section(np.diag([2.0, 3.0])))
print("\nA = diag(2, 3), bounded reshaping:")
print("  shift for piece 1:", shaped.shift(1))
rng = np.random.default_rng(2)
pts = shaped.sample_pieces(rng, 5_000)
print(f"  5000 piece samples, max norm = {np.linalg.norm(pts, axis=1).max():.6f}")
