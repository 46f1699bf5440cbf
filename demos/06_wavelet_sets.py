"""Multi-wavelet sets over lattices.

A set is a multi-wavelet set of order L when its dual-lattice
translates cover with multiplicity L and its dilates cover with
multiplicity 1.  Finite orders partition into order-1 pieces by
repeatedly extracting the first-hit coset selector; order infinity is
constructed explicitly: push dyadic slices of a cross-section outward
until each swallows a whole fundamental-domain translate.
"""

import math

import numpy as np

from xsect import (
    BoxUnion,
    Lattice,
    build_order_infinity_set,
    dilation_count,
    dimension_function,
    is_multiwavelet_set,
    partition_multiwavelet_set,
    translation_count,
)

z1 = Lattice.integers(1)

shannon = BoxUnion.build([((-1.0,), (-0.5,)), ((0.5,), (1.0,))])
print("Shannon set, order 1:", is_multiwavelet_set(shannon, [[2.0]], z1, 1, samples=500, seed=0).passed)

two = BoxUnion.build([((-2.0,), (-1.0,)), ((1.0,), (2.0,))])
print("doubled set, order 2:", is_multiwavelet_set(two, [[2.0]], z1, 2, samples=500, seed=0).passed)
parts = partition_multiwavelet_set(two, z1, 2)
print("  partition:", [p.to_json()["boxes"] for p in parts])

print("\ndimension function of W = [0, 1.5):")
w = BoxUnion.build([((0.0,), (1.5,))])
for xi in (0.25, 0.75):
    print(f"  dim({xi}) = {dimension_function(w, [xi]).value}")

# order infinity for the doubling map: dyadic pieces pushed outward
K = build_order_infinity_set([[2.0]], z1, pieces=6)
print("\norder-infinity set for A = 2, Gamma = Z:")
for i, power, gamma in K.certificates[:4]:
    lo, hi = K.piece_boxes_1d(i)
    print(f"  piece {i}: +/-[{lo:.0f}, {hi:.0f}) via A^{power}, contains Y + {gamma[0]:.0f}")
rng = np.random.default_rng(1)
counts = [dilation_count(K, [[2.0]], xi) for xi in rng.normal(size=(200, 1))]
print("  dilation multiplicities:", sorted(set(counts)))
print("  translation count at 0.3 (radius 100):", translation_count(K, z1, [0.3], radius=100.0).value)

# unit-modulus nilpotent case: the shear's cone section already works
cone = build_order_infinity_set([[1.0, 1.0], [0.0, 1.0]], Lattice.integers(2), pieces=10)
print("\nshear cone: first certified translates:", [tuple(map(int, g)) for g in cone.certificates[:5]])

# and the infinite partition peels off order-1 pieces
pieces = partition_multiwavelet_set(K, z1, math.inf, pieces=3)
grid = np.linspace(-40, 40, 161).reshape(-1, 1)
sizes = [int(p.membership(grid)[0].sum()) for p in pieces]
print("infinite-order partition, grid points captured per piece:", sizes)
