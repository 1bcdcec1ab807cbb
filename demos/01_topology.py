"""Build the communication graph and look at its structure.

H is a union of d/2 random Hamiltonian cycles (so exactly d-regular and
connected); the small-world layer L links every pair within H-distance k.
Most nodes look like perfect trees out to a small radius, and the spectral
gap certifies expansion.
"""

import numpy as np

from byzcount.graph import (
    augment_small_world,
    census_locally_tree_like,
    count_parallel_pairs,
    estimate_spectral_gap,
    generate_h_graph,
)

n, d, seed = 20_000, 8, 0

h = generate_h_graph(n, d, seed)
topo = augment_small_world(h)
degrees = h.degrees
print(f"H({n}, {d}) from seed {seed}: {d // 2} labelled cycles, "
      f"degree min/max = {degrees.min()}/{degrees.max()}")
print(f"parallel edge pairs (two cycles sharing an edge): {count_parallel_pairs(h)}")
print(f"small-world radius k = {topo.k}; "
      f"node 0 has {topo.l_neighbors(0).size} G-neighbours")

for r in (1, 2):
    frac = census_locally_tree_like(h, r).mean()
    print(f"locally tree-like to radius {r}: {frac:.4f} of nodes")

spec = estimate_spectral_gap(generate_h_graph(2048, d, seed))
ram = 2 * np.sqrt(d - 1)
print(f"second adjacency eigenvalue at n=2048: {spec.lambda2:.3f} "
      f"(Ramanujan bound {ram:.3f}), expansion lower bound h >= {spec.h_lower:.3f}")
