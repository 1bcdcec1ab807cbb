"""Attack the protocol and watch the defenses hold.

Byzantine nodes lie about their adjacency and inject huge colors.  The
hardened protocol cross-checks neighbour reports (a contradiction crashes
the lied-to node, quarantining the damage) and walks every suspicious
color's claimed forwarding chain, so injections bounce unless the
adversary owns a long enough real chain -- which random placement almost
never gives it at delta = 0.6.  At delta = 0.4 and n = 2^16 it does: the
776 uniformly placed nodes of seed 0 hold a 3-chain.
"""

import numpy as np

from byzcount.adversary import default_injection_color
from byzcount.engine import (ExperimentConfig, honest_estimates, run_experiment,
                             simulate_subphase)
from byzcount.graph import (
    augment_small_world,
    generate_h_graph,
    longest_byzantine_chain,
    place_byzantine,
)

n = 4096
cfg = ExperimentConfig(
    n=n, d=8, delta=0.6, seed=0, algorithm="byzantine", strategy="composite",
    strategy_params={"parts": [{"name": "topology_liar"},
                               {"name": "max_injector"}]})
res = run_experiment(cfg)

byz = np.flatnonzero(res.byz_mask)
honest = ~res.byz_mask
crashed = res.crashed_honest
print(f"n = {n}, {byz.size} Byzantine nodes lying about topology "
      f"and injecting color {default_injection_color(n)}")
print(f"crashed honest nodes: {crashed} ({crashed / honest.sum():.2%}) -- "
      "each one a direct recipient of a contradictory adjacency claim")
print(f"provenance queries walked: {res.queries_total}, rejections: "
      f"{res.tokens_rejected} (a round-1 injection is a legal origination; "
      "it spreads but cannot delay anyone)")

alive, dec = honest_estimates(res.byz_mask, res.crashed, res.decided)
print(f"surviving honest deciders: {dec.size}/{alive}, "
      f"median estimate {np.median(dec):.0f} (log2 n = 12)")

# late injection needs a real chain of k Byzantine nodes; at delta = 0.6
# random placements essentially never contain one (at delta = 0.4 and
# n = 2^16 they can: the union bound n·d^(k−1)·n^(−kδ) is ≈ 7 there)
topo = augment_small_world(generate_h_graph(1024, 8, seed=2))
byz2 = place_byzantine(1024, 0.6, seed=0)
chain = longest_byzantine_chain(topo.h, byz2, cap=topo.k)
tr = simulate_subphase(topo, 5, byz=byz2, strategy="late_injector",
                       strategy_params={"magnitude": 99},
                       algorithm="byzantine", seed=0)
landed = (tr.k_rows[:, ~np.isin(np.arange(1024), byz2)] == 99).any()
print(f"late injection with longest real chain {chain} < {topo.k}: "
      f"accepted by any honest node = {bool(landed)} "
      f"({tr.rejected} rejections)")
