"""Count the network with everyone honest.

Each node repeatedly floods geometric colors for i rounds and watches for a
fresh record arriving exactly at the horizon; when records stop beating the
threshold the node accepts i as its log2-size estimate.  Nobody knows n,
yet every estimate lands near log2(n).
"""

import math

import numpy as np

from byzcount.engine import ExperimentConfig, run_experiment
from byzcount.protocol import phase_params

n = 4096
cfg = ExperimentConfig(n=n, d=8, seed=0, algorithm="basic", strategy="none")
res = run_experiment(cfg)

print(f"n = {n} (log2 = {math.log2(n):.0f}), d = 8, all nodes honest")
print("phase schedule (subphases x flood rounds):",
      ", ".join(f"i={i}: {phase_params(i, cfg.epsilon, cfg.d).subphases}x{i}"
                for i in range(1, 9)))
print(f"decided: {res.decided_fraction:.3f} of nodes "
      f"in {res.rounds_total} protocol rounds "
      f"({res.messages_sent} messages)")

counts = np.bincount(res.decided)
for i in np.flatnonzero(counts):
    print(f"  estimate {i}: {counts[i]:5d} nodes")
med = float(np.median(res.estimates))
print(f"median estimate: {med:.0f} = {med / math.log2(n):.2f} * log2(n)")
