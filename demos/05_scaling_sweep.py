"""Estimates track log2(n) and rounds track log2(n)^3.

A small sweep over doubling sizes: median estimates step up with log2(n),
and total protocol rounds (with the subphase count scaled by the phase
index) follow a single cubic coefficient.
"""

import math

import numpy as np

from byzcount.engine import ExperimentConfig, run_experiment

sizes = (1024, 2048, 4096, 8192)
seeds = 5

print(f"{'n':>6} {'log2':>5} {'median est':>10} {'mean rounds':>12}")
logs, rounds = [], []
for n in sizes:
    meds, rs = [], []
    for s in range(seeds):
        res = run_experiment(ExperimentConfig(
            n=n, d=8, seed=s, algorithm="basic", strategy="none",
            subphase_factor="phase"))
        meds.append(np.median(res.estimates))
        rs.append(res.rounds_total)
    logs.append(math.log2(n))
    rounds.append(np.mean(rs))
    print(f"{n:>6} {logs[-1]:>5.0f} {np.mean(meds):>10.1f} {rounds[-1]:>12.1f}")

x = np.array(logs) ** 3
y = np.array(rounds)
c = float(y @ x / (x @ x))
print(f"\nrounds ~ {c:.3f} * log2(n)^3  "
      f"(per-size ratio {np.round(y / x, 3)})")
