"""Support-estimation baseline: max-flood one geometric sample per node.

Every node draws X_u ~ geometric(1/2) and the network max-floods the
values over H; the global maximum is then ~log2(n) whp, which is the
whole estimator.  The point of carrying this protocol around is the
contrast: it concentrates beautifully with zero Byzantine nodes and is
arbitrarily wrong with one, since a single forged value becomes
everyone's maximum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .engine import _write_node_csv
from .graph import Topology, _placement_mask
from .protocol import draw_colors
from .rng import stream

__all__ = ["SupportEstimate", "run_support_estimation",
           "write_baseline_csv", "write_baseline_summary"]


@dataclass(eq=False)
class SupportEstimate:
    """Outcome of one support-estimation run."""

    samples: np.ndarray            # X_u actually flooded (forced for byz)
    final_max: np.ndarray          # per-node highest value seen
    rounds_to_converge: int        # rounds until no message moved
    distinct_forwards: np.ndarray  # per-node count of distinct values sent
    byz: np.ndarray                # placement used

    @property
    def global_max(self) -> int:
        return int(self.final_max.max())

    @property
    def converged(self) -> bool:
        return bool((self.final_max == self.final_max.max()).all())


def run_support_estimation(topo: Topology,
                           byz: np.ndarray | None = None,
                           byz_value: int | None = None,
                           seed: int = 0) -> SupportEstimate:
    """Max-flood geometric samples over H; Byzantine nodes flood byz_value.

    ``byz`` is a placement as ``classify_nodes`` takes it.  Each node
    forwards a value only the first time it becomes the node's new
    maximum, so per-node distinct forwards stay O(log n).  The flood runs
    until quiescent or for 4·ceil(log2 n) + 10 rounds, comfortably above
    the H diameter.
    """
    h = topo.h
    n = h.n
    rng = stream(seed, "trial", 0)
    samples = draw_colors(rng, n).astype(np.int64)  # byz_value may exceed any color
    byz_mask = _placement_mask(n, () if byz is None else byz)
    if byz_value is not None:
        samples[byz_mask] = int(byz_value)

    best = samples.copy()
    last_sent = np.zeros(n, dtype=np.int64)
    forwards = np.zeros(n, dtype=np.int64)
    masked = np.zeros(n + 1, dtype=np.int64)  # masked[n] = 0 under the sentinel
    rounds_run = 0
    for _ in range(4 * math.ceil(math.log2(n)) + 10):
        send = best > last_sent
        if not send.any():
            break
        rounds_run += 1
        forwards[send] += 1
        last_sent[send] = best[send]
        masked[:n] = np.where(send, best, 0)
        np.maximum(best, masked[h.ports].max(axis=0), out=best)

    return SupportEstimate(samples=samples, final_max=best,
                           rounds_to_converge=rounds_run,
                           distinct_forwards=forwards, byz=byz_mask)


def write_baseline_csv(est: SupportEstimate, topo: Topology, path: str,
                       trial: int = 0) -> None:
    """Per-node rows in the engine's CSV schema (estimate = final max)."""
    rows = zip(topo.h.ids.tolist(), est.byz.tolist(), est.final_max.tolist())
    _write_node_csv(path, ((trial, v, "byz" if b else "byz_safe", e, False)
                           for v, b, e in rows))


def write_baseline_summary(est: SupportEstimate, path: str, *,
                           seed: int = 0, extra: dict | None = None) -> None:
    n = est.final_max.shape[0]
    summary = {
        "protocol": "baseline",
        "seed": seed,
        "n": n,
        "global_max": est.global_max,
        "converged": est.converged,
        "rounds_to_converge": est.rounds_to_converge,
        "byz_count": int(est.byz.sum()),
        "max_distinct_forwards": int(est.distinct_forwards.max()),
    }
    if extra:
        summary.update(extra)
    with open(path, "w") as fh:
        json.dump([summary], fh, indent=2)
        fh.write("\n")
