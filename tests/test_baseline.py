"""Support-estimation baseline: concentration when honest, collapse when not."""

import csv
import json
import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from byzcount.baseline import (run_support_estimation, write_baseline_csv,
                               write_baseline_summary)
from helpers import sample_flood_maxima

TRIALS = 100_000
N = 1024


def test_global_max_tails_over_many_trials(topo1024):
    # The flooded maximum equals the max of the trial's geometric samples;
    # the sampler below reuses the protocol's exact per-trial generator, and
    # a subsample of full runs confirms the flood reaches that value.
    maxima = sample_flood_maxima(N, TRIALS)
    assert (maxima > 2 * math.log2(N)).mean() <= 1.5 / N
    assert (maxima < math.log2(N) / 2).mean() < 1e-3
    for t in range(0, TRIALS, TRIALS // 50):
        est = run_support_estimation(topo1024, seed=t)
        assert est.converged
        assert est.global_max == maxima[t]


def test_single_byzantine_node_owns_the_estimate(topo1024):
    est = run_support_estimation(topo1024, byz=np.array([123]),
                                 byz_value=100, seed=0)
    honest = ~est.byz
    assert (est.final_max[honest] == 100).all()
    assert est.byz.sum() == 1
    # the forged value is arbitrary: any magnitude wins, flooded whole
    # although the colors are drawn as uint8
    est2 = run_support_estimation(topo1024, byz=np.array([123]),
                                  byz_value=10**6, seed=0)
    assert est2.samples.dtype == np.int64 and est2.samples[123] == 10**6
    assert est2.global_max == 10**6


@pytest.mark.parametrize("idx", [-1, N])
def test_byzantine_indices_outside_the_node_set_are_rejected(topo1024, idx):
    # -1 would force node N - 1 to the forged value; N would index past the node set
    with pytest.raises(ValueError, match="byz"):
        run_support_estimation(topo1024, byz=[idx], byz_value=100)


def test_distinct_forwards_stay_logarithmic(topo1024):
    cap = 2 * math.log2(N) + 5
    for seed in range(20):
        est = run_support_estimation(topo1024, seed=seed)
        assert est.distinct_forwards.max() <= cap


def test_convergence_within_graph_diameter(topo1024):
    h = topo1024.h
    u, v = h.edges[:, 0], h.edges[:, 1]
    arcs = (np.concatenate([u, v]), np.concatenate([v, u]))
    adj = csr_matrix((np.ones(arcs[0].size, dtype=np.int8), arcs), shape=(N, N))
    dist = shortest_path(adj, method="D", unweighted=True)
    diameter = int(dist.max())
    for seed in range(10):
        est = run_support_estimation(topo1024, seed=seed)
        assert est.rounds_to_converge <= diameter + 1
        assert est.converged


def test_final_maxima_dominate_samples(topo1024):
    est = run_support_estimation(topo1024, seed=5)
    assert (est.final_max >= est.samples).all()
    assert est.global_max == est.samples.max()


def test_baseline_emitters(tmp_path, topo1024):
    est = run_support_estimation(topo1024, byz=np.array([7]), byz_value=50,
                                 seed=1)
    csv_path = tmp_path / "baseline.csv"
    json_path = tmp_path / "baseline.json"
    write_baseline_csv(est, topo1024, str(csv_path))
    write_baseline_summary(est, str(json_path), seed=1,
                           extra={"note": "fixture"})

    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial", "node_id", "class", "decided", "estimate",
                       "crashed"]
    assert len(rows) == 1 + N
    classes = {row[2] for row in rows[1:]}
    assert classes == {"byz", "byz_safe"}

    (summary,) = json.loads(json_path.read_text())   # one-trial array
    assert summary["protocol"] == "baseline"
    assert summary["global_max"] == est.global_max
    assert summary["byz_count"] == 1
    assert summary["note"] == "fixture"


def test_baseline_and_engine_write_the_same_node_csv_header(tmp_path, topo1024):
    from byzcount.engine import (NODE_CSV_FIELDS, ExperimentConfig, run_trials,
                                 write_trial_csv)
    base_path, trial_path = tmp_path / "baseline.csv", tmp_path / "trials.csv"
    write_baseline_csv(run_support_estimation(topo1024, seed=2), topo1024,
                       str(base_path))
    write_trial_csv(run_trials(ExperimentConfig(n=32, algorithm="basic")),
                    str(trial_path))
    headers = []
    for path in (base_path, trial_path):
        with open(path, newline="") as fh:
            headers.append(next(csv.reader(fh)))
    assert headers[0] == headers[1] == list(NODE_CSV_FIELDS)
