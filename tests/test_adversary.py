"""Adversary strategies: what each attack does, and what the defense rejects."""

from types import SimpleNamespace

import numpy as np
import pytest

from byzcount.adversary import (
    STRATEGY_NAMES,
    TRUTHFUL,
    CompositeStrategy,
    Injection,
    default_injection_color,
    make_strategy,
)
from byzcount.engine import ExperimentConfig, run_experiment, simulate_subphase
from byzcount.graph import longest_byzantine_chain, place_byzantine
from byzcount.protocol import ORIGIN
from byzcount.rng import stream


def _g_neighbor_mask(topo, nodes):
    mask = np.zeros(topo.n, dtype=bool)
    for b in np.atleast_1d(nodes):
        mask[topo.l_neighbors(int(b))] = True
    return mask


# ---------------------------------------------------------------------------
# factory and defaults
# ---------------------------------------------------------------------------

def test_default_injection_color_values():
    assert default_injection_color(1024) == 50
    assert default_injection_color(4096) == 58


def test_make_strategy_registry():
    assert STRATEGY_NAMES == ("none", "honest_mimic", "silent", "max_injector",
                              "late_injector", "topology_liar", "composite")
    assert make_strategy("none") is None
    for name in ("honest_mimic", "silent", "max_injector", "late_injector",
                 "topology_liar"):
        s = make_strategy(name)
        assert s.name == name
    with pytest.raises(ValueError):
        make_strategy("zerg_rush")
    with pytest.raises(ValueError):
        make_strategy("composite", {"parts": []})


def test_composite_splices_part_behaviours():
    comp = CompositeStrategy([make_strategy("silent"),
                              make_strategy("max_injector", {"magnitude": 9})])
    assert comp.suppress_sends is True          # any part suppressing wins
    assert comp.sends_reports is False          # any part withholding wins
    assert comp.answer_query(0, 1, 9, 1, 1, 1) is not TRUTHFUL


def test_replace_injections_take_no_targets():
    # a replace injection rewrites the node's own broadcast, so both
    # executors reject a targeted one at construction
    with pytest.raises(ValueError, match="targets"):
        Injection(color=9, pred=ORIGIN, targets=(1, 2), replace=True)
    assert Injection(color=9, pred=ORIGIN, targets=(1, 2)).targets == (1, 2)


# ---------------------------------------------------------------------------
# honest mimic
# ---------------------------------------------------------------------------

def test_honest_mimic_is_indistinguishable_from_no_adversary():
    base = ExperimentConfig(n=512, algorithm="byzantine", delta=0.6, seed=5)
    res_none = run_experiment(base)
    res_mimic = run_experiment(
        ExperimentConfig(n=512, algorithm="byzantine", strategy="honest_mimic",
                         delta=0.6, seed=5))
    assert res_none.transcript_hash == res_mimic.transcript_hash
    assert not res_mimic.crashed.any()


# ---------------------------------------------------------------------------
# max injector
# ---------------------------------------------------------------------------

def test_max_injector_floods_everyone_without_verification(topo1024):
    byz = place_byzantine(1024, 0.6, seed=1)
    tr = simulate_subphase(topo1024, 6, byz=byz, strategy="max_injector",
                           algorithm="basic", seed=2)
    honest = np.ones(1024, dtype=bool)
    honest[byz] = False
    value = default_injection_color(1024)
    saw_it = (tr.k_rows[1:] == value).any(axis=0)
    assert saw_it[honest].mean() >= 0.99


def test_max_injector_first_hop_survives_hardened_verification(topo1024):
    # a round-1 injection is a legal origination: neighbors accept it even
    # with provenance checks on
    byz = np.array([17])
    tr = simulate_subphase(topo1024, 3, byz=byz, strategy="max_injector",
                           strategy_params={"magnitude": 91},
                           algorithm="byzantine", seed=0)
    h_neighbors = np.unique(topo1024.h.neighbors(17))
    assert (tr.k_rows[1][h_neighbors] == 91).all()
    assert tr.rejected == 0


# ---------------------------------------------------------------------------
# silent
# ---------------------------------------------------------------------------

def test_silent_nodes_send_and_learn_nothing(topo1024):
    byz = place_byzantine(1024, 0.6, seed=3)
    colors = np.ones(1024, dtype=np.int64) * 2
    quiet = simulate_subphase(topo1024, 2, colors=colors, byz=byz,
                              strategy="silent", algorithm="basic")
    loud = simulate_subphase(topo1024, 2, colors=colors, byz=byz,
                             strategy="honest_mimic", algorithm="basic")
    assert quiet.messages_sent < loud.messages_sent
    assert (quiet.k_rows[:, byz] == 0).all()


def test_single_silent_node_barely_moves_the_estimate():
    meds = {}
    for strat in ("honest_mimic", "silent"):
        vals = []
        for s in range(3):
            cfg = ExperimentConfig(n=1024, algorithm="byzantine", delta=1.0,
                                   strategy=strat, seed=s)
            vals.append(run_experiment(cfg).to_summary()["median_estimate"])
        meds[strat] = vals
    for a, b in zip(meds["honest_mimic"], meds["silent"]):
        assert abs(a - b) <= 1.0


# ---------------------------------------------------------------------------
# late injector
# ---------------------------------------------------------------------------

def _chain_free_placement(h, n, delta, k, seed0):
    for s in range(seed0, seed0 + 50):
        byz = place_byzantine(n, delta, seed=s)
        if longest_byzantine_chain(h, byz, cap=k) < k:
            return byz
    raise AssertionError("no chain-free placement found")


def test_late_injection_is_rejected_without_a_chain(topo1024):
    byz = _chain_free_placement(topo1024.h, 1024, 0.6, topo1024.k, seed0=0)
    tr = simulate_subphase(topo1024, 5, byz=byz, strategy="late_injector",
                           strategy_params={"magnitude": 97},
                           algorithm="byzantine", seed=4)
    honest = np.ones(1024, dtype=bool)
    honest[byz] = False
    assert not (tr.k_rows[:, honest] == 97).any()
    assert tr.rejected > 0


def test_late_injection_lands_with_a_planted_chain(topo1024):
    h = topo1024.h
    u = 0
    v = int(h.neighbors(u)[0])
    w = int(next(x for x in h.neighbors(v) if x != u))
    byz = np.array(sorted({u, v, w}))
    assert longest_byzantine_chain(h, byz) >= 3
    tr = simulate_subphase(topo1024, 5, byz=byz, strategy="late_injector",
                           strategy_params={"magnitude": 77},
                           algorithm="byzantine", seed=0)
    honest = np.ones(1024, dtype=bool)
    honest[byz] = False
    assert (tr.k_rows[3:, honest] == 77).any()


def test_late_injector_at_round_one_degenerates_to_max_injector(topo1024):
    byz = np.array([5, 300])
    colors = np.ones(1024, dtype=np.int64)
    a = simulate_subphase(topo1024, 2, colors=colors, byz=byz,
                          strategy="late_injector",
                          strategy_params={"inject_round": 1, "magnitude": 44},
                          algorithm="byzantine", seed=0)
    b = simulate_subphase(topo1024, 2, colors=colors, byz=byz,
                          strategy="max_injector",
                          strategy_params={"magnitude": 44},
                          algorithm="byzantine", seed=0)
    np.testing.assert_array_equal(a.k_rows, b.k_rows)
    np.testing.assert_array_equal(a.continue_event, b.continue_event)


# ---------------------------------------------------------------------------
# topology liar
# ---------------------------------------------------------------------------

def test_topology_liar_crashes_exactly_its_victims(topo512):
    byz = np.array([40])
    near = _g_neighbor_mask(topo512, byz)
    for seed in range(10):
        tr = simulate_subphase(topo512, 2, byz=byz, strategy="topology_liar",
                               algorithm="byzantine", seed=seed)
        assert tr.crashed.sum() == 1            # the attack always lands
        assert not tr.crashed[~near].any()      # and never reaches further


def _within(h, a, b, r):
    """dist_H(a, b) <= r, by truncated BFS from a."""
    if a == b:
        return True
    seen, frontier = {a}, [a]
    for _ in range(max(r, 0)):
        nxt = []
        for u in frontier:
            for w in np.unique(h.neighbors(u)):
                w = int(w)
                if w == b:
                    return True
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return False


def _within_rule_victims(topo, byz, rng):
    """Auto-mode victims by the per-pair distance rule: one uniform pick
    among the honest G-neighbors v of b with dist(v, b) <= k-1 and
    dist(v, hidden) <= k, where hidden is b's smallest neighbor."""
    h, k = topo.h, topo.k
    byz = set(int(b) for b in byz)
    victims = {}
    for b in sorted(byz):
        nbrs = sorted(set(int(x) for x in h.neighbors(b)))
        if not nbrs:
            continue
        hidden = nbrs[0]
        candidates = [v for v in topo.l_neighbors(b).tolist()
                      if v not in byz and v != hidden
                      and _within(h, v, b, k - 1) and _within(h, v, hidden, k)]
        victims[b] = ({candidates[int(rng.integers(0, len(candidates)))]}
                      if candidates else set())
    return victims


def _lied_to(topo, liar, b):
    return {v for v in range(topo.n) if liar.setup_report(b, v) is not None}


@pytest.mark.parametrize("seed", range(5))
def test_topology_liar_victims_follow_the_distance_rule(topo512, seed):
    byz = place_byzantine(topo512.n, 0.6, seed=seed)
    run = SimpleNamespace(topo=topo512, byz_nodes=byz,
                          adv_rng=stream(seed, "adversary", 0))
    liar = make_strategy("topology_liar")
    liar.prepare(run)
    want = _within_rule_victims(topo512, byz, stream(seed, "adversary", 0))
    assert {b: _lied_to(topo512, liar, b) for b in want} == want
    assert any(want.values())

    broadcast = make_strategy("topology_liar", {"target_mode": "broadcast"})
    broadcast.prepare(run)
    for b in byz.tolist():
        assert _lied_to(topo512, broadcast, b) == set(topo512.l_neighbors(b).tolist())


def test_topology_liar_is_deterministic(topo512):
    byz = np.array([40, 200])
    a = simulate_subphase(topo512, 2, byz=byz, strategy="topology_liar",
                          algorithm="byzantine", seed=7)
    b = simulate_subphase(topo512, 2, byz=byz, strategy="topology_liar",
                          algorithm="byzantine", seed=7)
    np.testing.assert_array_equal(a.crashed, b.crashed)
    assert a.crashed.any()


def test_topology_liar_broadcast_mode_runs(topo512):
    byz = np.array([40])
    tr = simulate_subphase(topo512, 2, byz=byz, strategy="topology_liar",
                           strategy_params={"target_mode": "broadcast"},
                           algorithm="byzantine", seed=0)
    near = _g_neighbor_mask(topo512, byz)
    assert tr.crashed.any()
    assert not tr.crashed[~near].any()
    with pytest.raises(ValueError):
        make_strategy("topology_liar", {"target_mode": "sideways"})


# ---------------------------------------------------------------------------
# composite end-to-end
# ---------------------------------------------------------------------------

def test_composite_liar_plus_injector_does_both(topo1024):
    byz = _chain_free_placement(topo1024.h, 1024, 0.6, topo1024.k, seed0=10)
    params = {"parts": [
        {"name": "topology_liar"},
        {"name": "late_injector", "params": {"magnitude": 88}},
    ]}
    tr = simulate_subphase(topo1024, 5, byz=byz, strategy="composite",
                           strategy_params=params, algorithm="byzantine",
                           seed=1)
    honest = np.ones(1024, dtype=bool)
    honest[byz] = False
    assert tr.crashed.any()                      # the lies crash victims
    assert tr.rejected > 0                       # the injections bounce
    assert not (tr.k_rows[:, honest] == 88).any()


# ---------------------------------------------------------------------------
# determinism under attack
# ---------------------------------------------------------------------------

def test_adversarial_runs_are_reproducible():
    cfg = ExperimentConfig(n=512, algorithm="byzantine", delta=0.6,
                           strategy="late_injector", seed=9)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.transcript_hash == b.transcript_hash
