"""End-to-end acceptance checks, one test per headline guarantee.

Each test prints a single ``[criterion N] PASS/FAIL`` verdict line (echoed
again in the terminal summary) with the measured numbers, so a plain
``pytest -v`` run ends with the full scorecard.  Criteria 5, 6 and 10 share
one 20-seed protocol sweep over n = 2^10..2^14.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from byzcount.baseline import run_support_estimation
from byzcount.engine import ExperimentConfig, run_experiment, simulate_subphase
from byzcount.graph import (
    augment_small_world,
    census_locally_tree_like,
    default_k,
    generate_h_graph,
    longest_byzantine_chain,
    place_byzantine,
)
from byzcount.protocol import draw_colors
from byzcount.rng import stream
from helpers import (
    assert_hamiltonian_decomposition,
    bfs_ball,
    edge_adjacency,
    sample_flood_maxima,
)

SWEEP_SIZES = (2**10, 2**11, 2**12, 2**13, 2**14)
SWEEP_SEEDS = 20


@contextmanager
def verdict(log, num):
    """Guarantee one scorecard line per criterion, even on a hard error."""
    note = {}
    try:
        yield note
    except Exception as exc:
        log(num, False, note.get("detail") or f"{type(exc).__name__}: {exc}")
        raise
    log(num, True, note["detail"])


@pytest.fixture(scope="module")
def honest_sweep():
    """All-honest runs, 20 seeds per size, subphase count scaled with the phase."""
    runs = {}
    for n in SWEEP_SIZES:
        runs[n] = [
            run_experiment(ExperimentConfig(n=n, d=8, seed=s, algorithm="basic",
                                            strategy="none",
                                            subphase_factor="phase"))
            for s in range(SWEEP_SEEDS)
        ]
    return runs


# ---------------------------------------------------------------------------
# 1. graph invariants
# ---------------------------------------------------------------------------

def test_criterion_1_graph_invariants(criterion_log):
    with verdict(criterion_log, 1) as note:
        checked = 0
        for n in (1_000, 10_000, 100_000):
            for seed in range(10):
                h = generate_h_graph(n, 8, seed)
                assert (h.degrees == 8).all()
                assert_hamiltonian_decomposition(h)
                checked += 1
        for seed in range(10):
            topo = augment_small_world(generate_h_graph(200, 8, seed))
            adj = edge_adjacency(topo.h)
            for v in range(200):
                want = bfs_ball(adj, v, topo.k) - {v}
                assert set(int(x) for x in topo.l_neighbors(v)) == want
        note["detail"] = (f"{checked} graphs 8-regular with valid cycle "
                          "decompositions; L edges match BFS balls on 10 "
                          "seeds at n=200")


# ---------------------------------------------------------------------------
# 2. locally-tree-like census
# ---------------------------------------------------------------------------

def test_criterion_2_tree_like_census_scaling(criterion_log):
    with verdict(criterion_log, 2) as note:
        sizes = (12_500, 25_000, 50_000, 100_000)
        means = []
        for n in sizes:
            fr = [1.0 - census_locally_tree_like(generate_h_graph(n, 8, s), 1).mean()
                  for s in range(10)]
            means.append(float(np.mean(fr)))
        ratios = [means[j + 1] / means[j] for j in range(len(sizes) - 1)]
        assert means[-1] <= 0.01
        assert all(0.3 <= r <= 0.8 for r in ratios)
        note["detail"] = (f"non-tree-like fraction {means[-1]:.4f} at n=10^5; "
                          f"per-doubling ratios {[round(r, 3) for r in ratios]}")


# ---------------------------------------------------------------------------
# 3. geometric color machinery
# ---------------------------------------------------------------------------

def test_criterion_3_color_maximum_tails(criterion_log):
    with verdict(criterion_log, 3) as note:
        trials, nprime = 100_000, 1024
        rng = stream(777, "colors")
        maxima = np.empty(trials, dtype=np.int64)
        chunk = 10_000
        for c in range(trials // chunk):
            block = draw_colors(rng, chunk * nprime).reshape(chunk, nprime)
            maxima[c * chunk:(c + 1) * chunk] = block.max(axis=1)
        draws = block.ravel()
        for r in range(1, 11):
            p = 2.0 ** -r
            sd = math.sqrt(p * (1 - p) / draws.size)
            assert abs((draws == r).mean() - p) <= 4 * sd + 1e-12
        hi = float((maxima > 2 * math.log2(nprime)).mean())
        lo = float((maxima < math.log2(nprime) / 2).mean())
        tol = 1.5 / nprime
        assert hi <= tol
        assert lo <= tol
        note["detail"] = (f"freq(max>2log2 n')={hi:.5f}, freq(max<log2(n')/2)="
                          f"{lo:.5f}, both <= {tol:.5f}; per-color "
                          "frequencies match 2^-r")


# ---------------------------------------------------------------------------
# 4. Byzantine chain statistics
# ---------------------------------------------------------------------------

def test_criterion_4_chain_free_placements(criterion_log):
    with verdict(criterion_log, 4) as note:
        n, d, delta = 100_000, 8, 0.6
        k = default_k(d)
        h = generate_h_graph(n, d, seed=3)
        hits = sum(
            longest_byzantine_chain(h, place_byzantine(n, delta, s), cap=k) >= k
            for s in range(100)
        )
        union_bound = n * d ** (k - 1) * n ** (-k * delta)
        limit = 2 * union_bound + 0.02
        assert hits / 100 <= limit
        note["detail"] = (f"{hits}/100 placements contain a {k}-chain "
                          f"(fraction {hits / 100:.2f} <= {limit:.4f})")


# ---------------------------------------------------------------------------
# 5. all-honest sweep sanity
# ---------------------------------------------------------------------------

def test_criterion_5_honest_sweep_estimates(criterion_log, honest_sweep):
    with verdict(criterion_log, 5) as note:
        med_means = []
        worst_decided = 1.0
        for n in SWEEP_SIZES:
            cap = math.ceil(4 * math.log2(n))
            meds = []
            for r in honest_sweep[n]:
                worst_decided = min(worst_decided, r.decided_fraction)
                assert r.decided_fraction >= 0.9
                est = r.estimates
                assert est.max() <= cap
                meds.append(float(np.median(est)))
            med_means.append(float(np.mean(meds)))
        assert all(b >= a for a, b in zip(med_means, med_means[1:]))
        ratio = (med_means[-1] / med_means[0]) ** (1 / (len(SWEEP_SIZES) - 1))
        assert 1.05 <= ratio <= 1.9
        note["detail"] = (f"min decided fraction {worst_decided:.2f}; all "
                          "estimates within the 4*log2(n) envelope; median "
                          f"means {[round(m, 2) for m in med_means]} rising, "
                          f"per-doubling ratio {ratio:.3f}")


# ---------------------------------------------------------------------------
# 6. early-stop bound
# ---------------------------------------------------------------------------

def test_criterion_6_early_decisions_are_rare(criterion_log, honest_sweep):
    with verdict(criterion_log, 6) as note:
        limit = 0.1 + 0.05
        per_size = []
        safe_early = safe_total = 0
        safe_sizes = []
        for n in SWEEP_SIZES:
            early = total = safe_here = 0
            for r in honest_sweep[n]:
                alive = ~r.crashed & ~r.byz_mask
                is_early = alive & (r.decided >= 1) & (r.decided <= 2)
                early += int(is_early.sum())
                total += int(alive.sum())
                safe = alive & (r.class_labels == "byz_safe")
                safe_here += int(safe.sum())
                safe_total += int(safe.sum())
                safe_early += int((is_early & safe).sum())
            per_size.append(early / total)
            safe_sizes.append(safe_here)
            assert per_size[-1] <= limit
        if safe_total:
            assert safe_early / safe_total <= limit
        note["detail"] = (f"fraction deciding at phase <= 2: "
                          f"{[round(f, 4) for f in per_size]} per size "
                          f"(limit {limit:.2f}); byz_safe members per size "
                          f"{safe_sizes}, early fraction "
                          f"{safe_early}/{safe_total}")


# ---------------------------------------------------------------------------
# 7. late injections never land
# ---------------------------------------------------------------------------

def test_criterion_7_late_injection_window(criterion_log):
    with verdict(criterion_log, 7) as note:
        topo = augment_small_world(generate_h_graph(256, 8, seed=5))
        k = topo.k
        placements, s = [], 0
        while len(placements) < 25:
            byz = place_byzantine(256, 0.6, s)
            s += 1
            if longest_byzantine_chain(topo.h, byz, cap=k) < k:
                placements.append(byz)
        runs = accepted = rejected = 0
        for t in (k, k + 1):
            for byz in placements:
                honest = np.ones(256, dtype=bool)
                honest[byz] = False
                for seed in range(20):
                    tr = simulate_subphase(
                        topo, 5, byz=byz, strategy="late_injector",
                        strategy_params={"inject_round": t, "magnitude": 99},
                        algorithm="byzantine", seed=seed)
                    runs += 1
                    rejected += tr.rejected
                    accepted += int((tr.k_rows[:, honest] == 99).any())
        assert runs == 1000
        assert rejected > 0
        assert accepted == 0
        note["detail"] = (f"0/{runs} injections at rounds {k}/{k + 1} reached "
                          f"any honest record ({rejected} verification "
                          "rejections)")


# ---------------------------------------------------------------------------
# 8. crash on conflicting adjacency claims
# ---------------------------------------------------------------------------

def test_criterion_8_lied_to_node_crashes(criterion_log, topo512):
    with verdict(criterion_log, 8) as note:
        h = topo512.h
        k = topo512.k
        adj = edge_adjacency(h)

        def candidates(b):
            # auto-mode victims: close enough to hear both the lie and the
            # hidden child's truthful report
            hidden = min(adj[b])
            pool = bfs_ball(adj, b, k - 1) & bfs_ball(adj, hidden, k)
            return hidden, pool - {b, hidden}

        liar = next(v for v in range(h.n) if candidates(v)[1])
        _, pool = candidates(liar)
        audience = set(int(x) for x in topo512.l_neighbors(liar))
        victims = set()
        for seed in range(20):
            tr = simulate_subphase(topo512, 3, byz=np.array([liar]),
                                   strategy="topology_liar",
                                   algorithm="byzantine", seed=seed)
            who = np.flatnonzero(tr.crashed)
            assert who.size == 1
            victim = int(who[0])
            assert victim != liar
            assert victim in pool and victim in audience
            victims.add(victim)
        note["detail"] = (f"targeted victim crashed in 20/20 runs "
                          f"({len(victims)} distinct victims, every one a "
                          "valid lie recipient); no other node ever crashed")


# ---------------------------------------------------------------------------
# 9. core survives a combined attack
# ---------------------------------------------------------------------------

def test_criterion_9_survival_under_composite_attack(criterion_log):
    with verdict(criterion_log, 9) as note:
        n = 4096
        cap = math.ceil(4 * math.log2(n)) + default_k(8)
        params = {"parts": [{"name": "topology_liar"},
                            {"name": "max_injector"}]}
        crash_fracs, inrange_fracs, safe_sizes = [], [], []
        for seed in range(20):
            cfg = ExperimentConfig(n=n, d=8, delta=0.6, seed=seed,
                                   algorithm="byzantine", strategy="composite",
                                   strategy_params=params)
            r = run_experiment(cfg)
            honest = ~r.byz_mask
            crash_fracs.append(float(r.crashed[honest].mean()))
            assert crash_fracs[-1] <= 0.05
            alive = honest & ~r.crashed
            dec = alive & (r.decided > 0)
            inrange_fracs.append(
                float(((r.decided[dec] >= 1) & (r.decided[dec] <= cap)).mean()))
            assert inrange_fracs[-1] >= 0.9
            safe = alive & (r.class_labels == "byz_safe")
            safe_sizes.append(int(safe.sum()))
            sdec = safe & dec
            if sdec.any():
                assert float((r.decided[sdec] <= cap).mean()) >= 0.9
        note["detail"] = (f"crashed honest fraction max "
                          f"{max(crash_fracs):.4f} (limit 0.05); deciders in "
                          f"[1, {cap}]: min {min(inrange_fracs):.3f}; "
                          f"byz_safe class sizes {sorted(set(safe_sizes))}")


# ---------------------------------------------------------------------------
# 10. rounds grow like log^3 n
# ---------------------------------------------------------------------------

def test_criterion_10_round_scaling(criterion_log, honest_sweep):
    with verdict(criterion_log, 10) as note:
        x = np.array([math.log2(n) for n in SWEEP_SIZES])
        y = np.array([np.mean([r.rounds_total for r in honest_sweep[n]])
                      for n in SWEEP_SIZES])
        cube = x ** 3
        c = float(y @ cube / (cube @ cube))
        resid = y - c * cube
        # one-parameter model through the origin, so the uncentered form
        r2 = 1.0 - float(resid @ resid) / float(y @ y)
        r2_centered = 1.0 - float(resid @ resid) / float(((y - y.mean()) ** 2).sum())
        assert r2 >= 0.95
        note["detail"] = (f"mean rounds {[round(float(t), 1) for t in y]} ~ "
                          f"{c:.3f}*log2(n)^3, R^2 {r2:.4f} "
                          f"(centered {r2_centered:.3f})")


# ---------------------------------------------------------------------------
# 11. plain max-flooding breaks under one Byzantine node
# ---------------------------------------------------------------------------

def test_criterion_11_baseline_fragility(criterion_log, topo1024):
    with verdict(criterion_log, 11) as note:
        maxima = sample_flood_maxima(1024, 100_000)
        hi = float((maxima > 2 * math.log2(1024)).mean())
        lo = float((maxima < math.log2(1024) / 2).mean())
        assert hi <= 1.5 / 1024
        assert lo < 1e-3
        for t in (0, 1234, 99_999):
            est = run_support_estimation(topo1024, seed=t)
            assert est.converged
            assert est.global_max == maxima[t]
        forced = run_support_estimation(topo1024, byz=np.array([17]),
                                        byz_value=100)
        honest = np.ones(1024, dtype=bool)
        honest[17] = False
        assert (forced.final_max[honest] == 100).all()
        note["detail"] = (f"honest tails {hi:.5f}/{lo:.5f} within bounds over "
                          "10^5 trials; a single forced value 100 became "
                          "every honest node's maximum")
