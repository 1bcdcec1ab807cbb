"""Engine: config validation, delivery, metrics, executor equivalence,
round accounting, and output formats."""

import csv
import hashlib
import json
import struct
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byzcount import engine
from byzcount.adversary import AdversaryStrategy, Injection
from byzcount.engine import (
    ConfigError,
    ExperimentConfig,
    RunResult,
    deliver_round,
    run_experiment,
    run_trials,
    simulate_subphase,
    write_summary_json,
    write_trial_csv,
)
from byzcount.graph import (HMultigraph, augment_small_world, classify_nodes,
                            generate_h_graph, place_byzantine)
from byzcount.protocol import (ORIGIN, NodeState, RoundContext, Token,
                               TopologyConflict, claim_table, honest_node_step,
                               reconstruct_local_topology)


def _tok(color, hop, src, *, phase=1, subphase=1, pred=ORIGIN):
    return Token(color=color, phase=phase, subphase=subphase, hop=hop,
                 src=src, pred=pred)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_defaults_resolve():
    cfg = ExperimentConfig().validate()
    assert cfg.n == 1024 and cfg.d == 8
    assert cfg.resolved_phase_cap() == 100   # ceil(10 * log2(1024))


@pytest.mark.parametrize("kwargs,fragment", [
    ({"n": 2}, "n:"),
    ({"d": 7}, "d:"),
    ({"d": 4}, "d >= 8"),
    ({"epsilon": 0.0}, "epsilon"),
    ({"delta": 0.1}, "delta"),
    ({"delta": 1.5}, "delta"),
    ({"algorithm": "quantum"}, "algorithm"),
    ({"strategy": "zerg"}, "strategy"),
    ({"algorithm": 3}, "algorithm: need a string"),
    ({"engine": "steam"}, "engine"),
    ({"phase_cap": 0}, "phase_cap"),
    ({"trials": 0}, "trials"),
    ({"subphase_factor": 0}, "subphase_factor"),
    ({"subphase_factor": "round"}, "subphase_factor"),
    ({"band": (-1.0, 2.0)}, "band"),
    ({"band": (3.0, 2.0)}, "band"),
    ({"strategy": "max_injector", "strategy_params": {"magnitud": 9}}, "magnitud"),
    ({"strategy": "late_injector", "strategy_params": {"inject_round": 0}}, "inject_round"),
    ({"strategy": "max_injector", "strategy_params": {"magnitude": 0}}, "magnitude"),
    ({"strategy": "composite", "strategy_params": {"parts": [{"params": {}}]}}, "parts"),
    ({"strategy": "composite",
      "strategy_params": {"parts": {"name": "max_injector"}}}, "parts"),
    ({"strategy": "silent", "strategy_params": {"magnitude": 9}}, "magnitude"),
    ({"epsilon": "x"}, "epsilon: need a number"),
    ({"delta": "0.5"}, "delta: need a number"),
    ({"phase_cap": "3"}, "phase_cap: need an integer"),
    ({"n": 64, "seed": "a"}, "seed: need an integer"),
    ({"trials": True}, "trials: need an integer"),
    ({"relax_degree": "yes"}, "relax_degree"),
    ({"subphase_factor": 2.5}, "subphase_factor"),
    ({"band": ("0", 4.0)}, "band"),
    ({"n": 64, "seed": -1}, r"seed: need an integer in \[0, 2\^64\)"),
    ({"n": 64, "seed": 2**64}, r"seed: need an integer in \[0, 2\^64\)"),
])
def test_config_validation_errors(kwargs, fragment):
    with pytest.raises(ConfigError, match=fragment):
        ExperimentConfig(**kwargs).validate()


def test_seeds_at_the_ends_of_the_rng_range_are_accepted():
    for seed in (0, 2**64 - 1):
        ExperimentConfig(n=64, seed=seed).validate()


def test_relax_degree_admits_fixture_parameters():
    cfg = ExperimentConfig(n=6, d=2, delta=1.0, relax_degree=True).validate()
    assert cfg.d == 2


def test_from_dict_round_trip_and_unknown_field():
    cfg = ExperimentConfig.from_dict({"n": 64, "band": [1.0, 3.0], "seed": 4})
    assert cfg.n == 64 and cfg.band == (1.0, 3.0)
    # the paper fixes alpha and both radii by formula: none is a config field
    for name, value in (("flux_capacitor", 1), ("alpha_variant", "prose"),
                        ("a_radius", 2), ("tree_radius", 2)):
        with pytest.raises(ConfigError, match=f"unknown fields {name}"):
            ExperimentConfig.from_dict({"n": 64, name: value})


@pytest.mark.parametrize("n,byz,fragment", [
    (4096, None, "topo"),    # a 64-node topology under n=4096
    (64, [-1], "byz"),       # would mark node 63 Byzantine
    (64, [64], "byz"),       # would index past the node set
    (64, np.ones(63, dtype=bool), "length 64"),  # a mask one node short
])
def test_fixtures_must_fit_the_config(n, byz, fragment):
    topo = augment_small_world(generate_h_graph(64, 8, seed=0))
    cfg = ExperimentConfig(n=n, algorithm="byzantine", strategy="silent")
    with pytest.raises(ConfigError, match=fragment):
        run_experiment(cfg, topo=topo, byz=byz)


def test_a_placement_marks_each_node_once():
    # the digest of the placement given once, on both executors: a repeated
    # index must not make the fast path ask its node for injections twice,
    # and a boolean mask is not the index list [0, 1]
    byz = place_byzantine(256, 0.6, 7)
    mask = np.zeros(256, dtype=bool)
    mask[byz] = True
    for executor in ("fast", "reference"):
        cfg = ExperimentConfig(n=256, seed=2, algorithm="byzantine",
                               strategy="late_injector", engine=executor)
        for placement in (byz, np.concatenate([byz, byz]), mask):
            res = run_experiment(cfg, byz=placement)
            assert res.transcript_hash == "94e7d0b069b9877ba34ce51771b39304"
            np.testing.assert_array_equal(res.byz_mask, mask)


# ---------------------------------------------------------------------------
# message delivery
# ---------------------------------------------------------------------------

def test_deliver_round_moves_tokens_along_g_edges(path6):
    counters = SimpleNamespace(sent=0, dropped=0)
    assert deliver_round({}, path6, counters) == {}
    tok = _tok(3, 1, 0)
    inboxes = deliver_round({0: [(1, tok)]}, path6, counters)
    assert inboxes == {1: [tok]}
    assert (counters.sent, counters.dropped) == (1, 0)


def test_deliver_round_drops_spoofed_and_off_graph_messages(path6):
    counters = SimpleNamespace(sent=0, dropped=0)
    spoofed = _tok(3, 1, 5)                   # claims to come from node 5
    far = _tok(3, 1, 0)
    inboxes = deliver_round({0: [(1, spoofed), (4, far)]}, path6, counters)
    assert inboxes == {}
    assert counters.sent == 2 and counters.dropped == 2


def test_deliver_round_checks_the_g_row_beyond_h_ports():
    # path 0-1-2-3-4-5 with k=2: 2 is a G- but not an H-neighbor of 0
    topo = augment_small_world(
        HMultigraph.from_edges(6, 2, [(u, u + 1, 1) for u in range(5)]), k=2)
    counters = SimpleNamespace(sent=0, dropped=0)
    tok = _tok(3, 1, 0)
    for dst, msg, want, counts in ((2, tok, {2: [tok]}, (1, 0)),
                                   (3, tok, {}, (2, 1)),
                                   (1, _tok(3, 1, 2), {}, (3, 2))):
        assert deliver_round({0: [(dst, msg)]}, topo, counters) == want
        assert (counters.sent, counters.dropped) == counts


# ---------------------------------------------------------------------------
# metrics assembly
# ---------------------------------------------------------------------------

def _metrics(topo, decided, byz=(), band=(0.5, 4.0), labels=None):
    n = topo.n
    byz = np.array(sorted(byz), dtype=np.int64)
    byz_mask = np.zeros(n, dtype=bool)
    byz_mask[byz] = True
    if labels is None:
        cls = classify_nodes(topo, byz, delta=0.6)
        labels = np.where(byz_mask, "byz", np.where(cls.bus, "bus", "byz_safe"))
    return RunResult(
        config=ExperimentConfig(n=n, band=band).to_dict(), trial=0, trial_seed=1,
        node_ids=topo.h.ids, class_labels=np.asarray(labels),
        decided=np.asarray(decided, dtype=np.int64), crashed=np.zeros(n, dtype=bool),
        byz_mask=byz_mask, capped=False, rounds_total=5,
        messages_sent=10, messages_dropped=0,
        queries_total=0, tokens_rejected=0, per_phase=[], transcript_hash="f" * 8)


def test_success_fraction_full_and_empty(topo512):
    n = topo512.n
    lo = 0.5 * np.log2(n)
    all_in = _metrics(topo512, np.full(n, int(lo) + 1))
    assert all_in.success_fraction == 1.0
    none = _metrics(topo512, np.zeros(n, dtype=np.int64))
    assert none.success_fraction == 0.0
    assert none.non_deciders == n


def test_success_fraction_counts_only_the_band(topo512):
    n = topo512.n                     # band is [4.5, 36] at n=512
    decided = np.zeros(n, dtype=np.int64)
    decided[:256] = 5                 # in band
    decided[256:384] = 1              # decided, below the band
    out = _metrics(topo512, decided)
    assert out.success_fraction == pytest.approx(256 / 512)
    assert out.decided_fraction == pytest.approx(384 / 512)
    assert out.non_deciders == 128
    assert out.byz_safe_success_fraction is None   # blast radius covers all


def test_byz_safe_success_counts_byz_safe_deciders_only(topo512):
    n = topo512.n                     # band is [4.5, 36] at n=512
    labels = np.full(n, "bus", dtype="<U8")
    labels[:100] = "byz_safe"
    labels[500:] = "byz"
    decided = np.full(n, 5, dtype=np.int64)
    decided[:30] = 1                  # byz-safe, below the band
    decided[30:40] = 0                # byz-safe non-deciders stay out
    decided[100:] = 1                 # bus and byz nodes never count here
    out = _metrics(topo512, decided, byz=range(500, n), labels=labels)
    assert out.byz_safe_success_fraction == pytest.approx(60 / 90)
    assert out.success_fraction == pytest.approx(60 / 500)
    assert out.non_deciders == 10
    np.testing.assert_array_equal(out.estimates, decided[:500][decided[:500] > 0])


def test_class_labels_partition():
    out = run_experiment(ExperimentConfig(n=256, algorithm="byzantine",
                                          strategy="silent", delta=0.7))
    labels = set(out.class_labels.tolist())
    assert labels <= {"byz", "bus", "byz_safe"}
    np.testing.assert_array_equal(out.class_labels == "byz", out.byz_mask)
    assert out.byz_mask.any()


# ---------------------------------------------------------------------------
# executor equivalence
# ---------------------------------------------------------------------------

def _first_divergence(fast, ref):
    """Where two executors' ``_Run.fold`` records first differ, as text.

    Each record is (phase, subphase, k_rows, decided).  Returns None when
    the records agree, else the first (phase, subphase, row, node) whose
    k_rows or decided entry differs (rows k_1..k_i, then "decided").
    """
    for (pf, sf, kf, df), (pr, sr, kr, dr) in zip(fast, ref):
        if (pf, sf) != (pr, sr):
            return f"fold order: fast ({pf}, {sf}), reference ({pr}, {sr})"
        rows = [(f"k_{r}", kf[r], kr[r]) for r in range(1, len(kf))]
        for row, a, b in rows + [("decided", df, dr)]:
            diff = np.flatnonzero(a != b)
            if diff.size:
                v = int(diff[0])
                return (f"phase {pf}, subphase {sf}, row {row}, node {v}: "
                        f"fast {int(a[v])}, reference {int(b[v])}")
    if len(fast) != len(ref):
        return f"fast folded {len(fast)} subphases, reference {len(ref)}"
    return None


def _assert_executors_agree(**cfg):
    records, results = {}, {}
    real_fold = engine._Run.fold
    for name in ("fast", "reference"):
        def fold(run, phase, subphase, k_rows, _rec=records.setdefault(name, [])):
            _rec.append((phase, subphase, k_rows.copy(), run.decided.copy()))
            real_fold(run, phase, subphase, k_rows)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine._Run, "fold", fold)
            results[name] = run_experiment(ExperimentConfig(engine=name, **cfg))
    fast, ref = results["fast"], results["reference"]
    where = _first_divergence(records["fast"], records["reference"])
    assert fast.transcript_hash == ref.transcript_hash, where
    assert where is None, where
    np.testing.assert_array_equal(fast.decided, ref.decided)
    np.testing.assert_array_equal(fast.crashed, ref.crashed)
    assert fast.messages_sent == ref.messages_sent
    assert fast.queries_total == ref.queries_total
    assert fast.tokens_rejected == ref.tokens_rejected
    return records


def test_first_divergence_names_phase_subphase_row_and_node():
    k = np.zeros((3, 4), dtype=np.int64)
    dec = np.zeros(4, dtype=np.int64)
    rec = [(1, 1, k[:2], dec), (2, 1, k, dec), (2, 2, k, dec)]
    assert _first_divergence(rec, rec) is None
    k_off = k.copy()
    k_off[2, 3] = 7
    dec_off = dec.copy()
    dec_off[1] = 2
    other = [rec[0], (2, 1, k, dec_off), (2, 2, k_off, dec)]
    assert _first_divergence(rec, other) == (
        "phase 2, subphase 1, row decided, node 1: fast 0, reference 2")
    assert _first_divergence(rec[:2] + [(2, 2, k_off, dec)], rec) == (
        "phase 2, subphase 2, row k_2, node 3: fast 7, reference 0")
    assert _first_divergence(rec, rec[:2]) == "fast folded 3 subphases, reference 2"
    assert _first_divergence(rec, [rec[0], (2, 2, k, dec)]).startswith("fold order")


def test_first_divergence_is_silent_on_an_agreeing_config():
    records = _assert_executors_agree(n=72, algorithm="byzantine",
                                      strategy="max_injector", delta=0.7, seed=1)
    assert len(records["fast"]) == len(records["reference"]) > 0
    assert _first_divergence(records["fast"], records["reference"]) is None


@pytest.mark.parametrize("algorithm", ["basic", "byzantine"])
@pytest.mark.parametrize("strategy", ["none", "max_injector", "late_injector",
                                      "topology_liar"])
def test_fast_and_reference_executors_agree(algorithm, strategy):
    _assert_executors_agree(n=72, algorithm=algorithm, strategy=strategy,
                            delta=0.7, seed=1)


LIAR_MAX = {"parts": [{"name": "topology_liar"}, {"name": "max_injector"}]}
GRID_STRATEGIES = {"none": {}, "silent": {}, "max_injector": {},
                   "topology_liar": {}, "composite": LIAR_MAX}


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([64, 96, 128]),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       algorithm=st.sampled_from(["basic", "byzantine"]),
       strategy=st.sampled_from(sorted(GRID_STRATEGIES)))
def test_executors_agree_on_a_grid(n, seed, algorithm, strategy):
    _assert_executors_agree(n=n, seed=seed, algorithm=algorithm, strategy=strategy,
                            strategy_params=GRID_STRATEGIES[strategy])


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: the fast path accepts, unverified, honest-to-honest "
    "tokens whose chain runs back into a late injection"))
def test_executors_agree_under_late_injection():
    _assert_executors_agree(n=128, seed=4, algorithm="byzantine",
                            strategy="late_injector")


@pytest.mark.parametrize("strategy", ["topology_liar", "max_injector", "composite"])
def test_executors_agree_at_n512(strategy):
    _assert_executors_agree(n=512, seed=0, algorithm="byzantine", strategy=strategy,
                            strategy_params=GRID_STRATEGIES[strategy])


def test_executors_agree_at_n1024():
    _assert_executors_agree(n=1024, seed=0, algorithm="byzantine", strategy="composite",
                            strategy_params=LIAR_MAX)


def test_executors_agree_on_an_irregular_tree(tree_d8):
    # the leaves have degree 1, so under the hardened protocol every honest
    # node hearing a leaf's report crashes in both executors
    topo = augment_small_world(tree_d8)
    for algorithm, strategy in (("basic", "none"), ("byzantine", "none"),
                                ("byzantine", "max_injector")):
        results = {}
        for engine in ("fast", "reference"):
            cfg = ExperimentConfig(n=tree_d8.n, algorithm=algorithm,
                                   strategy=strategy, seed=3, engine=engine)
            results[engine] = run_experiment(cfg, topo=topo)
        fast, ref = results["fast"], results["reference"]
        assert fast.transcript_hash == ref.transcript_hash
        np.testing.assert_array_equal(fast.decided, ref.decided)
        np.testing.assert_array_equal(fast.crashed, ref.crashed)
        assert fast.messages_sent == ref.messages_sent
        assert fast.queries_total == ref.queries_total
        assert (fast.crashed_honest > 0) == (algorithm == "byzantine")


@pytest.mark.parametrize("strategy,byz,crashed", [
    ("none", None, [1, 4]),           # the ends hear only degree-2 reports
    ("silent", np.array([0]), [4]),   # a silent end sends no report at all
])
def test_executors_agree_on_who_hears_a_short_report(path6, strategy, byz, crashed):
    results = {}
    for engine in ("fast", "reference"):
        cfg = ExperimentConfig(n=6, d=2, relax_degree=True, algorithm="byzantine",
                               strategy=strategy, seed=3, engine=engine)
        results[engine] = run_experiment(cfg, topo=path6, byz=byz)
    fast, ref = results["fast"], results["reference"]
    assert fast.transcript_hash == ref.transcript_hash
    assert np.flatnonzero(fast.crashed).tolist() == crashed
    np.testing.assert_array_equal(fast.crashed, ref.crashed)


LIAR_LATE = {"parts": [{"name": "topology_liar"}, {"name": "late_injector"}]}


PINNED_FAST = [
    (dict(n=1024, seed=3, algorithm="basic", strategy="none"),
     "cb7a6c0b80d91fb32701a221e4554211"),
    (dict(n=512, seed=1, algorithm="basic", strategy="late_injector"),
     "e297da02410606be6d6330222a40eb62"),
    (dict(n=512, seed=2, algorithm="basic", strategy="late_injector",
          subphase_factor="phase"), "4d4724e2c3ec428ecf6a6ff07aaabb6a"),
    (dict(n=512, seed=1, algorithm="basic", strategy="max_injector"),
     "b8ee7dea1bcaddefdfd4f0ca582a6e5d"),
    (dict(n=512, seed=4, algorithm="basic", strategy="max_injector",
          strategy_params={"magnitude": 300}), "c9497f850769779cb3ff08e7c39b35e1"),
    (dict(n=512, seed=1, algorithm="byzantine", strategy="none"),
     "34f38f95daa78a1f12a1207e1d3caa6a"),
    (dict(n=512, seed=2, algorithm="byzantine", strategy="silent"),
     "764f8d8a43bff0217fdccc3ab59f8552"),
    (dict(n=512, seed=3, algorithm="byzantine", strategy="max_injector"),
     "f34a892295be018fd98ebc1068f810ed"),
    (dict(n=512, seed=5, algorithm="byzantine", strategy="late_injector",
          subphase_factor="phase"), "ceae2ed1df6dad0539b4c0f520a63b94"),
    (dict(n=1024, seed=1, algorithm="byzantine", strategy="composite",
          strategy_params=LIAR_LATE), "7f9c2dba77805f1332a9b30f2c4e658e"),
    # a color too large for the int32 verifying key: the int64 key
    (dict(n=512, seed=0, algorithm="byzantine", strategy="max_injector",
          strategy_params={"magnitude": 2**40}), "4298e653bbb3bb1fdcc5ba53a4c7e307"),
]


@pytest.mark.parametrize("cfg,digest", PINNED_FAST)
def test_fast_transcript_hashes_are_pinned(cfg, digest):
    # golden digests of the fast executor, covering the paths no reference
    # run checks at this size: replaces, extras (late_injector, where the
    # executors still disagree under the hardened protocol), the int64
    # basic state and multi-subphase phases
    assert run_experiment(ExperimentConfig(**cfg)).transcript_hash == digest


# uint8 columns of whole phases, an int32 verifying key, an int64 one
@pytest.mark.parametrize("cfg,digest", [PINNED_FAST[i] for i in (2, 7, 10)])
@pytest.mark.parametrize("inline,backlog,chunk", [
    (0, 1, 7),               # every item on the thread, alone, widened 7 at a time
    (0, 1 << 20, 1 << 15),   # every item on the thread
    (2**62, 1 << 20, 1),     # every item inline
])
def test_the_fold_thread_keeps_the_pinned_digests(cfg, digest, inline, backlog, chunk,
                                                  monkeypatch):
    monkeypatch.setattr(engine, "_FOLD_INLINE", inline)
    monkeypatch.setattr(engine, "_FOLD_BACKLOG", backlog)
    monkeypatch.setattr(engine, "_FOLD_CHUNK", chunk)
    assert run_experiment(ExperimentConfig(**cfg)).transcript_hash == digest


# ---------------------------------------------------------------------------
# shared claim tables in the reference setup
# ---------------------------------------------------------------------------

LIAR_MAX_128 = dict(n=128, seed=0, algorithm="byzantine", strategy="composite",
                    strategy_params=LIAR_MAX, engine="reference")


def _fresh_reports(run, v):
    """The claim tables ``v`` hears, each tallied afresh from what its
    sender sends: a lie, nothing (silent) or its real H row."""
    reports = {}
    for u in run.topo.l_neighbors(v).tolist():
        rep = None
        if run.byz_mask[u]:
            if not run.strategy.sends_reports:
                continue
            rep = run.strategy.setup_report(u, v)
        reports[u] = claim_table(rep if rep is not None else run.truthful_report(u))
    return reports


def _assert_setup_matches_fresh_tallies(run):
    """A full setup's crashes and views equal those of reconstructing
    each node from fresh tallies, every report length-checked."""
    run.run_setup(full=True)
    assert run.crashed.any()
    for v in range(run.n):
        # no trusted set: every report's length is summed, every pair scanned
        res = reconstruct_local_topology(
            v, claim_table(run.truthful_report(v)), _fresh_reports(run, v), run.k,
            expected_degree=run.d)
        conflict = isinstance(res, TopologyConflict)
        assert run.crashed[v] == (conflict and not run.byz_mask[v])
        assert (v in run.views) == (not conflict)
        if not conflict:
            view = run.views[v]
            assert view.members == res.members
            for a in view.members:
                for b in view.members:
                    assert view.h_adjacent(a, b) == res.h_adjacent(a, b)


def test_shared_claim_tables_reconstruct_like_fresh_tallies():
    _assert_setup_matches_fresh_tallies(engine._Run(ExperimentConfig(**LIAR_MAX_128), trial=0))


def test_short_real_rows_crash_like_fresh_tallies(tree_d8):
    # the setup checks a real row's length from H's degrees, once per sender
    cfg = ExperimentConfig(n=tree_d8.n, seed=3, algorithm="byzantine",
                           strategy="max_injector", engine="reference")
    _assert_setup_matches_fresh_tallies(
        engine._Run(cfg, trial=0, topo=augment_small_world(tree_d8)))


def _record_reconstructions(mp, calls):
    """Make the engine's ``reconstruct_local_topology`` record its
    (center, own, reports, trusted) arguments in ``calls``."""
    real = engine.reconstruct_local_topology

    def recorded(center, own, reports, k, expected_degree=None, trusted=frozenset()):
        calls.append((center, own, reports, trusted))
        return real(center, own, reports, k, expected_degree=expected_degree,
                    trusted=trusted)

    mp.setattr(engine, "reconstruct_local_topology", recorded)


def _check_shared_tables(run, calls):
    assert len(calls) == run.n
    truth = {v: claim_table(run.truthful_report(v)) for v in range(run.n)}
    held = {}  # truthful sender -> ids of the table objects receivers got
    for center, own, reports, trusted in calls:
        assert center in trusted
        for u in trusted:
            table = own if u == center else reports[u]
            # read after the run, so a write to a shared table would show
            assert table == truth[u]
            held.setdefault(u, set()).add(id(table))
    assert held.keys() == set(range(run.n))  # each node trusts itself
    assert all(len(ids) == 1 for ids in held.values())
    # every view holds its center's own table by reference, not a copy
    views = [(run.views[c], c, own) for c, own, _, _ in calls if c in run.views]
    assert views and all(view.tables[c] is own for view, c, own in views)


def test_shared_claim_tables_are_never_mutated():
    cfg = ExperimentConfig(**LIAR_MAX_128)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        _record_reconstructions(mp, calls)
        run = engine._Run(cfg, trial=0)
        run.run_setup(full=True)
    _check_shared_tables(run, calls)

    # and the reference executor's whole run leaves them as they were
    calls.clear()
    runs = []

    class Recorded(engine._Run):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runs.append(self)

    with pytest.MonkeyPatch.context() as mp:
        _record_reconstructions(mp, calls)
        mp.setattr(engine, "_Run", Recorded)
        run_experiment(cfg)
    _check_shared_tables(runs[0], calls)


def test_relayed_token_names_the_smallest_equal_sender(monkeypatch):
    # on a 6-cycle, Byzantine node 0 hears color 5 from both neighbors 1
    # and 5 and relays it in round 2 with the smaller sender as predecessor
    h = HMultigraph.from_edges(6, 2, [(u, (u + 1) % 6, 1) for u in range(6)])
    seen = []
    real = engine.verify_color_provenance

    def spy(view, tok, query):
        seen.append(tok)
        return real(view, tok, query)

    monkeypatch.setattr(engine, "verify_color_provenance", spy)
    simulate_subphase(augment_small_world(h, k=1), 2,
                      colors=[1, 5, 1, 1, 1, 5], byz=np.array([0]),
                      strategy="honest_mimic", relax_degree=True)
    assert {(t.color, t.pred) for t in seen if t.hop == 2} == {(5, 1)}


def _honest_subphase(topo, phase, colors):
    """One honest subphase driven node by node through ``honest_node_step``:
    (flood messages sent, [k_1 row, ..., k_phase row])."""
    h = topo.h
    states = [NodeState(node=v, ports=tuple(h.neighbors(v).tolist())) for v in range(h.n)]
    counters = engine._Counters()
    inboxes = {}
    for t in range(1, phase + 2):
        outboxes = {}
        for v in range(h.n):
            ctx = RoundContext(phase=phase, subphase=1, t=t, flood_rounds=phase,
                               threshold=0.0, own_color=colors[v] if t == 1 else None)
            states[v], out = honest_node_step(states[v], inboxes.get(v, ()), ctx)
            if out:
                outboxes[v] = out
        inboxes = deliver_round(outboxes, topo, counters)
    rows = [[st.k_values.get(r, 0) for st in states] for r in range(1, phase + 1)]
    return counters.sent, rows


def test_scripted_colors_below_one_originate_nothing():
    # honest_node_step sends no round-1 token for a color below 1, so the
    # fast path counts none either: 14 flood messages on the 6-cycle
    h = HMultigraph.from_edges(6, 2, [(u, (u + 1) % 6, 1) for u in range(6)])
    topo = augment_small_world(h, k=1)
    colors, phase = [-1, 3, 0, 1, 1, 2], 2
    setup_reports = int(topo.l_ptr[-1])
    sent, ref_rows = _honest_subphase(topo, phase, colors)
    assert (sent, setup_reports) == (14, 12)
    for algorithm in ("basic", "byzantine"):
        trace = simulate_subphase(topo, phase, colors=colors, threshold=0.0,
                                  algorithm=algorithm, relax_degree=True)
        assert trace.messages_sent == sent + setup_reports
        assert trace.k_rows[1:].tolist() == ref_rows


def test_scripted_colors_must_be_integers():
    h = HMultigraph.from_edges(6, 2, [(u, (u + 1) % 6, 1) for u in range(6)])
    topo = augment_small_world(h, k=1)
    for bad in ([1.9, 3.7, 0.5, 1, 1, 2], [1, 2, float("nan"), 1, 1, 1],
                [1, 2, float("inf"), 1, 1, 1], ["1", "2", "3", "1", "1", "1"]):
        with pytest.raises(ValueError, match="integers"):
            simulate_subphase(topo, 2, colors=bad, algorithm="basic", relax_degree=True)
    whole = simulate_subphase(topo, 2, colors=[1.0, 3.0, 0.0, 1.0, 1.0, 2.0],
                              algorithm="basic", relax_degree=True)
    ints = simulate_subphase(topo, 2, colors=[1, 3, 0, 1, 1, 2],
                             algorithm="basic", relax_degree=True)
    np.testing.assert_array_equal(whole.k_rows, ints.k_rows)


# ---------------------------------------------------------------------------
# the flood kernel: state dtype and per-subphase columns
# ---------------------------------------------------------------------------

def _phase_dtypes(monkeypatch):
    """Spy on ``_fast_flood``: the dtype of every flood's state, in order."""
    seen = []
    real = engine._fast_flood

    def spy(*args, **kwargs):
        k_rows = real(*args, **kwargs)
        seen.append(k_rows.dtype)
        return k_rows

    monkeypatch.setattr(engine, "_fast_flood", spy)
    return seen


def test_basic_phases_with_small_colors_run_in_uint8(monkeypatch):
    seen = _phase_dtypes(monkeypatch)
    _assert_executors_agree(n=96, seed=5, algorithm="basic", strategy="max_injector")
    assert seen and set(seen) == {np.dtype(np.uint8)}


def test_an_injected_color_of_300_widens_the_basic_state(monkeypatch):
    # max_injector replaces its round-1 color with 300 in every subphase
    seen = _phase_dtypes(monkeypatch)
    records = _assert_executors_agree(n=96, seed=5, algorithm="basic",
                                      strategy="max_injector",
                                      strategy_params={"magnitude": 300})
    assert seen and set(seen) == {np.dtype(np.int32)}
    assert max(int(k.max()) for _, _, k, _ in records["fast"]) == 300


def test_a_scripted_color_of_256_widens_the_basic_state(monkeypatch):
    seen = _phase_dtypes(monkeypatch)
    h = HMultigraph.from_edges(6, 2, [(u, (u + 1) % 6, 1) for u in range(6)])
    topo = augment_small_world(h, k=1)
    colors, phase = [1, 256, 255, 0, 3, 1], 2
    trace = simulate_subphase(topo, phase, colors=colors, threshold=0.0,
                              algorithm="basic", relax_degree=True)
    sent, ref_rows = _honest_subphase(topo, phase, colors)
    assert seen == [np.dtype(np.int32)]
    assert trace.k_rows[1:].tolist() == ref_rows
    assert trace.k_rows.max() == 256
    assert trace.messages_sent == sent + int(topo.l_ptr[-1])


def test_basic_executors_agree_on_multi_subphase_phases_with_extras(monkeypatch):
    # late_injector sends its extras at round k >= 2, not replace injections,
    # so a column mix-up in the phase kernel shows as a (phase, subphase)
    delivered = []
    real = engine._delivered_extras

    def spy(run, b, inj):
        hit = real(run, b, inj)
        delivered.extend(hit)
        return hit

    monkeypatch.setattr(engine, "_delivered_extras", spy)
    records = _assert_executors_agree(n=128, seed=2, algorithm="basic",
                                      strategy="late_injector")
    assert delivered
    assert any(subphase > 1 for _, subphase, _, _ in records["fast"])


@pytest.mark.parametrize("algorithm", ["basic", "byzantine"])
def test_an_extra_that_reaches_no_one_is_only_counted(algorithm):
    # node 3 aims an extra at itself, outside its own G-row, every round
    topo = augment_small_world(generate_h_graph(64, 8, seed=1))
    cfg = ExperimentConfig(n=64, seed=1, algorithm=algorithm)
    colors = engine._Run(cfg, 0, topo=topo).colors(2, 1)
    k_rows = {}
    for script in ({}, {(t, 3): [Injection(color=5, pred=0, targets=(3,))] for t in (1, 2, 3)}):
        run = engine._Run(cfg, 0, topo=topo, byz=np.array([3]))
        run.strategy = _Scripted(script)
        k_rows[len(script)] = engine._fast_flood(run, 2, [1], False, 1.0, colors[:, None])
        assert run.counters.dropped == len(script)
    np.testing.assert_array_equal(k_rows[0], k_rows[3])


# ---------------------------------------------------------------------------
# the narrow Byzantine correction against the sorted-inbox rule
# ---------------------------------------------------------------------------

def _sorted_inbox_round(run, hop, send, extras, verify):
    """The verifying round of the fast path before the narrow correction,
    kept verbatim as the reference: a colour gather with a first-port
    tie-break, touched nodes from a gather over all n, and one sorted
    inbox per hot node.  Returns (recv_col, recv_src)."""
    n, k = run.n, run.k
    cnt = run.counters
    h = run.topo.h
    ports = h.ports
    byz, crashed, supp = run.byz_mask, run.crashed, run.suppressed
    proc = ~crashed & ~supp
    send_mask, send_color, send_pred = send
    masked = np.zeros(n + 1, dtype=np.int64)
    byz_send = np.zeros(n + 1, dtype=bool)
    cols = np.arange(n)

    np.multiply(send_color, send_mask, out=masked[:n])
    np.maximum(masked, 0, out=masked)
    gathered = masked[ports]
    top = gathered.max(axis=0)
    for (_, dv, c, _) in extras:
        if c > top[dv]:
            top[dv] = c
    recv_col = np.where(proc, top, 0)

    # min-sender tie-break: the first port (ports are sorted) whose
    # color is the top; a top brought only by an extra finds none
    first = (gathered == top).argmax(axis=0)
    recv_src = np.where((top >= 1) & (gathered[first, cols] == top),
                        ports[first, cols], n)
    for (s, dv, c, _) in extras:
        if c == top[dv] and s < recv_src[dv]:
            recv_src[dv] = s

    wl = min(hop, k) - 1
    byz_send[:n] = byz & send_mask
    touched = byz_send[ports].any(axis=0)
    for (_, dv, _, _) in extras:
        touched[dv] = True
    for v in run.lie_rx_set:
        touched[v] = True
    auto = proc & ~touched & (top >= 1)
    cnt.queries += wl * int(auto.sum())

    hot = touched & proc
    if hot.any():
        inbox_map: dict[int, list[tuple[int, int, int]]] = {}
        for v in np.flatnonzero(hot):
            row = h.neighbors(v)
            row = row[send_mask[row]]
            inbox_map[int(v)] = [
                (int(c), int(s), int(p)) for s, c, p
                in zip(row, send_color[row], send_pred[row])]
        for s, dv, c, p in extras:
            if dv in inbox_map:
                inbox_map[dv].append((c, s, p))
        for v, items in inbox_map.items():
            items.sort(key=lambda x: (-x[0], x[1]))
            acc_c, acc_s = 0, n
            for c, s, p in items:
                if byz[s] or v in run.lie_rx_set:
                    if verify(v, c, s, p):
                        acc_c, acc_s = c, s
                        break
                    cnt.rejected += 1
                else:
                    cnt.queries += wl
                    acc_c, acc_s = c, s
                    break
            recv_col[v] = acc_c
            recv_src[v] = acc_s
    return recv_col, recv_src


class _Scripted(AdversaryStrategy):
    """Injections read from a {(round, node): [Injection, ...]} script."""

    def __init__(self, script):
        super().__init__()
        self.script = script

    def injections_for(self, node, ctx):
        return self.script.get((ctx.t, node), [])


@st.composite
def _correction_cases(draw):
    n = draw(st.integers(4, 11))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]),
                          min_size=n, max_size=3 * n))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=6))  # parallel edges
    h = HMultigraph.from_edges(n, 2, [(u, v, 1) for u, v in pairs])
    roles = draw(st.lists(st.sampled_from("hhhbbcl"), min_size=n, max_size=n))
    phase = draw(st.integers(1, 4))
    color = st.integers(-2, 5)
    script = {}
    for t in range(1, phase + 2):
        for b in (v for v in range(n) if roles[v] == "b"):
            injs = []
            if draw(st.booleans()):
                injs.append(Injection(color=draw(color), pred=draw(st.integers(-1, n - 1)),
                                      replace=True))
            for _ in range(draw(st.integers(0, 2))):
                # a tie with the replace broadcast on (color, sender), or not
                tie = injs and injs[0].replace and draw(st.booleans())
                injs.append(Injection(
                    color=injs[0].color if tie else draw(color),
                    pred=draw(st.integers(-1, n - 1)),
                    targets=draw(st.none() | st.tuples(node, node))))
            script[(t, b)] = injs
    return dict(
        h=h, k=draw(st.integers(1, 3)), roles=roles, phase=phase, script=script,
        colors=draw(st.lists(st.integers(1, 5) | st.integers(-1, 5),
                             min_size=n, max_size=n)),
        salt=draw(st.integers(0, 2**16)))


def _compare_with_sorted_inbox(real, salt):
    """A stand-in for ``engine._correct_round`` that runs it and the
    reference on the same round and asserts the same outcome: recv_col,
    recv_src where a node processes, the query and rejection deltas and
    the sequence of verify calls."""
    def checked(run, hop, key, recv_col, recv_src, send, ext, verify, masks):
        calls = {"new": [], "ref": []}

        def recording(side):
            def fake(v, c, s, p):
                calls[side].append((v, c, s, p))
                return hash((salt, v, c, s, p)) % 2 == 0
            return fake

        cnt = run.counters
        before = cnt.queries, cnt.rejected
        send_mask, send_color, send_pred = send
        extras = [tuple(row) for row in ext.T.tolist()]
        ref_col, ref_src = _sorted_inbox_round(run, hop, (send_mask[:run.n], send_color, send_pred),
                                               extras, recording("ref"))
        ref_delta = cnt.queries - before[0], cnt.rejected - before[1]
        cnt.queries, cnt.rejected = before
        real(run, hop, key, recv_col, recv_src, send, ext, recording("new"), masks)
        assert calls["new"] == calls["ref"]
        assert (cnt.queries - before[0], cnt.rejected - before[1]) == ref_delta
        np.testing.assert_array_equal(recv_col, ref_col)
        proc = ~run.crashed & ~run.suppressed
        np.testing.assert_array_equal(recv_src[proc], ref_src[proc])
    return checked


@settings(max_examples=200, deadline=None)
@given(case=_correction_cases())
def test_narrow_correction_equals_the_sorted_inbox_rule(case):
    # random small multigraphs (parallel edges, isolated nodes), Byzantine
    # nodes that relay, replace (colors <= 0 too) and inject extras that
    # may tie their broadcast; crashed nodes, lie receivers, scripted
    # honest colors below 1, and a verifier that fails about half the calls
    h, roles = case["h"], case["roles"]
    n = h.n
    cfg = ExperimentConfig(n=n, d=2, relax_degree=True, delta=1.0,
                           algorithm="byzantine")
    byz = np.array([v for v in range(n) if roles[v] == "b"], dtype=np.int64)
    run = engine._Run(cfg, 0, topo=augment_small_world(h, k=case["k"]), byz=byz)
    run.strategy = _Scripted(case["script"])
    run.crashed[[v for v in range(n) if roles[v] == "c"]] = True
    run.lie_rx_set = {v for v in range(n) if roles[v] == "l"}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_correct_round", _compare_with_sorted_inbox(
            engine._correct_round, case["salt"]))
        engine._fast_flood(run, case["phase"], [1], False, 0.0,
                           np.array(case["colors"], dtype=np.int64)[:, None])


# at n=128 (bits = 8) the key c·2^8 + n fits int32 up to c = 2^23 − 1
@pytest.mark.parametrize("magnitude,dtype", [(2**23 - 1, np.int32), (2**23, np.int64)])
def test_executors_agree_on_both_sides_of_the_int32_key(magnitude, dtype, monkeypatch):
    chosen = []
    real = engine._key_dtype
    monkeypatch.setattr(engine, "_key_dtype", lambda *a: chosen.append(real(*a)) or chosen[-1])
    _assert_executors_agree(n=128, seed=0, algorithm="byzantine", strategy="max_injector",
                            strategy_params={"magnitude": magnitude})
    assert chosen and set(chosen) == {dtype}


def test_executors_agree_on_a_uint8_verifying_key(monkeypatch):
    # at n=24 (bits = 5) the key c·2^5 + n fits uint8 up to c = 7, so most
    # subphases flood in uint8 and the rest in int32
    chosen = []
    real = engine._key_dtype
    monkeypatch.setattr(engine, "_key_dtype", lambda *a: chosen.append(real(*a)) or chosen[-1])
    _assert_executors_agree(n=24, seed=3, algorithm="byzantine", strategy="max_injector",
                            strategy_params={"magnitude": 3})
    assert set(chosen) == {np.uint8, np.int32}


def test_colors_too_large_for_the_verifying_key_are_a_config_error():
    huge = {"magnitude": 2**60}
    with pytest.raises(ConfigError, match="color"):
        run_experiment(ExperimentConfig(n=64, algorithm="byzantine", seed=1,
                                        strategy="max_injector", strategy_params=huge))
    run_experiment(ExperimentConfig(n=64, algorithm="basic", seed=1,
                                    strategy="max_injector", strategy_params=huge))
    h = HMultigraph.from_edges(6, 2, [(u, (u + 1) % 6, 1) for u in range(6)])
    with pytest.raises(ConfigError, match="color"):
        simulate_subphase(augment_small_world(h, k=1), 2, colors=[1, 2**60, 1, 1, 1, 1],
                          relax_degree=True)


def test_the_transcript_hashes_in_order_under_fast_thread_switches(monkeypatch):
    # four runs' transcripts at once, on two cores, switching threads every
    # microsecond: items alternate between inline and queued, wait for
    # backlog room and widen across chunk edges, and the digest must be
    # that of hashing the same bytes inline, integers as int64
    monkeypatch.setattr(engine, "_FOLD_BACKLOG", 3000)
    monkeypatch.setattr(engine, "_FOLD_CHUNK", 64)
    monkeypatch.setattr(engine, "_FOLD_INLINE", 1500)
    rng = np.random.default_rng(0)
    dtypes = (np.uint8, np.int32, np.int64, bool)
    items = [(struct.pack("<q", k), *(rng.integers(0, 100, size=int(rng.integers(0, 400)))
                                       .astype(dtypes[int(rng.integers(0, 4))])
                                       for _ in range(2)))
             for k in range(300)]
    want = hashlib.blake2b(digest_size=16)
    for pieces in items:
        for piece in pieces:
            want.update(piece.astype(np.int64) if getattr(piece, "dtype", bool) != bool else piece)
    digests, overfull = {}, []

    def run(k):
        transcript = engine._Transcript()
        try:
            for pieces in items:
                transcript.update(*pieces)
                held = sum(memoryview(p).nbytes for p in pieces)
                if transcript._backlog > max(engine._FOLD_BACKLOG, held):
                    overfull.append(transcript._backlog)
            digests[k] = transcript.hexdigest()
        finally:
            transcript.close()

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for t in runs:
            t.start()
        for t in runs:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in runs)
    assert digests == dict.fromkeys(range(4), want.hexdigest())
    assert not overfull


@pytest.mark.parametrize("case", ["hardened run", "run raising mid-flood", "one subphase"])
def test_no_fold_thread_outlives_a_run(case, monkeypatch):
    # every item goes to the thread, however small
    monkeypatch.setattr(engine, "_FOLD_INLINE", 0)
    queued = []
    real = engine._Transcript.update

    def update(self, *pieces, **kwargs):
        real(self, *pieces, **kwargs)
        queued.append((pieces[0], self._thread is not None))

    monkeypatch.setattr(engine._Transcript, "update", update)
    before = threading.active_count()
    if case == "hardened run":
        run_experiment(ExperimentConfig(n=128, seed=1, algorithm="byzantine",
                                        strategy="max_injector"))
    elif case == "run raising mid-flood":
        # the setup fold is queued, then the first flood's key check raises
        with pytest.raises(ConfigError, match="color"):
            run_experiment(ExperimentConfig(n=128, seed=1, algorithm="byzantine",
                                            strategy="max_injector",
                                            strategy_params={"magnitude": 2**60}))
        assert [first for first, _ in queued] == [b"setup"]
    else:
        simulate_subphase(augment_small_world(generate_h_graph(64, 8, seed=0)), 3)
    assert queued and all(started for _, started in queued)
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# accounting identities
# ---------------------------------------------------------------------------

def test_message_conservation_and_round_totals():
    cfg = ExperimentConfig(n=256, algorithm="byzantine", delta=0.6,
                           strategy="late_injector", seed=2)
    res = run_experiment(cfg)
    assert res.messages_sent == res.messages_delivered + res.messages_dropped
    assert res.rounds_total == sum(p["rounds"] for p in res.per_phase)
    k = 3
    for p in res.per_phase:
        i, sub = p["phase"], p["subphases"]
        assert p["rounds"] == sub * (i + i * 2 * (k - 1))


def test_basic_rounds_have_no_verification_overhead():
    res = run_experiment(ExperimentConfig(n=256, algorithm="basic", seed=2))
    for p in res.per_phase:
        assert p["rounds"] == p["subphases"] * p["phase"]
        assert p["queries"] == 0
    assert res.queries_total == 0


def test_runs_are_deterministic():
    for algorithm in ("basic", "byzantine"):
        cfg = ExperimentConfig(n=128, algorithm=algorithm, delta=0.7, seed=3)
        a, b = run_experiment(cfg), run_experiment(cfg)
        assert a.transcript_hash == b.transcript_hash
        np.testing.assert_array_equal(a.decided, b.decided)


def test_trials_use_distinct_seeds():
    cfg = ExperimentConfig(n=128, trials=3, seed=0, algorithm="basic")
    results = run_trials(cfg)
    assert len(results) == 3
    assert len({r.trial_seed for r in results}) == 3
    assert [r.trial for r in results] == [0, 1, 2]
    again = run_trials(cfg)
    for a, b in zip(results, again):
        assert a.transcript_hash == b.transcript_hash


# ---------------------------------------------------------------------------
# all-honest behaviour at scale
# ---------------------------------------------------------------------------

def test_honest_runs_decide_in_band():
    for seed in range(5):
        res = run_experiment(ExperimentConfig(n=1024, algorithm="basic",
                                              seed=seed))
        sm = res.to_summary()
        assert sm["success_fraction"] >= 0.9
        assert 3 <= sm["median_estimate"] <= 10


def test_estimate_grows_with_network_size():
    def med(n):
        vals = [run_experiment(
            ExperimentConfig(n=n, algorithm="byzantine", delta=0.6,
                             strategy="honest_mimic", seed=s)
        ).to_summary()["median_estimate"] for s in range(3)]
        return float(np.median(vals))

    small, large = med(1024), med(16384)
    assert 1.1 <= large / small <= 1.8


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------

def test_csv_and_json_outputs(tmp_path):
    cfg = ExperimentConfig(n=64, algorithm="byzantine", delta=0.7,
                           strategy="topology_liar", trials=2, seed=1)
    results = run_trials(cfg)
    csv_path, json_path = tmp_path / "trials.csv", tmp_path / "summary.json"
    write_trial_csv(results, str(csv_path))
    write_summary_json(results, str(json_path))

    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial", "node_id", "class", "decided", "estimate",
                       "crashed"]
    assert len(rows) == 1 + 2 * 64
    for row in rows[1:]:
        assert row[2] in {"byz", "bus", "byz_safe"}
        assert row[3] in {"True", "False"}
        if row[3] == "False":
            assert row[4] == ""          # no estimate for non-deciders

    summaries = json.loads(json_path.read_text())
    assert len(summaries) == 2
    for sm in summaries:
        assert sm["config"]["n"] == 64
        assert set(sm) >= {"success_fraction", "rounds_total",
                           "messages_total", "queries_total",
                           "transcript_hash"}


# to_summary() of four fast configs without an injector, as sha256 of its
# JSON (key order included): a capped run where every node is a
# non-decider, crashed honest nodes, success below 1, silent nodes
SUMMARY_DIGESTS = [
    (dict(n=300, algorithm="basic", phase_cap=2), "d8ebe03a8c68fcda"),
    (dict(n=256, algorithm="byzantine", strategy="topology_liar", delta=0.7),
     "de24a51d15e8420a"),
    (dict(n=256, algorithm="byzantine", strategy="honest_mimic", delta=0.4,
          band=(0.5, 1.0)), "a9ed4426c9f1769e"),
    (dict(n=512, algorithm="byzantine", strategy="silent", delta=0.7),
     "92b40a8279a4445e"),
]


@pytest.mark.parametrize("kwargs,digest", SUMMARY_DIGESTS)
def test_summary_json_is_pinned(kwargs, digest):
    summary = run_experiment(ExperimentConfig(**kwargs)).to_summary()
    got = hashlib.sha256(json.dumps(summary).encode()).hexdigest()[:16]
    assert got == digest, summary
