"""Tooling guards.

The benchmark tracer in ``perfbench/`` patches byzcount by attribute name.
It is loaded here read-only, so a refactor that renames or drops one of the
names it wraps, or the small-world table fields it measures, fails Tier-1
instead of breaking traced benchmark runs.

The package's only runtime dependency is numpy: scipy and networkx serve the
tests as oracles, and importing byzcount must not pay for them.  Nor must it
pay for ``concurrent.futures`` (10–13 ms of import, a few percent of a
benchmark worker's set-up): the transcript fold runs on a plain
``threading.Thread``, and ``threading`` is loaded by numpy already.

The demos that read a ``RunResult`` run to completion, so a change to what
it offers cannot silently break them.  README's list of run-config fields
must name ``ExperimentConfig``'s fields in order, so a field added or
deleted there cannot leave the docs stale.

The ``reference_check`` workload's seed-0 trials must give the transcript
hashes pinned in ``perfbench/hashes.json``.  No other test pins the
reference executor's hardened late_injector transcripts, so without this a
change to the reference path could move them unnoticed until a benchmark
run.  The ``attacked_large`` trials of seeds 0–2 are checked the same way:
they are the only pinned runs of the hardened fast path at n = 2^16, where
the liar's lie receivers crash in setup.  So are the
``honest_sweep`` seed-0 trials, the only pinned runs of the basic protocol
at n = 2^10..2^14.
"""

import dataclasses
import importlib.util
import os
import re
import subprocess
import sys
import tomllib
from collections import Counter
from pathlib import Path

import pytest

from byzcount import engine
from byzcount.adversary import CompositeStrategy
from byzcount.graph import generate_h_graph

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
WORKER = ROOT / "perfbench" / "worker.py"


def _src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _loaded_by_import(modules: tuple[str, ...]) -> str:
    code = f"import sys, byzcount; print([m for m in {modules!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), check=True,
                         capture_output=True, text=True, timeout=60)
    return out.stdout.strip()


def test_import_loads_neither_scipy_nor_networkx():
    assert _loaded_by_import(("scipy", "networkx")) == "[]"


def test_import_loads_no_concurrent_futures():
    # the fold thread is a plain threading.Thread
    assert _loaded_by_import(("concurrent.futures",)) == "[]"


# 01_topology.py reads no RunResult and alone takes about as long as the rest
@pytest.mark.parametrize("demo", ["02_basic_counting.py", "03_byzantine_defense.py",
                                  "04_baseline_fragility.py", "05_scaling_sweep.py"])
def test_demo_runs(demo):
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=_src_env(),
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr


def test_numpy_is_the_only_runtime_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [d.split(">")[0] for d in project["dependencies"]] == ["numpy"]
    assert any(d.startswith("scipy") for d in project["optional-dependencies"]["test"])


def test_readme_lists_the_run_config_fields():
    text = " ".join((ROOT / "README.md").read_text().split())
    lead = "Run configs are JSON objects with `ExperimentConfig` fields:"
    listing = text.split(lead, 1)[1].split(";", 1)[0]
    assert re.findall(r"`(\w+)`", listing) == \
        [f.name for f in dataclasses.fields(engine.ExperimentConfig)]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_spans_name_engine_attributes():
    tracer = _load_tracer()
    missing = [attr for attr in tracer.ENGINE_SPANS
               if not callable(getattr(engine, attr, None))]
    assert missing == []
    assert callable(engine.make_strategy)


def test_tracer_counts_only_the_hooks_a_trial_calls(monkeypatch):
    # validate() builds a throwaway strategy through engine.make_strategy,
    # the name the tracer wraps; only the strategy a trial runs may add spans
    tracer = _load_tracer()
    cfg = engine.ExperimentConfig(
        n=128, seed=1, trials=2, algorithm="byzantine", strategy="composite",
        strategy_params={"parts": [{"name": "topology_liar"}, {"name": "late_injector"}]})
    untraced = Counter()
    for hook in tracer.STRATEGY_HOOKS:
        def counted(self, *args, _real=getattr(CompositeStrategy, hook), _hook=hook):
            untraced[_hook] += 1
            return _real(self, *args)
        monkeypatch.setattr(CompositeStrategy, hook, counted)
    plain = engine.run_trials(cfg)
    monkeypatch.undo()

    tr = tracer.Tracer()
    with tracer.traced_layers(tr, engine):
        traced = engine.run_trials(cfg)
    spans = tr.summary()
    assert spans["adversary.prepare"]["calls"] == cfg.trials
    assert {h: spans[f"adversary.{h}"]["calls"] for h in tracer.STRATEGY_HOOKS} == untraced
    assert all(untraced[h] > 0 for h in tracer.STRATEGY_HOOKS)
    assert [r.transcript_hash for r in traced] == [r.transcript_hash for r in plain]


def test_augment_result_has_the_measured_tables():
    topo = engine.augment_small_world(generate_h_graph(64, 8, seed=0))
    for name in ("l_ptr", "l_idx"):
        assert isinstance(getattr(topo, name).nbytes, int)
    tracer = _load_tracer()
    tr = tracer.Tracer()
    tracer._note_l_bytes(tr, topo)
    assert tr.counts["graph.l_bytes"] == topo.l_ptr.nbytes + topo.l_idx.nbytes > 0


def test_reference_run_calls_the_traced_layers_through_the_engine(monkeypatch):
    # the tracer times these layers by swapping engine's module globals, so
    # the reference executor must keep calling them through those names;
    # its conflict count is the number of TopologyConflict results
    calls = Counter()
    for name in ("reconstruct_local_topology", "deliver_round",
                 "byzantine_node_step", "verify_color_provenance"):
        def counted(*args, _real=getattr(engine, name), _name=name, **kwargs):
            calls[_name] += 1
            result = _real(*args, **kwargs)
            if isinstance(result, engine.TopologyConflict):
                calls["conflicts"] += 1
            return result
        monkeypatch.setattr(engine, name, counted)
    cfg = engine.ExperimentConfig(n=64, seed=1, algorithm="byzantine",
                                  strategy="max_injector", engine="reference")
    res = engine.run_experiment(cfg)
    rounds = sum(p["subphases"] * (p["phase"] + 1) for p in res.per_phase)
    assert calls["reconstruct_local_topology"] == 64
    assert calls["deliver_round"] == rounds
    assert calls["byzantine_node_step"] == 64 * rounds
    assert calls["verify_color_provenance"] > 0
    assert calls["conflicts"] == 0

    calls.clear()
    res = engine.run_experiment(engine.ExperimentConfig(
        n=64, seed=1, algorithm="byzantine", strategy="topology_liar",
        engine="reference"))
    assert calls["reconstruct_local_topology"] == 64
    # honest nodes crash only at setup, each on one conflict
    assert calls["conflicts"] == res.crashed_honest > 0


def _assert_pins(monkeypatch, workload: str, size: int, seed: int = 0) -> None:
    """Run ``workload``'s trials of ``seed``; compare with ``hashes.json``, read only."""
    monkeypatch.syspath_prepend(str(WORKER.parent))  # the worker imports its siblings
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    pinned = worker.load_pins()[workload][str(seed)]
    trials = worker.build_trials(workload, seed, engine.ExperimentConfig)
    assert len(trials) == len(pinned) == size
    assert {key: engine.run_experiment(cfg).transcript_hash for key, cfg in trials} == pinned


def test_reference_check_seed_0_gives_the_pinned_hashes(monkeypatch):
    _assert_pins(monkeypatch, "reference_check", 10)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_attacked_large_gives_the_pinned_hash(monkeypatch, seed):
    _assert_pins(monkeypatch, "attacked_large", 1, seed)


def test_honest_sweep_seed_0_gives_the_pinned_hashes(monkeypatch):
    _assert_pins(monkeypatch, "honest_sweep", 5)
