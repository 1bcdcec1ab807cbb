"""Tests for the benchmark's tracer, speed probe and trial checks.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import signal
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from speedprobe import REF_S, SpeedProbe  # noqa: E402
from tracer import ENGINE_SPANS, Tracer, traced_layers  # noqa: E402
from worker import Checker, best_wall, executor_mismatches  # noqa: E402


def add_span(tracer, name, start, end, parent=-1):
    tracer.name_ids.append(tracer._name_id(name))
    tracer.starts.append(start)
    tracer.ends.append(end)
    tracer.parents.append(parent)
    return len(tracer.starts) - 1


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    tr = Tracer()
    root = add_span(tr, "root", 0.0, 10.0)
    a = add_span(tr, "child", 1.0, 3.0, root)
    b = add_span(tr, "child", 2.0, 5.0, root)       # overlaps a: [1, 5] covered once
    add_span(tr, "grandchild", 3.0, 4.0, b)
    add_span(tr, "child", 8.0, 12.0, root)          # only [8, 10] lies inside root
    own = tr.self_times()
    assert own[root] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[a] == pytest.approx(2.0)
    assert own[b] == pytest.approx(3.0 - 1.0)
    summary = tr.summary()
    assert summary["child"]["calls"] == 3
    assert summary["child"]["s"] == pytest.approx(2.0 + 3.0 + 4.0)
    assert summary["grandchild"]["self_s"] == pytest.approx(1.0)


def test_wrapped_calls_nest_and_self_times_add_up():
    tr = Tracer()
    inner = tr.wrap("inner", lambda x: sum(range(x)))

    def outer_fn():
        return inner(20000) + inner(30000)

    outer = tr.wrap("outer", outer_fn)
    assert outer() == sum(range(20000)) + sum(range(30000))
    assert list(tr.parents) == [-1, 0, 0]
    rows = tr.summary()
    assert rows["inner"]["calls"] == 2
    assert rows["outer"]["self_s"] == pytest.approx(rows["outer"]["s"] - rows["inner"]["s"])
    assert rows["outer"]["self_s"] >= 0.0


def test_span_closes_when_the_call_raises():
    tr = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tr.wrap("boom", boom)()
    assert tr.ends[0] >= tr.starts[0] > 0.0
    assert tr._stack == []


def fake_engine():
    def make_strategy(name, params=None):
        return types.SimpleNamespace(prepare=lambda run: None,
                                     injections_for=lambda node, ctx: [],
                                     answer_query=lambda *a: None,
                                     setup_report=lambda node, rx: None)

    attrs = {attr: (lambda *a, **k: None) for attr in ENGINE_SPANS}
    return types.SimpleNamespace(make_strategy=make_strategy,
                                 TopologyConflict=type("TopologyConflict", (), {}),
                                 **attrs)


def test_every_wrapped_name_is_restored_even_after_an_error():
    engine = fake_engine()
    before = dict(vars(engine))
    tr = Tracer()
    with pytest.raises(RuntimeError):
        with traced_layers(tr, engine):
            assert all(getattr(engine, a) is not before[a] for a in ENGINE_SPANS)
            strategy = engine.make_strategy("x")
            strategy.prepare(None)
            raise RuntimeError("stop")
    assert vars(engine) == before
    assert tr.summary()["adversary.prepare"]["calls"] == 1


def test_traced_run_restores_engine_and_keeps_the_transcript():
    engine = pytest.importorskip("byzcount.engine")
    before = {attr: getattr(engine, attr) for attr in [*ENGINE_SPANS, "make_strategy"]}
    cfg = engine.ExperimentConfig(n=128, seed=2, algorithm="byzantine",
                                  strategy="late_injector")
    plain = engine.run_experiment(cfg).transcript_hash
    tr = Tracer()
    with traced_layers(tr, engine):
        traced = engine.run_experiment(cfg).transcript_hash
    assert traced == plain
    assert {attr: getattr(engine, attr) for attr in before} == before
    rows = tr.summary()
    assert rows["engine.run_experiment"]["calls"] == 1
    assert rows["adversary.injections_for"]["calls"] > 0
    assert rows["protocol.verify_color_provenance"]["calls"] > 0
    run = rows["engine.run_experiment"]
    assert 0.0 <= run["self_s"] <= run["s"]


def test_checker_counts_raised_pinned_and_unsteady_trials():
    ck = Checker({"a": "h1"})
    ck.check({"a": "h1", "b": "h2", "c": None})
    ck.check({"a": "zz", "b": "h3", "c": "h4"})
    assert (ck.attempted, ck.failed) == (6, 3)
    assert ck.expected == {"a": "h1", "b": "h2", "c": "h4"}


def test_executor_mismatches_pairs_fast_with_reference():
    hashes = {"x n=1 fast": "a", "x n=1 reference": "a",
              "y n=1 fast": "b", "y n=1 reference": "c"}
    assert executor_mismatches(hashes) == 1


def test_best_wall_sums_each_trials_fastest_pass():
    passes = [{"a": 2.0, "b": 5.0}, {"a": 3.0, "b": 4.0}, {"b": 6.0}]
    assert best_wall(passes) == pytest.approx(6.0)


def test_speed_probe_corrects_for_probe_time_and_slowdown():
    probe = SpeedProbe()
    probe.starts = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    probe.durations = [2 * REF_S] * 6
    inside, slowdown = probe.stretch(0.9, 2.1)
    assert inside == pytest.approx(6 * REF_S)
    assert slowdown == pytest.approx(2.0)
    assert probe.corrected(0.9, 2.1) == pytest.approx((1.2 - 6 * REF_S) / 2)


def test_speed_probe_samples_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.durations) >= 3
    assert probe.slowdown() > 0
