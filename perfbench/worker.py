"""Run one benchmark workload in a fresh process and report what it measured.

``run.py`` starts this script once per workload and run.  The script
imports byzcount from the checkout's ``src``, builds the workload's trial
list from ``--seed``, prints ``READY`` (the end of set-up) with the
set-up's probe figures, then repeats the trial list until ``--seconds`` are
used up and prints one JSON line with the measurements.  ``--setup-only``
stops after ``READY``.

A ``SpeedProbe`` samples the host's speed from the start of the script, and
every trial's time is corrected for it (see ``speedprobe.py``).  ``wall_s``
sums, over the trial list, each trial's fastest corrected time across the
untraced passes.

Every trial's transcript hash is checked: against the pinned hash in
``hashes.json`` when that seed is pinned, and otherwise against the first
pass of the same run.  With ``--trace 1`` untraced and traced passes
alternate, and the traced hashes are checked the same way.  ``--record``
checks only that the passes agree, then pins their hashes in ``hashes.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from speedprobe import SpeedProbe
from tracer import ENGINE_SPANS, STRATEGY_HOOKS, Tracer, traced_layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "hashes.json"
OUT = HERE / "out"

LIAR_LATE = {"parts": [{"name": "topology_liar"}, {"name": "late_injector"}]}
LIAR_MAX = {"parts": [{"name": "topology_liar"}, {"name": "max_injector"}]}


def config_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.blake2b(f"{workload}/{seed}/{index}".encode(), digest_size=4)
    return int.from_bytes(digest.digest(), "little")


def build_trials(workload: str, seed: int, config_cls) -> list[tuple[str, object]]:
    """The workload's fixed trial list: (key, ExperimentConfig) pairs."""
    trials = []
    if workload == "honest_sweep":
        for i, n in enumerate(2**e for e in range(10, 15)):
            s = config_seed(workload, seed, i)
            trials.append((f"basic n={n} seed={s}", config_cls(
                n=n, d=8, seed=s, algorithm="basic", strategy="none",
                subphase_factor="phase")))
    elif workload == "attacked_large":
        s = config_seed(workload, seed, 0)
        trials.append((f"liar+late n=65536 seed={s}", config_cls(
            n=2**16, seed=s, delta=0.6, algorithm="byzantine",
            strategy="composite", strategy_params=LIAR_LATE)))
    elif workload == "reference_check":
        # The first case is the known executor divergence; it stays in the
        # list whatever the seed, so a fix shows as a drop in mismatches.
        cases = [("late", 128, 4, "late_injector", {})]
        for i, (label, n, strategy, params) in enumerate([
                ("late", 128, "late_injector", {}),
                ("late", 256, "late_injector", {}),
                ("liar+max", 128, "composite", LIAR_MAX),
                ("liar+max", 256, "composite", LIAR_MAX)]):
            cases.append((label, n, config_seed(workload, seed, i), strategy, params))
        for label, n, s, strategy, params in cases:
            for engine in ("fast", "reference"):
                trials.append((f"{label} n={n} seed={s} {engine}", config_cls(
                    n=n, seed=s, algorithm="byzantine", strategy=strategy,
                    strategy_params=params, engine=engine)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return trials


def executor_mismatches(hashes: dict[str, str | None]) -> int:
    """Cases whose fast and reference transcript hashes differ."""
    return sum(1 for key, h in hashes.items()
               if key.endswith(" fast") and hashes.get(key[:-4] + "reference") != h)


def run_pass(engine, trials) -> dict:
    """Run every trial once; a trial that raises gets hash None."""
    hashes: dict[str, str | None] = {}
    spans: dict[str, tuple[float, float]] = {}
    work = dict.fromkeys(("messages", "queries", "rejected", "rounds", "subphases"), 0)
    start = time.perf_counter()
    for key, cfg in trials:
        t0 = time.perf_counter()
        try:
            res = engine.run_experiment(cfg)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            hashes[key] = None
            continue
        spans[key] = (t0, time.perf_counter())
        hashes[key] = res.transcript_hash
        work["messages"] += res.messages_sent
        work["queries"] += res.queries_total
        work["rejected"] += res.tokens_rejected
        work["rounds"] += res.rounds_total
        work["subphases"] += sum(p["subphases"] for p in res.per_phase)
    wall = time.perf_counter() - start
    gc.collect()
    return {"wall": wall, "spans": spans, "hashes": hashes, "work": work}


def best_wall(passes: list[dict[str, float]]) -> float:
    """Sum over trials of each trial's fastest time in ``passes``."""
    keys = set().union(*passes)
    return sum(min(p[k] for p in passes if k in p) for k in keys)


def layer_metrics(tracer, work: dict) -> dict:
    spans = tracer.summary()
    names = list(ENGINE_SPANS.values()) + [f"adversary.{h}" for h in STRATEGY_HOOKS]
    out = {}
    for name in names:
        row = spans.get(name, {"calls": 0, "s": 0.0})
        out[f"{name}.s"] = row["s"]
        out[f"{name}.calls"] = row["calls"]
    out["engine.self_s"] = spans.get("engine.run_experiment", {}).get("self_s", 0.0)
    out["graph.l_bytes"] = 0
    out["protocol.verify_color_provenance.accepted"] = 0
    out["protocol.reconstruct_local_topology.conflicts"] = 0
    out.update(tracer.counts)
    out.update({f"engine.{k}": v for k, v in work.items()})
    return out


class Checker:
    """Counts trials that raised or whose hash differs from the expected one."""

    def __init__(self, pinned: dict[str, str]):
        self.expected = dict(pinned)
        self.attempted = 0
        self.failed = 0

    def check(self, hashes: dict[str, str | None]) -> None:
        for key, h in hashes.items():
            self.attempted += 1
            if h is None or self.expected.setdefault(key, h) != h:
                self.failed += 1


def load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.is_file() else {}


def record_pins(workload: str, seed: int, checker: Checker) -> None:
    if checker.failed:
        sys.exit("passes disagree; refusing to pin their hashes")
    pins = load_pins()
    pins.setdefault(workload, {})[str(seed)] = checker.expected
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true",
                    help="check only that passes agree, then pin their hashes")
    args = ap.parse_args(argv)
    with SpeedProbe() as probe:
        return measure(args, probe)


def measure(args, probe: SpeedProbe) -> int:
    setup_start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import byzcount.engine as engine
    if not Path(engine.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"byzcount was imported from {engine.__file__}, not {SRC}")
    trials = build_trials(args.workload, args.seed, engine.ExperimentConfig)
    pinned = {}
    if not args.record:
        pinned = load_pins().get(args.workload, {}).get(str(args.seed), {})
    probe_s, slowdown = probe.stretch(setup_start, time.perf_counter())
    print("READY " + json.dumps({"probe_s": probe_s, "slowdown": slowdown}), flush=True)
    if args.setup_only:
        return 0

    checker = Checker(pinned)
    deadline = time.perf_counter() + args.seconds
    walls, trial_spans, traced_spans, layers = [], [], [], []
    first = None
    tracer_out = None
    while True:
        t0 = time.perf_counter()
        res = run_pass(engine, trials)
        checker.check(res["hashes"])
        first = first or res
        walls.append(res["wall"])
        trial_spans.append(res["spans"])
        if args.trace:
            tracer = Tracer()
            with traced_layers(tracer, engine):
                traced = run_pass(engine, trials)
            checker.check(traced["hashes"])
            traced_spans.append(traced["spans"])
            layers.append(layer_metrics(tracer, traced["work"]))
            tracer_out = tracer_out or tracer
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            break

    def corrected(passes):
        return [{k: probe.corrected(*span) for k, span in p.items()} for p in passes]

    wall_s = best_wall(corrected(trial_spans))
    result = {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "passes": len(walls),
        "walls": walls,
        "raw_wall_s": best_wall([{k: t1 - t0 for k, (t0, t1) in p.items()}
                                 for p in trial_spans]),
        "slowdown": probe.slowdown(),
        "hashes": checker.expected,
        "pinned": bool(pinned),
        "wall_s": wall_s,
        "msgs_per_s": first["work"]["messages"] / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "executor_mismatches": executor_mismatches(first["hashes"]),
        "counts_repeat": True,
    }
    if args.trace:
        # times are medians over traced passes; counts must repeat exactly
        times = {k for k in layers[0] if k.endswith((".s", "_s"))}
        per_layer = {k: statistics.median(row[k] for row in layers) if k in times
                     else layers[0][k] for k in layers[0]}
        per_layer["trace.overhead_s"] = best_wall(corrected(traced_spans)) - wall_s
        per_layer["executor_mismatches"] = result["executor_mismatches"]
        result["counts_repeat"] = all(row[k] == layers[0][k] for row in layers
                                      for k in layers[0] if k not in times)
        result["per_layer"] = per_layer
        OUT.mkdir(exist_ok=True)
        tracer_out.save(str(OUT / f"spans-{args.workload}-seed{args.seed}.json"))
    if args.record:
        record_pins(args.workload, args.seed, checker)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
