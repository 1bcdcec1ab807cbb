"""byzcount benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload honest_sweep --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, untraced and traced
    python3 perfbench/run.py --workload attacked_large --seed 0 --record

The metric names and units come from BENCHMARK.json next to this
directory: ``--trace 0`` reports its ``end_to_end`` metrics and
``--trace 1`` its ``per_layer`` metrics.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it list the same metrics for people, plus
``failed_frac``, ``executor_mismatches`` and every trial's transcript hash.

Each run starts ``worker.py`` in fresh single-threaded processes:
``SETUP_RUNS`` that only set up, then one that sets up and measures.
``setup_s`` is the median time from starting a worker until it reports
that the first trial can start, corrected for the host's speed as the
worker's probe saw it during set-up (see ``speedprobe.py``).  ``--record``
pins the run's transcript hashes for that workload and seed in
``hashes.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_RUNS = 6
WORKER_TIMEOUT_S = 170
# One thread per worker: the machine has two cores and the workloads are
# measured one at a time, so BLAS/OpenMP pools would only add noise.
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


def start_worker(args: list[str]) -> tuple[subprocess.Popen, float, float]:
    """Start a worker; return it, and the seconds it took to report READY
    both as measured and corrected for the host's speed."""
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args],
                            stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    word, _, probe = line.partition(" ")
    if word != "READY":
        finish(proc)
        raise BenchError(f"worker did not start (exit code {proc.returncode})")
    probe = json.loads(probe)
    return proc, setup_s, (setup_s - probe["probe_s"]) / probe["slowdown"]


def finish(proc: subprocess.Popen) -> str:
    """Wait for a worker and return the rest of its output; kill it on timeout."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker ran past {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 record: bool = False) -> dict:
    """Measure one workload; return the worker's report plus ``setup_s``."""
    if not (ROOT / "src" / "byzcount" / "__init__.py").is_file():
        raise BenchError(f"no byzcount sources under {ROOT / 'src'}")
    base = ["--workload", workload, "--seed", str(seed)]
    if record:
        base.append("--record")
    raw, setups = [], []
    for _ in range(SETUP_RUNS - 1):
        proc, setup_raw, setup_s = start_worker(base + ["--setup-only"])
        finish(proc)
        raw.append(setup_raw)
        setups.append(setup_s)
    proc, setup_raw, setup_s = start_worker(base + ["--seconds", str(seconds),
                                                    "--trace", str(trace)])
    raw.append(setup_raw)
    setups.append(setup_s)
    report = json.loads(finish(proc).strip().splitlines()[-1])
    report["setups_raw"] = raw
    report["setups"] = setups
    report["setup_s"] = statistics.median(setups)
    return report


def pick_metrics(report: dict, specs: list[dict]) -> dict:
    values = dict(report, **report.get("per_layer", {}))
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        raise BenchError(f"worker did not report {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def describe(workload: str, seed: int, trace: int, report: dict, metrics: dict) -> None:
    pin = "pinned" if report["pinned"] else "not pinned; printed for comparison"
    print(f"== {workload}  seed {seed}  trace {trace}  passes {report['passes']}")
    print("   set-up runs, measured (s): " + " ".join(f"{s:.3f}" for s in report["setups_raw"]))
    print("   set-up runs, corrected (s): " + " ".join(f"{s:.3f}" for s in report["setups"]))
    print("   untraced pass walls, measured (s): "
          + " ".join(f"{w:.3f}" for w in report["walls"]))
    print(f"   fastest trial times summed, measured: {report['raw_wall_s']:.4f} s; "
          f"mean host slowdown {report['slowdown']:.3f}")
    print(f"   transcript hashes ({pin}):")
    for key, h in report["hashes"].items():
        print(f"     {h}  {key}")
    for name, m in metrics.items():
        print(f"   {name:<46} {m['value']:.6g} {m['unit']}")
    frac = report["failed"] / report["attempted"]
    print(f"   {'failed_frac':<46} {frac:.6g} ({report['failed']}/{report['attempted']})")
    if "executor_mismatches" not in metrics:
        print(f"   {'executor_mismatches':<46} {report['executor_mismatches']} count")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name from BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="pin this run's transcript hashes for the workload and seed")
    args = ap.parse_args(argv)
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if args.workload == "all":
            runs = [(w, t) for w in names for t in (0, 1)]
        elif args.workload in names:
            runs = [(args.workload, args.trace)]
        else:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
        results = []
        for workload, trace in runs:
            report = run_workload(workload, args.seed, seconds, trace, args.record)
            metrics = pick_metrics(report, spec["per_layer" if trace else "end_to_end"])
            describe(workload, args.seed, trace, report, metrics)
            results.append((workload, report, metrics))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        metrics = results[0][2]
    else:
        metrics = {f"{w}.{name}": m for w, _, ms in results for name, m in ms.items()}
    attempted = sum(r["attempted"] for _, r, _ in results)
    failed = sum(r["failed"] for _, r, _ in results)
    correct = failed == 0 and all(r["counts_repeat"] for _, r, _ in results)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
