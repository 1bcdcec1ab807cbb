"""Batch front end: graph generation, single runs, sweeps, aggregation.

Exit codes: 0 success, 2 I/O trouble, 3 configuration trouble, 4
internal error.  ``BYZCOUNT_OUTDIR`` sets the default output directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from statistics import median

import numpy as np

from .engine import (
    NODE_CSV_FIELDS,
    ConfigError,
    ExperimentConfig,
    run_trials,
    write_summary_json,
    write_trial_csv,
    _integer,
    honest_estimates,
)
from .graph import augment_small_world, generate_h_graph, save_topology
from .rng import stream

EXIT_OK = 0
EXIT_IO = 2
EXIT_CONFIG = 3
EXIT_INTERNAL = 4

_SWEEP_LIST_FIELDS = ("n", "d", "delta", "epsilon", "strategy", "algorithm")
# config fields a sweep holds fixed: one value shared by every cell
_SWEEP_SCALAR_FIELDS = ("strategy_params", "engine", "subphase_factor", "phase_cap")
_SWEEP_FIELDS = (_SWEEP_LIST_FIELDS + _SWEEP_SCALAR_FIELDS
                 + ("trials", "seed", "cell_cap", "out"))


def _outdir() -> str:
    return os.environ.get("BYZCOUNT_OUTDIR", ".")


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    out = args.out or os.path.join(_outdir(), f"h_{args.n}_{args.d}_{args.seed}.txt")
    h = generate_h_graph(args.n, args.d, seed=args.seed)
    topo = augment_small_world(h)
    save_topology(topo, out)
    print(f"wrote {out}: n={h.n} d={h.d} k={topo.k} edges={h.edges.shape[0]}")
    return EXIT_OK


def _resolve_run_config(args) -> ExperimentConfig:
    data = _load_json(args.config)
    cfg = ExperimentConfig.from_dict(data)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.trials is not None:
        cfg.trials = args.trials
    return cfg.validate()


def cmd_run(args) -> int:
    cfg = _resolve_run_config(args)
    if args.dry_run:
        print(json.dumps(cfg.to_dict(), indent=2))
        return EXIT_OK
    out = args.out or os.path.join(_outdir(), "run")
    results = run_trials(cfg)
    write_trial_csv(results, out + ".csv")
    write_summary_json(results, out + ".summary.json")
    mean_decided = sum(r.decided_fraction for r in results) / len(results)
    print(f"wrote {out}.csv and {out}.summary.json "
          f"({cfg.trials} trial(s), mean decided {mean_decided:.3f})")
    return EXIT_OK


def _sweep_integer(value, name: str, least: int = 1) -> int:
    """A sweep-level field, checked by the engine's integer rule."""
    if not _integer(value) or value < least:
        raise ConfigError(f"{name}: need an integer >= {least}, got {value!r}")
    return value


def _sweep_cells(spec: dict) -> list[dict]:
    lists = {}
    for name in _SWEEP_LIST_FIELDS:
        val = spec.get(name)
        if val is None:
            continue
        if not isinstance(val, list) or not val:
            raise ConfigError(f"{name}: sweep fields must be non-empty lists")
        lists[name] = val
    if "n" not in lists:
        raise ConfigError("n: a sweep needs at least a list of sizes")
    cells = [{}]
    for name, values in lists.items():
        cells = [dict(cell, **{name: v}) for cell in cells for v in values]
    return cells


def cmd_sweep(args) -> int:
    spec = _load_json(args.config)
    if not isinstance(spec, dict):
        raise ConfigError("sweep: expected a JSON object")
    unknown = sorted(set(spec) - set(_SWEEP_FIELDS))
    if unknown:
        raise ConfigError(f"sweep: unknown fields {', '.join(unknown)}")
    cap = _sweep_integer(spec.get("cell_cap", 256), "cell_cap")
    root_seed = _sweep_integer(args.seed if args.seed is not None else spec.get("seed", 0),
                               "seed", least=0)
    trials = _sweep_integer(args.trials if args.trials is not None else spec.get("trials", 1),
                            "trials")
    if "out" in spec and not (isinstance(spec["out"], str) and spec["out"]):
        raise ConfigError(f"out: need a non-empty string, got {spec['out']!r}")
    cells = _sweep_cells(spec)
    if len(cells) > cap:
        raise ConfigError(f"sweep: {len(cells)} cells exceed the cap {cap}")
    out = args.out or spec.get("out") or os.path.join(_outdir(), "sweep")

    fixed = {name: spec[name] for name in _SWEEP_SCALAR_FIELDS if name in spec}
    defaults = ExperimentConfig()
    rows = []
    for idx, cell in enumerate(cells):
        cell_seed = int(stream(root_seed, "cell", idx).integers(0, 2**31 - 1))
        data = dict(fixed, **cell, seed=cell_seed, trials=trials)
        row = {"cell": idx}
        row.update({name: data.get(name, getattr(defaults, name))
                    for name in _SWEEP_LIST_FIELDS})
        row.update(trials=trials, cell_seed=cell_seed)
        try:
            results = run_trials(ExperimentConfig.from_dict(data))
        except Exception as exc:  # mark the cell, keep sweeping; metrics stay empty
            row.update(status=f"failed: {exc}")
            rows.append(row)
            continue
        ests = [e for r in results for e in r.estimates.tolist()]
        safe_ests = [e for r in results for e in honest_estimates(
            r.class_labels != "byz_safe", r.crashed, r.decided)[1].tolist()]
        q1, q3 = (np.percentile(ests, [25, 75]) if ests else (math.nan, math.nan))
        row.update(
            status="ok",
            est_median=median(ests) if ests else "",
            est_q1=float(q1) if ests else "",
            est_q3=float(q3) if ests else "",
            decided_mean=sum(r.decided_fraction for r in results) / len(results),
            byz_safe_est_median=median(safe_ests) if safe_ests else "",
            rounds_mean=sum(r.rounds_total for r in results) / len(results),
            crashed_honest_mean=sum(r.crashed_honest for r in results) / len(results),
        )
        rows.append(row)

    header = ["cell", *_SWEEP_LIST_FIELDS, "trials", "cell_seed", "status",
              "est_median", "est_q1", "est_q3", "decided_mean",
              "byz_safe_est_median", "rounds_mean", "crashed_honest_mean"]
    with open(out + ".csv", "w", newline="") as fh:
        fh.write("# sweep " + json.dumps({"spec": spec, "seed": root_seed,
                                          "trials": trials}) + "\n")
        w = csv.DictWriter(fh, fieldnames=header)
        w.writeheader()
        w.writerows(rows)
    failed = sum(1 for r in rows if r["status"] != "ok")
    print(f"wrote {out}.csv: {len(rows)} cells, {failed} failed")
    return EXIT_OK


# (column, check, what it needs) for each per-node CSV column analyze reads
_ROW_RULES = (
    ("trial", str.isdecimal, "an integer >= 0"),
    ("decided", ("True", "False").__contains__, "True or False"),
    ("crashed", ("True", "False").__contains__, "True or False"),
    ("class", ("byz", "bus", "byz_safe").__contains__, "one of byz, bus, byz_safe"),
)


def _data_lines(fh, where: list):
    """The lines of ``fh`` that are not ``#`` comments; ``where[0]`` holds
    the file line number of the last one yielded."""
    for where[0], line in enumerate(fh, start=1):
        if not line.startswith("#"):
            yield line


def _node_row(rec: dict) -> tuple[int, bool, bool, int]:
    """(trial, Byzantine, crashed, estimate or 0) of one per-node CSV row;
    a malformed row is a ValueError naming what is wrong with it."""
    if None in rec or None in rec.values():
        raise ValueError("missing or extra field: need one value per header column")
    for name, ok, need in _ROW_RULES:
        if not ok(rec[name]):
            raise ValueError(f"{name}: need {need}, got {rec[name]!r}")
    decided, est = rec["decided"] == "True", rec["estimate"]
    if decided and not (est.isdecimal() and int(est) >= 1):
        raise ValueError(f"estimate: a decider needs an integer >= 1, got {est!r}")
    return (int(rec["trial"]), rec["class"] == "byz", rec["crashed"] == "True",
            int(est) if decided else 0)


def cmd_analyze(args) -> int:
    out = args.out or os.path.join(_outdir(), "analysis.csv")
    rows = []
    for path in args.inputs:
        per_trial: dict[int, list] = {}
        with open(path) as fh:
            where = [0]
            reader = csv.DictReader(_data_lines(fh, where))
            if not set(NODE_CSV_FIELDS) <= set(reader.fieldnames or ()):
                raise ConfigError(f"{path}: not a per-node run CSV "
                                  f"(need columns {', '.join(NODE_CSV_FIELDS)})")
            for rec in reader:
                try:
                    trial, *rest = _node_row(rec)
                except ValueError as exc:
                    raise ConfigError(f"{path}, line {where[0]}: {exc}") from None
                per_trial.setdefault(trial, []).append(rest)
        for t, recs in sorted(per_trial.items()):
            byz, crashed, decided = (np.array(col) for col in zip(*recs))
            alive, ests = honest_estimates(byz, crashed, decided)
            rows.append({
                "file": os.path.basename(path), "trial": t,
                "nodes": len(recs), "byz": int(byz.sum()),
                "decided_fraction": ests.size / alive if alive else 0.0,
                "median_estimate": median(ests.tolist()) if ests.size else "",
                "crashed": int(crashed.sum()),
            })
    with open(out, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["file", "trial", "nodes", "byz",
                                           "decided_fraction", "median_estimate",
                                           "crashed"])
        w.writeheader()
        w.writerows(rows)
    print(f"wrote {out}: {len(rows)} rows from {len(args.inputs)} file(s)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="byzcount",
        description="Byzantine-resilient counting experiments on small-world expanders")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a topology file")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--d", type=int, default=8)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")
    g.set_defaults(func=cmd_gen)

    r = sub.add_parser("run", help="run one experiment config")
    r.add_argument("--config", required=True, help="JSON experiment config")
    r.add_argument("--out", help="output base path (.csv / .summary.json)")
    r.add_argument("--seed", type=int)
    r.add_argument("--trials", type=int)
    r.add_argument("--dry-run", action="store_true",
                   help="print the resolved config and exit")
    r.set_defaults(func=cmd_run)

    s = sub.add_parser("sweep", help="run a cross-product of configs")
    s.add_argument("--config", required=True, help="JSON sweep spec")
    s.add_argument("--out", help="output base path (.csv)")
    s.add_argument("--seed", type=int)
    s.add_argument("--trials", type=int)
    s.set_defaults(func=cmd_sweep)

    a = sub.add_parser("analyze", help="aggregate run CSVs into a summary table")
    a.add_argument("inputs", nargs="+", help="run CSV files")
    a.add_argument("--out")
    a.set_defaults(func=cmd_analyze)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"byzcount: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, json.JSONDecodeError, ValueError) as exc:
        print(f"byzcount: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover - safety net
        print(f"byzcount: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
