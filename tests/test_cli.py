"""Command-line front end, exercised in-process through main(argv)."""

import csv
import json
from statistics import median

import numpy as np
import pytest

from byzcount import cli
from byzcount.engine import honest_estimates
from byzcount.graph import generate_h_graph, load_topology
from byzcount.rng import stream


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_writes_a_loadable_topology(tmp_path, capsys):
    out = tmp_path / "g.txt"
    rc = cli.main(["gen", "--n", "16", "--d", "2", "--seed", "0",
                   "--out", str(out)])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 16                     # header plus n*d/2 edges
    loaded = load_topology(str(out))
    np.testing.assert_array_equal(loaded.h.edges,
                                  generate_h_graph(16, 2, seed=0).edges)


def test_gen_bad_path_is_io_error(tmp_path):
    rc = cli.main(["gen", "--n", "16", "--d", "2",
                   "--out", str(tmp_path / "no" / "such" / "dir" / "g.txt")])
    assert rc == cli.EXIT_IO


def test_gen_rejects_bad_parameters():
    assert cli.main(["gen", "--n", "16", "--d", "3", "--out", "/dev/null"]) \
        == cli.EXIT_CONFIG


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_gen_rejects_seeds_outside_the_rng_range(tmp_path, seed):
    out = tmp_path / "g.txt"
    assert cli.main(["gen", "--n", "16", "--d", "2", "--seed", seed, "--out", str(out)]) \
        == cli.EXIT_CONFIG
    assert not out.exists()


def test_gen_honours_outdir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BYZCOUNT_OUTDIR", str(tmp_path))
    rc = cli.main(["gen", "--n", "12", "--d", "2"])
    assert rc == 0
    assert (tmp_path / "h_12_2_0.txt").exists()


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_writes_csv_and_summary(tmp_path, capsys):
    config = _write(tmp_path / "cfg.json",
                    {"n": 64, "algorithm": "basic", "trials": 2, "seed": 1})
    out = tmp_path / "result"
    rc = cli.main(["run", "--config", config, "--out", str(out)])
    assert rc == 0
    with open(f"{out}.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 2 * 64
    summaries = json.loads((tmp_path / "result.summary.json").read_text())
    assert len(summaries) == 2 and summaries[0]["config"]["n"] == 64


def test_run_dry_run_prints_resolved_config(tmp_path, capsys):
    config = _write(tmp_path / "cfg.json", {"n": 64, "seed": 3})
    rc = cli.main(["run", "--config", config, "--dry-run"])
    assert rc == 0
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["n"] == 64 and resolved["seed"] == 3
    assert resolved["algorithm"] == "basic"
    assert list(tmp_path.glob("*.csv")) == []       # nothing written


def test_run_flag_overrides_beat_the_file(tmp_path, capsys):
    config = _write(tmp_path / "cfg.json", {"n": 64, "seed": 3})
    rc = cli.main(["run", "--config", config, "--seed", "9", "--dry-run"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 9


@pytest.mark.parametrize("file_seed,flag", [(-1, []), (2**64, []), (3, ["--seed", "-1"])])
def test_run_rejects_seeds_outside_the_rng_range(tmp_path, capsys, file_seed, flag):
    # masked into [0, 2^64), 2^64 would run seed 0's trials and -1 seed 2^64 - 1's
    config = _write(tmp_path / "cfg.json", {"n": 64, "seed": file_seed})
    assert cli.main(["run", "--config", config, "--dry-run", *flag]) == cli.EXIT_CONFIG
    assert "seed: need an integer in [0, 2^64)" in capsys.readouterr().err


def test_run_unknown_strategy_is_config_error(tmp_path):
    config = _write(tmp_path / "cfg.json", {"n": 64, "strategy": "zerg"})
    assert cli.main(["run", "--config", config]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("strategy,params", [
    ("max_injector", {"magnitud": 9}),
    ("late_injector", {"inject_round": 0}),
    ("composite", {"parts": [{"name": "nope"}]}),
    ("composite", {"parts": [{"params": {}}]}),
    ("topology_liar", {"target_mode": "all"}),
])
@pytest.mark.parametrize("dry_run", [True, False])
def test_bad_strategy_params_are_config_errors(tmp_path, strategy, params, dry_run):
    config = _write(tmp_path / "cfg.json",
                    {"n": 64, "algorithm": "byzantine", "strategy": strategy,
                     "strategy_params": params})
    argv = ["run", "--config", config, "--out", str(tmp_path / "r")]
    assert cli.main(argv + ["--dry-run"] * dry_run) == cli.EXIT_CONFIG
    assert list(tmp_path.glob("r*")) == []


@pytest.mark.parametrize("fields", [
    {"epsilon": "x"}, {"delta": "0.5"}, {"phase_cap": "3"}, {"seed": "a"},
    {"trials": "2"},
])
def test_mistyped_scalar_fields_exit_three(tmp_path, fields, capsys):
    config = _write(tmp_path / "cfg.json", {"n": 64, **fields})
    assert cli.main(["run", "--config", config, "--dry-run"]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_run_unknown_field_is_config_error(tmp_path, capsys):
    # the paper fixes alpha and both radii by formula: none is a config
    # field; nor is a success band, since every figure counts all deciders
    for name, value in (("warp_drive", 1), ("alpha_variant", "prose"),
                        ("a_radius", 2), ("tree_radius", 2), ("band", ["lo", 4])):
        config = _write(tmp_path / "cfg.json", {"n": 64, name: value})
        assert cli.main(["run", "--config", config]) == cli.EXIT_CONFIG
        assert f"unknown fields {name}" in capsys.readouterr().err


def test_run_missing_config_file_is_io_error(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) \
        == cli.EXIT_IO


def test_internal_errors_map_to_exit_four(tmp_path, monkeypatch):
    config = _write(tmp_path / "cfg.json", {"n": 64})

    def boom(cfg):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli, "run_trials", boom)
    assert cli.main(["run", "--config", config]) == cli.EXIT_INTERNAL


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_cross_product_and_determinism(tmp_path, capsys):
    spec = _write(tmp_path / "sweep.json",
                  {"n": [32, 64], "delta": [0.7, 1.0], "trials": 1, "seed": 5})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["sweep", "--config", spec, "--out", str(out_a)]) == 0
    assert cli.main(["sweep", "--config", spec, "--out", str(out_b)]) == 0
    text = (tmp_path / "a.csv").read_text()
    assert text == (tmp_path / "b.csv").read_text()
    assert text.startswith("# sweep ")
    lines = (ln for ln in text.splitlines() if not ln.startswith("#"))
    rows = list(csv.DictReader(lines))
    assert len(rows) == 4
    assert all(row["status"] == "ok" for row in rows)
    assert {(row["n"], row["delta"]) for row in rows} == \
        {("32", "0.7"), ("32", "1.0"), ("64", "0.7"), ("64", "1.0")}
    assert len({row["cell_seed"] for row in rows}) == 4


def test_sweep_cell_seeds_come_from_their_own_channel(tmp_path):
    spec = _write(tmp_path / "sweep.json", {"n": [32, 48, 64], "trials": 1, "seed": 5})
    seeds = []
    for name in ("a", "b"):
        assert cli.main(["sweep", "--config", spec, "--out", str(tmp_path / name)]) == 0
        text = (tmp_path / f"{name}.csv").read_text()
        rows = csv.DictReader(ln for ln in text.splitlines() if not ln.startswith("#"))
        seeds.append([int(row["cell_seed"]) for row in rows])
    assert seeds[0] == seeds[1]                       # stable on a rerun
    assert seeds[0] == [int(stream(5, "cell", idx).integers(0, 2**31 - 1))
                        for idx in range(3)]
    trial_draws = {int(stream(5, "trial", idx).integers(0, 2**31 - 1))
                   for idx in range(3)}
    assert trial_draws.isdisjoint(seeds[0])


def test_single_cell_sweep_matches_a_direct_run(tmp_path):
    spec = _write(tmp_path / "sweep.json", {"n": [64], "trials": 2, "seed": 1})
    assert cli.main(["sweep", "--config", spec,
                     "--out", str(tmp_path / "s")]) == 0
    lines = (ln for ln in (tmp_path / "s.csv").read_text().splitlines()
             if not ln.startswith("#"))
    (row,) = csv.DictReader(lines)

    config = _write(tmp_path / "cfg.json",
                    {"n": 64, "seed": int(row["cell_seed"]), "trials": 2})
    assert cli.main(["run", "--config", config,
                     "--out", str(tmp_path / "r")]) == 0
    summaries = json.loads((tmp_path / "r.summary.json").read_text())
    mean_decided = sum(s["decided_fraction"] for s in summaries) / 2
    assert float(row["decided_mean"]) == pytest.approx(mean_decided)
    assert row["byz_safe_est_median"] == ""      # n = 64: the class is empty


def test_sweep_pools_byz_safe_estimates_over_trials(tmp_path, monkeypatch):
    # the byz-safe class is empty at sizes a test can sweep, so the honest
    # nodes with any estimate but 4 (the cell's median), undecided and
    # crashed ones included, are labelled byz-safe after the run
    run_trials, pooled = cli.run_trials, []

    def relabelled(cfg):
        results = run_trials(cfg)
        for r in results:
            safe = ~r.byz_mask & (r.decided != 4)
            r.class_labels = np.where(safe, "byz_safe", r.class_labels)
            pooled.extend(honest_estimates(r.class_labels != "byz_safe", r.crashed,
                                           r.decided)[1].tolist())
        return results

    monkeypatch.setattr(cli, "run_trials", relabelled)
    spec = _write(tmp_path / "sweep.json",
                  {"n": [128], "delta": [0.7], "algorithm": ["byzantine"],
                   "strategy": ["topology_liar"], "trials": 3, "seed": 3})
    assert cli.main(["sweep", "--config", spec, "--out", str(tmp_path / "s")]) == 0
    lines = (ln for ln in (tmp_path / "s.csv").read_text().splitlines()
             if not ln.startswith("#"))
    (row,) = csv.DictReader(lines)
    assert float(row["est_median"]) == 4
    assert float(row["byz_safe_est_median"]) == median(pooled) != 4


def test_sweep_marks_failed_cells_and_continues(tmp_path):
    spec = _write(tmp_path / "sweep.json", {"n": [64, 2]})   # n=2 is invalid
    assert cli.main(["sweep", "--config", spec,
                     "--out", str(tmp_path / "s")]) == 0
    lines = (ln for ln in (tmp_path / "s.csv").read_text().splitlines()
             if not ln.startswith("#"))
    rows = list(csv.DictReader(lines))
    statuses = [row["status"] for row in rows]
    assert statuses[0] == "ok" and statuses[1].startswith("failed:")
    metrics = ("est_median", "est_q1", "est_q3", "decided_mean",
               "byz_safe_est_median", "rounds_mean", "crashed_honest_mean")
    assert all(rows[1][name] == "" for name in metrics)
    assert rows[0]["decided_mean"] != ""


def test_sweep_passes_fixed_fields_to_every_cell(tmp_path):
    parts = [{"name": "topology_liar"}, {"name": "max_injector"}]
    spec = _write(tmp_path / "sweep.json",
                  {"n": [64], "delta": [0.7], "algorithm": ["byzantine"],
                   "strategy": ["composite"],
                   "strategy_params": {"parts": parts},
                   "engine": "fast", "subphase_factor": 1, "phase_cap": 60,
                   "seed": 2})
    assert cli.main(["sweep", "--config", spec,
                     "--out", str(tmp_path / "s")]) == 0
    lines = (ln for ln in (tmp_path / "s.csv").read_text().splitlines()
             if not ln.startswith("#"))
    (row,) = csv.DictReader(lines)
    assert row["status"] == "ok"
    assert row["strategy"] == "composite" and row["algorithm"] == "byzantine"


def test_sweep_rejects_unknown_fields_and_missing_n(tmp_path):
    bad = _write(tmp_path / "bad.json", {"n": [32], "colour": ["red"]})
    assert cli.main(["sweep", "--config", bad]) == cli.EXIT_CONFIG
    no_n = _write(tmp_path / "no_n.json", {"delta": [0.6]})
    assert cli.main(["sweep", "--config", no_n]) == cli.EXIT_CONFIG


def test_sweep_cell_cap(tmp_path):
    spec = _write(tmp_path / "sweep.json",
                  {"n": [32, 64], "delta": [0.7, 1.0], "cell_cap": 3})
    assert cli.main(["sweep", "--config", spec]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("field,value", [
    ("trials", 1.7), ("trials", 0), ("trials", "2"), ("trials", True),
    ("cell_cap", 2.9), ("cell_cap", 0), ("seed", 1.5), ("seed", "a"),
])
def test_sweep_level_fields_must_be_integers(tmp_path, monkeypatch, capsys, field, value):
    # a bad sweep-level field exits 3 before any cell runs
    monkeypatch.setattr(cli, "run_trials", lambda cfg: pytest.fail("a cell ran"))
    spec = _write(tmp_path / "sweep.json", {"n": [32], field: value})
    out = tmp_path / "s"
    assert cli.main(["sweep", "--config", spec, "--out", str(out)]) == cli.EXIT_CONFIG
    assert f"{field}: need an integer" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("value", [5, "", None, ["s"]])
def test_sweep_out_must_be_a_non_empty_string(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setattr(cli, "run_trials", lambda cfg: pytest.fail("a cell ran"))
    spec = _write(tmp_path / "sweep.json", {"n": [32], "out": value})
    assert cli.main(["sweep", "--config", spec]) == cli.EXIT_CONFIG
    assert "out: need a non-empty string" in capsys.readouterr().err


@pytest.mark.parametrize("spec_seed,flag", [(0, ["--seed", "-1"]), (-1, []), (2**64, [])])
def test_sweep_rejects_seeds_outside_the_rng_range(tmp_path, monkeypatch, spec_seed, flag):
    monkeypatch.setattr(cli, "run_trials", lambda cfg: pytest.fail("a cell ran"))
    spec = _write(tmp_path / "sweep.json", {"n": [32], "seed": spec_seed})
    out = tmp_path / "s"
    assert cli.main(["sweep", "--config", spec, "--out", str(out), *flag]) == cli.EXIT_CONFIG
    assert not (tmp_path / "s.csv").exists()


def test_sweep_trials_flag_is_checked_too(tmp_path):
    spec = _write(tmp_path / "sweep.json", {"n": [32]})
    assert cli.main(["sweep", "--config", spec, "--trials", "0",
                     "--out", str(tmp_path / "s")]) == cli.EXIT_CONFIG
    assert not (tmp_path / "s.csv").exists()


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_aggregates_run_csvs(tmp_path, capsys):
    config = _write(tmp_path / "cfg.json",
                    {"n": 64, "algorithm": "byzantine", "delta": 0.7,
                     "strategy": "topology_liar", "trials": 2, "seed": 2})
    assert cli.main(["run", "--config", config,
                     "--out", str(tmp_path / "r")]) == 0
    out = tmp_path / "analysis.csv"
    rc = cli.main(["analyze", str(tmp_path / "r.csv"), "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 2                           # one row per trial
    for row in rows:
        assert row["file"] == "r.csv"
        assert int(row["nodes"]) == 64
        assert 0.0 <= float(row["decided_fraction"]) <= 1.0
        assert int(row["crashed"]) >= 0


def test_analyze_counts_what_the_run_summary_counts(tmp_path):
    # Byzantine deciders and crashed nodes stay out of decided_fraction and
    # median_estimate, as in the run's own summary
    config = _write(tmp_path / "cfg.json",
                    {"n": 256, "algorithm": "byzantine", "strategy": "honest_mimic",
                     "delta": 0.4, "seed": 1})
    assert cli.main(["run", "--config", config, "--out", str(tmp_path / "r")]) == 0
    out = tmp_path / "analysis.csv"
    assert cli.main(["analyze", str(tmp_path / "r.csv"), "--out", str(out)]) == 0
    (row,) = csv.DictReader(out.open())
    (summary,) = json.loads((tmp_path / "r.summary.json").read_text())
    assert int(row["byz"]) > 0
    assert float(row["decided_fraction"]) == summary["decided_fraction"]
    assert float(row["median_estimate"]) == summary["median_estimate"]


def test_analyze_missing_input_is_io_error(tmp_path):
    assert cli.main(["analyze", str(tmp_path / "ghost.csv")]) == cli.EXIT_IO


def _sweep_csv(tmp_path):
    spec = _write(tmp_path / "sweep.json", {"n": [32]})
    assert cli.main(["sweep", "--config", spec, "--out", str(tmp_path / "s")]) == 0
    return tmp_path / "s.csv"


def _run_summary(tmp_path):
    config = _write(tmp_path / "cfg.json", {"n": 32})
    assert cli.main(["run", "--config", config, "--out", str(tmp_path / "r")]) == 0
    return tmp_path / "r.summary.json"


def _one_line_config(tmp_path):
    return _write(tmp_path / "cfg.json", {"n": 64})


@pytest.mark.parametrize("make_input", [_sweep_csv, _run_summary, _one_line_config])
def test_analyze_rejects_a_file_that_is_not_a_run_csv(tmp_path, capsys, make_input):
    path = make_input(tmp_path)
    capsys.readouterr()
    out = tmp_path / "analysis.csv"
    assert cli.main(["analyze", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and str(path) in err and "not a per-node run CSV" in err
    assert not out.exists()


@pytest.mark.parametrize("row,fragment", [
    ("0,7,bus,True,4", "missing or extra field"),
    ("0,7,bus,True,4,False,x", "missing or extra field"),
    ("t,7,bus,True,4,False", "trial: need an integer"),
    ("0,7,bus,yes,4,False", "decided: need True or False"),
    ("0,7,bus,True,4,1", "crashed: need True or False"),
    ("0,7,honest,True,4,False", "class: need one of byz, bus, byz_safe"),
    ("0,7,bus,True,x,False", "estimate: a decider needs an integer >= 1"),
    ("0,7,bus,True,0,False", "estimate: a decider needs an integer >= 1"),
    ("0,7,bus,True,,False", "estimate: a decider needs an integer >= 1"),
])
def test_analyze_rejects_a_malformed_row_by_file_and_line(tmp_path, capsys, row, fragment):
    path = tmp_path / "r.csv"
    header, good = "trial,node_id,class,decided,estimate,crashed", "0,7,bus,True,4,False"
    path.write_text("\n".join(["# a comment line", header, good, row, good]) + "\n")
    out = tmp_path / "analysis.csv"
    assert cli.main(["analyze", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{path}, line 4: {fragment}" in err
    assert not out.exists()

