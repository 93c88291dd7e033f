"""Run harness and CLI: output layout, determinism, crash cleanup, protocol
comparison, and exit codes."""

import csv
import hashlib
import importlib.util
import inspect
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import fedcbo
from fedcbo import diagnostics, experiment, learners, protocol, sde
from fedcbo.cli import main
from fedcbo.config import resolve_config
from fedcbo.errors import ConfigError, DivergenceError
from fedcbo.experiment import (compare_protocols, export_plot_data, is_complete,
                               run_experiment, run_protocol, run_sde_experiment,
                               scan_meanfield_experiment, write_csv)

BENCHMARK_RECORD_KEYS = {
    "round", "participants", "eps", "sr", "oracle_sr", "assignment_purity",
    "mean_local_loss", "acc_per_cluster", "acc_macro", "v_per_cluster", "v_sum",
}


def tiny_benchmark(**overrides):
    raw = {
        "problem": {"kind": "benchmark", "dim": 2, "n_per_cluster": 3,
                    "init_std": 2.0},
        "hyperparams": {"consensus_drift": 1.0, "grad_drift": 1.0,
                        "alpha": 10.0, "step_size": 0.1, "local_steps": 1,
                        "download_budget": 2, "momentum": 0.0},
        "schedule": {"rounds": 2},
        "seeds": [0, 1],
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            raw.setdefault(key, {}).update(value)
        else:
            raw[key] = value
    return resolve_config(raw)


def tiny_learner(**overrides):
    raw = {
        "problem": {"kind": "learner", "model": "logistic", "n_clusters": 2,
                    "n_agents": 8, "n_per_agent": 20, "input_dim": 4,
                    "n_classes": 2, "n_test": 50},
        "hyperparams": {"consensus_drift": 5.0, "grad_drift": 1.0,
                        "alpha": 10.0, "step_size": 0.1, "local_steps": 2,
                        "download_budget": 3, "momentum": 0.0},
        "schedule": {"rounds": 2},
        "seeds": [0],
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            raw.setdefault(key, {}).update(value)
        else:
            raw[key] = value
    return resolve_config(raw)


def file_hashes(run_dir, names):
    return {n: hashlib.sha256((run_dir / n).read_bytes()).hexdigest() for n in names}


def test_run_experiment_writes_the_documented_layout(tmp_path):
    config = tiny_benchmark()
    manifest = run_experiment(config, out_dir=tmp_path)
    assert manifest["kind"] == "run"
    assert manifest["config_hash"] == config.hash()
    assert manifest["metrics_files"] == ["metrics_seed0.jsonl", "metrics_seed1.jsonl"]
    for name in manifest["metrics_files"] + [manifest["summary_file"], "manifest.json"]:
        assert (tmp_path / name).exists()
    assert is_complete(tmp_path)

    lines = (tmp_path / "metrics_seed0.jsonl").read_text().strip().split("\n")
    assert len(lines) == 2  # one record per round
    record = json.loads(lines[-1])
    assert set(record) == BENCHMARK_RECORD_KEYS
    assert record["v_sum"] is not None
    assert record["acc_macro"] is None          # no test data on benchmarks
    assert record["assignment_purity"] is None  # not an ifca run
    assert not any("time" in key for key in record)
    # Records are written in the order they are built, and round records
    # are built with sorted keys.
    for name in manifest["metrics_files"]:
        for line in (tmp_path / name).read_text().splitlines():
            keys = list(json.loads(line))
            assert keys == sorted(keys)

    # Round counters go to the manifest only: 2 rounds x 6 agents x 2 downloads,
    # plus each agent's own model among the loss evaluations.
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert on_disk["counters"]["0"] == {"downloads": 24, "loss_evals": 36,
                                        "dropped": 0, "budget_clamps": 0}
    assert "downloads" not in (tmp_path / "summary.csv").read_text()


def test_metric_files_are_byte_identical_across_reruns(tmp_path):
    config = tiny_benchmark()
    run_experiment(config, out_dir=tmp_path / "a")
    run_experiment(config, out_dir=tmp_path / "b")
    names = ["metrics_seed0.jsonl", "metrics_seed1.jsonl", "summary.csv"]
    assert file_hashes(tmp_path / "a", names) == file_hashes(tmp_path / "b", names)


def test_failed_run_cleans_up_and_leaves_no_manifest(tmp_path):
    config = tiny_benchmark(
        problem={"kind": "benchmark", "n_per_cluster": 5, "init_std": 1.0},
        hyperparams={"consensus_drift": 10.0, "grad_drift": 0.0,
                     "consensus_noise": 1.0, "alpha": 10.0, "step_size": 1.0,
                     "local_steps": 0},
    )
    out = tmp_path / "doomed"
    with pytest.raises(DivergenceError):
        run_sde_experiment(tiny_sde_view(config), out_dir=out)
    assert not is_complete(out)
    assert not (out / "manifest.json").exists()
    assert list(out.glob("*.jsonl")) == []


def tiny_sde_view(config):
    # run_sde_experiment wants longer trajectories than the round runner.
    config.schedule["t_steps"] = 5000
    config.schedule["record_every"] = 100
    return config


def failing_on_call(target, call):
    """A wrapper of ``target`` that raises on its ``call``-th call (from 1)."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(None)
        if len(calls) == call:
            raise RuntimeError("stopped mid-run")
        return target(*args, **kwargs)
    return wrapper


def tiny_scan():
    return tiny_benchmark(
        hyperparams={"consensus_drift": 4.0, "grad_drift": 0.1,
                     "consensus_noise": 0.2, "grad_noise": 0.1, "alpha": 100.0,
                     "step_size": 0.005},
        schedule={"t_steps": 20, "record_every": 5, "n_list": [10, 30],
                  "n_projections": 8, "n_checkpoints": 4},
    )


RERUNS = {
    # entry point, config, the module and inner step that fails, the failing call
    "run": (run_experiment, tiny_benchmark, experiment, "run_protocol", 2),
    "compare": (compare_protocols, tiny_learner, experiment, "run_protocol", 3),
    "sde": (run_sde_experiment, tiny_scan, experiment, "run_sde", 2),
    "scan-meanfield": (scan_meanfield_experiment, tiny_scan, experiment,
                       "meanfield_scan", 1),
    # The scan takes each sliced-W1 distance from sorted projections.
    "scan-meanfield-sliced-w1": (scan_meanfield_experiment, tiny_scan, diagnostics,
                                 "_sorted_w1", 5),
}


@pytest.mark.parametrize("command", sorted(RERUNS))
def test_rerun_stopped_midway_is_not_complete(tmp_path, monkeypatch, command):
    entry, make_config, module, step, call = RERUNS[command]
    entry(make_config(), out_dir=tmp_path)
    assert is_complete(tmp_path)
    monkeypatch.setattr(module, step, failing_on_call(getattr(module, step), call))
    with pytest.raises(RuntimeError, match="stopped mid-run"):
        entry(make_config(), out_dir=tmp_path)
    assert not (tmp_path / "manifest.json").exists()
    assert not is_complete(tmp_path)


@pytest.mark.parametrize("command", sorted(RERUNS))
def test_failed_command_removes_every_file_it_wrote(tmp_path, monkeypatch, command):
    # "run" and "sde" have written their first seed's file when they stop.
    entry, make_config, module, step, call = RERUNS[command]
    monkeypatch.setattr(module, step, failing_on_call(getattr(module, step), call))
    with pytest.raises(RuntimeError, match="stopped mid-run"):
        entry(make_config(), out_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


SHARED_MANIFEST_KEYS = {"kind", "config", "config_hash", "code_version", "seeds",
                        "metrics_files", "summary_file", "started_at", "finished_at"}
COMMAND_MANIFEST = {
    # keys of the command's own, and the pattern of its metric file names
    "run": ({"protocol", "wall_time_s", "counters", "threads"}, "metrics_seed{}.jsonl"),
    "compare": ({"protocols", "table", "flags", "timing", "threads"}, None),
    "sde": ({"timing", "threads"}, "trajectory_seed{}.jsonl"),
    "scan-meanfield": ({"reference_size", "monotone_violations"}, None),
}


@pytest.mark.parametrize("command", sorted(COMMAND_MANIFEST))
def test_every_command_writes_a_complete_manifest(tmp_path, command):
    entry, make_config = RERUNS[command][:2]
    own_keys, metrics_name = COMMAND_MANIFEST[command]
    config = make_config()
    entry(config, out_dir=tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest) == SHARED_MANIFEST_KEYS | own_keys
    assert manifest["kind"] == command
    assert manifest["config_hash"] == config.hash()
    assert manifest["seeds"] == config.seeds
    assert manifest["started_at"] <= manifest["finished_at"]
    assert manifest["metrics_files"] == (
        [metrics_name.format(s) for s in config.seeds] if metrics_name else [])
    for name in manifest["metrics_files"] + [manifest["summary_file"]]:
        assert (tmp_path / name).is_file()
    assert is_complete(tmp_path)


def test_interrupted_manifest_write_leaves_no_manifest(tmp_path, monkeypatch):
    def torn_dump(obj, fh, **kwargs):
        fh.write('{"kind": ')
        raise OSError("disk full")

    monkeypatch.setattr(experiment.json, "dump", torn_dump)
    with pytest.raises(OSError, match="disk full"):
        run_experiment(tiny_benchmark(), out_dir=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "metrics_seed0.jsonl", "metrics_seed1.jsonl", "summary.csv"]
    assert not is_complete(tmp_path)


def test_incomplete_directory_detection(tmp_path):
    config = tiny_benchmark()
    run_experiment(config, out_dir=tmp_path)
    assert is_complete(tmp_path)
    (tmp_path / "metrics_seed1.jsonl").unlink()
    assert not is_complete(tmp_path)
    assert not is_complete(tmp_path / "never_written")


def test_learner_run_records_selection_and_accuracy(tmp_path):
    config = tiny_learner()
    run_experiment(config, out_dir=tmp_path)
    record = json.loads(
        (tmp_path / "metrics_seed0.jsonl").read_text().strip().split("\n")[-1]
    )
    assert record["sr"] is not None and 0.0 <= record["sr"] <= 1.0
    assert record["oracle_sr"] is not None
    assert len(record["acc_per_cluster"]) == 2
    assert 0.0 <= record["acc_macro"] <= 1.0
    assert record["v_sum"] is None  # no analytic minimizers on learner runs


def test_run_protocol_covers_all_baselines():
    config = tiny_learner()
    for protocol in ("local", "fedavg", "ifca"):
        view = tiny_learner(protocol=protocol)
        records, final = run_protocol(view, seed=0)
        assert len(records) == 2
        last = records[-1]
        assert last["acc_macro"] is not None
        if protocol == "ifca":
            assert 0.0 <= last["assignment_purity"] <= 1.0
        else:
            assert last["assignment_purity"] is None
    assert config.protocol == "fedcbo"


def test_compare_runs_all_protocols_on_equal_budgets(tmp_path):
    config = tiny_learner(seeds=[0, 1])
    result = compare_protocols(config, out_dir=tmp_path)
    assert set(result["table"]) == {"fedcbo", "ifca", "fedavg", "local"}
    for entry in result["table"].values():
        assert 0.0 <= entry["acc_macro_mean"] <= 1.0
        assert len(entry["acc_per_cluster_mean"]) == 2
    assert set(result["flags"]) == {"fedcbo_within_1pt_of_ifca",
                                    "clustered_beat_unclustered_by_3pts"}
    assert (tmp_path / "comparison.csv").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["kind"] == "compare"


def test_compare_rejects_benchmarks_and_unknown_protocols(tmp_path):
    with pytest.raises(ConfigError):
        compare_protocols(tiny_benchmark(), out_dir=tmp_path)


def test_sde_experiment_writes_trajectories_and_rates(tmp_path):
    config = tiny_benchmark(
        hyperparams={"consensus_drift": 1.0, "grad_drift": 1.0, "alpha": 100.0,
                     "step_size": 0.01},
        schedule={"t_steps": 200, "record_every": 10},
        seeds=[0],
    )
    manifest = run_sde_experiment(config, out_dir=tmp_path)
    assert manifest["kind"] == "sde"
    lines = (tmp_path / "trajectory_seed0.jsonl").read_text().splitlines()
    assert len(lines) == 21  # steps 0, 10, ..., 200
    for line in lines:
        assert list(json.loads(line)) == ["step", "time", "v_per_cluster", "v_sum",
                                          "consensus_err"]
    rows = (tmp_path / "sde_summary.csv").read_text().strip().split("\n")
    assert rows[0] == "seed,v_start,v_end,fitted_rate,rate_bound,theory_regime"
    assert len(rows) == 2
    with pytest.raises(ConfigError):
        run_sde_experiment(tiny_learner(), out_dir=tmp_path / "x")


def test_scan_experiment_writes_discrepancy_table(tmp_path):
    config = tiny_benchmark(
        hyperparams={"consensus_drift": 4.0, "grad_drift": 0.1,
                     "consensus_noise": 0.2, "grad_noise": 0.1, "alpha": 100.0,
                     "step_size": 0.005},
        schedule={"t_steps": 20, "n_list": [10, 30], "n_projections": 8,
                  "n_checkpoints": 4},
        seeds=[0, 1],
    )
    manifest = scan_meanfield_experiment(config, out_dir=tmp_path)
    assert manifest["kind"] == "scan-meanfield"
    assert manifest["reference_size"] == 30
    rows = (tmp_path / "meanfield.csv").read_text().strip().split("\n")
    assert rows[0] == "n_per_cluster,mean_discrepancy,stderr"
    assert len(rows) == 3
    with pytest.raises(ConfigError):
        scan_meanfield_experiment(tiny_learner(), out_dir=tmp_path / "x")


def test_plot_export_flattens_to_long_format(tmp_path):
    config = tiny_benchmark()
    run_experiment(config, out_dir=tmp_path)
    out = export_plot_data(tmp_path)
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "seed,index,metric,value"
    assert len(rows) > 1
    # Deterministic: exporting again produces the same bytes.
    first = out.read_bytes()
    export_plot_data(tmp_path)
    assert out.read_bytes() == first


def test_plot_export_reads_only_the_files_the_manifest_lists(tmp_path):
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    run_experiment(tiny_benchmark(seeds=[0, 1, 2]), out_dir=reused)
    run_experiment(tiny_benchmark(seeds=[5]), out_dir=reused)
    run_experiment(tiny_benchmark(seeds=[5]), out_dir=fresh)
    assert (reused / "metrics_seed0.jsonl").exists()  # left by the first run
    rows = export_plot_data(reused).read_text().strip().split("\n")[1:]
    assert {row.split(",")[0] for row in rows} == {"5"}
    assert export_plot_data(reused).read_bytes() == export_plot_data(fresh).read_bytes()


def test_plot_export_requires_a_completed_run(tmp_path):
    with pytest.raises(ConfigError):
        export_plot_data(tmp_path)


def test_write_csv_roundtrip(tmp_path):
    path = write_csv(tmp_path / "table.csv", ["a", "b"], [[1, 2], [3, 4]])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["a", "b"], ["1", "2"], ["3", "4"]]


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


CLI_BENCHMARK = {
    "problem": {"kind": "benchmark", "dim": 2, "n_per_cluster": 3,
                "init_std": 2.0},
    "hyperparams": {"consensus_drift": 1.0, "grad_drift": 1.0, "alpha": 10.0,
                    "step_size": 0.1, "local_steps": 1, "download_budget": 2,
                    "momentum": 0.0},
    "schedule": {"rounds": 2},
    "seeds": [0, 1],
}


def test_cli_run_and_plot_export_happy_path(tmp_path, capsys):
    config_path = write_config(tmp_path, CLI_BENCHMARK)
    out = tmp_path / "out"
    assert main(["run", "--config", config_path, "--out", str(out)]) == 0
    assert is_complete(out)
    assert "run complete" in capsys.readouterr().out

    assert main(["plot-export", "--run-dir", str(out)]) == 0
    assert (out / "plot_data.csv").exists()


def test_round_without_downloads_writes_valid_json(tmp_path):
    # Half of 2 agents is one participant, who has no peer to download, so
    # the selection ratio is undefined: it is recorded as null, not NaN.
    config_path = write_config(tmp_path, {
        "problem": {"n_agents": 2, "n_clusters": 2},
        "schedule": {"rounds": 2, "participation": 0.5},
        "protocol": "fedcbo", "seeds": [1],
    })
    out = tmp_path / "out"
    assert main(["run", "--config", config_path, "--out", str(out)]) == 0

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    with open(out / "metrics_seed1.jsonl") as fh:
        records = [json.loads(line, parse_constant=reject) for line in fh]
    assert [r["sr"] for r in records] == [None, None]
    with open(out / "summary.csv", newline="") as fh:
        assert "sr" not in [row["metric"] for row in csv.DictReader(fh)]
    assert main(["plot-export", "--run-dir", str(out)]) == 0


def test_plot_export_out_must_be_a_csv_path(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, CLI_BENCHMARK),
                 "--out", str(out)]) == 0
    with pytest.raises(SystemExit):
        main(["plot-export", "--help"])
    assert "path of the CSV file to write" in capsys.readouterr().out

    assert main(["plot-export", "--run-dir", str(out), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"config error: --out: {out} is a directory; plot-export --out "
                   "is the path of the CSV file to write"]

    missing = tmp_path / "absent" / "plot.csv"
    assert main(["plot-export", "--run-dir", str(out), "--out", str(missing)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"config error: --out: directory {missing.parent} of {missing} "
                   "does not exist"]
    assert not missing.parent.exists()

    target = tmp_path / "plot.csv"
    assert main(["plot-export", "--run-dir", str(out), "--out", str(target)]) == 0
    assert target.read_text().startswith("seed,index,metric,value")


def test_cli_seed_and_protocol_overrides(tmp_path):
    config_path = write_config(tmp_path, CLI_BENCHMARK)
    out = tmp_path / "out"
    assert main(["run", "--config", config_path, "--seed", "5",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"] == [5]
    assert manifest["metrics_files"] == ["metrics_seed5.jsonl"]

    learner = {
        "problem": {"kind": "learner", "model": "logistic", "n_clusters": 2,
                    "n_agents": 8, "n_per_agent": 20, "input_dim": 4,
                    "n_classes": 2, "n_test": 50},
        "hyperparams": {"local_steps": 1, "download_budget": 3, "momentum": 0.0},
        "schedule": {"rounds": 1},
        "seeds": [0],
    }
    learner_path = write_config(tmp_path, learner, name="learner.json")
    out2 = tmp_path / "out2"
    assert main(["run", "--config", learner_path, "--protocol", "local",
                 "--out", str(out2)]) == 0
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["protocol"] == "local"


def test_cli_config_errors_exit_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2
    assert "config error" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text('{"protocol": "gossip", "hyperparams": {"alpha": -1}}')
    assert main(["run", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "protocol" in err and "alpha" in err

    config_path = write_config(tmp_path, CLI_BENCHMARK)
    assert main(["run", "--config", config_path, "--threads", "0"]) == 2

    assert main(["plot-export", "--run-dir", str(tmp_path / "nope")]) == 2


def test_plot_export_takes_only_its_own_flags(tmp_path):
    # --seed, --protocol and --threads belong to the run commands.
    for flag in (["--seed", "1"], ["--protocol", "local"], ["--threads", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(["plot-export", "--run-dir", str(tmp_path)] + flag)
        assert exc.value.code == 2


@pytest.mark.parametrize("command", ["compare", "sde", "scan-meanfield"])
def test_protocol_belongs_to_run_only(tmp_path, command, capsys):
    # compare runs every protocol, sde and scan-meanfield none: an override
    # would be ignored, so it is an argparse error before anything runs.
    config_path = write_config(tmp_path, CLI_BENCHMARK)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", config_path, "--protocol", "local",
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--protocol" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


ONE_AGENT = {
    "learner": {"problem": {"n_agents": 1, "n_clusters": 1},
                "schedule": {"rounds": 1}, "seeds": [0]},
    "benchmark": {"problem": {"kind": "benchmark", "dim": 2, "centers": [[0.0, 0.0]],
                              "n_per_cluster": 1},
                  "schedule": {"rounds": 1}, "seeds": [0]},
}


@pytest.mark.parametrize("kind", sorted(ONE_AGENT))
def test_fedcbo_with_one_agent_exits_2(tmp_path, capsys, kind):
    config_path = write_config(tmp_path, ONE_AGENT[kind])
    # compare takes learner problems only, and runs fedcbo first.
    for command in ["run", "compare"] if kind == "learner" else ["run"]:
        out = tmp_path / command
        assert main([command, "--config", config_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            "config error: protocol: fedcbo needs at least 2 agents, the problem has 1"]
        assert not is_complete(out)


def test_sde_with_one_particle_still_runs(tmp_path):
    raw = dict(ONE_AGENT["benchmark"], schedule={"t_steps": 5, "record_every": 1})
    assert main(["sde", "--config", write_config(tmp_path, raw),
                 "--out", str(tmp_path / "out")]) == 0
    assert is_complete(tmp_path / "out")


def test_cli_divergence_exits_3(tmp_path, capsys):
    diverging = {
        "problem": {"kind": "benchmark", "dim": 2, "n_per_cluster": 5,
                    "init_std": 1.0},
        "hyperparams": {"consensus_drift": 10.0, "grad_drift": 0.0,
                        "consensus_noise": 1.0, "alpha": 10.0,
                        "step_size": 1.0, "local_steps": 0, "momentum": 0.0},
        "schedule": {"t_steps": 5000, "record_every": 100},
        "seeds": [0],
    }
    config_path = write_config(tmp_path, diverging)
    assert main(["sde", "--config", config_path,
                 "--out", str(tmp_path / "out")]) == 3
    assert "divergence" in capsys.readouterr().err
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.filterwarnings("error")
def test_cli_overflowing_run_exits_3_naming_round_and_agent(tmp_path, capsys):
    # Every loss overflows to inf in round 0; this run used to end in a
    # RuntimeError traceback with exit 1.
    overflowing = {"problem": {"kind": "benchmark", "n_per_cluster": 4,
                               "init_mean": 1e160},
                   "schedule": {"rounds": 2}, "hyperparams": {"download_budget": 2},
                   "seeds": [0]}
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, overflowing),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "round 0, agent 0:" in err
    assert "Traceback" not in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("protocol", ["fedavg", "ifca", "local"])
def test_cli_baseline_with_overflowing_losses_exits_3_naming_the_round(
        tmp_path, capsys, protocol):
    # The models stay finite but every loss overflows; these runs used to
    # exit 0 with "Infinity" in their metric files, which is not JSON.
    overflowing = {"problem": {"kind": "benchmark", "n_per_cluster": 4,
                               "init_mean": 1e160},
                   "schedule": {"rounds": 2}, "seeds": [0]}
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, overflowing),
                 "--out", str(out), "--protocol", protocol]) == 3
    err = capsys.readouterr().err
    assert "divergence: round 0: non-finite values in mean_local_loss" in err
    assert "Traceback" not in err
    assert list(out.iterdir()) == []


# Many small agent blocks, so that a second thread has blocks to take.
THREADED_LEARNER = {
    "problem": {"kind": "learner", "model": "mlp", "hidden": 5, "n_clusters": 2,
                "n_agents": 24, "n_per_agent": 30, "input_dim": 4, "n_classes": 3,
                "n_test": 60},
    "hyperparams": {"local_steps": 2, "download_budget": 4, "batch_size": 12,
                    "momentum": 0.9},
    "schedule": {"rounds": 3, "participation": 0.75},
    "seeds": [0, 1],
}


@pytest.mark.parametrize("command", ["run", "compare"])
def test_learner_files_are_identical_at_one_and_two_threads(tmp_path, monkeypatch,
                                                             command):
    monkeypatch.setattr(learners, "BLOCK_DOUBLES", 600)
    config_path = write_config(tmp_path, THREADED_LEARNER)
    hashes, threads = [], []
    for n in (1, 2):
        out = tmp_path / f"threads{n}"
        assert main([command, "--config", config_path, "--out", str(out),
                     "--threads", str(n)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        names = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        hashes.append(file_hashes(out, names))
        threads.append(manifest["threads"])
    assert len(hashes[0]) == (3 if command == "run" else 1)
    assert hashes[0] == hashes[1]
    assert threads == [1, min(2, len(os.sched_getaffinity(0)))]


@pytest.mark.parametrize("threads", [1, 8])
def test_threads_stay_within_the_cpus_and_end_with_the_command(tmp_path, monkeypatch,
                                                               threads):
    monkeypatch.setattr(learners, "BLOCK_DOUBLES", 600)
    counts = []
    original = experiment.fedcbo_round

    def counting_round(*args, **kwargs):
        result = original(*args, **kwargs)
        counts.append(threading.active_count())
        return result

    monkeypatch.setattr(experiment, "fedcbo_round", counting_round)
    before = threading.active_count()
    assert main(["run", "--config", write_config(tmp_path, THREADED_LEARNER),
                 "--out", str(tmp_path / "out"), "--threads", str(threads)]) == 0
    assert threading.active_count() == before
    cpus = len(os.sched_getaffinity(0))
    assert len(counts) == 6
    if threads == 1 or cpus == 1:
        assert set(counts) == {before}
    else:
        assert before < max(counts) <= before + cpus - 1


@pytest.mark.parametrize("threads", [1, 8])
def test_compare_jobs_stay_within_the_cpus_and_end_with_the_command(
        tmp_path, monkeypatch, threads):
    # Each job runs its agent blocks on its own thread: a pool of one, so
    # the jobs are the only work that reaches the command's threads.
    monkeypatch.setattr(learners, "BLOCK_DOUBLES", 600)
    counts, job_pools = [], []
    run_job, build = experiment.run_protocol, experiment.build_setup

    def counting_job(*args, **kwargs):
        counts.append(threading.active_count())
        result = run_job(*args, **kwargs)
        counts.append(threading.active_count())
        return result

    def recording_build(*args, **kwargs):
        setup = build(*args, **kwargs)
        job_pools.append(setup.tasks.pool.size)
        return setup

    monkeypatch.setattr(experiment, "run_protocol", counting_job)
    monkeypatch.setattr(experiment, "build_setup", recording_build)
    before = threading.active_count()
    assert main(["compare", "--config", write_config(tmp_path, THREADED_LEARNER),
                 "--out", str(tmp_path / "out"), "--threads", str(threads)]) == 0
    assert threading.active_count() == before
    cpus = len(os.sched_getaffinity(0))
    assert len(counts) == 16   # 4 protocols x 2 seeds, at each job's start and end
    assert job_pools == [1] * 8
    if threads == 1 or cpus == 1:
        assert set(counts) == {before}
    else:
        assert before < max(counts) <= before + cpus - 1


@pytest.mark.parametrize("threads", [1, 2])
def test_compare_raises_the_first_failed_jobs_error(tmp_path, monkeypatch, threads):
    # Jobs go protocol-major: job 3 is (ifca, seed 1), job 5 (fedavg, seed 1).
    # Job 3 fails late, so on two threads job 5 may fail first.
    original = experiment.run_protocol
    started = []

    def failing_job(config, seed, *args, **kwargs):
        index = 2 * ["fedcbo", "ifca", "fedavg", "local"].index(config.protocol) + seed
        started.append(index)
        if index == 3:
            time.sleep(0.2)
        if index in (3, 5):
            raise DivergenceError(f"job {index} diverged")
        return original(config, seed, *args, **kwargs)

    monkeypatch.setattr(experiment, "run_protocol", failing_job)
    with pytest.raises(DivergenceError, match="^job 3 diverged$"):
        compare_protocols(tiny_learner(seeds=[0, 1]), out_dir=tmp_path, threads=threads)
    assert list(tmp_path.iterdir()) == []
    if threads == 1:
        assert started == [0, 1, 2, 3]


def test_diverging_compare_exits_3_alike_at_one_and_two_threads(tmp_path, capsys):
    # A contraction factor of 5e300 overshoots models to inf in round 0 of
    # both fedcbo seeds (seed 1 alone names agent 1), which run at once on
    # two threads; the first job's error is the one reported.
    raw = {"problem": {"kind": "learner", "model": "logistic", "n_clusters": 2,
                       "n_agents": 8, "n_per_agent": 20, "input_dim": 4,
                       "n_classes": 2, "n_test": 50},
           "hyperparams": {"consensus_drift": 5.0, "step_size": 1e300,
                           "local_steps": 2, "download_budget": 3},
           "schedule": {"rounds": 2}, "seeds": [0, 1]}
    config_path = write_config(tmp_path, raw)
    lines = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        assert main(["compare", "--config", config_path, "--out", str(out),
                     "--threads", str(threads)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines.append([line for line in err.splitlines() if line.startswith("divergence")])
        assert list(out.iterdir()) == []
    assert lines[0] == lines[1] == [
        "divergence: round 0, agent 2: non-finite values in aggregation"]


def test_compare_checks_its_rounds_before_any_job_starts(tmp_path, monkeypatch,
                                                        capsys):
    jobs = []
    monkeypatch.setattr(experiment, "run_protocol",
                        lambda *args, **kwargs: jobs.append(args))
    raw = dict(THREADED_LEARNER, schedule={"rounds": 0})
    out = tmp_path / "out"
    assert main(["compare", "--config", write_config(tmp_path, raw),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "config error: schedule.rounds: comparison needs rounds >= 1"]
    assert jobs == []
    assert not (out / "comparison.csv").exists()
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("rounds", [0, 2])
def test_compare_reports_its_agents_and_rounds_rules_together(tmp_path, monkeypatch,
                                                              capsys, rounds):
    # With rounds 2, fedcbo's agent rule used to be met only inside its first
    # job, after that job had generated its data.
    jobs = []
    monkeypatch.setattr(experiment, "run_protocol",
                        lambda *args, **kwargs: jobs.append(args))
    raw = dict(ONE_AGENT["learner"], schedule={"rounds": rounds})
    out = tmp_path / "out"
    assert main(["compare", "--config", write_config(tmp_path, raw),
                 "--out", str(out)]) == 2
    expected = ["config error: protocol: fedcbo needs at least 2 agents, the problem has 1"]
    if rounds == 0:
        expected.append("config error: schedule.rounds: comparison needs rounds >= 1")
    assert capsys.readouterr().err.strip().splitlines() == expected
    assert jobs == []
    assert not out.exists() or list(out.iterdir()) == []


def test_run_wall_time_does_not_follow_system_clock_steps(tmp_path, monkeypatch):
    # Every time.time() reads an hour earlier than the one before, as if the
    # clock were stepped back during the run; started_at and finished_at
    # still come from it.
    clock = iter(range(10 ** 6))
    monkeypatch.setattr(time, "time", lambda: 2e9 - 3600.0 * next(clock))
    manifest = run_experiment(tiny_learner(), out_dir=tmp_path)
    assert 0 <= manifest["wall_time_s"]["0"] < 600
    assert manifest["finished_at"] < manifest["started_at"]


def test_compare_manifest_times_every_job_outside_the_table(tmp_path):
    config = tiny_learner(seeds=[0, 1])
    compare_protocols(config, out_dir=tmp_path)
    timing = json.loads((tmp_path / "manifest.json").read_text())["timing"]
    assert set(timing) == {"fedcbo", "ifca", "fedavg", "local"}
    for by_seed in timing.values():
        assert set(by_seed) == {"0", "1"}
        assert all(set(job) == {"wall_s"} and job["wall_s"] >= 0
                   for job in by_seed.values())
    assert "wall" not in (tmp_path / "comparison.csv").read_text()


def test_compare_scores_only_each_final_round(tmp_path, monkeypatch):
    scored = []
    original = experiment._score
    monkeypatch.setattr(experiment, "_score",
                        lambda setup, record, *rest: scored.append(record["round"])
                        or original(setup, record, *rest))
    config = tiny_learner(seeds=[0, 1], schedule={"rounds": 3})
    compare_protocols(config, out_dir=tmp_path)
    assert scored == [2] * 8   # 4 protocols x 2 seeds

    for protocol in ("fedcbo", "local", "fedavg", "ifca"):
        view = tiny_learner(protocol=protocol, schedule={"rounds": 3})
        every, _ = run_protocol(view, seed=0)
        final, _ = run_protocol(view, seed=0, final_only=True)
        assert final[-1] == every[-1]
        assert all(r["acc_macro"] is None for r in final[:-1])


def test_cli_compare_scan_and_sde_commands(tmp_path, capsys):
    learner = {
        "problem": {"kind": "learner", "model": "logistic", "n_clusters": 2,
                    "n_agents": 8, "n_per_agent": 20, "input_dim": 4,
                    "n_classes": 2, "n_test": 50},
        "hyperparams": {"local_steps": 1, "download_budget": 3, "momentum": 0.0},
        "schedule": {"rounds": 1},
        "seeds": [0],
    }
    assert main(["compare", "--config", write_config(tmp_path, learner),
                 "--out", str(tmp_path / "cmp")]) == 0
    assert "macro accuracy" in capsys.readouterr().out

    scan = {
        "problem": {"kind": "benchmark", "dim": 2, "n_per_cluster": 3,
                    "init_std": 2.0},
        "hyperparams": {"consensus_drift": 4.0, "grad_drift": 0.1,
                        "consensus_noise": 0.2, "grad_noise": 0.1,
                        "alpha": 100.0, "step_size": 0.005, "momentum": 0.0},
        "schedule": {"t_steps": 20, "n_list": [10, 30], "n_projections": 8,
                     "n_checkpoints": 4},
        "seeds": [0],
    }
    assert main(["scan-meanfield", "--config", write_config(tmp_path, scan,
                                                            "scan.json"),
                 "--out", str(tmp_path / "scan")]) == 0
    assert "scan complete" in capsys.readouterr().out

    sde = dict(scan)
    sde["schedule"] = {"t_steps": 100, "record_every": 10}
    assert main(["sde", "--config", write_config(tmp_path, sde, "sde.json"),
                 "--out", str(tmp_path / "sde")]) == 0
    assert "sde run complete" in capsys.readouterr().out


def load_tracer():
    """The benchmark's span tracer, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_and_public_names_resolve():
    # The benchmark tracer wraps these by module and attribute path, and its
    # hooks read arguments by position or name.  A deletion or rename must
    # fail here rather than break a traced benchmark run.
    for span, module_name, path, _ in load_tracer().TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(owner, part), f"{span}: {module_name}.{path}"
            owner = getattr(owner, part)
        assert callable(owner), span
    for name in fedcbo.__all__:
        assert hasattr(fedcbo, name), name
    hooked = [(protocol.fedcbo_round, 3, "hp"), (sde.run_sde, 0, "problem"),
              (sde.run_sde, 1, "n_per_cluster"), (sde.run_sde, 3, "t_steps"),
              (diagnostics.sliced_w1, 2, "n_projections"),
              (fedcbo.consensus_point, 0, "positions")]
    for fn, index, name in hooked:
        assert list(inspect.signature(fn).parameters)[index] == name, fn.__name__
    assert "projections" in inspect.signature(diagnostics.sliced_w1).parameters


def source_env():
    """The environment with the package's source directory first on the path."""
    src = str(Path(fedcbo.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def test_console_script_runs_end_to_end(tmp_path):
    # The installed console script if there is one, else the same CLI through
    # ``python -m fedcbo`` with the package's source directory on the path.
    config_path = write_config(tmp_path, CLI_BENCHMARK)
    out = tmp_path / "out"
    script = shutil.which("fedcbo")
    command, env = [script], None
    if script is None:
        command, env = [sys.executable, "-m", "fedcbo"], source_env()
    proc = subprocess.run(
        command + ["run", "--config", config_path, "--out", str(out)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert is_complete(out)


def test_cli_import_loads_no_scipy():
    # SciPy is a test-only dependency; importing the CLI must not pull it in.
    code = ("import sys, fedcbo.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=source_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
