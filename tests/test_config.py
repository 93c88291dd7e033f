"""Config resolution: defaults, validation that collects every problem,
canonical hashing, and file loading."""

import json
import logging

import numpy as np
import pytest

from fedcbo.config import (DEFAULT_HYPERPARAMS, canonical_json, config_hash,
                           load_config, resolve_config)
from fedcbo.errors import ConfigError, InvalidParameterError
from fedcbo.sde import HyperParams, InitSpec


def test_empty_config_resolves_to_defaults():
    config = resolve_config({})
    assert config.protocol == "fedcbo"
    assert config.seeds == [0, 1, 2]
    assert config.problem["kind"] == "learner"
    assert config.hyperparams == DEFAULT_HYPERPARAMS
    assert isinstance(config.hp(), HyperParams)


def test_partial_sections_merge_over_defaults():
    config = resolve_config({
        "hyperparams": {"alpha": 50.0},
        "schedule": {"rounds": 3},
        "seeds": [7],
    })
    assert config.hyperparams["alpha"] == 50.0
    assert config.hyperparams["step_size"] == DEFAULT_HYPERPARAMS["step_size"]
    assert config.schedule["rounds"] == 3
    assert config.seeds == [7]


def test_benchmark_kind_switches_problem_defaults():
    config = resolve_config({"problem": {"kind": "benchmark"}})
    assert config.problem["objective"] == "quadratic"
    assert config.problem["dim"] == 2
    spec = config.init_spec()
    assert spec.std == config.problem["init_std"]


def test_validation_collects_every_problem_at_once():
    with pytest.raises(ConfigError) as err:
        resolve_config({
            "problem": {"kind": "benchmark", "dim": 0, "scale": -1.0},
            "hyperparams": {"alpha": 0.0, "bogus": 1},
            "protocol": "gossip",
            "extra_section": {},
        })
    problems = err.value.problems
    assert len(problems) >= 5
    joined = "\n".join(problems)
    assert "problem.dim" in joined
    assert "problem.scale" in joined
    assert "hyperparams.alpha" in joined
    assert "hyperparams.bogus" in joined
    assert "protocol" in joined
    assert "extra_section" in joined


def test_unknown_fields_are_rejected_per_section():
    with pytest.raises(ConfigError) as err:
        resolve_config({"schedule": {"steps": 10}})
    assert any("schedule.steps" in p for p in err.value.problems)


def test_learner_problem_constraints():
    with pytest.raises(ConfigError) as err:
        resolve_config({"problem": {"n_agents": 10, "n_clusters": 4}})
    assert any("divisible" in p for p in err.value.problems)
    with pytest.raises(ConfigError):
        resolve_config({"problem": {"input_dim": 1}})
    with pytest.raises(ConfigError):
        resolve_config({"problem": {"model": "forest"}})


def test_seed_and_type_validation():
    with pytest.raises(ConfigError):
        resolve_config({"seeds": []})
    with pytest.raises(ConfigError):
        resolve_config({"seeds": [0, "one"]})
    with pytest.raises(ConfigError):
        resolve_config({"seeds": [True]})
    with pytest.raises(ConfigError):
        resolve_config({"hyperparams": {"local_steps": 2.5}})
    with pytest.raises(ConfigError):
        resolve_config({"schedule": {"participation": 1.5}})
    with pytest.raises(ConfigError):
        resolve_config([1, 2, 3])


def test_canonical_json_is_order_independent():
    a = canonical_json({"b": 1, "a": {"d": 2, "c": 3}})
    b = canonical_json({"a": {"c": 3, "d": 2}, "b": 1})
    assert a == b
    assert " " not in a


def test_config_hash_tracks_values_not_ordering():
    base = resolve_config({"seeds": [0]})
    same = resolve_config({"seeds": [0]})
    assert base.hash() == same.hash()
    changed = resolve_config({"seeds": [0], "hyperparams": {"alpha": 11.0}})
    assert base.hash() != changed.hash()
    assert config_hash(base.resolved()) == base.hash()
    assert len(base.hash()) == 64


def test_resolved_roundtrips_through_json():
    config = resolve_config({"problem": {"kind": "benchmark"}})
    resolved = config.resolved()
    assert json.loads(json.dumps(resolved)) == resolved


def test_load_config_from_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"protocol": "ifca", "seeds": [4]}))
    config = load_config(path)
    assert config.protocol == "ifca"
    assert config.seeds == [4]


def test_load_config_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(tmp_path / "absent.json")
    assert any("not found" in p for p in err.value.problems)

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError) as err:
        load_config(bad)
    assert any("not valid JSON" in p for p in err.value.problems)


def test_cli_rejects_eps_out_of_range_and_bad_centers_listing_every_problem(tmp_path,
                                                                            capsys):
    from fedcbo.cli import main

    raw = {
        "problem": {"kind": "benchmark", "dim": 2,
                    "centers": [[0.0, 0.0, 1.0], [1.0, 1.0], ["a", 1.0]]},
        "hyperparams": {"eps_start": 1.5, "eps_floor": 1.2, "eps_decay": -0.1},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert all(line.startswith("config error: ") for line in lines)
    joined = "\n".join(lines)
    for field in ("hyperparams.eps_start", "hyperparams.eps_floor",
                  "hyperparams.eps_decay", "problem.centers[0]", "problem.centers[2]"):
        assert field in joined
    assert "problem.centers[1]" not in joined
    assert len(lines) == 5
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("hyperparams,problem,field", [
    ({"eps_start": 1.5}, {}, "hyperparams.eps_start"),
    ({"eps_floor": -0.5}, {}, "hyperparams.eps_floor"),
    ({}, {"kind": "benchmark", "dim": 3, "centers": [[0.0, 0.0]]}, "problem.centers[0]"),
    ({}, {"kind": "benchmark", "centers": []}, "problem.centers"),
])
def test_eps_and_center_problems_exit_2_through_the_cli(tmp_path, capsys, hyperparams,
                                                        problem, field):
    from fedcbo.cli import main

    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"problem": problem, "hyperparams": hyperparams}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err


def test_repeated_seeds_exit_2_naming_them_with_every_other_problem(tmp_path, capsys):
    from fedcbo.cli import main

    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"seeds": [7, 3, 7, 1, 3],
                                "hyperparams": {"alpha": -1}}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert "config error: seeds: each seed may appear once, repeated: [3, 7]" in lines
    assert any("hyperparams.alpha" in line for line in lines)
    assert len(lines) == 2
    assert not (tmp_path / "out").exists()


def test_contraction_factor_above_one_warns_once_naming_the_product(caplog):
    with caplog.at_level(logging.WARNING, logger="fedcbo.config"):
        config = resolve_config({"hyperparams": {"consensus_drift": 10.0,
                                                 "step_size": 0.25}})
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "consensus_drift * step_size = 2.5" in warnings[0].getMessage()
    assert config.hyperparams["step_size"] == 0.25  # still accepted


def test_default_contraction_factor_of_one_does_not_warn(caplog):
    assert DEFAULT_HYPERPARAMS["consensus_drift"] * DEFAULT_HYPERPARAMS["step_size"] == 1.0
    with caplog.at_level(logging.WARNING, logger="fedcbo.config"):
        resolve_config({})
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


NON_FINITE_CASES = {
    "non-numeric-mean-and-offset": (
        {"problem": {"init_mean": "x", "offset": "x"}},
        ["problem.init_mean: expected a finite number, got 'x'",
         "problem.offset: expected a finite number, got 'x'"]),
    "infinite-alpha": ({"hyperparams": {"alpha": float("inf")}},
                       ["hyperparams.alpha: expected a finite number, got inf"]),
    "infinite-init-std": ({"problem": {"init_std": float("inf")}},
                          ["problem.init_std: expected a finite number, got inf"]),
    "nan-step-size": ({"hyperparams": {"step_size": float("nan")}},
                      ["hyperparams.step_size: expected a finite number, got nan"]),
    "everything-at-once": (
        {"problem": {"init_mean": "x", "offset": "x", "init_std": float("inf"),
                     "centers": [[float("nan"), 0.0], [1.0, 1.0]]},
         "hyperparams": {"alpha": float("inf"), "step_size": float("nan"),
                         "eps_start": float("inf")}},
        ["problem.init_std: expected a finite number, got inf",
         "problem.init_mean: expected a finite number, got 'x'",
         "problem.offset: expected a finite number, got 'x'",
         "problem.centers[0]: expected a list of finite numbers, got [nan, 0.0]",
         "hyperparams.alpha: expected a finite number, got inf",
         "hyperparams.step_size: expected a finite number, got nan",
         "hyperparams.eps_start: expected a finite number, got inf"]),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
def test_non_finite_or_non_numeric_fields_exit_2_listing_every_problem(case, tmp_path,
                                                                       capsys):
    from fedcbo.cli import main

    overrides, expected = NON_FINITE_CASES[case]
    raw = {"problem": {"kind": "benchmark", "n_per_cluster": 5},
           "schedule": {"t_steps": 5}, "seeds": [0]}
    for section, fields in overrides.items():
        raw.setdefault(section, {}).update(fields)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))  # writes NaN and Infinity, as json parses them
    assert main(["sde", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == [f"config error: {problem}" for problem in expected]
    assert not (tmp_path / "out").exists()


def test_negative_seeds_and_unchecked_learner_fields_exit_2(tmp_path, capsys):
    from fedcbo.cli import main

    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"problem": {"data_seed": "x", "init_scale": "y"},
                                "seeds": [-1, 2]}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "config error: seeds: must be >= 0, got -1",
        "config error: problem.data_seed: expected a finite number, got 'x'",
        "config error: problem.init_scale: expected a finite number, got 'y'",
    ]
    path.write_text(json.dumps({"problem": {"data_seed": -3}, "seeds": [0]}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "problem.data_seed: must be >= 0, got -3" in capsys.readouterr().err
    path.write_text(json.dumps({"seeds": [0]}))
    assert main(["run", "--config", str(path), "--seed", "-1",
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.strip() == "config error: --seed: must be >= 0, got -1"
    assert not (tmp_path / "out").exists()


def test_unusable_learner_fields_and_peer_only_aggregation_exit_2(tmp_path, capsys):
    # Each config used to stop with a traceback (exit 1) or, for a non-bool
    # include_self, to run as if it were true.  Without its own model an
    # agent needs a download budget and a peer in every round, whatever the
    # protocol: --protocol applies after validation.
    from fedcbo.cli import main

    cases = [
        ({"problem": {"activation": "sigmoid", "n_classes": 1, "n_agents": 4,
                      "n_clusters": 2},
          "hyperparams": {"include_self": "no"}},
         ["problem.activation: must be 'tanh' or 'relu', got 'sigmoid'",
          "problem.n_classes: must be >= 2, got 1",
          "hyperparams.include_self: expected true or false, got 'no'"]),
        ({"problem": {"kind": "benchmark", "n_per_cluster": 2},
          "hyperparams": {"include_self": False, "download_budget": 0}},
         ["hyperparams.include_self: false needs hyperparams.download_budget >= 1, got 0"]),
        ({"problem": {"kind": "benchmark", "n_per_cluster": 2},
          "hyperparams": {"include_self": False}, "schedule": {"participation": 0.3}},
         ["hyperparams.include_self: false needs at least 2 agents in each round; "
          "schedule.participation 0.3 of 4 agents gives 1"]),
        ({"problem": {"kind": "benchmark", "n_per_cluster": 1, "dim": 1,
                      "centers": [[0.0], [1.0], [2.0]]},
          "hyperparams": {"include_self": False}, "schedule": {"participation": 0.4}},
         ["hyperparams.include_self: false needs at least 2 agents in each round; "
          "schedule.participation 0.4 of 3 agents gives 1"]),
        ({"problem": {"n_agents": 4, "n_clusters": 2},
          "hyperparams": {"include_self": False, "download_budget": 0},
          "schedule": {"participation": 0.2}},
         ["hyperparams.include_self: false needs hyperparams.download_budget >= 1, got 0",
          "hyperparams.include_self: false needs at least 2 agents in each round; "
          "schedule.participation 0.2 of 4 agents gives 1"]),
    ]
    path = tmp_path / "bad.json"
    for raw, expected in cases:
        path.write_text(json.dumps(dict(raw, seeds=[0])))
        for protocol in ("fedcbo", "local"):
            assert main(["run", "--config", str(path), "--protocol", protocol,
                         "--out", str(tmp_path / "out")]) == 2
            lines = capsys.readouterr().err.strip().splitlines()
            assert lines == [f"config error: {problem}" for problem in expected]
    assert not (tmp_path / "out").exists()

    # Two agents in every round is enough.
    path.write_text(json.dumps({"problem": {"kind": "benchmark", "n_per_cluster": 2},
                                "hyperparams": {"include_self": False},
                                "schedule": {"participation": 0.4, "rounds": 2},
                                "seeds": [0]}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "ok")]) == 0


INTEGER_FIELDS = [
    ("problem", "hidden"), ("problem", "n_clusters"), ("problem", "n_agents"),
    ("problem", "n_per_agent"), ("problem", "n_test"), ("problem", "n_classes"),
    ("problem", "input_dim"), ("problem", "data_seed"),
    ("benchmark", "dim"), ("benchmark", "n_per_cluster"),
    ("hyperparams", "local_steps"), ("hyperparams", "download_budget"),
    ("hyperparams", "batch_size"),
    ("schedule", "rounds"), ("schedule", "t_steps"), ("schedule", "record_every"),
    ("schedule", "n_list"), ("schedule", "n_projections"), ("schedule", "n_checkpoints"),
]


@pytest.mark.parametrize("section,field", INTEGER_FIELDS)
def test_integral_float_in_an_integer_field_exits_2(tmp_path, capsys, section, field):
    # 5.0 used to pass validation, and most such fields then crashed in
    # NumPy or range with a traceback.
    from fedcbo.cli import main

    value = [5.0] if field == "n_list" else 5.0
    if section == "benchmark":
        raw = {"problem": {"kind": "benchmark", field: value}}
        section = "problem"
    else:
        raw = {section: {field: value}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(raw, seeds=[0])))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"config error: {section}.{field}: expected an integer, got 5.0"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section,value", [
    ("problem", [1]), ("hyperparams", [1]), ("schedule", "x"), ("output", 5),
])
def test_a_section_that_is_not_an_object_exits_2_with_every_other_problem(
        tmp_path, capsys, section, value):
    from fedcbo.cli import main

    raw = {"hyperparams": {"alpha": -1.0}, "schedule": {"rounds": -1}, "seeds": [0]}
    raw[section] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    others = ["hyperparams.alpha: must be > 0, got -1.0",
              "schedule.rounds: must be >= 0, got -1"]
    expected = [f"{section}: expected an object"] + [
        problem for problem in others if not problem.startswith(section)]
    assert capsys.readouterr().err.strip().splitlines() == [
        f"config error: {problem}" for problem in expected]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section", ["problem", "hyperparams", "schedule", "output"])
def test_a_null_section_takes_every_default(section):
    assert resolve_config({section: None}).resolved() == resolve_config({}).resolved()


HYPERPARAM_REJECTS = {
    "consensus_drift": -1.0, "grad_drift": -0.5, "consensus_noise": float("nan"),
    "grad_noise": "x", "alpha": float("inf"), "step_size": float("nan"),
    "local_steps": 2.5, "download_budget": 1.5, "eps_start": 1.5, "eps_decay": -0.1,
    "eps_floor": 1.2, "momentum": 1.5, "batch_size": 0, "include_self": "no",
}


def test_every_hyperparams_field_has_a_rejected_case():
    assert sorted(HYPERPARAM_REJECTS) == sorted(DEFAULT_HYPERPARAMS)


@pytest.mark.parametrize("field", sorted(HYPERPARAM_REJECTS))
def test_hyperparams_and_the_config_reject_the_same_value_alike(field):
    value = HYPERPARAM_REJECTS[field]
    with pytest.raises(ConfigError) as config_err:
        resolve_config({"hyperparams": {field: value}})
    with pytest.raises(InvalidParameterError) as hp_err:
        HyperParams(**{field: value})
    assert str(hp_err.value).startswith(f"{field}: ")
    assert config_err.value.problems == [f"hyperparams.{hp_err.value}"]


def test_hyperparams_and_init_spec_accept_numpy_scalars_and_reject_bools():
    hp = HyperParams(local_steps=np.int64(3), download_budget=np.int32(2),
                     alpha=np.float64(5.0), batch_size=np.int64(4))
    assert hp.local_steps == 3
    with pytest.raises(InvalidParameterError, match="local_steps: expected a finite number"):
        HyperParams(local_steps=True)
    assert InitSpec(std=np.float32(2.0)).std == 2.0
    with pytest.raises(InvalidParameterError, match="std: expected a finite number, got inf"):
        InitSpec(std=float("inf"))
    with pytest.raises(InvalidParameterError, match="mean: expected a finite number"):
        InitSpec(mean="x")


def test_an_integer_too_long_for_a_float_exits_2(tmp_path, capsys):
    # math.isfinite raised OverflowError on it, a traceback with exit 1.
    from fedcbo.cli import main

    path = tmp_path / "bad.json"
    path.write_text('{"hyperparams": {"alpha": 1' + "0" * 400 + '}, "seeds": [0]}')
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: hyperparams.alpha: expected a finite number, got 1000")
    assert not (tmp_path / "out").exists()
