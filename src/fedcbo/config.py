"""Experiment configuration: JSON in, fully-resolved dict out.

A config file has sections [problem], [hyperparams], [schedule], [output]
plus top-level "protocol" and "seeds".  Every omitted field is filled from
the defaults below and the resolved config is echoed into the run manifest,
so a manifest always shows the exact values that ran.  Validation collects
every violation instead of stopping at the first.
"""

import copy
import hashlib
import json
import logging
import math
from collections import Counter
from dataclasses import dataclass

from .errors import ConfigError
from .sde import HyperParams, InitSpec

log = logging.getLogger(__name__)

PROTOCOLS = ("fedcbo", "fedavg", "ifca", "local")

DEFAULT_HYPERPARAMS = {
    "consensus_drift": 10.0,
    "grad_drift": 1.0,
    "consensus_noise": 0.0,
    "grad_noise": 0.0,
    "alpha": 10.0,
    "step_size": 0.1,
    "local_steps": 5,
    "download_budget": 10,
    "eps_start": 0.5,
    "eps_decay": 0.01,
    "eps_floor": 0.1,
    "momentum": 0.9,
    "batch_size": None,
    "include_self": True,
}

DEFAULT_LEARNER_PROBLEM = {
    "kind": "learner",
    "model": "mlp",
    "hidden": 16,
    "activation": "tanh",
    "n_clusters": 4,
    "n_agents": 40,
    "n_per_agent": 100,
    "input_dim": 16,
    "n_classes": 4,
    "radius": 2.0,
    "blob_std": 1.35,
    "noise_std": 1.0,
    "n_test": 400,
    "data_seed": None,
    "init_scale": None,
}

DEFAULT_BENCHMARK_PROBLEM = {
    "kind": "benchmark",
    "objective": "quadratic",
    "dim": 2,
    "offset": 2.0,
    "centers": None,
    "scale": 1.0,
    "n_per_cluster": 200,
    "init_std": 3.0,
    "init_mean": 0.0,
}

DEFAULT_SCHEDULE = {
    "rounds": 30,
    "t_steps": 200,
    "participation": 1.0,
    "record_every": 1,
    "n_list": [50, 100, 200, 400, 800],
    "n_projections": 64,
    "n_checkpoints": 20,
}

DEFAULT_OUTPUT = {"dir": "runs/out"}


def canonical_json(obj):
    """Stable serialization used for hashing and manifests."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(resolved):
    return hashlib.sha256(canonical_json(resolved).encode()).hexdigest()


@dataclass
class ExperimentConfig:
    """A validated, fully-resolved experiment description."""

    problem: dict
    hyperparams: dict
    schedule: dict
    output: dict
    protocol: str
    seeds: list

    def resolved(self):
        return {
            "problem": self.problem,
            "hyperparams": self.hyperparams,
            "schedule": self.schedule,
            "output": self.output,
            "protocol": self.protocol,
            "seeds": self.seeds,
        }

    def hash(self):
        return config_hash(self.resolved())

    def hp(self):
        return HyperParams(**self.hyperparams)

    def init_spec(self):
        return InitSpec(std=self.problem["init_std"], mean=self.problem["init_mean"])


def _merge_section(name, defaults, given, problems):
    out = copy.deepcopy(defaults)
    for key, value in given.items():
        if key not in defaults:
            problems.append(f"{name}.{key}: unknown field")
            continue
        out[key] = value
    return out


def _is_finite_number(value):
    # json parses NaN and Infinity, so a number can still be non-finite.
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _require_number(section, key, value, problems, minimum=None, strict=False,
                    integer=False):
    if not _is_finite_number(value):
        problems.append(f"{section}.{key}: expected a finite number, got {value!r}")
        return
    if integer and int(value) != value:
        problems.append(f"{section}.{key}: expected an integer, got {value!r}")
        return
    if minimum is not None:
        if strict and value <= minimum:
            problems.append(f"{section}.{key}: must be > {minimum}, got {value}")
        elif not strict and value < minimum:
            problems.append(f"{section}.{key}: must be >= {minimum}, got {value}")


def load_config(path):
    """Read and validate a JSON config file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"])
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"])
    return resolve_config(raw)


def resolve_config(raw):
    """Merge a raw config dict over the defaults and validate everything."""
    problems = []
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a JSON object"])

    known_top = {"problem", "hyperparams", "schedule", "output", "protocol", "seeds"}
    for key in raw:
        if key not in known_top:
            problems.append(f"{key}: unknown top-level section")

    raw_problem = raw.get("problem", {})
    if not isinstance(raw_problem, dict):
        problems.append("problem: expected an object")
        raw_problem = {}
    kind = raw_problem.get("kind", "learner")
    if kind not in ("learner", "benchmark"):
        problems.append(f"problem.kind: must be 'learner' or 'benchmark', got {kind!r}")
        kind = "learner"
    base = DEFAULT_LEARNER_PROBLEM if kind == "learner" else DEFAULT_BENCHMARK_PROBLEM
    problem = _merge_section("problem", base, raw_problem, problems)
    problem["kind"] = kind

    hyperparams = _merge_section(
        "hyperparams", DEFAULT_HYPERPARAMS, raw.get("hyperparams", {}) or {}, problems
    )
    schedule = _merge_section(
        "schedule", DEFAULT_SCHEDULE, raw.get("schedule", {}) or {}, problems
    )
    output = _merge_section("output", DEFAULT_OUTPUT, raw.get("output", {}) or {}, problems)

    protocol = raw.get("protocol", "fedcbo")
    if protocol not in PROTOCOLS:
        problems.append(f"protocol: must be one of {PROTOCOLS}, got {protocol!r}")

    seeds = raw.get("seeds", [0, 1, 2])
    if not isinstance(seeds, list) or not seeds:
        problems.append("seeds: expected a nonempty list of integers")
        seeds = [0]
    else:
        for s in seeds:
            if isinstance(s, bool) or not isinstance(s, int):
                problems.append(f"seeds: expected integers, got {s!r}")
            elif s < 0:
                problems.append(f"seeds: must be >= 0, got {s}")
        # A repeated seed would run twice, list its metric file twice and
        # give the summary a spread of zero.
        counts = Counter(s for s in seeds if isinstance(s, int) and not isinstance(s, bool))
        repeated = sorted(s for s, c in counts.items() if c > 1)
        if repeated:
            problems.append(f"seeds: each seed may appear once, repeated: {repeated}")

    _validate_problem(problem, problems)
    _validate_hyperparams(hyperparams, problems)
    _validate_schedule(schedule, problems)
    _validate_peer_only(problem, hyperparams, schedule, problems)
    if not isinstance(output.get("dir"), str) or not output["dir"]:
        problems.append("output.dir: expected a nonempty string")

    if problems:
        raise ConfigError(problems)
    _warn_on_overshoot(hyperparams)
    return ExperimentConfig(problem=problem, hyperparams=hyperparams,
                            schedule=schedule, output=output,
                            protocol=protocol, seeds=[int(s) for s in seeds])


def _validate_problem(problem, problems):
    if problem["kind"] == "learner":
        if problem["model"] not in ("mlp", "logistic"):
            problems.append(f"problem.model: must be 'mlp' or 'logistic', got {problem['model']!r}")
        if problem["activation"] not in ("tanh", "relu"):
            problems.append("problem.activation: must be 'tanh' or 'relu', "
                            f"got {problem['activation']!r}")
        for key in ("hidden", "n_clusters", "n_agents", "n_per_agent", "n_test"):
            _require_number("problem", key, problem[key], problems, minimum=1, integer=True)
        _require_number("problem", "n_classes", problem["n_classes"], problems,
                        minimum=2, integer=True)
        _require_number("problem", "input_dim", problem["input_dim"], problems,
                        minimum=2, integer=True)
        for key in ("radius", "blob_std"):
            _require_number("problem", key, problem[key], problems, minimum=0, strict=True)
        _require_number("problem", "noise_std", problem["noise_std"], problems, minimum=0)
        if problem["data_seed"] is not None:
            _require_number("problem", "data_seed", problem["data_seed"], problems,
                            minimum=0, integer=True)
        if problem["init_scale"] is not None:
            _require_number("problem", "init_scale", problem["init_scale"], problems)
        if isinstance(problem["n_agents"], int) and isinstance(problem["n_clusters"], int):
            if problem["n_clusters"] >= 1 and problem["n_agents"] % problem["n_clusters"]:
                problems.append("problem.n_agents: must be divisible by n_clusters")
    else:
        if problem["objective"] not in ("quadratic", "rastrigin"):
            problems.append(
                f"problem.objective: must be 'quadratic' or 'rastrigin', got {problem['objective']!r}"
            )
        _require_number("problem", "dim", problem["dim"], problems, minimum=1, integer=True)
        _require_number("problem", "n_per_cluster", problem["n_per_cluster"], problems,
                        minimum=1, integer=True)
        _require_number("problem", "scale", problem["scale"], problems, minimum=0, strict=True)
        _require_number("problem", "init_std", problem["init_std"], problems,
                        minimum=0, strict=True)
        _require_number("problem", "init_mean", problem["init_mean"], problems)
        _require_number("problem", "offset", problem["offset"], problems)
        _validate_centers(problem["centers"], problem["dim"], problems)


def _validate_centers(centers, dim, problems):
    if centers is None:
        return
    if not isinstance(centers, list) or not centers:
        problems.append("problem.centers: expected a nonempty list of points or null")
        return
    check_length = isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1
    for k, center in enumerate(centers):
        if not isinstance(center, list) or not all(_is_finite_number(v) for v in center):
            problems.append(f"problem.centers[{k}]: expected a list of finite numbers, "
                            f"got {center!r}")
        elif check_length and len(center) != dim:
            problems.append(f"problem.centers[{k}]: has {len(center)} coordinates, "
                            f"dim is {dim}")


def _validate_hyperparams(hp, problems):
    for key in ("consensus_drift", "grad_drift", "consensus_noise", "grad_noise"):
        _require_number("hyperparams", key, hp[key], problems, minimum=0)
    _require_number("hyperparams", "alpha", hp["alpha"], problems, minimum=0, strict=True)
    _require_number("hyperparams", "step_size", hp["step_size"], problems,
                    minimum=0, strict=True)
    for key in ("local_steps", "download_budget"):
        _require_number("hyperparams", key, hp[key], problems, minimum=0, integer=True)
    for key in ("eps_start", "eps_decay", "eps_floor"):
        _require_number("hyperparams", key, hp[key], problems, minimum=0)
    for key in ("eps_start", "eps_floor"):
        value = hp[key]
        if _is_finite_number(value) and value > 1:
            problems.append(f"hyperparams.{key}: must be <= 1, got {value}")
    _require_number("hyperparams", "momentum", hp["momentum"], problems, minimum=0)
    if _is_finite_number(hp["momentum"]) and hp["momentum"] >= 1.0:
        problems.append("hyperparams.momentum: must be < 1")
    if hp["batch_size"] is not None:
        _require_number("hyperparams", "batch_size", hp["batch_size"], problems,
                        minimum=1, integer=True)
    if not isinstance(hp["include_self"], bool):
        problems.append(f"hyperparams.include_self: expected true or false, "
                        f"got {hp['include_self']!r}")


def _validate_peer_only(problem, hp, schedule, problems):
    """Without its own model an agent aggregates its downloads alone, so it
    needs a download budget and at least one other agent in every round."""
    if hp["include_self"] is not False:
        return
    if hp["download_budget"] == 0:
        problems.append("hyperparams.include_self: false needs "
                        "hyperparams.download_budget >= 1, got 0")
    if problem["kind"] == "learner":
        n_agents = problem["n_agents"]
    else:
        n_agents, centers = problem["n_per_cluster"], problem["centers"]
        if _is_finite_number(n_agents):
            n_agents *= len(centers) if isinstance(centers, list) and centers else 2
    p = schedule["participation"]
    if _is_finite_number(n_agents) and n_agents >= 1 and _is_finite_number(p) and 0 < p <= 1:
        per_round = max(1, math.floor(p * n_agents + 0.5))
        if per_round < 2:
            problems.append(f"hyperparams.include_self: false needs at least 2 agents in "
                            f"each round; schedule.participation {p} of {n_agents} agents "
                            f"gives {per_round}")


def _warn_on_overshoot(hp):
    """Aggregation moves a model by consensus_drift * step_size of the way to
    its consensus point; above 1 it jumps past that point.  Such configs stay
    valid, so this only warns."""
    factor = hp["consensus_drift"] * hp["step_size"]
    if factor > 1:
        log.warning("hyperparams: contraction factor consensus_drift * step_size = %g "
                    "> 1; aggregation overshoots the consensus point", factor)


def _validate_schedule(schedule, problems):
    _require_number("schedule", "rounds", schedule["rounds"], problems,
                    minimum=0, integer=True)
    _require_number("schedule", "t_steps", schedule["t_steps"], problems,
                    minimum=1, integer=True)
    _require_number("schedule", "participation", schedule["participation"], problems,
                    minimum=0, strict=True)
    p = schedule["participation"]
    if _is_finite_number(p) and p > 1:
        problems.append("schedule.participation: must be <= 1")
    _require_number("schedule", "record_every", schedule["record_every"], problems,
                    minimum=1, integer=True)
    if not isinstance(schedule["n_list"], list) or not schedule["n_list"]:
        problems.append("schedule.n_list: expected a nonempty list")
    else:
        for n in schedule["n_list"]:
            _require_number("schedule", "n_list", n, problems, minimum=1, integer=True)
    for key in ("n_projections", "n_checkpoints"):
        _require_number("schedule", key, schedule[key], problems, minimum=1, integer=True)
