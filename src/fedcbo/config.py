"""Experiment configuration: JSON in, fully-resolved dict out.

A config file has sections [problem], [hyperparams], [schedule], [output],
each an object or null (all defaults), plus top-level "protocol" and "seeds".
One table per section holds each field's default and rule; ``HyperParams``
and ``InitSpec`` check their fields with the same rules.  Integer fields take
JSON integers (5, not 5.0).  The resolved config is echoed into the run
manifest, so a manifest shows the exact values that ran.  Validation collects
every violation instead of stopping at the first.
"""

import copy
import hashlib
import json
import logging
import math
import numbers
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError, InvalidParameterError

log = logging.getLogger(__name__)

PROTOCOLS = ("fedcbo", "fedavg", "ifca", "local")


def _is_finite_number(value):
    # json parses NaN, Infinity and integers too long for a float, so a
    # number can still be non-finite.
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


def _is_integer(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


_BOUNDS = (("ge", ">=", operator.ge), ("gt", ">", operator.gt),
           ("le", "<=", operator.le), ("lt", "<", operator.lt))


def _number(integer=False, **bounds):
    """A finite number, integral if ``integer``, within bounds ge, gt, le, lt."""
    def rule(name, value):
        if not _is_finite_number(value):
            return [f"{name}: expected a finite number, got {value!r}"]
        if integer and not _is_integer(value):
            return [f"{name}: expected an integer, got {value!r}"]
        return [f"{name}: must be {symbol} {bounds[key]}, got {value}"
                for key, symbol, test in _BOUNDS
                if key in bounds and not test(value, bounds[key])]
    return rule


def _integer(minimum):
    return _number(integer=True, ge=minimum)


def _integer_list(minimum):
    item = _integer(minimum)

    def rule(name, value):
        if not isinstance(value, list) or not value:
            return [f"{name}: expected a nonempty list"]
        return [problem for v in value for problem in item(name, v)]
    return rule


def _choice(*options):
    text = " or ".join(repr(option) for option in options)
    return lambda name, value: ([] if value in options
                                else [f"{name}: must be {text}, got {value!r}"])


def _bool(name, value):
    return [] if isinstance(value, bool) else [f"{name}: expected true or false, got {value!r}"]


def _text(name, value):
    return [] if isinstance(value, str) and value else [f"{name}: expected a nonempty string"]


def _is_point(value):
    return isinstance(value, list) and all(_is_finite_number(v) for v in value)


def _centers(name, value):
    if not isinstance(value, list) or not value:
        return [f"{name}: expected a nonempty list of points or null"]
    return [f"{name}[{k}]: expected a list of finite numbers, got {center!r}"
            for k, center in enumerate(value) if not _is_point(center)]


# problem.kind picks the problem table; both tables check it with this rule.
_KIND = _choice("learner", "benchmark")

# One table per section: field -> (default, rule).  A rule takes a field's
# name and value and returns its problems as messages.  A field whose default
# is null also accepts null.  Fields are checked, and their problems listed,
# in table order.

LEARNER_PROBLEM = {
    "kind": ("learner", _KIND),
    "model": ("mlp", _choice("mlp", "logistic")),
    "activation": ("tanh", _choice("tanh", "relu")),
    "hidden": (16, _integer(1)),
    "n_clusters": (4, _integer(1)),
    "n_agents": (40, _integer(1)),
    "n_per_agent": (100, _integer(1)),
    "n_test": (400, _integer(1)),
    "n_classes": (4, _integer(2)),
    "input_dim": (16, _integer(2)),
    "radius": (2.0, _number(gt=0)),
    "blob_std": (1.35, _number(gt=0)),
    "noise_std": (1.0, _number(ge=0)),
    "data_seed": (None, _integer(0)),
    "init_scale": (None, _number()),
}

BENCHMARK_PROBLEM = {
    "kind": ("benchmark", _KIND),
    "objective": ("quadratic", _choice("quadratic", "rastrigin")),
    "dim": (2, _integer(1)),
    "n_per_cluster": (200, _integer(1)),
    "scale": (1.0, _number(gt=0)),
    "init_std": (3.0, _number(gt=0)),
    "init_mean": (0.0, _number()),
    "offset": (2.0, _number()),
    "centers": (None, _centers),
}

HYPERPARAMS = {
    "consensus_drift": (10.0, _number(ge=0)),
    "grad_drift": (1.0, _number(ge=0)),
    "consensus_noise": (0.0, _number(ge=0)),
    "grad_noise": (0.0, _number(ge=0)),
    "alpha": (10.0, _number(gt=0)),
    "step_size": (0.1, _number(gt=0)),
    "local_steps": (5, _integer(0)),
    "download_budget": (10, _integer(0)),
    "eps_start": (0.5, _number(ge=0, le=1)),
    "eps_decay": (0.01, _number(ge=0)),
    "eps_floor": (0.1, _number(ge=0, le=1)),
    "momentum": (0.9, _number(ge=0, lt=1)),
    "batch_size": (None, _integer(1)),
    "include_self": (True, _bool),
}

SCHEDULE = {
    "rounds": (30, _integer(0)),
    "t_steps": (200, _integer(1)),
    "participation": (1.0, _number(gt=0, le=1)),
    "record_every": (1, _integer(1)),
    "n_list": ([50, 100, 200, 400, 800], _integer_list(1)),
    "n_projections": (64, _integer(1)),
    "n_checkpoints": (20, _integer(1)),
}

OUTPUT = {"dir": ("runs/out", _text)}


def _defaults(table):
    return {key: copy.deepcopy(default) for key, (default, _) in table.items()}


DEFAULT_HYPERPARAMS = _defaults(HYPERPARAMS)


def _check(prefix, table, values):
    return [problem for key, (default, rule) in table.items()
            if not (values[key] is None and default is None)
            for problem in rule(prefix + key, values[key])]


def _raise_invalid(problems):
    if problems:
        raise InvalidParameterError("; ".join(problems))


@dataclass(frozen=True)
class HyperParams:
    """Dynamics and protocol knobs shared by the simulator and the protocol.

    consensus_drift / grad_drift are the drift rates toward the consensus
    point and down the local gradient; consensus_noise / grad_noise scale
    the matching noise terms.  local_steps and download_budget only matter
    for the round-based protocol.  The [hyperparams] table's rules apply;
    the defaults here are the simulator's own.
    """

    consensus_drift: float = 1.0
    grad_drift: float = 0.0
    consensus_noise: float = 0.0
    grad_noise: float = 0.0
    alpha: float = 10.0
    step_size: float = 0.1
    local_steps: int = 1
    download_budget: int = 0
    eps_start: float = 0.5
    eps_decay: float = 0.01
    eps_floor: float = 0.1
    momentum: float = 0.0
    batch_size: Optional[int] = None
    include_self: bool = True

    def __post_init__(self):
        _raise_invalid(_check("", HYPERPARAMS, vars(self)))

    def contraction_margin(self, grad_lipschitz, dim):
        """2*l1 - (2*l2*M + d*s1^2 + d*s2^2*M^2); positive means contraction."""
        m = float(grad_lipschitz)
        return (
            2.0 * self.consensus_drift
            - 2.0 * self.grad_drift * m
            - dim * self.consensus_noise**2
            - dim * self.grad_noise**2 * m * m
        )

    def theory_regime(self, grad_lipschitz, dim):
        return self.contraction_margin(grad_lipschitz, dim) > 0.0


@dataclass(frozen=True)
class InitSpec:
    """Isotropic Gaussian initialization  N(mean, std^2 I), with the rules of
    problem.init_std and problem.init_mean."""

    std: float = 1.0
    mean: float = 0.0

    def __post_init__(self):
        _raise_invalid(BENCHMARK_PROBLEM["init_std"][1]("std", self.std)
                       + BENCHMARK_PROBLEM["init_mean"][1]("mean", self.mean))


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
        return dict(vars(self))

    def hash(self):
        return config_hash(self.resolved())

    def hp(self):
        return HyperParams(**self.hyperparams)

    def init_spec(self):
        return InitSpec(std=self.problem["init_std"], mean=self.problem["init_mean"])


def _merge(name, table, given, problems):
    """The section ``given`` over the table's defaults; null means all defaults."""
    out = _defaults(table)
    if given is not None and not isinstance(given, dict):
        problems.append(f"{name}: expected an object")
        return out
    for key, value in (given or {}).items():
        if key in out:
            out[key] = value
        else:
            problems.append(f"{name}.{key}: unknown field")
    return out


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

    raw_problem = raw.get("problem")
    kind = raw_problem.get("kind") if isinstance(raw_problem, dict) else None
    problem_table = BENCHMARK_PROBLEM if kind == "benchmark" else LEARNER_PROBLEM
    problem = _merge("problem", problem_table, raw_problem, problems)
    hyperparams = _merge("hyperparams", HYPERPARAMS, raw.get("hyperparams"), problems)
    schedule = _merge("schedule", SCHEDULE, raw.get("schedule"), problems)
    output = _merge("output", OUTPUT, raw.get("output"), problems)

    protocol = raw.get("protocol", "fedcbo")
    problems.extend(_choice(*PROTOCOLS)("protocol", protocol))

    seeds = raw.get("seeds", [0, 1, 2])
    problems.extend(_integer_list(0)("seeds", seeds))
    if isinstance(seeds, list):
        # A repeated seed would run twice, list its metric file twice and
        # give the summary a spread of zero.
        counts = Counter(s for s in seeds if _is_integer(s))
        repeated = sorted(s for s, c in counts.items() if c > 1)
        if repeated:
            problems.append(f"seeds: each seed may appear once, repeated: {repeated}")

    problems += _check("problem.", problem_table, problem)
    if problem_table is LEARNER_PROBLEM:
        n_agents, n_clusters = problem["n_agents"], problem["n_clusters"]
        if _is_integer(n_agents) and _is_integer(n_clusters) and n_clusters >= 1 \
                and n_agents % n_clusters:
            problems.append("problem.n_agents: must be divisible by n_clusters")
    elif _is_integer(problem["dim"]) and problem["dim"] >= 1 \
            and isinstance(problem["centers"], list):
        for k, center in enumerate(problem["centers"]):
            if _is_point(center) and len(center) != problem["dim"]:
                problems.append(f"problem.centers[{k}]: has {len(center)} coordinates, "
                                f"dim is {problem['dim']}")
    problems += _check("hyperparams.", HYPERPARAMS, hyperparams)
    problems += _check("schedule.", SCHEDULE, schedule)
    _check_peer_only(problem, hyperparams, schedule, problems)
    problems += _check("output.", OUTPUT, output)

    if problems:
        raise ConfigError(problems)
    _warn_on_overshoot(hyperparams)
    return ExperimentConfig(problem=problem, hyperparams=hyperparams,
                            schedule=schedule, output=output,
                            protocol=protocol, seeds=[int(s) for s in seeds])


def _check_peer_only(problem, hp, schedule, problems):
    """Without its own model an agent aggregates its downloads alone, so it
    needs a download budget and at least one other agent in every round."""
    if hp["include_self"] is not False:
        return
    if hp["download_budget"] == 0:
        problems.append("hyperparams.include_self: false needs "
                        "hyperparams.download_budget >= 1, got 0")
    if "n_agents" in problem:
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
