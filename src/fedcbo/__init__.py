"""Clustered consensus-based optimization: simulator, protocol, baselines."""

__version__ = "0.1.0"

from .config import HyperParams, InitSpec
from .consensus import ConsensusPoint, consensus_point, consensus_point_for_agent
from .errors import ConfigError, DivergenceError, InvalidParameterError
from .objectives import (BenchmarkProblem, Objective, make_quadratic,
                         make_rastrigin, make_well_problem)
from .protocol import epsilon_for_round
from .sde import (ParticleCloud, decay_exponent_fit, em_step, make_cloud, run_sde,
                  run_sde_ensemble)

__all__ = [
    "BenchmarkProblem", "ConfigError", "ConsensusPoint", "DivergenceError",
    "HyperParams", "InitSpec", "InvalidParameterError", "Objective",
    "ParticleCloud", "consensus_point",
    "consensus_point_for_agent", "decay_exponent_fit", "em_step",
    "epsilon_for_round", "make_cloud", "make_quadratic", "make_rastrigin",
    "make_well_problem", "run_sde", "run_sde_ensemble",
]
