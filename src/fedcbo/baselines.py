"""Reference protocols run under the same compute budget as the main one.

All three use the same local-training rule as the main protocol
(``tasks.train``: local_steps steps at rate grad_drift * step_size, batched
over agents), so a comparison at equal rounds is a comparison at equal
gradient work.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InvalidParameterError


def _check_finite(models, who):
    if not np.all(np.isfinite(models)):
        raise DivergenceError(f"{who}: model became non-finite")


def fedavg_round(global_model, tasks, hp, streams):
    """Every agent trains from the shared global model; uniform average."""
    rate = hp.grad_drift * hp.step_size
    n_agents = len(tasks)
    locals_ = tasks.train(np.tile(global_model, (n_agents, 1)), np.arange(n_agents),
                          hp.local_steps, rate, streams)
    new_global = locals_.mean(axis=0)
    _check_finite(new_global, "fedavg")
    return new_global


@dataclass
class IfcaRound:
    models: np.ndarray       # (n_models, dim)
    assignments: np.ndarray  # (n_agents,) chosen model per agent
    mean_loss: float


def ifca_round(server_models, tasks, hp, streams):
    """Cluster-model alternation: assign by lowest loss, train, re-average.

    Ties go to the lower model id.  A model nobody adopted persists
    unchanged.  With a single server model this reduces exactly to fedavg.
    """
    server_models = np.asarray(server_models, dtype=float)
    if server_models.ndim != 2 or server_models.shape[0] < 1:
        raise InvalidParameterError("server_models must be (n_models, dim)")
    n_models = server_models.shape[0]
    rate = hp.grad_drift * hp.step_size

    agents = np.arange(len(tasks))
    model_losses = tasks.losses(
        agents, np.broadcast_to(server_models, (len(tasks),) + server_models.shape))
    assignments = np.argmin(model_losses, axis=1)  # argmin takes the first = lowest id
    losses = model_losses[agents, assignments]
    updates = tasks.train(server_models[assignments], agents, hp.local_steps, rate,
                          streams)

    new_models = server_models.copy()
    for m in range(n_models):
        adopters = updates[assignments == m]
        if len(adopters):
            new_models[m] = np.mean(adopters, axis=0)
    _check_finite(new_models, "ifca")
    return IfcaRound(models=new_models, assignments=assignments,
                     mean_loss=float(losses.mean()))


def local_only_round(models, tasks, hp, streams):
    """Every agent trains alone; no communication at all."""
    rate = hp.grad_drift * hp.step_size
    new_models = tasks.train(models, np.arange(len(tasks)), hp.local_steps, rate,
                             streams)
    _check_finite(new_models, "local")
    return new_models
