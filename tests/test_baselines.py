"""Reference protocols: uniform averaging, cluster-model alternation, and
purely local training, all on the shared compute budget."""

import numpy as np
import pytest

from fedcbo import rng as rng_mod
from fedcbo.errors import DivergenceError, InvalidParameterError
from fedcbo.learners import ObjectiveTasks
from fedcbo.objectives import make_quadratic
from fedcbo.sde import HyperParams


from fedcbo.baselines import fedavg_round, ifca_round, local_only_round


def hp_with(**kwargs):
    base = dict(consensus_drift=1.0, grad_drift=1.0, alpha=1.0, step_size=0.1,
                local_steps=1)
    base.update(kwargs)
    return HyperParams(**base)


def symmetric_tasks(offset=2.0):
    return ObjectiveTasks([make_quadratic(1, np.array([offset])),
                           make_quadratic(1, np.array([-offset]))])


def test_fedavg_is_the_uniform_mean_of_local_updates():
    tasks = symmetric_tasks()
    streams = rng_mod.agent_streams(0, 2)
    hp = hp_with()
    global_model = np.array([1.0])
    out = fedavg_round(global_model, tasks, hp, streams)
    # Local updates: 1 - 0.1*2*(1-2) = 1.2 and 1 - 0.1*2*(1+2) = 0.4
    assert abs(out[0] - 0.8) < 1e-12


def test_fedavg_stalls_on_symmetric_clusters():
    # Opposite wells cancel exactly: the global model never leaves 0, the
    # failure mode that motivates clustering.
    tasks = symmetric_tasks()
    streams = rng_mod.agent_streams(0, 2)
    hp = hp_with()
    model = np.array([0.0])
    for _ in range(5):
        model = fedavg_round(model, tasks, hp, streams)
    assert model[0] == 0.0


def test_ifca_assigns_each_agent_to_its_best_model():
    tasks = symmetric_tasks()
    streams = rng_mod.agent_streams(0, 2)
    server = np.array([[1.5], [-1.5]])
    result = ifca_round(server, tasks, hp_with(), streams)
    assert np.array_equal(result.assignments, [0, 1])
    # Each model averages its single adopter's local update:
    # 1.5 - 0.1*2*(1.5-2) = 1.6 and -1.5 - 0.1*2*(-1.5+2) = -1.6
    assert np.allclose(result.models, [[1.6], [-1.6]], atol=1e-12)
    # Mean loss over agents of the chosen models: (1.5-2)^2 each side.
    assert abs(result.mean_loss - 0.25) < 1e-12


def test_ifca_ties_go_to_the_lower_model_id():
    tasks = ObjectiveTasks([make_quadratic(1, np.zeros(1))])
    server = np.array([[1.0], [-1.0]])  # equal loss from the task's view
    result = ifca_round(server, tasks, hp_with(local_steps=0),
                        rng_mod.agent_streams(0, 1))
    assert result.assignments[0] == 0


def test_ifca_unadopted_models_persist_unchanged():
    tasks = ObjectiveTasks([make_quadratic(1, np.array([2.0]))])
    server = np.array([[1.9], [50.0]])
    result = ifca_round(server, tasks, hp_with(), rng_mod.agent_streams(0, 1))
    assert result.assignments[0] == 0
    assert np.array_equal(result.models[1], [50.0])


def test_ifca_with_one_model_reduces_to_fedavg():
    tasks = symmetric_tasks()
    hp = hp_with()
    global_model = np.array([0.7])
    avg = fedavg_round(global_model, tasks, hp, rng_mod.agent_streams(0, 2))
    one = ifca_round(global_model[None, :], tasks, hp, rng_mod.agent_streams(0, 2))
    assert np.array_equal(one.models[0], avg)
    assert np.array_equal(one.assignments, [0, 0])


def test_ifca_validates_server_model_shape():
    with pytest.raises(InvalidParameterError):
        ifca_round(np.array([1.0, 2.0]), symmetric_tasks(), hp_with(),
                   rng_mod.agent_streams(0, 2))


def test_local_only_trains_each_agent_independently():
    tasks = symmetric_tasks()
    streams = rng_mod.agent_streams(0, 2)
    hp = hp_with()
    models = np.array([[0.0], [0.0]])
    out = local_only_round(models, tasks, hp, streams)
    # Each well alone: 0 - 0.1*2*(0-2) = 0.4 and 0 - 0.1*2*(0+2) = -0.4
    expected = np.array([
        ObjectiveTasks([tasks.objectives[j]]).train(np.array([[0.0]]), np.array([0]), 1,
                                                    0.1, None)[0]
        for j in range(2)
    ])
    assert np.allclose(expected, [[0.4], [-0.4]], atol=1e-12)
    assert np.array_equal(out, expected)
    assert np.array_equal(models, [[0.0], [0.0]])  # inputs untouched


class InfTasks(ObjectiveTasks):
    """Every local update diverges."""

    def train(self, thetas, agents, steps, rate, streams):
        return np.full_like(thetas, np.inf)


def test_baselines_raise_on_nonfinite_models():
    tasks = InfTasks([make_quadratic(1, np.zeros(1))])
    streams = rng_mod.agent_streams(0, 1)
    hp = hp_with()
    with pytest.raises(DivergenceError):
        fedavg_round(np.array([0.0]), tasks, hp, streams)
    with pytest.raises(DivergenceError):
        ifca_round(np.array([[0.0]]), tasks, hp, streams)
    with pytest.raises(DivergenceError):
        local_only_round(np.array([[0.0]]), tasks, hp, streams)
