"""Round protocol: selection rule, aggregation arithmetic, score updates,
snapshot semantics, and atomic failure handling."""

import dataclasses
import logging
import math
from collections import Counter

import numpy as np
import pytest

from fedcbo import rng as rng_mod
from fedcbo.config import resolve_config
from fedcbo.errors import DivergenceError, InvalidParameterError
from fedcbo.experiment import build_setup, run_protocol
from fedcbo.learners import ObjectiveTasks
from fedcbo.objectives import make_quadratic
from fedcbo.protocol import (_round_half_up, fedcbo_round, greedy_sample,
                             local_aggregation, oracle_sr, selection_ratio)
from fedcbo.sde import HyperParams


def test_round_half_up_convention():
    assert _round_half_up(0.5) == 1
    assert _round_half_up(1.5) == 2
    assert _round_half_up(2.5) == 3
    assert _round_half_up(2.4) == 2
    assert _round_half_up(-0.5) == 0


def test_likelihood_matrix_basics():
    # Scores are a plain (A, A) array.  A round adds own loss - peer loss
    # into row j at each downloaded peer, and touches no other entry.
    models, tasks, scores, hp, streams = two_agent_setup(n_agents=3)
    scores[0, 2] = 4.0            # agent 0 exploits toward peer 2
    scores[2, 0] = 4.0            # agent 2 toward peer 0
    scores[1, 0] = 4.0            # agent 1 toward peer 0
    hp = dataclasses.replace(hp, eps_start=0.0, eps_floor=0.0)
    new_models, new_scores, entry = fedcbo_round(models, tasks, scores, hp, 0, streams)
    assert entry.selections == {0: [2], 1: [0], 2: [0]}
    own = np.array([entry.own_losses[j] for j in range(3)])
    expected = scores.copy()
    for j, (i,) in entry.selections.items():
        expected[j, i] += own[j] - own[i]   # one shared objective: i's loss is its own
    assert new_scores.shape == (3, 3) and new_scores.dtype == float
    assert np.array_equal(new_scores, expected)
    assert np.array_equal(np.diag(new_scores), np.zeros(3))


def test_likelihood_matrix_copy_is_independent():
    # The round returns new scores and leaves its input array alone.
    models, tasks, scores, hp, streams = two_agent_setup()
    _, new_scores, _ = fedcbo_round(models, tasks, scores, hp, 0, streams)
    assert new_scores is not scores
    new_scores[0, 1] = 5.0
    assert np.array_equal(scores, np.zeros((2, 2)))


def scores_with(n, entries):
    scores = np.zeros((n, n))
    for (j, i), s in entries.items():
        scores[j, i] += s
    return scores


def test_pure_exploitation_takes_top_scores_with_low_id_ties():
    scores = scores_with(5, {(0, 1): 1.0, (0, 2): 3.0, (0, 3): 3.0, (0, 4): 0.0})
    gen = np.random.default_rng(0)
    picked = greedy_sample(scores, 0, [0, 1, 2, 3, 4], budget=3, eps=0.0, rng=gen)
    assert picked == [1, 2, 3]  # 2 and 3 tie at the top, then 1; id 4 loses


def test_exploration_block_size_uses_round_half_up():
    # eps=0.5, budget=1 -> one explore slot, zero exploit slots; with a
    # single peer available the outcome is forced regardless of the stream.
    scores = np.zeros((2, 2))
    picked = greedy_sample(scores, 0, [0, 1], budget=1, eps=0.5,
                           rng=np.random.default_rng(0))
    assert picked == [1]


def test_selection_never_includes_self_and_is_sorted():
    scores = np.zeros((6, 6))
    for trial in range(50):
        gen = np.random.default_rng(trial)
        picked = greedy_sample(scores, 2, list(range(6)), budget=3, eps=1.0, rng=gen)
        assert 2 not in picked
        assert picked == sorted(picked)
        assert len(picked) == len(set(picked)) == 3


def test_selection_distribution_matches_enumeration():
    # Budget 2 at eps=0.5 means one uniform explore pick plus one exploit
    # pick.  With scores 3 > 2 > 1 = 1 the exact selection probabilities are
    # P(1)=1 (explored or exploited), P(2)=1/2, P(3)=P(4)=1/4.
    scores = scores_with(5, {(0, 1): 3.0, (0, 2): 2.0, (0, 3): 1.0, (0, 4): 1.0})
    counts = Counter()
    trials = 8000
    for t in range(trials):
        gen = np.random.default_rng(t)
        counts.update(greedy_sample(scores, 0, [0, 1, 2, 3, 4], budget=2,
                                    eps=0.5, rng=gen))
    assert counts[1] == trials
    assert abs(counts[2] / trials - 0.5) < 0.03
    assert abs(counts[3] / trials - 0.25) < 0.03
    assert abs(counts[4] / trials - 0.25) < 0.03


def test_budget_clamps_to_available_peers_with_one_warning(caplog):
    # Selection clamps silently; each run logs the clamp once and counts
    # every clamped agent-round.  Nothing carries over from one run to the next.
    scores = np.zeros((3, 3))
    a = greedy_sample(scores, 0, [0, 1, 2], budget=10, eps=0.0,
                      rng=np.random.default_rng(0))
    b = greedy_sample(scores, 0, [0, 1, 2], budget=10, eps=0.0,
                      rng=np.random.default_rng(1))
    assert a == [1, 2] and b == [1, 2]

    config = resolve_config({
        "problem": {"kind": "benchmark", "dim": 2, "n_per_cluster": 2},
        "hyperparams": {"download_budget": 10, "local_steps": 1},
        "schedule": {"rounds": 3},
    })
    with caplog.at_level(logging.WARNING):
        for run in range(2):
            caplog.clear()
            _, counters = run_protocol(config, seed=run)
            clamp_messages = [r for r in caplog.records if "clamping" in r.message]
            assert len(clamp_messages) == 1
            assert counters["budget_clamps"] == 3 * 4
            assert counters["downloads"] == 3 * 4 * 3


def test_zero_budget_and_validation():
    scores = np.zeros((3, 3))
    gen = np.random.default_rng(0)
    assert greedy_sample(scores, 0, [0, 1, 2], budget=0, eps=0.5, rng=gen) == []
    with pytest.raises(InvalidParameterError):
        greedy_sample(scores, 0, [0, 1, 2], budget=-1, eps=0.5, rng=gen)
    with pytest.raises(InvalidParameterError):
        greedy_sample(scores, 0, [0, 1, 2], budget=1, eps=1.5, rng=gen)


def quadratic_loss(theta):
    theta = np.asarray(theta, dtype=float)
    return float(np.sum(theta * theta))


def test_local_aggregation_hand_case():
    # Own model at the origin, one peer at 1; alpha=1 puts weight
    # e^-1/(1+e^-1) on the peer.  Contraction with l1*g = 0.5 moves halfway.
    hp = HyperParams(consensus_drift=1.0, step_size=0.5, alpha=1.0)
    result = local_aggregation(0, np.array([0.0]), {1: np.array([1.0])},
                               quadratic_loss, hp)
    m = math.exp(-1) / (1 + math.exp(-1))
    assert abs(result.new_model[0] - 0.5 * m) < 1e-12
    assert result.own_loss == 0.0
    assert result.peer_losses == {0: 0.0, 1: 1.0}
    assert result.score_deltas == {1: -1.0}
    assert result.dropped == []


def test_local_aggregation_score_delta_signs():
    # A peer model better than our own earns a positive delta, a worse one
    # a negative delta of the same magnitude here.
    hp = HyperParams(consensus_drift=1.0, step_size=0.1, alpha=1.0)
    own = np.array([1.0])                    # own loss 1
    downloads = {1: np.array([0.0]), 2: np.array([np.sqrt(2.0)])}  # losses 0, 2
    result = local_aggregation(0, own, downloads, quadratic_loss, hp)
    assert abs(result.score_deltas[1] - 1.0) < 1e-12
    assert abs(result.score_deltas[2] + 1.0) < 1e-12


def test_local_aggregation_drops_nonfinite_peers():
    hp = HyperParams(consensus_drift=1.0, step_size=0.1, alpha=1.0)

    def loss(theta):
        value = quadratic_loss(theta)
        return float("nan") if value > 3 else value

    result = local_aggregation(0, np.array([0.0]),
                               {1: np.array([1.0]), 2: np.array([5.0])},
                               loss, hp)
    assert result.dropped == [2]
    assert 2 not in result.score_deltas


def two_agent_setup(n_agents=2):
    obj = make_quadratic(1, np.zeros(1))
    tasks = ObjectiveTasks([obj] * n_agents)
    models = 2.0 * np.arange(n_agents, dtype=float)[:, None]
    scores = np.zeros((n_agents, n_agents))
    streams = rng_mod.agent_streams(0, n_agents)
    hp = HyperParams(consensus_drift=1.0, grad_drift=1.0, alpha=1.0,
                     step_size=0.1, local_steps=1, download_budget=1)
    return models, tasks, scores, hp, streams


def test_round_hand_case_uses_post_update_snapshot():
    # Local update: agent 1 moves 2 -> 2 - 0.1*4 = 1.6 while agent 0 stays.
    # Both aggregations must see the *post-update* 1.6, and both consensus
    # points then agree because each agent weights by its own loss of the
    # same two models.
    models, tasks, scores, hp, streams = two_agent_setup()
    new_models, new_scores, entry = fedcbo_round(models, tasks, scores, hp, 0,
                                                 streams)
    w = math.exp(-2.56)
    m = 1.6 * w / (1 + w)
    assert abs(new_models[0, 0] - 0.1 * m) < 1e-12
    assert abs(new_models[1, 0] - (1.44 + 0.1 * m)) < 1e-12

    # Score updates: own loss minus peer loss on each agent's data.
    assert abs(new_scores[0, 1] + 2.56) < 1e-12
    assert abs(new_scores[1, 0] - 2.56) < 1e-12

    assert entry.round_index == 0
    assert entry.eps == 0.5
    assert entry.participants == [0, 1]
    assert entry.selections == {0: [1], 1: [0]}
    assert abs(entry.own_losses[0] - 0.0) < 1e-12
    assert abs(entry.own_losses[1] - 2.56) < 1e-12
    assert abs(entry.mean_local_loss - 1.28) < 1e-12

    # Inputs are untouched.
    assert np.array_equal(models, [[0.0], [2.0]])
    assert scores[0, 1] == 0.0


def test_round_rejects_bad_participation():
    models, tasks, scores, hp, streams = two_agent_setup()
    with pytest.raises(InvalidParameterError):
        fedcbo_round(models, tasks, scores, hp, 0, streams, participation=0.0)
    with pytest.raises(InvalidParameterError):
        fedcbo_round(models, tasks, scores, hp, 0, streams, participation=0.5)
    with pytest.raises(InvalidParameterError, match="scores"):
        fedcbo_round(models, tasks, np.zeros((3, 3)), hp, 0, streams)


def test_partial_participation_leaves_absent_agents_untouched():
    obj = make_quadratic(1, np.zeros(1))
    tasks = ObjectiveTasks([obj] * 4)
    models = np.arange(4, dtype=float)[:, None] + 1.0
    scores = np.zeros((4, 4))
    streams = rng_mod.agent_streams(0, 4)
    hp = HyperParams(consensus_drift=1.0, grad_drift=0.0, alpha=1.0,
                     step_size=0.1, local_steps=0, download_budget=1)
    round_rng = rng_mod.stream(0, rng_mod.ROUND)
    new_models, _, entry = fedcbo_round(models, tasks, scores, hp, 0, streams,
                                        participation=0.5, round_rng=round_rng)
    assert len(entry.participants) == 2
    absent = [j for j in range(4) if j not in entry.participants]
    for j in absent:
        assert np.array_equal(new_models[j], models[j])


class ExplodingTasks(ObjectiveTasks):
    """Agent 1's losses blow up to nan."""

    def losses(self, agents, candidates):
        out = super().losses(agents, candidates)
        out[agents == 1] = np.nan
        return out


def test_round_failure_is_atomic_and_names_the_agent():
    models, tasks, scores, hp, streams = two_agent_setup()
    tasks = ExplodingTasks(tasks.objectives)
    before = models.copy()
    with pytest.raises(RuntimeError, match="agent 1"):
        fedcbo_round(models, tasks, scores, hp, 0, streams)
    assert np.array_equal(models, before)
    assert scores[0, 1] == 0.0


class DivergingTasks(ObjectiveTasks):
    """Agent 0's local update diverges."""

    def train(self, thetas, agents, steps, rate, streams):
        out = super().train(thetas, agents, steps, rate, streams)
        out[agents == 0] = np.inf
        return out


def test_nonfinite_local_update_raises_divergence():
    models, tasks, scores, hp, streams = two_agent_setup()
    tasks = DivergingTasks(tasks.objectives)
    with pytest.raises(DivergenceError) as err:
        fedcbo_round(models, tasks, scores, hp, 0, streams)
    assert err.value.index == 0
    assert err.value.step == 0


def test_divergence_names_the_round_and_the_lowest_agent():
    config = resolve_config({
        "problem": {"n_agents": 8, "n_clusters": 2, "n_per_agent": 10,
                    "input_dim": 3, "hidden": 4},
        "hyperparams": {"download_budget": 3},
    })
    setup = build_setup(config, 0)
    models = setup.initial_models.copy()
    models[[5, 3]] = np.inf
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
        fedcbo_round(models, setup.tasks, np.zeros((8, 8)), config.hp(), 7,
                     rng_mod.agent_streams(0, 8))
    assert err.value.step == 7
    assert err.value.index == 3
    assert "round 7, agent 3" in str(err.value)


def test_objective_tasks_train_is_plain_descent():
    obj = make_quadratic(1, np.zeros(1))
    tasks = ObjectiveTasks([obj])
    out = tasks.train(np.array([[1.0]]), np.array([0]), steps=2, rate=0.1, streams=None)
    # 1 -> 1 - 0.1*2 = 0.8 -> 0.8 - 0.1*1.6 = 0.64
    assert abs(out[0, 0] - 0.64) < 1e-12


def test_oracle_sr_formula_and_validation():
    hp = HyperParams(eps_start=0.5, eps_decay=0.01, eps_floor=0.1)
    # Round 0: 0.5 + 0.5 * (10-1)/(40-1)
    expected = 0.5 + 0.5 * 9.0 / 39.0
    assert abs(oracle_sr(hp, 0, 10, 40) - expected) < 1e-12
    # Deep rounds sit at the eps floor.
    expected_floor = 0.9 + 0.1 * 9.0 / 39.0
    assert abs(oracle_sr(hp, 100, 10, 40) - expected_floor) < 1e-12
    with pytest.raises(InvalidParameterError):
        oracle_sr(hp, 0, 1, 1)
    with pytest.raises(InvalidParameterError):
        oracle_sr(hp, 0, 50, 40)


def test_selection_ratio_hand_case():
    clusters = np.array([0, 0, 1, 1])
    selections = {0: [1, 2], 2: [3]}  # agent 0: 1 of 2 same; agent 2: 1 of 1
    assert abs(selection_ratio(selections, clusters) - 0.75) < 1e-12
    assert math.isnan(selection_ratio({0: []}, clusters))
