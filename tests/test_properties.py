"""Property tests: the array-native selection, batched model kernels,
gradient clamp, analytic-objective tasks and batched round against
one-model-at-a-time reference code, bit for bit; the
consensus point and the particle step in their coordinate-major layout
against the (n, dim) code they replaced, bit for bit, plus the consensus
point's invariants; a particle ensemble against separate runs and the
reference step, bit for bit; and the shared-grid sliced-W1 against a
CDF-integral reference, to 1e-12.

The reference functions below are copies of the per-agent code the batched
paths replaced; they are kept here, not in the package, as the yardstick.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

try:
    from scipy.stats import wasserstein_distance
except ImportError:  # SciPy is a test extra; only the cross-check needs it
    wasserstein_distance = None

from fedcbo import learners
from fedcbo import rng as rng_mod
from fedcbo.diagnostics import make_projections, sliced_w1
from fedcbo import sde
from fedcbo.consensus import consensus_point, gibbs_mean
from fedcbo.errors import DivergenceError
from fedcbo.learners import (LogisticModel, MlpModel, ObjectiveTasks, ShardTask,
                             ShardTasks, local_sgd)
from fedcbo.objectives import (DEFAULT_GRAD_BOUND, _clamp_rows, make_centers_problem,
                               make_quadratic, make_rastrigin)
from fedcbo.protocol import (_contract, epsilon_for_round, fedcbo_round, greedy_sample,
                             local_aggregation)
from fedcbo.sde import HyperParams, ParticleCloud, em_step

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_position(streams_a, streams_b):
    """Both stream lists have consumed the same number of draws."""
    return all(np.array_equal(a.bit_generator.random_raw(3), b.bit_generator.random_raw(3))
               for a, b in zip(streams_a, streams_b, strict=True))


# ---------------------------------------------------------------- references

def reference_greedy_sample(scores, own_id, participants, budget, eps, rng):
    peers = sorted(p for p in participants if p != own_id)
    budget = min(budget, len(peers))
    if budget == 0:
        return []
    n_explore = min(budget, int(np.floor(eps * budget + 0.5)))
    explore = list(rng.choice(peers, size=n_explore, replace=False)) if n_explore else []
    explore = [int(i) for i in explore]
    remaining = [p for p in peers if p not in set(explore)]
    n_exploit = budget - n_explore
    if n_exploit:
        row = np.array([scores[own_id, i] for i in remaining])
        # Highest score first, NaN last, as np.lexsort orders -row.
        order = sorted(range(len(remaining)),
                       key=lambda t: (bool(np.isnan(row[t])),
                                      0.0 if np.isnan(row[t]) else -row[t], remaining[t]))
        exploit = [remaining[t] for t in order[:n_exploit]]
    else:
        exploit = []
    return sorted(explore + exploit)


def _ref_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _ref_cross_entropy(probs, labels):
    n = labels.shape[0]
    p = np.clip(probs[np.arange(n), labels], 1e-300, None)
    return float(-np.mean(np.log(p)))


def reference_mlp_forward(model, theta, x):
    """(W2, pre-activation, hidden layer, logits) of one MLP on x (n, d)."""
    d, h, c = model.input_dim, model.hidden, model.n_classes
    i = 0
    w1 = theta[i:i + d * h].reshape(d, h); i += d * h
    b1 = theta[i:i + h]; i += h
    w2 = theta[i:i + h * c].reshape(h, c); i += h * c
    b2 = theta[i:]
    pre = x @ w1 + b1
    hid = np.tanh(pre) if model.activation == "tanh" else np.maximum(pre, 0.0)
    return w2, pre, hid, hid @ w2 + b2


def reference_logits(model, theta, x):
    if isinstance(model, LogisticModel):
        d, c = model.input_dim, model.n_classes
        return x @ theta[: d * c].reshape(d, c) + theta[d * c:]
    return reference_mlp_forward(model, theta, x)[3]


def reference_loss_grad(model, theta, x, y):
    n = x.shape[0]
    if isinstance(model, LogisticModel):
        logits = reference_logits(model, theta, x)
    else:
        w2, pre, hid, logits = reference_mlp_forward(model, theta, x)
    probs = _ref_softmax(logits)
    loss = _ref_cross_entropy(probs, y)
    delta = probs
    delta[np.arange(n), y] -= 1.0
    delta /= n
    if isinstance(model, LogisticModel):
        return loss, np.concatenate([(x.T @ delta).ravel(), delta.sum(axis=0)])
    back = delta @ w2.T
    back = back * (1.0 - hid * hid) if model.activation == "tanh" else back * (pre > 0.0)
    return loss, np.concatenate([(x.T @ back).ravel(), back.sum(axis=0),
                                 (hid.T @ delta).ravel(), delta.sum(axis=0)])


def reference_clamp(g, bound):
    """One gradient alone, rescaled onto the ball of radius ``bound`` if it
    sticks out."""
    norm = np.sqrt(np.add.reduce(g * g))
    return g * (bound / norm) if norm > bound else g


def reference_train(model, theta, x, y, steps, rate, rng, batch_size, momentum,
                    grad_bound):
    theta = np.asarray(theta, dtype=float).copy()
    n = x.shape[0]
    use_batch = batch_size is not None and batch_size < n
    velocity = np.zeros_like(theta)
    for _ in range(steps):
        if use_batch:
            idx = rng.choice(n, size=batch_size, replace=False)
            xb, yb = x[idx], y[idx]
        else:
            xb, yb = x, y
        _, g = reference_loss_grad(model, theta, xb, yb)
        g = reference_clamp(g, grad_bound)
        velocity = momentum * velocity + g
        theta = theta - rate * velocity
    return theta


# ---------------------------------------------------------------- selection

@st.composite
def selection_case(draw):
    n_agents = draw(st.integers(2, 25))
    own = draw(st.integers(0, n_agents - 1))
    others = draw(st.lists(st.integers(0, n_agents - 1), unique=True, max_size=n_agents))
    participants = sorted(set(others) | {own})
    # Few distinct values, both signed zeros, both infinities and NaN of
    # either sign bit: plenty of exact ties.
    values = draw(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.25, 1.0, 3.0,
                                            np.inf, -np.inf, np.nan, -np.nan]),
                           min_size=n_agents * n_agents, max_size=n_agents * n_agents))
    scores = np.reshape(values, (n_agents, n_agents))
    budget = draw(st.integers(0, n_agents + 3))
    eps = draw(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.7, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    return scores, own, participants, budget, eps, seed


@SETTINGS
@given(selection_case())
def test_selection_invariants(case):
    scores, own, participants, budget, eps, seed = case
    picked = greedy_sample(scores, own, participants, budget, eps,
                           np.random.default_rng(seed))
    peers = [p for p in participants if p != own]
    assert len(picked) == min(budget, len(peers))
    assert picked == sorted(picked)
    assert own not in picked
    assert len(set(picked)) == len(picked)
    assert set(picked) <= set(participants)
    assert all(type(i) is int for i in picked)


@SETTINGS
@given(selection_case())
def test_selection_equals_reference_and_consumes_the_stream_alike(case):
    scores, own, participants, budget, eps, seed = case
    fast_rng = rng_mod.stream(seed, rng_mod.AGENT, own)
    ref_rng = rng_mod.stream(seed, rng_mod.AGENT, own)
    fast = greedy_sample(scores, own, participants, budget, eps, fast_rng)
    ref = reference_greedy_sample(scores, own, participants, budget, eps, ref_rng)
    assert fast == ref
    assert same_position([fast_rng], [ref_rng])


@SETTINGS
@given(selection_case(), st.sampled_from([1 << 17, 40, 3]))
def test_block_selection_equals_reference_row_by_row(case, block_doubles):
    # Every participant selects at once, over one block or several.
    scores, _, participants, budget, eps, seed = case
    own = np.array(participants)
    streams = [rng_mod.stream(seed, rng_mod.AGENT, j) for j in own]
    ref_streams = [rng_mod.stream(seed, rng_mod.AGENT, j) for j in own]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(learners, "BLOCK_DOUBLES", block_doubles)
        picks = greedy_sample(scores, own, participants, budget, eps, streams)
    assert picks.shape == (own.size, min(budget, own.size - 1))
    for j, row, gen in zip(own, picks, ref_streams, strict=True):
        assert row.tolist() == reference_greedy_sample(scores, int(j), participants,
                                                        budget, eps, gen)
    assert same_position(streams, ref_streams)


# ---------------------------------------------------------------- model kernels

@st.composite
def model_case(draw):
    kind = draw(st.sampled_from(["logistic", "mlp-tanh", "mlp-relu"]))
    d = draw(st.integers(2, 6))
    c = draw(st.integers(2, 5))
    if kind == "logistic":
        model = LogisticModel(d, c)
    else:
        model = MlpModel(d, draw(st.integers(1, 8)), c, activation=kind.split("-")[1])
    b = draw(st.integers(1, 5))
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 40))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.1, 1.0, 5.0]))
    thetas = scale * gen.standard_normal((b, k, model.n_params))
    x = gen.standard_normal((b, n, d))
    y = gen.integers(0, c, size=(b, n))
    return model, thetas, x, y


@SETTINGS
@given(model_case())
def test_batched_losses_equal_per_model_reference(case):
    model, thetas, x, y = case
    b, k = thetas.shape[:2]
    # Agent r's k candidate models on agent r's own data, in one call.
    batched = model.loss(thetas, x[:, None], y[:, None])
    # k models on one shard, data broadcast.
    shared = model.loss(thetas[0], x[0], y[0])
    for r in range(b):
        for m in range(k):
            ref, _ = reference_loss_grad(model, thetas[r, m], x[r], y[r])
            assert same_bits(batched[r, m], ref)
        assert same_bits(model.loss(thetas[r, 0], x[r], y[r]),
                         reference_loss_grad(model, thetas[r, 0], x[r], y[r])[0])
    for m in range(k):
        assert same_bits(shared[m], reference_loss_grad(model, thetas[0, m], x[0], y[0])[0])


@SETTINGS
@given(model_case())
def test_batched_gradients_equal_per_model_reference(case):
    model, thetas, x, y = case
    losses, grads = model.loss_grad(thetas[:, 0], x, y)
    for r in range(len(x)):
        ref_loss, ref_grad = reference_loss_grad(model, thetas[r, 0], x[r], y[r])
        assert same_bits(losses[r], ref_loss)
        assert same_bits(grads[r], ref_grad)


@st.composite
def wide_model_case(draw):
    """6-10 classes, across the softmax's switch from column adds to a sum
    at 8, with tied logits (integer weights and inputs) or large ones."""
    kind = draw(st.sampled_from(["logistic", "mlp-tanh", "mlp-relu"]))
    d, c = draw(st.integers(2, 5)), draw(st.integers(6, 10))
    if kind == "logistic":
        model = LogisticModel(d, c)
    else:
        model = MlpModel(d, draw(st.integers(1, 6)), c, activation=kind.split("-")[1])
    b, k, n = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 30))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    thetas = gen.standard_normal((b, k, model.n_params))
    x = gen.standard_normal((b, n, d))
    if draw(st.booleans()):
        thetas, x = np.round(thetas), np.round(x)    # many exactly tied logits
    thetas *= draw(st.sampled_from([0.0, 1.0, 40.0, 1e3]))
    y = gen.integers(0, c, size=(b, n))
    return model, thetas, x, y


@SETTINGS
@given(wide_model_case())
def test_losses_and_gradients_equal_reference_across_the_class_count_switch(case):
    model, thetas, x, y = case
    b, k = thetas.shape[:2]
    batched = model.loss(thetas, x[:, None], y[:, None])
    losses, grads = model.loss_grad(thetas[:, 0], x, y)
    for r in range(b):
        for m in range(k):
            assert same_bits(batched[r, m],
                             reference_loss_grad(model, thetas[r, m], x[r], y[r])[0])
        ref_loss, ref_grad = reference_loss_grad(model, thetas[r, 0], x[r], y[r])
        assert same_bits(losses[r], ref_loss)
        assert same_bits(grads[r], ref_grad)


@SETTINGS
@given(model_case(), st.integers(0, 4), st.sampled_from([0.0, 0.9]),
       st.sampled_from([1e3, 0.05]), st.integers(1, 45), st.integers(0, 2**32 - 1))
def test_batched_training_equals_per_agent_reference(case, steps, momentum, grad_bound,
                                                     batch_size, seed):
    model, thetas, x, y = case
    start = thetas[:, 0]
    agents = np.arange(len(x))
    ref_streams = rng_mod.agent_streams(seed, len(x))
    reference = np.stack([
        reference_train(model, start[r], x[r], y[r], steps, 0.1, ref_streams[r],
                        batch_size, momentum, grad_bound)
        for r in agents
    ])
    streams = rng_mod.agent_streams(seed, len(x))
    batched = local_sgd(model, start, x, y, steps, 0.1, streams, batch_size=batch_size,
                        momentum=momentum, grad_bound=grad_bound)
    assert same_bits(batched, reference)
    assert same_position(streams, ref_streams)

    task = ShardTask(model, x[0], y[0], batch_size=batch_size, momentum=momentum,
                     grad_bound=grad_bound)
    one_rng = rng_mod.agent_streams(seed, 1)[0]
    assert same_bits(task.train(start[0], steps, 0.1, one_rng), reference[0])


def workspace_buffers(model):
    workspace = getattr(model, "_workspace", None)
    return list(workspace.buffers.values()) if workspace is not None else []


@st.composite
def workspace_case(draw):
    """One model and three (b, k, n) stages: larger, smaller, larger again."""
    kind = draw(st.sampled_from(["logistic", "mlp-tanh", "mlp-relu"]))
    d, c = draw(st.integers(2, 6)), draw(st.integers(2, 5))
    if kind == "logistic":
        model = LogisticModel(d, c)
    else:
        model = MlpModel(d, draw(st.integers(1, 8)), c, activation=kind.split("-")[1])
    large = st.tuples(st.integers(3, 5), st.integers(3, 5), st.integers(20, 40))
    small = st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 19))
    stages = [draw(large), draw(small), draw(large)]
    return model, stages, draw(st.integers(0, 2**32 - 1))


@SETTINGS
@given(workspace_case(), st.sampled_from([0.0, 0.9]), st.integers(1, 45), st.integers(1, 3))
def test_workspace_kernels_equal_reference_across_calls_of_changing_shape(
        case, momentum, batch_size, steps):
    model, stages, seed = case
    gen = np.random.default_rng(seed)
    kept = []   # (returned array, its value when returned)
    for b, k, n in stages:
        thetas = gen.standard_normal((b, k, model.n_params))
        x = gen.standard_normal((b, n, model.input_dim))
        y = gen.integers(0, model.n_classes, size=(b, n))
        losses = model.loss(thetas, x[:, None], y[:, None])
        loss, grads = model.loss_grad(thetas[:, 0], x, y)
        logits = model.logits(thetas[:, 0], x)
        streams = rng_mod.agent_streams(seed, b)
        trained = local_sgd(model, thetas[:, 0], x, y, steps, 0.1, streams,
                            batch_size=batch_size, momentum=momentum)
        ref_streams = rng_mod.agent_streams(seed, b)
        for r in range(b):
            for m in range(k):
                assert same_bits(losses[r, m],
                                 reference_loss_grad(model, thetas[r, m], x[r], y[r])[0])
            ref_loss, ref_grad = reference_loss_grad(model, thetas[r, 0], x[r], y[r])
            assert same_bits(loss[r], ref_loss)
            assert same_bits(grads[r], ref_grad)
            assert same_bits(logits[r], reference_logits(model, thetas[r, 0], x[r]))
            assert same_bits(trained[r], reference_train(
                model, thetas[r, 0], x[r], y[r], steps, 0.1, ref_streams[r], batch_size,
                momentum, DEFAULT_GRAD_BOUND))
        results = [losses, loss, grads, logits, trained]
        assert not any(np.shares_memory(a, buf)
                       for a in results for buf in workspace_buffers(model))
        kept += [(a, a.copy()) for a in results]
    assert all(same_bits(a, before) for a, before in kept)


# ---------------------------------------------------------------- analytic objectives

@st.composite
def clamp_case(draw):
    """Rows inside, exactly on and outside the ball, all-zero and infinite."""
    dim = draw(st.integers(1, 5))
    bound = 5.0 * 2.0 ** draw(st.integers(-3, 3))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    on_ball = np.zeros(dim)
    if dim == 1:
        on_ball[0] = bound
    else:
        on_ball[:2] = [0.6 * bound, 0.8 * bound]   # norm exactly bound
    rows = []
    for kind in draw(st.lists(st.sampled_from(["in", "on", "out", "zero", "inf"]),
                              min_size=1, max_size=8)):
        if kind == "on":
            rows.append(on_ball * gen.choice([-1.0, 1.0], size=dim))
        elif kind == "zero":
            rows.append(np.zeros(dim))
        elif kind == "inf":
            row = gen.standard_normal(dim)
            row[gen.integers(dim)] = gen.choice([-np.inf, np.inf])
            rows.append(row)
        else:
            scale = bound / (4.0 * np.sqrt(dim)) if kind == "in" else 10.0 * bound
            rows.append(scale * gen.standard_normal(dim))
    return np.array(rows), bound


@SETTINGS
@given(clamp_case())
def test_clamp_of_a_stack_equals_clamping_each_row_alone(case):
    grads, bound = case
    before = grads.copy()
    with np.errstate(invalid="ignore"):   # inf * 0 on the infinite rows
        stacked = _clamp_rows(grads, bound)
        alone = [(_clamp_rows(row[None], bound)[0], reference_clamp(row, bound))
                 for row in grads]
    assert same_bits(grads, before)
    for out, (one, reference) in zip(stacked, alone):
        assert same_bits(out, one)
        assert same_bits(out, reference)
    finite = np.isfinite(grads).all(axis=1)
    assert (np.linalg.norm(stacked[finite], axis=1) <= bound * (1 + 1e-15)).all()
    on_or_in = finite & (np.linalg.norm(grads, axis=1) <= bound)
    assert same_bits(stacked[on_or_in], grads[on_or_in])


@st.composite
def objective_tasks_case(draw):
    """Agents under interleaved, uneven labels; start points far enough out
    for the clamp to fire on some rows."""
    dim = draw(st.integers(1, 5))
    n_objectives = draw(st.integers(1, 3))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    objectives = []
    for k in range(n_objectives):
        center = 3.0 * gen.standard_normal(dim)
        if draw(st.booleans()):
            objectives.append(make_quadratic(dim, center,
                                             scale=draw(st.sampled_from([0.5, 1.0, 3.0]))))
        else:
            objectives.append(make_rastrigin(dim, center))
    n_agents = draw(st.integers(1, 9))
    labels = draw(st.lists(st.integers(0, n_objectives - 1), min_size=n_agents,
                           max_size=n_agents))
    agents = np.array(draw(st.permutations(range(n_agents)))[:draw(st.integers(1, n_agents))])
    scale = draw(st.sampled_from([0.5, 5.0, 2e3]))
    thetas = scale * gen.standard_normal((len(agents), dim))
    candidates = scale * gen.standard_normal((len(agents), draw(st.integers(1, 4)), dim))
    return [objectives[k] for k in labels], agents, thetas, candidates


@SETTINGS
@given(objective_tasks_case(), st.sampled_from([0.0, 0.9]), st.integers(0, 3))
def test_objective_tasks_equal_per_agent_batch_of_one_calls(case, momentum, steps):
    per_agent, agents, thetas, candidates = case
    tasks = ObjectiveTasks(per_agent, momentum=momentum)
    reference = thetas.copy()
    for r, j in enumerate(agents):
        objective, velocity = per_agent[j], np.zeros_like(thetas[r])
        for _ in range(steps):
            velocity = momentum * velocity + objective.gradients(reference[r][None])[0]
            reference[r] = reference[r] - 0.05 * velocity
    trained = tasks.train(thetas, agents, steps, 0.05, streams=None)
    assert same_bits(trained, reference)
    losses = np.array([[per_agent[j].losses(c[None])[0] for c in candidates[r]]
                       for r, j in enumerate(agents)])
    assert same_bits(tasks.losses(agents, candidates), losses)


# ---------------------------------------------------------------- whole round

def reference_round(models, tasks, scores, hp, round_index, streams, participants):
    """The serial round: train, then select and aggregate agent by agent."""
    eps = epsilon_for_round(hp, round_index)
    rate = hp.grad_drift * hp.step_size
    updated = models.copy()
    for j in participants:
        updated[j] = reference_train(tasks.model, models[j], tasks.x[j], tasks.y[j],
                                     hp.local_steps, rate, streams[j], tasks.batch_size,
                                     tasks.momentum, tasks.grad_bound)
    new_models, new_scores = updated.copy(), scores.copy()
    selections, own_losses = {}, {}

    def loss_of(j):
        return lambda theta: reference_loss_grad(tasks.model, theta, tasks.x[j],
                                                 tasks.y[j])[0]

    for j in participants:
        selected = reference_greedy_sample(scores, j, participants, hp.download_budget,
                                           eps, streams[j])
        result = local_aggregation(j, updated[j], {i: updated[i] for i in selected},
                                   loss_of(j), hp)
        new_models[j] = result.new_model
        for i, delta in result.score_deltas.items():
            new_scores[j, i] += delta
        selections[j], own_losses[j] = selected, result.own_loss
    return new_models, new_scores, selections, own_losses


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(2, 12), st.integers(0, 6), st.booleans(), st.sampled_from([None, 7]),
       st.sampled_from(["logistic", "tanh", "relu"]), st.sampled_from([1.0, 0.6]),
       st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_batched_round_equals_serial_reference(n_agents, budget, include_self, batch_size,
                                               kind, participation, round_index, seed):
    if not include_self:
        # Without its own model an agent needs at least one peer to aggregate.
        budget, n_agents = max(budget, 1), max(n_agents, 4)
    gen = np.random.default_rng(seed)
    model = LogisticModel(3, 3) if kind == "logistic" else MlpModel(3, 4, 3, kind)
    x = gen.standard_normal((n_agents, 12, 3))
    y = gen.integers(0, 3, size=(n_agents, 12))
    tasks = ShardTasks(model, x, y, batch_size=batch_size, momentum=0.9)
    models = 0.5 * gen.standard_normal((n_agents, model.n_params))
    scores = gen.integers(-2, 3, size=(n_agents, n_agents)) * 0.5
    hp = HyperParams(consensus_drift=5.0, grad_drift=1.0, alpha=10.0, step_size=0.1,
                     local_steps=2, download_budget=budget, eps_start=0.5,
                     include_self=include_self, momentum=0.9, batch_size=batch_size)

    streams = rng_mod.agent_streams(seed, n_agents)
    round_rng = rng_mod.stream(seed, rng_mod.ROUND)
    new_models, new_scores, entry = fedcbo_round(models, tasks, scores, hp, round_index,
                                                 streams, participation, round_rng)

    ref_streams = rng_mod.agent_streams(seed, n_agents)
    ref_models, ref_scores, selections, own_losses = reference_round(
        models, tasks, scores, hp, round_index, ref_streams, entry.participants)
    assert entry.selections == selections
    assert same_bits(list(entry.own_losses.values()), list(own_losses.values()))
    assert same_bits(new_models, ref_models)
    assert same_bits(new_scores, ref_scores)
    assert entry.downloads == sum(len(s) for s in selections.values())
    assert entry.loss_evals == entry.downloads + len(entry.participants)


# ---------------------------------------------------------------- consensus and particle step

def reference_consensus_point(positions, losses, alpha):
    """consensus_point's arithmetic on a C-ordered (n, dim) cloud, as it
    was before the coordinate-major layout: (value, total weight)."""
    shifted = losses - losses.min()
    weights = np.exp(-alpha * shifted)
    total = float(np.add.reduce(weights))
    value = np.add.reduce(positions * weights[:, None], axis=0) / total
    return np.clip(value, positions.min(axis=0), positions.max(axis=0)), total


def reference_advance(positions, labels, problem, hp, noise):
    """The per-cluster Euler update of an (n, dim) cloud with gathered
    clusters; ``noise`` is an (n, 2, dim) block or None."""
    g = hp.step_size
    consensus = [reference_consensus_point(positions, o.losses(positions), hp.alpha)[0]
                 for o in problem.objectives]
    new = np.empty_like(positions)
    for k, objective in enumerate(problem.objectives):
        idx = np.flatnonzero(labels == k)
        if idx.size == 0:
            continue
        theta = positions[idx]
        to_consensus = theta - consensus[k]
        grads = objective.gradients(theta)
        drift = theta - hp.consensus_drift * g * to_consensus - hp.grad_drift * g * grads
        if noise is None:
            new[idx] = drift
            continue
        dist = np.linalg.norm(to_consensus, axis=1)
        gnorm = np.linalg.norm(grads, axis=1)
        new[idx] = (
            drift
            + hp.consensus_noise * np.sqrt(g) * dist[:, None] * noise[idx, 0]
            + hp.grad_noise * np.sqrt(g) * gnorm[:, None] * noise[idx, 1]
        )
    return new


def reference_em_step(positions, labels, streams, problem, hp):
    """One step; a particle draws its (2, dim) normals only when a noise
    scale is positive."""
    noise = None
    if hp.consensus_noise > 0 or hp.grad_noise > 0:
        noise = np.empty((len(streams), 2, positions.shape[1]))
        for i, stream in enumerate(streams):
            noise[i] = stream.standard_normal((2, positions.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        return reference_advance(positions, labels, problem, hp, noise)


def coordinates(draw, n, dim):
    """An (n, dim) cloud with exact signed zeros, some whole columns of
    them, so that clip bounds of either sign come up."""
    values = draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]),
                                     st.floats(-10.0, 10.0)),
                           min_size=n * dim, max_size=n * dim))
    cloud = np.reshape(np.array(values, dtype=float), (n, dim))
    for j in range(dim):
        if draw(st.booleans()):
            signs = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            cloud[:, j] = np.where(signs, -0.0, 0.0)
    return cloud


@st.composite
def consensus_case(draw):
    n, dim = draw(st.integers(1, 30)), draw(st.integers(1, 5))
    losses = np.array(draw(st.lists(st.floats(0.0, 50.0), min_size=n, max_size=n)))
    alpha = draw(st.sampled_from([0.0, 0.5, 10.0, 100.0]))
    return coordinates(draw, n, dim), losses, alpha


@SETTINGS
@given(consensus_case())
def test_consensus_point_in_c_and_f_order_equals_reference(case):
    positions, losses, alpha = case
    want, total = reference_consensus_point(positions, losses, alpha)
    for layout in (np.ascontiguousarray(positions), np.asfortranarray(positions)):
        got = consensus_point(layout, losses, alpha)
        assert same_bits(got.value, want)
        assert got.total_weight == total


@SETTINGS
@given(consensus_case(), st.lists(st.floats(-10.0, 10.0), min_size=5, max_size=5),
       st.floats(-1000.0, 1000.0))
def test_consensus_point_invariants(case, shift, loss_shift):
    positions, losses, alpha = case
    point = consensus_point(positions, losses, alpha)
    shift = np.array(shift[:positions.shape[1]])
    assert np.allclose(consensus_point(positions + shift, losses, alpha).value,
                       point.value + shift, rtol=0.0, atol=1e-9)
    assert np.allclose(consensus_point(positions, losses + loss_shift, alpha).value,
                       point.value, rtol=0.0, atol=1e-9)
    assert np.all(positions.min(axis=0) <= point.value)
    assert np.all(point.value <= positions.max(axis=0))
    assert 1.0 <= point.total_weight <= positions.shape[0]


def test_gibbs_mean_of_stacked_runs_equals_consensus_point_run_by_run():
    # Runs with and without zero clip bounds side by side, in the C-ordered
    # (d, R, N) layout of a particle ensemble.  A min or max along that
    # contiguous axis gives a zero bound the other sign in about one case of
    # twenty, so the cases are many and cheap.
    gen = np.random.default_rng(20)
    for _ in range(600):
        runs, n, dim = gen.integers(1, 6), gen.integers(1, 31), gen.integers(1, 6)
        clouds = gen.standard_normal((runs, n, dim))
        zero = gen.random((runs, dim)) < 0.5
        clouds[np.broadcast_to(zero[:, None], clouds.shape)] = 0.0
        clouds = np.where(gen.random(clouds.shape) < 0.5, -1.0, 1.0) * clouds
        losses = gen.random((runs, n)) * 50.0
        alpha = gen.choice([0.0, 0.5, 10.0, 100.0])
        value, total = gibbs_mean(np.ascontiguousarray(clouds.transpose(2, 0, 1)),
                                  losses, alpha)
        for r in range(runs):
            point = consensus_point(clouds[r], losses[r], alpha)
            assert same_bits(value[:, r], point.value)
            assert total[r] == point.total_weight


@SETTINGS
@given(st.integers(1, 6), st.integers(1, 8), st.integers(1, 4), st.data())
def test_contract_equals_consensus_point_row_by_row(n_agents, k, dim, data):
    stack = np.stack([coordinates(data.draw, k, dim) for _ in range(n_agents)])
    own = stack[:, -1].copy()
    losses = np.reshape(data.draw(st.lists(st.floats(0.0, 50.0), min_size=n_agents * k,
                                           max_size=n_agents * k)), (n_agents, k))
    hp = HyperParams(alpha=data.draw(st.sampled_from([0.5, 10.0, 100.0])),
                     consensus_drift=data.draw(st.floats(0.0, 5.0)),
                     step_size=data.draw(st.floats(0.01, 0.5)))
    got = _contract(own, stack, losses, hp, np.ones(losses.shape, dtype=bool))
    step = hp.consensus_drift * hp.step_size
    for r in range(n_agents):
        value = consensus_point(stack[r], losses[r], hp.alpha).value
        assert same_bits(got[r], own[r] - step * (own[r] - value))


class InjectedLosses(ObjectiveTasks):
    """Analytic tasks whose loss of agent j's download in column c is
    replaced by ``bad[j, c]``."""

    def __init__(self, objectives, bad):
        super().__init__(objectives)
        self.bad = bad

    def losses(self, agents, candidates):
        out = super().losses(agents, candidates)
        for (j, c), value in self.bad.items():
            out[agents == j, c] = value
        return out


@SETTINGS
@given(st.integers(2, 12), st.integers(1, 10), st.booleans(), st.integers(1, 3), st.data())
def test_round_masks_nonfinite_peer_losses(n_agents, budget, include_self, dim, data):
    budget = min(budget, n_agents - 1)
    objectives = [make_quadratic(dim, c) for c in coordinates(data.draw, n_agents, dim)]
    models = coordinates(data.draw, n_agents, dim)
    scores = np.reshape(data.draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5]),
                                           min_size=n_agents**2, max_size=n_agents**2)),
                        (n_agents, n_agents))
    hit = data.draw(st.lists(st.booleans(), min_size=n_agents * budget,
                             max_size=n_agents * budget))
    values = st.sampled_from([np.nan, np.inf, -np.inf])
    bad = {(j, c): data.draw(values) for j in range(n_agents) for c in range(budget)
           if hit[j * budget + c]}
    hp = HyperParams(alpha=data.draw(st.sampled_from([0.5, 10.0, 100.0])),
                     consensus_drift=data.draw(st.floats(0.0, 5.0)),
                     step_size=data.draw(st.floats(0.01, 0.5)), local_steps=0,
                     download_budget=budget, include_self=include_self)
    tasks = InjectedLosses(objectives, bad)
    streams = rng_mod.agent_streams(0, n_agents)

    stranded = [j for j in range(n_agents)
                if not include_self and all((j, c) in bad for c in range(budget))]
    if stranded:
        with pytest.raises(DivergenceError) as err:
            fedcbo_round(models, tasks, scores, hp, 0, streams)
        assert err.value.index == stranded[0]
        return
    new_models, new_scores, entry = fedcbo_round(models, tasks, scores, hp, 0, streams)

    width = budget + include_self
    step = hp.consensus_drift * hp.step_size
    want_scores = scores.copy()
    for j in range(n_agents):
        ids = entry.selections[j] + [j]
        stack = models[ids]
        losses = ObjectiveTasks(objectives).losses(np.array([j]), stack[None])[0]
        cut = [c for c in range(budget) if (j, c) in bad]
        assert entry.dropped.get(j, []) == [ids[c] for c in cut]
        for c in range(budget):
            if c not in cut:
                want_scores[j, ids[c]] += losses[-1] - losses[c]
        if not cut:
            want = _contract(models[j][None], stack[None, :width], losses[None, :width],
                             hp, np.ones((1, width), dtype=bool))[0]
            assert same_bits(new_models[j], want)
            continue
        kept = [c for c in range(width) if c not in cut]
        want = models[j] - step * (models[j] - consensus_point(stack[kept], losses[kept],
                                                               hp.alpha).value)
        if width <= 7:   # sequential sums: the zero weights add exactly
            assert np.array_equal(new_models[j], want)
        else:            # pairwise sums group the weights by position
            assert np.allclose(new_models[j], want, rtol=1e-14, atol=1e-14)
    assert same_bits(new_scores, want_scores)


@st.composite
def step_case(draw):
    dim, n_clusters = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(0, 6), min_size=n_clusters, max_size=n_clusters)
                 .filter(lambda s: sum(s) > 0))
    labels = np.repeat(np.arange(n_clusters), sizes)
    if draw(st.booleans()):  # interleaved: the clusters are gathered
        labels = np.array(draw(st.permutations(list(labels))), dtype=int)
    centers = [[draw(st.sampled_from([0.0, -1.5, 2.0])) for _ in range(dim)]
               for _ in range(n_clusters)]
    problem = make_centers_problem(draw(st.sampled_from(["quadratic", "rastrigin"])),
                                   dim, centers)
    noise = draw(st.sampled_from([0.0, 0.3]))
    hp = HyperParams(consensus_drift=draw(st.floats(0.0, 5.0)),
                     grad_drift=draw(st.floats(0.0, 2.0)),
                     consensus_noise=noise, grad_noise=draw(st.sampled_from([0.0, 0.2])),
                     alpha=draw(st.sampled_from([0.01, 1.0, 100.0])),
                     step_size=draw(st.sampled_from([0.005, 0.1])))
    positions = coordinates(draw, len(labels), dim)
    return problem, positions, labels, hp, draw(st.integers(0, 2**32 - 1))


@SETTINGS
@given(step_case())
def test_particle_step_equals_reference_bit_for_bit(case):
    problem, positions, labels, hp, seed = case
    streams = rng_mod.agent_streams(seed, len(labels))
    cloud = ParticleCloud(positions=positions.copy(), labels=labels,
                          streams=rng_mod.agent_streams(seed, len(labels)))
    stepped = em_step(cloud, problem, hp)
    assert same_bits(stepped.positions, reference_em_step(positions, labels, streams,
                                                          problem, hp))
    assert stepped.positions.flags.c_contiguous
    assert same_position(cloud.streams, streams)

    # The noiseless update run_sde takes when both noise amplitudes are 0.
    clusters = sde._clusters(labels, problem.n_clusters)
    with np.errstate(over="ignore", invalid="ignore"):
        got = sde._step(np.ascontiguousarray(positions.T)[:, None], labels, clusters,
                        problem, hp, None, 1)
        want = reference_advance(positions, labels, problem, hp, None)
    assert same_bits(got[:, 0].T, want)


def test_em_step_on_interleaved_uneven_clusters_equals_reference():
    # Clusters of 4, 1 and 2 particles in interleaved order take the gather
    # path; dim 3 takes the C-ordered row copy.
    labels = np.array([2, 0, 0, 1, 0, 2, 0])
    clusters = sde._clusters(labels, 3)
    assert all(isinstance(c, np.ndarray) for c in (clusters[0], clusters[2]))
    problem = make_centers_problem("quadratic", 3, [[1.0, 0.0, -1.0], [0.0, 2.0, 0.0],
                                                    [-2.0, -0.5, 1.0]])
    hp = HyperParams(consensus_drift=2.0, grad_drift=0.5, consensus_noise=0.4,
                     grad_noise=0.2, alpha=20.0, step_size=0.05)
    positions = rng_mod.stream(3, rng_mod.INIT).standard_normal((7, 3)) * 2.0
    streams = rng_mod.agent_streams(5, 7)
    cloud = ParticleCloud(positions=positions.copy(), labels=labels,
                          streams=rng_mod.agent_streams(5, 7))
    for _ in range(3):
        cloud = em_step(cloud, problem, hp)
        positions = reference_em_step(positions, labels, streams, problem, hp)
        assert same_bits(cloud.positions, positions)
    assert same_position(cloud.streams, streams)


# ---------------------------------------------------------------- particle ensemble

def zeroed_cloud(make_cloud, scaled=(), scale=1.0):
    """``make_cloud`` with, per seed, some coordinates set to exact zeros of
    either sign, so that zero clip bounds come up in some runs and not in
    others; the clouds of the seeds in ``scaled`` are multiplied by
    ``scale``."""
    def make(problem, n_per_cluster, init, seed):
        cloud = make_cloud(problem, n_per_cluster, init, seed)
        gen = np.random.default_rng(seed)
        for j in np.flatnonzero(gen.random(problem.dim) < 0.4):
            cloud.positions[:, j] = np.where(gen.random(cloud.n_particles) < 0.5, -0.0, 0.0)
        if seed in scaled:
            cloud.positions *= scale
        return cloud
    return make


def assert_same_result(got, want):
    for name in ("steps", "times", "variances", "consensus_errors", "final_positions",
                 "final_labels"):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    assert sorted(got.checkpoints) == sorted(want.checkpoints)
    for step, positions in want.checkpoints.items():
        assert same_bits(got.checkpoints[step], positions), step
    assert got.theory_regime == want.theory_regime


@st.composite
def ensemble_case(draw):
    dim = draw(st.sampled_from([1, 2, 3, 8]))
    kind = draw(st.sampled_from(["quadratic", "rastrigin"]))
    centers = [[draw(st.sampled_from([0.0, -1.5, 2.0])) for _ in range(dim)]
               for _ in range(draw(st.integers(1, 2)))]
    noise = draw(st.booleans())
    hp = HyperParams(consensus_drift=draw(st.sampled_from([0.5, 2.0])),
                     grad_drift=draw(st.sampled_from([0.0, 0.3])),
                     consensus_noise=0.4 if noise else 0.0,
                     grad_noise=draw(st.sampled_from([0.0, 0.2])) if noise else 0.0,
                     alpha=draw(st.sampled_from([1.0, 50.0])),
                     step_size=draw(st.sampled_from([0.01, 0.05])))
    runs = draw(st.sampled_from([1, 2, 5]))
    seeds = draw(st.lists(st.integers(0, 2**31 - 1), min_size=runs, max_size=runs,
                          unique=True))
    return (make_centers_problem(kind, dim, centers), hp, draw(st.integers(1, 4)),
            draw(st.integers(0, 9)), seeds, draw(st.integers(1, 4)), draw(st.integers(1, 4)))


@SETTINGS
@given(ensemble_case())
def test_ensemble_equals_separate_runs_bit_for_bit(case):
    problem, hp, n_per_cluster, t_steps, seeds, run_steps, record_every = case
    n = problem.n_clusters * n_per_cluster
    s1 = max(1, min(t_steps, run_steps))
    buffers = []
    draw = sde._draw_noise

    def spy(streams, out):
        buffers.append(out.base.shape)
        return draw(streams, out)

    checkpoint_steps = sorted({0, t_steps, t_steps // 2})
    init = sde.InitSpec(std=1.5)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sde, "NOISE_DOUBLES", 2 * problem.dim * n * run_steps)
        patch.setattr(sde, "make_cloud", zeroed_cloud(sde.make_cloud))
        patch.setattr(sde, "_draw_noise", spy)
        got = sde.run_sde_ensemble(problem, n_per_cluster, hp, t_steps, seeds, init=init,
                                   record_every=record_every,
                                   checkpoint_steps=checkpoint_steps)
        ensemble_buffers = list(buffers)
        want = [sde.run_sde(problem, n_per_cluster, hp, t_steps, init=init, seed=seed,
                            record_every=record_every, checkpoint_steps=checkpoint_steps)
                for seed in seeds]
        clouds = [sde.make_cloud(problem, n_per_cluster, init, seed) for seed in seeds]

    assert len(got) == len(seeds)
    for result, alone in zip(got, want):
        assert_same_result(result, alone)
    # The per-particle reference step, from the same start.
    for result, cloud in zip(got, clouds):
        positions = cloud.positions
        for _ in range(t_steps):
            positions = reference_em_step(positions, cloud.labels, cloud.streams,
                                          problem, hp)
        assert same_bits(result.final_positions, positions)
    # One draw per run and block: seeds go in groups of at most S1 runs, whose
    # blocks of S1 // R steps hold no more doubles than one run's S1 steps.
    assert bool(ensemble_buffers) == (t_steps > 0 and hp.consensus_noise > 0)
    for block_steps, two, dim, runs, particles in ensemble_buffers:
        assert (two, dim, particles) == (2, problem.dim, n)
        assert runs <= s1 and block_steps == max(1, s1 // runs)
        assert block_steps * two * dim * runs * particles <= 2 * problem.dim * n * s1


def test_ensemble_names_the_first_diverging_seed():
    # The middle seed starts 1e150 out; consensus drift 30 at step 0.1 doubles
    # every distance to the consensus each step, so its losses overflow
    # within a few steps while the other runs stay finite.
    problem = make_centers_problem("quadratic", 2, [[1.0, -1.0], [-2.0, 0.5]])
    hp = HyperParams(consensus_drift=30.0, consensus_noise=0.2, alpha=10.0,
                     step_size=0.1)
    seeds = [11, 12, 13]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sde, "make_cloud", zeroed_cloud(sde.make_cloud, {12}, 1e150))
        with pytest.raises(DivergenceError) as alone:
            sde.run_sde(problem, 5, hp, 30, seed=12)
        with pytest.raises(DivergenceError) as together:
            sde.run_sde_ensemble(problem, 5, hp, 30, seeds)
        healthy = sde.run_sde_ensemble(problem, 5, hp, 30, [11, 13])
    step, index = alone.value.step, alone.value.index
    assert 0 < step < 30
    assert (together.value.step, together.value.index) == (step, index)
    message = str(together.value)
    assert f"particle {index} (seed 12)" in message and f"at step {step}" in message
    assert all(np.isfinite(r.final_positions).all() for r in healthy)


# ---------------------------------------------------------------- sliced-W1

W1_RTOL = 1e-12


def reference_w1(u, v):
    """Exact 1-D W1 of two empirical measures: the integral of |F_u - F_v|
    over the sorted union of their points, CDF numerators in integers."""
    u, v = np.sort(u), np.sort(v)
    xs = np.sort(np.concatenate([u, v]))
    n, m = len(u), len(v)
    cu = np.searchsorted(u, xs[:-1], side="right")
    cv = np.searchsorted(v, xs[:-1], side="right")
    return float(np.sum(np.abs(cu * m - cv * n) / (n * m) * np.diff(xs)))


def projected(a, b, projections):
    """Both clouds on every direction (the d = 1 default is the identity)."""
    projections = np.ones((1, 1)) if projections is None else projections
    return projections @ a.T, projections @ b.T


def close(got, want):
    return abs(got - want) <= W1_RTOL * abs(want)


@st.composite
def cloud_pair(draw):
    dim = draw(st.integers(1, 4))
    n, m = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = gen.standard_normal((n, dim))
    b = gen.standard_normal((m, dim)) * draw(st.sampled_from([0.5, 1.0, 3.0])) \
        + draw(st.sampled_from([0.0, 0.1, 2.0]))
    decimals = draw(st.sampled_from([None, 2, 0]))  # rounding makes ties
    if decimals is not None:
        a, b = np.round(a, decimals), np.round(b, decimals)
    projections = None if dim == 1 else make_projections(
        dim, draw(st.integers(1, 16)), gen)
    return a, b, projections


@SETTINGS
@given(cloud_pair())
def test_sliced_w1_equals_cdf_integral_reference(case):
    a, b, projections = case
    pa, pb = projected(a, b, projections)
    want = float(np.mean([reference_w1(u, v) for u, v in zip(pa, pb)]))
    got = sliced_w1(a, b, projections=projections)
    assert close(got, want), (got, want)


@SETTINGS
@given(cloud_pair(), st.integers(0, 2**32 - 1))
def test_sliced_w1_is_symmetric_and_zero_on_identical_clouds(case, seed):
    a, b, projections = case
    assert sliced_w1(a, b, projections=projections) == \
        sliced_w1(b, a, projections=projections)
    shuffled = np.random.default_rng(seed).permutation(a)
    assert sliced_w1(a, shuffled, projections=projections) == 0.0
    assert sliced_w1(a, a.copy(), projections=projections) == 0.0


@pytest.mark.skipif(wasserstein_distance is None, reason="needs SciPy")
@SETTINGS
@given(cloud_pair())
def test_sliced_w1_matches_scipy_per_direction(case):
    a, b, projections = case
    pa, pb = projected(a, b, projections)
    want = float(np.mean([wasserstein_distance(u, v) for u, v in zip(pa, pb)]))
    assert close(sliced_w1(a, b, projections=projections), want)


@pytest.mark.skipif(wasserstein_distance is None, reason="needs SciPy")
@pytest.mark.parametrize("n,m", [(50, 800), (400, 800), (37, 53), (1, 5), (7, 1)])
def test_sliced_w1_matches_the_per_direction_scipy_mean(n, m):
    # The per-direction loop the shared-grid computation replaced.
    gen = np.random.default_rng(n * 1000 + m)
    a = gen.standard_normal((n, 2))
    b = gen.standard_normal((m, 2)) + 0.3
    projections = make_projections(2, 64, rng_mod.stream(0, rng_mod.PROJECTION))
    old = float(np.mean([wasserstein_distance(a @ u, b @ u) for u in projections]))
    assert close(sliced_w1(a, b, projections=projections), old)
    assert close(sliced_w1(a, b), old)  # default directions are the same draw
