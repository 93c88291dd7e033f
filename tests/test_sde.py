"""Particle dynamics: parameter validation, stream alignment, contraction
behavior, step-size order, and divergence reporting."""

from types import SimpleNamespace

import numpy as np
import pytest

from fedcbo import rng, sde
from fedcbo.errors import DivergenceError, InvalidParameterError
from fedcbo.experiment import _trajectory_records, _write_jsonl
from fedcbo.objectives import (BenchmarkProblem, make_centers_problem, make_quadratic,
                               make_well_problem)
from fedcbo.protocol import epsilon_for_round
from fedcbo.sde import (HyperParams, InitSpec, cluster_consensus,
                        cluster_variances, decay_exponent_fit, em_step,
                        make_cloud, run_sde)


def single_well(dim=2):
    return BenchmarkProblem(objectives=(make_quadratic(dim, np.zeros(dim)),))


def test_hyperparams_validation_collects_all_problems():
    with pytest.raises(InvalidParameterError) as err:
        HyperParams(consensus_drift=-1.0, alpha=0.0, momentum=1.5)
    message = str(err.value)
    assert "consensus_drift" in message
    assert "alpha" in message
    assert "momentum" in message


def test_hyperparams_defaults_are_valid():
    hp = HyperParams()
    assert hp.consensus_drift == 1.0
    assert hp.include_self is True


def test_contraction_margin_hand_value():
    # 2*4 - 2*0.1*2 - 2*0.2^2 - 2*0.1^2*2^2 = 8 - 0.4 - 0.08 - 0.08 = 7.44
    hp = HyperParams(consensus_drift=4.0, grad_drift=0.1, consensus_noise=0.2,
                     grad_noise=0.1, alpha=100.0, step_size=0.005)
    assert abs(hp.contraction_margin(2.0, 2) - 7.44) < 1e-12
    assert hp.theory_regime(2.0, 2) is True


def test_contraction_margin_flags_noisy_regime():
    hp = HyperParams(consensus_drift=0.5, consensus_noise=2.0, alpha=10.0)
    assert hp.contraction_margin(2.0, 2) < 0
    assert hp.theory_regime(2.0, 2) is False


def test_epsilon_schedule():
    hp = HyperParams(eps_start=0.5, eps_decay=0.01, eps_floor=0.1)
    assert epsilon_for_round(hp, 0) == 0.5
    assert abs(epsilon_for_round(hp, 10) - 0.4) < 1e-12
    assert epsilon_for_round(hp, 40) == 0.1
    assert epsilon_for_round(hp, 1000) == 0.1
    with pytest.raises(InvalidParameterError):
        epsilon_for_round(hp, -1)


def test_init_spec_requires_positive_std():
    with pytest.raises(InvalidParameterError):
        InitSpec(std=0.0)


def test_make_cloud_layout_and_determinism():
    prob = make_well_problem("quadratic", 2)
    cloud = make_cloud(prob, 5, InitSpec(std=2.0, mean=1.0), seed=0)
    assert cloud.positions.shape == (10, 2)
    assert np.array_equal(cloud.labels, [0] * 5 + [1] * 5)
    again = make_cloud(prob, 5, InitSpec(std=2.0, mean=1.0), seed=0)
    assert np.array_equal(cloud.positions, again.positions)
    other = make_cloud(prob, 5, InitSpec(std=2.0, mean=1.0), seed=1)
    assert not np.array_equal(cloud.positions, other.positions)


def per_row_cloud(problem, n_per_cluster, init, seed):
    """The per-particle start ``make_cloud`` used to build row by row."""
    n = problem.n_clusters * n_per_cluster
    streams = [np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=(seed, rng.AGENT, i)))) for i in range(n)]
    positions = np.empty((n, problem.dim))
    for i in range(n):
        positions[i] = init.mean + init.std * streams[i].standard_normal(problem.dim)
    return positions, streams


@pytest.mark.parametrize("dim", [1, 2, 5])
@pytest.mark.parametrize("n_per_cluster", [1, 7])
@pytest.mark.parametrize("vector_mean", [False, True])
def test_make_cloud_block_start_equals_per_row_start(dim, n_per_cluster, vector_mean):
    centers = [np.full(dim, c) for c in (-2.0, 0.5, 3.0)]
    problem = make_centers_problem("quadratic", dim, centers)
    # InitSpec takes a scalar mean; make_cloud reads only .mean and .std.
    init = (SimpleNamespace(mean=np.linspace(-1.0, 2.5, dim), std=0.7) if vector_mean
            else InitSpec(std=1.3, mean=-0.25))
    cloud = make_cloud(problem, n_per_cluster, init, seed=11)
    positions, streams = per_row_cloud(problem, n_per_cluster, init, seed=11)
    assert np.array_equal(cloud.positions, positions)
    for gen, expected in zip(cloud.streams, streams, strict=True):
        assert np.array_equal(gen.standard_normal(3), expected.standard_normal(3))


def test_make_cloud_rejects_empty_clusters():
    with pytest.raises(InvalidParameterError):
        make_cloud(single_well(), 0, InitSpec(), seed=0)


def test_cluster_consensus_computes_over_whole_cloud():
    # Both clusters see all particles; with alpha=0 both consensus points
    # are the global mean.
    prob = make_well_problem("quadratic", 1, offset=1.0)
    positions = np.array([[0.0], [2.0], [4.0], [6.0]])
    labels = np.array([0, 0, 1, 1])
    points = cluster_consensus(positions, labels, prob, alpha=0.0)
    assert np.allclose(points, [[3.0], [3.0]], atol=1e-12)


def test_em_step_checks_dimensions():
    prob = single_well(2)
    cloud = make_cloud(single_well(3), 4, InitSpec(), seed=0)
    with pytest.raises(InvalidParameterError):
        em_step(cloud, prob, HyperParams())


def test_em_step_rejects_labels_outside_the_clusters():
    # Such particles belong to no cluster, so no update would be written
    # for them.
    prob = make_well_problem("quadratic", 2)
    cloud = make_cloud(prob, 2, InitSpec(), seed=0)
    for bad in (2, -1):
        cloud.labels = np.array([0, 1, bad, 0])
        with pytest.raises(InvalidParameterError, match=f"particle 2 has label {bad}"):
            em_step(cloud, prob, HyperParams())


def test_run_sde_matches_repeated_em_steps_bitwise():
    prob = make_well_problem("quadratic", 2)
    hp = HyperParams(consensus_drift=1.0, grad_drift=0.3, consensus_noise=0.4,
                     grad_noise=0.2, alpha=10.0, step_size=0.01)
    result = run_sde(prob, 6, hp, 5, init=InitSpec(std=2.0), seed=4)

    cloud = make_cloud(prob, 6, InitSpec(std=2.0), seed=4)
    for _ in range(5):
        cloud = em_step(cloud, prob, hp)
    assert np.array_equal(result.final_positions, cloud.positions)


def test_noiseless_run_matches_em_steps_bitwise():
    prob = make_well_problem("quadratic", 2)
    hp = HyperParams(consensus_drift=1.0, grad_drift=0.5, alpha=10.0, step_size=0.01)
    result = run_sde(prob, 4, hp, 7, init=InitSpec(), seed=9)
    cloud = make_cloud(prob, 4, InitSpec(), seed=9)
    for _ in range(7):
        cloud = em_step(cloud, prob, hp)
    assert np.array_equal(result.final_positions, cloud.positions)


def test_noiseless_em_step_draws_no_noise():
    # As in run_sde: with both noise scales 0 no stream is drawn, and the
    # positions have the values of the update with zero-scaled noise terms.
    prob = make_well_problem("quadratic", 2)
    hp = HyperParams(consensus_drift=1.0, grad_drift=0.5, alpha=10.0, step_size=0.01)
    cloud = make_cloud(prob, 4, InitSpec(std=2.0), seed=3)
    untouched = make_cloud(prob, 4, InitSpec(std=2.0), seed=3)
    stepped = em_step(cloud, prob, hp)
    for stream, fresh in zip(stepped.streams, untouched.streams, strict=True):
        assert np.array_equal(stream.standard_normal(4), fresh.standard_normal(4))
    alone = run_sde(prob, 4, hp, 1, init=InitSpec(std=2.0), seed=3)
    assert np.array_equal(stepped.positions, alone.final_positions)

    noise = np.stack([s.standard_normal((2, 2)) for s in untouched.streams], axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        zero_scaled = sde._step(np.ascontiguousarray(untouched.positions.T)[:, None],
                                untouched.labels, sde._clusters(untouched.labels, 2),
                                prob, hp, noise[:, :, None], 1)
    assert np.array_equal(stepped.positions, zero_scaled[:, 0].T)


def test_long_runs_cross_noise_chunk_boundary_consistently(monkeypatch):
    # With the budget scaled to 120-step pre-draw blocks of 3 particles in
    # 1-D, the run length of two and a half blocks crosses two block
    # boundaries and ends on a partial block; stream alignment with single
    # stepping has to survive them.
    monkeypatch.setattr(sde, "NOISE_DOUBLES", 120 * 2 * 1 * 3)
    block = sde.NOISE_DOUBLES // (2 * 1 * 3)
    t_steps = 2 * block + block // 2
    prob = single_well(1)
    hp = HyperParams(consensus_drift=0.5, consensus_noise=0.3, alpha=5.0,
                     step_size=0.01)
    result = run_sde(prob, 3, hp, t_steps, init=InitSpec(), seed=2,
                     record_every=t_steps)
    cloud = make_cloud(prob, 3, InitSpec(), seed=2)
    for _ in range(t_steps):
        cloud = em_step(cloud, prob, hp)
    assert np.array_equal(result.final_positions, cloud.positions)


@pytest.mark.parametrize("budget, blocks", [
    (1, [1] * 7),                    # below one step: one step per block
    (2 * 2 * 10 * 3, [3, 3, 1]),      # three steps per block, partial last
    (sde.NOISE_DOUBLES, [7]),         # capped at the steps left
])
def test_noise_blocks_stay_within_the_budget(monkeypatch, budget, blocks):
    monkeypatch.setattr(sde, "NOISE_DOUBLES", budget)
    shapes = []
    draw = sde._draw_noise

    def spy(streams, out):
        shapes.append(out.shape)
        return draw(streams, out)

    monkeypatch.setattr(sde, "_draw_noise", spy)
    prob = make_well_problem("quadratic", 2)
    hp = HyperParams(consensus_noise=0.2, alpha=10.0, step_size=0.01)
    result = run_sde(prob, 5, hp, 7, seed=1)
    assert [s[0] for s in shapes] == blocks
    assert all(s[1:] == (2, 2, 10) for s in shapes)
    cloud = make_cloud(prob, 5, InitSpec(), seed=1)
    for _ in range(7):
        cloud = em_step(cloud, prob, hp)
    assert np.array_equal(result.final_positions, cloud.positions)


def test_noiseless_run_draws_no_noise(monkeypatch):
    monkeypatch.setattr(sde, "_draw_noise", None)
    hp = HyperParams(consensus_drift=1.0, grad_drift=0.5, alpha=10.0, step_size=0.01)
    assert run_sde(make_well_problem("quadratic", 2), 4, hp, 3, seed=0).steps[-1] == 3


def test_consensus_only_decay_rate_is_twice_the_drift():
    # With no gradient and no noise the contraction margin is exactly
    # 2 * consensus_drift; the fitted rate on a frozen run lands at ~2.01.
    prob = single_well(2)
    hp = HyperParams(consensus_drift=1.0, grad_drift=0.0, alpha=1000.0,
                     step_size=0.01)
    result = run_sde(prob, 200, hp, 500, init=InitSpec(std=1.0), seed=3)
    v = result.variance_sums
    keep = v >= 0.05 * v[0]
    rate = decay_exponent_fit(v[keep], result.times[keep])
    assert 1.8 <= rate <= 2.2


def test_noiseless_dynamics_collapse_to_the_minimizers():
    prob = make_well_problem("quadratic", 2)
    hp = HyperParams(consensus_drift=1.0, grad_drift=1.0, alpha=100.0,
                     step_size=0.01)
    result = run_sde(prob, 100, hp, 2000, init=InitSpec(std=1.0), seed=0,
                     record_every=2000)
    assert result.variance_sums[-1] / result.variance_sums[0] < 1e-20


def test_euler_endpoint_error_is_first_order_in_step_size():
    # Halving the step should roughly halve the endpoint error: the
    # Richardson ratio |x(2g) - x(g)| / |x(g) - x(g/2)| approaches 2.
    prob = make_well_problem("quadratic", 2)
    ends = {}
    for g, steps in [(0.04, 50), (0.02, 100), (0.01, 200)]:
        hp = HyperParams(consensus_drift=1.0, grad_drift=0.5, alpha=5.0,
                         step_size=g)
        ends[g] = run_sde(prob, 30, hp, steps, init=InitSpec(std=2.0), seed=11,
                          record_every=steps).final_positions
    ratio = (np.linalg.norm(ends[0.04] - ends[0.02])
             / np.linalg.norm(ends[0.02] - ends[0.01]))
    assert 1.5 <= ratio <= 2.5


def test_divergence_raises_with_step_and_particle_metadata():
    hp = HyperParams(consensus_drift=10.0, grad_drift=0.0, consensus_noise=1.0,
                     alpha=10.0, step_size=1.0)
    with pytest.raises(DivergenceError) as err:
        run_sde(single_well(2), 20, hp, 5000, init=InitSpec(std=1.0), seed=0)
    assert err.value.step is not None and err.value.step > 0
    assert err.value.index is not None and 0 <= err.value.index < 20
    assert "non-finite" in str(err.value)


def test_divergence_does_not_leak_overflow_warnings():
    import warnings

    hp = HyperParams(consensus_drift=10.0, grad_drift=0.0, consensus_noise=1.0,
                     alpha=10.0, step_size=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError):
            run_sde(single_well(2), 20, hp, 5000, init=InitSpec(std=1.0), seed=0)


def test_cluster_variances_hand_case():
    positions = np.array([[1.0, 0.0], [0.0, 1.0], [3.0, 4.0]])
    labels = np.array([0, 0, 1])
    minimizers = np.array([[0.0, 0.0], [0.0, 0.0]])
    v = cluster_variances(positions, labels, minimizers)
    assert abs(v[0] - 0.5) < 1e-12          # 0.5 * mean(1, 1)
    assert abs(v[1] - 12.5) < 1e-12         # 0.5 * 25


def test_cluster_variances_empty_cluster_is_nan():
    v = cluster_variances(np.array([[1.0]]), np.array([0]),
                          np.array([[0.0], [5.0]]))
    assert np.isnan(v[1])


def test_decay_fit_recovers_exact_exponential():
    t = np.linspace(0.0, 2.0, 50)
    v = np.exp(-3.0 * t)
    assert abs(decay_exponent_fit(v, t) - 3.0) < 1e-9


def test_decay_fit_window_and_trimming():
    t = np.linspace(0.0, 1.0, 20)
    v = np.exp(-2.0 * t)
    v[15:] = 0.0  # dead tail must be trimmed before the log
    assert abs(decay_exponent_fit(v, t) - 2.0) < 1e-9
    with pytest.raises(InvalidParameterError):
        decay_exponent_fit(np.zeros(5), np.linspace(0, 1, 5))
    with pytest.raises(InvalidParameterError):
        decay_exponent_fit(np.ones(3), np.ones(2))


def test_recording_grid_and_checkpoints():
    prob = single_well(1)
    hp = HyperParams(consensus_drift=1.0, alpha=10.0, step_size=0.1)
    result = run_sde(prob, 3, hp, 10, init=InitSpec(), seed=0, record_every=4,
                     checkpoint_steps=(0, 5, 10))
    assert list(result.steps) == [0, 4, 8, 10]
    assert np.allclose(result.times, 0.1 * result.steps)
    assert sorted(result.checkpoints) == [0, 5, 10]
    assert result.checkpoints[10].shape == (3, 1)
    assert np.array_equal(result.checkpoints[10], result.final_positions)


def test_zero_steps_records_only_the_initial_state():
    result = run_sde(single_well(1), 2, HyperParams(), 0, seed=0)
    assert list(result.steps) == [0]
    with pytest.raises(InvalidParameterError):
        run_sde(single_well(1), 2, HyperParams(), -1, seed=0)


def test_records_are_json_ready(tmp_path):
    import json

    path = tmp_path / "trajectory.jsonl"
    result = run_sde(single_well(1), 2, HyperParams(), 3, seed=0)
    _write_jsonl(path, _trajectory_records(result))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == len(result.steps)
    first = json.loads(lines[0])
    assert set(first) == {"step", "time", "v_per_cluster", "v_sum", "consensus_err"}


def test_theory_regime_recorded_on_result():
    prob = make_well_problem("quadratic", 2)
    good = HyperParams(consensus_drift=4.0, grad_drift=0.1, consensus_noise=0.2,
                       grad_noise=0.1, alpha=100.0, step_size=0.005)
    assert run_sde(prob, 3, good, 1, seed=0).theory_regime is True
    bad = HyperParams(consensus_drift=0.1, grad_drift=2.0, alpha=10.0)
    assert run_sde(prob, 3, bad, 1, seed=0).theory_regime is False
