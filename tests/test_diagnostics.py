"""Diagnostics: guaranteed rates, sliced transport distance and finite-size
scans."""

import logging

import numpy as np
import pytest

from fedcbo import rng as rng_mod
from fedcbo.diagnostics import (MeanFieldScan, make_projections, meanfield_scan,
                                sliced_w1, theoretical_rate)
from fedcbo.errors import InvalidParameterError
from fedcbo.objectives import make_well_problem
from fedcbo.sde import HyperParams, InitSpec, run_sde


def test_theoretical_rate_halves_the_margin_by_default():
    hp = HyperParams(consensus_drift=4.0, grad_drift=0.1, consensus_noise=0.2,
                     grad_noise=0.1, alpha=100.0, step_size=0.005)
    assert abs(theoretical_rate(hp, 2.0, 2) - 0.5 * 7.44) < 1e-12
    assert abs(theoretical_rate(hp, 2.0, 2, tau_slack=0.0) - 7.44) < 1e-12


def test_theoretical_rate_warns_outside_the_contraction_regime(caplog):
    hp = HyperParams(consensus_drift=0.1, grad_drift=2.0, alpha=10.0)
    with caplog.at_level(logging.WARNING, logger="fedcbo.diagnostics"):
        rate = theoretical_rate(hp, 2.0, 2)
    assert rate <= 0.0
    assert any("contraction" in r.message for r in caplog.records)
    with pytest.raises(InvalidParameterError):
        theoretical_rate(hp, 2.0, 2, tau_slack=1.0)


def test_sliced_distance_one_dimension_hand_values():
    # Point masses and small empirical measures with CDF-integral oracles.
    assert abs(sliced_w1([[0.0]], [[1.0]]) - 1.0) < 1e-12
    assert abs(sliced_w1([[0.0], [1.0]], [[0.0], [2.0]]) - 0.5) < 1e-12
    # Unequal sizes: integral of |F_a - F_b| is 1/6 + 1/3 = 1/2.
    assert abs(sliced_w1([[0.0], [1.0]], [[0.0], [1.0], [2.0]]) - 0.5) < 1e-12
    assert abs(sliced_w1([[0.0]], [[0.0], [1.0], [2.0]]) - 1.0) < 1e-12


def test_sliced_distance_identity_and_symmetry():
    gen = np.random.default_rng(3)
    a = gen.standard_normal((20, 3))
    b = gen.standard_normal((15, 3))
    projections = make_projections(3, 32, rng_mod.stream(0, rng_mod.PROJECTION))
    assert sliced_w1(a, a.copy(), projections=projections) == 0.0
    assert abs(sliced_w1(a, b, projections=projections)
               - sliced_w1(b, a, projections=projections)) < 1e-12


def test_sliced_distance_triangle_inequality_on_shared_projections():
    gen = np.random.default_rng(4)
    a = gen.standard_normal((10, 2))
    b = gen.standard_normal((10, 2)) + 1.0
    c = gen.standard_normal((10, 2)) - 1.0
    projections = make_projections(2, 16, rng_mod.stream(1, rng_mod.PROJECTION))
    ab = sliced_w1(a, b, projections=projections)
    bc = sliced_w1(b, c, projections=projections)
    ac = sliced_w1(a, c, projections=projections)
    assert ac <= ab + bc + 1e-12


def test_sliced_distance_translation_is_bounded_by_shift_norm():
    gen = np.random.default_rng(5)
    a = gen.standard_normal((25, 3))
    shift = np.array([1.0, -2.0, 0.5])
    d = sliced_w1(a, a + shift, n_projections=64,
                  rng=rng_mod.stream(2, rng_mod.PROJECTION))
    assert 0.0 < d <= np.linalg.norm(shift) + 1e-12


def test_sliced_distance_validation():
    with pytest.raises(InvalidParameterError):
        sliced_w1(np.ones((3, 2)), np.ones((3, 3)))
    with pytest.raises(InvalidParameterError):
        sliced_w1(np.empty((0, 2)), np.ones((3, 2)))


def test_projections_are_unit_vectors():
    projections = make_projections(4, 10, rng_mod.stream(0, rng_mod.PROJECTION))
    assert projections.shape == (10, 4)
    assert np.allclose(np.linalg.norm(projections, axis=1), 1.0, atol=1e-12)


def test_scan_summary_statistics_hand_case():
    scan = MeanFieldScan(sizes=[10, 20, 40], reference_size=40,
                         mean_discrepancy=np.array([0.4, 0.5, 0.0]),
                         per_seed=np.array([[0.3, 0.4, 0.0], [0.5, 0.6, 0.0]]))
    assert scan.monotone_violations() == 1
    # Sample std of [0.3, 0.5] is sqrt(0.02); stderr divides by sqrt(n_seeds).
    expected = np.array([np.sqrt(0.02), np.sqrt(0.02), 0.0]) / np.sqrt(2.0)
    assert np.allclose(scan.stderr(), expected, atol=1e-12)


def scan_problem_and_params():
    problem = make_well_problem("quadratic", 2, offset=2.0)
    hp = HyperParams(consensus_drift=4.0, grad_drift=0.1, consensus_noise=0.2,
                     grad_noise=0.1, alpha=100.0, step_size=0.005)
    return problem, hp


def test_scan_reference_population_has_zero_discrepancy():
    problem, hp = scan_problem_and_params()
    scan = meanfield_scan(problem, hp, [10, 40], [0, 1], 30,
                          init=InitSpec(std=3.0), n_projections=16,
                          n_checkpoints=5)
    assert scan.sizes == [10, 40]
    assert scan.reference_size == 40
    assert scan.per_seed.shape == (2, 2)
    assert np.all(scan.per_seed[:, -1] == 0.0)
    assert np.all(scan.per_seed[:, 0] > 0.0)


def test_scan_sorts_and_deduplicates_sizes():
    problem, hp = scan_problem_and_params()
    scan = meanfield_scan(problem, hp, [40, 10, 40], [0], 10,
                          init=InitSpec(std=3.0), n_projections=8,
                          n_checkpoints=3)
    assert scan.sizes == [10, 40]
    with pytest.raises(InvalidParameterError):
        meanfield_scan(problem, hp, [], [0], 10)
    with pytest.raises(InvalidParameterError):
        meanfield_scan(problem, hp, [10], [0], 0)


def reference_scan(problem, hp, n_list, seeds, t_steps, init, n_projections,
                   n_checkpoints):
    """The scan as one run_sde per (seed, size) and one sliced_w1 per
    (seed, size, checkpoint, cluster): its per-seed discrepancies."""
    checkpoints = sorted(set(
        int(round(s)) for s in np.linspace(1, t_steps, min(n_checkpoints, t_steps))))
    projections = make_projections(problem.dim, n_projections,
                                   rng_mod.stream(0, rng_mod.PROJECTION))
    per_seed = np.zeros((len(seeds), len(n_list)))
    for si, seed in enumerate(seeds):
        results = {}
        for n in n_list:
            run_seed = int(np.random.SeedSequence(entropy=(int(seed), n))
                           .generate_state(1, np.uint64)[0] >> 1)
            results[n] = run_sde(problem, n, hp, t_steps, init=init, seed=run_seed,
                                 record_every=t_steps, checkpoint_steps=checkpoints)
        ref = results[n_list[-1]]
        for ni, n in enumerate(n_list):
            run = results[n]
            worst = 0.0
            for step in checkpoints:
                vals = [sliced_w1(run.checkpoints[step][run.final_labels == k],
                                  ref.checkpoints[step][ref.final_labels == k],
                                  projections=projections)
                        for k in range(problem.n_clusters)]
                worst = max(worst, float(np.mean(vals)))
            per_seed[si, ni] = worst
    return per_seed


@pytest.mark.parametrize("n_list", [[12, 40], [7, 20, 33]])
def test_scan_equals_per_seed_runs_and_sliced_w1_bit_for_bit(n_list):
    problem, hp = scan_problem_and_params()
    args = (problem, hp, n_list, [3, 0, 8], 25, InitSpec(std=3.0), 16, 5)
    scan = meanfield_scan(*args[:5], init=args[5], n_projections=args[6],
                          n_checkpoints=args[7])
    want = reference_scan(*args)
    assert scan.per_seed.tobytes() == want.tobytes()
    assert scan.mean_discrepancy.tobytes() == want.mean(axis=0).tobytes()


def test_scan_standard_error_shrinks_like_root_seed_count():
    # Doubling the seed count from 8 to 16 should cut the standard error by
    # about 1/sqrt(2) ~ 0.707; the frozen run gives 0.645.
    problem, hp = scan_problem_and_params()
    scan = meanfield_scan(problem, hp, [30, 120], list(range(16)), 80,
                          init=InitSpec(std=3.0), n_projections=32,
                          n_checkpoints=10)
    samples = scan.per_seed[:, 0]
    stderr_8 = samples[:8].std(ddof=1) / np.sqrt(8)
    stderr_16 = samples.std(ddof=1) / np.sqrt(16)
    ratio = stderr_16 / stderr_8
    assert 0.495 <= ratio <= 0.919  # 1/sqrt(2) +- 30%

