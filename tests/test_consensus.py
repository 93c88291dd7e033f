"""Consensus-point invariants checked against direct-summation oracles."""

import math

import numpy as np
import pytest

from fedcbo.consensus import consensus_point, consensus_point_for_agent
from fedcbo.errors import InvalidParameterError
from fedcbo.objectives import make_quadratic

# Three particles on a line with hand-picked losses.  Weights at alpha=1 are
# e^-1, 1, e^-4, so the weighted average is (-e^-1 + 2e^-4)/(e^-1 + 1 + e^-4).
THREE_PARTICLE_POSITIONS = np.array([[-1.0], [0.0], [2.0]])
THREE_PARTICLE_LOSSES = np.array([1.0, 0.0, 4.0])
THREE_PARTICLE_ORACLE = (-math.exp(-1) + 2 * math.exp(-4)) / (
    math.exp(-1) + 1 + math.exp(-4)
)


def direct_summation(positions, losses, alpha):
    """Literal weighted-average oracle, no shift trick."""
    w = np.exp(-alpha * np.asarray(losses, dtype=float))
    return (np.asarray(positions, dtype=float) * w[:, None]).sum(axis=0) / w.sum()


def test_three_particle_example_matches_direct_summation():
    point = consensus_point(THREE_PARTICLE_POSITIONS, THREE_PARTICLE_LOSSES, 1.0)
    assert abs(point.value[0] - THREE_PARTICLE_ORACLE) < 1e-9
    assert abs(THREE_PARTICLE_ORACLE - (-0.23896215486466313)) < 1e-15


def test_matches_direct_summation_on_random_clouds():
    gen = np.random.default_rng(5)
    for _ in range(5):
        pts = gen.standard_normal((12, 3))
        losses = gen.uniform(0.0, 4.0, size=12)
        for alpha in (0.0, 1.0, 10.0):
            point = consensus_point(pts, losses, alpha)
            assert np.allclose(point.value, direct_summation(pts, losses, alpha),
                               atol=1e-9)


def test_zero_alpha_gives_plain_mean():
    pts = np.array([[0.0, 0.0], [2.0, 4.0]])
    point = consensus_point(pts, np.array([10.0, -3.0]), 0.0)
    assert np.allclose(point.value, [1.0, 2.0], atol=1e-12)
    assert abs(point.total_weight - 2.0) < 1e-12


def test_total_weight_lies_between_one_and_n():
    gen = np.random.default_rng(7)
    pts = gen.standard_normal((9, 2))
    losses = gen.uniform(size=9)
    for alpha in (0.5, 5.0, 500.0):
        point = consensus_point(pts, losses, alpha)
        assert 1.0 <= point.total_weight <= 9.0


def test_translation_equivariance():
    gen = np.random.default_rng(11)
    pts = gen.standard_normal((8, 3))
    losses = gen.uniform(size=8)
    shift = np.array([5.0, -2.0, 0.5])
    base = consensus_point(pts, losses, 3.0)
    moved = consensus_point(pts + shift, losses, 3.0)
    assert np.allclose(moved.value, base.value + shift, atol=1e-9)


def test_loss_shift_invariance():
    gen = np.random.default_rng(13)
    pts = gen.standard_normal((8, 2))
    # Integer losses shift without rounding, so the result is bit-identical.
    exact_losses = gen.integers(0, 6, size=8).astype(float)
    assert np.array_equal(
        consensus_point(pts, exact_losses + 777.0, 7.0).value,
        consensus_point(pts, exact_losses, 7.0).value,
    )
    # General float losses pick up rounding from the shift itself.
    losses = gen.uniform(size=8)
    base = consensus_point(pts, losses, 7.0)
    shifted = consensus_point(pts, losses + 123.456, 7.0)
    assert np.allclose(shifted.value, base.value, rtol=0.0, atol=1e-12)


def test_huge_alpha_and_losses_stay_finite():
    pts = np.array([[0.0], [1.0], [2.0]])
    losses = np.array([1e6, 2e6, 3e6])
    point = consensus_point(pts, losses, 1e4)
    assert np.all(np.isfinite(point.value))
    assert abs(point.value[0] - 0.0) < 1e-12  # all weight on the min-loss particle


def test_bounding_box_membership_is_exact():
    gen = np.random.default_rng(17)
    for _ in range(10):
        pts = gen.standard_normal((6, 4)) * gen.uniform(0.1, 10.0)
        losses = gen.uniform(size=6)
        point = consensus_point(pts, losses, gen.uniform(0.0, 100.0))
        assert np.all(point.value >= pts.min(axis=0))
        assert np.all(point.value <= pts.max(axis=0))


def test_laplace_limit_approaches_best_particle():
    # Monotone decrease in alpha is checked on this fixed cloud; only the
    # limit itself is guaranteed for arbitrary clouds.
    gen = np.random.default_rng(0)
    pts = gen.standard_normal((30, 2))
    obj = make_quadratic(2, np.zeros(2))
    losses = obj.losses(pts)
    best = pts[np.argmin(losses)]
    dists = []
    for alpha in (1.0, 10.0, 100.0, 1000.0):
        point = consensus_point(pts, losses, alpha)
        dists.append(np.linalg.norm(point.value - best))
    for lo, hi in zip(dists[1:], dists[:-1]):
        assert lo <= hi + 1e-12
    assert dists[-1] <= 0.1
    assert dists[-1] < 1e-6


def test_determinism_same_inputs_same_bits():
    gen = np.random.default_rng(23)
    pts = gen.standard_normal((20, 3))
    losses = gen.uniform(size=20)
    a = consensus_point(pts, losses, 10.0)
    b = consensus_point(pts.copy(), losses.copy(), 10.0)
    assert np.array_equal(a.value, b.value)
    assert a.total_weight == b.total_weight


def test_input_validation():
    with pytest.raises(InvalidParameterError):
        consensus_point(np.empty((0, 2)), np.array([]), 1.0)
    with pytest.raises(InvalidParameterError):
        consensus_point(np.ones((3, 2)), np.ones(2), 1.0)
    with pytest.raises(InvalidParameterError):
        consensus_point(np.ones((2, 2)), np.ones(2), -1.0)
    with pytest.raises(InvalidParameterError):
        consensus_point(np.ones((2, 2)), np.array([1.0, np.nan]), 1.0)
    with pytest.raises(InvalidParameterError):
        consensus_point(np.array([[np.inf, 0.0], [0.0, 0.0]]), np.ones(2), 1.0)


def test_agent_consensus_with_no_downloads_is_own_model():
    own = np.array([1.5, -0.5])
    point, losses, dropped = consensus_point_for_agent(
        0, own, {}, lambda t: float(np.sum(t * t)), alpha=5.0,
    )
    assert np.array_equal(point.value, own)
    assert set(losses) == {0}
    assert dropped == []


def test_agent_consensus_weights_by_own_loss():
    # Caller at the origin of a quadratic; peer model sits at distance 1.
    own = np.array([0.0])
    downloads = {1: np.array([1.0])}
    evaluate = lambda t: float(np.sum(t * t))
    point, losses, dropped = consensus_point_for_agent(0, own, downloads, evaluate, 1.0)
    expected = math.exp(-1) / (1 + math.exp(-1))
    assert abs(point.value[0] - expected) < 1e-12
    assert losses == {0: 0.0, 1: 1.0}
    assert dropped == []


def test_agent_consensus_drops_nonfinite_peer_losses():
    own = np.array([0.0])
    downloads = {1: np.array([1.0]), 2: np.array([2.0])}

    def evaluate(t):
        value = float(np.sum(t * t))
        return float("inf") if value > 3 else value

    point, losses, dropped = consensus_point_for_agent(0, own, downloads, evaluate, 1.0)
    assert dropped == [2]
    expected = math.exp(-1) / (1 + math.exp(-1))  # only own and peer 1 remain
    assert abs(point.value[0] - expected) < 1e-12


def test_agent_consensus_excluding_self_uses_downloads_only():
    own = np.array([0.0])
    downloads = {3: np.array([2.0])}
    point, losses, dropped = consensus_point_for_agent(
        0, own, downloads, lambda t: float(np.sum(t * t)), 1.0, include_self=False,
    )
    assert point.value[0] == 2.0
    assert 0 not in losses


def test_agent_consensus_wraps_evaluation_failures_with_agent_id():
    def evaluate(t):
        raise ValueError("boom")

    with pytest.raises(RuntimeError, match="agent 4"):
        consensus_point_for_agent(0, np.zeros(1), {4: np.ones(1)}, evaluate, 1.0)


def test_agent_consensus_with_nothing_usable_raises():
    with pytest.raises(InvalidParameterError):
        consensus_point_for_agent(0, np.zeros(1), {}, lambda t: 0.0, 1.0,
                                  include_self=False)
