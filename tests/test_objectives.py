"""Analytic objectives: values, gradients, clamping, and problem metadata."""

import numpy as np
import pytest

from fedcbo.errors import InvalidParameterError
from fedcbo.objectives import (BenchmarkProblem, Objective, _clamp_rows,
                               make_centers_problem, make_quadratic,
                               make_rastrigin, make_well_problem)


def loss_at(obj, theta):
    """The objective at one point: the batch-of-one case of ``losses``."""
    return float(obj.losses(np.asarray(theta, dtype=float)[None])[0])


def grad_at(obj, theta):
    return obj.gradients(np.asarray(theta, dtype=float)[None])[0]


def finite_difference_grad(f, x, h=1e-6):
    """Central-difference gradient, the oracle for every analytic gradient."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def test_clamp_passes_short_vectors_through_unchanged():
    v = np.array([[0.3, -0.4]])
    out = _clamp_rows(v, 1.0)
    assert np.array_equal(out, v)


def test_clamp_rescales_onto_ball_preserving_direction():
    v = np.array([3.0, 4.0])  # norm 5
    out = _clamp_rows(v[None], 1.0)[0]
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    cos = np.dot(out, v) / (np.linalg.norm(out) * np.linalg.norm(v))
    assert abs(cos - 1.0) < 1e-12


def test_clamp_rejects_nonpositive_bound():
    with pytest.raises(InvalidParameterError):
        _clamp_rows(np.ones((1, 2)), 0.0)
    with pytest.raises(InvalidParameterError):
        _clamp_rows(np.ones((3, 2)), -1.0)


def test_quadratic_value_and_gradient_at_hand_points():
    obj = make_quadratic(2, [1.0, -1.0], scale=2.0)
    # 2 * ((3-1)^2 + (0+1)^2) = 2 * 5 = 10
    assert abs(loss_at(obj, [3.0, 0.0]) - 10.0) < 1e-12
    # grad = 2*scale*(theta - center) = 4 * (2, 1)
    assert np.allclose(grad_at(obj, [3.0, 0.0]), [8.0, 4.0], atol=1e-12)
    assert loss_at(obj, obj.minimizer) == 0.0
    assert np.allclose(grad_at(obj, obj.minimizer), 0.0)


def test_quadratic_metadata():
    obj = make_quadratic(3, np.zeros(3), scale=1.5)
    assert obj.grad_lipschitz == 3.0


def test_quadratic_batch_matches_scalar_loop():
    # The batch against the formula evaluated point by point.
    center = np.array([0.5, -0.5, 1.0])
    obj = make_quadratic(3, center)
    pts = np.random.default_rng(0).standard_normal((7, 3))
    assert np.allclose(obj.losses(pts), [np.dot(p - center, p - center) for p in pts],
                       atol=1e-12)
    assert np.allclose(obj.gradients(pts), [2.0 * (p - center) for p in pts], atol=1e-12)


def test_quadratic_gradient_matches_finite_differences():
    obj = make_quadratic(4, [1.0, 0.0, -2.0, 0.5], scale=0.7)
    x = np.array([0.3, -1.2, 0.8, 2.0])
    fd = finite_difference_grad(lambda t: loss_at(obj, t), x)
    assert np.allclose(grad_at(obj, x), fd, atol=1e-5)


def test_rastrigin_is_zero_at_its_minimizer():
    obj = make_rastrigin(2, [0.7, -0.3])
    assert abs(loss_at(obj, obj.minimizer)) < 1e-12
    assert np.allclose(grad_at(obj, obj.minimizer), 0.0, atol=1e-12)


def test_rastrigin_equals_squared_norm_at_integer_offsets():
    # At integer displacements the cosine term cancels the 10*dim constant,
    # leaving exactly |x|^2.
    obj = make_rastrigin(2, np.zeros(2))
    assert abs(loss_at(obj, [1.0, 0.0]) - 1.0) < 1e-9
    assert abs(loss_at(obj, [2.0, -1.0]) - 5.0) < 1e-9


def test_rastrigin_gradient_matches_finite_differences():
    obj = make_rastrigin(3, [0.1, 0.0, -0.2])
    x = np.array([0.4, -0.7, 1.3])
    fd = finite_difference_grad(lambda t: loss_at(obj, t), x)
    assert np.allclose(grad_at(obj, x), fd, atol=1e-4)


def test_rastrigin_batch_matches_scalar_loop():
    # The batch against the formula evaluated point by point.
    obj = make_rastrigin(2, np.zeros(2))
    pts = np.random.default_rng(1).standard_normal((6, 2)) * 3.0
    assert np.allclose(obj.losses(pts),
                       [20.0 + sum(x * x - 10.0 * np.cos(2.0 * np.pi * x)) for x in pts],
                       atol=1e-12)
    assert np.allclose(obj.gradients(pts),
                       [2.0 * x + 20.0 * np.pi * np.sin(2.0 * np.pi * x) for x in pts],
                       atol=1e-12)


def test_gradient_clamp_engages_far_from_minimizer():
    obj = make_quadratic(2, np.zeros(2), grad_bound=10.0)
    g = grad_at(obj, [100.0, 0.0])  # raw norm 200
    assert abs(np.linalg.norm(g) - 10.0) < 1e-12
    batch = obj.gradients(np.array([[100.0, 0.0], [0.1, 0.0]]))
    assert abs(np.linalg.norm(batch[0]) - 10.0) < 1e-12
    assert np.allclose(batch[1], [0.2, 0.0], atol=1e-12)


def test_clamp_is_inactive_inside_free_radius():
    obj = make_quadratic(2, np.zeros(2), grad_bound=10.0)
    x = np.array([2.0, 1.0])  # inside radius 5, raw grad norm ~4.5
    assert np.linalg.norm(x) < 5.0  # = grad_bound / (2 * scale)
    assert np.array_equal(grad_at(obj, x), 2.0 * x)


def test_center_shape_and_dim_validation():
    with pytest.raises(InvalidParameterError):
        make_quadratic(2, [1.0, 2.0, 3.0])
    with pytest.raises(InvalidParameterError):
        make_quadratic(0, [])
    with pytest.raises(InvalidParameterError):
        make_quadratic(2, [0.0, 0.0], scale=0.0)


def test_well_problem_geometry():
    prob = make_well_problem("quadratic", 2, offset=2.0)
    assert prob.n_clusters == 2
    assert prob.dim == 2
    assert np.allclose(prob.minimizers, [[2.0, 2.0], [-2.0, -2.0]])
    assert prob.max_grad_lipschitz == 2.0


def test_centers_problem_rejects_unknown_kind():
    with pytest.raises(InvalidParameterError):
        make_centers_problem("cubic", 2, [np.zeros(2)])


def test_problem_rejects_mismatched_dims():
    a = make_quadratic(2, np.zeros(2))
    b = make_quadratic(3, np.zeros(3))
    with pytest.raises(InvalidParameterError):
        BenchmarkProblem(objectives=(a, b))


def test_problem_requires_minimizer_metadata():
    bare = Objective(dim=2, eval_many=lambda p: np.zeros(len(p)),
                     grad_many=lambda p: np.zeros_like(p))
    with pytest.raises(InvalidParameterError):
        BenchmarkProblem(objectives=(bare,))
