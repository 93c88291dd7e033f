"""Analytic benchmark objectives with clamped gradients.

Each objective carries its minimizer and curvature metadata so simulations
can report distance-to-optimum and check the contraction condition.  Raw
gradients are rescaled onto a norm ball of radius ``grad_bound``; where the
raw gradient lies inside that ball the clamp is inactive and the gradient is
exact.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InvalidParameterError

DEFAULT_GRAD_BOUND = 1e3


def _clamp_rows(grads, bound):
    """Rescale every row of ``grads`` (n, dim) that sticks out of the ball of
    radius ``bound`` onto it, direction preserved; rows inside pass through
    unchanged, and with no row outside ``grads`` itself is returned.  A row's
    result does not depend on the other rows."""
    if bound <= 0:
        raise InvalidParameterError(f"gradient bound must be positive, got {bound}")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(grads, axis=1)
    over = norms > bound
    if not over.any():
        # Local training clamps every step and the clamp rarely fires; a
        # full-size product here would cost an allocation and its page faults.
        return grads
    out = grads * np.where(over, bound / np.maximum(norms, 1e-300), 1.0)[:, None]
    huge = np.flatnonzero(np.isinf(norms))
    huge = huge[np.isfinite(grads[huge]).all(axis=1)]
    if huge.size:
        # A finite row whose squared norm overflows: divide it by its largest
        # entry first, so its norm and the rescale stay finite.
        unit = grads[huge] / np.abs(grads[huge]).max(axis=1, keepdims=True)
        out[huge] = unit * (bound / np.linalg.norm(unit, axis=1))[:, None]
    return out


@dataclass(frozen=True)
class Objective:
    """A differentiable loss with optional optimum metadata.

    ``eval_many`` and ``grad_many`` act on an (n, dim) batch, one row per
    point; a single point is the batch-of-one case, bit for bit.
    """

    dim: int
    eval_many: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    grad_many: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    minimizer: Optional[np.ndarray] = None
    grad_lipschitz: Optional[float] = None

    def losses(self, positions):
        """Evaluate on every row of an (n, dim) array."""
        return self.eval_many(np.asarray(positions, dtype=float))

    def gradients(self, positions):
        """Clamped gradient at every row of an (n, dim) array."""
        return self.grad_many(np.asarray(positions, dtype=float))


def _check_center(dim, center):
    if dim < 1:
        raise InvalidParameterError(f"dim must be >= 1, got {dim}")
    center = np.asarray(center, dtype=float)
    if center.shape != (dim,):
        raise InvalidParameterError(
            f"center shape {center.shape} does not match dim {dim}"
        )
    return center


def make_quadratic(dim, center, scale=1.0, grad_bound=DEFAULT_GRAD_BOUND):
    """Isotropic quadratic well  scale * ||theta - center||^2."""
    center = _check_center(dim, center)
    if scale <= 0:
        raise InvalidParameterError(f"scale must be positive, got {scale}")

    def _eval_many(positions):
        d = positions - center
        return scale * np.einsum("ij,ij->i", d, d)

    def _grad_many(positions):
        return _clamp_rows(2.0 * scale * (positions - center), grad_bound)

    return Objective(
        dim=dim,
        eval_many=_eval_many,
        grad_many=_grad_many,
        minimizer=center,
        grad_lipschitz=2.0 * scale,
    )


def make_rastrigin(dim, center, grad_bound=DEFAULT_GRAD_BOUND):
    """Shifted Rastrigin: 10*dim + sum((x_i)^2 - 10*cos(2*pi*x_i)), x = theta - center."""
    center = _check_center(dim, center)

    def _eval_many(positions):
        x = positions - center
        return 10.0 * dim + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x), axis=1)

    def _grad_many(positions):
        x = positions - center
        return _clamp_rows(2.0 * x + 20.0 * np.pi * np.sin(2.0 * np.pi * x), grad_bound)

    return Objective(
        dim=dim,
        eval_many=_eval_many,
        grad_many=_grad_many,
        minimizer=center,
        grad_lipschitz=2.0 + 40.0 * np.pi**2,
    )


@dataclass(frozen=True)
class BenchmarkProblem:
    """A family of per-cluster objectives over a shared parameter space."""

    objectives: tuple

    def __post_init__(self):
        if len(self.objectives) < 1:
            raise InvalidParameterError("need at least one objective")
        dims = {o.dim for o in self.objectives}
        if len(dims) != 1:
            raise InvalidParameterError(f"objectives disagree on dim: {dims}")
        for i, o in enumerate(self.objectives):
            if o.minimizer is None:
                raise InvalidParameterError(f"objective {i} has no minimizer metadata")

    @property
    def n_clusters(self):
        return len(self.objectives)

    @property
    def dim(self):
        return self.objectives[0].dim

    @property
    def minimizers(self):
        return np.stack([o.minimizer for o in self.objectives])

    @property
    def max_grad_lipschitz(self):
        vals = [o.grad_lipschitz for o in self.objectives if o.grad_lipschitz is not None]
        return max(vals) if vals else None


def make_well_problem(kind, dim, offset=2.0, scale=1.0, grad_bound=DEFAULT_GRAD_BOUND):
    """Two-cluster benchmark with minimizers at +-offset * ones(dim)."""
    centers = [offset * np.ones(dim), -offset * np.ones(dim)]
    return make_centers_problem(kind, dim, centers, scale=scale, grad_bound=grad_bound)


def make_centers_problem(kind, dim, centers, scale=1.0, grad_bound=DEFAULT_GRAD_BOUND):
    """Benchmark with one objective of the given kind per center."""
    makers = {
        "quadratic": lambda c: make_quadratic(dim, c, scale=scale, grad_bound=grad_bound),
        "rastrigin": lambda c: make_rastrigin(dim, c, grad_bound=grad_bound),
    }
    if kind not in makers:
        raise InvalidParameterError(f"unknown objective kind {kind!r}")
    return BenchmarkProblem(objectives=tuple(makers[kind](c) for c in centers))
