"""Gibbs-weighted consensus points.

The consensus point of a particle cloud is the average of positions weighted
by exp(-alpha * loss).  Exponentials are taken after subtracting the minimum
loss, which makes the computation invariant to constant loss shifts and safe
for large alpha.  Summation order is fixed (particle-index order), so a
given cloud always produces bit-identical output.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError


@dataclass(frozen=True)
class ConsensusPoint:
    """Weighted barycenter plus the weight mass that produced it.

    ``total_weight`` is the sum of the shifted weights exp(-alpha*(L - L_min)),
    so it always lies in [1, n].
    """

    value: np.ndarray
    total_weight: float
    alpha: float


def consensus_point(positions, losses, alpha):
    """Consensus of ``positions`` under Gibbs weights exp(-alpha * losses).

    alpha = 0 gives the plain mean.  Every coordinate of the result is
    clipped onto the coordinate range of the cloud, so convex-hull (box)
    membership holds exactly despite rounding.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    losses = np.asarray(losses, dtype=float).ravel()
    if positions.shape[0] == 0:
        raise InvalidParameterError("empty particle set")
    if losses.shape[0] != positions.shape[0]:
        raise InvalidParameterError(
            f"{positions.shape[0]} positions but {losses.shape[0]} losses"
        )
    if not np.isfinite(alpha) or alpha < 0:
        raise InvalidParameterError(f"alpha must be finite and >= 0, got {alpha}")
    if not np.isfinite(losses).all():
        bad = np.flatnonzero(~np.isfinite(losses))[0]
        raise InvalidParameterError(f"non-finite loss at index {bad}")
    if not np.isfinite(positions).all():
        raise InvalidParameterError("non-finite particle position")

    value, total = gibbs_mean(positions.T[:, None, :], losses[None], alpha)
    return ConsensusPoint(value=value[:, 0], total_weight=float(total[0]),
                          alpha=float(alpha))


def gibbs_mean(pt, losses, alpha):
    """Gibbs-weighted means of R clouds at once, without validation.

    ``pt`` is a (d, R, N) coordinate-major array of R clouds of N particles
    and ``losses`` their (R, N) losses.  Returns the (d, R) means, each
    clipped onto its cloud's coordinate range, and the (R,) sums of the
    shifted weights.  Every run is reduced along the particle axis on its
    own, so a run's result does not depend on the other runs.
    """
    shifted = losses - losses.min(axis=-1, keepdims=True)
    weights = np.exp(-alpha * shifted)
    total = np.add.reduce(weights, axis=-1)
    # Both sums run in particle order: with one coordinate the 1-D reduce is
    # the (n, 1) reduce; otherwise accumulate is sequential like the (n, dim)
    # reduce over rows, in any memory layout.
    if pt.shape[0] == 1:
        value = np.add.reduce(pt[0] * weights, axis=-1)[None] / total
    else:
        weighted = pt * weights
        value = np.add.accumulate(weighted, axis=-1, out=weighted)[..., -1] / total
    # Min and max along the particle axis are exact except for the sign of
    # a zero bound, which depends on the reduction order; a run with a zero
    # bound takes its bounds the (n, dim) way.
    lo, hi = pt.min(axis=-1), pt.max(axis=-1)
    for r in np.flatnonzero(~(lo.all(axis=0) & hi.all(axis=0))):
        rows = np.ascontiguousarray(pt[:, r].T)
        lo[:, r], hi[:, r] = rows.min(axis=0), rows.max(axis=0)
    return np.clip(value, lo, hi), total


def consensus_point_for_agent(own_id, own_model, downloads, evaluate, alpha,
                              include_self=True):
    """Consensus over downloaded models, weighted by the caller's own loss.

    ``downloads`` maps agent id -> model vector; ``evaluate`` is the caller's
    deterministic loss.  Models whose loss comes back non-finite are dropped
    rather than poisoning the weights.  Returns (point, losses, dropped)
    where ``losses`` records every evaluated peer loss for the likelihood
    update and ``dropped`` lists excluded ids.

    With no downloads and include_self, the consensus is the caller's own
    model (aggregation becomes a no-op).
    """
    losses = {}
    for agent_id in sorted(downloads):
        if agent_id == own_id:
            continue
        try:
            losses[agent_id] = float(evaluate(downloads[agent_id]))
        except Exception as exc:
            raise RuntimeError(f"loss evaluation failed for model of agent {agent_id}") from exc

    kept_ids = [i for i in sorted(losses) if np.isfinite(losses[i])]
    dropped = [i for i in sorted(losses) if not np.isfinite(losses[i])]

    stack = [downloads[i] for i in kept_ids]
    stack_losses = [losses[i] for i in kept_ids]
    if include_self:
        try:
            own_loss = float(evaluate(own_model))
        except Exception as exc:
            raise RuntimeError(f"loss evaluation failed for agent {own_id}'s own model") from exc
        if not np.isfinite(own_loss):
            raise InvalidParameterError(f"agent {own_id}: own loss is non-finite")
        stack.append(own_model)
        stack_losses.append(own_loss)
        losses[own_id] = own_loss
    if not stack:
        raise InvalidParameterError(
            f"agent {own_id}: no usable models for aggregation"
        )
    point = consensus_point(np.stack(stack), np.array(stack_losses), alpha)
    return point, losses, dropped
