"""Coupled multi-cluster particle dynamics.

Particles belong to hidden clusters, but every cluster's consensus point is
computed over the *whole* cloud: particles from other clusters simply get
negligible weight once alpha is large.  One Euler step per particle i in
cluster k:

    theta' = theta - l1*g*(theta - m_k) - l2*g*grad_k(theta)
             + s1*sqrt(g)*|theta - m_k|*z + s2*sqrt(g)*|grad_k(theta)|*z~

with z, z~ independent standard normal vectors drawn from the particle's own
stream (z first, then z~).  The noise amplitudes are scalar norms times an
isotropic Gaussian, so noise vanishes as the cloud reaches consensus.
"""

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import rng as rng_mod
from .config import HyperParams, InitSpec
from .consensus import consensus_point
from .errors import DivergenceError, InvalidParameterError


def epsilon_for_round(hp, round_idx):
    """Exploration rate schedule: eps(n) = max(start - decay*n, floor)."""
    if round_idx < 0:
        raise InvalidParameterError(f"round index must be >= 0, got {round_idx}")
    return max(hp.eps_start - hp.eps_decay * round_idx, hp.eps_floor)


@dataclass
class ParticleCloud:
    """Positions plus hidden cluster labels and per-particle streams.

    Streams are stateful: stepping a cloud advances them.  Rebuild via
    ``make_cloud`` to restart a trajectory from scratch.
    """

    positions: np.ndarray
    labels: np.ndarray
    streams: list
    step_count: int = 0

    @property
    def n_particles(self):
        return self.positions.shape[0]

    @property
    def dim(self):
        return self.positions.shape[1]


def make_cloud(problem, n_per_cluster, init, seed):
    """Fresh cloud with n_per_cluster particles per cluster, all init draws
    taken from the per-particle streams."""
    if n_per_cluster < 1:
        raise InvalidParameterError("n_per_cluster must be >= 1")
    k = problem.n_clusters
    n = k * n_per_cluster
    labels = np.repeat(np.arange(k), n_per_cluster)
    streams = rng_mod.agent_streams(seed, n)
    positions = np.empty((n, problem.dim))
    for i in range(n):
        positions[i] = init.mean + init.std * streams[i].standard_normal(problem.dim)
    return ParticleCloud(positions=positions, labels=labels, streams=streams)


def cluster_consensus(positions, labels, problem, alpha, step=None):
    """Per-cluster consensus points, each over the whole cloud.

    Losses that overflow to non-finite values mean the trajectory has
    diverged even while positions are still representable, so that case
    raises DivergenceError rather than a validation error.
    """
    points = np.empty((problem.n_clusters, positions.shape[1]))
    for k, objective in enumerate(problem.objectives):
        losses = objective.losses(positions)
        if not np.isfinite(losses).all():
            bad = int(np.flatnonzero(~np.isfinite(losses))[0])
            raise DivergenceError(
                f"loss of particle {bad} became non-finite"
                + (f" at step {step}" if step is not None else ""),
                step=step, index=bad,
            )
        points[k] = consensus_point(positions, losses, alpha).value
    return points


def _clusters(labels, n_clusters):
    """Each cluster's particles: a slice when they form one contiguous run,
    as ``make_cloud`` lays them out, else an index array; None if empty."""
    out = []
    for k in range(n_clusters):
        idx = np.flatnonzero(labels == k)
        if idx.size == 0:
            out.append(None)
        elif idx[-1] - idx[0] + 1 == idx.size:
            out.append(slice(int(idx[0]), int(idx[-1]) + 1))
        else:
            out.append(idx)
    return out


def _rows(pt):
    """The (N, d) rows of a (d, N) cloud, for the functions that take one
    particle per row.  Up to d = 2 the transposed view gives them the bits
    of a C-ordered array; from d = 3 their einsum and row sums would add in
    another order on it, so they get a C-ordered copy."""
    return pt.T if pt.shape[0] <= 2 else np.ascontiguousarray(pt.T)


def _row_norms(x):
    """Norm of every column of a (d, n) array, bit for bit
    ``np.linalg.norm(rows, axis=1)`` of its C-ordered (n, d) rows: NumPy
    adds fewer than 8 terms in order and 8 or more pairwise."""
    if x.shape[0] >= 8:
        return np.linalg.norm(np.ascontiguousarray(x.T), axis=1)
    total = x[0] * x[0]
    for row in x[1:]:
        total += row * row
    return np.sqrt(total, out=total)


def _step(pt, labels, clusters, problem, hp, noise, step, consensus=None):
    """One Euler update of a (d, N) cloud; returns the new (d, N) cloud.

    ``noise`` is the step's (2, d, N) normal block (z, then z~) or None;
    ``consensus`` passes in the step's consensus points when a record has
    already computed them.  Run under ``np.errstate(over="ignore",
    invalid="ignore")``: overflow is caught by the explicit finiteness
    checks.
    """
    g = hp.step_size
    rows = _rows(pt)
    if consensus is None:
        consensus = cluster_consensus(rows, labels, problem, hp.alpha, step=step)
    new = np.empty_like(pt)
    for k, (objective, sel) in enumerate(zip(problem.objectives, clusters)):
        if sel is None:
            continue
        theta = pt[:, sel]
        to_consensus = theta - consensus[k][:, None]
        grads = objective.gradients(rows[sel]).T
        drift = theta - hp.consensus_drift * g * to_consensus - hp.grad_drift * g * grads
        if noise is None:
            new[:, sel] = drift
            continue
        new[:, sel] = (
            drift
            + hp.consensus_noise * np.sqrt(g) * _row_norms(to_consensus) * noise[0][:, sel]
            + hp.grad_noise * np.sqrt(g) * _row_norms(grads) * noise[1][:, sel]
        )
    return new


# Particles drawn into one contiguous tile before it is copied into the
# step-major noise block: a copy per particle would write one scattered
# element per (step, term, coordinate).
_DRAW_TILE = 1024


def _draw_noise(streams, out):
    """Fill ``out`` (steps, 2, d, N) with the particles' next normals and
    return it.  ``out[:, :, :, i]`` is one (steps, 2, d) draw of
    ``streams[i]``, which takes the stream's numbers exactly as one (2, d)
    draw per step would."""
    n = len(streams)
    tile = np.empty((min(_DRAW_TILE, n),) + out.shape[:-1])
    for start in range(0, n, _DRAW_TILE):
        part = tile[:min(_DRAW_TILE, n - start)]
        for row, stream in zip(part, streams[start:start + len(part)]):
            stream.standard_normal(out=row)
        out[..., start:start + len(part)] = np.moveaxis(part, 0, -1)
    return out


def _check_finite(pt, step):
    finite = np.isfinite(pt)
    if finite.all():
        return
    bad = int(np.flatnonzero(~finite.all(axis=0))[0])
    raise DivergenceError(
        f"particle {bad} became non-finite at step {step}",
        step=step,
        index=bad,
    )


def em_step(cloud, problem, hp):
    """One Euler-Maruyama step; returns a new cloud, streams advanced.

    Each particle always consumes one (2, dim) normal draw from its stream,
    so noiseless and noisy runs stay stream-aligned.
    """
    if cloud.dim != problem.dim:
        raise InvalidParameterError(
            f"cloud dim {cloud.dim} does not match problem dim {problem.dim}"
        )
    outside = np.flatnonzero((cloud.labels < 0) | (cloud.labels >= problem.n_clusters))
    if outside.size:
        raise InvalidParameterError(
            f"particle {outside[0]} has label {cloud.labels[outside[0]]}, outside "
            f"the problem's {problem.n_clusters} clusters"
        )
    step = cloud.step_count + 1
    noise = _draw_noise(cloud.streams, np.empty((1, 2, cloud.dim, cloud.n_particles)))
    with np.errstate(over="ignore", invalid="ignore"):
        pt = _step(np.ascontiguousarray(cloud.positions.T), cloud.labels,
                   _clusters(cloud.labels, problem.n_clusters), problem, hp,
                   noise[0], step)
    _check_finite(pt, step)
    return ParticleCloud(
        positions=np.ascontiguousarray(pt.T),
        labels=cloud.labels,
        streams=cloud.streams,
        step_count=step,
    )


@dataclass
class SdeResult:
    """Recorded trajectory of a particle run."""

    steps: np.ndarray
    times: np.ndarray
    variances: np.ndarray        # (n_records, n_clusters), 0.5 * mean |theta - theta_k*|^2
    consensus_errors: np.ndarray  # (n_records, n_clusters), |m_k - theta_k*|
    final_positions: np.ndarray
    final_labels: np.ndarray
    checkpoints: dict            # step -> positions snapshot
    theory_regime: Optional[bool]
    hp: HyperParams = field(repr=False)

    @property
    def variance_sums(self):
        return self.variances.sum(axis=1)

    def records(self):
        """Per-record dicts, ready for JSONL."""
        for i in range(len(self.steps)):
            yield {
                "step": int(self.steps[i]),
                "time": float(self.times[i]),
                "v_per_cluster": [float(v) for v in self.variances[i]],
                "v_sum": float(self.variances[i].sum()),
                "consensus_err": [float(e) for e in self.consensus_errors[i]],
            }


def cluster_variances(positions, labels, minimizers):
    """V_k = 0.5 * mean over cluster-k particles of |theta - theta_k*|^2."""
    out = np.empty(minimizers.shape[0])
    for k in range(minimizers.shape[0]):
        idx = labels == k
        if not idx.any():
            out[k] = np.nan
            continue
        d = positions[idx] - minimizers[k]
        out[k] = 0.5 * float(np.mean(np.einsum("ij,ij->i", d, d)))
    return out


# run_sde pre-draws noise in blocks of as many steps as fit in this many
# doubles (128 MiB), at least one step, which bounds its memory whatever
# the cloud size.
NOISE_DOUBLES = 1 << 24


def run_sde(problem, n_per_cluster, hp, t_steps, init=None, seed=0,
            record_every=1, checkpoint_steps=(), jsonl_path=None):
    """Integrate the coupled system for t_steps and record V and consensus error.

    The cloud is kept as one (d, N) array, so each update runs along the
    particle axis.  Noise is pre-drawn from per-particle streams in
    step-major blocks, which reproduces exactly what repeated ``em_step``
    calls would draw; a noiseless run draws none.  Snapshots of the
    positions are kept at ``checkpoint_steps``.
    """
    if t_steps < 0:
        raise InvalidParameterError("t_steps must be >= 0")
    init = init or InitSpec()
    cloud = make_cloud(problem, n_per_cluster, init, seed)
    labels = cloud.labels
    clusters = _clusters(labels, problem.n_clusters)
    minimizers = problem.minimizers
    lip = problem.max_grad_lipschitz
    regime = hp.theory_regime(lip, problem.dim) if lip is not None else None

    checkpoint_steps = sorted(set(int(s) for s in checkpoint_steps))
    checkpoints = {}
    rec_steps, rec_v, rec_err = [], [], []

    def record(step, pt):
        # The consensus points recorded here are the next step's inputs.
        rows = _rows(pt)
        rec_steps.append(step)
        rec_v.append(cluster_variances(rows, labels, minimizers))
        points = cluster_consensus(rows, labels, problem, hp.alpha, step=step)
        rec_err.append(np.linalg.norm(points - minimizers, axis=1))
        return points

    pt = np.ascontiguousarray(cloud.positions.T)
    dim, n = pt.shape
    noisy = hp.consensus_noise > 0 or hp.grad_noise > 0
    block_steps = max(1, min(t_steps, NOISE_DOUBLES // (2 * dim * n)))
    buffer = np.empty((block_steps, 2, dim, n)) if noisy else None
    with np.errstate(over="ignore", invalid="ignore"):
        consensus = record(0, pt)
        if 0 in checkpoint_steps:
            checkpoints[0] = cloud.positions.copy()
        step = 0
        while step < t_steps:
            block = min(block_steps, t_steps - step)
            noise = _draw_noise(cloud.streams, buffer[:block]) if noisy else None
            for s in range(block):
                step += 1
                pt = _step(pt, labels, clusters, problem, hp,
                           None if noise is None else noise[s], step, consensus)
                consensus = None
                _check_finite(pt, step)
                if step % record_every == 0 or step == t_steps:
                    consensus = record(step, pt)
                if step in checkpoint_steps:
                    checkpoints[step] = np.ascontiguousarray(pt.T)

    result = SdeResult(
        steps=np.array(rec_steps),
        times=np.array(rec_steps, dtype=float) * hp.step_size,
        variances=np.array(rec_v),
        consensus_errors=np.array(rec_err),
        final_positions=np.ascontiguousarray(pt.T),
        final_labels=cloud.labels.copy(),
        checkpoints=checkpoints,
        theory_regime=regime,
        hp=hp,
    )
    if jsonl_path is not None:
        with open(jsonl_path, "w") as fh:
            for rec in result.records():
                fh.write(json.dumps(rec) + "\n")
    return result


def decay_exponent_fit(v_values, times, window=None):
    """Least-squares decay rate of log(V) over ``times``.

    ``window`` is an optional (start, stop) index slice.  Nonpositive V
    entries are trimmed before fitting; an empty window after trimming is an
    error.  Returns the sign-flipped slope, positive for decay.
    """
    v = np.asarray(v_values, dtype=float)
    t = np.asarray(times, dtype=float)
    if v.shape != t.shape:
        raise InvalidParameterError("v_values and times must have the same shape")
    if window is not None:
        lo, hi = window
        v, t = v[lo:hi], t[lo:hi]
    keep = v > 0
    v, t = v[keep], t[keep]
    if len(v) < 2:
        raise InvalidParameterError("fit window has fewer than 2 positive samples")
    slope = np.polyfit(t, np.log(v), 1)[0]
    return float(-slope)
