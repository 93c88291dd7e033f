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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng as rng_mod
from .config import HyperParams, InitSpec
from .consensus import gibbs_mean
from .errors import DivergenceError, InvalidParameterError


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
    taken from the per-particle streams: row i is the first ``dim`` normals
    of stream i, scaled and shifted as one block."""
    if n_per_cluster < 1:
        raise InvalidParameterError("n_per_cluster must be >= 1")
    k = problem.n_clusters
    n = k * n_per_cluster
    labels = np.repeat(np.arange(k), n_per_cluster)
    streams = rng_mod.agent_streams(seed, n)
    z = np.empty((n, problem.dim))
    for row, gen in zip(z, streams):
        gen.standard_normal(out=row)
    positions = init.mean + init.std * z
    return ParticleCloud(positions=positions, labels=labels, streams=streams)


def cluster_consensus(positions, labels, problem, alpha, step=None, seeds=None):
    """Per-cluster consensus points, each over the whole cloud.

    ``positions`` holds the (N, d) rows of one cloud, which gives (K, d)
    points, or the (R, N, d) rows of R clouds sharing ``labels``, which
    gives (R, K, d) points, each run's equal to its own cloud's.  Losses
    that overflow to non-finite values mean the trajectory has diverged even
    while positions are still representable, so that case raises
    DivergenceError, naming the run's entry of ``seeds`` if given.
    """
    batch = positions.reshape((-1,) + positions.shape[-2:])
    runs, n, dim = batch.shape
    rows, pt = batch.reshape(-1, dim), batch.transpose(2, 0, 1)
    points = np.empty((runs, problem.n_clusters, dim))
    for k, objective in enumerate(problem.objectives):
        losses = objective.losses(rows).reshape(runs, n)
        finite = np.isfinite(losses)
        if not finite.all():
            raise _divergence("loss of particle", ~finite, step, seeds)
        points[:, k] = gibbs_mean(pt, losses, alpha)[0].T
    return points.reshape(positions.shape[:-2] + points.shape[1:])


def _divergence(what, bad, step, seeds):
    """DivergenceError for the first (run, particle) set in the (R, N) mask
    ``bad``, runs in order."""
    run, index = (int(i) for i in np.argwhere(bad)[0])
    message = f"{what} {index}"
    if seeds is not None:
        message += f" (seed {seeds[run]})"
    message += " became non-finite"
    if step is not None:
        message += f" at step {step}"
    return DivergenceError(message, step=step, index=index)


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


def _rows(x):
    """The (M, d) rows of a coordinate-major (d, ...) array, one particle per
    row, for the functions that take them.  Up to d = 2 the transposed view
    gives them the bits of a C-ordered array; from d = 3 their einsum and
    row sums would add in another order on it, so they get a C-ordered
    copy."""
    rows = x.reshape(x.shape[0], -1).T
    return rows if x.shape[0] <= 2 else np.ascontiguousarray(rows)


def _run_rows(pt):
    """The (R, N, d) rows of a (d, R, N) ensemble, as ``_rows`` gives them."""
    return _rows(pt).reshape(pt.shape[1:] + pt.shape[:1])


def _row_norms(x):
    """Norm over the leading (coordinate) axis of a (d, ...) array, bit for
    bit ``np.linalg.norm(rows, axis=1)`` of its C-ordered rows: NumPy adds
    fewer than 8 terms in order and 8 or more pairwise."""
    if x.shape[0] >= 8:
        return np.linalg.norm(_rows(x), axis=1).reshape(x.shape[1:])
    total = x[0] * x[0]
    for row in x[1:]:
        total += row * row
    return np.sqrt(total, out=total)


def _noisy(hp):
    return hp.consensus_noise > 0 or hp.grad_noise > 0


def _step(pt, labels, clusters, problem, hp, noise, step, seeds=None, consensus=None):
    """One Euler update of a (d, R, N) ensemble; returns the new ensemble.

    ``noise`` is the step's (2, d, R, N) normal block (z, then z~) or None;
    ``consensus`` passes in the step's (R, K, d) consensus points when a
    record has already computed them.  Run under ``np.errstate(over="ignore",
    invalid="ignore")``: overflow is caught by the explicit finiteness
    checks.
    """
    g = hp.step_size
    if consensus is None:
        consensus = cluster_consensus(_run_rows(pt), labels, problem, hp.alpha, step,
                                      seeds)
    new = np.empty_like(pt)
    for k, (objective, sel) in enumerate(zip(problem.objectives, clusters)):
        if sel is None:
            continue
        theta = pt[..., sel]
        to_consensus = theta - consensus[:, k].T[..., None]
        grads = objective.gradients(_rows(theta)).T.reshape(theta.shape)
        drift = theta - hp.consensus_drift * g * to_consensus - hp.grad_drift * g * grads
        if noise is None:
            new[..., sel] = drift
            continue
        new[..., sel] = (
            drift
            + hp.consensus_noise * np.sqrt(g) * _row_norms(to_consensus) * noise[0][..., sel]
            + hp.grad_noise * np.sqrt(g) * _row_norms(grads) * noise[1][..., sel]
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


def _check_finite(pt, step, seeds=None):
    finite = np.isfinite(pt)
    if not finite.all():
        raise _divergence("particle", ~finite.all(axis=0), step, seeds)


def em_step(cloud, problem, hp):
    """One Euler-Maruyama step; returns a new cloud, streams advanced.

    This is the one-run case of the step ``run_sde`` takes.  Each particle
    consumes one (2, dim) normal draw from its stream when a noise scale is
    positive and none when both are 0, as in ``run_sde``.
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
    noise = None
    if _noisy(hp):
        noise = np.empty((2, cloud.dim, 1, cloud.n_particles))
        _draw_noise(cloud.streams, noise[None, :, :, 0])
    with np.errstate(over="ignore", invalid="ignore"):
        pt = _step(np.ascontiguousarray(cloud.positions.T)[:, None], cloud.labels,
                   _clusters(cloud.labels, problem.n_clusters), problem, hp,
                   noise, step)
    _check_finite(pt, step)
    return ParticleCloud(
        positions=np.ascontiguousarray(pt[:, 0].T),
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

    @property
    def variance_sums(self):
        return self.variances.sum(axis=1)


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


# A run pre-draws noise in blocks of as many steps as fit in this many
# doubles (128 MiB), at least one step, which bounds its memory whatever
# the cloud size; an ensemble shares one run's block between its runs.
NOISE_DOUBLES = 1 << 24


def run_sde(problem, n_per_cluster, hp, t_steps, init=None, seed=0,
            record_every=1, checkpoint_steps=()):
    """Integrate the coupled system for t_steps and record V and consensus error.

    The one-seed case of ``run_sde_ensemble``: its noise blocks hold
    ``max(1, min(t_steps, NOISE_DOUBLES // (2 * d * N)))`` steps.  It
    writes nothing; ``experiment`` turns the result into trajectory files.
    """
    return run_sde_ensemble(problem, n_per_cluster, hp, t_steps, [seed], init=init,
                            record_every=record_every,
                            checkpoint_steps=checkpoint_steps)[0]


def run_sde_ensemble(problem, n_per_cluster, hp, t_steps, seeds, init=None,
                     record_every=1, checkpoint_steps=()):
    """Integrate one run per seed as one ensemble; one SdeResult per seed.

    Each result equals ``run_sde`` with that seed bit for bit.  The runs'
    clouds are held as one C-ordered (d, R, N) array, so each update runs
    along the run and particle axes at once, and every reduction (consensus
    weights, sums, clip bounds) runs along one run's particle axis.  Noise
    is pre-drawn from per-particle streams in step-major blocks, as
    repeated ``em_step`` calls would draw it; a noiseless run draws none.
    The R runs share one run's block, S1 = max(1, min(t_steps,
    NOISE_DOUBLES // (2 * d * N))) steps, as blocks of max(1, S1 // R)
    steps; more than S1 seeds are integrated in groups of at most S1.
    Divergence raises at the first step where any run fails, naming the
    seed, the step and the particle.  Snapshots of the positions are kept
    at ``checkpoint_steps``.
    """
    if t_steps < 0:
        raise InvalidParameterError("t_steps must be >= 0")
    if n_per_cluster < 1:
        raise InvalidParameterError("n_per_cluster must be >= 1")
    seeds = list(seeds)
    run_steps = max(1, min(t_steps, NOISE_DOUBLES // (
        2 * problem.dim * problem.n_clusters * n_per_cluster)))
    checkpoint_steps = sorted(set(int(s) for s in checkpoint_steps))
    results = []
    for start in range(0, len(seeds), run_steps):
        group = seeds[start:start + run_steps]
        results += _integrate(problem, n_per_cluster, hp, t_steps, group,
                              init or InitSpec(), record_every, checkpoint_steps,
                              max(1, run_steps // len(group)))
    return results


def _integrate(problem, n_per_cluster, hp, t_steps, seeds, init, record_every,
               checkpoint_steps, block_steps):
    """One group of seeds as one (d, R, N) ensemble, drawing noise blocks of
    ``block_steps`` steps."""
    clouds = [make_cloud(problem, n_per_cluster, init, seed) for seed in seeds]
    labels = clouds[0].labels
    clusters = _clusters(labels, problem.n_clusters)
    minimizers = problem.minimizers
    lip = problem.max_grad_lipschitz
    regime = hp.theory_regime(lip, problem.dim) if lip is not None else None
    runs, n, dim = len(seeds), len(labels), problem.dim
    pt = np.empty((dim, runs, n))
    for r, cloud in enumerate(clouds):
        pt[:, r] = cloud.positions.T

    checkpoints = [{} for _ in seeds]
    rec_steps, rec_v, rec_err = [], [], []

    def record(step, pt):
        # The consensus points recorded here are the next step's inputs.
        rows = _run_rows(pt)
        rec_steps.append(step)
        rec_v.append([cluster_variances(run, labels, minimizers) for run in rows])
        points = cluster_consensus(rows, labels, problem, hp.alpha, step, seeds)
        rec_err.append([np.linalg.norm(p - minimizers, axis=1) for p in points])
        return points

    buffer = np.empty((block_steps, 2, dim, runs, n)) if _noisy(hp) else None
    with np.errstate(over="ignore", invalid="ignore"):
        consensus = record(0, pt)
        if 0 in checkpoint_steps:
            for run, cloud in zip(checkpoints, clouds):
                run[0] = cloud.positions.copy()
        step = 0
        while step < t_steps:
            block = min(block_steps, t_steps - step)
            noise = None
            if buffer is not None:
                noise = buffer[:block]
                for r, cloud in enumerate(clouds):
                    _draw_noise(cloud.streams, noise[:, :, :, r])
            for s in range(block):
                step += 1
                pt = _step(pt, labels, clusters, problem, hp,
                           None if noise is None else noise[s], step, seeds, consensus)
                consensus = None
                _check_finite(pt, step, seeds)
                if step % record_every == 0 or step == t_steps:
                    consensus = record(step, pt)
                if step in checkpoint_steps:
                    for r, run in enumerate(checkpoints):
                        run[step] = np.ascontiguousarray(pt[:, r].T)

    steps = np.array(rec_steps)
    return [
        SdeResult(
            steps=steps.copy(),
            times=steps * hp.step_size,
            variances=np.array([v[r] for v in rec_v]),
            consensus_errors=np.array([e[r] for e in rec_err]),
            final_positions=np.ascontiguousarray(pt[:, r].T),
            final_labels=labels.copy(),
            checkpoints=checkpoints[r],
            theory_regime=regime,
        )
        for r in range(runs)
    ]


def decay_exponent_fit(v_values, times):
    """Least-squares decay rate of log(V) over ``times``.

    Nonpositive V entries are trimmed before fitting; fewer than 2 samples
    after trimming is an error.  Returns the sign-flipped slope, positive
    for decay.
    """
    v = np.asarray(v_values, dtype=float)
    t = np.asarray(times, dtype=float)
    if v.shape != t.shape:
        raise InvalidParameterError("v_values and times must have the same shape")
    keep = v > 0
    v, t = v[keep], t[keep]
    if len(v) < 2:
        raise InvalidParameterError("fit window has fewer than 2 positive samples")
    slope = np.polyfit(t, np.log(v), 1)[0]
    return float(-slope)
