"""Measurement tools: theoretical rates, cloud distances and finite-size
scans.

These read simulation output; they never influence the dynamics, and they
write no files: ``experiment`` writes every run file.
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import rng as rng_mod
from .errors import InvalidParameterError
from .sde import InitSpec, run_sde_ensemble

log = logging.getLogger(__name__)


def theoretical_rate(hp, grad_lipschitz, dim, tau_slack=0.5):
    """Guaranteed decay exponent (1 - tau_slack) * contraction margin.

    ``tau_slack`` is the slack fraction reserved by the decay estimate, not
    the number of local steps.  If the contraction condition fails the rate
    is nonpositive; a warning is logged and the signed value returned.
    """
    if not 0.0 <= tau_slack < 1.0:
        raise InvalidParameterError(f"tau_slack must be in [0, 1), got {tau_slack}")
    margin = hp.contraction_margin(grad_lipschitz, dim)
    if margin <= 0:
        log.warning("contraction condition violated (margin %.4g); "
                    "no decay guarantee applies", margin)
    return (1.0 - tau_slack) * margin


def sliced_w1(cloud_a, cloud_b, n_projections=64, rng=None, projections=None):
    """Sliced 1-Wasserstein distance between two point clouds.

    Both clouds are projected onto shared random unit directions; each 1-D
    distance is exact optimal transport and the mean over directions is
    returned.  Pass ``projections`` to reuse directions across calls, which
    keeps per-direction triangle inequalities intact.

    The 1-D distance is the integral over t in (0, 1] of |Q_a(t) - Q_b(t)|,
    Q the empirical quantile functions.  For sizes n and m both are step
    functions on the grid {i/n} u {j/m}; the grid depends only on (n, m), so
    every direction shares one gather and one product with the cell widths.
    """
    a = np.atleast_2d(np.asarray(cloud_a, dtype=float))
    b = np.atleast_2d(np.asarray(cloud_b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise InvalidParameterError(
            f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise InvalidParameterError("empty cloud")
    dim = a.shape[1]
    if projections is None:
        if dim == 1:
            projections = np.ones((1, 1))
        else:
            if rng is None:
                rng = rng_mod.stream(0, rng_mod.PROJECTION)
            projections = make_projections(dim, n_projections, rng)
    return _sorted_w1(_sorted_projections(a, projections),
                      _sorted_projections(b, projections),
                      _quantile_grid(a.shape[0], b.shape[0]))


def _sorted_projections(cloud, projections):
    """Every direction's sorted projection of an (n, d) cloud, one row each."""
    return np.sort(projections @ cloud.T, axis=1)


def _quantile_grid(n, m):
    """The shared step grid of two empirical quantile functions of sizes n
    and m: each cell's sorted index into either cloud, and its width."""
    # Grid points in integer units of 1/(n*m); the cell (g[k], g[k+1]] reads
    # sorted value ceil(g[k+1]/m) - 1 of a and ceil(g[k+1]/n) - 1 of b.
    grid = np.union1d(np.arange(n + 1) * m, np.arange(m + 1) * n)
    upper = grid[1:]
    return (upper + m - 1) // m - 1, (upper + n - 1) // n - 1, np.diff(grid) / (n * m)


def _sorted_w1(qa, qb, grid):
    """Mean over directions of the 1-D W1 between sorted projections ``qa``
    (n per row) and ``qb`` (m per row), on their (n, m) quantile grid."""
    ia, ib, widths = grid
    return float(np.mean(np.abs(qa[:, ia] - qb[:, ib]) @ widths))


def make_projections(dim, n_projections, rng):
    """``n_projections`` random unit directions in ``dim`` dimensions."""
    raw = rng.standard_normal((n_projections, dim))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


@dataclass
class MeanFieldScan:
    """Finite-size discrepancy against the largest-population reference."""

    sizes: list                  # per-cluster populations, ascending
    reference_size: int
    mean_discrepancy: np.ndarray  # aligned with sizes
    per_seed: np.ndarray          # (n_seeds, n_sizes)

    def stderr(self):
        n = self.per_seed.shape[0]
        return self.per_seed.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else \
            np.zeros(len(self.sizes))

    def monotone_violations(self):
        d = self.mean_discrepancy
        return int(np.sum(np.diff(d) > 0))


def meanfield_scan(problem, hp, n_list, seeds, t_steps, init=None,
                   n_projections=64, n_checkpoints=20):
    """Compare finite-population runs against the largest population.

    For each seed, every population size in ``n_list`` is integrated on a
    common time grid; the discrepancy of a run is the maximum over
    checkpoints of the cluster-averaged sliced-W1 distance to the reference
    run (largest size, same seed).  All seeds of one size run as one
    ``run_sde_ensemble``.  Projection directions are drawn once and reused
    for every comparison; each (seed, checkpoint, cluster) cloud of every
    size is projected and sorted once, and each pair of sizes' quantile
    grid is built once, so every distance equals ``sliced_w1`` of the two
    clouds bit for bit.
    """
    n_list = sorted(set(int(n) for n in n_list))
    if len(n_list) < 1:
        raise InvalidParameterError("n_list must be nonempty")
    if t_steps < 1:
        raise InvalidParameterError("t_steps must be >= 1")
    init = init or InitSpec()
    reference_size = n_list[-1]
    checkpoints = sorted(set(
        int(round(s)) for s in np.linspace(1, t_steps, min(n_checkpoints, t_steps))
    ))
    projections = make_projections(
        problem.dim, n_projections,
        rng_mod.stream(0, rng_mod.PROJECTION),
    )

    runs = {
        n: run_sde_ensemble(problem, n, hp, t_steps, [_run_seed(seed, n) for seed in seeds],
                            init=init, record_every=t_steps, checkpoint_steps=checkpoints)
        for n in n_list
    }
    grids = {}
    # The reference population against itself stays at distance 0.
    per_seed = np.zeros((len(seeds), len(n_list)))
    for si in range(len(seeds)):
        for step in checkpoints:
            vals = [[] for _ in n_list[:-1]]
            for k in range(problem.n_clusters):
                ref = _cluster_cloud(runs[reference_size][si], step, k)
                qb = _sorted_projections(ref, projections)
                for ni, n in enumerate(n_list[:-1]):
                    cloud = _cluster_cloud(runs[n][si], step, k)
                    key = (cloud.shape[0], ref.shape[0])
                    if key not in grids:
                        grids[key] = _quantile_grid(*key)
                    vals[ni].append(_sorted_w1(_sorted_projections(cloud, projections),
                                               qb, grids[key]))
            for ni, cluster_vals in enumerate(vals):
                per_seed[si, ni] = max(per_seed[si, ni], float(np.mean(cluster_vals)))

    return MeanFieldScan(
        sizes=n_list,
        reference_size=reference_size,
        mean_discrepancy=per_seed.mean(axis=0),
        per_seed=per_seed,
    )


def _run_seed(seed, n):
    """The run seed of population size ``n`` under scan seed ``seed``."""
    # The first 64 bits of SeedSequence((seed, n)).generate_state, halved.
    return int(rng_mod.keys(seed, n)[0, 0]) >> 1


def _cluster_cloud(result, step, k):
    return result.checkpoints[step][result.final_labels == k]
