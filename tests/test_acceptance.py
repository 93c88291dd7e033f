"""Acceptance suite: eight end-to-end checks with pinned configurations,
tolerances, and runtime budgets.  Each test prints one [PASS]/[FAIL] line.

The checks cover, in order: consensus-point invariants, exponential variance
decay at the guaranteed rate, consensus convergence to the cluster
minimizers (quadratic and a non-convex variant), the finite-population
discrepancy scan, selection-ratio behavior of the round protocol, the
protocol-accuracy ordering against baselines at equal compute, the
agreement between one protocol round and one continuous-dynamics step, and
byte-level determinism of experiment outputs.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from fedcbo import rng as rng_mod
from fedcbo.cli import main as cli_main
from fedcbo.config import resolve_config
from fedcbo.consensus import consensus_point
from fedcbo.diagnostics import meanfield_scan, theoretical_rate
from fedcbo.experiment import compare_protocols, run_protocol
from fedcbo.learners import ObjectiveTasks
from fedcbo.objectives import (BenchmarkProblem, make_quadratic,
                               make_well_problem)
from fedcbo.protocol import fedcbo_round
from fedcbo.sde import (HyperParams, InitSpec, ParticleCloud,
                        decay_exponent_fit, em_step, run_sde_ensemble)

DECAY_SEEDS = tuple(range(10))

# Two quadratic wells at +-2*ones(2) with parameters inside the contraction
# regime: margin 2*4 - 2*0.1*2 - 2*0.04 - 2*0.01*4 = 7.44.
WELLS_HP = HyperParams(consensus_drift=4.0, grad_drift=0.1,
                       consensus_noise=0.2, grad_noise=0.1, alpha=100.0,
                       step_size=0.005)


@pytest.fixture
def report(capsys):
    """Print one [PASS]/[FAIL] line per criterion on the real terminal,
    bypassing output capture so the line shows up in plain `pytest -v` runs."""

    def _report(number, ok, detail):
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"\n[{status}] criterion {number}: {detail}")
        return ok

    return _report


def _budget(number, started, limit_s):
    elapsed = time.monotonic() - started
    assert elapsed < limit_s, (
        f"criterion {number} took {elapsed:.1f}s, budget {limit_s}s"
    )


def test_criterion_1_consensus_invariants(report):
    started = time.monotonic()

    # Hand oracle: positions (-1, 0, 2), losses (1, 0, 4), alpha 1.
    oracle = (-math.exp(-1) + 2 * math.exp(-4)) / (math.exp(-1) + 1 + math.exp(-4))
    point = consensus_point(np.array([[-1.0], [0.0], [2.0]]),
                            np.array([1.0, 0.0, 4.0]), 1.0)
    oracle_ok = abs(point.value[0] - oracle) < 1e-9

    gen = np.random.default_rng(0)
    pts = gen.standard_normal((40, 3))
    losses = gen.uniform(0.0, 5.0, size=40)

    shift = np.array([2.0, -1.0, 0.5])
    translation_ok = np.allclose(
        consensus_point(pts + shift, losses, 10.0).value,
        consensus_point(pts, losses, 10.0).value + shift, atol=1e-9,
    )
    loss_shift_ok = np.allclose(
        consensus_point(pts, losses + 777.0, 10.0).value,
        consensus_point(pts, losses, 10.0).value, rtol=0.0, atol=1e-12,
    )
    box_ok = all(
        np.all(consensus_point(pts, losses, a).value >= pts.min(axis=0))
        and np.all(consensus_point(pts, losses, a).value <= pts.max(axis=0))
        for a in (0.0, 1.0, 10.0, 1000.0)
    )
    best = pts[np.argmin(losses)]
    dists = [np.linalg.norm(consensus_point(pts, losses, a).value - best)
             for a in (1.0, 10.0, 100.0, 1000.0)]
    laplace_ok = all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))

    ok = oracle_ok and translation_ok and loss_shift_ok and box_ok and laplace_ok
    _budget(1, started, 5.0)
    assert report(
        1, ok,
        f"consensus invariants (oracle {point.value[0]:+.6f} vs {oracle:+.6f}, "
        f"laplace distances {['%.3g' % d for d in dists]})",
    )


def _decay_runs(problem, hp, t_steps, init_std, seeds, record_every):
    return run_sde_ensemble(problem, 200, hp, t_steps, seeds,
                            init=InitSpec(std=init_std), record_every=record_every)


def test_criterion_2_variance_decay_rate(report):
    started = time.monotonic()
    wells = make_well_problem("quadratic", 2, offset=2.0)
    bound = theoretical_rate(WELLS_HP, 2.0, 2, tau_slack=0.5)  # 3.72

    rate_hits = monotone_hits = 0
    fitted = []
    for result in _decay_runs(wells, WELLS_HP, 400, 3.0, DECAY_SEEDS,
                              record_every=10):
        vsum = result.variance_sums
        below = np.flatnonzero(vsum <= 1e-3 * vsum[0])
        stop = int(below[0]) + 1 if below.size else len(vsum)
        rate = decay_exponent_fit(vsum[:stop], result.times[:stop])
        fitted.append(rate)
        if rate >= bound:
            rate_hits += 1
        if np.all(np.diff(vsum) <= 0.0):
            monotone_hits += 1

    ok = rate_hits >= 8 and monotone_hits >= 9
    _budget(2, started, 120.0)
    assert report(
        2, ok,
        f"decay rate >= {bound:.2f} in {rate_hits}/10 seeds "
        f"(median fit {np.median(fitted):.2f}), V-sum nonincreasing in "
        f"{monotone_hits}/10 seeds",
    )


def test_criterion_3_consensus_reaches_minimizers(report):
    started = time.monotonic()

    wells = make_well_problem("quadratic", 2, offset=2.0)
    quad_hits = 0
    for result in _decay_runs(wells, WELLS_HP, 1000, 3.0, DECAY_SEEDS,
                              record_every=1000):
        if np.all(result.consensus_errors[-1] <= 0.1):
            quad_hits += 1

    # Non-convex variant: heavy consensus noise for exploration, no gradient
    # drift (local gradients point into the wrong basins), wider start.
    rugged = make_well_problem("rastrigin", 2, offset=2.0)
    rugged_hp = HyperParams(consensus_drift=4.0, grad_drift=0.0,
                            consensus_noise=1.0, grad_noise=0.0, alpha=100.0,
                            step_size=0.005)
    rugged_hits = 0
    for result in _decay_runs(rugged, rugged_hp, 3000, 4.0, DECAY_SEEDS,
                              record_every=3000):
        if np.all(result.consensus_errors[-1] <= 0.25):
            rugged_hits += 1

    ok = quad_hits >= 9 and rugged_hits >= 7
    _budget(3, started, 300.0)
    assert report(
        3, ok,
        f"consensus within 0.1 of quadratic minimizers in {quad_hits}/10 "
        f"seeds, within 0.25 of rugged minimizers in {rugged_hits}/10 seeds",
    )


def test_criterion_4_population_size_scan(report):
    started = time.monotonic()
    wells = make_well_problem("quadratic", 2, offset=2.0)
    scan = meanfield_scan(wells, WELLS_HP, [50, 100, 200, 400, 800],
                          list(range(10)), 300, init=InitSpec(std=3.0),
                          n_projections=64, n_checkpoints=20)
    # Entry for the reference population (800) is identically zero; the
    # criterion concerns the four finite comparisons.
    disc = scan.mean_discrepancy[:4]
    inversions = int(np.sum(np.diff(disc) > 0))
    ratio = disc[-1] / disc[0]

    ok = inversions <= 1 and ratio <= 0.6
    _budget(4, started, 600.0)
    assert report(
        4, ok,
        f"discrepancy {['%.3f' % d for d in disc]} over populations "
        f"{scan.sizes[:4]}: {inversions} inversion(s), ratio "
        f"{ratio:.3f} <= 0.6",
    )


def test_criterion_5_selection_ratio_tracks_oracle(report):
    started = time.monotonic()
    config = resolve_config({"schedule": {"rounds": 31}, "seeds": [0]})
    records, _ = run_protocol(config, seed=0)

    window = [r for r in records if 20 <= r["round"] <= 30]
    mean_sr = float(np.mean([r["sr"] for r in window]))
    mean_oracle = float(np.mean([r["oracle_sr"] for r in window]))
    gap = abs(mean_sr - mean_oracle)

    sr_at_20 = next(r["sr"] for r in records if r["round"] == 20)
    n_agents = config.problem["n_agents"]
    cluster = n_agents // config.problem["n_clusters"]
    uniform_baseline = (cluster - 1) / (n_agents - 1)

    ok = gap <= 0.10 and sr_at_20 > uniform_baseline + 0.2
    _budget(5, started, 600.0)
    assert report(
        5, ok,
        f"rounds 20-30 mean SR {mean_sr:.3f} vs oracle {mean_oracle:.3f} "
        f"(gap {gap:.3f} <= 0.10); SR(20) {sr_at_20:.3f} > uniform "
        f"{uniform_baseline:.3f} + 0.2",
    )


def test_criterion_6_protocol_ordering(report, tmp_path):
    started = time.monotonic()
    config = resolve_config({"seeds": [0, 1, 2, 3, 4]})
    result = compare_protocols(config, out_dir=tmp_path)
    acc = {p: result["table"][p]["acc_macro_mean"] for p in result["table"]}

    within = acc["fedcbo"] >= acc["ifca"] - 0.01
    clustered = min(acc["fedcbo"], acc["ifca"])
    unclustered = max(acc["fedavg"], acc["local"])
    separated = clustered >= unclustered + 0.03

    ok = within and separated
    _budget(6, started, 900.0)
    assert report(
        6, ok,
        "macro accuracy "
        + ", ".join(f"{p} {acc[p]:.3f}" for p in ("fedcbo", "ifca", "fedavg",
                                                  "local"))
        + f"; fedcbo >= ifca - 0.01: {within}; clustered lead "
        f"{clustered - unclustered:+.3f} >= 0.03: {separated}",
    )


def _one_round_vs_one_step(step_size):
    problem = BenchmarkProblem(
        objectives=(make_quadratic(3, np.array([1.0, -0.5, 2.0])),)
    )
    n_agents = 12
    models = 1.5 * rng_mod.stream(7, rng_mod.INIT).standard_normal((n_agents, 3))
    hp = HyperParams(consensus_drift=1.0, grad_drift=1.0, alpha=5.0,
                     step_size=step_size, local_steps=1,
                     download_budget=n_agents - 1)

    tasks = ObjectiveTasks([problem.objectives[0]] * n_agents)
    scores = np.zeros((n_agents, n_agents))
    new_models, _, _ = fedcbo_round(models.copy(), tasks, scores, hp, 0,
                                    rng_mod.agent_streams(99, n_agents))

    cloud = ParticleCloud(positions=models.copy(),
                          labels=np.zeros(n_agents, dtype=int),
                          streams=rng_mod.agent_streams(98, n_agents))
    stepped = em_step(cloud, problem, hp)
    per_agent = np.linalg.norm(new_models - stepped.positions, axis=1)
    return float(per_agent.max())


def test_criterion_7_round_matches_dynamics_step(report):
    # With one local step, a full download set, and no noise, a protocol
    # round is a splitting of the same update as one Euler step; their gap
    # must shrink quadratically in the step size.
    started = time.monotonic()
    sizes = [0.1, 0.05, 0.025]
    gaps = [_one_round_vs_one_step(g) for g in sizes]
    orders = [math.log2(gaps[i] / gaps[i + 1]) for i in range(2)]
    quadratic_constant = max(g / s**2 for g, s in zip(gaps, sizes))

    ok = all(o >= 1.8 for o in orders) and quadratic_constant <= 20.0
    _budget(7, started, 60.0)
    assert report(
        7, ok,
        f"round-vs-step gap {['%.2e' % g for g in gaps]} at steps {sizes}; "
        f"orders {['%.2f' % o for o in orders]} >= 1.8; gap/step^2 <= "
        f"{quadratic_constant:.2f}",
    )


def test_criterion_8_byte_level_determinism(report, tmp_path):
    started = time.monotonic()
    raw = {
        "problem": {"kind": "benchmark", "dim": 2, "n_per_cluster": 5,
                    "init_std": 2.0},
        "hyperparams": {"consensus_drift": 1.0, "grad_drift": 1.0,
                        "consensus_noise": 0.1, "alpha": 10.0,
                        "step_size": 0.05, "local_steps": 2,
                        "download_budget": 3, "momentum": 0.0},
        "schedule": {"rounds": 5},
        "seeds": [0, 1],
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))

    def run_and_hash(out_name, threads):
        out = tmp_path / out_name
        code = cli_main(["run", "--config", str(config_path),
                         "--out", str(out), "--threads", str(threads)])
        assert code == 0
        names = ["metrics_seed0.jsonl", "metrics_seed1.jsonl", "summary.csv"]
        return {n: hashlib.sha256((out / n).read_bytes()).hexdigest()
                for n in names}

    first = run_and_hash("a", threads=1)
    second = run_and_hash("b", threads=1)
    third = run_and_hash("c", threads=4)

    ok = first == second == third
    _budget(8, started, 120.0)
    assert report(
        8, ok,
        f"metric files hash-identical across reruns and thread counts "
        f"({len(first)} files, e.g. {list(first.values())[0][:12]})",
    )
