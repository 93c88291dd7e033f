"""Run harness: builds problems from configs, executes protocols seed by
seed, and writes metric files plus a manifest.

This is the one module that builds, writes and reads run files; ``sde``
and ``diagnostics`` only compute.

File layout of a completed run directory:

    metrics_seed<S>.jsonl   one record per round (or per recorded SDE step)
    summary.csv             final-round metrics, mean and std across seeds
    manifest.json           resolved config, hashes, timing, per-seed round
                            counters; written last

Every command writes through one ``_RunDir``.  It deletes any earlier
manifest before the first write, removes the files it wrote if the command
fails, and writes the manifest only after every listed file is complete,
renaming it into place in one step.  So a directory without a manifest is
detectably incomplete, and neither a stopped rerun nor a torn write looks
complete.  Metric files contain no timing information and are
byte-identical across repeated runs of the same config and seed.
"""

import csv
import dataclasses
import json
import logging
import os
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import rng as rng_mod
from .baselines import fedavg_round, ifca_round, local_only_round
from .diagnostics import meanfield_scan, theoretical_rate
from .errors import ConfigError, DivergenceError
from .learners import (ObjectiveTasks, ShardTasks, WorkerPool, accuracy, agent_blocks,
                       generate_clustered_data, make_model)
from .objectives import make_centers_problem, make_well_problem
from .protocol import fedcbo_round, oracle_sr, selection_ratio
from .sde import cluster_variances, decay_exponent_fit, run_sde

log = logging.getLogger(__name__)


@dataclass
class ProblemSetup:
    """Everything a protocol loop needs, plus hidden labels for scoring."""

    tasks: object                  # learners.ShardTasks or ObjectiveTasks
    initial_models: np.ndarray
    agent_cluster: np.ndarray
    n_clusters: int
    model_arch: object = None      # learner problems only
    dataset: object = None         # learner problems only
    benchmark: object = None       # benchmark problems only

    @property
    def n_agents(self):
        return len(self.tasks)


def build_benchmark(problem_cfg):
    if problem_cfg["centers"] is not None:
        return make_centers_problem(problem_cfg["objective"], problem_cfg["dim"],
                                    [np.asarray(c, dtype=float) for c in problem_cfg["centers"]],
                                    scale=problem_cfg["scale"])
    return make_well_problem(problem_cfg["objective"], problem_cfg["dim"],
                             offset=problem_cfg["offset"], scale=problem_cfg["scale"])


def build_setup(config, seed, pool=None):
    """Instantiate tasks and initial models for one seed.  A learner
    problem's tasks run their agent blocks on ``pool`` (learners.WorkerPool)."""
    problem = config.problem
    hp = config.hp()
    if problem["kind"] == "benchmark":
        bench = build_benchmark(problem)
        n_agents = problem["n_per_cluster"] * bench.n_clusters
        labels = np.arange(n_agents) % bench.n_clusters
        tasks = ObjectiveTasks([bench.objectives[k] for k in labels],
                               momentum=hp.momentum)
        setup = ProblemSetup(tasks=tasks, initial_models=None, agent_cluster=labels,
                             n_clusters=bench.n_clusters, benchmark=bench)
    else:
        data_seed = problem["data_seed"] if problem["data_seed"] is not None else seed
        dataset = generate_clustered_data(
            problem["n_clusters"], problem["n_agents"], problem["n_per_agent"],
            problem["input_dim"], problem["n_classes"], data_seed,
            radius=problem["radius"], blob_std=problem["blob_std"],
            noise_std=problem["noise_std"], n_test=problem["n_test"],
        )
        arch = make_model(problem["model"], problem["input_dim"], problem["n_classes"],
                          hidden=problem["hidden"], activation=problem["activation"])
        tasks = ShardTasks(arch, dataset.x, dataset.y, batch_size=hp.batch_size,
                           momentum=hp.momentum, pool=pool)
        setup = ProblemSetup(tasks=tasks, initial_models=None,
                             agent_cluster=dataset.agent_cluster,
                             n_clusters=dataset.n_clusters,
                             model_arch=arch, dataset=dataset)
    setup.initial_models = _initial_models(config, setup, seed, rng_mod.INIT,
                                           setup.n_agents)
    return setup


def _initial_models(config, setup, seed, domain, n):
    """``n`` initial models (rows), model m drawn from stream (seed, domain, m):
    the agents' models under INIT, the baselines' server models under SERVER."""
    problem = config.problem
    gens = rng_mod.streams(seed, domain, n)
    if setup.benchmark is not None:
        return np.stack([problem["init_mean"] + problem["init_std"]
                         * gen.standard_normal(setup.benchmark.dim) for gen in gens])
    return np.stack([setup.model_arch.init_params(gen, scale=problem["init_scale"])
                     for gen in gens])


def _per_agent_accuracy(setup, models):
    """Mean test accuracy of cluster-k agents' own models on cluster-k data.
    The (cluster, agent block) items run on the tasks' pool."""
    arch, test_sets = setup.model_arch, setup.dataset.test_sets
    members = [np.flatnonzero(setup.agent_cluster == k) for k in range(setup.n_clusters)]
    items = [(k, ids[block]) for k, ids in enumerate(members)
             for block in agent_blocks(len(ids), len(test_sets[k][0]) * arch.width)]

    def score(item):
        k, ids = item
        return accuracy(arch, models[ids], *test_sets[k])

    accs = setup.tasks.pool.map(score, items)
    per_cluster = [[] for _ in members]
    for (k, _), acc in zip(items, accs):
        per_cluster[k].append(acc)
    return [float(np.mean(np.concatenate(parts))) for parts in per_cluster]


def _best_loss_accuracy(setup, candidates):
    """For each cluster distribution, accuracy of the candidate model with
    the smallest test loss (the evaluation rule for global-model baselines)."""
    stack = np.stack(candidates)
    per_cluster = []
    for k in range(setup.n_clusters):
        x, y = setup.dataset.test_sets[k]
        best = int(np.argmin(setup.model_arch.loss(stack, x, y)))
        per_cluster.append(accuracy(setup.model_arch, stack[best], x, y))
    return per_cluster


def _mean_own_loss(setup, models):
    """Mean over agents of the loss of models[j] (a row) on agent j's data."""
    losses = setup.tasks.losses(np.arange(setup.n_agents), models[:, None])
    return float(np.mean(losses[:, 0]))


# Per-protocol round generators.  Each runs the configured number of rounds
# and yields, per round, (record, per-agent models, candidates); candidates
# is None when every agent is scored on its own model, else the list of
# global models the best-loss rule picks from.  A round that reports no
# loss of its own leaves mean_local_loss unset for ``_score``.  Only fedcbo
# adds counters.

def _fedcbo_rounds(config, setup, seed, hp, streams, counters):
    models = setup.initial_models.copy()
    scores = np.zeros((setup.n_agents, setup.n_agents))
    round_rng = rng_mod.stream(seed, rng_mod.ROUND)
    cluster_size = setup.n_agents / setup.n_clusters
    for n in range(config.schedule["rounds"]):
        models, scores, entry = fedcbo_round(
            models, setup.tasks, scores, hp, n, streams,
            participation=config.schedule["participation"], round_rng=round_rng,
        )
        if entry.budget_clamps and not counters["budget_clamps"]:
            log.warning("download budget %d exceeds %d available peers; clamping "
                        "(reported once per run)", hp.download_budget,
                        len(entry.participants) - 1)
        counters.update(entry.counters())
        record = _base_record(n, len(entry.participants))
        record["eps"] = float(entry.eps)
        sr = selection_ratio(entry.selections, setup.agent_cluster)
        record["sr"] = None if np.isnan(sr) else sr   # NaN when no agent downloaded
        record["oracle_sr"] = oracle_sr(hp, n, cluster_size, setup.n_agents)
        record["mean_local_loss"] = entry.mean_local_loss
        yield record, models, None


def _local_rounds(config, setup, seed, hp, streams, counters):
    models = setup.initial_models.copy()
    for n in range(config.schedule["rounds"]):
        models = local_only_round(models, setup.tasks, hp, streams)
        yield _base_record(n, setup.n_agents), models, None


def _fedavg_rounds(config, setup, seed, hp, streams, counters):
    global_model = _initial_models(config, setup, seed, rng_mod.SERVER, 1)[0]
    for n in range(config.schedule["rounds"]):
        global_model = fedavg_round(global_model, setup.tasks, hp, streams)
        tiled = np.tile(global_model, (setup.n_agents, 1))
        yield _base_record(n, setup.n_agents), tiled, [global_model]


def _ifca_rounds(config, setup, seed, hp, streams, counters):
    server = _initial_models(config, setup, seed, rng_mod.SERVER, setup.n_clusters)
    for n in range(config.schedule["rounds"]):
        result = ifca_round(server, setup.tasks, hp, streams)
        server = result.models
        record = _base_record(n, setup.n_agents)
        record["mean_local_loss"] = result.mean_loss
        record["assignment_purity"] = _assignment_purity(result.assignments,
                                                        setup.agent_cluster)
        assigned = np.stack([server[m] for m in result.assignments])
        yield record, assigned, list(server)


_ROUNDS = {"fedcbo": _fedcbo_rounds, "local": _local_rounds,
           "fedavg": _fedavg_rounds, "ifca": _ifca_rounds}


def _score(setup, record, models, candidates):
    """Fill in a round's scores: its mean own loss if the round reported
    none, then test accuracy (learner problems) or cluster variances
    (benchmark problems).  A loss or variance that is not finite is a
    divergence naming the round."""
    if record["mean_local_loss"] is None:
        record["mean_local_loss"] = _mean_own_loss(setup, models)
    if setup.dataset is not None:
        per_cluster = (_per_agent_accuracy(setup, models) if candidates is None
                       else _best_loss_accuracy(setup, candidates))
        record["acc_per_cluster"] = [float(a) for a in per_cluster]
        record["acc_macro"] = float(np.mean(per_cluster))
    if setup.benchmark is not None:
        v = cluster_variances(models, setup.agent_cluster, setup.benchmark.minimizers)
        record["v_per_cluster"] = [float(x) for x in v]
        record["v_sum"] = float(np.nansum(v))
    for key in ("mean_local_loss", "v_per_cluster"):
        if record[key] is not None and not np.isfinite(record[key]).all():
            n = record["round"]
            raise DivergenceError(f"round {n}: non-finite values in {key}", step=n)


_FEDCBO_AGENTS = "protocol: fedcbo needs at least 2 agents, the problem has {}"


def run_protocol(config, seed, pool=None, final_only=False):
    """Run one protocol for one seed; returns (records, counters).

    Every round is scored, or with ``final_only`` only the last one; the
    other records then carry no scores.  ``pool`` runs the agent blocks of
    learner problems.  ``counters`` totals the fedcbo round counters (see
    protocol.RoundLog; empty for the baselines).  They belong in the
    manifest, never in the metric files.  A clamped download budget is
    logged once per run.
    """
    setup = build_setup(config, seed, pool)
    if config.protocol == "fedcbo" and setup.n_agents < 2:
        # No config rule: sde configs share the field and may run one particle.
        raise ConfigError([_FEDCBO_AGENTS.format(setup.n_agents)])
    streams = rng_mod.agent_streams(seed, setup.n_agents)
    counters = Counter()
    records = []
    final = config.schedule["rounds"] - 1
    rounds = _ROUNDS[config.protocol](config, setup, seed, config.hp(), streams, counters)
    for record, models, candidates in rounds:
        if not final_only or record["round"] == final:
            _score(setup, record, models, candidates)
        records.append(record)
    return records, dict(counters)


def _assignment_purity(assignments, agent_cluster):
    """Fraction of agents whose chosen model is their cluster's majority pick."""
    purity = []
    for k in np.unique(agent_cluster):
        members = assignments[agent_cluster == k]
        counts = np.bincount(members)
        purity.append(counts.max() / len(members))
    return float(np.mean(purity))


def _base_record(round_index, n_participants):
    """A protocol round's record, metrics unset.  ``_write_jsonl`` keeps the
    key order, so the keys are declared sorted, as round files have them."""
    return {
        "acc_macro": None,
        "acc_per_cluster": None,
        "assignment_purity": None,
        "eps": None,
        "mean_local_loss": None,
        "oracle_sr": None,
        "participants": int(n_participants),
        "round": int(round_index),
        "sr": None,
        "v_per_cluster": None,
        "v_sum": None,
    }


def _trajectory_records(result):
    """One record per recorded step of an ``sde.SdeResult``."""
    for step, t, v, err in zip(result.steps, result.times, result.variances,
                               result.consensus_errors):
        yield {"step": int(step), "time": float(t), "v_per_cluster": v.tolist(),
               "v_sum": float(v.sum()), "consensus_err": err.tolist()}


def _write_jsonl(path, records):
    """One JSON line per record, keys in the order the record was built."""
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def write_csv(path, header, rows):
    """Deterministic CSV: one header row, then ``rows``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _metrics(record, skip):
    """A record's (name, value) metrics, leaving out the keys in ``skip``
    and unset (None) values.  A list gives one metric per cluster,
    ``<key>_c<k>``, with any ``_per_cluster`` suffix dropped."""
    for key, value in record.items():
        if key in skip:
            continue
        if isinstance(value, list):
            name = key.replace("_per_cluster", "")
            for k, v in enumerate(value):
                yield f"{name}_c{k}", v
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield key, value


def _summary_rows(per_seed_finals):
    """Mean/std across seeds for every scalar metric in the final records."""
    rows = {}
    for record in per_seed_finals:
        if record is None:
            continue
        for name, value in _metrics(record, ("round", "participants")):
            rows.setdefault(name, []).append(float(value))
    out = []
    for key in sorted(rows):
        vals = np.array(rows[key])
        std = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        out.append([key, f"{vals.mean():.10g}", f"{std:.10g}"])
    return out


class _RunDir:
    """The lifecycle of one command's output directory.

    Entering makes the directory and deletes any manifest an earlier run
    left there, so a rerun that stops part-way never leaves a directory
    whose old manifest vouches for a mix of old and new files.  ``path``
    registers every file the command writes.  Leaving normally writes the
    manifest; leaving on an exception removes every registered file and
    writes none.  ``manifest`` holds the keys every command shares; a
    command adds its own before it leaves.
    """

    def __init__(self, config, kind, out_dir=None):
        self.out_dir = Path(out_dir or config.output["dir"])
        self.created = []
        self.manifest = {
            "kind": kind,
            "config": config.resolved(),
            "config_hash": config.hash(),
            "code_version": __version__,
            "seeds": config.seeds,
            "metrics_files": [],
            "summary_file": None,
        }

    def __enter__(self):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        (self.out_dir / "manifest.json").unlink(missing_ok=True)
        self.manifest["started_at"] = time.time()
        return self

    def path(self, name, role=None):
        """Register ``name`` and return its path.  ``role`` "metrics" lists it
        in ``metrics_files``, "summary" makes it the ``summary_file``."""
        if role == "metrics":
            self.manifest["metrics_files"].append(name)
        elif role == "summary":
            self.manifest["summary_file"] = name
        p = self.out_dir / name
        self.created.append(p)
        return p

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            for p in self.created:
                try:
                    p.unlink(missing_ok=True)
                except OSError:
                    pass
            return False
        self.manifest["finished_at"] = time.time()
        _finalize(self.out_dir, self.manifest)
        return False


def _finalize(out_dir, manifest):
    """Write the manifest atomically: a temporary file in the same
    directory, then one rename, so a reader never sees a partial manifest."""
    manifest_path = out_dir / "manifest.json"
    tmp_path = out_dir / "manifest.json.tmp"
    try:
        with open(tmp_path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        os.replace(tmp_path, manifest_path)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise


def _read_manifest(run_dir):
    """The manifest of a complete run directory, else None.  A directory is
    complete iff its manifest exists and every file the manifest lists is
    present."""
    run_dir = Path(run_dir)
    try:
        with open(run_dir / "manifest.json") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    names = list(manifest.get("metrics_files", []))
    if manifest.get("summary_file"):
        names.append(manifest["summary_file"])
    return manifest if all((run_dir / name).exists() for name in names) else None


def is_complete(run_dir):
    """Whether ``run_dir`` holds a manifest and every file it lists."""
    return _read_manifest(run_dir) is not None


def run_experiment(config, out_dir=None, threads=1):
    """Execute the configured protocol for every seed and persist results.

    Agent blocks run on up to ``threads`` threads, with identical results.
    Returns the manifest dict.  On failure all partial outputs are removed
    and the exception propagates.
    """
    with _RunDir(config, "run", out_dir) as run_dir, WorkerPool(threads) as pool:
        wall_times, counters, finals = {}, {}, []
        for seed in config.seeds:
            t0 = time.perf_counter()
            records, counters[str(seed)] = run_protocol(config, seed, pool)
            wall_times[str(seed)] = round(time.perf_counter() - t0, 3)
            _write_jsonl(run_dir.path(f"metrics_seed{seed}.jsonl", "metrics"), records)
            finals.append(records[-1] if records else None)
        write_csv(run_dir.path("summary.csv", "summary"), ["metric", "mean", "std"],
                  _summary_rows(finals))
        run_dir.manifest.update(protocol=config.protocol, wall_time_s=wall_times,
                                counters=counters, threads=pool.size)
    return run_dir.manifest


def compare_protocols(config, out_dir=None, threads=1):
    """Run every protocol on identical problems, seeds, and budgets.

    Every protocol reuses the same config (hence the same per-seed dataset,
    round count, and local-step budget), which is what makes the comparison
    equal-compute.  Only each run's final round is scored.  Each protocol
    and seed run is one job, and the jobs run on up to ``threads`` threads,
    protocol by protocol, so the long fedcbo jobs start first.  A job builds
    its own problem and runs its agent blocks on its own thread, so its
    results do not depend on the thread count.  If jobs fail, the first
    failed job's exception is raised, as in a serial loop.  Writes
    comparison.csv and a manifest with each job's wall time; returns a dict
    with the accuracy table and ordering flags.
    """
    protocols = ["fedcbo", "ifca", "fedavg", "local"]
    problems = []
    if config.problem["kind"] != "learner":
        problems.append("problem.kind: protocol comparison needs a learner problem")
    elif config.problem["n_agents"] < 2:
        problems.append(_FEDCBO_AGENTS.format(config.problem["n_agents"]))
    if config.schedule["rounds"] < 1:
        problems.append("schedule.rounds: comparison needs rounds >= 1")
    if problems:
        raise ConfigError(problems)

    jobs = [(protocol, seed) for protocol in protocols for seed in config.seeds]

    def run_job(job):
        protocol, seed = job
        t0 = time.perf_counter()
        # No pool: the job's agent blocks run unsplit on its own thread, and
        # its problem and models are its own, freed when it ends.
        records, _ = run_protocol(dataclasses.replace(config, protocol=protocol), seed,
                                  final_only=True)
        return records[-1], round(time.perf_counter() - t0, 3)

    with _RunDir(config, "compare", out_dir) as run_dir, WorkerPool(threads) as pool:
        results = dict(zip(jobs, pool.map(run_job, jobs)))
        table, timing = {}, {}
        for protocol in protocols:
            finals = [results[protocol, seed][0] for seed in config.seeds]
            macro = np.array([final["acc_macro"] for final in finals])
            per_cluster = np.array([final["acc_per_cluster"] for final in finals])
            table[protocol] = {
                "acc_macro_mean": float(macro.mean()),
                "acc_macro_std": float(macro.std(ddof=1)) if len(macro) > 1 else 0.0,
                "acc_per_cluster_mean": [float(x) for x in per_cluster.mean(axis=0)],
            }
            timing[protocol] = {str(seed): {"wall_s": results[protocol, seed][1]}
                                for seed in config.seeds}

        acc = {protocol: entry["acc_macro_mean"] for protocol, entry in table.items()}
        flags = {
            "fedcbo_within_1pt_of_ifca": bool(acc["fedcbo"] >= acc["ifca"] - 0.01),
            "clustered_beat_unclustered_by_3pts": bool(
                min(acc["fedcbo"], acc["ifca"]) >= max(acc["fedavg"], acc["local"]) + 0.03),
        }

        n_clusters = config.problem["n_clusters"]
        header = ["protocol", "acc_macro_mean", "acc_macro_std"] + [
            f"acc_c{k}_mean" for k in range(n_clusters)
        ]
        rows = []
        for protocol in protocols:
            entry = table[protocol]
            rows.append([protocol, f"{entry['acc_macro_mean']:.10g}",
                         f"{entry['acc_macro_std']:.10g}"] +
                        [f"{x:.10g}" for x in entry["acc_per_cluster_mean"]])
        write_csv(run_dir.path("comparison.csv", "summary"), header, rows)
        run_dir.manifest.update(protocols=protocols, table=table, flags=flags,
                                timing=timing, threads=pool.size)
    return {"table": table, "flags": flags, "out_dir": str(run_dir.out_dir)}


def run_sde_experiment(config, out_dir=None):
    """Integrate the benchmark particle system for each seed.

    Writes a trajectory JSONL per seed plus sde_summary.csv with the fitted
    decay rate (over the window until V falls to 1e-3 of its start) and the
    guaranteed rate for comparison.  It runs on one thread; the manifest
    records that as ``threads`` and each seed's wall time under ``timing``.
    """
    if config.problem["kind"] != "benchmark":
        raise ConfigError(["problem.kind: the sde command needs a benchmark problem"])
    with _RunDir(config, "sde", out_dir) as run_dir:
        bench = build_benchmark(config.problem)
        hp = config.hp()
        t_steps = config.schedule["t_steps"]
        rate_bound = theoretical_rate(hp, bench.max_grad_lipschitz, bench.dim)
        rows, timing = [], {}
        for seed in config.seeds:
            t0 = time.perf_counter()
            result = run_sde(bench, config.problem["n_per_cluster"], hp, t_steps,
                             init=config.init_spec(), seed=seed,
                             record_every=config.schedule["record_every"])
            timing[str(seed)] = {"wall_s": round(time.perf_counter() - t0, 3)}
            _write_jsonl(run_dir.path(f"trajectory_seed{seed}.jsonl", "metrics"),
                         _trajectory_records(result))
            vsum = result.variance_sums
            below = np.flatnonzero(vsum <= 1e-3 * vsum[0])
            stop = int(below[0]) + 1 if below.size else len(vsum)
            fitted = decay_exponent_fit(vsum[:stop], result.times[:stop]) \
                if stop >= 2 else float("nan")
            rows.append([seed, f"{vsum[0]:.10g}", f"{vsum[-1]:.10g}",
                         f"{fitted:.10g}", f"{rate_bound:.10g}",
                         str(bool(result.theory_regime)).lower()])
        write_csv(run_dir.path("sde_summary.csv", "summary"),
                  ["seed", "v_start", "v_end", "fitted_rate", "rate_bound",
                   "theory_regime"], rows)
        run_dir.manifest.update(timing=timing, threads=1)
    return run_dir.manifest


def scan_meanfield_experiment(config, out_dir=None):
    """Finite-size scan toward the largest population in schedule.n_list."""
    if config.problem["kind"] != "benchmark":
        raise ConfigError(["problem.kind: scan-meanfield needs a benchmark problem"])
    with _RunDir(config, "scan-meanfield", out_dir) as run_dir:
        scan = meanfield_scan(
            build_benchmark(config.problem), config.hp(), config.schedule["n_list"],
            config.seeds, config.schedule["t_steps"], init=config.init_spec(),
            n_projections=config.schedule["n_projections"],
            n_checkpoints=config.schedule["n_checkpoints"],
        )
        stderr = scan.stderr()
        rows = [
            [n, f"{scan.mean_discrepancy[i]:.10g}", f"{stderr[i]:.10g}"]
            for i, n in enumerate(scan.sizes)
        ]
        write_csv(run_dir.path("meanfield.csv", "summary"),
                  ["n_per_cluster", "mean_discrepancy", "stderr"], rows)
        run_dir.manifest.update(reference_size=scan.reference_size,
                                monotone_violations=scan.monotone_violations())
    return run_dir.manifest


def export_plot_data(run_dir, out_path=None):
    """Flatten the JSONL metric files a completed run directory's manifest
    lists into one long-format CSV with columns (seed, index, metric,
    value).  Files the manifest does not list, such as those an earlier run
    left in the directory, are not read."""
    run_dir = Path(run_dir)
    manifest = _read_manifest(run_dir)
    if manifest is None:
        raise ConfigError([f"output.dir: {run_dir} is not a completed run directory"])
    out_path = Path(out_path or (run_dir / "plot_data.csv"))
    rows = []
    for name in manifest["metrics_files"]:
        seed = Path(name).stem.split("seed")[-1]
        with open(run_dir / name) as fh:
            for line in fh:
                record = json.loads(line)
                index = record.get("round", record.get("step", 0))
                rows += [[seed, index, metric, f"{float(value):.10g}"]
                         for metric, value in _metrics(record, ("round", "step"))]
    rows.sort(key=lambda r: (r[0], int(r[1]), r[2]))
    write_csv(out_path, ["seed", "index", "metric", "value"], rows)
    return out_path
