"""The benchmark's workloads: a config generated from the workload seed, the
fedcbo subcommand that runs it, and the checks on the command's outputs.

Each workload makes one module do most of the work, so that an optimisation
of that module shows on one workload and is predicted to change nothing on
another; BENCHMARK.json gives the reason for each.  The seed only picks the
run seeds in the config, which in turn pick the data, the initial models
and every random stream.

The checks compare outputs with references recorded at the commit that
introduced this benchmark, within tolerances rather than by hash, so that a
batched or reordered floating-point path is judged by its stated tolerance.
The protocol references come from workload seeds 0-21 (run) and 0-23
(compare) on a 2-core AMD EPYC, Python 3.11, NumPy 2.4: accuracy ranged
0.652-0.693 and SR 0.276-0.301 on ``fedcbo-a1000``; on ``compare-a40``
fedcbo ranged 0.697-0.726, fedavg 0.235-0.265, local 0.629-0.646, and IFCA
0.571-0.719, because IFCA sometimes settles with fewer live cluster models,
depending on its server initialisation.
"""

import copy
import csv
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Criterion 2-4 wells: two quadratic wells at +-2 in 2-D, Gaussian start.
WELLS_PROBLEM = {"kind": "benchmark", "objective": "quadratic", "dim": 2,
                 "offset": 2.0, "init_std": 3.0}
WELLS_HP = {"consensus_drift": 4.0, "grad_drift": 0.1, "consensus_noise": 0.2,
            "grad_noise": 0.1, "alpha": 100.0, "step_size": 0.005}


def run_seeds(seed, count):
    """``count`` run seeds drawn from the workload seed."""
    gen = random.Random(seed)
    return [gen.randrange(2**31) for _ in range(count)]


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def _within(name, value, reference):
    target, tol = reference
    return Check(name, abs(value - target) <= tol,
                 f"{value:.4f} vs reference {target} +- {tol}")


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_run(out_dir, reference):
    summary = {r["metric"]: float(r["mean"]) for r in _read_csv(out_dir / "summary.csv")}
    checks = [_within("acc_macro", summary["acc_macro"], reference["acc_macro"]),
              _within("sr", summary["sr"], reference["sr"])]
    return checks, {"acc_macro": summary["acc_macro"], "sr": summary["sr"]}


def check_compare(out_dir, reference):
    with open(out_dir / "manifest.json") as fh:
        manifest = json.load(fh)
    acc = {p: entry["acc_macro_mean"] for p, entry in manifest["table"].items()}
    checks = [_within(f"table.{p}", acc[p], reference[p]) for p in sorted(reference)]
    checks += [
        Check("fedcbo_within_1pt_of_ifca", manifest["flags"]["fedcbo_within_1pt_of_ifca"],
              f"fedcbo {acc['fedcbo']:.4f}, ifca {acc['ifca']:.4f}"),
        Check("fedcbo_beats_unclustered_by_3pts",
              acc["fedcbo"] >= max(acc["fedavg"], acc["local"]) + 0.03,
              f"fedcbo {acc['fedcbo']:.4f}, fedavg {acc['fedavg']:.4f}, "
              f"local {acc['local']:.4f}"),
        Check("ifca_beats_fedavg_by_3pts", acc["ifca"] >= acc["fedavg"] + 0.03,
              f"ifca {acc['ifca']:.4f}, fedavg {acc['fedavg']:.4f}"),
    ]
    return checks, {"acc_macro": acc["fedcbo"], "table": acc, "flags": manifest["flags"]}


def check_scan(out_dir, reference):
    rows = _read_csv(out_dir / "meanfield.csv")
    # The last row is the reference population, identically zero.
    disc = [float(r["mean_discrepancy"]) for r in rows][:-1]
    inversions = sum(1 for a, b in zip(disc, disc[1:]) if b > a)
    ratio = disc[-1] / disc[0]
    checks = [
        Check("inversions", inversions <= reference["max_inversions"],
              f"{inversions} <= {reference['max_inversions']}"),
        Check("ratio", ratio <= reference["max_ratio"],
              f"{ratio:.4f} <= {reference['max_ratio']}"),
    ]
    return checks, {"discrepancy": disc, "inversions": inversions, "ratio": ratio}


def check_sde(out_dir, reference):
    checks, rates = [], []
    for row in _read_csv(out_dir / "sde_summary.csv"):
        fitted, bound = float(row["fitted_rate"]), float(row["rate_bound"])
        rates.append(fitted)
        checks.append(Check(f"rate.seed{row['seed']}", fitted >= bound,
                            f"fitted {fitted:.4f} >= bound {bound:.4f}"))
        with open(out_dir / f"trajectory_seed{row['seed']}.jsonl") as fh:
            vsum = [json.loads(line)["v_sum"] for line in fh]
        rises = sum(1 for a, b in zip(vsum, vsum[1:]) if b > a)
        checks.append(Check(f"v_sum_nonincreasing.seed{row['seed']}", rises == 0,
                            f"{rises} rise(s) in {len(vsum)} records"))
    return checks, {"fitted_rate": rates}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    base_config: dict
    n_seeds: int
    check: Callable
    reference: dict = field(default_factory=dict)

    def make_config(self, seed, out_dir):
        config = copy.deepcopy(self.base_config)
        config["seeds"] = run_seeds(seed, self.n_seeds)
        config["output"] = {"dir": str(out_dir)}
        return config

    def check_outputs(self, out_dir):
        return self.check(Path(out_dir), self.reference)


WORKLOADS = {w.name: w for w in [
    Workload(
        name="fedcbo-a1000",
        command="run",
        base_config={"problem": {"n_agents": 1000}, "schedule": {"rounds": 3},
                     "protocol": "fedcbo"},
        n_seeds=1,
        check=check_run,
        reference={"acc_macro": (0.673, 0.05), "sr": (0.289, 0.03)},
    ),
    Workload(
        name="compare-a40",
        command="compare",
        base_config={},
        n_seeds=2,
        check=check_compare,
        reference={"fedcbo": (0.712, 0.04), "ifca": (0.645, 0.16),
                   "fedavg": (0.25, 0.035), "local": (0.637, 0.03)},
    ),
    Workload(
        name="scan-meanfield",
        command="scan-meanfield",
        base_config={"problem": WELLS_PROBLEM, "hyperparams": WELLS_HP,
                     "schedule": {"t_steps": 300, "n_list": [50, 100, 200, 400, 800],
                                  "n_projections": 64, "n_checkpoints": 20}},
        n_seeds=3,
        check=check_scan,
        reference={"max_inversions": 1, "max_ratio": 0.6},
    ),
    Workload(
        name="sde-n20k",
        command="sde",
        base_config={"problem": dict(WELLS_PROBLEM, n_per_cluster=20000),
                     "hyperparams": WELLS_HP,
                     "schedule": {"t_steps": 400, "record_every": 10}},
        n_seeds=1,
        check=check_sde,
    ),
]}
