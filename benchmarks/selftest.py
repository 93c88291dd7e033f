"""Self-test of the benchmark: every workload at a tiny size, end to end.

    python3 benchmarks/selftest.py

For each workload, a plain and a traced run must emit every metric named
in BENCHMARK.json with its unit and pass their output checks.  Then a
deliberately wrong reference must make its check fail and lower
``pass_frac``.  Takes about a minute; writes no results file.
"""

import dataclasses
import sys

import run
import workloads

WELLS_SMALL = {"t_steps": 200, "record_every": 10}
TINY = {
    "fedcbo-a1000": {
        "base_config": {"problem": {"n_agents": 40}, "schedule": {"rounds": 2},
                        "protocol": "fedcbo"},
        "reference": {"acc_macro": (0.5, 0.5), "sr": (0.5, 0.5)},
    },
    "compare-a40": {
        "base_config": {"schedule": {"rounds": 10}},
        "n_seeds": 1,
        "reference": {p: (0.5, 0.5) for p in ("fedcbo", "ifca", "fedavg", "local")},
    },
    "scan-meanfield": {
        "base_config": {"problem": workloads.WELLS_PROBLEM, "hyperparams": workloads.WELLS_HP,
                        "schedule": {"t_steps": 50, "n_list": [10, 20, 40, 80],
                                     "n_projections": 8, "n_checkpoints": 5}},
        "n_seeds": 2,
        "reference": {"max_inversions": 3, "max_ratio": 10.0},
    },
    "sde-n20k": {
        "base_config": {"problem": dict(workloads.WELLS_PROBLEM, n_per_cluster=500),
                        "hyperparams": workloads.WELLS_HP, "schedule": WELLS_SMALL},
    },
}


def tiny(name, **changes):
    return dataclasses.replace(workloads.WORKLOADS[name], **dict(TINY[name], **changes))


def check_emitted(result, declared, label):
    names = [m["name"] for m in declared]
    assert sorted(result["metrics"]) == sorted(names), f"{label}: metric names differ"
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"], f"{label}: unit of {metric['name']}"
        assert isinstance(entry["value"], (int, float)), f"{label}: {metric['name']}"


def main():
    bench = run.load_catalogue()
    assert sorted(TINY) == sorted(w["name"] for w in bench["workloads"])
    for name in TINY:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = f"{name} trace {trace}"
            result, _ = run.run_one(bench, tiny(name), seed=7, seconds=0, trace=trace,
                                    min_runs=1)
            assert result["correct"] and result["failed"] == 0, f"{label}: {result}"
            assert result["attempted"] > 0, label
            check_emitted(result, declared, label)
            print(f"ok: {label}, {result['attempted']} checks")

    wrong = dict(TINY["fedcbo-a1000"]["reference"], acc_macro=(2.0, 0.01))
    result, _ = run.run_one(bench, tiny("fedcbo-a1000", reference=wrong), seed=7,
                            seconds=0, trace=0, min_runs=1)
    assert not result["correct"], "a wrong reference passed its check"
    assert result["failed"] >= 1, result
    assert result["metrics"]["pass_frac"]["value"] < 1.0, result
    print(f"ok: wrong reference fails {result['failed']} of {result['attempted']} checks")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
