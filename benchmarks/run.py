"""fedcbo benchmark: runs one CLI workload end to end, checks its outputs and
reports the metrics listed in BENCHMARK.json.

    python3 benchmarks/run.py --workload fedcbo-a1000 --seed 0 --seconds 20 --trace 0
    python3 benchmarks/run.py            # every workload, one after another

Run it from anywhere; it reads ``src/`` and ``BENCHMARK.json`` of the tree
it sits in and writes only under ``.bench_work/`` (removed at exit) and
``.bench_results/`` there.

Every measured command runs in a fresh single-process child
(``benchmarks/child.py``), so each run pays the cold import a CLI call pays
and no module-level state leaks from one run into the next.  The children
get ``--threads <nproc>`` and one BLAS thread, so the program never runs more
threads than there are processors.  Children are started one after another
(a closed loop with one client) until ``--seconds`` is used up, at least
three times; each metric is the median over them.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (from spawning the
interpreter to ``fedcbo.cli`` imported and the config resolved; a few
set-up-only children add samples), ``run_s`` (wall time of ``cli.main``),
``peak_rss_mb`` and ``pass_frac`` (output checks passed / attempted; the
result's ``failed``/``attempted`` give the failure fraction).
``--trace 1`` alternates plain and traced children and reports per-layer
metrics from the traced ones (see ``tracer.py``), the import profile from
``python -X importtime`` and ``trace.overhead_s``, the traced median
``run_s`` minus the plain one.

Each run writes ``.bench_results/BENCH_<workload>_<time>_seed<n>_trace<t>.json``
holding the machine record, the generated config and every child's values.
The last line of standard output is the result as one JSON object.
"""

import argparse
import datetime
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

MIN_RUNS = 3            # measured children per run, even past --seconds
SETUP_REPEATS = 3       # set-up-only children before the measured ones
IMPORT_REPEATS = 3      # python -X importtime children in a traced run
STOP_STARTING_S = 120   # no new child after this much time in one run
HARD_LIMIT_S = 170      # a child still running then is killed

BLAS_THREADS = "1"


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def machine_record():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "cpu_model": cpu,
        "nproc": nproc(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
    }


class Runner:
    """Spawns the children of one benchmark run and collects their records."""

    def __init__(self, workload, seed, work_dir):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.env = child_env()
        self.started = time.monotonic()
        self.records = []
        self.proc = None

    def elapsed(self):
        return time.monotonic() - self.started

    def _spawn(self, argv, log_path):
        timeout = max(5.0, HARD_LIMIT_S - self.elapsed())
        with open(log_path, "w") as log:
            self.proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                         stdout=log, stderr=subprocess.STDOUT)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        code, self.proc = self.proc.returncode, None
        return code

    def stop(self):
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()

    def run_child(self, kind):
        """kind: "setup" (import + resolve only), "plain" or "traced"."""
        index = len(self.records)
        cdir = self.work_dir / f"c{index}"
        out_dir = cdir / "out"
        cdir.mkdir(parents=True)
        config_path = cdir / "config.json"
        config = self.workload.make_config(self.seed, out_dir)
        config_path.write_text(json.dumps(config, indent=1))
        result_path, spans_path = cdir / "result.json", cdir / "spans.json"
        argv = [sys.executable, str(HERE / "child.py"), "--result", str(result_path),
                "--config", str(config_path)]
        if kind == "setup":
            argv.append("--setup-only")
        if kind == "traced":
            argv += ["--spans", str(spans_path)]
        argv += ["--", self.workload.command, "--config", str(config_path),
                 "--out", str(out_dir), "--threads", str(nproc())]

        t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        code = self._spawn(argv, cdir / "child.log")
        record = {"kind": kind, "exit_code": code}
        if result_path.exists():
            child = json.loads(result_path.read_text())
            record["setup_s"] = child["t_resolved"] - t_spawn
            record["config_resolve_s"] = child["t_resolved"] - child["t_imported"]
            record["peak_rss_mb"] = child["peak_rss_mb"]
            for key in ("run_s", "threads"):
                if key in child:
                    record[key] = child[key]
            if child.get("exit_code", 0) != 0:
                record["exit_code"] = child["exit_code"]
        if kind == "setup":
            record["checks"] = [vars(workloads.Check(
                "exit_code", record["exit_code"] == 0 and "setup_s" in record,
                f"exit code {record['exit_code']}"))]
        else:
            self._check(record, out_dir)
            if kind == "traced" and spans_path.exists() and "run_s" in record:
                doc = json.loads(spans_path.read_text())
                record["layers"] = tracer.layer_metrics(doc, record["run_s"])
                record["layers"]["experiment.bytes_written"] = record["bytes_written"]
                shares = tracer.self_time_shares(doc, record["run_s"])
                record["self_time_share"] = {k: round(v, 4) for k, v in shares.items()}
        if record["exit_code"] != 0 or "setup_s" not in record:
            log_tail = (cdir / "child.log").read_text()[-2000:]
            record["log_tail"] = log_tail
            print(f"child {index} ({kind}) failed with exit code {record['exit_code']}:\n"
                  f"{log_tail}", file=sys.stderr)
        shutil.rmtree(cdir, ignore_errors=True)
        self.records.append(record)
        return record

    def _check(self, record, out_dir):
        from fedcbo.experiment import is_complete
        checks = [workloads.Check("exit_code", record["exit_code"] == 0,
                                  f"exit code {record['exit_code']}")]
        checks.append(workloads.Check("is_complete", is_complete(out_dir), str(out_dir.name)))
        if checks[-1].ok:
            try:
                more, extras = self.workload.check_outputs(out_dir)
            except (OSError, KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
                more, extras = [workloads.Check("outputs_readable", False, repr(exc))], {}
            checks += more
            record["outputs"] = extras
        record["checks"] = [vars(c) for c in checks]
        record["bytes_written"] = sum(p.stat().st_size for p in out_dir.rglob("*")
                                      if p.is_file()) if out_dir.exists() else 0
        for c in checks:
            if not c.ok:
                print(f"check failed: {self.workload.name} {c.name}: {c.detail}",
                      file=sys.stderr)

    def import_profile(self):
        """cli.import_s and cli.import_scipy_s from ``python -X importtime``."""
        argv = [sys.executable, "-X", "importtime", "-c", "import fedcbo.cli"]
        proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=60)
        total_us = scipy_us = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = line[len("import time:"):].split("|")
            if not parts[0].strip().isdigit():
                continue                     # the header line
            self_us, cumulative_us, name = int(parts[0]), int(parts[1]), parts[2]
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            name = name.strip()
            if depth == 0 and (name == "fedcbo" or name.startswith("fedcbo.")):
                total_us += cumulative_us
            if name == "scipy" or name.startswith("scipy."):
                scipy_us += self_us
        record = {"kind": "importtime", "exit_code": proc.returncode,
                  "cli.import_s": total_us / 1e6, "cli.import_scipy_s": scipy_us / 1e6}
        self.records.append(record)
        return record


def _median(records, key):
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else 0.0


def measure(workload, seed, seconds, trace, min_runs):
    """Run the children of one benchmark run; returns (records, metrics, counts)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))     # the output checks use fedcbo.experiment
    work_dir = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    runner = Runner(workload, seed, work_dir)
    try:
        if trace:
            for _ in range(IMPORT_REPEATS):
                runner.import_profile()
        else:
            for _ in range(SETUP_REPEATS):
                runner.run_child("setup")
        kinds = ["plain", "traced"] if trace else ["plain"]
        # A traced run alternates two kinds, so it needs fewer of each.
        need = max(1, min_runs - 1) if trace else min_runs
        longest = 0.0
        while True:
            done = {k: sum(1 for r in runner.records if r["kind"] == k) for k in kinds}
            out_of_time = (runner.elapsed() + longest > seconds
                           or runner.elapsed() > STOP_STARTING_S)
            if out_of_time and all(done[k] >= need for k in kinds):
                break
            kind = min(kinds, key=lambda k: done[k])
            t0 = time.monotonic()
            runner.run_child(kind)
            longest = max(longest, time.monotonic() - t0)
    finally:
        runner.stop()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    records = runner.records
    checks = [c for r in records for c in r.get("checks", [])]
    attempted, failed = len(checks), sum(1 for c in checks if not c["ok"])
    plain = [r for r in records if r["kind"] == "plain"]
    if not trace:
        metrics = {
            "setup_s": _median(records, "setup_s"),
            "run_s": _median(plain, "run_s"),
            "peak_rss_mb": _median(plain, "peak_rss_mb"),
            "pass_frac": 1.0 - failed / attempted if attempted else 0.0,
        }
    else:
        traced = [r for r in records if r["kind"] == "traced" and "layers" in r]
        metrics = {}
        for name in (traced[0]["layers"] if traced else {}):
            metrics[name] = statistics.median_low(r["layers"][name] for r in traced)
        for name in ("cli.import_s", "cli.import_scipy_s"):
            metrics[name] = _median(records, name)
        metrics["config.resolve_s"] = _median(records, "config_resolve_s")
        metrics["trace.overhead_s"] = _median(traced, "run_s") - _median(plain, "run_s")
    return records, metrics, {"attempted": attempted, "failed": failed}


def load_catalogue():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_one(bench, workload, seed, seconds, trace, min_runs=MIN_RUNS):
    """Measure one workload; returns (result line, results-file document)."""
    records, metrics, counts = measure(workload, seed, seconds, trace, min_runs)
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing and counts["failed"] == 0:
        raise RuntimeError(f"metrics not measured: {missing}")
    result = {
        "correct": counts["failed"] == 0 and counts["attempted"] > 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        # A metric is missing only when the children that measure it failed.
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in declared},
    }
    machine = machine_record()
    machine["child_threads_max"] = max((r.get("threads", 0) for r in records), default=0)
    doc = {
        "workload": workload.name, "command": workload.command, "seed": seed,
        "seconds": seconds, "trace": int(trace), "machine": machine,
        "config": workload.make_config(seed, "<out>"), "children": records,
        "fail_frac": counts["failed"] / counts["attempted"] if counts["attempted"] else 1.0,
        "result": result,
    }
    return result, doc


def report(bench, doc):
    """Write the results file and print every metric by name and unit."""
    name, result = doc["workload"], doc["result"]
    doc["why"] = {w["name"]: w["why"] for w in bench["workloads"]}[name]
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"BENCH_{name}_{stamp}_seed{doc['seed']}_trace{doc['trace']}.json"
    path.write_text(json.dumps(doc, indent=1))
    print(f"{name} (seed {doc['seed']}, trace {doc['trace']}): results in "
          f"{path.relative_to(ROOT)}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"  fail_frac = {doc['fail_frac']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} checks failed)")
    acc = [r["outputs"]["acc_macro"] for r in doc["children"]
           if "acc_macro" in r.get("outputs", {})]
    if acc:
        print(f"  acc_macro = {statistics.median(acc):.6g} ratio")
    traced = [r for r in doc["children"] if "self_time_share" in r]
    if traced:
        top = list(traced[-1]["self_time_share"].items())[:5]
        print("  largest self-time shares of run_s: "
              + ", ".join(f"{k} {v:.1%}" for k, v in top))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fedcbo" / "cli.py").is_file():
        print(f"fedcbo sources not found under {SRC}", file=sys.stderr)
        return 2
    bench = load_catalogue()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")

    results = {}
    for name in (names if args.workload == "all" else [args.workload]):
        result, doc = run_one(bench, workloads.WORKLOADS[name], args.seed, seconds,
                              args.trace)
        report(bench, doc)
        results[name] = result
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
