"""One measured fedcbo CLI invocation in a fresh interpreter.

Run by ``run.py``, never imported.  The set-up interval ends once
``fedcbo.cli`` is imported and the config is resolved; ``run.py`` starts it
just before it spawns this process, so interpreter start-up is included.
The result (timestamps, wall time of ``cli.main``, peak RSS, thread count)
goes to the JSON file named by ``--result``.  With ``--spans`` the layers
are traced and the spans are written to that file when the command ends.

    python3 benchmarks/child.py --result R.json --config C.json \
        [--setup-only] [--spans S.json] -- run --config C.json --out DIR
"""

import sys
import time

T_START = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def _thread_count():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from fedcbo import cli
    t_imported = time.clock_gettime(time.CLOCK_MONOTONIC)
    cli.load_config(args.config)
    t_resolved = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = {"t_start": T_START, "t_imported": t_imported, "t_resolved": t_resolved}

    if not args.setup_only:
        tracer = None
        if args.spans:
            import tracer as tracer_mod
            tracer = tracer_mod.Tracer()
            tracer.install()
        started = time.perf_counter()
        code = cli.main(cli_args)
        out["run_s"] = time.perf_counter() - started
        out["exit_code"] = code
        out["threads"] = _thread_count()
        if tracer is not None:
            tracer.dump(args.spans)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
