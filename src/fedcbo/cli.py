"""Command-line entry point.

Subcommands:
    run             execute the configured protocol for every seed
    compare         run all protocols on the same problem and budget
    scan-meanfield  finite-population scan against the largest size
    sde             integrate the benchmark particle system
    plot-export     flatten a run directory's metrics into a long CSV

Exit codes: 0 success, 2 configuration error, 3 numerical divergence.
"""

import argparse
import logging
import sys
from pathlib import Path

from .config import PROTOCOLS, load_config
from .errors import ConfigError, DivergenceError
from .experiment import (compare_protocols, export_plot_data, run_experiment,
                         run_sde_experiment, scan_meanfield_experiment)

log = logging.getLogger(__name__)


def _add_shared(parser):
    parser.add_argument("--config", required=True,
                        help="path to a JSON experiment config")
    parser.add_argument("--seed", type=int, default=None,
                        help="run a single seed instead of the configured list")
    parser.add_argument("--out", default=None,
                        help="output directory (overrides the config)")
    parser.add_argument("--threads", type=int, default=1,
                        help="threads, at most the usable CPUs: run splits each learner "
                             "round's training, aggregation and scoring blocks over them, "
                             "compare its protocol x seed jobs; results are "
                             "identical for any value")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fedcbo",
        description="Clustered consensus-based optimization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "compare", "scan-meanfield", "sde"):
        command = sub.add_parser(name)
        _add_shared(command)
        if name == "run":
            command.add_argument("--protocol", default=None, choices=PROTOCOLS,
                                 help="protocol override")
    plot = sub.add_parser("plot-export")
    plot.add_argument("--run-dir", default=None,
                      help="completed run directory to export (defaults to the "
                           "config's output dir)")
    plot.add_argument("--config", default=None,
                      help="path to a JSON experiment config, for its output dir")
    plot.add_argument("--out", default=None,
                      help="path of the CSV file to write (default: plot_data.csv "
                           "in the run directory)")
    return parser


def _apply_overrides(config, args):
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError([f"--seed: must be >= 0, got {args.seed}"])
        config.seeds = [args.seed]
    if getattr(args, "protocol", None) is not None:
        config.protocol = args.protocol
    if args.threads < 1:
        raise ConfigError(["--threads: must be >= 1"])
    return config


def _check_csv_path(out):
    if out is None:
        return
    path = Path(out)
    if path.is_dir():
        raise ConfigError([f"--out: {out} is a directory; plot-export --out is "
                           "the path of the CSV file to write"])
    if not path.parent.is_dir():
        raise ConfigError([f"--out: directory {path.parent} of {out} does not exist"])


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.command == "plot-export":
            run_dir = args.run_dir
            if run_dir is None:
                if args.config is None:
                    raise ConfigError(["plot-export needs --run-dir or --config"])
                run_dir = load_config(args.config).output["dir"]
            _check_csv_path(args.out)
            out = export_plot_data(run_dir, args.out)
            print(f"wrote {out}")
            return 0

        config = _apply_overrides(load_config(args.config), args)
        if args.command == "run":
            manifest = run_experiment(config, out_dir=args.out, threads=args.threads)
            print(f"run complete: {len(manifest['metrics_files'])} seed file(s), "
                  f"config hash {manifest['config_hash'][:12]}")
        elif args.command == "compare":
            result = compare_protocols(config, out_dir=args.out, threads=args.threads)
            for protocol, entry in result["table"].items():
                print(f"{protocol}: macro accuracy "
                      f"{entry['acc_macro_mean']:.4f} +- {entry['acc_macro_std']:.4f}")
            for name, value in result["flags"].items():
                print(f"{name}: {value}")
        elif args.command == "scan-meanfield":
            manifest = scan_meanfield_experiment(config, out_dir=args.out)
            print(f"scan complete: reference size {manifest['reference_size']}, "
                  f"{manifest['monotone_violations']} monotonicity violation(s)")
        elif args.command == "sde":
            manifest = run_sde_experiment(config, out_dir=args.out)
            print(f"sde run complete: {len(manifest['metrics_files'])} trajectory file(s)")
        return 0
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
