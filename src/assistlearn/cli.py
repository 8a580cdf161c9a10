"""Command line front end.

Subcommands: ``run`` (experiment from a JSON config), ``compare-stacking``
(grid of assisted vs stacking test RMSE), ``serve`` (host one module's
partition over TCP), ``gen`` (write a synthetic dataset to CSV). Exit codes:
0 success, 2 bad config/usage, 3 transport failure. Set ASSIST_LOG=INFO (or
DEBUG) for progress logging.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import threading

from . import errors as err
from .core import LocalModule
from .data import SyntheticSpec, generate, save_csv, load_csv
from .harness import (ExperimentConfig, compare_stacking, format_table,
                      run_experiment)
from .learners import LearnerSpec
from .transport import serve_module


def _setup_logging() -> None:
    name = os.environ.get("ASSIST_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level,
        format="%(asctime)s %(name)s %(levelname)s %(message)s")


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    report = run_experiment(config, out_dir=args.out)
    s = report.summary
    final = s["final_test_rmse"]
    print(f"{config.name}: {config.replications} replication(s), "
          f"mode {config.mode}, transport {config.transport}")
    print(f"  chosen rounds: {s['chosen_rounds']}")
    print(f"  final test RMSE: {final['mean']:.4f} (se {final['se']:.4f})")
    for name, metrics in sorted(s["baselines"].items()):
        m = metrics["test_rmse"]
        print(f"  {name} test RMSE: {m['mean']:.4f} (se {m['se']:.4f})")
    out = args.out if args.out is not None else config.output
    if out is not None:
        print(f"  report written to {out}/report.json")
    return 0


def _cmd_compare(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    table = compare_stacking(config, out_dir=args.out)
    print(format_table(table))
    return 0


def _cmd_serve(args) -> int:
    host, sep, port_text = args.listen.rpartition(":")
    if not sep or not host:
        raise ValueError(f"--listen wants host:port, got {args.listen!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"bad port {port_text!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port {port} outside 0-65535")
    partition = load_csv(args.partition, args.id_column)
    module = LocalModule(module_id=args.module_id, partition=partition,
                         learner=LearnerSpec.from_string(args.learner))
    server = serve_module(module, host, port)
    print(f"serving module {module.module_id!r} "
          f"({partition.n_rows} rows, {partition.n_cols} columns) "
          f"on {server.host}:{server.port}", flush=True)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _cmd_gen(args) -> int:
    coeff = None
    if args.coefficients:
        coeff = tuple(float(c) for c in args.coefficients.split(","))
    spec = SyntheticSpec(kind=args.kind, n=args.n, noise_sd=args.noise_sd,
                         seed=args.seed, coefficients=coeff,
                         correlation=args.correlation,
                         extra_noise_features=args.extra_noise_features)
    partition, labels = generate(spec)
    save_csv(args.out, partition, labels)
    print(f"wrote {partition.n_rows} rows x {partition.n_cols} features "
          f"to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="assistlearn",
        description="Decentralized assisted learning over vertical "
                    "feature partitions.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a JSON config")
    run_p.add_argument("--config", required=True, help="config JSON path")
    run_p.add_argument("--out", default=None,
                       help="report directory (overrides config output)")
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare-stacking",
                           help="assisted vs stacking grid from a config")
    cmp_p.add_argument("--config", required=True, help="config JSON path")
    cmp_p.add_argument("--out", default=None, help="output directory")
    cmp_p.set_defaults(func=_cmd_compare)

    srv_p = sub.add_parser("serve", help="serve one module over TCP")
    srv_p.add_argument("--partition", required=True,
                       help="CSV with this module's columns")
    srv_p.add_argument("--learner", required=True,
                       help="learner spec, e.g. gradient_boosting:stages=50")
    srv_p.add_argument("--listen", required=True, help="host:port to bind")
    srv_p.add_argument("--id-column", default="id")
    srv_p.add_argument("--module-id", default="module")
    srv_p.set_defaults(func=_cmd_serve)

    gen_p = sub.add_parser("gen", help="write a synthetic dataset to CSV")
    gen_p.add_argument("--kind", required=True,
                       choices=("friedman1", "linear"))
    gen_p.add_argument("--n", type=int, required=True)
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--out", required=True, help="CSV path to write")
    gen_p.add_argument("--noise-sd", type=float, default=1.0)
    gen_p.add_argument("--correlation", type=float, default=0.0)
    gen_p.add_argument("--coefficients", default=None,
                       help="comma separated, linear kind only")
    gen_p.add_argument("--extra-noise-features", type=int, default=0)
    gen_p.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except err.TransportError as exc:
        print(f"transport failure: {exc}", file=sys.stderr)
        return 3
    except (err.AssistError, OSError, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
