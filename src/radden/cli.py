"""Command-line entry point: generate datasets, train models, run sweeps,
build reports, and run the acceptance suite.

Exit codes: 0 success, 2 configuration error, 3 acceptance failure.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .autoencoders import save_weights
from .bench import (AUTOENCODERS, generate_pair, load_config, load_rows,
                    run_sweep, summarize, train_model, write_plot_data,
                    write_rows)
from .dataset import save_dataset
from .errors import ConfigError, DomainError, FormatError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ACCEPT = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="radden",
        description="Radar signature denoising benchmarks: dataset generation, "
                    "autoencoder training, sweeps, and reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment INI file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed")

    common(sub.add_parser("generate", help="write a paired clean/corrupt dataset"))
    train = sub.add_parser("train", help="train one model and save its weights")
    common(train)
    train.add_argument("--algorithm", default="stacked_sdae",
                       choices=AUTOENCODERS)
    sweep = sub.add_parser("sweep", help="run the configured sweep, write "
                                         "CSV and plot data")
    common(sweep)
    sweep.add_argument("--jobs", type=int, default=1, help="parallel workers")
    report = sub.add_parser("report", help="summarize sweep CSVs")
    report.add_argument("csv", nargs="+", help="result CSV files")
    report.add_argument("--out", default=None, help="plot-data directory")
    sub.add_parser("accept", help="run the acceptance test suite")
    return parser


def _load(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, dataset=replace(cfg.dataset, seed=args.seed),
                      sweep=replace(cfg.sweep, seeds=(args.seed,)))
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    return cfg


def _cmd_generate(args):
    cfg = _load(args)
    clean, corrupt = generate_pair(cfg.dataset)
    out = Path(cfg.output_dir)
    manifest = save_dataset(clean, corrupt, out, config_text=repr(cfg.dataset))
    print(f"wrote {clean.count} column pairs to {out} ({manifest.name})")
    return EXIT_OK


def _cmd_train(args):
    cfg = _load(args)
    clean, corrupt = generate_pair(cfg.dataset)
    seed = cfg.sweep.seeds[0]
    weights, trace = train_model(args.algorithm, clean.data, corrupt.data,
                                 cfg, seed)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.algorithm}.weights"
    save_weights(weights, path)
    print(f"trained {args.algorithm}: final objective "
          f"{trace.objectives[-1]:.6g} after {len(trace.objectives)} "
          f"iterations -> {path}")
    return EXIT_OK


def _cmd_sweep(args):
    cfg = _load(args)
    rows = run_sweep(cfg, jobs=args.jobs)
    out = Path(cfg.output_dir)
    path = write_rows(rows, out / "sweep.csv")
    print(f"wrote {len(rows)} rows to {path}")
    print(summarize(rows), end="")
    for path in write_plot_data(rows, out / "plots"):
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_report(args):
    rows = []
    for path in args.csv:
        rows.extend(load_rows(path))
    print(summarize(rows), end="")
    if args.out:
        for path in write_plot_data(rows, args.out):
            print(f"wrote {path}")
    return EXIT_OK


def _cmd_accept(args):
    import pytest

    suite = Path("tests", "test_acceptance.py")  # working tree, then source checkout
    places = [Path.cwd() / suite, Path(__file__).resolve().parents[2] / suite]
    tests = next((p for p in places if p.exists()), None)
    if tests is None:
        print(f"acceptance suite not found at {places[0]} or {places[1]}", file=sys.stderr)
        return EXIT_CONFIG
    code = pytest.main(["-v", str(tests)])
    return EXIT_OK if code == 0 else EXIT_ACCEPT


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "train": _cmd_train,
        "sweep": _cmd_sweep,
        "report": _cmd_report,
        "accept": _cmd_accept,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, DomainError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
