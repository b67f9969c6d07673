"""Command-line surface: run benchmarks, simulate data, validate, downsample.

    lgm run <config.json>         execute a benchmark config
    lgm simulate <spec.json>      draw a synthetic dataset to CSV + manifest
    lgm validate                  brute-force oracle suite; nonzero exit on failure
    lgm downsample <counts.csv>   merge 2x2 grid cells of a Cox counts file

Flags, registered only on the subcommands that read them: --seed (override
the config's seeds or the spec's seed; run, simulate), --out (output
directory; all), --trace (persist thinned sample traces; run).  ``lgm run``
executes its (sampler, seed) jobs one after another in this process.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .harness import (
    ConfigError,
    _read_counts,
    _read_manifest,
    check_seed,
    down_sample_cox,
    format_summary_table,
    parse_config,
    read_spec_file,
    run_benchmark,
    simulate_dataset,
    validate_simulate_spec,
    write_dataset,
)
from .oracle import run_validation_suite


FLAGS = {
    "--seed": {"type": int, "help": "override the seeds of the config or spec with one seed"},
    "--out": {"type": Path, "help": "output directory"},
    "--trace": {"action": "store_true", "help": "persist thinned sample traces"},
}

# (name, positional argument, help, the flags the command reads)
COMMANDS = (
    ("run", "config", "execute a benchmark config", ("--seed", "--out", "--trace")),
    ("simulate", "spec", "draw a synthetic dataset", ("--seed", "--out")),
    ("validate", None, "run the brute-force validation suite", ("--out",)),
    ("downsample", "counts", "2x2-merge a Cox counts grid", ("--out",)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lgm", description="Latent Gaussian model samplers and benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, positional, help_text, flags in COMMANDS:
        command = sub.add_parser(name, help=help_text)
        if positional is not None:
            command.add_argument(positional, type=Path)
        for flag in flags:
            command.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return COMMAND_FUNCS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_run(args: argparse.Namespace) -> int:
    config = parse_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seeds"] = (check_seed(args.seed, "--seed"),)
    if args.out is not None:
        overrides["out"] = args.out
    if overrides:
        config = dataclasses.replace(config, **overrides)
    result = run_benchmark(config, keep_samples=args.trace)
    print(format_summary_table(result.summary_rows))
    failures = [r for r in result.reports if r.error is not None]
    for report in failures:
        print(f"FAILED {report.method} seed {report.seed}: {report.error}", file=sys.stderr)
    if config.out is not None:
        print(f"reports written to {config.out}")
    print(f"determinism digest: {result.digest}")
    return 1 if failures else 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    model, out, raw = read_spec_file(args.spec)
    out_dir = args.out or Path(out)
    if args.seed is not None:
        raw["seed"] = args.seed
    spec = validate_simulate_spec(model, raw, path="spec")
    bundle = simulate_dataset(model, spec)
    paths = write_dataset(bundle, out_dir)
    print(f"wrote {paths['data']} and {paths['manifest']}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    checks = run_validation_suite()
    failures = 0
    for check in checks:
        print(check.describe())
        failures += not check.passed
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / "validation.csv"
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["name", "passed", "residual", "tolerance"])
            for check in checks:
                writer.writerow([check.name, check.passed, repr(check.residual), repr(check.tolerance)])
        print(f"validation table written to {path}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 1 if failures else 0


def _cmd_downsample(args: argparse.Namespace) -> int:
    counts = _read_counts(args.counts)
    try:
        merged = down_sample_cox(counts)
    except ValueError as exc:  # an odd side, or one that would merge below 2
        raise ConfigError(f"dataset file {args.counts}: {exc}") from exc
    manifest_path = args.counts.with_suffix(".manifest.json")
    manifest = _read_manifest(manifest_path, "cox") if manifest_path.exists() else None
    out_dir = args.out or args.counts.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{args.counts.stem}_down.csv"
    np.savetxt(out_path, merged, fmt="%d", delimiter=",")

    if manifest is not None:
        manifest["side"] = merged.shape[0]
        if manifest.get("cell_area"):
            manifest["cell_area"] = manifest["cell_area"] * 4.0
        if manifest.get("scale_divisor"):
            # halving the side halves the index-space correlation scale
            manifest["scale_divisor"] = manifest["scale_divisor"] / 2.0
        out_manifest = out_dir / f"{args.counts.stem}_down.manifest.json"
        out_manifest.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {out_path} and {out_manifest}")
    else:
        print(f"wrote {out_path}")
    return 0


# The subparsers are required, so every parsed command is a key here.
COMMAND_FUNCS = {
    "run": _cmd_run,
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
    "downsample": _cmd_downsample,
}


if __name__ == "__main__":
    sys.exit(main())
