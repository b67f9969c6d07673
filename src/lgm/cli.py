"""Command-line surface: run benchmarks, simulate data, tune, validate.

    lgm run <config.json>         execute a benchmark config
    lgm simulate <spec.json>      draw a synthetic dataset to CSV + manifest
    lgm tune <config.json>        burn-in tuning only; report tuned step sizes
    lgm validate                  brute-force oracle suite; nonzero exit on failure
    lgm downsample <counts.csv>   merge 2x2 grid cells of a Cox counts file

Flags: --seed (override config seeds), --out (output directory), --threads
(worker threads; env LGM_THREADS is the fallback), --trace (persist thinned
sample traces).
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

from .adaptation import tune_and_freeze
from .harness import (
    KIND_STREAM_INDEX,
    ConfigError,
    down_sample_cox,
    format_summary_table,
    parse_config,
    resolve_dataset,
    run_benchmark,
    shared_prior,
    simulate_dataset,
    validate_simulate_spec,
    write_dataset,
)
from .oracle import run_validation_suite
from .samplers import Chain


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lgm", description="Latent Gaussian model samplers and benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a benchmark config")
    run_p.add_argument("config", type=Path)
    _common_flags(run_p)

    sim_p = sub.add_parser("simulate", help="draw a synthetic dataset")
    sim_p.add_argument("spec", type=Path)
    _common_flags(sim_p)

    tune_p = sub.add_parser("tune", help="burn-in tuning only")
    tune_p.add_argument("config", type=Path)
    _common_flags(tune_p)

    val_p = sub.add_parser("validate", help="run the brute-force validation suite")
    _common_flags(val_p)

    down_p = sub.add_parser("downsample", help="2x2-merge a Cox counts grid")
    down_p.add_argument("counts", type=Path)
    _common_flags(down_p)
    return parser


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="override config seeds with one seed")
    p.add_argument("--out", type=Path, default=None, help="output directory")
    p.add_argument("--threads", type=int, default=None, help="worker threads (fallback: LGM_THREADS)")
    p.add_argument("--trace", action="store_true", help="persist thinned sample traces")


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "tune":
        return _cmd_tune(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "downsample":
        return _cmd_downsample(args)
    raise ValueError(f"unknown command {args.command!r}")


def _load_config(args: argparse.Namespace):
    config = parse_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seeds"] = (args.seed,)
    if args.out is not None:
        overrides["out"] = args.out
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    result = run_benchmark(config, threads=args.threads, keep_samples=args.trace)
    print(format_summary_table(result.summary_rows))
    failures = [r for r in result.reports if r.error is not None]
    for report in failures:
        print(f"FAILED {report.method} seed {report.seed}: {report.error}", file=sys.stderr)
    if config.out is not None:
        print(f"reports written to {config.out}")
    print(f"determinism digest: {result.digest}")
    return 1 if failures else 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    raw = json.loads(args.spec.read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ConfigError("simulate spec must be a JSON object")
    model = raw.pop("model", None)
    if model is None:
        raise ConfigError("simulate spec needs a 'model' key")
    out_dir = args.out or Path(raw.pop("out", "."))
    if args.seed is not None:
        raw["seed"] = args.seed
    spec = validate_simulate_spec(model, raw, path="spec")
    bundle = simulate_dataset(model, spec)
    paths = write_dataset(bundle, out_dir)
    print(f"wrote {paths['data']} and {paths['manifest']}")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    config = _load_config(args)
    bundle = resolve_dataset(config)
    prior = shared_prior(config, bundle)
    rows = []
    for kind in config.samplers:
        for seed in config.seeds:
            rng = np.random.default_rng([seed, KIND_STREAM_INDEX[kind]])
            chain = Chain(kind, prior, bundle.target, rng)
            tune = tune_and_freeze(chain, config.burn_in)
            rows.append(
                {
                    "method": kind.value,
                    "seed": seed,
                    "delta": "" if tune.delta is None else repr(tune.delta),
                    "acceptance_rate": repr(tune.acceptance_rate),
                    "warning": tune.warning or "",
                }
            )
            print(f"{kind.value:8s} seed {seed}: delta={tune.delta}, acceptance={tune.acceptance_rate:.3f}")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / "tuning.csv"
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=["method", "seed", "delta", "acceptance_rate", "warning"])
            writer.writeheader()
            writer.writerows(rows)
        print(f"tuning table written to {path}")
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
    counts = np.atleast_2d(np.loadtxt(args.counts, delimiter=","))
    merged = down_sample_cox(counts)
    out_dir = args.out or args.counts.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{args.counts.stem}_down.csv"
    np.savetxt(out_path, merged, fmt="%d", delimiter=",")

    manifest_path = args.counts.with_suffix(".manifest.json")
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["side"] = merged.shape[0]
        if "cell_area" in manifest:
            manifest["cell_area"] = manifest["cell_area"] * 4.0
        if "scale_divisor" in manifest and manifest["scale_divisor"]:
            # halving the side halves the index-space correlation scale
            manifest["scale_divisor"] = manifest["scale_divisor"] / 2.0
        out_manifest = out_dir / f"{args.counts.stem}_down.manifest.json"
        out_manifest.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {out_path} and {out_manifest}")
    else:
        print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
