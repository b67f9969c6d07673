#!/usr/bin/env python3
"""Benchmark of the lgm samplers on fixed GP-regression and grid-Cox workloads.

    python3 perfbench/run.py --workload regression-n200 --seed 0 --seconds 50 --trace 0

Run from the repository root; the library is imported from ``src/``.  The
last line of standard output is one JSON object: ``correct``, ``attempted``
and ``failed`` (sampler runs), and ``metrics``, the end-to-end metrics with
``--trace 0`` or the per-layer metrics with ``--trace 1``.  A traced run
also writes its spans to ``perfbench/runs/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lgm" / "__init__.py").is_file():
        print(f"the lgm sources are missing: no {SRC / 'lgm'}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads OpenBLAS: with two, the
    # n=1024 matvec ran 1.7x faster but its per-round time varied 3x more.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(bench.WORKLOADS)}")
    result = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace), span_dir=HERE / "runs")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
