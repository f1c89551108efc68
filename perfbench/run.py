"""Benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

It imports ``recipegen`` from ``src/`` of the same checkout, runs one
workload in this one process, checks its outputs and prints two lines: a
JSON report (environment, workload config, dataset digests, named figures)
and, last, the result ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the first
measured unit plain, traced and plain again and prints the per-layer metrics.
"""

import os

# One thread per native pool, set before anything imports numpy.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench.bench import MissingLibrary, environment, load_library, run
    from perfbench.workloads import SIZES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        lib = load_library(ROOT)
    except MissingLibrary as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, report = run(
            lib, args.workload, args.seed, args.seconds, bool(args.trace),
            SIZES[args.workload], workdir,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    report["environment"] = environment(ROOT)
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
