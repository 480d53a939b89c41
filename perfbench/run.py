"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload characterize --seed 1 --seconds 20 --trace 0

Workloads: ``characterize``, ``fleet`` and ``serve`` (see README.md).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric named in
BENCHMARK.json with ``--trace 0``, every per-layer metric with
``--trace 1``.  Lines before it report the host and the run.  Exits 1 when
a correctness check fails and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import importlib
import json
import multiprocessing
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Import the benchmark as a package, not its files as top-level modules.
sys.path[0] = str(ROOT)

from perfbench import harness  # noqa: E402

WORKLOADS = ("characterize", "fleet", "serve")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "smoke"),
        default="full",
        help="'smoke' runs the same flows on tiny inputs, for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as f:
        paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_facts() -> dict:
    """What the numbers depend on, as found (the benchmark sets none of it)."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {name: os.environ.get(name) for name in thread_vars},
        "start_method": multiprocessing.get_start_method(),
    }


def declared_metrics() -> dict[str, list[dict]]:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        harness.require_source()
        declared = declared_metrics()
        print(json.dumps({"host": host_facts()}), flush=True)
        module = importlib.import_module(f"perfbench.{args.workload}")
        start = time.perf_counter()
        with harness.work_dir(args.workload) as work:
            summary = module.run(args, work)
    except (harness.BenchError, OSError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    kind = "per_layer" if args.trace else "end_to_end"
    values = summary[kind]
    names = {m["name"] for m in declared[kind]}
    unknown = sorted(set(values) - names)
    missing = sorted(names - set(values))
    if unknown or (missing and kind == "end_to_end"):
        problem = unknown or missing
        print(f"perfbench: metrics {problem} not declared or not measured", file=sys.stderr)
        return 2
    # A layer this workload never calls reads 0.
    values = {name: values.get(name, 0.0) for name in names}
    for error in summary["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "rounds": summary["rounds"],
                "elapsed_s": round(time.perf_counter() - start, 3),
                "end_to_end": summary["end_to_end"],
                "reference": summary.get("reference", {}),
            }
        ),
        flush=True,
    )
    correct = not summary["errors"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared[kind]
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
