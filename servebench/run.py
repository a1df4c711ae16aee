"""Serving benchmark for the CryptoPIM reproduction.

Drives ``repro.serve.CryptoPimService`` with one of three workloads,
checks every served value, and prints each metric with its unit and
sample count.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Usage, from the repository root::

    python3 servebench/run.py --workload pk-closed --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
traced, layer-timed variant and prints the per-layer metrics.  The exit
code is 0 when every served value was correct, 1 when one was wrong, and
2 for a usage error.  BLAS/OpenMP thread pools are capped at the number
of cores before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def cap_threads() -> int:
    """Cap every BLAS/OpenMP pool at the usable core count."""
    cores = len(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity") else (os.cpu_count() or 1)
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 0 < int(value) <= cores:
            os.environ[var] = str(cores)
    return cores


def environment(cores: int) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "cores": cores,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def parse(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pk-closed", "he-closed", "fleet-open"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list) -> int:
    args = parse(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    cores = cap_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from bench import measure  # after the caps: numpy reads them on import

    env = environment(cores)
    outcome = measure(args.workload, args.seed, args.seconds,
                      trace=bool(args.trace))
    print(f"servebench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print("samples " + json.dumps(outcome.samples, sort_keys=True))
    print("slice_rps " + " ".join(f"{x:.1f}" for x in outcome.slice_rps))
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:32s} {value:16.6f} {unit}")
    if outcome.trace_doc is not None:
        out = ROOT / ".servebench"
        out.mkdir(exist_ok=True)
        path = out / f"{args.workload}-seed{args.seed}.trace.json"
        path.write_text(json.dumps(outcome.trace_doc, default=str))
        print(f"trace written to {path.relative_to(ROOT)}")
    if not outcome.correct:
        print(f"{outcome.wrong} served values were wrong", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
