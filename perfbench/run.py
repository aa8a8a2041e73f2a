"""Benchmark entry point.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-chat-warm --seed 1 --seconds 12 --trace 0

Prints progress to stderr and, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Exits non-zero
without printing a result when the repository sources are missing or a
workload cannot produce its metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_repro() -> None:
    """Put this checkout's ``src`` first on the path and import ``repro`` from it."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, ROOT]
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")


def result_for(workload: str, run) -> dict:
    """Run ``workload`` and build the result object; raises if it cannot report."""
    from perfbench.catalog import END_TO_END, PER_LAYER, UNITS
    from perfbench.workloads import WORKLOADS, per_layer_defaults

    values = WORKLOADS[workload](run)
    if run.trace:
        values = {**per_layer_defaults(), **values}
        names = [metric.name for metric in PER_LAYER]
    else:
        names = [metric.name for metric in END_TO_END]
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": UNITS[name]} for name in names
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_repro()
    except ImportError as error:
        print(f"perfbench: cannot import the repository sources: {error}", file=sys.stderr)
        return 2

    from perfbench.workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    run = Run(seed=args.seed, seconds=args.seconds, trace=bool(args.trace), root=ROOT)
    started = time.perf_counter()
    try:
        result = result_for(args.workload, run)
    except Exception as error:  # no metrics to report: fail the run
        print(f"perfbench: {args.workload} failed: {error!r}", file=sys.stderr)
        result = None
    for problem in run.problems:
        print(f"perfbench: failed operation: {problem}", file=sys.stderr)
    if result is None:
        return 1
    print(
        f"perfbench: {args.workload} seed {args.seed} done in "
        f"{time.perf_counter() - started:.1f} s",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
