#!/usr/bin/env python3
"""LLM serving: compare the designs across models and batch sizes (Fig. 17 style).

Runs the Fig. 17 sweep spec (``examples/sweeps/fig17_end_to_end.json``): two
representative decoder layers of each LLM from the paper's evaluation
(Llama2-13B, Gemma2-27B, OPT-30B, Llama2-70B) compiled for the
IPU-POD4-like system at several batch sizes, every design evaluated with the
event-driven simulator.  Prints the per-token latency table plus Elk-Full's
speedups.  The same grid runs from the CLI::

    python -m repro.sweep run examples/sweeps/fig17_end_to_end.json

Run with::

    python examples/llm_serving_latency.py
"""

from __future__ import annotations

import os
from collections import defaultdict

from repro.eval import geometric_mean
from repro.sweep import SweepSpec, run_sweep

SPEC_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "sweeps", "fig17_end_to_end.json"
)


def main() -> None:
    result = run_sweep(SweepSpec.load(SPEC_PATH))
    print(result.table())

    # Summarize Elk-Full against every other design.
    latencies: dict[tuple, dict[str, float]] = defaultdict(dict)
    for row in result.rows:
        if "latency_ms" in row:
            latencies[(row["model"], row["batch_size"])][row["policy"]] = row["latency_ms"]
    print("\nElk-Full speedups (geometric mean across workloads):")
    for policy in ("basic", "static", "elk-dyn"):
        ratios = [
            values[policy] / values["elk-full"]
            for values in latencies.values()
            if policy in values and "elk-full" in values
        ]
        print(f"  vs {policy:8s}: {geometric_mean(ratios):.2f}x")
    fractions = [
        values["ideal"] / values["elk-full"]
        for values in latencies.values()
        if "ideal" in values and "elk-full" in values
    ]
    print(f"  fraction of the Ideal roofline: {geometric_mean(fractions) * 100:.1f}%")


if __name__ == "__main__":
    main()
