#!/usr/bin/env python3
"""Design-space exploration of ICCA chips with Elk (§6.4).

Sweeps (1) HBM bandwidth, (2) interconnect bandwidth, and (3) the network
topology for an LLM decoding workload, and prints which resource bounds
each design point — reproducing the paper's §6.4 insights: HBM bandwidth
helps decode until the interconnect becomes the bottleneck, and the two
must scale together.

The HBM-bandwidth sweep (insight 1) is a ``compile-grid`` sweep spec: the
``ipu-pod4`` preset with its HBM bandwidth as an axis, checked in as
``examples/sweeps/dse_hbm_bandwidth.json`` for the CLI
(``python -m repro.sweep run examples/sweeps/dse_hbm_bandwidth.json``).
Insights 2 and 3 stay on :class:`~repro.dse.DesignSpaceExplorer`, which
builds the same systems (:meth:`~repro.dse.DesignPoint.build_system`) and
names the same bottleneck (:func:`~repro.dse.bottleneck`); one compile
session is shared across all three studies.

Run with::

    python examples/design_space_exploration.py
"""

from __future__ import annotations

from repro.arch.interconnect import ALL_TO_ALL, MESH_2D
from repro.compiler import WorkloadSpec
from repro.dse import DesignPoint, DesignSpaceExplorer
from repro.eval import ExperimentConfig
from repro.sweep import SweepSpec, run_sweep
from repro.units import TB

HBM_SWEEP = SweepSpec(
    name="dse_hbm_bandwidth",
    adapter="compile-grid",
    description="Insight 1: diminishing returns as HBM bandwidth grows",
    axes={"hbm_bandwidth_tbps": (4.0, 8.0, 16.0, 32.0)},
    fixed={
        "system": "ipu-pod4",
        "model": "llama2-13b",
        "num_layers": 2,
        "batch_size": 32,
        "seq_len": 2048,
        "max_order_candidates": 8,
    },
)


def main() -> None:
    workload = WorkloadSpec("llama2-13b", batch_size=32, seq_len=2048, num_layers=2)
    config = ExperimentConfig(num_layers=2, max_order_candidates=8)
    explorer = DesignSpaceExplorer(workload, config)

    print("== Insight 1: HBM bandwidth sweep (all-to-all NoC) ==")
    # The declarative route: one spec, one run, rows out — through the same
    # session the explorer below keeps using.
    sweep = run_sweep(HBM_SWEEP, session=explorer.session)
    for row in sweep.rows:
        print(
            f"  HBM {row['hbm_bandwidth_tbps']:5.1f} TB/s -> "
            f"latency {row['latency_ms']:6.3f} ms, "
            f"HBM util {row['hbm_utilization']:.2f}, NoC util {row['noc_utilization']:.2f}, "
            f"bottleneck: {row['bottleneck']}"
        )
    hbm_results = [
        explorer.evaluate_point(
            DesignPoint(hbm_bandwidth=row["hbm_bandwidth_tbps"] * TB)
        )
        for row in sweep.rows
    ]
    print(f"  diminishing returns observed: {DesignSpaceExplorer.diminishing_returns(hbm_results)}")

    print("\n== Insight 2: interconnect and HBM bandwidth must scale together ==")
    for noc in (24 * TB, 48 * TB):
        for hbm in (8 * TB, 16 * TB):
            result = explorer.evaluate_point(
                DesignPoint(hbm_bandwidth=hbm, noc_bandwidth=noc)
            )
            print(
                f"  NoC {noc / 1e12:5.1f} TB/s, HBM {hbm / 1e12:5.1f} TB/s -> "
                f"latency {result.latency * 1e3:6.3f} ms ({result.bottleneck}-bound)"
            )

    print("\n== Topology comparison at 16 TB/s HBM ==")
    for topology in (ALL_TO_ALL, MESH_2D):
        result = explorer.evaluate_point(DesignPoint(topology=topology))
        print(
            f"  {topology:10s}: latency {result.latency * 1e3:6.3f} ms, "
            f"NoC util {result.noc_utilization:.2f}"
        )


if __name__ == "__main__":
    main()
