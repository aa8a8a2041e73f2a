"""Small-size self-test of the benchmark.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that ``BENCHMARK.json`` and the metric catalogue agree, that every
workload at a small size emits every metric with its unit in both modes,
that the layer timers account for the timed pass, and that each output check
fires when handed a tampered result.  Exits 1 on the first failed section.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.run import ROOT, load_repro, result_for  # noqa: E402

load_repro()

import repro.cluster.scenarios as cluster_scenarios  # noqa: E402
from repro.cluster.simulator import ClusterResult  # noqa: E402

from perfbench import checks, workloads  # noqa: E402
from perfbench.catalog import END_TO_END, PER_LAYER, SELF_TIMED_LAYERS  # noqa: E402
from perfbench.catalog import WORKLOADS as CATALOG_WORKLOADS  # noqa: E402
from perfbench.workloads import SMALL, WORKLOADS, Run  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        FAILURES.append(message)


def small_run(trace: bool) -> Run:
    return Run(seed=3, seconds=0.0, trace=trace, root=ROOT, sizes=SMALL)


def check_benchmark_json() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    expect(
        [w["name"] for w in spec["workloads"]] == list(CATALOG_WORKLOADS),
        "BENCHMARK.json workloads differ from the catalogue",
    )
    expect(sorted(WORKLOADS) == sorted(CATALOG_WORKLOADS), "workload table differs")
    for key, catalogue in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        expected = [(m.name, m.unit, m.better) for m in catalogue]
        expect(listed == expected, f"BENCHMARK.json {key} differs from the catalogue")


def patched_entry_points() -> list:
    """A sample of the entry points the layer timers patch, for a restore check."""
    import repro.api.service as api_service
    import repro.serve.batching as serve_batching
    from repro.api.service import Session
    from repro.cluster.router import LeastLoadedRouter
    from repro.serve.engine import EngineCore

    return [
        vars(Session)["compile"],
        vars(EngineCore)["start_iteration"],
        vars(LeastLoadedRouter)["choose"],
        serve_batching.simulate_system,
        api_service.build_operator_profiles,
    ]


def check_emission() -> None:
    originals = patched_entry_points()
    for name in WORKLOADS:
        for trace, catalogue in ((False, END_TO_END), (True, PER_LAYER)):
            run = small_run(trace)
            result = result_for(name, run)
            label = f"{name} trace={int(trace)}"
            expect(result["correct"], f"{label}: not correct: {run.problems}")
            expect(result["attempted"] >= 1, f"{label}: nothing attempted")
            metrics = result["metrics"]
            expect(
                list(metrics) == [m.name for m in catalogue],
                f"{label}: metric names differ from the catalogue",
            )
            for metric in catalogue:
                entry = metrics.get(metric.name, {})
                value = entry.get("value")
                expect(entry.get("unit") == metric.unit, f"{label}: {metric.name} unit")
                expect(
                    isinstance(value, float) and math.isfinite(value),
                    f"{label}: {metric.name} = {value!r}",
                )
                if not trace:
                    expect(value != 0.0, f"{label}: {metric.name} reads 0")
                elif name not in metric.workloads:
                    expect(value == 0.0, f"{label}: {metric.name} outside its layer")
            if trace:
                check_attribution(label, metrics)
            expect(patched_entry_points() == originals, f"{label}: timers left behind")


def check_attribution(label: str, metrics: dict) -> None:
    """Layer self times account for the layer-timed pass."""
    layers = sum(
        metrics[f"{layer}.self_s" if layer != "sim" else "sim.s"]["value"]
        for layer in SELF_TIMED_LAYERS
    )
    unattributed = metrics["bench.self_s"]["value"]
    overhead = metrics["bench.wrap_overhead_x"]["value"]
    expect(layers > 0, f"{label}: no layer self time")
    expect(
        -1e-6 <= unattributed <= 0.1 * (layers + unattributed),
        f"{label}: {unattributed} s of the pass fall outside every layer",
    )
    expect(overhead > 0.5, f"{label}: wrap overhead {overhead}")


def check_tampered_outputs() -> None:
    expect(checks.plans_within_roofline([("m", 1.0, 0.9)]), "plan beating the roofline")
    expect(not checks.plans_within_roofline([("m", 1.0, 1.0)]), "plan at the roofline")
    expect(checks.all_completed(9, 10), "missing completion")
    expect(not checks.all_completed(10, 10), "all completed")
    expect(checks.compiled_nothing(3, 4, "warm"), "warm pass that compiled")
    expect(checks.chrome_trace_parses("{"), "truncated Chrome trace")
    expect(checks.chrome_trace_parses('{"traceEvents": []}'), "empty Chrome trace")
    cold, restart = [("a",), ("b",)], [("b",), ("c",)]
    expect(checks.restart_served_from_store(cold, cold, 1, 2), "restart that compiled")
    expect(checks.restart_served_from_store(cold, cold, 0, 1), "restart missing a hit")
    expect(checks.restart_served_from_store(cold, restart, 0, 1), "new shape not compiled")
    expect(not checks.restart_served_from_store(cold, cold, 0, 2), "clean restart")
    expect(not checks.restart_served_from_store(cold, restart, 1, 1), "diverged restart")
    expect(checks.same_outputs((1, 2.0), (1, 2.5), "x"), "changed simulated outputs")

    fleet = cluster_scenarios.simulate_cluster_scenario(
        "cluster-chaos-crashes", num_requests=24, seed=3
    )
    expect(not checks.accounting_balanced(fleet), "balanced fleet")
    unbalanced = dataclasses.replace(fleet, num_arrivals=fleet.num_arrivals + 1)
    expect(checks.accounting_balanced(unbalanced), "unbalanced fleet accounting")
    expect(checks.summary_mismatch(fleet, fleet) == 0, "identical runs mismatch")

    run = small_run(False)
    run.verify(["tampered"])
    expect(run.failed == 1, "Run.verify does not count a failed check")


def check_tampered_runs() -> None:
    """End to end: a tampered result makes the run report incorrect."""
    original = workloads.simulate
    workloads.simulate = lambda artifact: original(artifact) * 0.1
    try:
        zoo = result_for("compile-zoo", small_run(False))
    finally:
        workloads.simulate = original
    expect(not zoo["correct"] and zoo["failed"] >= 1, "compile-zoo beating the roofline")

    balanced = vars(ClusterResult)["accounting_balanced"]
    ClusterResult.accounting_balanced = property(lambda self: False)
    try:
        fleet = result_for("fleet-chaos", small_run(False))
    finally:
        ClusterResult.accounting_balanced = balanced
    expect(not fleet["correct"] and fleet["failed"] >= 1, "fleet-chaos unbalanced")


def main() -> int:
    for section in (
        check_benchmark_json,
        check_tampered_outputs,
        check_emission,
        check_tampered_runs,
    ):
        section()
        if FAILURES:
            print(f"selftest: {section.__name__} failed:", file=sys.stderr)
            for failure in FAILURES:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"selftest: {section.__name__} ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
