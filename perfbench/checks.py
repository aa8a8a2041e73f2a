"""Output checks: each returns a list of problems, empty when the output is right.

They take plain values or the repo's result objects, so the self-test can
hand them tampered results and see them fire.
"""

from __future__ import annotations

import json
from typing import Any, Sequence


def plans_within_roofline(rows: Sequence[tuple[str, float, float]]) -> list[str]:
    """Every elk-full plan simulates at or above its ideal latency.

    ``rows`` are ``(label, ideal_latency, simulated_latency)``.
    """
    return [
        f"{label}: simulated {simulated!r} s beats the ideal roofline {ideal!r} s"
        for label, ideal, simulated in rows
        if not simulated >= ideal
    ]


def all_completed(completed: int, arrivals: int) -> list[str]:
    """A single engine completes every arrival."""
    if completed != arrivals:
        return [f"{completed} requests completed of {arrivals} arrivals"]
    return []


def compiled_nothing(compiles_before: int, compiles_after: int, label: str) -> list[str]:
    """A warm pass adds no fresh compile to its session."""
    if compiles_after != compiles_before:
        return [f"{label} compiled {compiles_after - compiles_before} plans"]
    return []


def accounting_balanced(result: Any) -> list[str]:
    """A fleet run places every arrival: completed + rejected + failed."""
    if not result.accounting_balanced:
        return [f"fleet accounting does not balance: {result.accounting()}"]
    return []


def chrome_trace_parses(text: str) -> list[str]:
    """The exported Chrome trace is JSON with a non-empty event list."""
    try:
        events = json.loads(text)["traceEvents"]
    except (ValueError, KeyError, TypeError) as error:
        return [f"Chrome trace does not parse: {error}"]
    if not isinstance(events, list) or not events:
        return ["Chrome trace holds no events"]
    return []


def restart_served_from_store(
    cold_shapes: Sequence[tuple],
    restart_shapes: Sequence[tuple],
    restart_compiles: int,
    restart_store_hits: int,
) -> list[str]:
    """The restart pass reads every plan the cold pass wrote from the store.

    It compiles nothing the cold pass compiled and hits the store once per
    such shape.  The restart path can request different bucket shapes than
    the cold one (ROADMAP defect (b): store hits carry no plan, so step
    latencies change); shapes the cold pass never compiled must then compile
    fresh.  That divergence is reported as ``api.shape_mismatch`` and
    ``api.path_mismatch``, not failed here.
    """
    shared = len(set(restart_shapes) & set(cold_shapes))
    fresh = len(set(restart_shapes) - set(cold_shapes))
    problems = []
    if restart_store_hits != shared:
        problems.append(
            f"restart pass hit the store {restart_store_hits} times for "
            f"{shared} shapes the cold pass compiled"
        )
    if restart_compiles != fresh:
        problems.append(
            f"restart pass compiled {restart_compiles} plans, "
            f"{fresh} of its shapes were new"
        )
    return problems


def same_outputs(reference: Any, other: Any, label: str) -> list[str]:
    """Simulated outputs repeat exactly (across repeats, traced or not)."""
    if other != reference:
        return [f"{label}: simulated outputs differ from the first pass"]
    return []


def serving_outputs(result: Any) -> tuple:
    """The simulated-clock outputs of a serving or fleet pass, for comparison."""
    return (
        tuple(sorted(result.metrics().summary().items())),
        result.num_iterations,
        result.busy_time,
    )


def summary_mismatch(first: Any, second: Any) -> int:
    """Count of ``ServingMetrics.summary()`` fields that differ between two runs."""
    a, b = first.metrics().summary(), second.metrics().summary()
    return sum(1 for key in a if a[key] != b.get(key))
