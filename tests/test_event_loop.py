"""The one discrete-event serving loop, pinned from both of its entry points.

``ServingSimulator`` (one engine) and ``ClusterSimulator`` (a fleet) drive
the same event loop in :mod:`repro.serve.simulator`.  Two kinds of tests pin
that down:

* **Golden digests.**  ``tests/data/event_loop_golden.json`` holds SHA-256
  digests of every registered scenario run through ``simulate_scenario``
  and ``simulate_cluster_scenario`` (records, busy time, iteration count,
  and every fleet field), plus one traced JSONL export per entry point.  Any
  change to same-seed outputs fails here.  Regenerate only for an
  intended behaviour change::

      PYTHONPATH=src python tests/test_event_loop.py --regenerate

* **A Hypothesis differential test** over random traces (arrival-time ties,
  mixed LLM/DiT requests, several tenants): a one-engine fleet under every
  registered router equals the single-engine simulator, traced exports
  included.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ArrivalTrace,
    BatchBuckets,
    ClusterSimulator,
    RequestSpec,
    ServingResult,
    ServingSimulator,
    StepLatencyModel,
    available_routers,
    available_scenarios,
    make_serving_session,
    scaled_system,
    simulate_cluster_scenario,
    simulate_scenario,
)
from repro.obs import Tracer, to_jsonl

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "event_loop_golden.json")
SEEDS = (0, 1)
NUM_REQUESTS = 48
RUN_KWARGS = dict(policy="basic", num_requests=NUM_REQUESTS, use_simulator=False)
SERVING_FIELDS = ("records", "busy_time", "num_iterations", "compiled_shapes")
CLUSTER_FIELDS = SERVING_FIELDS + (
    "router",
    "engines",
    "scale_events",
    "rejected",
    "failed",
    "num_arrivals",
    "availability",
    "store_hits",
)
TRACED = {"serving": "mixed-traffic", "cluster": "cluster-chaos-crashes"}


def digest(value) -> str:
    """SHA-256 of ``repr(value)`` (float reprs round-trip exactly)."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


def result_digests(result, fields) -> dict[str, str]:
    return {name: digest(getattr(result, name)) for name in fields}


def run_entry(entry: str, scenario: str, seed: int, session, tracer=None):
    simulate = simulate_scenario if entry == "serving" else simulate_cluster_scenario
    return simulate(scenario, seed=seed, session=session, tracer=tracer, **RUN_KWARGS)


def compute_golden() -> dict:
    """Digests of every scenario × seed through both entry points, plus traces."""
    session = make_serving_session()
    runs = {}
    for scenario in available_scenarios():
        for seed in SEEDS:
            serving = run_entry("serving", scenario, seed, session)
            cluster = run_entry("cluster", scenario, seed, session)
            runs[f"{scenario}/{seed}"] = {
                "serving": result_digests(serving, SERVING_FIELDS),
                "cluster": result_digests(cluster, CLUSTER_FIELDS),
            }
    traces = {}
    for entry, scenario in TRACED.items():
        tracer = Tracer()
        run_entry(entry, scenario, 0, make_serving_session(), tracer=tracer)
        traces[entry] = hashlib.sha256(to_jsonl(tracer).encode()).hexdigest()
    return {"num_requests": NUM_REQUESTS, "seeds": list(SEEDS), "runs": runs,
            "traces": traces}


# --------------------------------------------------------------------------- #
# Golden same-seed digests, both entry points
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def computed() -> dict:
    return compute_golden()


def test_golden_covers_every_registered_scenario(golden):
    assert golden["num_requests"] == NUM_REQUESTS
    assert golden["seeds"] == list(SEEDS)
    assert sorted(golden["runs"]) == sorted(
        f"{scenario}/{seed}" for scenario in available_scenarios() for seed in SEEDS
    )


@pytest.mark.parametrize("scenario", available_scenarios())
def test_same_seed_outputs_match_golden(scenario, golden, computed):
    for seed in SEEDS:
        key = f"{scenario}/{seed}"
        for entry, fields in computed["runs"][key].items():
            expected = golden["runs"][key][entry]
            changed = sorted(name for name in fields if fields[name] != expected[name])
            assert not changed, f"{key} via {entry}: {changed} changed"


def test_traced_exports_match_golden(golden, computed):
    assert computed["traces"] == golden["traces"]


# --------------------------------------------------------------------------- #
# Differential: a one-engine fleet is the single-engine simulator
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def latency_model() -> StepLatencyModel:
    return StepLatencyModel(
        make_serving_session(),
        scaled_system(num_cores=32, num_chips=1),
        "basic",
        buckets=BatchBuckets(batch_sizes=(1, 2, 4, 8), context_buckets=(256, 512)),
        use_simulator=False,
    )


@st.composite
def traces(draw) -> ArrivalTrace:
    """Short traces with arrival-time ties, LLM and DiT requests, 3 tenants."""
    # Arrivals on a coarse grid, so several requests often share a time.
    ticks = sorted(draw(st.lists(st.integers(0, 12), min_size=1, max_size=24)))
    requests = []
    for request_id, tick in enumerate(ticks):
        tenant = draw(st.sampled_from(("a", "b", "c")))
        if draw(st.booleans()):
            spec = RequestSpec(
                request_id,
                tick * 2e-4,
                "tiny-llm",
                prefill_tokens=draw(st.integers(8, 256)),
                decode_tokens=draw(st.integers(1, 24)),
                tenant=tenant,
            )
        else:
            spec = RequestSpec(
                request_id,
                tick * 2e-4,
                "tiny-dit",
                denoise_steps=draw(st.integers(1, 8)),
                tenant=tenant,
            )
        requests.append(spec)
    return ArrivalTrace("random", tuple(requests))


def serving_fields(result: ServingResult) -> tuple:
    return tuple(getattr(result, name) for name in ("trace_name", "policy") + SERVING_FIELDS)


@settings(max_examples=30, deadline=None)
@given(trace=traces())
def test_one_engine_fleet_equals_single_engine(latency_model, trace):
    solo_tracer = Tracer()
    solo = ServingSimulator(latency_model, tracer=solo_tracer).run(trace)
    assert type(solo) is ServingResult
    for router in available_routers():
        fleet_tracer = Tracer()
        fleet = ClusterSimulator(
            latency_model, num_engines=1, router=router, tracer=fleet_tracer
        ).run(trace)
        assert serving_fields(fleet) == serving_fields(solo), router
        assert to_jsonl(fleet_tracer) == to_jsonl(solo_tracer), router


if __name__ == "__main__" and "--regenerate" in sys.argv:
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(compute_golden(), handle, indent=1, sort_keys=True)
        handle.write("\n")
