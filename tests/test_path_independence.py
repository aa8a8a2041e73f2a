"""One number per question, whichever path answers it.

Every registered scenario is served twice per property, and the two runs
must agree bit for bit:

* **cold store vs warm store** — a store hit carries the simulated step the
  fresh compile recorded, so a restart on a populated store serves with the
  same step latencies under the default ``use_simulator=True``;
* **prewarm vs lazy** — prewarm compiles only bucket shapes the batcher can
  form, so it never hits a shape that cannot compile, and serving after it
  is the lazy run's.
"""

from __future__ import annotations

import pytest

from repro import (
    ArtifactStore,
    available_scenarios,
    make_serving_session,
    simulate_cluster_scenario,
    simulate_scenario,
)

NUM_REQUESTS = 24
#: Simulated-clock outputs a fleet run must repeat.  ``store_hits`` is left
#: out: it counts how the warm run resolved its plans, which is the point.
CLUSTER_FIELDS = (
    "records", "busy_time", "num_iterations", "compiled_shapes", "router",
    "engines", "scale_events", "rejected", "failed", "availability",
)
SERVING_FIELDS = ("records", "busy_time", "num_iterations", "compiled_shapes")


def outputs(result, fields) -> tuple:
    return tuple(getattr(result, name) for name in fields)


@pytest.mark.parametrize("scenario", available_scenarios())
def test_cold_and_warm_store_serve_identically(scenario, tmp_path):
    root = str(tmp_path / "store")
    for simulate, fields in (
        (simulate_scenario, SERVING_FIELDS),
        (simulate_cluster_scenario, CLUSTER_FIELDS),
    ):
        runs = []
        for _ in ("cold", "warm"):
            session = make_serving_session(store=ArtifactStore(root))
            result = simulate(
                scenario, num_requests=NUM_REQUESTS, seed=0, session=session
            )
            runs.append((outputs(result, fields), result.metrics(), session.stats))
        (cold, cold_metrics, _), (warm, warm_metrics, warm_stats) = runs
        assert warm_stats.store_hits > 0, simulate.__name__
        assert warm == cold, simulate.__name__
        assert warm_metrics == cold_metrics, simulate.__name__


@pytest.fixture(scope="module")
def session():
    return make_serving_session()


@pytest.mark.parametrize("scenario", available_scenarios())
def test_prewarm_serves_like_lazy(scenario, session):
    lazy, prewarmed = (
        simulate_cluster_scenario(
            scenario,
            num_requests=NUM_REQUESTS,
            seed=0,
            session=session,
            prewarm=prewarm,
        )
        for prewarm in (False, True)
    )
    if scenario == "cluster-chaos-crashes":
        # Its compile-failure fault fires on a latency-cache miss, and
        # prewarm leaves none; only the accounting has to hold.
        assert lazy.accounting_balanced and prewarmed.accounting_balanced
    else:
        assert prewarmed.records == lazy.records
    assert set(lazy.compiled_shapes) <= set(prewarmed.compiled_shapes)
