"""The benchmark's metric catalogue: unit, direction, layer and expected effect.

``BENCHMARK.json`` carries only each metric's name, unit, direction and (for
end-to-end metrics) regression bound.  This module is the fuller record: the
layer a metric belongs to, what it measures, and which end-to-end metric it
should move on which workload.  ``selftest.py`` checks that the two agree and
that a run emits every metric with the unit listed here.

Host times are nominal seconds (see ``timing.py``).  ``sim_*`` values are
simulated time, which is deterministic for a seed.  The simulator is not
validated against hardware: plan quality is relative to the repo's own
roofline, and the paper's 94%-of-ideal is context, not a reference.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("compile-zoo", "serve-chat-warm", "fleet-chaos", "serve-mixed-store")
SERVING = WORKLOADS[1:]
FLEET = ("fleet-chaos",)
STORE = ("serve-mixed-store",)


@dataclass(frozen=True)
class Metric:
    """One reported metric.

    Attributes:
        name: Metric name, as printed.
        unit: Unit, as printed.
        better: ``"lower"`` or ``"higher"``.
        layer: Repo module it belongs to (``"end_to_end"`` or ``"bench"`` for
            the benchmark's own numbers).
        workloads: Workloads on which the layer runs and the value is
            meaningful; elsewhere a per-layer metric reads 0.
        moves: End-to-end metric this one should move (empty for end-to-end
            metrics themselves).
        doc: What is measured.
    """

    name: str
    unit: str
    better: str
    layer: str
    workloads: tuple[str, ...]
    moves: str
    doc: str


def _m(name, unit, better, layer, workloads, moves, doc):
    return Metric(name, unit, better, layer, tuple(workloads), moves, doc)


END_TO_END = (
    _m("setup_s", "s", "lower", "end_to_end", WORKLOADS, "",
       "imports (fresh interpreter), session construction and, on the "
       "serving workloads, the warm-up pass; median of three set-ups"),
    _m("host_us_per_req", "us", "lower", "end_to_end", WORKLOADS, "",
       "host time per request of the measured passes: a CompileRequest on "
       "compile-zoo (its plan simulation included), a warm serving request "
       "elsewhere (the untraced fleet pass on fleet-chaos, the store-restart "
       "pass on serve-mixed-store less any fresh compile it needs, which is "
       "api.restart_compile_s); median over passes"),
    _m("compile_s_per_layer", "s", "lower", "end_to_end", WORKLOADS, "",
       "host seconds of each fresh elk-full compile (frontend, partition "
       "enumeration, scheduling) divided by the layers compiled: the zoo "
       "models on compile-zoo, the serving bucket plans of the warm-up or "
       "cold pass elsewhere"),
    _m("plan_roofline_frac", "ratio", "higher", "end_to_end", WORKLOADS, "",
       "geometric mean of ideal-roofline latency / simulated elk-full latency "
       "over the workload's compiled plans"),
    _m("peak_rss_mb", "MB", "lower", "end_to_end", WORKLOADS, "",
       "peak resident memory of the benchmark process over set-up and the "
       "measured passes"),
)

_C = "compile_s_per_layer"
_H = "host_us_per_req"

PER_LAYER = (
    # compiler
    _m("compiler.frontend_s", "s", "lower", "compiler", WORKLOADS, _C,
       "build_frontend_result time (graph build and sharding)"),
    _m("compiler.self_s", "s", "lower", "compiler", WORKLOADS, _C,
       "compiler self time: frontend plus ModelCompiler.compile outside "
       "scheduling (policy dispatch, ideal roofline, packaging)"),
    # partition
    _m("partition.enumerate_s", "s", "lower", "partition", WORKLOADS, _C,
       "build_operator_profiles time: plan enumeration, costing, Pareto "
       "filtering (mainly llama2-70b on compile-zoo; also the cold pass)"),
    _m("partition.profiles", "count", "lower", "partition", WORKLOADS, _C,
       "operator profiles built"),
    _m("partition.plans", "count", "lower", "partition", WORKLOADS, _C,
       "execute plans enumerated"),
    _m("partition.self_s", "s", "lower", "partition", WORKLOADS, _C,
       "partition self time"),
    # scheduler
    _m("scheduler.schedule_s", "s", "lower", "scheduler", WORKLOADS, _C,
       "InductiveScheduler.schedule time (mainly gemma2-27b on compile-zoo); "
       "also moves plan_roofline_frac"),
    _m("scheduler.orders", "count", "lower", "scheduler", WORKLOADS, _C,
       "InductiveScheduler.schedule calls (candidate preload orders tried)"),
    _m("scheduler.timeline_s", "s", "lower", "scheduler", WORKLOADS, _C,
       "TimelineEvaluator.evaluate time; also moves plan_roofline_frac"),
    _m("scheduler.self_s", "s", "lower", "scheduler", WORKLOADS, _C,
       "scheduler self time, order generation included"),
    # sim
    _m("sim.calls", "count", "lower", "sim", WORKLOADS, _C,
       "simulate_system calls"),
    _m("sim.s", "s", "lower", "sim", WORKLOADS, _C,
       "simulate_system time (cold pass on serve-mixed-store; small on "
       "compile-zoo)"),
    # api
    _m("api.compile_calls", "count", "lower", "api", WORKLOADS, _C,
       "Session.compile calls"),
    _m("api.compile_s", "s", "lower", "api", WORKLOADS, _C,
       "Session.compile time, compile stages included"),
    _m("api.hit_ratio", "ratio", "higher", "api", WORKLOADS, _H,
       "share of Session.compile calls answered without compiling"),
    _m("api.store_get_s", "s", "lower", "api", STORE, _H,
       "ArtifactStore.get time (restart pass on serve-mixed-store)"),
    _m("api.store_put_s", "s", "lower", "api", STORE, _C,
       "ArtifactStore.put time (cold pass on serve-mixed-store)"),
    _m("api.store_hits", "count", "higher", "api", STORE, _H,
       "ArtifactStore.get calls that found an entry"),
    _m("api.store_bytes", "bytes", "lower", "api", STORE, _H,
       "bytes ArtifactStore.put wrote"),
    _m("api.self_s", "s", "lower", "api", WORKLOADS, _H,
       "api self time: Session bookkeeping, store reads and writes"),
    _m("api.cold_pass_s", "s", "lower", "api", STORE, _C,
       "host seconds of the cold serve-mixed-store pass (compile and put)"),
    _m("api.restart_pass_s", "s", "lower", "api", STORE, _H,
       "host seconds of the restart pass (fresh Session, store reads)"),
    _m("api.restart_compile_s", "s", "lower", "api", STORE, _H,
       "fresh compiles inside the restart pass: shapes its diverged path "
       "reaches that the cold pass never compiled (0 on most seeds)"),
    _m("api.path_mismatch", "count", "lower", "api", STORE, _H,
       "ServingMetrics.summary() fields that differ between the cold and "
       "restart passes (ROADMAP defect (b); reported, never asserted zero)"),
    _m("api.shape_mismatch", "count", "lower", "api", STORE, _H,
       "bucket shapes requested by only one of the cold and restart passes "
       "(the same defect, seen as a different compiled-shape set)"),
    # serve
    _m("serve.iterations", "count", "lower", "serve", SERVING, _H,
       "engine iterations started (EngineCore.start_iteration)"),
    _m("serve.iter_us", "us", "lower", "serve", SERVING, _H,
       "untraced host time of a pass per engine iteration"),
    _m("serve.form_batch_s", "s", "lower", "serve", SERVING, _H,
       "ContinuousBatcher.form_batch time"),
    _m("serve.complete_step_s", "s", "lower", "serve", SERVING, _H,
       "ContinuousBatcher.complete_step time"),
    _m("serve.lookup_s", "s", "lower", "serve", SERVING, _H,
       "StepLatencyModel step-latency lookup self time (the compiles and "
       "simulations a miss triggers excluded)"),
    _m("serve.lookup_hit_ratio", "ratio", "higher", "serve", SERVING, _H,
       "share of step-latency lookups served from the latency cache"),
    _m("serve.batch_mean", "requests", "higher", "serve", SERVING, _H,
       "mean requests per engine iteration"),
    _m("serve.metrics_s", "s", "lower", "serve", SERVING, _H,
       "compute_metrics time"),
    _m("serve.loop_self_s", "s", "lower", "serve", SERVING, _H,
       "self time of the single-engine event loop (ServingSimulator.run)"),
    _m("serve.self_s", "s", "lower", "serve", SERVING, _H,
       "serve self time, trace generation and engine stepping included"),
    _m("serve.sim_ttft_p95_ms", "ms", "lower", "serve", SERVING, _H,
       "simulated time-to-first-token p95"),
    _m("serve.sim_slo_attain", "ratio", "higher", "serve", SERVING, _H,
       "share of arrivals meeting the scenario SLO; failed or rejected "
       "requests count as misses"),
    # cluster
    _m("cluster.route_calls", "count", "lower", "cluster", FLEET, _H,
       "RouterPolicy.choose calls"),
    _m("cluster.route_s", "s", "lower", "cluster", FLEET, _H,
       "RouterPolicy.choose time"),
    _m("cluster.autoscale_s", "s", "lower", "cluster", FLEET, _H,
       "Autoscaler.decide time"),
    _m("cluster.scale_events", "count", "lower", "cluster", FLEET, _H,
       "scale events (add, drain, remove, crash)"),
    _m("cluster.retries", "count", "lower", "cluster", FLEET, _H,
       "crash-lost requests granted another attempt"),
    _m("cluster.requeues", "count", "lower", "cluster", FLEET, _H,
       "re-dispatches through the router"),
    _m("cluster.fallback_serves", "count", "lower", "cluster", FLEET, _H,
       "lookups served from the closest compiled plan after a compile fault"),
    _m("cluster.loop_self_s", "s", "lower", "cluster", FLEET, _H,
       "self time of the fleet event loop (ClusterSimulator.run)"),
    _m("cluster.self_s", "s", "lower", "cluster", FLEET, _H,
       "cluster self time"),
    # obs
    _m("obs.spans", "count", "lower", "obs", FLEET, _H,
       "spans a Tracer records over one fleet pass"),
    _m("obs.trace_overhead_x", "x", "lower", "obs", FLEET, _H,
       "traced pass host time (export excluded) / untraced pass host time"),
    _m("obs.export_s", "s", "lower", "obs", FLEET, _H,
       "to_chrome_trace time"),
    _m("obs.export_mb", "MB", "lower", "obs", FLEET, _H,
       "Chrome trace size"),
    _m("obs.traced_us_per_req", "us", "lower", "obs", FLEET, _H,
       "host time per request with a Tracer attached, export included"),
    # the benchmark itself
    _m("bench.wrap_overhead_x", "x", "lower", "bench", WORKLOADS, "",
       "host time of the pass with layer timers / without"),
    _m("bench.self_s", "s", "lower", "bench", WORKLOADS, "",
       "time of the timed pass outside every wrapped entry point; the "
       "layers' self times plus this equal the pass with layer timers"),
)

UNITS = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}

#: Layers that the traced run wraps and whose self times add up to the pass.
SELF_TIMED_LAYERS = ("compiler", "partition", "scheduler", "sim", "api", "serve", "cluster")
