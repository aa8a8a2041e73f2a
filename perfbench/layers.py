"""Per-layer wall-time attribution for the traced benchmark run.

:class:`LayerProfiler` wraps the public entry points of each repo layer in
the benchmark's own timers for the duration of a ``with`` block, inside this
process only, and restores every original on exit.  Functions that other
modules import by name (``build_frontend_result``, ``build_operator_profiles``,
``simulate_system``, ``compute_metrics``, ...) are patched at each importing
module's binding, since patching the defining module would not reach them.

Every wrapped call is a span on one stack.  A span's self time is its
duration minus the time of the wrapped spans it contains, so the layers' self
times plus the benchmark's own (unwrapped) time add up to the pass exactly.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter
from typing import Any, Callable

import repro.api.service as api_service
import repro.cluster.scenarios as cluster_scenarios
import repro.cluster.simulator as cluster_simulator
import repro.compiler.pipeline as compiler_pipeline
import repro.scheduler.elk as scheduler_elk
import repro.scheduler.profiles as scheduler_profiles
import repro.serve.batching as serve_batching
import repro.serve.scenarios as serve_scenarios
import repro.serve.simulator as serve_simulator
import repro.sim.multichip as sim_multichip
from repro.api.service import Session
from repro.api.store import ArtifactStore
from repro.cluster.autoscaler import Autoscaler
from repro.cluster.router import RouterPolicy
from repro.cluster.simulator import ClusterSimulator
from repro.compiler.pipeline import ModelCompiler
from repro.scheduler.elk import ElkScheduler
from repro.scheduler.inductive import InductiveScheduler
from repro.scheduler.timeline import TimelineEvaluator
from repro.serve.batching import ContinuousBatcher, StepLatencyModel
from repro.serve.engine import EngineCore
from repro.serve.simulator import ServingSimulator


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


class LayerProfiler:
    """Self time per layer, inclusive time and call counts per entry point.

    Attributes:
        self_s: ``{layer: seconds}`` of self time (wall, not normalized).
        time_s: ``{stat: seconds}`` of inclusive time per wrapped entry point.
        stat_self_s: ``{stat: seconds}`` of self time per wrapped entry point.
        counts: ``{stat: n}`` of calls, plus event counts the hooks add
            (``"fresh_compiles"``, ``"profiles"``, ``"plans"``, ...).
    """

    def __init__(self) -> None:
        self.self_s: Counter[str] = Counter()
        self.time_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.stat_self_s: Counter[str] = Counter()
        self._children = [0.0]
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ wrapping
    def _wrap(
        self,
        fn: Callable[..., Any],
        layer: str,
        stat: str,
        before: Callable[[tuple], Any] | None,
        after: Callable[[tuple, Any, Any], None] | None,
    ) -> Callable[..., Any]:
        children, self_s, stat_self_s, time_s, counts = (
            self._children,
            self.self_s,
            self.stat_self_s,
            self.time_s,
            self.counts,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            token = before(args) if before is not None else None
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = children.pop()
                children[-1] += elapsed
                self_s[layer] += elapsed - nested
                stat_self_s[stat] += elapsed - nested
                time_s[stat] += elapsed
                counts[stat] += 1
            if after is not None:
                after(args, result, token)
            return result

        return timed

    def patch(
        self,
        owner: Any,
        name: str,
        layer: str,
        stat: str,
        before: Callable[[tuple], Any] | None = None,
        after: Callable[[tuple, Any, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.name`` (a module binding or class method) by a timer."""
        original = vars(owner)[name]
        setattr(owner, name, self._wrap(original, layer, stat, before, after))
        self._patches.append((owner, name, original))

    def restore(self) -> None:
        """Put every patched original back."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerProfiler":
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    # ---------------------------------------------------------- the layers
    def _count(self, stat: str, amount: Callable[[tuple, Any], int]):
        counts = self.counts

        def after(args, result, _token):
            counts[stat] += amount(args, result)

        return after

    def _delta(self, stat: str, read: Callable[[Any], int]):
        """Count how much ``read(self_arg)`` grew across the call."""
        counts = self.counts

        def before(args):
            return read(args[0])

        def after(args, _result, token):
            counts[stat] += read(args[0]) - token

        return before, after

    def _install(self) -> None:
        patch = self.patch
        # compiler
        for module in (api_service, compiler_pipeline):
            patch(module, "build_frontend_result", "compiler", "frontend")
        patch(ModelCompiler, "compile", "compiler", "model_compile")
        # partition
        profiles = self._count("profiles", lambda args, result: len(result))
        for module in (api_service, compiler_pipeline, scheduler_elk):
            patch(module, "build_operator_profiles", "partition", "enumerate",
                  after=profiles)
        patch(scheduler_profiles, "enumerate_execute_plans", "partition",
              "enumerate_plans",
              after=self._count("plans", lambda args, result: len(result)))
        # scheduler
        patch(ElkScheduler, "run", "scheduler", "elk_run")
        patch(InductiveScheduler, "schedule", "scheduler", "schedule")
        patch(TimelineEvaluator, "evaluate", "scheduler", "timeline")
        # sim (the compile-zoo workload calls the defining module's binding)
        for module in (serve_batching, sim_multichip):
            patch(module, "simulate_system", "sim", "sim")
        # api
        before, after = self._delta("fresh_compiles", lambda s: s.stats.compiles)
        patch(Session, "compile", "api", "compile", before, after)
        patch(ArtifactStore, "get", "api", "store_get",
              after=self._count("store_hits",
                                lambda args, result: result is not None))
        patch(ArtifactStore, "put", "api", "store_put",
              after=self._count("store_bytes",
                                lambda args, result: os.path.getsize(result)))
        # serve
        patch(serve_scenarios, "simulate_scenario", "serve", "scenario")
        patch(ServingSimulator, "run", "serve", "serve_loop")
        counts = self.counts

        def started(args, result, _token):
            if result is not None:  # None: nothing was runnable
                counts["iterations"] += 1
                counts["batched"] += len(result[0])

        patch(EngineCore, "start_iteration", "serve", "start_iteration",
              after=started)
        patch(ContinuousBatcher, "form_batch", "serve", "form_batch")
        patch(ContinuousBatcher, "complete_step", "serve", "complete_step")
        before, after = self._delta("lookup_hits", lambda m: m.stats["hits"])
        for name in ("decode_latency", "prefill_latency", "diffusion_latency"):
            patch(StepLatencyModel, name, "serve", "lookup", before, after)
        for module in (serve_simulator, cluster_simulator):
            patch(module, "compute_metrics", "serve", "metrics")
        # cluster
        patch(cluster_scenarios, "simulate_cluster_scenario", "cluster", "scenario_fleet")
        patch(ClusterSimulator, "run", "cluster", "cluster_loop")
        for router in _subclasses(RouterPolicy):
            if "choose" in vars(router):
                patch(router, "choose", "cluster", "route")
        patch(Autoscaler, "decide", "cluster", "autoscale")

    # --------------------------------------------------------------- output
    def metrics(self, wall_s: float, scale: float, passes: int) -> dict[str, float]:
        """Per-layer metrics, per pass, from ``passes`` wrapped passes.

        Args:
            wall_s: Total wall seconds of the wrapped passes.
            scale: Wall-to-nominal factor (see ``timing.Clock``).
            passes: Number of wrapped passes the profiler was active for.
        """
        per_pass = scale / passes
        seconds = {stat: value * per_pass for stat, value in self.time_s.items()}
        layer_self = {layer: value * per_pass for layer, value in self.self_s.items()}
        counts = {stat: value / passes for stat, value in self.counts.items()}

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        compile_calls = counts.get("compile", 0.0)
        lookups = counts.get("lookup", 0.0)
        iterations = counts.get("iterations", 0.0)
        out = {
            "compiler.frontend_s": seconds.get("frontend", 0.0),
            "partition.enumerate_s": seconds.get("enumerate", 0.0),
            "partition.profiles": counts.get("profiles", 0.0),
            "partition.plans": counts.get("plans", 0.0),
            "scheduler.schedule_s": seconds.get("schedule", 0.0),
            "scheduler.orders": counts.get("schedule", 0.0),
            "scheduler.timeline_s": seconds.get("timeline", 0.0),
            "sim.calls": counts.get("sim", 0.0),
            "sim.s": seconds.get("sim", 0.0),
            "api.compile_calls": compile_calls,
            "api.compile_s": seconds.get("compile", 0.0),
            "api.hit_ratio": ratio(
                compile_calls - counts.get("fresh_compiles", 0.0), compile_calls
            ),
            "api.store_get_s": seconds.get("store_get", 0.0),
            "api.store_put_s": seconds.get("store_put", 0.0),
            "api.store_hits": counts.get("store_hits", 0.0),
            "api.store_bytes": counts.get("store_bytes", 0.0),
            "serve.iterations": iterations,
            "serve.form_batch_s": seconds.get("form_batch", 0.0),
            "serve.complete_step_s": seconds.get("complete_step", 0.0),
            "serve.lookup_s": self.stat_self_s["lookup"] * per_pass,
            "serve.lookup_hit_ratio": ratio(counts.get("lookup_hits", 0.0), lookups),
            "serve.batch_mean": ratio(counts.get("batched", 0.0), iterations),
            "serve.metrics_s": seconds.get("metrics", 0.0),
            "cluster.route_calls": counts.get("route", 0.0),
            "cluster.route_s": seconds.get("route", 0.0),
            "cluster.autoscale_s": seconds.get("autoscale", 0.0),
            "bench.self_s": wall_s * per_pass - sum(layer_self.values()),
        }
        for layer in ("compiler", "partition", "scheduler", "api", "serve", "cluster"):
            out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
        out["serve.loop_self_s"] = self.stat_self_s["serve_loop"] * per_pass
        out["cluster.loop_self_s"] = self.stat_self_s["cluster_loop"] * per_pass
        return out
