"""The four benchmark workloads.

Each workload runs in this one process with no worker threads or pools.
With ``trace=False`` it reports the end-to-end metrics: it sets up three
times (median), then repeats its measured pass until ``seconds`` have passed
and reports medians.  With ``trace=True`` it alternates a plain pass with a
pass under :class:`~perfbench.layers.LayerProfiler` and reports the
per-layer metrics.  Every pass's outputs are checked; a failed check or an
operation that raises counts as a failed operation.

- ``compile-zoo``: cold elk-full and ideal compiles of three transformer
  models on ``ipu_pod4``, each elk-full plan simulated.  Fixed inputs: the
  seed is unused.
- ``serve-chat-warm``: ``interactive-chat`` on one engine after a warm-up
  pass over the same trace, so timed passes compile nothing.
- ``fleet-chaos``: ``cluster-chaos-crashes`` on a 4-engine least-loaded fleet
  with a 2-6 engine autoscaler and a seeded ``random_faults`` schedule over
  the whole trace.  Each pass draws its own trace and schedule from the
  seed; the warm-up's draw runs once more with a ``Tracer`` and a Chrome
  export.
- ``serve-mixed-store``: ``mixed-traffic`` at 4 layers against a fresh
  on-disk ``ArtifactStore``: a cold pass compiles and writes every bucket
  plan, then restart passes on fresh sessions read them back.
"""

from __future__ import annotations

import contextlib
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import repro.cluster.scenarios as cluster_scenarios
import repro.serve.scenarios as serve_scenarios
import repro.sim.multichip as sim_multichip
from repro.api.service import Session
from repro.api.store import ArtifactStore
from repro.arch.presets import ipu_pod4
from repro.cluster.faults import random_faults
from repro.compiler.frontend import WorkloadSpec
from repro.obs import Tracer, to_chrome_trace

from perfbench import checks
from perfbench.catalog import PER_LAYER
from perfbench.layers import LayerProfiler
from perfbench.timing import Clock, Timed


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``SMALL`` is the self-test's."""

    zoo: tuple[tuple[str, int], ...] = (
        ("llama2-70b", 8),  # bound by partition enumeration
        ("gemma2-27b", 2),  # bound by scheduling (many preload orders)
        ("opt-30b", 2),
    )
    chat_requests: int = 2048
    fleet_requests: int = 2048
    store_requests: int = 2048
    store_layers: int = 4
    setups: int = 3
    restarts: int = 10  # restart passes per cold pass


SMALL = Sizes(
    zoo=(("llama2-70b", 1), ("gemma2-27b", 1), ("opt-30b", 1)),
    chat_requests=48,
    fleet_requests=48,
    store_requests=48,
    store_layers=1,
    setups=1,
    restarts=1,
)

#: Seeded fault rates (faults per simulated second) of ``fleet-chaos``.
FAULT_RATES = dict(crash_rate=1.0, slowdown_rate=1.0, compile_failure_rate=0.5)


@dataclass
class Run:
    """One benchmark run: its settings, clock, and operation accounting."""

    seed: int
    seconds: float
    trace: bool
    root: str
    sizes: Sizes = field(default_factory=Sizes)
    clock: Clock = field(init=False)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        # No calibration sample may land inside a layer-timed span.
        self.clock = Clock(interleave=not self.trace)

    def op(self, fn: Callable[..., Any], *args: Any, weight: int = 1, **kwargs: Any) -> Timed | None:
        """Time ``weight`` counted operations; ``None`` if they raised."""
        self.attempted += weight
        try:
            return self.clock.measure(fn, *args, **kwargs)
        except Exception:  # counted and reported; the run goes on
            self.failed += weight
            self.problems.append(traceback.format_exc(limit=4))
            return None

    def verify(self, problems: list[str]) -> None:
        """Mark the last operation failed if its output check found problems."""
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def repeat(self) -> Iterator[int]:
        """Pass indices until ``seconds`` have passed (at least one pass)."""
        deadline = time.perf_counter() + self.seconds
        index = 0
        while index == 0 or time.perf_counter() < deadline:
            yield index
            index += 1


# --------------------------------------------------------------------------- #
# Shared pieces.
# --------------------------------------------------------------------------- #
def median(values: list[float]) -> float:
    if not values:
        raise RuntimeError("no successful pass to report")
    return statistics.median(values)


def import_seconds(run: Run) -> float:
    """Nominal seconds for a fresh interpreter to import ``repro``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(run.root, "src"))
    # Edge samples only: samples taken while this process waits would run
    # beside the child, not in its place.
    timed = Clock(interleave=False).measure(
        subprocess.run,
        [sys.executable, "-c", "import repro"],
        env=env,
        cwd=run.root,
        check=True,
        capture_output=True,
        timeout=120,
    )
    return timed.seconds


@contextlib.contextmanager
def calibrated_compiles(clock: Clock, samples: list[tuple[float, int]]):
    """Record ``(nominal seconds, layers)`` of each fresh elk-full compile.

    While active, every ``Session.compile`` is bracketed by calibration
    samples, and the compile time the session records, less the samples
    taken during it, is normalized by the samples from its start to its end.
    """
    original = Session.compile

    def compile(session, *args, **kwargs):
        fresh = session.stats.compiles
        clock.sample()
        first = len(clock.samples) - 1
        artifact = original(session, *args, **kwargs)
        during = sum(clock.samples[first + 1 :])
        clock.sample()
        if session.stats.compiles > fresh and artifact.policy == "elk-full":
            seconds = (artifact.compile_seconds - during) * clock.scale(first)
            samples.append((seconds, artifact.num_layers))
        return artifact

    Session.compile = compile
    try:
        yield
    finally:
        Session.compile = original


def per_layer_compile(samples: list[tuple[float, int]]) -> float:
    return sum(seconds for seconds, _ in samples) / sum(layers for _, layers in samples)


def simulate(artifact: Any) -> float:
    """Simulated step latency of a compiled elk-full artifact."""
    frontend = artifact.frontend
    return sim_multichip.simulate_system(
        artifact.result.plan,
        artifact.system,
        frontend.per_chip_graph.total_flops,
        frontend.full_graph_flops,
        frontend.interchip_bytes_per_step,
    ).total_time


def geomean_ratio(rows: list[tuple[str, float, float]]) -> float:
    """Geometric mean of ideal / simulated latency over ``rows``."""
    return math.exp(
        sum(math.log(ideal / simulated) for _, ideal, simulated in rows) / len(rows)
    )


def bucket_roofline(run: Run, session: Session) -> float:
    """``plan_roofline_frac`` over the elk-full bucket plans ``session`` compiled."""
    rows = []
    for artifact in session.artifacts():
        if artifact.policy != "elk-full" or artifact.result is None:
            continue
        spec = WorkloadSpec(
            artifact.model,
            artifact.batch_size,
            artifact.seq_len,
            artifact.phase,
            artifact.num_layers,
        )
        timed = run.op(session.compile, spec, artifact.system, policy="ideal")
        if timed is not None:
            rows.append((artifact.model, timed.result.latency, simulate(artifact)))
    # No roofline check here: a few tiny bucket plans simulate at or just
    # under their ideal latency (the two models disagree at that scale).
    return geomean_ratio(rows)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def slo_attainment(result: Any, arrivals: int) -> float:
    """Share of arrivals that completed within the run's SLO."""
    return sum(1 for record in result.records if result.slo.met_by(record)) / arrivals


def serving_extras(result: Any, arrivals: int, pass_s: float) -> dict[str, float]:
    """Per-layer serve metrics read off an untraced pass."""
    return {
        "serve.iter_us": pass_s / result.num_iterations * 1e6,
        "serve.sim_ttft_p95_ms": result.metrics().ttft_p95 * 1e3,
        "serve.sim_slo_attain": slo_attainment(result, arrivals),
    }


def layer_passes(
    run: Run, timed_pass: Callable[[LayerProfiler | None], Timed | None]
) -> tuple[dict[str, float], list[Timed]]:
    """Alternate plain and layer-timed passes until the time is up.

    ``timed_pass(profiler)`` runs and checks one pass, under ``profiler``
    when one is given.  Returns the per-layer metrics (per pass) and the
    plain passes.
    """
    profiler = LayerProfiler()
    plain: list[Timed] = []
    ratios, scales = [], []
    wall = 0.0
    for _ in run.repeat():
        untimed = timed_pass(None)
        timed = timed_pass(profiler)
        if untimed is None or timed is None:
            continue
        plain.append(untimed)
        ratios.append(timed.seconds / untimed.seconds)
        wall += timed.seconds / timed.scale
        scales.append(timed.scale)
    if not plain:
        raise RuntimeError("no successful layer-timed pass")
    metrics = profiler.metrics(wall, statistics.mean(scales), len(plain))
    metrics["bench.wrap_overhead_x"] = median(ratios)
    return metrics, plain


def setups(run: Run, setup_once: Callable[[], tuple[float, Any]]) -> tuple[float, Any]:
    """Set up ``sizes.setups`` times; median nominal seconds and the last state.

    Each set-up is a fresh-interpreter import plus ``setup_once``.
    """
    seconds = []
    state = None
    for _ in range(1 if run.trace else run.sizes.setups):
        imported = import_seconds(run)
        took, state = setup_once()
        seconds.append(imported + took)
    return median(seconds), state


# --------------------------------------------------------------------------- #
# compile-zoo
# --------------------------------------------------------------------------- #
def _zoo_model(system: Any, spec: WorkloadSpec) -> tuple[float, float, float]:
    """Cold elk-full and ideal compiles of one model, elk-full simulated."""
    session = Session()
    elk = session.compile(spec, system, policy="elk-full")
    ideal = session.compile(spec, system, policy="ideal")
    return elk.latency, ideal.latency, simulate(elk)


def compile_zoo(run: Run) -> dict[str, float]:
    system = ipu_pod4()
    specs = [
        WorkloadSpec(model, batch_size=16, seq_len=4096, num_layers=layers)
        for model, layers in run.sizes.zoo
    ]

    def setup_once():
        return run.clock.measure(Session).seconds, None

    setup_s, _ = setups(run, setup_once)
    reference: dict[str, Any] = {}

    def check(spec: WorkloadSpec, outputs: tuple[float, float, float]) -> None:
        _, ideal, simulated = outputs
        run.verify(checks.plans_within_roofline([(spec.model, ideal, simulated)]))
        run.verify(
            checks.same_outputs(
                reference.setdefault(spec.model, outputs), outputs, spec.model
            )
        )

    if run.trace:

        def zoo():
            return [_zoo_model(system, spec) for spec in specs]

        def timed_zoo(profiler):
            with profiler or contextlib.nullcontext():
                timed = run.op(zoo, weight=2 * len(specs))
            for spec, outputs in zip(specs, timed.result if timed else ()):
                check(spec, outputs)
            return timed

        return layer_passes(run, timed_zoo)[0]

    pass_s: dict[str, list[float]] = {spec.model: [] for spec in specs}
    compile_s: dict[str, list[float]] = {spec.model: [] for spec in specs}
    for _ in run.repeat():
        for spec in specs:
            samples: list[tuple[float, int]] = []
            with calibrated_compiles(run.clock, samples):
                timed = run.op(_zoo_model, system, spec, weight=2)
            if timed is None:
                continue
            check(spec, timed.result)
            pass_s[spec.model].append(timed.seconds)
            compile_s[spec.model].append(samples[0][0])
    rows = [(model, ideal, simulated) for model, (_, ideal, simulated) in reference.items()]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "host_us_per_req": sum(median(v) for v in pass_s.values()) / (2 * len(specs)) * 1e6,
        "compile_s_per_layer": sum(median(v) for v in compile_s.values())
        / sum(spec.num_layers for spec in specs),
        "plan_roofline_frac": geomean_ratio(rows),
    }


# --------------------------------------------------------------------------- #
# serve-chat-warm and fleet-chaos: warm passes after a warm-up pass
# --------------------------------------------------------------------------- #
def _warm_serving(
    run: Run,
    one_pass: Callable[..., Any],
    pass_seed: Callable[[int], int],
    arrivals: int,
    check_pass: Callable[[Any], list[str]],
    after_measure: Callable[..., dict[str, float]] | None = None,
) -> dict[str, float]:
    """Shared runner of the two warm serving workloads.

    Pass ``i`` runs ``one_pass(session, pass_seed(i))``; pass 0 is the
    warm-up, and the layer-timed run repeats it.  A pass whose seed ran
    before must repeat its simulated outputs exactly and, unless it is a
    warm-up on a fresh session, compile nothing.
    ``after_measure(session, timed_pass, plain_seconds)`` runs last and may
    add per-layer metrics; ``plain_seconds`` is ``None`` on the end-to-end run.
    """
    compile_per_layer = []
    reference: dict[int, tuple] = {}

    def timed_pass(
        session: Session,
        index: int,
        profiler: LayerProfiler | None = None,
        warm_up: bool = False,
        **kwargs: Any,
    ) -> Timed | None:
        seed = pass_seed(index)
        compiles = session.stats.compiles
        with profiler or contextlib.nullcontext():
            timed = run.op(one_pass, session, seed, **kwargs)
        if timed is not None:
            outputs = checks.serving_outputs(timed.result)
            problems = check_pass(timed.result)
            if seed in reference:
                problems += checks.same_outputs(reference[seed], outputs, f"seed {seed}")
                if not warm_up:
                    problems += checks.compiled_nothing(
                        compiles, session.stats.compiles, f"repeat of seed {seed}"
                    )
            reference.setdefault(seed, outputs)
            run.verify(problems)
        return timed

    def setup_once():
        session = run.clock.measure(serve_scenarios.make_serving_session)
        samples: list[tuple[float, int]] = []
        with calibrated_compiles(run.clock, samples):
            warm = timed_pass(session.result, 0, warm_up=True)
        if warm is None:
            raise RuntimeError("warm-up pass failed")
        compile_per_layer.append(per_layer_compile(samples))
        return session.seconds + warm.seconds, session.result

    setup_s, session = setups(run, setup_once)

    if run.trace:
        metrics, plain = layer_passes(
            run, lambda profiler: timed_pass(session, 0, profiler)
        )
        first = plain[0]
        metrics.update(serving_extras(first.result, arrivals, first.seconds))
        if after_measure is not None:
            plain_seconds = median([timed.seconds for timed in plain])
            metrics.update(after_measure(session, timed_pass, plain_seconds))
        metrics.update(cluster_counters(first.result))
        return metrics

    host = []
    for index in run.repeat():
        timed = timed_pass(session, index + 1)
        if timed is not None:
            host.append(timed.seconds / arrivals * 1e6)
    metrics = {
        "setup_s": setup_s,
        "host_us_per_req": median(host),
        "compile_s_per_layer": median(compile_per_layer),
        "peak_rss_mb": peak_rss_mb(),
        "plan_roofline_frac": bucket_roofline(run, session),
    }
    if after_measure is not None:
        after_measure(session, timed_pass, None)
    return metrics


def cluster_counters(result: Any) -> dict[str, float]:
    """Per-layer cluster counts of a fleet pass (none for a single engine)."""
    if not hasattr(result, "counters"):
        return {}
    counters = result.counters()
    return {
        "cluster.scale_events": float(len(result.scale_events)),
        "cluster.retries": float(counters["retries"]),
        "cluster.requeues": float(counters["requeues"]),
        "cluster.fallback_serves": float(counters["fallback_serves"]),
    }


def serve_chat_warm(run: Run) -> dict[str, float]:
    requests = run.sizes.chat_requests

    def one_pass(session, seed):
        return serve_scenarios.simulate_scenario(
            "interactive-chat", num_requests=requests, seed=seed, session=session
        )

    return _warm_serving(
        run,
        one_pass,
        lambda index: run.seed,  # every pass replays the warm-up trace
        requests,
        lambda result: checks.all_completed(len(result.records), requests),
    )


def fleet_faults(seed: int, requests: int):
    """The seeded fault schedule over the whole ``fleet-chaos`` trace."""
    trace = serve_scenarios.get_scenario("cluster-chaos-crashes").trace(
        num_requests=requests, seed=seed
    )
    return random_faults(trace.duration, seed=seed, **FAULT_RATES)


def fleet_chaos(run: Run) -> dict[str, float]:
    requests = run.sizes.fleet_requests

    def one_pass(session, seed, tracer=None):
        return cluster_scenarios.simulate_cluster_scenario(
            "cluster-chaos-crashes",
            num_requests=requests,
            seed=seed,
            session=session,
            num_engines=4,
            router="least-loaded",
            faults=fleet_faults(seed, requests),
            tracer=tracer,
        )

    def traced_repeat(session, timed_pass, plain_seconds):
        """The warm-up pass again with a Tracer, then its Chrome export."""
        tracer = Tracer()
        traced = timed_pass(session, 0, tracer=tracer)
        exported = run.op(to_chrome_trace, tracer)
        if traced is None or exported is None:
            return {}
        run.verify(checks.chrome_trace_parses(exported.result))
        if plain_seconds is None:
            return {}
        return {
            "obs.spans": float(len(tracer)),
            "obs.trace_overhead_x": traced.seconds / plain_seconds,
            "obs.export_s": exported.seconds,
            "obs.export_mb": len(exported.result) / 1e6,
            "obs.traced_us_per_req": (traced.seconds + exported.seconds)
            / requests
            * 1e6,
        }

    # Each pass draws its own trace and fault schedule from the run's seed:
    # a single fleet trace's fault luck moves host time per request by 20%
    # between seeds, and a run must average over many draws to be steady.
    return _warm_serving(
        run,
        one_pass,
        lambda index: run.seed * 1000 + index,
        requests,
        checks.accounting_balanced,
        traced_repeat,
    )


# --------------------------------------------------------------------------- #
# serve-mixed-store
# --------------------------------------------------------------------------- #
def serve_mixed_store(run: Run) -> dict[str, float]:
    requests = run.sizes.store_requests
    work_dir = os.path.join(run.root, ".perfbench_tmp", f"store-{os.getpid()}")
    store_root = os.path.join(work_dir, "store")
    after_cold = os.path.join(work_dir, "after-cold")

    def one_pass(session):
        return serve_scenarios.simulate_scenario(
            "mixed-traffic",
            num_requests=requests,
            seed=run.seed,
            session=session,
            num_layers=run.sizes.store_layers,
        )

    def fresh_session():
        return serve_scenarios.make_serving_session(store=ArtifactStore(store_root))

    def setup_once():
        return run.clock.measure(fresh_session).seconds, None

    setup_s, _ = setups(run, setup_once)
    reference: dict[str, Any] = {}
    cold_s, restart_s, compile_per_layer = [], [], []
    served_s, restart_compile_s = [], []  # restart pass split: serving, compiling
    path_mismatch, shape_mismatch = [], []
    extras: dict[str, float] = {}

    def check(label: str, result: Any) -> None:
        run.verify(
            checks.all_completed(len(result.records), requests)
            + checks.same_outputs(
                reference.setdefault(label, checks.serving_outputs(result)),
                checks.serving_outputs(result),
                label,
            )
        )

    def reset_store(source: str | None = None) -> None:
        shutil.rmtree(store_root, ignore_errors=True)
        if source is not None:
            shutil.copytree(source, store_root)

    def cycle(restarts: int) -> Session | None:
        """A cold pass on a fresh store, then restart passes on fresh sessions.

        Every restart starts from the store as the cold pass left it: a
        restart can compile and write shapes the cold pass never reached
        (see ``checks.restart_served_from_store``), which would otherwise
        change what the next restart reads.
        """
        reset_store()
        cold_session = fresh_session()
        samples: list[tuple[float, int]] = []
        with calibrated_compiles(run.clock, samples):
            cold = run.op(one_pass, cold_session)
        if cold is None:
            return None
        check("cold pass", cold.result)
        cold_s.append(cold.seconds)
        compile_per_layer.append(per_layer_compile(samples))
        shutil.rmtree(after_cold, ignore_errors=True)
        shutil.copytree(store_root, after_cold)
        for _ in range(restarts):
            reset_store(after_cold)
            session = fresh_session()
            compiled: list[tuple[float, int]] = []
            with calibrated_compiles(run.clock, compiled):
                warm = run.op(one_pass, session)
            if warm is None:
                continue
            check("restart pass", warm.result)
            run.verify(
                checks.restart_served_from_store(
                    cold.result.compiled_shapes,
                    warm.result.compiled_shapes,
                    session.stats.compiles,
                    session.stats.store_hits,
                )
            )
            restart_s.append(warm.seconds)
            restart_compile_s.append(sum(seconds for seconds, _ in compiled))
            served_s.append(warm.seconds - restart_compile_s[-1])
            path_mismatch.append(checks.summary_mismatch(cold.result, warm.result))
            shape_mismatch.append(
                len(set(cold.result.compiled_shapes) ^ set(warm.result.compiled_shapes))
            )
            if not extras:
                # Simulated outputs of the compiled (cold) path, loop cost of
                # the warm restart pass.
                extras.update(serving_extras(cold.result, requests, cold.seconds))
                extras["serve.iter_us"] = (
                    served_s[-1] / warm.result.num_iterations * 1e6
                )
        return cold_session

    def layer_timed_cycle():
        reset_store()
        cold = one_pass(fresh_session())
        one_pass(fresh_session())
        return cold

    try:
        if not run.trace:
            roofline = None
            for _ in run.repeat():
                cold_session = cycle(run.sizes.restarts)
                if cold_session is not None and roofline is None:
                    roofline = bucket_roofline(run, cold_session)
                del cold_session  # keep one cycle's sessions alive at a time
            return {
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb(),
                "host_us_per_req": median(served_s) / requests * 1e6,
                "compile_s_per_layer": median(compile_per_layer),
                "plan_roofline_frac": roofline,
            }

        def timed_cycle(profiler: LayerProfiler | None) -> Timed | None:
            if profiler is None:  # plain: cold and restart timed apart
                restarts = len(restart_s)
                if cycle(1) is None or len(restart_s) == restarts:
                    return None
                # Only the seconds of a plain pass are read.
                return Timed(None, cold_s[-1] + restart_s[-1], scale=1.0)
            with profiler:
                timed = run.op(layer_timed_cycle, weight=2)
            if timed is not None:
                check("cold pass", timed.result)
            return timed

        metrics, _ = layer_passes(run, timed_cycle)
        metrics.update(extras)
        metrics.update(
            {
                "api.cold_pass_s": median(cold_s),
                "api.restart_pass_s": median(restart_s),
                "api.restart_compile_s": median(restart_compile_s),
                "api.path_mismatch": float(median(path_mismatch)),
                "api.shape_mismatch": float(median(shape_mismatch)),
            }
        )
        return metrics
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work_dir))


WORKLOADS: dict[str, Callable[[Run], dict[str, float]]] = {
    "compile-zoo": compile_zoo,
    "serve-chat-warm": serve_chat_warm,
    "fleet-chaos": fleet_chaos,
    "serve-mixed-store": serve_mixed_store,
}


def per_layer_defaults() -> dict[str, float]:
    """Every per-layer metric at 0, for layers a workload never enters."""
    return {metric.name: 0.0 for metric in PER_LAYER}
