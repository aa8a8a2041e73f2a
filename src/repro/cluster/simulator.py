"""The fleet-scale serving simulator: N engines, one trace, one session.

:class:`ClusterSimulator` dispatches one :class:`ArrivalTrace` across a
fleet of :class:`~repro.serve.engine.EngineCore` engines that all share one
:class:`~repro.serve.batching.StepLatencyModel` — and therefore one compile
:class:`~repro.api.Session` — so every bucketed step plan compiles exactly
once fleet-wide no matter how many engines serve it.

The event loop is not here: :mod:`repro.serve.simulator` owns it.
:class:`ClusterSimulator` subclasses
:class:`~repro.serve.simulator.ServingSimulator` and plugs the fleet into
that loop's hooks.  The loop owns two event kinds and the fleet adds four,
six in all:

* **arrival** (loop) — admission control (per-tenant token buckets) and
  load shedding, then the router picks an engine;
* **step done** (loop) — one engine's iteration completes; finished
  requests are recorded, prefill hand-offs are forwarded to the decode
  pool, and the engine starts its next iteration;
* **engine ready** — a scaled-up engine finishes warming (compiling /
  loading its bucket plans) and starts taking traffic;
* **hand-off** — a prefilled request reaches the decode pool (after the
  configured hand-off delay) and is routed like a fresh arrival;
* **fault** — an injected :class:`~repro.cluster.faults.FaultEvent` fires:
  an engine crash (queued requests re-route immediately; admitted and
  in-flight requests lose their progress and retry with backoff under the
  :class:`~repro.cluster.faults.RetryPolicy`, or are recorded as *failed*
  when the budget is gone; the crashed iteration's step-done event is
  voided in place), a slowdown window (subsequent iterations of the
  straggler stretch by the fault's factor), a transient compile failure
  (armed on the shared latency model, which serves the closest
  already-compiled bucket plan on the next cache miss), or artifact-store
  corruption (a cache entry is truncated on disk, exercising the store's
  evict-and-recompile path);
* **retry** — a request whose work a crash destroyed returns from its
  backoff delay and is routed like a fresh arrival.

The autoscaler is evaluated after every arrival batch, step completion,
engine-ready event, fault, and retry — a crashed engine is capacity
pressure like any other, so the fleet replaces it subject to cooldown.
Request accounting always balances: ``completed + rejected + failed ==
arrivals``, with shed and failed requests recorded, never silently
dropped.  Everything remains a pure function of the seeded trace, the fault
schedule, and the configuration, so cluster metrics — including
:class:`AvailabilityMetrics` — are bit-reproducible (give each run a fresh
:class:`StepLatencyModel` when the schedule injects compile failures, since
fallbacks depend on what has compiled so far).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.cluster.autoscaler import (
    SCALE_ADD,
    SCALE_CRASH,
    SCALE_DRAIN,
    SCALE_REMOVE,
    Autoscaler,
    AutoscalerConfig,
    ScaleEvent,
)
from repro.cluster.faults import (
    FAULT_COMPILE_FAILURE,
    FAULT_ENGINE_CRASH,
    FAULT_ENGINE_SLOWDOWN,
    AvailabilityMetrics,
    DegradationPolicy,
    FaultSchedule,
    RetryPolicy,
)
from repro.cluster.router import EngineView, RouterPolicy, get_router
from repro.cluster.tenancy import AdmissionController, TenantSpec, as_tenant_map
from repro.errors import ConfigurationError
from repro.serve.batching import (
    PHASE_BOTH,
    PHASE_DECODE,
    PHASE_PREFILL,
    BatchBuckets,
    RequestState,
    StepLatencyModel,
)
from repro.serve.engine import EngineCore
from repro.serve.metrics import RequestRecord, ServingMetrics, SLOSpec, compute_metrics
from repro.serve.simulator import EventLoop, ServingResult, ServingSimulator
from repro.serve.workload import DIFFUSION, ArrivalTrace, RequestSpec

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer

# Fleet event kinds, numbered after the loop's own ARRIVAL and STEP_DONE.
_ENGINE_READY = 2
_HANDOFF = 3
_FAULT = 4
_RETRY = 5
_VOIDED = 6  # a crashed engine's step-done event, voided in place

#: Engine roles within a fleet.
ROLE_COLOCATED = "colocated"
ROLE_PREFILL = "prefill"
ROLE_DECODE = "decode"

_ROLE_PHASES = {
    ROLE_COLOCATED: PHASE_BOTH,
    ROLE_PREFILL: PHASE_PREFILL,
    ROLE_DECODE: PHASE_DECODE,
}


@dataclass(frozen=True)
class DisaggregationConfig:
    """Prefill/decode disaggregation: dedicated pools and a hand-off queue.

    Attributes:
        prefill_engines: Engines in the prefill pool (serve prefill passes
            only, then hand requests off).
        decode_engines: Engines in the decode pool (serve decode steps and
            diffusion work).
        handoff_delay: Seconds a prefilled request spends in the hand-off
            queue (KV-cache transfer cost) before the decode pool may
            route it.
    """

    prefill_engines: int = 1
    decode_engines: int = 1
    handoff_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.prefill_engines < 1 or self.decode_engines < 1:
            raise ConfigurationError(
                "disaggregation needs at least one engine in each pool"
            )
        if self.handoff_delay < 0:
            raise ConfigurationError("handoff_delay must be >= 0")


@dataclass(frozen=True)
class EngineRecord:
    """Lifecycle and utilization summary of one fleet engine.

    Attributes:
        engine_id: Stable identifier within the fleet.
        role: ``"colocated"``, ``"prefill"``, or ``"decode"``.
        busy_time: Total time spent executing iterations.
        num_iterations: Iterations executed.
        requests_completed: Requests that finished on this engine.
        added_time: When the engine joined the fleet.
        ready_time: When it finished warming and could take traffic.
        removed_time: When it was drained away (``None`` if it survived).
        utilization: ``busy_time`` over the engine's ready lifespan.
    """

    engine_id: int
    role: str
    busy_time: float
    num_iterations: int
    requests_completed: int
    added_time: float
    ready_time: float
    removed_time: float | None
    utilization: float


@dataclass(frozen=True)
class ClusterResult(ServingResult):
    """Outcome of one fleet-scale serving simulation.

    Extends :class:`~repro.serve.simulator.ServingResult` (whose
    ``busy_time`` / ``num_iterations`` aggregate the whole fleet) with the
    cluster-level story: which router ran, what each engine did, when the
    autoscaler acted, what admission control (or load shedding) rejected,
    what faults destroyed, and how the fleet recovered.  Accounting always
    balances: ``completed + rejected + failed == num_arrivals``.
    """

    router: str = ""
    engines: tuple[EngineRecord, ...] = ()
    scale_events: tuple[ScaleEvent, ...] = ()
    rejected: tuple[RequestSpec, ...] = ()
    failed: tuple[RequestSpec, ...] = ()
    num_arrivals: int = 0
    availability: AvailabilityMetrics = field(default_factory=AvailabilityMetrics)
    tenants: tuple[TenantSpec, ...] = field(default=(), compare=False)
    store_hits: int = 0

    @property
    def fleet_size(self) -> int:
        """Engines that ever served in the run."""
        return len(self.engines)

    @property
    def peak_fleet_size(self) -> int:
        """Largest simultaneously active fleet the autoscaler reached."""
        if not self.scale_events:
            return len(self.engines)
        return max(
            len([e for e in self.engines if e.removed_time is None]),
            max(event.fleet_size for event in self.scale_events),
        )

    def engine_utilization(self) -> dict[int, float]:
        """``{engine_id: utilization}`` across the fleet."""
        return {record.engine_id: record.utilization for record in self.engines}

    def rejections_by_tenant(self) -> dict[str, int]:
        """Rejected-request counts per tenant (empty when nothing rejected)."""
        counts: dict[str, int] = {}
        for spec in self.rejected:
            counts[spec.tenant] = counts.get(spec.tenant, 0) + 1
        return counts

    def accounting(self) -> dict[str, int]:
        """Where every arrival ended up: completed, rejected, or failed."""
        return {
            "arrivals": self.num_arrivals,
            "completed": len(self.records),
            "rejected": len(self.rejected),
            "failed": len(self.failed),
        }

    @property
    def accounting_balanced(self) -> bool:
        """Whether no request was silently dropped (the chaos invariant)."""
        return (
            len(self.records) + len(self.rejected) + len(self.failed)
            == self.num_arrivals
        )

    def counters(self) -> dict[str, int]:
        """Cache/retry counters for reporting tables.

        The four numbers that previously lived only in debug prints:
        ``store_hits`` (bucket plans this run resolved from the on-disk
        artifact store), ``fallback_serves`` (cache misses served from the
        closest compiled plan after an injected compile failure),
        ``retries`` (crash-lost requests granted another attempt), and
        ``requeues`` (re-dispatches through the router: crash/drain
        re-routes plus retry returns).
        """
        return {
            "store_hits": self.store_hits,
            "fallback_serves": self.availability.compile_fallbacks,
            "retries": self.availability.num_retries,
            "requeues": self.availability.num_redispatches,
        }

    def register_into(
        self, registry: "MetricsRegistry", prefix: str = "cluster"
    ) -> None:
        """Register this run's metric families into one registry.

        Adds the run-level serving summary (``<prefix>.serving.*``), the
        availability counters (``<prefix>.availability.*``), and the cache/
        retry counters (``<prefix>.counters.*``) as sources, so one
        ``registry.snapshot()`` covers the whole run.
        """
        self.metrics().register_into(registry, f"{prefix}.serving")
        self.availability.register_into(registry, f"{prefix}.availability")
        registry.register_source(f"{prefix}.counters", self.counters)

    def tenant_metrics(self) -> dict[str, ServingMetrics]:
        """Per-tenant :class:`ServingMetrics`, under each tenant's own SLO.

        Tenants without a dedicated SLO are judged against the run-level
        one.  Busy time is not attributable per tenant (tenants share
        engines over time), so per-tenant utilization reads 0.
        """
        slos = {spec.name: spec.slo for spec in self.tenants}
        by_tenant: dict[str, list[RequestRecord]] = {}
        for record in self.records:
            by_tenant.setdefault(record.spec.tenant, []).append(record)
        return {
            tenant: compute_metrics(records, slo=slos.get(tenant) or self.slo)
            for tenant, records in sorted(by_tenant.items())
        }


class _Engine(EngineCore):
    """A fleet engine: an :class:`EngineCore` plus its role and lifecycle."""

    role: str
    added_time: float
    ready_time: float
    draining = False
    removed_time: float | None = None
    slow_until = 0.0
    slow_factor = 1.0

    @property
    def active(self) -> bool:
        return not self.draining and self.removed_time is None

    def view(self) -> EngineView:
        return EngineView(
            engine_id=self.engine_id,
            queue_depth=self.queue_depth,
            running=self.running,
            in_flight_tokens=self.in_flight_tokens(),
        )


class _FleetLoop(EventLoop):
    """One fleet run: the shared event loop with the fleet plugged in.

    Engine ids come from the list length and no engine is ever deleted, so
    ``self.engines[i]`` is engine ``i`` and the list is in id order.
    """

    engines: list[_Engine]
    # Faults alone don't extend the makespan: a crash injected after the
    # last completion destroys nothing and should not stretch utilization
    # or goodput denominators.
    untimed_kinds = frozenset({_FAULT})

    def __init__(
        self, sim: "ClusterSimulator", trace: ArrivalTrace, slo: SLOSpec | None
    ) -> None:
        super().__init__(trace, [])
        self.sim = sim
        self.slo = slo
        self.tracer = sim.tracer
        self.admission = AdmissionController(sim.tenants)
        self.autoscaler = None
        if sim.autoscaler_config is not None:
            self.autoscaler = Autoscaler(sim.autoscaler_config)
            self.settle = self.autoscale
        self.rejected: list[RequestSpec] = []
        self.failed: list[RequestSpec] = []
        self.scale_events: list[ScaleEvent] = []
        self.avail: Counter[str] = Counter()  # AvailabilityMetrics counts
        # Open crash watches: (crash time, ids of retried requests still
        # owed a completion or failure).  When a set empties, the crash has
        # recovered: its recovery time is recorded and the watch closes.
        self.crash_watches: list[tuple[float, set[int]]] = []
        self.recovery_times: list[float] = []
        self.budget_left = sim.retry_policy.retry_budget  # None = unbounded
        self.fallback_base = sim.latency_model.stats.get("fallbacks", 0)
        self.store_base = sim.latency_model.session.stats.store_hits

        # Seed the initial fleet, ready at t=0 (prewarmed before traffic).
        pools = sim.disaggregation
        roles = (
            [ROLE_PREFILL] * pools.prefill_engines + [ROLE_DECODE] * pools.decode_engines
            if pools is not None
            else [ROLE_COLOCATED] * sim.num_engines
        )
        for role in roles:
            self.add_engine(role, 0.0, 0.0)
        for fault in sim.faults or ():
            self.push(fault.time, _FAULT, fault)

    # ------------------------------------------------------------- the fleet
    def add_engine(self, role: str, added: float, ready: float) -> _Engine:
        engine = _Engine(
            self.sim.latency_model,
            self.sim.buckets,
            engine_id=len(self.engines),
            phase=_ROLE_PHASES[role],
            tracer=self.tracer,
        )
        engine.role, engine.added_time, engine.ready_time = role, added, ready
        self.engines.append(engine)
        return engine

    def active_fleet(self) -> list[_Engine]:
        return [engine for engine in self.engines if engine.active]

    def instant(self, name: str, now: float, **attrs: Any) -> None:
        """Place an instant on the ``cluster`` trace track (when tracing)."""
        if self.tracer is not None:
            self.tracer.instant(
                name, sim_time=now, category="cluster", track="cluster", **attrs
            )

    def note_scale(self, action: str, engine: _Engine, now: float, reason: str) -> None:
        event = ScaleEvent(
            time=now,
            action=action,
            engine_id=engine.engine_id,
            fleet_size=len(self.active_fleet()),
            reason=reason,
        )
        self.scale_events.append(event)
        self.instant(
            f"scale-{action}",
            now,
            engine=event.engine_id,
            fleet_size=event.fleet_size,
            reason=reason,
        )

    def role_for(self, state: RequestState) -> str:
        if self.sim.disaggregation is None:
            return ROLE_COLOCATED
        if state.spec.kind != DIFFUSION and state.prefill_pending:
            return ROLE_PREFILL
        return ROLE_DECODE

    def dispatch(self, state: RequestState, now: float) -> _Engine:
        """Route one request to an engine's wait queue (no kick)."""
        role = self.role_for(state)
        candidates = [
            engine
            for engine in self.engines
            if engine.active and engine.ready_time <= now and engine.role == role
        ]
        if not candidates:
            # Every engine of the pool is still warming: park the request
            # on the earliest-ready active engine.  It cannot happen with a
            # ready initial fleet and drain-guarded scale-downs, but stay
            # deterministic if it does.
            pool = [engine for engine in self.active_fleet() if engine.role == role]
            if not pool:
                raise ConfigurationError(f"no active engine can serve role {role!r}")
            chosen = min(pool, key=lambda e: (e.ready_time, e.engine_id))
        else:
            router = self.sim.router
            choice = router.choose(state, [e.view() for e in candidates], now)
            valid = {engine.engine_id for engine in candidates}
            if choice not in valid:
                raise ConfigurationError(
                    f"router {router.name!r} chose engine {choice}, "
                    f"not one of {sorted(valid)}"
                )
            chosen = self.engines[choice]
        chosen.enqueue(state, now)
        return chosen

    def redispatch(self, states: list[RequestState], now: float) -> dict[int, _Engine]:
        """Re-route requests off a drained or crashed engine.

        The one requeue path both scale-down drains and crashes use: states
        keep their original arrival times (queue-wait metrics charge from
        first arrival, with no double-counting) and are routed exactly like
        fresh arrivals.  Returns the touched engines for the caller to kick.
        """
        touched: dict[int, _Engine] = {}
        for state in states:
            engine = self.dispatch(state, now)
            touched[engine.engine_id] = engine
            self.avail["num_redispatches"] += 1
        return touched

    def note_resolved(self, state: RequestState, now: float) -> None:
        """Settle crash-recovery watches when a lost request resolves."""
        request_id = state.spec.request_id
        still_open = []
        for crash_time, pending in self.crash_watches:
            pending.discard(request_id)
            if pending:
                still_open.append((crash_time, pending))
            else:
                self.recovery_times.append(now - crash_time)
        self.crash_watches = still_open

    def fail_request(self, state: RequestState, now: float) -> None:
        """Record a request as failed (retry budget exhausted)."""
        self.failed.append(state.spec)
        if self.crash_watches:
            self.note_resolved(state, now)
        if self.autoscaler is not None:
            self.autoscaler.observe(False)  # a failure always misses its SLO

    # ------------------------------------------------------------------ hooks
    def arrive(self, states: list[RequestState], now: float) -> None:
        """Admission, shedding, and routing for simultaneous arrivals."""
        degradation = self.sim.degradation
        if degradation is not None:
            ready_now = [e for e in self.active_fleet() if e.ready_time <= now]
            avg_queue = sum(e.queue_depth for e in ready_now) / max(1, len(ready_now))
        else:
            avg_queue = 0.0
        touched: dict[int, _Engine] = {}
        for state in states:
            tenant = state.spec.tenant
            if not self.admission.admit(tenant, now):
                self.rejected.append(state.spec)
                continue
            if degradation is not None and degradation.should_shed(tenant, avg_queue):
                # Graceful degradation: shed at the front door by tenant
                # priority before queues collapse SLOs fleet-wide.  Shed
                # arrivals count as rejections.
                self.rejected.append(state.spec)
                self.avail["num_shed"] += 1
                self.instant("shed", now, request=state.spec.request_id, tenant=tenant)
                continue
            engine = self.dispatch(state, now)
            touched[engine.engine_id] = engine
        for engine in touched.values():
            self.kick(engine, now)

    def kick(self, engine: _Engine, now: float) -> bool:
        """Start the engine's next iteration, or finalize a drain."""
        if engine.removed_time is not None or engine.busy or engine.ready_time > now:
            return False
        # A straggler window stretches every iteration *started* inside it;
        # an iteration already in flight when the fault fires finishes at
        # its original latency.
        engine.latency_scale = engine.slow_factor if now < engine.slow_until else 1.0
        if super().kick(engine, now):
            return True
        if engine.draining and not engine.has_work():
            engine.removed_time = now
            self.note_scale(SCALE_REMOVE, engine, now, "drained empty")
        return False

    def finished(self, state: RequestState, record: RequestRecord, now: float) -> None:
        if self.crash_watches:
            self.note_resolved(state, now)
        if self.autoscaler is not None:
            slo = self.admission.slo_for(record.spec.tenant) or self.slo
            self.autoscaler.observe(slo.met_by(record) if slo is not None else True)

    def handoff(self, state: RequestState, now: float) -> None:
        self.push(now + self.sim.disaggregation.handoff_delay, _HANDOFF, state)

    def handle(self, kind: int, payload: Any, now: float) -> None:
        if kind == _FAULT:
            self.apply_fault(payload, now)
        elif kind == _ENGINE_READY:
            self.rebalance(payload, now)
        elif kind == _RETRY:
            # A crash-lost request returns from its backoff delay and is
            # routed like a fresh arrival (with its progress reset).
            self.avail["num_redispatches"] += 1
            self.kick(self.dispatch(payload, now), now)
        else:
            if kind == _HANDOFF:
                self.kick(self.dispatch(payload, now), now)
            return  # hand-offs and voided completions don't autoscale
        if self.settle is not None:
            self.settle(now)

    # --------------------------------------------------------- fleet events
    def rebalance(self, ready: _Engine, now: float) -> None:
        """A scaled-up engine just warmed: re-route the queued backlog.

        Queued requests are not yet admitted into any batch, so the front
        door rebalances them across the grown fleet in FCFS order — without
        this, a backlog that triggered the scale-up would stay pinned to the
        engines it queued on and the new engine would idle.
        """
        pending: list[RequestState] = []
        for engine in self.engines:
            if engine.active and engine.ready_time <= now:
                pending.extend(engine.batcher.drain_waiting())
        pending.sort(key=lambda s: (s.spec.arrival_time, s.spec.request_id))
        touched = {ready.engine_id: ready}
        for state in pending:
            chosen = self.dispatch(state, now)
            touched[chosen.engine_id] = chosen
        for engine in touched.values():
            self.kick(engine, now)

    def apply_fault(self, fault: Any, now: float) -> None:
        if fault.kind == FAULT_ENGINE_CRASH:
            self.apply_crash(fault, now)
        elif fault.kind == FAULT_ENGINE_SLOWDOWN:
            self.apply_slowdown(fault, now)
        elif fault.kind == FAULT_COMPILE_FAILURE:
            self.sim.latency_model.inject_compile_failures(fault.count)
            self.avail["num_compile_faults"] += fault.count
            self.instant("fault-compile-failure", now, count=fault.count)
        else:  # FAULT_STORE_CORRUPTION
            store = self.sim.latency_model.session.store
            if store is not None and store.corrupt_entry(fault.target):
                self.avail["num_store_corruptions"] += 1
            self.instant("fault-store-corruption", now, target=fault.target)

    def apply_crash(self, fault: Any, now: float) -> None:
        pool = self.active_fleet()
        # Never kill the last engine able to serve a role — the fleet (like
        # a real one behind a health-checked load balancer) keeps a minimum
        # of one replica per role.
        eligible = [
            engine
            for engine in pool
            if sum(1 for other in pool if other.role == engine.role) > 1
        ]
        if not eligible:
            return
        victim = eligible[fault.target % len(eligible)]
        victim.removed_time = now
        if victim.busy:
            # The in-flight iteration's work is lost: void its step-done
            # event in place (same time and sequence, so the heap stays
            # ordered; the voided event still counts toward the makespan).
            heap = self.heap
            for index, (time, sequence, _, _, engine) in enumerate(heap):
                if engine is victim:
                    heap[index] = (time, sequence, _VOIDED, None, None)
                    break
        self.avail["num_crashes"] += 1
        self.note_scale(SCALE_CRASH, victim, now, "injected fault")
        # Queued requests lost no work: re-route them immediately, no retry
        # attempt consumed.
        touched = self.redispatch(victim.batcher.drain_waiting(), now)
        # Admitted and in-flight requests lost their progress: retry from
        # scratch after a backoff, or fail when out of budget.
        policy = self.sim.retry_policy
        watch: set[int] = set()
        for state in victim.batcher.drain_running():
            out_of_budget = self.budget_left is not None and self.budget_left <= 0
            if state.retries + 1 >= policy.max_attempts or out_of_budget:
                self.fail_request(state, now)
                continue
            state.retries += 1
            self.avail["num_retries"] += 1
            if self.budget_left is not None:
                self.budget_left -= 1
            delay = policy.backoff_delay(state.retries, state.spec.request_id)
            self.push(now + delay, _RETRY, state)
            self.instant(
                "retry",
                now,
                request=state.spec.request_id,
                attempt=state.retries,
                backoff=delay,
            )
            watch.add(state.spec.request_id)
        if watch:
            self.crash_watches.append((now, watch))
        else:
            self.recovery_times.append(0.0)  # nothing (left) to re-serve
        for engine in touched.values():
            self.kick(engine, now)

    def apply_slowdown(self, fault: Any, now: float) -> None:
        pool = self.active_fleet()
        if not pool:
            return
        victim = pool[fault.target % len(pool)]
        victim.slow_until = max(victim.slow_until, now + fault.duration)
        victim.slow_factor = fault.factor
        self.avail["num_slowdowns"] += 1
        self.instant(
            "fault-slowdown",
            now,
            engine=victim.engine_id,
            factor=fault.factor,
            duration=fault.duration,
        )

    def autoscale(self, now: float) -> None:
        autoscaler = self.autoscaler
        active = self.active_fleet()
        total_waiting = sum(
            engine.queue_depth for engine in active if engine.ready_time <= now
        )
        decision = autoscaler.decide(now, len(active), total_waiting)
        if decision is None:
            return
        reason = (
            f"avg_queue={total_waiting / max(1, len(active)):.3g}, "
            f"attainment={autoscaler.attainment:.3g}"
        )
        if decision == "up":
            engine = self.add_engine(
                ROLE_COLOCATED, now, now + self.sim.autoscaler_config.warmup_delay
            )
            self.push(engine.ready_time, _ENGINE_READY, engine)
            self.note_scale(SCALE_ADD, engine, now, reason)
            return
        # Scale down: drain the least-loaded *ready* engine, keeping at
        # least one ready engine taking traffic.
        ready = [engine for engine in active if engine.ready_time <= now]
        if len(ready) < 2:
            return
        victim = min(ready, key=lambda e: (e.queue_depth + e.running, -e.engine_id))
        victim.draining = True
        self.note_scale(SCALE_DRAIN, victim, now, reason)
        # Queued (unadmitted) requests re-route to the surviving fleet
        # through the same requeue path a crash uses; admitted ones finish
        # where they run.
        for engine in self.redispatch(victim.batcher.drain_waiting(), now).values():
            self.kick(engine, now)
        self.kick(victim, now)  # finalizes immediately if already empty


class ClusterSimulator(ServingSimulator):
    """Discrete-event simulation of a router-fronted fleet of engines.

    :meth:`run` drives the serving event loop with the fleet plugged in.

    Args:
        latency_model: Bucketed step latencies, shared by every engine in
            the fleet (this is what makes bucket plans compile once
            fleet-wide through the underlying session).
        num_engines: Initial fleet size (colocated mode; ignored when
            ``disaggregation`` is given).
        router: Registered router name or a :class:`RouterPolicy` instance.
        buckets: Shape grid for the engines (defaults to the latency
            model's).
        autoscaler: Enables autoscaling of a colocated fleet
            (incompatible with ``disaggregation``).
        tenants: Per-tenant admission quotas and SLOs.
        disaggregation: Split the fleet into dedicated prefill and decode
            pools with a hand-off queue.
        faults: Fault schedule to inject during the run (``None`` = the
            happy path).  Crashes never remove the last engine able to
            serve a role — such events are skipped.
        retry_policy: Retry/backoff semantics for work a crash destroyed
            (defaults to :class:`RetryPolicy`'s defaults).
        degradation: Graceful-degradation policy shedding arrivals by
            tenant priority under overload (``None`` = never shed).
        tracer: Optional :class:`repro.obs.Tracer` placing scale, crash,
            shed, fault, and retry instants on the ``cluster`` track of the
            same timeline the engines' iteration spans and the requests'
            lifecycle phases render on.
    """

    def __init__(
        self,
        latency_model: StepLatencyModel,
        *,
        num_engines: int = 2,
        router: str | RouterPolicy = "least-loaded",
        buckets: BatchBuckets | None = None,
        autoscaler: AutoscalerConfig | None = None,
        tenants=None,
        disaggregation: DisaggregationConfig | None = None,
        faults: FaultSchedule | None = None,
        retry_policy: RetryPolicy | None = None,
        degradation: DegradationPolicy | None = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        if num_engines < 1:
            raise ConfigurationError("num_engines must be >= 1")
        if autoscaler is not None and disaggregation is not None:
            raise ConfigurationError(
                "autoscaling disaggregated pools is not supported; pick one"
            )
        super().__init__(latency_model, buckets, tracer)
        self.num_engines = num_engines
        self.router = get_router(router) if isinstance(router, str) else router
        if not isinstance(self.router, RouterPolicy):
            raise ConfigurationError(
                f"router must be a name or RouterPolicy, got {self.router!r}"
            )
        self.autoscaler_config = autoscaler
        self.tenants = as_tenant_map(tenants)
        self.disaggregation = disaggregation
        if faults is not None and not isinstance(faults, FaultSchedule):
            raise ConfigurationError(
                f"faults must be a FaultSchedule or None, got {faults!r}"
            )
        self.faults = faults
        if retry_policy is not None and not isinstance(retry_policy, RetryPolicy):
            raise ConfigurationError(
                f"retry_policy must be a RetryPolicy or None, got {retry_policy!r}"
            )
        self.retry_policy = retry_policy or RetryPolicy()
        if degradation is not None and not isinstance(degradation, DegradationPolicy):
            raise ConfigurationError(
                f"degradation must be a DegradationPolicy or None, "
                f"got {degradation!r}"
            )
        self.degradation = degradation

    # ----------------------------------------------------------------- running
    def run(self, trace: ArrivalTrace, slo: SLOSpec | None = None) -> ClusterResult:
        """Serve every admitted request of ``trace``; return the fleet result."""
        # Not inherited: perfbench times the fleet run through this entry point.
        return super().run(trace, slo)

    def _event_loop(self, trace: ArrivalTrace, slo: SLOSpec | None) -> _FleetLoop:
        return _FleetLoop(self, trace, slo)

    def _result(self, loop: _FleetLoop, slo: SLOSpec | None) -> ClusterResult:
        records, rejected, failed = loop.records, loop.rejected, loop.failed
        num_arrivals = len(loop.trace.requests)
        assert len(records) + len(rejected) + len(failed) == num_arrivals, (
            "request accounting does not balance: "
            f"{len(records)} completed + {len(rejected)} rejected + "
            f"{len(failed)} failed != {num_arrivals} arrivals"
        )
        # Injected compile failures that never fired (no cache miss came)
        # must not leak into a later run on the same latency model.
        self.latency_model.disarm_compile_failures()
        end_time = loop.end_time
        met_under_faults = 0
        for record in records:
            record_slo = loop.admission.slo_for(record.spec.tenant) or slo
            if record_slo is None or record_slo.met_by(record):
                met_under_faults += 1
        accepted = len(records) + len(failed)
        availability = AvailabilityMetrics(
            **loop.avail,
            num_failed=len(failed),
            compile_fallbacks=(
                self.latency_model.stats.get("fallbacks", 0) - loop.fallback_base
            ),
            recovery_times=tuple(loop.recovery_times),
            goodput_under_faults_rps=(
                met_under_faults / end_time if end_time > 0 else 0.0
            ),
            goodput_under_faults_fraction=(
                met_under_faults / accepted if accepted else 1.0
            ),
        )

        engine_records = []
        for engine in loop.engines:
            lifespan = (
                engine.removed_time if engine.removed_time is not None else end_time
            ) - engine.ready_time
            engine_records.append(
                EngineRecord(
                    engine_id=engine.engine_id,
                    role=engine.role,
                    busy_time=engine.busy_time,
                    num_iterations=engine.iterations,
                    requests_completed=engine.completed,
                    added_time=engine.added_time,
                    ready_time=engine.ready_time,
                    removed_time=engine.removed_time,
                    utilization=(
                        min(1.0, engine.busy_time / lifespan) if lifespan > 0 else 0.0
                    ),
                )
            )

        return ClusterResult(
            trace_name=loop.trace.name,
            policy=self.latency_model.policy,
            records=tuple(records),
            busy_time=sum(record.busy_time for record in engine_records),
            num_iterations=sum(r.num_iterations for r in engine_records),
            compiled_shapes=tuple(self.latency_model.compiled_shapes()),
            slo=slo,
            router=self.router.name,
            engines=tuple(engine_records),
            scale_events=tuple(loop.scale_events),
            rejected=tuple(rejected),
            failed=tuple(failed),
            num_arrivals=num_arrivals,
            availability=availability,
            tenants=tuple(self.tenants.values()),
            store_hits=(
                self.latency_model.session.stats.store_hits - loop.store_base
            ),
        )


def simulate_cluster(
    trace: ArrivalTrace,
    latency_model: StepLatencyModel,
    *,
    slo: SLOSpec | None = None,
    **cluster_kwargs,
) -> ClusterResult:
    """One-call convenience: run ``trace`` on a fresh fleet."""
    return ClusterSimulator(latency_model, **cluster_kwargs).run(trace, slo=slo)
