"""The request-level serving simulator and the package's only event loop.

:class:`EventLoop` is the one heapq discrete-event core every serving run
goes through, single engine and fleet alike.  It interleaves two event
kinds on one time-ordered heap — request arrivals (from the trace) and
iteration completions (from the engines' continuous batchers):

1. Every arrival sharing a timestamp is drained together, then handed to
   :meth:`EventLoop.arrive`: with one engine the requests join its FCFS
   wait queue, and an idle engine starts an iteration at once.
2. When an iteration completes, every request in its batch advances one
   output unit, each finished request becomes a :class:`RequestRecord`,
   and the engine forms its next batch from the running and newly admitted
   requests (continuous batching: composition changes at iteration
   boundaries only).
3. Iteration latencies come from :class:`~repro.serve.batching.StepLatencyModel`,
   i.e. from execution plans compiled once per bucket through a shared
   :class:`repro.api.Session` and timed by the event-driven chip/multichip
   simulator.

:class:`ServingSimulator` drives the loop with one
:class:`~repro.serve.engine.EngineCore`.  The fleet simulator
(:class:`repro.cluster.ClusterSimulator`) subclasses it and plugs a fleet
into the same loop by overriding the loop's hooks — admission and routing
on arrival, its own event kinds, autoscaling after events — so the heap,
the arrival draining, and the completion path exist once.

Given a seeded trace the whole run is deterministic: heap ties are broken by
an insertion sequence number and every scheduling decision is a pure function
of arrival order, so serving metrics are bit-reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.serve.batching import (
    BatchBuckets,
    RequestState,
    StepLatencyModel,
    make_states,
)
from repro.serve.engine import EngineCore
from repro.serve.metrics import (
    RequestRecord,
    ServingMetrics,
    SLOSpec,
    compute_metrics,
)
from repro.serve.workload import ArrivalTrace

if TYPE_CHECKING:
    from repro.obs.trace import Tracer

#: Event kinds the loop itself handles; a fleet numbers its own from 2.
ARRIVAL = 0
STEP_DONE = 1


@dataclass(frozen=True)
class ServingResult:
    """Outcome of one serving simulation.

    Attributes:
        trace_name: Name of the simulated trace.
        policy: Compiler policy the step plans were compiled with.
        records: One :class:`RequestRecord` per completed request, in
            completion order.
        busy_time: Total time the engine spent executing iterations.
        num_iterations: Iterations executed.
        compiled_shapes: The bucketed (model, phase, batch, context) shapes
            the run compiled (via the shared session).
        slo: Default SLO for :meth:`metrics` (from the scenario, if any).
    """

    trace_name: str
    policy: str
    records: tuple[RequestRecord, ...]
    busy_time: float
    num_iterations: int
    compiled_shapes: tuple[tuple, ...] = ()
    slo: SLOSpec | None = field(default=None, compare=False)

    @property
    def makespan(self) -> float:
        """First arrival → last completion (0 for empty runs)."""
        if not self.records:
            return 0.0
        start = min(record.arrival_time for record in self.records)
        return max(record.completion_time for record in self.records) - start

    def metrics(self, slo: SLOSpec | None = None) -> ServingMetrics:
        """Aggregate metrics, under ``slo`` (default: the run's own SLO)."""
        return compute_metrics(
            self.records, busy_time=self.busy_time, slo=slo or self.slo
        )


class EventLoop:
    """One run of the discrete-event core, serving a trace on its engines.

    Events are ``(time, sequence, kind, payload, engine)`` tuples; the
    sequence number breaks time ties in insertion order.  The loop owns the
    two event kinds every run has — :data:`ARRIVAL` (payload: a
    :class:`RequestState`) and :data:`STEP_DONE` (payload: the iteration's
    batch; the only kind that names an engine) — and the path from a
    completed iteration to its records.  The hooks serve one engine; a
    fleet subclasses the loop and overrides :meth:`arrive`, :meth:`kick`,
    :meth:`finished`, :meth:`handoff`, :meth:`handle`, and :attr:`settle`.

    Args:
        trace: The arrival trace (one fresh :class:`RequestState` each).
        engines: The engines, indexed by engine id.

    Attributes:
        records: Completed requests, in completion order.
        end_time: Time of the last event not of :attr:`untimed_kinds`.
    """

    #: Called after every arrival batch and iteration completion (a fleet's
    #: autoscaler); ``None`` skips the call.
    settle: Callable[[float], None] | None = None
    #: Event kinds that do not extend :attr:`end_time` (a fleet's faults).
    untimed_kinds: frozenset[int] = frozenset()

    def __init__(self, trace: ArrivalTrace, engines: list[EngineCore]) -> None:
        self.trace = trace
        self.engines = engines
        self.records: list[RequestRecord] = []
        self.end_time = 0.0
        # Traces are in arrival order, so the arrival list is already a heap.
        self.heap: list[tuple[float, int, int, Any, EngineCore | None]] = [
            (state.spec.arrival_time, sequence, ARRIVAL, state, None)
            for sequence, state in enumerate(make_states(trace))
        ]
        self._sequence = itertools.count(len(self.heap))

    def push(self, time: float, kind: int, payload: Any) -> None:
        """Schedule one event."""
        heapq.heappush(self.heap, (time, next(self._sequence), kind, payload, None))

    # ------------------------------------------------------------------ hooks
    def arrive(self, states: list[RequestState], now: float) -> None:
        """Hand simultaneous arrivals to the engine; start it if idle."""
        engine = self.engines[0]
        for state in states:
            engine.enqueue(state)
        self.kick(engine, now)

    def kick(self, engine: EngineCore, now: float) -> bool:
        """Start ``engine``'s next iteration if it is idle; return whether it did."""
        if engine.busy:
            return False
        started = engine.start_iteration(now)
        if started is None:
            return False
        batch, latency = started
        heapq.heappush(
            self.heap, (now + latency, next(self._sequence), STEP_DONE, batch, engine)
        )
        return True

    def finished(self, state: RequestState, record: RequestRecord, now: float) -> None:
        """A request completed (a fleet settles crash watches and SLOs)."""

    def handoff(self, state: RequestState, now: float) -> None:
        """A prefill engine released a request for the decode pool."""
        raise AssertionError("a colocated engine never hands a request off")

    def handle(self, kind: int, payload: Any, now: float) -> None:
        """Process an event kind the loop does not own."""
        raise AssertionError(f"unknown event kind {kind}")

    # ------------------------------------------------------------------- loop
    def run(self) -> None:
        """Pop events until the heap is empty."""
        heap = self.heap
        records = self.records
        pop = heapq.heappop
        arrive, kick, finished = self.arrive, self.kick, self.finished
        settle = self.settle
        end_time = self.end_time
        while heap:
            now, _, kind, payload, engine = pop(heap)
            if kind == STEP_DONE:
                end_time = now
                for state in engine.complete_iteration(payload, now):
                    if state.finished:
                        record = RequestRecord(
                            spec=state.spec,
                            arrival_time=state.spec.arrival_time,
                            started_time=state.started_time,
                            first_token_time=state.first_token_time,
                            completion_time=state.completion_time,
                        )
                        records.append(record)
                        finished(state, record, now)
                    else:
                        self.handoff(state, now)
                kick(engine, now)
            elif kind == ARRIVAL:
                end_time = now
                # Drain every arrival with this exact timestamp before
                # scheduling, so simultaneous requests (offline batches,
                # burst heads) can share the iteration they trigger.
                states = [payload]
                while heap and heap[0][0] == now and heap[0][2] == ARRIVAL:
                    states.append(pop(heap)[3])
                arrive(states, now)
            else:
                if kind not in self.untimed_kinds:
                    end_time = now
                self.handle(kind, payload, now)
                continue
            if settle is not None:
                settle(now)
        self.end_time = end_time
        assert not any(engine.has_work() for engine in self.engines), (
            "simulation ended with unfinished requests"
        )


class ServingSimulator:
    """Discrete-event simulation of one continuously-batched serving engine.

    Args:
        latency_model: Bucketed step latencies (carries the shared session,
            target system, and compiler policy).
        buckets: Shape grid for the batcher (defaults to the latency model's,
            so admission caps and compiled shapes always agree).
        tracer: Optional :class:`repro.obs.Tracer` receiving the engine's
            iteration spans and request lifecycle events.
    """

    def __init__(
        self,
        latency_model: StepLatencyModel,
        buckets: BatchBuckets | None = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.latency_model = latency_model
        self.buckets = buckets or latency_model.buckets
        self.tracer = tracer

    def run(self, trace: ArrivalTrace, slo: SLOSpec | None = None) -> ServingResult:
        """Serve every request of ``trace``; return the completed-run result."""
        loop = self._event_loop(trace, slo)
        loop.run()
        return self._result(loop, slo)

    def _event_loop(self, trace: ArrivalTrace, slo: SLOSpec | None) -> EventLoop:
        """The run's event loop (a fleet returns its own subclass)."""
        engine = EngineCore(self.latency_model, self.buckets, tracer=self.tracer)
        return EventLoop(trace, [engine])

    def _result(self, loop: EventLoop, slo: SLOSpec | None) -> ServingResult:
        """Package a finished loop as the run's result."""
        engine = loop.engines[0]
        return ServingResult(
            trace_name=loop.trace.name,
            policy=self.latency_model.policy,
            records=tuple(loop.records),
            busy_time=engine.busy_time,
            num_iterations=engine.iterations,
            compiled_shapes=tuple(self.latency_model.compiled_shapes()),
            slo=slo,
        )


def simulate_serving(
    trace: ArrivalTrace,
    latency_model: StepLatencyModel,
    *,
    slo: SLOSpec | None = None,
) -> ServingResult:
    """One-call convenience: run ``trace`` on a fresh engine."""
    return ServingSimulator(latency_model).run(trace, slo=slo)
