"""Two-level inductive operator scheduling (§4.2).

The scheduler decides, for every operator, how many future operators' preloads
overlap its execution (the *preload number*), and — through the cost-aware
allocator — which execute-state and preload-state plans they use.  It walks
the model backwards: the last operator trivially overlaps nothing (Lemma 4.1),
and each preceding operator enumerates all feasible preload numbers, invoking
the allocator for each, and keeps the one that lets it start executing as late
as possible, i.e. that minimizes the current-to-end time (Theorem 4.2).

The induction is parameterized by a *preload order* (a permutation of the
operators): the operators overlapped with operator ``i``'s execution are the
next ones in preload order that are not yet on chip, which is how the §4.4
preload-order permutation plugs into the same scheduling pass.

Scheduling once per distinct allocation.  The allocator walk reads only the
frontiers of the current operator and of each preloaded operator at its
chosen execute plan, and repeated layers repeat those frontiers.  One
scheduler therefore memoizes the walk, across every preload order it is
given and every layer of the model, keyed by the current operator's
:func:`~repro.scheduler.profiles.operator_signature` class followed by one
integer per preloaded operator: its signature class times a stride plus
its execute-frontier index.  The key keeps the preload order, because the
walk's strict ``>`` tie-break depends on it.  A memo entry holds only
positions and floats (the window time, the preload-overhead penalty and the
walked frontier positions), so a hit binds by position to whatever
operators now hold those positions, never to the names of the operators
that first produced it.  Preload numbers are compared on those floats
alone; only the chosen one is materialized into an
:class:`~repro.scheduler.allocation.AllocationResult`.  The memo lives as
long as the scheduler, which :class:`~repro.scheduler.elk.ElkScheduler`
builds once per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.cost.model import CostModel
from repro.errors import SchedulingError
from repro.scheduler.allocation import MemoryAllocator, PreloadAssignment
from repro.scheduler.plan import ExecutionPlan, OperatorSchedule, make_schedule
from repro.scheduler.profiles import (
    ExecuteOption,
    OperatorProfile,
    PreloadOption,
    operator_signature,
)


@dataclass
class SchedulerOptions:
    """Knobs of the inductive scheduler.

    Attributes:
        max_preload_ahead: Hard cap on the preload number examined per operator
            (``None`` lets the SRAM capacity bound it naturally).
        policy_name: Name recorded in the produced :class:`ExecutionPlan`.
    """

    max_preload_ahead: int | None = None
    policy_name: str = "elk-dyn"


@dataclass
class _Decision:
    """Internal per-operator scheduling state."""

    preload_number: int = 0
    execute_option: ExecuteOption | None = None
    execute_index: int = 0
    exec_start: float = 0.0
    exec_end: float = 0.0
    preload_start: float = 0.0
    preload_end: float = 0.0


#: A memoized allocator walk: ``None`` if the allocation is infeasible, else
#: ``(window_time, preload_overhead_penalty, execute_position,
#: *preload_positions)``.  One flat tuple keeps thousands of entries small.
_Walk = tuple | None


class InductiveScheduler:
    """Backward-induction scheduler over a fixed preload order.

    Args:
        profiles: Per-operator planning profiles, in execution order.  Profiles
            with equal :func:`~repro.scheduler.profiles.operator_signature`
            must have equal frontiers, as
            :func:`~repro.scheduler.profiles.build_operator_profiles` builds
            them.
        cost_model: Cost model shared with the allocator.
        sram_budget_bytes: Per-core SRAM available to execution + preload spaces.
        link_bandwidth: Per-core interconnect port bandwidth.
        options: Scheduler knobs.
    """

    def __init__(
        self,
        profiles: Sequence[OperatorProfile],
        cost_model: CostModel,
        sram_budget_bytes: int,
        link_bandwidth: float,
        options: SchedulerOptions | None = None,
    ) -> None:
        if not profiles:
            raise SchedulingError("cannot schedule an empty model")
        self.profiles = list(profiles)
        self.cost_model = cost_model
        self.sram_budget = sram_budget_bytes
        self.options = options or SchedulerOptions()
        self.allocator = MemoryAllocator(cost_model, sram_budget_bytes, link_bandwidth)
        # Operators with equal signatures share a class; a preloaded operator
        # enters a memo key as ``class * stride + execute-frontier index``.
        classes: dict[Hashable, int] = {}
        self._classes = [
            classes.setdefault(operator_signature(profile.op), len(classes))
            for profile in self.profiles
        ]
        self._stride = max(len(profile.execute_frontier) for profile in self.profiles)
        self._walks: dict[tuple[int, ...], _Walk] = {}

    # ------------------------------------------------------------------ helpers
    def _position_frontiers(self, order: Sequence[int]) -> tuple[list[int], list[int]]:
        """Per-operator preload positions and frontier indices.

        Returns ``(pos, q)`` where ``pos[i]`` is operator ``i``'s position in
        the preload order and ``q[i]`` is one past the largest preload position
        among operators executing at or before ``i`` — i.e. the first preload
        that may still be outstanding when operator ``i`` starts executing.
        """
        n = len(self.profiles)
        pos = [0] * n
        for position, op_index in enumerate(order):
            pos[op_index] = position
        q: list[int] = [0] * n
        running = -1
        for i in range(n):
            running = max(running, pos[i])
            q[i] = running + 1
        return pos, q

    def _default_preload_option(
        self, profile: OperatorProfile, execute_option: ExecuteOption
    ) -> PreloadOption:
        """MaxPreload option used when no allocation constrained this operator."""
        frontier = profile.preload_frontier(execute_option.plan, self.cost_model)
        return frontier[0]

    def _walk(
        self, key: tuple[int, ...], current: OperatorProfile, preloaded: list
    ) -> _Walk:
        """The allocator walk of ``current`` with ``preloaded``, memoized on
        ``key`` (see the module docstring)."""
        try:
            return self._walks[key]
        except KeyError:
            pass
        allocator = self.allocator
        frontiers = allocator.frontiers(current, preloaded)
        positions = allocator.walk(frontiers)
        if positions is None:
            walk = None
        else:
            execution_time, contention = allocator.window(frontiers[0][positions[0]])
            penalty = allocator.overhead_penalty(frontiers, positions)
            walk = (execution_time + contention, penalty, *positions)
        self._walks[key] = walk
        return walk

    # ---------------------------------------------------------------- scheduling
    def schedule(self, preload_order: Sequence[int] | None = None) -> ExecutionPlan:
        """Produce an execution plan for the given preload order.

        Args:
            preload_order: Operator indices in preload-issue order.  ``None``
                uses the execution order (no reordering — Elk-Dyn).

        Returns:
            The per-chip :class:`ExecutionPlan`.

        Raises:
            SchedulingError: If some operator cannot fit on the chip even with
                its smallest plan and no overlapped preloads.
        """
        n = len(self.profiles)
        order = list(preload_order) if preload_order is not None else list(range(n))
        if sorted(order) != list(range(n)):
            raise SchedulingError("preload order must be a permutation of the operators")
        pos, q = self._position_frontiers(order)

        profiles = self.profiles
        classes = self._classes
        stride = self._stride
        decisions: list[_Decision] = [_Decision() for _ in range(n)]
        preload_assignments: dict[int, PreloadAssignment] = {}
        max_ahead = (
            n if self.options.max_preload_ahead is None else self.options.max_preload_ahead
        )

        for i in range(n - 1, -1, -1):
            profile = profiles[i]
            # Operators preloaded before i executes and not executed by then,
            # then the candidates to overlap with i, in preload order.
            resident = [j for j in order[: q[i]] if j > i]
            resident_count = len(resident)
            preloaded = []
            key = (classes[i],)
            best: tuple[float, int, tuple, float] | None = None
            for p in range(0, min(max_ahead, n - q[i]) + 1):
                if p:
                    resident.append(order[q[i] + p - 1])
                for j in resident[len(preloaded):]:
                    decision = decisions[j]
                    if decision.execute_option is None:
                        raise SchedulingError(
                            "internal error: resident operator scheduled out of order"
                        )
                    preloaded.append((profiles[j], decision.execute_option))
                    key += (classes[j] * stride + decision.execute_index,)
                walk = self._walk(key, profile, preloaded)
                if walk is None:
                    if p == 0:
                        raise SchedulingError(
                            f"operator {profile.op.name!r} cannot fit per-core SRAM "
                            f"({self.sram_budget} bytes) even without overlapped preloads"
                        )
                    break  # adding more preloads only increases the footprint
                window_time, penalty = walk[0], walk[1]

                # Latest feasible end of operator i's execution (Theorem 4.2).
                end_candidates = [0.0 if i + 1 >= n else decisions[i + 1].exec_start]
                boundary = q[i] + p
                if boundary < n:
                    end_candidates.append(decisions[order[boundary]].preload_start)
                exec_end = min(end_candidates)
                exec_start = exec_end - window_time
                # The score penalizes preload numbers that only fit by pushing
                # the overlapped operators (or this one) onto slower plans;
                # that overhead is paid later on the timeline even though it
                # does not delay this operator's own start.
                score = exec_start - penalty
                # Ties favour the larger preload number: the backward model's
                # preload times are as-late-as-possible estimates, so when two
                # preload numbers look equal the larger one keeps the HBM
                # busier in the forward replay at no estimated cost.
                if best is None or score >= best[0] - 1e-12:
                    best = (score, p, walk, exec_start)

            assert best is not None
            _, p, walk, exec_start = best
            # Only the chosen preload number is materialized: the memoized
            # positions bind to these operators' own frontiers.
            allocation = self.allocator.materialize(
                profile, preloaded[: resident_count + p], walk[2:]
            )
            decision = decisions[i]
            decision.preload_number = p
            decision.execute_option = allocation.execute_option
            decision.execute_index = allocation.execute_frontier_index
            decision.exec_start = exec_start
            decision.exec_end = exec_start + allocation.window_time
            preload_assignments.update(allocation.preload_assignments)

            # Schedule operator i's preload to finish right before whichever
            # comes first: its own execution or the next preload in order.
            preload_option = (
                preload_assignments[i].option
                if i in preload_assignments
                else self._default_preload_option(profile, allocation.execute_option)
            )
            preload_duration = max(profile.hbm_time, preload_option.noc_time)
            end_candidates = [decision.exec_start]
            if pos[i] + 1 < n:
                successor = order[pos[i] + 1]
                if successor > i:  # already scheduled in the backward pass
                    end_candidates.append(decisions[successor].preload_start)
            decision.preload_end = min(end_candidates)
            decision.preload_start = decision.preload_end - preload_duration

        return self._build_plan(order, decisions, preload_assignments)

    # ------------------------------------------------------------------ assembly
    def _build_plan(
        self,
        order: list[int],
        decisions: list[_Decision],
        preload_assignments: dict[int, PreloadAssignment],
    ) -> ExecutionPlan:
        schedules: list[OperatorSchedule] = []
        for i, profile in enumerate(self.profiles):
            decision = decisions[i]
            assert decision.execute_option is not None
            if i in preload_assignments:
                preload_option = preload_assignments[i].option
            else:
                preload_option = self._default_preload_option(
                    profile, decision.execute_option
                )
            schedules.append(
                make_schedule(
                    index=i,
                    op_name=profile.op.name,
                    execute_option=decision.execute_option,
                    preload_option=preload_option,
                    hbm_bytes=profile.hbm_bytes,
                    hbm_time=profile.hbm_time,
                    preload_number=decision.preload_number,
                    op_type=profile.op.op_type,
                )
            )
        return ExecutionPlan(
            model_name=self.profiles[0].op.name.split(".")[0] if self.profiles else "",
            policy=self.options.policy_name,
            schedules=schedules,
            preload_order=tuple(order),
            sram_budget_bytes=self.sram_budget,
        )
