"""Cost-aware on-chip memory allocation (§4.3).

Given the currently executing operator and the set of operators preloaded
during its execution, the allocator splits each core's SRAM between the
execution space and the preload spaces.  It starts from every operator's
fastest (largest) plan and greedily steps the most "cost-effective" operator —
the one whose next-smaller Pareto plan frees the most memory per unit of added
time — down its frontier until the total footprint fits (Fig. 11).

:meth:`MemoryAllocator.allocate` is two steps.  :meth:`MemoryAllocator.walk`
is the greedy walk: it reads only the memory and time of frontier points and
returns one position per frontier.  :meth:`MemoryAllocator.materialize` binds
those positions to the operators' plans and builds the
:class:`AllocationResult`.  Operators with equal signatures have equal
frontiers, so a walk's positions hold for any operators with the same
frontiers in the same order; the inductive scheduler memoizes the walk on
that and materializes only the preload number it chooses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cost.model import CostModel
from repro.errors import AllocationError
from repro.scheduler.profiles import ExecuteOption, OperatorProfile, PreloadOption


@dataclass
class PreloadAssignment:
    """Chosen preload-state plan for one preloaded operator.

    Attributes:
        profile: The operator's planning profile.
        execute_option: The operator's already-chosen execute-state plan.
        option: The chosen preload option.
        frontier_index: Position of ``option`` on the preload frontier.
    """

    profile: OperatorProfile
    execute_option: ExecuteOption
    option: PreloadOption
    frontier_index: int


@dataclass
class AllocationResult:
    """Outcome of one allocator invocation.

    Attributes:
        execute_option: Chosen execute-state plan of the current operator.
        execute_frontier_index: Its position on the execute frontier.
        preload_assignments: Chosen preload plans, keyed by operator index.
        total_memory_bytes: Per-core SRAM used by the allocation.
        execution_time: Current operator's execution time under the chosen plan.
        distribution_time_total: Sum of the preloaded operators' distribution times.
        contention_time: First-order interconnect contention overhead of
            overlapping the preload deliveries with the execution window.
        window_time: Estimated duration of the execution window (objective).
        preload_overhead_penalty: Extra preload/distribution overhead the
            chosen preload plans incur compared with each operator's best
            (largest) preload plan — the future cost of squeezing this many
            operators on chip, used by the scheduler when comparing preload
            numbers.
    """

    execute_option: ExecuteOption
    execute_frontier_index: int
    preload_assignments: dict[int, PreloadAssignment]
    total_memory_bytes: int
    execution_time: float
    distribution_time_total: float
    contention_time: float
    window_time: float
    preload_overhead_penalty: float = 0.0


class MemoryAllocator:
    """The §4.3 greedy allocator.

    Args:
        cost_model: Cost model used for contention estimates.
        sram_budget_bytes: Per-core SRAM available to execution + preload spaces.
        link_bandwidth: Per-core interconnect port bandwidth (contention estimate).
    """

    def __init__(
        self,
        cost_model: CostModel,
        sram_budget_bytes: int,
        link_bandwidth: float,
    ) -> None:
        if sram_budget_bytes <= 0:
            raise AllocationError("SRAM budget must be positive")
        self.cost_model = cost_model
        self.sram_budget = sram_budget_bytes
        self.link_bandwidth = link_bandwidth

    # ---------------------------------------------------------------- interface
    def allocate(
        self,
        current: OperatorProfile,
        preloaded: Sequence[tuple[OperatorProfile, ExecuteOption]],
    ) -> AllocationResult | None:
        """Allocate SRAM between the current operator and the preloaded set.

        Args:
            current: Profile of the currently executing operator.
            preloaded: For each operator preloaded during the current
                operator's execution: its profile and its already-chosen
                execute-state plan (decided by a later induction step).

        Returns:
            The allocation, or ``None`` if even the smallest plans of every
            operator exceed the SRAM budget (the preload number is infeasible).
        """
        positions = self.walk(self.frontiers(current, preloaded))
        if positions is None:
            return None
        return self.materialize(current, preloaded, positions)

    def frontiers(
        self,
        current: OperatorProfile,
        preloaded: Sequence[tuple[OperatorProfile, ExecuteOption]],
    ) -> list[Sequence[ExecuteOption] | Sequence[PreloadOption]]:
        """The frontiers the walk steps along: the current operator's execute
        frontier first, then each preloaded operator's preload frontier."""
        return [current.execute_frontier] + [
            profile.preload_frontier(execute_option.plan, self.cost_model)
            for profile, execute_option in preloaded
        ]

    def walk(self, frontiers: Sequence[Sequence]) -> list[int] | None:
        """The greedy walk: one position per frontier, or ``None`` if nothing fits.

        Starts every operator at its fastest (largest) plan and steps the one
        with the best space-saved / time-added ratio until the footprint fits
        or no operator can shrink further.  The first strictly better ratio
        wins a tie, so the walk depends on the order of ``frontiers``.  It
        reads only ``memory_bytes`` and ``time_seconds``, which is what lets
        :class:`~repro.scheduler.inductive.InductiveScheduler` memoize it.
        """
        positions = [0] * len(frontiers)
        total_memory = sum(frontier[0].memory_bytes for frontier in frontiers)
        while total_memory > self.sram_budget:
            best = -1
            best_ratio = -1.0
            best_saved = 0
            for k, frontier in enumerate(frontiers):
                position = positions[k]
                if position + 1 >= len(frontier):
                    continue
                option, nxt = frontier[position], frontier[position + 1]
                saved = option.memory_bytes - nxt.memory_bytes
                added = nxt.time_seconds - option.time_seconds
                if saved <= 0:
                    ratio = float("inf") if added <= 0 else 0.0
                else:
                    ratio = saved / max(added, 1e-12)
                if ratio > best_ratio:
                    best_ratio = ratio
                    best = k
                    best_saved = saved
            if best < 0:
                return None
            positions[best] += 1
            total_memory -= best_saved
        return positions

    def window(self, execute_option: ExecuteOption) -> tuple[float, float]:
        """``(execution_time, contention_time)`` of the current operator's window.

        First-order interconnect contention: the execution window's per-core
        inbound link carries the current operator's exchange traffic; the
        preload deliveries are spread over many execution windows, so they
        are accounted globally by the timeline replay rather than charged to
        this single window (charging them here would spuriously punish
        larger preload numbers).
        """
        execution_time = execute_option.cost.total_time
        own_bytes = execute_option.cost.exchange_bytes
        link_time = own_bytes / self.link_bandwidth if self.link_bandwidth > 0 else 0.0
        return execution_time, max(0.0, link_time - execution_time)

    @staticmethod
    def overhead_penalty(frontiers: Sequence[Sequence], positions: Sequence[int]) -> float:
        """Overhead of the walked plans over every operator's fastest plan.

        Squeezing the current operator (``frontiers[0]``) below its fastest
        plan counts its added time; each preloaded operator counts the extra
        overhead of its preload plan over its MaxPreload plan.
        """
        current = frontiers[0]
        penalty = 0.0
        penalty += current[positions[0]].time_seconds - current[0].time_seconds
        for frontier, position in zip(frontiers[1:], positions[1:]):
            penalty += frontier[position].overhead_time - frontier[0].overhead_time
        return penalty

    def materialize(
        self,
        current: OperatorProfile,
        preloaded: Sequence[tuple[OperatorProfile, ExecuteOption]],
        positions: Sequence[int],
    ) -> AllocationResult:
        """The :class:`AllocationResult` of walked ``positions``.

        ``positions`` index ``current``'s execute frontier and each preloaded
        operator's own preload frontier, in the order :meth:`frontiers` lists
        them, so positions walked on an equal operator's frontiers bind to
        these operators' plans.
        """
        frontiers = self.frontiers(current, preloaded)
        execute_option: ExecuteOption = frontiers[0][positions[0]]
        assignments: dict[int, PreloadAssignment] = {}
        total_memory = execute_option.memory_bytes
        distribution_total = 0.0
        for (profile, option_of_execute), frontier, position in zip(
            preloaded, frontiers[1:], positions[1:]
        ):
            option: PreloadOption = frontier[position]
            assignments[profile.index] = PreloadAssignment(
                profile=profile,
                execute_option=option_of_execute,
                option=option,
                frontier_index=position,
            )
            total_memory += option.memory_bytes
            distribution_total += option.distribution_time
        execution_time, contention = self.window(execute_option)
        return AllocationResult(
            execute_option=execute_option,
            execute_frontier_index=positions[0],
            preload_assignments=assignments,
            total_memory_bytes=total_memory,
            execution_time=execution_time,
            distribution_time_total=distribution_total,
            contention_time=contention,
            window_time=execution_time + contention,
            preload_overhead_penalty=self.overhead_penalty(frontiers, positions),
        )
