"""Cost-aware on-chip memory allocation (§4.3).

Given the currently executing operator and the set of operators preloaded
during its execution, the allocator splits each core's SRAM between the
execution space and the preload spaces.  It starts from every operator's
fastest (largest) plan and greedily steps the most "cost-effective" operator —
the one whose next-smaller Pareto plan frees the most memory per unit of added
time — down its frontier until the total footprint fits (Fig. 11).
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


@dataclass
class _Candidate:
    """Internal: one operator's walk position along its Pareto frontier."""

    key: int  # operator index; the current operator uses its own index
    frontier: Sequence  # sequence of ExecuteOption or PreloadOption
    position: int = 0

    @property
    def option(self):
        return self.frontier[self.position]


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
        current_candidate = _Candidate(key=current.index, frontier=current.execute_frontier)
        preload_candidates: list[_Candidate] = []
        execute_options: dict[int, ExecuteOption] = {}
        profiles_by_index: dict[int, OperatorProfile] = {}
        for profile, execute_option in preloaded:
            frontier = profile.preload_frontier(execute_option.plan, self.cost_model)
            preload_candidates.append(_Candidate(key=profile.index, frontier=frontier))
            execute_options[profile.index] = execute_option
            profiles_by_index[profile.index] = profile

        candidates = [current_candidate] + preload_candidates
        total_memory = sum(c.option.memory_bytes for c in candidates)

        # Greedy walk: step the operator with the best space-saved / time-added
        # ratio until the footprint fits or no operator can shrink further.
        while total_memory > self.sram_budget:
            best: _Candidate | None = None
            best_ratio = -1.0
            best_saved = 0
            for candidate in candidates:
                frontier = candidate.frontier
                position = candidate.position
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
                    best = candidate
                    best_saved = saved
            if best is None:
                return None
            best.position += 1
            total_memory -= best_saved

        return self._build_result(
            current,
            current_candidate,
            preload_candidates,
            execute_options,
            profiles_by_index,
            total_memory,
        )

    # ----------------------------------------------------------------- internal
    def _build_result(
        self,
        current: OperatorProfile,
        current_candidate: _Candidate,
        preload_candidates: Sequence[_Candidate],
        execute_options: dict[int, ExecuteOption],
        profiles_by_index: dict[int, OperatorProfile],
        total_memory: int,
    ) -> AllocationResult:
        execute_option: ExecuteOption = current_candidate.option
        assignments: dict[int, PreloadAssignment] = {}
        distribution_total = 0.0
        preload_noc_bytes = 0
        overhead_penalty = 0.0
        # Squeezing the current operator below its fastest plan is also a cost
        # paid because of the chosen preload number.
        overhead_penalty += (
            current_candidate.option.time_seconds
            - current_candidate.frontier[0].time_seconds
        )
        for candidate in preload_candidates:
            option: PreloadOption = candidate.option
            assignments[candidate.key] = PreloadAssignment(
                profile=profiles_by_index[candidate.key],
                execute_option=execute_options[candidate.key],
                option=option,
                frontier_index=candidate.position,
            )
            distribution_total += option.distribution_time
            preload_noc_bytes += option.plan.preload_noc_bytes_per_core
            overhead_penalty += option.overhead_time - candidate.frontier[0].overhead_time

        execution_time = execute_option.cost.total_time
        # First-order interconnect contention: the execution window's per-core
        # inbound link carries the current operator's exchange traffic; the
        # preload deliveries are spread over many execution windows, so they
        # are accounted globally by the timeline replay rather than charged to
        # this single window (charging them here would spuriously punish
        # larger preload numbers).
        own_bytes = execute_option.cost.exchange_bytes
        link_time = own_bytes / self.link_bandwidth if self.link_bandwidth > 0 else 0.0
        contention = max(0.0, link_time - execution_time)
        window_time = execution_time + contention

        return AllocationResult(
            execute_option=execute_option,
            execute_frontier_index=current_candidate.position,
            preload_assignments=assignments,
            total_memory_bytes=total_memory,
            execution_time=execution_time,
            distribution_time_total=distribution_total,
            contention_time=contention,
            window_time=window_time,
            preload_overhead_penalty=overhead_penalty,
        )
