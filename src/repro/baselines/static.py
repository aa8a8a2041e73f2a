"""The ``Static`` baseline compiler (§6.1).

Static extends the state-of-the-art on-chip compiler (T10) with HBM support
the way SambaNova-style systems do: a *fixed* fraction of every core's SRAM is
reserved as preload space for the whole model execution, multiple operators
are preloaded ahead into that space, and each operator picks its fastest
execution plan that fits the remaining (fixed) execution space.  All preloaded
operators use either the largest-footprint or the smallest-footprint
preload-state plan, whichever makes the model faster overall.  The best static
split is found by sweeping the preload fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.arch.chip import ChipConfig
from repro.cost.model import CostModel
from repro.errors import SchedulingError
from repro.scheduler.plan import ExecutionPlan, make_schedule
from repro.scheduler.profiles import ExecuteOption, OperatorProfile
from repro.scheduler.timeline import TimelineEvaluator, TimelineResult


@dataclass(frozen=True)
class StaticOptions:
    """Search space of the Static baseline.

    Attributes:
        preload_fractions: Candidate fractions of per-core SRAM reserved for
            the preload space.
        max_preload_ahead: Cap on operators preloaded ahead.
    """

    preload_fractions: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    max_preload_ahead: int = 16


class StaticCompiler:
    """Builds the best Static execution plan for a model on a chip.

    Args:
        profiles: Per-operator planning profiles, in execution order.
        cost_model: Cost model.
        chip: Target chip (budget + evaluation).
        total_flops: Per-chip graph FLOPs, for evaluation.
        options: Search bounds.
    """

    def __init__(
        self,
        profiles: Sequence[OperatorProfile],
        cost_model: CostModel,
        chip: ChipConfig,
        total_flops: int = 0,
        options: StaticOptions | None = None,
    ) -> None:
        self.profiles = list(profiles)
        self.cost_model = cost_model
        self.chip = chip
        self.sram_budget = chip.per_core_usable_sram
        self.total_flops = total_flops
        self.options = options or StaticOptions()

    # ------------------------------------------------------------------ pieces
    def _execute_option_within(self, profile: OperatorProfile, budget: int) -> ExecuteOption:
        """Fastest execute option fitting ``budget`` (frontier is sorted fastest-first)."""
        for option in profile.execute_frontier:
            if option.memory_bytes <= budget:
                return option
        # Nothing fits the restricted execution space; fall back to the
        # smallest plan (it fits the full budget by construction).
        return profile.smallest

    def build_plan(
        self, preload_fraction: float, use_max_preload: bool, model_name: str
    ) -> ExecutionPlan:
        """One static split: the plan for a fixed preload share of SRAM.

        Args:
            preload_fraction: Share of each core's usable SRAM reserved for
                preloading; the rest is the execution space.
            use_max_preload: Preload each operator with its largest preload
                option (MaxPreload) instead of its smallest (MinPreload).
            model_name: Name recorded on the plan.

        :meth:`plan` searches these splits; the Figs. 7/8 study builds one
        split of each mode directly.
        """
        exec_budget = int(self.sram_budget * (1.0 - preload_fraction))
        preload_budget = self.sram_budget - exec_budget

        execute_options = [
            self._execute_option_within(profile, exec_budget) for profile in self.profiles
        ]
        preload_options = []
        for profile, execute_option in zip(self.profiles, execute_options):
            frontier = profile.preload_frontier(execute_option.plan, self.cost_model)
            preload_options.append(frontier[0] if use_max_preload else frontier[-1])

        n = len(self.profiles)
        preload_numbers = [0] * n
        for i in range(n):
            used = 0
            count = 0
            for j in range(i + 1, min(n, i + 1 + self.options.max_preload_ahead)):
                footprint = preload_options[j].memory_bytes
                if used + footprint > preload_budget:
                    break
                used += footprint
                count += 1
            preload_numbers[i] = count

        schedules = [
            make_schedule(
                index=i,
                op_name=profile.op.name,
                execute_option=execute_options[i],
                preload_option=preload_options[i],
                hbm_bytes=profile.hbm_bytes,
                hbm_time=profile.hbm_time,
                preload_number=preload_numbers[i],
                op_type=profile.op.op_type,
            )
            for i, profile in enumerate(self.profiles)
        ]
        plan = ExecutionPlan(
            model_name=model_name,
            policy="static",
            schedules=schedules,
            preload_order=tuple(range(n)),
            sram_budget_bytes=self.sram_budget,
        )
        plan.metadata.update(
            {"preload_fraction": preload_fraction, "use_max_preload": use_max_preload}
        )
        return plan

    # --------------------------------------------------------------------- run
    def plan(self, model_name: str = "") -> tuple[ExecutionPlan, TimelineResult]:
        """Search static splits and return the best plan with its timeline."""
        evaluator = TimelineEvaluator(self.chip, total_flops=self.total_flops)
        best: tuple[ExecutionPlan, TimelineResult] | None = None
        for fraction in self.options.preload_fractions:
            for use_max in (True, False):
                try:
                    candidate = self.build_plan(fraction, use_max, model_name)
                    timeline = evaluator.evaluate(candidate)
                except SchedulingError:
                    continue
                if best is None or timeline.total_time < best[1].total_time:
                    best = (candidate, timeline)
        if best is None:
            raise SchedulingError("Static baseline found no feasible split")
        return best
