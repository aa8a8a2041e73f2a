"""Per-operator planning profiles.

Before scheduling, Elk enumerates every operator's execute-state plans, costs
them, and keeps only the Pareto-optimal memory/time frontier (§4.3).  The
scheduler and allocator then never touch raw plans again — they walk these
frontiers.  Preload-state frontiers are derived lazily per chosen execute plan
and cached, since the same execute plan is examined many times across preload
numbers and candidate preload orders.

Enumeration and costing read an operator's type, attributes, and tensor
shapes, dtypes and kinds, never its names.  Repeated layers therefore repeat a
handful of signatures (:func:`operator_signature`), and
:func:`build_operator_profiles` computes one frontier per distinct signature:
a repeat gets the cached frontier rebound to its own operator and tensor names.  Callers that compile
many graphs for one chip (a :class:`~repro.api.service.Session`) pass one
shared memo, so compile cost follows the number of distinct operators, not
the depth of the model or the number of compiled shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Container, Hashable, MutableMapping

from repro.arch.chip import ChipConfig
from repro.cost.model import CostModel, ExecutionCost
from repro.errors import SchedulingError
from repro.ir.graph import OperatorGraph
from repro.ir.operators import Operator
from repro.partition.enumerate import EnumerationLimits, enumerate_execute_plans
from repro.partition.pareto import frontier_from_plans
from repro.partition.plan import ExecutePlan, PreloadPlan, enumerate_preload_plans


@dataclass(frozen=True)
class ExecuteOption:
    """One point on an operator's execute-state Pareto frontier.

    Attributes:
        plan: The execute-state plan.
        cost: Its execution-cost breakdown.
        setup_overhead: The cheapest possible preload-side overhead of this
            plan (distribution time plus interconnect delivery beyond the HBM
            time).  Plans with heavily replicated working sets are fast to
            execute but expensive to materialize; including that cost here is
            what lets the frontier trade execution space against total
            inter-core data movement (Table 1, execution-space row).
    """

    plan: ExecutePlan
    cost: ExecutionCost
    setup_overhead: float = 0.0

    @cached_property
    def memory_bytes(self) -> int:
        """Per-core execution-space footprint."""
        return self.plan.exec_space_bytes

    @cached_property
    def time_seconds(self) -> float:
        """Time cost traded against memory: execution plus setup overhead."""
        return self.cost.total_time + self.setup_overhead


@dataclass(frozen=True)
class PreloadOption:
    """One point on a preload-state Pareto frontier.

    Attributes:
        plan: The preload-state plan.
        distribution_time: Data-distribution time this plan incurs at execution
            start.
        noc_time: Interconnect time to deliver the preload to the cores.
        hbm_time: HBM roofline time of the operator's unique bytes (delivery
            slower than this serializes the preload engine beyond the HBM cost).
    """

    plan: PreloadPlan
    distribution_time: float
    noc_time: float
    hbm_time: float = 0.0

    @cached_property
    def memory_bytes(self) -> int:
        """Per-core preload-space footprint."""
        return self.plan.preload_space_bytes

    @cached_property
    def overhead_time(self) -> float:
        """Total time overhead of this preload-state plan.

        The distribution phase delays the operator's execution start, and any
        interconnect delivery slower than the HBM read stretches the preload
        itself (broadcast amplification).  Both are paid somewhere on the
        timeline, so the Pareto trade-off uses their sum.
        """
        return self.distribution_time + max(0.0, self.noc_time - self.hbm_time)

    @cached_property
    def time_seconds(self) -> float:
        """Time cost traded against memory in the Pareto frontier."""
        return self.overhead_time


@dataclass
class OperatorProfile:
    """All planning information of one operator.

    Attributes:
        index: Execution index of the operator in the model graph.
        op: The operator.
        execute_frontier: Pareto-optimal execute options, fastest (largest) first.
        hbm_bytes: Unique bytes this operator loads from HBM.
        hbm_time: Roofline HBM load time of those bytes.
    """

    index: int
    op: Operator
    execute_frontier: list[ExecuteOption]
    hbm_bytes: int
    hbm_time: float
    _preload_cache: dict[int, list[PreloadOption]] = field(default_factory=dict)

    @property
    def fastest(self) -> ExecuteOption:
        """The fastest (largest-memory) execute option."""
        return self.execute_frontier[0]

    @property
    def smallest(self) -> ExecuteOption:
        """The smallest-memory (slowest) execute option."""
        return self.execute_frontier[-1]

    @property
    def num_plans(self) -> int:
        """Number of Pareto-optimal execute plans (the paper's P factor)."""
        return len(self.execute_frontier)

    def preload_frontier(
        self, execute_plan: ExecutePlan, cost_model: CostModel
    ) -> list[PreloadOption]:
        """Pareto-optimal preload options for a chosen execute plan.

        Ordered from the largest preload space (MaxPreload — no distribution)
        to the smallest (MinPreload — every core only gets its unique share).
        """
        key = id(execute_plan)
        if key not in self._preload_cache:
            raw = enumerate_preload_plans(execute_plan)
            options = [
                PreloadOption(
                    plan=p,
                    distribution_time=cost_model.distribution_time(p),
                    noc_time=cost_model.preload_noc_time(p),
                    hbm_time=self.hbm_time,
                )
                for p in raw
            ]
            frontier = frontier_from_plans(
                options,
                memory_of=lambda o: o.memory_bytes,
                time_of=lambda o: o.time_seconds,
            )
            self._preload_cache[key] = [point.plan for point in frontier]
        return self._preload_cache[key]


#: A memoized frontier: the execute options (bound to the names of the operator
#: that computed them), the operator's unique HBM bytes and their load time.
_Frontier = tuple[list[ExecuteOption], int, float]


def operator_signature(op: Operator) -> Hashable:
    """Everything plan enumeration and costing read of ``op``: no names."""
    return (
        op.op_type,
        tuple(sorted(op.attrs.items())),
        tuple((t.shape, t.dtype, t.kind) for t in op.inputs),
        tuple((t.shape, t.dtype, t.kind) for t in op.outputs),
    )


def count_new_signatures(graph: OperatorGraph, memo: Container[Hashable] = ()) -> int:
    """Distinct operator signatures of ``graph`` that ``memo`` does not hold yet.

    This is how many frontiers :func:`build_operator_profiles` enumerates for
    ``graph`` given ``memo`` (all distinct signatures when ``memo`` is empty).
    """
    return sum(1 for sig in {operator_signature(op) for op in graph} if sig not in memo)


def _enumerate_frontier(
    op: Operator,
    chip: ChipConfig,
    cost_model: CostModel,
    limits: EnumerationLimits | None,
) -> _Frontier:
    """Enumerate, cost, and Pareto-filter one operator's execute plans."""
    plans = enumerate_execute_plans(op, chip, limits)
    hbm_bytes = op.hbm_load_bytes
    hbm_time = cost_model.hbm_load_time(hbm_bytes)
    options = []
    for plan in plans:
        cost = cost_model.execution_cost(op, plan)
        setup = min(
            (
                cost_model.distribution_time(p)
                + max(0.0, cost_model.preload_noc_time(p) - hbm_time)
            )
            for p in enumerate_preload_plans(plan)
        )
        options.append(ExecuteOption(plan=plan, cost=cost, setup_overhead=setup))
    frontier_points = frontier_from_plans(
        options,
        memory_of=lambda o: o.memory_bytes,
        time_of=lambda o: o.time_seconds,
    )
    frontier = [point.plan for point in frontier_points]
    if not frontier:
        raise SchedulingError(f"operator {op.name!r} has an empty plan frontier")
    return frontier, hbm_bytes, hbm_time


def _rebind(frontier: list[ExecuteOption], op: Operator) -> list[ExecuteOption]:
    """``frontier`` with its plans renamed to ``op`` and ``op``'s input tensors.

    Shards come out of the enumerator in ``op.inputs`` order, so they are
    rebound by position.
    """
    if frontier[0].plan.op_name == op.name and all(
        shard.tensor_name == tensor.name
        for shard, tensor in zip(frontier[0].plan.operands, op.inputs)
    ):
        return list(frontier)
    return [
        replace(
            option,
            plan=replace(
                option.plan,
                op_name=op.name,
                operands=tuple(
                    replace(shard, tensor_name=tensor.name)
                    for shard, tensor in zip(option.plan.operands, op.inputs)
                ),
            ),
        )
        for option in frontier
    ]


def build_operator_profiles(
    graph: OperatorGraph,
    chip: ChipConfig,
    cost_model: CostModel,
    limits: EnumerationLimits | None = None,
    memo: MutableMapping[Hashable, _Frontier] | None = None,
) -> list[OperatorProfile]:
    """Enumerate, cost, and Pareto-filter every operator's execute plans.

    Each distinct :func:`operator_signature` is enumerated once; repeats get
    the cached frontier rebound to their own names, so the profiles equal a
    per-operator enumeration exactly.

    Args:
        graph: The model graph.
        chip: Target chip (one chip's share of a model-parallel system).
        cost_model: Cost model used for execution times and HBM roofline.
        limits: Optional enumeration limits.
        memo: Frontiers by operator signature, shared across calls with the
            same ``chip``, ``cost_model`` and ``limits`` (and only those).
            Defaults to a fresh memo, which still dedups within ``graph``.

    Returns:
        One :class:`OperatorProfile` per operator, in execution order.

    Raises:
        SchedulingError: If any operator ends up with an empty frontier.
    """
    if memo is None:
        memo = {}
    profiles: list[OperatorProfile] = []
    for index, op in enumerate(graph):
        key = operator_signature(op)
        cached = memo.get(key)
        if cached is None:
            cached = memo.setdefault(key, _enumerate_frontier(op, chip, cost_model, limits))
        frontier, hbm_bytes, hbm_time = cached
        profiles.append(
            OperatorProfile(
                index=index,
                op=op,
                execute_frontier=_rebind(frontier, op),
                hbm_bytes=hbm_bytes,
                hbm_time=hbm_time,
            )
        )
    return profiles
