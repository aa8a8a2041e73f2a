"""The signature memos of the compile path.

Profiles are built once per distinct operator signature and rebound to each
repeat's names, and an :class:`InductiveScheduler` runs the allocator walk
once per distinct walk input.  These tests pin that the memos change cost,
never results:

* a Hypothesis differential test against a test-local reference that
  enumerates, costs and Pareto-filters every operator on its own;
* enumeration count flat in model depth;
* a session sharing frontiers across compiled shapes;
* the ``partition-enumeration`` span reporting the dedup, deterministically;
* concurrent builds through one session's shared memo;
* a Hypothesis differential of the memoized scheduler against a test-local
  scheduler that calls the allocator for every (operator, preload number);
* one allocator walk per distinct walk input on gemma2-27b.
"""

from __future__ import annotations

import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.scheduler.profiles as profiles_module
from repro.api import Session
from repro.arch import ipu_pod4
from repro.compiler import ModelCompiler, WorkloadSpec
from repro.errors import ElkError, SchedulingError
from repro.ir.models.registry import DIT_CONFIGS, available_models
from repro.obs import Tracer, to_jsonl
from repro.partition.enumerate import enumerate_execute_plans
from repro.partition.pareto import frontier_from_plans
from repro.partition.plan import enumerate_preload_plans
from repro.scheduler import ElkScheduler, InductiveScheduler, MemoryAllocator, SchedulerOptions
from repro.scheduler.profiles import ExecuteOption, count_new_signatures, operator_signature

#: One session for every example, so later examples hit frontiers that
#: earlier graphs (other models, phases and shapes) put in its memo.
SESSION = Session()
SYSTEM = ipu_pod4()


def reference_profile(op, chip, cost_model, limits):
    """One operator's (frontier, hbm bytes, hbm time), computed on its own."""
    hbm_bytes = op.hbm_load_bytes
    hbm_time = cost_model.hbm_load_time(hbm_bytes)
    options = []
    for plan in enumerate_execute_plans(op, chip, limits):
        setup = min(
            cost_model.distribution_time(p)
            + max(0.0, cost_model.preload_noc_time(p) - hbm_time)
            for p in enumerate_preload_plans(plan)
        )
        options.append(ExecuteOption(plan, cost_model.execution_cost(op, plan), setup))
    points = frontier_from_plans(
        options,
        memory_of=lambda o: o.plan.exec_space_bytes,
        time_of=lambda o: o.cost.total_time + o.setup_overhead,
    )
    return [point.plan for point in points], hbm_bytes, hbm_time


@st.composite
def workloads(draw) -> WorkloadSpec:
    model = draw(st.sampled_from(available_models()))
    phase = "decode" if model in DIT_CONFIGS else draw(st.sampled_from(("decode", "prefill")))
    return WorkloadSpec(
        model,
        batch_size=draw(st.sampled_from((1, 2, 4, 16))),
        seq_len=draw(st.sampled_from((128, 512, 2048))),
        phase=phase,
        num_layers=draw(st.integers(1, 3)),
    )


@given(workload=workloads())
@settings(max_examples=25, deadline=None)
def test_memoized_profiles_equal_per_operator_reference(workload):
    graph = SESSION.frontend(workload, SYSTEM).per_chip_graph
    chip = SYSTEM.chip
    cost_model = SESSION.cost_model(chip)
    limits = SESSION.elk_options.enumeration
    try:
        expected = [reference_profile(op, chip, cost_model, limits) for op in graph]
    except ElkError as error:  # the shape does not fit: the memo must agree
        with pytest.raises(type(error), match=re.escape(str(error))):
            SESSION.profiles(workload, SYSTEM)
        return
    built = SESSION.profiles(workload, SYSTEM)
    assert len(built) == len(expected) == len(graph)
    for index, (op, profile, (frontier, hbm_bytes, hbm_time)) in enumerate(
        zip(graph, built, expected)
    ):
        assert profile.index == index and profile.op is op
        assert repr(profile.execute_frontier) == repr(frontier)
        assert (profile.hbm_bytes, profile.hbm_time) == (hbm_bytes, hbm_time)
        for option in profile.execute_frontier:
            assert option.plan.op_name == op.name
            for shard, tensor in zip(option.plan.operands, op.inputs):
                assert shard.tensor_name == tensor.name


@pytest.fixture
def enumerations(monkeypatch) -> list[str]:
    """Names of the operators ``enumerate_execute_plans`` is called on."""
    calls: list[str] = []
    real = profiles_module.enumerate_execute_plans

    def counting(op, chip, limits=None):
        calls.append(op.name)
        return real(op, chip, limits)

    monkeypatch.setattr(profiles_module, "enumerate_execute_plans", counting)
    return calls


def test_enumeration_count_flat_in_depth(enumerations):
    counts = {}
    for layers in (2, 20):
        compiler = ModelCompiler(
            WorkloadSpec("llama2-70b", batch_size=16, seq_len=4096, num_layers=layers),
            SYSTEM,
        )
        enumerations.clear()
        profiles = compiler.profiles
        counts[layers] = len(enumerations)
        assert counts[layers] == count_new_signatures(compiler.frontend.per_chip_graph)
    assert counts[2] == counts[20]
    assert counts[20] < len(profiles) // 10


def test_session_shares_frontiers_across_buckets(enumerations):
    session = Session()
    first = session.profiles(WorkloadSpec("llama2-13b", 4, 256, num_layers=2), SYSTEM)
    after_first = len(enumerations)
    second = session.profiles(WorkloadSpec("llama2-13b", 4, 512, num_layers=2), SYSTEM)
    enumerated = len(enumerations) - after_first
    # The weight matmuls and norms of the (4, 512) bucket are the (4, 256)
    # bucket's; only the context-length-dependent attention is new.
    assert 0 < enumerated < len(second)
    assert session.stats.frontier_builds == len(enumerations)
    assert session.stats.profile_builds == 2
    assert [p.op.name for p in second] == [p.op.name for p in first]


def test_enumeration_span_reports_dedup_deterministically():
    workload = WorkloadSpec("llama2-70b", batch_size=16, seq_len=4096, num_layers=4)
    exports = []
    for _ in range(2):
        tracer = Tracer()
        compiler = ModelCompiler(workload, SYSTEM, tracer=tracer)
        compiler.compile("elk-full")
        exports.append(to_jsonl(tracer))
        (span,) = [s for s in tracer.spans() if s.name == "partition-enumeration"]
        attrs = dict(span.attrs)
        assert attrs["num_profiles"] == len(compiler.profiles)
        assert attrs["num_enumerated"] == count_new_signatures(
            compiler.frontend.per_chip_graph
        )
        assert attrs["num_enumerated"] < attrs["num_profiles"]
    assert exports[0] == exports[1]


def test_concurrent_builds_share_one_memo_safely():
    workloads = [
        WorkloadSpec("llama2-13b", batch, context, num_layers=2)
        for batch in (1, 2, 4)
        for context in (256, 512)
    ]

    def frontiers(profiles):
        return repr([profile.execute_frontier for profile in profiles])

    sequential = Session()
    expected = {w: frontiers(sequential.profiles(w, SYSTEM)) for w in workloads}
    session = Session()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=(os.cpu_count() or 1) + 1) as pool:
            futures = [(w, pool.submit(session.profiles, w, SYSTEM)) for w in workloads * 3]
            got = [(w, frontiers(future.result(timeout=300))) for w, future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(text == expected[w] for w, text in got)
    # A race may enumerate one signature twice, never skip one.
    assert session.stats.frontier_builds >= sequential.stats.frontier_builds


def reference_schedule(scheduler, order, on_allocate=None):
    """The inductive pass with one un-memoized ``allocate`` per (operator, p).

    ``on_allocate(current, preloaded)`` sees every allocator call.
    """
    profiles = scheduler.profiles
    n = len(profiles)
    pos, q = scheduler._position_frontiers(order)
    decisions = [
        SimpleNamespace(
            preload_number=0, execute_option=None, exec_start=0.0, preload_start=0.0
        )
        for _ in range(n)
    ]
    assignments = {}
    ahead = scheduler.options.max_preload_ahead
    max_ahead = n if ahead is None else ahead
    for i in range(n - 1, -1, -1):
        profile = profiles[i]
        best = None
        for p in range(min(max_ahead, n - q[i]) + 1):
            resident = [j for j in order[: q[i]] if j > i] + list(order[q[i]: q[i] + p])
            preloaded = [(profiles[j], decisions[j].execute_option) for j in resident]
            if on_allocate is not None:
                on_allocate(profile, preloaded)
            allocation = scheduler.allocator.allocate(profile, preloaded)
            if allocation is None:
                if p == 0:
                    raise SchedulingError(
                        f"operator {profile.op.name!r} cannot fit per-core SRAM "
                        f"({scheduler.sram_budget} bytes) even without overlapped preloads"
                    )
                break
            exec_end = 0.0 if i + 1 >= n else decisions[i + 1].exec_start
            if q[i] + p < n:
                exec_end = min(exec_end, decisions[order[q[i] + p]].preload_start)
            exec_start = exec_end - allocation.window_time
            score = exec_start - allocation.preload_overhead_penalty
            if best is None or score >= best[0] - 1e-12:
                best = (score, p, allocation, exec_start)
        _, p, allocation, exec_start = best
        decision = decisions[i]
        decision.preload_number = p
        decision.execute_option = allocation.execute_option
        decision.exec_start = exec_start
        assignments.update(allocation.preload_assignments)
        preload_option = (
            assignments[i].option
            if i in assignments
            else scheduler._default_preload_option(profile, allocation.execute_option)
        )
        preload_end = exec_start
        if pos[i] + 1 < n and order[pos[i] + 1] > i:
            preload_end = min(preload_end, decisions[order[pos[i] + 1]].preload_start)
        decision.preload_start = preload_end - max(profile.hbm_time, preload_option.noc_time)
    return scheduler._build_plan(list(order), decisions, assignments)


def make_scheduler(profiles, max_preload_ahead=None, sram_fraction=1.0):
    chip = SYSTEM.chip
    return InductiveScheduler(
        profiles,
        SESSION.cost_model(chip),
        int(chip.per_core_usable_sram * sram_fraction),
        chip.core.link_bandwidth,
        SchedulerOptions(max_preload_ahead=max_preload_ahead),
    )


@st.composite
def preload_orders(draw, n):
    """Execution order, a few swaps of it, or any permutation of ``range(n)``."""
    order = list(range(n))
    kind = draw(st.sampled_from(("identity", "swaps", "permutation")))
    if kind == "permutation":
        return draw(st.permutations(order))
    if kind == "swaps":
        for _ in range(draw(st.integers(1, 4))):
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(a, min(n - 1, a + 4)))
            order[a], order[b] = order[b], order[a]
    return order


@given(workload=workloads(), data=st.data())
@settings(max_examples=25, deadline=None)
def test_memoized_schedule_equals_unmemoized_reference(workload, data):
    try:
        profiles = SESSION.profiles(workload, SYSTEM)
    except ElkError:
        return  # the shape does not fit; the profile differential covers it
    scheduler = make_scheduler(
        profiles,
        data.draw(st.one_of(st.none(), st.integers(0, 6)), label="ahead"),
        # Less SRAM pushes operators off their fastest execute plans, so memo
        # keys differ in execute-frontier indices too.
        data.draw(st.sampled_from((1.0, 0.7, 0.4, 0.25)), label="sram_fraction"),
    )
    # Several orders through one scheduler: later ones hit walks memoized by
    # earlier ones, as the candidate orders of one ElkScheduler.run do.
    for _ in range(data.draw(st.integers(1, 3), label="orders")):
        order = data.draw(preload_orders(len(profiles)), label="order")
        try:
            expected = repr(reference_schedule(scheduler, order))
        except SchedulingError as error:
            with pytest.raises(SchedulingError, match=re.escape(str(error))):
                scheduler.schedule(order)
            continue
        assert repr(scheduler.schedule(order)) == expected


def test_memo_keys_on_execute_frontier_index():
    # At 70% SRAM some opt-30b operators are preloaded with execute plans
    # other than their fastest; a memo key without the execute-frontier
    # index gives this order a different plan.
    profiles = SESSION.profiles(WorkloadSpec("opt-30b", 4, 512, num_layers=3), SYSTEM)
    order = list(range(len(profiles)))
    scheduler = make_scheduler(profiles, sram_fraction=0.7)
    expected = reference_schedule(make_scheduler(profiles, sram_fraction=0.7), order)
    assert repr(scheduler.schedule(order)) == repr(expected)
    stride = scheduler._stride
    assert any(code % stride for key in scheduler._walks for code in key[1:])


def test_one_allocator_walk_per_distinct_input(monkeypatch):
    workload = WorkloadSpec("gemma2-27b", batch_size=16, seq_len=4096, num_layers=2)
    graph = SESSION.frontend(workload, SYSTEM).per_chip_graph
    profiles = SESSION.profiles(workload, SYSTEM)
    elk = ElkScheduler(graph, SYSTEM.chip, SESSION.cost_model(SYSTEM.chip), profiles=profiles)
    orders = elk.order_generator().candidate_orders()

    # Every (operator, preload number) the un-memoized pass allocates for,
    # keyed by what the walk reads: signatures and execute-frontier indices.
    inputs = []

    def record(current, preloaded):
        inputs.append(
            (
                operator_signature(current.op),
                tuple(
                    (operator_signature(p.op), p.execute_frontier.index(option))
                    for p, option in preloaded
                ),
            )
        )

    reference = make_scheduler(profiles)
    expected = {}
    for order in orders:
        try:
            expected[order] = repr(reference_schedule(reference, order, record))
        except SchedulingError:
            pass

    walks = []
    real_walk = MemoryAllocator.walk

    def counting_walk(self, frontiers):
        walks.append(len(frontiers))
        return real_walk(self, frontiers)

    monkeypatch.setattr(MemoryAllocator, "walk", counting_walk)
    memoized = make_scheduler(profiles)
    for order in orders:
        try:
            plan = memoized.schedule(order)
        except SchedulingError:
            assert order not in expected
            continue
        assert repr(plan) == expected[order]
    assert len(walks) == len(set(inputs))
    # Most inputs repeat (21,676 calls over 6,118 inputs when written).
    assert len(walks) * 3 < len(inputs)
