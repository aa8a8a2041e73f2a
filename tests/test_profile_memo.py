"""The signature memo of ``build_operator_profiles``.

Profiles are built once per distinct operator signature and rebound to each
repeat's names.  These tests pin that the memo changes cost, never results:

* a Hypothesis differential test against a test-local reference that
  enumerates, costs and Pareto-filters every operator on its own;
* enumeration count flat in model depth;
* a session sharing frontiers across compiled shapes;
* the ``partition-enumeration`` span reporting the dedup, deterministically;
* concurrent builds through one session's shared memo.
"""

from __future__ import annotations

import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.scheduler.profiles as profiles_module
from repro.api import Session
from repro.arch import ipu_pod4
from repro.compiler import ModelCompiler, WorkloadSpec
from repro.errors import ElkError
from repro.ir.models.registry import DIT_CONFIGS, available_models
from repro.obs import Tracer, to_jsonl
from repro.partition.enumerate import enumerate_execute_plans
from repro.partition.pareto import frontier_from_plans
from repro.partition.plan import enumerate_preload_plans
from repro.scheduler.profiles import ExecuteOption, count_new_signatures

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
