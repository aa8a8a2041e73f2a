"""Tests for the cost-aware on-chip memory allocator (§4.3)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduler.allocation import MemoryAllocator


@pytest.fixture(scope="module")
def allocator_parts(tiny_graph, small_chip, small_cost_model, tiny_profiles):
    allocator = MemoryAllocator(
        small_cost_model,
        small_chip.per_core_usable_sram,
        small_chip.core.link_bandwidth,
    )
    return allocator, tiny_profiles


def test_allocation_fits_budget(allocator_parts, small_chip):
    allocator, profiles = allocator_parts
    current = profiles[1]  # the QKV matmul
    preloaded = [(p, p.fastest) for p in profiles[2:6]]
    result = allocator.allocate(current, preloaded)
    assert result is not None
    assert result.total_memory_bytes <= small_chip.per_core_usable_sram
    assert set(result.preload_assignments) == {p.index for p, _ in preloaded}


def test_allocation_without_preloads_picks_fastest(allocator_parts):
    allocator, profiles = allocator_parts
    current = profiles[1]
    result = allocator.allocate(current, [])
    assert result is not None
    assert result.execute_option is current.execute_frontier[result.execute_frontier_index]
    assert result.execute_frontier_index == 0
    assert result.window_time >= result.execution_time


def test_more_preloads_never_decrease_footprint(allocator_parts):
    allocator, profiles = allocator_parts
    current = profiles[1]
    small = allocator.allocate(current, [(profiles[2], profiles[2].fastest)])
    large = allocator.allocate(
        current, [(p, p.fastest) for p in profiles[2:8]]
    )
    if small is not None and large is not None:
        assert large.total_memory_bytes >= small.total_memory_bytes
        assert large.preload_overhead_penalty >= small.preload_overhead_penalty - 1e-12


def test_infeasible_allocation_returns_none(small_cost_model, tiny_profiles):
    # A budget smaller than any operator's smallest plan is infeasible.
    tiny_budget = min(p.smallest.memory_bytes for p in tiny_profiles) // 2
    allocator = MemoryAllocator(small_cost_model, max(1, tiny_budget), 5.5e9)
    heavy = max(tiny_profiles, key=lambda p: p.smallest.memory_bytes)
    assert allocator.allocate(heavy, []) is None


def test_greedy_tracks_exhaustive_optimum(allocator_parts, small_chip, small_cost_model):
    """On a small instance the greedy allocation's objective is close to the
    optimum found by exhaustively trying every frontier combination."""
    allocator, profiles = allocator_parts
    current = profiles[9]  # FFN gate matmul
    preloaded = [(profiles[10], profiles[10].fastest), (profiles[12], profiles[12].fastest)]
    budget = small_chip.per_core_usable_sram
    result = allocator.allocate(current, preloaded)
    assert result is not None

    def objective(exec_option, preload_options):
        return exec_option.time_seconds + sum(o.overhead_time for o in preload_options)

    frontiers = [
        profiles[10].preload_frontier(profiles[10].fastest.plan, small_cost_model),
        profiles[12].preload_frontier(profiles[12].fastest.plan, small_cost_model),
    ]
    best = None
    for exec_option in current.execute_frontier:
        for combo in itertools.product(*frontiers):
            total_memory = exec_option.memory_bytes + sum(o.memory_bytes for o in combo)
            if total_memory > budget:
                continue
            value = objective(exec_option, combo)
            if best is None or value < best:
                best = value
    assert best is not None
    greedy_value = objective(
        result.execute_option,
        [a.option for a in result.preload_assignments.values()],
    )
    assert greedy_value <= best * 1.5 + 1e-9


def test_allocator_rejects_zero_budget(small_cost_model):
    with pytest.raises(Exception):
        MemoryAllocator(small_cost_model, 0, 5.5e9)


def reference_walk(frontiers, budget):
    """The §4.3 greedy walk written plainly: re-sum the footprint every step.

    Returns the final frontier positions, or ``None`` if nothing fits.
    """
    positions = [0] * len(frontiers)

    def footprint():
        return sum(f[p].memory_bytes for f, p in zip(frontiers, positions))

    while footprint() > budget:
        best_index, best_ratio = -1, -1.0
        for idx, (frontier, position) in enumerate(zip(frontiers, positions)):
            if position + 1 >= len(frontier):
                continue
            saved = frontier[position].memory_bytes - frontier[position + 1].memory_bytes
            added = frontier[position + 1].time_seconds - frontier[position].time_seconds
            if saved <= 0:
                ratio = float("inf") if added <= 0 else 0.0
            else:
                ratio = saved / max(added, 1e-12)
            if ratio > best_ratio:
                best_index, best_ratio = idx, ratio
        if best_index < 0:
            return None
        positions[best_index] += 1
    return positions


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_allocation_matches_reference_walk(data, small_cost_model, tiny_profiles):
    current = data.draw(st.sampled_from(tiny_profiles))
    preloaded = [
        (profile, data.draw(st.sampled_from(profile.execute_frontier)))
        for profile in data.draw(st.lists(st.sampled_from(tiny_profiles), max_size=5,
                                          unique_by=lambda p: p.index))
        if profile.index != current.index
    ]
    frontiers = [current.execute_frontier] + [
        profile.preload_frontier(option.plan, small_cost_model)
        for profile, option in preloaded
    ]
    fastest = sum(f[0].memory_bytes for f in frontiers)
    smallest = sum(f[-1].memory_bytes for f in frontiers)
    budget = data.draw(st.integers(max(1, smallest - 1024), fastest + 1024))
    result = MemoryAllocator(small_cost_model, budget, 5.5e9).allocate(current, preloaded)
    expected = reference_walk(frontiers, budget)
    if expected is None:
        assert result is None
        return
    assert result is not None
    assert result.execute_frontier_index == expected[0]
    assert [a.frontier_index for a in result.preload_assignments.values()] == expected[1:]
    assert result.total_memory_bytes == sum(
        f[p].memory_bytes for f, p in zip(frontiers, expected)
    )
