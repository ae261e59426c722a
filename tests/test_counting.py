"""Configuration counting: Stirling numbers and search-space sizes."""
from __future__ import annotations

from itertools import combinations, product

from hypothesis import given, settings, strategies as st

from leadsel import (
    count_configs_distributed_bound,
    count_configs_exhaustive,
    stirling2,
)


def _partitions_into(items: list, k: int):
    """All set partitions of ``items`` into exactly k non-empty blocks."""
    if not items:
        if k == 0:
            yield []
        return
    head, rest = items[0], items[1:]
    for part in _partitions_into(rest, k):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [head]] + part[i + 1:]
    for part in _partitions_into(rest, k - 1):
        yield part + [[head]]


def test_stirling_small_values():
    assert stirling2(4, 2) == 7
    assert stirling2(0, 0) == 1
    assert stirling2(5, 0) == 0
    assert stirling2(3, 5) == 0
    for n in range(1, 9):
        assert stirling2(n, 1) == 1
        assert stirling2(n, n) == 1


def test_stirling_matches_partition_enumeration():
    for n in range(1, 9):
        for k in range(1, n + 1):
            direct = sum(1 for _ in _partitions_into(list(range(n)), k))
            assert stirling2(n, k) == direct


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30))
def test_stirling_recurrence(n, k):
    assert stirling2(n + 1, k) == k * stirling2(n, k) + stirling2(n, k - 1)


def _enumerate_valid_configs(n: int) -> int:
    """Count assignments satisfying C1 (no isolation) and C2 directly."""
    ues = range(1, n + 1)
    total = 0
    for k in range(1, n + 1):
        for leaders in combinations(ues, k):
            rest = [m for m in ues if m not in leaders]
            for choice in product(leaders, repeat=len(rest)):
                if set(choice) == set(leaders):
                    total += 1
    return total


def test_stirling_numbers_need_no_recursion():
    # S(n, 2) = 2**(n-1) - 1 counts the ways to split n items into two
    # non-empty blocks
    assert stirling2(1500, 2) == 2**1499 - 1


def test_exhaustive_count_small_values():
    assert count_configs_exhaustive(2) == 2
    assert count_configs_exhaustive(4) == 16  # k=1: 4, k=2: 12


def test_exhaustive_count_matches_enumeration():
    for n in range(2, 8):
        assert count_configs_exhaustive(n) == _enumerate_valid_configs(n)


def test_exhaustive_count_n12_order_of_magnitude():
    # tens of millions, evaluated through the closed form
    value = count_configs_exhaustive(12)
    assert 10**7 < value < 10**8


def test_distributed_bound_edge_cases():
    assert count_configs_distributed_bound(10, 10) == 0  # no followers at all
    for n in range(2, 12):
        assert count_configs_distributed_bound(n, 1) == 1  # single cluster


def test_distributed_bound_below_exhaustive():
    assert count_configs_distributed_bound(10, 3) < count_configs_exhaustive(10)
    for n in range(2, 21):
        full = count_configs_exhaustive(n)
        for l in range(1, n):
            assert count_configs_distributed_bound(n, l) <= full
